"""Adaptive pure pursuit tracking with PD steering actuation.

The lookahead distance scales linearly with speed between l_min and l_max;
the pursuit curvature 2|y|/L^2 (signed by the lateral offset of the target in
the vehicle frame, left positive) feeds a PD law whose output is clamped to
the physical steering limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import normalize_angle, polyline_distance, world_to_body
from .track import Raceline


class EndOfRaceline(Exception):
    """An open raceline has no waypoint far enough ahead."""


@dataclass(frozen=True)
class PursuitParams:
    l_min: float = 2.0
    l_max: float = 5.0
    v_max: float = 5.0
    kp: float = 2.0
    kd: float = 1.0
    delta_max: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.l_min < self.l_max:
            raise ValueError("require 0 < l_min < l_max")
        if self.v_max <= 0.0 or self.delta_max <= 0.0:
            raise ValueError("v_max and delta_max must be positive")


@dataclass(frozen=True)
class VehiclePose:
    x: float
    y: float
    psi: float
    v: float

    def __post_init__(self):
        object.__setattr__(self, "psi", normalize_angle(self.psi))


@dataclass(frozen=True)
class PursuitCommand:
    steering: float
    target_speed: float
    lookahead_index: int


@dataclass
class PursuitState:
    """Per-vehicle controller memory: previous curvature and a search hint."""

    gamma_prev: float | None = None
    nearest_hint: int | None = None


def lookahead_distance(v: float, params: PursuitParams) -> float:
    """L = l_min + (v / v_max) (l_max - l_min), clamped to [l_min, l_max]."""
    if v < 0.0:
        raise ValueError("speed must be >= 0")
    raw = params.l_min + (v / params.v_max) * (params.l_max - params.l_min)
    return min(max(raw, params.l_min), params.l_max)


def find_lookahead_point(raceline: Raceline, pose: VehiclePose, lookahead: float,
                         hint: int | None = None) -> tuple[int, float, int]:
    """Locate the target waypoint at arc distance >= lookahead ahead of the
    nearest waypoint: the vertex of `raceline.polyline` nearest the pose
    (the lowest index on a tie), searched around `hint` first.

    Returns (target index, lateral offset of the target in the vehicle frame
    with left positive, nearest index for the next call's hint). Raises
    EndOfRaceline when an open raceline runs out before the lookahead arc.
    """
    if len(raceline) == 0:
        raise ValueError("empty raceline")
    n = len(raceline)
    _, i0 = polyline_distance(raceline.polyline, (pose.x, pose.y), hint)
    target = None
    for k in range(1, n + 1):
        j = i0 + k
        if raceline.closed:
            arc = raceline.s[j % n] - raceline.s[i0]
            if j >= n:
                arc += raceline.length
            j %= n
        else:
            if j >= n:
                raise EndOfRaceline("raceline exhausted before lookahead distance")
            arc = raceline.s[j] - raceline.s[i0]
        if arc >= lookahead:
            target = j
            break
    if target is None:
        target = i0  # lookahead longer than the whole loop; track the nearest
    lateral = world_to_body(pose.x, pose.y, pose.psi,
                            raceline.xy[target])[1]
    return target, float(lateral), i0


def pursuit_curvature(y: float, lookahead: float) -> float:
    """Arc curvature to the lookahead point: magnitude 2|y|/L^2, sign of y."""
    if lookahead <= 0.0:
        raise ValueError("lookahead must be > 0")
    return 2.0 * y / lookahead ** 2


def pd_steering(gamma_now: float, gamma_prev: float, dt: float,
                params: PursuitParams) -> float:
    """delta = Kp gamma + Kd dgamma/dt, clamped to +-delta_max."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    raw = params.kp * gamma_now + params.kd * (gamma_now - gamma_prev) / dt
    return min(max(raw, -params.delta_max), params.delta_max)


def pursuit_step(raceline: Raceline, pose: VehiclePose, state: PursuitState,
                 params: PursuitParams, dt: float) -> PursuitCommand:
    """One controller cycle: lookahead selection, curvature, PD steering.

    Mutates `state` (previous curvature and search hint). The first call has
    no stored curvature, so the derivative term starts at zero.
    """
    lookahead = lookahead_distance(max(pose.v, 0.0), params)
    target, lateral, nearest = find_lookahead_point(
        raceline, pose, lookahead, state.nearest_hint)
    gamma = pursuit_curvature(lateral, lookahead)
    prev = state.gamma_prev if state.gamma_prev is not None else gamma
    steering = pd_steering(gamma, prev, dt, params)
    state.gamma_prev = gamma
    state.nearest_hint = nearest
    return PursuitCommand(steering=steering,
                          target_speed=float(raceline.v[target]),
                          lookahead_index=target)
