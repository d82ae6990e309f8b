"""Adaptive pure pursuit tracking with PD steering actuation.

The lookahead distance scales linearly with speed between l_min and l_max;
the pursuit curvature 2|y|/L^2 (signed by the lateral offset of the target in
the vehicle frame, left positive) feeds a PD law whose output is clamped to
the physical steering limit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .fileio import require
from .geometry import normalize_angle
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
        require(self.l_min > 0.0, "pursuit.l_min", "be > 0", self.l_min)
        require(self.l_min < self.l_max, "pursuit.l_min",
                f"be < pursuit.l_max = {self.l_max!r}", self.l_min)
        # pursuit_curvature squares the lookahead, at most l_max
        bound = math.sqrt(sys.float_info.max)
        require(self.l_max <= bound, "pursuit.l_max",
                f"be <= sqrt(max float) = {bound!r}, so that the squared "
                "lookahead stays finite", self.l_max)
        for key in ("v_max", "delta_max"):
            value = getattr(self, key)
            require(value > 0.0, f"pursuit.{key}", "be > 0", value)


@dataclass
class VehicleState:
    """The kart's pose and speed, for the plant and the controller alike."""

    x: float = 0.0
    y: float = 0.0
    psi: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        self.psi = normalize_angle(self.psi)
        if self.v < 0.0:
            raise ValueError("speed must be >= 0")


@dataclass(frozen=True)
class PursuitCommand:
    steering: float
    target_speed: float


@dataclass
class PursuitState:
    """Per-vehicle controller memory: the previous curvature."""

    gamma_prev: float | None = None


def lookahead_distance(v: float, params: PursuitParams) -> float:
    """L = l_min + (v / v_max) (l_max - l_min), clamped to [l_min, l_max]."""
    if v < 0.0:
        raise ValueError("speed must be >= 0")
    raw = params.l_min + (v / params.v_max) * (params.l_max - params.l_min)
    return min(max(raw, params.l_min), params.l_max)


def find_lookahead_point(raceline: Raceline, pose: VehicleState,
                         lookahead: float) -> tuple[int, float, int]:
    """Locate the target waypoint at arc distance >= lookahead ahead of the
    nearest waypoint: the vertex of `raceline.polyline` nearest the pose
    (the lowest index on a tie).

    Returns (target index, lateral offset of the target in the vehicle frame
    with left positive, nearest index). Raises EndOfRaceline when an open
    raceline runs out before the lookahead arc.
    """
    if len(raceline) == 0:
        raise ValueError("empty raceline")
    n = len(raceline)
    i0 = raceline.polyline.nearest_vertex(pose.x, pose.y)
    s = raceline.s
    target = i0  # kept if the lookahead is longer than the whole loop
    for j in range(i0 + 1, i0 + n + 1):
        if j < n:
            arc = s[j] - s[i0]
        elif raceline.closed:
            arc = s[j - n] - s[i0] + raceline.length
        else:
            raise EndOfRaceline("raceline exhausted before lookahead distance")
        if arc >= lookahead:
            target = j % n
            break
    tx, ty = raceline.xy[target].tolist()
    lateral = (-math.sin(pose.psi) * (tx - pose.x)
               + math.cos(pose.psi) * (ty - pose.y))
    return target, lateral, i0


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


def pursuit_step(raceline: Raceline, pose: VehicleState, state: PursuitState,
                 params: PursuitParams, dt: float) -> PursuitCommand:
    """One controller cycle: lookahead selection, curvature, PD steering.

    Mutates `state` (the previous curvature). The first call has no stored
    curvature, so the derivative term starts at zero.
    """
    lookahead = lookahead_distance(pose.v, params)
    target, lateral, _ = find_lookahead_point(raceline, pose, lookahead)
    gamma = pursuit_curvature(lateral, lookahead)
    prev = state.gamma_prev if state.gamma_prev is not None else gamma
    steering = pd_steering(gamma, prev, dt, params)
    state.gamma_prev = gamma
    return PursuitCommand(steering=steering,
                          target_speed=float(raceline.v[target]))
