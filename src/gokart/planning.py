"""Follow-the-gap reactive planner over a polar depth scan.

A gap is a maximal run of rays whose distance clears the safety threshold;
the planner steers at the angle of the widest gap's midpoint. The published
speed law makes speed grow with steering magnitude; the corrected inverse law
(slow down in tight turns) is the default, with the literal law kept behind a
switch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .fileio import require
from .perception import DepthScan, SCAN_SIZE

SpeedLaw = Literal["corrected", "as_written"]

_CENTER_INDEX = (SCAN_SIZE - 1) // 2


class NoGapError(ValueError):
    """No ray run clears the safety distance."""


@dataclass(frozen=True)
class Gap:
    """Inclusive index run [i, j] of rays with distance >= epsilon."""

    i: int
    j: int

    def __post_init__(self):
        if not 0 <= self.i <= self.j <= SCAN_SIZE - 1:
            raise ValueError("gap indices out of order or range")

    @property
    def width(self) -> int:
        return self.j - self.i + 1

    @property
    def midpoint(self) -> int:
        return (self.i + self.j) // 2


@dataclass(frozen=True)
class FtgParams:
    epsilon: float = 2.5
    v_min: float = 2.0
    v_max: float = 5.0
    delta_max: float = 1.0
    law: SpeedLaw = "corrected"

    def __post_init__(self):
        require(self.epsilon > 0.0, "ftg.epsilon", "be > 0", self.epsilon)
        require(self.v_min > 0.0, "ftg.v_min", "be > 0", self.v_min)
        require(self.v_min <= self.v_max, "ftg.v_min",
                f"be <= ftg.v_max = {self.v_max!r}", self.v_min)
        require(self.law in ("corrected", "as_written"), "ftg.law",
                "be corrected or as_written", self.law)


@dataclass(frozen=True)
class FtgCommand:
    steering: float
    speed: float
    chosen_gap: Gap | None
    safety_stop: bool = False


def find_gaps(scan: DepthScan, epsilon: float) -> list[Gap]:
    """Maximal runs of rays with distance >= epsilon, in index order."""
    ok = np.concatenate([[False], scan.distances >= epsilon, [False]])
    edges = np.diff(ok.astype(np.int8))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1) - 1
    return [Gap(int(i), int(j)) for i, j in zip(starts, ends)]


def select_largest_gap(gaps: list[Gap]) -> Gap:
    """Widest gap; ties broken by the midpoint nearest the scan center, then
    by the lowest start index."""
    if not gaps:
        raise NoGapError("no gap clears the safety distance")
    return min(gaps, key=lambda g: (-g.width, abs(g.midpoint - _CENTER_INDEX), g.i))


def gap_steering(gap: Gap, scan: DepthScan, delta_max: float = 1.0) -> float:
    """Steer at the angle of the gap midpoint (floor division), clamped."""
    angle = float(scan.angles[gap.midpoint])
    return min(max(angle, -delta_max), delta_max)


def ftg_speed(delta: float, params: FtgParams) -> float:
    """Speed command for a steering angle under `params.law`.

    corrected (default): v = v_max - (|delta| / delta_max)(v_max - v_min)
    as_written:          v = v_min + (delta / delta_max)(v_max - v_min)
    Both are clamped to [v_min, v_max].
    """
    if params.law == "as_written":
        v = params.v_min + (delta / params.delta_max) * (params.v_max - params.v_min)
    else:
        v = params.v_max - (abs(delta) / params.delta_max) * (params.v_max - params.v_min)
    return min(max(v, params.v_min), params.v_max)


def ftg_step(scan: DepthScan, params: FtgParams) -> FtgCommand:
    """Full planner cycle; a scan with no viable gap yields a safety stop."""
    try:
        gap = select_largest_gap(find_gaps(scan, params.epsilon))
    except NoGapError:
        return FtgCommand(steering=0.0, speed=0.0, chosen_gap=None,
                          safety_stop=True)
    steering = gap_steering(gap, scan, params.delta_max)
    return FtgCommand(steering=steering, speed=ftg_speed(steering, params),
                      chosen_gap=gap)
