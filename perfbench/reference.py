"""A fixed reference computation, timed next to every measured operation.

The benchmark runs on a few cores of a shared host, and how fast those cores
run moves by tens of percent from one minute to the next: a 45 s pursuit lap
took from 1.0 to 2.3 s within five minutes on an idle 2-vCPU VM, with the
process's CPU time equal to its wall time (so the time is not lost to the
scheduler; the core itself is slower). A wall time alone then measures the
host as much as the program.

The reference loop does not touch gokart and always does the same work, so
its wall time follows only the speed of the core. Its mix follows the
workloads': a per-tick Python loop with small numpy calls and formatted log
rows (the closed loop's ticks), stencil and mask arithmetic on a camera-sized
image (perception), and dense BLAS products and solves (the raceline's
operators). Each workload names the parts that match its own profile
(`workloads.REFERENCE_PARTS`). The worker runs a pass cut into SLICES slices
spread over each operation, so the reference samples the host over the same
span of time as the operation, and divides the operation's wall time (slices
taken out) by the reference's wall time per pass. That cancels most of the
host's drift; a change to gokart moves only the numerator.
"""

from __future__ import annotations

import math
import time

import numpy as np

_RNG = np.random.default_rng(0)
_POINTS = _RNG.normal(size=(400, 2))
_IMAGE = _RNG.random((240, 320))
_MATRIX = _RNG.normal(size=(300, 300))

# a pass is made of this many equal slices
SLICES = 12


class _Pose:
    __slots__ = ("x", "y", "h")

    def __init__(self, x, y, h):
        self.x, self.y, self.h = x, y, h


def _step(p: _Pose, v: float, dt: float) -> _Pose:
    return _Pose(p.x + v * math.cos(p.h) * dt, p.y + v * math.sin(p.h) * dt,
                 p.h + 0.01 * dt)


def _ticks(n=9000) -> float:
    p, acc, rows = _Pose(0.0, 0.0, 0.0), 0.0, []
    for k in range(n):
        p = _step(p, 8.0, 0.01)
        d = _POINTS - (p.x, p.y)
        acc += d[int(np.argmin(np.einsum("ij,ij->i", d, d))), 0]
        if k % 10 == 0:
            rows.append(f"{k},{p.x:.4f},{p.y:.4f},{acc:.3f}")
    return acc + len(rows)


def _image(n=120) -> float:
    x, total = _IMAGE, 0.0
    for _ in range(n):
        y = (x[:-2, 1:-1] + x[2:, 1:-1] + x[1:-1, :-2] + x[1:-1, 2:]
             + 4.0 * x[1:-1, 1:-1]) / 8.0
        m = y > 0.5
        m = m[:-2, 1:-1] & m[2:, 1:-1] | m[1:-1, :-2] & m[1:-1, 2:]
        total += float(np.cumsum(m, axis=0).sum())
    return total


def _dense(n=36) -> float:
    a, eye, total = _MATRIX, 300.0 * np.eye(300), 0.0
    for _ in range(n):
        total += float(np.linalg.solve(a @ a.T + eye, a[:, 0])[0])
    return total


# part name -> (function, iterations in one pass)
PARTS = {"ticks": (_ticks, 9000), "image": (_image, 120), "dense": (_dense, 36)}


def reference_s(parts=tuple(PARTS), slices: int = SLICES) -> float:
    """Wall time of `slices` of the SLICES slices of one pass over `parts`
    (a whole pass over all three takes about 0.35 s, the tick loop alone
    about 0.15 s)."""
    start = time.perf_counter()
    for name in parts:
        fn, n = PARTS[name]
        fn(n * slices // SLICES)
    return time.perf_counter() - start
