"""Track model, spline fitting, min-curvature raceline optimization, and
velocity profiling.

A raceline is parameterized by signed lateral offsets alpha from the
centerline along its unit normals (left of travel positive); the optimizer
minimizes the summed squared curvature of the cubic spline refit through the
offset points, subject to the track-width box constraints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from .fileio import read_table, write_table
from .geometry import Polyline


class TrackFormatError(ValueError):
    """A track or raceline CSV could not be parsed."""


class OptimizationError(RuntimeError):
    """Raceline optimizer failed to converge; carries the best iterate."""

    def __init__(self, message: str, alpha: np.ndarray):
        super().__init__(message)
        self.alpha = alpha


@dataclass(frozen=True)
class VehicleLimits:
    a_lat_max: float = 3.0
    a_lon_max: float = 2.0
    v_max: float = 5.0

    def __post_init__(self):
        if min(self.a_lat_max, self.a_lon_max, self.v_max) <= 0.0:
            raise ValueError("vehicle limits must be positive")


class Track:
    """Ordered centerline (N, 2) with per-point left and right widths.

    Widths may be given as scalars. For closed tracks the closure is
    implicit: the last point must not repeat the first.
    """

    def __init__(self, xy, w_left, w_right, closed: bool,
                 vehicle_half_width: float = 0.4):
        xy = np.array(xy, dtype=float)
        w_left = np.array(np.broadcast_to(w_left, len(xy)), dtype=float)
        w_right = np.array(np.broadcast_to(w_right, len(xy)), dtype=float)
        if not np.all(np.isfinite(xy)):
            raise ValueError("coordinates must be finite")
        if not (np.all(w_left > 0.0) and np.all(w_right > 0.0)):
            raise ValueError("track widths must be > 0")
        if len(xy) < 8:
            raise ValueError("a track needs at least 8 centerline points")
        # the kart must fit between the boundaries with room to move
        fit = 0.5 * float(np.min(w_left + w_right))
        if not 0.0 <= vehicle_half_width < fit:
            raise ValueError(
                f"track.vehicle_half_width must lie in [0, {fit!r}) m, below "
                f"half the narrowest track width, got {vehicle_half_width!r}")
        self.xy = xy
        self.w_left = w_left
        self.w_right = w_right
        self.closed = bool(closed)
        self.vehicle_half_width = float(vehicle_half_width)
        seg = np.linalg.norm(np.diff(self.xy, axis=0), axis=1)
        if closed:
            seg = np.append(seg, np.linalg.norm(self.xy[0] - self.xy[-1]))
        if np.any(seg <= 1e-3):
            raise ValueError("consecutive centerline points closer than 1 mm")

    def __len__(self) -> int:
        return len(self.xy)

    @classmethod
    def from_arrays(cls, xy, w_left, w_right, closed: bool,
                    vehicle_half_width: float = 0.4) -> "Track":
        """Same as `Track(xy, w_left, w_right, closed, vehicle_half_width)`."""
        return cls(xy, w_left, w_right, closed, vehicle_half_width)


class Spline2D:
    """C2 cubic spline through 2D points, chord-length parameterized.

    Closed curves get periodic end conditions, open curves natural ones.
    `t_knots` holds one parameter per input point.
    """

    def __init__(self, xy: np.ndarray, closed: bool):
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("expected an (N, 2) point array")
        if len(xy) < 4:
            raise ValueError("spline fitting needs at least 4 points")
        data = np.vstack([xy, xy[:1]]) if closed else xy
        seg = np.linalg.norm(np.diff(data, axis=0), axis=1)
        if np.any(seg <= 0.0):
            raise ValueError("coincident consecutive points")
        t = np.concatenate([[0.0], np.cumsum(seg)])
        bc = "periodic" if closed else "natural"
        self._sx = CubicSpline(t, data[:, 0], bc_type=bc)
        self._sy = CubicSpline(t, data[:, 1], bc_type=bc)
        self.closed = closed
        self.t_knots = t[:-1] if closed else t
        self.t_max = float(t[-1])

    def point(self, t):
        return np.stack([self._sx(t), self._sy(t)], axis=-1)

    def derivative(self, t, order: int = 1):
        return np.stack([self._sx(t, order), self._sy(t, order)], axis=-1)


def fit_spline(points, closed: bool = False) -> Spline2D:
    """Fit a per-axis cubic spline through the points (periodic when closed)."""
    return Spline2D(np.asarray(points, dtype=float), closed)


def curvature_at(spline: Spline2D, t):
    """Signed curvature (x' y'' - y' x'') / (x'^2 + y'^2)^(3/2).

    Positive for counter-clockwise (left-turning) parameterizations.
    """
    d1 = spline.derivative(t, 1)
    d2 = spline.derivative(t, 2)
    speed_sq = d1[..., 0] ** 2 + d1[..., 1] ** 2
    if np.any(speed_sq < 1e-18):
        raise ValueError("degenerate tangent: spline parameterization collapsed")
    return (d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]) / speed_sq ** 1.5


def normals(track: Track) -> np.ndarray:
    """Unit normals at the centerline points, pointing left of travel."""
    sp = fit_spline(track.xy, track.closed)
    d1 = sp.derivative(sp.t_knots, 1)
    norm = np.hypot(d1[:, 0], d1[:, 1])
    if np.any(norm < 1e-12):
        raise ValueError("degenerate tangent on centerline")
    return np.column_stack([-d1[:, 1] / norm, d1[:, 0] / norm])


def alpha_bounds(track: Track) -> tuple[np.ndarray, np.ndarray]:
    """Per-point box [alpha_min, alpha_max] from widths minus vehicle half-width."""
    hi = track.w_left - track.vehicle_half_width
    lo = -(track.w_right - track.vehicle_half_width)
    return lo, hi


def _knot_derivative_operators(track: Track) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Linear maps from interpolation data to spline derivatives at the knots.

    For a fixed parameterization the cubic-spline fit is linear in the data,
    so d1 = D1 @ data and d2 = D2 @ data hold exactly. The parameterization
    is frozen to the centerline chord length; curvature is
    parameterization-invariant, so this does not bias the optimum.
    Returns (D1, D2, normals).
    """
    base = track.xy
    data = np.vstack([base, base[:1]]) if track.closed else base
    seg = np.linalg.norm(np.diff(data, axis=0), axis=1)
    t = np.concatenate([[0.0], np.cumsum(seg)])
    tk = t[:-1] if track.closed else t
    n = len(base)
    ident = np.eye(n)
    cols = np.vstack([ident, ident[:1]]) if track.closed else ident
    bc = "periodic" if track.closed else "natural"
    sp = CubicSpline(t, cols, axis=0, bc_type=bc)
    return sp(tk, 1), sp(tk, 2), normals(track)


def _objective_and_gradient(track: Track, reg: float):
    """Summed squared curvature of the offset spline at the knots, plus the
    tie-breaking regularizer, with its exact analytic gradient."""
    d1_op, d2_op, nrm = _knot_derivative_operators(track)
    x0, y0 = track.xy[:, 0], track.xy[:, 1]
    nx, ny = nrm[:, 0], nrm[:, 1]

    def fg(alpha: np.ndarray):
        x = x0 + alpha * nx
        y = y0 + alpha * ny
        d1x, d1y = d1_op @ x, d1_op @ y
        d2x, d2y = d2_op @ x, d2_op @ y
        speed_sq = d1x ** 2 + d1y ** 2
        num = d1x * d2y - d1y * d2x
        kappa = num / speed_sq ** 1.5
        value = float(np.sum(kappa ** 2) + reg * np.sum(alpha ** 2))
        inv32 = 1.0 / speed_sq ** 1.5
        inv52 = 3.0 * num / speed_sq ** 2.5
        w = 2.0 * kappa
        gx = d1_op.T @ (w * (d2y * inv32 - d1x * inv52)) + d2_op.T @ (w * (-d1y * inv32))
        gy = d1_op.T @ (w * (-d2x * inv32 - d1y * inv52)) + d2_op.T @ (w * (d1x * inv32))
        grad = gx * nx + gy * ny + 2.0 * reg * alpha
        return value, grad

    return fg


def optimize_min_curvature(track: Track, reg: float = 1e-6,
                           max_iters: int = 5000,
                           rel_tol: float = 1e-8) -> np.ndarray:
    """Minimize summed squared raceline curvature over the width box.

    Box-constrained quasi-Newton (L-BFGS-B) on the spline-curvature objective
    with its exact analytic gradient; plain projected gradient descent crawls
    on this objective (the uniform-offset valley is orders of magnitude
    softer than single-point modes). Converges when the relative objective
    drop falls below `rel_tol`; raises OptimizationError (carrying the best
    iterate) if the iteration budget runs out first.
    """
    if reg < 0.0:
        raise ValueError("reg must be >= 0")
    lo, hi = alpha_bounds(track)
    fg = _objective_and_gradient(track, reg)
    n = len(track)
    start = np.clip(np.zeros(n), lo, hi)
    result = minimize(fg, start, jac=True, method="L-BFGS-B",
                      bounds=list(zip(lo, hi)),
                      options={"maxiter": max_iters, "maxfun": 10 * max_iters,
                               "ftol": rel_tol, "gtol": 1e-14})
    if not result.success:
        raise OptimizationError(
            f"min-curvature optimizer did not converge in {max_iters} "
            f"iterations: {result.message}",
            alpha=np.clip(result.x, lo, hi))
    return np.clip(result.x, lo, hi)


def centerline_curvature_cost(track: Track) -> float:
    """Summed squared curvature of the raw centerline (reporting helper)."""
    sp = fit_spline(track.xy, track.closed)
    return float(np.sum(curvature_at(sp, sp.t_knots) ** 2))


def offset_curvature_cost(track: Track, alpha: np.ndarray) -> float:
    """Summed squared curvature of the spline refit through the offset points."""
    pts = track.xy + np.asarray(alpha, dtype=float)[:, None] * normals(track)
    sp = fit_spline(pts, track.closed)
    return float(np.sum(curvature_at(sp, sp.t_knots) ** 2))


def velocity_profile(kappa, s, limits: VehicleLimits, *, closed: bool = False,
                     total_length: float | None = None) -> np.ndarray:
    """Per-waypoint speed targets.

    Seeds v_i = min(v_max, sqrt(a_lat_max / |kappa_i|)), then makes one
    forward (acceleration) and one backward (braking) pass enforcing
    |v_{i+1}^2 - v_i^2| <= 2 a_lon_max ds. Closed profiles wrap across the
    seam, whose segment length comes from `total_length`, and start both
    passes at the slowest seeded waypoint, which no cap can lower.
    """
    kappa = np.abs(np.asarray(kappa, dtype=float))
    s = np.asarray(s, dtype=float)
    n = len(kappa)
    if closed and total_length is None:
        raise ValueError("closed profiles need total_length for the seam segment")
    with np.errstate(divide="ignore"):
        v = np.where(kappa > 1e-12,
                     np.sqrt(limits.a_lat_max / np.maximum(kappa, 1e-12)),
                     np.inf)
    v = np.minimum(v, limits.v_max)
    ds = np.diff(s)
    if closed:
        seam = total_length - s[-1] + s[0]
        if seam <= 0.0:
            raise ValueError("total_length inconsistent with arc positions")
        ds = np.append(ds, seam)
        start = int(np.argmin(v))
        edges = [(start + i) % n for i in range(n)]
    else:
        edges = range(n - 1)
    for i in edges:
        j = (i + 1) % n
        v[j] = min(v[j], math.sqrt(v[i] ** 2 + 2.0 * limits.a_lon_max * ds[i]))
    for i in reversed(edges):
        j = (i + 1) % n
        v[i] = min(v[i], math.sqrt(v[j] ** 2 + 2.0 * limits.a_lon_max * ds[i]))
    return v


@dataclass
class Raceline:
    """Optimized waypoint sequence: positions, curvature, speed, arc length."""

    xy: np.ndarray
    kappa: np.ndarray
    v: np.ndarray
    s: np.ndarray
    closed: bool
    length: float

    def __post_init__(self):
        self.xy = np.asarray(self.xy, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.s = np.asarray(self.s, dtype=float)
        if np.any(np.diff(self.s) <= 0.0):
            raise ValueError("arc length must be strictly increasing")
        if not np.all(np.isfinite(self.kappa)):
            raise ValueError("curvature must be finite")
        if np.any(self.v <= 0.0):
            raise ValueError("waypoint speeds must be positive")

    def __len__(self) -> int:
        return len(self.s)

    @functools.cached_property
    def polyline(self) -> Polyline:
        """The waypoints set up for nearest-waypoint queries, built once."""
        return Polyline(self.xy, self.closed)


def resample_raceline(spline: Spline2D, limits: VehicleLimits,
                      spacing: float = 1.0) -> Raceline:
    """Sample a raceline spline at uniform arc-length spacing and attach
    curvature and the velocity profile."""
    if spacing <= 0.0:
        raise ValueError("spacing must be > 0")
    dense = np.linspace(0.0, spline.t_max, 20 * max(len(spline.t_knots), 8))
    d1 = spline.derivative(dense, 1)
    speed = np.hypot(d1[:, 0], d1[:, 1])
    arc = np.concatenate([[0.0], np.cumsum(
        0.5 * (speed[1:] + speed[:-1]) * np.diff(dense))])
    total = float(arc[-1])
    if spline.closed:
        count = max(8, int(round(total / spacing)))
        targets = np.arange(count) * (total / count)
    else:
        count = max(8, int(math.floor(total / spacing)) + 1)
        targets = np.linspace(0.0, total, count)
    t_at = np.interp(targets, arc, dense)
    xy = spline.point(t_at)
    kappa = curvature_at(spline, t_at)
    v = velocity_profile(kappa, targets, limits, closed=spline.closed,
                         total_length=total if spline.closed else None)
    return Raceline(xy=xy, kappa=kappa, v=v, s=targets,
                    closed=spline.closed, length=total)


def build_raceline(track: Track, alpha: np.ndarray, limits: VehicleLimits,
                   spacing: float = 1.0) -> Raceline:
    """Offset the centerline by alpha along the normals, refit, and resample."""
    pts = track.xy + np.asarray(alpha, dtype=float)[:, None] * normals(track)
    return resample_raceline(fit_spline(pts, track.closed), limits, spacing)


def estimated_lap_time(raceline: Raceline) -> float:
    """Time to traverse the raceline at its profile speeds."""
    v = raceline.v
    ds = np.diff(raceline.s)
    pair = 0.5 * (v[:-1] + v[1:])
    t = float(np.sum(ds / pair))
    if raceline.closed:
        seam = raceline.length - raceline.s[-1] + raceline.s[0]
        t += seam / (0.5 * (v[-1] + v[0]))
    return t


# --- CSV interfaces ----------------------------------------------------------

TRACK_COLUMNS = ["x_m", "y_m", "w_left_m", "w_right_m"]
RACELINE_COLUMNS = ["s_m", "x_m", "y_m", "kappa_1pm", "v_mps"]


def read_track_csv(path, closed: bool, vehicle_half_width: float = 0.4) -> Track:
    arr, _ = read_table(path, TRACK_COLUMNS, TrackFormatError)
    try:
        return Track(arr[:, :2], arr[:, 2], arr[:, 3], closed,
                     vehicle_half_width)
    except ValueError as exc:
        raise TrackFormatError(f"{path}: {exc}") from None


def write_raceline_csv(path, raceline: Raceline) -> None:
    write_table(path, RACELINE_COLUMNS,
                np.column_stack([raceline.s, raceline.xy, raceline.kappa,
                                 raceline.v]))


def read_raceline_csv(path, closed: bool) -> Raceline:
    """Read a raceline CSV written by this package.

    Racelines are emitted at uniform spacing, so for closed lines the total
    length is recovered as s[-1] plus one spacing step.
    """
    arr, _ = read_table(path, RACELINE_COLUMNS, TrackFormatError)
    if len(arr) < 2:
        raise TrackFormatError(f"{path}: need at least two waypoints")
    s = arr[:, 0]
    length = float(s[-1] + (s[1] - s[0])) if closed else float(s[-1])
    return Raceline(xy=arr[:, 1:3], kappa=arr[:, 3], v=arr[:, 4], s=s,
                    closed=closed, length=length)
