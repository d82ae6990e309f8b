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
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import OptimizeResult

from .fileio import read_table, require, write_table
from .geometry import Polyline

# Most waypoint steps a raceline may span (its length / spacing_m).
MAX_WAYPOINTS = 10**6


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
        for key in ("a_lat_max", "a_lon_max", "v_max"):
            value = getattr(self, key)
            require(value > 0.0, f"limits.{key}", "be > 0", value)


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
        require(0.0 <= vehicle_half_width < fit, "track.vehicle_half_width",
                f"lie in [0, {fit!r}) m, below half the narrowest track width",
                vehicle_half_width)
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


def _curvature_residual(track: Track):
    """The knot curvatures of the offset spline as a function of alpha, and
    their Jacobian in alpha. Returns (kappa, jacobian)."""
    d1_op, d2_op, nrm = _knot_derivative_operators(track)
    x0, y0 = track.xy[:, 0], track.xy[:, 1]
    nx, ny = nrm[:, 0], nrm[:, 1]

    def derivatives(alpha: np.ndarray):
        x = x0 + alpha * nx
        y = y0 + alpha * ny
        return d1_op @ x, d1_op @ y, d2_op @ x, d2_op @ y

    def kappa(alpha: np.ndarray) -> np.ndarray:
        d1x, d1y, d2x, d2y = derivatives(alpha)
        return (d1x * d2y - d1y * d2x) / (d1x ** 2 + d1y ** 2) ** 1.5

    def jacobian(alpha: np.ndarray) -> np.ndarray:
        # kappa = num / s^1.5 with num = d1x d2y - d1y d2x, s = d1x^2 + d1y^2;
        # each spline derivative is D @ (xy0 + alpha n), linear in alpha
        d1x, d1y, d2x, d2y = derivatives(alpha)
        speed_sq = d1x ** 2 + d1y ** 2
        inv32 = speed_sq ** -1.5
        c = 3.0 * (d1x * d2y - d1y * d2x) * inv32 / speed_sq
        jx = (d2y * inv32 - d1x * c)[:, None] * d1_op \
            - (d1y * inv32)[:, None] * d2_op
        jy = (-d2x * inv32 - d1y * c)[:, None] * d1_op \
            + (d1x * inv32)[:, None] * d2_op
        return jx * nx + jy * ny

    return kappa, jacobian


# Armijo sufficient-decrease fraction, halvings tried along the projected arc,
# the largest width of the epsilon-active set, and the relative objective
# drop at which the solve has converged.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_ACTIVE_WIDTH = 1e-3
_REL_TOL = 1e-8


def _solve_psd(h: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve h p = b for symmetric positive semi-definite h by Cholesky.

    Where h is singular (with reg = 0, offsets that leave every knot
    curvature unchanged, such as a straight track's linear ones, span its
    null space), the smallest diagonal damping, in steps of 100 from 1e-12
    of h's largest diagonal entry, that lets the factorization succeed is
    added.
    """
    scale = float(np.max(np.diag(h), initial=0.0)) or 1.0
    for damping in [0.0] + [scale * 10.0 ** k for k in range(-12, 1, 2)]:
        try:
            factor = cho_factor(h + damping * np.eye(len(h)))
        except np.linalg.LinAlgError:
            continue
        return cho_solve(factor, b)
    raise np.linalg.LinAlgError("no damping makes the normal matrix definite")


def minimize(fun, x0, jac, lo, hi, reg: float = 0.0,
             max_iters: int = 5000) -> OptimizeResult:
    """Projected Gauss-Newton on ||fun(x)||^2 + reg ||x||^2 over lo <= x <= hi.

    `fun` gives the residual vector and `jac` its Jacobian. Each step solves
    the normal equations (J^T J + reg I) p = -g on the free variables by
    Cholesky and scales the gradient of the others by the diagonal; the free
    set leaves out Bertsekas' epsilon-active bounds, those within epsilon
    (the projected-gradient norm, capped at _ACTIVE_WIDTH) whose gradient
    points out of the box. The step length is found by Armijo backtracking
    along the projected arc x(b) = clip(x + b d, lo, hi) (Bertsekas, "Projected
    Newton methods for optimization problems with simple constraints", 1982).
    Succeeds when the objective drop falls to _REL_TOL of
    max(|f_k|, |f_k+1|, 1), when the projected gradient is zero, or when no
    step lowers the objective in floating point and the full step's
    first-order drop is within that tolerance; otherwise fails, with the
    last iterate, when `max_iters` steps are spent or no step lowers it.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    nfev = 1
    f = float(r @ r + reg * (x @ x))
    nit = 0

    def result(success: bool, message: str) -> OptimizeResult:
        return OptimizeResult(x=x, fun=f, success=success, nit=nit,
                              nfev=nfev, message=message)

    for nit in range(1, max_iters + 1):
        j = jac(x)
        g = j.T @ r + reg * x  # half the gradient
        projected = x - np.clip(x - g, lo, hi)
        if not projected.any():
            return result(True, "zero projected gradient")
        h = j.T @ j
        h[np.diag_indices_from(h)] += reg
        width = min(_ACTIVE_WIDTH, float(np.linalg.norm(projected)))
        active = (((x <= lo + width) & (g > 0.0))
                  | ((x >= hi - width) & (g < 0.0)))
        free = ~active
        d = np.zeros_like(x)
        d[free] = -_solve_psd(h[np.ix_(free, free)], g[free])
        diag = np.diag(h)[active]
        d[active] = -g[active] / np.where(diag > 0.0, diag, 1.0)
        slope = float(g[free] @ d[free])  # <= 0
        step = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = np.clip(x + step * d, lo, hi)
            r_trial = fun(trial)
            nfev += 1
            f_trial = float(r_trial @ r_trial + reg * (trial @ trial))
            decrease = -step * slope + float(g[active] @ (x - trial)[active])
            if f_trial < f - 2.0 * _ARMIJO * decrease:
                break
            step *= 0.5
        else:
            # no step lowers f in floating point: converged only if the
            # linear model's drop for the full step meets the stop rule
            if -2.0 * float(g @ d) <= _REL_TOL * max(abs(f), 1.0):
                return result(True, "no decrease above the tolerance possible")
            return result(False, "no decrease along the projected arc")
        drop = f - f_trial
        x, r, f = trial, r_trial, f_trial
        if drop <= _REL_TOL * max(abs(f + drop), abs(f), 1.0):
            return result(True, "relative objective drop below the tolerance")
    return result(False, f"iteration budget of {max_iters} steps spent")


def optimize_min_curvature(track: Track, reg: float = 1e-6,
                           max_iters: int = 5000) -> np.ndarray:
    """Minimize summed squared raceline curvature over the width box.

    The knot curvatures of the offset spline, plus the tie-breaking
    regularizer sqrt(reg) * alpha, form a bounded nonlinear least-squares
    problem, solved by projected Gauss-Newton (`minimize`) from the
    centerline, as in Heilmeier et al., "Minimum curvature trajectory
    planning and control for an autonomous race car", Vehicle System
    Dynamics, 2019. Converges when the relative objective drop falls below
    _REL_TOL; raises OptimizationError (carrying the best iterate) if the
    iteration budget runs out first or no step lowers the objective.
    """
    if reg < 0.0:
        raise ValueError("reg must be >= 0")
    lo, hi = alpha_bounds(track)
    kappa, jacobian = _curvature_residual(track)
    result = minimize(kappa, np.zeros(len(track)), jacobian, lo, hi, reg=reg,
                      max_iters=max_iters)
    if not result.success:
        raise OptimizationError(
            f"min-curvature optimizer did not converge in {result.nit} "
            f"iterations: {result.message}", alpha=result.x)
    return result.x


def centerline_curvature_cost(track: Track) -> float:
    """Summed squared curvature of the raw centerline (reporting helper)."""
    sp = fit_spline(track.xy, track.closed)
    return float(np.sum(curvature_at(sp, sp.t_knots) ** 2))


def offset_curvature_cost(track: Track, alpha: np.ndarray) -> float:
    """Summed squared curvature of the spline refit through the offset points."""
    pts = track.xy + np.asarray(alpha, dtype=float)[:, None] * normals(track)
    sp = fit_spline(pts, track.closed)
    return float(np.sum(curvature_at(sp, sp.t_knots) ** 2))


def velocity_profile(kappa, s, limits: VehicleLimits, *,
                     total_length: float | None = None) -> np.ndarray:
    """Per-waypoint speed targets.

    Seeds v_i = min(v_max, sqrt(a_lat_max / |kappa_i|)), then makes one
    forward (acceleration) and one backward (braking) pass enforcing
    |v_{i+1}^2 - v_i^2| <= 2 a_lon_max ds. A `total_length` closes the
    profile: it wraps across the seam, whose segment length it gives, and
    starts both passes at the slowest seeded waypoint, which no cap can
    lower.
    """
    kappa = np.abs(np.asarray(kappa, dtype=float))
    s = np.asarray(s, dtype=float)
    n = len(kappa)
    with np.errstate(divide="ignore"):
        v = np.where(kappa > 1e-12,
                     np.sqrt(limits.a_lat_max / np.maximum(kappa, 1e-12)),
                     np.inf)
    v = np.minimum(v, limits.v_max)
    ds = np.diff(s)
    if total_length is not None:
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
    steps = total / spacing  # inf where the quotient overflows
    require(steps <= MAX_WAYPOINTS, "spacing_m", f"leave at most "
            f"{MAX_WAYPOINTS} waypoint steps on the {total:.6g} m raceline",
            spacing)
    if spline.closed:
        count = max(8, int(round(steps)))
        targets = np.arange(count) * (total / count)
    else:
        count = max(8, int(math.floor(steps)) + 1)
        targets = np.linspace(0.0, total, count)
    t_at = np.interp(targets, arc, dense)
    xy = spline.point(t_at)
    kappa = curvature_at(spline, t_at)
    v = velocity_profile(kappa, targets, limits,
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
    try:
        return Raceline(xy=arr[:, 1:3], kappa=arr[:, 3], v=arr[:, 4], s=s,
                        closed=closed, length=length)
    except ValueError as exc:
        raise TrackFormatError(f"{path}: {exc}") from None
