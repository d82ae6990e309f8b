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
from types import SimpleNamespace

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgtsv, dpbtrs

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
        with np.errstate(over="ignore"):  # an overflow is rejected below
            seg = np.linalg.norm(np.diff(self.xy, axis=0), axis=1)
            if closed:
                seg = np.append(seg, np.linalg.norm(self.xy[0] - self.xy[-1]))
        if not np.all(np.isfinite(seg)):
            raise ValueError("the chord lengths must be finite")
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
    `t_knots` holds one parameter per input point. The fit and the
    evaluation repeat scipy's `CubicSpline(t, data, bc_type="periodic"` or
    `"natural")` operation for operation, so they return its bits (the tests
    keep it as the oracle): the knot slopes solve its tridiagonal system,
    periodic ones condensed as it does, on LAPACK's dgtsv, which its
    `solve_banded((1, 1), ...)` calls.
    """

    def __init__(self, xy: np.ndarray, closed: bool):
        xy = np.asarray(xy, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError("expected an (N, 2) point array")
        if len(xy) < 4:
            raise ValueError("spline fitting needs at least 4 points")
        data = np.vstack([xy, xy[:1]]) if closed else xy
        with np.errstate(over="ignore"):  # an overflow is rejected below
            t = np.concatenate([[0.0], np.cumsum(
                np.linalg.norm(np.diff(data, axis=0), axis=1))])
        if not np.isfinite(t[-1]):
            raise ValueError("the chord lengths must sum to a finite length")
        dx = np.diff(t)
        if np.any(dx <= 0.0):
            raise ValueError("coincident consecutive points")
        slope = np.diff(data, axis=0) / dx[:, None]
        s = _knot_slopes(dx, slope, data, closed)
        if not np.all(np.isfinite(s)):
            raise ValueError("the spline's knot slopes must be finite")
        # CubicHermiteSpline's coefficients, by ascending power of t - t[i],
        # each a C-ordered copy that one gather per piece reads
        bend = (s[:-1] + s[1:] - 2 * slope) / dx[:, None]
        self._coef = tuple(np.array(c, order="C") for c in (
            data[:-1], s[:-1], (slope - s[:-1]) / dx[:, None] - bend,
            bend / dx[:, None]))
        self._t = t
        self.closed = closed
        self.t_knots = t[:-1] if closed else t
        self.t_max = float(t[-1])

    def point(self, t):
        return self._at(t, 0)

    def derivative(self, t, order: int = 1):
        return self._at(t, order)

    def _at(self, t, order: int) -> np.ndarray:
        """What scipy's `PPoly.__call__(t, order)` returns. A closed curve
        maps t to 0.0 + t % t_max and gives NaN where that is not in
        [0, t_max]; an open one extrapolates its end pieces. The last piece
        is closed on the right, and a piece sums the terms
        c_k (t - t_i) ** (k - order) k! / (k - order)! from 0.0 up, in
        scipy's order of operations."""
        shape = np.shape(t)
        x = np.ascontiguousarray(np.ravel(t), dtype=float)
        if not self.closed:
            undefined = np.isnan(x)
        else:
            x = 0.0 + x % self.t_max
            undefined = ~(x <= self.t_max)
        # the piece whose first knot is the last one at or below x, clipped
        # to the end pieces; t - t_i once per coordinate, so that every
        # product below runs on two whole (N, 2) arrays
        piece = np.searchsorted(self._t[1:-1], x, side="right")
        s = np.repeat(x - self._t.take(piece), 2).reshape(-1, 2)
        out = np.zeros((len(x), 2))
        for k in range(order, 4):
            term = self._coef[k].take(piece, axis=0)
            if k > order:  # s ** (k - order), multiplied up as scipy does
                power = s if k == order + 1 else power * s
                term *= power
            factor = math.perm(k, order)  # k! / (k - order)!
            if factor > 1:
                term *= factor
            out += term
        if undefined.any():
            out[undefined] = np.nan
        return out.reshape(shape + (2,))


def _knot_slopes(dx, slope, y, closed: bool) -> np.ndarray:
    """The knot slopes of scipy's periodic or natural spline, from its
    system in its own expressions; `rows` and `diag` are the right-hand
    sides and diagonal at the inner knots 1..n-2."""
    rows = 3 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    diag = 2 * (dx[:-1] + dx[1:])
    if closed:
        # the cyclic system of all but the repeated knot: scipy solves its
        # first m rows for b and for the corner column (one dgtsv call
        # here), then its last row for the last slope
        m = len(dx) - 1
        b = np.zeros((m, 3))
        b[0, :2] = 3 * (dx[0] * slope[-1] + dx[-1] * slope[0])
        b[1:, :2] = rows[:m - 1]
        b[0, 2] = -dx[0]
        b[-1, 2] = -dx[-3]
        system = (dx[1:m].copy(),
                  np.append(2 * (dx[-1] + dx[0]), diag[:m - 1]),
                  np.append(dx[-1], dx[:m - 2]), b)
    else:
        # zero second derivatives at both ends, whose zero terms are kept:
        # NaN when dx**2 overflows, and 0.0 + turns -0.0 into 0.0
        b = np.vstack([-0.5 * 0.0 * dx[0] ** 2 + 3 * (y[1] - y[0]), rows,
                       0.5 * 0.0 * dx[-1] ** 2 + 3 * (y[-1] - y[-2])])
        system = (np.append(dx[1:], dx[-1]),
                  np.concatenate([[2 * dx[0]], diag, [2 * dx[-1]]]),
                  np.append(dx[0], dx[:-1]), b)
    x, info = dgtsv(*system, True, True, True, True)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if not closed:
        return x
    s1, s2 = x[:, :2], x[:, 2:]
    s_m1 = ((rows[-1] - dx[-2] * s1[0] - dx[-1] * s1[-1])
            / (diag[-1] + dx[-2] * s2[0] + dx[-1] * s2[-1]))
    return np.vstack([s1 + s_m1 * s2, s_m1, s1[0] + s_m1 * s2[0]])


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
    sp = Spline2D(track.xy, track.closed)
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


# Unknowns per knot in the Gauss-Newton step's KKT system, in this order: the
# multiplier of the x slope equation, the x slope step, the offset step, the
# y slope step and the multiplier of the y slope equation. With the knots in
# zig-zag order every coupling lies within _BAND places of the diagonal.
_PER_KNOT = 5
_MULT_X, _SLOPE_X, _OFFSET, _SLOPE_Y, _MULT_Y = range(_PER_KNOT)
_BAND = 2 * _PER_KNOT + 2
# Columns of J formed at once when their squared norms are taken.
_CHUNK = 256


def _curvature_residual(track: Track):
    """The knot curvatures of the offset spline as a function of alpha, and
    their linearization in alpha. Returns (kappa, linearize).

    The parameterization is frozen to the centerline chord lengths 1/q;
    curvature is parameterization-invariant, so this does not bias the
    optimum. The knot slopes m of each coordinate y of the spline data then
    solve T m = R y, with T tridiagonal (cyclic when the track is closed) and
    symmetric positive definite, and the knot second derivatives are
    c (y[nb] - y) - e (4 m + 2 m[nb]), taken on the segment from each knot to
    its neighbour nb: the next knot, but the previous one at an open track's
    end, where the spline ends naturally. So the Jacobian is
    J = G + Kx T^-1 R Nx + Ky T^-1 R Ny with G, K, R and the normals N all
    banded or diagonal, and `linearize(alpha)` gives it as the operator that
    `minimize` takes. Each of its products and its step cost O(n) time and
    memory, and `column_norms2` O(n) per column.
    """
    n, closed = len(track), track.closed
    # segment k joins knots tail[k] = k and head[k] = k + 1 (mod n)
    segs = n if closed else n - 1
    tail = np.arange(segs)
    head = (tail + 1) % n
    q = 1.0 / np.linalg.norm(track.xy[head] - track.xy[tail], axis=1)
    w = 3.0 * q ** 2
    knots = np.arange(n)
    nb = head if closed else np.append(head, n - 2)
    q_nb = q[np.minimum(knots, len(q) - 1)]
    c = 6.0 * q_nb ** 2
    e = q_nb if closed else np.append(q_nb[:-1], -q_nb[-1])
    nrm = normals(track)

    # Segment sums run on slices, adding onto zeros; no knot takes more than
    # two terms, which round alike in either order.
    def heads(v):  # v[head]
        return np.concatenate([v[1:], v[:1]]) if closed else v[1:]

    def at_nb(v):  # v[nb]
        return heads(v) if closed else np.concatenate([v[1:], v[-2:-1]])

    def add_heads(out, v):  # out[head] += v
        out[1:] += v[:n - 1]
        if closed:
            out[0] += v[-1]
        return out

    def spread(v):  # each segment's value added onto both its knots
        out = np.zeros((n,) + v.shape[1:])
        out[:segs] += v
        return add_heads(out, v)

    def to_nb(v):  # the transpose of v -> v[nb]
        out = add_heads(np.zeros_like(v), v)
        if not closed:
            out[-2] += v[-1]
        return out

    def r_apply(y):
        return spread(w[:, None] * (heads(y) - y[:segs]))

    def r_transpose(v):
        z = w[:, None] * (heads(v) + v[:segs])
        out = add_heads(np.zeros_like(v), z)
        out[:segs] -= z
        return out

    # each knot's place in the order 0, n-1, 1, n-2, ...: neighbours on a
    # closed loop, across the seam too, lie at most two places apart
    place = 2 * np.minimum(knots, n - 1 - knots) + (knots >= (n + 1) // 2)
    # T over those places, in upper symmetric band storage
    t_diag = 2.0 * spread(q)
    t_band = np.zeros((3, n))
    t_band[2, place] = t_diag
    near, far = np.sort([place[tail], place[head]], axis=0)
    t_band[2 + near - far, far] = q
    t_factor = cholesky_banded(t_band)
    front = (n + 1) // 2  # the knots on even places

    def t_solve(b):
        zigzag = np.empty(b.shape, order="F")
        zigzag[0::2] = b[:front]
        zigzag[1::2] = b[:front - 1:-1]
        z = dpbtrs(t_factor, zigzag, overwrite_b=True)[0]
        return np.concatenate([z[0::2], z[-1 - (n % 2)::-2]])

    last = {}  # the latest alpha and its derivatives, which a step reuses

    def derivatives(alpha):
        if not np.array_equal(alpha, last.get("alpha")):
            xy = track.xy + alpha[:, None] * nrm
            m = t_solve(r_apply(xy))
            d2 = c[:, None] * (at_nb(xy) - xy) \
                - e[:, None] * (4.0 * m + 2.0 * at_nb(m))
            last.update(alpha=alpha.copy(), m=m, d2=d2)
        return last["m"], last["d2"]

    def kappa(alpha: np.ndarray) -> np.ndarray:
        m, d2 = derivatives(alpha)
        return (m[:, 0] * d2[:, 1] - m[:, 1] * d2[:, 0]) \
            / (m[:, 0] ** 2 + m[:, 1] ** 2) ** 1.5

    # The step's KKT system, in LAPACK's general band storage: the
    # Gauss-Newton model of the residual in the offset step d and the slope
    # steps u, w, under T u = R (nx d) and T w = R (ny d).
    size = _PER_KNOT * n

    def at(var, k):
        return _PER_KNOT * place[k] + var

    def band_at(rows, cols):  # flat positions in column-major band storage
        return (3 * _BAND + 1) * cols + 2 * _BAND + rows - cols

    def symmetric(rows, cols, vals):  # entries and their transposes
        return (np.concatenate([band_at(rows, cols), band_at(cols, rows)]),
                np.tile(vals, 2))

    # each residual row couples d, u, w at its knot and at nb
    slots = np.column_stack([at(var, k) for k in (knots, nb)
                             for var in (_OFFSET, _SLOPE_X, _SLOPE_Y)])
    t_rows = np.concatenate([knots, tail, head])
    t_cols = np.concatenate([knots, head, tail])
    r_rows = np.concatenate([tail, tail, head, head])
    r_cols = np.concatenate([head, tail, head, tail])
    r_vals = np.concatenate([w, -w, w, -w])
    t_at, t_vals = symmetric(
        np.concatenate([at(_MULT_X, t_rows), at(_MULT_Y, t_rows)]),
        np.concatenate([at(_SLOPE_X, t_cols), at(_SLOPE_Y, t_cols)]),
        np.tile(np.concatenate([t_diag, q, q]), 2))
    coupling_at, coupling_vals = symmetric(
        np.concatenate([at(_MULT_X, r_rows), at(_MULT_Y, r_rows)]),
        np.tile(at(_OFFSET, r_cols), 2),
        -np.concatenate([r_vals * nrm[r_cols, 0], r_vals * nrm[r_cols, 1]]))
    coupling_knot = np.tile(r_cols, 4)
    # The T block (multiplier rows and slope columns) shares no entry with
    # the model and coupling values, so it is written once; each step sums
    # only those, every entry in the order it comes.
    summed_at, summed_bin = np.unique(np.concatenate([
        band_at(slots[:, :, None], slots[:, None, :]).ravel(), coupling_at]),
        return_inverse=True)
    flat = np.bincount(t_at, t_vals, minlength=(3 * _BAND + 1) * size)
    band = flat.reshape(size, -1).T
    work = np.empty_like(band, order="F")  # what the factorization overwrites
    diag = at(_OFFSET, knots)
    nrm_nb = at_nb(nrm)

    def linearize(alpha: np.ndarray) -> SimpleNamespace:
        m, d2 = derivatives(alpha)
        speed_sq = m[:, 0] ** 2 + m[:, 1] ** 2
        inv32 = speed_sq ** -1.5
        cross = 3.0 * (m[:, 0] * d2[:, 1] - m[:, 1] * d2[:, 0]) * inv32 / speed_sq
        # the curvature's partials in the knot slopes and second derivatives
        dk_dm = np.column_stack([d2[:, 1] * inv32 - m[:, 0] * cross,
                                 -d2[:, 0] * inv32 - m[:, 1] * cross])
        dk_d2 = np.column_stack([-m[:, 1] * inv32, m[:, 0] * inv32])
        # J d = gs d + gn d[nb] + ks . dm + kn . dm[nb], T dm = R (d N)
        gs = -c * np.sum(dk_d2 * nrm, axis=1)
        gn = c * np.sum(dk_d2 * nrm_nb, axis=1)
        ks = dk_dm - 4.0 * e[:, None] * dk_d2
        kn = -2.0 * e[:, None] * dk_d2

        def rmatvec(r):
            v = t_solve(ks * r[:, None] + to_nb(kn * r[:, None]))
            return gs * r + to_nb(gn * r) + np.sum(nrm * r_transpose(v), axis=1)

        def column_norms2(mask):
            cols = np.flatnonzero(mask)
            out = np.empty(len(cols))
            for start in range(0, len(cols), _CHUNK):
                part = cols[start:start + _CHUNK]
                unit = np.zeros((n, len(part)))
                unit[part, np.arange(len(part))] = 1.0
                # the slopes that one unit of data at each column moves
                s = t_solve(r_apply(unit))
                along = nrm[part].T
                col = ((ks @ along) * s + (kn @ along) * at_nb(s)
                       + gs[:, None] * unit + gn[:, None] * at_nb(unit))
                out[start:start + len(part)] = np.einsum("ik,ik->k", col, col)
            return out

        def solve(free, b, reg):
            # active offsets are pinned at 0 by a unit diagonal
            coef = np.column_stack([gs * free, ks, gn * at_nb(free), kn])
            flat[summed_at] = np.bincount(summed_bin, np.concatenate([
                (coef[:, :, None] * coef[:, None, :]).ravel(),
                coupling_vals * free[coupling_knot]]))
            band[2 * _BAND, diag] += np.where(free, reg, 1.0)
            block = diag[free]
            rhs = np.zeros(size)
            rhs[block] = b
            return _solve_psd(band, rhs, block, work)[block]

        return SimpleNamespace(rmatvec=rmatvec, column_norms2=column_norms2,
                               solve=solve)

    return kappa, linearize


# Armijo sufficient-decrease fraction, halvings tried along the projected arc,
# the largest width of the epsilon-active set, and the relative objective
# drop at which the solve has converged.
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_ACTIVE_WIDTH = 1e-3
_REL_TOL = 1e-8
_EPS = float(np.finfo(float).eps)


def _solve_psd(band: np.ndarray, b: np.ndarray, block: np.ndarray,
               work: np.ndarray) -> np.ndarray:
    """Solve the KKT system of a Gauss-Newton step, given in LAPACK's general
    band storage with _BAND sub- and super-diagonals, by banded LU in `work`,
    an F-ordered array of the band's shape.

    The unknowns `block` carry the positive semi-definite normal matrix of
    the free offsets. Where it is singular (with reg = 0, offsets that leave
    every knot curvature unchanged, such as a straight track's linear ones,
    span its null space), the smallest damping of that block, in steps of
    100 from 1e-12 of its largest diagonal entry, that keeps every pivot of
    the factorization above the machine epsilon times the system's size and
    largest pivot is added.
    """
    scale = float(np.max(band[2 * _BAND, block], initial=0.0)) or 1.0
    for damping in [0.0] + [scale * 10.0 ** k for k in range(-12, 1, 2)]:
        np.copyto(work, band)
        work[2 * _BAND, block] += damping
        lu, piv, _ = dgbtrf(work, _BAND, _BAND, overwrite_ab=True)
        pivots = np.abs(lu[2 * _BAND])
        if np.min(pivots) > _EPS * len(b) * np.max(pivots):
            return dgbtrs(lu, _BAND, _BAND, b[:, None], piv)[0][:, 0]
    raise np.linalg.LinAlgError("no damping makes the step's system regular")


def minimize(fun, x0, jac, lo, hi, reg: float = 0.0,
             max_iters: int = 5000) -> SimpleNamespace:
    """Projected Gauss-Newton on ||fun(x)||^2 + reg ||x||^2 over lo <= x <= hi.

    `fun` gives the residual vector and `jac(x)` its Jacobian J at x as an
    operator: `rmatvec(r)` = J^T r, `column_norms2(mask)` the squared norms
    of the masked columns, and `solve(free, b, reg)` the p with
    (J_f^T J_f + reg I) p = b on the free columns. Each step solves that
    system for the free variables with b = -g and scales the gradient g of
    the others by the diagonal; the free set leaves out Bertsekas'
    epsilon-active bounds, those within epsilon (the projected-gradient
    norm, capped at _ACTIVE_WIDTH) whose gradient points out of the box.
    An active variable pinned on its bound (x = lo with g > 0, or x = hi
    with g < 0) steps by -g unscaled: the projection puts it back on the
    bound at any positive scale, so the iterates are those of the scaled
    step, and only the no-decrease stop test, which reads g . d, asks for
    its diagonal. The step length is found by Armijo backtracking along the
    projected arc
    x(b) = clip(x + b d, lo, hi) (Bertsekas, "Projected Newton methods for
    optimization problems with simple constraints", 1982). Succeeds when the
    objective drop falls to _REL_TOL of max(|f_k|, |f_k+1|, 1), when the
    projected gradient is zero, or when no step lowers the objective in
    floating point and the full step's first-order drop is within that
    tolerance; otherwise fails, with the last iterate, when `max_iters`
    steps are spent, when no step lowers it, or when `solve` raises
    LinAlgError (no damping makes the step's system regular).
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    nfev = 1
    f = float(r @ r + reg * (x @ x))
    nit = 0

    def scaled_diag(j, mask):  # the diagonal that scales -g on mask
        diag = j.column_norms2(mask) + reg
        return np.where(diag > 0.0, diag, 1.0)

    def result(success: bool, message: str) -> SimpleNamespace:
        return SimpleNamespace(x=x, fun=f, success=success, nit=nit,
                               nfev=nfev, message=message)

    for nit in range(1, max_iters + 1):
        j = jac(x)
        g = j.rmatvec(r) + reg * x  # half the gradient
        projected = x - np.clip(x - g, lo, hi)
        if not projected.any():
            return result(True, "zero projected gradient")
        width = min(_ACTIVE_WIDTH, float(np.linalg.norm(projected)))
        active = (((x <= lo + width) & (g > 0.0))
                  | ((x >= hi - width) & (g < 0.0)))
        free = ~active
        # on its bound with the gradient pointing out: clipped back at any
        # scale, so the step takes its direction unscaled
        pinned = ((x == lo) & (g > 0.0)) | ((x == hi) & (g < 0.0))
        scaled = active & ~pinned
        d = -g
        try:
            d[free] = j.solve(free, -g[free], reg)
        except np.linalg.LinAlgError as exc:
            return result(False, str(exc))
        d[scaled] /= scaled_diag(j, scaled)
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
            d[pinned] /= scaled_diag(j, pinned)
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
    Dynamics, 2019. The Jacobian stays in its banded factors
    (`_curvature_residual`), so each step takes O(n) time and memory and
    full circuits of thousands of points solve in seconds. Converges when
    the relative objective drop falls below _REL_TOL; raises
    OptimizationError (carrying the best iterate) if the iteration budget
    runs out first, no step lowers the objective or a step's system is
    singular under every damping.
    """
    if reg < 0.0:
        raise ValueError("reg must be >= 0")
    lo, hi = alpha_bounds(track)
    kappa, linearize = _curvature_residual(track)
    result = minimize(kappa, np.zeros(len(track)), linearize, lo, hi, reg=reg,
                      max_iters=max_iters)
    if not result.success:
        raise OptimizationError(
            f"min-curvature optimizer did not converge in {result.nit} "
            f"iterations: {result.message}", alpha=result.x)
    return result.x


def centerline_curvature_cost(track: Track) -> float:
    """Summed squared curvature of the raw centerline (reporting helper)."""
    sp = Spline2D(track.xy, track.closed)
    return float(np.sum(curvature_at(sp, sp.t_knots) ** 2))


def offset_curvature_cost(track: Track, alpha: np.ndarray) -> float:
    """Summed squared curvature of the spline refit through the offset points."""
    pts = track.xy + np.asarray(alpha, dtype=float)[:, None] * normals(track)
    sp = Spline2D(pts, track.closed)
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
    return resample_raceline(Spline2D(pts, track.closed), limits, spacing)


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
    """Read a track CSV; a centerline whose spline tangent vanishes at a
    knot, where it has no normal, is rejected here."""
    arr, _ = read_table(path, TRACK_COLUMNS, TrackFormatError)
    try:
        track = Track(arr[:, :2], arr[:, 2], arr[:, 3], closed,
                      vehicle_half_width)
        normals(track)
        return track
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
