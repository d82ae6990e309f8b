"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the implementations they check: the gap
oracle enumerates every subsequence, the scan oracle marches the true
geometry in meters, haversine is the textbook great-circle formula, and the
linear Kalman reference is written out long-hand. The EKF cycle oracle is
the plain numpy filter (BLAS products and LAPACK's solve) that the package's
Python-float filter replaced. The frame-stage oracles (rendering, blur, morphology, warp, ray march,
the whole perception pipeline) recompute every pixel map per call, blur a
float64 copy of the whole image and use plain ndimage morphology, so the
memoized, per-channel and sliced versions in the package must match them
exactly.
The grass-mask and scan oracles read the sign of the nearest-sample margin
for every point, never the certified world cells of `TrackSampler.inside`.
The velocity-profile oracle sweeps to a fixed point, the polyline
oracle measures each segment with endpoint and cross-product distances, and
the bicycle oracle runs RK4 on numpy state vectors. The body-frame oracle
is the numpy transform that the controller's Python-float lateral offset
replaced, and the raceline oracles are the L-BFGS-B solve that the
projected Gauss-Newton solver replaced and the dense n x n linearization
that its banded one replaced, both on derivative operators of their own;
the projected Gauss-Newton loop itself is also kept as it was before its
pinned offsets went unscaled, scaling every epsilon-active offset by its
column norm.
The CAN codec oracles are the plain codec that the package's inlined one
replaced: a rounding-and-clamping helper, `Mode(bits)` and a dict merge,
each frame laid out with `struct` format strings of its own.
The pose-log and scan readers read back files that no command reads.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
from scipy import ndimage
from scipy.interpolate import CubicSpline
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import OptimizeResult, minimize

from gokart.drivebus import (BRAKE_SCALE, CanFrame, COMMAND_FRAME_ID,
                             DriveCommand, EBS_FEEDBACK_ID, FrameDecodeError,
                             Mode, SBWS_FEEDBACK_ID, SPEED_SCALE,
                             STEERING_SCALE, SubsystemFeedback,
                             TBWS_FEEDBACK_ID)
from gokart.fileio import read_table
from gokart.geometry import body_to_world, normalize_angle
from gokart.localization import (GNSS_DROPOUT_VARIANCE, POSE_LOG_COLUMNS,
                                 EkfParams, EkfState, MotionInput,
                                 ReplayFormatError, ekf_predict)
from gokart.perception import (DepthScan, GRASS_RGB, ImageFormatError,
                               SCAN_COLUMNS, SCAN_SIZE, SKY_RGB, TRACK_RGB,
                               apply_homography, grass_mask, scan_angles)
from gokart.sim import MAX_DT, VehicleState
from gokart.track import Track, VehicleLimits, alpha_bounds, normals
from gokart.track import minimize as gn_minimize


# --- track fixtures ----------------------------------------------------------

def circle_track(n=36, radius=20.0, width=1.9, vhw=0.4, clockwise=True) -> Track:
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    if clockwise:
        th = -th
    xy = np.column_stack([radius * np.cos(th), radius * np.sin(th)])
    return Track.from_arrays(xy, width, width, closed=True,
                             vehicle_half_width=vhw)


def oval_xy(radius=20.0, straight=40.0, spacing=2.0) -> np.ndarray:
    pts = []
    for i in range(int(straight / spacing)):
        pts.append((i * spacing - straight / 2.0, -radius))
    for i in range(int(math.pi * radius / spacing)):
        a = -math.pi / 2.0 + i * spacing / radius
        pts.append((straight / 2.0 + radius * math.cos(a), radius * math.sin(a)))
    for i in range(int(straight / spacing)):
        pts.append((straight / 2.0 - i * spacing, radius))
    for i in range(int(math.pi * radius / spacing)):
        a = math.pi / 2.0 + i * spacing / radius
        pts.append((-straight / 2.0 + radius * math.cos(a), radius * math.sin(a)))
    return np.array(pts)


def oval_track(radius=20.0, straight=40.0, width=3.5, vhw=0.4) -> Track:
    return Track.from_arrays(oval_xy(radius, straight), width, width,
                             closed=True, vehicle_half_width=vhw)


def wiggly_track(seed=3, n=60, radius=30.0, amp=4.0, width=3.0, vhw=0.4,
                 closed=True) -> Track:
    """A loop whose radius wiggles three and five times a lap; opened at the
    seam unless `closed`."""
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    coef = rng.normal(size=2)
    r = radius + amp * (np.sin(3 * th + coef[0]) + 0.5 * np.sin(5 * th + coef[1]))
    xy = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return Track.from_arrays(xy, width, width, closed=closed,
                             vehicle_half_width=vhw)


def straight_track(n=12, spacing=2.0, width=2.0, vhw=0.4,
                   heading=0.0) -> Track:
    x = np.arange(n, dtype=float) * spacing
    xy = np.column_stack([x * math.cos(heading), x * math.sin(heading)])
    return Track.from_arrays(xy, width, width, closed=False,
                             vehicle_half_width=vhw)


def hairpin_track(length=30.0, gap=4.0, wide=2.5, narrow=0.8, heading=0.4,
                  spacing=1.0, closed=True) -> Track:
    """Two parallel straights `gap` apart joined by half circles, turned by
    `heading`. The first straight is `wide` each side, reaching past the
    midline between them; the second `narrow`. Between the straights the
    margin's sign then flips on the midline, where the nearest sample jumps
    from one straight to the other. Unless `closed`, the loop is open
    between its last and first point."""
    r = gap / 2.0
    n_straight = int(length / spacing)
    n_turn = max(int(math.pi * r / spacing), 4)
    x = np.arange(n_straight) * spacing
    turn = np.arange(n_turn) * math.pi / n_turn
    xy = np.concatenate([
        np.column_stack([x, np.full(n_straight, -r)]),
        np.column_stack([length + r * np.sin(turn), -r * np.cos(turn)]),
        np.column_stack([length - x, np.full(n_straight, r)]),
        np.column_stack([-r * np.sin(turn), r * np.cos(turn)])])
    width = np.concatenate([np.full(n_straight, wide),
                            np.linspace(wide, narrow, n_turn),
                            np.full(n_straight, narrow),
                            np.linspace(narrow, wide, n_turn)])
    c, s = math.cos(heading), math.sin(heading)
    xy = xy @ np.array([[c, s], [-s, c]])
    return Track.from_arrays(xy, width, width, closed=closed,
                             vehicle_half_width=0.4)


def varying_width_track(seed=3, n=60, closed=True) -> Track:
    """The wiggly loop with half-widths that vary along it and differ
    between its sides: 2.0-4.0 m on the left, 1.2-2.4 m on the right."""
    xy = wiggly_track(seed, n, closed=closed).xy
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return Track.from_arrays(xy, 3.0 + np.sin(2.0 * th),
                             1.8 + 0.6 * np.cos(3.0 * th), closed=closed,
                             vehicle_half_width=0.4)


def write_track_csv(path, track: Track) -> None:
    with open(path, "w") as fh:
        fh.write("x_m,y_m,w_left_m,w_right_m\n")
        for (x, y), wl, wr in zip(track.xy, track.w_left, track.w_right):
            fh.write(f"{float(x)!r},{float(y)!r},{float(wl)!r},{float(wr)!r}\n")


def read_pose_log(path):
    """Read back a pose log written by `localization.write_pose_log`."""
    arr, _ = read_table(path, POSE_LOG_COLUMNS, ReplayFormatError)
    return [tuple(row) for row in arr.tolist()]


def read_scan_csv(path, max_range: float | None = None) -> DepthScan:
    """Read a depth-scan CSV written by `perception.write_scan_csv`;
    max_range defaults to the largest distance."""
    arr, _ = read_table(path, SCAN_COLUMNS, ImageFormatError)
    if len(arr) != SCAN_SIZE:
        raise ImageFormatError(f"{path}: expected {SCAN_SIZE} rays, got {len(arr)}")
    if max_range is None:
        max_range = float(arr[:, 1].max())
    try:
        return DepthScan(distances=arr[:, 1], angles=arr[:, 0],
                         max_range=max_range)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: {exc}") from None


def alternating(cases):
    """The first case between every other one: base, v1, base, v2, ... A
    memo keyed on too few inputs then hands some case another's result."""
    for case in cases[1:]:
        yield cases[0]
        yield case


def assert_frozen_value(record, name, value):
    """A frozen dataclass record: assignment raises, a rebuild from its
    fields (by position and by keyword) is equal and hashes equal, and
    dataclasses.replace sets `name` to `value` and keeps the other fields."""
    # no pytest.raises: perfbench/workloads.py imports this module in the
    # benchmark runner, and an import of pytest there shows up in the
    # raceline worker's peak RSS
    cls, names = type(record), [f.name for f in dataclasses.fields(record)]
    try:
        setattr(record, name, value)
    except dataclasses.FrozenInstanceError:
        pass
    else:
        raise AssertionError(f"{cls.__name__}.{name} could be assigned")
    values = [getattr(record, n) for n in names]
    for rebuilt in (cls(*values), cls(**dict(zip(names, values)))):
        assert rebuilt == record and hash(rebuilt) == hash(record)
    changed = dataclasses.replace(record, **{name: value})
    assert getattr(changed, name) == value and changed != record
    assert [getattr(changed, n) for n in names if n != name] == [
        getattr(record, n) for n in names if n != name]


def assert_same_fields(record, rebuilt):
    """record and rebuilt: the same class, and float fields of the same
    classes and bits, in the same order."""
    assert type(record) is type(rebuilt)
    assert vars(record) == vars(rebuilt)
    assert [(type(v), float(v).hex()) for v in vars(record).values()] == \
        [(type(v), float(v).hex()) for v in vars(rebuilt).values()]


# --- oracles -----------------------------------------------------------------

def haversine_m(lat1, lon1, lat2, lon2, radius=6_371_000.0) -> float:
    """Great-circle distance (textbook formula)."""
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    a = math.sin(dlat / 2.0) ** 2 + \
        math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return radius * 2.0 * math.asin(math.sqrt(a))


def brute_force_gap(distances, epsilon, center=None):
    """Exhaustively score every qualifying (i, j) subsequence of rays.

    Enumerates each (i, j) pair whose rays all clear epsilon (extending j
    until the first failing ray, which also rules out every longer span
    starting at i). Returns (i, j, midpoint) of the widest one with the
    tie-breaking (midpoint nearest center, then lowest i), or None.
    """
    d = np.asarray(distances, dtype=float)
    n = len(d)
    if center is None:
        center = (n - 1) // 2
    ok = d >= epsilon
    best = None
    for i in range(n):
        if not ok[i]:
            continue
        for j in range(i, n):
            if not ok[j]:
                break
            mid = (i + j) // 2
            key = (-(j - i + 1), abs(mid - center), i)
            if best is None or key < best[0]:
                best = (key, i, j, mid)
    return None if best is None else best[1:]


def batch_brute_force_gaps(scans: np.ndarray, epsilon: float):
    """Exhaustive gap search vectorized over many scans.

    For each starting index i the longest qualifying end reach(i) is found;
    every candidate (i, reach(i)) is then scored with the full tie-breaking
    rule. Any shorter span (i, j < reach(i)) also qualifies but has strictly
    smaller width, the primary key, so it is dominated by an evaluated
    candidate: the search is exhaustive over all qualifying (i, j) pairs.
    brute_force_gap cross-checks this on samples by literal enumeration.
    Returns arrays (found, i, j, mid).
    """
    scans = np.asarray(scans, dtype=float)
    m, n = scans.shape
    center = (n - 1) // 2
    ok = scans >= epsilon
    run = np.zeros((m, n), dtype=np.int64)
    run[:, n - 1] = ok[:, n - 1]
    for col in range(n - 2, -1, -1):
        run[:, col] = ok[:, col] * (1 + run[:, col + 1])
    starts = np.arange(n)[None, :]
    ends = starts + run - 1
    mids = (starts + ends) // 2
    score = (run << 20) - (np.abs(mids - center) << 10) - starts
    score[~ok] = -1
    best = np.argmax(score, axis=1)
    rows = np.arange(m)
    found = score[rows, best] >= 0
    out_i = best
    out_j = ends[rows, best]
    out_mid = mids[rows, best]
    return found, out_i, out_j, out_mid


def reference_linear_kalman(mean, cov, f, r, steps):
    """Plain linear Kalman filter, written independently of the EKF code.

    `steps` is a list of (control_offset, obs or None, obs_cov). Returns the
    final (mean, cov).
    """
    mean = np.array(mean, dtype=float)
    cov = np.array(cov, dtype=float)
    eye = np.eye(len(mean))
    for offset, obs, obs_cov in steps:
        mean = f @ mean + offset
        cov = f @ cov @ f.T + r
        if obs is not None:
            s = cov + obs_cov
            k = cov @ np.linalg.inv(s)
            mean = mean + k @ (obs - mean)
            cov = (eye - k) @ cov
            cov = 0.5 * (cov + cov.T)
    return mean, cov


# The package's Python-float filter against fuse_step_oracle, two ways.
# - One step (assert_matches_oracle): the solves of S = P + M differ in the
#   last bits, and any two solves' forward errors grow with the condition
#   number kappa of S (scaled to a unit diagonal). So each mean float is
#   held within FUSE_RTOL * kappa * (1 + |value| + max |innovation|), each
#   covariance float within FUSE_RTOL * kappa * (1 + max |predicted P|) and
#   the NIS within FUSE_RTOL * kappa * (1 + NIS). Worst measured over 30,000
#   random and 30,000 near-singular steps: 1.9e-12 of that bound's scale
#   (unscaled, near-singular steps differ by up to 1.3e-4 of |value|).
# - A chain of steps or a closed-loop run (assert_state_close): each float
#   within FUSE_RTOL * (1 + |value|), headings on the circle. Worst
#   measured: 5.3e-15 over the 2,000-step chain of the tests, 1.9e-16 (at
#   most 3.6e-15 m) over 45 s pursuit runs on eight scenario seeds.
FUSE_RTOL = 1e-9


def _as_state(mean, cov, nis=None):
    """An EkfState of numpy arrays in the package's representation: the
    mean and the covariance's rows as tuples of Python floats."""
    return EkfState(tuple(mean.tolist()), tuple(map(tuple, cov.tolist())), nis)


def _oracle_predict(state, u, params):
    mean, cov = np.array(state.mean, dtype=float), np.array(state.cov, dtype=float)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ValueError("non-finite filter state")
    if not (math.isfinite(u.v) and math.isfinite(u.omega) and math.isfinite(u.dt)):
        raise ValueError("non-finite motion input")
    x, y, psi = mean
    mean = np.array([
        x + u.v * u.dt * math.cos(psi),
        y + u.v * u.dt * math.sin(psi),
        normalize_angle(psi + u.dt * u.omega),
    ])
    j = np.array([
        [1.0, 0.0, -u.dt * u.v * math.sin(psi)],
        [0.0, 1.0, u.dt * u.v * math.cos(psi)],
        [0.0, 0.0, 1.0],
    ])
    cov = j @ cov @ j.T + params.process_noise_scale * np.eye(3)
    cov = 0.5 * (cov + cov.T)
    return _as_state(mean, cov)


def predict_jacobian(psi: float, v: float, dt: float) -> np.ndarray:
    """The motion model's Jacobian in [x, y, psi], read off the package's
    `ekf_predict`. From P = e_j e_j^T it predicts (J e_j)(J e_j)^T + q I,
    whose column j less q e_j is J's column j, as J[j][j] = 1; a power-of-two
    q keeps that subtraction exact."""
    q = 2.0 ** -20
    params, u = EkfParams(process_noise_scale=q), MotionInput(v, 0.0, dt)
    jac = np.empty((3, 3))
    for j, e in enumerate(np.eye(3)):
        cov = ekf_predict(EkfState((0.0, 0.0, psi), np.outer(e, e)), u,
                          params).cov
        jac[:, j] = np.array(cov)[:, j] - q * e
    return jac


def _oracle_observation(pred, gnss, imu, origin, params):
    """The observation and its covariance M that `pred` is updated with."""
    if gnss is not None:
        x = params.earth_radius * math.cos(origin.lat) * (gnss.lon - origin.lon)
        y = params.earth_radius * (gnss.lat - origin.lat)
        return (np.array([x, y, imu.yaw]),
                np.diag([gnss.pos_variance, gnss.pos_variance,
                         imu.yaw_variance]))
    return (np.array([pred.mean[0], pred.mean[1], imu.yaw]),
            np.diag([GNSS_DROPOUT_VARIANCE, GNSS_DROPOUT_VARIANCE,
                     imu.yaw_variance]))


def _innovation(state, obs):
    innovation = obs - np.array(state.mean)
    innovation[2] = normalize_angle(obs[2] - state.mean[2])
    return innovation


def fuse_step_oracle(state, u, gnss, imu, origin, params):
    """The numpy EKF cycle: `np.eye(3)` and `np.diag` built per call,
    `np.all` finite checks, BLAS `@` and `np.linalg.solve` on arrays.
    Takes and returns what the package's `fuse_step` does, NIS included:
    states of Python-float tuples, converted at the boundary."""
    pred = _oracle_predict(state, u, params)
    obs, m = _oracle_observation(pred, gnss, imu, origin, params)
    p = np.array(pred.cov)
    s = p + m
    k = np.linalg.solve(s, p).T
    innovation = _innovation(pred, obs)
    mean = np.array(pred.mean) + k @ innovation
    mean[2] = normalize_angle(mean[2])
    cov = (np.eye(3) - k) @ p
    cov = 0.5 * (cov + cov.T)
    nis = float(innovation @ np.linalg.solve(s, innovation))
    return _as_state(mean, cov, nis)


def mean_gap(got, want):
    """|got - want| for [x, y, psi] means (or rows of them), the heading's
    difference taken on the circle."""
    gap = np.abs(np.asarray(got, dtype=float) - want)
    turn = gap[..., 2]
    gap[..., 2] = np.where(turn > math.pi, np.abs(turn - 2.0 * math.pi), turn)
    return gap


def assert_matches_oracle(out, state, u, gnss, imu, origin, params):
    """`out`, fuse_step's result on these arguments, against
    fuse_step_oracle's within the one-step bound of FUSE_RTOL."""
    want = fuse_step_oracle(state, u, gnss, imu, origin, params)
    pred = _oracle_predict(state, u, params)
    obs, m = _oracle_observation(pred, gnss, imu, origin, params)
    s = np.add(pred.cov, m)
    d = 1.0 / np.sqrt(np.abs(np.diag(s)))
    bound = FUSE_RTOL * np.linalg.cond(s * np.outer(d, d))
    e_max = np.abs(_innovation(pred, obs)).max()
    assert np.all(mean_gap(out.mean, want.mean)
                  <= bound * (1.0 + np.abs(want.mean) + e_max))
    assert np.all(np.abs(np.subtract(out.cov, want.cov))
                  <= bound * (1.0 + np.abs(pred.cov).max()))
    assert abs(out.nis - want.nis) <= bound * (1.0 + abs(want.nis))


def assert_state_close(got, want):
    """Mean and covariance within FUSE_RTOL * (1 + |value|), the heading's
    difference taken on the circle."""
    assert np.all(mean_gap(got.mean, want.mean)
                  <= FUSE_RTOL * (1.0 + np.abs(want.mean)))
    assert np.all(np.abs(np.subtract(got.cov, want.cov))
                  <= FUSE_RTOL * (1.0 + np.abs(want.cov)))


def world_to_body_oracle(x: float, y: float, psi: float,
                         points: np.ndarray) -> np.ndarray:
    """World points (..., 2) in the body frame at (x, y, psi): body x
    along the heading, body y to the left."""
    pts = np.asarray(points, dtype=float)
    dx = pts[..., 0] - x
    dy = pts[..., 1] - y
    c, s = math.cos(psi), math.sin(psi)
    bx = c * dx + s * dy
    by = -s * dx + c * dy
    return np.stack([bx, by], axis=-1)


def polyline_distance_oracle(xy, p, closed=False) -> tuple[float, int]:
    """Distance to each segment as the nearer endpoint or, where the foot
    of the perpendicular falls inside it, the cross-product height; and
    the first vertex at the least distance."""
    px, py = float(p[0]), float(p[1])
    pts = [(float(x), float(y)) for x, y in xy]
    pairs = list(zip(pts, pts[1:] + pts[:1] if closed else pts[1:]))
    best = math.inf
    for (ax, ay), (bx, by) in pairs:
        ux, uy = bx - ax, by - ay
        d = min(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by))
        along = (px - ax) * ux + (py - ay) * uy
        if 0.0 < along < ux * ux + uy * uy:
            d = min(d, abs(ux * (py - ay) - uy * (px - ax)) / math.hypot(ux, uy))
        best = min(best, d)
    dists = [math.hypot(px - x, py - y) for x, y in pts]
    return best, dists.index(min(dists))


def polyline_distance_all_pairs(ref, pts) -> tuple[np.ndarray, np.ndarray]:
    """polyline_distance over every segment and vertex of the Polyline ref
    for each point, in vectorized passes: the package's search before it
    was pruned, whose values it must match bit for bit."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    x, y, ux, uy, denom = ref.x, ref.y, ref.ux, ref.uy, ref.denom
    m = len(ux)
    dist = np.empty(len(pts))
    near = np.empty(len(pts), dtype=np.intp)
    rows = max(1, 2 ** 15 // len(x))
    for a in range(0, len(pts), rows):
        px, py = pts[a:a + rows, :1], pts[a:a + rows, 1:]
        ox, oy = px - x, py - y
        t = np.clip((ox[:, :m] * ux + oy[:, :m] * uy) / denom, 0.0, 1.0)
        d = np.hypot(px - (x[:m] + t * ux), py - (y[:m] + t * uy))
        dist[a:a + rows] = d.min(axis=1)
        near[a:a + rows] = np.argmin(np.hypot(ox, oy), axis=1)
    return dist, near


def bicycle_step_oracle(state, steering, speed_cmd, brake, params, dt):
    """RK4 on numpy state vectors, all four components through every
    stage."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}]")
    v_target = min(max(speed_cmd, 0.0), params.max_speed)
    v_target *= 1.0 - min(max(brake, 0.0), 1.0)
    tan_d = math.tan(steering)

    def deriv(s):
        x, y, psi, v = s
        return np.array([
            v * math.cos(psi),
            v * math.sin(psi),
            v / params.wheelbase * tan_d,
            (v_target - v) / params.v_time_constant,
        ])

    s0 = np.array([state.x, state.y, state.psi, state.v])
    k1 = deriv(s0)
    k2 = deriv(s0 + 0.5 * dt * k1)
    k3 = deriv(s0 + 0.5 * dt * k2)
    k4 = deriv(s0 + dt * k3)
    s1 = s0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return VehicleState(x=float(s1[0]), y=float(s1[1]),
                        psi=normalize_angle(float(s1[2])),
                        v=float(min(max(s1[3], 0.0), params.max_speed)))


def velocity_profile_oracle(kappa, s, limits: VehicleLimits, *,
                            closed=False, total_length=None) -> np.ndarray:
    """Forward and backward sweeps from index 0, repeated until none
    changes a speed (at most 64 times)."""
    kappa = np.abs(np.asarray(kappa, dtype=float))
    s = np.asarray(s, dtype=float)
    n = len(kappa)
    with np.errstate(divide="ignore"):
        v = np.where(kappa > 1e-12,
                     np.sqrt(limits.a_lat_max / np.maximum(kappa, 1e-12)),
                     np.inf)
    v = np.minimum(v, limits.v_max)
    ds = np.diff(s)
    if closed:
        ds = np.append(ds, total_length - s[-1] + s[0])
    idx = range(n) if closed else range(n - 1)
    for _ in range(64):
        changed = False
        for i in idx:
            j = (i + 1) % n
            cap = math.sqrt(v[i] ** 2 + 2.0 * limits.a_lon_max * ds[i])
            if v[j] > cap:
                v[j] = cap
                changed = True
        for i in reversed(idx):
            j = (i + 1) % n
            cap = math.sqrt(v[j] ** 2 + 2.0 * limits.a_lon_max * ds[i])
            if v[i] > cap:
                v[i] = cap
                changed = True
        if not changed:
            break
    return v


def knot_derivative_operators(track: Track) -> tuple[np.ndarray, np.ndarray]:
    """The dense maps (D1, D2) from the spline data to its first and second
    derivatives at the knots, on the centerline's chord lengths: cubic
    splines through the unit vectors, a block of 256 at a time."""
    data = np.vstack([track.xy, track.xy[:1]]) if track.closed else track.xy
    t = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(data, axis=0), axis=1))])
    knots = t[:-1] if track.closed else t
    n = len(track)
    d1_op, d2_op = np.empty((n, n)), np.empty((n, n))
    for start in range(0, n, 256):
        cols = np.arange(start, min(start + 256, n))
        unit = np.zeros((n, len(cols)))
        unit[cols, cols - start] = 1.0
        if track.closed:
            unit = np.vstack([unit, unit[:1]])
        sp = CubicSpline(t, unit, axis=0,
                         bc_type="periodic" if track.closed else "natural")
        d1_op[:, cols] = sp(knots, 1)
        d2_op[:, cols] = sp(knots, 2)
    return d1_op, d2_op


def min_curvature_objective_oracle(track: Track, reg: float):
    """The raceline objective, summed squared knot curvature of the offset
    spline plus reg ||alpha||^2, and its analytic gradient, as one function
    of alpha, on the dense derivative operators."""
    d1_op, d2_op = knot_derivative_operators(track)
    nrm = normals(track)
    x0, y0 = track.xy[:, 0], track.xy[:, 1]
    nx, ny = nrm[:, 0], nrm[:, 1]

    def fg(alpha):
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
        gx = (d1_op.T @ (w * (d2y * inv32 - d1x * inv52))
              + d2_op.T @ (w * (-d1y * inv32)))
        gy = (d1_op.T @ (w * (-d2x * inv32 - d1y * inv52))
              + d2_op.T @ (w * (d1x * inv32)))
        return value, gx * nx + gy * ny + 2.0 * reg * alpha

    return fg


def dense_curvature_residual(track: Track):
    """The knot curvatures of the offset spline and their dense n x n
    Jacobian, on the dense derivative operators: the linearization that the
    package's banded one replaced. Returns (kappa, jacobian)."""
    d1_op, d2_op = knot_derivative_operators(track)
    nrm = normals(track)
    x0, y0 = track.xy[:, 0], track.xy[:, 1]
    nx, ny = nrm[:, 0], nrm[:, 1]

    def derivatives(alpha):
        x = x0 + alpha * nx
        y = y0 + alpha * ny
        return d1_op @ x, d1_op @ y, d2_op @ x, d2_op @ y

    def kappa(alpha):
        d1x, d1y, d2x, d2y = derivatives(alpha)
        return (d1x * d2y - d1y * d2x) / (d1x ** 2 + d1y ** 2) ** 1.5

    def jacobian(alpha):
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


class DenseJacobian:
    """A dense Jacobian as the operator `gokart.track.minimize` takes: the
    normal matrix is formed and its free block solved by Cholesky, damped as
    the dense solver did where it is singular."""

    def __init__(self, j: np.ndarray):
        self.j = j

    def rmatvec(self, r):
        return self.j.T @ r

    def column_norms2(self, mask):
        return np.sum(self.j[:, mask] ** 2, axis=0)

    def solve(self, free, b, reg):
        jf = self.j[:, free]
        h = jf.T @ jf + reg * np.eye(len(b))
        scale = float(np.max(np.diag(h), initial=0.0)) or 1.0
        for damping in [0.0] + [scale * 10.0 ** k for k in range(-12, 1, 2)]:
            try:
                factor = cho_factor(h + damping * np.eye(len(h)))
            except np.linalg.LinAlgError:
                continue
            return cho_solve(factor, b)
        raise np.linalg.LinAlgError("no damping makes the normal matrix definite")


def minimize_dense_oracle(track: Track, reg: float = 1e-6,
                          max_iters: int = 5000):
    """The package's projected Gauss-Newton solve of the raceline, from the
    centerline, on the dense linearization; returns its OptimizeResult."""
    kappa, jacobian = dense_curvature_residual(track)
    lo, hi = alpha_bounds(track)
    return gn_minimize(kappa, np.zeros(len(track)),
                       lambda alpha: DenseJacobian(jacobian(alpha)), lo, hi,
                       reg=reg, max_iters=max_iters)


def minimize_full_scaling_oracle(fun, x0, jac, lo, hi, reg: float = 0.0,
                                 max_iters: int = 5000) -> OptimizeResult:
    """`gokart.track.minimize` as it was before offsets pinned on a bound
    went unscaled: every epsilon-active offset's step is -g over its
    column's squared norm plus reg, all taken in one `column_norms2` call
    per step. Same arguments and result."""
    armijo, max_halvings, active_width, rel_tol = 1e-4, 60, 1e-3, 1e-8
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    r = fun(x)
    nfev = 1
    f = float(r @ r + reg * (x @ x))
    nit = 0

    def result(success, message):
        return OptimizeResult(x=x, fun=f, success=success, nit=nit,
                              nfev=nfev, message=message)

    for nit in range(1, max_iters + 1):
        j = jac(x)
        g = j.rmatvec(r) + reg * x
        projected = x - np.clip(x - g, lo, hi)
        if not projected.any():
            return result(True, "zero projected gradient")
        width = min(active_width, float(np.linalg.norm(projected)))
        active = (((x <= lo + width) & (g > 0.0))
                  | ((x >= hi - width) & (g < 0.0)))
        free = ~active
        d = np.zeros_like(x)
        d[free] = j.solve(free, -g[free], reg)
        diag = j.column_norms2(active) + reg
        d[active] = -g[active] / np.where(diag > 0.0, diag, 1.0)
        slope = float(g[free] @ d[free])
        step = 1.0
        for _ in range(max_halvings):
            trial = np.clip(x + step * d, lo, hi)
            r_trial = fun(trial)
            nfev += 1
            f_trial = float(r_trial @ r_trial + reg * (trial @ trial))
            decrease = -step * slope + float(g[active] @ (x - trial)[active])
            if f_trial < f - 2.0 * armijo * decrease:
                break
            step *= 0.5
        else:
            if -2.0 * float(g @ d) <= rel_tol * max(abs(f), 1.0):
                return result(True, "no decrease above the tolerance possible")
            return result(False, "no decrease along the projected arc")
        drop = f - f_trial
        x, r, f = trial, r_trial, f_trial
        if drop <= rel_tol * max(abs(f + drop), abs(f), 1.0):
            return result(True, "relative objective drop below the tolerance")
    return result(False, f"iteration budget of {max_iters} steps spent")


def optimize_min_curvature_lbfgsb_oracle(track: Track, reg: float = 1e-6,
                                         max_iters: int = 5000,
                                         rel_tol: float = 1e-8) -> np.ndarray:
    """The box-constrained quasi-Newton (L-BFGS-B) solve of the raceline
    objective that the package's projected Gauss-Newton replaced, from the
    centerline; returns its final iterate whether or not it converged."""
    lo, hi = alpha_bounds(track)
    result = minimize(min_curvature_objective_oracle(track, reg),
                      np.zeros(len(track)), jac=True, method="L-BFGS-B",
                      bounds=list(zip(lo, hi)),
                      options={"maxiter": max_iters, "maxfun": 10 * max_iters,
                               "ftol": rel_tol, "gtol": 1e-14})
    return np.clip(result.x, lo, hi)


def geometric_scan_oracle(sampler, pose, angles, bev, step_m=0.02) -> np.ndarray:
    """March the true track geometry in meters, capped at the BEV window.

    Independent of the image pipeline: no rendering, no pixels, just the
    sign of the nearest-sample margin along each ray.
    """
    vx, vy = bev.origin_px()
    mpp = bev.meters_per_px
    t = np.arange(step_m, bev.max_range + step_m, step_m)
    out = np.full(len(angles), bev.max_range)
    for idx, a in enumerate(angles):
        fwd = t * np.cos(a)
        left = t * np.sin(a)
        col = vx - left / mpp
        row = vy - fwd / mpp
        in_frame = (col >= -0.5) & (col <= bev.width - 0.5) & \
                   (row >= -0.5) & (row <= bev.height - 0.5)
        body = np.stack([fwd, left], axis=-1)
        world = body_to_world(pose.x, pose.y, pose.psi, body)
        grass = (sampler.lateral_margin(world) < 0.0) & in_frame
        if grass.any():
            out[idx] = t[int(np.argmax(grass))]
    return out


# --- frame-stage oracles -----------------------------------------------------

def bev_grass_mask_oracle(sampler, pose, bev) -> np.ndarray:
    """Ground-truth grass mask, the body grid built afresh per call and
    every pixel decided by the nearest-sample margin (no world cells)."""
    vx, vy = bev.origin_px()
    cols, rows = np.meshgrid(np.arange(bev.width), np.arange(bev.height))
    forward = (vy - rows) * bev.meters_per_px
    left = (vx - cols) * bev.meters_per_px
    body = np.stack([forward, left], axis=-1)
    world = body_to_world(pose.x, pose.y, pose.psi, body)
    margin = sampler.lateral_margin(world.reshape(-1, 2))
    return (margin < 0.0).reshape(bev.height, bev.width).astype(np.uint8)


def render_scene_oracle(sampler, pose, h, front_width, front_height,
                        bev) -> np.ndarray:
    """Front view: colored BEV, then every front pixel mapped through h."""
    grass = bev_grass_mask_oracle(sampler, pose, bev)
    bev_img = np.where(grass[..., None].astype(bool),
                       np.array(GRASS_RGB, dtype=np.uint8),
                       np.array(TRACK_RGB, dtype=np.uint8))
    cols, rows = np.meshgrid(np.arange(front_width), np.arange(front_height))
    src = apply_homography(h, np.stack([cols, rows], axis=-1).astype(float))
    sc = np.rint(src[..., 0]).astype(int)
    sr = np.rint(src[..., 1]).astype(int)
    valid = (sc >= 0) & (sc < bev.width) & (sr >= 0) & (sr < bev.height)
    img = np.empty((front_height, front_width, 3), dtype=np.uint8)
    img[...] = np.array(SKY_RGB, dtype=np.uint8)
    img[valid] = bev_img[sr[valid], sc[valid]]
    return img


def gaussian_blur_oracle(img, sigma) -> np.ndarray:
    """The two 1-D Gaussian passes (axis 0, then axis 1) on a float64 copy
    of the whole image, rounded and clipped back to uint8."""
    radius = math.ceil(3.0 * sigma)
    out = img.astype(float)
    for axis in (0, 1):
        out = ndimage.gaussian_filter1d(out, sigma, axis=axis, mode="nearest",
                                        radius=radius)
    return np.clip(np.rint(out), 0, 255).astype(np.uint8)


def morph_open_close_oracle(mask, radius) -> np.ndarray:
    """Opening then closing with the square element on the mask zero-padded
    by 2 radius, each square pass a row element then a column element
    (equal to the 2-D element, with the same zero border, and small enough
    for radii near half a camera frame)."""
    pad = 2 * radius
    row = np.ones((1, 2 * radius + 1), dtype=bool)
    col = row.T

    def erode(work):
        return ndimage.binary_erosion(ndimage.binary_erosion(work, row), col)

    def dilate(work):
        return ndimage.binary_dilation(ndimage.binary_dilation(work, row), col)

    work = np.pad(mask.astype(bool), pad, mode="constant")
    work = erode(dilate(dilate(erode(work))))
    return work[pad:-pad, pad:-pad].astype(np.uint8)


def warp_to_bev_oracle(mask, h, bev) -> np.ndarray:
    """Nearest-neighbor inverse warp, every BEV pixel mapped through h^-1."""
    hinv = np.linalg.inv(h)
    cols, rows = np.meshgrid(np.arange(bev.width), np.arange(bev.height))
    dst = np.stack([cols, rows], axis=-1).astype(float)
    src = apply_homography(hinv, dst)
    sc = np.rint(src[..., 0]).astype(int)
    sr = np.rint(src[..., 1]).astype(int)
    valid = (sc >= 0) & (sc < mask.shape[1]) & (sr >= 0) & (sr < mask.shape[0])
    out = np.zeros((bev.height, bev.width), dtype=np.uint8)
    out[valid] = mask[sr[valid], sc[valid]]
    return out


def mask_to_depth_oracle(bev_mask, bev) -> DepthScan:
    """Ray march with the step coordinates computed per call."""
    vx, vy = bev.origin_px()
    if not (0 <= vx <= bev_mask.shape[1] - 1 and 0 <= vy <= bev_mask.shape[0] - 1):
        raise ValueError("vehicle pixel outside the BEV frame")
    angles = scan_angles()
    step_px = 0.5
    max_px = bev.max_range / bev.meters_per_px
    n_steps = int(math.ceil(max_px / step_px))
    t = (np.arange(1, n_steps + 1) * step_px)[None, :]
    cols = np.rint(vx - np.sin(angles)[:, None] * t).astype(int)
    rows = np.rint(vy - np.cos(angles)[:, None] * t).astype(int)
    inside = (cols >= 0) & (cols < bev_mask.shape[1]) & \
             (rows >= 0) & (rows < bev_mask.shape[0])
    hits = np.zeros_like(inside)
    hits[inside] = bev_mask[rows[inside], cols[inside]] > 0
    first = np.argmax(hits, axis=1)
    dist_px = np.where(hits.any(axis=1), (first + 1) * step_px, max_px)
    distances = np.minimum(dist_px * bev.meters_per_px, bev.max_range)
    return DepthScan(distances=distances, angles=angles, max_range=bev.max_range)


def detect_boundaries_oracle(img, h, cfg, bev):
    """The perception pipeline with all three channels blurred and the
    oracle stages above."""
    mask = grass_mask(gaussian_blur_oracle(img, cfg.blur_sigma), cfg.tau)
    mask = morph_open_close_oracle(mask, cfg.morph_radius)
    bev_mask = warp_to_bev_oracle(mask, h, bev)
    return mask_to_depth_oracle(bev_mask, bev), mask, bev_mask


# --- CAN codec ---------------------------------------------------------------

def _sat_oracle(value: float, lo: int, hi: int) -> int:
    return int(min(max(round(value), lo), hi))


def encode_command_oracle(cmd, seq: int = 0) -> CanFrame:
    payload = struct.pack(
        "<hhHBB",
        _sat_oracle(cmd.steering * STEERING_SCALE, -32768, 32767),
        _sat_oracle(cmd.speed * SPEED_SCALE, -32768, 32767),
        _sat_oracle(cmd.brake * BRAKE_SCALE, 0, 65535),
        (int(cmd.kill) & 0x1) | ((int(cmd.mode) & 0x3) << 1),
        seq % 256)
    return CanFrame(COMMAND_FRAME_ID, payload)


def decode_command_oracle(frame: CanFrame) -> DriveCommand:
    """Raises ValueError from Mode() for the mode bits 3."""
    if frame.can_id != COMMAND_FRAME_ID:
        raise FrameDecodeError(f"unexpected frame id 0x{frame.can_id:03x}")
    steering, speed, brake, flags, _seq = struct.unpack("<hhHBB",
                                                        frame.payload)
    return DriveCommand(steering=steering / STEERING_SCALE,
                        speed=speed / SPEED_SCALE, brake=brake / BRAKE_SCALE,
                        mode=Mode((flags >> 1) & 0x3), kill=bool(flags & 0x1))


# feedback id -> (field, scale, value format, saturation range)
FEEDBACK_ORACLE = {
    TBWS_FEEDBACK_ID: ("measured_speed", SPEED_SCALE, "<h", -32768, 32767),
    SBWS_FEEDBACK_ID: ("measured_steering", STEERING_SCALE, "<h",
                       -32768, 32767),
    EBS_FEEDBACK_ID: ("brake_pressure", BRAKE_SCALE, "<H", 0, 65535),
}


def encode_feedback_oracle(can_id: int, value: float,
                           seq: int = 0) -> CanFrame:
    if can_id not in FEEDBACK_ORACLE:
        raise ValueError(f"not a feedback id: 0x{can_id:03x}")
    _, scale, fmt, lo, hi = FEEDBACK_ORACLE[can_id]
    return CanFrame(can_id, struct.pack(fmt, _sat_oracle(value * scale, lo, hi))
                    + bytes(5) + bytes([seq % 256]))


def apply_feedback_oracle(fb: SubsystemFeedback,
                          frame: CanFrame) -> SubsystemFeedback:
    if frame.can_id not in FEEDBACK_ORACLE:
        raise FrameDecodeError(f"unexpected frame id 0x{frame.can_id:03x}")
    name, scale, fmt, _, _ = FEEDBACK_ORACLE[frame.can_id]
    (raw,) = struct.unpack_from(fmt, frame.payload)
    return SubsystemFeedback(**{**fb.__dict__, name: raw / scale})
