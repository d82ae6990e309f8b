"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the implementations they check: the gap
oracle enumerates every subsequence, the scan oracle marches the true
geometry in meters, haversine is the textbook great-circle formula, and the
linear Kalman reference is written out long-hand. The EKF cycle oracle is
the plain numpy filter (BLAS products and LAPACK's solve) that the package's
Python-float filter replaced. The frame-stage oracles (rendering, morphology, warp, ray march,
the whole perception pipeline) recompute every pixel map per call and use
the plain 2-D morphology, so the memoized and separable versions in the
package must match them exactly.
The grass-mask and scan oracles read the sign of the nearest-sample margin
for every point, never the certified world cells of `TrackSampler.inside`.
The velocity-profile oracle sweeps to a fixed point, the polyline
oracle measures each segment with endpoint and cross-product distances, and
the bicycle oracle runs RK4 on numpy state vectors. The body-frame oracle
is the numpy transform that the controller's Python-float lateral offset
replaced, and the raceline oracle the L-BFGS-B solve that the projected
Gauss-Newton solver replaced, on derivative operators of its own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage
from scipy.interpolate import CubicSpline
from scipy.optimize import minimize

from gokart.geometry import body_to_world, normalize_angle
from gokart.localization import GNSS_DROPOUT_VARIANCE, EkfState
from gokart.perception import (DepthScan, GRASS_RGB, SKY_RGB, TRACK_RGB,
                               apply_homography, gaussian_blur, grass_mask,
                               scan_angles)
from gokart.sim import MAX_DT, VehicleState
from gokart.track import Track, VehicleLimits, alpha_bounds, normals


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


def wiggly_track(seed=3, n=60, radius=30.0, amp=4.0, width=3.0, vhw=0.4) -> Track:
    rng = np.random.default_rng(seed)
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    coef = rng.normal(size=2)
    r = radius + amp * (np.sin(3 * th + coef[0]) + 0.5 * np.sin(5 * th + coef[1]))
    xy = np.column_stack([r * np.cos(th), r * np.sin(th)])
    return Track.from_arrays(xy, width, width, closed=True,
                             vehicle_half_width=vhw)


def straight_track(n=12, spacing=2.0, width=2.0, vhw=0.4,
                   heading=0.0) -> Track:
    x = np.arange(n, dtype=float) * spacing
    xy = np.column_stack([x * math.cos(heading), x * math.sin(heading)])
    return Track.from_arrays(xy, width, width, closed=False,
                             vehicle_half_width=vhw)


def hairpin_track(length=30.0, gap=4.0, wide=2.5, narrow=0.8, heading=0.4,
                  spacing=1.0) -> Track:
    """Two parallel straights `gap` apart joined by half circles, turned by
    `heading`. The first straight is `wide` each side, reaching past the
    midline between them; the second `narrow`. Between the straights the
    margin's sign then flips on the midline, where the nearest sample jumps
    from one straight to the other."""
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
    return Track.from_arrays(xy, width, width, closed=True,
                             vehicle_half_width=0.4)


def write_track_csv(path, track: Track) -> None:
    with open(path, "w") as fh:
        fh.write("x_m,y_m,w_left_m,w_right_m\n")
        for (x, y), wl, wr in zip(track.xy, track.w_left, track.w_right):
            fh.write(f"{float(x)!r},{float(y)!r},{float(wl)!r},{float(wr)!r}\n")


def alternating(cases):
    """The first case between every other one: base, v1, base, v2, ... A
    memo keyed on too few inputs then hands some case another's result."""
    for case in cases[1:]:
        yield cases[0]
        yield case


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


def _oracle_predict(state, u, params):
    if not (np.all(np.isfinite(state.mean)) and np.all(np.isfinite(state.cov))):
        raise ValueError("non-finite filter state")
    if not (math.isfinite(u.v) and math.isfinite(u.omega) and math.isfinite(u.dt)):
        raise ValueError("non-finite motion input")
    x, y, psi = state.mean
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
    cov = j @ state.cov @ j.T + params.process_noise_scale * np.eye(3)
    cov = 0.5 * (cov + cov.T)
    return EkfState(mean, cov)


def _oracle_observation(pred, gnss, imu, origin, params):
    """The observation and its covariance M that `pred` is updated with."""
    if gnss is not None and gnss.valid:
        x = params.earth_radius * math.cos(origin.lat) * (gnss.lon - origin.lon)
        y = params.earth_radius * (gnss.lat - origin.lat)
        return (np.array([x, y, imu.yaw]),
                np.diag([gnss.pos_variance, gnss.pos_variance,
                         imu.yaw_variance]))
    return (np.array([pred.mean[0], pred.mean[1], imu.yaw]),
            np.diag([GNSS_DROPOUT_VARIANCE, GNSS_DROPOUT_VARIANCE,
                     imu.yaw_variance]))


def _innovation(state, obs):
    innovation = obs - state.mean
    innovation[2] = normalize_angle(obs[2] - state.mean[2])
    return innovation


def fuse_step_oracle(state, u, gnss, imu, origin, params):
    """The numpy EKF cycle: `np.eye(3)` and `np.diag` built per call,
    `np.all` finite checks, BLAS `@`, `np.linalg.solve`, and every state
    through the public `EkfState` constructor. Takes and returns what the
    package's `fuse_step` does, NIS included."""
    pred = _oracle_predict(state, u, params)
    obs, m = _oracle_observation(pred, gnss, imu, origin, params)
    p = pred.cov
    s = p + m
    k = np.linalg.solve(s, p).T
    innovation = _innovation(pred, obs)
    mean = pred.mean + k @ innovation
    mean[2] = normalize_angle(mean[2])
    cov = (np.eye(3) - k) @ p
    cov = 0.5 * (cov + cov.T)
    nis = float(innovation @ np.linalg.solve(s, innovation))
    return EkfState(mean, cov, nis)


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
    s = pred.cov + m
    d = 1.0 / np.sqrt(np.abs(np.diag(s)))
    bound = FUSE_RTOL * np.linalg.cond(s * np.outer(d, d))
    e_max = np.abs(_innovation(pred, obs)).max()
    assert np.all(mean_gap(out.mean, want.mean)
                  <= bound * (1.0 + np.abs(want.mean) + e_max))
    assert np.all(np.abs(out.cov - want.cov)
                  <= bound * (1.0 + np.abs(pred.cov).max()))
    assert abs(out.nis - want.nis) <= bound * (1.0 + abs(want.nis))


def assert_state_close(got, want):
    """Mean and covariance within FUSE_RTOL * (1 + |value|), the heading's
    difference taken on the circle."""
    assert np.all(mean_gap(got.mean, want.mean)
                  <= FUSE_RTOL * (1.0 + np.abs(want.mean)))
    assert np.all(np.abs(got.cov - want.cov)
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


def min_curvature_objective_oracle(track: Track, reg: float):
    """The raceline objective, summed squared knot curvature of the offset
    spline plus reg ||alpha||^2, and its analytic gradient, as one function
    of alpha. The spline derivative operators are built here, from cubic
    splines through the unit vectors on the centerline's chord lengths."""
    data = np.vstack([track.xy, track.xy[:1]]) if track.closed else track.xy
    t = np.concatenate([[0.0], np.cumsum(
        np.linalg.norm(np.diff(data, axis=0), axis=1))])
    knots = t[:-1] if track.closed else t
    n = len(track)
    unit = np.vstack([np.eye(n), np.eye(n)[:1]]) if track.closed else np.eye(n)
    sp = CubicSpline(t, unit, axis=0,
                     bc_type="periodic" if track.closed else "natural")
    d1_op, d2_op = sp(knots, 1), sp(knots, 2)
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


def morph_open_close_oracle(mask, radius) -> np.ndarray:
    """Opening then closing with the full square element on the mask
    zero-padded by 2 radius."""
    pad = 2 * radius
    se = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    work = np.pad(mask.astype(bool), pad, mode="constant")
    work = ndimage.binary_dilation(ndimage.binary_erosion(work, se), se)
    work = ndimage.binary_erosion(ndimage.binary_dilation(work, se), se)
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
    mask = grass_mask(gaussian_blur(img, cfg.blur_sigma), cfg.tau)
    mask = morph_open_close_oracle(mask, cfg.morph_radius)
    bev_mask = warp_to_bev_oracle(mask, h, bev)
    return mask_to_depth_oracle(bev_mask, bev), mask, bev_mask
