"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the implementations they check: the gap
oracle enumerates every subsequence, the scan oracle marches the true
geometry in meters, haversine is the textbook great-circle formula, and the
linear Kalman reference is written out long-hand. The EKF cycle oracle is
the plain numpy filter as written before its per-call overheads were
removed. The frame-stage oracles (rendering, morphology, warp, ray march,
the whole perception pipeline) recompute every pixel map per call and use
the plain 2-D morphology, so the memoized and separable versions in the
package must match them exactly.
The grass-mask and scan oracles read the sign of the nearest-sample margin
for every point, never the certified world cells of `TrackSampler.inside`.
The velocity-profile oracle sweeps to a fixed point, the polyline
oracle measures each segment with endpoint and cross-product distances, and
the bicycle oracle runs RK4 on numpy state vectors.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage

from gokart.geometry import body_to_world, normalize_angle
from gokart.localization import GNSS_DROPOUT_VARIANCE, EkfState
from gokart.perception import (DepthScan, GRASS_RGB, SKY_RGB, TRACK_RGB,
                               apply_homography, gaussian_blur, grass_mask,
                               scan_angles)
from gokart.sim import MAX_DT, VehicleState
from gokart.track import Track, VehicleLimits


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


def fuse_step_oracle(state, u, gnss, imu, origin, params):
    """The numpy EKF cycle as written before its per-call overheads were
    removed: `np.eye(3)` and `np.diag` built per call, `np.all` finite
    checks, and every state through the public `EkfState` constructor. The
    package's `fuse_step` must match it bit for bit. Returns (mean, cov)."""
    def ekf_jacobian(psi, v, dt):
        return np.array([
            [1.0, 0.0, -dt * v * math.sin(psi)],
            [0.0, 1.0, dt * v * math.cos(psi)],
            [0.0, 0.0, 1.0],
        ])

    def ekf_predict(state, u, params):
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
        j = ekf_jacobian(psi, u.v, u.dt)
        cov = j @ state.cov @ j.T + params.process_noise_scale * np.eye(3)
        cov = 0.5 * (cov + cov.T)
        return EkfState(mean, cov)

    def ekf_update(state, obs, obs_cov):
        obs = np.asarray(obs, dtype=float).reshape(3)
        m = np.asarray(obs_cov, dtype=float).reshape(3, 3)
        p = state.cov
        s = p + m
        k = np.linalg.solve(s, p).T
        innovation = obs - state.mean
        innovation[2] = normalize_angle(obs[2] - state.mean[2])
        mean = state.mean + k @ innovation
        mean[2] = normalize_angle(mean[2])
        cov = (np.eye(3) - k) @ p
        cov = 0.5 * (cov + cov.T)
        return EkfState(mean, cov)

    pred = ekf_predict(state, u, params)
    if gnss is not None and gnss.valid:
        x = params.earth_radius * math.cos(origin.lat) * (gnss.lon - origin.lon)
        y = params.earth_radius * (gnss.lat - origin.lat)
        obs = np.array([x, y, imu.yaw])
        m = np.diag([gnss.pos_variance, gnss.pos_variance, imu.yaw_variance])
    else:
        obs = np.array([pred.mean[0], pred.mean[1], imu.yaw])
        m = np.diag([GNSS_DROPOUT_VARIANCE, GNSS_DROPOUT_VARIANCE,
                     imu.yaw_variance])
    out = ekf_update(pred, obs, m)
    return out.mean, out.cov


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
