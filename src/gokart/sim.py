"""Closed-loop simulation: kinematic bicycle vehicle, GNSS/IMU emulation,
synthetic track scenes for the vision pipeline, and the fixed-step runner
wiring controller -> drive bus -> vehicle -> sensors.

Everything is deterministic given the scenario seed: identical scenarios
produce bit-identical logs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .control import (EndOfRaceline, PursuitParams, PursuitState, VehicleState,
                      pursuit_step)
from .drivebus import (CanBus, DriveCommand, EBS_FEEDBACK_ID, Mode,
                       ModeArbiter, SBWS_FEEDBACK_ID, STEERING_LIMIT,
                       SubsystemFeedback, TBWS_FEEDBACK_ID, ThrottleEcu,
                       apply_feedback, COMMAND_FRAME_ID, decode_command, ebs_step,
                       encode_command, encode_feedback, format_trace_row,
                       sbws_step, SPEED_SCALE)
from .fileio import ScenarioError, parse_bool, parse_float, require
from .geometry import Polyline, normalize_angle, polyline_distance
from .localization import (EkfParams, EkfState, GeoFix, ImuReading,
                           LocalPoint, Localizer, fuse_step, local_to_geo)
from .perception import (BevConfig, GRASS_RGB, PerceptionConfig, SKY_RGB,
                         TRACK_RGB, detect_boundaries, homography_from_points,
                         pixel_map, scan_angles)
from .planning import FtgParams, SpeedLaw, ftg_step
from .track import (Raceline, Spline2D, Track, VehicleLimits, build_raceline,
                    optimize_min_curvature, read_raceline_csv, read_track_csv)


@dataclass(frozen=True)
class VehicleParams:
    wheelbase: float = 1.05
    v_time_constant: float = 1.0
    max_speed: float = 8.0

    def __post_init__(self):
        for key in ("wheelbase", "v_time_constant", "max_speed"):
            value = getattr(self, key)
            require(value > 0.0, f"vehicle.{key}", "be > 0", value)


@dataclass(frozen=True)
class SensorConfig:
    gnss_sigma: float = 0.02
    gnss_rate: float = 10.0
    gnss_dropout_windows: tuple = ()
    imu_sigma_yaw: float = 0.01
    imu_sigma_rate: float = 0.0
    imu_rate: float = 100.0
    seed: int = 0

    def __post_init__(self):
        for key in ("gnss_rate", "imu_rate"):
            value = getattr(self, key)
            require(value > 0.0, f"sensors.{key}", "be > 0", value)
        for key in ("gnss_sigma", "imu_sigma_yaw", "imu_sigma_rate"):
            value = getattr(self, key)
            require(value >= 0.0, f"sensors.{key}", "be >= 0", value)


# Largest physics step the RK4 plant accepts.
MAX_DT = 0.05
# Most physics steps a scenario may ask for (duration_s / dt).
MAX_TICKS = 10**7
# Most pixels of an FTG run's camera or BEV frame (3840x2160 is 8,294,400).
MAX_FRAME_PIXELS = 2**24
# The plant's speed lag dv/dt = (v_target - v) / tau steps with z = -dt / tau
# through RK4's R(z) = 1 + z + z^2 / 2 + z^3 / 6 + z^4 / 24. Its derivative
# 1 + z + z^2 / 2 + z^3 / 6 has one real root; with z = w - 1 it reads
# w^3 + 3 w + 2 = 0, so by Cardano z = -(1 + c - 1 / c), c = cbrt(1 + sqrt 2).
# There R has its real-axis minimum, about 0.2704. On [-RK4_MONOTONE_LIMIT, 0)
# a shorter time constant converges faster; past it R climbs back to 1 at
# z = -2.785, where the speed never moves.
RK4_MONOTONE_LIMIT = 1.5960716379833215

# The plant, the IMU and the pursuit planner build their per-tick records
# with _new and write the instance __dict__ directly: each value is already
# what the record's checks would leave it (a heading in (-pi, pi], which
# normalize_angle returns unchanged, and a speed >= 0 or nan), and the
# Python-level constructor call is most of a record's cost.
_new = object.__new__


def bicycle_step(state: VehicleState, steering: float, speed_cmd: float,
                 brake: float, params: VehicleParams, dt: float) -> VehicleState:
    """Advance the kinematic bicycle one step with RK4.

    Speed relaxes first-order toward the commanded speed scaled down by the
    brake fraction; heading rate is (v / wheelbase) tan(steering). Position
    does not feed back into the derivatives, so the stages carry only
    heading and speed.
    """
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}]")
    v_target = min(max(speed_cmd, 0.0), params.max_speed)
    v_target *= 1.0 - min(max(brake, 0.0), 1.0)
    tan_d = math.tan(steering)
    wheelbase, tau = params.wheelbase, params.v_time_constant
    cos, sin = math.cos, math.sin
    # RK4 unrolled: stage i evaluates (v cos psi, v sin psi, psi', v') at
    # (psi_i, v_i), and every sum keeps the vector form's operation order,
    # so the result equals it bit for bit
    half = 0.5 * dt
    psi1, v1 = state.psi, state.v
    w1, a1 = v1 / wheelbase * tan_d, (v_target - v1) / tau
    psi2, v2 = psi1 + half * w1, v1 + half * a1
    w2, a2 = v2 / wheelbase * tan_d, (v_target - v2) / tau
    psi3, v3 = psi1 + half * w2, v1 + half * a2
    w3, a3 = v3 / wheelbase * tan_d, (v_target - v3) / tau
    psi4, v4 = psi1 + dt * w3, v1 + dt * a3
    w4, a4 = v4 / wheelbase * tan_d, (v_target - v4) / tau
    sixth = dt / 6.0
    x = state.x + sixth * (v1 * cos(psi1) + 2.0 * (v2 * cos(psi2))
                           + 2.0 * (v3 * cos(psi3)) + v4 * cos(psi4))
    y = state.y + sixth * (v1 * sin(psi1) + 2.0 * (v2 * sin(psi2))
                           + 2.0 * (v3 * sin(psi3)) + v4 * sin(psi4))
    psi = psi1 + sixth * (w1 + 2.0 * w2 + 2.0 * w3 + w4)
    v = v1 + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
    new = _new(VehicleState)
    fields = new.__dict__
    fields["x"] = float(x)
    fields["y"] = float(y)
    fields["psi"] = normalize_angle(float(psi))
    fields["v"] = float(min(max(v, 0.0), params.max_speed))
    return new


# sensor noise pairs drawn per generator call
_NOISE_BLOCK = 256


def _noise_pairs(rng: np.random.Generator, scale_a: float, scale_b: float):
    """Endless (a, b) pairs of zero-mean normal noise.

    Drawn _NOISE_BLOCK pairs per call, in the order of one
    normal(0, scale_a) then one normal(0, scale_b) call per pair, so the
    values are bitwise those of per-pair calls. Nothing is drawn before the
    first pair is taken.
    """
    scales = np.tile([scale_a, scale_b], _NOISE_BLOCK)
    while True:
        block = iter(rng.normal(0.0, scales).tolist())
        yield from zip(block, block)


class GnssSimulator:
    """Noisy GNSS with scripted dropout windows; deterministic from the seed.
    A sample inside a dropout window draws no noise."""

    def __init__(self, config: SensorConfig, origin: GeoFix,
                 earth_radius: float):
        self.config = config
        self.origin = origin
        self.earth_radius = earth_radius
        self._noise = _noise_pairs(np.random.default_rng([config.seed, 0]),
                                   config.gnss_sigma, config.gnss_sigma)

    def sample(self, state: VehicleState, t: float) -> GeoFix | None:
        for start, end in self.config.gnss_dropout_windows:
            if start <= t <= end:
                return None
        nx, ny = next(self._noise)
        return local_to_geo(LocalPoint(state.x + nx, state.y + ny),
                            self.origin, self.earth_radius,
                            pos_variance=self.config.gnss_sigma ** 2)


class ImuSimulator:
    """Absolute yaw plus yaw rate with Gaussian noise; deterministic from seed."""

    def __init__(self, config: SensorConfig):
        self.config = config
        self._noise = _noise_pairs(np.random.default_rng([config.seed, 1]),
                                   config.imu_sigma_yaw, config.imu_sigma_rate)
        self._yaw_variance = config.imu_sigma_yaw ** 2  # >= 0, as checked

    def sample(self, state: VehicleState, omega_true: float,
               t: float) -> ImuReading:
        ny, nr = next(self._noise)
        reading = _new(ImuReading)
        fields = reading.__dict__
        fields["yaw"] = normalize_angle(state.psi + ny)
        fields["yaw_rate"] = omega_true + nr
        fields["yaw_variance"] = self._yaw_variance
        return reading


# verdicts of the world cells behind TrackSampler.inside, and of the
# sub-cells of its mixed cells
_UNKNOWN, _TRACK, _GRASS, _MIXED = 0, 1, 2, 3
# cells classified per vectorized pass, bounding its temporaries
_CELLS_PER_PASS = 512
# cells a side of the grid-aligned tiles that TrackSampler.inside classifies
# whole (4 m)
_TILE = 8
# sub-cells a side of a mixed cell
_SPLIT = 5
# (candidate, sub-cell) pairs per vectorized pass, bounding its temporaries
_PAIRS_PER_PASS = 2 ** 15
# spacing of TrackSampler's samples along the track, m
_SAMPLE_STEP = 0.1


class TrackSampler:
    """Dense geometric view of a track for inside tests and boundary margins."""

    def __init__(self, track: Track):
        from scipy.spatial import cKDTree  # deferred: optimize-raceline needs none
        sp = Spline2D(track.xy, track.closed)
        count = max(int(math.ceil(sp.t_max / _SAMPLE_STEP)), 4 * len(track))
        t = np.linspace(0.0, sp.t_max, count, endpoint=not track.closed)
        self.points = sp.point(t)
        d1 = sp.derivative(t, 1)
        norm = np.hypot(d1[:, 0], d1[:, 1])
        self.tangents = d1 / norm[:, None]
        knots = sp.t_knots
        if track.closed:
            knots = np.append(knots, sp.t_max)
            w_left = np.append(track.w_left, track.w_left[0])
            w_right = np.append(track.w_right, track.w_right[0])
        else:
            w_left, w_right = track.w_left, track.w_right
        self.w_left = np.interp(t, knots, w_left)
        self.w_right = np.interp(t, knots, w_right)
        self.closed = track.closed
        self._tree = cKDTree(self.points)
        # inside() decides points by world cells of 5 steps a side over the
        # samples' bounding box, padded by the widest half-width plus half
        # the box's longer side so that a camera frame seen from the track
        # rarely leaves the grid; cells are classified a tile of _TILE x
        # _TILE at a time, when a frame first reaches an unknown one
        self._cell = 5.0 * _SAMPLE_STEP
        widest = float(max(self.w_left.max(), self.w_right.max()))
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        pad = widest + 0.5 * float((hi - lo).max())
        self._grid_origin = lo - pad
        nx, ny = np.ceil((hi - lo + 2.0 * pad) / self._cell).astype(int)
        self._verdicts = np.full((ny, nx), _UNKNOWN, dtype=np.int8)
        # the mixed cells' flat grid indices, ascending, and their sub-cell
        # verdicts, [row, column] within the cell
        self._mixed = np.empty(0, dtype=np.intp)
        self._sub_verdicts = np.empty((0, _SPLIT, _SPLIT), dtype=np.int8)
        # covers the rounding in a pixel's world position and cell index, in
        # its margin and in the corner bounds, all near 1e-16 of this scale
        far = float(np.abs(np.concatenate([lo - pad, hi + pad])).max())
        self._eps = 1e-9 * (1.0 + far + widest)
        # _bounds' constants: the narrowest and widest half-widths, and over
        # every chord c between neighbouring samples the longest |c| and,
        # against the tangents at both its ends, the largest angle's sine
        # and smallest angle's cosine
        self._w_min = float(min(self.w_left.min(), self.w_right.min()))
        self._w_max = widest
        p, t = self.points, self.tangents
        if track.closed:
            chord, ends = np.roll(p, -1, axis=0) - p, (t, np.roll(t, -1, 0))
        else:
            chord, ends = np.diff(p, axis=0), (t[:-1], t[1:])
        length = np.hypot(chord[:, 0], chord[:, 1])
        self._step = float(length.max())
        self._cos = min(float(((u * chord).sum(1) / length).min())
                        for u in ends)
        self._sin = max(float((np.abs(u[:, 0] * chord[:, 1]
                                      - u[:, 1] * chord[:, 0]) / length).max())
                        for u in ends)

    @functools.cached_property
    def polyline(self) -> Polyline:
        """The samples set up for nearest-sample queries, built once."""
        return Polyline(self.points, self.closed)

    def lateral_margin(self, pts) -> np.ndarray:
        """Distance to the nearest boundary, positive inside the track, for
        each point of an (N, 2) array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _, idx = self._tree.query(pts)
        d = pts - self.points.take(idx, axis=0)
        tx, ty = self.tangents[idx, 0], self.tangents[idx, 1]
        lat = tx * d[:, 1] - ty * d[:, 0]
        lon = tx * d[:, 0] + ty * d[:, 1]
        margin = np.minimum(self.w_left[idx] - lat, self.w_right[idx] + lat)
        if not self.closed:
            margin = np.where((idx == 0) & (lon < 0.0),
                              np.minimum(margin, lon), margin)
            last = len(self.points) - 1
            margin = np.where((idx == last) & (lon > 0.0),
                              np.minimum(margin, -lon), margin)
        return margin

    def inside(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """`lateral_margin(pts) >= 0.0` for the points pts = (x, y) given as
        two 1-D arrays. Points in world cells, or sub-cells of mixed cells,
        certified all track or all grass take that verdict; the rest, in
        mixed sub-cells or off the grid, go through lateral_margin."""
        gx = x - self._grid_origin[0]
        gx /= self._cell
        gy = y - self._grid_origin[1]
        gy /= self._cell
        ny, nx = self._verdicts.shape
        verdict = np.full(len(gx), _UNKNOWN, dtype=np.int8)  # off the grid
        # a camera frame's box rarely leaves the grid: only then are the
        # points tested one by one
        on_grid = slice(None)
        if len(gx) and not (gx.min() >= 0.0 and gx.max() < nx
                            and gy.min() >= 0.0 and gy.max() < ny):
            on_grid = (gx >= 0.0) & (gx < nx) & (gy >= 0.0) & (gy < ny)
        ix, iy = gx[on_grid].astype(np.intp), gy[on_grid].astype(np.intp)
        if len(ix):
            x0, y0 = ix.min(), iy.min()
            x1, y1 = ix.max() + 1, iy.max() + 1
            if (self._verdicts[y0:y1, x0:x1] == _UNKNOWN).any():
                # the unknown cells of every tile the block touches, so
                # that the calls follow the tiles the kart enters, not the
                # frames; np.nonzero walks row by row, so keys ascend
                x0, y0 = x0 - x0 % _TILE, y0 - y0 % _TILE
                x1, y1 = -(-x1 // _TILE) * _TILE, -(-y1 // _TILE) * _TILE
                block = self._verdicts[y0:y1, x0:x1]
                by, bx = np.nonzero(block == _UNKNOWN)
                for a in range(0, len(bx), _CELLS_PER_PASS):
                    cx = bx[a:a + _CELLS_PER_PASS] + x0
                    cy = by[a:a + _CELLS_PER_PASS] + y0
                    self._verdicts[cy, cx] = self._classify(cx, cy)
            iy *= nx
            iy += ix
            verdict[on_grid] = self._verdicts.reshape(-1).take(iy)
        split = np.flatnonzero(verdict == _MIXED)
        if len(split):  # points in mixed cells take their sub-cell's verdict
            gx, gy = gx[split], gy[split]
            ix, iy = gx.astype(np.intp), gy.astype(np.intp)
            sx = np.minimum((gx - ix) * _SPLIT, _SPLIT - 1.0).astype(np.intp)
            sy = np.minimum((gy - iy) * _SPLIT, _SPLIT - 1.0).astype(np.intp)
            slot = np.searchsorted(self._mixed, iy * nx + ix)
            verdict[split] = self._sub_verdicts.reshape(-1).take(
                (slot * _SPLIT + sy) * _SPLIT + sx)
        inside = verdict == _TRACK
        exact = (verdict == _MIXED) | (verdict == _UNKNOWN)
        if exact.any():
            pts = np.column_stack([x[exact], y[exact]])
            inside[exact] = self.lateral_margin(pts) >= 0.0
        return inside

    def _classify(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """The verdict of each cell (cx, cy): _TRACK if every point of it has
        a margin > 0 in lateral_margin's arithmetic, _GRASS if every point
        has a margin < 0 there, else _MIXED. Most cells are decided by
        _bounds from the sample nearest their centre; only the rest query
        the ball of candidates below. A mixed cell's sub-cells are
        classified too, from its candidates."""
        h = 0.5 * self._cell
        centre = self._grid_origin + (np.column_stack([cx, cy]) + 0.5) \
            * self._cell
        # Candidates. Take any sample a (the one nearest the centre c) and
        # the largest distance D from a cell corner to a. Distance to a is
        # convex, so |p - a| <= D for every point p of the cell, and p's
        # nearest sample s has |s - p| <= |a - p| <= D. With |p - c| at most
        # the half diagonal, |s - c| <= D + half diagonal: the ball holds
        # the nearest sample of every point in the cell. The 4 eps cover a
        # pixel a rounding error outside its cell and cKDTree's rounding,
        # so the ball also holds whichever sample the query returns.
        dist, near = self._tree.query(centre)
        corner = np.abs(self.points.take(near, axis=0) - centre) + h
        reach = np.hypot(corner[:, 0], corner[:, 1])
        radius = reach + math.sqrt(2.0) * h + 4.0 * self._eps
        verdict = self._bounds(centre, dist, reach, radius)
        ball = np.flatnonzero(verdict == _UNKNOWN)
        if len(ball):
            verdict[ball] = self._ball_verdicts(
                centre.take(ball, axis=0), near[ball], radius[ball],
                cx[ball], cy[ball])
        return verdict

    def _bounds(self, centre: np.ndarray, dist: np.ndarray,
                reach: np.ndarray, radius: np.ndarray) -> np.ndarray:
        """_TRACK or _GRASS for each cell that its centre's distance dist
        to the nearest sample, that sample's farthest-corner distance
        reach and the candidates' ball radius decide, else _UNKNOWN.

        Let p be a point of the cell, s the sample lateral_margin finds for
        it, and d = p - s, of length r, with lat and lon its components
        across and along the unit tangent at s. As in _classify,
        r <= |p - a| <= reach, and |lat| <= r.
        - TRACK: the margin is at least min(w_left, w_right) - |lat| >=
          w_min - reach, so reach < w_min - 4 eps leaves every margin over
          eps.
        - GRASS: s is nearer to p than its neighbours s +- 1, so
          |d|^2 <= |d - c|^2 for the chord c to either one, and d.c <=
          |c|^2 / 2. With c's angle phi to the tangent (to its negative,
          for the chord back), d.c / |c| = lon cos(phi) +- lat sin(phi),
          hence |lon| <= L(r) = (step / 2 + r sin) / cos for the longest
          chord step and the largest angle's sin and cos (cos > 0).
          lat^2 = r^2 - lon^2 >= (r - L(r)) (r + L(r)); once r - L(r) > 0
          with r > 0, both factors grow with r (so sin < cos). Every r is
          at least r0 = dist - half diagonal - 4 eps, since p lies within
          the half diagonal of the centre, so (r0 - L(r0)) (r0 + L(r0)) >
          (w_max + 4 eps)^2 gives |lat| > w_max + 4 eps: one of the margin's
          terms w_left - lat, w_right + lat is below -4 eps.
        As in _certify, the 4 eps cover a pixel a rounding error outside
        its cell, and the rounding in dist and in lateral_margin. The eps
        added to L covers a query returning a sample only nearest to
        rounding: cKDTree's squared distances err by a few ulps of r^2,
        which moves L by a few ulps of r^2 / step, far below eps here.
        The bounds leave a cell to the ball when dist is not finite, when
        cos <= 0 (for GRASS), and on an open track when an end sample lies
        in the cell's ball: it has one neighbour, and its cap decides by
        lon < 0."""
        eps4 = 4.0 * self._eps
        finite = np.isfinite(dist)
        track = finite & (reach < self._w_min - eps4)
        grass = np.zeros(len(dist), dtype=bool)
        if self._cos > 0.0:
            r = np.where(finite, dist, 0.0) - math.sqrt(2.0) * 0.5 \
                * self._cell - eps4
            lon = (0.5 * self._step + r * self._sin) / self._cos + self._eps
            low, high = r - lon, r + lon
            grass = (r > 0.0) & (low > 0.0) \
                & (low * high > (self._w_max + eps4) ** 2)
        if not self.closed:  # the end caps
            for end in self.points[[0, -1]]:
                far = np.hypot(centre[:, 0] - end[0], centre[:, 1] - end[1])
                track &= far > radius
                grass &= far > radius
        return np.where(track, _TRACK, np.where(grass, _GRASS, _UNKNOWN)) \
            .astype(np.int8)

    def _ball_verdicts(self, centre: np.ndarray, near: np.ndarray,
                       radius: np.ndarray, cx: np.ndarray,
                       cy: np.ndarray) -> np.ndarray:
        """_classify's verdicts of the cells (cx, cy) from the candidates in
        each one's ball (centre, radius) around the sample near to it; the
        mixed cells' sub-cells go into the table."""
        h = 0.5 * self._cell
        balls = self._tree.query_ball_point(centre, radius,
                                            return_sorted=False)
        counts = np.fromiter(map(len, balls), np.intp, len(balls))
        cand = np.fromiter(itertools.chain.from_iterable(balls), np.intp,
                           int(counts.sum()))
        # the lists' Python ints, and below the cells' arrays, are freed so
        # that the sub-cells' pass adds nothing to the peak memory
        del balls
        cell = np.repeat(np.arange(len(counts)), counts)
        d = centre.take(cell, axis=0) - self.points.take(cand, axis=0)
        track, grass = self._certify(cand, d[:, 0], d[:, 1], h)
        verdict = _verdicts(cell, track, grass, len(counts))
        del cell, d, track, grass
        mixed = np.flatnonzero(verdict == _MIXED)
        if len(mixed):
            starts = np.cumsum(counts) - counts
            split = self._split(centre[mixed], near[mixed], cand,
                                starts[mixed], counts[mixed])
            # merged into the table in key order; the cells come row by
            # row, so their keys ascend (np.insert would sort them again)
            keys = cy[mixed] * self._verdicts.shape[1] + cx[mixed]
            at = np.searchsorted(self._mixed, keys) + np.arange(len(keys))
            kept = np.ones(len(self._mixed) + len(keys), dtype=bool)
            kept[at] = False
            mixed_keys = np.empty(len(kept), dtype=np.intp)
            mixed_keys[kept], mixed_keys[at] = self._mixed, keys
            sub_verdicts = np.empty((len(kept), _SPLIT, _SPLIT), dtype=np.int8)
            sub_verdicts[kept], sub_verdicts[at] = self._sub_verdicts, split
            self._mixed, self._sub_verdicts = mixed_keys, sub_verdicts
        return verdict

    def _split(self, centre: np.ndarray, anchor: np.ndarray,
               cand: np.ndarray, starts: np.ndarray,
               counts: np.ndarray) -> np.ndarray:
        """The (k, _SPLIT, _SPLIT) verdicts, [row, column], of the sub-cells
        of k mixed cells, given each cell's centre, the sample nearest to
        it and its candidates cand[start:start + count].

        The cell's candidates hold the nearest sample of every point in it,
        so no new query is needed; each sub-cell keeps the ones within its
        own ball, found as in _classify with the cell's nearest sample as
        the anchor (any sample would do). The same 4 eps cover the
        rounding."""
        h = 0.5 * self._cell / _SPLIT
        sub = _SPLIT * _SPLIT
        # the sub-cells' centres from the cell's, (x, y), row by row
        k = ((np.arange(_SPLIT) + 0.5) / _SPLIT - 0.5) * self._cell
        shift = np.column_stack([np.tile(k, _SPLIT), np.repeat(k, _SPLIT)])
        corner = np.abs((centre - self.points[anchor])[:, None] + shift) + h
        radius = np.hypot(corner[..., 0], corner[..., 1]) \
            + math.sqrt(2.0) * h + 4.0 * self._eps
        verdicts = np.empty((len(centre), sub), dtype=np.int8)
        cells = max(1, _PAIRS_PER_PASS // (sub * int(counts.max())))
        for a in range(0, len(centre), cells):
            size = counts[a:a + cells]
            first = np.cumsum(size) - size
            owner = np.repeat(np.arange(len(size)), size)
            pick = cand[np.repeat(starts[a:a + cells] - first, size)
                        + np.arange(int(size.sum()))]
            # (candidate, sub-cell) pairs
            d = centre[a:a + cells][owner] - self.points[pick]
            dx, dy = d[:, :1] + shift[:, 0], d[:, 1:] + shift[:, 1]
            held = np.hypot(dx, dy) <= radius[a:a + cells][owner]
            track, grass = self._certify(pick[:, None], dx, dy, h)
            group = owner[:, None] * sub + np.arange(sub)
            verdicts[a:a + cells] = _verdicts(
                group.ravel(), (track | ~held).ravel(),
                (grass | ~held).ravel(), len(size) * sub).reshape(-1, sub)
        return verdicts.reshape(-1, _SPLIT, _SPLIT)

    def _certify(self, cand: np.ndarray, dx: np.ndarray, dy: np.ndarray,
                 h: float) -> tuple[np.ndarray, np.ndarray]:
        """For each sample cand and offset (dx, dy) of a square's centre
        from it, whether every point of the square of half side h has, were
        that sample its nearest, a margin > 0 (track) or < 0 (grass) in
        lateral_margin's arithmetic. The arrays broadcast."""
        eps = self._eps
        # For a fixed sample, lat and lon are linear in the point, with
        # gradients (-ty, tx) and (tx, ty); over the square each lies within
        # h (|tx| + |ty|) of its value at the centre, the bounds taken at
        # the corners.
        tx, ty = self.tangents[cand, 0], self.tangents[cand, 1]
        lat = tx * dy - ty * dx
        lon = tx * dx + ty * dy
        spread = h * (np.abs(tx) + np.abs(ty))
        left, right = self.w_left[cand] - lat, self.w_right[cand] + lat
        # track: every term of the margin stays >= eps; grass: one term
        # stays < -eps. Either holds for every candidate, so whichever one
        # the query picks on a tie gives the same answer.
        track = np.minimum(left, right) - spread >= eps
        grass = (left + spread < -eps) | (right + spread < -eps)
        if not self.closed:  # the caps of the end samples
            first, last = cand == 0, cand == len(self.points) - 1
            track &= ~first | (lon - spread >= eps)
            track &= ~last | (-lon - spread >= eps)
            grass |= first & (lon + spread < -eps)
            grass |= last & (-lon + spread < -eps)
        return track, grass


def _verdicts(group: np.ndarray, track: np.ndarray, grass: np.ndarray,
              n: int) -> np.ndarray:
    """Per group 0..n-1 of elements: _TRACK if every element is track, else
    _GRASS if every one is grass, else _MIXED."""
    all_track = np.bincount(group, ~track, n) == 0
    all_grass = np.bincount(group, ~grass, n) == 0
    return np.where(all_track, _TRACK, np.where(all_grass, _GRASS, _MIXED))


@functools.lru_cache(maxsize=4)
def _bev_body_points(bev: BevConfig) -> tuple[np.ndarray, np.ndarray]:
    """Body-frame forward and left meters of every BEV pixel, row-major, as
    two contiguous columns."""
    vx, vy = bev.origin_px()
    cols, rows = np.meshgrid(np.arange(bev.width), np.arange(bev.height))
    forward = ((vy - rows) * bev.meters_per_px).reshape(-1)
    left = ((vx - cols) * bev.meters_per_px).reshape(-1)
    forward.flags.writeable = left.flags.writeable = False
    return forward, left


def bev_grass_mask(sampler: TrackSampler, pose: VehicleState,
                   bev: BevConfig) -> np.ndarray:
    """Ground-truth top-down grass mask (1 = grass) in the vehicle frame."""
    forward, left = _bev_body_points(bev)
    # forward varies only along the rows and left only along the columns
    fwd_rows, left_cols = forward[::bev.width], left[:bev.width]
    c, s = math.cos(pose.psi), math.sin(pose.psi)
    # body_to_world's arithmetic per pixel, in its order: the row and column
    # terms once each, then one outer operation per coordinate
    x = np.subtract.outer(pose.x + c * fwd_rows, s * left_cols)
    y = np.add.outer(pose.y + s * fwd_rows, c * left_cols)
    grass = sampler.inside(x.reshape(-1), y.reshape(-1))
    return np.logical_not(grass, out=grass).view(np.uint8).reshape(
        bev.height, bev.width)


# render_scene colors by label: 0 track, 1 grass, 2 sky; each color's RGB
# bytes and a zero byte as one word, so that one gather moves a pixel
_SCENE_PALETTE = np.pad(np.array([TRACK_RGB, GRASS_RGB, SKY_RGB],
                                 dtype=np.uint8), ((0, 0), (0, 1))) \
    .view(np.uint32).reshape(-1)


def render_scene(sampler: TrackSampler, pose: VehicleState, h: np.ndarray,
                 front_width: int, front_height: int,
                 bev: BevConfig) -> np.ndarray:
    """Synthetic front-view camera image of the track scene.

    Builds the ground-truth BEV (grass vs track surface) at the pose, then
    inverse-warps it through the camera homography `h` (front px -> BEV px).
    Front pixels that look above the mapped ground plane get a sky color that
    the grass threshold rejects. The image is the (H, W, 3) view of an
    (H, W, 4) byte buffer, each pixel's color gathered as one 4-byte word.
    """
    grass = bev_grass_mask(sampler, pose, bev)
    labels = np.empty(grass.size + 1, dtype=np.uint8)
    labels[:-1] = grass.reshape(-1)
    labels[-1] = 2
    index = pixel_map(np.asarray(h, dtype=float).tobytes(),
                      (front_height, front_width), (bev.height, bev.width))
    words = _SCENE_PALETTE.take(labels[index])
    return words.view(np.uint8).reshape(front_height, front_width, 4)[..., :3]


def default_camera_homography(bev: BevConfig, front_width: int = 320,
                              front_height: int = 240) -> np.ndarray:
    """Synthetic fixed camera: front px -> BEV px.

    Maps a trapezoid spanning the front image onto the full BEV frame (the
    image bottom edge is the near ground, a narrower top band is the far
    edge), so every BEV pixel is observed and the far field compresses the
    way a forward camera would.
    """
    w, h = float(front_width - 1), float(front_height - 1)
    src = [(0.0, h), (w, h), (0.75 * w, 0.0), (0.25 * w, 0.0)]
    dst = [(0.0, bev.height - 1.0), (bev.width - 1.0, bev.height - 1.0),
           (bev.width - 1.0, 0.0), (0.0, 0.0)]
    return homography_from_points(src, dst)


# --- scenario configuration --------------------------------------------------

# The filter's process noise per predict (m^2 on x and y, rad^2 on psi) for
# the simulated kart. The motion model integrates the last speed feedback,
# which the 50 Hz command tick delivers up to 1.5 physics ticks behind the
# middle of the predicted step. At full-throttle launch the plant accelerates
# at max_speed / v_time_constant = 8 m/s^2, so that speed lags by 0.12 m/s and
# one 0.01 s predict lands 1.2 mm off, (1.2 mm)^2 ~ 1e-6 m^2: the model's
# largest one-step error on the plant. The yaw rate is the IMU's at the start
# of the step, off by well under 1e-3 rad. EkfParams() keeps its 0.1.
SCENARIO_PROCESS_NOISE = 1e-6


@dataclass
class ScenarioConfig:
    mode: str = "pursuit"
    track: str | None = None
    raceline: str | None = None
    track_closed: bool = True
    vehicle_half_width: float = 0.4
    duration_s: float = 20.0
    seed: int = 0
    dt: float = 0.01
    controller_rate_hz: float = 20.0
    perception_rate_hz: float = 10.0
    command_rate_hz: float = 50.0
    spacing_m: float = 1.0
    origin_lat: float = 0.7
    origin_lon: float = -1.3
    kill_at_s: float | None = None
    opt_reg: float = 1e-6
    opt_max_iters: int = 5000
    front_width: int = 320
    front_height: int = 240
    limits: VehicleLimits = field(default_factory=VehicleLimits)
    pursuit: PursuitParams = field(default_factory=PursuitParams)
    ftg: FtgParams = field(default_factory=FtgParams)
    vehicle: VehicleParams = field(default_factory=VehicleParams)
    sensors: SensorConfig = field(default_factory=SensorConfig)
    ekf: EkfParams = field(default_factory=lambda: EkfParams(
        process_noise_scale=SCENARIO_PROCESS_NOISE))
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    bev: BevConfig = field(default_factory=BevConfig)


def _parse_windows(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    windows = []
    for part in text.split(";"):
        bounds = part.split(":")
        if len(bounds) != 2:
            raise ValueError(f"bad dropout window {part!r}; expected start:end")
        start, end = map(parse_float, bounds)
        if start > end:
            raise ValueError(f"dropout window {part!r} ends before it starts")
        windows.append((start, end))
    return tuple(windows)


def _optional(parse):
    def parse_optional(text: str):
        return None if text.strip().lower() in ("", "none") else parse(text)
    return parse_optional


# field annotation -> parser of its scenario text
_PARSERS = {
    str: str,
    int: int,
    float: parse_float,
    bool: parse_bool,
    tuple: _parse_windows,
    str | None: _optional(str),
    float | None: _optional(parse_float),
    SpeedLaw: str,
}

# the scenario keys whose names differ from "field" / "section.field"
_RENAMED_KEYS = {
    "track_closed": "track.closed",
    "vehicle_half_width": "track.vehicle_half_width",
    "controller_rate_hz": "rates.controller_hz",
    "perception_rate_hz": "rates.perception_hz",
    "command_rate_hz": "rates.command_hz",
    "opt_reg": "opt.reg",
    "opt_max_iters": "opt.max_iters",
    "front_width": "front.width",
    "front_height": "front.height",
    "sensors.gnss_dropout_windows": "sensors.gnss_dropout",
}


def _scenario_keys() -> dict:
    """key -> (section or None for top level, attribute, parser), derived
    from the fields of ScenarioConfig and of its section dataclasses."""
    keys = {}
    hints = get_type_hints(ScenarioConfig)
    for f in fields(ScenarioConfig):
        hint = hints[f.name]
        if is_dataclass(hint):
            section_hints = get_type_hints(hint)
            entries = [(f.name, g.name, section_hints[g.name])
                       for g in fields(hint)]
        else:
            entries = [(None, f.name, hint)]
        for section, attr, attr_hint in entries:
            key = attr if section is None else f"{section}.{attr}"
            keys[_RENAMED_KEYS.get(key, key)] = (section, attr,
                                                 _PARSERS[attr_hint])
    return keys


_SCENARIO_KEYS = _scenario_keys()

_PATH_KEYS = ("track", "raceline")


def parse_scenario_text(text: str) -> dict[str, str]:
    """Parse the flat key=value scenario format into a raw string mapping."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def build_scenario(raw: dict[str, str], base_dir: Path | None = None) -> ScenarioConfig:
    """Typed scenario from raw strings; unknown keys are rejected."""
    sections: dict[str | None, dict] = {}
    explicit_sensor_seed = "sensors.seed" in raw
    for key, value in raw.items():
        if key not in _SCENARIO_KEYS:
            raise ScenarioError(f"unknown scenario key {key!r}")
        section, attr, parse = _SCENARIO_KEYS[key]
        try:
            sections.setdefault(section, {})[attr] = parse(value)
        except ValueError as exc:
            raise ScenarioError(f"bad value for {key}: {exc}") from None
    top = sections.pop(None, {})
    if base_dir is not None:
        for key in _PATH_KEYS:
            if top.get(key):
                top[key] = str((Path(base_dir) / top[key]).resolve())
    try:
        cfg = ScenarioConfig(**top)
        for section, kwargs in sections.items():
            setattr(cfg, section, replace(getattr(cfg, section), **kwargs))
        require(cfg.mode in ("pursuit", "ftg"), "mode", "be pursuit or ftg",
                cfg.mode)
        if not explicit_sensor_seed:
            cfg.sensors = replace(cfg.sensors, seed=cfg.seed)
        _check_ranges(cfg)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return cfg


def _check_ranges(cfg: ScenarioConfig) -> None:
    """Reject, with ValueError, values that would otherwise fail, or run
    nothing, mid-run."""
    require(0.0 < cfg.dt <= MAX_DT, "dt", f"lie in (0, {MAX_DT}]", cfg.dt)
    steps = cfg.duration_s / cfg.dt  # inf where the quotient overflows
    require(steps <= MAX_TICKS and round(steps) >= 1, "duration_s",
            f"cover from 1 to {MAX_TICKS} dt steps", cfg.duration_s)
    require(cfg.spacing_m > 0.0, "spacing_m", "be > 0", cfg.spacing_m)
    # below this the speed error decays more slowly, then not at all, then
    # grows every step while bicycle_step's inner stages carry it into x and y
    tau_min = cfg.dt / RK4_MONOTONE_LIMIT
    require(cfg.vehicle.v_time_constant >= tau_min, "vehicle.v_time_constant",
            f"be >= dt / {RK4_MONOTONE_LIMIT!r} = {tau_min!r} s, where RK4 "
            "damps the speed lag most", cfg.vehicle.v_time_constant)
    for key, value in (("seed", cfg.seed), ("sensors.seed", cfg.sensors.seed),
                       ("opt.reg", cfg.opt_reg)):
        require(value >= 0, key, "be >= 0", value)
    require(cfg.opt_max_iters >= 1, "opt.max_iters", "be >= 1",
            cfg.opt_max_iters)
    if cfg.mode == "ftg":  # the simulated camera's corner correspondences
        for key, value in (("front.width", cfg.front_width),
                           ("front.height", cfg.front_height),
                           ("bev.height", cfg.bev.height)):
            require(value >= 2, key, "be >= 2 in ftg mode", value)
        # each frame's arrays are allocated afresh every frame
        for frame, width, height in (("front", cfg.front_width,
                                      cfg.front_height),
                                     ("bev", cfg.bev.width, cfg.bev.height)):
            require(width * height <= MAX_FRAME_PIXELS,
                    f"{frame}.width" if width >= height else f"{frame}.height",
                    f"keep the {width}x{height} frame ({frame}.width x "
                    f"{frame}.height) within {MAX_FRAME_PIXELS} pixels in "
                    "ftg mode", max(width, height))
        # The truth mask's nearest-sample query squares each BEV pixel's
        # distance to the track. The kart starts on the track and drives
        # at most max_speed * duration_s (1.6e7 m) from it, far below this
        # bound's rounding, so pixels within sqrt(max float) / 2 of the
        # kart keep that square below a quarter of the largest float.
        width, height = cfg.bev.width, cfg.bev.height
        far_px = math.hypot(width / 2.0, height - 1.0)  # from origin_px
        bound = math.sqrt(sys.float_info.max) / 2.0 / far_px
        require(cfg.bev.meters_per_px <= bound, "bev.meters_per_px",
                f"be <= {bound!r} in ftg mode, so that the {width}x{height} "
                "BEV frame's farthest pixel lies within sqrt(max float) / 2 "
                "m of the kart", cfg.bev.meters_per_px)
        cfg.perception.require_fits(
            cfg.front_width, cfg.front_height,
            f"the {cfg.front_width}x{cfg.front_height} camera frame "
            "(front.width x front.height) in ftg mode")
    # the projection's east-west scale cos(origin_lat) vanishes at the poles
    require(-math.pi / 2 < cfg.origin_lat < math.pi / 2, "origin_lat",
            "lie in (-pi/2, pi/2) rad", cfg.origin_lat)
    require(-math.pi <= cfg.origin_lon <= math.pi, "origin_lon",
            "lie in [-pi, pi] rad", cfg.origin_lon)
    # each rate ticks every round(1 / (rate * dt)) steps (_interval)
    for key, value in (("rates.controller_hz", cfg.controller_rate_hz),
                       ("rates.perception_hz", cfg.perception_rate_hz),
                       ("rates.command_hz", cfg.command_rate_hz),
                       ("sensors.gnss_rate", cfg.sensors.gnss_rate),
                       ("sensors.imu_rate", cfg.sensors.imu_rate)):
        require(value * cfg.dt > 0.0
                and math.isfinite(1.0 / (value * cfg.dt)), key,
                "be > 0 with a finite tick interval 1 / (rate * dt)", value)
    # the TBWS feedback frame's int16 speed saturates above this
    top_speed = 32767 / SPEED_SCALE
    require(cfg.vehicle.max_speed <= top_speed, "vehicle.max_speed",
            f"be <= {top_speed} m/s, the fastest the speed feedback reports",
            cfg.vehicle.max_speed)
    for key, value in (("pursuit.delta_max", cfg.pursuit.delta_max),
                       ("ftg.delta_max", cfg.ftg.delta_max)):
        require(0.0 < value <= STEERING_LIMIT, key,
                f"lie in (0, {STEERING_LIMIT}] rad, the steering limit", value)
    if cfg.kill_at_s is not None:
        require(cfg.kill_at_s >= 0.0, "kill_at_s", "be >= 0", cfg.kill_at_s)


def load_scenario(path, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    path = Path(path)
    raw = parse_scenario_text(path.read_text())
    if overrides:
        raw.update(overrides)
    return build_scenario(raw, base_dir=path.parent)


# --- closed loop -------------------------------------------------------------

@dataclass
class RunReport:
    mode: str
    duration_s: float
    ticks: int
    lap_time_s: float | None
    max_cross_track_error_m: float
    mean_abs_cross_track_error_m: float
    boundary_violations: int
    safety_stops: int
    # length of the truth path; 0 if the kart never moved
    distance_m: float
    logs: dict[str, str]
    # sim time of the filter's first GNSS fix; None if it never localized
    first_fix_s: float | None
    # the filter's NIS over its updates with a GNSS fix: the mean and the
    # fraction above CHI2_3_95; None if there was no such update
    nis_mean: float | None
    nis_over_chi2_95: float | None

    def to_json(self) -> str:
        """Every field but the logs."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)
                   if f.name != "logs"}
        return json.dumps(payload, sort_keys=True, indent=2)


def _interval(rate_hz: float, dt: float) -> int:
    return max(1, int(round(1.0 / (rate_hz * dt))))


def prepare_raceline(track: Track, scenario: ScenarioConfig) -> Raceline:
    """The raceline a pursuit scenario tracks: loaded if given, otherwise
    optimized from the track centerline."""
    if scenario.raceline:
        return read_raceline_csv(scenario.raceline, closed=scenario.track_closed)
    alpha = optimize_min_curvature(track, reg=scenario.opt_reg,
                                   max_iters=scenario.opt_max_iters)
    return build_raceline(track, alpha, scenario.limits, scenario.spacing_m)


# A planner runs every `period` ticks once the filter has a fix; `plan`
# returns (command, gap or None, safety stop) or None, `rows` its own logs.
# Its `reference` (a Raceline or a TrackSampler) is the path the run's
# cross-track error and progress are measured against: its `polyline`
# and whether it is `closed`.

class _PursuitPlanner:
    """Pure pursuit of the raceline from the filter's estimate; plans
    nothing more once the raceline has run out."""

    def __init__(self, raceline: Raceline, scenario: ScenarioConfig,
                 period: int):
        self.reference = raceline
        self.params = scenario.pursuit
        self.period = period
        self.step_s = period * float(scenario.dt)
        self.state = PursuitState()
        self.ended = False
        self.rows: dict[str, list[str]] = {}

    def plan(self, t, estimate: EkfState, measured_speed, truth):
        if self.ended:
            return None
        # the filter keeps its heading normalized, and the speed feedback
        # decodes a wire value >= 0
        pose = _new(VehicleState)
        fields = pose.__dict__
        fields["x"], fields["y"], fields["psi"] = estimate.mean
        fields["v"] = measured_speed
        try:
            cmd = pursuit_step(self.reference, pose, self.state, self.params,
                               self.step_s)
        except EndOfRaceline:
            self.ended = True
            return DriveCommand(mode=Mode.AUTONOMOUS), None, True
        return DriveCommand(steering=cmd.steering, speed=cmd.target_speed,
                            mode=Mode.AUTONOMOUS), None, False


class _ReprCache(dict):
    """repr of each float key, computed on the first lookup."""

    def __missing__(self, value: float) -> str:
        cell = self[value] = repr(value)
        return cell


class _FtgPlanner:
    """Follow-the-gap on the scan perceived in a camera frame rendered at
    the true pose; runs on ticks shared by the controller and perception."""

    def __init__(self, sampler: TrackSampler, scenario: ScenarioConfig,
                 period: int):
        self.reference = sampler
        self.scenario = scenario
        self.period = period
        self.camera_h = default_camera_homography(
            scenario.bev, scenario.front_width, scenario.front_height)
        self.rows = {"scans.csv": ["t_s,angle_rad,distance_m"]}
        # every scan comes from mask_to_depth, along scan_angles()
        self._angle_cells = [f",{a!r}," for a in scan_angles().tolist()]
        # each distance's cell, keyed by its value: a scan's distances lie
        # in (0, max_range], so no -0.0 shares 0.0's key, and mask_to_depth's
        # ray steps give few distinct values
        self._distance_cells = _ReprCache()

    def plan(self, t, estimate, measured_speed, truth: VehicleState):
        sc = self.scenario
        img = render_scene(self.reference, truth, self.camera_h,
                           sc.front_width, sc.front_height, sc.bev)
        scan, _, _ = detect_boundaries(img, self.camera_h, sc.perception,
                                       sc.bev)
        stamp = repr(t)
        cells = map(self._distance_cells.__getitem__, scan.distances.tolist())
        self.rows["scans.csv"].extend(
            f"{stamp}{a}{d}" for a, d in zip(self._angle_cells, cells))
        cmd = ftg_step(scan, sc.ftg)  # a safety stop commands 0 rad, 0 m/s
        return (DriveCommand(steering=cmd.steering, speed=cmd.speed,
                             mode=Mode.AUTONOMOUS),
                cmd.chosen_gap, cmd.safety_stop)


def run_closed_loop(scenario: ScenarioConfig) -> RunReport:
    """Run one scenario to completion and report tracking quality.

    Physics steps at 1/dt Hz; the planner, perception, and the command
    bus run at their own divisors. Commands travel encoder -> CAN frame ->
    decoder so the wire quantization is part of the loop.
    """
    if scenario.track is None:
        raise ScenarioError("scenario needs a track file")
    track = read_track_csv(scenario.track, scenario.track_closed,
                           scenario.vehicle_half_width)
    sampler = TrackSampler(track)
    dt = float(scenario.dt)  # so that each tick's time cell is a float's repr
    ticks = int(round(scenario.duration_s / dt))
    ctrl_every = _interval(scenario.controller_rate_hz, dt)
    perc_every = _interval(scenario.perception_rate_hz, dt)
    mcs_every = _interval(scenario.command_rate_hz, dt)
    gnss_every = _interval(scenario.sensors.gnss_rate, dt)
    imu_every = _interval(scenario.sensors.imu_rate, dt)
    if scenario.mode == "pursuit":
        planner = _PursuitPlanner(prepare_raceline(track, scenario), scenario,
                                  ctrl_every)
    else:
        planner = _FtgPlanner(sampler, scenario,
                              math.lcm(ctrl_every, perc_every))
    ref = planner.reference
    polyline = ref.polyline

    heading0 = math.atan2(polyline.y[1] - polyline.y[0],
                          polyline.x[1] - polyline.x[0])
    truth = VehicleState(x=float(polyline.x[0]), y=float(polyline.y[0]),
                         psi=heading0, v=0.0)

    origin = GeoFix(scenario.origin_lat, scenario.origin_lon)
    gnss_sim = GnssSimulator(scenario.sensors, origin,
                             scenario.ekf.earth_radius)
    imu_sim = ImuSimulator(scenario.sensors)

    localizer = Localizer(origin, scenario.ekf, fuse_step)
    arbiter = ModeArbiter()
    throttle = ThrottleEcu()
    bus = CanBus()
    feedback = SubsystemFeedback()
    delta_act = pressure = 0.0
    pending_cmd: DriveCommand | None = None
    active = DriveCommand(mode=Mode.AUTONOMOUS)

    pose_rows = []  # each tick's row without its cross-track cell
    positions = []  # the truth after each tick's plant step
    command_rows = ["t_s,steering_rad,speed_mps,gap_i,gap_j"]
    frame_rows = ["t_s,id_hex,payload_hex"]
    safety_stops = 0
    vehicle = scenario.vehicle
    wheelbase, max_speed = vehicle.wheelbase, vehicle.max_speed
    kill_at = math.inf if scenario.kill_at_s is None else scenario.kill_at_s
    imu_dt = imu_every * dt
    send, add_frame = bus.send, frame_rows.append

    for k in range(ticks):
        t = k * dt
        t_cell = repr(t)  # the t_s cell of every row this tick logs
        kill_active = t >= kill_at
        omega_true = truth.v / wheelbase * math.tan(delta_act)

        gnss = gnss_sim.sample(truth, t) if k % gnss_every == 0 else None
        if k % imu_every == 0:
            localizer.step(t, feedback.measured_speed, imu_dt, gnss,
                           imu_sim.sample(truth, omega_true, t))

        if localizer.state is not None and k % planner.period == 0:
            planned = planner.plan(t, localizer.state, feedback.measured_speed,
                                   truth)
            if planned is not None:
                pending_cmd, gap, stop = planned
                safety_stops += stop
                gap_cells = "," if gap is None else f"{gap.i},{gap.j}"
                command_rows.append(f"{t_cell},{pending_cmd.steering!r},"
                                    f"{pending_cmd.speed!r},{gap_cells}")

        if k % mcs_every == 0:
            arbitrated = arbiter.step(t, Mode.AUTONOMOUS,
                                      autonomous=pending_cmd, kill=kill_active)
            pending_cmd = None
            frame = encode_command(arbitrated, k // mcs_every)
            send(frame)
            add_frame(format_trace_row(t_cell, frame))
            for delivered in bus.deliver():
                if delivered.can_id == COMMAND_FRAME_ID:
                    active = decode_command(delivered)
                else:
                    feedback = apply_feedback(feedback, delivered)

        duty = throttle.step(active.speed, truth.v, dt)
        if kill_active or active.kill:
            duty = 0.0  # hardware kill cuts motor power independent of the ECU
        delta_act = sbws_step(active.steering, delta_act, dt)
        pressure = ebs_step(active.brake, pressure, dt)
        truth = bicycle_step(truth, delta_act, duty * max_speed, pressure,
                             vehicle, dt)

        frame = encode_feedback(TBWS_FEEDBACK_ID, truth.v, k)
        send(frame)
        add_frame(format_trace_row(t_cell, frame))
        frame = encode_feedback(SBWS_FEEDBACK_ID, delta_act, k)
        send(frame)
        add_frame(format_trace_row(t_cell, frame))
        frame = encode_feedback(EBS_FEEDBACK_ID, pressure, k)
        send(frame)
        add_frame(format_trace_row(t_cell, frame))

        positions.append((truth.x, truth.y))
        if localizer.state is None:
            est = "nan,nan,nan"
        else:
            ex, ey, epsi = localizer.state.mean
            est = f"{ex!r},{ey!r},{epsi!r}"
        pose_rows.append(f"{t_cell},{truth.x!r},{truth.y!r},{truth.psi!r},"
                         f"{truth.v!r},{est}")

    # score the truth trajectory against the reference
    positions = np.array(positions, dtype=float).reshape(-1, 2)
    cross, near = polyline_distance(polyline, positions)
    outside = sampler.lateral_margin(positions) < 0.0
    # the ticks that leave the track, from inside before the first one
    entered = outside & ~np.append(False, outside[:-1])
    # progress in whole waypoints: the tick k >= 1 is cumsum(steps)[k - 1]
    # past the start, and a lap is n steps around (n - 1 to the open end)
    n, steps = len(polyline.x), np.diff(near)
    if ref.closed:
        steps = (steps + n // 2) % n - n // 2
    lapped = np.flatnonzero(np.cumsum(steps) >= (n if ref.closed else n - 1))
    poses = ["t_s,x_m,y_m,psi_rad,v_mps,est_x_m,est_y_m,est_psi_rad,"
             "cross_track_m"]
    poses += map("{},{!r}".format, pose_rows, cross.tolist())

    rows = {"poses.csv": poses, "commands.csv": command_rows,
            "frames.csv": frame_rows, **planner.rows}
    return RunReport(
        mode=scenario.mode,
        duration_s=scenario.duration_s,
        ticks=ticks,
        lap_time_s=(int(lapped[0]) + 1) * dt if len(lapped) else None,
        max_cross_track_error_m=float(cross.max()) if ticks else 0.0,
        mean_abs_cross_track_error_m=float(np.mean(cross)) if ticks else 0.0,
        boundary_violations=int(np.count_nonzero(entered)),
        safety_stops=safety_stops,
        distance_m=float(np.sum(np.hypot(*np.diff(
            np.vstack([(polyline.x[0], polyline.y[0]), positions]), axis=0).T))),
        logs={name: "\n".join(r) + "\n" for name, r in rows.items()},
        first_fix_s=localizer.first_fix_s,
        nis_mean=localizer.nis_mean(),
        nis_over_chi2_95=localizer.nis_over_chi2_95(),
    )
