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
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
from scipy.spatial import cKDTree

from .control import (EndOfRaceline, PursuitParams, PursuitState, VehicleState,
                      pursuit_step)
from .drivebus import (CanBus, DriveCommand, EBS_FEEDBACK_ID, Mode,
                       ModeArbiter, SBWS_FEEDBACK_ID, STEERING_LIMIT,
                       SubsystemFeedback, TBWS_FEEDBACK_ID, ThrottleEcu,
                       apply_feedback, COMMAND_FRAME_ID, decode_command, ebs_step,
                       encode_command, encode_feedback, format_trace_row,
                       sbws_step, SPEED_SCALE)
from .fileio import ScenarioError, parse_bool, parse_float, require
from .geometry import (Polyline, body_to_world, normalize_angle,
                       polyline_distance)
from .localization import (CHI2_3_95, EkfParams, EkfState, GeoFix,
                           ImuReading, LocalPoint, Localizer, fuse_step,
                           local_to_geo)
from .perception import (BevConfig, GRASS_RGB, PerceptionConfig, SKY_RGB,
                         TRACK_RGB, detect_boundaries, homography_from_points,
                         pixel_map, scan_angles)
from .planning import FtgParams, SpeedLaw, ftg_step
from .track import (Raceline, Track, VehicleLimits, build_raceline, fit_spline,
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

    def deriv(psi, v):
        return (v * math.cos(psi), v * math.sin(psi), v / wheelbase * tan_d,
                (v_target - v) / tau)

    psi, v = state.psi, state.v
    half = 0.5 * dt
    k1 = deriv(psi, v)
    k2 = deriv(psi + half * k1[2], v + half * k1[3])
    k3 = deriv(psi + half * k2[2], v + half * k2[3])
    k4 = deriv(psi + dt * k3[2], v + dt * k3[3])
    s1 = [s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
          for s, a, b, c, d in zip((state.x, state.y, psi, v), k1, k2, k3, k4)]
    return VehicleState(x=float(s1[0]), y=float(s1[1]),
                        psi=normalize_angle(float(s1[2])),
                        v=float(min(max(s1[3], 0.0), params.max_speed)))


class GnssSimulator:
    """Noisy GNSS with scripted dropout windows; deterministic from the seed."""

    def __init__(self, config: SensorConfig, origin: GeoFix,
                 earth_radius: float):
        self.config = config
        self.origin = origin
        self.earth_radius = earth_radius
        self._rng = np.random.default_rng([config.seed, 0])

    def sample(self, state: VehicleState, t: float) -> GeoFix | None:
        for start, end in self.config.gnss_dropout_windows:
            if start <= t <= end:
                return None
        nx, ny = self._rng.normal(0.0, self.config.gnss_sigma, size=2)
        return local_to_geo(LocalPoint(state.x + nx, state.y + ny),
                            self.origin, self.earth_radius,
                            pos_variance=self.config.gnss_sigma ** 2)


class ImuSimulator:
    """Absolute yaw plus yaw rate with Gaussian noise; deterministic from seed."""

    def __init__(self, config: SensorConfig):
        self.config = config
        self._rng = np.random.default_rng([config.seed, 1])

    def sample(self, state: VehicleState, omega_true: float,
               t: float) -> ImuReading:
        ny = self._rng.normal(0.0, self.config.imu_sigma_yaw)
        nr = self._rng.normal(0.0, self.config.imu_sigma_rate)
        return ImuReading(yaw=normalize_angle(state.psi + ny),
                          yaw_rate=omega_true + nr,
                          yaw_variance=self.config.imu_sigma_yaw ** 2)


# verdicts of the world cells behind TrackSampler.inside
_UNKNOWN, _TRACK, _GRASS, _MIXED = 0, 1, 2, 3
# cells classified per vectorized pass, bounding its temporaries
_CELLS_PER_PASS = 512
# spacing of TrackSampler's samples along the track, m
_SAMPLE_STEP = 0.1


class TrackSampler:
    """Dense geometric view of a track for inside tests and boundary margins."""

    def __init__(self, track: Track):
        sp = fit_spline(track.xy, track.closed)
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
        self.s = t
        self.length = sp.t_max
        self._tree = cKDTree(self.points)
        # inside() decides points by world cells of 5 steps a side over the
        # samples' bounding box, padded by the widest half-width plus half
        # the box's longer side so that a camera frame seen from the track
        # rarely leaves the grid; cells are classified on first use
        self._cell = 5.0 * _SAMPLE_STEP
        widest = float(max(self.w_left.max(), self.w_right.max()))
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        pad = widest + 0.5 * float((hi - lo).max())
        self._grid_origin = lo - pad
        nx, ny = np.ceil((hi - lo + 2.0 * pad) / self._cell).astype(int)
        self._verdicts = np.full((ny, nx), _UNKNOWN, dtype=np.int8)
        # covers the rounding in a pixel's world position and cell index, in
        # its margin and in the corner bounds, all near 1e-16 of this scale
        far = float(np.abs(np.concatenate([lo - pad, hi + pad])).max())
        self._eps = 1e-9 * (1.0 + far + widest)

    @functools.cached_property
    def polyline(self) -> Polyline:
        """The samples set up for nearest-sample queries, built once."""
        return Polyline(self.points, self.closed)

    def lateral_margin(self, pts) -> np.ndarray:
        """Distance to the nearest boundary, positive inside the track, for
        each point of an (N, 2) array."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        _, idx = self._tree.query(pts)
        d = pts - self.points[idx]
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

    def inside(self, pts: np.ndarray) -> np.ndarray:
        """`lateral_margin(pts) >= 0.0` for an (N, 2) array. Points in world
        cells certified all track or all grass take the cell's verdict; the
        rest, in mixed cells or off the grid, go through lateral_margin."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        gx = (pts[:, 0] - self._grid_origin[0]) / self._cell
        gy = (pts[:, 1] - self._grid_origin[1]) / self._cell
        ny, nx = self._verdicts.shape
        on_grid = (gx >= 0.0) & (gx < nx) & (gy >= 0.0) & (gy < ny)
        verdict = np.full(len(pts), _MIXED, dtype=np.int8)
        if on_grid.any():
            ix, iy = gx[on_grid].astype(np.intp), gy[on_grid].astype(np.intp)
            x0, y0 = ix.min(), iy.min()
            block = self._verdicts[y0:iy.max() + 1, x0:ix.max() + 1]
            by, bx = np.nonzero(block == _UNKNOWN)
            for a in range(0, len(bx), _CELLS_PER_PASS):
                cx = bx[a:a + _CELLS_PER_PASS] + x0
                cy = by[a:a + _CELLS_PER_PASS] + y0
                self._verdicts[cy, cx] = self._classify(cx, cy)
            verdict[on_grid] = self._verdicts.reshape(-1).take(iy * nx + ix)
        inside = verdict == _TRACK
        exact = verdict == _MIXED
        if exact.any():
            margin = self.lateral_margin(pts.compress(exact, axis=0))
            inside[exact] = margin >= 0.0
        return inside

    def _classify(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """The verdict of each cell (cx, cy): _TRACK if every point of it has
        a margin > 0 in lateral_margin's arithmetic, _GRASS if every point
        has a margin < 0 there, else _MIXED."""
        h, eps = 0.5 * self._cell, self._eps
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
        _, near = self._tree.query(centre)
        corner = np.abs(self.points[near] - centre) + h
        radius = np.hypot(corner[:, 0], corner[:, 1]) + math.sqrt(2.0) * h \
            + 4.0 * eps
        balls = self._tree.query_ball_point(centre, radius,
                                            return_sorted=False)
        counts = np.fromiter(map(len, balls), np.intp, len(balls))
        cand = np.fromiter(itertools.chain.from_iterable(balls), np.intp,
                           int(counts.sum()))
        cell = np.repeat(np.arange(len(balls)), counts)
        # For a fixed sample, lat and lon are linear in the point, with
        # gradients (-ty, tx) and (tx, ty); over the cell each lies within
        # h (|tx| + |ty|) of its value at the centre, the bounds taken at
        # the corners.
        d = centre[cell] - self.points[cand]
        tx, ty = self.tangents[cand, 0], self.tangents[cand, 1]
        lat = tx * d[:, 1] - ty * d[:, 0]
        lon = tx * d[:, 0] + ty * d[:, 1]
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
        n = len(balls)
        all_track = np.bincount(cell, ~track, n) == 0
        all_grass = np.bincount(cell, ~grass, n) == 0
        return np.where(all_track, _TRACK, np.where(all_grass, _GRASS, _MIXED))


@functools.lru_cache(maxsize=4)
def _bev_body_points(bev: BevConfig) -> np.ndarray:
    """Body-frame (forward, left) meters of every BEV pixel, row-major."""
    vx, vy = bev.origin_px()
    cols, rows = np.meshgrid(np.arange(bev.width), np.arange(bev.height))
    forward = (vy - rows) * bev.meters_per_px
    left = (vx - cols) * bev.meters_per_px
    body = np.stack([forward, left], axis=-1).reshape(-1, 2)
    body.flags.writeable = False
    return body


def bev_grass_mask(sampler: TrackSampler, pose: VehicleState,
                   bev: BevConfig) -> np.ndarray:
    """Ground-truth top-down grass mask (1 = grass) in the vehicle frame."""
    world = body_to_world(pose.x, pose.y, pose.psi, _bev_body_points(bev))
    inside = sampler.inside(world).reshape(bev.height, bev.width)
    return (~inside).astype(np.uint8)


# render_scene colors by label: 0 track, 1 grass, 2 sky
_SCENE_PALETTE = np.array([TRACK_RGB, GRASS_RGB, SKY_RGB], dtype=np.uint8)


def render_scene(sampler: TrackSampler, pose: VehicleState, h: np.ndarray,
                 front_width: int, front_height: int,
                 bev: BevConfig) -> np.ndarray:
    """Synthetic front-view camera image of the track scene.

    Builds the ground-truth BEV (grass vs track surface) at the pose, then
    inverse-warps it through the camera homography `h` (front px -> BEV px).
    Front pixels that look above the mapped ground plane get a sky color that
    the grass threshold rejects.
    """
    grass = bev_grass_mask(sampler, pose, bev)
    labels = np.full(grass.size + 1, 2, dtype=np.uint8)
    labels[:-1] = grass.reshape(-1) != 0
    index = pixel_map(np.asarray(h, dtype=float).tobytes(),
                      (front_height, front_width), (bev.height, bev.width))
    return np.take(_SCENE_PALETTE, labels[index], axis=0)


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


# field annotation -> parser of its scenario text; fields whose annotation
# is not listed (bev.vehicle_px) cannot be set from a scenario
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
            if attr_hint not in _PARSERS:
                continue
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
# cross-track error and progress are measured against: `polyline`, arc
# positions `s`, `length` and `closed`.

class _PursuitPlanner:
    """Pure pursuit of the raceline from the filter's estimate; plans
    nothing more once the raceline has run out."""

    def __init__(self, raceline: Raceline, scenario: ScenarioConfig,
                 period: int):
        self.reference = raceline
        self.params = scenario.pursuit
        self.period = period
        self.step_s = period * scenario.dt
        self.state = PursuitState()
        self.ended = False
        self.rows: dict[str, list[str]] = {}

    def plan(self, t, estimate: EkfState, measured_speed, truth):
        if self.ended:
            return None
        x, y, psi = estimate.mean.tolist()
        pose = VehicleState(x=x, y=y, psi=psi, v=measured_speed)
        try:
            cmd = pursuit_step(self.reference, pose, self.state, self.params,
                               self.step_s)
        except EndOfRaceline:
            self.ended = True
            return DriveCommand(mode=Mode.AUTONOMOUS), None, True
        return DriveCommand(steering=cmd.steering, speed=cmd.target_speed,
                            mode=Mode.AUTONOMOUS), None, False


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

    def plan(self, t, estimate, measured_speed, truth: VehicleState):
        sc = self.scenario
        img = render_scene(self.reference, truth, self.camera_h,
                           sc.front_width, sc.front_height, sc.bev)
        scan, _, _ = detect_boundaries(img, self.camera_h, sc.perception,
                                       sc.bev)
        stamp = repr(t)
        self.rows["scans.csv"].extend(
            f"{stamp}{a}{d!r}"
            for a, d in zip(self._angle_cells, scan.distances.tolist()))
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
    dt = scenario.dt
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

    for k in range(ticks):
        t = k * dt
        kill_active = scenario.kill_at_s is not None and t >= scenario.kill_at_s
        omega_true = truth.v / scenario.vehicle.wheelbase * math.tan(delta_act)

        gnss = gnss_sim.sample(truth, t) if k % gnss_every == 0 else None
        if k % imu_every == 0:
            localizer.step(t, feedback.measured_speed, imu_every * dt, gnss,
                           imu_sim.sample(truth, omega_true, t))

        if localizer.state is not None and k % planner.period == 0:
            planned = planner.plan(t, localizer.state, feedback.measured_speed,
                                   truth)
            if planned is not None:
                pending_cmd, gap, stop = planned
                safety_stops += stop
                gap_cells = "," if gap is None else f"{gap.i},{gap.j}"
                command_rows.append(f"{t!r},{pending_cmd.steering!r},"
                                    f"{pending_cmd.speed!r},{gap_cells}")

        if k % mcs_every == 0:
            arbitrated = arbiter.step(t, Mode.AUTONOMOUS,
                                      autonomous=pending_cmd, kill=kill_active)
            pending_cmd = None
            frame = encode_command(arbitrated, k // mcs_every)
            bus.send(frame)
            frame_rows.append(",".join(format_trace_row(t, frame)))
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
        truth = bicycle_step(truth, delta_act, duty * scenario.vehicle.max_speed,
                             pressure, scenario.vehicle, dt)

        for can_id, value in ((TBWS_FEEDBACK_ID, truth.v),
                              (SBWS_FEEDBACK_ID, delta_act),
                              (EBS_FEEDBACK_ID, pressure)):
            fb_frame = encode_feedback(can_id, value, k)
            bus.send(fb_frame)
            frame_rows.append(",".join(format_trace_row(t, fb_frame)))

        positions.append((truth.x, truth.y))
        est = ("nan,nan,nan" if localizer.state is None else
               ",".join(map(repr, localizer.state.mean.tolist())))
        pose_rows.append(f"{t!r},{truth.x!r},{truth.y!r},{truth.psi!r},"
                         f"{truth.v!r},{est}")

    # score the truth trajectory against the reference
    positions = np.array(positions, dtype=float).reshape(-1, 2)
    cross, near = polyline_distance(polyline, positions)
    outside = sampler.lateral_margin(positions) < 0.0
    # the ticks that leave the track, from inside before the first one
    entered = outside & ~np.append(False, outside[:-1])
    ds = np.diff(ref.s[near])
    if ref.closed:
        ds = (ds + 0.5 * ref.length) % ref.length - 0.5 * ref.length
    # the progress at tick k >= 1 is cumsum(ds)[k - 1]; at tick 0 it is 0
    lapped = np.flatnonzero(np.cumsum(ds) >= ref.length)
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
        logs={name: "\n".join(r) + "\n" for name, r in rows.items()},
        first_fix_s=localizer.first_fix_s,
        nis_mean=localizer.nis_mean(),
        nis_over_chi2_95=localizer.nis_over_chi2_95(),
    )
