"""GNSS/IMU localization.

Geographic fixes are flattened into a local metric frame with an
equirectangular projection anchored at a reference fix, then fused with IMU
heading through an extended Kalman filter over the velocity motion model

    x' = x + v dt cos(psi),  y' = y + v dt sin(psi),  psi' = psi + dt omega.

The observation model is the identity over [x, y, psi]; GNSS dropouts are
handled by inflating the position observation variance so the update keeps a
single code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import parse_bool, read_table, write_table
from .geometry import normalize_angle

EARTH_RADIUS_M = 6_371_000.0

# Position observation variance substituted while GNSS is out; large enough
# to zero the position gain without making (P + M) singular.
GNSS_DROPOUT_VARIANCE = 1e12

_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class GnssRejected(ValueError):
    """An operation received an invalid (dropout) GNSS fix."""


class ReplayFormatError(ValueError):
    """A sensor replay log could not be parsed."""


@dataclass(frozen=True)
class GeoFix:
    """GNSS fix in radians with the receiver-reported per-axis variance."""

    lat: float
    lon: float
    pos_variance: float = 0.0
    valid: bool = True

    def __post_init__(self):
        if not -math.pi / 2 <= self.lat <= math.pi / 2:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -math.pi <= self.lon <= math.pi:
            raise ValueError(f"longitude out of range: {self.lon}")
        if self.pos_variance < 0.0:
            raise ValueError("pos_variance must be >= 0")


@dataclass(frozen=True)
class LocalPoint:
    """Point in the local metric frame, meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class ImuReading:
    """Fused IMU output: absolute yaw, yaw rate, and yaw variance."""

    yaw: float
    yaw_rate: float
    yaw_variance: float = 0.0

    def __post_init__(self):
        if self.yaw_variance < 0.0:
            raise ValueError("yaw_variance must be >= 0")
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


@dataclass(frozen=True)
class MotionInput:
    """Velocity motion model input: linear speed, yaw rate, time step."""

    v: float
    omega: float
    dt: float

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be > 0")


@dataclass(frozen=True)
class EkfParams:
    process_noise_scale: float = 0.1
    earth_radius: float = EARTH_RADIUS_M

    def __post_init__(self):
        for key in ("process_noise_scale", "earth_radius"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"ekf.{key} must be > 0, got "
                                 f"{getattr(self, key)!r}")


@dataclass
class EkfState:
    """Filter state: mean [x, y, psi] and 3x3 covariance.

    Treated as a value: operations return new instances and never mutate
    their inputs.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float).reshape(3)
        self.cov = np.asarray(self.cov, dtype=float).reshape(3, 3)

    @classmethod
    def _of(cls, mean: np.ndarray, cov: np.ndarray) -> "EkfState":
        """A state on float (3,) and (3, 3) arrays the filter just built."""
        state = object.__new__(cls)
        state.mean, state.cov = mean, cov
        return state

    @classmethod
    def initial(cls, x: float, y: float, psi: float) -> "EkfState":
        """State anchored at a first fix with identity covariance."""
        return cls(np.array([x, y, normalize_angle(psi)]), np.eye(3))


def project_to_local(fix: GeoFix, origin: GeoFix,
                     earth_radius: float = EARTH_RADIUS_M) -> LocalPoint:
    """Equirectangular projection of `fix` relative to `origin`.

    The east-west scale is frozen at the origin latitude so the map is affine
    and exactly invertible; the distortion is negligible over a track-sized
    field. Longitude differences wrap across the antimeridian.
    """
    if not fix.valid:
        raise GnssRejected("invalid GNSS fix (dropout)")
    if not origin.valid:
        raise GnssRejected("invalid origin fix")
    x = (earth_radius * math.cos(origin.lat)
         * normalize_angle(fix.lon - origin.lon))
    y = earth_radius * (fix.lat - origin.lat)
    return LocalPoint(x, y)


def local_to_geo(point: LocalPoint, origin: GeoFix,
                 earth_radius: float = EARTH_RADIUS_M,
                 pos_variance: float = 0.0) -> GeoFix:
    """Inverse of project_to_local (used by the sensor simulator)."""
    lat = origin.lat + point.y / earth_radius
    lon = normalize_angle(origin.lon
                          + point.x / (earth_radius * math.cos(origin.lat)))
    return GeoFix(lat=lat, lon=lon, pos_variance=pos_variance, valid=True)


def ekf_jacobian(psi: float, v: float, dt: float) -> np.ndarray:
    """Jacobian of the motion model with respect to [x, y, psi]."""
    return np.array([
        [1.0, 0.0, -dt * v * math.sin(psi)],
        [0.0, 1.0, dt * v * math.cos(psi)],
        [0.0, 0.0, 1.0],
    ])


def ekf_predict(state: EkfState, u: MotionInput, params: EkfParams) -> EkfState:
    """Prediction step: advance the mean by the motion model and the
    covariance by J P J^T + R."""
    if not (np.isfinite(state.mean).all() and np.isfinite(state.cov).all()):
        raise ValueError("non-finite filter state")
    if not (math.isfinite(u.v) and math.isfinite(u.omega) and math.isfinite(u.dt)):
        raise ValueError("non-finite motion input")
    x, y, psi = state.mean.tolist()
    mean = np.array([
        x + u.v * u.dt * math.cos(psi),
        y + u.v * u.dt * math.sin(psi),
        normalize_angle(psi + u.dt * u.omega),
    ])
    j = ekf_jacobian(psi, u.v, u.dt)
    cov = j @ state.cov @ j.T + params.process_noise_scale * _EYE3
    cov = 0.5 * (cov + cov.T)
    return EkfState._of(mean, cov)


def ekf_update(state: EkfState, obs: np.ndarray, obs_cov: np.ndarray) -> EkfState:
    """Measurement update with identity observation Jacobian.

    K = P (P + M)^-1; the heading residual is computed on the circle so an
    observation across the +-pi seam pulls the mean the short way around.
    Raises numpy.linalg.LinAlgError when (P + M) is singular; callers may
    inflate M and retry.
    """
    obs = np.asarray(obs, dtype=float).reshape(3)
    m = np.asarray(obs_cov, dtype=float).reshape(3, 3)
    p = state.cov
    s = p + m
    # K = P S^-1; with S and P symmetric, K^T = solve(S, P).
    k = np.linalg.solve(s, p).T
    innovation = obs - state.mean
    innovation[2] = normalize_angle(obs[2] - state.mean[2])
    mean = state.mean + k @ innovation
    mean[2] = normalize_angle(mean[2])
    cov = (_EYE3 - k) @ p
    cov = 0.5 * (cov + cov.T)
    return EkfState._of(mean, cov)


def fuse_step(state: EkfState, u: MotionInput, gnss: GeoFix | None,
              imu: ImuReading, origin: GeoFix, params: EkfParams) -> EkfState:
    """One predict-then-update cycle.

    The IMU is always available; GNSS is optional. During a dropout the
    update degrades to a heading-only observation: the position rows observe
    the predicted mean with near-infinite variance, which keeps the position
    dead reckoning exactly while still absorbing the IMU heading.
    """
    pred = ekf_predict(state, u, params)
    if gnss is not None and gnss.valid:
        p = project_to_local(gnss, origin, params.earth_radius)
        obs = np.array([p.x, p.y, imu.yaw])
        var = gnss.pos_variance
    else:
        obs = np.array([pred.mean[0], pred.mean[1], imu.yaw])
        var = GNSS_DROPOUT_VARIANCE
    m = np.array([[var, 0.0, 0.0], [0.0, var, 0.0],
                  [0.0, 0.0, imu.yaw_variance]])
    return ekf_update(pred, obs, m)


# --- replay log interface ---------------------------------------------------

REPLAY_COLUMNS = [
    "t_s", "lat_rad", "lon_rad", "gnss_valid", "gnss_var_m2",
    "imu_yaw_rad", "imu_yaw_var_rad2", "v_mps", "omega_radps",
]

POSE_LOG_COLUMNS = ["t_s", "x_m", "y_m", "psi_rad", "cov_xx", "cov_yy", "cov_pp"]


def read_replay_log(path) -> list[list[float]]:
    """Parse a sensor replay CSV into rows of floats in REPLAY_COLUMNS order
    (gnss_valid as 1.0 or 0.0); raises ReplayFormatError with the offending
    line number on malformed input or a non-monotone timestamp."""
    arr, lines = read_table(path, REPLAY_COLUMNS, ReplayFormatError,
                            {"gnss_valid": parse_bool})
    rows = arr.tolist()
    for lineno, prev, row in zip(lines[1:], rows, rows[1:]):
        if row[0] <= prev[0]:
            raise ReplayFormatError(
                f"{path} line {lineno}: non-monotone timestamp {row[0]}")
    return rows


def run_replay(rows, params: EkfParams | None = None):
    """Replay the rows of read_replay_log through fuse_step.

    The filter is anchored at the first valid GNSS fix (identity covariance,
    heading from the IMU); earlier rows produce no output. Returns a list of
    pose-log tuples matching POSE_LOG_COLUMNS.
    """
    params = params or EkfParams()
    out = []
    state: EkfState | None = None
    origin: GeoFix | None = None
    t_prev = 0.0
    for t, lat, lon, valid, gnss_var, imu_yaw, imu_yaw_var, v, omega in rows:
        fix = None
        if valid:
            fix = GeoFix(lat, lon, pos_variance=gnss_var, valid=True)
        if state is None:
            if fix is None:
                continue
            origin = fix
            state = EkfState.initial(0.0, 0.0, imu_yaw)
        else:
            u = MotionInput(v=v, omega=omega, dt=t - t_prev)
            imu = ImuReading(imu_yaw, omega, imu_yaw_var)
            state = fuse_step(state, u, fix, imu, origin, params)
        t_prev = t
        out.append((t, state.mean[0], state.mean[1], state.mean[2],
                    state.cov[0, 0], state.cov[1, 1], state.cov[2, 2]))
    if state is None:
        raise ReplayFormatError("replay log contains no valid GNSS fix to anchor the filter")
    return out


def write_pose_log(path, rows) -> None:
    write_table(path, POSE_LOG_COLUMNS, rows)


def read_pose_log(path):
    """Read back a pose log written by write_pose_log (lossless)."""
    arr, _ = read_table(path, POSE_LOG_COLUMNS, ReplayFormatError)
    return [tuple(row) for row in arr.tolist()]
