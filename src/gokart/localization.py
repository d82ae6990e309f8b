"""GNSS/IMU localization.

Geographic fixes are flattened into a local metric frame with an
equirectangular projection anchored at a reference fix, then fused with IMU
heading through an extended Kalman filter over the velocity motion model

    x' = x + v dt cos(psi),  y' = y + v dt sin(psi),  psi' = psi + dt omega.

The observation model is the identity over [x, y, psi]; GNSS dropouts are
handled by inflating the position observation variance so the update keeps a
single code path.

A Localizer holds the filter's life cycle for both the replay tool and the
closed loop: no estimate until the first GNSS fix, a state anchored
there (identity covariance, heading from the IMU), then one fuse_step per
IMU sample. A missing fix (a dropout) is None. It records the time of that
first fix and the NIS of every later update that had a fix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fileio import parse_bool, read_table, require, write_table
from .geometry import normalize_angle

EARTH_RADIUS_M = 6_371_000.0

# Position observation variance substituted while GNSS is out; large enough
# to zero the position gain without making (P + M) singular.
GNSS_DROPOUT_VARIANCE = 1e12

# ImuReading and MotionInput check their arguments in their own __init__
# and store them through _set. Localizer.step builds its MotionInput with
# _new and writes the instance __dict__ directly.
_set, _new = object.__setattr__, object.__new__


class ReplayFormatError(ValueError):
    """A sensor replay log could not be parsed."""


@dataclass(frozen=True)
class GeoFix:
    """GNSS fix in radians with the receiver-reported per-axis variance."""

    lat: float
    lon: float
    pos_variance: float = 0.0

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

    def __init__(self, yaw: float, yaw_rate: float, yaw_variance: float = 0.0):
        if yaw_variance < 0.0:
            raise ValueError("yaw_variance must be >= 0")
        _set(self, "yaw", normalize_angle(yaw))
        _set(self, "yaw_rate", yaw_rate)
        _set(self, "yaw_variance", yaw_variance)


@dataclass(frozen=True)
class MotionInput:
    """Velocity motion model input: linear speed, yaw rate, time step."""

    v: float
    omega: float
    dt: float

    def __init__(self, v: float, omega: float, dt: float):
        if not dt > 0.0:
            raise ValueError("dt must be > 0")
        _set(self, "v", v)
        _set(self, "omega", omega)
        _set(self, "dt", dt)


@dataclass(frozen=True)
class EkfParams:
    process_noise_scale: float = 0.1
    earth_radius: float = EARTH_RADIUS_M

    def __post_init__(self):
        for key in ("process_noise_scale", "earth_radius"):
            value = getattr(self, key)
            require(value > 0.0, f"ekf.{key}", "be > 0", value)


_IDENTITY_ROWS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


@dataclass
class EkfState:
    """Filter state: mean (x, y, psi) and the covariance's three rows, all
    Python floats. The filter reads both by tuple unpacking, so a 3-vector
    and a 3x3 array work as well.

    `nis` is the normalized innovation squared e^T S^-1 e of the update that
    produced the state, None for a state that no update produced. Treated as
    a value: operations return new instances and never mutate their inputs.
    """

    mean: tuple[float, float, float]
    cov: tuple[tuple[float, float, float], ...]
    nis: float | None = None

    @classmethod
    def initial(cls, x: float, y: float, psi: float) -> "EkfState":
        """State anchored at a first fix with identity covariance."""
        return cls((x, y, normalize_angle(psi)), _IDENTITY_ROWS)


def project_to_local(fix: GeoFix, origin: GeoFix,
                     earth_radius: float = EARTH_RADIUS_M) -> LocalPoint:
    """Equirectangular projection of `fix` relative to `origin`.

    The east-west scale is frozen at the origin latitude so the map is affine
    and exactly invertible; the distortion is negligible over a track-sized
    field. Longitude differences wrap across the antimeridian.
    """
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
    return GeoFix(lat=lat, lon=lon, pos_variance=pos_variance)


def ekf_jacobian(psi: float, v: float, dt: float) -> np.ndarray:
    """Jacobian of the motion model with respect to [x, y, psi]."""
    return np.array([
        [1.0, 0.0, -dt * v * math.sin(psi)],
        [0.0, 1.0, dt * v * math.cos(psi)],
        [0.0, 0.0, 1.0],
    ])


def _require_finite(state: EkfState) -> None:
    """ValueError unless every number of the state is finite."""
    (r0, r1, r2), mean = state.cov, state.mean
    # a non-finite term makes the sum non-finite; only then is each tested
    if not (math.isfinite(sum(mean) + sum(r0) + sum(r1) + sum(r2))
            or all(map(math.isfinite, (*mean, *r0, *r1, *r2)))):
        raise ValueError("non-finite filter state")


def ekf_predict(state: EkfState, u: MotionInput, params: EkfParams) -> EkfState:
    """Prediction step: the motion model on the mean, J P J^T + q I on the
    covariance. J is the identity but for J[0][2] = a and J[1][2] = b
    (ekf_jacobian)."""
    _require_finite(state)
    if not (math.isfinite(u.v) and math.isfinite(u.omega) and math.isfinite(u.dt)):
        raise ValueError("non-finite motion input")
    (x, y, psi), q = state.mean, params.process_noise_scale
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = state.cov
    step = u.v * u.dt
    a, b = -(step * math.sin(psi)), step * math.cos(psi)
    # rows 0 and 1 of J P, last column, then (J P) J^T
    r02, r12 = p02 + a * p22, p12 + b * p22
    c00 = p00 + a * p20 + a * r02 + q
    c11 = p11 + b * p21 + b * r12 + q
    c01 = 0.5 * (p01 + a * p21 + b * r02 + (p10 + b * p20 + a * r12))
    c02 = 0.5 * (r02 + (p20 + a * p22))
    c12 = 0.5 * (r12 + (p21 + b * p22))
    return EkfState((x + b, y - a, normalize_angle(psi + u.dt * u.omega)),
                    ((c00, c01, c02), (c01, c11, c12), (c02, c12, p22 + q)))


def ekf_update(state: EkfState, obs, obs_cov) -> EkfState:
    """Measurement update with identity observation Jacobian: with S = P + M
    (M is `obs_cov`, three rows), K = P S^-1 moves the mean by K e and the
    covariance to (I - K) P; the state carries the NIS e^T S^-1 e. The
    heading residual e[2] is taken on the circle, so an observation across
    the +-pi seam pulls the mean the short way around.

    S^-1 is applied by Gaussian elimination with partial pivoting, as
    LAPACK's gesv does: the first row of largest magnitude leads each
    column. Raises numpy.linalg.LinAlgError when a pivot is exactly 0;
    callers may inflate M and retry.
    """
    x, y, psi = state.mean
    ox, oy, opsi = obs
    e0, e1, e2 = ox - x, oy - y, normalize_angle(opsi - psi)
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = state.cov
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = obs_cov
    # [S | P | e]; S X = P gives X = K^T, as S and P are symmetric
    r0 = (p00 + m00, p01 + m01, p02 + m02, p00, p01, p02, e0)
    r1 = (p10 + m10, p11 + m11, p12 + m12, p10, p11, p12, e1)
    r2 = (p20 + m20, p21 + m21, p22 + m22, p20, p21, p22, e2)
    a0, a1, a2 = abs(r0[0]), abs(r1[0]), abs(r2[0])
    if a1 > a0 and a1 >= a2:
        r0, r1 = r1, r0
    elif a2 > a0 and a2 > a1:
        r0, r2 = r2, r0
    u00, u01, u02, b00, b01, b02, b03 = r0
    if u00 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    l1, l2 = r1[0] / u00, r2[0] / u00
    r1 = (r1[1] - l1 * u01, r1[2] - l1 * u02, r1[3] - l1 * b00,
          r1[4] - l1 * b01, r1[5] - l1 * b02, r1[6] - l1 * b03)
    r2 = (r2[1] - l2 * u01, r2[2] - l2 * u02, r2[3] - l2 * b00,
          r2[4] - l2 * b01, r2[5] - l2 * b02, r2[6] - l2 * b03)
    if abs(r2[0]) > abs(r1[0]):
        r1, r2 = r2, r1
    u11, u12, b10, b11, b12, b13 = r1
    if u11 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    l2 = r2[0] / u11
    u22 = r2[1] - l2 * u12
    if u22 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    # back substitution on all four right-hand sides at once: the solutions
    # for P's columns are the rows of K, the last is S^-1 e
    g0, g1, g2, g3 = (r2[2] - l2 * b10, r2[3] - l2 * b11,
                      r2[4] - l2 * b12, r2[5] - l2 * b13)
    k02, k12, k22, w2 = g0 / u22, g1 / u22, g2 / u22, g3 / u22
    k01, k11, k21, w1 = ((b10 - u12 * k02) / u11, (b11 - u12 * k12) / u11,
                         (b12 - u12 * k22) / u11, (b13 - u12 * w2) / u11)
    k00, k10, k20, w0 = ((b00 - u02 * k02 - u01 * k01) / u00,
                         (b01 - u02 * k12 - u01 * k11) / u00,
                         (b02 - u02 * k22 - u01 * k21) / u00,
                         (b03 - u02 * w2 - u01 * w1) / u00)
    mean = (x + (k00 * e0 + k01 * e1 + k02 * e2),
            y + (k10 * e0 + k11 * e1 + k12 * e2),
            normalize_angle(psi + (k20 * e0 + k21 * e1 + k22 * e2)))
    # (I - K) P, then symmetrized
    n00, n11, n22 = 1.0 - k00, 1.0 - k11, 1.0 - k22
    c00 = n00 * p00 - k01 * p10 - k02 * p20
    c11 = n11 * p11 - k10 * p01 - k12 * p21
    c22 = n22 * p22 - k20 * p02 - k21 * p12
    c01 = 0.5 * (n00 * p01 - k01 * p11 - k02 * p21
                 + (n11 * p10 - k10 * p00 - k12 * p20))
    c02 = 0.5 * (n00 * p02 - k01 * p12 - k02 * p22
                 + (n22 * p20 - k20 * p00 - k21 * p10))
    c12 = 0.5 * (n11 * p12 - k10 * p02 - k12 * p22
                 + (n22 * p21 - k20 * p01 - k21 * p11))
    return EkfState(mean, ((c00, c01, c02), (c01, c11, c12), (c02, c12, c22)),
                    e0 * w0 + e1 * w1 + e2 * w2)


def fuse_step(state: EkfState, u: MotionInput, gnss: GeoFix | None,
              imu: ImuReading, origin: GeoFix, params: EkfParams) -> EkfState:
    """One predict-then-update cycle.

    The IMU is always available; GNSS is optional. During a dropout the
    update degrades to a heading-only observation: the position rows observe
    the predicted mean with near-infinite variance, which keeps the position
    dead reckoning exactly while still absorbing the IMU heading.
    """
    pred = ekf_predict(state, u, params)
    if gnss is not None:
        p = project_to_local(gnss, origin, params.earth_radius)
        obs = (p.x, p.y, imu.yaw)
        var = gnss.pos_variance
    else:
        obs = (pred.mean[0], pred.mean[1], imu.yaw)
        var = GNSS_DROPOUT_VARIANCE
    m = ((var, 0.0, 0.0), (0.0, var, 0.0), (0.0, 0.0, imu.yaw_variance))
    return ekf_update(pred, obs, m)


# The chi-square(3) 95% point: a consistent filter's NIS exceeds it on 5% of
# the updates with a GNSS fix.
CHI2_3_95 = 7.81


class Localizer:
    """The filter's life cycle; tests and traces may pass `fuse` for fuse_step."""

    def __init__(self, origin: GeoFix, params: EkfParams, fuse=fuse_step):
        self.origin, self.params, self.fuse = origin, params, fuse
        self.state: EkfState | None = None
        self.first_fix_s: float | None = None
        self.nis: list[float] = []

    def step(self, t, v, dt, gnss: GeoFix | None, imu: ImuReading):
        """The estimate after the IMU sample at time t; None before a fix."""
        if self.state is not None:
            # MotionInput's own check, without its constructor call
            if not dt > 0.0:
                raise ValueError("dt must be > 0")
            u = _new(MotionInput)
            fields = u.__dict__
            fields["v"] = v
            fields["omega"] = imu.yaw_rate
            fields["dt"] = dt
            self.state = self.fuse(self.state, u, gnss, imu, self.origin,
                                   self.params)
            if gnss is not None:
                self.nis.append(self.state.nis)
        elif gnss is not None:
            p = project_to_local(gnss, self.origin, self.params.earth_radius)
            self.state = EkfState.initial(p.x, p.y, imu.yaw)
            self.first_fix_s = t
        return self.state

    def nis_mean(self) -> float | None:
        return sum(self.nis) / len(self.nis) if self.nis else None

    def nis_over_chi2_95(self) -> float | None:
        return (sum(n > CHI2_3_95 for n in self.nis) / len(self.nis)
                if self.nis else None)


# --- replay log interface ---------------------------------------------------

REPLAY_COLUMNS = [
    "t_s", "lat_rad", "lon_rad", "gnss_valid", "gnss_var_m2",
    "imu_yaw_rad", "imu_yaw_var_rad2", "v_mps", "omega_radps",
]

POSE_LOG_COLUMNS = ["t_s", "x_m", "y_m", "psi_rad", "cov_xx", "cov_yy", "cov_pp"]


def read_replay_log(path) -> list[list[float]]:
    """Parse a sensor replay CSV into rows of floats in REPLAY_COLUMNS order
    (gnss_valid as 1.0 or 0.0); raises ReplayFormatError with the offending
    line number on malformed input, a non-monotone timestamp, a negative
    variance, or a valid fix off the globe."""
    arr, lines = read_table(path, REPLAY_COLUMNS, ReplayFormatError,
                            {"gnss_valid": parse_bool})
    rows = arr.tolist()
    t_prev, anchored = -math.inf, False
    for lineno, row in zip(lines, rows):
        t, lat, lon, valid, var, _, yaw_var, _, _ = row
        # the first valid fix is the local frame's origin, whose east-west
        # scale cos(lat) vanishes at the poles
        lat_max = math.pi / 2 if anchored else math.nextafter(math.pi / 2, 0)
        for col, bad, rule in (
                ("t_s", t <= t_prev, "is a non-monotone timestamp"),
                ("imu_yaw_var_rad2", yaw_var < 0.0, "must be >= 0"),
                ("gnss_var_m2", valid and var < 0.0, "must be >= 0"),
                ("lat_rad", valid and abs(lat) > lat_max, "must lie in "
                 "[-pi/2, pi/2], off the poles at the first valid fix"),
                ("lon_rad", valid and abs(lon) > math.pi,
                 "must lie in [-pi, pi]")):
            if bad:
                raise ReplayFormatError(
                    f"{path} line {lineno}: {col} "
                    f"{row[REPLAY_COLUMNS.index(col)]!r} {rule}")
        t_prev, anchored = t, anchored or bool(valid)
    return rows


def run_replay(rows, params: EkfParams | None = None):
    """The pose-log tuples (POSE_LOG_COLUMNS) of the rows of read_replay_log
    from the first valid fix on, which is also the local frame's origin.

    Finite but huge numbers (a speed of 1e300, a gap of 1e200 s between
    rows) can take the filter out of the float range. ReplayFormatError
    then names the first row the filter fails on, so no pose is ever
    non-finite."""
    first = next((row for row in rows if row[3]), None)
    if first is None:
        raise ReplayFormatError("replay log contains no valid GNSS fix to anchor the filter")
    localizer = Localizer(GeoFix(first[1], first[2]), params or EkfParams())
    out, t_prev = [], 0.0
    for t, lat, lon, valid, gnss_var, imu_yaw, imu_yaw_var, v, omega in rows:
        fix = GeoFix(lat, lon, pos_variance=gnss_var) if valid else None
        try:
            state = localizer.step(t, v, t - t_prev, fix,
                                   ImuReading(imu_yaw, omega, imu_yaw_var))
            if state is not None:
                _require_finite(state)
        except ValueError as exc:
            raise ReplayFormatError(f"replay row at t_s {t!r}: {exc}") from None
        t_prev = t
        if state is not None:
            cov = state.cov
            out.append((t, *state.mean, cov[0][0], cov[1][1], cov[2][2]))
    return out


def write_pose_log(path, rows) -> None:
    write_table(path, POSE_LOG_COLUMNS, rows)
