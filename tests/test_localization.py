import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.geometry import normalize_angle
from gokart.localization import (EkfParams, EkfState, GeoFix,
                                 ImuReading, LocalPoint,
                                 Localizer, MotionInput, ReplayFormatError,
                                 ekf_jacobian, ekf_predict, ekf_update,
                                 fuse_step, local_to_geo, project_to_local,
                                 read_replay_log, run_replay)
from helpers import (assert_frozen_value, assert_matches_oracle,
                     assert_same_fields, assert_state_close,
                     fuse_step_oracle, haversine_m, read_pose_log,
                     reference_linear_kalman)


def default_params():
    return EkfParams()


class TestProjection:
    def test_origin_maps_to_origin(self):
        o = GeoFix(0.0, 0.0)
        p = project_to_local(o, o)
        assert p.x == 0.0 and p.y == 0.0

    def test_longitude_offset_at_equator(self):
        # hand evaluation: 6_371_000 * cos(0) * 1e-5 = 63.71 m
        p = project_to_local(GeoFix(0.0, 1e-5), GeoFix(0.0, 0.0))
        assert p.x == pytest.approx(63.71, abs=1e-9)
        assert p.y == 0.0

    def test_latitude_offset_at_mid_latitude(self):
        # cos factor only scales x; y = r * dlat = 63.71 m
        origin = GeoFix(math.pi / 4, 0.5)
        p = project_to_local(GeoFix(math.pi / 4 + 1e-5, 0.5), origin)
        assert p.x == 0.0
        assert p.y == pytest.approx(63.71, abs=1e-6)

    @pytest.mark.parametrize("lon0", [math.pi, -math.pi, math.pi - 1e-6])
    def test_roundtrip_across_the_antimeridian(self, lon0):
        # fixes east and west of an origin on or next to the antimeridian
        # keep longitudes in (-pi, pi] and project back to their offsets
        origin = GeoFix(0.7, lon0)
        for x in (-300.0, -1.0, 0.0, 1.0, 300.0):
            fix = local_to_geo(LocalPoint(x, 5.0), origin)
            assert -math.pi < fix.lon <= math.pi
            p = project_to_local(fix, origin)
            assert p.x == pytest.approx(x, abs=1e-6)
            assert p.y == pytest.approx(5.0, abs=1e-9)

    def test_inverse_roundtrip(self):
        origin = GeoFix(0.7, -1.3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.uniform(-500, 500, 2)
            from gokart.localization import LocalPoint
            fix = local_to_geo(LocalPoint(x, y), origin)
            p = project_to_local(fix, origin)
            assert p.x == pytest.approx(x, abs=1e-9)
            assert p.y == pytest.approx(y, abs=1e-9)

    def test_agrees_with_haversine_within_1km(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lat0 = rng.uniform(-1.0, 1.0)  # about +-57 degrees
            lon0 = rng.uniform(-math.pi, math.pi)
            origin = GeoFix(lat0, lon0)
            # two fixes within 1 km of the origin
            fixes = []
            for _ in range(2):
                dx, dy = rng.uniform(-700, 700, 2)
                from gokart.localization import LocalPoint
                fixes.append(local_to_geo(LocalPoint(dx, dy), origin))
            p1 = project_to_local(fixes[0], origin)
            p2 = project_to_local(fixes[1], origin)
            flat = math.hypot(p1.x - p2.x, p1.y - p2.y)
            true = haversine_m(fixes[0].lat, fixes[0].lon,
                               fixes[1].lat, fixes[1].lon)
            if true > 1.0:
                assert flat == pytest.approx(true, rel=1e-3)

    def test_geofix_invariants(self):
        with pytest.raises(ValueError):
            GeoFix(2.0, 0.0)
        with pytest.raises(ValueError):
            GeoFix(0.0, 4.0)
        with pytest.raises(ValueError):
            GeoFix(0.0, 0.0, pos_variance=-1.0)


class TestJacobian:
    def test_zero_velocity_is_identity(self):
        np.testing.assert_array_equal(ekf_jacobian(0.0, 0.0, 1.0), np.eye(3))

    def test_direct_evaluation(self):
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(ekf_jacobian(0.0, 1.0, 1.0), expected)

    def test_matches_finite_differences(self):
        # central differences of the motion model, h = 1e-6
        rng = np.random.default_rng(1)
        h = 1e-6

        def motion(state, v, omega, dt):
            x, y, psi = state
            return np.array([x + v * dt * math.cos(psi),
                             y + v * dt * math.sin(psi),
                             psi + dt * omega])

        for _ in range(100):
            state = rng.uniform([-50, -50, -3], [50, 50, 3])
            v = rng.uniform(-5, 5)
            omega = rng.uniform(-2, 2)
            dt = rng.uniform(0.001, 0.05)
            fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (motion(state + e, v, omega, dt)
                            - motion(state - e, v, omega, dt)) / (2 * h)
            np.testing.assert_allclose(ekf_jacobian(state[2], v, dt), fd,
                                       atol=1e-6)


class TestPredict:
    def test_straight_motion(self):
        state = EkfState(np.zeros(3), np.eye(3))
        out = ekf_predict(state, MotionInput(1.0, 0.0, 1.0), default_params())
        np.testing.assert_allclose(out.mean, [1.0, 0.0, 0.0])

    def test_motion_along_y(self):
        state = EkfState(np.array([0.0, 0.0, math.pi / 2]), np.eye(3))
        out = ekf_predict(state, MotionInput(2.0, 0.0, 0.5), default_params())
        np.testing.assert_allclose(out.mean, [0.0, 1.0, math.pi / 2], atol=1e-15)

    def test_covariance_hand_product(self):
        # J = [[1,0,0],[0,1,1],[0,0,1]]; J I J^T + 0.1 I computed by hand
        state = EkfState(np.zeros(3), np.eye(3))
        out = ekf_predict(state, MotionInput(1.0, 0.0, 1.0), default_params())
        expected = np.array([[1.1, 0.0, 0.0], [0.0, 2.1, 1.0], [0.0, 1.0, 1.1]])
        np.testing.assert_allclose(out.cov, expected, atol=1e-12)

    def test_nonfinite_input_rejected(self):
        state = EkfState(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            ekf_predict(state, MotionInput(math.nan, 0.0, 0.1), default_params())
        # the input state object is untouched
        np.testing.assert_array_equal(state.mean, np.zeros(3))

    def test_heading_renormalized(self):
        state = EkfState(np.array([0.0, 0.0, 3.0]), np.eye(3))
        out = ekf_predict(state, MotionInput(0.0, 10.0, 0.1), default_params())
        assert -math.pi < out.mean[2] <= math.pi


class TestUpdate:
    def test_zero_gain_limit(self):
        state = EkfState(np.array([1.0, 2.0, 0.5]), np.eye(3))
        out = ekf_update(state, np.array([5.0, 5.0, 1.0]), 1e12 * np.eye(3))
        np.testing.assert_allclose(out.mean, state.mean, atol=1e-6)

    def test_full_trust_limit(self):
        state = EkfState(np.array([1.0, 2.0, 0.5]), np.eye(3))
        obs = np.array([5.0, -3.0, 1.0])
        out = ekf_update(state, obs, np.zeros((3, 3)))
        np.testing.assert_allclose(out.mean, obs, atol=1e-12)

    def test_scalar_analogue(self):
        # P = M = I, mean 0, obs 2: K = 1/2, mean 1, cov 0.5 per axis
        state = EkfState(np.zeros(3), np.eye(3))
        out = ekf_update(state, np.full(3, 2.0), np.eye(3))
        np.testing.assert_allclose(out.mean, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(out.cov, 0.5 * np.eye(3), atol=1e-12)

    def test_nis_of_constructed_updates(self):
        # P = M = I: S = 2I, so e = (2, 0, 1) gives (4 + 1) / 2
        state = EkfState(np.zeros(3), np.eye(3))
        out = ekf_update(state, np.array([2.0, 0.0, 1.0]), np.eye(3))
        assert out.nis == 2.5
        # S = [[2, 1, 0], [1, 2, 0], [0, 0, 1]]: S^-1 (1, 1, 0) = (1, 1, 0) / 3
        cov = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        out = ekf_update(EkfState(np.zeros(3), cov), np.array([1.0, 1.0, 0.0]),
                         np.zeros((3, 3)))
        assert out.nis == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_nis_only_on_updated_states(self):
        state = EkfState.initial(0.0, 0.0, 0.0)
        assert state.nis is None
        assert EkfState(np.zeros(3), np.eye(3)).nis is None
        assert ekf_predict(state, MotionInput(1.0, 0.0, 0.1),
                           default_params()).nis is None
        out = fuse_step(state, MotionInput(1.0, 0.0, 0.1), None,
                        ImuReading(0.0, 0.0, 1e-4), GeoFix(0.7, -1.3),
                        default_params())
        assert isinstance(out.nis, float) and out.nis >= 0.0

    def test_singular_sum_raises(self):
        state = EkfState(np.zeros(3), np.zeros((3, 3)))
        with pytest.raises(np.linalg.LinAlgError):
            ekf_update(state, np.zeros(3), np.zeros((3, 3)))

    def test_heading_residual_on_circle(self):
        # psi 3.1 observed as -3.1 must move toward +-pi, never through 0
        state = EkfState(np.array([0.0, 0.0, 3.1]), np.eye(3))
        out = ekf_update(state, np.array([0.0, 0.0, -3.1]), np.eye(3))
        assert abs(out.mean[2]) > 3.1

    def test_symmetrized_output(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 3))
        cov = a @ a.T + 0.1 * np.eye(3)
        state = EkfState(rng.normal(size=3), cov)
        out = ekf_update(state, rng.normal(size=3),
                         np.diag(rng.uniform(0.01, 2.0, 3)))
        cov = np.asarray(out.cov)
        np.testing.assert_allclose(cov, cov.T, atol=1e-9)


# (record, a field to replace, its new value)
FILTER_INPUT_RECORDS = [
    (ImuReading(0.3, -0.05, 1e-4), "yaw_rate", 0.125),
    (MotionInput(2.5, 0.1, 0.01), "dt", 0.02),
]


class TestFuseStep:
    @pytest.mark.parametrize("record, name, value", FILTER_INPUT_RECORDS)
    def test_input_record_is_a_frozen_value(self, record, name, value):
        assert_frozen_value(record, name, value)

    def test_imu_reading_defaults_and_normalizes(self):
        assert ImuReading(0.5, 0.25) == ImuReading(0.5, 0.25, 0.0)
        assert ImuReading(yaw_rate=0.25, yaw=0.5).yaw_variance == 0.0
        assert ImuReading(3 * math.pi, 0.0).yaw == normalize_angle(3 * math.pi)
        assert dataclasses.replace(ImuReading(0.5, 0.0), yaw=-4.0).yaw == \
            normalize_angle(-4.0)
        with pytest.raises(ValueError, match="yaw_variance must be >= 0"):
            ImuReading(0.0, 0.0, -1e-9)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_motion_input_rejects_dt(self, dt):
        with pytest.raises(ValueError, match="dt must be > 0"):
            MotionInput(1.0, 0.0, dt)
        with pytest.raises(ValueError, match="dt must be > 0"):
            dataclasses.replace(MotionInput(1.0, 0.0, 0.01), dt=dt)

    def test_dropout_equals_dead_reckoning(self):
        params = default_params()
        origin = GeoFix(0.7, -1.3)
        state = EkfState(np.array([0.0, 0.0, 0.1]), np.eye(3))
        dr = EkfState(state.mean.copy(), state.cov.copy())
        psi = 0.1
        for _ in range(50):
            u = MotionInput(5.0, 0.0, 0.01)
            imu = ImuReading(yaw=psi, yaw_rate=0.0, yaw_variance=0.0)
            state = fuse_step(state, u, None, imu, origin, params)
            dr = ekf_predict(dr, u, params)
        np.testing.assert_allclose(state.mean[:2], dr.mean[:2], atol=1e-9)

    def test_noiseless_convergence_when_stationary(self):
        params = default_params()
        origin = GeoFix(0.7, -1.3)
        from gokart.localization import LocalPoint
        target = local_to_geo(LocalPoint(3.0, -2.0), origin, pos_variance=1e-6)
        state = EkfState(np.zeros(3), np.eye(3))
        imu = ImuReading(yaw=0.0, yaw_rate=0.0, yaw_variance=1e-6)
        for _ in range(10):
            state = fuse_step(state, MotionInput(0.0, 0.0, 0.1), target, imu,
                              origin, params)
        assert state.mean[0] == pytest.approx(3.0, abs=1e-3)
        assert state.mean[1] == pytest.approx(-2.0, abs=1e-3)

    def test_reacquisition_shrinks_residual(self):
        params = default_params()
        origin = GeoFix(0.7, -1.3)
        from gokart.localization import LocalPoint
        truth = local_to_geo(LocalPoint(0.0, 0.0), origin, pos_variance=1e-4)
        # start offset after a long dropout
        state = EkfState(np.array([2.0, -1.5, 0.0]), 10.0 * np.eye(3))
        imu = ImuReading(yaw=0.0, yaw_rate=0.0, yaw_variance=1e-6)
        residuals = []
        for _ in range(10):
            state = fuse_step(state, MotionInput(0.0, 0.0, 0.1), truth, imu,
                              origin, params)
            residuals.append(math.hypot(state.mean[0], state.mean[1]))
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] < 0.05

    def test_matches_reference_linear_kalman_on_straight_line(self):
        # psi == 0 enforced: noise only on the decoupled x axis so the
        # heading stays exactly zero and the EKF is exactly linear
        params = default_params()
        origin = GeoFix(0.0, 0.0)
        v, dt = 2.0, 0.1
        state = EkfState(np.zeros(3), np.eye(3))
        f = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, v * dt],
                      [0.0, 0.0, 1.0]])
        offset = np.array([v * dt, 0.0, 0.0])
        r = 0.1 * np.eye(3)
        rng = np.random.default_rng(7)
        steps = []
        from gokart.localization import LocalPoint
        for k in range(30):
            if k % 3 == 0:
                ox = v * dt * (k + 1) + rng.normal(0, 0.01)
                obs = np.array([ox, 0.0, 0.0])
                m = np.diag([1e-4, 1e-4, 1e-4])
                steps.append((offset, obs, m))
                fix = local_to_geo(LocalPoint(ox, 0.0), origin,
                                   pos_variance=1e-4)
            else:
                steps.append((offset, None, None))
                fix = None
            imu = ImuReading(yaw=0.0, yaw_rate=0.0, yaw_variance=1e-4)
            if fix is None:
                state = ekf_predict(state, MotionInput(v, 0.0, dt), params)
            else:
                state = fuse_step(state, MotionInput(v, 0.0, dt), fix, imu,
                                  origin, params)
        ref_mean, ref_cov = reference_linear_kalman(np.zeros(3), np.eye(3),
                                                    f, r, steps)
        np.testing.assert_allclose(state.mean, ref_mean, atol=1e-9)
        np.testing.assert_allclose(state.cov, ref_cov, atol=1e-9)


finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
# headings at and next to the +-pi seam, and anywhere on the circle
heading = st.one_of(
    st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), 0.0]),
    st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
variance = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


@st.composite
def ekf_states(draw):
    """Means anywhere near the origin; covariances A A^T + eps I, SPD; as
    the filter holds them, tuples of Python floats."""
    a = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=9,
                               max_size=9))).reshape(3, 3)
    eps = draw(st.floats(min_value=1e-6, max_value=1.0))
    cov = a @ a.T + eps * np.eye(3)
    return EkfState((draw(finite), draw(finite), draw(heading)),
                    tuple(map(tuple, cov.tolist())))


ORIGIN = GeoFix(0.7, -1.3)


@st.composite
def gnss_fixes(draw):
    """A fix within a kilometre of ORIGIN, or None (a dropout)."""
    if draw(st.booleans()):
        return None
    return local_to_geo(LocalPoint(draw(finite), draw(finite)), ORIGIN,
                        pos_variance=draw(variance))


class TestFuseStepOracle:
    """fuse_step, on Python floats, against the plain numpy filter in
    tests/helpers.py within the stated tolerance (helpers.FUSE_RTOL)."""

    @settings(max_examples=400, deadline=None)
    @given(state=ekf_states(), gnss=gnss_fixes(), yaw=heading,
           yaw_var=variance,
           v=st.floats(min_value=-8.0, max_value=8.0),
           omega=st.floats(min_value=-3.0, max_value=3.0),
           dt=st.floats(min_value=1e-4, max_value=0.2),
           q=st.floats(min_value=1e-6, max_value=10.0))
    def test_matches_oracle_bitwise(self, state, gnss, yaw, yaw_var, v,
                                    omega, dt, q):
        # within the one-step bound of helpers.FUSE_RTOL, not bit for bit
        u = MotionInput(v, omega, dt)
        imu = ImuReading(yaw, omega, yaw_var)
        params = EkfParams(process_noise_scale=q)
        mean_in, cov_in = state.mean, state.cov
        out = fuse_step(state, u, gnss, imu, ORIGIN, params)
        assert_matches_oracle(out, state, u, gnss, imu, ORIGIN, params)
        assert len(out.mean) == 3 and [len(row) for row in out.cov] == [3] * 3
        assert all(type(v) is float
                   for v in (*out.mean, *sum(out.cov, ()), out.nis))
        # the inputs are values: never rebound
        assert state.mean is mean_in and state.cov is cov_in

    def test_chain_matches_oracle_bitwise(self):
        # a long closed chain with dropouts, so any drift would compound
        rng = np.random.default_rng(17)
        params = default_params()
        state = EkfState(np.array([0.0, 0.0, 3.0]), np.eye(3))
        ref = state
        for k in range(2000):
            u = MotionInput(rng.uniform(0, 8), rng.uniform(-2, 2), 0.01)
            fix = None
            if k % 10 == 0 and not 500 <= k < 700:
                fix = local_to_geo(LocalPoint(*rng.uniform(-50, 50, 2)),
                                   ORIGIN, pos_variance=4e-4)
            imu = ImuReading(rng.uniform(-4, 4), u.omega, 1e-4)
            state = fuse_step(state, u, fix, imu, ORIGIN, params)
            ref = fuse_step_oracle(ref, u, fix, imu, ORIGIN, params)
            assert_state_close(state, ref)

    @pytest.mark.parametrize("bad", ["mean", "cov"])
    def test_nonfinite_state_raises(self, bad):
        state = EkfState(np.zeros(3), np.eye(3))
        getattr(state, bad).flat[1] = math.inf
        imu = ImuReading(0.0, 0.0, 1e-4)
        with pytest.raises(ValueError, match="non-finite filter state"):
            fuse_step(state, MotionInput(1.0, 0.0, 0.01), None, imu, ORIGIN,
                      default_params())

    def test_finite_state_whose_sum_overflows(self):
        # the finite check sums the twelve numbers and tests each on its own
        # only when the sum is not finite: 1e308 + 1e308 is no reason to
        # reject a state, an infinite covariance entry beside it is
        cov = EkfState.initial(0.0, 0.0, 0.0).cov
        args = (MotionInput(0.0, 0.0, 0.01), None, ImuReading(0.0, 0.0, 1e-4),
                ORIGIN, default_params())
        out = fuse_step(EkfState((1e308, 1e308, 0.0), cov), *args)
        assert list(out.mean[:2]) == [1e308, 1e308]
        assert np.all(np.isfinite(out.cov)) and math.isfinite(out.nis)
        bad = (cov[0], (0.0, math.inf, 0.0), cov[2])
        with pytest.raises(ValueError, match="non-finite filter state"):
            fuse_step(EkfState((1e308, 1e308, 0.0), bad), *args)

    def test_singular_innovation_covariance_raises(self):
        # P = -q I predicts to 0 at v = 0; with exact observations S = 0
        q = default_params().process_noise_scale
        state = EkfState(np.zeros(3), -q * np.eye(3))
        fix = GeoFix(ORIGIN.lat, ORIGIN.lon, pos_variance=0.0)
        imu = ImuReading(0.0, 0.0, 0.0)
        with pytest.raises(np.linalg.LinAlgError):
            fuse_step(state, MotionInput(0.0, 0.0, 0.01), fix, imu, ORIGIN,
                      default_params())


class TestCovarianceHealth:
    def test_psd_over_random_cycles(self):
        params = default_params()
        origin = GeoFix(0.7, -1.3)
        rng = np.random.default_rng(123)
        state = EkfState(np.zeros(3), np.eye(3))
        from gokart.localization import LocalPoint
        for _ in range(10_000):
            u = MotionInput(rng.uniform(0, 8), rng.uniform(-2, 2),
                            rng.uniform(0.001, 0.05))
            if rng.random() < 0.7:
                fix = local_to_geo(
                    LocalPoint(rng.uniform(-100, 100), rng.uniform(-100, 100)),
                    origin, pos_variance=rng.uniform(1e-4, 10.0))
            else:
                fix = None
            imu = ImuReading(yaw=rng.uniform(-math.pi, math.pi),
                             yaw_rate=rng.uniform(-2, 2),
                             yaw_variance=rng.uniform(1e-6, 1.0))
            state = fuse_step(state, u, fix, imu, origin, params)
            cov = np.asarray(state.cov)
            assert np.allclose(cov, cov.T, atol=1e-9)
            assert np.linalg.eigvalsh(cov).min() >= -1e-9


class TestReplay:
    HEADER = ("t_s,lat_rad,lon_rad,gnss_valid,gnss_var_m2,"
              "imu_yaw_rad,imu_yaw_var_rad2,v_mps,omega_radps\n")

    def _write(self, path, rows):
        with open(path, "w") as fh:
            fh.write(self.HEADER)
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def test_noiseless_straight_log(self, tmp_path):
        origin = GeoFix(0.7, -1.3)
        from gokart.localization import LocalPoint
        rows = []
        v = 2.0
        for k in range(101):
            t = k * 0.1
            fix = local_to_geo(LocalPoint(v * t, 0.0), origin)
            rows.append((t, fix.lat, fix.lon, 1, 0.0, 0.0, 0.0, v, 0.0))
        path = tmp_path / "replay.csv"
        self._write(path, rows)
        out = run_replay(read_replay_log(path))
        t, x, y, psi = out[-1][:4]
        assert x == pytest.approx(v * 10.0, abs=1e-6)
        assert y == pytest.approx(0.0, abs=1e-6)

    def test_dropout_log_keeps_imu_rate_output(self, tmp_path):
        origin = GeoFix(0.7, -1.3)
        from gokart.localization import LocalPoint
        rows = []
        for k in range(50):
            t = k * 0.1
            valid = 1 if (k < 10 or k >= 40) else 0
            fix = local_to_geo(LocalPoint(2.0 * t, 0.0), origin)
            rows.append((t, fix.lat, fix.lon, valid, 0.0, 0.0, 0.0, 2.0, 0.0))
        path = tmp_path / "replay.csv"
        self._write(path, rows)
        out = run_replay(read_replay_log(path))
        assert len(out) == 50  # continuous output from the first valid fix

    def test_empty_file_errors(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text("")
        with pytest.raises(ReplayFormatError):
            read_replay_log(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text("t_s,lat_rad\n0.0,0.0\n")
        with pytest.raises(ReplayFormatError, match="lon_rad"):
            read_replay_log(path)

    def test_nonmonotone_timestamps_error(self, tmp_path):
        path = tmp_path / "replay.csv"
        path.write_text(self.HEADER + "0.0,0,0,1,0,0,0,0,0\n"
                        "0.0,0,0,1,0,0,0,0,0\n")
        with pytest.raises(ReplayFormatError, match="line 3"):
            read_replay_log(path)

    @pytest.mark.parametrize("word", ["maybe", "2", "y", ""])
    def test_unknown_gnss_valid_word_names_its_line(self, tmp_path, word):
        path = tmp_path / "replay.csv"
        path.write_text(self.HEADER + "0.0,0,0,1,0,0,0,0,0\n"
                        f"0.1,0,0,{word},0,0,0,0,0\n")
        with pytest.raises(ReplayFormatError, match="line 3"):
            read_replay_log(path)

    def test_dropout_log_matches_a_direct_filter_loop(self, tmp_path):
        # gnss_valid takes every word a scenario boolean takes, and the
        # 1.0/0.0 that write_table writes
        words = {True: ["1", "1.0", "true", "True", "yes", "on"],
                 False: ["0", "0.0", "false", "FALSE", "no", "off"]}
        origin = GeoFix(0.7, -1.3)
        rows, lines = [], [self.HEADER]
        for k in range(60):
            t = 0.1 * k
            valid = not 20 <= k < 40
            fix = local_to_geo(LocalPoint(2.0 * t, 0.1 * math.sin(t)), origin)
            row = (t, fix.lat, fix.lon, valid, 1e-4, 0.05 * t, 1e-4, 2.0, 0.05)
            rows.append(row)
            cells = [repr(v) for v in row]
            cells[3] = words[valid][k % 6]
            lines.append(",".join(cells) + "\n")
        path = tmp_path / "replay.csv"
        path.write_text("".join(lines))
        out = run_replay(read_replay_log(path))

        params = EkfParams()
        t0, lat0, lon0, _, var0, yaw0 = rows[0][:6]
        anchor = GeoFix(lat0, lon0, pos_variance=var0)
        state = EkfState.initial(0.0, 0.0, yaw0)
        expected = [(t0, *state.mean, *np.diag(state.cov))]
        for prev, (t, lat, lon, valid, var, yaw, yaw_var, v, omega) in zip(
                rows, rows[1:]):
            fix = GeoFix(lat, lon, pos_variance=var) if valid else None
            state = fuse_step(state, MotionInput(v, omega, t - prev[0]), fix,
                              ImuReading(yaw, omega, yaw_var), anchor, params)
            expected.append((t, *state.mean, *np.diag(state.cov)))
        assert out == expected

    def test_pose_log_roundtrip_lossless(self, tmp_path):
        from gokart.localization import write_pose_log
        rng = np.random.default_rng(17)
        rows = [tuple(rng.normal(size=7)) for _ in range(25)]
        path = tmp_path / "poses.csv"
        write_pose_log(path, rows)
        back = read_pose_log(path)
        assert back == [tuple(float(v) for v in row) for row in rows]


class TestLocalizer:
    ORIGIN = GeoFix(0.7, -1.3)
    IMU = ImuReading(0.3, 0.05, 1e-4)

    def _fix(self, x, y):
        return local_to_geo(LocalPoint(x, y), self.ORIGIN, pos_variance=1e-4)

    def test_no_state_before_a_valid_fix(self):
        loc = Localizer(self.ORIGIN, EkfParams())
        for t in (0.0, 0.01):
            # dt = 0 too: no motion input is built before the anchor
            assert loc.step(t, 2.0, 0.0, None, self.IMU) is None
        assert loc.state is None and loc.first_fix_s is None
        assert loc.nis == [] and loc.nis_mean() is None
        assert loc.nis_over_chi2_95() is None

    def test_anchors_at_the_first_valid_fix(self):
        loc = Localizer(self.ORIGIN, EkfParams())
        loc.step(0.0, 2.0, 0.01, None, self.IMU)
        fix = self._fix(3.0, -4.0)
        state = loc.step(0.02, 2.0, 0.01, fix, self.IMU)
        assert loc.first_fix_s == 0.02 and state is loc.state
        p = project_to_local(fix, self.ORIGIN)
        assert state.mean == (p.x, p.y, 0.3)
        assert state.cov == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        assert loc.nis == []  # the anchoring fix is not an update

    def test_records_nis_only_for_updates_with_a_fix(self):
        loc = Localizer(self.ORIGIN, EkfParams())
        loc.step(0.0, 2.0, 0.01, self._fix(0.0, 0.0), self.IMU)
        expected, state = [], loc.state
        for k, gnss in enumerate([self._fix(0.02, 0.0), None, None,
                                  self._fix(0.08, 0.01)], start=1):
            u = MotionInput(2.0, self.IMU.yaw_rate, 0.01)
            state = fuse_step(state, u, gnss, self.IMU, self.ORIGIN,
                              EkfParams())
            got = loc.step(0.01 * k, 2.0, 0.01, gnss, self.IMU)
            assert got.mean == state.mean
            if gnss is not None:
                expected.append(state.nis)
        assert loc.first_fix_s == 0.0
        assert loc.nis == expected and len(expected) == 2
        assert loc.nis_mean() == sum(expected) / 2
        assert loc.nis_over_chi2_95() == sum(n > 7.81 for n in expected) / 2

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan])
    def test_rejects_dt_once_anchored(self, dt):
        loc = Localizer(self.ORIGIN, EkfParams())
        state = loc.step(0.0, 2.0, 0.01, self._fix(0.0, 0.0), self.IMU)
        with pytest.raises(ValueError, match=r"^dt must be > 0$"):
            loc.step(0.01, 2.0, dt, None, self.IMU)
        assert loc.state is state

    @settings(max_examples=200, deadline=None)
    @given(v=st.floats(allow_nan=False, allow_infinity=False),
           omega=st.floats(allow_nan=False, allow_infinity=False),
           dt=st.floats(min_value=5e-324, max_value=1e300))
    def test_motion_input_is_the_checked_record(self, v, omega, dt):
        inputs = []

        def fuse(state, u, gnss, imu, origin, params):
            inputs.append(u)
            return state

        loc = Localizer(self.ORIGIN, EkfParams(), fuse)
        loc.step(0.0, v, dt, self._fix(0.0, 0.0), self.IMU)
        loc.step(0.01, v, dt, None, ImuReading(0.3, omega, 1e-4))
        (u,) = inputs
        assert_same_fields(u, MotionInput(v, omega, dt))
        assert_frozen_value(u, "dt", 2.0 * dt)

    def test_calls_the_fuse_it_was_given(self):
        calls = []

        def fuse(state, u, gnss, imu, origin, params):
            calls.append((u, gnss, imu, origin, params))
            return EkfState(state.mean, state.cov, nis=12.0)

        params = EkfParams()
        loc = Localizer(self.ORIGIN, params, fuse)
        loc.step(0.0, 2.0, 0.01, self._fix(0.0, 0.0), self.IMU)
        assert calls == []
        fix = self._fix(0.02, 0.0)
        loc.step(0.01, 2.5, 0.01, fix, self.IMU)
        loc.step(0.02, 2.5, 0.01, None, self.IMU)
        u = MotionInput(2.5, self.IMU.yaw_rate, 0.01)
        assert calls == [(u, fix, self.IMU, self.ORIGIN, params),
                         (u, None, self.IMU, self.ORIGIN, params)]
        assert loc.nis == [12.0] and loc.nis_over_chi2_95() == 1.0


class TestReplayAnchoring:
    HEADER = TestReplay.HEADER
    ORIGIN = GeoFix(0.7, -1.3)

    def _rows(self, n=20, valid=lambda k: True):
        rows = []
        for k in range(n):
            t = 0.1 * k
            fix = local_to_geo(LocalPoint(5.0 + 2.0 * t, -3.0), self.ORIGIN)
            rows.append([t, fix.lat, fix.lon, float(valid(k)), 1e-4, 0.2,
                         1e-4, 2.0, 0.0])
        return rows

    def _write(self, path, rows):
        path.write_text(self.HEADER + "".join(
            ",".join(repr(v) for v in row) + "\n" for row in rows))

    def test_leading_dropouts_start_the_output_at_the_first_fix(self, tmp_path):
        rows = self._rows(valid=lambda k: k >= 4)
        # the rows before the anchor may carry fixes off the globe
        rows[1][1] = 9.0
        path = tmp_path / "replay.csv"
        self._write(path, rows)
        out = run_replay(read_replay_log(path))
        assert len(out) == 16
        assert out[0][:4] == (0.4, 0.0, 0.0, 0.2)
        assert out[0][4:] == (1.0, 1.0, 1.0)

    def test_no_valid_fix_raises(self):
        with pytest.raises(ReplayFormatError, match="no valid GNSS fix"):
            run_replay(self._rows(valid=lambda k: False))

    # the first two rows are dropouts; the third is the origin
    @pytest.mark.parametrize("row, col, value", [
        (0, 6, -1e-9),  # imu_yaw_var_rad2 before the anchor
        (3, 6, -1.0),   # imu_yaw_var_rad2 after it
        (5, 4, -1e-9),  # gnss_var_m2
        (5, 1, math.nextafter(math.pi / 2, 4.0)),  # lat_rad
        (5, 1, -math.nextafter(math.pi / 2, 4.0)),
        (5, 2, math.nextafter(math.pi, 4.0)),  # lon_rad
        (5, 2, -4.0),
        (2, 1, math.pi / 2),
        (2, 1, -math.pi / 2),
    ])
    def test_bad_row_names_its_line(self, tmp_path, row, col, value):
        rows = self._rows(valid=lambda k: k >= 2)
        rows[row][col] = value
        path = tmp_path / "replay.csv"
        self._write(path, rows)
        with pytest.raises(ReplayFormatError,
                           match=f"line {row + 2}: {TestReplay.HEADER.split(',')[col]}"):
            read_replay_log(path)

    def test_bad_fix_fields_pass_on_an_invalid_row(self, tmp_path):
        rows = self._rows(valid=lambda k: k != 3)
        rows[3][1:5] = [4.0, -9.0, 0.0, -1.0]
        rows[1][1] = -math.pi / 2  # a later valid fix may lie on a pole
        path = tmp_path / "replay.csv"
        self._write(path, rows)
        assert read_replay_log(path) == rows


class TestAngles:
    def test_normalize_angle_range(self):
        rng = np.random.default_rng(3)
        for a in rng.uniform(-50, 50, 1000):
            n = normalize_angle(a)
            assert -math.pi < n <= math.pi
            # same direction
            assert math.cos(n) == pytest.approx(math.cos(a), abs=1e-9)
            assert math.sin(n) == pytest.approx(math.sin(a), abs=1e-9)

    def test_pi_maps_to_pi(self):
        assert normalize_angle(math.pi) == math.pi
        assert normalize_angle(-math.pi) == math.pi
