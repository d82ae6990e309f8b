"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime and asserting both the numeric tolerance and the time budget."""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from gokart.control import PursuitParams
from gokart.drivebus import (DriveCommand, Mode, ModeArbiter, decode_command,
                             encode_command)
from gokart.localization import (EARTH_RADIUS_M, EkfParams, EkfState, GeoFix,
                                 ImuReading, LocalPoint, MotionInput,
                                 ekf_predict, fuse_step, local_to_geo,
                                 project_to_local)
from gokart.perception import (BevConfig, PerceptionConfig, detect_boundaries,
                               grass_mask, scan_angles)
from gokart.planning import FtgParams, ftg_step
from gokart.sim import (TrackSampler, VehicleState, default_camera_homography,
                        load_scenario, render_scene, run_closed_loop)
from gokart.track import (Spline2D, VehicleLimits, alpha_bounds,
                          build_raceline, centerline_curvature_cost,
                          curvature_at, normals, offset_curvature_cost,
                          optimize_min_curvature)
from helpers import (batch_brute_force_gaps, circle_track,
                     geometric_scan_oracle, haversine_m, oval_track,
                     predict_jacobian, reference_linear_kalman,
                     straight_track, wiggly_track, write_track_csv)


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {number:2d} ({name}): PASS "
          f"({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_01_parameter_fidelity():
    with criterion(1, "parameter fidelity", 1.0):
        dump = {
            "pursuit.l_min": PursuitParams().l_min,
            "pursuit.l_max": PursuitParams().l_max,
            "pursuit.v_max": PursuitParams().v_max,
            "pursuit.kp": PursuitParams().kp,
            "pursuit.kd": PursuitParams().kd,
            "ftg.epsilon": FtgParams().epsilon,
            "ftg.v_min": FtgParams().v_min,
            "ftg.v_max": FtgParams().v_max,
            "ftg.delta_max": FtgParams().delta_max,
            "pursuit.delta_max": PursuitParams().delta_max,
            "ekf.process_noise_scale": EkfParams().process_noise_scale,
            "ekf.earth_radius": EkfParams().earth_radius,
        }
        assert dump == {
            "pursuit.l_min": 2.0,
            "pursuit.l_max": 5.0,
            "pursuit.v_max": 5.0,
            "pursuit.kp": 2.0,
            "pursuit.kd": 1.0,
            "ftg.epsilon": 2.5,
            "ftg.v_min": 2.0,
            "ftg.v_max": 5.0,
            "ftg.delta_max": 1.0,
            "pursuit.delta_max": 1.0,
            "ekf.process_noise_scale": 0.1,
            "ekf.earth_radius": 6_371_000.0,
        }
        assert EARTH_RADIUS_M == 6_371_000.0


def test_02_jacobian_vs_finite_differences():
    with criterion(2, "EKF Jacobian vs central differences", 1.0):
        rng = np.random.default_rng(20)
        h = 1e-6

        def motion(state, v, omega, dt):
            x, y, psi = state
            return np.array([x + v * dt * math.cos(psi),
                             y + v * dt * math.sin(psi),
                             psi + dt * omega])

        worst = 0.0
        for _ in range(100):
            state = rng.uniform([-100, -100, -3], [100, 100, 3])
            v = rng.uniform(-8, 8)
            omega = rng.uniform(-3, 3)
            dt = rng.uniform(0.001, 0.05)
            fd = np.zeros((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (motion(state + e, v, omega, dt)
                            - motion(state - e, v, omega, dt)) / (2 * h)
            err = np.abs(predict_jacobian(state[2], v, dt) - fd).max()
            worst = max(worst, err)
        assert worst <= 1e-6


def test_03_linear_equivalence_and_psd():
    with criterion(3, "EKF linear equivalence + covariance PSD", 10.0):
        # straight-line scenario with psi enforced at zero
        params = EkfParams()
        origin = GeoFix(0.0, 0.0)
        v, dt = 2.0, 0.1
        state = EkfState(np.zeros(3), np.eye(3))
        f = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, v * dt], [0.0, 0.0, 1.0]])
        offset = np.array([v * dt, 0.0, 0.0])
        rng = np.random.default_rng(30)
        steps = []
        for k in range(50):
            if k % 4 == 0:
                ox = v * dt * (k + 1) + rng.normal(0.0, 0.02)
                obs = np.array([ox, 0.0, 0.0])
                steps.append((offset, obs, np.diag([1e-4, 1e-4, 1e-4])))
                fix = local_to_geo(LocalPoint(ox, 0.0), origin,
                                   pos_variance=1e-4)
                imu = ImuReading(yaw=0.0, yaw_rate=0.0, yaw_variance=1e-4)
                state = fuse_step(state, MotionInput(v, 0.0, dt), fix, imu,
                                  origin, params)
            else:
                steps.append((offset, None, None))
                state = ekf_predict(state, MotionInput(v, 0.0, dt), params)
        ref_mean, ref_cov = reference_linear_kalman(
            np.zeros(3), np.eye(3), f, 0.1 * np.eye(3), steps)
        np.testing.assert_allclose(state.mean, ref_mean, atol=1e-9)
        np.testing.assert_allclose(state.cov, ref_cov, atol=1e-9)

        # covariance health across 10,000 random cycles
        rng = np.random.default_rng(31)
        state = EkfState(np.zeros(3), np.eye(3))
        origin = GeoFix(0.7, -1.3)
        min_eig = math.inf
        for _ in range(10_000):
            u = MotionInput(rng.uniform(0, 8), rng.uniform(-2, 2),
                            rng.uniform(0.001, 0.05))
            fix = None
            if rng.random() < 0.7:
                fix = local_to_geo(
                    LocalPoint(rng.uniform(-100, 100), rng.uniform(-100, 100)),
                    origin, pos_variance=rng.uniform(1e-4, 10.0))
            imu = ImuReading(yaw=rng.uniform(-math.pi, math.pi),
                             yaw_rate=rng.uniform(-2, 2),
                             yaw_variance=rng.uniform(1e-6, 1.0))
            state = fuse_step(state, u, fix, imu, origin, params)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(state.cov).min()))
        assert min_eig >= -1e-9


def test_04_min_curvature_optimizer():
    with criterion(4, "min-curvature raceline", 30.0):
        tr = circle_track(radius=20.0, width=1.9, vhw=0.4, clockwise=True)
        alpha = optimize_min_curvature(tr)
        pts = tr.xy + alpha[:, None] * normals(tr)
        sp = Spline2D(pts, closed=True)
        kappa = np.abs(curvature_at(sp, sp.t_knots))
        np.testing.assert_allclose(kappa, 1.0 / 21.5, rtol=0.02)
        fixtures = [circle_track(), oval_track(), wiggly_track(),
                    wiggly_track(seed=11), straight_track()]
        for fixture in fixtures:
            a = optimize_min_curvature(fixture)
            lo, hi = alpha_bounds(fixture)
            assert np.all(a >= lo) and np.all(a <= hi)
            assert offset_curvature_cost(fixture, a) <= \
                centerline_curvature_cost(fixture) + 1e-9


def test_05_velocity_profile_feasibility():
    with criterion(5, "velocity profile feasibility", 5.0):
        limits = VehicleLimits()
        fixtures = [circle_track(), oval_track(), wiggly_track(),
                    straight_track(n=30)]
        for fixture in fixtures:
            alpha = optimize_min_curvature(fixture)
            rl = build_raceline(fixture, alpha, limits, spacing=1.0)
            vsq = rl.v ** 2
            assert np.all(vsq * np.abs(rl.kappa) <= limits.a_lat_max + 1e-9)
            if rl.closed:
                ds = np.append(np.diff(rl.s), rl.length - rl.s[-1] + rl.s[0])
                dv2 = np.abs(np.roll(vsq, -1) - vsq)
            else:
                ds = np.diff(rl.s)
                dv2 = np.abs(np.diff(vsq))
            assert np.all(dv2 <= 2.0 * limits.a_lon_max * ds + 1e-9)


def test_06_closed_loop_pursuit(tmp_path):
    with criterion(6, "closed-loop pursuit on oval", 60.0):
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "scenario.txt").write_text(
            "mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 45\nseed = 7\n"
            "sensors.gnss_sigma = 0.0\nsensors.imu_sigma_yaw = 0.0\n")
        first = run_closed_loop(load_scenario(tmp_path / "scenario.txt"))
        again = run_closed_loop(load_scenario(tmp_path / "scenario.txt"))
        assert first.boundary_violations == 0
        assert first.safety_stops == 0
        assert first.lap_time_s is not None
        assert first.max_cross_track_error_m <= 0.5
        # bit-identical repeat under the same seed
        assert first.logs == again.logs
        # a different seed keeps the criteria too
        other = run_closed_loop(load_scenario(tmp_path / "scenario.txt",
                                              {"seed": "8"}))
        assert other.boundary_violations == 0
        assert other.max_cross_track_error_m <= 0.5


def test_07_ftg_oracle_equivalence():
    with criterion(7, "follow-the-gap vs exhaustive oracle", 10.0):
        rng = np.random.default_rng(70)
        scans = rng.uniform(0.01, 5.0, size=(10_000, 361))
        # sprinkle fully blocked and fully open scans
        scans[:50] = 0.5
        scans[50:100] = 4.9
        found, gi, gj, gm = batch_brute_force_gaps(scans, 2.5)
        params = FtgParams()
        angles = scan_angles()
        from gokart.perception import DepthScan
        for row in range(len(scans)):
            scan = DepthScan(distances=scans[row], angles=angles,
                             max_range=5.0)
            cmd = ftg_step(scan, params)
            if not found[row]:
                assert cmd.safety_stop
                continue
            gap = cmd.chosen_gap
            assert (gap.i, gap.j, gap.midpoint) == \
                (gi[row], gj[row], gm[row])


def test_08_perception_end_to_end():
    with criterion(8, "perception end-to-end", 30.0):
        # Eq-level threshold boundary: score == tau yields grass
        img = np.zeros((1, 1, 3), dtype=np.uint8)
        img[0, 0] = (0, 210, 86)
        tau = 0.6 * 210.0 - 86.0
        assert grass_mask(img, tau)[0, 0] == 1
        assert grass_mask(img, tau + 1e-9)[0, 0] == 0

        track = oval_track(width=4.0)
        sampler = TrackSampler(track)
        bev = BevConfig()
        h = default_camera_homography(bev)
        cfg = PerceptionConfig()
        angles = scan_angles()
        rng = np.random.default_rng(80)
        errors = []
        for _ in range(20):
            i = rng.integers(0, len(sampler.points))
            base = sampler.points[i]
            tang = sampler.tangents[i]
            heading = math.atan2(tang[1], tang[0]) + rng.normal(0.0, 0.2)
            off = rng.uniform(-1.5, 1.5)
            pose = VehicleState(x=base[0] - tang[1] * off,
                                y=base[1] + tang[0] * off, psi=heading)
            scene = render_scene(sampler, pose, h, 320, 240, bev)
            scan, _, _ = detect_boundaries(scene, h, cfg, bev)
            truth = geometric_scan_oracle(sampler, pose, angles, bev)
            finite = truth < bev.max_range
            errors.append(np.abs(scan.distances[finite] - truth[finite]))
        pooled = np.concatenate(errors)
        assert np.mean(pooled <= 0.25) >= 0.95


def test_09_projection_vs_haversine():
    with criterion(9, "equirectangular vs haversine", 5.0):
        rng = np.random.default_rng(90)
        checked = 0
        while checked < 1000:
            lat0 = rng.uniform(-1.05, 1.05)  # about +-60 degrees
            lon0 = rng.uniform(-math.pi + 0.01, math.pi - 0.01)
            origin = GeoFix(lat0, lon0)
            a = local_to_geo(LocalPoint(*rng.uniform(-700, 700, 2)), origin)
            b = local_to_geo(LocalPoint(*rng.uniform(-700, 700, 2)), origin)
            pa = project_to_local(a, origin)
            pb = project_to_local(b, origin)
            flat = math.hypot(pa.x - pb.x, pa.y - pb.y)
            true = haversine_m(a.lat, a.lon, b.lat, b.lon)
            if true < 1.0:
                continue
            assert abs(flat - true) / true <= 1e-3
            checked += 1


def test_10_codec_roundtrip_and_kill_dominance():
    with criterion(10, "drive bus codec + kill dominance", 5.0):
        rng = np.random.default_rng(100)
        for k in range(10_000):
            cmd = DriveCommand(
                steering=float(rng.uniform(-1.0, 1.0)),
                speed=float(rng.uniform(0.0, 8.0)),
                brake=float(rng.uniform(0.0, 1.0)),
                mode=Mode(int(rng.integers(0, 3))),
                kill=bool(rng.integers(0, 2)),
            )
            back = decode_command(encode_command(cmd, k))
            assert abs(back.steering - cmd.steering) <= 1e-3
            assert abs(back.speed - cmd.speed) <= 1e-3
            assert abs(back.brake - cmd.brake) <= 1e-4
            assert back.mode == cmd.mode and back.kill == cmd.kill
        probe = DriveCommand(steering=0.4, speed=5.0)
        for mode in Mode:
            for bits in itertools.product([None, probe], repeat=3):
                out = ModeArbiter().step(0.0, mode, manual=bits[0],
                                         remote=bits[1], autonomous=bits[2],
                                         kill=True)
                assert out.speed == 0.0 and out.brake == 1.0


def test_11_gnss_dropout_dead_reckoning():
    with criterion(11, "dropout dead reckoning + reacquisition", 10.0):
        params = EkfParams()
        origin = GeoFix(0.7, -1.3)
        v, dt = 5.0, 0.01
        # filter starts 0.5 m off the true line; heading is exact
        state = EkfState(np.array([0.0, 0.5, 0.0]), np.eye(3))
        reckoning = EkfState(state.mean.copy(), state.cov.copy())
        steps_dropout = int(round(2.0 / dt))
        for _ in range(steps_dropout):
            u = MotionInput(v, 0.0, dt)
            imu = ImuReading(yaw=0.0, yaw_rate=0.0, yaw_variance=1e-6)
            state = fuse_step(state, u, None, imu, origin, params)
            reckoning = ekf_predict(reckoning, u, params)
        np.testing.assert_allclose(state.mean[:2], reckoning.mean[:2],
                                   atol=1e-9)
        # truth during reacquisition: x = v t, y = 0
        t = 2.0
        recovered_at = None
        for k in range(int(round(1.0 / dt))):
            t += dt
            u = MotionInput(v, 0.0, dt)
            imu = ImuReading(yaw=0.0, yaw_rate=0.0, yaw_variance=1e-6)
            fix = None
            if k % 10 == 0:  # 10 Hz GNSS
                fix = local_to_geo(LocalPoint(v * t, 0.0), origin,
                                   pos_variance=1e-4)
            state = fuse_step(state, u, fix, imu, origin, params)
            err = math.hypot(state.mean[0] - v * t, state.mean[1])
            if err < 0.1 and recovered_at is None:
                recovered_at = t - 2.0
        assert recovered_at is not None and recovered_at <= 1.0
