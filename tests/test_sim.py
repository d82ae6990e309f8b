import dataclasses
import decimal
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.control import pursuit_step
from gokart.geometry import Polyline, body_to_world, normalize_angle
from gokart.localization import (CHI2_3_95, GeoFix, ImuReading, LocalPoint,
                                 fuse_step, local_to_geo, project_to_local)
from gokart.perception import BevConfig, DepthScan, PerceptionConfig, \
    detect_boundaries, scan_angles
from gokart.sim import (_NOISE_BLOCK, _SCENARIO_KEYS, RK4_MONOTONE_LIMIT,
                        GnssSimulator, ImuSimulator, ScenarioError,
                        SensorConfig, TrackSampler, VehicleParams,
                        VehicleState, _bev_body_points,
                        bev_grass_mask, bicycle_step, build_scenario,
                        default_camera_homography, load_scenario,
                        parse_scenario_text, prepare_raceline, render_scene,
                        run_closed_loop)
from gokart.track import read_track_csv
import gokart.sim
from helpers import (FUSE_RTOL, alternating, assert_frozen_value,
                     assert_same_fields, bev_grass_mask_oracle,
                     bicycle_step_oracle, circle_track,
                     detect_boundaries_oracle, fuse_step_oracle,
                     geometric_scan_oracle, hairpin_track, mean_gap,
                     oval_track, polyline_distance_oracle,
                     render_scene_oracle, straight_track,
                     varying_width_track, wiggly_track, write_track_csv)


def float_bits(state: VehicleState) -> list[str]:
    return [float(v).hex() for v in (state.x, state.y, state.psi, state.v)]


class TestBicycleModel:
    def test_straight_line(self):
        state = VehicleState(v=3.0)
        for _ in range(100):
            state = bicycle_step(state, 0.0, 3.0, 0.0, VehicleParams(), 0.01)
        assert state.y == pytest.approx(0.0, abs=1e-12)
        assert state.psi == pytest.approx(0.0, abs=1e-12)
        assert state.x == pytest.approx(3.0, rel=1e-6)

    def test_constant_steering_traces_circle(self):
        params = VehicleParams()
        delta = 0.2
        radius = params.wheelbase / math.tan(delta)
        v = 2.0
        state = VehicleState(x=0.0, y=-radius, psi=0.0, v=v)
        lap_time = 2.0 * math.pi * radius / v
        steps = int(round(lap_time / 0.01))
        max_err = 0.0
        for _ in range(steps):
            state = bicycle_step(state, delta, v, 0.0, params, 0.01)
            r = math.hypot(state.x, state.y)
            max_err = max(max_err, abs(r - radius))
        assert max_err / radius < 0.005

    def test_brake_decays_speed(self):
        state = VehicleState(v=5.0)
        speeds = [state.v]
        for _ in range(200):
            state = bicycle_step(state, 0.0, 5.0, 1.0, VehicleParams(), 0.01)
            speeds.append(state.v)
        assert all(b <= a for a, b in zip(speeds, speeds[1:]))
        assert state.v >= 0.0
        assert state.v < 1.0

    def test_coasting_speed_nonincreasing(self):
        state = VehicleState(v=4.0)
        prev = state.v
        for _ in range(300):
            state = bicycle_step(state, 0.1, 0.0, 0.0, VehicleParams(), 0.01)
            assert state.v <= prev + 1e-15
            prev = state.v

    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            bicycle_step(VehicleState(), 0.0, 0.0, 0.0, VehicleParams(), 0.06)
        with pytest.raises(ValueError):
            bicycle_step(VehicleState(), 0.0, 0.0, 0.0, VehicleParams(), 0.0)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
           st.one_of(st.floats(-math.pi, math.pi),
                     st.floats(math.pi - 1e-6, math.pi),
                     st.floats(-math.pi, -math.pi + 1e-6)),
           st.floats(0.0, 20.0), st.floats(-1.0, 1.0), st.floats(-10.0, 20.0),
           st.floats(-1.0, 2.0), st.floats(0.5, 3.0), st.floats(0.1, 5.0),
           st.floats(1.0, 15.0), st.floats(1e-4, 0.05))
    def test_matches_vector_oracle_bitwise(self, x, y, psi, v, steering,
                                           speed_cmd, brake, wheelbase, tau,
                                           max_speed, dt):
        # speed commands below 0 and above max_speed, brake outside [0, 1],
        # headings up to +-pi
        state = VehicleState(x=x, y=y, psi=psi, v=v)
        params = VehicleParams(wheelbase=wheelbase, v_time_constant=tau,
                               max_speed=max_speed)
        args = (state, steering, speed_cmd, brake, params, dt)
        got, want = bicycle_step(*args), bicycle_step_oracle(*args)
        assert float_bits(got) == float_bits(want)

    def test_speed_lag_limit_is_where_rk4_damps_most(self):
        # the real root of R'(z) = 1 + z + z^2 / 2 + z^3 / 6, by Newton in
        # 50 digits, and Cardano's form of it
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            z = decimal.Decimal(-1.6)
            for _ in range(60):
                z -= (z**3 + 3 * z**2 + 6 * z + 6) / (3 * z**2 + 6 * z + 6)
        assert float(-z) == RK4_MONOTONE_LIMIT
        c = math.cbrt(1.0 + math.sqrt(2.0))
        assert 1.0 + c - 1.0 / c == pytest.approx(RK4_MONOTONE_LIMIT,
                                                  rel=1e-15)

    def test_shorter_speed_lag_converges_faster_down_to_the_limit(self):
        # one step from rest toward 5 m/s leaves 5 R(-dt / tau) of the error
        dt = 0.01

        def error(ratio):
            lag = VehicleParams(v_time_constant=dt / ratio, max_speed=8.0)
            return 5.0 - bicycle_step(VehicleState(), 0.0, 5.0, 0.0, lag,
                                      dt).v

        inside = [error(r) for r in (0.5, 1.0, 1.5, 1.59, RK4_MONOTONE_LIMIT)]
        assert all(a > b for a, b in zip(inside, inside[1:]))
        assert inside[-1] / 5.0 == pytest.approx(0.2704, abs=1e-4)
        # past it the error grows back, to all of it where R(z) = 1
        past = [error(r) for r in (1.6, 2.0, 2.5, 2.785293563405282)]
        assert inside[-1] < past[0]
        assert all(a < b for a, b in zip(past, past[1:]))
        assert past[-1] == pytest.approx(5.0, abs=1e-9)


class TestSensors:
    def test_noiseless_gnss_roundtrips_exactly(self):
        origin = GeoFix(0.7, -1.3)
        cfg = SensorConfig(gnss_sigma=0.0, seed=1)
        sim = GnssSimulator(cfg, origin, 6_371_000.0)
        state = VehicleState(x=12.34, y=-5.6)
        fix = sim.sample(state, 0.0)
        p = project_to_local(fix, origin)
        assert p.x == pytest.approx(12.34, abs=1e-9)
        assert p.y == pytest.approx(-5.6, abs=1e-9)

    def test_dropout_window_returns_none(self):
        origin = GeoFix(0.7, -1.3)
        cfg = SensorConfig(gnss_dropout_windows=((2.0, 4.0),), seed=1)
        sim = GnssSimulator(cfg, origin, 6_371_000.0)
        assert sim.sample(VehicleState(), 3.0) is None
        assert sim.sample(VehicleState(), 1.0) is not None
        assert sim.sample(VehicleState(), 4.5) is not None

    def test_gnss_noise_statistics(self):
        origin = GeoFix(0.7, -1.3)
        cfg = SensorConfig(gnss_sigma=0.05, seed=3)
        sim = GnssSimulator(cfg, origin, 6_371_000.0)
        xs = []
        for k in range(10_000):
            fix = sim.sample(VehicleState(), k * 0.1)
            p = project_to_local(fix, origin)
            xs.append(p.x)
        assert np.std(xs) == pytest.approx(0.05, rel=0.05)
        assert fix.pos_variance == pytest.approx(0.05 ** 2)

    def test_imu_noise_statistics(self):
        cfg = SensorConfig(imu_sigma_yaw=0.02, seed=4)
        sim = ImuSimulator(cfg)
        yaws = [sim.sample(VehicleState(psi=0.3), 0.1, k * 0.01).yaw
                for k in range(10_000)]
        assert np.mean(yaws) == pytest.approx(0.3, abs=0.002)
        assert np.std(yaws) == pytest.approx(0.02, rel=0.05)

    def test_imu_noiseless_exact(self):
        cfg = SensorConfig(imu_sigma_yaw=0.0, imu_sigma_rate=0.0, seed=5)
        sim = ImuSimulator(cfg)
        r = sim.sample(VehicleState(psi=-0.7), 0.25, 0.0)
        assert r.yaw == -0.7
        assert r.yaw_rate == 0.25

    def test_deterministic_from_seed(self):
        origin = GeoFix(0.7, -1.3)
        a = GnssSimulator(SensorConfig(seed=9), origin, 6_371_000.0)
        b = GnssSimulator(SensorConfig(seed=9), origin, 6_371_000.0)
        for k in range(20):
            fa = a.sample(VehicleState(x=k), k * 0.1)
            fb = b.sample(VehicleState(x=k), k * 0.1)
            assert fa.lat == fb.lat and fa.lon == fb.lon


# headings of every size, and the floats at and either side of +-pi
HEADINGS = st.one_of(
    st.floats(min_value=-20.0, max_value=20.0),
    st.sampled_from([h for pi in (math.pi, -math.pi)
                     for h in (pi, math.nextafter(pi, 0.0),
                               math.nextafter(pi, 2.0 * pi))]))


class TestConstructionPaths:
    """The plant, the IMU and the pursuit planner build their per-tick
    records without a constructor call: each is the record the constructor
    builds from the same fields."""

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(min_value=-1e6, max_value=1e6),
           y=st.floats(min_value=-1e6, max_value=1e6), psi=HEADINGS,
           v=st.floats(min_value=0.0, max_value=8.0),
           steering=st.floats(min_value=-0.6, max_value=0.6),
           speed=st.floats(min_value=-2.0, max_value=12.0),
           brake=st.floats(min_value=-0.5, max_value=1.5),
           dt=st.floats(min_value=1e-4, max_value=0.05))
    def test_bicycle_step_record(self, x, y, psi, v, steering, speed, brake,
                                 dt):
        state = bicycle_step(VehicleState(x, y, psi, v), steering, speed,
                             brake, VehicleParams(), dt)
        assert_same_fields(state, VehicleState(**vars(state)))
        assert -math.pi < state.psi <= math.pi and state.v >= 0.0

    @settings(max_examples=200, deadline=None)
    @given(psi=HEADINGS, omega=st.floats(min_value=-10.0, max_value=10.0),
           sigma_yaw=st.floats(min_value=0.0, max_value=5.0),
           sigma_rate=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=2**32))
    def test_imu_sample_record(self, psi, omega, sigma_yaw, sigma_rate,
                               seed):
        sim = ImuSimulator(SensorConfig(imu_sigma_yaw=sigma_yaw,
                                        imu_sigma_rate=sigma_rate, seed=seed))
        state = VehicleState(psi=psi)
        for k in range(3):
            reading = sim.sample(state, omega, k * 0.01)
            assert_same_fields(reading, ImuReading(
                reading.yaw, reading.yaw_rate, reading.yaw_variance))
            assert reading.yaw_variance == sigma_yaw ** 2
            assert_frozen_value(reading, "yaw_rate", reading.yaw_rate + 1.0)

    def test_pursuit_planner_pose(self, tmp_path, monkeypatch):
        poses = []

        def recording(raceline, pose, state, params, dt):
            poses.append(pose)
            return pursuit_step(raceline, pose, state, params, dt)

        monkeypatch.setattr(gokart.sim, "pursuit_step", recording)
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 3\nseed = 7\n")
        run_closed_loop(load_scenario(tmp_path / "s.txt"))
        assert len(poses) == 60
        for pose in poses:
            assert_same_fields(pose, VehicleState(**vars(pose)))


class TestSensorNoiseBlocks:
    """Noise drawn in blocks against one default_rng call per draw, bit for
    bit, over several block edges."""

    SAMPLES = 3 * _NOISE_BLOCK + 7

    @pytest.mark.parametrize("sigma", [0.02, 0.7, 0.0])
    def test_gnss_matches_per_call_draws(self, sigma):
        # 0.1 s samples; one dropout straddles the first block edge, the
        # other the second one, which the first has moved 13 samples on
        b = _NOISE_BLOCK
        windows = ((0.1 * (b - 6) - 0.01, 0.1 * (b + 6) + 0.01),
                   (0.1 * (2 * b + 8) - 0.01, 0.1 * (2 * b + 18) + 0.01))
        cfg = SensorConfig(gnss_sigma=sigma, gnss_dropout_windows=windows,
                           seed=31)
        origin = GeoFix(0.7, -1.3)
        sim = GnssSimulator(cfg, origin, 6_371_000.0)
        rng = np.random.default_rng([31, 0])
        dropped = 0
        for k in range(self.SAMPLES):
            t = 0.1 * k
            state = VehicleState(x=0.3 * k, y=-0.2 * k)
            fix = sim.sample(state, t)
            if any(start <= t <= end for start, end in windows):
                assert fix is None
                dropped += 1
                continue
            nx, ny = rng.normal(0.0, sigma, size=2)
            want = local_to_geo(LocalPoint(state.x + nx, state.y + ny),
                                origin, 6_371_000.0, pos_variance=sigma ** 2)
            assert (fix.lat.hex(), fix.lon.hex(), fix.pos_variance) == \
                (float(want.lat).hex(), float(want.lon).hex(),
                 want.pos_variance)
        assert dropped == 13 + 11
        # the fixes took more than two blocks of pairs
        assert self.SAMPLES - dropped > 2 * b

    @pytest.mark.parametrize("sigma_yaw, sigma_rate", [(0.01, 0.0),
                                                       (0.02, 0.003),
                                                       (0.0, 0.0)])
    def test_imu_matches_per_call_draws(self, sigma_yaw, sigma_rate):
        cfg = SensorConfig(imu_sigma_yaw=sigma_yaw, imu_sigma_rate=sigma_rate,
                           seed=32)
        sim = ImuSimulator(cfg)
        rng = np.random.default_rng([32, 1])
        for k in range(self.SAMPLES):
            state = VehicleState(psi=3.1 - 0.01 * k)
            reading = sim.sample(state, 0.2 + 0.001 * k, 0.01 * k)
            ny = rng.normal(0.0, sigma_yaw)
            nr = rng.normal(0.0, sigma_rate)
            assert float(reading.yaw).hex() == \
                float(normalize_angle(state.psi + ny)).hex()
            assert float(reading.yaw_rate).hex() == \
                float(0.2 + 0.001 * k + nr).hex()
            assert reading.yaw_variance == sigma_yaw ** 2

    def test_a_run_of_dropouts_draws_nothing(self):
        # the first fix after a dropout takes the first draw of the stream
        windows = ((0.0, 5.0),)
        origin = GeoFix(0.7, -1.3)
        late = GnssSimulator(SensorConfig(gnss_dropout_windows=windows,
                                          seed=4), origin, 6_371_000.0)
        for k in range(51):
            assert late.sample(VehicleState(), 0.1 * k) is None
        first = GnssSimulator(SensorConfig(seed=4), origin, 6_371_000.0)
        a = late.sample(VehicleState(x=1.0), 6.0)
        b = first.sample(VehicleState(x=1.0), 6.0)
        assert (a.lat, a.lon) == (b.lat, b.lon)


class TestTrackSampler:
    def test_inside_and_outside(self):
        sampler = TrackSampler(straight_track(width=2.0))
        pts = np.array([[5.0, 0.0], [5.0, 1.5], [5.0, -1.5], [5.0, 2.5],
                        [5.0, -2.5]])
        np.testing.assert_array_equal(sampler.inside(*pts.T),
                                      [True, True, True, False, False])
        assert sampler.inside(np.empty(0), np.empty(0)).shape == (0,)

    def test_beyond_open_ends_is_outside(self):
        sampler = TrackSampler(straight_track(n=12, spacing=2.0, width=2.0))
        assert not sampler.inside(np.array([-3.0]), np.array([0.0]))[0]
        assert not sampler.inside(np.array([25.0]), np.array([0.0]))[0]

    def test_margin_sign(self):
        sampler = TrackSampler(circle_track(width=1.9))
        inside_pt = np.array([[20.0, 0.0]])
        outside_pt = np.array([[23.0, 0.0]])
        assert sampler.lateral_margin(inside_pt)[0] > 0.0
        assert sampler.lateral_margin(outside_pt)[0] < 0.0

    def test_polyline_is_built_once_over_the_samples(self):
        sampler = TrackSampler(oval_track())
        polyline = sampler.polyline
        assert sampler.polyline is polyline
        assert polyline.closed and sampler.closed
        np.testing.assert_array_equal(polyline.x, sampler.points[:, 0])
        np.testing.assert_array_equal(polyline.y, sampler.points[:, 1])


class TestRenderScene:
    def test_all_track_world_has_no_grass(self):
        # very wide track covering the whole BEV window
        track = straight_track(n=30, spacing=2.0, width=40.0)
        bev = BevConfig()
        sampler = TrackSampler(track)
        pose = VehicleState(x=30.0, y=0.0, psi=0.0)
        assert not bev_grass_mask(sampler, pose, bev).any()
        h = default_camera_homography(bev)
        img = render_scene(sampler, pose, h, 320, 240, bev)
        scan, _, _ = detect_boundaries(img, h, PerceptionConfig(), bev)
        np.testing.assert_array_equal(scan.distances, bev.max_range)

    def test_grass_split_symmetric_on_centered_straight(self):
        track = straight_track(n=30, spacing=2.0, width=3.0)
        bev = BevConfig()
        sampler = TrackSampler(track)
        pose = VehicleState(x=30.0, y=0.0, psi=0.0)
        h = default_camera_homography(bev)
        img = render_scene(sampler, pose, h, 320, 240, bev)
        from gokart.perception import grass_mask, gaussian_blur
        mask = grass_mask(gaussian_blur(img, 2.0), 20.0)
        left = int(mask[:, :160].sum())
        right = int(mask[:, 160:].sum())
        assert left + right > 0
        assert abs(left - right) / (left + right) < 0.02

    def test_wall_dead_ahead_distance(self):
        # vehicle on a wide straight, heading rotated 90 degrees toward the
        # left boundary: a grass wall exactly w_left = 5 m ahead
        track = straight_track(n=30, spacing=2.0, width=5.0)
        bev = BevConfig()
        sampler = TrackSampler(track)
        pose = VehicleState(x=30.0, y=0.0, psi=math.pi / 2)
        h = default_camera_homography(bev)
        img = render_scene(sampler, pose, h, 320, 240, bev)
        scan, _, _ = detect_boundaries(img, h, PerceptionConfig(), bev)
        assert scan.distances[180] == pytest.approx(5.0, abs=0.25)

    def test_pipeline_matches_geometric_oracle(self):
        track = oval_track(width=4.0)
        sampler = TrackSampler(track)
        bev = BevConfig()
        h = default_camera_homography(bev)
        rng = np.random.default_rng(2)
        angles = scan_angles()
        pooled = []
        for _ in range(4):
            i = rng.integers(0, len(sampler.points))
            base = sampler.points[i]
            tang = sampler.tangents[i]
            heading = math.atan2(tang[1], tang[0]) + rng.normal(0.0, 0.2)
            off = rng.uniform(-1.5, 1.5)
            pose = VehicleState(x=base[0] - tang[1] * off,
                                y=base[1] + tang[0] * off, psi=heading)
            img = render_scene(sampler, pose, h, 320, 240, bev)
            scan, _, _ = detect_boundaries(img, h, PerceptionConfig(), bev)
            truth = geometric_scan_oracle(sampler, pose, angles, bev)
            finite = truth < bev.max_range
            pooled.append(np.abs(scan.distances[finite] - truth[finite]))
        err = np.concatenate(pooled)
        assert np.mean(err <= 0.25) >= 0.95


    def test_matches_oracle_on_random_poses(self):
        # random poses on the oval and the circle through the default camera,
        # alternating with variants that each change one input of the pixel
        # maps: the homography, the front size, the BEV size, the BEV scale
        rng = np.random.default_rng(21)
        bev = BevConfig()
        camera = default_camera_homography(bev)
        other = BevConfig(width=120, height=150, meters_per_px=0.12)
        cases = [(camera, 320, 240, bev),
                 (np.eye(3), 320, 240, bev),
                 (camera, 300, 240, bev),
                 (camera, 320, 240, other),
                 (camera, 320, 240, BevConfig(meters_per_px=0.08))]
        for track in (oval_track(width=4.0), circle_track()):
            sampler = TrackSampler(track)
            for h, fw, fh, cfg in alternating(cases):
                i = rng.integers(0, len(sampler.points))
                pose = VehicleState(x=sampler.points[i, 0] + rng.normal(0.0, 1.0),
                                    y=sampler.points[i, 1] + rng.normal(0.0, 1.0),
                                    psi=rng.uniform(-math.pi, math.pi))
                img = render_scene(sampler, pose, h, fw, fh, cfg)
                assert img.dtype == np.uint8 and img.shape == (fh, fw, 3)
                np.testing.assert_array_equal(
                    img, render_scene_oracle(sampler, pose, h, fw, fh, cfg))
                # the (H, W, 3) view of an (H, W, 4) word buffer, which the
                # pipeline reads as it reads a contiguous copy
                assert img.strides == (4 * fw, 4, 1)
                got = detect_boundaries(img, h, PerceptionConfig(), cfg)
                want = detect_boundaries(np.ascontiguousarray(img), h,
                                         PerceptionConfig(), cfg)
                np.testing.assert_array_equal(got[0].distances,
                                              want[0].distances)
                for stage, copy_stage in zip(got[1:], want[1:]):
                    np.testing.assert_array_equal(stage, copy_stage)


def pose_near(sampler, i, offset, heading) -> VehicleState:
    """A pose `offset` m left of sample i's centerline point."""
    (x, y), (tx, ty) = sampler.points[i], sampler.tangents[i]
    return VehicleState(x=float(x - ty * offset), y=float(y + tx * offset),
                        psi=heading)


class TestTruthMaskCells:
    """`TrackSampler.inside` decides certified world cells at once and the
    rest by the nearest-sample margin; the masks must equal the oracle's,
    which decides every pixel by the margin, pixel for pixel."""

    def test_ftg_oval_replay_poses(self, tmp_path, monkeypatch):
        # every truth mask of the benchmark's 10 s FTG run on the oval
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 10.0\nseed = 7\nsensors.gnss_sigma = 0.02\n"
            "sensors.gnss_dropout = 10.0:12.0\n")
        scenario = load_scenario(tmp_path / "s.txt")
        masks, exact, in_mask = [], [], []
        mask = gokart.sim.bev_grass_mask
        margin = TrackSampler.lateral_margin

        def record(sampler, pose, bev):
            in_mask.append(True)
            masks.append((sampler, pose, bev, mask(sampler, pose, bev)))
            in_mask.pop()
            return masks[-1][-1]

        def count(sampler, pts):  # mask pixels that reach the margin's query
            if in_mask:
                exact.append(len(pts))
            return margin(sampler, pts)

        classify, calls = TrackSampler._classify, []

        def count_calls(sampler, cx, cy):
            calls.append(len(cx))
            return classify(sampler, cx, cy)

        monkeypatch.setattr(gokart.sim, "bev_grass_mask", record)
        monkeypatch.setattr(TrackSampler, "lateral_margin", count)
        monkeypatch.setattr(TrackSampler, "_classify", count_calls)
        run_closed_loop(scenario)
        pixels = sum(m.size for *_, m in masks)
        assert len(masks) == 100
        # cells are classified a tile at a time: 19 calls here, where a
        # frame's own unknown cells at a time took 97
        assert len(calls) < 30
        # most pixels are decided by their cell or, in a mixed cell, by its
        # sub-cell: 1.5% reach the margin (7.7% without sub-cells)
        assert sum(exact) < 0.15 * pixels
        assert sum(exact) < 0.02 * pixels
        monkeypatch.undo()
        for sampler, pose, bev, got in masks:
            np.testing.assert_array_equal(
                got, bev_grass_mask_oracle(sampler, pose, bev))

    def test_tiles_classify_each_cell_as_alone(self):
        # frames across tile edges on and beside the track, and across the
        # grid's near and far edges, whose last tiles the grid cuts short
        track = oval_track()
        sampler = TrackSampler(track)
        tile, cell = gokart.sim._TILE, sampler._cell
        ny, nx = sampler._verdicts.shape
        assert nx % tile and ny % tile
        rng = np.random.default_rng(17)
        n = len(sampler.points)
        poses = [pose_near(sampler, int(rng.integers(n)),
                           rng.uniform(-6.0, 6.0),
                           rng.uniform(-math.pi, math.pi)) for _ in range(3)]
        (x0, y0), (x1, y1) = sampler._grid_origin, \
            sampler._grid_origin + np.array([nx, ny]) * cell
        poses += [VehicleState(x=x0 + 3.0, y=y0 + 5.0, psi=-2.5),
                  VehicleState(x=x1 - 4.0, y=y1 - 2.0, psi=0.8),
                  VehicleState(x=x1 - 6.0, y=y0 + 0.7 * (y1 - y0), psi=0.1)]
        bev = BevConfig()
        forward, left = _bev_body_points(bev)
        partly_off = 0
        for pose in poses:
            c, s = math.cos(pose.psi), math.sin(pose.psi)
            x = pose.x + c * forward - s * left
            y = pose.y + s * forward + c * left
            np.testing.assert_array_equal(
                sampler.inside(x, y),
                sampler.lateral_margin(np.column_stack([x, y])) >= 0.0)
            # every cell the frame reaches is classified
            gx, gy = (x - x0) / cell, (y - y0) / cell
            on = (gx >= 0.0) & (gx < nx) & (gy >= 0.0) & (gy < ny)
            partly_off += on.any() and not on.all()
            assert (sampler._verdicts[gy[on].astype(int), gx[on].astype(int)]
                    != gokart.sim._UNKNOWN).all()
        assert partly_off == 3
        # whole tiles, cut only by the grid's edges
        known = sampler._verdicts != gokart.sim._UNKNOWN
        for ty in range(0, ny, tile):
            for tx in range(0, nx, tile):
                block = known[ty:ty + tile, tx:tx + tile]
                assert block.all() or not block.any()
        assert known[0].any() and known[-1].any()
        assert known[:, 0].any() and known[:, -1].any()
        # each known cell classified alone, one call each, in no order
        alone = TrackSampler(track)
        cy, cx = np.nonzero(known)
        for k in rng.permutation(len(cx)):
            one = slice(k, k + 1)
            alone._verdicts[cy[one], cx[one]] = alone._classify(cx[one],
                                                                 cy[one])
        np.testing.assert_array_equal(alone._verdicts, sampler._verdicts)
        np.testing.assert_array_equal(alone._mixed, sampler._mixed)
        np.testing.assert_array_equal(alone._sub_verdicts,
                                      sampler._sub_verdicts)
        assert len(sampler._mixed) > 50

    def test_random_poses_on_and_off_the_oval(self):
        # on the track, and 5-30 m off it on either side (inward is the
        # infield), at any heading
        sampler = TrackSampler(oval_track())
        bev = BevConfig()
        rng = np.random.default_rng(5)
        n = len(sampler.points)
        offsets = np.concatenate([rng.uniform(-3.5, 3.5, 8),
                                  rng.uniform(5.0, 30.0, 8)
                                  * rng.choice([-1.0, 1.0], 8)])
        for offset in offsets:
            pose = pose_near(sampler, int(rng.integers(n)), offset,
                             rng.uniform(-math.pi, math.pi))
            np.testing.assert_array_equal(
                bev_grass_mask(sampler, pose, bev),
                bev_grass_mask_oracle(sampler, pose, bev))

    def test_frames_wholly_off_the_grid(self, monkeypatch):
        # some 300 m from the oval: every pixel lies off the cell grid, so
        # no cell is classified and the margin decides every pixel
        sampler = TrackSampler(oval_track())
        bev = BevConfig()
        poses = [VehicleState(x=300.0, y=10.0, psi=2.0),
                 VehicleState(x=-150.0, y=-260.0, psi=-0.5)]
        margin = sampler.lateral_margin
        exact = []

        def count(pts):
            exact.append(len(pts))
            return margin(pts)

        monkeypatch.setattr(sampler, "lateral_margin", count)
        masks = [bev_grass_mask(sampler, pose, bev) for pose in poses]
        monkeypatch.undo()
        assert exact == [bev.width * bev.height] * len(poses)
        assert not sampler._verdicts.any()
        for pose, got in zip(poses, masks):
            assert got.all()
            np.testing.assert_array_equal(
                got, bev_grass_mask_oracle(sampler, pose, bev))

    @pytest.mark.parametrize("track", [wiggly_track(), circle_track(),
                                       hairpin_track(), straight_track(),
                                       straight_track(spacing=2.05,
                                                      heading=0.7)],
                             ids=["wiggly", "circle", "hairpin",
                                  "open straight", "turned open straight"])
    def test_other_tracks(self, track):
        sampler = TrackSampler(track)
        bev = BevConfig()
        rng = np.random.default_rng(8)
        n = len(sampler.points)
        poses = [pose_near(sampler, int(rng.integers(n)),
                           rng.uniform(-8.0, 8.0),
                           rng.uniform(-math.pi, math.pi)) for _ in range(6)]
        if not track.closed:  # beyond both end caps, facing either way
            for i, ahead in ((0, -1.0), (n - 1, 1.0)):
                poses += [pose_near(sampler, i, 0.0, 0.0)]
                for along in (0.5, 4.0):
                    (x, y), (tx, ty) = sampler.points[i], sampler.tangents[i]
                    poses += [VehicleState(x=float(x + ahead * along * tx),
                                           y=float(y + ahead * along * ty),
                                           psi=psi)
                              for psi in (0.0, 2.0, math.pi, -1.0)]
        for pose in poses:
            np.testing.assert_array_equal(
                bev_grass_mask(sampler, pose, bev),
                bev_grass_mask_oracle(sampler, pose, bev))

    @pytest.mark.parametrize("track", [wiggly_track(), hairpin_track(),
                                       hairpin_track(closed=False),
                                       straight_track()],
                             ids=["wiggly", "hairpin", "open hairpin",
                                  "open straight"])
    def test_points_on_sub_cell_edges(self, track, monkeypatch):
        # points near both edges and past the ends of the track, snapped to
        # the sub-cells' corners, to their vertical and horizontal edges,
        # and one float off a corner either way
        sampler = TrackSampler(track)
        rng = np.random.default_rng(13)
        i = rng.integers(len(sampler.points), size=500)
        (x, y), (tx, ty) = sampler.points[i].T, sampler.tangents[i].T
        offset = np.where(rng.random(500) < 0.5, sampler.w_left[i],
                          -sampler.w_right[i]) + rng.normal(0.0, 0.3, 500)
        along = np.where(np.isin(i, [0, len(sampler.points) - 1]),
                         rng.normal(0.0, 1.0, 500), 0.0)
        near = np.column_stack([x - ty * offset + tx * along,
                                y + tx * offset + ty * along])
        origin = sampler._grid_origin
        step = sampler._cell / gokart.sim._SPLIT
        corner = origin + np.round((near - origin) / step) * step
        pts = np.concatenate([
            corner,
            np.column_stack([corner[:, 0], near[:, 1]]),
            np.column_stack([near[:, 0], corner[:, 1]]),
            np.nextafter(corner, np.inf), np.nextafter(corner, -np.inf)])
        margin = sampler.lateral_margin
        exact = []

        def count(pts):
            exact.append(len(pts))
            return margin(pts)

        monkeypatch.setattr(sampler, "lateral_margin", count)
        got = sampler.inside(*pts.T)
        monkeypatch.undo()
        np.testing.assert_array_equal(got, margin(pts) >= 0.0)
        # only mixed cells have sub-cells, and each sub-cell's own ball of
        # candidates decides more points: 19-25% reach the margin here,
        # 25-32% with every candidate of the cell
        cells = sampler._verdicts.reshape(-1)
        assert sampler._mixed.tolist() == \
            np.flatnonzero(cells == gokart.sim._MIXED).tolist()
        assert sampler._sub_verdicts.shape == (len(sampler._mixed), 5, 5)
        assert sum(exact) < 0.3 * len(pts)

    def test_pixels_exactly_on_the_boundary_are_inside(self):
        # the pixel columns 2 m left and right of the kart lie exactly on
        # the edges at w = 2 m: margin 0, which counts as track
        sampler = TrackSampler(straight_track(n=30, width=2.0))
        bev = BevConfig()
        pose = VehicleState(x=30.0, y=0.0, psi=0.0)
        world = body_to_world(30.0, 0.0, 0.0,
                              np.column_stack(_bev_body_points(bev)))
        on_line = sampler.lateral_margin(world) == 0.0
        assert on_line.sum() == 2 * bev.height
        got = bev_grass_mask(sampler, pose, bev)
        np.testing.assert_array_equal(got,
                                      bev_grass_mask_oracle(sampler, pose, bev))
        assert not got.reshape(-1)[on_line].any()

    def test_pixel_world_points_are_body_to_world_bit_for_bit(self,
                                                            monkeypatch):
        # the mask's row and column terms against body_to_world's
        # arithmetic on every pixel, at headings in every quadrant
        sampler = TrackSampler(oval_track())
        bev = BevConfig()
        points = np.column_stack(_bev_body_points(bev))
        asked, inside = [], TrackSampler.inside

        def record(self, x, y):
            asked.append((x, y))
            return inside(self, x, y)

        monkeypatch.setattr(TrackSampler, "inside", record)
        rng = np.random.default_rng(5)
        for psi in [0.0, math.pi, -0.5 * math.pi,
                    *rng.uniform(-math.pi, math.pi, 12).tolist()]:
            pose = VehicleState(x=float(rng.uniform(-30.0, 30.0)),
                                y=float(rng.uniform(-25.0, 25.0)), psi=psi)
            bev_grass_mask(sampler, pose, bev)
            want = body_to_world(pose.x, pose.y, pose.psi, points)
            for got, col in zip(asked.pop(), want.T):
                np.testing.assert_array_equal(got.view(np.uint64),
                                              col.copy().view(np.uint64))

    def test_masks_do_not_depend_on_what_was_asked_before(self):
        track = oval_track()
        bev = BevConfig()
        rng = np.random.default_rng(11)
        first = TrackSampler(track)
        n = len(first.points)
        poses = [pose_near(first, int(rng.integers(n)),
                           rng.uniform(-12.0, 12.0),
                           rng.uniform(-math.pi, math.pi)) for _ in range(8)]
        forward = [bev_grass_mask(first, p, bev) for p in poses]
        backward = TrackSampler(track)
        reverse = [bev_grass_mask(backward, p, bev) for p in poses[::-1]]
        for i, pose in enumerate(poses):
            fresh = bev_grass_mask(TrackSampler(track), pose, bev)
            np.testing.assert_array_equal(forward[i], fresh)
            np.testing.assert_array_equal(reverse[-1 - i], fresh)


def bound_inputs(sampler, centre):
    """The distance from each cell centre to its nearest sample, that
    sample's farthest-corner distance and the ball radius, computed as
    `TrackSampler._classify` computes them for its cells."""
    h = 0.5 * sampler._cell
    dist, near = sampler._tree.query(centre)
    corner = np.abs(sampler.points[near] - centre) + h
    reach = np.hypot(corner[:, 0], corner[:, 1])
    return dist, reach, reach + math.sqrt(2.0) * h + 4.0 * sampler._eps


def cells_near_the_track(sampler, rng, count):
    """Centres of cells off the grid: half with a corner within 2 mm of a
    boundary between two samples and the cell on any side of it, half
    anywhere up to 10 m past the widest boundary, and on an open track
    some past either end."""
    n, h = len(sampler.points), 0.5 * sampler._cell
    i = rng.integers(n if sampler.closed else n - 1, size=count)
    base = sampler.points[i] + rng.random((count, 1)) * (
        sampler.points[(i + 1) % n] - sampler.points[i])
    tx, ty = sampler.tangents[i].T
    left = rng.random(count) < 0.5
    edge = np.where(left, sampler.w_left[i], -sampler.w_right[i])
    half = count // 2
    offset = np.concatenate([
        edge[:half] + rng.uniform(-2e-3, 2e-3, half),
        rng.uniform(-1.0, 1.0, count - half) * (sampler._w_max + 10.0)])
    corner = base + offset[:, None] * np.column_stack([-ty, tx])
    centres = [corner + h * rng.choice([-1.0, 1.0], size=(count, 2))]
    if not sampler.closed:
        for end, ahead in ((0, -1.0), (n - 1, 1.0)):
            along = ahead * rng.uniform(0.0, 6.0, 200)
            across = rng.uniform(-1.0, 1.0, 200) * (sampler._w_max + 2.0)
            (x, y), (tx, ty) = sampler.points[end], sampler.tangents[end]
            centres.append(np.column_stack([x + along * tx - across * ty,
                                            y + along * ty + across * tx]))
    return np.concatenate(centres)


def cell_points(sampler, centre, k=9):
    """A k x k lattice over each cell, its edges and corners included,
    plus each corner one float outward and inward: (cells, points, 2)."""
    h = 0.5 * sampler._cell
    u = np.linspace(-h, h, k)
    grid = np.stack(np.meshgrid(u, u), axis=-1).reshape(-1, 2)
    lattice = centre[:, None] + grid
    corners = lattice[:, [0, k - 1, -k, -1]]
    return np.concatenate([lattice, np.nextafter(corners, np.inf),
                           np.nextafter(corners, -np.inf)], axis=1)


BOUND_TRACKS = [oval_track(), wiggly_track(), hairpin_track(),
                hairpin_track(closed=False), straight_track(),
                straight_track(heading=math.pi / 4), varying_width_track()]
BOUND_IDS = ["oval", "wiggly", "hairpin", "open hairpin", "open straight",
             "diagonal open straight", "varying width"]


class TestNearestSampleBounds:
    """`TrackSampler._bounds` certifies a cell from the sample nearest its
    centre alone; `lateral_margin` must agree with every verdict it gives,
    at every point of the cell."""

    @pytest.mark.parametrize("track", BOUND_TRACKS, ids=BOUND_IDS)
    def test_certified_cells_take_the_margin_sign(self, track):
        sampler = TrackSampler(track)
        centre = cells_near_the_track(sampler, np.random.default_rng(21),
                                      3000)
        verdict = sampler._bounds(centre, *bound_inputs(sampler, centre))
        certified = verdict != gokart.sim._UNKNOWN
        pts = cell_points(sampler, centre[certified])
        margin = sampler.lateral_margin(pts.reshape(-1, 2)).reshape(
            pts.shape[:2])
        track_cell = verdict[certified] == gokart.sim._TRACK
        assert (margin[track_cell] > 0.0).all()
        assert (margin[~track_cell] < 0.0).all()
        # both bounds fire, and near the boundary cells go to the ball
        assert track_cell.sum() >= 50 and (~track_cell).sum() >= 100
        assert (~certified[:1500]).sum() >= 500

    @pytest.mark.parametrize("track", BOUND_TRACKS, ids=BOUND_IDS)
    def test_ball_verdicts_still_certify(self, track, monkeypatch):
        # grid cells around the track: a cell the ball alone certifies
        # takes the same verdict, and one it leaves mixed may be certified
        # by the bounds
        sampler = TrackSampler(track)
        centre = cells_near_the_track(sampler, np.random.default_rng(22),
                                      2000)
        nx = sampler._verdicts.shape[1]
        ix, iy = ((centre - sampler._grid_origin) // sampler._cell).T \
            .astype(np.intp)
        keys = np.unique(iy * nx + ix)
        cx, cy = keys % nx, keys // nx
        got = sampler._classify(cx, cy)
        ball = TrackSampler(track)
        monkeypatch.setattr(ball, "_bounds", lambda centre, *_: np.zeros(
            len(centre), dtype=np.int8))
        want = ball._classify(cx, cy)
        decided = want != gokart.sim._MIXED
        np.testing.assert_array_equal(got[decided], want[decided])
        assert (got[~decided] != gokart.sim._UNKNOWN).all()

    def test_non_finite_distance_never_certifies(self):
        for track in (oval_track(), straight_track()):
            sampler = TrackSampler(track)
            centre = sampler.points[[3, 5, 7]]
            for dist in (np.inf, -np.inf, np.nan):
                # a reach that would certify track, and a distance that
                # would certify grass, were the distance finite
                verdict = sampler._bounds(centre, np.full(3, dist),
                                          np.zeros(3), np.full(3, np.inf))
                assert (verdict == gokart.sim._UNKNOWN).all()
            far = sampler._bounds(centre[:1], np.array([1e6]), np.array([1e6]),
                                  np.array([1e6]))
            assert far[0] == (gokart.sim._GRASS if track.closed
                              else gokart.sim._UNKNOWN)

    def test_no_grass_bound_without_a_positive_cosine(self):
        sampler = TrackSampler(oval_track())
        centre = np.zeros((1, 2))
        args = (np.array([100.0]), np.array([100.0]), np.array([100.0]))
        assert sampler._bounds(centre, *args)[0] == gokart.sim._GRASS
        sampler._cos = 0.0
        assert sampler._bounds(centre, *args)[0] == gokart.sim._UNKNOWN

    @pytest.mark.parametrize("track", [oval_track(), varying_width_track()],
                             ids=["oval", "varying width"])
    def test_thresholds_keep_their_slack(self, track):
        # a few eps past each bound's exact threshold certifies nothing
        sampler = TrackSampler(track)
        eps, centre = sampler._eps, np.zeros((1, 2))
        far = np.array([np.inf])

        def verdict(dist, reach):
            return sampler._bounds(centre, np.array([dist]),
                                   np.array([reach]), far)[0]

        w_min, w_max = sampler._w_min, sampler._w_max
        assert verdict(0.0, w_min - 2.0 * eps) == gokart.sim._UNKNOWN
        assert verdict(0.0, w_min - 8.0 * eps) == gokart.sim._TRACK
        # r^2 - L(r)^2 = (w_max + 2 eps)^2, L(r) = a + b r: |lat| would
        # exceed w_max at the distance r plus the half diagonal
        a = 0.5 * sampler._step / sampler._cos
        b = sampler._sin / sampler._cos
        target = (w_max + 2.0 * eps) ** 2
        r = (a * b + math.sqrt((a * b) ** 2 + (1.0 - b * b) * (a * a + target))) \
            / (1.0 - b * b)
        diagonal = math.sqrt(2.0) * 0.5 * sampler._cell
        assert verdict(r + diagonal, 1e6) == gokart.sim._UNKNOWN
        assert verdict(r + diagonal + 20.0 * eps, 1e6) == gokart.sim._GRASS

    def test_most_benchmark_cells_skip_the_ball(self, tmp_path, monkeypatch):
        # the benchmark's 10 s FTG run on the oval: at least 85% of the
        # cells it classifies are certified without a ball query
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 10.0\nseed = 7\nsensors.gnss_sigma = 0.02\n"
            "sensors.gnss_dropout = 10.0:12.0\n")
        bounds, verdicts = TrackSampler._bounds, []

        def record(sampler, *args):
            verdicts.append(bounds(sampler, *args))
            return verdicts[-1]

        monkeypatch.setattr(TrackSampler, "_bounds", record)
        run_closed_loop(load_scenario(tmp_path / "s.txt"))
        verdict = np.concatenate(verdicts)
        assert len(verdict) > 5000
        assert (verdict != gokart.sim._UNKNOWN).mean() >= 0.85


class TestScenarioConfig:
    def test_parse_and_defaults(self):
        raw = parse_scenario_text("""
            # comment line
            mode = ftg
            duration_s = 12.5
            ftg.epsilon = 3.0   # inline comment
            sensors.gnss_dropout = 1.0:2.0;5.0:6.0
        """)
        cfg = build_scenario(raw)
        assert cfg.mode == "ftg"
        assert cfg.duration_s == 12.5
        assert cfg.ftg.epsilon == 3.0
        assert cfg.sensors.gnss_dropout_windows == ((1.0, 2.0), (5.0, 6.0))

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario key"):
            build_scenario({"no.such.key": "1"})

    @pytest.mark.parametrize("key", ["bev.vehicle_px", "track_closed",
                                     "sensors.gnss_dropout_windows"])
    def test_unsettable_and_field_named_keys_rejected(self, key):
        with pytest.raises(ScenarioError, match="unknown scenario key"):
            build_scenario({key: "1"})

    @pytest.mark.parametrize("key", sorted(_SCENARIO_KEYS))
    def test_default_as_text_round_trips(self, key):
        default = build_scenario({})
        section, attr, _ = _SCENARIO_KEYS[key]
        value = getattr(default if section is None
                        else getattr(default, section), attr)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = str(value).lower()
        elif isinstance(value, tuple):
            text = ";".join(f"{a!r}:{b!r}" for a, b in value)
        else:
            text = str(value)
        assert build_scenario({key: text}) == default

    def test_bad_value_reported(self):
        with pytest.raises(ScenarioError, match="duration_s"):
            build_scenario({"duration_s": "soon"})

    def test_seed_flows_into_sensors(self):
        cfg = build_scenario({"seed": "42"})
        assert cfg.sensors.seed == 42

    def test_explicit_sensor_seed_wins(self):
        cfg = build_scenario({"seed": "42", "sensors.seed": "7"})
        assert cfg.sensors.seed == 7

    def test_invalid_mode(self):
        with pytest.raises(ScenarioError, match="mode"):
            build_scenario({"mode": "drift"})

    def test_paths_resolved_against_scenario_dir(self, tmp_path):
        (tmp_path / "s.txt").write_text("track = oval.csv\n")
        cfg = load_scenario(tmp_path / "s.txt")
        assert cfg.track == str((tmp_path / "oval.csv").resolve())


class TestClosedLoop:
    def _oval_scenario(self, tmp_path, extra=""):
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "scenario.txt").write_text(
            "mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 45\nseed = 7\n" + extra)
        return load_scenario(tmp_path / "scenario.txt")

    def test_pursuit_oval_completes_clean(self, tmp_path):
        report = run_closed_loop(self._oval_scenario(tmp_path))
        assert report.boundary_violations == 0
        assert report.safety_stops == 0
        assert report.lap_time_s is not None
        assert report.max_cross_track_error_m <= 0.5

    def test_deterministic_logs(self, tmp_path):
        scenario = self._oval_scenario(tmp_path)
        a = run_closed_loop(scenario)
        b = run_closed_loop(self._oval_scenario(tmp_path))
        assert a.logs == b.logs
        assert a.to_json() == b.to_json()

    def test_numpy_dt_logs_like_a_float(self, tmp_path):
        # a scenario built in code may carry a numpy dt; the loader always
        # gives a float, and every log must read the same either way
        scenario = dataclasses.replace(self._oval_scenario(tmp_path),
                                       duration_s=0.5)
        floats = run_closed_loop(scenario)
        numpy = run_closed_loop(dataclasses.replace(scenario,
                                                    dt=np.float64(0.01)))
        assert len(floats.logs["commands.csv"].splitlines()) > 2
        assert numpy.logs == floats.logs

    def test_circle_cross_track_bound(self, tmp_path):
        write_track_csv(tmp_path / "circle.csv",
                        circle_track(n=63, radius=20.0, width=1.9))
        (tmp_path / "s.txt").write_text(
            "mode = pursuit\ntrack = circle.csv\ntrack.closed = true\n"
            "duration_s = 40\nseed = 1\n"
            "sensors.gnss_sigma = 0.0\nsensors.imu_sigma_yaw = 0.0\n")
        report = run_closed_loop(load_scenario(tmp_path / "s.txt"))
        assert report.max_cross_track_error_m <= 0.5
        assert report.boundary_violations == 0

    def test_ftg_oval_runs_without_safety_stop(self, tmp_path):
        write_track_csv(tmp_path / "oval.csv", oval_track(width=4.0))
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 10\nseed = 3\n")
        report = run_closed_loop(load_scenario(tmp_path / "s.txt"))
        assert report.safety_stops == 0
        assert report.boundary_violations == 0
        assert "scans.csv" in report.logs

    def test_kill_switch_stops_vehicle(self, tmp_path):
        scenario = self._oval_scenario(tmp_path, "kill_at_s = 10\n")
        scenario.duration_s = 20.0
        report = run_closed_loop(scenario)
        import csv as csvmod
        import io
        rows = list(csvmod.DictReader(io.StringIO(report.logs["poses.csv"])))
        v_end = float(rows[-1]["v_mps"])
        assert v_end < 0.05

    def test_zero_duration_scenario(self, tmp_path):
        scenario = self._oval_scenario(tmp_path)
        scenario.duration_s = 0.0
        report = run_closed_loop(scenario)
        assert report.ticks == 0
        assert report.max_cross_track_error_m == 0.0
        assert report.lap_time_s is None

    def test_every_row_of_a_tick_starts_with_its_time_cell(self, tmp_path):
        # at a 7 ms tick many times k * dt are 18-19 characters long
        scenario = self._oval_scenario(tmp_path)
        scenario.dt, scenario.duration_s = 0.007, 1.0
        report = run_closed_loop(scenario)
        cells = [repr(k * 0.007) for k in range(report.ticks)]
        assert len(cells) == 143 and "0.11900000000000001" in cells
        first = {name: [row.split(",", 1)[0] for row in log.splitlines()[1:]]
                 for name, log in report.logs.items()}
        assert first["poses.csv"] == cells
        # a command frame on every third tick, then the three feedback frames
        assert first["frames.csv"] == [cell for k, cell in enumerate(cells)
                                       for _ in range(4 if k % 3 == 0 else 3)]
        # the first fix is at 0 s and the planner runs on every seventh tick
        assert first["commands.csv"] == cells[::7]

    def test_frame_sequence_bytes(self, tmp_path):
        # 600 ticks and a command frame every other tick: both counters wrap
        scenario = self._oval_scenario(tmp_path)
        scenario.duration_s = 6.0
        report = run_closed_loop(scenario)
        rows = [row.split(",")
                for row in report.logs["frames.csv"].splitlines()[1:]]
        sequence = [(can_id, bytes.fromhex(payload)[7])
                    for _, can_id, payload in rows]
        # byte 7 of the n-th command frame is n mod 256
        assert [seq for can_id, seq in sequence if can_id == "100"] \
            == [n % 256 for n in range(300)]
        # the three feedback frames of tick k, in id order, carry k mod 256
        assert [item for item in sequence if item[0] != "100"] \
            == [(can_id, k % 256) for k in range(600)
                for can_id in ("201", "202", "203")]

    def test_gnss_dropout_run_survives(self, tmp_path):
        scenario = self._oval_scenario(
            tmp_path, "sensors.gnss_dropout = 10.0:12.0\n")
        report = run_closed_loop(scenario)
        assert report.boundary_violations == 0

    def test_first_fix_reported(self, tmp_path):
        scenario = self._oval_scenario(tmp_path)
        scenario.duration_s = 1.0
        report = run_closed_loop(scenario)
        assert report.first_fix_s == 0.0
        assert '"first_fix_s": 0.0' in report.to_json()

    def test_never_localized_has_no_first_fix(self, tmp_path):
        scenario = self._oval_scenario(tmp_path,
                                       "sensors.gnss_dropout = 0:100\n")
        scenario.duration_s = 2.0
        report = run_closed_loop(scenario)
        assert report.first_fix_s is None
        assert '"first_fix_s": null' in report.to_json()

    @pytest.mark.parametrize("seed", [13, 15, 16])
    def test_benchmark_pursuit_with_a_consistent_filter(self, tmp_path, seed):
        # the benchmark's pursuit scenario on the seeds that left 0.5 m when
        # the filter added 0.1 per predict; a consistent filter's NIS over
        # [x, y, psi] averages 3
        scenario = self._oval_scenario(
            tmp_path, f"seed = {seed}\nsensors.gnss_sigma = 0.02\n"
            "sensors.gnss_dropout = 10.0:12.0\n")
        report = run_closed_loop(scenario)
        assert report.max_cross_track_error_m <= 0.5
        assert 2.0 <= report.nis_mean <= 4.0

    def _dropout_run(self, tmp_path, seconds=13.0):
        # the benchmark's sensors, across the 10-12 s GNSS dropout
        scenario = self._oval_scenario(
            tmp_path, "sensors.gnss_sigma = 0.02\n"
            "sensors.gnss_dropout = 10.0:12.0\n")
        scenario.duration_s = seconds
        return scenario

    def test_nis_over_the_updates_with_a_fix(self, tmp_path, monkeypatch):
        scenario = self._dropout_run(tmp_path)
        fixed, dropped = [], []

        def recording(state, u, gnss, imu, origin, params):
            out = fuse_step(state, u, gnss, imu, origin, params)
            (fixed if gnss is not None else dropped).append(out.nis)
            return out

        monkeypatch.setattr(gokart.sim, "fuse_step", recording)
        report = run_closed_loop(scenario)
        # 10 Hz GNSS: 130 fixes in 13 s, the first anchors the filter and 21
        # fall in the dropout (10.0 to 12.0 s inclusive); 100 Hz IMU
        assert len(fixed) == 130 - 1 - 21 and len(dropped) == 1300 - 1 - 108
        assert report.nis_mean == sum(fixed) / len(fixed)
        assert 0.0 < report.nis_mean < math.inf
        assert report.nis_over_chi2_95 == (
            sum(nis > CHI2_3_95 for nis in fixed) / len(fixed))
        payload = json.loads(report.to_json())
        assert payload["nis_mean"] == report.nis_mean
        assert payload["nis_over_chi2_95"] == report.nis_over_chi2_95

    def test_pursuit_logs_match_the_numpy_filter(self, tmp_path,
                                                 monkeypatch):
        # the Python-float filter against fuse_step_oracle in the loop: the
        # CAN quantization absorbs the filters' last-bit differences, so
        # the plant sees the same commands
        scenario = self._dropout_run(tmp_path)
        floats = run_closed_loop(scenario)
        monkeypatch.setattr(gokart.sim, "fuse_step", fuse_step_oracle)
        numpy = run_closed_loop(scenario)
        assert floats.logs.keys() == numpy.logs.keys()
        assert floats.logs["frames.csv"] == numpy.logs["frames.csv"]
        got, want = (np.array([row.split(",") for row in
                               run.logs["poses.csv"].splitlines()])
                     for run in (floats, numpy))
        assert got.shape == want.shape == (1301, 9)
        truth = [0, 1, 2, 3, 4, 8]  # t, x, y, psi, v, cross-track
        np.testing.assert_array_equal(got[:, truth], want[:, truth])
        est, est_want = got[1:, 5:8].astype(float), want[1:, 5:8].astype(float)
        assert np.all(mean_gap(est, est_want)
                      <= FUSE_RTOL * (1.0 + np.abs(est_want)))
        report, oracle = (json.loads(run.to_json()) for run in (floats, numpy))
        for key in ("nis_mean", "nis_over_chi2_95"):
            assert abs(report.pop(key) - oracle.pop(key)) <= FUSE_RTOL
        assert report == oracle

    def test_ftg_logs_match_oracle_stages(self, tmp_path, monkeypatch):
        # the memoized, separable, two-channel frame path against the
        # straightforward stages, over a short FTG run; exact logs, so the
        # check holds on any platform without pinning a digest
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 2\nseed = 7\nsensors.gnss_sigma = 0.02\n")
        scenario = load_scenario(tmp_path / "s.txt")
        fast = run_closed_loop(scenario)
        # the oracles call only oracle stages below them
        monkeypatch.setattr(gokart.sim, "render_scene", render_scene_oracle)
        monkeypatch.setattr(gokart.sim, "detect_boundaries",
                            detect_boundaries_oracle)
        slow = run_closed_loop(scenario)
        assert slow.logs["scans.csv"].count("\n") > 361 * 10
        assert fast.logs == slow.logs
        assert fast.to_json() == slow.to_json()

    @staticmethod
    def _scan_rows(tmp_path, monkeypatch):
        """A 1 s FTG run's scans.csv rows and the scans they were made of."""
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\nduration_s = 1\nseed = 7\n")
        scans = []
        detect = gokart.sim.detect_boundaries

        def record(*args):
            scans.append(detect(*args)[0])
            return scans[-1], None, None

        monkeypatch.setattr(gokart.sim, "detect_boundaries", record)
        report = run_closed_loop(load_scenario(tmp_path / "s.txt"))
        header, *rows = report.logs["scans.csv"].splitlines()
        assert header == "t_s,angle_rad,distance_m"
        assert len(scans) == 10 and len(rows) == 361 * len(scans)
        return rows, scans

    def test_scan_rows_format_every_ray(self, tmp_path, monkeypatch):
        # scans.csv reads t, angle and distance of each ray as repr() of
        # the scan's values as Python floats
        rows, scans = self._scan_rows(tmp_path, monkeypatch)
        want = []
        for k, scan in enumerate(scans):
            t = float(rows[361 * k].split(",")[0])
            want += [f"{t!r},{a!r},{d!r}" for a, d in
                     zip(scan.angles.tolist(), scan.distances.tolist())]
        assert rows == want

    def test_cached_scan_cells_equal_plain_repr(self, tmp_path, monkeypatch):
        # distances repeated within and across scans, some one rounding
        # apart: each cached cell is repr() of its distance
        rng = np.random.default_rng(4)
        pool = [0.1, 0.2, 0.1 + 0.2, 0.3, math.nextafter(0.3, 1.0), 7.25,
                20.0, 5e-324]
        scans = [DepthScan(distances=rng.choice(pool, 361),
                           angles=scan_angles(), max_range=20.0)
                 for _ in range(10)]
        feed = iter(scans)
        monkeypatch.setattr(gokart.sim, "detect_boundaries",
                            lambda *args: (next(feed), None, None))
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\nduration_s = 1\nseed = 7\n")
        report = run_closed_loop(load_scenario(tmp_path / "s.txt"))
        rows = report.logs["scans.csv"].splitlines()[1:]
        want = []
        for k, scan in enumerate(scans):
            t = 10 * k * 0.01
            want += [f"{t!r},{a!r},{d!r}" for a, d in
                     zip(scan.angles.tolist(), scan.distances.tolist())]
        assert rows == want

    def test_scan_rows_are_plain_numbers(self, tmp_path, monkeypatch):
        # every cell parses with float() and gives back the scan's value
        rows, scans = self._scan_rows(tmp_path, monkeypatch)
        cells = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert cells.shape == (361 * len(scans), 3)
        # a frame every tenth 0.01 s physics tick, stamped k * dt
        ticks = 10 * np.arange(len(scans))
        np.testing.assert_array_equal(cells[:, 0], np.repeat(ticks * 0.01, 361))
        np.testing.assert_array_equal(
            cells[:, 1], np.concatenate([scan.angles for scan in scans]))
        np.testing.assert_array_equal(
            cells[:, 2], np.concatenate([scan.distances for scan in scans]))

    @pytest.mark.parametrize("mode,duration", [("pursuit", 13), ("ftg", 2)])
    def test_logs_match_full_searches_and_vector_rk4(self, tmp_path,
                                                     monkeypatch, mode,
                                                     duration):
        # scalar RK4 against the vector RK4; the pursuit run covers the
        # 10-12 s GNSS dropout
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            f"mode = {mode}\ntrack = oval.csv\ntrack.closed = true\n"
            f"duration_s = {duration}\nseed = 7\nsensors.gnss_sigma = 0.02\n"
            "sensors.gnss_dropout = 10.0:12.0\n")
        scenario = load_scenario(tmp_path / "s.txt")
        fast = run_closed_loop(scenario)
        monkeypatch.setattr(gokart.sim, "bicycle_step", bicycle_step_oracle)
        slow = run_closed_loop(scenario)
        assert fast.ticks == duration * 100
        assert fast.logs == slow.logs
        assert fast.to_json() == slow.to_json()

    @pytest.mark.parametrize("track,text,expected", [
        ("oval", "mode = pursuit\nduration_s = 13\nseed = 7\n"
         "sensors.gnss_sigma = 0.02\nsensors.gnss_dropout = 10.0:12.0\n",
         (0, False)),
        ("oval", "mode = ftg\nduration_s = 2\nseed = 7\n"
         "sensors.gnss_sigma = 0.02\nsensors.gnss_dropout = 10.0:12.0\n",
         (0, False)),
        ("straight", "mode = pursuit\ntrack.closed = false\n"
         "duration_s = 20\nseed = 2\n", (1, True)),
    ], ids=["pursuit across the dropout", "ftg", "open straight"])
    def test_score_recomputed_from_the_poses(self, tmp_path, track, text,
                                             expected):
        # each tick scored on its own from the run's poses.csv: the
        # cross-track error and nearest vertex by the brute-force oracle,
        # the boundary test one point at a time, and progress as the sum
        # of nearest-vertex index steps, a lap every vertex once
        write_track_csv(tmp_path / "oval.csv", oval_track())
        write_track_csv(tmp_path / "straight.csv",
                        straight_track(n=20, spacing=2.0, width=3.0))
        (tmp_path / "s.txt").write_text(f"track = {track}.csv\n{text}")
        scenario = load_scenario(tmp_path / "s.txt")
        report = run_closed_loop(scenario)
        track = read_track_csv(scenario.track, scenario.track_closed,
                               scenario.vehicle_half_width)
        sampler = TrackSampler(track)
        if scenario.mode == "ftg":
            ref, xy = sampler, sampler.points
        else:
            ref = prepare_raceline(track, scenario)
            xy = ref.xy
        n = len(xy)
        rows = [row.split(",")
                for row in report.logs["poses.csv"].splitlines()[1:]]
        assert len(rows) == report.ticks
        cross = [float(row[-1]) for row in rows]
        violations, was_outside = 0, False
        progress, lap_time, prev = 0, None, None
        for row, got in zip(rows, cross):
            x, y = float(row[1]), float(row[2])
            want, near = polyline_distance_oracle(xy, (x, y), ref.closed)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            outside = sampler.lateral_margin(np.array([[x, y]]))[0] < 0.0
            violations += outside and not was_outside
            was_outside = outside
            if prev is not None:
                step = near - prev
                if ref.closed:  # the shorter way around
                    step = (step + n // 2) % n - n // 2
                progress += step
            if lap_time is None and progress >= (n if ref.closed else n - 1):
                lap_time = float(row[0])
            prev = near
        assert (violations, lap_time is not None) == expected
        assert report.boundary_violations == violations
        assert report.lap_time_s == lap_time
        assert report.max_cross_track_error_m.hex() == max(cross).hex()
        assert report.mean_abs_cross_track_error_m.hex() \
            == float(np.mean(cross)).hex()

    def test_loop_and_controller_share_one_polyline(self, tmp_path,
                                                    monkeypatch):
        scenario = self._oval_scenario(tmp_path)
        scenario.duration_s = 0.5
        queried = {"loop": set(), "controller": set()}
        search = gokart.sim.polyline_distance
        nearest = Polyline.nearest_vertex

        def loop_search(ref, pts):
            queried["loop"].add(id(ref))
            return search(ref, pts)

        def controller_search(ref, x, y):
            queried["controller"].add(id(ref))
            return nearest(ref, x, y)

        monkeypatch.setattr(gokart.sim, "polyline_distance", loop_search)
        monkeypatch.setattr(Polyline, "nearest_vertex", controller_search)
        built = []
        init = Polyline.__init__

        def counted(self, *args, **kwargs):
            built.append(id(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(Polyline, "__init__", counted)
        run_closed_loop(scenario)
        assert queried["loop"] == queried["controller"] == set(built)
        assert len(built) == 1

    def test_pursuit_past_the_end_of_an_open_raceline(self, tmp_path):
        # a 38 m open straight runs out in about 8 s: one stop, its zero
        # command row, then no more planning
        write_track_csv(tmp_path / "straight.csv",
                        straight_track(n=20, spacing=2.0, width=3.0))
        (tmp_path / "s.txt").write_text(
            "mode = pursuit\ntrack = straight.csv\ntrack.closed = false\n"
            "duration_s = 20\nseed = 2\n")
        report = run_closed_loop(load_scenario(tmp_path / "s.txt"))
        assert report.safety_stops == 1
        rows = report.logs["commands.csv"].splitlines()[1:]
        stops = [i for i, row in enumerate(rows)
                 if row.split(",", 1)[1] == "0.0,0.0,,"]
        assert stops == [len(rows) - 1]
        assert float(rows[-1].split(",")[0]) < 19.0

    def test_ftg_plans_on_shared_controller_and_perception_ticks(
            self, tmp_path):
        # 20 Hz control and 7 Hz perception at dt = 0.01 are every 5 and
        # every 14 ticks; FTG plans on their common multiples, every 70
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 3\nseed = 7\nrates.perception_hz = 7\n")
        report = run_closed_loop(load_scenario(tmp_path / "s.txt"))
        times = [repr(k * 0.01) for k in range(0, 300, 70)]
        commands = report.logs["commands.csv"].splitlines()[1:]
        assert [row.split(",")[0] for row in commands] == times
        scans = report.logs["scans.csv"].splitlines()[1:]
        assert [row.split(",")[0] for row in scans[::361]] == times
        assert len(scans) == 361 * len(times)

    def test_missing_track_errors(self, tmp_path):
        (tmp_path / "s.txt").write_text("mode = pursuit\nduration_s = 1\n")
        with pytest.raises(ScenarioError):
            run_closed_loop(load_scenario(tmp_path / "s.txt"))
