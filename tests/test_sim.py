import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gokart.geometry import Polyline, body_to_world
from gokart.localization import GeoFix, fuse_step, project_to_local
from gokart.perception import BevConfig, PerceptionConfig, detect_boundaries, \
    scan_angles
from gokart.sim import (_SCENARIO_KEYS, CHI2_3_95, GnssSimulator,
                        ImuSimulator, ScenarioError, SensorConfig, TrackSampler,
                        VehicleParams, VehicleState, _bev_body_points,
                        bev_grass_mask, bicycle_step, build_scenario,
                        default_camera_homography, load_scenario,
                        parse_scenario_text, prepare_raceline, render_scene,
                        run_closed_loop)
from gokart.track import read_track_csv
import gokart.sim
from helpers import (FUSE_RTOL, alternating, bev_grass_mask_oracle,
                     bicycle_step_oracle, circle_track,
                     detect_boundaries_oracle, fuse_step_oracle,
                     geometric_scan_oracle, hairpin_track, mean_gap,
                     oval_track, polyline_distance_oracle,
                     render_scene_oracle, straight_track, wiggly_track,
                     write_track_csv)


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


class TestTrackSampler:
    def test_inside_and_outside(self):
        sampler = TrackSampler(straight_track(width=2.0))
        pts = np.array([[5.0, 0.0], [5.0, 1.5], [5.0, -1.5], [5.0, 2.5],
                        [5.0, -2.5]])
        np.testing.assert_array_equal(sampler.inside(pts),
                                      [True, True, True, False, False])

    def test_beyond_open_ends_is_outside(self):
        sampler = TrackSampler(straight_track(n=12, spacing=2.0, width=2.0))
        assert not sampler.inside(np.array([[-3.0, 0.0]]))[0]
        assert not sampler.inside(np.array([[25.0, 0.0]]))[0]

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
        assert len(sampler.s) == len(sampler.points)


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
        other = BevConfig(width=120, height=150, meters_per_px=0.12,
                          vehicle_px=(60.0, 140.0))
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
        masks, exact = [], []
        mask = gokart.sim.bev_grass_mask
        margin = TrackSampler.lateral_margin

        def record(sampler, pose, bev):
            masks.append((sampler, pose, bev, mask(sampler, pose, bev)))
            return masks[-1][-1]

        def count(sampler, pts):  # points that reach the margin's query
            if not isinstance(pts, tuple):
                exact.append(len(pts))
            return margin(sampler, pts)

        monkeypatch.setattr(gokart.sim, "bev_grass_mask", record)
        monkeypatch.setattr(TrackSampler, "lateral_margin", count)
        run_closed_loop(scenario)
        pixels = sum(m.size for *_, m in masks)
        assert len(masks) == 100
        # most pixels are decided by their cell: 7.7% reach the margin
        assert sum(exact) < 0.15 * pixels
        monkeypatch.undo()
        for sampler, pose, bev, got in masks:
            np.testing.assert_array_equal(
                got, bev_grass_mask_oracle(sampler, pose, bev))

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

    def test_pixels_exactly_on_the_boundary_are_inside(self):
        # the pixel columns 2 m left and right of the kart lie exactly on
        # the edges at w = 2 m: margin 0, which counts as track
        sampler = TrackSampler(straight_track(n=30, width=2.0))
        bev = BevConfig()
        pose = VehicleState(x=30.0, y=0.0, psi=0.0)
        world = body_to_world(30.0, 0.0, 0.0, _bev_body_points(bev))
        on_line = sampler.lateral_margin(world) == 0.0
        assert on_line.sum() == 2 * bev.height
        got = bev_grass_mask(sampler, pose, bev)
        np.testing.assert_array_equal(got,
                                      bev_grass_mask_oracle(sampler, pose, bev))
        assert not got.reshape(-1)[on_line].any()

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
            (fixed if gnss is not None and gnss.valid else dropped).append(
                out.nis)
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
        # of nearest-vertex steps
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
        s = ref.s.tolist()
        rows = [row.split(",")
                for row in report.logs["poses.csv"].splitlines()[1:]]
        assert len(rows) == report.ticks
        cross = [float(row[-1]) for row in rows]
        violations, was_outside = 0, False
        progress, lap_time, prev = 0.0, None, None
        for row, got in zip(rows, cross):
            x, y = float(row[1]), float(row[2])
            want, near = polyline_distance_oracle(xy, (x, y), ref.closed)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
            outside = sampler.lateral_margin(np.array([[x, y]]))[0] < 0.0
            violations += outside and not was_outside
            was_outside = outside
            if prev is not None:
                ds = s[near] - s[prev]
                if ref.closed:
                    ds = (ds + 0.5 * ref.length) % ref.length \
                        - 0.5 * ref.length
                progress += ds
            if lap_time is None and progress >= ref.length:
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
