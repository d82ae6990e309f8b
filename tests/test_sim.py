import math

import numpy as np
import pytest

from gokart.localization import GeoFix, project_to_local
from gokart.perception import BevConfig, PerceptionConfig, detect_boundaries, \
    scan_angles
from gokart.sim import (_SCENARIO_KEYS, GnssSimulator, ImuSimulator,
                        ScenarioError, SensorConfig, TrackSampler,
                        VehicleParams, VehicleState, bev_grass_mask,
                        bicycle_step, build_scenario,
                        default_camera_homography, load_scenario,
                        parse_scenario_text, render_scene, run_closed_loop)
import gokart.sim
from helpers import (alternating, circle_track, detect_boundaries_oracle,
                     geometric_scan_oracle, oval_track, render_scene_oracle,
                     straight_track, write_track_csv)


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
