import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gokart
from gokart.cli import main
from gokart.fileio import parse_float, read_netpbm, write_netpbm
from gokart.localization import GeoFix, LocalPoint, local_to_geo
from gokart.perception import MIN_BLUR_SIGMA, BevConfig, ImageFormatError
from gokart.sim import (_SCENARIO_KEYS, MAX_FRAME_PIXELS, MAX_TICKS,
                        RK4_MONOTONE_LIMIT, ScenarioError,
                        TrackSampler, VehicleState, build_scenario,
                        default_camera_homography, render_scene)
from gokart.track import (MAX_WAYPOINTS, VehicleLimits, build_raceline,
                          read_raceline_csv, write_raceline_csv)
from helpers import (circle_track, oval_track, read_scan_csv, straight_track,
                     write_track_csv)


def run_cli(*argv, entry=("-m", "gokart.cli")):
    """Run `python -m gokart.cli` (or another `entry`) in a child process
    that imports the same gokart package as this one."""
    src = str(Path(gokart.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def write_homography(path, h):
    path.write_text("\n".join(" ".join(repr(float(v)) for v in row)
                              for row in h) + "\n")


class TestOptimizeRaceline:
    def test_circle_fixture_improves(self, tmp_path):
        write_track_csv(tmp_path / "circle.csv", circle_track())
        rc = main(["optimize-raceline", str(tmp_path / "circle.csv"),
                   "--out-dir", str(tmp_path / "out"),
                   "--set", "track.closed=true"])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["optimized_sum_k2"] < report["centerline_sum_k2"]
        assert report["est_lap_time_s"] > 0.0
        raceline = read_raceline_csv(tmp_path / "out" / "raceline.csv",
                                     closed=True)
        assert len(raceline) > 50

    def test_straight_open_track_stays_centered(self, tmp_path):
        write_track_csv(tmp_path / "line.csv", straight_track(n=20))
        rc = main(["optimize-raceline", str(tmp_path / "line.csv"),
                   "--out-dir", str(tmp_path / "out"),
                   "--set", "track.closed=false"])
        assert rc == 0
        raceline = read_raceline_csv(tmp_path / "out" / "raceline.csv",
                                     closed=False)
        assert np.max(np.abs(raceline.xy[:, 1])) < 1e-3

    def test_missing_column_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.csv").write_text("x_m,y_m,w_left_m\n0,0,1\n")
        rc = main(["optimize-raceline", str(tmp_path / "bad.csv")])
        assert rc == 2
        assert "w_right_m" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        rc = main(["optimize-raceline", str(tmp_path / "nope.csv")])
        assert rc == 2

    @pytest.mark.filterwarnings("error")  # numpy's overflow warnings fail it
    def test_overflowing_chord_exits_2_with_one_line(self, tmp_path, capsys):
        # a 20-point circle whose chords overflow as lengths
        rows = "".join(f"{1e156 * math.cos(k * math.pi / 10)!r},"
                       f"{1e156 * math.sin(k * math.pi / 10)!r},2,2\n"
                       for k in range(20))
        (tmp_path / "huge.csv").write_text("x_m,y_m,w_left_m,w_right_m\n"
                                           + rows)
        rc = main(["optimize-raceline", str(tmp_path / "huge.csv"),
                   "--set", "track.closed=true"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: {tmp_path / 'huge.csv'}: the chord lengths "
                       "must be finite\n")

    def test_config_file_supplies_parameters(self, tmp_path):
        write_track_csv(tmp_path / "circle.csv", circle_track())
        (tmp_path / "params.txt").write_text(
            "track.closed = true\nlimits.v_max = 3.0\n")
        rc = main(["optimize-raceline", str(tmp_path / "circle.csv"),
                   "--config", str(tmp_path / "params.txt"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        raceline = read_raceline_csv(tmp_path / "out" / "raceline.csv",
                                     closed=True)
        assert raceline.v.max() <= 3.0

    @pytest.mark.parametrize("overrides, key", [
        (["opt.reg=-1"], "opt.reg"),
        (["track.vehicle_half_width=1.9"], "track.vehicle_half_width"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, overrides,
                                        key):
        # circle_track is 1.9 m wide on each side
        write_track_csv(tmp_path / "circle.csv", circle_track())
        sets = [arg for item in overrides for arg in ("--set", item)]
        rc = main(["optimize-raceline", str(tmp_path / "circle.csv"), *sets,
                   "--set", "track.closed=true",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_reg_no_damping_regularizes_exits_1(self, tmp_path, capsys):
        # the step's system is singular under every damping: a failed
        # solve with an error line, not a traceback
        write_track_csv(tmp_path / "circle.csv", circle_track())
        rc = main(["optimize-raceline", str(tmp_path / "circle.csv"),
                   "--set", "opt.reg=1e100", "--set", "track.closed=true",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "regular" in err
        assert "Traceback" not in err

    def test_unknown_config_key_exits_2(self, tmp_path):
        write_track_csv(tmp_path / "circle.csv", circle_track())
        rc = main(["optimize-raceline", str(tmp_path / "circle.csv"),
                   "--set", "what.is.this=1"])
        assert rc == 2

    def test_repeat_runs_byte_identical(self, tmp_path):
        write_track_csv(tmp_path / "circle.csv", circle_track())
        for out in ("a", "b"):
            rc = main(["optimize-raceline", str(tmp_path / "circle.csv"),
                       "--out-dir", str(tmp_path / out),
                       "--set", "track.closed=true"])
            assert rc == 0
        assert (tmp_path / "a" / "raceline.csv").read_bytes() == \
            (tmp_path / "b" / "raceline.csv").read_bytes()
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()


class TestLocalize:
    HEADER = ("t_s,lat_rad,lon_rad,gnss_valid,gnss_var_m2,"
              "imu_yaw_rad,imu_yaw_var_rad2,v_mps,omega_radps\n")

    def test_straight_noiseless_replay(self, tmp_path):
        origin = GeoFix(0.7, -1.3)
        lines = [self.HEADER]
        for k in range(51):
            t = k * 0.1
            fix = local_to_geo(LocalPoint(2.0 * t, 0.0), origin)
            lines.append(f"{t!r},{fix.lat!r},{fix.lon!r},1,0.0,0.0,0.0,2.0,0.0\n")
        (tmp_path / "replay.csv").write_text("".join(lines))
        rc = main(["localize", str(tmp_path / "replay.csv"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "poses.csv").read_text().splitlines()
        assert rows[0] == "t_s,x_m,y_m,psi_rad,cov_xx,cov_yy,cov_pp"
        last = [float(v) for v in rows[-1].split(",")]
        assert last[1] == pytest.approx(2.0 * 5.0, abs=1e-6)
        assert last[2] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("overrides, key", [
        (["ekf.earth_radius=0"], "ekf.earth_radius"),
        (["ekf.process_noise_scale=inf"], "ekf.process_noise_scale"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, overrides,
                                        key):
        origin = GeoFix(0.7, -1.3)
        lines = [self.HEADER]
        for k in range(5):
            fix = local_to_geo(LocalPoint(0.2 * k, 0.0), origin)
            lines.append(f"{0.1 * k!r},{fix.lat!r},{fix.lon!r},1,0.0,0.0,"
                         "0.0,2.0,0.0\n")
        (tmp_path / "replay.csv").write_text("".join(lines))
        sets = [arg for item in overrides for arg in ("--set", item)]
        rc = main(["localize", str(tmp_path / "replay.csv"), *sets,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "poses.csv").exists()

    def test_empty_replay_exits_2(self, tmp_path):
        (tmp_path / "replay.csv").write_text("")
        rc = main(["localize", str(tmp_path / "replay.csv")])
        assert rc == 2

    def test_nonmonotone_exits_2(self, tmp_path):
        (tmp_path / "replay.csv").write_text(
            self.HEADER + "1.0,0,0,1,0,0,0,0,0\n0.5,0,0,1,0,0,0,0,0\n")
        rc = main(["localize", str(tmp_path / "replay.csv")])
        assert rc == 2

    def _replay(self, tmp_path, first_valid=0, spoil=None):
        """A 10-row log, dropouts before row `first_valid`; `spoil` is
        (row, column index, cell text)."""
        origin = GeoFix(0.7, -1.3)
        rows = []
        for k in range(10):
            fix = local_to_geo(LocalPoint(1.0 + 0.2 * k, 2.0), origin)
            rows.append([repr(0.1 * k), repr(fix.lat), repr(fix.lon),
                         str(int(k >= first_valid)), "1e-4", "0.1", "1e-4",
                         "2.0", "0.0"])
        if spoil:
            rows[spoil[0]][spoil[1]] = spoil[2]
        (tmp_path / "replay.csv").write_text(
            self.HEADER + "".join(",".join(row) + "\n" for row in rows))
        return ["localize", str(tmp_path / "replay.csv"),
                "--out-dir", str(tmp_path / "out")]

    def test_leading_dropouts_start_at_the_first_fix(self, tmp_path):
        assert main(self._replay(tmp_path, first_valid=3)) == 0
        rows = (tmp_path / "out" / "poses.csv").read_text().splitlines()
        assert len(rows) == 1 + 7
        assert rows[1].startswith("0.30000000000000004,0.0,0.0,0.1,")

    def test_no_valid_fix_exits_2(self, tmp_path, capsys):
        assert_exit_2_naming(capsys, self._replay(tmp_path, first_valid=10),
                             "no valid GNSS fix")
        assert not (tmp_path / "out" / "poses.csv").exists()

    @pytest.mark.parametrize("spoil, name", [
        ((5, 4, "-0.5"), "gnss_var_m2"),
        ((5, 1, "1.6"), "lat_rad"),
        ((5, 2, "-3.2"), "lon_rad"),
        ((5, 6, "-1e-4"), "imu_yaw_var_rad2"),
        ((1, 6, "-1e-4"), "imu_yaw_var_rad2"),  # before the anchor
        ((2, 1, repr(-math.pi / 2)), "lat_rad"),  # the first fix, on a pole
    ])
    def test_bad_row_exits_2_at_load(self, tmp_path, capsys, spoil, name):
        argv = self._replay(tmp_path, first_valid=2, spoil=spoil)
        assert_exit_2_naming(capsys, argv, f"replay.csv line {spoil[0] + 2}",
                             name)
        assert not (tmp_path / "out" / "poses.csv").exists()

    @pytest.mark.parametrize("spoil, t_s", [
        ((5, 7, "1e300"), "0.5"),  # v_mps overflows v * dt
        ((9, 0, "1e200"), "1e+200"),  # the last row, 1e200 s after the rest
    ])
    def test_huge_finite_numbers_exit_2_without_a_pose(self, tmp_path, capsys,
                                                       spoil, t_s):
        # finite, so the loader takes them; the filter state overflows
        argv = self._replay(tmp_path, first_valid=2, spoil=spoil)
        assert_exit_2_naming(capsys, argv, f"t_s {t_s}")
        assert not (tmp_path / "out" / "poses.csv").exists()


class TestPerceive:
    def test_synthetic_scene_produces_scan(self, tmp_path):
        track = straight_track(n=30, spacing=2.0, width=3.0)
        bev = BevConfig()
        sampler = TrackSampler(track)
        h = default_camera_homography(bev)
        pose = VehicleState(x=30.0, y=0.0, psi=0.0)
        img = render_scene(sampler, pose, h, 320, 240, bev)
        write_netpbm(tmp_path / "scene.ppm", img)
        write_homography(tmp_path / "h.txt", h)
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"), "--debug",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        scan = read_scan_csv(tmp_path / "out" / "scan.csv")
        assert len(scan.distances) == 361
        # side boundaries sit w = 3.0 m to each side of the centerline
        assert scan.distances[0] == pytest.approx(3.0, abs=0.25)
        assert scan.distances[360] == pytest.approx(3.0, abs=0.25)
        mask = read_netpbm(tmp_path / "out" / "mask.pgm", b"P5",
                           ImageFormatError)
        bev_mask = read_netpbm(tmp_path / "out" / "bev.pgm", b"P5",
                               ImageFormatError)
        assert mask.shape == (240, 320)
        assert bev_mask.shape == (bev.height, bev.width)

    def test_all_track_image_all_max_range(self, tmp_path):
        img = np.empty((240, 320, 3), dtype=np.uint8)
        img[...] = (120, 120, 120)
        write_netpbm(tmp_path / "scene.ppm", img)
        write_homography(tmp_path / "h.txt",
                         default_camera_homography(BevConfig()))
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        scan = read_scan_csv(tmp_path / "out" / "scan.csv")
        np.testing.assert_array_equal(scan.distances,
                                      BevConfig().max_range)

    def test_row_count_matches_half_degree_resolution(self, tmp_path):
        img = np.zeros((60, 80, 3), dtype=np.uint8)
        write_netpbm(tmp_path / "scene.ppm", img)
        write_homography(tmp_path / "h.txt", np.eye(3))
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"), "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "scan.csv").read_text().splitlines()
        assert len(lines) == 362  # header + 361 rays

    def test_malformed_ppm_exits_2(self, tmp_path):
        (tmp_path / "scene.ppm").write_bytes(b"P6\n4 4\n255\nxx")
        write_homography(tmp_path / "h.txt", np.eye(3))
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt")])
        assert rc == 2

    @pytest.mark.parametrize("size", ["0 0", "0 5", "5 0"])
    def test_empty_image_exits_2(self, tmp_path, capsys, size):
        # a frame without pixels would give a scan with no grass, not an error
        (tmp_path / "scene.ppm").write_bytes(f"P6\n{size}\n255\n".encode())
        write_homography(tmp_path / "h.txt", np.eye(3))
        assert_exit_2_naming(capsys, ["perceive", str(tmp_path / "scene.ppm"),
                                      str(tmp_path / "h.txt"),
                                      "--out-dir", str(tmp_path / "out")],
                             "scene.ppm")
        assert not (tmp_path / "out" / "scan.csv").exists()

    @pytest.mark.parametrize("size, radius", [((4, 9), "2"), ((9, 4), "2"),
                                              ((240, 320), "120")])
    def test_image_smaller_than_the_window_exits_2(self, tmp_path, capsys,
                                                   size, radius):
        # the opening would empty the mask: a scan with no grass, not an error
        write_netpbm(tmp_path / "scene.ppm", np.zeros((*size, 3), np.uint8))
        write_homography(tmp_path / "h.txt", np.eye(3))
        assert_exit_2_naming(capsys, ["perceive", str(tmp_path / "scene.ppm"),
                                      str(tmp_path / "h.txt"),
                                      "--set", f"perception.morph_radius={radius}",
                                      "--out-dir", str(tmp_path / "out")],
                             "perception.morph_radius",
                             f"{size[1]}x{size[0]}")
        assert not (tmp_path / "out" / "scan.csv").exists()

    @pytest.mark.parametrize("size, radius", [((5, 9), "2"), ((9, 5), "2"),
                                              ((240, 320), "119")])
    def test_image_as_small_as_the_window_runs(self, tmp_path, size, radius):
        write_netpbm(tmp_path / "scene.ppm", np.zeros((*size, 3), np.uint8))
        write_homography(tmp_path / "h.txt", np.eye(3))
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"),
                   "--set", f"perception.morph_radius={radius}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    @pytest.mark.parametrize("sigma", [repr(math.nextafter(3.0, 4.0)), "1e9",
                                       "1e300"])
    def test_blur_kernel_past_the_longer_side_exits_2(self, tmp_path, capsys,
                                                      sigma):
        # the 9x5 image holds a kernel radius ceil(3 sigma) of at most 9; a
        # huge sigma used to fail mid-run building its kernel
        write_netpbm(tmp_path / "scene.ppm", np.zeros((5, 9, 3), np.uint8))
        write_homography(tmp_path / "h.txt", np.eye(3))
        assert_exit_2_naming(capsys, ["perceive", str(tmp_path / "scene.ppm"),
                                      str(tmp_path / "h.txt"),
                                      "--set", f"perception.blur_sigma={sigma}",
                                      "--out-dir", str(tmp_path / "out")],
                             "perception.blur_sigma", "9x5")
        assert not (tmp_path / "out" / "scan.csv").exists()

    def test_blur_kernel_as_long_as_the_longer_side_runs(self, tmp_path):
        write_netpbm(tmp_path / "scene.ppm", np.zeros((5, 9, 3), np.uint8))
        write_homography(tmp_path / "h.txt", np.eye(3))
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"),
                   "--set", "perception.blur_sigma=3.0",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    @pytest.mark.parametrize("sigma", [
        repr(math.nextafter(MIN_BLUR_SIGMA, 0.0)), "1e-156", "1e-160",
        "1e-170", "1e-200"])
    def test_blur_kernel_exponent_past_the_float_range_exits_2(
            self, tmp_path, capsys, sigma):
        # -0.5 / sigma^2 overflows to -inf (a NaN kernel), and below about
        # 1.5e-162 sigma^2 is 0 (ZeroDivisionError)
        write_netpbm(tmp_path / "scene.ppm", np.zeros((5, 9, 3), np.uint8))
        write_homography(tmp_path / "h.txt", np.eye(3))
        assert_exit_2_naming(capsys, ["perceive", str(tmp_path / "scene.ppm"),
                                      str(tmp_path / "h.txt"),
                                      "--set", f"perception.blur_sigma={sigma}",
                                      "--out-dir", str(tmp_path / "out")],
                             "perception.blur_sigma", repr(MIN_BLUR_SIGMA),
                             repr(float(sigma)))
        assert not (tmp_path / "out" / "scan.csv").exists()

    def test_smallest_blur_sigma_runs(self, tmp_path):
        assert math.isfinite(-0.5 / (MIN_BLUR_SIGMA * MIN_BLUR_SIGMA))
        write_netpbm(tmp_path / "scene.ppm", np.zeros((5, 9, 3), np.uint8))
        write_homography(tmp_path / "h.txt", np.eye(3))
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"),
                   "--set", f"perception.blur_sigma={MIN_BLUR_SIGMA!r}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        scan = read_scan_csv(tmp_path / "out" / "scan.csv")
        assert np.isfinite(scan.distances).all()

    def test_bad_homography_file_exits_2(self, tmp_path):
        img = np.zeros((10, 10, 3), dtype=np.uint8)
        write_netpbm(tmp_path / "scene.ppm", img)
        (tmp_path / "h.txt").write_text("1 2 3\n")
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt")])
        assert rc == 2

    @pytest.mark.parametrize("text", ["0 0 0 0 0 0 0 0 0",
                                      "1 0 0 0 1 0 0 0 0"])
    def test_singular_homography_exits_2(self, tmp_path, capsys, text):
        write_netpbm(tmp_path / "scene.ppm", np.zeros((240, 320, 3), np.uint8))
        (tmp_path / "h.txt").write_text(text + "\n")
        assert_exit_2_naming(capsys, ["perceive", str(tmp_path / "scene.ppm"),
                                      str(tmp_path / "h.txt"),
                                      "--out-dir", str(tmp_path / "out")],
                             "h.txt")
        assert not (tmp_path / "out" / "scan.csv").exists()

    def test_near_singular_homography_still_runs(self, tmp_path):
        # its inverse is finite, so the warp is defined
        write_netpbm(tmp_path / "scene.ppm", np.zeros((60, 80, 3), np.uint8))
        (tmp_path / "h.txt").write_text("1e300 0 0 0 1e300 0 0 0 1e-300\n")
        rc = main(["perceive", str(tmp_path / "scene.ppm"),
                   str(tmp_path / "h.txt"), "--out-dir", str(tmp_path / "out")])
        assert rc == 0


class TestSimulate:
    def _write_oval(self, tmp_path, extra=""):
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "scenario.txt").write_text(
            "mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 45\nseed = 7\n" + extra)

    def test_pursuit_fixture_exits_0(self, tmp_path):
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["boundary_violations"] == 0
        assert report["first_fix_s"] == 0.0
        # 45 s of pursuit on the oval drive 222.7 m
        assert report["distance_m"] == pytest.approx(222.7, abs=0.05)
        assert (tmp_path / "out" / "poses.csv").exists()
        assert (tmp_path / "out" / "commands.csv").exists()
        assert (tmp_path / "out" / "frames.csv").exists()

    def test_ftg_fixture_exits_0(self, tmp_path):
        write_track_csv(tmp_path / "oval.csv", oval_track(width=4.0))
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 8\nseed = 3\n")
        rc = main(["simulate", str(tmp_path / "s.txt"),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "scans.csv").exists()

    @pytest.mark.parametrize("radius", ["120", "1000000"])
    def test_ftg_morph_radius_past_the_frame_exits_2(self, tmp_path, capsys,
                                                      radius):
        # the opening would empty every 320x240 frame: a run blind to grass
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 1\nseed = 3\n")
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--set", f"perception.morph_radius={radius}",
                                      "--out-dir", str(tmp_path / "out")],
                             "perception.morph_radius", "320x240")
        assert not (tmp_path / "out").exists()

    def _write_small_camera_ftg(self, tmp_path):
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 0.2\nseed = 3\nfront.width = 12\n"
            "front.height = 9\n")

    @pytest.mark.parametrize("sigma", [repr(math.nextafter(4.0, 5.0)), "1e9",
                                       "1e300"])
    def test_ftg_blur_kernel_past_the_longer_side_exits_2(self, tmp_path,
                                                          capsys, sigma):
        # the 12x9 camera frame holds a kernel radius ceil(3 sigma) of at
        # most 12
        self._write_small_camera_ftg(tmp_path)
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--set", f"perception.blur_sigma={sigma}",
                                      "--out-dir", str(tmp_path / "out")],
                             "perception.blur_sigma", "12x9")
        assert not (tmp_path / "out").exists()

    def test_ftg_blur_kernel_as_long_as_the_longer_side_runs(self, tmp_path):
        self._write_small_camera_ftg(tmp_path)
        rc = main(["simulate", str(tmp_path / "s.txt"),
                   "--set", "perception.blur_sigma=4.0",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "scans.csv").exists()

    @pytest.mark.parametrize("sigma", [
        repr(math.nextafter(MIN_BLUR_SIGMA, 0.0)), "1e-156", "1e-200"])
    def test_ftg_blur_kernel_exponent_past_the_float_range_exits_2(
            self, tmp_path, capsys, sigma):
        self._write_small_camera_ftg(tmp_path)
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--set", f"perception.blur_sigma={sigma}",
                                      "--out-dir", str(tmp_path / "out")],
                             "perception.blur_sigma", repr(MIN_BLUR_SIGMA),
                             repr(float(sigma)))
        assert not (tmp_path / "out").exists()

    def test_ftg_smallest_blur_sigma_runs(self, tmp_path):
        self._write_small_camera_ftg(tmp_path)
        rc = main(["simulate", str(tmp_path / "s.txt"),
                   "--set", f"perception.blur_sigma={MIN_BLUR_SIGMA!r}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    # the default 160x200 BEV frame's farthest pixel is hypot(80, 199) px
    # from the kart's pixel; past this scale its squared distance to the
    # track overflows in the truth mask's nearest-sample query
    BEV_SCALE_BOUND = math.sqrt(sys.float_info.max) / 2.0 \
        / math.hypot(80.0, 199.0)

    @pytest.mark.parametrize("scale", [
        repr(math.nextafter(BEV_SCALE_BOUND, math.inf)), "1e153", "1e200"])
    def test_ftg_bev_scale_past_the_float_range_exits_2(self, tmp_path,
                                                        capsys, scale):
        self._write_small_camera_ftg(tmp_path)
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--set", f"bev.meters_per_px={scale}",
                                      "--out-dir", str(tmp_path / "out")],
                             "bev.meters_per_px", repr(self.BEV_SCALE_BOUND),
                             "160x200", repr(float(scale)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [repr(BEV_SCALE_BOUND), "1e150"])
    def test_ftg_largest_bev_scale_runs(self, tmp_path, scale):
        self._write_small_camera_ftg(tmp_path)
        rc = main(["simulate", str(tmp_path / "s.txt"),
                   "--set", f"bev.meters_per_px={scale}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["ticks"] == 20

    # where RK4 damps the plant's speed lag most, at dt = 0.01
    TAU_BOUND = 0.01 / RK4_MONOTONE_LIMIT

    @pytest.mark.parametrize("mode", ["pursuit", "ftg"])
    @pytest.mark.parametrize("tau", [
        repr(math.nextafter(TAU_BOUND, 0.0)), "0.006",
        # where the speed never moves (R(z) = 1), and past it
        "0.003590285825302402", "0.003", "1e-10", "1e-300"])
    def test_speed_lag_past_rk4_stability_exits_2(self, tmp_path, capsys,
                                                  mode, tau):
        self._write_oval(tmp_path)
        assert_exit_2_naming(capsys, ["simulate",
                                      str(tmp_path / "scenario.txt"),
                                      "--set", f"mode={mode}",
                                      "--set", f"vehicle.v_time_constant={tau}",
                                      "--out-dir", str(tmp_path / "out")],
                             "vehicle.v_time_constant", repr(self.TAU_BOUND),
                             repr(float(tau)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["pursuit", "ftg"])
    def test_speed_lag_at_rk4_stability_runs(self, tmp_path, capsys, mode):
        # at the bound R(z) is about 0.27: the speed follows its command,
        # and the run goes to its end
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--set", f"mode={mode}", "--set", "duration_s=2",
                   "--set", f"vehicle.v_time_constant={self.TAU_BOUND!r}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        assert "error" not in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["ticks"] == 200
        speeds = [float(row.split(",")[4]) for row in (
            tmp_path / "out" / "poses.csv").read_text().splitlines()[1:]]
        assert max(speeds) > 1.0

    def test_speed_lag_bound_follows_dt(self):
        # dt = 0.005 halves the bound, so 0.004 loads there
        raw = {"dt": "0.005", "vehicle.v_time_constant": "0.004"}
        assert build_scenario(raw).vehicle.v_time_constant == 0.004
        bound = 0.005 / RK4_MONOTONE_LIMIT
        raw["vehicle.v_time_constant"] = repr(math.nextafter(bound, 0.0))
        with pytest.raises(ScenarioError, match=repr(bound)):
            build_scenario(raw)

    # pursuit_curvature squares the lookahead, which reaches l_max
    L_MAX_BOUND = math.sqrt(sys.float_info.max)

    @pytest.mark.parametrize("l_max", [
        repr(math.nextafter(L_MAX_BOUND, math.inf)), "1e160", "1e300"])
    def test_lookahead_past_the_float_range_exits_2(self, tmp_path, capsys,
                                                    l_max):
        self._write_oval(tmp_path)
        assert_exit_2_naming(capsys, ["simulate",
                                      str(tmp_path / "scenario.txt"),
                                      "--set", f"pursuit.l_max={l_max}",
                                      "--out-dir", str(tmp_path / "out")],
                             "pursuit.l_max", repr(self.L_MAX_BOUND),
                             repr(float(l_max)))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("l_max", [repr(L_MAX_BOUND), "1e153"])
    def test_longest_lookahead_runs(self, tmp_path, capsys, l_max):
        # the lookahead outreaches the whole loop once the kart moves, so
        # it aims at its nearest waypoint and drifts off the track: a run
        # that ends with a boundary violation, not a traceback
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--set", f"pursuit.l_max={l_max}", "--set", "duration_s=2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["ticks"] == 200 and report["distance_m"] > 0.0

    def test_reg_no_damping_regularizes_exits_1(self, tmp_path, capsys):
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--set", "opt.reg=1e100",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "regular" in err
        assert "Traceback" not in err

    def test_bev_scale_rule_holds_only_in_ftg_mode(self):
        raw = {"track": "oval.csv", "bev.meters_per_px": "1e200"}
        with pytest.raises(ScenarioError, match="bev.meters_per_px"):
            build_scenario({**raw, "mode": "ftg"})
        build_scenario({**raw, "mode": "pursuit"})

    def test_morph_window_rule_holds_only_in_ftg_mode(self):
        raw = {"track": "oval.csv", "front.width": "9", "front.height": "12"}
        # the largest window that fits the narrower side, 2 r + 1 = 9
        build_scenario({**raw, "mode": "ftg", "perception.morph_radius": "4"})
        with pytest.raises(ScenarioError, match="perception.morph_radius"):
            build_scenario({**raw, "mode": "ftg",
                            "perception.morph_radius": "5"})
        # pursuit renders no camera frame
        build_scenario({**raw, "mode": "pursuit",
                        "perception.morph_radius": "5"})

    @pytest.mark.parametrize("frame", ["front", "bev"])
    def test_largest_ftg_frame_loads(self, frame):
        # 65536 x 256 pixels, the bound; pursuit renders no frame at all
        assert 65536 * 256 == MAX_FRAME_PIXELS
        raw = {"track": "oval.csv", f"{frame}.width": "65536",
               f"{frame}.height": "256"}
        build_scenario({**raw, "mode": "ftg"})
        build_scenario({**raw, f"{frame}.width": "65537", "mode": "pursuit"})

    @pytest.mark.parametrize("sets, key", [
        (["front.width=65537", "front.height=256"], "front.width"),
        (["bev.width=256", "bev.height=65537"], "bev.height"),
        (["bev.width=1000000000"], "bev.width"),
        (["bev.height=100000000"], "bev.height"),
        (["front.width=100000000"], "front.width"),
    ])
    def test_ftg_frame_past_the_pixel_bound_exits_2(self, tmp_path, capsys,
                                                   sets, key):
        # one pixel past the bound, and frames whose per-frame arrays
        # would not fit in memory
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = ftg\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 1\nseed = 3\n")
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      *[a for s in sets for a in ("--set", s)],
                                      "--out-dir", str(tmp_path / "out")],
                             key, str(MAX_FRAME_PIXELS))
        assert not (tmp_path / "out").exists()

    def test_missing_track_exits_2(self, tmp_path):
        (tmp_path / "s.txt").write_text(
            "mode = pursuit\ntrack = missing.csv\nduration_s = 1\n")
        rc = main(["simulate", str(tmp_path / "s.txt")])
        assert rc == 2

    def test_missing_scenario_exits_2(self, tmp_path):
        rc = main(["simulate", str(tmp_path / "nope.txt")])
        assert rc == 2

    def test_unknown_override_exits_2(self, tmp_path):
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--set", "bogus.key=1"])
        assert rc == 2

    def test_seed_flag_changes_noise_but_stays_deterministic(self, tmp_path):
        self._write_oval(tmp_path)
        out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
        for out, seed in ((out1, "1"), (out2, "1"), (out3, "2")):
            rc = main(["simulate", str(tmp_path / "scenario.txt"),
                       "--seed", seed, "--out-dir", str(out)])
            assert rc == 0
        a = (out1 / "poses.csv").read_text()
        b = (out2 / "poses.csv").read_text()
        c = (out3 / "poses.csv").read_text()
        assert a == b
        assert a != c

    @pytest.mark.parametrize("overrides, key", [
        (["dt=0.1"], "dt"),
        (["pursuit.delta_max=1.5", "pursuit.kp=60"], "pursuit.delta_max"),
        (["ftg.delta_max=1.5"], "ftg.delta_max"),
        (["rates.controller_hz=0"], "rates.controller_hz"),
        (["duration_s=-1"], "duration_s"),
        (["spacing_m=0"], "spacing_m"),
        (["pursuit.kd=nan"], "pursuit.kd"),
        (["bev.meters_per_px=0"], "bev.meters_per_px"),
        (["bev.width=0"], "bev.width"),
        (["bev.max_range=0"], "bev.max_range"),
        (["bev.height=0"], "bev.height"),
        (["perception.morph_radius=-1"], "perception.morph_radius"),
        (["perception.blur_sigma=-1"], "perception.blur_sigma"),
        (["perception.tau=inf"], "perception.tau"),
        (["kill_at_s=-5"], "kill_at_s"),
        (["kill_at_s=inf"], "kill_at_s"),
        # numbers that used to load and then fail or stall the run
        (["sensors.gnss_sigma=inf"], "sensors.gnss_sigma"),
        (["sensors.imu_sigma_yaw=inf"], "sensors.imu_sigma_yaw"),
        (["vehicle.max_speed=inf"], "vehicle.max_speed"),
        (["ekf.process_noise_scale=inf"], "ekf.process_noise_scale"),
        (["pursuit.l_max=inf"], "pursuit.l_max"),
        (["vehicle.v_time_constant=inf"], "vehicle.v_time_constant"),
        (["duration_s=-inf"], "duration_s"),
        (["sensors.gnss_dropout=nan:5"], "sensors.gnss_dropout"),
        (["sensors.gnss_dropout=0:inf"], "sensors.gnss_dropout"),
        (["sensors.gnss_dropout=5:1"], "sensors.gnss_dropout"),
        (["ekf.earth_radius=0"], "ekf.earth_radius"),
        (["ekf.earth_radius=-6371000"], "ekf.earth_radius"),
        (["origin_lat=2"], "origin_lat"),
        (["origin_lat=-1.5707963267948966"], "origin_lat"),
        (["origin_lon=3.2"], "origin_lon"),
        (["opt.reg=-1e-9"], "opt.reg"),
        # oval_track is 3.5 m wide on each side
        (["track.vehicle_half_width=3.5"], "track.vehicle_half_width"),
        (["track.vehicle_half_width=-0.1"], "track.vehicle_half_width"),
        (["seed=-1"], "seed"),
        (["sensors.seed=-1"], "sensors.seed"),
        (["mode=ftg", "front.width=1"], "front.width"),
        (["mode=ftg", "front.height=0"], "front.height"),
        (["mode=ftg", "bev.height=1"], "bev.height"),
        # rates whose tick interval is not a finite number of steps
        (["rates.controller_hz=5e-324"], "rates.controller_hz"),
        (["rates.controller_hz=1e-310"], "rates.controller_hz"),
        (["sensors.gnss_rate=5e-324"], "sensors.gnss_rate"),
        (["sensors.imu_rate=1e-310"], "sensors.imu_rate"),
        # faster than the speed feedback frame reports
        (["vehicle.max_speed=32.768"], "vehicle.max_speed"),
        (["vehicle.max_speed=1e200"], "vehicle.max_speed"),
        (["vehicle.max_speed=1e300"], "vehicle.max_speed"),
        # the raceline solver's iteration budget
        (["opt.max_iters=0"], "opt.max_iters"),
    ])
    def test_out_of_range_value_exits_2(self, tmp_path, capsys, overrides,
                                        key):
        # in process: an exception escaping main() fails the test with its
        # traceback, so rc 2 plus the named key is the whole contract
        self._write_oval(tmp_path)
        sets = [arg for item in overrides for arg in ("--set", item)]
        rc = main(["simulate", str(tmp_path / "scenario.txt"), *sets,
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    def test_fastest_reported_speed_loads(self):
        cfg = build_scenario({"vehicle.max_speed": "32.767"})
        assert cfg.vehicle.max_speed == 32.767

    def test_never_localized_exits_1(self, tmp_path, capsys):
        # no GNSS fix for the whole run: the kart never moves, and the
        # all-zero error figures must not pass for a clean run
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--set", "sensors.gnss_dropout=0:100",
                   "--set", "duration_s=3",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "never localized" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["first_fix_s"] is None
        assert report["max_cross_track_error_m"] == 0.0

    @pytest.mark.parametrize("overrides", [
        # the kill switch holds from the start
        ["kill_at_s=0"],
        # every raceline speed quantizes to 0 mm/s on the command frame
        ["limits.v_max=1e-6"]])
    def test_never_moved_exits_1(self, tmp_path, capsys, overrides):
        # the zero error and violation counts must not pass for a clean run
        self._write_oval(tmp_path)
        sets = [arg for item in overrides for arg in ("--set", item)]
        rc = main(["simulate", str(tmp_path / "scenario.txt"), *sets,
                   "--set", "duration_s=5", "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert "never moved" in capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["distance_m"] == 0.0
        assert report["first_fix_s"] == 0.0
        assert report["boundary_violations"] == 0

    def test_config_file_merges_under_scenario_file(self, tmp_path):
        self._write_oval(tmp_path)
        (tmp_path / "params.txt").write_text("mode = ftg\nduration_s = 1\n")
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--config", str(tmp_path / "params.txt"),
                   "--set", "duration_s=2",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["mode"] == "pursuit"
        assert report["duration_s"] == 2.0

    def test_set_override_applies(self, tmp_path):
        self._write_oval(tmp_path)
        rc = main(["simulate", str(tmp_path / "scenario.txt"),
                   "--set", "duration_s=2",
                   "--out-dir", str(tmp_path / "out")])
        # too short for a lap but clean exit
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["lap_time_s"] is None
        assert report["duration_s"] == 2.0


class TestDegenerateCenterline:
    """A closed out-and-back centerline: the periodic spline's tangent
    vanishes where it turns back, so no knot there has a normal. Every
    command rejects it at load, naming the file."""

    @staticmethod
    def write(path):
        x = [0, 1, 2, 3, 4, 3, 2, 1]
        path.write_text("x_m,y_m,w_left_m,w_right_m\n"
                        + "".join(f"{v},0,2,2\n" for v in x))

    def test_optimize_raceline_exits_2(self, tmp_path, capsys):
        self.write(tmp_path / "back.csv")
        assert_exit_2_naming(capsys, ["optimize-raceline",
                                      str(tmp_path / "back.csv"),
                                      "--set", "track.closed=true",
                                      "--out-dir", str(tmp_path / "out")],
                             "back.csv", "degenerate tangent")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["pursuit", "ftg"])
    def test_simulate_exits_2(self, tmp_path, capsys, mode):
        self.write(tmp_path / "back.csv")
        (tmp_path / "s.txt").write_text(
            f"mode = {mode}\ntrack = back.csv\ntrack.closed = true\n"
            "duration_s = 1\nseed = 3\n")
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--out-dir", str(tmp_path / "out")],
                             "back.csv", "degenerate tangent")
        assert not (tmp_path / "out").exists()


def spoil_cell(path, lineno, column, cell):
    """Replace one cell of a CSV file; lineno counts the header as 1."""
    lines = path.read_text().splitlines()
    fields = lines[lineno - 1].split(",")
    fields[column] = cell
    lines[lineno - 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def assert_exit_2_naming(capsys, argv, *names):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "Traceback" not in err
    for name in names:
        assert name in err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
class TestNonFiniteCells:
    """Every input file takes the scenario's number rule: a cell that is not
    a finite number exits 2 at load, naming the file and its line."""

    def test_track_csv(self, tmp_path, capsys, cell):
        write_track_csv(tmp_path / "oval.csv", oval_track())
        spoil_cell(tmp_path / "oval.csv", 5, 2, cell)  # w_left_m
        (tmp_path / "s.txt").write_text(
            "track = oval.csv\ntrack.closed = true\nduration_s = 0.1\n")
        for mode in ("pursuit", "ftg"):
            assert_exit_2_naming(
                capsys, ["simulate", str(tmp_path / "s.txt"),
                         "--set", f"mode={mode}",
                         "--out-dir", str(tmp_path / "out")],
                "oval.csv line 5")
        assert_exit_2_naming(
            capsys, ["optimize-raceline", str(tmp_path / "oval.csv"),
                     "--set", "track.closed=true",
                     "--out-dir", str(tmp_path / "out")],
            "oval.csv line 5")

    def test_raceline_csv(self, tmp_path, capsys, cell):
        track = oval_track()
        write_track_csv(tmp_path / "oval.csv", track)
        write_raceline_csv(tmp_path / "raceline.csv",
                           build_raceline(track, np.zeros(len(track)),
                                          VehicleLimits()))
        spoil_cell(tmp_path / "raceline.csv", 4, 1, cell)  # x_m
        (tmp_path / "s.txt").write_text(
            "track = oval.csv\nraceline = raceline.csv\n"
            "track.closed = true\nduration_s = 0.1\n")
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--out-dir", str(tmp_path / "out")],
                             "raceline.csv line 4")

    def test_replay_log(self, tmp_path, capsys, cell):
        lines = [TestLocalize.HEADER]
        for k in range(5):
            lines.append(f"{0.1 * k!r},0.7,-1.3,1,0.0,0.0,0.0,2.0,0.0\n")
        (tmp_path / "replay.csv").write_text("".join(lines))
        spoil_cell(tmp_path / "replay.csv", 3, 1, cell)  # lat_rad
        assert_exit_2_naming(capsys, ["localize", str(tmp_path / "replay.csv"),
                                      "--out-dir", str(tmp_path / "out")],
                             "replay.csv line 3")
        assert not (tmp_path / "out" / "poses.csv").exists()

    def test_homography_file(self, tmp_path, capsys, cell):
        write_netpbm(tmp_path / "scene.ppm", np.zeros((60, 80, 3), np.uint8))
        (tmp_path / "h.txt").write_text(f"1 0 0\n0 1 0\n0 0 {cell}\n")
        assert_exit_2_naming(capsys, ["perceive", str(tmp_path / "scene.ppm"),
                                      str(tmp_path / "h.txt"),
                                      "--out-dir", str(tmp_path / "out")],
                             "h.txt")
        assert not (tmp_path / "out" / "scan.csv").exists()


class TestRacelineInputs:
    """A raceline file the Raceline type rejects, and a spacing_m that asks
    for more than MAX_WAYPOINTS steps, exit 2 naming the file or the key."""

    @pytest.mark.parametrize("column, rule", [
        (4, "waypoint speeds must be positive"),  # v_mps = 0
        (0, "arc length must be strictly increasing")])  # s_m = 0 twice
    def test_raceline_csv_row(self, tmp_path, capsys, column, rule):
        track = oval_track()
        write_track_csv(tmp_path / "oval.csv", track)
        write_raceline_csv(tmp_path / "rl.csv",
                           build_raceline(track, np.zeros(len(track)),
                                          VehicleLimits()))
        spoil_cell(tmp_path / "rl.csv", 3, column, "0")  # the second row
        (tmp_path / "s.txt").write_text(
            "track = oval.csv\nraceline = rl.csv\n"
            "track.closed = true\nduration_s = 0.1\n")
        assert_exit_2_naming(capsys, ["simulate", str(tmp_path / "s.txt"),
                                      "--out-dir", str(tmp_path / "out")],
                             "rl.csv", rule)

    def test_spacing_beyond_the_waypoint_cap(self, tmp_path, capsys):
        # about 1e302 waypoints: a count numpy refuses at once, where a
        # spacing of 1e-5 would allocate gigabytes before failing
        write_track_csv(tmp_path / "line.csv", straight_track(n=20))
        (tmp_path / "s.txt").write_text(
            "track = line.csv\ntrack.closed = false\nduration_s = 0.1\n")
        for argv in (["simulate", str(tmp_path / "s.txt")],
                     ["optimize-raceline", str(tmp_path / "line.csv"),
                      "--set", "track.closed=false"]):
            assert_exit_2_naming(capsys, [*argv, "--set", "spacing_m=1e-300",
                                          "--out-dir", str(tmp_path / "out")],
                                 "spacing_m", str(MAX_WAYPOINTS))


# Per scenario key, values at and just beyond the limits the loader
# enforces (every number also gets nan and +-inf below). The base scenario
# below is the oval, 3.5 m wide on each side.
PI_NEXT = repr(math.nextafter(math.pi, 4.0))
LIMIT_VALUES = {
    "mode": ["pursuit", "ftg", "drift"],
    "track.closed": ["false", "maybe"],
    "track.vehicle_half_width": ["0", "-1e-9", "3.4999", "3.5"],
    "duration_s": ["0", "-1", "0.005", "0.015", "1e300"],
    "seed": ["0", "-1"],
    "dt": ["0.05", "0.0500001", "0", "-0.01", "1e-300"],
    "spacing_m": ["0", "-1"],
    "origin_lat": [repr(math.pi / 2), repr(-math.pi / 2), "1.6"],
    "origin_lon": [repr(math.pi), repr(-math.pi), PI_NEXT, "-" + PI_NEXT],
    "kill_at_s": ["0", "-1e-9", "none"],
    "opt.reg": ["0", "-1e-12"],
    "opt.max_iters": ["0", "-1"],
    "front.width": ["2", "1"],
    "front.height": ["2", "1"],
    "pursuit.l_min": ["0", "5", "-1"],
    "pursuit.l_max": ["2", "0", "1e160"],
    "pursuit.delta_max": ["1.0", "1.0000001", "0"],
    "ftg.v_min": ["0", "5", "5.0000001"],
    "ftg.v_max": ["2", "1.9999"],
    "ftg.delta_max": ["1.0", "1.0000001", "0"],
    "ftg.law": ["as_written", "literal"],
    "sensors.gnss_dropout": ["0:0", "0:100", "1:0", "nan:1", "0:inf", "5", ""],
    "perception.morph_radius": ["1", "0"],
    "bev.width": ["2", "1"],
    "bev.height": ["2", "1"],
}
# the remaining numbers must be > 0 or >= 0, except three that need only
# be finite
for _key in ("rates.controller_hz", "rates.perception_hz", "rates.command_hz",
             "limits.a_lat_max", "limits.a_lon_max", "limits.v_max",
             "pursuit.v_max", "ftg.epsilon", "vehicle.wheelbase",
             "vehicle.v_time_constant", "vehicle.max_speed",
             "sensors.gnss_rate", "sensors.imu_rate",
             "ekf.process_noise_scale", "ekf.earth_radius",
             "perception.blur_sigma", "bev.meters_per_px", "bev.max_range",
             "sensors.gnss_sigma", "sensors.imu_sigma_yaw",
             "sensors.imu_sigma_rate", "sensors.seed"):
    LIMIT_VALUES[_key] = ["0", "-1"]
for _key in ("pursuit.kp", "pursuit.kd", "perception.tau"):
    LIMIT_VALUES[_key] = ["0"]
# a rate's tick interval 1 / (rate * dt) underflows the divisor (5e-324)
# or overflows (1e-310)
for _key in ("rates.controller_hz", "rates.perception_hz", "rates.command_hz",
             "sensors.gnss_rate", "sensors.imu_rate"):
    LIMIT_VALUES[_key] = LIMIT_VALUES[_key] + ["5e-324", "1e-310"]
# below where RK4 damps the speed lag most (dt / 1.596...)
LIMIT_VALUES["vehicle.v_time_constant"] += ["0.006", "0.003", "1e-10",
                                            "1e-300"]
# the speed feedback frame reports at most 32.767 m/s
LIMIT_VALUES["vehicle.max_speed"] += ["32.767", "32.768", "1e300"]
for _key, (_, _, _parse) in _SCENARIO_KEYS.items():
    if _parse is parse_float or _key == "kill_at_s":
        LIMIT_VALUES[_key] = LIMIT_VALUES[_key] + ["nan", "inf", "-inf"]


@pytest.fixture(scope="module")
def short_oval(tmp_path_factory):
    """A 0.1 s scenario on the oval, with a precomputed centerline raceline
    so that pursuit runs skip the solver."""
    root = tmp_path_factory.mktemp("limits")
    track = oval_track()
    write_track_csv(root / "oval.csv", track)
    write_raceline_csv(root / "raceline.csv",
                       build_raceline(track, np.zeros(len(track)),
                                      VehicleLimits()))
    (root / "s.txt").write_text(
        "track = oval.csv\nraceline = raceline.csv\ntrack.closed = true\n"
        "duration_s = 0.1\nseed = 7\n")
    return root


def simulate_with(root, overrides: dict) -> tuple[int, str]:
    """`simulate` on root/s.txt with the overrides, in process: a value the
    loader accepts runs to the end (exit 0 or 1), one it rejects exits 2
    with an error line, and nothing may escape as an exception. Returns the
    exit code and stderr."""
    sets = [arg for key, value in overrides.items()
            for arg in ("--set", f"{key}={value}")]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(["simulate", str(root / "s.txt"), *sets,
                   "--out-dir", str(root / "out")])
    assert rc in (0, 1, 2), overrides
    if rc == 2:
        assert err.getvalue().startswith("error: "), overrides
    return rc, err.getvalue()


class TestScenarioLimits:
    def test_every_scenario_key_has_limit_values(self):
        assert set(LIMIT_VALUES) == set(_SCENARIO_KEYS) - {"track",
                                                           "raceline"}

    @pytest.mark.parametrize("key", sorted(LIMIT_VALUES))
    def test_each_limit_value_runs_or_exits_cleanly(self, short_oval, key):
        for mode in ("pursuit", "ftg"):
            for value in LIMIT_VALUES[key]:
                simulate_with(short_oval, {"mode": mode, key: value})

    @pytest.mark.parametrize("key", sorted(LIMIT_VALUES))
    def test_each_rejected_limit_value_names_its_key(self, short_oval, key):
        unnamed = []
        for mode in ("pursuit", "ftg"):
            for value in LIMIT_VALUES[key]:
                rc, err = simulate_with(short_oval, {"mode": mode, key: value})
                if rc == 2 and key not in err:
                    unnamed.append((mode, value, err))
        assert not unnamed

    @settings(max_examples=40, deadline=None)
    @given(mode=st.sampled_from(["pursuit", "ftg"]),
           overrides=st.lists(st.sampled_from(sorted(LIMIT_VALUES)),
                              min_size=2, max_size=4, unique=True).flatmap(
               lambda keys: st.fixed_dictionaries(
                   {k: st.sampled_from(LIMIT_VALUES[k]) for k in keys})))
    def test_combined_limit_values_run_or_exit_cleanly(self, short_oval, mode,
                                                       overrides):
        simulate_with(short_oval, {"mode": mode, **overrides})

    @pytest.mark.parametrize("overrides", [
        {"duration_s": "1e300"}, {"dt": "1e-300"},
        {"duration_s": "1e300", "dt": "1e-300"}])  # this ratio overflows
    def test_tick_count_is_bounded_at_load(self, short_oval, capsys,
                                           overrides):
        sets = [arg for key, value in overrides.items()
                for arg in ("--set", f"{key}={value}")]
        assert_exit_2_naming(capsys, ["simulate", str(short_oval / "s.txt"),
                                      *sets, "--out-dir",
                                      str(short_oval / "out")],
                             "duration_s", str(MAX_TICKS))


# the scipy packages that only some commands use
SCIPY_ON_DEMAND = ("scipy.interpolate", "scipy.optimize", "scipy.ndimage",
                   "scipy.spatial")
# which of them a module import, or a command on the oval, loads
SCIPY_LOADED = {"gokart.cli": [], "gokart.sim": [], "optimize-raceline": [],
                "simulate": ["scipy.spatial"], "perceive": ["scipy.ndimage"]}
# imports a module, runs `gokart ARGV` if given any, and prints the exit code
# and the packages of SCIPY_ON_DEMAND that the interpreter then holds
LOADED_AFTER = f"""import importlib, sys
module, *argv = sys.argv[1:]
importlib.import_module(module)
rc = importlib.import_module("gokart.cli").main(argv) if argv else 0
print(rc, [m for m in {SCIPY_ON_DEMAND!r} if m in sys.modules])"""


class TestEntryPoint:
    @pytest.mark.parametrize("case", SCIPY_LOADED)
    def test_loads_only_the_scipy_it_uses(self, tmp_path, case):
        write_track_csv(tmp_path / "oval.csv", oval_track())
        (tmp_path / "s.txt").write_text(
            "mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
            "duration_s = 1\n")
        write_netpbm(tmp_path / "scene.ppm",
                     np.full((240, 320, 3), 120, dtype=np.uint8))
        write_homography(tmp_path / "h.txt",
                         default_camera_homography(BevConfig()))
        out = ["--out-dir", str(tmp_path / "out")]
        argv = {"optimize-raceline": [str(tmp_path / "oval.csv"),
                                      "--set", "track.closed=true", *out],
                "simulate": [str(tmp_path / "s.txt"), *out],
                "perceive": [str(tmp_path / "scene.ppm"),
                             str(tmp_path / "h.txt"), *out]}
        args = ["gokart.cli", case, *argv[case]] if case in argv else [case]
        proc = run_cli(*args, entry=("-c", LOADED_AFTER))
        assert proc.stdout.splitlines()[-1] == f"0 {SCIPY_LOADED[case]}", \
            proc.stderr

    def test_module_invocation(self, tmp_path):
        write_track_csv(tmp_path / "line.csv", straight_track(n=20))
        proc = run_cli("optimize-raceline", str(tmp_path / "line.csv"),
                       "--out-dir", str(tmp_path / "out"),
                       "--set", "track.closed=false")
        assert proc.returncode == 0
        assert "raceline" in proc.stdout

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
