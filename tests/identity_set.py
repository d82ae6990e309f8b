"""Digests of a fixed set of CLI runs, for checking that a change keeps every
output byte-identical.

Runs `gokart.cli.main` in process on each entry of the set below and prints,
per entry, its exit code, its stdout and stderr with the output directory
masked, and one sha256 per output file. Save the digests of the parent
commit, then check the change against them:

    PYTHONPATH=src python tests/identity_set.py > parent-digests.txt
    PYTHONPATH=src python tests/identity_set.py --compare parent-digests.txt

With `--compare FILE` it prints, under each entry's `==` header, the lines
that differ from FILE (`-` saved, `+` now) and exits 1 if any do, 0 if none.

pytest does not collect this file: its name does not start with `test_`.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gokart.cli import main  # noqa: E402
from gokart.fileio import read_netpbm, write_netpbm  # noqa: E402
from gokart.localization import GeoFix, LocalPoint, local_to_geo  # noqa: E402
from gokart.perception import BevConfig  # noqa: E402
from gokart.sim import (TrackSampler, VehicleState,  # noqa: E402
                        default_camera_homography, render_scene)
from helpers import (hairpin_track, oval_track, straight_track,  # noqa: E402
                     varying_width_track, wiggly_track, write_track_csv)

# the README's pursuit scenario on the 45 s oval
README = ("mode = pursuit\ntrack = oval.csv\ntrack.closed = true\n"
          "duration_s = 45\nseed = 7\nsensors.gnss_sigma = 0.02\n"
          "sensors.gnss_dropout = 10.0:12.0\npursuit.kp = 2.0\n"
          "limits.v_max = 5.0\n")

# the benchmark's closed-loop scenario (perfbench/workloads.py)
BENCH = ("mode = {mode}\ntrack = oval.csv\ntrack.closed = true\n"
         "duration_s = {duration!r}\nseed = {seed}\n"
         "sensors.gnss_sigma = 0.02\nsensors.gnss_dropout = 10.0:12.0\n")

# name -> (scenario text, --set overrides); each runs `gokart simulate`
SIMULATE = {
    "readme_pursuit": (README, []),
    "kill": (README, ["kill_at_s=10", "duration_s=15"]),
    "open_track_end": ("mode = pursuit\ntrack = straight.csv\n"
                       "track.closed = false\nduration_s = 20\nseed = 2\n",
                       []),
    "ftg_oval": (README, ["mode=ftg", "seed=3", "duration_s=10"]),
    "bench_pursuit_90210": (BENCH.format(mode="pursuit", duration=45.0,
                                         seed=90210), []),
    # the benchmark's ftg_oval run
    "bench_ftg_7": (BENCH.format(mode="ftg", duration=10.0, seed=7), []),
    "ftg_wiggly": ("mode = ftg\ntrack = wiggly.csv\ntrack.closed = true\n"
                   "duration_s = 5\nseed = 7\n", ["rates.perception_hz=7"]),
    # FTG where the half-widths vary along the track and differ by side
    "ftg_varying_width": ("mode = ftg\ntrack = varying.csv\n"
                          "track.closed = true\nduration_s = 10\n"
                          "seed = 7\n", []),
    # 40 m/s commanded: every command frame's speed saturates its int16
    # wire scale at 32.767, and the speed feedback climbs to 98% of that
    # scale (vehicle.max_speed may not pass 32.767, the fastest it reports)
    "wire_speed_limit": (README, ["duration_s=3", "vehicle.max_speed=32.767",
                                  "limits.v_max=40", "pursuit.v_max=40",
                                  "limits.a_lat_max=1000",
                                  "limits.a_lon_max=1000",
                                  "vehicle.v_time_constant=0.01"]),
    # a 7 ms tick: many time cells k * dt run to 18-19 characters
    # (0.11900000000000001), as every log row of the tick spells them
    "pursuit_dt_7ms": (README, ["dt=0.007", "duration_s=3"]),
    "never_localized": (README, ["sensors.gnss_dropout=0:100",
                                 "duration_s=3"]),
    # FTG on an open track, past its end: the truth mask's end caps
    "ftg_hairpin_open": ("mode = ftg\ntrack = hairpin_open.csv\n"
                         "track.closed = false\nduration_s = 20\n"
                         "seed = 7\n", []),
}

REPLAY_HEADER = ("t_s,lat_rad,lon_rad,gnss_valid,gnss_var_m2,imu_yaw_rad,"
                 "imu_yaw_var_rad2,v_mps,omega_radps\n")


def write_replay_log(path) -> None:
    """300 rows at 100 Hz of a kart on a 20 m circle at 5 m/s, with noisy
    fixes and yaw: 25 leading dropout rows, a 60-row dropout from row 150,
    and every seventh row's fix marked invalid."""
    rng = np.random.default_rng(11)
    origin = GeoFix(0.7, -1.3)
    v, radius = 5.0, 20.0
    omega = v / radius
    lines = [REPLAY_HEADER]
    for k in range(300):
        t = 0.01 * k
        psi = omega * t
        x, y = radius * math.sin(psi), radius * (1.0 - math.cos(psi))
        nx, ny, nyaw = rng.normal(0.0, [0.02, 0.02, 0.01]).tolist()
        fix = local_to_geo(LocalPoint(x + nx, y + ny), origin)
        valid = k >= 25 and not 150 <= k < 210 and k % 7 != 3
        lines.append(f"{t!r},{fix.lat!r},{fix.lon!r},{int(valid)},0.0004,"
                     f"{psi + nyaw!r},0.0001,{v!r},{omega!r}\n")
    Path(path).write_text("".join(lines))


def write_scene(root: Path) -> None:
    """scene.ppm, a front camera frame rendered on the oval's lower
    straight looking into the bend, and h.txt, the homography it was
    rendered with."""
    bev = BevConfig()
    h = default_camera_homography(bev)
    pose = VehicleState(x=15.0, y=-20.0, psi=0.0)
    write_netpbm(root / "scene.ppm", render_scene(TrackSampler(oval_track()),
                                                  pose, h, 320, 240, bev))
    (root / "h.txt").write_text(" ".join(map(repr, h.ravel().tolist())))


def write_noisy_scene(root: Path) -> None:
    """scene_noisy.ppm: scene.ppm plus seeded uniform noise of +-100,
    clipped to 0-255, so no blur window is uniform and every channel value
    from 0 to 255 occurs."""
    img = read_netpbm(root / "scene.ppm", b"P6", ValueError).astype(int)
    noise = np.random.default_rng(17).integers(-100, 101, size=img.shape)
    noisy = np.clip(img + noise, 0, 255).astype(np.uint8)
    assert len(np.unique(noisy)) == 256
    write_netpbm(root / "scene_noisy.ppm", noisy)


def run(argv, out: Path) -> list[str]:
    """One entry's lines: exit code, masked stdout and stderr, and the
    sha256 of every file the run wrote."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main([*argv, "--out-dir", str(out)])
    lines = [f"exit {rc}"]
    for name, text in (("stdout", stdout), ("stderr", stderr)):
        lines.append(f"{name} {text.getvalue().replace(str(out), '<out>')!r}")
    for path in sorted(out.glob("*")) if out.exists() else []:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.name}")
    return lines


def main_set() -> list[str]:
    """Every entry's `== name` header and run lines, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_track_csv(root / "oval.csv", oval_track())
        write_track_csv(root / "straight.csv",
                        straight_track(n=20, spacing=2.0, width=3.0))
        write_track_csv(root / "wiggly.csv", wiggly_track())
        write_track_csv(root / "varying.csv", varying_width_track())
        write_track_csv(root / "hairpin_open.csv", hairpin_track(closed=False))
        # 0.6 m each side of a 0.4 m spaced line: through the solve, about
        # half the epsilon-active offsets sit on their bounds
        write_track_csv(root / "wiggly_480.csv", wiggly_track(n=480, width=1.0))
        write_replay_log(root / "replay.csv")
        write_scene(root)
        write_noisy_scene(root)
        entries = {}
        for name, (text, sets) in SIMULATE.items():
            (root / f"{name}.txt").write_text(text)
            entries[name] = ["simulate", str(root / f"{name}.txt"),
                             *[arg for item in sets for arg in ("--set", item)]]
        entries["localize"] = ["localize", str(root / "replay.csv")]
        entries["optimize_oval"] = ["optimize-raceline",
                                    str(root / "oval.csv"),
                                    "--set", "track.closed=true"]
        # the open spline's natural ends
        entries["optimize_open_hairpin"] = ["optimize-raceline",
                                            str(root / "hairpin_open.csv"),
                                            "--set", "track.closed=false"]
        # the batch's largest size
        entries["optimize_wiggly_480"] = ["optimize-raceline",
                                          str(root / "wiggly_480.csv"),
                                          "--set", "track.closed=true"]
        # the README's pursuit on the raceline optimize_oval writes
        (root / "raceline_pursuit.txt").write_text(
            README + "raceline = out/optimize_oval/raceline.csv\n")
        entries["raceline_pursuit"] = ["simulate",
                                       str(root / "raceline_pursuit.txt")]
        entries["perceive_debug"] = ["perceive", str(root / "scene.ppm"),
                                     str(root / "h.txt"), "--debug"]
        entries["perceive_noisy"] = ["perceive", str(root / "scene_noisy.ppm"),
                                     str(root / "h.txt"),
                                     "--set", "perception.blur_sigma=1.3",
                                     "--set", "perception.morph_radius=3",
                                     "--debug"]
        lines = []
        for name, argv in entries.items():
            lines.append(f"== {name}")
            lines.extend(run(argv, root / "out" / name))
        return lines


def by_entry(lines: list[str]) -> dict[str, list[str]]:
    """Header -> the lines under it; "" holds any before the first."""
    entries = {"": []}
    body = entries[""]
    for line in lines:
        if line.startswith("== "):
            body = entries.setdefault(line, [])
        else:
            body.append(line)
    return entries


def compare(lines: list[str], path: str) -> int:
    """Print the lines that differ from the digest file at path, under
    their entry's header; 1 if any do, else 0."""
    saved, now = by_entry(Path(path).read_text().splitlines()), by_entry(lines)
    differ = 0
    for header in {**saved, **now}:
        old, new = saved.get(header, []), now.get(header, [])
        if old != new:
            differ = 1
            print(header)
            for line in difflib.unified_diff(old, new, n=0, lineterm=""):
                if not line.startswith(("---", "+++", "@@")):
                    print(line)
    if not differ:
        print(f"identical to {path}: {len(lines)} lines")
    return differ


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", metavar="FILE",
                        help="print the lines that differ from FILE; "
                             "exit 1 if any do")
    args = parser.parse_args()
    lines = main_set()
    if args.compare:
        sys.exit(compare(lines, args.compare))
    print("\n".join(lines))
