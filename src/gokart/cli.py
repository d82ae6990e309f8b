"""Command-line entry point.

Subcommands: optimize-raceline, localize, perceive, simulate. Every
subcommand accepts --config (key=value file), --seed, --out-dir, and
repeatable --set key=value overrides. Parameters merge in one order for
every subcommand: the config file, then (for simulate) the scenario file,
then the overrides, then --seed. Exit codes: 0 success, 1 runtime/algorithmic
failure, 2 usage or configuration error (including out-of-range values).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .localization import (ReplayFormatError, read_replay_log, run_replay,
                           write_pose_log)
from .fileio import parse_float, read_netpbm, write_netpbm
from .perception import ImageFormatError, detect_boundaries, write_scan_csv
from .track import (OptimizationError, TrackFormatError, build_raceline,
                    centerline_curvature_cost, estimated_lap_time,
                    offset_curvature_cost, optimize_min_curvature,
                    read_track_csv, write_raceline_csv)
from .sim import (ScenarioError, build_scenario, parse_scenario_text,
                  run_closed_loop)

_CONFIG_ERRORS = (ScenarioError, TrackFormatError, ReplayFormatError,
                  ImageFormatError, FileNotFoundError)


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value parameter file")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="parameter override (repeatable)")


def _gather_raw(args, scenario: Path | None = None) -> dict[str, str]:
    """The raw parameter mapping: --config, then the scenario file, then
    each --set, then --seed; later sources win."""
    raw: dict[str, str] = {}
    for kind, path in (("config", args.config), ("scenario", scenario)):
        if not path:
            continue
        path = Path(path)
        if not path.exists():
            raise ScenarioError(f"{kind} file not found: {path}")
        raw.update(parse_scenario_text(path.read_text()))
    for item in args.overrides:
        if "=" not in item:
            raise ScenarioError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = value.strip()
    if args.seed is not None:
        raw["seed"] = str(args.seed)
    return raw


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_optimize_raceline(args) -> int:
    cfg = build_scenario(_gather_raw(args))
    track = read_track_csv(args.track_csv, cfg.track_closed,
                           cfg.vehicle_half_width)
    alpha = optimize_min_curvature(track, reg=cfg.opt_reg,
                                   max_iters=cfg.opt_max_iters)
    raceline = build_raceline(track, alpha, cfg.limits, cfg.spacing_m)
    report = {
        "centerline_sum_k2": centerline_curvature_cost(track),
        "optimized_sum_k2": offset_curvature_cost(track, alpha),
        "est_lap_time_s": estimated_lap_time(raceline),
    }
    out = _out_dir(args)
    write_raceline_csv(out / "raceline.csv", raceline)
    (out / "report.json").write_text(json.dumps(report, sort_keys=True,
                                                indent=2) + "\n")
    print(f"raceline: {len(raceline)} waypoints, "
          f"sum k^2 {report['centerline_sum_k2']:.6g} -> "
          f"{report['optimized_sum_k2']:.6g}, "
          f"est lap {report['est_lap_time_s']:.2f} s")
    return 0


def cmd_localize(args) -> int:
    cfg = build_scenario(_gather_raw(args))
    rows = read_replay_log(args.replay_csv)
    poses = run_replay(rows, cfg.ekf)
    out = _out_dir(args)
    write_pose_log(out / "poses.csv", poses)
    print(f"localized {len(poses)} of {len(rows)} rows -> {out / 'poses.csv'}")
    return 0


def cmd_perceive(args) -> int:
    cfg = build_scenario(_gather_raw(args))
    img = read_netpbm(args.image_ppm, b"P6", ImageFormatError)
    cfg.perception.require_fits(img.shape[1], img.shape[0],
                                f"the {img.shape[1]}x{img.shape[0]} image")
    h = load_homography(args.homography)
    scan, mask, bev_mask = detect_boundaries(img, h, cfg.perception, cfg.bev)
    out = _out_dir(args)
    write_scan_csv(out / "scan.csv", scan)
    if args.debug:
        write_netpbm(out / "mask.pgm", mask * 255)
        write_netpbm(out / "bev.pgm", bev_mask * 255)
    finite = int(np.sum(scan.distances < scan.max_range))
    print(f"scan: {finite}/{len(scan.distances)} rays hit grass -> "
          f"{out / 'scan.csv'}")
    return 0


def cmd_simulate(args) -> int:
    scenario_path = Path(args.scenario)
    scenario = build_scenario(_gather_raw(args, scenario_path),
                              base_dir=scenario_path.parent)
    report = run_closed_loop(scenario)
    out = _out_dir(args)
    (out / "report.json").write_text(report.to_json() + "\n")
    for name, text in report.logs.items():
        (out / name).write_text(text)
    lap = "incomplete" if report.lap_time_s is None else f"{report.lap_time_s:.2f} s"
    print(f"{report.mode}: lap {lap}, max cross-track "
          f"{report.max_cross_track_error_m:.3f} m, "
          f"{report.boundary_violations} boundary violations, "
          f"{report.safety_stops} safety stops")
    if report.first_fix_s is None:
        # the controller never ran, so the clean numbers above mean nothing
        print("never localized: the filter got no GNSS fix", file=sys.stderr)
        return 1
    if report.distance_m == 0.0:
        # nothing moved, so nothing could leave the track or the raceline
        print("never moved: the kart drove 0 m", file=sys.stderr)
        return 1
    return 0 if report.boundary_violations == 0 and report.safety_stops == 0 else 1


def load_homography(path) -> np.ndarray:
    """Read a 3x3 homography from a whitespace-separated text file."""
    try:
        values = [parse_float(tok) for tok in Path(path).read_text().split()]
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"bad homography file {path}: {exc}") from None
    if len(values) != 9:
        raise ScenarioError(f"homography file {path} must hold 9 numbers")
    h = np.array(values).reshape(3, 3)
    try:  # warp_to_bev maps BEV pixels back through the inverse
        invertible = bool(np.isfinite(np.linalg.inv(h)).all())
    except np.linalg.LinAlgError:
        invertible = False
    if not invertible:
        raise ScenarioError(f"homography file {path} must hold an "
                            "invertible matrix with a finite inverse")
    return h


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gokart",
                                     description="Autonomous go-kart stack tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize-raceline",
                       help="min-curvature raceline from a track CSV")
    p.add_argument("track_csv")
    _common_flags(p)
    p.set_defaults(func=cmd_optimize_raceline)

    p = sub.add_parser("localize", help="replay a sensor log through the EKF")
    p.add_argument("replay_csv")
    _common_flags(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("perceive",
                       help="camera image to a polar depth scan")
    p.add_argument("image_ppm")
    p.add_argument("homography", help="3x3 matrix text file (front px -> BEV px)")
    p.add_argument("--debug", action="store_true",
                   help="dump mask.pgm and bev.pgm stages")
    _common_flags(p)
    p.set_defaults(func=cmd_perceive)

    p = sub.add_parser("simulate", help="closed-loop run from a scenario file")
    p.add_argument("scenario")
    _common_flags(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OptimizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
