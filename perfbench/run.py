"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Writes the workload's inputs (from the seed)
under .perfbench_out/, then measures in child processes so that interpreter
start and peak memory belong to this run alone:

- --trace 0: several set-up-only children (interpreter start, `import
  gokart`, loading and validating the inputs) for setup_s, then one child
  that repeats the workload operation for S seconds, with slices of the
  reference loop run (untimed) during each. Prints op_rel (the median over the
  operations of operation wall / reference wall), setup_s, peak_rss_mb and
  quality_ratio.
- --trace 1: one child that alternates untraced and traced operations and
  reports the per-layer span metrics.

Human-readable lines come first; the last stdout line is the JSON result.
Exits non-zero without a result if the program cannot be run or measured.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_ONLY_CHILDREN = 4
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {"op_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
                    "quality_ratio": "ratio"}


class BenchError(RuntimeError):
    """The program could not be run or measured."""


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in ((".self_ms", "ms"), ("_us", "us"), ("_ratio", "ratio"),
                         ("_spread", "ratio"), ("_ns", "ns"),
                         (".digest_match", "bool")):
        if name.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one BLAS thread: the matrices are small and a single thread is the
    # steadiest; the process stays within the 2 cores it is sized for
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # fixed string hashing, so dict and set layouts repeat from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start a worker, wait for it, and return (spawn time, its JSON)."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return spawned, json.loads(lines[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def op_rel(detail: dict) -> float:
    """Median over the operations of wall / the reference's wall per pass
    in the slices run during it."""
    return statistics.median(o / r for o, r in zip(detail["op_s"],
                                                    detail["ref_s"]) if r)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            scenario_seed: int = workloads.SCENARIO_SEED):
    """Run one benchmark run. Returns (result JSON, worker detail)."""
    if not (ROOT / "src" / "gokart" / "__init__.py").is_file():
        raise BenchError(f"no gokart sources under {ROOT / 'src'}")
    deadline = time.monotonic() + TIME_LIMIT_S
    out = ROOT / ".perfbench_out"
    work = out / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        workloads.generate(workload, seed, work, scenario_seed)
        if trace:
            _, detail = run_child([str(work), "--seconds", str(seconds),
                                   "--trace"], deadline)
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in detail["layers"].items()}
        else:
            setups = []
            for _ in range(SETUP_ONLY_CHILDREN):
                spawned, ready = run_child([str(work), "--seconds", "0",
                                            "--setup-only"], deadline)
                setups.append(ready["ready"] - spawned)
            spawned, detail = run_child([str(work), "--seconds", str(seconds)],
                                        deadline)
            setups.append(detail["ready"] - spawned)
            detail["setup_s"] = setups
            quality = detail["quality"].get("quality_ratio")
            values = {"op_rel": op_rel(detail),
                      "setup_s": statistics.median(setups),
                      "peak_rss_mb": detail["peak_rss_mb"],
                      "quality_ratio": quality if quality is not None else 0.0}
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in values.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": bool(detail["correct"]) and (
                  not trace or detail["layers"]["trace.digest_match"] == 1),
              "attempted": int(detail["attempted"]),
              "failed": int(detail["failed"]),
              "metrics": metrics}
    detail["cpu"] = cpu_model()
    return result, detail


def describe(result: dict, detail: dict) -> list[str]:
    """Human-readable lines for one run."""
    m = detail["machine"]
    lines = [f"machine: python {m['python']}, numpy {m['numpy']}, scipy "
             f"{m['scipy']}, nproc {m['nproc']} (affinity {m['affinity']}), "
             f"cpu {detail['cpu']}, blas threads {m['blas_threads']}, "
             f"process threads {m['process_threads']}"]
    ops = detail["op_s"]
    line = (f"{detail['workload']} seed {detail['seed']}: {len(ops)} untraced "
            f"ops, median {statistics.median(ops):.4f} s (min {min(ops):.4f}, "
            f"max {max(ops):.4f})")
    refs = [r for r in detail["ref_s"] if r]
    if refs:
        line += (f", reference median {statistics.median(refs):.4f} s per "
                 f"pass, op_rel {op_rel(detail):.4f}")
    if "setup_s" in detail:
        line += f", setup median of {len(detail['setup_s'])}"
    if detail.get("sim_s"):
        line += f", sim_rate {detail['sim_s'] / statistics.median(ops):.3f} sim-s/s"
    lines.append(line)
    q = ", ".join(f"{k} {v!r}" for k, v in detail["quality"].items())
    lines.append(f"quality: {q}")
    lines.append(f"checks: correct={result['correct']}, attempted "
                 f"{result['attempted']}, failed {result['failed']}"
                 + (f" ({'; '.join(detail['reasons'])})"
                    if detail["reasons"] else ""))
    if "layers" in detail:
        lines.extend(describe_layers(detail))
    return lines


def describe_layers(detail: dict) -> list[str]:
    layers = detail["layers"]
    names = detail["spans"]
    # share of the traced operation: all spans nest under it
    op_ms = sum(layers[f"{s}.self_ms"] for s in names)
    predicted, groups, named_share = {}, [], 0.0
    for p in json.loads((HERE / "layers.json").read_text())["predictions"]:
        if p["workload"] != detail["workload"]:
            continue
        if "sim.run_closed_loop" not in p["spans"]:
            named_share += p["share"] or 0.0
        if len(p["spans"]) == 1:
            predicted[p["spans"][0]] = p["share"]
        else:
            groups.append(p)
    lines = [f"{'span':30s} {'calls':>7s} {'self_ms':>10s} {'share':>6s} "
             f"{'pred':>5s} {'p50_us':>9s} {'p95_us':>10s}"]
    for s in names:
        if not layers[f"{s}.calls"]:
            continue
        share = layers[f"{s}.self_ms"] / op_ms
        pred = predicted.get(s)
        wrapper = layers["trace.wrapper_ns"] / 1e3 / layers[f"{s}.p50_us"]
        note = ("  (p50 mostly wrapper cost)" if wrapper >= 0.5 else
                f"  (wrapper up to {wrapper:.0%} of p50)" if wrapper > 0.1 else "")
        lines.append(f"{s:30s} {layers[f'{s}.calls']:7g} "
                     f"{layers[f'{s}.self_ms']:10.1f} {share:6.1%} "
                     f"{'' if pred is None else f'{pred:.0%}':>5s} "
                     f"{layers[f'{s}.p50_us']:9.1f} "
                     f"{layers[f'{s}.p95_us']:10.1f}{note}")
    for g in groups:
        share = sum(layers[f"{s}.self_ms"] for s in g["spans"]) / op_ms
        lines.append(f"group {' + '.join(g['spans'])}: {share:.1%}, "
                     f"predicted {g['share']:.0%}")
    overhead = layers["trace.overhead_ratio"]
    spread = layers["trace.untraced_spread"]
    named = layers["trace.named_ratio"]
    lines.append(f"trace: overhead {overhead:.1%} vs untraced "
                 f"(untraced ops spread {spread:.1%}"
                 + (", so within noise)" if abs(overhead) < spread else ")")
                 + f", digest match {layers['trace.digest_match']}, "
                 f"wrapper {layers['trace.wrapper_ns']:.0f} ns per call; "
                 f"track.iterations {layers['track.iterations']:g}")
    lines.append(f"self times: all spans {layers['trace.accounted_ratio']:.4f}"
                 f" of the traced op; named layer spans {named:.3f}, "
                 f"predicted {named_share:.2f}"
                 + (" (DRIFT: off by more than 0.10)"
                    if abs(named - named_share) > 0.10 else ""))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="gokart benchmark run")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, detail = measure(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in describe(result, detail):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
