"""One measured run of a workload, in a process of its own.

    python3 perfbench/worker.py WORKDIR --seconds S [--trace] [--setup-only]

WORKDIR holds the inputs and manifest.json written by workloads.generate().
The worker imports gokart, loads and validates the inputs, notes the
monotonic time at which it is ready for the first timed call, and then
repeats the workload operation for S seconds (at least twice, so every run
checks that a repeat at the same seed gives identical outputs). Without
--trace, each operation runs slices of the reference loop (`reference.py`)
spread over its span, untimed: a closed loop every twelfth of its physics
steps, a raceline batch between its tracks. The operation's ref_s is the
reference's wall per pass over those slices. It prints one JSON object as
its last stdout line.

With --trace, untraced and traced operations alternate; the untraced ones
(at least two) give the tracing overhead, the spread it is judged against,
and the reference output digests.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import gokart.sim as sim
import gokart.track as track
from gokart.sim import build_scenario, load_scenario
from gokart.track import (OptimizationError, alpha_bounds,
                          centerline_curvature_cost, offset_curvature_cost,
                          read_track_csv)

import spans
import workloads
from reference import SLICES, reference_s

# test_06's cross-track tolerance for the pursuit scenario.
PURSUIT_MAX_XTE_M = 0.5


class Item:
    """One checked output: its digest, why it failed (None if it did not),
    and whether the failure means the output itself is wrong."""

    def __init__(self, digest, failure=None, wrong=False):
        self.digest = digest
        self.failure = failure
        self.wrong = wrong


class Outcome:
    def __init__(self, wall_s, items, quality):
        self.wall_s = wall_s
        self.items = items
        self.quality = quality
        self.ref_s = None


def _raised(exc) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"raised {type(exc).__name__}"


class ClosedLoop:
    """`run_closed_loop` on the generated scenario; one call per operation."""

    def __init__(self, workdir: Path, manifest: dict):
        self.scenario = load_scenario(workdir / manifest["scenario"])
        ref = read_track_csv(self.scenario.track, self.scenario.track_closed,
                             self.scenario.vehicle_half_width)
        self.usable_half_width = float(
            np.min(np.minimum(ref.w_left, ref.w_right))
            - ref.vehicle_half_width)
        self.pursuit = self.scenario.mode == "pursuit"
        self.ticks = int(round(self.scenario.duration_s / self.scenario.dt))

    def op(self, tracer=None, pace=None) -> Outcome:
        """One `run_closed_loop` call. `pace`, if given, runs before every
        SLICES-th part of the physics steps (the loop looks `bicycle_step` up
        in `gokart.sim` on every tick) and returns its wall time, which is
        not counted."""
        paced = []
        if pace is not None:
            step, calls = sim.bicycle_step, 0
            every = max(1, self.ticks // SLICES)

            def paced_step(*args, **kwargs):
                nonlocal calls
                calls += 1
                if calls % every == 0:
                    paced.append(pace())
                return step(*args, **kwargs)

            sim.bicycle_step = paced_step
        start = time.perf_counter()
        try:
            if tracer is None:
                report = sim.run_closed_loop(self.scenario)
            else:
                report = tracer.call(spans.LOOP, sim.run_closed_loop,
                                     (self.scenario,), {})
        except Exception as exc:
            return Outcome(time.perf_counter() - start - sum(paced),
                           [Item(None, _raised(exc))], {})
        finally:
            if pace is not None:
                sim.bicycle_step = step
        wall = time.perf_counter() - start - sum(paced)
        digest = hashlib.sha256()
        for name in sorted(report.logs):
            digest.update(name.encode())
            digest.update(report.logs[name].encode())
        failures = []
        if report.boundary_violations:
            failures.append(f"{report.boundary_violations} boundary violations")
        if report.safety_stops:
            failures.append(f"{report.safety_stops} safety stops")
        if self.pursuit and report.lap_time_s is None:
            failures.append("no lap")
        if self.pursuit and report.max_cross_track_error_m > PURSUIT_MAX_XTE_M:
            failures.append(f"max_xte_m > {PURSUIT_MAX_XTE_M}")
        quality = {
            "lap_time_s": report.lap_time_s,
            "max_xte_m": report.max_cross_track_error_m,
            "mean_xte_m": report.mean_abs_cross_track_error_m,
            "quality_ratio": (report.mean_abs_cross_track_error_m
                              / self.usable_half_width),
        }
        return Outcome(wall, [Item(digest.hexdigest(),
                                   "; ".join(failures) or None)], quality)


class RacelineBatch:
    """`optimize_min_curvature` + `build_raceline` over the batch, with the
    defaults `gokart optimize-raceline` uses."""

    def __init__(self, workdir: Path, manifest: dict):
        self.cfg = build_scenario({})
        self.entries = manifest["tracks"]
        self.tracks = [read_track_csv(workdir / e["file"], self.cfg.track_closed,
                                      self.cfg.vehicle_half_width)
                       for e in self.entries]
        self._centerline_k2 = None

    def op(self, tracer=None, pace=None) -> Outcome:
        """Solve the batch; `pace`, if given, runs between two tracks and is
        not counted."""
        cfg = self.cfg
        results = []
        wall = 0.0
        for i, t in enumerate(self.tracks):
            if pace is not None and i:
                pace()
            start = time.perf_counter()
            alpha = line = error = None
            try:
                alpha = track.optimize_min_curvature(
                    t, reg=cfg.opt_reg, max_iters=cfg.opt_max_iters)
                line = track.build_raceline(t, alpha, cfg.limits, cfg.spacing_m)
            except OptimizationError as exc:
                alpha, error = exc.alpha, "OptimizationError"
            except Exception as exc:
                error = _raised(exc)
            wall += time.perf_counter() - start
            results.append((alpha, line, error))
        if self._centerline_k2 is None:
            self._centerline_k2 = [centerline_curvature_cost(t)
                                   for t in self.tracks]
        items, ratios = [], []
        for t, k2_0, (alpha, line, error) in zip(self.tracks,
                                                 self._centerline_k2, results):
            items.append(self._check(t, alpha, line, error))
            if alpha is not None and not items[-1].wrong:
                # a failed solve contributes its best iterate
                ratios.append(offset_curvature_cost(t, alpha) / k2_0)
        # fsum: the mean does not depend on the order the batch ran in
        k2_ratio = math.fsum(ratios) / len(ratios) if ratios else None
        return Outcome(wall, items, {"k2_ratio": k2_ratio,
                                     "quality_ratio": k2_ratio})

    @staticmethod
    def _check(t, alpha, line, error) -> Item:
        if alpha is None:
            return Item(None, error)
        digest = hashlib.sha256(np.ascontiguousarray(alpha).tobytes())
        lo, hi = alpha_bounds(t)
        if not (np.all(np.isfinite(alpha)) and np.all(alpha >= lo)
                and np.all(alpha <= hi)):
            return Item(None, "offsets outside the width box", wrong=True)
        if line is not None:
            digest.update(np.ascontiguousarray(line.xy).tobytes())
            digest.update(np.ascontiguousarray(line.v).tobytes())
            if not (len(line) >= 8 and line.length > 0.0
                    and np.all(np.isfinite(line.v))):
                return Item(None, "degenerate raceline", wrong=True)
        return Item(digest.hexdigest(), error)


def load(workdir: Path):
    manifest = json.loads((workdir / "manifest.json").read_text())
    if manifest["kind"] == "closed_loop":
        return manifest, ClosedLoop(workdir, manifest)
    return manifest, RacelineBatch(workdir, manifest)


def blas_threads():
    """Threads OpenBLAS will use, read from the library numpy loaded."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return None


def process_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def wrapper_cost_ns(samples=20000) -> float:
    """Median added cost of one traced call of a function that does nothing."""
    noop = (lambda: None)
    wrapped = spans.Tracer().wrap("calibration", noop)
    medians = []
    for fn in (wrapped, noop):
        costs = []
        for _ in range(samples):
            t0 = time.perf_counter_ns()
            fn()
            costs.append(time.perf_counter_ns() - t0)
        medians.append(statistics.median(costs))
    return medians[0] - medians[1]


def _quantile(sorted_values, q) -> float:
    if not sorted_values:
        return 0.0
    return float(sorted_values[min(len(sorted_values) - 1,
                                   int(q * len(sorted_values)))])


def layer_metrics(tracer, traced, untraced) -> dict:
    """Per span: calls and self time per traced operation (median over the
    operations), and p50/p95 of the inclusive duration of one call."""
    recorded = tracer.spans
    selfs = spans.self_times(recorded)
    runs = sorted({s[4] for s in recorded})
    calls = {r: {} for r in runs}
    self_ns = {r: {} for r in runs}
    iterations = {r: {} for r in runs}
    fg_calls = {r: 0 for r in runs}
    durations = {name: [] for name in spans.SPANS}
    for (name, start, end, _, run, attrs), own in zip(recorded, selfs):
        calls[run][name] = calls[run].get(name, 0) + 1
        self_ns[run][name] = self_ns[run].get(name, 0) + own
        durations[name].append(end - start)
        if attrs:
            n = attrs["n"]
            iterations[run][n] = iterations[run].get(n, 0) + attrs["nit"]
            fg_calls[run] += attrs["nfev"]
    out = {}
    for name in spans.SPANS:
        d = sorted(durations[name])
        out[f"{name}.calls"] = statistics.median(
            calls[r].get(name, 0) for r in runs)
        out[f"{name}.self_ms"] = statistics.median(
            self_ns[r].get(name, 0) / 1e6 for r in runs)
        out[f"{name}.p50_us"] = _quantile(d, 0.50) / 1e3
        out[f"{name}.p95_us"] = _quantile(d, 0.95) / 1e3
    out["track.iterations"] = statistics.median(
        sum(iterations[r].values()) for r in runs)
    out["track.fg_calls"] = statistics.median(fg_calls[r] for r in runs)
    for n in workloads.RACELINE_SIZES:
        out[f"track.iterations.n{n}"] = statistics.median(
            iterations[r].get(n, 0) for r in runs)
    # On the closed loops every span nests under the loop span, so all self
    # times add up to the operation's wall by construction (the ratio checks
    # only that the tracer loses no time). The named layer spans alone, the
    # loop's own self time left out, are what layers.json predicts and can
    # drift; on raceline there is no loop span and the two ratios agree.
    out["trace.accounted_ratio"] = statistics.median(
        sum(self_ns[r].values()) / 1e9 / o.wall_s
        for r, o in zip(runs, traced))
    out["trace.named_ratio"] = statistics.median(
        (sum(self_ns[r].values()) - self_ns[r].get(spans.LOOP, 0)) / 1e9
        / o.wall_s for r, o in zip(runs, traced))
    walls = [o.wall_s for o in untraced]
    out["trace.overhead_ratio"] = (
        statistics.median(o.wall_s for o in traced)
        / statistics.median(walls) - 1.0)
    # the overhead is within noise when it is smaller than this
    q1, _, q3 = statistics.quantiles(walls, n=4)
    out["trace.untraced_spread"] = (q3 - q1) / statistics.median(walls)
    reference = [i.digest for i in untraced[0].items]
    out["trace.digest_match"] = int(all(
        [i.digest for i in o.items] == reference for o in traced))
    out["trace.wrapper_ns"] = wrapper_cost_ns()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    manifest, workload = load(args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    untraced, traced = [], []
    parts = workloads.REFERENCE_PARTS[manifest["workload"]]
    if tracer is None:
        reference_s(parts)  # warm-up, not counted

    def enough():
        return len(untraced) >= 2 and (tracer is None or bool(traced))

    while not enough() or time.monotonic() - ready < args.seconds:
        if tracer is not None and len(untraced) > len(traced):
            tracer.new_run()
            with spans.installed(tracer):
                traced.append(workload.op(tracer))
        elif tracer is not None:
            untraced.append(workload.op())
        else:
            slices = []

            def pace():
                slices.append(reference_s(parts, 1))
                return slices[-1]

            outcome = workload.op(pace=pace)
            if slices:
                outcome.ref_s = sum(slices) * SLICES / len(slices)
            untraced.append(outcome)

    # every operation repeats the same inputs, so each output must match
    # the first untraced operation's
    reference = [i.digest for i in untraced[0].items]
    failed, reasons, correct = 0, set(), True
    for o in untraced + traced:
        for item, ref in zip(o.items, reference):
            if item.digest != ref:
                if item.failure is None:
                    item.failure = "output differs from a repeat at the same seed"
                correct = False
            correct = correct and not item.wrong
            if item.failure is not None:
                failed += 1
                reasons.add(item.failure)
    result = {
        "ready": ready,
        "workload": manifest["workload"],
        "seed": manifest["seed"],
        "op_s": [o.wall_s for o in untraced],
        "ref_s": [o.ref_s for o in untraced],
        "attempted": sum(len(o.items) for o in untraced + traced),
        "failed": failed,
        "correct": correct,
        "reasons": sorted(reasons),
        "quality": untraced[0].quality,
        "sim_s": manifest.get("duration_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads(),
            "process_threads": process_threads(),
        },
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, traced, untraced)
        result["spans"] = list(spans.SPANS)
        tracer.write(args.workdir.parent / f"spans-{manifest['workload']}-"
                     f"{manifest['seed']}.csv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
