"""Print every end-to-end metric of every workload, one row per workload.

    python3 perfbench/summary.py [--seed 7] [--scenario-seed 7]

Each workload is measured exactly as `run.py --trace 0` measures it, for the
`run_seconds` that BENCHMARK.json sets (its own worker processes, output
checks included). Besides the benchmark's metrics
the table shows the figures they are made from: op_s (median operation wall
time), sim_rate (simulated seconds per host second, closed loops), raceline_s
(the batch solve, raceline), fail_ratio with its counts, lap_time_s,
max_xte_m, mean_xte_m and k2_ratio. `--scenario-seed` replaces the closed
loops' scenario seed, for a check on a held-out scenario.
Exits 1 if any run fails its output checks or cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import workloads

COLUMNS = (("op_rel", "ratio"), ("op_s", "s"), ("setup_s", "s"),
           ("peak_rss_mb", "MB"), ("quality_ratio", "ratio"),
           ("sim_rate", "sim-s/s"),
           ("raceline_s", "s"), ("fail_ratio", "ratio"), ("lap_time_s", "s"),
           ("max_xte_m", "m"), ("mean_xte_m", "m"), ("k2_ratio", "ratio"))


def row(result: dict, detail: dict) -> dict:
    values = {k: m["value"] for k, m in result["metrics"].items()}
    op = values["op_s"] = statistics.median(detail["op_s"])
    if detail.get("sim_s"):
        values["sim_rate"] = detail["sim_s"] / op
    else:
        values["raceline_s"] = op
    values["fail_ratio"] = (f"{result['failed'] / result['attempted']:.3g} "
                            f"({result['failed']}/{result['attempted']})")
    for key in ("lap_time_s", "max_xte_m", "mean_xte_m", "k2_ratio"):
        if detail["quality"].get(key) is not None:
            values[key] = detail["quality"][key]
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--scenario-seed", type=int,
                    default=workloads.SCENARIO_SEED)
    args = ap.parse_args(argv)
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    rows, ok, machine = [], True, None
    for name in workloads.WORKLOADS:
        try:
            result, detail = run.measure(name, args.seed, seconds, False,
                                         args.scenario_seed)
        except run.BenchError as exc:
            print(f"{name}: benchmark failed: {exc}", file=sys.stderr)
            ok = False
            continue
        machine = machine or run.describe(result, detail)[0]
        ok = ok and result["correct"]
        rows.append((name, row(result, detail), result["correct"],
                     detail["reasons"]))

    if machine:
        print(machine)
    print(f"seed {args.seed}, scenario seed {args.scenario_seed}, "
          f"{seconds:g} s per run")
    header = ["workload"] + [f"{k} [{u}]" for k, u in COLUMNS] + ["correct"]
    table = [header]
    for name, values, correct, _ in rows:
        cells = [name]
        for key, _ in COLUMNS:
            v = values.get(key, "-")
            cells.append(f"{v:.6g}" if isinstance(v, float) else str(v))
        table.append(cells + [str(correct)])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    for name, _, _, reasons in rows:
        if reasons:
            print(f"{name} failures: {'; '.join(reasons)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
