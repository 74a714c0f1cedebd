"""Pair benchmark results of a parent and a change into one BENCH_<n>.json.

    python3 tools/bench_pair.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \
        [--tier1-s SECONDS]

PARENT_DIR and CHANGE_DIR each hold the ``result-<workload>-seed<n>-trace<t>.json``
files that ``perfbench/run.py`` writes to ``.bench_out/``.  Runs are paired by
workload, seed and trace flag.  The output lists every pair's end-to-end
metrics, the seeds per workload, the machine of each run, the runs that found
no partner, and per workload and metric the two medians, the two
interquartile ranges (null with fewer than two pairs), the number of
pairs the change won and two verdicts.  ``gain_met``: the change won at
least 9 of 10 pairs and its median is better than the parent's by more than
the parent's interquartile range.  ``within_bound``: the change's median is
worse than the parent's by no more than the metric's bound, relative to the
parent's median.  Each metric's direction and bound come from the
repository's BENCHMARK.json, which is only read; a metric it does not list
has null verdicts.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
RESULT = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>\d+)-trace(?P<trace>[01])\.json")


def read_runs(directory: Path) -> dict:
    """{(workload, seed, trace): result} for every result file in directory."""
    runs = {}
    for path in sorted(directory.glob("result-*.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            key = (match["workload"], int(match["seed"]), int(match["trace"]))
            runs[key] = json.loads(path.read_text())
    return runs


def run_summary(result: dict) -> dict:
    return {
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in sorted(result["metrics"].items())},
    }


def iqr(values: list) -> float | None:
    """Interquartile range of values, or None with fewer than two."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdicts(entry: dict, bound: float | None) -> dict:
    """gain_met and within_bound of one summary entry, null where the
    metric has no direction, or no bound for within_bound."""
    sign = {"higher": 1.0, "lower": -1.0}.get(entry["better"])
    if sign is None:
        return {"gain_met": None, "within_bound": None}
    gain = sign * (entry["change_median"] - entry["parent_median"])
    return {
        "gain_met": (10 * entry["change_wins"] >= 9 * entry["pairs"]
                     and entry["parent_iqr"] is not None and gain > entry["parent_iqr"]),
        "within_bound": None if bound is None else -gain <= bound * abs(entry["parent_median"]),
    }


def pair(parent: dict, change: dict, better: dict, bounds: dict) -> dict:
    """The paired report of two {(workload, seed, trace): result} maps."""
    keys = sorted(parent.keys() & change.keys())
    pairs = [
        {"workload": w, "seed": s, "trace": t,
         "parent": run_summary(parent[w, s, t]), "change": run_summary(change[w, s, t])}
        for w, s, t in keys
    ]
    summary = {}
    for p in pairs:
        for name, before in p["parent"]["metrics"].items():
            after = p["change"]["metrics"].get(name)
            if after is None:
                continue
            entry = summary.setdefault(p["workload"], {}).setdefault(
                name, {"parent": [], "change": [], "change_wins": 0})
            entry["parent"].append(before)
            entry["change"].append(after)
            sign = {"higher": 1.0, "lower": -1.0}.get(better.get(name), 0.0)
            entry["change_wins"] += sign * (after - before) > 0.0
    for metrics in summary.values():
        for name, entry in metrics.items():
            metrics[name] = {
                "pairs": len(entry["parent"]),
                "parent_median": statistics.median(entry["parent"]),
                "change_median": statistics.median(entry["change"]),
                "parent_iqr": iqr(entry["parent"]),
                "change_iqr": iqr(entry["change"]),
                "change_wins": entry["change_wins"],
                "better": better.get(name),
            }
            metrics[name].update(verdicts(metrics[name], bounds.get(name)))
    machines = []
    for result in [*parent.values(), *change.values()]:
        machine = result.get("detail", {}).get("machine")
        if machine is not None and machine not in machines:
            machines.append(machine)
    seeds = {}
    for w, s, _ in keys:
        if s not in seeds.setdefault(w, []):
            seeds[w].append(s)
    return {
        "pairs": pairs,
        "summary": summary,
        "seeds": seeds,
        "machines": machines,
        "unpaired": {
            "parent": [list(k) for k in sorted(parent.keys() - change.keys())],
            "change": [list(k) for k in sorted(change.keys() - parent.keys())],
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--tier1-s", type=float, default=None, help="Tier-1 wall time (s)")
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parent, change = read_runs(args.parent), read_runs(args.change)
    if not parent.keys() & change.keys():
        print("error: no run of the same workload and seed in both directories",
              file=sys.stderr)
        return 2
    report = pair(parent, change, better, bounds)
    report["tier1_wall_s"] = args.tier1_s
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
