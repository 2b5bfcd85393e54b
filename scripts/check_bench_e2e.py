#!/usr/bin/env python3
"""Schema guard for BENCH_e2e.json, the end-to-end benchmark trajectory.

BENCH_e2e.json holds one entry per measured change, oldest first. Each
entry is a labelled `benchmark/run_bench.py set` result with the bulky
per-repetition values and spans dropped:

  {"schema": "ftgcs-bench-e2e-v1",
   "entries": [{"label": str,
                "results": {"schema": "ftgcs-bench-results-v1",
                            "scale": "full" | "smoke", "seed": int,
                            "nproc": int, "started": str,
                            "workloads": {name: {
                                "end_to_end": {metric: {"median", "q1",
                                                        "q3", "n"}},
                                "attempted": int, "failed": int,
                                "failed_share": float,
                                "per_layer": {metric: number}}}}}]}

Workload names must be those of benchmark/workloads.json and every
end-to-end metric of BENCHMARK.json must be present. Only the shape is
checked: the numbers come from whatever host ran the set and are never
compared here.

  check_bench_e2e.py [BENCH_e2e.json]
      Validates the file (default: the one at the repository root).
  check_bench_e2e.py --append RESULTS.json --label TEXT [BENCH_e2e.json]
      Trims a `run_bench.py set` result, appends it as a new entry, and
      validates the file.

Exit status: 0 valid, 1 schema violations, 2 usage/IO error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "ftgcs-bench-e2e-v1"
RESULTS_SCHEMA = "ftgcs-bench-results-v1"
KEPT = ("end_to_end", "attempted", "failed", "failed_share", "per_layer")


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check(doc, workload_names, metric_names):
    problems = []
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
        return [f"top level: schema must be {SCHEMA!r}"]
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["top level: 'entries' must be a non-empty list"]
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(entry.get("label"), str) or not entry["label"]:
            problems.append(f"{where}: 'label' must be a non-empty string")
        results = entry.get("results")
        if not isinstance(results, dict):
            problems.append(f"{where}: 'results' must be an object")
            continue
        if results.get("schema") != RESULTS_SCHEMA:
            problems.append(f"{where}: results schema must be {RESULTS_SCHEMA!r}")
        if results.get("scale") not in ("full", "smoke"):
            problems.append(f"{where}: scale must be 'full' or 'smoke'")
        for key in ("seed", "nproc"):
            if not is_count(results.get(key)):
                problems.append(f"{where}: {key!r} must be a non-negative integer")
        if not isinstance(results.get("started"), str):
            problems.append(f"{where}: 'started' must be a string")
        workloads = results.get("workloads")
        if not isinstance(workloads, dict) or not workloads:
            problems.append(f"{where}: 'workloads' must be a non-empty object")
            continue
        for name, wl in workloads.items():
            problems += check_workload(f"{where}.{name}", name, wl,
                                       workload_names, metric_names)
    return problems


def check_workload(where, name, wl, workload_names, metric_names):
    problems = []
    if name not in workload_names:
        problems.append(f"{where}: not a workload of benchmark/workloads.json")
    if not isinstance(wl, dict):
        return problems + [f"{where}: not an object"]
    e2e = wl.get("end_to_end")
    if not isinstance(e2e, dict):
        return problems + [f"{where}: 'end_to_end' must be an object"]
    for metric in metric_names:
        stat = e2e.get(metric)
        if not isinstance(stat, dict):
            problems.append(f"{where}: end-to-end metric {metric!r} missing")
            continue
        for key in ("median", "q1", "q3"):
            if not is_number(stat.get(key)):
                problems.append(f"{where}.{metric}: {key!r} must be a finite number")
        if not is_count(stat.get("n")) or stat["n"] < 1:
            problems.append(f"{where}.{metric}: 'n' must be a positive integer")
    for key in ("attempted", "failed"):
        if not is_count(wl.get(key)):
            problems.append(f"{where}: {key!r} must be a non-negative integer")
    share = wl.get("failed_share")
    if not is_number(share) or not 0.0 <= share <= 1.0:
        problems.append(f"{where}: 'failed_share' must be a number in [0, 1]")
    layers = wl.get("per_layer", {})
    if not isinstance(layers, dict) or not all(
            isinstance(k, str) and is_number(v) for k, v in layers.items()):
        problems.append(f"{where}: 'per_layer' must map names to finite numbers")
    return problems


def trim(results):
    """A `run_bench.py set` result without its per-repetition values."""
    kept = {k: results[k] for k in ("schema", "scale", "seed", "nproc", "started")
            if k in results}
    kept["workloads"] = {
        name: {k: wl[k] for k in KEPT if k in wl}
        for name, wl in results.get("workloads", {}).items()}
    return kept


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        print(f"check_bench_e2e: {path}: {error}", file=sys.stderr)
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("path", nargs="?", default=str(ROOT / "BENCH_e2e.json"))
    parser.add_argument("--append", metavar="RESULTS.json")
    parser.add_argument("--label")
    args = parser.parse_args()
    if (args.append is None) != (args.label is None):
        parser.error("--append and --label go together")

    bench = load(ROOT / "BENCHMARK.json")
    workload_names = {w["name"] for w in load(ROOT / "benchmark/workloads.json")["workloads"]}
    metric_names = [m["name"] for m in bench["end_to_end"]]

    path = Path(args.path)
    if args.append is not None:
        doc = load(path) if path.exists() else {"schema": SCHEMA, "entries": []}
        doc.setdefault("entries", []).append(
            {"label": args.label, "results": trim(load(args.append))})
    else:
        doc = load(path)

    problems = check(doc, workload_names, metric_names)
    for problem in problems:
        print(f"check_bench_e2e: {path}: {problem}", file=sys.stderr)
    if problems:
        return 1
    if args.append is not None:
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    print(f"check_bench_e2e: {path}: {len(doc['entries'])} entries OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
