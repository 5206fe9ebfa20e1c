"""Write BASELINE.json from the runs recorded in .perfbench_out/results.jsonl.

    python3 perfbench/baseline.py FIRST_SEED LAST_SEED

For every workload it takes the untraced runs with seeds FIRST..LAST
(the latest record of each) and gives each end-to-end metric's median,
quartiles and spread (interquartile range over median), and it takes the
per-layer metrics of the traced run with seed FIRST. Run it from the root
of the checkout the runs were made in.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = Path.cwd() / ".perfbench_out" / "results.jsonl"


def main() -> int:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    latest = {}
    for line in RESULTS.read_text().splitlines():
        record = json.loads(line)
        latest[record["workload"], record["seed"], record["trace"]] = record
    out = {
        "about": (
            f"End-to-end: median and quartiles of the untraced runs with seeds {first}-{last}, "
            "timings at reference speed (see calibrate.py). "
            f"Per-layer: the traced run with seed {first}."
        ),
        "workloads": {},
    }
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = [latest[name, s, 0] for s in range(first, last + 1) if (name, s, 0) in latest]
        if not runs:
            continue
        out["environment"] = runs[-1]["environment"]
        entry = {"why": workload["why"], "runs": len(runs), "seconds": runs[-1]["seconds"]}
        for key in ("failed_ratio", "latency_tail_percentile", "latency_samples"):
            entry[key] = statistics.median(r["details"][key] for r in runs)
        entry["end_to_end"] = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric["name"]] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "unit": metric["unit"],
                "iqr_over_median": (q3 - q1) / median,
            }
        traced = latest.get((name, first, 1))
        if traced is not None:
            entry["per_layer_seed"] = first
            entry["per_layer"] = traced["metrics"]
        out["workloads"][name] = entry
    (HERE / "BASELINE.json").write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
