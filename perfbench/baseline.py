#!/usr/bin/env python3
"""Measure the baseline recorded in ``perfbench/baseline.json``.

    python3 perfbench/baseline.py

For each workload: two sets of ten untraced runs, each set with seeds
1 to 10.  Each set gives every end-to-end metric's median, quartiles and
spread (interquartile range over median); the second set's median is
compared with the first's, as a share of the first, against the metric's
bound in ``BENCHMARK.json``.  Then two traced runs with seed 1, whose
machine-independent counters must agree exactly.  Run from the root of
a checkout.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "baseline.json"
RUNS = 10
SETS = 2
COUNTERS = [
    "engine.fit_model.calls", "engine.log_likelihood.calls", "engine.minimize.calls",
    "engine.minimize.calls_per_fit", "engine.evals_per_fit", "engine.nonconverged",
    "ingest.encode_design.calls", "selection.candidates", "selection.useful_ratio",
    "rng.binomial.calls", "rng.next_u64.calls", "simulate.generate.calls",
]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "runs": RUNS, "sets": SETS, "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        sets, failed, attempted = [], 0, 0
        for _ in range(SETS):
            values = {}
            for seed in range(1, RUNS + 1):
                info, result = run_once(name, seed, seconds, trace=0)
                report["environment"] = info["environment"]
                failed += result["failed"]
                attempted += result["attempted"]
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, []).append(entry["value"])
                print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
            sets.append({metric: summarize(v) for metric, v in values.items()})
        drift = {}
        for metric, first in sets[0].items():
            change = sets[1][metric]["median"] / first["median"] - 1.0
            drift[metric] = {"median_change": change, "bound": bounds[metric],
                             "within_bound": abs(change) <= bounds[metric]}
        traced = [run_once(name, 1, seconds, trace=1)[1] for _ in range(2)]
        counters = [{c: t["metrics"][c]["value"] for c in COUNTERS} for t in traced]
        report["workloads"][name] = {
            "fail_ratio": {"failed": failed, "attempted": attempted},
            "end_to_end": sets,
            "second_set_vs_first": drift,
            "counters_seed1": counters[0],
            "counters_repeat_exactly": counters[0] == counters[1],
            "per_layer_seed1": {m: e["value"] for m, e in traced[0]["metrics"].items()},
        }
        print(name, json.dumps(drift), flush=True)
    OUT.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
