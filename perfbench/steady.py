"""Run the benchmark repeatedly and record run-to-run spread per metric.

Usage, from the repository root:

    python3 perfbench/steady.py --set set1 --first-seed 1000 --machine "2-vCPU Xeon VM"
    python3 perfbench/steady.py --set set2 --first-seed 2000 --machine "2-vCPU Xeon VM"

A set is ``--runs`` separate ``run.py --trace 0`` processes per workload, one
seed each, with the ``run_seconds`` of BENCHMARK.json, followed by one
``run.py --trace 1`` with the set's first seed.  For every end-to-end metric
it prints the median and the spread: the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound, and the spread the same metric would
have without the scaling to the reference speed (``measured_spread``).

The set is stored under ``sets`` in ``--out`` (perfbench/BASELINE.json by
default); each workload run replaces that workload in a set of the same
name and keeps everything else.  The file
also gets every metric's median over all stored runs (``baseline_medians``)
and each later set's medians relative to the first set's (``median_drift``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run.py process: its JSON result and the numbers it printed beside it."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall_s = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{command} failed:\n{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            printed[parts[1]] = float(parts[2])
    result = json.loads(lines[-1])
    printed = {k: v for k, v in printed.items() if k not in result["metrics"]}
    return result, {**printed, "wall_s": wall_s}


def flat(seed: int, result: dict) -> dict:
    return {
        "seed": seed,
        **{key: result[key] for key in ("correct", "attempted", "failed")},
        **{name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float], bound) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else None
    return {
        "median": median, "q1": q1, "q3": q3, "spread": share, "bound": bound,
        "within_bound": share is not None and bound is not None and share <= bound,
    }


def run_set(spec: dict, workload: str, seeds: range) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in seeds:
        result, printed = run_once(spec, workload, seed, 0)
        beside = {k: v for k, v in printed.items() if k.startswith("measured_")}
        runs.append({
            **flat(seed, result), **beside,
            "speed_factor": printed["speed_factor"], "wall_s": printed["wall_s"],
        })
        print(workload, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
              flush=True)
    summary = {
        metric: spread([r[metric] for r in runs], bounds[metric]) for metric in bounds
    }
    for metric, s in summary.items():
        measured = [r[f"measured_{metric}"] for r in runs if f"measured_{metric}" in r]
        if measured:
            s["measured_spread"] = spread(measured, None)["spread"]
        print(f"{workload:<11} {metric:<16} median {s['median']:<12.6g} spread "
              f"{s['spread']:.4f}  bound {s['bound']}  measured_spread "
              f"{s.get('measured_spread')}", flush=True)
    result, printed = run_once(spec, workload, seeds[0], 1)
    traced = {**flat(seeds[0], result), "printed": printed}
    print(workload, "traced", json.dumps(traced), flush=True)
    return {"runs": runs, "spread": summary, "traced": traced}


def summarize(doc: dict) -> None:
    """Baseline medians over all stored runs, and drift of later sets' medians."""
    sets = list(doc["sets"].values())
    baseline = {}
    for workload in sets[0]:
        runs = [r for s in sets if workload in s for r in s[workload]["runs"]]
        baseline[workload] = {
            metric: statistics.median(r[metric] for r in runs)
            for metric in sets[0][workload]["spread"]
        }
    doc["baseline_medians"] = baseline
    first_name, first = next(iter(doc["sets"].items()))
    doc["median_drift"] = {
        f"{name}_vs_{first_name}": {
            workload: {
                metric: data["spread"][metric]["median"] / s["median"] - 1
                for metric, s in first[workload]["spread"].items()
            }
            for workload, data in later.items() if workload in first
        }
        for name, later in list(doc["sets"].items())[1:]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", required=True, help="name of the set, e.g. set1")
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--machine", required=True, help="the hardware the set ran on")
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.is_file() else {}
    doc["about"] = (
        f"Written by perfbench/steady.py: per set, run_seconds from BENCHMARK.json, {args.runs} "
        "run.py --trace 0 processes per workload with one seed each, and one --trace 1 "
        "run with the set's first seed."
    )
    doc["machine"] = args.machine
    stored = doc.setdefault("sets", {}).setdefault(args.set, {})
    for workload in names:
        stored[workload] = run_set(spec, workload, seeds)
    summarize(doc)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
