#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and record the results.

Pair i runs `perfbench/run.py --workload W --seed SEED+i --seconds S
--trace T` in both checkouts, the base first when i is even and the change
first when it is odd, since on a drifting machine the second run of a pair
tends to read faster.  S is the `run_seconds` of BENCHMARK.json; the script
refuses to start unless both checkouts declare the same benchmark.  Every
run is appended to the JSON file given as --output, and the file's summary
is recomputed over all its runs: per workload, trace mode and metric, the
median of each side, the base side's interquartile range, the ratio
change / base and how many pairs the change won.

Usage (from the repository root, with the base commit checked out in
another directory):
  python3 scripts/bench_pairs.py --base ../parent --change . \\
      --workload tv-buchi --pairs 10 --seed 301 --trace 0 --output BENCH_10.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload/trace and metric: medians, base IQR, ratio and change wins.

    base_iqr is the distance between the base runs' quartiles, the spread a
    gap between the medians is compared with; None for fewer than 2 pairs.
    """
    out: dict = {}
    groups: dict = {}
    for run in runs:
        groups.setdefault((run["workload"], run["trace"]), {}).setdefault(
            run["pair"], {}
        )[run["side"]] = run
    for (workload, trace), pairs in sorted(groups.items()):
        complete = [p for p in pairs.values() if set(p) == {"base", "change"}]
        rows = {}
        for name in sorted(complete[0]["base"]["metrics"]) if complete else ():
            base = [p["base"]["metrics"][name] for p in complete]
            change = [p["change"]["metrics"][name] for p in complete]
            sign = 1 if better.get(name, "higher") == "higher" else -1
            base_median = statistics.median(base)
            quartiles = statistics.quantiles(base, n=4) if len(base) > 1 else None
            rows[name] = {
                "base_median": base_median,
                "base_iqr": quartiles[2] - quartiles[0] if quartiles else None,
                "change_median": statistics.median(change),
                "ratio": statistics.median(change) / base_median if base_median else None,
                "change_wins": sum(sign * (c - b) > 0 for b, c in zip(base, change)),
            }
        out[f"{workload} trace={trace}"] = {
            "pairs": len(complete),
            "failed": sum(p[s]["failed"] for p in complete for s in p),
            "metrics": rows,
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    if json.loads((args.base / "BENCHMARK.json").read_text()) != spec:
        parser.error("the base and change checkouts declare different benchmarks "
                     "in BENCHMARK.json; pairs would not compare the same runs")
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = (
        json.loads(args.output.read_text())
        if args.output.exists()
        else {"command": f"python3 perfbench/run.py --workload W --seed S "
                         f"--seconds {seconds} --trace T", "runs": []}
    )
    sides = {"base": args.base, "change": args.change}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            run = run_once(sides[side], args.workload, seed, seconds, args.trace)
            record["runs"].append({
                "workload": args.workload, "trace": args.trace, "pair": seed,
                "side": side, "first": order[0], **run,
            })
            print(f"{args.workload} trace={args.trace} seed={seed} {side}: "
                  f"failed {run['failed']}", file=sys.stderr)
        record["summary"] = summarize(record["runs"], better)
        args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
