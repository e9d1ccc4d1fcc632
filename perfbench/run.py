#!/usr/bin/env python3
"""Benchmark omegadet's determinize and xcheck paths on seeded corpora.

Usage (from the repository root):
  python3 perfbench/run.py --workload tv-buchi --seed 1 --seconds 30 --trace 0

Runs two workers in turn, one process at a time, under PYTHONHASHSEED=1
and PYTHONHASHSEED=2 (see worker.py).  Their emitted DPW/DRW texts must be
byte-identical and their counts equal; each mismatch is a failed operation.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics, --trace 1 the per-layer ones; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HASH_SEEDS = ("1", "2")
# Each worker must finish in this time so that a run ends within 180 s.
WORKER_TIMEOUT_S = 85
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def _run_worker(args, hash_seed: str, extra: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
    ] + extra
    proc = subprocess.run(
        command,
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker (PYTHONHASHSEED={hash_seed}) exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(values, smallest: int) -> float:
    """Nearest-rank percentile that leaves TAIL_BEYOND of `smallest` samples above it."""
    ordered = sorted(values)
    rank = -(-len(ordered) * (smallest - TAIL_BEYOND) // smallest)  # ceiling
    return ordered[rank - 1]


def _cross_checks(passes) -> dict:
    """Byte identity of every emitted automaton and exact repetition of counts."""
    verdict = {"attempted": 0, "failed": 0}

    def same(values, what: str) -> None:
        verdict["attempted"] += 1
        if any(v != values[0] for v in values):
            verdict["failed"] += 1
            print(f"perfbench: {what} differs between passes: {values}", file=sys.stderr)

    for kind in ("dpw", "drw"):
        for i, digests in enumerate(zip(*(p[f"{kind}_digests"] for p in passes))):
            same(digests, f"{kind.upper()} text of automaton {i}")
    for key in sorted(set().union(*(p["counts"] for p in passes))):
        values = [p["counts"][key] for p in passes if key in p["counts"]]
        if len(values) > 1:
            same(values, f"count {key}")
    return verdict


END_TO_END_UNITS = {
    "determinize_states_per_s": "states/s",
    "determinize_p50_ms": "ms",
    "determinize_tail_ms": "ms",
    "reference_states_per_s": "states/s",
    "xcheck_lassos_per_s": "lassos/s",
    "output_states": "count",
    "output_bytes": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "hoa.parse_s": "s",
    "hoa.emit_s": "s",
    "hoa.parse_bytes_per_s": "B/s",
    "hoa.emit_bytes_per_s": "B/s",
    "compact.step_s": "s",
    "compact.step_calls": "count",
    "compact.step_us": "us",
    "compact.cache_hit_ratio": "ratio",
    "compact.closure_s": "s",
    "compact.peak_tree_nodes": "count",
    "compact.max_priority": "count",
    "safra.step_s": "s",
    "safra.step_calls": "count",
    "safra.closure_s": "s",
    "safra.drw_states": "count",
    "lasso.nbw_member_s": "s",
    "lasso.nsw_member_s": "s",
    "lasso.run_deterministic_s": "s",
    "lasso.queries": "count",
    "lasso.accept_ratio": "ratio",
    "random_gen.generate_s": "s",
    "failed_share": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
}


def end_to_end(reports, passes) -> tuple[dict, str]:
    """End-to-end metrics; times are scaled to the reference machine speed.

    The worker scales each operation's time by the calibration times around
    it; the setup times are scaled by the speed of the pass that follows.
    """
    # latency samples of each automaton, over every pass of both workers
    by_automaton = [
        [x for p in passes for x in p["latencies_ms"][i]]
        for i in range(len(passes[0]["latencies_ms"]))
    ]
    samples = [x for xs in by_automaton for x in xs]
    # The tail level is fixed by the smallest run (one pass per worker), so
    # that it stays the same when a faster program fits more passes.
    smallest = reports[0]["latency_samples_per_pass"] * len(HASH_SEEDS)
    counts = passes[0]["counts"]
    # Each automaton counts once, with its median latency: a few seconds in
    # which the machine runs faster or slower then move the figure less.
    typical_s = sum(statistics.median(xs) for xs in by_automaton if xs) / 1e3

    def per_pass_median(work, seconds: str) -> float:
        return statistics.median(work(p) / p[seconds] for p in passes)

    metrics = {
        "determinize_states_per_s": sum(passes[0]["dpw_states"]) / typical_s,
        "determinize_p50_ms": statistics.median(samples),
        "determinize_tail_ms": _tail(samples, smallest),
        "reference_states_per_s": per_pass_median(
            lambda p: p["counts"]["safra.drw_states"], "reference_s"
        ),
        "xcheck_lassos_per_s": per_pass_median(lambda p: p["lassos"], "xcheck_s"),
        "output_states": counts["output_states"],
        "output_bytes": counts["output_bytes"],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "setup_s": statistics.median(
            s * r["passes"][0]["speed_scale"] for r in reports for s in r["setup_s"]
        ),
    }
    note = (
        f"determinize_tail_ms is p{100 - 100 * TAIL_BEYOND / smallest:g}"
        f" of {len(samples)} samples; "
        + "; ".join(
            f"pass of {p['e2e_s']:.1f} s at speed scale {p['speed_scale']:.3f}"
            for p in passes
        )
    )
    return metrics, note


def per_layer(reports, passes, failed_share: float) -> tuple[dict, str]:
    """Per-layer metrics; times are scaled to the reference machine speed."""
    traced = [p for p in passes if p["traced"]]

    def scaled(p, name: str) -> float:
        unit = PER_LAYER_UNITS[name]
        if unit in ("s", "us"):
            return p["layers"][name] * p["speed_scale"]
        if unit == "B/s":
            return p["layers"][name] / p["speed_scale"]
        return p["layers"][name]

    metrics = {
        name: statistics.median(scaled(p, name) for p in traced)
        for name in traced[0]["layers"]
        if name != "spans"
    }
    for name in PER_LAYER_UNITS:
        if name in traced[0]["counts"]:
            metrics[name] = traced[0]["counts"][name]
    metrics["random_gen.generate_s"] = statistics.median(
        g * r["passes"][0]["speed_scale"] for r in reports for g in r["generate_s"]
    )
    metrics["failed_share"] = failed_share
    traced_s = sum(p["e2e_s"] * p["speed_scale"] for p in traced)
    untraced_s = sum(p["e2e_s"] * p["speed_scale"] for p in passes if not p["traced"])
    metrics["trace.overhead_s"] = (traced_s - untraced_s) / len(traced)
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s

    lines = [f"{'span':<36}{'calls':>10}{'total s':>12}{'self s':>12}"]
    for name, (calls, total, own) in traced[0]["layers"]["spans"].items():
        lines.append(f"{name:<36}{calls:>10}{total:>12.4f}{own:>12.4f}")
    return metrics, "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "omegadet" / "__init__.py").is_file():
        print(f"perfbench: no omegadet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpus import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        # The untraced baseline runs before the traced pass in one worker
        # and after it in the other, so that a machine slowly changing speed
        # cancels out of the overhead.
        plans = [
            (HASH_SEEDS[0], ["--mode", "traced", "--baseline", "before"]),
            (HASH_SEEDS[1], ["--mode", "traced", "--baseline", "after"]),
        ]
    else:
        budget = str(args.seconds / len(HASH_SEEDS))
        plans = [(h, ["--mode", "timed", "--budget", budget]) for h in HASH_SEEDS]
    try:
        reports = [_run_worker(args, h, extra) for h, extra in plans]
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    passes = [p for r in reports for p in r["passes"]]
    checks = _cross_checks(passes)
    attempted = sum(p["attempted"] for p in passes) + checks["attempted"]
    failed = sum(p["failed"] for p in passes) + checks["failed"]
    if args.trace:
        metrics, note = per_layer(reports, passes, failed / attempted)
    else:
        metrics, note = end_to_end(reports, passes)

    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{failed} of {attempted} operations failed", file=sys.stderr)
    print(note, file=sys.stderr)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
