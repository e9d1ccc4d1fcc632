"""One benchmark worker: set up a workload, run passes over it, print JSON.

perfbench/run.py starts the workers one after another, each under its own
PYTHONHASHSEED, and merges what they print.  A pass sends the whole corpus
through the paths that `omegadet determinize` and `omegadet xcheck` take:

* determinize: parse_hoa -> nbw_to_dpw / nsw_to_dpw -> emit_hoa;
* reference:   parse_hoa -> safra_determinize / streett_safra_determinize
               -> emit_hoa;
* xcheck:      parse the source and the DPW text, then per lasso one
               lasso_member verdict from each.

The three phases are timed.  An untimed gate then parses every DRW and runs
it on the same lassos; its verdicts must match the source automaton's.

The speed of a shared machine drifts: the same pass took 9 s in one run and
14 s in another.  So the worker also times a fixed calibration workload
that does not use omegadet, about 40 times per pass.  Each timed operation
is scaled by Calibration.REFERENCE_S / (median of the five calibration
times around it), so the times a pass reports are seconds at a fixed
machine speed.  The pass's speed_scale, the same ratio over all its
calibration times, scales the per-layer and setup times.

Modes:
  --mode timed --budget S   untraced passes until S seconds are used (at
                            least one pass);
  --mode traced --baseline before|after
                            one traced pass, and one untraced pass before or
                            after it as the baseline of the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from omegadet import compact, hoa, lasso, random_gen, safra

import corpus
from tracing import Tracer

SETUP_REPS = 9
CALIBRATIONS_PER_PASS = 40
OUT_DIR = Path(__file__).resolve().parent / "out"

# Public functions timed in a traced pass, by module.
TRACED = (
    (hoa, ("parse_hoa", "emit_hoa")),
    (compact, ("nbw_to_dpw", "nsw_to_dpw")),
    (safra, (
        "safra_determinize",
        "streett_safra_determinize",
        "safra_step",
        "streett_safra_step",
    )),
    (lasso, ("nbw_member", "nsw_member", "run_deterministic")),
    (random_gen, ("random_nbw", "random_nsw")),
)
COMPACT_STEPS = ("compact_step", "compact_streett_step")
GENERATORS = ("random_gen.random_nbw", "random_gen.random_nsw")


class Calibration:
    """A fixed dict/frozenset workload that does not use omegadet.

    Its working set, 15,000 small frozensets and a dict over them, is a few
    MB like that of the tree steps, so that it speeds up and slows down with
    the machine as they do.  A smaller, cache-resident loop overstated the
    machine's swings by a third.
    """

    # Typical median of measure() within a pass on the machine the benchmark
    # was tuned on (2 cores of a shared machine, Python 3.11.7).  It only
    # sets the unit: scaled times are seconds at the speed where measure()
    # takes this long between the benchmark's operations.
    REFERENCE_S = 3.5e-3

    def __init__(self) -> None:
        rng = random.Random(0)
        self._sets = [frozenset(rng.sample(range(64), 6)) for _ in range(15000)]
        self._index = {s: i for i, s in enumerate(self._sets)}
        self._order = [rng.randrange(len(self._sets)) for _ in range(800)]

    def measure(self) -> float:
        start = time.perf_counter()
        seen = {}
        for j in self._order:
            union = self._sets[j] | self._sets[j - 1]
            seen[(j, union)] = self._index.get(self._sets[j], 0) + len(sorted(union))
        return time.perf_counter() - start

    def scale(self, samples) -> float:
        return self.REFERENCE_S / statistics.median(samples)

    def local_scales(self, samples) -> list[float]:
        """Scale at each calibration: over it and its two neighbours on each side."""
        return [self.scale(samples[max(0, k - 2):k + 3]) for k in range(len(samples))]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _no_span(name):
    return nullcontext()


def _failed(work, what: str) -> None:
    print(f"perfbench: {work.name}: {what}", file=sys.stderr)


def _to_dpw(kind, a):
    if kind == "streett":
        return compact.nsw_to_dpw(a)
    return compact.nbw_to_dpw(a)


def _to_drw(kind, a):
    if kind == "streett":
        return safra.streett_safra_determinize(a)
    return safra.safra_determinize(a)


def run_phases(work, calibration: Calibration, span=_no_span) -> dict:
    """Time the determinize, reference and xcheck phases of one pass.

    The pass runs in `work.rounds` rounds.  Every round determinizes
    each automaton; each automaton's reference and xcheck run in one round
    only, spread evenly over the rounds.  The samples of every phase are so
    spread over the whole pass, and a few seconds in which the machine runs
    faster or slower touch all phases alike instead of one whole phase.
    """
    n = len(work.inputs)
    out = {
        "attempted": 0,
        "failed": 0,
        "latencies_ms": [[] for _ in range(n)],
        "dpw_states": [0] * n,
        "reference_s": 0.0,
        "xcheck_s": 0.0,
        "lassos": 0,
        "accepted": 0,
        "parse_bytes": 0,
        "emit_bytes": 0,
        "transitions": 0,
        "dpw_digests": [None] * n,
        "drw_digests": [None] * n,
        "counts": {
            "output_states": 0,
            "output_bytes": 0,
            "safra.drw_states": 0,
            "compact.max_priority": 0,
        },
    }
    counts = out["counts"]
    dpw_texts: list[str | None] = [None] * n
    drw_texts: list[str | None] = [None] * n
    verdicts: list[list[bool] | None] = [None] * n
    samples: list[float] = []  # calibration times, in pass order
    timed: list[tuple[str, int, int, float]] = []  # operation, automaton, calibration, s

    def fail(what: str, count: int = 1) -> None:
        _failed(work, what)
        out["failed"] += count

    def determinize(i: int, text: str) -> None:
        out["attempted"] += 1
        try:
            with span("determinize"):
                start = time.perf_counter()
                dpw = _to_dpw(work.kind, hoa.parse_hoa(text))
                emitted = hoa.emit_hoa(dpw)
                elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            fail(f"determinize of automaton {i} raised")
            return
        timed.append(("determinize", i, len(samples) - 1, elapsed))
        out["transitions"] += dpw.state_count * len(dpw.alphabet)
        out["parse_bytes"] += len(text)
        out["emit_bytes"] += len(emitted)
        digest = _digest(emitted)
        if dpw_texts[i] is None:
            dpw_texts[i] = emitted
            out["dpw_digests"][i] = digest
            out["dpw_states"][i] = dpw.state_count
            counts["output_states"] += dpw.state_count
            counts["output_bytes"] += len(emitted)
            counts["compact.max_priority"] = max(
                counts["compact.max_priority"], max(dpw.acceptance.priorities)
            )
        elif digest != out["dpw_digests"][i]:
            fail(f"DPW of automaton {i} differs between rounds")

    def reference(i: int, text: str) -> None:
        out["attempted"] += 1
        try:
            with span("reference"):
                start = time.perf_counter()
                drw = _to_drw(work.kind, hoa.parse_hoa(text))
                emitted = hoa.emit_hoa(drw)
                elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            fail(f"reference determinization of automaton {i} raised")
            return
        timed.append(("reference", i, len(samples) - 1, elapsed))
        out["parse_bytes"] += len(text)
        out["emit_bytes"] += len(emitted)
        drw_texts[i] = emitted
        out["drw_digests"][i] = _digest(emitted)
        counts["safra.drw_states"] += drw.state_count

    def xcheck(i: int, text: str) -> None:
        out["attempted"] += len(work.lassos)
        if dpw_texts[i] is None:
            out["failed"] += len(work.lassos)
            return
        try:
            with span("xcheck"):
                start = time.perf_counter()
                source = hoa.parse_hoa(text)
                dpw = hoa.parse_hoa(dpw_texts[i])
                pairs = [
                    (lasso.lasso_member(source, w), lasso.lasso_member(dpw, w))
                    for w in work.lassos
                ]
                elapsed = time.perf_counter() - start
        except Exception:
            traceback.print_exc()
            fail(f"xcheck of automaton {i} raised", len(work.lassos))
            return
        timed.append(("xcheck", i, len(samples) - 1, elapsed))
        out["parse_bytes"] += len(text) + len(dpw_texts[i])
        out["lassos"] += len(pairs)
        verdicts[i] = [expected for expected, _ in pairs]
        out["accepted"] += sum(verdicts[i])
        wrong = sum(expected != got for expected, got in pairs)
        if wrong:
            fail(f"DPW of automaton {i} disagrees with the oracle on {wrong} lassos", wrong)

    every = max(1, work.rounds * n // CALIBRATIONS_PER_PASS)
    for round_ in range(work.rounds):
        for i, text in enumerate(work.inputs):
            if (round_ * n + i) % every == 0:
                samples.append(calibration.measure())
            determinize(i, text)
            if i % work.rounds == round_:
                reference(i, text)
                xcheck(i, text)

    local = calibration.local_scales(samples)
    for operation, i, k, seconds in timed:
        if operation == "determinize":
            out["latencies_ms"][i].append(seconds * local[k] * 1e3)
        else:
            out[f"{operation}_s"] += seconds * local[k]
    out["e2e_s"] = sum(seconds for _, _, _, seconds in timed)  # unscaled
    out["speed_scale"] = calibration.scale(samples)
    out["_drw_texts"] = drw_texts
    out["_verdicts"] = verdicts
    return out


def check_drws(work, result: dict) -> None:
    """Untimed gate: every DRW must agree with the source automaton's verdicts."""
    drw_texts = result.pop("_drw_texts")
    verdicts = result.pop("_verdicts")
    for i, (text, expected) in enumerate(zip(drw_texts, verdicts)):
        if text is None or expected is None:
            continue  # already counted as failed
        result["attempted"] += len(work.lassos)
        try:
            drw = hoa.parse_hoa(text)
            wrong = sum(
                lasso.run_deterministic(drw, w).accepted != v
                for w, v in zip(work.lassos, expected)
            )
        except Exception:
            traceback.print_exc()
            _failed(work, f"DRW check of automaton {i} raised")
            result["failed"] += len(work.lassos)
            continue
        if wrong:
            _failed(work, f"DRW of automaton {i} disagrees with the oracle on {wrong} lassos")
            result["failed"] += wrong


def layer_metrics(tracer: Tracer, first: int, result: dict, peak_nodes: int) -> dict:
    """Per-layer figures of the traced pass whose spans start at `first`.

    Also adds the counts that only a traced pass has to result["counts"].
    """
    rows = tracer.summary(first)

    def self_s(*names):
        return sum(rows[name][2] for name in names if name in rows)

    def calls(*names):
        return sum(rows[name][0] for name in names if name in rows)

    steps = [f"compact.{name}" for name in COMPACT_STEPS]
    step_calls = calls(*steps)
    step_s = self_s(*steps)
    safra_steps = ("safra.safra_step", "safra.streett_safra_step")
    oracles = ("lasso.nbw_member", "lasso.nsw_member", "lasso.run_deterministic")
    parse_s = self_s("hoa.parse_hoa")
    emit_s = self_s("hoa.emit_hoa")
    counts = result["counts"]
    counts["compact.step_calls"] = step_calls
    counts["compact.peak_tree_nodes"] = peak_nodes
    counts["safra.step_calls"] = calls(*safra_steps)
    counts["lasso.queries"] = calls(*oracles)
    return {
        "hoa.parse_s": parse_s,
        "hoa.emit_s": emit_s,
        "hoa.parse_bytes_per_s": result["parse_bytes"] / parse_s,
        "hoa.emit_bytes_per_s": result["emit_bytes"] / emit_s,
        "compact.step_s": step_s,
        "compact.step_us": step_s / step_calls * 1e6,
        "compact.cache_hit_ratio": 1 - step_calls / result["transitions"],
        "compact.closure_s": self_s("compact.nbw_to_dpw", "compact.nsw_to_dpw"),
        "safra.step_s": self_s(*safra_steps),
        "safra.closure_s": self_s(
            "safra.safra_determinize", "safra.streett_safra_determinize"
        ),
        "lasso.nbw_member_s": self_s("lasso.nbw_member"),
        "lasso.nsw_member_s": self_s("lasso.nsw_member"),
        "lasso.run_deterministic_s": self_s("lasso.run_deterministic"),
        "lasso.accept_ratio": result["accepted"] / result["lassos"],
        "spans": {name: row for name, row in sorted(rows.items())},
    }


def install(tracer: Tracer, observe_step) -> None:
    for module, names in TRACED:
        for name in names:
            tracer.wrap(module, name)
    for name in COMPACT_STEPS:
        tracer.wrap(compact, name, observe_step)


def traced_pass(work, calibration: Calibration, tracer: Tracer) -> dict:
    peak = 0

    def observe_step(result):
        nonlocal peak
        peak = max(peak, len(result[0].parents))

    first = len(tracer.spans)
    install(tracer, observe_step)
    try:
        result = run_phases(work, calibration, tracer.span)
    finally:
        tracer.restore()
    check_drws(work, result)
    result["traced"] = True
    result["layers"] = layer_metrics(tracer, first, result, peak)
    return result


def untraced_pass(work, calibration: Calibration) -> dict:
    result = run_phases(work, calibration)
    check_drws(work, result)
    result["traced"] = False
    return result


def setup(name: str, seed: int, tracer: Tracer | None):
    """Build the workload SETUP_REPS times; return it with the timings."""
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPS):
        if tracer is None:
            start = time.perf_counter()
            work = corpus.build(name, seed)
            setup_s.append(time.perf_counter() - start)
            continue
        first = len(tracer.spans)
        install(tracer, None)
        try:
            with tracer.span("setup"):
                start = time.perf_counter()
                work = corpus.build(name, seed)
                setup_s.append(time.perf_counter() - start)
        finally:
            tracer.restore()
        rows = tracer.summary(first)
        generate_s.append(
            sum(rows[name][2] for name in GENERATORS if name in rows)
        )
    return work, setup_s, generate_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--baseline", choices=("before", "after"), default="before")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.mode == "traced" else None
    calibration = Calibration()
    work, setup_s, generate_s = setup(args.workload, args.seed, tracer)
    passes = []
    if tracer is None:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            passes.append(untraced_pass(work, calibration))
            last = time.perf_counter() - began
            if time.perf_counter() - start + last > args.budget:
                break
    else:
        if args.baseline == "before":
            passes.append(untraced_pass(work, calibration))
        passes.append(traced_pass(work, calibration, tracer))
        if args.baseline == "after":
            passes.append(untraced_pass(work, calibration))
        OUT_DIR.mkdir(exist_ok=True)
        hash_seed = os.environ.get("PYTHONHASHSEED", "random")
        tracer.write(
            OUT_DIR / f"trace-{args.workload}-hash{hash_seed}.tsv"
        )
    report = {
        "setup_s": setup_s,
        "generate_s": generate_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latency_samples_per_pass": len(work.inputs) * work.rounds,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
