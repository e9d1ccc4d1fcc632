#!/usr/bin/env python3
"""Measure determinized state counts against the theoretical ceilings.

Two experiments:
  * the k-symbol "least recurring symbol is even" family, which is the
    stress case for history-tree constructions, and
  * seeded random Buchi automata, reporting the worst reachable blow-up
    per source size.

Usage:
  PYTHONPATH=src python3 scripts/state_growth.py --max-k 5 --random 50 --states 4
"""

import argparse
import math
import sys
import time

from omegadet import build_lk_fixture, nbw_to_dpw, safra_determinize
from omegadet.random_gen import random_nbw


def bound(n: int) -> int:
    return 2 * n**n * math.factorial(n)


def run_lk(max_k: int, with_reference: bool) -> None:
    print("k-symbol family (compact parity vs reference Rabin):")
    header = f"{'k':>3} {'bound':>12} {'dpw':>8} {'max-prio':>9}"
    if with_reference:
        header += f" {'drw':>8} {'pairs':>6}"
    header += f" {'seconds':>8}"
    print(header)
    for k in range(1, max_k + 1):
        a = build_lk_fixture(k)
        start = time.perf_counter()
        dpw = nbw_to_dpw(a)
        row = (
            f"{k:>3} {bound(k):>12} {dpw.state_count:>8} "
            f"{max(dpw.acceptance.priorities):>9}"
        )
        if with_reference:
            drw = safra_determinize(a)
            row += f" {drw.state_count:>8} {len(drw.acceptance.pairs):>6}"
        row += f" {time.perf_counter() - start:>8.2f}"
        print(row)


def run_random(count: int, max_states: int) -> None:
    print()
    print(f"random Buchi automata, {count} seeds per size:")
    print(f"{'n':>3} {'bound':>12} {'worst dpw':>10} {'mean dpw':>9}")
    for n in range(1, max_states + 1):
        sizes = [
            nbw_to_dpw(random_nbw(n, seed=seed)).state_count
            for seed in range(count)
        ]
        print(
            f"{n:>3} {bound(n):>12} {max(sizes):>10} "
            f"{sum(sizes) / len(sizes):>9.1f}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-k", type=int, default=5,
                        help="largest k for the symbol family (default 5)")
    parser.add_argument("--random", type=int, default=50, metavar="COUNT",
                        help="random automata per size (default 50)")
    parser.add_argument("--states", type=int, default=4,
                        help="largest random-automaton size (default 4)")
    parser.add_argument("--skip-reference", action="store_true",
                        help="skip the (slower) reference construction")
    args = parser.parse_args(argv)
    run_lk(args.max_k, not args.skip_reference)
    if args.random > 0:
        run_random(args.random, args.states)
    return 0


if __name__ == "__main__":
    sys.exit(main())
