#!/usr/bin/env python3
"""Print the sha256 of every DPW and DRW text of one perfbench corpus.

Each source automaton of `perfbench/corpus.py`'s workload W at seed S is
emitted, parsed back, determinized by the compact construction (DPW) and
by the Safra reference (DRW), and emitted again, as a perfbench pass does.
One line per automaton: its index, the DPW digest and the DRW digest, then
one line with the digest of all lines before it.  Run it in two checkouts
and compare the outputs to check that a change leaves the HOA byte-identical.

Usage (from the repository root):
  python3 scripts/hoa_digests.py --workload full-n3 --seed 3
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from omegadet import compact, hoa, safra  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines(workload: str, seed: int) -> list[str]:
    work = corpus.build(workload, seed)
    if work.kind == "streett":
        dpw_of, drw_of = compact.nsw_to_dpw, safra.streett_safra_determinize
    else:
        dpw_of, drw_of = compact.nbw_to_dpw, safra.safra_determinize
    lines = []
    for i, text in enumerate(work.inputs):
        source = hoa.parse_hoa(text)
        dpw = hoa.emit_hoa(dpw_of(source))
        drw = hoa.emit_hoa(drw_of(source))
        lines.append(f"{i} {digest(dpw)} {digest(drw)}")
    lines.append(f"all {digest(chr(10).join(lines))}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print("\n".join(digest_lines(args.workload, args.seed)))


if __name__ == "__main__":
    main()
