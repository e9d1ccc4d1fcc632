"""Command-line entry point.

Subcommands exchange automata as HOA files and print line-oriented
`key: value` reports.  Exit codes: 0 for a positive verdict (or plain
success), 1 for a negative verdict (rejected word, found disagreement),
2 for unusable input.
"""

from __future__ import annotations

import argparse
import sys

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    StreettAcceptance,
    dualize_parity,
)
from omegadet.compact import nbw_to_dpw, nsw_to_dpw
from omegadet.hoa import HoaError, _describe_acceptance, emit_hoa, parse_hoa
from omegadet.lasso import (
    Lasso,
    _named_letters,
    differential_check,
    lasso_member,
    run_deterministic,
)
from omegadet.random_gen import random_nbw
from omegadet.safra import safra_determinize, streett_safra_determinize


class CliError(Exception):
    pass


def _load(path: str) -> Automaton:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_hoa(handle.read())
    except OSError as err:
        raise CliError(f"cannot read {path}: {err.strerror}") from err


def _store(path: str, a: Automaton) -> None:
    text = emit_hoa(a)
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise CliError(f"cannot write {path}: {err.strerror}") from err


def _split_word(text: str) -> tuple[str, ...]:
    if not text:
        return ()
    parts = tuple(p for p in text.split(","))
    if any(not p for p in parts):
        raise CliError(f"empty symbol in word {text!r}")
    return parts


def _cmd_determinize(args) -> int:
    a = _load(args.input)
    compact = args.backend == "compact"
    if isinstance(a.acceptance, BuchiAcceptance):
        result = nbw_to_dpw(a) if compact else safra_determinize(a)
    elif isinstance(a.acceptance, StreettAcceptance):
        result = nsw_to_dpw(a) if compact else streett_safra_determinize(a)
    else:
        raise CliError("determinize supports Buchi or Streett input")
    _store(args.output, result)
    if args.stats:
        print(f"states: {result.state_count}")
        if isinstance(result.acceptance, ParityAcceptance):
            print(f"max-priority: {max(result.acceptance.priorities)}")
        else:
            print(f"pairs: {len(result.acceptance.pairs)}")
    return 0


def _cmd_complement(args) -> int:
    a = _load(args.input)
    if isinstance(a.acceptance, ParityAcceptance):
        if not a.deterministic:
            raise CliError("nondeterministic parity input cannot be complemented")
        dpw = a
    elif isinstance(a.acceptance, BuchiAcceptance):
        dpw = nbw_to_dpw(a)
    elif isinstance(a.acceptance, StreettAcceptance):
        dpw = nsw_to_dpw(a)
    else:
        raise CliError("complement supports Buchi, Streett, or deterministic parity")
    _store(args.output, dualize_parity(dpw))
    return 0


def _cmd_member(args) -> int:
    a = _load(args.input)
    prefix = _split_word(args.prefix)
    period = _split_word(args.period)
    if not period:
        raise CliError("--period must be a nonempty comma-separated word")
    lasso = Lasso(prefix, period)
    verdict = run_deterministic(a, lasso) if a.deterministic else None
    accepted = lasso_member(a, lasso) if verdict is None else verdict.accepted
    print(f"accepted: {'true' if accepted else 'false'}")
    if verdict is not None:
        print(f"cycle-entry: {verdict.entry_steps}")
        print(f"cycle-size: {len(verdict.cycle_states)}")
        if isinstance(a.acceptance, ParityAcceptance):
            seen = sorted({a.acceptance.priorities[s] for s in verdict.cycle_states})
            print(f"cycle-priorities: {' '.join(str(p) for p in seen)}")
    return 0 if accepted else 1


def _report_diff(report) -> int:
    total = report.agreed + len(report.disagreements)
    print(f"lassos: {total}")
    print(f"agreed: {report.agreed}")
    print(f"disagreements: {len(report.disagreements)}")
    if report.disagreements:
        lasso, left, right = report.disagreements[0]
        print(f"first-disagreement: {lasso}")
        print(f"left: {'true' if left else 'false'}")
        print(f"right: {'true' if right else 'false'}")
        return 1
    return 0


def _cmd_xcheck(args) -> int:
    if args.random is not None:
        if args.states is None:
            raise CliError("--random needs --states")
        if args.random < 1:
            raise CliError(f"--random {args.random} < 1: nothing to check")
        worst = 0
        for i in range(args.random):
            nbw = random_nbw(args.states, args.seed + i)
            dpw = nbw_to_dpw(nbw)
            report = differential_check([nbw, dpw], args.max_prefix, args.max_period)
            if report.disagreements:
                print(f"automaton: {i}")
                return _report_diff(report)
            worst = max(worst, dpw.state_count)
        print(f"checked: {args.random}")
        print(f"max-dpw-states: {worst}")
        print("disagreements: 0")
        return 0
    if not args.left or not args.right:
        raise CliError("xcheck needs --left and --right (or --random)")
    left = _load(args.left)
    right = _load(args.right)
    if left.alphabet.symbols != right.alphabet.symbols:
        raise CliError("alphabets differ between --left and --right")
    report = differential_check([left, right], args.max_prefix, args.max_period)
    return _report_diff(report)


def _cmd_stats(args) -> int:
    a = _load(args.input)
    print(f"states: {a.state_count}")
    print(f"symbols: {len(a.alphabet)}")
    print(f"alphabet: {_named_letters(a.alphabet.symbols)}")
    print(f"acceptance: {_describe_acceptance(a.acceptance)[0]}")
    print(f"deterministic: {'true' if a.deterministic else 'false'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegadet",
        description="Determinize, complement, and cross-check omega-automata.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("determinize", help="turn a Buchi/Streett automaton deterministic")
    p.add_argument(
        "--backend",
        choices=("compact", "safra"),
        default="compact",
        help="compact: parity output; safra: reference Rabin output",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(run=_cmd_determinize)

    p = sub.add_parser("complement", help="complement via determinization + dualization")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_complement)

    p = sub.add_parser("member", help="decide membership of an ultimately periodic word")
    p.add_argument("--input", required=True)
    p.add_argument("--prefix", default="", help="comma-separated prefix (may be empty)")
    p.add_argument("--period", required=True, help="comma-separated period")
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("xcheck", help="differential membership check")
    p.add_argument("--left")
    p.add_argument("--right")
    p.add_argument("--max-prefix", type=int, required=True)
    p.add_argument("--max-period", type=int, required=True)
    p.add_argument(
        "--random",
        type=int,
        help="self-test COUNT random Buchi automata against their determinization",
    )
    p.add_argument("--states", type=int, help="state count for --random")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=_cmd_xcheck)

    p = sub.add_parser("stats", help="describe an automaton file")
    p.add_argument("--input", required=True)
    p.set_defaults(run=_cmd_stats)
    return parser


def run_cli(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 2
    try:
        return args.run(args)
    except (CliError, HoaError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
