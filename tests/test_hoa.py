"""HOA subset reader/printer: golden documents, round-trips, strict rejections."""

import dataclasses
import functools
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    MalformedAutomaton,
    ParityAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    nbw_to_dpw,
    nsw_to_dpw,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet import hoa
from omegadet.hoa import HoaError, emit_hoa, parse_hoa
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_fair_nsw, make_inf_a, make_inf_a_dpw
from helpers import build_lk_fixture, child_env, full3, perfbench_corpus, structurally_equal

TINY_DPW_DOC = """HOA: v1
States: 1
Start: 0
AP: 1 "p0"
acc-name: parity min even 1
Acceptance: 1 Inf(0)
properties: deterministic
--BODY--
State: 0 {0}
[!0] 0
[0] 0
--END--
"""

MINIMAL_BUCHI_DOC = """HOA: v1
States: 1
Start: 0
AP: 1 "a"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[!0] 0
[0] 0
--END--
"""

ZERO_AP_DOC = """HOA: v1
States: 1
Start: 0
AP: 0
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[t] 0
--END--
"""


def tiny_dpw() -> Automaton:
    return Automaton(
        alphabet=Alphabet(("x", "y")),
        state_count=1,
        initial=0,
        transitions={(0, "x"): frozenset({0}), (0, "y"): frozenset({0})},
        acceptance=ParityAcceptance((0,), 1),
        deterministic=True,
    )


class TestEmit:
    def test_tiny_dpw_golden_bytes(self):
        assert emit_hoa(tiny_dpw()) == TINY_DPW_DOC

    def test_inf_a_document(self, inf_a):
        lines = emit_hoa(inf_a).splitlines()
        assert lines[0] == "HOA: v1"
        assert "States: 2" in lines
        assert "acc-name: Buchi" in lines
        assert "Acceptance: 1 Inf(0)" in lines
        assert "properties: deterministic" not in lines
        assert lines.index("State: 1 {0}") > lines.index("State: 0")

    def test_rabin_and_streett_headers(self, inf_a, fair_nsw):
        rabin_doc = emit_hoa(safra_determinize(inf_a))
        assert "acc-name: Rabin 2" in rabin_doc
        assert "Acceptance: 4 (Fin(0)&Inf(1)) | (Fin(2)&Inf(3))" in rabin_doc
        streett_doc = emit_hoa(
            Automaton(
                alphabet=Alphabet(("a", "b")),
                state_count=1,
                initial=0,
                transitions={(0, "a"): frozenset({0}), (0, "b"): frozenset({0})},
                acceptance=StreettAcceptance(((frozenset(), frozenset({0})),)),
            )
        )
        assert "acc-name: Streett 1" in streett_doc
        assert "Acceptance: 2 (Fin(0)|Inf(1))" in streett_doc

    def test_zero_ap_document_uses_t_labels(self):
        one_symbol = Automaton(
            alphabet=Alphabet(("tick",)),
            state_count=1,
            initial=0,
            transitions={(0, "tick"): frozenset({0})},
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        doc = emit_hoa(one_symbol)
        assert "AP: 0" in doc
        assert "[t] 0" in doc

    def test_several_targets_are_written_in_ascending_order(self):
        # a letter without an edge writes no line, and a set of several
        # targets is sorted whatever its hash order
        a = Automaton(
            alphabet=Alphabet(("x", "y")),
            state_count=12,
            initial=0,
            transitions={
                (0, "x"): frozenset({11, 2, 0, 9}),
                (0, "y"): frozenset({10}),
                (1, "y"): frozenset({1, 0}),
            },
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        body = emit_hoa(a).split("--BODY--\n")[1]
        assert body.startswith(
            "State: 0 {0}\n[!0] 0\n[!0] 2\n[!0] 9\n[!0] 11\n[0] 10\n"
            "State: 1\n[0] 0\n[0] 1\nState: 2\n"
        )
        assert parse_hoa(emit_hoa(a)).transitions == {
            (0, "0"): frozenset({0, 2, 9, 11}),
            (0, "1"): frozenset({10}),
            (1, "1"): frozenset({0, 1}),
        }

    def test_rejects_non_power_of_two_alphabet(self):
        l3 = build_lk_fixture(3)
        with pytest.raises(HoaError, match="power of two"):
            emit_hoa(l3)

    def test_emit_is_repeatable(self, inf_a):
        assert emit_hoa(inf_a) == emit_hoa(inf_a)

    def test_emit_is_stable_across_hash_seeds(self, inf_a):
        # set/dict iteration must not leak into the bytes of any determinizer
        script = (
            "from omegadet import Alphabet, Automaton, BuchiAcceptance, nbw_to_dpw\n"
            "from omegadet import nsw_to_dpw, safra_determinize, streett_safra_determinize\n"
            "from omegadet.hoa import emit_hoa\n"
            "from omegadet.random_gen import random_nbw, random_nsw\n"
            "import sys\n"
            "a = Automaton(alphabet=Alphabet(('a', 'b')), state_count=2, initial=0,\n"
            "    transitions={(0, 'a'): frozenset({1}), (0, 'b'): frozenset({0}),\n"
            "                 (1, 'a'): frozenset({1}), (1, 'b'): frozenset({0})},\n"
            "    acceptance=BuchiAcceptance(frozenset({1})))\n"
            "nbw, nsw = random_nbw(5, 6), random_nsw(4, 2, 6)\n"
            "sys.stdout.write(emit_hoa(nbw_to_dpw(a)))\n"
            "sys.stdout.write(emit_hoa(nbw_to_dpw(nbw)))\n"
            "sys.stdout.write(emit_hoa(safra_determinize(nbw)))\n"
            "sys.stdout.write(emit_hoa(nsw_to_dpw(nsw)))\n"
            "sys.stdout.write(emit_hoa(streett_safra_determinize(nsw)))\n"
        )
        env = child_env()
        outputs = set()
        for seed in ("0", "1", "31337"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
            )
            if proc.returncode != 0:
                pytest.fail(
                    f"child with PYTHONHASHSEED={seed} exited {proc.returncode}:\n"
                    f"{proc.stderr}"
                )
            outputs.add(proc.stdout)
        assert len(outputs) == 1
        (doc,) = outputs
        assert doc.startswith("HOA: v1\n")
        # the script's first automaton is the inf_a fixture
        nbw, nsw = random_nbw(5, 6), random_nsw(4, 2, 6)
        assert doc == "".join(
            map(emit_hoa, (
                nbw_to_dpw(inf_a),
                nbw_to_dpw(nbw),
                safra_determinize(nbw),
                nsw_to_dpw(nsw),
                streett_safra_determinize(nsw),
            ))
        )


class TestParse:
    def test_minimal_buchi_document(self):
        a = parse_hoa(MINIMAL_BUCHI_DOC)
        assert a.state_count == 1
        assert len(a.alphabet) == 2
        assert a.acceptance == BuchiAcceptance(frozenset({0}))
        assert not a.deterministic
        assert a.successors(0, a.alphabet.symbols[0]) == frozenset({0})

    def test_symbols_are_bit_valuations(self):
        a = parse_hoa(TINY_DPW_DOC)
        assert a.alphabet.symbols == ("0", "1")
        assert a.deterministic

    def test_comments_and_blank_lines_are_skipped(self):
        doc = TINY_DPW_DOC.replace(
            "HOA: v1\n", "HOA: v1\n\n/* produced by hand */\n"
        )
        assert structurally_equal(parse_hoa(doc), tiny_dpw())

    @pytest.mark.parametrize(
        "needle,replacement,fragment",
        [
            ("HOA: v1", "HOA: v2", "HOA: v1"),
            ("acc-name: parity min even 1", "acc-name: parity max odd 1", "polarity"),
            ("Acceptance: 1 Inf(0)", "Acceptance: 1 Fin(0)", "does not match"),
            ("[!0] 0", "[!0] 7", "out of range"),
            ("[0] 0", "[0] 0 {0}", "edge acceptance"),
            ("State: 0 {0}", 'State: [t] 0 {0}', "state label"),
            ("[!0] 0", "0", "implicit"),
            ("--END--", "", "missing --END--"),
            ("Start: 0", "Start: 0&1", "initial state"),
            ("[!0] 0", "[t] 0", r"incomplete label \[t\]: every AP must appear"),
            ("[!0] 0", "[f] 0", r"incomplete label \[f\]: every AP must appear"),
            ("[!0] 0", "[!0 | 0] 0", r"label \[!0 \| 0\] is not a conjunction"),
            ("--BODY--\n", "--BODY--\n[0] 0\n", "edge before any State: line"),
            ("--END--\n", "--END--\n[0] 0\n", "content after --END--"),
            ("State: 0 {0}", "State: 0", "one priority per state; state 0 has 0"),
            ('AP: 1 "p0"', 'AP: 2 "p0"', "AP: declares 2 propositions but names 1"),
        ],
    )
    def test_rejections_name_the_construct(self, needle, replacement, fragment):
        doc = TINY_DPW_DOC.replace(needle, replacement)
        with pytest.raises(HoaError, match=fragment):
            parse_hoa(doc)

    @pytest.mark.parametrize(
        "doc,fragment",
        [
            ("", "empty document"),
            ("\n/* nothing here */\n \t\n", "empty document"),
            (TINY_DPW_DOC.split("--BODY--")[0], "missing --BODY--"),
            (
                ZERO_AP_DOC.replace("[t] 0", "[0] 0"),
                r"label \[0\] must be \[t\] in a document with 0 APs",
            ),
            (
                emit_hoa(make_inf_a_dpw()).replace("State: 0 {0}", "State: 0 {0 1}"),
                "one priority per state; state 0 has 2",
            ),
        ],
        ids=["empty", "blank", "no-body", "zero-ap-label", "two-priorities"],
    )
    def test_rejections_of_whole_documents(self, doc, fragment):
        with pytest.raises(HoaError, match=fragment):
            parse_hoa(doc)

    @pytest.mark.parametrize(
        "doc,acc_name,set_count",
        [
            (TINY_DPW_DOC, "parity min even 1", 1),
            (MINIMAL_BUCHI_DOC, "Buchi", 1),
            (MINIMAL_BUCHI_DOC, "Rabin 1", 2),
            (MINIMAL_BUCHI_DOC, "Streett 1", 2),
            (TINY_DPW_DOC, "parity min even 4", 4),
        ],
        ids=["parity-1", "buchi", "rabin-1", "streett-1", "parity-4"],
    )
    def test_acceptance_without_formula_rejected(self, doc, acc_name, set_count):
        # the set count alone does not stand for the formula
        lines = doc.splitlines(keepends=True)
        lines[4] = f"acc-name: {acc_name}\n"
        lines[5] = f"Acceptance: {set_count}\n"
        with pytest.raises(HoaError, match="does not match") as exc:
            parse_hoa("".join(lines))
        assert exc.value.line == 6

    def test_alias_header_is_rejected(self):
        doc = TINY_DPW_DOC.replace("AP: 1 \"p0\"", "AP: 1 \"p0\"\nAlias: @a 0")
        with pytest.raises(HoaError, match="alias"):
            parse_hoa(doc)

    def test_multiple_start_headers_rejected(self):
        doc = TINY_DPW_DOC.replace("Start: 0", "Start: 0\nStart: 0")
        with pytest.raises(HoaError, match="Start"):
            parse_hoa(doc)

    def test_duplicate_state_rejected(self):
        doc = TINY_DPW_DOC.replace(
            "State: 0 {0}\n[!0] 0\n[0] 0",
            "State: 0 {0}\n[!0] 0\n[0] 0\nState: 0 {0}",
        )
        with pytest.raises(HoaError, match="(duplicate|twice|already)"):
            parse_hoa(doc)

    def test_incomplete_label_rejected(self):
        doc = emit_hoa(
            Automaton(
                alphabet=Alphabet(("a", "b", "c", "d")),
                state_count=1,
                initial=0,
                transitions={
                    (0, sym): frozenset({0}) for sym in ("a", "b", "c", "d")
                },
                acceptance=BuchiAcceptance(frozenset({0})),
            )
        )
        broken = doc.replace("[!0&!1] 0", "[!0] 0")
        with pytest.raises(HoaError, match="missing AP"):
            parse_hoa(broken)

    def test_lying_deterministic_property_rejected(self, inf_a):
        doc = emit_hoa(inf_a).replace(
            "Acceptance: 1 Inf(0)",
            "Acceptance: 1 Inf(0)\nproperties: deterministic",
        )
        doc = doc.replace("State: 0\n[!0] 1\n", "State: 0\n[!0] 1\n[!0] 0\n")
        with pytest.raises(HoaError, match="deterministic"):
            parse_hoa(doc)

    def test_errors_carry_line_numbers(self):
        doc = TINY_DPW_DOC.replace("[!0] 0", "[!0] 9")
        with pytest.raises(HoaError) as exc:
            parse_hoa(doc)
        assert exc.value.line == 10
        assert "line 10:" in str(exc.value)
        # blank and comment lines count, and "\r\n" or "\r" ends one line
        padded = doc.replace("--BODY--\n", "--BODY--\n\n \t\n/* edges */\n")
        for ending in ("\r\n", "\r"):
            with pytest.raises(HoaError, match="out of range") as exc:
                parse_hoa(padded.replace("\n", ending))
            assert exc.value.line == 13

    def test_content_after_end_rejected(self):
        doc = TINY_DPW_DOC + "State: 1\n"
        with pytest.raises(HoaError, match="END"):
            parse_hoa(doc)

    def test_abort_token_rejected(self):
        doc = TINY_DPW_DOC.replace("--END--", "--ABORT--")
        with pytest.raises(HoaError, match="aborted"):
            parse_hoa(doc)

    def test_ap_count_is_bounded(self):
        names = " ".join(f'"p{j}"' for j in range(26))
        doc = TINY_DPW_DOC.replace('AP: 1 "p0"', f"AP: 26 {names}")
        with pytest.raises(HoaError, match="26 propositions exceed") as exc:
            parse_hoa(doc)
        assert exc.value.line == 4

    def test_ap_limit_itself_parses(self):
        names = " ".join(f'"p{j}"' for j in range(16))
        doc = TINY_DPW_DOC.replace('AP: 1 "p0"', f"AP: 16 {names}")
        doc = doc.replace("[!0] 0\n[0] 0\n", "")
        doc = doc.replace("properties: deterministic\n", "")
        assert len(parse_hoa(doc).alphabet) == 1 << 16

    def test_missing_headers_rejected(self):
        for header in ("States: 1", "Start: 0", "AP: 1 \"p0\"",
                       "acc-name: parity min even 1", "Acceptance: 1 Inf(0)"):
            doc = "\n".join(
                line for line in TINY_DPW_DOC.splitlines() if line != header
            ) + "\n"
            with pytest.raises(HoaError):
                parse_hoa(doc)


def _noisy(doc: str) -> str:
    """doc with blank and comment lines, spaces and tabs around its tokens, CRLF."""
    out = ["/* a comment first */", ""]
    for i, line in enumerate(doc.splitlines()):
        if line.startswith("["):
            label, target = line[1:].split("] ")
            line = f"[ {label.replace('&', ' & ')}\t]\t {target}"
        elif line.startswith("State:"):
            line = line.replace("State: ", "State:\t ").replace("{", "\t{ ").replace("}", " }")
        out.append(f" \t{line}\t ")
        if i % 3 == 2:
            out += ["", " \t ", f"/* after line {i + 1} */"]
    return "\r\n".join(out) + "\r\n"


class TestLayout:
    """Blank lines, comments, whitespace and line endings do not change a parse."""

    # each automaton is built when its test runs, so a broken determinizer
    # fails that test, not the module's collection
    @pytest.mark.parametrize(
        "build",
        [
            make_inf_a,
            make_inf_a_dpw,
            lambda: safra_determinize(make_inf_a()),
            lambda: random_nsw(4, 2, seed=1),
            lambda: nsw_to_dpw(random_nsw(4, 2, seed=1)),
            lambda: streett_safra_determinize(random_nsw(4, 2, seed=1)),
            full3,
        ],
        ids=["nbw", "dpw", "drw", "nsw", "nsw-dpw", "nsw-drw", "full3"],
    )
    def test_noisy_text_parses_alike(self, build):
        doc = emit_hoa(build())
        noisy = _noisy(doc)
        assert "\t[ " in noisy and "\t{ " in noisy  # edges and marks are padded
        assert parse_hoa(noisy) == parse_hoa(doc)

    def test_edge_targets_read_alike_in_every_spelling(self):
        doc = TestLetterTable.TWO_STATE_DOC
        # ten digits take the full edge checks, not the short branch
        spelled = doc.replace("[!0] 1", "[!0] 001").replace("[0] 1", "[0]0000000001")
        assert parse_hoa(spelled) == parse_hoa(doc)

    def test_a_target_seen_twice_is_one_successor(self):
        doc = TestLetterTable.TWO_STATE_DOC.replace("[!0] 1\n", "[!0] 1\n[!0] 01\n[!0] 0\n")
        assert parse_hoa(doc).transitions[0, "0"] == frozenset({0, 1})


class TestRoundTrip:
    def test_fixture_round_trips(self, inf_a, fair_nsw, inf_a_dpw):
        wide = Automaton(
            alphabet=Alphabet(("a", "b", "c", "d")),
            state_count=2,
            initial=1,
            transitions={
                (0, "a"): frozenset({0, 1}),
                (0, "d"): frozenset({1}),
                (1, "b"): frozenset({0}),
                (1, "c"): frozenset({1}),
            },
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        for a in (inf_a, fair_nsw, inf_a_dpw, wide, tiny_dpw()):
            if len(a.alphabet) & (len(a.alphabet) - 1):
                continue
            assert structurally_equal(parse_hoa(emit_hoa(a)), a)

    def test_fair_nsw_round_trips(self, fair_nsw):
        # 3-symbol alphabet cannot be emitted; the 4-symbol padding decision
        # is the caller's, so this must fail loudly instead
        with pytest.raises(HoaError, match="power of two"):
            emit_hoa(fair_nsw)

    def test_derived_automata_round_trip(self, inf_a):
        loop_nsw = Automaton(
            alphabet=Alphabet(("a", "b")),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset({0}), (0, "b"): frozenset({0})},
            acceptance=StreettAcceptance(((frozenset({0}), frozenset({0})),)),
        )
        produced = [
            nbw_to_dpw(inf_a),
            safra_determinize(inf_a),
            nsw_to_dpw(loop_nsw),
            streett_safra_determinize(loop_nsw),
        ]
        for a in produced:
            parsed = parse_hoa(emit_hoa(a))
            assert structurally_equal(parsed, a)
            assert parsed.acceptance == a.acceptance

    def test_structurally_equal_is_positional_on_symbols(self, inf_a):
        renamed = Automaton(
            alphabet=Alphabet(("x", "y")),
            state_count=2,
            initial=0,
            transitions={
                (0, "x"): frozenset({1}),
                (0, "y"): frozenset({0}),
                (1, "x"): frozenset({1}),
                (1, "y"): frozenset({0}),
            },
            acceptance=BuchiAcceptance(frozenset({1})),
        )
        assert structurally_equal(inf_a, renamed)
        assert not structurally_equal(inf_a, make_inf_a_dpw())


def _loop(state_count: int, acceptance) -> Automaton:
    """Two letters; every state steps to its successor modulo the state count."""
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=state_count,
        initial=0,
        transitions={
            (s, sym): frozenset({(s + 1) % state_count})
            for s in range(state_count)
            for sym in ("a", "b")
        },
        acceptance=acceptance,
        deterministic=True,
    )


class TestAcceptanceTable:
    @pytest.mark.parametrize(
        "acceptance,state_count,acc_name,acceptance_line",
        [
            (RabinAcceptance(()), 1, "Rabin 0", "Acceptance: 0 f"),
            (StreettAcceptance(()), 1, "Streett 0", "Acceptance: 0 t"),
            (
                StreettAcceptance(
                    (
                        (frozenset({0}), frozenset({1, 2})),
                        (frozenset({2}), frozenset({0, 2})),
                    )
                ),
                3,
                "Streett 2",
                "Acceptance: 4 (Fin(0)|Inf(1)) & (Fin(2)|Inf(3))",
            ),
            (
                RabinAcceptance(((frozenset({1}), frozenset({0, 1})),)),
                2,
                "Rabin 1",
                "Acceptance: 2 (Fin(0)&Inf(1))",
            ),
            (
                ParityAcceptance((0, 0), 1),
                2,
                "parity min even 1",
                "Acceptance: 1 Inf(0)",
            ),
            (
                ParityAcceptance((0, 4, 1), 5),
                3,
                "parity min even 5",
                "Acceptance: 5 Inf(0) | (Fin(1) & (Inf(2) | (Fin(3) & Inf(4))))",
            ),
            (BuchiAcceptance(frozenset()), 2, "Buchi", "Acceptance: 1 Inf(0)"),
        ],
        ids=[
            "rabin-0",
            "streett-0",
            "streett-2",
            "rabin-1",
            "parity-1",
            "parity-5-gap",
            "buchi-empty",
        ],
    )
    def test_acceptance_round_trips_exactly(
        self, acceptance, state_count, acc_name, acceptance_line
    ):
        a = _loop(state_count, acceptance)
        doc = emit_hoa(a)
        assert f"acc-name: {acc_name}" in doc.splitlines()
        assert acceptance_line in doc.splitlines()
        parsed = parse_hoa(doc)
        assert parsed.acceptance == acceptance
        assert structurally_equal(parsed, a)

    def test_parity_formula_nests_every_priority(self):
        def nested(p, index):
            if p == index - 1:
                return f"{'Inf' if p % 2 == 0 else 'Fin'}({p})"
            inner = nested(p + 1, index)
            inner = inner if p + 2 == index else f"({inner})"
            return f"Inf({p}) | {inner}" if p % 2 == 0 else f"Fin({p}) & {inner}"

        for index in range(1, 30):
            doc = emit_hoa(_loop(1, ParityAcceptance((0,), index)))
            assert f"Acceptance: {index} {nested(0, index)}" in doc.splitlines()

    def test_large_parity_index_round_trips(self):
        a = _loop(3, ParityAcceptance((0, 1999, 1000), 2000))
        parsed = parse_hoa(emit_hoa(a))
        assert parsed.acceptance == a.acceptance
        assert structurally_equal(parsed, a)

    @pytest.mark.parametrize("index", [64_000, 10**9])
    @pytest.mark.parametrize("sets_match", [False, True], ids=["set-count", "formula"])
    def test_huge_parity_index_rejected_quickly(self, index, sets_match):
        # a short document must not make the parser build a huge formula
        doc = TINY_DPW_DOC.replace(
            "parity min even 1", f"parity min even {index}"
        ).replace("Acceptance: 1", f"Acceptance: {index if sets_match else 1}")
        started = time.perf_counter()
        with pytest.raises(HoaError, match="Acceptance:") as exc:
            parse_hoa(doc)
        assert time.perf_counter() - started < 1.0
        assert exc.value.line == 6
        assert len(str(exc.value)) < 100

    def test_state_lines_list_each_states_marks_ascending(self):
        # pair i is sets 2i (G) and 2i+1 (R); state 1 is in no set
        pairs = ((frozenset({0}), frozenset({2})), (frozenset({2}), frozenset({0, 2})))
        a = _loop(3, StreettAcceptance(pairs))
        heads = [line for line in emit_hoa(a).splitlines() if line.startswith("State:")]
        assert heads == ["State: 0 {1 2}", "State: 1", "State: 2 {0 2 3}"]

    @pytest.mark.parametrize(
        "acceptance",
        [
            ParityAcceptance((1, 0, 2), 3),
            RabinAcceptance(((frozenset({1}), frozenset({0, 1})),)),
        ],
        ids=["parity", "rabin"],
    )
    def test_a_repeated_mark_counts_once(self, acceptance):
        a = _loop(3, acceptance)
        doc = emit_hoa(a).replace("State: 0 {1}", "State: 0 {1 1}")
        doc = doc.replace("State: 1 {0 1}", "State: 1 {1 0 1 0}")
        assert doc != emit_hoa(a)
        assert parse_hoa(doc).acceptance == acceptance

    @pytest.mark.parametrize("priority", [-1, 5])
    def test_emit_refuses_priority_outside_index(self, priority):
        # such a document would not parse back: "-1" is no mark, 5 no set;
        # the automaton cannot be built, so emit_hoa is never handed one
        with pytest.raises(MalformedAutomaton, match=f"priority {priority} out of range"):
            _loop(2, ParityAcceptance((0, priority), 5))


class TestHeaders:
    @pytest.mark.parametrize(
        "header",
        [
            "States: 1",
            'AP: 1 "q"',
            "acc-name: parity min even 1",
            "Acceptance: 1 Inf(0)",
        ],
        ids=["States", "AP", "acc-name", "Acceptance"],
    )
    def test_repeated_header_rejected_on_its_line(self, header):
        name = header.split(":")[0]
        first = next(
            line for line in TINY_DPW_DOC.splitlines() if line.startswith(name + ":")
        )
        doc = TINY_DPW_DOC.replace(first, f"{first}\n{header}")
        with pytest.raises(
            HoaError, match=f"multiple {name}: headers are unsupported"
        ) as exc:
            parse_hoa(doc)
        assert exc.value.line == TINY_DPW_DOC.splitlines().index(first) + 2

    @pytest.mark.parametrize(
        "doc,message,line",
        [
            ("/* c */\n\nHOA: v2\n--BODY--\n", "expected 'HOA: v1' on the first line", 3),
            ("\n--BODY--\nHOA: v1\n", "expected 'HOA: v1' on the first line", 2),
            ("HOA: v1\n/* c */\nfoo\n", "unsupported header: 'foo'", 3),
            ("HOA: v1\n\nStates: 1\n", "missing --BODY--", None),
            (" \n/* c */\n", "empty document", None),
        ],
        ids=["not-v1", "body-first", "bad-header", "no-body", "empty"],
    )
    def test_header_pass_reports_the_first_fault(self, doc, message, line):
        with pytest.raises(HoaError) as exc:
            parse_hoa(doc)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")

    def test_an_acc_name_count_is_read_as_a_number(self):
        # "Rabin 01" is the condition that emit_hoa writes as "Rabin 1"
        doc = MINIMAL_BUCHI_DOC.replace("acc-name: Buchi", "acc-name: Rabin 01").replace(
            "Acceptance: 1 Inf(0)", "Acceptance: 2 (Fin(0)&Inf(1))"
        )
        assert parse_hoa(doc).acceptance == RabinAcceptance(((frozenset({0}), frozenset()),))

    def test_parity_without_priorities_is_an_unsupported_acc_name(self):
        doc = TINY_DPW_DOC.replace("parity min even 1", "parity min even 0").replace(
            "Acceptance: 1 Inf(0)", "Acceptance: 0 f"
        )
        with pytest.raises(HoaError) as exc:
            parse_hoa(doc)
        assert str(exc.value) == "line 5: unsupported acc-name: 'parity min even 0'"

    def test_emit_refuses_more_aps_than_parse_accepts(self):
        size = 1 << 17
        wide = Automaton(
            alphabet=Alphabet(tuple(str(i) for i in range(size))),
            state_count=1,
            initial=0,
            transitions={},
            acceptance=BuchiAcceptance(frozenset()),
        )
        with pytest.raises(HoaError, match="17 propositions exceed"):
            emit_hoa(wide)



class TestNumbers:
    """Numbers are ASCII decimals; other Unicode digits are a HoaError on their line."""

    @pytest.mark.parametrize(
        "needle,replacement,line",
        [
            ("States: 1", "States: \u00b2", 2),
            ("Start: 0", "Start: \u0660", 3),
            ('AP: 1 "p0"', 'AP: \u00b9 "p0"', 4),
            ("acc-name: parity min even 1", "acc-name: Rabin \u00b2", 5),
            ("Acceptance: 1 Inf(0)", "Acceptance: \u00b9 Inf(0)", 6),
            ("State: 0 {0}", "State: \u0660 {0}", 9),
            ("State: 0 {0}", "State: 0 {\u00b2}", 9),
            ("[!0] 0", "[!0] \u00b2", 10),
            ("[!0] 0", "[!\u00b2] 0", 10),
        ],
        ids=["States", "Start", "AP", "acc-name", "Acceptance", "State",
             "mark", "edge-target", "label-literal"],
    )
    def test_non_ascii_digits_rejected_on_their_line(self, needle, replacement, line):
        doc = TINY_DPW_DOC.replace(needle, replacement)
        with pytest.raises(HoaError) as exc:
            parse_hoa(doc)
        assert exc.value.line == line

    LONG = "1" * 5000

    @pytest.mark.parametrize(
        "needle,replacement,line",
        [
            ("States: 1", f"States: {LONG}", 2),
            ("Start: 0", f"Start: {LONG}", 3),
            ('AP: 1 "p0"', f'AP: {LONG} "p0"', 4),
            ("acc-name: parity min even 1", f"acc-name: Rabin {LONG}", 5),
            ("Acceptance: 1 Inf(0)", f"Acceptance: {LONG} Inf(0)", 6),
            ("State: 0 {0}", f"State: {LONG} {{0}}", 9),
            ("State: 0 {0}", f"State: 0 {{{LONG}}}", 9),
            ("[!0] 0", f"[!0] {LONG}", 10),
            ("[!0] 0", f"[!{LONG}] 0", 10),
            ("properties: deterministic", f"{'h' * 5000}: deterministic", 7),
        ],
        ids=["States", "Start", "AP", "acc-name", "Acceptance", "State",
             "mark", "edge-target", "label-literal", "header-name"],
    )
    def test_over_long_numbers_rejected_on_their_line(self, needle, replacement, line):
        """5,000 digits exceed the 4,300 that int() reads by default.

        The message quotes a bounded part of the value, not all of it.
        """
        doc = TINY_DPW_DOC.replace(needle, replacement)
        assert replacement in doc
        with pytest.raises(HoaError) as exc:
            parse_hoa(doc)
        assert exc.value.line == line
        assert len(str(exc.value)) <= 200

    BIG = "1" * 4000  # int() reads it, but no document has that many states

    @pytest.mark.parametrize(
        "needle,replacement,line,message",
        [
            ("Start: 0", f"Start: {BIG}", 3, "initial state"),
            ("State: 0 {0}", f"State: {BIG} {{0}}", 9, "state"),
            ("[!0] 0", f"[!0] {BIG}", 10, "edge target"),
            ("State: 0 {0}", f"State: 0 {{{BIG}}}", 9, "acceptance mark"),
            ("[!0] 0", f"[!{BIG}] 0", 10, "label references AP"),
            ("States: 1", f"States: 2{BIG}", 13, "duplicate State"),
        ],
        ids=["Start", "State", "edge-target", "mark", "label-literal", "duplicate"],
    )
    def test_out_of_range_numbers_are_not_echoed_whole(
        self, needle, replacement, line, message
    ):
        doc = TINY_DPW_DOC.replace(needle, replacement)
        if message == "duplicate State":
            doc = doc.replace("--END--", f"State: {self.BIG}\n" * 2 + "--END--")
        with pytest.raises(HoaError) as exc:
            parse_hoa(doc)
        assert exc.value.line == line
        assert str(exc.value).startswith(f"line {line}: {message}")
        assert "number too long (4000 digits)" in str(exc.value)
        assert len(str(exc.value)) <= 200


def test_unlisted_parity_state_is_reported_before_allocating_per_state():
    """A document declaring 200,000,000 states but listing one fails at once.

    The child runs under a 1 GiB address-space limit, so a parser that
    allocates per declared state fails there instead of in this process.
    """
    doc = TINY_DPW_DOC.replace("States: 1", "States: 200000000")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from omegadet.hoa import HoaError, parse_hoa\n"
        "try:\n"
        "    parse_hoa(sys.stdin.read())\n"
        "except HoaError as exc:\n"
        "    print(exc)\n"
    )
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=doc,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "parity automata need exactly one priority per state; state 1 has 0\n"
    )


@functools.cache
def _mutation_docs() -> tuple[str, ...]:
    """The documents the parser test mutates, built on first use, not at
    import, so a broken determinizer fails that test, not the collection."""
    return (
        TINY_DPW_DOC,
        MINIMAL_BUCHI_DOC,
        emit_hoa(make_inf_a_dpw()),
        emit_hoa(safra_determinize(make_inf_a())),
        emit_hoa(_loop(3, StreettAcceptance(((frozenset({0}), frozenset({1, 2})),)))),
    )


_MUTATION_ALPHABET = "0123456789 \n{}[]()&|!:\"tfFinIS-"


@settings(max_examples=300, deadline=None)
@given(
    doc=st.deferred(lambda: st.sampled_from(_mutation_docs())),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "insert")),
            st.floats(min_value=0, max_value=1, exclude_max=True),
            st.sampled_from(_MUTATION_ALPHABET),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_parser_accepts_or_raises_hoa_error(doc, edits):
    for op, where, char in edits:
        at = int(where * len(doc))
        if op == "replace":
            doc = doc[:at] + char + doc[at + 1:]
        elif op == "delete":
            doc = doc[:at] + doc[at + 1:]
        else:
            doc = doc[:at] + char + doc[at:]
    try:
        result = parse_hoa(doc)
    except HoaError:
        return
    assert isinstance(result, Automaton)


class TestLetterTable:
    """parse_hoa reads each label text once per document."""

    TWO_STATE_DOC = """HOA: v1
States: 2
Start: 0
AP: 1 "p0"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[!0] 1
[0] 0
State: 1
[!0] 0
[0] 1
--END--
"""

    def test_repeated_labels_read_alike(self):
        a = parse_hoa(self.TWO_STATE_DOC)
        assert a.transitions == {
            (0, "0"): frozenset({1}),
            (0, "1"): frozenset({0}),
            (1, "0"): frozenset({0}),
            (1, "1"): frozenset({1}),
        }

    @pytest.mark.parametrize("line", [12, 13])
    def test_bad_label_raises_on_its_own_line(self, line):
        lines = self.TWO_STATE_DOC.splitlines()
        lines[line - 1] = lines[line - 1].replace("[", "[0&")
        with pytest.raises(HoaError, match="twice") as err:
            parse_hoa("\n".join(lines) + "\n")
        assert err.value.line == line

    def test_labels_are_read_anew_in_every_document(self):
        doc = self.TWO_STATE_DOC.replace('AP: 1 "p0"', 'AP: 2 "p0" "p1"')
        doc = doc.replace("[!0]", "[!0&!1]").replace("[0]", "[0&!1]")
        a = parse_hoa(doc)
        assert a.transitions[(0, "10")] == frozenset({0})
        # the same label texts lack an AP once the document declares three
        wider = doc.replace('AP: 2 "p0" "p1"', 'AP: 3 "p0" "p1" "p2"')
        with pytest.raises(HoaError, match="missing AP") as err:
            parse_hoa(wider)
        assert err.value.line == 9

    TWO_AP_DOC = """HOA: v1
States: 2
Start: 0
AP: 2 "p0" "p1"
acc-name: Buchi
Acceptance: 1 Inf(0)
--BODY--
State: 0 {0}
[!0&!1] 1
[0&!1] 0
[!0&1] 0
[0&1] 1
State: 1
[0&!1] 1
--END--
"""

    @pytest.mark.parametrize(
        "canonical,spelling",
        [
            ("[0&!1] 0", "[!1 & 0] 0"),
            ("[0&!1] 0", "[ !1&0 ] 0"),
            ("[!0&!1] 1", "[!1&!0] 1"),
            ("[0&1] 1", "[1 &0] 1"),
            ("[0&!1] 1", "[! 1 & 0] 1"),
        ],
    )
    def test_other_spellings_read_as_their_letter(self, monkeypatch, canonical, spelling):
        monkeypatch.setattr(hoa, "_CANONICAL_LETTERS", {})
        # the first parse fills the shared table with the canonical texts
        expected = parse_hoa(self.TWO_AP_DOC)
        used = {"[!0&!1]", "[0&!1]", "[!0&1]", "[0&1]"}
        assert set(hoa._CANONICAL_LETTERS[2]) == used
        assert parse_hoa(self.TWO_AP_DOC.replace(canonical, spelling)) == expected
        # another spelling stays with its own document
        assert set(hoa._CANONICAL_LETTERS[2]) == used

    def test_a_bad_label_raises_in_every_document(self):
        parse_hoa(self.TWO_STATE_DOC)
        bad = self.TWO_STATE_DOC.replace("State: 1\n[!0] 0", "State: 1\n[!0&0] 0")
        for _ in range(2):
            with pytest.raises(HoaError, match="twice") as err:
                parse_hoa(bad)
            assert err.value.line == 12

    def test_a_wide_document_shares_only_the_labels_it_uses(self, monkeypatch):
        monkeypatch.setattr(hoa, "_CANONICAL_LETTERS", {})
        # the document of TestParse.test_ap_limit_itself_parses, with three edges
        names = " ".join(f'"p{j}"' for j in range(16))
        doc = TINY_DPW_DOC.replace('AP: 1 "p0"', f"AP: 16 {names}")
        doc = doc.replace("properties: deterministic\n", "")
        labels = [
            "&".join(f"!{j}" for j in range(16)),
            "&".join(map(str, range(16))),
            "&".join(f"{j}" if j % 3 else f"!{j}" for j in range(16)),
        ]
        doc = doc.replace("[!0] 0\n[0] 0\n", "".join(f"[{x}] 0\n" for x in labels))
        a = parse_hoa(doc)
        assert len(a.alphabet) == 1 << 16
        # each text keeps the index of the letter it names
        position = a.alphabet.position
        assert hoa._CANONICAL_LETTERS == {
            16: {
                f"[{labels[0]}]": position["0" * 16],
                f"[{labels[1]}]": position["1" * 16],
                f"[{labels[2]}]": position["".join("1" if j % 3 else "0" for j in range(16))],
            }
        }


def _through_loop(doc: str) -> str:
    """doc with a space after a last line of exactly `--END--`.

    The general loop strips the space; the reader of emitted layouts wants
    the line as `emit_hoa` writes it, so the twin always takes the loop.
    """
    if doc.splitlines()[-1:] != ["--END--"]:
        return doc
    end = doc.rindex("--END--") + len("--END--")
    return f"{doc[:end]} {doc[end:]}"


def _outcome(doc: str) -> Automaton | str:
    """The automaton doc reads as, or the message of the HoaError it raises."""
    try:
        return parse_hoa(doc)
    except HoaError as err:
        return str(err)


class _NoLoop:
    """Stands in for the general loop's line pattern, which it must not read."""

    def findall(self, text):
        raise AssertionError("an emitted deterministic document reached the general loop")


def _counter_dpw(state_count: int, ap_count: int) -> Automaton:
    """Letter i moves s to (s + i + 1) mod state_count; state s has priority s mod 3."""
    alphabet = hoa._valuation_alphabet(ap_count)
    return Automaton(
        alphabet=alphabet,
        state_count=state_count,
        initial=0,
        transitions={
            (s, sym): frozenset({(s + i + 1) % state_count})
            for s in range(state_count)
            for i, sym in enumerate(alphabet.symbols)
        },
        acceptance=ParityAcceptance(tuple(s % 3 for s in range(state_count)), 3),
        deterministic=True,
    )


def _corpus_texts(workload: str) -> list[str]:
    """The emitted DPW and DRW of every source of a perfbench workload at
    seed 3, or of `full3()`."""
    if workload == "full3":
        sources = [full3()]
    else:
        sources = [parse_hoa(t) for t in perfbench_corpus().build(workload, 3).inputs]
    dpw, drw = (
        (nsw_to_dpw, streett_safra_determinize)
        if workload == "streett"
        else (nbw_to_dpw, safra_determinize)
    )
    return [emit_hoa(build(a)) for a in sources for build in (dpw, drw)]


def _corpus_sources(workload: str) -> list[Automaton]:
    """The source automata of a perfbench workload at seed 3, each letter
    named as `parse_hoa` names the letter at its position."""
    corpus = perfbench_corpus()
    rng = random.Random(3)  # renames the states as corpus.build(workload, 3) does
    sources = [corpus.relabel(a, rng) for a in corpus._sources(workload)]
    letters = hoa._valuation_alphabet(len(sources[0].alphabet).bit_length() - 1)
    named = dict(zip(sources[0].alphabet.symbols, letters.symbols))
    return [
        dataclasses.replace(
            a,
            alphabet=letters,
            transitions={(s, named[sym]): t for (s, sym), t in a.transitions.items()},
        )
        for a in sources
    ]


@functools.cache
def _deterministic_docs() -> tuple[str, ...]:
    return (
        TINY_DPW_DOC,
        emit_hoa(make_inf_a_dpw()),
        emit_hoa(safra_determinize(make_inf_a())),
        emit_hoa(_counter_dpw(12, 2)),
    )


class TestEmittedLayout:
    """Emitted deterministic documents skip the general loop and read alike."""

    @pytest.mark.parametrize(
        "workload",
        [
            "tv-buchi", "full-n3", "streett", "full3",
            "tv-buchi-sources", "full-n3-sources", "streett-sources",
        ],
    )
    def test_emitted_documents_read_as_the_loop_reads_them(self, monkeypatch, workload):
        if workload.endswith("-sources"):
            # the nondeterministic sources the loop reads in every perfbench
            # operation: each reads as the automaton it was emitted from
            name = workload.removesuffix("-sources")
            texts = perfbench_corpus().build(name, 3).inputs
            expected = _corpus_sources(name)
        else:
            texts = _corpus_texts(workload)
            assert all("properties: deterministic" in text for text in texts)
            expected = [parse_hoa(_through_loop(text)) for text in texts]
            monkeypatch.setattr(hoa, "_BODY_LINE_RE", _NoLoop())
        for text, loop in zip(texts, expected):
            a = parse_hoa(text)
            assert a == loop
            assert emit_hoa(a) == text

    # edits of emit_hoa(_counter_dpw(12, 2)), whose lines 9-13 are state 0
    # (marks {0}, targets 1..4) and lines 14-18 state 1 (marks {1}, 2..5)
    @pytest.mark.parametrize(
        "old,new,expected",
        [
            ("[!0&!1] 1\n", "[!0&!1] 12\n", "line 10: edge target '12' out of range"),
            ("State: 0 {0}\n", "State: 1 {0}\n", "line 14: duplicate State: '1'"),
            (
                "State: 0 {0}\n[!0&!1] 1\n[0&!1] 2\n[!0&1] 3\n[0&1] 4\n"
                "State: 1 {1}\n[!0&!1] 2\n[0&!1] 3\n[!0&1] 4\n[0&1] 5\n",
                "State: 1 {1}\n[!0&!1] 2\n[0&!1] 3\n[!0&1] 4\n[0&1] 5\n"
                "State: 0 {0}\n[!0&!1] 1\n[0&!1] 2\n[!0&1] 3\n[0&1] 4\n",
                None,
            ),
            ("State: 0 {0}\n", "State: 0 {3}\n", "line 9: acceptance mark '3' out of range"),
            ("[!0&!1] 1\n[0&!1] 2\n", "[0&!1] 2\n[!0&!1] 1\n", None),
            ("[!0&!1] 1\n[0&!1] 2\n", "[!0&!1] 2\n[0&!1] 1\n", "differs"),
            ("[!0&!1] 1\n", "[!0&!1] \n", "line 10: malformed edge '[!0&!1]'"),
            ("[!0&!1] 1\n", "[!0&!1] +1\n", "line 10: unsupported edge target"),
            ("[!0&!1] 1\n", "[!0&!1] ١\n", "line 10: unsupported edge target"),
            ("[!0&!1] 1\n", f"[!0&!1] {'1' * 5000}\n", "line 10: unsupported edge target"),
            ("[!0&!1] 1\n", "[!0&!1] 001\n", None),
            ("[!0&!1] 1\n", "[ !0&!1] 1\n", None),
            ("State: 0 {0}\n", "State: 0 {0} \n", None),
            ("[!0&!1] 1\n", "[!0&!1]  1\n", None),
        ],
        ids=[
            "target-range", "head-number", "heads-swapped", "head-mark", "edges-swapped",
            "targets-swapped", "empty-target", "signed-target", "non-ascii-target",
            "long-target", "zero-padded-target", "label-spacing", "head-trailing-space",
            "target-spacing",
        ],
    )
    def test_an_edited_layout_reads_as_through_the_loop(self, old, new, expected):
        doc = emit_hoa(_counter_dpw(12, 2))
        assert doc.count(old) == 1
        edited = doc.replace(old, new)
        outcome = _outcome(edited)
        assert outcome == _outcome(_through_loop(edited))
        if expected is None:
            assert outcome == parse_hoa(doc)
        elif expected == "differs":
            assert isinstance(outcome, Automaton) and outcome != parse_hoa(doc)
        else:
            assert isinstance(outcome, str) and outcome.startswith(expected)


@settings(max_examples=500, deadline=None)
@given(
    doc=st.deferred(lambda: st.sampled_from(_deterministic_docs())),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("replace", "delete", "insert")),
            st.floats(min_value=0, max_value=1, exclude_max=True),
            st.sampled_from(_MUTATION_ALPHABET),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_edited_deterministic_documents_read_as_through_the_loop(doc, edits):
    """Each edit falls on a digit of the body outside the labels: a target, a
    state number or a mark.  Such edits often keep the emitted layout, so
    the whole-list reader is compared with the loop, not only refused."""
    for op, where, char in edits:
        body = doc.find("--BODY--")
        sites = [m.start(1) for m in re.finditer(r"\[[^\]]*\]|(\d)", doc[body:]) if m.group(1)]
        if not sites:
            break
        at = body + sites[int(where * len(sites))]
        if op == "replace":
            doc = doc[:at] + char + doc[at + 1:]
        elif op == "delete":
            doc = doc[:at] + doc[at + 1:]
        else:
            doc = doc[:at] + char + doc[at:]
    assert _outcome(doc) == _outcome(_through_loop(doc))
