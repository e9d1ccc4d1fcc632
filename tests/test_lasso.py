"""Lasso words and the membership oracles."""

import copy
import gc
import itertools
import random
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    Lasso,
    StreettAcceptance,
    differential_check,
    dualize_parity,
    enumerate_lassos,
    lasso_member,
    nbw_member,
    nsw_member,
    run_deterministic,
)
from omegadet import (
    nbw_to_dpw,
    nsw_to_dpw,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet import lasso as lasso_module
from omegadet.lasso import _sccs
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_loop_nsw
from helpers import (
    build_lk_fixture,
    carving_chain,
    full3,
    product_nbw_member,
    product_nsw_member,
    reach,
    reference_run,
)


class TestLasso:
    def test_str_uses_semicolon_between_prefix_and_period(self):
        assert str(Lasso(("a",), ("b", "a"))) == "(a;b,a)"
        assert str(Lasso((), ("a",))) == "(;a)"

    def test_period_must_be_nonempty(self):
        with pytest.raises(ValueError, match="period"):
            Lasso(("a",), ())

    def test_sequences_are_frozen(self):
        lasso = Lasso(["a"], ["b"])
        assert lasso.prefix == ("a",)
        assert lasso.period == ("b",)


class TestEnumerate:
    def test_counts_for_two_symbols(self):
        # 7 prefixes (<=2) x 6 periods (<=2) and 15 x 30 respectively
        assert len(list(enumerate_lassos(("a", "b"), 2, 2))) == 42
        assert len(list(enumerate_lassos(("a", "b"), 3, 4))) == 450

    def test_prefix_major_length_lex_order(self):
        first = [str(l) for l in enumerate_lassos(("a", "b"), 2, 2)][:8]
        assert first == [
            "(;a)", "(;b)", "(;a,a)", "(;a,b)", "(;b,a)", "(;b,b)",
            "(a;a)", "(a;b)",
        ]

    @pytest.mark.parametrize("max_prefix,max_period", [(-1, 2), (2, 0), (0, -1)])
    def test_empty_budget_is_rejected(self, max_prefix, max_period):
        with pytest.raises(ValueError):
            enumerate_lassos(("a", "b"), max_prefix, max_period)

    def test_all_unique(self):
        lassos = list(enumerate_lassos(("a", "b"), 2, 3))
        assert len(lassos) == len(set(lassos))

    def test_lazy_over_a_large_alphabet(self):
        # 512 letters with periods up to 3 give 1.3e8 periods per prefix;
        # the first lassos must come back without listing any of them
        symbols = tuple(f"s{i}" for i in range(512))
        tracemalloc.start()
        try:
            first = list(itertools.islice(enumerate_lassos(symbols, 1, 3), 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [str(l) for l in first] == ["(;s0)", "(;s1)", "(;s2)"]
        assert peak < 1_000_000


class TestRunDeterministic:
    def test_verdicts_on_handmade_dpw(self, inf_a_dpw):
        cases = [
            ((), ("a",), True),
            ((), ("b",), False),
            ((), ("a", "b"), True),
            (("a", "a"), ("b",), False),
            (("b",), ("b", "a", "b"), True),
        ]
        for prefix, period, want in cases:
            verdict = run_deterministic(inf_a_dpw, Lasso(prefix, period))
            assert verdict.accepted == want, (prefix, period)

    def test_verdicts_on_handmade_dsw(self, inf_a_dpw):
        # Streett pair (R={0}, G={1}): b infinitely often needs a infinitely often
        pair = (frozenset({0}), frozenset({1}))
        dsw = replace(inf_a_dpw, acceptance=StreettAcceptance((pair,)))
        cases = [
            ((), ("a",), True),
            ((), ("b",), False),
            ((), ("a", "b"), True),
            (("a", "a"), ("b",), False),
            (("b",), ("b", "a", "b"), True),
        ]
        for prefix, period, want in cases:
            verdict = run_deterministic(dsw, Lasso(prefix, period))
            assert verdict.accepted == want, (prefix, period)
        for lasso in enumerate_lassos(("a", "b"), 2, 3):
            assert run_deterministic(dsw, lasso).accepted == nsw_member(dsw, lasso)

    def test_cycle_detection_on_pure_period(self, inf_a_dpw):
        verdict = run_deterministic(inf_a_dpw, Lasso((), ("a", "b")))
        assert verdict.cycle_states == frozenset({0, 1})
        assert verdict.entry_steps <= 2

    def test_entry_bound(self, inf_a_dpw):
        # (state, period position) pairs repeat within |states| * |period|
        lasso = Lasso(("a",), ("b", "b", "a"))
        verdict = run_deterministic(inf_a_dpw, lasso)
        assert verdict.entry_steps <= len(lasso.prefix) + 2 * len(lasso.period)

    def test_rejects_nondeterministic_automaton(self, inf_a):
        with pytest.raises(ValueError, match="deterministic"):
            run_deterministic(inf_a, Lasso((), ("a",)))


class TestNbwMember:
    @pytest.mark.parametrize(
        "prefix,period,want",
        [
            ((), ("a",), True),
            ((), ("b",), False),
            ((), ("a", "b"), True),
            ((), ("b", "b", "a"), True),
            (("a", "a", "a"), ("b",), False),
            (("b",), ("a", "a"), True),
        ],
    )
    def test_infinitely_many_a(self, inf_a, prefix, period, want):
        assert nbw_member(inf_a, Lasso(prefix, period)) == want

    def test_prefix_only_automaton_rejects_everything(self):
        # accepting state is unreachable from the loop
        from omegadet import Alphabet, Automaton, BuchiAcceptance

        dead = Automaton(
            alphabet=Alphabet(("a",)),
            state_count=2,
            initial=0,
            transitions={(0, "a"): frozenset({0})},
            acceptance=BuchiAcceptance(frozenset({1})),
        )
        assert not nbw_member(dead, Lasso((), ("a",)))

    def test_requires_buchi(self, fair_nsw):
        with pytest.raises(ValueError, match="Buchi"):
            nbw_member(fair_nsw, Lasso((), ("n",)))


def _nbw(state_count, edges, accepting, symbols=("a", "b")):
    """An NBW from (source, symbol, target) edges, starting in state 0."""
    transitions: dict = {}
    for src, sym, dst in edges:
        transitions.setdefault((src, sym), set()).add(dst)
    return Automaton(
        alphabet=Alphabet(symbols),
        state_count=state_count,
        initial=0,
        transitions=transitions,
        acceptance=BuchiAcceptance(frozenset(accepting)),
    )


def _nsw(state_count, edges, pairs, symbols=("a", "b")):
    """An NSW from (source, symbol, target) edges and (R, G) pairs, starting in state 0."""
    return replace(
        _nbw(state_count, edges, (), symbols),
        acceptance=StreettAcceptance(tuple(pairs)),
    )


def _fresh(a: Automaton) -> Automaton:
    """An equal automaton with an empty memo."""
    return replace(a)


class TestProfileOracle:
    """`nbw_member` against the product oracle it replaced, case by case."""

    def check(self, a, prefix, period, want):
        lasso = Lasso(prefix, period)
        assert product_nbw_member(a, lasso) == want
        assert nbw_member(a, lasso) == want
        assert nbw_member(_fresh(a), lasso) == want

    def test_dead_start_set(self):
        # no run survives the prefix b, so δ(I, u) is empty
        a = _nbw(1, [(0, "a", 0)], {0})
        self.check(a, ("b",), ("a",), False)
        self.check(a, (), ("a", "b"), False)
        self.check(a, (), ("a",), True)

    def test_accepting_state_seen_only_in_the_prefix(self):
        # 0 -a-> 1 (accepting) -b-> 2, and 2 loops on b
        a = _nbw(3, [(0, "a", 1), (1, "b", 2), (2, "b", 2)], {1})
        self.check(a, ("a",), ("b",), False)
        self.check(a, ("a", "b"), ("b",), False)

    def test_accepting_state_only_at_the_start_of_the_period(self):
        # the run sits on accepting 1 when the period starts, then leaves it
        a = _nbw(3, [(0, "a", 1), (1, "b", 2), (2, "b", 2)], {1})
        self.check(a, ("a",), ("b", "b"), False)
        # here it is back on 1 at every period start, and nowhere else
        b = _nbw(2, [(0, "a", 1), (1, "b", 0)], {1})
        self.check(b, ("a",), ("b", "a"), True)
        self.check(b, (), ("a", "b"), True)
        self.check(b, ("a",), ("b",), False)

    def test_period_of_length_one(self):
        # an accepting self-loop on a, reached only through b
        a = _nbw(2, [(0, "a", 0), (0, "b", 1), (1, "a", 1)], {1})
        self.check(a, (), ("a",), False)
        self.check(a, ("b",), ("a",), True)
        self.check(a, ("a", "b"), ("a",), True)
        self.check(a, (), ("b",), False)

    def test_queries_after_other_periods_extend_what_is_explored(self):
        # under the period c: 1 loops through accepting 4; 2 feeds into 1;
        # 3 loops alone, not accepting; 5 feeds into 3
        a = _nbw(
            6,
            [(0, "a", 1), (0, "b", 2), (0, "d", 3), (0, "e", 5),
             (1, "c", 4), (4, "c", 1), (2, "c", 1), (3, "c", 3), (5, "c", 3),
             (1, "a", 2), (2, "a", 2)],
            {4},
            symbols=("a", "b", "c", "d", "e"),
        )
        queries = [
            (("a",), ("a",), False),
            (("a",), ("c",), True),
            (("d",), ("c",), False),
            (("b",), ("a",), False),
            (("b",), ("c",), True),
            (("e",), ("c",), False),
            ((), ("c",), False),
            (("a", "c"), ("c", "c"), True),
        ]
        for prefix, period, want in queries:
            self.check(a, prefix, period, want)
        # five queries explored the period c piece by piece; 2 turned good
        # through 1, which an earlier query had explored
        assert a.lasso_memo[("v", ("c",))] == (0b111111, 0b010110)
        fresh = _fresh(a)
        for prefix, period, want in reversed(queries):
            assert nbw_member(fresh, Lasso(prefix, period)) == want

    def test_lassos_longer_than_the_recursion_limit(self):
        # a period's rows are filled along the word in a loop, not by recursion
        lasso = Lasso(("a",), ("b", "a", "a") * 350)
        for seed in range(3):
            a = random_nbw(4, seed)
            assert nbw_member(a, lasso) == product_nbw_member(a, lasso)


class TestStreettPeriodOracle:
    """`nsw_member` against the product oracle it replaced, case by case."""

    def check(self, a, prefix, period, want):
        lasso = Lasso(prefix, period)
        assert product_nsw_member(a, lasso) == want
        assert nsw_member(a, lasso) == want
        assert nsw_member(_fresh(a), lasso) == want

    def test_queries_after_other_periods_extend_what_is_explored(self):
        # under the period c, with the one pair (R = {4}, G = {1, 3}): 1 and
        # 4 form a fair cycle; 2 feeds into 1; 3 loops alone through G
        # without R; 5 feeds into 3
        a = _nsw(
            6,
            [(0, "a", 1), (0, "b", 2), (0, "d", 3), (0, "e", 5),
             (1, "c", 4), (4, "c", 1), (2, "c", 1), (3, "c", 3), (5, "c", 3),
             (1, "a", 2), (2, "a", 2)],
            [({4}, {1, 3})],
            symbols=("a", "b", "c", "d", "e"),
        )
        queries = [
            (("a",), ("a",), True),
            (("a",), ("c",), True),
            (("d",), ("c",), False),
            (("b",), ("c",), True),
            (("e",), ("c",), False),
            ((), ("c",), False),
            (("a", "c"), ("c", "c"), True),
        ]
        for prefix, period, want in queries[:3]:
            self.check(a, prefix, period, want)
        assert a.lasso_memo[("v", ("c",))] == (0b011010, 0b010010)
        for prefix, period, want in queries[3:]:
            self.check(a, prefix, period, want)
        # the later queries explored 2, 5 and 0; 2 turned good through 1,
        # which an earlier query had explored, and 5 stayed bad through 3
        assert a.lasso_memo[("v", ("c",))] == (0b111111, 0b010110)
        fresh = _fresh(a)
        for prefix, period, want in reversed(queries):
            assert nsw_member(fresh, Lasso(prefix, period)) == want

    def test_pair_visited_only_inside_the_period(self):
        # G = {1} and R = {2} are left at once: every run that visits them
        # is back on 0 at the start of each period
        a = _nsw(3, [(0, "a", 1), (1, "b", 0), (1, "a", 2), (2, "b", 0),
                     (0, "b", 0)], [({2}, {1})])
        self.check(a, (), ("b",), True)
        self.check(a, (), ("a", "b"), False)
        self.check(a, (), ("b", "a", "b"), False)
        self.check(a, (), ("a", "a", "b"), True)
        self.check(a, ("b",), ("a", "b", "a", "a", "b"), True)

    def test_periods_longer_than_the_recursion_limit(self):
        # the product is searched and split into components without recursion
        lasso = Lasso(("a",), ("b", "a", "a") * 350)
        for seed in range(3):
            a = random_nsw(4, 2, seed)
            assert nsw_member(a, lasso) == product_nsw_member(a, lasso)


def test_nsw_member_matches_the_product_oracle():
    # every lasso is asked in order on one automaton and in reverse on an
    # equal one with an empty memo, so each verdict is read once off states
    # that earlier queries explored and once off states it explores itself
    lassos = list(enumerate_lassos(("a", "b"), 3, 4))
    queries = rejected = 0
    mismatches = []
    for n, k, seed in itertools.product((3, 4, 5), (1, 2, 3), range(3)):
        a = random_nsw(n, k, seed)
        want = [product_nsw_member(a, lasso) for lasso in lassos]
        forward = [nsw_member(a, lasso) for lasso in lassos]
        fresh = _fresh(a)
        backward = [nsw_member(fresh, lasso) for lasso in reversed(lassos)][::-1]
        queries += len(lassos)
        rejected += want.count(False)
        for lasso, w, f, b in zip(lassos, want, forward, backward):
            if not w == f == b:
                mismatches.append((n, k, seed, lasso, w, f, b))
    assert queries >= 12_000
    assert rejected >= 300
    assert mismatches == []


def _equivalence_corpus():
    """Small automata and bounded lassos for the oracle equivalence sweep.

    The Tabakov-Vardi NBWs with r = 1.25 and f = 0.1 reject many lassos;
    random_nbw at its defaults accepts most of them.
    """
    for n in (6, 10, 14):
        for seed in range(20):
            yield random_nbw(n, seed, density=1.25 / n, acceptance_density=0.1)
    for n in (2, 3, 4):
        for seed in range(51):
            yield random_nbw(n, seed)
    yield build_lk_fixture(2)
    yield build_lk_fixture(3)


def test_nbw_member_matches_the_product_oracle():
    queries = rejected = 0
    mismatches = []
    lassos_of = {}
    for a in _equivalence_corpus():
        symbols = a.alphabet.symbols
        if symbols not in lassos_of:
            lassos_of[symbols] = list(enumerate_lassos(symbols, 3, 4))
        for lasso in lassos_of[symbols]:
            want = product_nbw_member(a, lasso)
            queries += 1
            rejected += not want
            if nbw_member(a, lasso) != want:
                mismatches.append((a, lasso, want))
    assert queries >= 100_000
    assert rejected >= 25_000
    assert mismatches == []


class TestMemoBound:
    def test_buchi_memo_stays_within_the_cap(self, monkeypatch):
        monkeypatch.setattr(lasso_module, "_MEMO_LIMIT", 24)
        seen = []
        real = lasso_module.nbw_member

        def recording(a, lasso):
            verdict = real(a, lasso)
            seen.append((lasso, verdict, len(a.lasso_memo)))
            return verdict

        monkeypatch.setattr(lasso_module, "nbw_member", recording)
        a = random_nbw(5, seed=7)
        # 15 prefixes and 30 periods: far more distinct words than 24
        assert differential_check([a], 3, 4).agreed == 450
        assert len(seen) == 450
        for lasso, verdict, size in seen:
            assert size <= 24
            assert verdict == real(_fresh(a), lasso) == product_nbw_member(a, lasso)

    def test_memo_is_freed_with_the_automaton(self):
        # no reference cycle keeps the memos alive until the cyclic collector runs
        gc.collect()
        gc.disable()
        try:
            a = random_nbw(5, seed=3)
            b = random_nsw(4, 2, seed=1)
            d = nbw_to_dpw(a)
            for lasso in enumerate_lassos(a.alphabet.symbols, 3, 4):
                nbw_member(a, lasso)
                nsw_member(b, lasso)
                run_deterministic(d, lasso)
            assert len(a.lasso_memo) > 1 and len(b.lasso_memo) > 1
            assert len(d.lasso_memo) > 1
            del a, b, d
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_streett_memo_stays_within_the_cap(self, monkeypatch):
        monkeypatch.setattr(lasso_module, "_MEMO_LIMIT", 24)
        for seed in range(2):
            a = random_nsw(5, 3, seed)
            for lasso in enumerate_lassos(a.alphabet.symbols, 3, 4):
                want = product_nsw_member(a, lasso)
                assert nsw_member(a, lasso) == want, lasso
                assert nsw_member(_fresh(a), lasso) == want, lasso
                assert len(a.lasso_memo) <= 24


def _deterministic_cases():
    """A DPW and a DRW of random_nbw(4, 0..9) and of random_nsw(3, 2, 0..9)."""
    sources = [
        (f"nbw4-{seed}", random_nbw(4, seed), nbw_to_dpw, safra_determinize)
        for seed in range(10)
    ] + [
        (f"nsw3x2-{seed}", random_nsw(3, 2, seed), nsw_to_dpw, streett_safra_determinize)
        for seed in range(10)
    ]
    return [
        pytest.param(determinize, source, id=f"{kind}-{name}")
        for name, source, dpw, drw in sources
        for kind, determinize in (("dpw", dpw), ("drw", drw))
    ]


def _deterministic_buchi(n: int, seed: int) -> Automaton:
    """A random total deterministic Buchi automaton over {a, b}."""
    rng = random.Random(seed)
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=n,
        initial=0,
        transitions={(s, sym): {rng.randrange(n)} for s in range(n) for sym in "ab"},
        acceptance=BuchiAcceptance({s for s in range(n) if rng.random() < 0.4}),
        deterministic=True,
    )


def _assert_runs_match_the_reference(d: Automaton, lassos: list) -> None:
    """run_deterministic on d agrees with the reference, in order and reversed."""
    want = [reference_run(d, lasso) for lasso in lassos]
    forward = _fresh(d)
    assert [run_deterministic(forward, lasso) for lasso in lassos] == want
    backward = _fresh(d)
    got = [run_deterministic(backward, lasso) for lasso in reversed(lassos)]
    assert got[::-1] == want


class TestDeterministicMemo:
    """run_deterministic keeps every walked pair per period; verdicts stay exact."""

    @pytest.mark.parametrize("determinize,source", _deterministic_cases())
    def test_verdicts_match_the_reference_run(self, determinize, source):
        lassos = list(enumerate_lassos(source.alphabet.symbols, 3, 4))
        _assert_runs_match_the_reference(determinize(source), lassos)

    def test_full3_dpw_matches_the_reference_run(self):
        d = nbw_to_dpw(full3())
        rng = random.Random(3)
        symbols = d.alphabet.symbols
        periods = [
            tuple(rng.choice(symbols) for _ in range(rng.randint(1, 4))) for _ in range(40)
        ]
        # each period comes back under several prefixes, so later queries
        # meet pairs that earlier ones walked
        lassos = [
            Lasso(tuple(rng.choice(symbols) for _ in range(rng.randint(0, 3))), period)
            for period in periods
            for _ in range(8)
        ]
        rng.shuffle(lassos)
        _assert_runs_match_the_reference(d, lassos)

    def test_interleaved_with_nbw_member(self):
        # a deterministic Buchi automaton keeps both oracles' entries in one memo
        for seed in range(5):
            a = _deterministic_buchi(6, seed)
            for lasso in enumerate_lassos(("a", "b"), 3, 4):
                member = nbw_member(a, lasso)
                verdict = run_deterministic(a, lasso)
                assert member == nbw_member(_fresh(a), lasso) == product_nbw_member(a, lasso)
                assert verdict == run_deterministic(_fresh(a), lasso) == reference_run(a, lasso)
                assert verdict.accepted == member

    def test_tables_hold_ints_only(self):
        # the cyclic collector does not track a dict of ints, however large
        d = nsw_to_dpw(random_nsw(4, 2, seed=5))
        for lasso in enumerate_lassos(d.alphabet.symbols, 3, 4):
            run_deterministic(d, lasso)
        tables = [runs[0] for key, runs in d.lasso_memo.items() if key[0] == "d"]
        assert len(tables) == 30
        for table in tables:
            assert table and not gc.is_tracked(table)
            assert {type(x) for item in table.items() for x in item} == {int}

    def test_memo_stays_within_the_cap(self, monkeypatch):
        monkeypatch.setattr(lasso_module, "_MEMO_LIMIT", 5)
        d = nsw_to_dpw(random_nsw(4, 2, seed=5))
        lassos = list(enumerate_lassos(d.alphabet.symbols, 3, 4))
        for lasso in lassos + lassos[::-1]:
            assert run_deterministic(d, lasso) == reference_run(d, lasso)
            assert len(d.lasso_memo) <= 5


class TestUnknownSymbols:
    """An unknown symbol is a ValueError that names it, and the memo stays as it was."""

    @pytest.mark.parametrize(
        "oracle,make",
        [
            (nbw_member, lambda: random_nbw(4, 1)),
            (nsw_member, lambda: random_nsw(3, 2, 1)),
            (run_deterministic, lambda: nsw_to_dpw(random_nsw(3, 2, 1))),
        ],
        ids=["nbw_member", "nsw_member", "run_deterministic"],
    )
    def test_bad_queries_raise_and_leave_the_memo(self, oracle, make):
        a = make()
        good = Lasso(("a",), ("b",))
        want = oracle(a, good)
        bad = [
            Lasso(("zz",), ("b",)),
            Lasso(("a", "zz"), ("b",)),
            Lasso(("a",), ("zz",)),
            Lasso((), ("b", "zz")),
            Lasso(("zz",), ("zz",)),
        ]
        for lasso in bad:
            memo = copy.deepcopy(a.lasso_memo)
            for _ in range(2):
                with pytest.raises(ValueError, match=f"{oracle.__name__}: symbol 'zz'"):
                    oracle(a, lasso)
                assert a.lasso_memo == memo
        assert oracle(a, good) == want
        for lasso in (Lasso((), ("b",)), Lasso(("b", "a"), ("b",))):
            assert oracle(a, lasso) == oracle(_fresh(a), lasso)

    def test_the_message_names_a_few_letters_and_cuts_the_symbol(self):
        letters = tuple(f"x{i}" for i in range(1000))
        a = _nbw(1, [(0, sym, 0) for sym in letters], {0}, letters)
        nsw = replace(a, acceptance=StreettAcceptance(()))
        symbol = "y" * 1000
        for oracle, b in [(nbw_member, a), (nsw_member, nsw), (run_deterministic, nbw_to_dpw(a))]:
            with pytest.raises(ValueError) as info:
                oracle(b, Lasso((), (symbol,)))
            message = str(info.value)
            assert f"{'y' * 40!r}... (1000 characters)" in message
            assert "(x0 x1 x2 x3 x4 x5 x6 x7 and 992 more)" in message
            assert len(message) < 200


class TestSccs:
    """`_sccs` finds its own graph and yields each component when it is done."""

    @staticmethod
    def _counted(graph):
        reads = []

        def successors(node):
            reads.append(node)
            return graph[node]

        return reads, successors

    @pytest.mark.parametrize("seed", range(40))
    def test_each_node_is_read_once_and_a_component_follows_what_it_reaches(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        graph = {v: rng.sample(range(n), rng.randint(0, min(n, 3))) for v in range(n)}
        roots = rng.sample(range(n), rng.randint(1, n))
        reaches = {v: set(reach(v, graph.__getitem__)[0]) for v in graph}
        reads, successors = self._counted(graph)
        comps = list(_sccs(roots, successors))
        assert sorted(reads) == sorted(set().union(*map(reaches.get, roots)))
        where = {v: i for i, comp in enumerate(comps) for v in comp}
        assert sorted(where) == sorted(reads)
        for v in reads:
            assert set(comps[where[v]]) == {u for u in reaches[v] if v in reaches[u]}
            assert all(where[t] <= where[v] for t in graph[v])

    def test_the_first_sink_comes_before_a_sibling_branch_is_read(self):
        graph = {0: [1, 2], 1: [3], 2: [0, 3], 3: []}
        reads, successors = self._counted(graph)
        assert next(_sccs([0], successors)) == [3]
        assert reads == [0, 1, 3]


class TestNswMember:
    @pytest.mark.parametrize(
        "prefix,period,want",
        [
            ((), ("n",), False),   # stuck on G without R
            ((), ("r",), False),
            ((), ("g",), True),    # parks where G never recurs
            ((), ("r", "g"), True),
            (("g",), ("r",), False),
            (("r",), ("g",), True),
        ],
    )
    def test_single_fairness_pair(self, fair_nsw, prefix, period, want):
        assert nsw_member(fair_nsw, Lasso(prefix, period)) == want

    def test_no_pairs_accepts_any_live_run(self):
        a = make_loop_nsw([])
        assert nsw_member(a, Lasso((), ("a",)))
        assert nsw_member(a, Lasso(("b",), ("b", "a")))

    def test_empty_pair_never_fires(self):
        # G empty: the implication holds vacuously on every run
        a = make_loop_nsw([((), ())])
        assert nsw_member(a, Lasso((), ("a",)))

    def test_unsatisfiable_pair_rejects(self):
        # G everywhere, R nowhere
        a = make_loop_nsw([((), (0,))])
        assert not nsw_member(a, Lasso((), ("a",)))
        assert not nsw_member(a, Lasso(("a", "b"), ("b",)))

    def test_requires_streett(self, inf_a):
        with pytest.raises(ValueError, match="Streett"):
            nsw_member(inf_a, Lasso((), ("a",)))

    def test_a_carve_per_state_past_the_recursion_depth(self):
        # one Emerson-Lei level per state, as many states as the recursion limit
        assert not nsw_member(carving_chain(), Lasso((), ("t",)))


class TestRouterAndDiff:
    def test_router_matches_specialized_oracles(self, inf_a, fair_nsw, inf_a_dpw):
        lasso = Lasso((), ("a", "b"))
        assert lasso_member(inf_a, lasso) == nbw_member(inf_a, lasso)
        assert lasso_member(inf_a_dpw, lasso) == run_deterministic(
            inf_a_dpw, lasso
        ).accepted
        fair_lasso = Lasso((), ("r", "g"))
        assert lasso_member(fair_nsw, fair_lasso) == nsw_member(fair_nsw, fair_lasso)

    def test_router_rejects_nondeterministic_parity(self, inf_a_dpw):
        from dataclasses import replace

        nd = replace(inf_a_dpw, deterministic=False)
        with pytest.raises(ValueError, match="Buchi or Streett"):
            lasso_member(nd, Lasso((), ("a",)))

    def test_diff_agreement_against_self(self, inf_a):
        report = differential_check([inf_a, inf_a], 2, 2)
        assert report.agreed == 42
        assert report.disagreements == ()

    def test_diff_flags_complement_everywhere(self, inf_a_dpw):
        report = differential_check([inf_a_dpw, dualize_parity(inf_a_dpw)], 2, 2)
        assert report.agreed == 0
        assert len(report.disagreements) == 42
        lasso, left, right = report.disagreements[0]
        assert left != right

    def test_diff_requires_shared_alphabet(self, inf_a, fair_nsw):
        with pytest.raises(ValueError, match="alphabet"):
            differential_check([inf_a, fair_nsw], 1, 1)

    def test_diff_refuses_too_many_lassos_before_the_first_query(self):
        symbols = tuple(format(i, "09b") for i in range(512))
        a = Automaton(
            alphabet=Alphabet(symbols),
            state_count=1,
            initial=0,
            transitions={(0, sym): frozenset({0}) for sym in symbols},
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        # 512 + 512**2 + 512**3 lassos
        with pytest.raises(ValueError, match="134480384 lassos exceed"):
            differential_check([a, a], 0, 3)
        assert differential_check([a, a], 0, 1).agreed == 512

    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_lasso_count_matches_the_enumeration(self, size):
        symbols = "abc"[:size]
        for max_prefix, max_period in itertools.product(range(4), range(1, 5)):
            count = lasso_module._lasso_count(size, max_prefix, max_period)
            assert count == len(list(enumerate_lassos(symbols, max_prefix, max_period)))

    def test_diff_refuses_one_lasso_past_the_limit_over_one_letter(self, monkeypatch):
        a = Automaton(
            alphabet=Alphabet(("a",)),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset({0})},
            acceptance=BuchiAcceptance(frozenset({0})),
        )

        def no_query(*_):
            raise AssertionError("a lasso was queried")

        monkeypatch.setattr(lasso_module, "lasso_member", no_query)
        # 101 prefixes times 9,901 periods
        with pytest.raises(ValueError, match="1000001 lassos exceed the limit of 1000000"):
            differential_check([a], 100, 9_901)

    def test_diff_needs_an_automaton(self):
        with pytest.raises(ValueError, match="need at least one automaton"):
            differential_check([], 1, 1)

    def test_diff_refuses_huge_bounds_without_counting(self, inf_a):
        with pytest.raises(ValueError, match="more than 2\\*\\*64 lassos"):
            differential_check([inf_a], 10**12, 2)


# A verdict only depends on the word, not on the chosen lasso presentation:
# u (v) and u (vv) and (uv) (v) all denote the same infinite word.
@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=5_000),
    st.lists(st.sampled_from(["a", "b"]), min_size=0, max_size=3),
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=3),
)
def test_verdict_invariant_under_representation(n, seed, prefix, period):
    a = random_nbw(n, seed=seed)
    base = nbw_member(a, Lasso(tuple(prefix), tuple(period)))
    unrolled = nbw_member(a, Lasso(tuple(prefix), tuple(period) * 2))
    shifted = nbw_member(a, Lasso(tuple(prefix) + tuple(period), tuple(period)))
    assert base == unrolled == shifted
