"""Core types: validation, duals, fixtures, generators."""

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    RabinAcceptance,
    MalformedAutomaton,
    StreettAcceptance,
    dualize_parity,
)
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_fair_nsw, make_inf_a, make_inf_a_dpw
from helpers import (
    build_lk_fixture,
    is_total,
    nsw_witness_union_nbw,
    reach,
    reachable_states,
)


class TestAlphabet:
    def test_order_and_lookup(self):
        alpha = Alphabet(("a", "b", "c"))
        assert len(alpha) == 3
        assert list(alpha) == ["a", "b", "c"]
        assert "c" in alpha
        assert "d" not in alpha

    def test_list_input_is_frozen_to_tuple(self):
        alpha = Alphabet(["x", "y"])
        assert alpha.symbols == ("x", "y")


# states as the hypothesis tests draw them: ints in and out of range, and
# values that are not ints, two of them equal to an int
_STATES = st.integers(min_value=-1, max_value=3) | st.sampled_from(["x", 0.5, True, 1.0])


class TestValidate:
    """The constructor refuses a malformed automaton, naming every fault."""

    def test_clean_fixtures_validate(self, inf_a, inf_a_dpw, fair_nsw):
        for a in (inf_a, inf_a_dpw, fair_nsw):
            assert replace(a) == a

    def test_bad_initial_state(self):
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a",)),
                state_count=1,
                initial=3,
                transitions={(0, "a"): frozenset({0})},
                acceptance=BuchiAcceptance(frozenset()),
            )
        assert any("initial" in d for d in exc.value.diagnostics)

    def test_transition_target_out_of_range(self):
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a",)),
                state_count=1,
                initial=0,
                transitions={(0, "a"): frozenset({5})},
                acceptance=BuchiAcceptance(frozenset()),
            )
        assert any("out of range" in d for d in exc.value.diagnostics)

    def test_unknown_symbol(self):
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a",)),
                state_count=1,
                initial=0,
                transitions={(0, "z"): frozenset({0})},
                acceptance=BuchiAcceptance(frozenset()),
            )
        assert any("unknown symbol" in d for d in exc.value.diagnostics)

    def test_deterministic_flag_requires_totality(self):
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a", "b")),
                state_count=1,
                initial=0,
                transitions={(0, "a"): frozenset({0})},
                acceptance=ParityAcceptance((0,), 1),
                deterministic=True,
            )
        assert any("deterministic" in d for d in exc.value.diagnostics)

    def test_parity_priority_vector_length(self):
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a",)),
                state_count=2,
                initial=0,
                transitions={(0, "a"): frozenset({1}), (1, "a"): frozenset({0})},
                acceptance=ParityAcceptance((0,), 2),
                deterministic=True,
            )
        assert any("priorities" in d for d in exc.value.diagnostics)

    def test_empty_successor_sets_are_dropped(self):
        a = Automaton(
            alphabet=Alphabet(("a",)),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset()},
            acceptance=BuchiAcceptance(frozenset()),
        )
        assert (0, "a") not in a.transitions
        assert not is_total(a)

    @pytest.mark.parametrize("targets", [frozenset({0}), {0}])
    def test_the_caller_keeps_its_table(self, targets):
        rows = {(0, "a"): targets}
        a = Automaton(Alphabet(("a", "b")), 1, 0, rows, BuchiAcceptance(()))
        rows[0, "b"] = frozenset({0})
        assert a.transitions == {(0, "a"): frozenset({0})}
        assert type(a.transitions[0, "a"]) is frozenset

    def test_edge_and_accepting_state_past_the_states_are_both_named(self):
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a",)),
                state_count=2,
                initial=0,
                transitions={(0, "a"): frozenset({1}), (1, "a"): frozenset({5})},
                acceptance=BuchiAcceptance(frozenset({7})),
            )
        assert exc.value.diagnostics == [
            "transition (1, 'a'): state 5 out of range [0, 2)",
            "accepting set: state 7 out of range [0, 2)",
        ]
        assert isinstance(exc.value, ValueError)
        assert str(exc.value) == (
            "malformed automaton: transition (1, 'a'): state 5 out of range [0, 2)"
            " (and 1 more)"
        )

    @pytest.mark.parametrize(
        "change,words",
        [
            ({"alphabet": Alphabet(())}, "alphabet: empty"),
            ({"alphabet": Alphabet(("a", "b", "a"))}, "duplicate symbol 'a'"),
            ({"state_count": 0}, "state_count: 0 < 1"),
            ({"transitions": {(2, "a"): {0}}}, "transition source: state 2"),
            ({"transitions": {(0, "a"): {-1}}}, "state -1 out of range"),
            (
                {"acceptance": StreettAcceptance((({0}, {1, 3}),))},
                "pair 0 second set: state 3",
            ),
            (
                {"acceptance": RabinAcceptance((({-2}, {0}),))},
                "pair 0 first set: state -2",
            ),
            ({"acceptance": "Muller"}, "unknown condition str"),
            ({"transitions": {("x", "a"): {0}}}, "transition source: state 'x' is not an int"),
            ({"transitions": {(0, "a"): {0.5}}}, "(0, 'a'): state 0.5 is not an int"),
            ({"initial": True}, "initial: state True is not an int"),
            ({"acceptance": BuchiAcceptance({"q"})}, "accepting set: state 'q' is not an int"),
            ({"acceptance": ParityAcceptance((0, 0), 0)}, "parity: index 0 < 1"),
        ],
    )
    def test_each_rule(self, change, words):
        fields = {
            "alphabet": Alphabet(("a", "b")),
            "state_count": 2,
            "initial": 0,
            "transitions": {(0, "a"): {1}},
            "acceptance": BuchiAcceptance({1}),
            **change,
        }
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(**fields)
        assert any(words in d for d in exc.value.diagnostics), exc.value.diagnostics

    @pytest.mark.parametrize("condition", [RabinAcceptance, StreettAcceptance])
    def test_a_condition_without_pairs_is_known(self, condition):
        # no pair gives no state set to name, and no "unknown condition" line
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(Alphabet(("a",)), 2, 5, {(0, "a"): {1}}, condition(()))
        assert exc.value.diagnostics == ["initial: state 5 out of range [0, 2)"]

    def test_rabin_and_streett_pairs_differ(self):
        pairs = (({0}, {1}),)
        assert RabinAcceptance(pairs) != StreettAcceptance(pairs)
        assert RabinAcceptance(pairs) == RabinAcceptance([(frozenset({0}), [1])])
        assert repr(StreettAcceptance(pairs)) == (
            "StreettAcceptance(pairs=((frozenset({0}), frozenset({1})),))"
        )

    def test_a_deterministic_scan_stops_at_the_first_bad_state(self):
        # a row for state 0 only: states 2, 3, ... are not listed
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a", "b")),
                state_count=1000,
                initial=0,
                transitions={(0, "a"): {0}, (0, "b"): {0, 1}},
                acceptance=BuchiAcceptance(()),
                deterministic=True,
            )
        assert exc.value.diagnostics == [
            "deterministic: (0, 'b') has 2 successors, want 1",
        ]

    @pytest.mark.parametrize("other", [True, 1.0])
    def test_a_non_int_state_is_named_beside_an_equal_int(self, other):
        # a set of all states would keep 1 and drop True or 1.0
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(
                alphabet=Alphabet(("a",)),
                state_count=2,
                initial=0,
                transitions={(0, "a"): frozenset({1}), (1, "a"): frozenset({other})},
                acceptance=BuchiAcceptance({1}),
            )
        assert exc.value.diagnostics == [
            f"transition (1, 'a'): state {other!r} is not an int"
        ]

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=3),
        initial=_STATES,
        rows=st.dictionaries(
            st.tuples(_STATES, st.sampled_from("abz")),
            st.frozensets(_STATES, max_size=2),
            max_size=8,
        ),
        deterministic=st.booleans(),
        accepting=st.frozensets(_STATES, max_size=2),
        priorities=st.lists(st.integers(min_value=-1, max_value=3), max_size=4),
        parity=st.booleans(),
    )
    def test_refused_exactly_when_a_rule_is_broken(
        self, n, initial, rows, deterministic, accepting, priorities, parity
    ):
        acceptance = (
            ParityAcceptance(priorities, 3) if parity else BuchiAcceptance(accepting)
        )
        states = range(n)

        def bad(s):  # True in range(2) and 1.0 in range(2) hold
            return type(s) is not int or s not in states

        rows = {key: targets for key, targets in rows.items() if targets}
        broken = (
            bad(initial)
            or any(bad(s) or sym == "z" for s, sym in rows)
            or any(bad(t) for ts in rows.values() for t in ts)
            or (deterministic and any(len(rows.get((s, sym), ())) != 1
                                      for s in states for sym in "ab"))
            or (parity and (len(priorities) != n or any(p not in range(3) for p in priorities)))
            or (not parity and any(bad(s) for s in accepting))
        )
        try:
            Automaton(Alphabet(("a", "b")), n, initial, rows, acceptance, deterministic)
        except MalformedAutomaton as exc:
            assert broken and exc.diagnostics
        else:
            assert not broken


class TestDualize:
    def test_shifts_every_priority_up_by_one(self, inf_a_dpw):
        dual = dualize_parity(inf_a_dpw)
        assert dual.acceptance.priorities == (1, 2)
        assert dual.acceptance.index == 3
        assert dual.transitions == inf_a_dpw.transitions

    def test_rejects_nondeterministic_input(self, inf_a_dpw):
        nd = replace(inf_a_dpw, deterministic=False)
        with pytest.raises(ValueError, match="deterministic"):
            dualize_parity(nd)

    def test_rejects_non_parity_input(self, inf_a_dpw):
        rabin = Automaton(
            alphabet=inf_a_dpw.alphabet,
            state_count=inf_a_dpw.state_count,
            initial=inf_a_dpw.initial,
            transitions=inf_a_dpw.transitions,
            acceptance=RabinAcceptance(((frozenset(), frozenset({0})),)),
            deterministic=True,
        )
        with pytest.raises(ValueError, match="parity"):
            dualize_parity(rabin)

    def test_rejects_partial_input(self):
        # a partial deterministic automaton cannot be built, so cannot be dualized
        with pytest.raises(MalformedAutomaton, match="has 0 successors, want 1"):
            Automaton(
                alphabet=Alphabet(("a", "b")),
                state_count=1,
                initial=0,
                transitions={(0, "a"): frozenset({0})},
                acceptance=ParityAcceptance((0,), 1),
                deterministic=True,
            )


class TestNormalizePriorities:
    def test_double_dual_normalizes_back(self, inf_a_dpw):
        twice = dualize_parity(dualize_parity(inf_a_dpw))
        shifted = tuple(p - 2 for p in twice.acceptance.priorities)
        assert shifted == inf_a_dpw.acceptance.priorities


class TestLkFixture:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_shape(self, k):
        a = build_lk_fixture(k)
        assert a.state_count == k
        assert a.alphabet.symbols == tuple(str(i) for i in range(1, k + 1))
        assert len(a.acceptance.accepting) == k // 2

    def test_guess_state_loops_on_everything(self):
        a = build_lk_fixture(4)
        for sym in a.alphabet:
            assert 0 in a.successors(0, sym)

    def test_checkers_die_below_their_symbol(self):
        # the checker pair for e=2 must have no successor on reading 1
        a = build_lk_fixture(4)
        accepting = sorted(a.acceptance.accepting)
        for s in accepting:
            assert a.successors(s, "1") == frozenset()

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            build_lk_fixture(0)


class TestWitnessUnion:
    def test_part_one_embeds_the_original(self, fair_nsw):
        u = nsw_witness_union_nbw(fair_nsw)
        assert u.alphabet.symbols == fair_nsw.alphabet.symbols
        assert u.initial == 0
        # the raw copy keeps the original transition structure on 0..n-1
        for (s, sym), targets in fair_nsw.transitions.items():
            assert targets <= u.successors(s, sym)

    def test_fair_fixture_size(self, fair_nsw):
        u = nsw_witness_union_nbw(fair_nsw)
        assert u.state_count == 6
        assert sorted(u.acceptance.accepting) == [2, 5]

    def test_numbering_is_pinned(self):
        # states, initial state, transitions and accepting set of 400 unions
        def listing(u):
            lines = [f"states {u.state_count} initial {u.initial}"]
            lines += [
                f"{s} {sym} {sorted(targets)}"
                for (s, sym), targets in sorted(u.transitions.items())
            ]
            lines.append(f"accepting {sorted(u.acceptance.accepting)}")
            return "\n".join(lines)

        text = "\n\n".join(
            listing(nsw_witness_union_nbw(random_nsw(n, k, s)))
            for n in range(1, 6)
            for k in range(4)
            for s in range(20)
        )
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "fd35894c1ee6df4b2a99dc4c232c8a35e88ff92c4d275f7d9d80a245a4161aa1"
        )

    def test_pair_limit_is_enforced(self):
        pairs = tuple(
            (frozenset({0}), frozenset({0})) for _ in range(13)
        )
        a = Automaton(
            alphabet=Alphabet(("a",)),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset({0})},
            acceptance=StreettAcceptance(pairs),
        )
        with pytest.raises(ValueError, match="pairs"):
            nsw_witness_union_nbw(a)

    def test_requires_streett_acceptance(self, inf_a):
        with pytest.raises(ValueError):
            nsw_witness_union_nbw(inf_a)


class TestReach:
    def test_breadth_first_order_and_successor_lists(self):
        graph = {0: [1, 2], 1: [3], 2: [3, 0], 3: []}
        order, edges = reach(0, graph.__getitem__)
        assert order == [0, 1, 2, 3]
        assert edges == graph

    def test_rebuilt_nodes_come_back_as_the_first_instance(self):
        start = frozenset({0})
        built = []

        def successors(node):
            # a fresh copy of the start node, and one of {1}
            fresh = [frozenset({0}), frozenset({1})]
            built.extend(fresh)
            return fresh

        order, edges = reach(start, successors)
        assert order == [start, frozenset({1})]
        assert all(node is not start for node in built)
        assert order[0] is start
        other = order[1]
        assert other is built[1]
        assert all(out[0] is start and out[1] is other for out in edges.values())


class TestRandomGenerators:
    def test_same_seed_same_automaton(self):
        assert random_nbw(4, seed=11) == random_nbw(4, seed=11)
        assert random_nsw(3, 2, seed=11) == random_nsw(3, 2, seed=11)

    def test_different_seeds_differ_somewhere(self):
        batch = {
            tuple(sorted(random_nbw(4, seed=s).transitions.items()))
            for s in range(6)
        }
        assert len(batch) > 1

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_nbw_is_total_and_valid(self, seed):
        a = random_nbw(3, seed=seed)
        assert is_total(a)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_nsw_is_total_and_valid(self, seed):
        a = random_nsw(3, 2, seed=seed)
        assert is_total(a)
        assert len(a.acceptance.pairs) == 2

    @pytest.mark.parametrize("n", [0, -2])
    def test_empty_automaton_is_rejected(self, n):
        with pytest.raises(ValueError):
            random_nbw(n, 0)
        with pytest.raises(ValueError):
            random_nsw(n, 1, 0)

    def test_reachability_helper(self, inf_a):
        assert reachable_states(inf_a) == frozenset({0, 1})


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_random_nbw_stays_in_bounds(n, seed):
    a = random_nbw(n, seed=seed)
    assert a.state_count == n
    assert is_total(a)
