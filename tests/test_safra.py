"""Reference Rabin-producing tree constructions."""

import pytest

from omegadet import (
    Lasso,
    RabinAcceptance,
    nbw_member,
    nsw_member,
    run_deterministic,
    safra_determinize,
    safra_step,
    streett_safra_determinize,
    streett_safra_step,
)
from omegadet.safra import (
    SafraTree,
    initial_safra_tree,
    initial_streett_safra_tree,
)
from omegadet.lasso import enumerate_lassos
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_loop_nsw


class TestBuchiTrees:
    def test_initial_tree(self, inf_a):
        tree = initial_safra_tree(inf_a)
        assert tree.label == {1: frozenset({0})}
        assert tree.children == {1: ()}
        assert tree.e_set == frozenset({2})
        assert tree.f_set == frozenset()

    def test_step_on_a_spawns_then_finishes_breakpoint(self, inf_a):
        # delta({0}, a) = {1} and 1 is accepting: the root's child swallows
        # the whole label, the root collapses green, name 2 stays unused.
        tree = safra_step(initial_safra_tree(inf_a), "a", inf_a)
        assert tree == SafraTree(
            masks={1: 0b10},
            children={1: ()},
            e_set={2},
            f_set={1},
        )

    def test_step_on_b_keeps_waiting(self, inf_a):
        tree = safra_step(initial_safra_tree(inf_a), "b", inf_a)
        assert tree == SafraTree(
            masks={1: 0b01},
            children={1: ()},
            e_set={2},
            f_set=(),
        )

    def test_f_marks_do_not_linger(self, inf_a):
        green = safra_step(initial_safra_tree(inf_a), "a", inf_a)
        after_b = safra_step(green, "b", inf_a)
        assert after_b.f_set == frozenset()

    def test_dead_tree_loops(self):
        from omegadet import Alphabet, Automaton, BuchiAcceptance

        blocked = Automaton(
            alphabet=Alphabet(("a", "b")),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset({0})},
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        dead = safra_step(initial_safra_tree(blocked), "b", blocked)
        assert dead.label == {}
        assert safra_step(dead, "a", blocked) == dead


class TestBuchiDeterminize:
    def test_inf_a_golden(self, inf_a):
        drw = safra_determinize(inf_a)
        assert drw.state_count == 2
        assert drw.deterministic
        assert isinstance(drw.acceptance, RabinAcceptance)
        assert drw.acceptance.pairs == (
            (frozenset(), frozenset({1})),
            (frozenset({0, 1}), frozenset()),
        )
        for state in drw.states():
            assert drw.dstep(state, "a") == 1
            assert drw.dstep(state, "b") == 0

    def test_language_matches_oracle(self, inf_a):
        drw = safra_determinize(inf_a)
        for lasso in enumerate_lassos(("a", "b"), 2, 3):
            assert run_deterministic(drw, lasso).accepted == nbw_member(inf_a, lasso)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_language_agreement(self, seed):
        a = random_nbw(3, seed=seed)
        drw = safra_determinize(a)
        for lasso in enumerate_lassos(("a", "b"), 2, 2):
            assert run_deterministic(drw, lasso).accepted == nbw_member(a, lasso)


class TestStreettTrees:
    def test_initial_tree(self, fair_nsw):
        tree = initial_streett_safra_tree(fair_nsw)
        assert tree.label == {1: frozenset({0})}
        assert tree.ann == {1: frozenset({1})}
        # m = n(k+1) = 4 names in play
        assert tree.e_set == frozenset({2, 3, 4})

    def test_unsatisfiable_pair_restarts_forever(self):
        # G everywhere, R nowhere: the step-2 son is emptied by the G-move
        # every single step, so name 2 keeps dying and never goes green.
        a = make_loop_nsw([((), (0,))])
        tree = initial_streett_safra_tree(a)
        for symbol in ("a", "b", "a", "a"):
            tree = streett_safra_step(tree, symbol, a)
            assert tree.label == {1: frozenset({0}), 2: frozenset({0})}
            assert tree.ann == {1: frozenset({1}), 2: frozenset()}
            assert tree.e_set == frozenset({2})
            assert tree.f_set == frozenset()

    def test_satisfied_pair_goes_green(self):
        # R = G = {0}: the annotation empties out and the root reports
        # progress every step.
        a = make_loop_nsw([((0,), (0,))])
        tree = streett_safra_step(initial_streett_safra_tree(a), "a", a)
        assert 1 in tree.f_set

    def test_no_pairs_is_all_green(self):
        a = make_loop_nsw([])
        tree = streett_safra_step(initial_streett_safra_tree(a), "b", a)
        assert tree.f_set == frozenset({1})
        assert tree.label == {1: frozenset({0})}


class TestStreettDeterminize:
    @pytest.mark.parametrize(
        "pairs,period,want",
        [
            ([((), (0,))], ("a",), False),
            ([((0,), (0,))], ("a",), True),
            ([], ("b",), True),
            ([((), ())], ("a",), True),
        ],
    )
    def test_one_state_fixtures(self, pairs, period, want):
        a = make_loop_nsw(pairs)
        drw = streett_safra_determinize(a)
        assert run_deterministic(drw, Lasso((), period)).accepted == want

    def test_fair_language_agreement(self, fair_nsw):
        drw = streett_safra_determinize(fair_nsw)
        for lasso in enumerate_lassos(("r", "g", "n"), 1, 3):
            want = nsw_member(fair_nsw, lasso)
            assert run_deterministic(drw, lasso).accepted == want, str(lasso)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_language_agreement(self, seed):
        a = random_nsw(2, 1, seed=seed)
        drw = streett_safra_determinize(a)
        for lasso in enumerate_lassos(("a", "b"), 2, 2):
            assert run_deterministic(drw, lasso).accepted == nsw_member(a, lasso)
