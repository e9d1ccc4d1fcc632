"""Compact trees with dynamic names and the parity determinizations."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Lasso,
    ParityAcceptance,
    compact_step,
    compact_streett_step,
    nbw_member,
    nbw_to_dpw,
    nsw_member,
    nsw_to_dpw,
    priority_of,
    run_deterministic,
    safra_determinize,
)
from omegadet import compact
from omegadet.automata import mask_states
from omegadet.compact import (
    EMPTY_TREE,
    CompactSafraTree,
    initial_compact_streett_tree,
    initial_compact_tree,
)
from omegadet.lasso import enumerate_lassos
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_loop_nsw
from helpers import build_lk_fixture, nsw_witness_union_nbw
from treecheck import assert_tree_invariants, drive_buchi, drive_streett

# k -> states of the reference DRW of the L_k fixture
LK_DRW_STATES = {1: 1, 2: 3, 3: 5, 4: 9, 5: 13, 6: 21, 7: 29}


class TestPriorityOf:
    @pytest.mark.parametrize(
        "e,f,want",
        [
            (2, 1, 0),
            (2, 2, 1),
            (2, 3, 1),
            (3, 1, 0),
            (3, 2, 2),
            (3, 3, 3),
            (3, 4, 3),
            (4, 3, 4),
            (4, 4, 5),
        ],
    )
    def test_table(self, e, f, want):
        assert priority_of(e, f) == want

    def test_green_events_are_even_and_removals_odd(self):
        for e in range(2, 8):
            for f in range(1, 8):
                p = priority_of(e, f)
                assert (p % 2 == 0) == (f < e)

    def test_rejects_out_of_range_trackers(self):
        with pytest.raises(ValueError):
            priority_of(1, 1)
        with pytest.raises(ValueError):
            priority_of(2, 0)


class TestBuchiStep:
    def test_initial_tree(self, inf_a):
        tree = initial_compact_tree(inf_a)
        assert tree.parents == (0,)
        assert _states(tree.masks) == ((0,),)

    def test_progress_step_goes_green(self, inf_a):
        # delta({0}, a) = {1} is swallowed by the root's child, so the root
        # collapses: minimal green name 1; the swallowed son (name 2) is
        # removed with it, so e drops to 2 but stays above f.
        tree, priority = compact_step(initial_compact_tree(inf_a), "a", inf_a)
        assert priority == 0
        assert tree.parents == (0,)
        assert _states(tree.masks) == ((1,),)
        assert (tree.e, tree.f) == (2, 1)

    def test_waiting_step_is_odd(self, inf_a):
        tree, priority = compact_step(initial_compact_tree(inf_a), "b", inf_a)
        assert priority == 3
        assert _states(tree.masks) == ((0,),)
        assert (tree.e, tree.f) == (3, 3)

    def test_blocked_run_hits_the_sink(self):
        from omegadet import Alphabet, Automaton, BuchiAcceptance

        blocked = Automaton(
            alphabet=Alphabet(("a", "b")),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset({0})},
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        tree, priority = compact_step(initial_compact_tree(blocked), "b", blocked)
        assert tree == EMPTY_TREE
        assert (tree.e, tree.f) == (1, 1)
        assert priority == 1
        again, priority = compact_step(tree, "a", blocked)
        assert again == EMPTY_TREE
        assert (again.e, again.f) == (1, 1)
        assert priority == 1


class TestBuchiDeterminize:
    def test_inf_a_golden(self, inf_a):
        dpw = nbw_to_dpw(inf_a)
        assert dpw.state_count == 3
        assert dpw.acceptance == ParityAcceptance((0, 3, 0), 4)
        # every a-edge leads to the green state, every b-edge to the odd one
        for state in dpw.states():
            assert dpw.acceptance.priorities[dpw.dstep(state, "a")] == 0
            assert dpw.acceptance.priorities[dpw.dstep(state, "b")] == 3

    def test_language_matches_oracle(self, inf_a):
        dpw = nbw_to_dpw(inf_a)
        for lasso in enumerate_lassos(("a", "b"), 2, 3):
            assert run_deterministic(dpw, lasso).accepted == nbw_member(inf_a, lasso)

    def test_empty_alpha_language_is_empty(self):
        from omegadet import Alphabet, Automaton, BuchiAcceptance

        hopeless = Automaton(
            alphabet=Alphabet(("a",)),
            state_count=1,
            initial=0,
            transitions={(0, "a"): frozenset({0})},
            acceptance=BuchiAcceptance(frozenset()),
        )
        dpw = nbw_to_dpw(hopeless)
        # the wait state and the renewed wait state; never a green
        assert dpw.state_count == 2
        assert sorted(dpw.acceptance.priorities) == [0, 1]
        assert sum(1 for p in dpw.acceptance.priorities if p == 1) == 1
        assert not run_deterministic(dpw, Lasso((), ("a",))).accepted

    @pytest.mark.parametrize(
        "k,states", [(1, 2), (2, 5), (3, 7), (4, 14), (5, 18), (6, 32), (7, 40)]
    )
    def test_lk_golden_sizes(self, k, states):
        a = build_lk_fixture(k)
        dpw = nbw_to_dpw(a)
        assert dpw.state_count == states
        assert max(dpw.acceptance.priorities) <= 2 * k - 1
        assert safra_determinize(a).state_count == LK_DRW_STATES[k]

    def test_requires_buchi(self, fair_nsw):
        with pytest.raises(ValueError):
            nbw_to_dpw(fair_nsw)


class TestStreettStep:
    def test_unsatisfiable_pair_cycles_odd(self):
        a = make_loop_nsw([((), (0,))])
        tree = initial_compact_streett_tree(a)
        for _ in range(4):
            tree, priority = compact_streett_step(tree, "a", a)
            assert priority == 1
            assert (tree.e, tree.f) == (2, 2)
            assert _states(tree.masks) == ((0,), (0,))
            assert _states(tree.ann_masks) == ((1,), ())

    def test_satisfied_pair_collapses_even(self):
        a = make_loop_nsw([((0,), (0,))])
        tree = initial_compact_streett_tree(a)
        tree, priority = compact_streett_step(tree, "a", a)
        assert priority == 0
        assert tree.parents == (0,)
        assert tree.f == 1

    def test_no_pairs_is_constant_progress(self):
        a = make_loop_nsw([])
        tree = initial_compact_streett_tree(a)
        for symbol in ("a", "b", "b"):
            tree, priority = compact_streett_step(tree, symbol, a)
            assert priority == 0

    def test_requires_streett(self, inf_a):
        with pytest.raises(ValueError):
            nsw_to_dpw(inf_a)


class TestStreettDeterminize:
    @pytest.mark.parametrize(
        "pairs,states,priorities",
        [
            ([((), (0,))], 2, (0, 1)),
            ([((0,), (0,))], 1, (0,)),
            ([], 1, (0,)),
            ([((), ())], 2, (0, 2)),
        ],
    )
    def test_one_state_goldens(self, pairs, states, priorities):
        dpw = nsw_to_dpw(make_loop_nsw(pairs))
        assert dpw.state_count == states
        assert dpw.acceptance.priorities == priorities

    def test_index_is_twice_the_name_count(self, fair_nsw):
        # n=2 states, k=1 pair: m = n(k+1) = 4 names
        dpw = nsw_to_dpw(fair_nsw)
        assert dpw.acceptance.index == 8
        assert dpw.state_count == 3

    def test_fair_language_agreement(self, fair_nsw):
        dpw = nsw_to_dpw(fair_nsw)
        for lasso in enumerate_lassos(("r", "g", "n"), 1, 3):
            assert run_deterministic(dpw, lasso).accepted == nsw_member(
                fair_nsw, lasso
            ), str(lasso)

    def test_agrees_with_witness_union_pipeline(self, fair_nsw):
        direct = nsw_to_dpw(fair_nsw)
        via_union = nbw_to_dpw(nsw_witness_union_nbw(fair_nsw))
        for lasso in enumerate_lassos(("r", "g", "n"), 1, 2):
            assert (
                run_deterministic(direct, lasso).accepted
                == run_deterministic(via_union, lasso).accepted
            )


def _states(masks):
    """Each mask read as its ascending states (or pair indices)."""
    return tuple(map(mask_states, masks))


def _step_outputs(a, start, step):
    """Every (tree, symbol, step output) reachable from start, by shape."""
    seen = {start}
    queue = [start]
    for tree in queue:
        for symbol in a.alphabet.symbols:
            out = step(tree, symbol, a)
            yield tree, symbol, out
            if out[0] not in seen:
                seen.add(out[0])
                queue.append(out[0])


def _image_key(a, tree, symbol):
    """What a compact step reads: the shape and the images of the masks."""
    images = a.image_masks[symbol]
    return tree.parents, tree.ann_masks, tuple(images[m] for m in tree.masks)


# (source, step name, its initial tree, its determinizer)
STEP_CASES = [
    pytest.param(
        random_nbw(4, seed), "compact_step", initial_compact_tree, nbw_to_dpw,
        id=f"nbw4-{seed}",
    )
    for seed in range(10)
] + [
    pytest.param(
        random_nsw(3, 2, seed), "compact_streett_step",
        initial_compact_streett_tree, nsw_to_dpw,
        id=f"nsw3x2-{seed}",
    )
    for seed in range(10)
]


class TestTreeIdentity:
    """A tree is its shape; e/f are the bookmarks of the step that made it."""

    def test_bookmarks_are_not_identity(self):
        one = CompactSafraTree((0, 1), (frozenset({0, 1}), frozenset({1})), e=2, f=1)
        two = CompactSafraTree((0, 1), (frozenset({0, 1}), frozenset({1})), e=4, f=3)
        assert one == two
        assert hash(one) == hash(two)
        assert (one.e, one.f) == (2, 1)
        assert (two.e, two.f) == (4, 3)

    @pytest.mark.parametrize("a,step,initial,_", STEP_CASES)
    def test_step_outputs_hold_tuples_of_frozensets(self, a, step, initial, _):
        """Read with `mask_states`, the masks give each name's label and owed set."""
        pairs = len(getattr(a.acceptance, "pairs", ()))
        for _, _, (tree, _) in _step_outputs(a, initial(a), getattr(compact, step)):
            assert type(tree.parents) is tuple
            assert type(tree.masks) is tuple and type(tree.ann_masks) is tuple
            labels = [frozenset(states) for states in _states(tree.masks)]
            assert all(label and max(label) < a.state_count for label in labels)
            anns = [frozenset(owed) for owed in _states(tree.ann_masks)]
            assert len(anns) == (len(labels) if pairs else 0)
            assert all(owed <= set(range(1, pairs + 1)) for owed in anns)

    @pytest.mark.parametrize("a,step,initial,determinize", STEP_CASES)
    def test_closure_steps_each_shape_and_letter_once(
        self, monkeypatch, a, step, initial, determinize
    ):
        """The closure steps once per image key of a reachable (tree, letter).

        The step reads its letter only through the images of the tree's
        masks, so the key is the shape with those images, not the letter:
        trees and letters with one key share one step call.
        """
        original = getattr(compact, step)
        expected = {
            _image_key(a, tree, symbol)
            for tree, symbol, _ in _step_outputs(a, initial(a), original)
        }
        calls = Counter()

        def counting(tree, symbol, a):
            calls[_image_key(a, tree, symbol)] += 1
            return original(tree, symbol, a)

        monkeypatch.setattr(compact, step, counting)
        determinize(a)
        assert set(calls) == expected
        assert set(calls.values()) == {1}


class TestStepInvariants:
    @pytest.mark.parametrize("seed", range(12))
    def test_buchi_random_walks(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        a = random_nbw(n, seed=seed)
        for tree, priority in drive_buchi(a, rng, steps=12):
            assert_tree_invariants(tree, priority, n)

    @pytest.mark.parametrize("seed", range(12))
    def test_streett_random_walks(self, seed):
        rng = random.Random(seed)
        n, k = rng.randint(1, 3), rng.randint(0, 2)
        a = random_nsw(n, k, seed=seed)
        for tree, priority in drive_streett(a, rng, steps=12):
            assert_tree_invariants(tree, priority, n * (k + 1), pair_count=k)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=5_000),
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
)
def test_buchi_step_invariants_property(n, seed, word):
    a = random_nbw(n, seed=seed)
    tree = initial_compact_tree(a)
    for symbol in word:
        tree, priority = compact_step(tree, symbol, a)
        assert_tree_invariants(tree, priority, n)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=5_000),
    st.lists(st.sampled_from(["a", "b"]), min_size=1, max_size=8),
)
def test_streett_step_invariants_property(n, k, seed, word):
    a = random_nsw(n, k, seed=seed)
    tree = initial_compact_streett_tree(a)
    for symbol in word:
        tree, priority = compact_streett_step(tree, symbol, a)
        assert_tree_invariants(tree, priority, n * (k + 1), pair_count=k)
