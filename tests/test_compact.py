"""Compact trees with dynamic names and the parity determinizations."""

import gc
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    Lasso,
    ParityAcceptance,
    StreettAcceptance,
    compact_step,
    compact_streett_step,
    nbw_member,
    nbw_to_dpw,
    nsw_member,
    nsw_to_dpw,
    priority_of,
    run_deterministic,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet import compact, safra
from omegadet.automata import mask_states, state_mask
from omegadet.compact import (
    EMPTY_TREE,
    CompactSafraTree,
    initial_compact_streett_tree,
    initial_compact_tree,
)
from omegadet.lasso import enumerate_lassos
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_loop_nsw
from helpers import (
    build_lk_fixture,
    full3,
    nsw_witness_union_nbw,
    worktree_compact_step,
    worktree_compact_streett_step,
)
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

    def test_settled_state_leaves_the_grandchildren(self):
        # letter a sends 3 to {0, 3}, so son 3 meets its older brother 2 on
        # state 0; 3 keeps {1, 2, 3}, and 0 leaves its son 4 and its
        # grandson 5 as well, which hold {2, 3} and {3} afterwards.  No
        # label is covered and no name goes, so e = f = n + 1
        a = _one_letter_nbw(5, {3: (0, 3)}, accepting=())
        tree = _tree((0, 1, 1, 3, 4), ({0, 1, 2, 3, 4}, {0}, {1, 2, 3}, {2, 3}, {3}))
        out, priority = _checked_step(tree, "a", a)
        assert out.parents == (0, 1, 1, 3, 4)
        assert _states(out.masks) == ((0, 1, 2, 3, 4), (0,), (1, 2, 3), (2, 3), (3,))
        assert (out.e, out.f, priority) == (6, 6, 9)

    def test_emptied_sprout_is_green_and_can_be_f(self):
        # 1 sprouts {1} as name 3 and 2 sprouts {1} as name 4; the older
        # son 2 holds 1, so sprout 3 is emptied.  An empty leaf equals the
        # union of its children, none, so 3 is the first green name.  It is
        # also the first name removed: e = f = 3, and the priority is odd
        a = _one_letter_nbw(3, {}, accepting=(1,))
        tree = _tree((0, 1), ({0, 1, 2}, {1, 2}))
        out, priority = _checked_step(tree, "a", a)
        assert out.parents == (0, 1, 2)
        assert _states(out.masks) == ((0, 1, 2), (1, 2), (1,))
        assert (out.e, out.f, priority) == (3, 3, 3)

    def test_green_below_a_green_goes_with_its_subtree(self):
        # letter a kills 2 and 3: 2 holds {1}, covered by its son 3, and
        # so is 3 by its son 4.  Both are green; 2 keeps its name, 3 and 4
        # go with the subtree below 2, f = 2 and e = 3, an even priority
        a = _one_letter_nbw(4, {2: (), 3: ()}, accepting=())
        tree = _tree((0, 1, 2, 3), ({0, 1, 2, 3}, {1, 2, 3}, {1, 2}, {1}))
        out, priority = _checked_step(tree, "a", a)
        assert out.parents == (0, 1)
        assert _states(out.masks) == ((0, 1), (1,))
        assert (out.e, out.f, priority) == (3, 2, 2)


class TestBuchiDeterminize:
    def test_inf_a_golden(self, inf_a):
        dpw = nbw_to_dpw(inf_a)
        assert dpw.state_count == 3
        assert dpw.acceptance == ParityAcceptance((0, 0, 3), 4)
        # every a-edge leads to the green state, every b-edge to the odd one
        for state in dpw.states():
            assert dpw.acceptance.priorities[dpw.dstep(state, "a")] == 0
            assert dpw.acceptance.priorities[dpw.dstep(state, "b")] == 3

    def test_language_matches_oracle(self, inf_a):
        dpw = nbw_to_dpw(inf_a)
        for lasso in enumerate_lassos(("a", "b"), 2, 3):
            assert run_deterministic(dpw, lasso).accepted == nbw_member(inf_a, lasso)

    def test_empty_alpha_language_is_empty(self):
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

    def test_moved_state_leaves_the_grandchildren(self):
        # son 2 misses index 2, whose R set holds state 1: an R-hit moves 1
        # from 2 to a sprout 4 owing {2}, and 1 leaves 2's son 3 as well.
        # 3 is a leaf owing nothing, so it finishes; no name goes, so
        # f = 3 < e = m + 1 = 7, an even priority
        a = _one_letter_nsw(2, {}, [((), ()), ((1,), ())])
        tree = _tree((0, 1, 2), ({0, 1}, {0, 1}, {0, 1}), ({1, 2}, {1}, ()))
        out, priority = _checked_step(tree, "a", a)
        assert out.parents == (0, 1, 2, 1)
        assert _states(out.masks) == ((0, 1), (0,), (0,), (1,))
        assert _states(out.ann_masks) == ((1, 2), (1,), (), (2,))
        assert (out.e, out.f, priority) == (7, 3, 4)

    def test_duplicate_settles_on_the_son_owing_the_smaller_index(self):
        # a sends every state to 0, so sons 2 (owing {1}, missing index 2)
        # and 3 (owing {2}, missing index 1) both hold 0.  The younger son
        # 3 misses the smaller index and keeps it; 2 empties and goes with
        # its sprout 4, which finished first: e = 2 <= f = 4, priority 1
        a = _one_letter_nsw(3, {1: (0,), 2: (0,)}, [((), ()), ((), ())])
        tree = _tree((0, 1, 1), ({0, 1, 2}, {1}, {2}), ({1, 2}, {1}, {2}))
        out, priority = _checked_step(tree, "a", a)
        assert out.parents == (0, 1, 2)
        assert _states(out.masks) == ((0,), (0,), (0,))
        assert _states(out.ann_masks) == ((1, 2), (2,), ())
        assert (out.e, out.f, priority) == (2, 4, 1)

    def test_leaf_owing_nothing_finishes_and_can_be_f(self):
        # the leaf 2 owes nothing and finishes on every letter; its parent
        # owes {1}, which 2 does not match, so f = 2 and e = m + 1 = 3
        a = _one_letter_nsw(1, {}, [((), ())])
        tree = _tree((0, 1), ({0}, {0}), ({1}, ()))
        out, priority = _checked_step(tree, "a", a)
        assert out == tree
        assert (out.e, out.f, priority) == (3, 2, 2)

    def test_fresh_names_follow_the_walk_across_cousins(self):
        # the leaves 2 and 3 owe {1, 2}; the walk enters 2, which sprouts
        # the chain 4 {1}, 5 {}.  5 finishes; leaving 4, pair 1 moves the
        # R-hit 0 to 6, which wraps to owing {1}, and the G-hit 1 to 7.
        # Leaving 2, pair 2 moves the R-hit 2 from 4 to 8 {2}, and it
        # leaves 5 too.  Only then does 3 sprout 9 {1}, 10 {}, and the same
        # happens: 11 and 12 from 10, and the G-hit 5 from 9 to 13 {1}.
        # 5 and 10 finished but end empty, so f = e = 5 and the priority is 7
        a = _one_letter_nsw(6, {}, [((0, 3), (1, 4)), ((2,), (5,)), ((), ())])
        tree = _tree(
            (0, 1, 1),
            ({0, 1, 2, 3, 4, 5}, {0, 1, 2}, {3, 4, 5}),
            ({1, 2, 3}, {1, 2}, {1, 2}),
        )
        out, priority = _checked_step(tree, "a", a)
        assert out.parents == (0, 1, 1, 2, 4, 4, 2, 3, 8, 8, 3)
        assert _states(out.masks) == (
            (0, 1, 2, 3, 4, 5), (0, 1, 2), (3, 4, 5), (0, 1), (0,), (1,), (2,),
            (3, 4), (3,), (4,), (5,),
        )
        assert _states(out.ann_masks) == (
            (1, 2, 3), (1, 2), (1, 2), (1,), (1,), (), (2,), (1,), (1,), (), (1,),
        )
        assert (out.e, out.f, priority) == (5, 5, 7)


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


@pytest.mark.parametrize(
    "determinize,make",
    [
        (nbw_to_dpw, lambda seed: random_nbw(5, seed)),
        (safra_determinize, lambda seed: random_nbw(5, seed)),
        (nsw_to_dpw, lambda seed: random_nsw(4, 2, seed)),
        (streett_safra_determinize, lambda seed: random_nsw(4, 2, seed)),
    ],
    ids=["nbw_to_dpw", "safra_determinize", "nsw_to_dpw", "streett_safra_determinize"],
)
def test_determinizer_leaves_no_cyclic_garbage(determinize, make):
    # no step builds a reference cycle, so reference counting alone frees
    # what a determinization made, and the cyclic collector finds nothing
    gc.collect()
    gc.disable()
    try:
        for seed in range(3):
            determinize(make(seed))
        assert gc.collect() == 0
    finally:
        gc.enable()


def _states(masks):
    """Each mask read as its ascending states (or pair indices)."""
    return tuple(map(mask_states, masks))


def _one_letter_nbw(n, moves, accepting):
    """An NBW on states 0..n-1 over {a}: a sends s to moves[s], or to s itself."""
    return Automaton(
        alphabet=Alphabet(("a",)),
        state_count=n,
        initial=0,
        transitions={
            (s, "a"): frozenset(targets)
            for s in range(n)
            if (targets := moves.get(s, (s,)))
        },
        acceptance=BuchiAcceptance(frozenset(accepting)),
    )


def _one_letter_nsw(n, moves, pairs):
    """As `_one_letter_nbw`, with the Streett pairs (R, G) given as state lists."""
    acceptance = StreettAcceptance(tuple((frozenset(r), frozenset(g)) for r, g in pairs))
    return replace(_one_letter_nbw(n, moves, ()), acceptance=acceptance)


def _tree(parents, labels, owed=()):
    """A compact tree; owed gives each name's owed pair indices (Streett only)."""
    masks, anns = tuple(map(state_mask, labels)), tuple(map(state_mask, owed))
    return CompactSafraTree(parents, masks, e=2, f=1, ann_masks=anns)


def _checked_step(tree, symbol, a):
    """The compact step's output, after checking it against the WorkTree rule."""
    if isinstance(a.acceptance, StreettAcceptance):
        step, oracle = compact_streett_step, worktree_compact_streett_step
    else:
        step, oracle = compact_step, worktree_compact_step
    out = step(tree, symbol, a)
    old = oracle(tree, symbol, a)
    assert out == old
    assert (out[0].e, out[0].f) == (old[0].e, old[0].f)
    return out


def _step_outputs(a, start, step):
    """Every (tree, symbol, step output) reachable from start, by shape.

    A compact step's output is (tree, priority), a Safra step's the tree.
    """
    seen = {start}
    queue = [start]
    for tree in queue:
        for symbol in a.alphabet.symbols:
            out = step(tree, symbol, a)
            yield tree, symbol, out
            after = out[0] if isinstance(out, tuple) else out
            if after not in seen:
                seen.add(after)
                queue.append(after)


def _image_key(a, tree, symbol):
    """What a tree step reads: the shape and the images of the masks."""
    images = a.image_masks[symbol]
    if isinstance(tree, CompactSafraTree):
        shape = tree.parents, tree.ann_masks
    else:
        shape = tree.names, tree.children, tree.ann_masks
    return shape, tuple(images[m] for m in tree.masks)


# (source, module, step name, its initial tree, its determinizer)
COMPACT_STEP_CASES = [
    pytest.param(
        random_nbw(4, seed), compact, "compact_step", initial_compact_tree, nbw_to_dpw,
        id=f"nbw4-{seed}",
    )
    for seed in range(10)
] + [
    pytest.param(
        random_nsw(3, 2, seed), compact, "compact_streett_step",
        initial_compact_streett_tree, nsw_to_dpw,
        id=f"nsw3x2-{seed}",
    )
    for seed in range(10)
]
STEP_CASES = COMPACT_STEP_CASES + [
    pytest.param(
        random_nbw(4, seed), safra, "safra_step", safra.initial_safra_tree,
        safra_determinize, id=f"safra-nbw4-{seed}",
    )
    for seed in range(10)
] + [
    pytest.param(
        random_nsw(3, 2, seed), safra, "streett_safra_step",
        safra.initial_streett_safra_tree, streett_safra_determinize,
        id=f"safra-nsw3x2-{seed}",
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

    @pytest.mark.parametrize("a,_,step,initial,__", COMPACT_STEP_CASES)
    def test_step_outputs_hold_tuples_of_frozensets(self, a, _, step, initial, __):
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

    @pytest.mark.parametrize("a,module,step,initial,determinize", STEP_CASES)
    def test_closure_steps_each_shape_and_letter_once(
        self, monkeypatch, a, module, step, initial, determinize
    ):
        """The closure steps once per image key of a reachable (tree, letter).

        The step reads its letter only through the images of the tree's
        masks, so the key is the shape with those images, not the letter:
        trees and letters with one key share one step call.
        """
        original = getattr(module, step)
        expected = {
            _image_key(a, tree, symbol)
            for tree, symbol, _ in _step_outputs(a, initial(a), original)
        }
        calls = Counter()

        def counting(tree, symbol, a):
            calls[_image_key(a, tree, symbol)] += 1
            return original(tree, symbol, a)

        monkeypatch.setattr(module, step, counting)
        determinize(a)
        assert set(calls) == expected
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize(
        "module,step,determinize",
        [(compact, "compact_step", nbw_to_dpw), (safra, "safra_step", safra_determinize)],
        ids=["nbw_to_dpw", "safra_determinize"],
    )
    def test_closure_hashes_no_tree_on_a_memo_hit(self, monkeypatch, module, step, determinize):
        """One state table: a key seen before gives its state without a hash.

        The closure hashes the start state once and each step's output once,
        to find it among the states, so full3's 512 letters cost no hash on
        a memo hit: 226 compact and 442 Safra hashes in all.
        """
        original = getattr(module, step)
        steps = hashes = 0

        def counting(*args):
            nonlocal steps
            steps += 1
            return original(*args)

        def counting_hash(tree_hash):
            def hash_(tree):
                nonlocal hashes
                hashes += 1
                return tree_hash(tree)

            return hash_

        monkeypatch.setattr(module, step, counting)
        for tree_type in (CompactSafraTree, safra.SafraTree):
            monkeypatch.setattr(tree_type, "__hash__", counting_hash(tree_type.__hash__))
        determinize(full3())
        assert steps and hashes <= steps + 1


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


# Sources of the WorkTree comparison: small random NBWs, sparse
# Tabakov-Vardi NBWs at three acceptance densities, and the 512-letter
# full NBW on 3 states
ORACLE_SOURCES = [
    pytest.param([random_nbw(n, seed) for seed in range(20)], id=f"nbw{n}")
    for n in range(1, 7)
] + [
    pytest.param(
        [
            random_nbw(n, seed, density=1.5 / n, acceptance_density=d)
            for seed in range(10)
        ],
        id=f"tv{n}-{d}",
    )
    for n in (6, 10, 14)
    for d in (0.1, 0.5, 0.9)
] + [pytest.param([full3()], id="full3")]


class TestBuchiStepMatchesWorkTree:
    """The name-order passes give what the WorkTree edits give."""

    @pytest.mark.parametrize("sources", ORACLE_SOURCES)
    def test_every_reachable_step(self, sources):
        for a in sources:
            for tree, symbol, (out, priority) in _step_outputs(
                a, initial_compact_tree(a), compact_step
            ):
                old, old_priority = worktree_compact_step(tree, symbol, a)
                assert (out, priority) == (old, old_priority), (tree, symbol)
                assert (out.e, out.f) == (old.e, old.f), (tree, symbol)


@st.composite
def _nbw_and_tree(draw):
    """A random NBW and a compact tree on its states, reachable or not.

    Each new node takes a parent named before it and a nonempty part of
    what the parent holds and no older sibling does, so the tree meets
    `assert_tree_invariants`; it has at most n nodes.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    a = random_nbw(
        n,
        draw(st.integers(min_value=0, max_value=5_000)),
        acceptance_density=draw(st.sampled_from([0.1, 0.5, 0.9])),
    )
    root = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    parents, masks, free = [0], [root], [root]
    for _ in range(draw(st.integers(min_value=0, max_value=n - 1))):
        open_names = [v for v, room in enumerate(free, 1) if room]
        if not open_names:
            break
        p = draw(st.sampled_from(open_names))
        mask = draw(st.integers(min_value=1, max_value=free[p - 1])) & free[p - 1]
        mask = mask or free[p - 1] & -free[p - 1]
        free[p - 1] &= ~mask
        parents.append(p)
        masks.append(mask)
        free.append(mask)
    tree = CompactSafraTree(tuple(parents), tuple(masks), e=2, f=1)
    return a, tree, draw(st.sampled_from(a.alphabet.symbols))


@settings(max_examples=300, deadline=None)
@given(_nbw_and_tree())
def test_buchi_step_matches_worktree_on_any_tree(case):
    a, tree, symbol = case
    assert_tree_invariants(tree, priority_of(tree.e, tree.f), a.state_count)
    out, priority = compact_step(tree, symbol, a)
    old, old_priority = worktree_compact_step(tree, symbol, a)
    assert (out, priority) == (old, old_priority)
    assert (out.e, out.f) == (old.e, old.f)
    assert_tree_invariants(out, priority, a.state_count)


class TestStreettStepMatchesWorkTree:
    """The flat-list walk gives what the WorkTree edits give."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_reachable_step(self, n):
        for k in range(4):
            for seed in range(10):
                a = random_nsw(n, k, seed)
                start = initial_compact_streett_tree(a)
                for tree, symbol, out in _step_outputs(a, start, compact_streett_step):
                    old = worktree_compact_streett_step(tree, symbol, a)
                    case = (k, seed, tree, symbol)
                    assert out == old, case
                    assert (out[0].e, out[0].f) == (old[0].e, old[0].f), case


@st.composite
def _nsw_and_tree(draw):
    """A random NSW and a compact Streett tree on its states, reachable or not.

    Labels nest and siblings are disjoint as in `_nbw_and_tree`, and each
    son owes what its parent owes or that less one index; the tree has at
    most m = n(k+1) nodes.
    """
    n = draw(st.integers(min_value=1, max_value=5))
    k = draw(st.integers(min_value=0, max_value=3))
    a = random_nsw(n, k, draw(st.integers(min_value=0, max_value=5_000)))
    root = draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    owed = draw(st.integers(min_value=0, max_value=(1 << k) - 1)) << 1
    parents, masks, anns, free = [0], [root], [owed], [root]
    for _ in range(draw(st.integers(min_value=0, max_value=n * (k + 1) - 1))):
        open_names = [v for v, room in enumerate(free, 1) if room]
        if not open_names:
            break
        p = draw(st.sampled_from(open_names))
        mask = draw(st.integers(min_value=1, max_value=free[p - 1])) & free[p - 1]
        mask = mask or free[p - 1] & -free[p - 1]
        free[p - 1] &= ~mask
        parent_owed = anns[p - 1]
        dropped = draw(st.sampled_from([0, *(1 << j for j in mask_states(parent_owed))]))
        parents.append(p)
        masks.append(mask)
        anns.append(parent_owed & ~dropped)
        free.append(mask)
    tree = CompactSafraTree(
        tuple(parents), tuple(masks), e=2, f=1, ann_masks=tuple(anns)
    )
    return a, k, tree, draw(st.sampled_from(a.alphabet.symbols))


@settings(max_examples=300, deadline=None)
@given(_nsw_and_tree())
def test_streett_step_matches_worktree_on_any_tree(case):
    a, k, tree, symbol = case
    m = a.state_count * (k + 1)
    assert_tree_invariants(tree, priority_of(tree.e, tree.f), m, pair_count=k)
    out, priority = compact_streett_step(tree, symbol, a)
    old, old_priority = worktree_compact_streett_step(tree, symbol, a)
    assert (out, priority) == (old, old_priority)
    assert (out.e, out.f) == (old.e, old.f)
    assert_tree_invariants(out, priority, m, pair_count=k)
