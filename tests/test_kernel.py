"""The bit-mask kernel under the tree steps.

Tree labels are state masks (bit s for state s).  Each automaton holds,
per symbol, a memo of the images of the masks asked for, whose one-state
entries are read off the transitions; the compact and reference trees
compare and hash by their masks, which `mask_states` reads back.
"""

import hashlib
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from functools import cached_property

import pytest

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    emit_hoa,
    nbw_to_dpw,
    nsw_to_dpw,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet import automata, compact, safra
from omegadet.automata import mask_states, reach, state_mask
from omegadet.compact import CompactSafraTree
from omegadet.random_gen import random_nbw, random_nsw

from helpers import child_env, full3
from treecheck import assert_tree_invariants, drive_buchi, drive_streett


def _image(a, states, symbol):
    """All successors of states on symbol, one successor set at a time."""
    out = set()
    for s in states:
        out |= a.successors(s, symbol)
    return out


def _partial():
    """States 1 and 3 have no successors on any letter, state 2 none on b."""
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=4,
        initial=0,
        transitions={
            (0, "a"): frozenset({1, 2}),
            (0, "b"): frozenset({0, 3}),
            (2, "a"): frozenset({0, 2}),
        },
        acceptance=BuchiAcceptance(frozenset({2})),
    )


AUTOMATA = (
    [pytest.param(random_nbw(5, seed), id=f"nbw5-{seed}") for seed in range(20)]
    + [pytest.param(random_nsw(4, 2, seed), id=f"nsw4x2-{seed}") for seed in range(20)]
    + [pytest.param(_partial(), id="partial"), pytest.param(full3(), id="full3")]
)


class TestMasks:
    def test_round_trip_ascending(self):
        assert state_mask({3, 0, 1}) == 0b1011
        assert mask_states(0b1011) == (0, 1, 3)
        assert mask_states(0) == ()
        states = (0, 5, 63, 64, 65, 200)
        assert mask_states(state_mask(reversed(states))) == states


class TestTables:
    @pytest.mark.parametrize("a", AUTOMATA)
    def test_successor_masks_agree_with_successors(self, a):
        table = a.image_masks
        assert list(table) == list(a.alphabet)
        for sym in a.alphabet:
            images = table[sym]
            for s in a.states():
                want = tuple(sorted(a.successors(s, sym)))
                assert mask_states(images[1 << s]) == want
            # a one-state entry is read off the transitions, no table behind it
            assert sorted(images) == [1 << s for s in a.states()]
            # a larger mask adds itself and the one-state entries it is built of
            other = replace(a).image_masks[sym]
            assert other[0b101] == images[0b1] | images[0b100]
            assert sorted(other) == [0b1, 0b100, 0b101]
            assert other[0] == 0 and sorted(other) == [0, 0b1, 0b100, 0b101]

    @pytest.mark.parametrize("a", AUTOMATA)
    def test_image_masks_agree_with_the_image(self, a):
        for sym in a.alphabet:
            images = a.image_masks[sym]
            for mask in range(1 << a.state_count):
                want = _image(a, mask_states(mask), sym)
                assert set(mask_states(images[mask])) == want
            # every mask asked for is memoised, and only those
            assert sorted(images) == list(range(1 << a.state_count))

    def test_tables_stay_out_of_equality_and_repr(self):
        a, b = random_nbw(4, 1), random_nbw(4, 1)
        a.image_masks["a"][0b1111]
        assert a == b
        assert repr(a) == repr(b)

    @pytest.mark.parametrize(
        "source,determinize",
        [
            (lambda: random_nbw(4, 1), nbw_to_dpw),
            (lambda: random_nbw(4, 1), safra_determinize),
            (lambda: random_nsw(3, 2, 1), nsw_to_dpw),
            (lambda: random_nsw(3, 2, 1), streett_safra_determinize),
        ],
        ids=["nbw_to_dpw", "safra_determinize", "nsw_to_dpw", "streett_safra_determinize"],
    )
    def test_tables_are_built_once_per_automaton(self, monkeypatch, source, determinize):
        builds = []
        original = Automaton.image_masks.func

        def counting(self):
            builds.append(id(self))
            return original(self)

        prop = cached_property(counting)
        prop.__set_name__(Automaton, "image_masks")
        monkeypatch.setattr(Automaton, "image_masks", prop)
        first, second = source(), source()
        out = determinize(first)
        assert determinize(second) == out
        assert out.state_count > 1
        assert sorted(builds) == sorted(id(a) for a in (first, second))


_HUGE_DECLARED = """\
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from omegadet import (
    Alphabet, Automaton, BuchiAcceptance, StreettAcceptance, nbw_to_dpw, nsw_to_dpw,
)
loops = {(0, "0"): {0}, (0, "1"): {0}}
for acceptance, determinize in (
    (BuchiAcceptance({0}), nbw_to_dpw),
    (StreettAcceptance((({0}, {0}),)), nsw_to_dpw),
):
    a = Automaton(Alphabet(("0", "1")), 10**9, 0, loops, acceptance)
    print(determinize(a).state_count)
"""


def test_determinizing_a_huge_declared_automaton_runs_in_bounded_memory():
    """Both compact constructions on one live state of 10**9 declared ones.

    The child runs under a 1 GiB address-space limit, so a table allocated
    per declared state fails there instead of in this process.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_DECLARED],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


_HUGE_PARTIAL = """\
import resource, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from omegadet import Alphabet, Automaton, BuchiAcceptance, MalformedAutomaton
started = time.perf_counter()
try:
    Automaton(
        Alphabet(("0", "1")), 10**9, 0, {(0, "0"): {0}, (0, "1"): {0}},
        BuchiAcceptance({0}), deterministic=True,
    )
except MalformedAutomaton as err:
    print(time.perf_counter() - started)
    print(*err.diagnostics, sep="\\n")
"""


def test_a_huge_partial_deterministic_automaton_is_refused_at_once():
    """10**9 declared deterministic states with rows for state 0 only.

    The constructor refuses it without a pass over the declared states: in
    under a second, under a 1 GiB address-space limit.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _HUGE_PARTIAL],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seconds, *diagnostics = proc.stdout.splitlines()
    assert float(seconds) < 1.0
    assert diagnostics == [
        "deterministic: (1, '0') has 0 successors, want 1",
        "deterministic: (1, '1') has 0 successors, want 1",
    ]


class TestWideAutomata:
    """More than 64 states: labels hold bits past any machine word."""

    @pytest.mark.parametrize("seed", range(3))
    def test_buchi_walk(self, seed):
        n = 70
        a = random_nbw(n, seed, density=3 / n)
        high = False
        for tree, priority in drive_buchi(a, random.Random(seed), steps=40):
            assert_tree_invariants(tree, priority, n)
            high |= any(m >> 64 for m in tree.masks)
        assert high

    @pytest.mark.parametrize("seed", range(2))
    def test_streett_walk(self, seed):
        n, k = 66, 2
        a = random_nsw(n, k, seed)
        high = False
        for tree, priority in drive_streett(a, random.Random(seed), steps=12):
            assert_tree_invariants(tree, priority, n * (k + 1), pair_count=k)
            high |= any(m >> 64 for m in tree.masks)
        assert high


class TestMaskTrees:
    def test_labels_and_anns_decode_the_masks(self):
        tree = CompactSafraTree(
            (0, 1), (0b1011 | 1 << 70, 0b10), e=3, f=1, ann_masks=(0b110, 0b10)
        )
        assert tuple(map(mask_states, tree.masks)) == ((0, 1, 3, 70), (1,))
        assert tuple(map(mask_states, tree.ann_masks)) == ((1, 2), (1,))

    def test_bookmarks_stay_out_of_equality_and_hash(self):
        one = CompactSafraTree((0, 1), (0b11, 0b10), e=2, f=1)
        two = CompactSafraTree((0, 1), (0b11, 0b10), e=4, f=3)
        other = CompactSafraTree((0, 1), (0b11, 0b01), e=2, f=1)
        assert one == two and hash(one) == hash(two)
        assert one != other

    def test_step_outputs_hold_int_masks(self):
        a = random_nsw(3, 2, 4)
        for tree, _ in drive_streett(a, random.Random(4), steps=20):
            assert all(type(m) is int for m in tree.parents + tree.masks + tree.ann_masks)
        a = random_nbw(4, 4)
        tree, _ = compact.compact_step(compact.initial_compact_tree(a), "a", a)
        assert all(type(m) is int for m in tree.masks) and tree.ann_masks == ()

    @pytest.mark.parametrize("streett", [False, True], ids=["buchi", "streett"])
    def test_reference_trees_are_mask_records(self, streett):
        """Every reachable reference tree is a record of name-ordered int tuples."""
        for a, step, start in _reference_cases(streett):
            for tree in _reachable(a, step, start):
                names = tree.names
                assert type(names) is tuple and list(names) == sorted(set(names))
                assert type(tree.masks) is tuple and len(tree.masks) == len(names)
                assert all(type(m) is int and m for m in tree.masks)
                assert type(tree.children) is tuple and len(tree.children) == len(names)
                for kids in tree.children:
                    assert type(kids) is tuple and set(kids) <= set(names)
                assert type(tree.e_set) is frozenset and type(tree.f_set) is frozenset
                owed = tree.ann_masks
                if streett and names:
                    assert type(owed) is tuple and len(owed) == len(names)
                    assert all(type(m) is int for m in owed)
                else:
                    assert owed is None

    @pytest.mark.parametrize("streett", [False, True], ids=["buchi", "streett"])
    def test_equal_reference_trees_share_one_step_per_letter(self, monkeypatch, streett):
        """A tree equal to one reached before, by another path, costs no step.

        Its names are ascending like every tree's, so its memo shape and
        masks are those of the tree first reached: the closure steps one
        instance of each tree, once per letter at most.
        """
        determinize = streett_safra_determinize if streett else safra_determinize
        shared = 0
        for a, step, start in _reference_cases(streett):
            calls = []

            def counting(tree, symbol, a):
                calls.append((tree, symbol))
                return step(tree, symbol, a)

            with monkeypatch.context() as patch:
                patch.setattr(safra, step.__name__, counting)
                determinize(a)
            assert max(Counter(calls).values()) == 1
            assert len({id(tree) for tree, _ in calls}) == len({tree for tree, _ in calls})
            paths = Counter(
                step(tree, symbol, a)
                for tree in _reachable(a, step, start)
                for symbol in a.alphabet.symbols
            )
            shared += sum(count > 1 for count in paths.values())
        # some tree is reached by more than one path, so the check saw one
        assert shared


def _reference_cases(streett):
    """(source, step, initial tree) of the reference construction on ten sources."""
    if streett:
        return [
            (a, safra.streett_safra_step, safra.initial_streett_safra_tree(a))
            for a in (random_nsw(3, 2, seed) for seed in range(10))
        ]
    return [
        (a, safra.safra_step, safra.initial_safra_tree(a))
        for a in (random_nbw(4, seed) for seed in range(10))
    ]


def _reachable(a, step, start):
    """The trees reachable from start by direct step calls, breadth first."""
    seen, todo = {start}, [start]
    for tree in todo:  # `todo` grows while it is walked
        for symbol in a.alphabet.symbols:
            after = step(tree, symbol, a)
            if after not in seen:
                seen.add(after)
                todo.append(after)
    return todo


# (module, step name, its initial tree, its determinizer, the sources); the
# sources are those of the closure tests in test_compact.py, plus the
# 512-letter full3
KEY_CASES = [
    pytest.param(compact, "compact_step", compact.initial_compact_tree, nbw_to_dpw,
                 [random_nbw(4, seed) for seed in range(10)], id="compact_step-nbw4"),
    pytest.param(compact, "compact_step", compact.initial_compact_tree, nbw_to_dpw,
                 [full3()], id="compact_step-full3"),
    pytest.param(compact, "compact_streett_step", compact.initial_compact_streett_tree,
                 nsw_to_dpw, [random_nsw(3, 2, seed) for seed in range(10)],
                 id="compact_streett_step-nsw3x2"),
    pytest.param(safra, "safra_step", safra.initial_safra_tree, safra_determinize,
                 [random_nbw(4, seed) for seed in range(10)], id="safra_step-nbw4"),
    pytest.param(safra, "safra_step", safra.initial_safra_tree, safra_determinize,
                 [full3()], id="safra_step-full3"),
    pytest.param(safra, "streett_safra_step", safra.initial_streett_safra_tree,
                 streett_safra_determinize, [random_nsw(3, 2, seed) for seed in range(10)],
                 id="streett_safra_step-nsw3x2"),
]


def _signature(out):
    """All of a step output: shape, bookmarks and, for compact steps, priority.

    A reference tree compares by all its fields, its E and F sets too.
    """
    if isinstance(out, tuple):
        tree, priority = out
        return tree.parents, tree.masks, tree.ann_masks, tree.e, tree.f, priority
    return out


def _unshared_explore(a, start, step, split, acceptance):
    """`automata.explore` without the memo: every state's tree steps on every letter.

    States are numbered in the order `reach` finds them.
    """
    symbols = a.alphabet.symbols

    def successors(state):
        tree = split(state)[0]
        return [step(tree, sym, a) for sym in symbols]

    order, edges = reach(start, successors)
    number = {id(state): i for i, state in enumerate(order)}
    return Automaton(
        alphabet=a.alphabet,
        state_count=len(order),
        initial=number[id(start)],
        transitions={
            (number[id(state)], sym): {number[id(nxt)]}
            for state, nexts in edges.items()
            for sym, nxt in zip(symbols, nexts)
        },
        acceptance=acceptance(order),
        deterministic=True,
    )


class TestStepRowKeys:
    """The closure shares one step call among the inputs of one image key."""

    @pytest.mark.parametrize("module,step,initial,determinize,sources", KEY_CASES)
    def test_equal_keys_give_equal_outputs(
        self, monkeypatch, module, step, initial, determinize, sources
    ):
        """Equal keys give equal outputs, so sharing a step changes no transition.

        The determinizer's automaton is the one the closure builds when
        every state steps on every letter.
        """
        step = getattr(module, step)
        shared = 0
        for a in sources:
            start = initial(a)
            if module is compact:
                # a DPW state is a tree with the priority it was entered with
                start = (start, compact.priority_of(start.e, start.f))
            outputs = {}
            seen, todo = {start}, [start]
            for state in todo:  # `todo` grows while it is walked
                tree, shape, masks = module._split(state)
                outs = [step(tree, symbol, a) for symbol in a.alphabet.symbols]
                signatures = list(map(_signature, outs))
                for symbol, out, signature in zip(a.alphabet.symbols, outs, signatures):
                    images = a.image_masks[symbol]
                    key = (shape, tuple(images[m] for m in masks))
                    known = outputs.setdefault(key, signature)
                    assert known == signature, (tree, symbol)
                    shared += known is not signature
                    if out not in seen:
                        seen.add(out)
                        todo.append(out)
        # some key is shared, so the check compared outputs
        assert shared
        explore = automata.explore
        unshared = []

        def both(*args):
            unshared.append(_unshared_explore(*args))
            return explore(*args)

        monkeypatch.setattr(module, "explore", both)
        for a in sources:
            assert determinize(a) == unshared.pop()

    def test_safra_keys_pin_each_mask_to_its_name(self):
        """Two reference trees that differ only in which son holds which mask."""
        a = Automaton(
            Alphabet(("a",)), 3, 0, {(s, "a"): {s} for s in range(3)}, BuchiAcceptance(())
        )
        names, kids, none = (1, 2, 3), ((2, 3), (), ()), frozenset()
        one = safra.SafraTree(names, (0b111, 0b010, 0b100), kids, None, none, none)
        two = safra.SafraTree(names, (0b111, 0b100, 0b010), kids, None, none, none)
        (tree, shape, masks), (other, other_shape, other_masks) = map(safra._split, (one, two))
        assert tree is one and other is two
        assert shape == other_shape and sorted(masks) == sorted(other_masks)
        assert safra.safra_step(one, "a", a) != safra.safra_step(two, "a", a)
        # each mask keeps its name's place, so the two keys on "a" differ
        images = a.image_masks["a"]
        assert list(map(images.__getitem__, masks)) == [0b111, 0b010, 0b100]
        assert list(map(images.__getitem__, other_masks)) == [0b111, 0b100, 0b010]


# The full3 closures: step calls, DPW/DRW states and the SHA-256 of the HOA.
# One step per tree and letter would make 10,752 compact and 28,672 Safra
# steps; the HOA does not depend on how the steps are shared.
FULL3_PINS = [
    pytest.param(compact, "compact_step", nbw_to_dpw, 225, 51,
                 "a27da1f04c6ff04c7578dbe0831bca73fd595bc6e930626a788add8ce4801682",
                 id="nbw_to_dpw"),
    pytest.param(safra, "safra_step", safra_determinize, 441, 56,
                 "bda81cdc2983ea7bb051157f24092e60fce1c11b3735fd0af413c6d884f95167",
                 id="safra_determinize"),
]


@pytest.mark.parametrize("module,step,determinize,calls,states,digest", FULL3_PINS)
def test_full3_closure_counts(monkeypatch, module, step, determinize, calls, states, digest):
    original = getattr(module, step)
    count = 0

    def counting(*args):
        nonlocal count
        count += 1
        return original(*args)

    monkeypatch.setattr(module, step, counting)
    out = determinize(full3())
    assert (count, out.state_count) == (calls, states)
    assert hashlib.sha256(emit_hoa(out).encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("module,step,determinize,sources", [
    pytest.param(compact, "compact_step", nbw_to_dpw,
                 [random_nbw(5, seed) for seed in range(5)] + [full3()], id="compact_step"),
    pytest.param(compact, "compact_streett_step", nsw_to_dpw,
                 [random_nsw(3, 2, seed) for seed in range(5)], id="compact_streett_step"),
    pytest.param(safra, "safra_step", safra_determinize,
                 [random_nbw(4, seed) for seed in range(5)] + [full3()], id="safra_step"),
    pytest.param(safra, "streett_safra_step", streett_safra_determinize,
                 [random_nsw(3, 2, seed) for seed in range(5)], id="streett_safra_step"),
])
def test_both_key_paths_make_the_same_steps(monkeypatch, module, step, determinize, sources):
    """`explore` reads a row's keys letter by letter on small alphabets and
    through mask columns on large ones; either way, on any alphabet, the
    closure makes the same steps in the same order and builds one automaton."""
    original = getattr(module, step)
    calls = []

    def recording(tree, symbol, a):
        calls.append((tree, symbol))
        return original(tree, symbol, a)

    monkeypatch.setattr(module, step, recording)
    for a in sources:
        built, steps = [], []
        for letters in (0, 1 << 20):
            monkeypatch.setattr(automata, "_COLUMN_LETTERS", letters)
            calls.clear()
            built.append(determinize(a))
            steps.append(list(calls))
        assert steps[0] == steps[1]
        assert built[0] == built[1]
