"""Structural invariants for compact trees, shared by unit and acceptance tests."""

import random
from collections import defaultdict

from omegadet import Automaton
from omegadet.automata import mask_states
from omegadet.compact import (
    CompactSafraTree,
    compact_step,
    compact_streett_step,
    initial_compact_streett_tree,
    initial_compact_tree,
    priority_of,
)


def assert_tree_invariants(tree, priority: int, name_bound: int, pair_count=None):
    """Check everything a post-step tree promises structurally.

    name_bound is n for the Buchi variant and m = n(k+1) for the Streett
    variant; pair_count enables the annotation checks.
    """
    count = len(tree.parents)
    labels = [frozenset(mask_states(m)) for m in tree.masks]
    anns = [frozenset(mask_states(m)) for m in tree.ann_masks]
    assert len(labels) == count
    if pair_count is not None:
        assert len(anns) == count

    if count == 0:
        # rejecting sink: no tree, constant odd priority
        assert priority == 1
        return

    # names are 1..count by construction; the parent array must describe a
    # tree rooted at 1 growing toward larger names
    assert tree.parents[0] == 0
    for i in range(1, count):
        assert 1 <= tree.parents[i] <= i

    for label in labels:
        assert label, "empty node survived a step"

    children = defaultdict(list)
    for i in range(1, count):
        children[tree.parents[i]].append(i + 1)
    for parent, kids in children.items():
        parent_label = labels[parent - 1]
        union = set()
        occupancy = 0
        for kid in kids:
            kid_label = labels[kid - 1]
            assert kid_label <= parent_label
            union |= kid_label
            occupancy += len(kid_label)
        assert occupancy == len(union), "sibling labels overlap"

    assert 2 <= tree.e <= name_bound + 1
    assert 1 <= tree.f <= name_bound + 1
    assert priority == priority_of(tree.e, tree.f)
    assert (priority % 2 == 0) == (tree.f < tree.e)
    assert 0 <= priority <= 2 * name_bound - 1

    if pair_count is not None:
        full = set(range(1, pair_count + 1))
        for i in range(count):
            assert set(anns[i]) <= full
        for i in range(1, count):
            assert anns[i] <= anns[tree.parents[i] - 1]


def drive_buchi(a: Automaton, rng: random.Random, steps: int):
    """Walk `steps` random symbols from the initial tree, yielding each step."""
    tree = initial_compact_tree(a)
    symbols = a.alphabet.symbols
    for _ in range(steps):
        tree, priority = compact_step(tree, rng.choice(symbols), a)
        yield tree, priority


def drive_streett(a: Automaton, rng: random.Random, steps: int):
    tree = initial_compact_streett_tree(a)
    symbols = a.alphabet.symbols
    for _ in range(steps):
        tree, priority = compact_streett_step(tree, rng.choice(symbols), a)
        yield tree, priority
