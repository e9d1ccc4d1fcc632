"""Reference tree constructions: Buchi/Streett to deterministic Rabin.

These are the classic history-tree determinizations with *static* node
names: a name, once freed, signals a restart through the Rabin pair of
that name.  They exist as an independently auditable baseline for the
compact parity constructions, and share no tree-update rule with them.
Static names are recycled, so they order neither age nor depth: both
steps run on flat lists indexed by name, temporaries appended after the
pool, walking the tree in preorder or, for Streett, in post-order on an
explicit stack, and end in `_closed`, which frees dead names and gives
the surviving temporaries the smallest freed ones; it reads each name set
from a memo on the automaton, `Automaton.safra_memo`, freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    explore,
)


@dataclass(frozen=True)
class SafraTree:
    """History tree of the reference constructions, a record of name-ordered tuples.

    names holds the node names, ascending; masks, children and ann_masks
    hold, in names order, each node's nonempty state set (bit s for state
    s), its children oldest first and the pair indices (bit j for index j)
    it still owes in the Streett construction.  ann_masks is None for Buchi
    trees and for the empty tree (no nodes), the dead state.  Original
    names live in [1..n]; e_set holds the names the step left unused (a
    name recycled for a temporary stays in it), f_set the names whose node
    finished a breakpoint this step.
    """

    names: tuple[int, ...]
    masks: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]
    ann_masks: tuple[int, ...] | None
    e_set: frozenset[int]
    f_set: frozenset[int]


def _root_tree(a: Automaton, pool: int, ann_masks=None) -> SafraTree:
    """Name 1 alone, holding the initial state; names 2..pool are unused."""
    unused = frozenset(range(2, pool + 1))
    return SafraTree((1,), (1 << a.initial,), ((),), ann_masks, unused, frozenset())


def initial_safra_tree(a: Automaton) -> SafraTree:
    return _root_tree(a, a.state_count)


def _dead_safra_tree(n: int) -> SafraTree:
    return SafraTree((), (), (), None, frozenset(range(1, n + 1)), frozenset())


def _opened(tree: SafraTree, symbol: str, a: Automaton, pool: int):
    """A tree after reading symbol as lists indexed by name: label, kids and ann.

    Each list has pool + 1 entries, unused names holding a zero label and
    no children; ann is None for Buchi trees.  A step appends its
    temporaries, named pool + 1 onwards, to every list.
    """
    images = a.image_masks[symbol]
    label = [0] * (pool + 1)
    kids = [()] * (pool + 1)
    for v, states, sons in zip(tree.names, tree.masks, tree.children):
        label[v] = images[states]
        kids[v] = sons
    ann = None
    if tree.ann_masks is not None:
        ann = [0] * (pool + 1)
        for v, owed in zip(tree.names, tree.ann_masks):
            ann[v] = owed
    return label, kids, ann


def _closed(label, kids, ann, pool: int, finished, memo) -> SafraTree:
    """The nodes with a nonempty label as a tree, temporaries renamed into the pool.

    A child's label must be a subset of its parent's, so the survivors
    form a tree.  Names in [1..pool] are static; larger names are
    temporaries the step just made.  Every static name without a
    surviving node goes to e_set and restarts its pair, and the
    temporaries, in order, take the smallest of them.  finished are the
    static names of surviving nodes that completed a round, the f_set.
    memo is the automaton's `safra_memo`, a pair of dicts: the first maps
    the tuple of surviving static names, ascending, to e_set and the same
    free names as an ascending tuple, the second the tuple of finished
    names to f_set.
    """
    if not label[1]:
        return _dead_safra_tree(pool)
    by_static, by_finished = memo
    static = tuple(compress(range(pool + 1), label))
    known = by_static.get(static)
    if known is None:
        free = tuple(sorted(set(range(2, pool + 1)).difference(static)))
        known = by_static[static] = frozenset(free), free
    e_set, free = known
    finished = tuple(finished)
    f_set = by_finished.get(finished)
    if f_set is None:
        f_set = by_finished[finished] = frozenset(finished)
    survives = label.__getitem__
    temps = tuple(compress(range(pool + 1, len(label)), label[pool + 1 :]))
    assert len(temps) <= len(free), "name pool exhausted"
    new = list(range(len(label)))  # new[old name]
    for v, name in zip(temps, free):
        new[v] = name
    renamed = new.__getitem__
    # the survivors' old names, in the order of their new names
    order = sorted(static + temps, key=renamed)
    names = tuple(map(renamed, order))
    children = [kids[v] and tuple(map(renamed, filter(survives, kids[v]))) for v in order]
    return SafraTree(
        names,
        tuple(map(survives, order)),
        tuple(children),
        None if ann is None else tuple(map(ann.__getitem__, order)),
        e_set,
        f_set,
    )


def safra_step(tree: SafraTree, symbol: str, a: Automaton) -> SafraTree:
    """One transition of the Buchi history-tree construction.

    Update labels, sprout a child for the accepting part of every label,
    settle duplicate states in favor of older siblings, drop empty nodes,
    collapse nodes whose children cover them (recording the event), free
    dead names, and pull temporary names back into the static name pool.
    """
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("safra_step: Buchi acceptance required")
    n = a.state_count
    if not tree.masks:
        return _dead_safra_tree(n)
    alpha = a.acceptance.accepting_mask
    label, kids, _ = _opened(tree, symbol, a, n)

    # one pass in preorder, oldest child first, which meets a node after
    # its parent settled its label: the accepting part of the label starts
    # a new youngest child, named after the pool in that order, and then
    # the children, the sprout last, keep what the node kept and no older
    # sibling claimed.  A child's label is a subset of its parent's, so a
    # state settled away from a node leaves its whole subtree as the pass
    # goes down.  A nonempty node its children cover finishes a
    # breakpoint: its children are emptied, and with them the rest of its
    # subtree.  An emptied node is not green
    greens = []
    stack = [1]
    while stack:
        v = stack.pop()
        sons = kids[v]
        stack += reversed(sons)
        room = states = label[v]
        birth = states & alpha
        if birth:
            kids[v] = (*sons, len(label))
            label.append(birth)
            kids.append(())
        elif not sons:
            continue
        for c in kids[v]:
            kept = label[c] & room
            label[c] = kept
            room ^= kept
        if states and not room:
            greens.append(v)
            for c in kids[v]:
                label[c] = 0
    return _closed(label, kids, None, n, greens, a.safra_memo)


def _rabin(name_count: int):
    """The acceptance of a DRW: name i gives Rabin pair i, (the states whose
    tree has i in e_set, those with i in f_set)."""

    def condition(trees) -> RabinAcceptance:
        e = [[] for _ in range(name_count + 1)]
        f = [[] for _ in range(name_count + 1)]
        for s, tree in enumerate(trees):
            for i in tree.e_set:
                e[i].append(s)
            for i in tree.f_set:
                f[i].append(s)
        return RabinAcceptance(tuple(zip(map(frozenset, e[1:]), map(frozenset, f[1:]))))

    return condition


def _split(tree: SafraTree):
    """A DRW state, which is its own tree, the tree's memo shape, (names,
    children, ann_masks), and its masks.

    The masks are in names order, so the shape pins each mask to its name;
    the steps never read e_set or f_set, which the shape leaves out.
    """
    return tree, (tree.names, tree.children, tree.ann_masks), tree.masks


def safra_determinize(a: Automaton) -> Automaton:
    """Deterministic Rabin automaton equivalent to a nondeterministic Buchi one.

    The closure of `safra_step` from the initial tree.
    """
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("safra_determinize: Buchi acceptance required")
    return explore(a, initial_safra_tree(a), safra_step, _split, _rabin(a.state_count))


# ---------------------------------------------------------------------------
# Streett variant
# ---------------------------------------------------------------------------


def initial_streett_safra_tree(a: Automaton) -> SafraTree:
    k = len(a.acceptance.pairs)
    # bits 1..k: every pair index is owed
    return _root_tree(a, a.state_count * (k + 1), ((1 << (k + 1)) - 2,))


def streett_safra_step(
    tree: SafraTree, symbol: str, a: Automaton
) -> SafraTree:
    """One transition of the Streett history-tree construction.

    Every node carries the set of pair indices it still owes a visit;
    children peel one index at a time.  States sitting in an R set jump to
    a fresh sibling that owes one index fewer (wrapping when none is
    smaller); states sitting in a G set restart the obligation for exactly
    that index.  A node whose children all carry its own annotation has
    seen a full round and collapses, recording the event; a leaf that owes
    nothing records one on every letter.
    """
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("streett_safra_step: Streett acceptance required")
    pairs = a.acceptance.pair_masks
    m = a.state_count * (len(pairs) + 1)
    if not tree.masks:
        return _dead_safra_tree(m)

    label, kids, ann = _opened(tree, symbol, a, m)
    # the nodes that completed a round: each stays and everything below goes
    finished = []
    # the nodes with children, parents first: the final sweep's order
    entered = []

    # post-order over the sons, oldest first: v on the stack enters and ~v
    # leaves.  Temporaries are named in walk order, which fixes the
    # output.  A state taken from a son leaves the son's label only: the
    # walk reads no deeper label afterwards, and the sweep clears the rest
    stack = [1]
    while stack:
        v = stack.pop()
        if v > 0:
            sons = kids[v]
            if not sons:
                owed = ann[v]
                if not owed:
                    # nothing owed: the empty round completes on every letter
                    finished.append(v)
                    continue
                # a leaf sprouts a son owing one index fewer, entered next
                kids[v] = sons = (len(label),)
                label.append(label[v])
                kids.append(())
                ann.append(owed ^ (1 << (owed.bit_length() - 1)))
            entered.append(v)
            stack.append(~v)
            stack += reversed(sons)
            continue
        v = ~v
        owed = ann[v]
        first = len(label)
        for c in kids[v]:
            missing = owed & ~ann[c]
            if not missing:
                continue
            j = missing.bit_length() - 1
            assert missing == 1 << j, "a son owes at most one index fewer"
            r_j, g_j = pairs[j - 1]
            moving = label[c] & (r_j | g_j)
            label[c] ^= moving
            # an R-hit moves on to the largest smaller index (none left:
            # back to owing all), a G-hit owes j again; one sprout per state
            lower = owed & (missing - 1)
            r_missing = lower and 1 << (lower.bit_length() - 1)
            while moving:
                hit = moving & -moving
                moving ^= hit
                label.append(hit)
                kids.append(())
                ann.append(owed ^ (r_missing if hit & r_j else missing))
        if len(label) > first:
            kids[v] += tuple(range(first, len(label)))
        # the sons, then the sprouts made here, oldest first, each with the
        # index it misses
        order = [(owed & ~ann[c], c) for c in kids[v]]
        # duplicated states settle on the son owing the smallest index (a
        # son owes at most one index fewer than v, so its missing mask
        # orders as that index), ties on age: static names are recycled,
        # so a name does not tell age, and the stable sort keeps kids order
        order.sort(key=itemgetter(0))
        claimed = 0
        whole = True
        for _, c in order:
            kept = label[c] & ~claimed
            label[c] = kept
            if kept:
                claimed |= kept
                whole = whole and ann[c] == owed
        if claimed and whole:
            finished.append(v)

    # parents first, in entry order (a parent may be named after its
    # child): the children of a finished node go, and any other node's
    # children keep what it kept, so a state taken from a node leaves its
    # whole subtree, and an emptied node takes its subtree along
    done = set(finished)
    for v in entered:
        keep = 0 if v in done else label[v]
        for c in kids[v]:
            label[c] &= keep
    return _closed(
        label, kids, ann, m, [v for v in finished if v <= m and label[v]], a.safra_memo
    )


def streett_safra_determinize(a: Automaton) -> Automaton:
    """Deterministic Rabin automaton equivalent to a nondeterministic Streett one.

    The closure of `streett_safra_step` from the initial tree.
    """
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("streett_safra_determinize: Streett acceptance required")
    m = a.state_count * (len(a.acceptance.pairs) + 1)
    return explore(a, initial_streett_safra_tree(a), streett_safra_step, _split, _rabin(m))
