"""Reference tree constructions: Buchi/Streett to deterministic Rabin.

These are the classic history-tree determinizations with *static* node
names: a name, once freed, signals a restart through the Rabin pair of
that name.  They exist as an independently auditable baseline for the
compact parity constructions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import repeat

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    WorkTree,
    explore,
    mask_states,
    step_rows,
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


def _open(tree: SafraTree, symbol: str, a: Automaton, pool: int) -> WorkTree:
    """Working copy of a tree after reading symbol; temporaries follow the pool."""
    images = a.image_masks[symbol]
    names = tree.names
    return WorkTree(
        dict(zip(names, map(images.__getitem__, tree.masks))),
        dict(zip(names, map(list, tree.children))),
        None if tree.ann_masks is None else dict(zip(names, tree.ann_masks)),
        pool,
    )


def _settle(t: WorkTree, f_marks, pool: int) -> SafraTree:
    """Free the names of dead nodes and pull temporaries back into the pool.

    Survivors are the nodes neither emptied nor cut; f_set keeps the
    f_marks among them.  Names in [1..pool] are static; larger names are
    temporaries the step just created.  Every static name without a
    surviving node goes to e_set and restarts its pair, and the
    temporaries take the smallest of them.  The survivors are listed by
    their new names.
    """
    label, kids, ann, removed = t.label, t.kids, t.ann, t.removed
    survivors = {v for v, states in label.items() if states and v not in removed}
    if 1 not in survivors:
        return _dead_safra_tree(pool)
    e_set = frozenset(range(1, pool + 1)) - survivors
    temps = sorted(v for v in survivors if v > pool)
    free = sorted(e_set)
    assert len(temps) <= len(free), "name pool exhausted"
    rename = dict(zip(temps, free))
    names, order = zip(*sorted((rename.get(v, v), v) for v in survivors))
    return SafraTree(
        names,
        tuple(map(label.__getitem__, order)),
        tuple(tuple(rename.get(c, c) for c in kids[v] if c in survivors) for v in order),
        None if ann is None else tuple(map(ann.__getitem__, order)),
        e_set,
        frozenset(f_marks & survivors),
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
    t = _open(tree, symbol, a, n)
    label, kids = t.label, t.kids

    # sprout: the accepting part of each label starts a new youngest child
    order = t.preorder(1)
    for v in order:
        birth = label[v] & alpha
        if birth:
            t.sprout(v, birth)

    # older siblings keep duplicated states; parents settle before
    # children, and the sprouts are leaves
    for v in order:
        if len(kids[v]) > 1:
            t.settle(kids[v])

    # breakpoints: children covering a nonempty parent end the round
    greens = set()
    for v, states in label.items():
        covered = 0
        for c in kids[v]:
            covered |= label[c]
        if states and states == covered:
            greens.add(v)
    for g in greens:
        t.prune(g)
    assert all(v <= n for v in greens), "fresh node cannot finish a breakpoint"
    return _settle(t, greens, n)


def _rabin_condition(trees, name_count: int) -> RabinAcceptance:
    pairs = []
    for i in range(1, name_count + 1):
        e_i = frozenset(s for s, t in enumerate(trees) if i in t.e_set)
        f_i = frozenset(s for s, t in enumerate(trees) if i in t.f_set)
        pairs.append((e_i, f_i))
    return RabinAcceptance(tuple(pairs))


def _split(tree: SafraTree):
    """The step_rows shape of a tree, (names, children, ann_masks), and its node masks.

    The masks are in names order, so the shape pins each mask to its name;
    the steps never read e_set or f_set, which the shape leaves out.
    """
    return (tree.names, tree.children, tree.ann_masks), tree.masks


def _drw_state_key(tree: SafraTree, decode):
    """Sort key of a DRW state: per node its name, children, states and owed indices.

    The masks are read as sorted tuples, so the numbering does not depend
    on the representation; then come the sorted E and F name sets.
    """
    owed = repeat(()) if tree.ann_masks is None else map(decode, tree.ann_masks)
    return (
        tuple(zip(tree.names, tree.children, map(decode, tree.masks), owed)),
        tuple(sorted(tree.e_set)),
        tuple(sorted(tree.f_set)),
    )


def _to_drw(a: Automaton, step, start: SafraTree, name_count: int) -> Automaton:
    """Close a history-tree step under the alphabet; name i gives Rabin pair i.

    A tree's successors are its `step_rows` row, so trees and letters whose
    shape and mask images agree share one step.
    """
    decode = cache(mask_states)
    return explore(
        a,
        start,
        step_rows(a, step, _split),
        lambda tree: _drw_state_key(tree, decode),
        lambda trees: _rabin_condition(trees, name_count),
    )


def safra_determinize(a: Automaton) -> Automaton:
    """Deterministic Rabin automaton equivalent to a nondeterministic Buchi one."""
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("safra_determinize: Buchi acceptance required")
    return _to_drw(a, safra_step, initial_safra_tree(a), a.state_count)


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
    k = len(pairs)
    n = a.state_count
    m = n * (k + 1)
    if not tree.masks:
        return _dead_safra_tree(m)

    t = _open(tree, symbol, a, m)
    label, kids, ann = t.label, t.kids, t.ann
    f_marks: set[int] = set()

    def process(v: int) -> None:
        owed = ann[v]
        if not kids[v]:
            if not owed:
                # nothing owed: the empty round completes on every letter
                f_marks.add(v)
                return
            t.sprout(v, label[v], owed ^ (1 << (owed.bit_length() - 1)))
        sons = list(kids[v])
        for c in sons:
            process(c)
        for c in sons:
            missing = owed & ~ann[c]
            if not missing:
                continue
            j = missing.bit_length() - 1
            assert missing == 1 << j, "a son owes at most one index fewer"
            r_j, g_j = pairs[j - 1]
            for s in mask_states(label[c] & (r_j | g_j)):
                hit = 1 << s
                t.strip(c, hit)
                if hit & r_j:
                    lower = owed & (missing - 1)
                    drop = (1 << (lower.bit_length() - 1)) if lower else 0
                    t.sprout(v, hit, owed ^ drop)
                else:
                    t.sprout(v, hit, owed ^ missing)
        # duplicated states settle on the son owing the smallest index
        # (a son owes at most one index fewer than v, so its missing mask
        # orders as that index); the stable sort breaks ties on age
        t.settle(sorted(kids[v], key=lambda c: owed & ~ann[c]))
        # emptied sons leave; _settle sweeps their empty subtrees
        kids[v] = [c for c in kids[v] if label[c]]
        if kids[v] and all(ann[c] == owed for c in kids[v]):
            t.prune(v)
            f_marks.add(v)

    process(1)
    return _settle(t, {v for v in f_marks if v <= m}, m)


def streett_safra_determinize(a: Automaton) -> Automaton:
    """Deterministic Rabin automaton equivalent to a nondeterministic Streett one."""
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("streett_safra_determinize: Streett acceptance required")
    k = len(a.acceptance.pairs)
    m = a.state_count * (k + 1)
    return _to_drw(a, streett_safra_step, initial_streett_safra_tree(a), m)
