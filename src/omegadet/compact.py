"""Compact tree determinization: Buchi/Streett to deterministic parity.

Node names double as the record of structural change: names are kept
consecutive by renaming after every transition, and the transition reports
the smallest name whose node was deleted (e) and the smallest name whose
node finished a round (f).  Ordering the two events by name yields a
min-even parity condition, so the deterministic automaton needs no pair
bookkeeping at all — just one priority per transition target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    StreettAcceptance,
    WorkTree,
    explore,
    mask_states,
    step_rows,
)


@dataclass(frozen=True)
class CompactSafraTree:
    """History tree with consecutive names [1..N].

    parents[i] is the parent name of name i+1 (0 for the root); masks[i]
    is the label of name i+1 as a state mask (bit s for state s).  Parent
    names are smaller than child names.  ann_masks[i] holds bit j for
    every pair index j (1-based) that name i+1 still owes; it is empty for
    the Buchi construction.  A tree is its shape: e/f are the
    deletion/completion bookmarks of the step that produced it, kept
    readable but left out of equality and hashing.  The empty tree (no
    nodes, e=1) is the rejecting sink.
    """

    parents: tuple[int, ...]
    masks: tuple[int, ...]
    e: int = field(compare=False)
    f: int = field(compare=False)
    ann_masks: tuple[int, ...] = ()


def priority_of(e: int, f: int) -> int:
    """Priority of a transition with deletion bookmark e and completion bookmark f.

    Completion strictly before deletion is the good case (even priority
    2f-2); otherwise the deletion dominates (odd priority 2e-3).  e=1 means
    the root died and is handled by the sink, not here.
    """
    if e < 2:
        raise ValueError("priority_of: e must be at least 2")
    if f < 1:
        raise ValueError("priority_of: f must be at least 1")
    if f < e:
        return 2 * f - 2
    return 2 * e - 3


EMPTY_TREE = CompactSafraTree(parents=(), masks=(), e=1, f=1)


def _open(tree: CompactSafraTree, symbol: str, a: Automaton) -> WorkTree:
    """Working copy of a tree after reading symbol; fresh names follow the last one."""
    images = a.image_masks[symbol]
    label = {v: images[m] for v, m in enumerate(tree.masks, 1)}
    kids: dict[int, list[int]] = {v: [] for v in label}
    for v, p in enumerate(tree.parents, 1):
        if p:
            kids[p].append(v)
    ann = dict(enumerate(tree.ann_masks, 1)) if tree.ann_masks else None
    return WorkTree(label, kids, ann, len(label))


def _close(t: WorkTree, f: int, bound: int):
    """Sweep emptied nodes, rename the survivors 1..N in order, price the step.

    e is the smallest removed name, or bound when nothing was removed.
    Names grow from parent to child, so the smallest name of a removed
    subtree is its root; every name below e survives, and a tree holds
    fewer than bound nodes, so e never exceeds bound.  Removed sets are
    closed under subtrees, so each survivor's parent survives too.
    Returns the successor tree and its priority.
    """
    label, kids, removed = t.label, t.kids, t.removed
    # label holds every name 1..last in ascending order; deep nodes
    # emptied by ancestor-level removals are swept here
    survivors = [v for v, states in label.items() if states and v not in removed]
    if not survivors or survivors[0] != 1:
        return EMPTY_TREE, 1
    count = len(survivors)
    e = bound
    if count < t.last:
        e = next((i for i, v in enumerate(survivors, 1) if i != v), count + 1)
    parent = {c: i for i, v in enumerate(survivors, 1) for c in kids[v]}
    out = CompactSafraTree(
        parents=(0, *map(parent.__getitem__, survivors[1:])),
        masks=tuple(map(label.__getitem__, survivors)),
        e=e,
        f=f,
        ann_masks=() if t.ann is None else tuple(map(t.ann.__getitem__, survivors)),
    )
    return out, priority_of(e, f)


def initial_compact_tree(a: Automaton) -> CompactSafraTree:
    return CompactSafraTree(parents=(0,), masks=(1 << a.initial,), e=2, f=1)


def compact_step(
    tree: CompactSafraTree, symbol: str, a: Automaton
) -> tuple[CompactSafraTree, int]:
    """One transition of the compact Buchi construction.

    Returns the successor tree and the priority of the transition; the
    successor of the empty tree is the empty tree with priority 1.
    """
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("compact_step: Buchi acceptance required")
    n = a.state_count
    count = len(tree.parents)
    if count == 0:
        return EMPTY_TREE, 1
    alpha = a.acceptance.accepting_mask
    t = _open(tree, symbol, a)
    label, kids = t.label, t.kids

    # sprout: accepting part of each pre-existing label, names keep growing
    for v in range(1, count + 1):
        birth = label[v] & alpha
        if birth:
            t.sprout(v, birth)

    # duplicated states settle on the smaller-named sibling; every kids
    # list is in name order, and parents come before their children
    for sons in kids.values():
        if len(sons) > 1:
            t.settle(sons)

    # a label covered by its children closes a round: keep the node, drop
    # the subtree below it; label's keys are in name order
    greens = []
    for v, states in label.items():
        covered = 0
        for c in kids[v]:
            covered |= label[c]
        if states == covered:
            greens.append(v)
    for g in greens:
        if g not in t.removed:
            t.prune(g)

    # empty nodes disappear too; the smallest deleted name is e
    return _close(t, min(greens, default=n + 1), n + 1)


# ---------------------------------------------------------------------------
# Streett variant
# ---------------------------------------------------------------------------


def initial_compact_streett_tree(a: Automaton) -> CompactSafraTree:
    k = len(a.acceptance.pairs)
    return CompactSafraTree(
        parents=(0,),
        masks=(1 << a.initial,),
        # bits 1..k: every pair index is owed
        ann_masks=((1 << (k + 1)) - 2,),
        e=2,
        f=1,
    )


def compact_streett_step(
    tree: CompactSafraTree, symbol: str, a: Automaton
) -> tuple[CompactSafraTree, int]:
    """One transition of the compact Streett construction.

    Same shape discipline as the Buchi variant, but rounds are tracked per
    node through annotations of still-owed pair indices: R-hits advance a
    state to a sibling owing one index fewer (wrapping when none is
    smaller), G-hits restart exactly the offended index, and a node whose
    surviving sons all match its own annotation — or a leaf owing nothing —
    completes a round.
    """
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("compact_streett_step: Streett acceptance required")
    pairs = a.acceptance.pair_masks
    n = a.state_count
    m = n * (len(pairs) + 1)
    count = len(tree.parents)
    if count == 0:
        return EMPTY_TREE, 1

    t = _open(tree, symbol, a)
    label, kids, ann = t.label, t.kids, t.ann
    finished: set[int] = set()

    def process(v: int) -> None:
        owed = ann[v]
        if not kids[v]:
            if not owed:
                # nothing owed: the empty round completes on every letter
                finished.add(v)
                return
            t.sprout(v, label[v], owed ^ _top_bit(owed))
        sons = sorted(kids[v])
        for c in sons:
            process(c)
        for c in sons:
            missing = owed & ~ann[c]
            if not missing:
                continue
            j = missing.bit_length() - 1
            assert missing == 1 << j, "a son owes at most one index fewer"
            r_j, g_j = pairs[j - 1]
            # an R-hit moves on to the largest smaller index (none left:
            # back to owing all), a G-hit owes j again; one son per state
            lower = owed & (missing - 1)
            r_owed = owed ^ _top_bit(lower) if lower else owed
            moving = label[c] & (r_j | g_j)
            if moving:
                t.strip(c, moving)
                for s in mask_states(moving):
                    hit = 1 << s
                    t.sprout(v, hit, r_owed if hit & r_j else owed ^ missing)
        # duplicated states settle on the son owing the smallest index,
        # ties on name; a son owes at most one index fewer than v, so its
        # missing mask orders as that index
        t.settle(sorted(kids[v], key=lambda c: (owed & ~ann[c], c)))
        # emptied sons leave; _close sweeps their empty subtrees
        kids[v] = [c for c in kids[v] if label[c]]
        if kids[v] and all(ann[c] == owed for c in kids[v]):
            t.prune(v)
            finished.add(v)

    process(1)
    return _close(t, min(finished, default=m + 1), m + 1)


# ---------------------------------------------------------------------------
# Reachability closure to a deterministic parity automaton
# ---------------------------------------------------------------------------


def _top_bit(mask: int) -> int:
    return 1 << (mask.bit_length() - 1)


def _dpw_state_key(state, decode):
    """Sort key of a DPW state: the tree with its masks read as sorted tuples."""
    tree, priority = state
    return (
        tree.parents,
        tuple(map(decode, tree.masks)),
        tuple(map(decode, tree.ann_masks)),
        priority,
    )


def _split(tree: CompactSafraTree):
    """The step_rows shape of a tree, (parents, ann_masks), and its node masks."""
    return (tree.parents, tree.ann_masks), tree.masks


def _to_dpw(a: Automaton, step, start: CompactSafraTree, index: int) -> Automaton:
    """Close the compact tree step under the alphabet.

    A DPW state is what the step returns, (tree, priority).  Trees compare
    by shape, so two steps arriving at the same shape with the same
    priority are the same state.  A state's successors are the `step_rows`
    row of its tree, since the priority a state was entered with does not
    affect them; trees and letters whose shape and mask images agree share
    one step.
    """
    row = step_rows(a, step, _split)
    decode = cache(mask_states)
    return explore(
        a,
        (start, priority_of(start.e, start.f)),
        lambda state: row(state[0]),
        lambda state: _dpw_state_key(state, decode),
        lambda states: ParityAcceptance(
            priorities=tuple(priority for _, priority in states), index=index
        ),
    )


def nbw_to_dpw(a: Automaton) -> Automaton:
    """Deterministic parity automaton equivalent to a nondeterministic Buchi one."""
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("nbw_to_dpw: Buchi acceptance required")
    return _to_dpw(a, compact_step, initial_compact_tree(a), 2 * a.state_count)


def nsw_to_dpw(a: Automaton) -> Automaton:
    """Deterministic parity automaton equivalent to a nondeterministic Streett one."""
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("nsw_to_dpw: Streett acceptance required")
    m = a.state_count * (len(a.acceptance.pairs) + 1)
    return _to_dpw(a, compact_streett_step, initial_compact_streett_tree(a), 2 * m)
