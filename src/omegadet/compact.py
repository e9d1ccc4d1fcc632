"""Compact tree determinization: Buchi/Streett to deterministic parity.

Node names double as the record of structural change: names are kept
consecutive by renaming after every transition, and the transition reports
the smallest name whose node was deleted (e) and the smallest name whose
node finished a round (f).  Ordering the two events by name yields a
min-even parity condition, so the deterministic automaton needs no pair
bookkeeping at all — just one priority per transition target.

Names also order the tree: a parent is named before its children and an
older sibling before a younger one.  So both steps work on flat lists
indexed by name, with fresh names appended: the Buchi step is a few passes
in name order, and the Streett step one loop over an explicit stack,
walking the sons in post-order and settling siblings by owed index, then
one pass in name order that drops what the walk emptied or cut.  Both end
in `_renamed`, which renames the survivors 1..N and prices the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    StreettAcceptance,
    explore,
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


def _renamed(survivors, par, label, ann, last: int, f: int, bound: int):
    """The survivors renamed 1..N in order, as a tree, and the step's priority.

    survivors are ascending old names, each with its parent among them;
    par, label and ann (None for Buchi) are read by old name, and par[1]
    is 0.  last is the last name the step handed out.  e is the smallest
    removed name, or bound when nothing was removed.  Names grow from
    parent to child, so the smallest name of a removed subtree is its
    root; every name below e survives, and a tree holds fewer than bound
    nodes, so e never exceeds bound.
    """
    if not survivors or survivors[0] != 1:
        return EMPTY_TREE, 1
    # new[v] is the new name of survivor v, and new[0] stays 0
    new = [0] * (last + 1)
    e = 0
    for i, v in enumerate(survivors, 1):
        new[v] = i
        if i != v and not e:
            e = i
    count = len(survivors)
    if not e:
        e = bound if count == last else count + 1
    out = CompactSafraTree(
        parents=tuple(map(new.__getitem__, map(par.__getitem__, survivors))),
        masks=tuple(map(label.__getitem__, survivors)),
        e=e,
        f=f,
        ann_masks=() if ann is None else tuple(map(ann.__getitem__, survivors)),
    )
    # priority_of(e, f), whose checks hold here: e >= 2, as name 1 survives
    return out, 2 * f - 2 if f < e else 2 * e - 3


def initial_compact_tree(a: Automaton) -> CompactSafraTree:
    return CompactSafraTree(parents=(0,), masks=(1 << a.initial,), e=2, f=1)


def compact_step(
    tree: CompactSafraTree, symbol: str, a: Automaton
) -> tuple[CompactSafraTree, int]:
    """One transition of the compact Buchi construction.

    Returns the successor tree and the priority of the transition; the
    successor of the empty tree is the empty tree with priority 1.  The
    passes run over label and par, lists indexed by name, with the sprouts
    appended after the old names.
    """
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("compact_step: Buchi acceptance required")
    n = a.state_count
    count = len(tree.parents)
    if count == 0:
        return EMPTY_TREE, 1
    alpha = a.acceptance.accepting_mask
    images = a.image_masks[symbol]
    # label and par by name; index 0 stands for the root's missing parent
    label = [0, *map(images.__getitem__, tree.masks)]
    par = [0, *tree.parents]

    # sprout: the accepting part of each old label, under names after the
    # old ones, so every parent is named before its children
    for v in range(1, count + 1):
        birth = label[v] & alpha
        if birth:
            label.append(birth)
            par.append(v)
    last = len(label) - 1

    # settle, parents first and older siblings first: a node keeps what
    # its parent kept and no older sibling claimed.  A child's label is a
    # subset of its parent's, so a state settled away from a node leaves
    # its whole subtree.  Afterwards claimed[v] is the union of v's children
    claimed = [0] * (last + 1)
    for v in range(2, last + 1):
        p = par[v]
        states = label[v] & label[p] & ~claimed[p]
        label[v] = states
        claimed[p] |= states

    # a label its children cover closes a round (an emptied leaf too): the
    # node stays and everything below it goes; f is the smallest such
    # name, and the first found, as parents come before their children
    f = 0
    cut = [False] * (last + 1)
    survivors = []
    for v in range(1, last + 1):
        if cut[par[v]]:
            cut[v] = True
            continue
        states = label[v]
        if states == claimed[v]:
            cut[v] = True
            if not f:
                f = v
        if states:
            survivors.append(v)

    # empty nodes disappear too; the smallest deleted name is e
    return _renamed(survivors, par, label, None, last, f or n + 1, n + 1)


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
    m = a.state_count * (len(pairs) + 1)
    if not tree.parents:
        return EMPTY_TREE, 1
    # index 0 stands for the root's missing parent
    label = [0, *map(a.image_masks[symbol].__getitem__, tree.masks)]
    par = [0, *tree.parents]
    ann = [0, *tree.ann_masks]
    kids: dict[int, list[int]] = {}
    for v, p in enumerate(tree.parents[1:], 2):
        kids.setdefault(p, []).append(v)
    # the nodes that finished a round: each stays and everything below goes
    cut: set[int] = set()

    # post-order over the sons, oldest first: v on the stack enters and ~v
    # leaves.  Fresh names go out in walk order, which fixes the output.  A
    # state taken from a son leaves the son's label only: the walk reads no
    # deeper label afterwards, and the sweep below clears the rest
    stack = [1]
    while stack:
        v = stack.pop()
        if v > 0:
            sons = kids.get(v)
            if not sons:
                owed = ann[v]
                if not owed:
                    # nothing owed: the empty round completes on every letter
                    cut.add(v)
                    continue
                # a leaf sprouts a son owing one index fewer, entered next
                kids[v] = sons = [len(label)]
                label.append(label[v])
                par.append(v)
                ann.append(owed ^ _top_bit(owed))
            stack.append(~v)
            stack += reversed(sons)
            continue
        v = ~v
        owed = ann[v]
        # the sons, and the sprouts made here, each with the index it misses
        order = []
        for c in kids[v]:
            missing = owed & ~ann[c]
            order.append((missing, c))
            if not missing:
                continue
            j = missing.bit_length() - 1
            assert missing == 1 << j, "a son owes at most one index fewer"
            r_j, g_j = pairs[j - 1]
            moving = label[c] & (r_j | g_j)
            label[c] &= ~moving
            # an R-hit moves on to the largest smaller index (none left:
            # back to owing all), a G-hit owes j again; one sprout per state
            lower = owed & (missing - 1)
            r_missing = lower and _top_bit(lower)
            while moving:
                hit = moving & -moving
                moving ^= hit
                gone = r_missing if hit & r_j else missing
                order.append((gone, len(label)))
                label.append(hit)
                par.append(v)
                ann.append(owed ^ gone)
        # duplicated states settle on the son owing the smallest index (a
        # son owes at most one index fewer than v, so its missing mask
        # orders as that index), ties on the smaller name.  Emptied sons
        # leave, and the sweep drops their subtrees
        order.sort()
        claimed = 0
        whole = True
        for _, c in order:
            states = label[c] & ~claimed
            label[c] = states
            if states:
                claimed |= states
                whole = whole and ann[c] == owed
        if claimed and whole:
            cut.add(v)

    # parents first: the children of a cut node go, and any other node
    # keeps what its parent kept, so a state taken from a node leaves its
    # whole subtree, and an emptied node takes its subtree along
    for v, p in enumerate(par[2:], 2):
        label[v] = 0 if p in cut else label[v] & label[p]
    survivors = [v for v in range(1, len(label)) if label[v]]
    f = min(cut, default=m + 1)
    return _renamed(survivors, par, label, ann, len(label) - 1, f, m + 1)


# ---------------------------------------------------------------------------
# Reachability closure to a deterministic parity automaton
# ---------------------------------------------------------------------------


def _top_bit(mask: int) -> int:
    return 1 << (mask.bit_length() - 1)


def _split(tree: CompactSafraTree):
    """The memo shape of a tree, (parents, ann_masks), and its node masks."""
    return (tree.parents, tree.ann_masks), tree.masks


def _to_dpw(a: Automaton, step, start: CompactSafraTree, index: int) -> Automaton:
    """Close the compact tree step under the alphabet.

    A DPW state is what the step returns, (tree, priority).  Trees compare
    by shape, so two steps arriving at the same shape with the same
    priority are the same state.  The priority a state was entered with
    does not affect its successors, so `explore` steps and splits the
    state's tree; trees and letters whose shape and mask images agree
    share one step.
    """
    return explore(
        a,
        (start, priority_of(start.e, start.f)),
        lambda state, symbol, a: step(state[0], symbol, a),
        lambda state: _split(state[0]),
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
