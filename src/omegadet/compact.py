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

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    StreettAcceptance,
    WorkTree,
    explore,
    image,
)


@dataclass(frozen=True)
class CompactSafraTree:
    """History tree with consecutive names [1..N].

    parents[i] is the parent name of name i+1 (0 for the root); labels[i]
    is the label of name i+1.  Parent names are smaller than child names.
    anns[i] is the set of pair indices (1-based) that name i+1 still owes;
    it is empty for the Buchi construction.  A tree is its shape: e/f are
    the deletion/completion bookmarks of the step that produced it, kept
    readable but left out of equality and hashing.  The empty tree (no
    nodes, e=1) is the rejecting sink.
    """

    parents: tuple[int, ...]
    labels: tuple[frozenset[int], ...]
    e: int = field(compare=False)
    f: int = field(compare=False)
    anns: tuple[frozenset[int], ...] = ()


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


EMPTY_TREE = CompactSafraTree(parents=(), labels=(), e=1, f=1)


def _open(tree: CompactSafraTree, symbol: str, a: Automaton) -> WorkTree:
    """Working copy of a tree after reading symbol; fresh names follow the last one."""
    count = len(tree.parents)
    label = {v: image(a, tree.labels[v - 1], symbol) for v in range(1, count + 1)}
    kids: dict[int, list[int]] = {v: [] for v in range(1, count + 1)}
    for v, p in enumerate(tree.parents, 1):
        if p:
            kids[p].append(v)
    ann = dict(enumerate(tree.anns, 1)) if tree.anns else None
    return WorkTree(label, kids, ann, count)


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
    # deep nodes emptied by ancestor-level removals are swept here
    removed.update(v for v, states in label.items() if not states)
    if 1 in removed:
        return EMPTY_TREE, 1
    survivors = sorted(v for v in label if v not in removed)
    rename = {v: i for i, v in enumerate(survivors, 1)}
    parent = {c: rename[v] for v in survivors for c in kids[v]}
    e = min(removed, default=bound)
    out = CompactSafraTree(
        parents=tuple(parent.get(v, 0) for v in survivors),
        labels=tuple(frozenset(label[v]) for v in survivors),
        e=e,
        f=f,
        anns=() if t.ann is None else tuple(t.ann[v] for v in survivors),
    )
    return out, priority_of(e, f)


def initial_compact_tree(a: Automaton) -> CompactSafraTree:
    return CompactSafraTree(parents=(0,), labels=(frozenset({a.initial}),), e=2, f=1)


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
    alpha = a.acceptance.accepting
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
    # the subtree below it
    greens = [
        v
        for v in sorted(label)
        if label[v] == set().union(*(label[c] for c in kids[v]))
    ]
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
        labels=(frozenset({a.initial}),),
        anns=(frozenset(range(1, k + 1)),),
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
    pairs = a.acceptance.pairs
    n = a.state_count
    m = n * (len(pairs) + 1)
    count = len(tree.parents)
    if count == 0:
        return EMPTY_TREE, 1

    t = _open(tree, symbol, a)
    label, kids, ann = t.label, t.kids, t.ann
    finished: set[int] = set()

    def process(v: int) -> None:
        if not kids[v]:
            if not ann[v]:
                # nothing owed: the empty round completes on every letter
                finished.add(v)
                return
            t.sprout(v, label[v], ann[v] - {max(ann[v])})
        sons = sorted(kids[v])
        for c in sons:
            process(c)
        for c in sons:
            missing = ann[v] - ann[c]
            if not missing:
                continue
            (j,) = missing
            r_j, g_j = pairs[j - 1]
            for s in sorted(label[c]):
                if s in r_j:
                    t.strip(c, {s})
                    lower = [x for x in ann[v] if x < j]
                    drop = max(lower) if lower else 0
                    t.sprout(v, {s}, ann[v] - {drop})
                elif s in g_j:
                    t.strip(c, {s})
                    t.sprout(v, {s}, ann[v] - {j})
        # duplicated states settle on the son owing the smallest index
        # (a son owes at most one index fewer than v), ties on name
        t.settle(sorted(kids[v], key=lambda c: (min(ann[v] - ann[c], default=0), c)))
        # emptied sons leave; _close sweeps their empty subtrees
        kids[v] = [c for c in kids[v] if label[c]]
        if kids[v] and all(ann[c] == ann[v] for c in kids[v]):
            t.prune(v)
            finished.add(v)

    process(1)
    return _close(t, min(finished, default=m + 1), m + 1)


# ---------------------------------------------------------------------------
# Reachability closure to a deterministic parity automaton
# ---------------------------------------------------------------------------


def _dpw_state_key(state):
    tree, priority = state
    return (
        tree.parents,
        tuple(tuple(sorted(l)) for l in tree.labels),
        tuple(tuple(sorted(h)) for h in tree.anns),
        priority,
    )


def _to_dpw(a: Automaton, step, start: CompactSafraTree, index: int) -> Automaton:
    """Close the compact tree step under the alphabet.

    A DPW state is what the step returns, (tree, priority).  Trees compare
    by shape, so two steps arriving at the same shape with the same
    priority are the same state.  Steps are cached on tree and symbol,
    since the priority a state was entered with does not affect its
    successors.
    """
    step_cache: dict = {}

    def advance(state, symbol: str):
        key = (state[0], symbol)
        hit = step_cache.get(key)
        if hit is None:
            hit = step_cache[key] = step(state[0], symbol, a)
        return hit

    return explore(
        a,
        (start, priority_of(start.e, start.f)),
        advance,
        _dpw_state_key,
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
