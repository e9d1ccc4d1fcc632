"""Reference tree constructions: Buchi/Streett to deterministic Rabin.

These are the classic history-tree determinizations with *static* node
names: a name, once freed, signals a restart through the Rabin pair of
that name.  They exist as an independently auditable baseline for the
compact parity constructions.
"""

from __future__ import annotations

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    WorkTree,
    explore,
    image,
)


def _freeze_labels(label):
    return {v: frozenset(states) for v, states in label.items()}


def _freeze_children(children):
    return {v: tuple(cs) for v, cs in children.items()}


class SafraTree:
    """History tree of the reference constructions.

    label maps node name to a nonempty state set, children maps node name
    to its children ordered oldest first.  Original names live in [1..n];
    e_set holds the names unused by the tree, f_set the names whose node
    finished a breakpoint this step.  For the Streett construction ann maps
    node name to the pair indices the node still owes; it is None for Buchi
    trees.  The empty tree (no nodes) is the dead state.
    """

    __slots__ = ("label", "children", "e_set", "f_set", "ann", "_key")

    def __init__(self, label, children, e_set, f_set, ann=None):
        self.label = _freeze_labels(label)
        self.children = _freeze_children(children)
        self.e_set = frozenset(e_set)
        self.f_set = frozenset(f_set)
        self.ann = None if ann is None else {v: frozenset(js) for v, js in ann.items()}
        self._key = None

    def key(self):
        if self._key is None:
            record = tuple(
                (
                    v,
                    self.children[v],
                    tuple(sorted(self.label[v])),
                    tuple(sorted(self.ann[v])) if self.ann is not None else (),
                )
                for v in sorted(self.label)
            )
            self._key = (
                record,
                tuple(sorted(self.e_set)),
                tuple(sorted(self.f_set)),
            )
        return self._key

    def __eq__(self, other):
        return isinstance(other, SafraTree) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = [
            f"{v}:{sorted(self.label[v])}->{list(self.children[v])}"
            for v in sorted(self.label)
        ]
        return (
            f"SafraTree({'; '.join(parts)} | E={sorted(self.e_set)}"
            f" F={sorted(self.f_set)})"
        )


def initial_safra_tree(a: Automaton) -> SafraTree:
    n = a.state_count
    return SafraTree(
        label={1: {a.initial}},
        children={1: ()},
        e_set=set(range(2, n + 1)),
        f_set=set(),
    )


def _dead_safra_tree(n: int) -> SafraTree:
    return SafraTree(label={}, children={}, e_set=set(range(1, n + 1)), f_set=set())


def _open(tree: SafraTree, symbol: str, a: Automaton, pool: int) -> WorkTree:
    """Working copy of a tree after reading symbol; temporaries follow the pool."""
    return WorkTree(
        {v: image(a, states, symbol) for v, states in tree.label.items()},
        {v: list(cs) for v, cs in tree.children.items()},
        None if tree.ann is None else dict(tree.ann),
        pool,
    )


def _settle(t: WorkTree, f_marks, pool: int) -> SafraTree:
    """Free the names of dead nodes and pull temporaries back into the pool.

    Survivors are the nodes neither emptied nor cut; f_set keeps the
    f_marks among them.  Names in [1..pool] are static; larger names are
    temporaries the step just created.  Every static name without a
    surviving node goes to e_set and restarts its pair, and the
    temporaries take the smallest of them.
    """
    label, kids, ann, removed = t.label, t.kids, t.ann, t.removed
    survivors = {v for v, states in label.items() if states and v not in removed}
    if 1 not in survivors:
        return _dead_safra_tree(pool)
    e_set = set(range(1, pool + 1)) - survivors
    temps = sorted(v for v in survivors if v > pool)
    free = sorted(e_set)
    assert len(temps) <= len(free), "name pool exhausted"
    rename = dict(zip(temps, free))

    def name(v):
        return rename.get(v, v)

    return SafraTree(
        {name(v): label[v] for v in survivors},
        {name(v): [name(c) for c in kids[v] if c in survivors] for v in survivors},
        e_set,
        f_marks & survivors,
        None if ann is None else {name(v): ann[v] for v in survivors},
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
    if not tree.label:
        return _dead_safra_tree(n)
    alpha = a.acceptance.accepting
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
    greens = {
        v
        for v, states in label.items()
        if states and states == set().union(*(label[c] for c in kids[v]))
    }
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


def _to_drw(a: Automaton, step, start: SafraTree, name_count: int) -> Automaton:
    """Close a history-tree step under the alphabet; name i gives Rabin pair i."""
    return explore(
        a,
        start,
        lambda tree, symbol: step(tree, symbol, a),
        SafraTree.key,
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
    m = a.state_count * (k + 1)
    return SafraTree(
        label={1: {a.initial}},
        children={1: ()},
        e_set=set(range(2, m + 1)),
        f_set=set(),
        ann={1: set(range(1, k + 1))},
    )


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
    pairs = a.acceptance.pairs
    k = len(pairs)
    n = a.state_count
    m = n * (k + 1)
    if not tree.label:
        return _dead_safra_tree(m)

    t = _open(tree, symbol, a, m)
    label, kids, ann = t.label, t.kids, t.ann
    f_marks: set[int] = set()

    def process(v: int) -> None:
        if not kids[v]:
            if not ann[v]:
                # nothing owed: the empty round completes on every letter
                f_marks.add(v)
                return
            t.sprout(v, label[v], ann[v] - {max(ann[v])})
        sons = list(kids[v])
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
        # (a son owes at most one index fewer than v); the stable sort
        # breaks ties on age
        t.settle(sorted(kids[v], key=lambda c: min(ann[v] - ann[c], default=0)))
        # emptied sons leave; _settle sweeps their empty subtrees
        kids[v] = [c for c in kids[v] if label[c]]
        if kids[v] and all(ann[c] == ann[v] for c in kids[v]):
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
