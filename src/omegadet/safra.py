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
    mask_states,
    step_rows,
)


class SafraTree:
    """History tree of the reference constructions, held as masks.

    masks maps node name to its nonempty state set (bit s for state s),
    children maps it to its children, oldest first.  Original names live in
    [1..n]; e_set holds the names the tree leaves unused, f_set the names
    whose node finished a breakpoint this step.  ann_masks maps node name
    to the pair indices (bit j for index j) it still owes in the Streett
    construction; it is None for Buchi trees and for the empty tree (no
    nodes), the dead state.  label and ann are read-only frozenset views.
    """

    __slots__ = ("masks", "children", "e_set", "f_set", "ann_masks", "_key", "_hash")

    def __init__(self, masks, children, e_set, f_set, ann_masks=None):
        self.masks = masks
        self.children = {v: tuple(cs) for v, cs in children.items()}
        self.e_set = frozenset(e_set)
        self.f_set = frozenset(f_set)
        self.ann_masks = ann_masks
        self._key = None
        self._hash = None

    @property
    def label(self):
        return {v: frozenset(mask_states(m)) for v, m in self.masks.items()}

    @property
    def ann(self):
        owed = self.ann_masks
        return None if owed is None else {v: frozenset(mask_states(m)) for v, m in owed.items()}

    def key(self):
        if self._key is None:
            ann = self.ann_masks
            record = tuple(
                (
                    v,
                    self.children[v],
                    mask_states(self.masks[v]),
                    mask_states(ann[v]) if ann is not None else (),
                )
                for v in sorted(self.masks)
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
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        parts = [
            f"{v}:{list(mask_states(self.masks[v]))}->{list(self.children[v])}"
            for v in sorted(self.masks)
        ]
        return (
            f"SafraTree({'; '.join(parts)} | E={sorted(self.e_set)}"
            f" F={sorted(self.f_set)})"
        )


def initial_safra_tree(a: Automaton) -> SafraTree:
    return SafraTree(
        masks={1: 1 << a.initial},
        children={1: ()},
        e_set=set(range(2, a.state_count + 1)),
        f_set=set(),
    )


def _dead_safra_tree(n: int) -> SafraTree:
    return SafraTree(masks={}, children={}, e_set=set(range(1, n + 1)), f_set=set())


def _open(tree: SafraTree, symbol: str, a: Automaton, pool: int) -> WorkTree:
    """Working copy of a tree after reading symbol; temporaries follow the pool."""
    images = a.image_masks[symbol]
    return WorkTree(
        {v: images[m] for v, m in tree.masks.items()},
        {v: list(cs) for v, cs in tree.children.items()},
        None if tree.ann_masks is None else dict(tree.ann_masks),
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
    """The step_rows shape of a tree and its node masks, both in `masks` order.

    The shape is the names, then their children and owed indices, all in
    `masks` order, so it pins each mask to its name; it holds flat tuples
    of the tree's own objects only.
    """
    masks, ann = tree.masks, tree.ann_masks
    shape = (
        tuple(masks),
        tuple(map(tree.children.__getitem__, masks)),
        None if ann is None else tuple(map(ann.__getitem__, masks)),
    )
    return shape, tuple(masks.values())


def _to_drw(a: Automaton, step, start: SafraTree, name_count: int) -> Automaton:
    """Close a history-tree step under the alphabet; name i gives Rabin pair i.

    A tree's successors are its `step_rows` row, keyed by the shape and the
    images of its masks, so trees and letters with one key share one step;
    the steps never read e_set or f_set, which the shape leaves out.
    """
    return explore(
        a,
        start,
        step_rows(a, step, _split),
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
        masks={1: 1 << a.initial},
        children={1: ()},
        e_set=set(range(2, m + 1)),
        f_set=set(),
        ann_masks={1: (1 << (k + 1)) - 2},
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
