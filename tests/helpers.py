"""Checks and plumbing that several test modules share but the package never calls."""

import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Hashable, Iterable

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    CycleVerdict,
    Lasso,
    ParityAcceptance,
    RabinAcceptance,
    StreettAcceptance,
)
from omegadet.automata import mask_states
from omegadet.compact import EMPTY_TREE, CompactSafraTree, _top_bit, priority_of
from omegadet.lasso import _accepts_infinity_set, _fair_cycle, _sccs
from omegadet.safra import SafraTree, _dead_safra_tree

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def child_env() -> dict[str, str]:
    """This process's environment with the checkout's `src` first on PYTHONPATH.

    A child interpreter started with it imports the same code as the test
    process, whether or not the package is installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def perfbench_corpus():
    """perfbench's corpus module, loaded from the checkout under its own name."""
    name = "perfbench_corpus"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "corpus.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def reach(
    start: Hashable, successors: Callable[[Hashable], Iterable[Hashable]]
) -> tuple[list, dict]:
    """Breadth-first search of the nodes reachable from `start`.

    Returns the nodes in the order found and each node's successor list.
    Every node is kept as its first instance, in `order` and in `edges`
    alike, so equal nodes that `successors` builds again are freed.
    """
    order = [start]
    first = {start: start}
    edges = {}
    for node in order:  # `order` grows while it is walked
        out = []
        for nxt in successors(node):
            known = first.get(nxt)
            if known is None:
                first[nxt] = known = nxt
                order.append(nxt)
            out.append(known)
        edges[node] = out
    return order, edges


def structurally_equal(a: Automaton, b: Automaton) -> bool:
    """Equality up to symbol names (transitions compared by symbol position)."""
    if (
        len(a.alphabet) != len(b.alphabet)
        or a.state_count != b.state_count
        or a.initial != b.initial
        or a.deterministic != b.deterministic
        or a.acceptance != b.acceptance
    ):
        return False
    for s in range(a.state_count):
        for i in range(len(a.alphabet)):
            if a.successors(s, a.alphabet.symbols[i]) != b.successors(
                s, b.alphabet.symbols[i]
            ):
                return False
    return True


def is_total(a: Automaton) -> bool:
    return all(
        a.successors(s, sym) for s in a.states() for sym in a.alphabet
    )


def reachable_states(a: Automaton) -> frozenset[int]:
    order, _ = reach(
        a.initial, lambda s: [t for sym in a.alphabet for t in a.successors(s, sym)]
    )
    return frozenset(order)


def bfs_numbered(d: Automaton) -> Automaton:
    """d with its states renumbered breadth first, letters in alphabet order.

    The initial state becomes 0.  d must be a deterministic parity or
    Rabin automaton, as the determinizers build, whose states are all
    reachable.
    """
    order, _ = reach(d.initial, lambda s: [d.dstep(s, sym) for sym in d.alphabet])
    number = {s: i for i, s in enumerate(order)}

    def renamed(states: Iterable[int]) -> frozenset[int]:
        return frozenset(number[s] for s in states)

    acc = d.acceptance
    if isinstance(acc, ParityAcceptance):
        acc = ParityAcceptance(tuple(acc.priorities[s] for s in order), acc.index)
    else:
        acc = RabinAcceptance(tuple((renamed(e), renamed(f)) for e, f in acc.pairs))
    return replace(
        d,
        initial=0,
        transitions={
            (i, sym): renamed(d.successors(s, sym))
            for i, s in enumerate(order)
            for sym in d.alphabet
        },
        acceptance=acc,
    )


def reference_run(a: Automaton, lasso: Lasso) -> CycleVerdict:
    """The run of a deterministic automaton on a lasso, walked from scratch.

    The reference for the per-period memo of `run_deterministic`: the run
    goes until a (state, period position) pair repeats.
    """
    state = a.initial
    for sym in lasso.prefix:
        state = a.dstep(state, sym)
    seen: dict[tuple[int, int], int] = {}
    trail: list[int] = []
    pos = 0
    while (state, pos) not in seen:
        seen[(state, pos)] = len(trail)
        trail.append(state)
        state = a.dstep(state, lasso.period[pos])
        pos = (pos + 1) % len(lasso.period)
    first = seen[(state, pos)]
    cycle = frozenset(trail[first:])
    return CycleVerdict(
        accepted=_accepts_infinity_set(a.acceptance, cycle),
        cycle_states=cycle,
        entry_steps=len(lasso.prefix) + first,
    )


def _lasso_product(a: Automaton, lasso: Lasso):
    """The product of the automaton with the lasso's shape graph: roots, successors.

    Shape positions 0..|u|+|v|-1 read prefix then period symbols; the last
    position wraps back to |u|.  Nodes are (automaton state, position), and
    the roots are (s, 0) for the initial state s.
    """
    word = lasso.prefix + lasso.period
    # position i reads word[i] and moves on to steps[i][1]
    steps = [(sym, i + 1) for i, sym in enumerate(word)]
    steps[-1] = (word[-1], len(lasso.prefix))
    transitions = a.transitions

    def successors(node):
        state, pos = node
        sym, nxt = steps[pos]
        return [(t, nxt) for t in transitions.get((state, sym), ())]

    return [(a.initial, 0)], successors


def product_nbw_member(a: Automaton, lasso: Lasso) -> bool:
    """The product-based Buchi oracle, kept as the reference for `nbw_member`.

    Buchi acceptance is the single Streett pair (F, all states) over the
    product of the automaton with the lasso's whole shape graph.
    """
    pairs = [(a.acceptance.accepting, frozenset(a.states()))]
    roots, successors = _lasso_product(a, lasso)
    return any(_fair_cycle(comp, successors, pairs) for comp in _sccs(roots, successors))


def product_nsw_member(a: Automaton, lasso: Lasso) -> bool:
    """The Streett pairs over the product with the lasso's whole shape graph."""
    roots, successors = _lasso_product(a, lasso)
    pairs = a.acceptance.pairs
    return any(_fair_cycle(comp, successors, pairs) for comp in _sccs(roots, successors))


# ---------------------------------------------------------------------------
# WorkTree: a history tree edited in place, the oracles' representation
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class WorkTree:
    """A history tree that one step edits in place.

    label, kids and ann map each name to its states as a mask (see
    `state_mask`), its children oldest first and the pair indices it still
    owes as a mask (ann is None for Buchi trees).  last is the last name
    handed out.  A child's label is a subset of its parent's, so a node
    whose label empties has an empty subtree, and the nodes still in the
    tree are those with a nonempty label.
    """

    label: dict[int, int]
    kids: dict[int, list[int]]
    ann: dict[int, int] | None
    last: int

    def preorder(self, v: int) -> list[int]:
        """Names of v's subtree, each before its children, oldest child first."""
        kids = self.kids
        names = []
        stack = [v]
        while stack:
            x = stack.pop()
            names.append(x)
            stack.extend(reversed(kids[x]))
        return names

    def _subtree(self, v: int) -> list[int]:
        """Names of v's subtree, each before its children; cheaper than preorder."""
        kids = self.kids
        names = [v]
        for x in names:  # `names` grows while it is walked
            names.extend(kids[x])
        return names

    def sprout(self, owner: int, states: int, owed: int | None = None) -> None:
        """Add a youngest child of owner under a fresh name."""
        self.last = name = self.last + 1
        self.kids[owner].append(name)
        self.kids[name] = []
        self.label[name] = states
        if self.ann is not None:
            self.ann[name] = owed

    def strip(self, v: int, states: int) -> None:
        """Remove states from every label in v's subtree."""
        label = self.label
        keep = ~states
        for x in self._subtree(v):
            label[x] &= keep

    def settle(self, sons: Iterable[int]) -> None:
        """In the order given, each son keeps only the states no earlier son holds."""
        label = self.label
        claimed = 0
        for c in sons:
            dup = label[c] & claimed
            if dup:
                self.strip(c, dup)
            claimed |= label[c]

    def prune(self, v: int) -> None:
        """Remove everything below v, emptying its labels."""
        label = self.label
        for x in self._subtree(v)[1:]:
            label[x] = 0
        self.kids[v] = []


# ---------------------------------------------------------------------------
# The compact steps on a WorkTree
# ---------------------------------------------------------------------------


def _open(tree, symbol: str, a: Automaton) -> WorkTree:
    """Working copy of a compact tree after reading symbol; fresh names follow the last one."""
    images = a.image_masks[symbol]
    label = {v: images[m] for v, m in enumerate(tree.masks, 1)}
    kids: dict[int, list[int]] = {v: [] for v in label}
    for v, p in enumerate(tree.parents, 1):
        if p:
            kids[p].append(v)
    ann = dict(enumerate(tree.ann_masks, 1)) if tree.ann_masks else None
    return WorkTree(label, kids, ann, len(label))


def _close(t: WorkTree, f: int, bound: int):
    """Sweep the emptied nodes of a `WorkTree`, then rename and price the step.

    Pruning empties whole subtrees, and a child's label is a subset of its
    parent's, so each survivor's parent survives too.  The survivors take
    the names 1..N in the order of their old names; e is the smallest name
    that went, or bound when none went.
    """
    label, kids, ann = t.label, t.kids, t.ann
    # label holds every name 1..last in ascending order
    survivors = [v for v, states in label.items() if states]
    if not label[1]:
        return EMPTY_TREE, 1
    new = {v: i for i, v in enumerate(survivors, 1)}
    par = {c: new[v] for v in survivors for c in kids[v]}
    e = min((v for v, states in label.items() if not states), default=bound)
    out = CompactSafraTree(
        parents=tuple(par.get(v, 0) for v in survivors),
        masks=tuple(label[v] for v in survivors),
        e=e,
        f=f,
        ann_masks=() if ann is None else tuple(ann[v] for v in survivors),
    )
    return out, priority_of(e, f)


def worktree_compact_step(tree, symbol: str, a: Automaton):
    """The compact Buchi step as edits of a `WorkTree`, the reference for `compact_step`.

    It sprouts, settles sibling lists in name order with `settle` (which
    strips a duplicate state from the son's whole subtree), prunes below
    every node its children cover, and sweeps and renames in `_close`.
    """
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
        t.prune(g)

    # empty nodes disappear too; the smallest deleted name is e
    return _close(t, min(greens, default=n + 1), n + 1)


def worktree_compact_streett_step(tree, symbol: str, a: Automaton):
    """The compact Streett step as edits of a `WorkTree`, the reference for `compact_streett_step`.

    A state that moves or settles away from a son is stripped from the
    son's whole subtree at once, duplicates settle on the son owing the
    smallest index with ties on name, and a finished node is pruned on the
    spot; `_close` sweeps and renames.
    """
    pairs = a.acceptance.pair_masks
    m = a.state_count * (len(pairs) + 1)
    if not tree.parents:
        return EMPTY_TREE, 1
    t = _open(tree, symbol, a)
    label, kids, ann = t.label, t.kids, t.ann
    finished: set[int] = set()

    def process(v: int) -> None:
        owed = ann[v]
        if not kids[v]:
            if not owed:
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
            lower = owed & (missing - 1)
            r_owed = owed ^ _top_bit(lower) if lower else owed
            moving = label[c] & (r_j | g_j)
            if moving:
                t.strip(c, moving)
                for s in mask_states(moving):
                    hit = 1 << s
                    t.sprout(v, hit, r_owed if hit & r_j else owed ^ missing)
        t.settle(sorted(kids[v], key=lambda c: (owed & ~ann[c], c)))
        kids[v] = [c for c in kids[v] if label[c]]
        if kids[v] and all(ann[c] == owed for c in kids[v]):
            t.prune(v)
            finished.add(v)

    process(1)
    return _close(t, min(finished, default=m + 1), m + 1)


# ---------------------------------------------------------------------------
# The Safra reference steps on a WorkTree
# ---------------------------------------------------------------------------


def _open_safra(tree: SafraTree, symbol: str, a: Automaton, pool: int) -> WorkTree:
    """Working copy of a Safra tree after reading symbol; temporaries follow the pool."""
    images = a.image_masks[symbol]
    names = tree.names
    return WorkTree(
        dict(zip(names, map(images.__getitem__, tree.masks))),
        dict(zip(names, map(list, tree.children))),
        None if tree.ann_masks is None else dict(zip(names, tree.ann_masks)),
        pool,
    )


def _settle_safra(t: WorkTree, f_marks, pool: int) -> SafraTree:
    """Free the names of dead nodes and pull temporaries back into the pool.

    Survivors are the nodes with a nonempty label; f_set keeps the f_marks
    among them.  Names in [1..pool] are static; larger names are
    temporaries the step just created.  Every static name without a
    surviving node goes to e_set and restarts its pair, and the
    temporaries take the smallest of them.  The survivors are listed by
    their new names.
    """
    label, kids, ann = t.label, t.kids, t.ann
    survivors = {v for v, states in label.items() if states}
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


def worktree_safra_step(tree: SafraTree, symbol: str, a: Automaton) -> SafraTree:
    """The Safra Buchi step as edits of a `WorkTree`, the reference for `safra_step`.

    It sprouts in preorder, settles sibling lists parents first with
    `settle` (which strips a duplicate state from the son's whole subtree),
    marks green every nonempty node its children cover, prunes below the
    greens, and frees and recycles names in `_settle_safra`.
    """
    n = a.state_count
    if not tree.masks:
        return _dead_safra_tree(n)
    alpha = a.acceptance.accepting_mask
    t = _open_safra(tree, symbol, a, n)
    label, kids = t.label, t.kids

    order = t.preorder(1)
    for v in order:
        birth = label[v] & alpha
        if birth:
            t.sprout(v, birth)

    for v in order:
        if len(kids[v]) > 1:
            t.settle(kids[v])

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
    return _settle_safra(t, greens, n)


def worktree_streett_safra_step(tree: SafraTree, symbol: str, a: Automaton) -> SafraTree:
    """The Safra Streett step as edits of a `WorkTree`, the reference for `streett_safra_step`.

    A recursive walk over the sons, oldest first: a moving state is
    stripped from the son's whole subtree at once, duplicates settle on
    the son owing the smallest index with ties on age (a stable sort of
    the kids list), and a finished node is pruned on the spot.
    """
    pairs = a.acceptance.pair_masks
    m = a.state_count * (len(pairs) + 1)
    if not tree.masks:
        return _dead_safra_tree(m)
    t = _open_safra(tree, symbol, a, m)
    label, kids, ann = t.label, t.kids, t.ann
    f_marks: set[int] = set()

    def process(v: int) -> None:
        owed = ann[v]
        if not kids[v]:
            if not owed:
                f_marks.add(v)
                return
            t.sprout(v, label[v], owed ^ _top_bit(owed))
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
            moving = label[c] & (r_j | g_j)
            if moving:
                t.strip(c, moving)
            lower = owed & (missing - 1)
            drop = _top_bit(lower) if lower else 0
            for s in mask_states(moving):
                hit = 1 << s
                t.sprout(v, hit, owed ^ (drop if hit & r_j else missing))
        t.settle(sorted(kids[v], key=lambda c: owed & ~ann[c]))
        kids[v] = [c for c in kids[v] if label[c]]
        if kids[v] and all(ann[c] == owed for c in kids[v]):
            t.prune(v)
            f_marks.add(v)

    process(1)
    return _settle_safra(t, {v for v in f_marks if v <= m}, m)


# ---------------------------------------------------------------------------
# Streett -> Buchi witness-set union
# ---------------------------------------------------------------------------

_WITNESS_PAIR_LIMIT = 12


def nsw_witness_union_nbw(a: Automaton) -> Automaton:
    """Buchi automaton equivalent to a nondeterministic Streett automaton.

    For every subset J of the pair indices, a run may jump from a plain copy
    of the automaton into a J-tagged copy that (a) dies on touching G_j for
    any j outside J and (b) cycles a pointer through the R_j of J in
    descending index order, hitting an accepting flank each time the pointer
    wraps.  Accepting such a cycle infinitely often certifies inf∩R_j≠∅ for
    all j in J while the kill rule certifies inf∩G_j=∅ for the rest.

    Intended as a test oracle; the state count is exponential in the number
    of pairs, hence the hard cap.
    """
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("nsw_witness_union_nbw: Streett acceptance required")
    pairs = a.acceptance.pairs
    k = len(pairs)
    if k > _WITNESS_PAIR_LIMIT:
        raise ValueError(
            f"nsw_witness_union_nbw: {k} pairs exceeds the supported maximum "
            f"of {_WITNESS_PAIR_LIMIT}"
        )

    # copy m+1 is the tagged copy of witness mask m: the G sets of the pairs
    # outside m kill it, and its pointer cycles through the R sets of m
    kill = []
    rounds = []
    for mask in range(1 << k):
        inside = [j for j in range(k) if mask & (1 << j)]
        outside = [g for j, (_, g) in enumerate(pairs) if j not in inside]
        kill.append(frozenset().union(*outside))
        rounds.append(tuple(pairs[j][0] for j in reversed(inside)))

    def targets(node: tuple[int, int, int], sym: str) -> list[tuple[int, int, int]]:
        copy, s, i = node
        out = []
        for t in a.successors(s, sym):
            if copy == 0:
                out.append((0, t, 0))
                out.extend((m + 1, t, 0) for m in range(1 << k) if t not in kill[m])
            elif t not in kill[copy - 1]:
                ring = rounds[copy - 1]
                at = 0 if i == len(ring) else i
                out.append((copy, t, at + 1 if ring and t in ring[at] else at))
        return out

    # nodes sort into the canonical order: the plain copy first, then each
    # witness copy by ascending mask, inner states by (state, progress)
    start = (0, a.initial, 0)
    order, _ = reach(
        start, lambda node: [t for sym in a.alphabet for t in targets(node, sym)]
    )
    states = sorted(order)
    number = {node: n for n, node in enumerate(states)}
    return Automaton(
        alphabet=a.alphabet,
        state_count=len(states),
        initial=number[start],
        transitions={
            (number[node], sym): frozenset(number[t] for t in targets(node, sym))
            for node in states
            for sym in a.alphabet
        },
        acceptance=BuchiAcceptance(
            frozenset(
                number[n] for n in states if n[0] and n[2] == len(rounds[n[0] - 1])
            )
        ),
        deterministic=False,
    )


# ---------------------------------------------------------------------------
# Scaling fixture family
# ---------------------------------------------------------------------------


def full3() -> Automaton:
    """The full NBW on 3 states: letter i moves s to t iff bit 3s + t of i is set."""
    symbols = tuple(f"{i:09b}" for i in range(512))
    transitions = {}
    for i, sym in enumerate(symbols):
        for bit in range(9):
            if (i >> bit) & 1:
                s, t = divmod(bit, 3)
                transitions.setdefault((s, sym), set()).add(t)
    return Automaton(
        alphabet=Alphabet(symbols),
        state_count=3,
        initial=0,
        transitions=transitions,
        acceptance=BuchiAcceptance(frozenset({2})),
    )


def fan(streett: bool) -> Automaton:
    """As many states as the recursion limit, over 16 letters (4 APs).

    State 0 goes to every state on every letter, and every other state loops
    on itself; acceptance is F = {0}, or the Streett pair ({0}, Q).  Every
    determinizer reads the column of the mask of all states, whose size is
    the recursion limit.  Each gives 3 states.
    """
    n = sys.getrecursionlimit()
    symbols = tuple(f"{i:04b}" for i in range(16))
    transitions = {(0, sym): range(n) for sym in symbols}
    transitions.update({(s, sym): {s} for s in range(1, n) for sym in symbols})
    acceptance = (
        StreettAcceptance((({0}, range(n)),)) if streett else BuchiAcceptance({0})
    )
    return Automaton(Alphabet(symbols), n, 0, transitions, acceptance)


def carving_chain() -> Automaton:
    """As many states as the recursion limit, over the one letter t, in a two-way chain.

    Every state loops on itself and goes to its neighbours; pair 0 is
    (∅, {0}) and pair i is ({i-1}, {i}).  Each Emerson-Lei level carves the
    lowest state off and leaves the rest strongly connected, so a fairness
    test that recursed once per carve would pass the recursion limit.  No
    run is fair: (t)^ω is rejected.
    """
    n = sys.getrecursionlimit()
    transitions = {
        (s, "t"): {t for t in (s - 1, s, s + 1) if 0 <= t < n} for s in range(n)
    }
    pairs = [((), (0,))] + [((i - 1,), (i,)) for i in range(1, n)]
    return Automaton(Alphabet(("t",)), n, 0, transitions, StreettAcceptance(pairs))


def build_lk_fixture(k: int) -> Automaton:
    """k-state Buchi automaton for: the least symbol read infinitely often is even.

    The alphabet is "1".."k".  State 0 guesses; for each even e it can commit
    to the claim "every symbol from now on is >= e and e recurs", tracked by
    a waiting/visiting checker pair (the e=k checker needs no waiting state).
    """
    if k < 1:
        raise ValueError("build_lk_fixture: k must be >= 1")
    symbols = tuple(str(i) for i in range(1, k + 1))
    guess = 0
    wait: dict[int, int] = {}
    hit: dict[int, int] = {}
    next_state = 1
    for e in range(2, k + 1, 2):
        if e != k:
            wait[e] = next_state
            next_state += 1
        hit[e] = next_state
        next_state += 1
    assert next_state == k

    transitions: dict[tuple[int, str], set[int]] = {}

    def add(src: int, sym: int, dst: int) -> None:
        transitions.setdefault((src, str(sym)), set()).add(dst)

    for sym in range(1, k + 1):
        add(guess, sym, guess)
        for e in hit:
            # enter the e-checker while reading a symbol the checker allows
            if sym == e:
                add(guess, sym, hit[e])
            elif sym > e and e in wait:
                add(guess, sym, wait[e])
    for e in hit:
        for sym in range(e, k + 1):
            if e in wait:
                add(wait[e], sym, hit[e] if sym == e else wait[e])
            if sym == e:
                add(hit[e], sym, hit[e])
            elif e in wait:
                add(hit[e], sym, wait[e])
    return Automaton(
        alphabet=Alphabet(symbols),
        state_count=k,
        initial=guess,
        transitions={key: frozenset(v) for key, v in transitions.items()},
        acceptance=BuchiAcceptance(frozenset(hit.values())),
        deterministic=False,
    )
