"""Core automaton types and structural operations.

Automata are immutable: a shared transition table over an explicit
alphabet plus one acceptance condition.  The transition relation is kept
partial (missing entries mean "no successor"); deterministic automata are
required to be total with singleton successor sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Mapping


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered alphabet of symbol names."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.symbols, tuple):
            object.__setattr__(self, "symbols", tuple(self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def __contains__(self, symbol: object) -> bool:
        return symbol in self.symbols

    def index(self, symbol: str) -> int:
        return self.symbols.index(symbol)


@dataclass(frozen=True)
class BuchiAcceptance:
    """Accept iff the run visits `accepting` infinitely often."""

    accepting: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "accepting", frozenset(self.accepting))

    @cached_property
    def accepting_mask(self) -> int:
        return state_mask(self.accepting)


@dataclass(frozen=True)
class RabinAcceptance:
    """Pairs (E_i, F_i): accept iff some pair has inf∩E_i=∅ and inf∩F_i≠∅."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            tuple((frozenset(e), frozenset(f)) for e, f in self.pairs),
        )


@dataclass(frozen=True)
class StreettAcceptance:
    """Pairs (R_i, G_i): accept iff every pair with inf∩G_i≠∅ has inf∩R_i≠∅."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            tuple((frozenset(r), frozenset(g)) for r, g in self.pairs),
        )

    @cached_property
    def pair_masks(self) -> tuple[tuple[int, int], ...]:
        """(R, G) of every pair as state masks."""
        return tuple((state_mask(r), state_mask(g)) for r, g in self.pairs)


@dataclass(frozen=True)
class ParityAcceptance:
    """Min-even parity: accept iff the least priority seen infinitely often is even.

    `priorities[s]` is the priority of state s; all priorities lie in
    [0, index).  Empty priority classes are allowed.
    """

    priorities: tuple[int, ...]
    index: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "priorities", tuple(self.priorities))


AcceptanceCondition = (
    BuchiAcceptance | RabinAcceptance | StreettAcceptance | ParityAcceptance
)


@dataclass(frozen=True)
class Automaton:
    """Word automaton over infinite words.

    transitions maps (state, symbol) to the successor set; pairs without an
    entry have no successors.  `deterministic` promises a total transition
    function with exactly one successor everywhere.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: Mapping[tuple[int, str], frozenset[int]]
    acceptance: AcceptanceCondition
    deterministic: bool = False

    def __post_init__(self) -> None:
        frozen = {
            key: frozenset(targets)
            for key, targets in self.transitions.items()
            if targets
        }
        object.__setattr__(self, "transitions", frozen)

    def successors(self, state: int, symbol: str) -> frozenset[int]:
        return self.transitions.get((state, symbol), frozenset())

    def dstep(self, state: int, symbol: str) -> int:
        """Unique successor; only meaningful on deterministic automata."""
        (target,) = self.transitions[(state, symbol)]
        return target

    def states(self) -> range:
        return range(self.state_count)

    # The image memo of the tree steps and the lasso oracles, and the
    # oracles' word memo: filled on first use, with entries for the masks
    # and words asked for only, and freed with the automaton; cached properties stay
    # out of == and repr.

    @cached_property
    def image_masks(self) -> dict[str, dict[int, int]]:
        """Per symbol, a memo from a state mask to the mask of all its successors."""
        return {sym: _Images(self.transitions, sym) for sym in self.alphabet}

    @cached_property
    def lasso_memo(self) -> dict:
        """δ(I, u) and the per-period (explored, good) masks of `omegadet.lasso`."""
        return {}


class _Images(dict):
    """Image memo of one symbol.

    A one-state mask is read off the transitions, any larger mask is the OR
    of its one-state entries, and the empty mask maps to itself.
    """

    __slots__ = ("transitions", "symbol")

    def __init__(self, transitions: Mapping, symbol: str) -> None:
        super().__init__()
        self.transitions = transitions
        self.symbol = symbol

    def __missing__(self, mask: int) -> int:
        if mask & (mask - 1):
            out = 0
            rest = mask
            while rest:
                low = rest & -rest
                out |= self[low]
                rest ^= low
        elif mask:
            key = (mask.bit_length() - 1, self.symbol)
            out = state_mask(self.transitions.get(key, ()))
        else:
            out = 0
        self[mask] = out
        return out


def state_mask(states: Iterable[int]) -> int:
    """The states as a bit mask: bit s is set iff state s is in the set."""
    mask = 0
    for s in states:
        mask |= 1 << s
    return mask


def mask_states(mask: int) -> tuple[int, ...]:
    """The states of a bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _check_state_set(
    diags: list[str], states: Iterable[int], count: int, what: str
) -> None:
    for s in states:
        if not (0 <= s < count):
            diags.append(f"{what}: state {s} out of range [0, {count})")


def validate_automaton(a: Automaton) -> list[str]:
    """Structural diagnostics; an empty list means the automaton is well formed."""
    diags: list[str] = []
    if len(a.alphabet) == 0:
        diags.append("alphabet: empty")
    seen: set[str] = set()
    for sym in a.alphabet:
        if sym in seen:
            diags.append(f"alphabet: duplicate symbol {sym!r}")
        seen.add(sym)
    if a.state_count < 1:
        diags.append(f"state_count: {a.state_count} < 1")
    if not (0 <= a.initial < a.state_count):
        diags.append(f"initial: state {a.initial} out of range [0, {a.state_count})")
    for (s, sym), targets in sorted(
        a.transitions.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
    ):
        if not (0 <= s < a.state_count):
            diags.append(f"transition source: state {s} out of range [0, {a.state_count})")
        if sym not in a.alphabet:
            diags.append(f"transition: unknown symbol {sym!r} at state {s}")
        _check_state_set(diags, targets, a.state_count, f"transition ({s}, {sym!r})")
    if a.deterministic:
        for s in a.states():
            for sym in a.alphabet:
                targets = a.successors(s, sym)
                if len(targets) != 1:
                    diags.append(
                        f"deterministic: ({s}, {sym!r}) has {len(targets)} successors, want 1"
                    )
    acc = a.acceptance
    if isinstance(acc, BuchiAcceptance):
        _check_state_set(diags, acc.accepting, a.state_count, "accepting set")
    elif isinstance(acc, (RabinAcceptance, StreettAcceptance)):
        for i, (left, right) in enumerate(acc.pairs):
            _check_state_set(diags, left, a.state_count, f"pair {i} first set")
            _check_state_set(diags, right, a.state_count, f"pair {i} second set")
    elif isinstance(acc, ParityAcceptance):
        if acc.index < 1:
            diags.append(f"parity: index {acc.index} < 1")
        if len(acc.priorities) != a.state_count:
            diags.append(
                f"parity: {len(acc.priorities)} priorities for {a.state_count} states"
            )
        for s, p in enumerate(acc.priorities):
            if not (0 <= p < acc.index):
                diags.append(f"parity: state {s} priority {p} out of range [0, {acc.index})")
    else:
        diags.append(f"acceptance: unknown condition {type(acc).__name__}")
    return diags


def is_total(a: Automaton) -> bool:
    return all(
        a.successors(s, sym) for s in a.states() for sym in a.alphabet
    )


def dualize_parity(a: Automaton) -> Automaton:
    """Complement a deterministic total parity automaton by shifting every priority up by one."""
    if not isinstance(a.acceptance, ParityAcceptance):
        raise ValueError("dualize_parity: parity acceptance required")
    if not a.deterministic:
        raise ValueError("dualize_parity: deterministic automaton required")
    if not is_total(a):
        raise ValueError("dualize_parity: total transition function required")
    acc = ParityAcceptance(
        priorities=tuple(p + 1 for p in a.acceptance.priorities),
        index=a.acceptance.index + 1,
    )
    return replace(a, acceptance=acc)


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


# ---------------------------------------------------------------------------
# Graph search
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Plumbing shared by the tree constructions
# ---------------------------------------------------------------------------


@dataclass(eq=False, slots=True)
class WorkTree:
    """A history tree that one step edits in place.

    label, kids and ann map each name to its states as a mask (see
    `state_mask`), its children oldest first and the pair indices it still
    owes as a mask (ann is None for Buchi trees).  last is the last name
    handed out and removed holds the names cut so far.  A child's label is
    a subset of its parent's, so a node whose label empties has an empty
    subtree.
    """

    label: dict[int, int]
    kids: dict[int, list[int]]
    ann: dict[int, int] | None
    last: int
    removed: set[int] = field(default_factory=set)

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

    def cut(self, v: int) -> None:
        """Record v's subtree as removed."""
        self.removed.update(self._subtree(v))

    def prune(self, v: int) -> None:
        """Cut everything below v."""
        for c in self.kids[v]:
            self.cut(c)
        self.kids[v] = []


def step_rows(a: Automaton, step, split) -> Callable[[Hashable], list]:
    """The successor rows of a tree step, with one step call per image key.

    A tree step reads its symbol only through the images of the tree's node
    masks.  split(tree) gives (shape, masks): a shape that holds everything
    else the step reads and tells which node holds each mask, and the node
    masks.  The key of (tree, symbol) is the shape with the images of
    the masks on symbol, and the step runs only on keys not seen before, on
    any tree or symbol.  row(tree) is the step's output on every symbol, in
    alphabet order.  Equal outputs are one object, the first one made, so
    the memo keeps each alive once.
    """
    images = [(sym, a.image_masks[sym]) for sym in a.alphabet.symbols]
    shapes: dict = {}
    outputs: dict = {}
    distinct: dict = {}

    def row(tree) -> list:
        shape, masks = split(tree)
        # a shape is hashed once per row, not once per symbol
        shape = shapes.setdefault(shape, len(shapes))
        out = []
        for sym, image in images:
            key = (shape, *map(image.__getitem__, masks))
            nxt = outputs.get(key)
            if nxt is None:
                nxt = step(tree, sym, a)
                nxt = outputs[key] = distinct.setdefault(nxt, nxt)
            out.append(nxt)
        return out

    return row


def explore(
    a: Automaton,
    start: Hashable,
    successors: Callable[[Hashable], list],
    key: Callable[[Hashable], object],
    acceptance: Callable[[list], AcceptanceCondition],
) -> Automaton:
    """Deterministic automaton over the states reachable from `start`.

    successors(state) gives the successor state on every symbol, in
    alphabet order.  States are numbered in the order of key(state), not
    in the order they are found, so the numbering, and with it the emitted
    HOA, does not depend on hash order.  acceptance(states) builds the
    condition from the states in that order.
    """
    symbols = a.alphabet.symbols
    order, edges = reach(start, successors)
    states = sorted(order, key=key)
    # reach keeps every state as its first instance, so identity numbers
    # them without hashing a state again
    number = {id(state): i for i, state in enumerate(states)}
    # every transition into state i shares one {i}
    targets = [frozenset({i}) for i in range(len(states))]
    transitions = {
        (number[id(state)], sym): targets[number[id(nxt)]]
        for state, nexts in edges.items()
        for sym, nxt in zip(symbols, nexts)
    }
    return Automaton(
        alphabet=a.alphabet,
        state_count=len(states),
        initial=number[id(start)],
        transitions=transitions,
        acceptance=acceptance(states),
        deterministic=True,
    )
