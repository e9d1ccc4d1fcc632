"""Core automaton types and structural operations.

Automata are immutable: a shared transition table over an explicit
alphabet plus one acceptance condition.  The transition relation is kept
partial (missing entries mean "no successor"); deterministic automata are
required to be total with singleton successor sets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, repeat
from operator import is_, itemgetter, or_
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
        return symbol in self.position

    @cached_property
    def position(self) -> dict[str, int]:
        """Each symbol's place in `symbols` (a repeated symbol keeps its last)."""
        return {sym: i for i, sym in enumerate(self.symbols)}


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
    function with exactly one successor everywhere.  The constructor raises
    `MalformedAutomaton` if that fails or a state, symbol or priority is out of range.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: Mapping[tuple[int, str], frozenset[int]]
    acceptance: AcceptanceCondition
    deterministic: bool = False

    def __post_init__(self) -> None:
        rows = self.transitions
        # a table of nonempty frozensets, as explore and parse_hoa build it,
        # is recognised in two whole-table passes and only copied
        if set(map(type, rows.values())) <= {frozenset} and all(rows.values()):
            frozen = dict(rows)
        else:
            frozen = {key: frozenset(targets) for key, targets in rows.items() if targets}
        object.__setattr__(self, "transitions", frozen)
        if diagnostics := _faults(self):
            raise MalformedAutomaton(diagnostics)

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
        """The word memo of `omegadet.lasso`.

        δ(I, u) and the per-period (explored, good) masks of the
        nondeterministic oracles, and the per-period walked pairs and cycles
        of `run_deterministic`.
        """
        return {}


class _Columns(dict):
    """Memo from a state mask to its images under every letter, in alphabet order.

    A one-state (or empty) column is read off the image memos, any larger
    one is the OR of two smaller columns, so the image memos gain entries
    for one-state masks only.
    """

    __slots__ = ("images",)

    def __init__(self, images: list[dict[int, int]]) -> None:
        super().__init__()
        self.images = images

    def __missing__(self, mask: int) -> list[int]:
        low = mask & -mask
        if mask == low:
            column = list(map(itemgetter(mask), self.images))
        else:
            column = list(map(or_, self[low], self[mask ^ low]))
        self[mask] = column
        return column


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


class MalformedAutomaton(ValueError):
    """An automaton that breaks the rules of `Automaton`; one diagnostic per fault."""

    def __init__(self, diagnostics: list[str]) -> None:
        self.diagnostics = diagnostics
        more = f" (and {len(diagnostics) - 1} more)" if len(diagnostics) > 1 else ""
        super().__init__(f"malformed automaton: {diagnostics[0]}{more}")


def _faults(a: Automaton) -> list[str]:
    """One message per fault of a, in the order the rules are stated.

    A well-formed automaton is recognised in a few whole-table passes, and
    faults are listed one by one only when they fail; no pass outgrows the
    table, whatever the declared state count.
    """
    n = a.state_count
    position = a.alphabet.position
    rows = a.transitions
    acc = a.acceptance
    fits, sets = True, ()
    if isinstance(acc, ParityAcceptance):
        p = acc.priorities
        fits = len(p) == n and min(p, default=0) >= 0 and max(p, default=0) < acc.index
    elif isinstance(acc, BuchiAcceptance):
        sets = (acc.accepting,)
    elif isinstance(acc, (RabinAcceptance, StreettAcceptance)):
        sets = chain.from_iterable(acc.pairs)
    else:
        fits = False
    states = [
        *map(itemgetter(0), rows),
        a.initial,
        *chain.from_iterable(sets),
        *chain.from_iterable(rows.values()),
    ]
    # types before the set: a set keeps one of True and 1, or of 1.0 and 1
    kinds = set(map(type, states))
    states = set(states)
    # with sources and symbols in range, n·|Σ| distinct keys make a total table
    if (
        fits
        and kinds == {int}
        and 0 <= min(states)
        and max(states) < n
        and 0 < len(position) == len(a.alphabet)
        and position.keys() >= set(map(itemgetter(1), rows))
        and not (
            a.deterministic
            and (len(rows) != n * len(position) or max(map(len, rows.values())) != 1)
        )
    ):
        return []

    def outside(states: Iterable[int], what: str) -> list[str]:
        return [
            f"{what}: state {s} out of range [0, {n})"
            if type(s) is int
            else f"{what}: state {s!r} is not an int"
            for s in states
            if type(s) is not int or not 0 <= s < n
        ]

    def order(key: tuple) -> tuple:
        """Int sources in order, then the others by their repr."""
        s, sym = key
        return (0, s, str(sym)) if type(s) is int else (1, repr(s), str(sym))

    diags = [] if position else ["alphabet: empty"]
    repeats = [sym for i, sym in enumerate(a.alphabet) if position[sym] != i]
    diags += [f"alphabet: duplicate symbol {sym!r}" for sym in repeats]
    if n < 1:
        diags.append(f"state_count: {n} < 1")
    diags += outside((a.initial,), "initial")
    for s, sym in sorted(rows, key=order):
        diags += outside((s,), "transition source")
        if sym not in position:
            diags.append(f"transition: unknown symbol {sym!r} at state {s}")
        diags += outside(rows[s, sym], f"transition ({s}, {sym!r})")
    if a.deterministic:
        # every state before the first bad one has a row per symbol in the
        # table, so the first bad state is at most len(rows)
        for s in range(min(n, len(rows) + 1)):
            bad = [
                f"deterministic: ({s}, {sym!r}) has {k} successors, want 1"
                for sym in a.alphabet
                if (k := len(a.successors(s, sym))) != 1
            ]
            diags += bad
            if bad:
                break
    if isinstance(acc, BuchiAcceptance):
        diags += outside(acc.accepting, "accepting set")
    elif isinstance(acc, (RabinAcceptance, StreettAcceptance)):
        for i, (left, right) in enumerate(acc.pairs):
            diags += outside(left, f"pair {i} first set")
            diags += outside(right, f"pair {i} second set")
    elif isinstance(acc, ParityAcceptance):
        if acc.index < 1:
            diags.append(f"parity: index {acc.index} < 1")
        if len(acc.priorities) != n:
            diags.append(f"parity: {len(acc.priorities)} priorities for {n} states")
        for s, p in enumerate(acc.priorities):
            if not 0 <= p < acc.index:
                diags.append(f"parity: state {s} priority {p} out of range [0, {acc.index})")
    else:
        diags.append(f"acceptance: unknown condition {type(acc).__name__}")
    return diags


def dualize_parity(a: Automaton) -> Automaton:
    """Complement a deterministic total parity automaton by shifting every priority up by one."""
    if not isinstance(a.acceptance, ParityAcceptance):
        raise ValueError("dualize_parity: parity acceptance required")
    if not a.deterministic:
        raise ValueError("dualize_parity: deterministic automaton required")
    acc = ParityAcceptance(
        priorities=tuple(p + 1 for p in a.acceptance.priorities),
        index=a.acceptance.index + 1,
    )
    return replace(a, acceptance=acc)


# ---------------------------------------------------------------------------
# Graph search, and the plumbing the tree constructions share
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


# Above this many letters a closure reads each state's keys in C, through
# one column per node mask: its images under every letter.  On smaller
# alphabets the columns cost more than they save, and a state's few keys
# are built one by one.  The crossover, measured on random 8-state NBWs,
# lies at about 8 letters (3 APs).
_COLUMN_LETTERS = 8


def explore(
    a: Automaton,
    start: Hashable,
    step: Callable[[Hashable, str, Automaton], Hashable],
    split: Callable[[Hashable], tuple[Hashable, Hashable, tuple[int, ...]]],
    acceptance: Callable[[list], AcceptanceCondition],
) -> Automaton:
    """Deterministic automaton of the states a tree step reaches from `start`.

    split(state) gives (tree, shape, masks): the tree the state's successors
    depend on, a shape that holds all else of the tree that the step reads
    and tells which node holds each mask, and the node masks.  step(tree,
    symbol, a) is the successor state; it reads symbol only through the
    images of the masks, so it runs once per image key, the shape with the
    images of the masks, shared by every state and symbol.  One table
    numbers the states, so a key seen before gives its successor's number
    without a hash of a state.  State i is the i-th state found breadth
    first from `start`, letters in alphabet order, and `start` is 0; no
    step depends on hash order, so neither does the numbering.
    acceptance(states) builds the condition from the states in that order.
    """
    symbols = a.alphabet.symbols
    images = list(map(a.image_masks.__getitem__, symbols))
    size = len(symbols)
    columns = _Columns(images) if size > _COLUMN_LETTERS else None
    order = [start]
    number = {start: 0}
    shapes: dict = {}
    memo: dict = {}
    rows = []

    def visit(tree, i: int, image_key) -> int:
        """The tree's successor on letter i, by number; the step runs if the key is new."""
        nxt = memo.get(image_key)
        if nxt is None:
            out = step(tree, symbols[i], a)
            nxt = memo[image_key] = number.setdefault(out, len(order))
            if nxt == len(order):
                order.append(out)
        return nxt

    for state in order:  # `order` grows while it is walked
        tree, shape, masks = split(state)
        # a shape is hashed once per state, not once per symbol
        shape = shapes.setdefault(shape, len(shapes))
        if columns is None:
            row = []
            for i, image in enumerate(images):
                image_key = (shape, *map(image.__getitem__, masks))
                nxt = memo.get(image_key)
                row.append(visit(tree, i, image_key) if nxt is None else nxt)
        else:
            # every letter's key, and its successor if the key is known, in
            # C; then the letters whose key was new when read, in order
            keys = list(zip(repeat(shape, size), *map(columns.__getitem__, masks)))
            row = list(map(memo.get, keys))
            for i in compress(range(size), map(is_, row, repeat(None))):
                row[i] = visit(tree, i, keys[i])
        rows.append(row)
    # every transition into state i shares one {i}
    target = [frozenset({i}) for i in range(len(order))]
    transitions: dict = {}
    for s, row in enumerate(rows):
        for sym, nxt in zip(symbols, row):
            transitions[s, sym] = target[nxt]
    return Automaton(
        alphabet=a.alphabet,
        state_count=len(order),
        initial=0,
        transitions=transitions,
        acceptance=acceptance(order),
        deterministic=True,
    )
