"""Core automaton types and structural operations.

Automata are immutable: a shared transition table over an explicit
alphabet plus one acceptance condition.  The transition relation is kept
partial (missing entries mean "no successor"); deterministic automata are
required to be total with singleton successor sets, and keep one target
per state and letter in flat rows.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, islice, product, repeat
from operator import is_, itemgetter, or_
from typing import Callable, Hashable, Iterable, Iterator


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
class _PairAcceptance:
    """A condition given by pairs of state sets; == holds within one subclass only."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "pairs",
            tuple((frozenset(first), frozenset(second)) for first, second in self.pairs),
        )


class RabinAcceptance(_PairAcceptance):
    """Pairs (E_i, F_i): accept iff some pair has inf∩E_i=∅ and inf∩F_i≠∅."""


class StreettAcceptance(_PairAcceptance):
    """Pairs (R_i, G_i): accept iff every pair with inf∩G_i≠∅ has inf∩R_i≠∅."""

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

    transitions may be a dict or a `RowView`.  A dict is copied once, with
    its empty entries dropped, and `_row_view` alone judges whether the
    table is deterministic.  A deterministic automaton keeps one table,
    `rows`: the target of state s on the i-th letter is rows[s·|Σ| + i], and
    its `transitions` is a `RowView` over them, with one shared {t} per
    target t.  Any other automaton keeps a dict of nonempty frozensets.
    Either way the constructor makes its own table, so a caller's dict or
    list is never aliased.
    """

    alphabet: Alphabet
    state_count: int
    initial: int
    transitions: Mapping[tuple[int, str], frozenset[int]]
    acceptance: AcceptanceCondition
    deterministic: bool = False

    def __post_init__(self) -> None:
        table = self.transitions
        view = isinstance(table, RowView)
        if not view:
            # one copy, without empty entries
            table = {key: frozenset(targets) for key, targets in table.items() if targets}
        frozen = _row_view(self, table) if self.deterministic else None
        if frozen is None:
            # a set per entry of a view, not its shared ones: a row that
            # failed its checks may hold True beside 1, or 1.0
            frozen = dict(zip(table, map(frozenset, zip(table.rows)))) if view else table
        object.__setattr__(self, "transitions", frozen)
        if diagnostics := _faults(self):
            raise MalformedAutomaton(diagnostics)

    @property
    def rows(self) -> tuple[int, ...]:
        """The target of state s on the i-th letter at s·|Σ| + i; deterministic automata only."""
        if not self.deterministic:
            raise ValueError("rows: deterministic automaton required")
        return self.transitions.rows

    def successors(self, state: int, symbol: str) -> frozenset[int]:
        return self.transitions.get((state, symbol), frozenset())

    def dstep(self, state: int, symbol: str) -> int:
        """Unique successor; deterministic automata only."""
        if not self.deterministic:
            raise ValueError("dstep: deterministic automaton required")
        (target,) = self.transitions[state, symbol]
        return target

    def states(self) -> range:
        return range(self.state_count)

    # The image memo of the tree steps and the lasso oracles, the oracles'
    # word memo and the reference steps' name-set memo: filled on first use,
    # with entries for the masks, words and name tuples asked for only, and
    # freed with the automaton; cached properties stay out of == and repr.

    @cached_property
    def image_masks(self) -> dict[str, dict[int, int]]:
        """Per symbol, a memo from a state mask to the mask of all its successors."""
        table = self.transitions
        return {sym: _Images(table, sym) for sym in self.alphabet}

    @cached_property
    def lasso_memo(self) -> dict:
        """The word memo of `omegadet.lasso`, which alone reads it."""
        return {}

    @cached_property
    def safra_memo(self) -> tuple[dict, dict]:
        """The name-set memo of `omegadet.safra`, which alone reads it."""
        return {}, {}


class RowView(Mapping):
    """The transition mapping of a deterministic automaton, read off flat rows.

    rows[s·|Σ| + i] is the target of state s on the i-th letter of the
    alphabet; the view maps (s, symbol) to {target}, one shared frozenset
    per target, keys in state then alphabet order.  The rows are copied into
    a tuple, so the view never changes.
    """

    __slots__ = ("alphabet", "rows", "_sets")

    def __init__(self, alphabet: Alphabet, rows: Iterable[int]) -> None:
        self.alphabet = alphabet
        self.rows = tuple(rows)
        self._sets = _Singletons()

    def __getitem__(self, key: tuple[int, str]) -> frozenset[int]:
        if type(key) is tuple and len(key) == 2:
            state, symbol = key
            i = self.alphabet.position.get(symbol)
            if i is not None and isinstance(state, int) and state >= 0:
                cell = state * len(self.alphabet) + i
                if cell < len(self.rows):
                    return self._sets[self.rows[cell]]
        raise KeyError(key)

    def __iter__(self) -> Iterator[tuple[int, str]]:
        size = len(self.alphabet)
        states = range(-(-len(self.rows) // size) if size else 0)
        return islice(product(states, self.alphabet.symbols), len(self.rows))

    def __len__(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowView) and other.alphabet.symbols == self.alphabet.symbols:
            return self.rows == other.rows
        return super().__eq__(other)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _Singletons(dict):
    """Memo from a state to {state}."""

    def __missing__(self, state: int) -> frozenset[int]:
        single = self[state] = frozenset((state,))
        return single


def _row_view(a: Automaton, table: Mapping) -> RowView | None:
    """a's table as a row view, or None if it is not total with one int target in range each.

    A view over a's alphabet is kept as it is, any other table is read into
    rows once; its entry count is compared with n·|Σ| before n·|Σ| slots
    are allocated.  The rows are then checked in whole-row passes: n·|Σ|
    targets, all of type int, in [0, n).
    """
    n, alphabet = a.state_count, a.alphabet
    size = len(alphabet)
    if isinstance(table, RowView) and table.alphabet.symbols == alphabet.symbols:
        view = table
    else:
        if len(table) != n * size:
            return None
        position = alphabet.position
        rows = [None] * len(table)
        try:
            for (s, symbol), targets in table.items():
                if type(s) is not int or not 0 <= s < n:
                    return None
                # distinct keys fill distinct cells, so n·|Σ| keys fill all
                (rows[s * size + position[symbol]],) = targets
        except (KeyError, TypeError, ValueError):
            return None
        view = RowView(alphabet, rows)
    rows = view.rows
    if (
        rows
        and len(rows) == n * size
        and set(map(type, rows)) == {int}
        and min(rows) >= 0
        and max(rows) < n
    ):
        return view
    return None


class _Columns(dict):
    """Memo from a state mask to its images under every letter, in alphabet order.

    A one-state (or empty) column is read off the image memos, any larger
    one is the OR of its one-state columns, lowest first, so the image memos
    gain entries for one-state masks only.
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
            column = self[low]
            for s in mask_states(mask ^ low):
                column = list(map(or_, column, self[1 << s]))
        self[mask] = column
        return column


class _Images(dict):
    """Image memo of `symbol`.

    A one-state mask is read off the transitions, any other mask is the OR
    of its one-state entries: none for the empty mask, which maps to 0.
    """

    __slots__ = ("transitions", "symbol")

    def __init__(self, transitions: Mapping, symbol: str) -> None:
        super().__init__()
        self.transitions = transitions
        self.symbol = symbol

    def __missing__(self, mask: int) -> int:
        if mask and not mask & (mask - 1):
            s = mask.bit_length() - 1
            out = state_mask(self.transitions.get((s, self.symbol), ()))
        else:
            out = 0
            rest = mask
            while rest:
                low = rest & -rest
                out |= self[low]
                rest ^= low
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
    table, whatever the declared state count.  A `RowView` table has passed
    `_row_view`'s checks, so only the rest is checked; a deterministic
    automaton with a dict table has failed them, so its faults are listed.
    """
    n = a.state_count
    position = a.alphabet.position
    rows = a.transitions
    dense = isinstance(rows, RowView)
    acc = a.acceptance
    # the condition's state sets, each under its name in the diagnostics;
    # fits is False outside parity only for an unknown condition
    fits, named = True, []
    if isinstance(acc, ParityAcceptance):
        p = acc.priorities
        fits = len(p) == n and min(p, default=0) >= 0 and max(p, default=0) < acc.index
    elif isinstance(acc, BuchiAcceptance):
        named = [("accepting set", acc.accepting)]
    elif isinstance(acc, _PairAcceptance):
        named = [
            (f"pair {i} {side} set", states)
            for i, pair in enumerate(acc.pairs)
            for side, states in zip(("first", "second"), pair)
        ]
    else:
        fits = False
    states = [a.initial, *chain.from_iterable(map(itemgetter(1), named))]
    if not dense:
        states += [*map(itemgetter(0), rows), *chain.from_iterable(rows.values())]
    # types before the set: a set keeps one of True and 1, or of 1.0 and 1
    kinds = set(map(type, states))
    states = set(states)
    if (
        fits
        and kinds == {int}
        and 0 <= min(states)
        and max(states) < n
        and 0 < len(position) == len(a.alphabet)
        and (dense or not a.deterministic and position.keys() >= set(map(itemgetter(1), rows)))
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
    for what, states in named:
        diags += outside(states, what)
    if isinstance(acc, ParityAcceptance):
        if acc.index < 1:
            diags.append(f"parity: index {acc.index} < 1")
        if len(acc.priorities) != n:
            diags.append(f"parity: {len(acc.priorities)} priorities for {n} states")
        for s, p in enumerate(acc.priorities):
            if not 0 <= p < acc.index:
                diags.append(f"parity: state {s} priority {p} out of range [0, {acc.index})")
    elif not fits:
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
    # the new automaton shares a's row view
    return replace(a, acceptance=acc)


# ---------------------------------------------------------------------------
# Plumbing the tree constructions share
# ---------------------------------------------------------------------------


# Above this many letters a closure reads each state's keys in C, through
# one column per node mask: its images under every letter.  On smaller
# alphabets the columns cost more than they save, and a state's few keys
# are built one by one.  The crossover, measured on random 8-state NBWs,
# lies at about 8 letters (3 APs).  There, too, a state whose tree was met
# before copies that tree's row; on 2 letters that lookup costs more than
# the row, as few trees repeat.
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
    without a hash of a state.  On more than `_COLUMN_LETTERS` letters,
    states with equal trees (equal shape and masks) share one row, which
    only the first of them builds.  State i is the i-th state found breadth
    first from `start`, letters in alphabet order, and `start` is 0; no
    step depends on hash order, so neither does the numbering.  The
    successor numbers, state by state, are the automaton's rows.
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
    tree_rows: dict = {}
    rows = []

    def visit(tree, i: int, image_key) -> int:
        """The tree's successor on letter i, by number, for a key not in the memo."""
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
            for i, image in enumerate(images):
                image_key = (shape, *map(image.__getitem__, masks))
                nxt = memo.get(image_key)
                rows.append(visit(tree, i, image_key) if nxt is None else nxt)
        else:
            # a tree met before copies its row: split gives all the step
            # reads, so equal trees have equal rows, and every key of the
            # row was stepped at the first.  The memo holds the row's
            # offset in rows, an int, which the garbage collector does not
            # track, where a list would be
            first = tree_rows.setdefault((shape, *masks), len(rows))
            if first < len(rows):
                rows += rows[first : first + size]
                continue
            # every letter's key, and its successor if the key is known, in
            # C; then the letters whose key was new when read, in order,
            # each read again, as an earlier letter may have stepped its key
            keys = list(zip(repeat(shape, size), *map(columns.__getitem__, masks)))
            row = list(map(memo.get, keys))
            for i in compress(range(size), map(is_, row, repeat(None))):
                nxt = memo.get(keys[i])
                row[i] = visit(tree, i, keys[i]) if nxt is None else nxt
            rows += row
    return Automaton(
        alphabet=a.alphabet,
        state_count=len(order),
        initial=0,
        transitions=RowView(a.alphabet, rows),
        acceptance=acceptance(order),
        deterministic=True,
    )
