"""Ultimately periodic words and membership oracles.

A lasso u·v^ω is the only kind of word the test harness ever feeds an
automaton.  Deterministic automata are run until the (state,
period-position) pair repeats; the pairs walked are kept per period in
tables of ints, so a query walks only until it meets one.  The oracles for
nondeterministic ones compute δ(I, u) with the automaton's image memo and
keep it in a memo per word on the automaton, beside the states that v^ω
accepts from, kept per period.  A query classifies only the states that no
earlier query with its period reached: the Büchi oracle from their rows of
v, the Streett oracle from the product with the period's shape graph
entered at them.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from operator import floordiv

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    mask_states,
    state_mask,
)
from omegadet.hoa import _QUOTE_LIMIT


@dataclass(frozen=True)
class Lasso:
    """The infinite word prefix · period · period · ..."""

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("Lasso: period must be nonempty")

    def __str__(self) -> str:
        u = ",".join(self.prefix)
        v = ",".join(self.period)
        return f"({u};{v})"


@dataclass(frozen=True)
class CycleVerdict:
    accepted: bool
    cycle_states: frozenset[int]
    entry_steps: int


@dataclass(frozen=True)
class DiffReport:
    agreed: int
    disagreements: tuple[tuple[Lasso, bool, bool], ...]


def _accepts_infinity_set(acceptance, inf_states: frozenset[int]) -> bool:
    """Evaluate an acceptance condition on the set of states seen infinitely often."""
    if isinstance(acceptance, BuchiAcceptance):
        return bool(inf_states & acceptance.accepting)
    if isinstance(acceptance, RabinAcceptance):
        return any(
            not (inf_states & e) and (inf_states & f) for e, f in acceptance.pairs
        )
    if isinstance(acceptance, StreettAcceptance):
        return all(
            (inf_states & r) or not (inf_states & g) for r, g in acceptance.pairs
        )
    return min(acceptance.priorities[s] for s in inf_states) % 2 == 0  # parity


def run_deterministic(a: Automaton, lasso: Lasso) -> CycleVerdict:
    """Run a deterministic automaton on a lasso until the tail cycle closes.

    The pair (state, position in the period) repeats after at most
    |states| * |period| steps past the prefix; the states strictly between
    the two occurrences of the first repeated pair are exactly the ones
    visited infinitely often.  The run from a pair depends on the period
    alone, so every pair walked is kept per period with its steps to the
    cycle and the cycle, beside the period's letter indices, and a query
    walks only until it meets a kept pair.
    """
    if not a.deterministic:
        raise ValueError("run_deterministic: deterministic automaton required")
    memo = _memo(a)
    rows, position = a.rows, a.alphabet.position
    size = len(a.alphabet)
    prefix, period = lasso.prefix, lasso.period
    state = a.initial
    try:
        for sym in prefix:
            state = rows[state * size + position[sym]]
    except KeyError:  # the table is total, so a symbol is unknown
        _check_symbols(a, prefix, "run_deterministic")
    key = ("d", period)
    runs = memo.get(key)
    if runs is None:
        _check_symbols(a, period, "run_deterministic")
        runs = memo[key] = ({}, [], tuple(map(position.__getitem__, period)))
    walked, cycles, letters = runs
    width = len(period)
    # walked maps the pair (q, i), as q * width + i, to steps * unit + 2c + acc:
    # its steps to the cycle, the cycle's index c in cycles and 1 if the
    # cycle accepts.  While this query walks, the pair at trail[k] maps to ~k.
    unit = 2 << (a.state_count * width).bit_length()
    trail: list[int] = []
    pos = 0
    pair = state * width
    found = walked.get(pair)
    while found is None:
        walked[pair] = ~len(trail)
        trail.append(pair)
        state = rows[state * size + letters[pos]]
        pos += 1
        if pos == width:
            pos = 0
        pair = state * width + pos
        found = walked.get(pair)
    if found < 0:  # the walk closed on itself: trail[head:] is a new cycle
        head = ~found
        loop = trail[head:]
        cycle = frozenset(map(floordiv, loop, itertools.repeat(width)))
        found = len(cycles) << 1 | _accepts_infinity_set(a.acceptance, cycle)
        cycles.append(cycle)
        for pair in loop:
            walked[pair] = found
        del trail[head:]
    value = found
    for pair in reversed(trail):
        value += unit
        walked[pair] = value
    index = found % unit
    return CycleVerdict(
        accepted=bool(index & 1),
        cycle_states=cycles[index >> 1],
        entry_steps=len(prefix) + len(trail) + found // unit,
    )


# ---------------------------------------------------------------------------
# SCCs and fair cycles
# ---------------------------------------------------------------------------


def _sccs(roots, successors):
    """Iterative Tarjan from `roots`; yields the strongly connected components.

    It reads `successors(node)` when it first meets the node, and yields a
    component, as a list, when done with it: after every component it reaches.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, it = work[-1]
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(successors(succ))))
                    break
                if index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                mine = low[node]
                if work:
                    parent = work[-1][0]
                    if mine < low[parent]:
                        low[parent] = mine
                if mine == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        # edges into a finished component leave low links
                        # alone, with no on-stack set to ask
                        index[member] = sys.maxsize
                        comp.append(member)
                        if member == node:
                            break
                    yield comp


def _fair_cycle(comp, successors, pairs) -> bool:
    """Does the component hold a cycle satisfying the Streett pairs?

    `comp` is a strongly connected component of the graph `successors`
    gives, as `_sccs` yields it.  Nodes are tuples whose first entry is the
    automaton state that `pairs` speak of.  Emerson-Lei style refinement: a
    cyclic component is fair if every pair with a G-visit also has an
    R-visit, and then a cycle through all of its nodes is fair; otherwise
    the offending G-states are carved out and the remainder re-examined.
    """
    work = [comp]
    for comp in work:  # the loop reaches the components appended below
        # a kept node keeps its self-loop, so `successors` answers for carved ones too
        if len(comp) == 1 and comp[0] not in successors(comp[0]):
            continue  # a single node without a self-loop lies on no cycle
        states = {node[0] for node in comp}
        bad = [g for r, g in pairs if (states & g) and not (states & r)]
        if not bad:
            return True
        forbidden = frozenset().union(*bad)
        kept = {node for node in comp if node[0] not in forbidden}
        # `work +=` runs the walk to its end before `kept` is bound again
        work += _sccs(kept, lambda node: [t for t in successors(node) if t in kept])
    return False


# ---------------------------------------------------------------------------
# Word memo of the oracles
# ---------------------------------------------------------------------------

# The memo of an automaton (`Automaton.lasso_memo`) maps ("u", u) to δ(I, u)
# and ("v", v) to the period's (explored, good) masks for the nondeterministic
# oracles, and ("d", v) to the period's (walked pairs, cycles, letter
# indices) for `run_deterministic`.  A query adds at most two entries and
# clears the memo first if they could take it past this many.
_MEMO_LIMIT = 4096


def _memo(a: Automaton) -> dict:
    """The automaton's memo, cleared if a query could take it past the limit."""
    memo = a.lasso_memo
    if len(memo) + 2 > _MEMO_LIMIT:
        memo.clear()
    return memo


# A message or report names at most this many letters of an alphabet.
_NAMED_LETTERS = 8


def _named_letters(letters: tuple[str, ...]) -> str:
    """The first `_NAMED_LETTERS` letters, space-separated, then the count of the rest."""
    known = " ".join(letters[:_NAMED_LETTERS])
    if len(letters) > _NAMED_LETTERS:
        known += f" and {len(letters) - _NAMED_LETTERS} more"
    return known


def _check_symbols(a: Automaton, word: tuple[str, ...], oracle: str) -> None:
    """Raise ValueError naming the first symbol of word outside a's alphabet, cut short."""
    position = a.alphabet.position
    for symbol in word:
        if symbol not in position:
            known = _named_letters(a.alphabet.symbols)
            shown = f"{symbol[:_QUOTE_LIMIT]!r}"
            if len(symbol) > _QUOTE_LIMIT:
                shown += f"... ({len(symbol)} characters)"
            raise ValueError(f"{oracle}: symbol {shown} is not in the alphabet ({known})")


def _classify_buchi(
    a: Automaton, period: tuple[str, ...], start: int, explored: int, good: int
) -> tuple[int, int]:
    """Extend explored and good by the states reachable from `start` on v.

    `explored` is closed under v's reach relation and `good` holds the
    states of it from which v^ω has an accepting run.  A fresh state p gets
    its row (reach, through): the states reachable from p on v, and those
    reached on a path that visits an accepting state after leaving p.
    """
    images = [a.image_masks[x] for x in period]
    accepting = a.acceptance.accepting_mask
    rows = {}

    def successors(p):
        reach, through = 1 << p, 0
        for image in images:
            reach = image[reach]
            through = image[through] | reach & accepting
        rows[p] = reach, through
        return mask_states(reach & ~explored)

    # explored is closed, so no component mixes old and fresh states, and
    # Tarjan yields a component after every component it reaches
    for comp in _sccs(mask_states(start & ~explored), successors):
        mask = state_mask(comp)
        if any(rows[p][1] & mask or rows[p][0] & good for p in comp):
            good |= mask
    return explored | state_mask(rows), good


def _classify_streett(
    a: Automaton, period: tuple[str, ...], start: int, explored: int, good: int
) -> tuple[int, int]:
    """Extend explored and good by the states reachable from `start` on v.

    As `_classify_buchi`, for Streett pairs.  The product of the automaton
    with v's shape graph is walked once, entered at (p, 0) for every state p
    of `start` not yet explored; a node (q, 0) with q explored is a sink
    whose verdict is known.  One sweep over the product's components marks
    the good nodes: a component is good if it has an edge to a good node
    or a good sink, or holds a fair cycle.
    """
    last = len(period) - 1
    transitions = a.transitions
    edges = {}

    def successors(node):
        state, pos = node
        out = edges[node] = []
        if pos or not explored >> state & 1:  # an explored (q, 0) is a sink
            nxt = pos + 1 if pos < last else 0
            out += [(t, nxt) for t in transitions.get((state, period[pos]), ())]
        return out

    pairs = a.acceptance.pairs
    marked = {(q, 0) for q in mask_states(good)}
    # Tarjan yields a component after every component it reaches
    for comp in _sccs([(p, 0) for p in mask_states(start & ~explored)], successors):
        if any(t in marked for node in comp for t in edges[node]) or _fair_cycle(
            comp, edges.__getitem__, pairs
        ):
            marked.update(comp)
    explored |= state_mask(state for state, pos in edges if not pos)
    return explored, good | state_mask(state for state, pos in marked if not pos)


def _member(a: Automaton, lasso: Lasso, classify, oracle: str) -> bool:
    """The lasso's verdict, read off its period's (explored, good) masks.

    `classify` extends them first if δ(I, u) holds states that no earlier
    query with this period explored.  A word's symbols are checked before
    its first memo entry, so a bad query leaves the memo as it was.
    """
    memo = _memo(a)
    prefix, period = lasso.prefix, lasso.period
    masks = memo.get(("v", period))
    start = memo.get(("u", prefix))
    if masks is None or start is None:
        _check_symbols(a, prefix + period, oracle)
    if start is None:
        images = a.image_masks
        start = 1 << a.initial
        for x in prefix:
            start = images[x][start]
        memo["u", prefix] = start
    explored, good = masks or (0, 0)
    if start & ~explored:
        explored, good = memo["v", period] = classify(a, period, start, explored, good)
    return bool(start & good)


def nbw_member(a: Automaton, lasso: Lasso) -> bool:
    """Does some run of a nondeterministic Buchi automaton accept the lasso?

    u·v^ω is accepted iff v^ω has an accepting run from some state of
    S = δ(I, u).  On the relation "q is reachable from p on v", with the
    edges that pass an accepting state marked, v^ω has one from p iff p
    reaches a component with a marked edge inside.  The verdicts of every
    state explored so far are kept per period, so a query only classifies
    the states it reaches first.  Images are memoised per asked mask, so a
    large declared state count costs nothing.
    """
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("nbw_member: Buchi acceptance required")
    return _member(a, lasso, _classify_buchi, "nbw_member")


def nsw_member(a: Automaton, lasso: Lasso) -> bool:
    """Does some run of a nondeterministic Streett automaton accept the lasso?

    u·v^ω is accepted iff v^ω has an accepting run from some state of
    S = δ(I, u), that is iff the product with v's shape graph reaches a
    fair cycle from (s, 0) for some s in S.  As for `nbw_member`, the
    verdicts of every state explored so far are kept per period, and a
    query builds the product only from the states it reaches first.
    """
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("nsw_member: Streett acceptance required")
    return _member(a, lasso, _classify_streett, "nsw_member")


def lasso_member(a: Automaton, lasso: Lasso) -> bool:
    """Route a membership query to the right oracle for the automaton's kind."""
    if a.deterministic:
        return run_deterministic(a, lasso).accepted
    if isinstance(a.acceptance, BuchiAcceptance):
        return nbw_member(a, lasso)
    if isinstance(a.acceptance, StreettAcceptance):
        return nsw_member(a, lasso)
    raise ValueError(
        "lasso_member: nondeterministic automata are supported only with "
        "Buchi or Streett acceptance"
    )


def enumerate_lassos(
    symbols, max_prefix: int, max_period: int
):
    """All lassos with |prefix| <= max_prefix, 1 <= |period| <= max_period.

    Order: prefixes in length-lexicographic order; for each prefix, periods
    in length-lexicographic order (symbol order as given).
    """
    if max_prefix < 0:
        raise ValueError(f"enumerate_lassos: max_prefix {max_prefix} < 0")
    if max_period < 1:
        raise ValueError(f"enumerate_lassos: max_period {max_period} < 1")
    syms = tuple(symbols)

    def words(lengths):
        return itertools.chain.from_iterable(
            itertools.product(syms, repeat=length) for length in lengths
        )

    # lazy throughout: the bounds are exponential in the alphabet size
    return (
        Lasso(prefix, period)
        for prefix in words(range(max_prefix + 1))
        for period in words(range(1, max_period + 1))
    )


_LASSO_LIMIT = 1_000_000


def _lasso_count(size: int, max_prefix: int, max_period: int) -> int:
    """How many lassos enumerate_lassos yields over `size` letters."""
    if size == 1:
        return (max_prefix + 1) * max_period
    prefixes = (size ** (max_prefix + 1) - 1) // (size - 1)
    return prefixes * (size ** (max_period + 1) - size) // (size - 1)


def differential_check(
    automata, max_prefix: int, max_period: int
) -> DiffReport:
    """Compare membership verdicts of several automata over a shared alphabet.

    Every automaton is queried through `lasso_member` on every enumerated
    lasso; a lasso where any two verdicts differ is recorded with the first
    two distinct verdicts in automaton order.  Bounds that give more than
    _LASSO_LIMIT lassos raise ValueError before the first query.
    """
    automata = list(automata)
    if not automata:
        raise ValueError("differential_check: need at least one automaton")
    symbols = automata[0].alphabet.symbols
    for other in automata[1:]:
        if other.alphabet.symbols != symbols:
            raise ValueError("differential_check: alphabets differ")
    lassos = enumerate_lassos(symbols, max_prefix, max_period)
    limit = f"exceed the limit of {_LASSO_LIMIT}"
    # over two letters a bound past 64 alone means 2**64 lassos: refuse it
    # before computing a power that large
    if len(symbols) > 1 and max(max_prefix, max_period) > 64:
        raise ValueError(f"differential_check: more than 2**64 lassos {limit}")
    count = _lasso_count(len(symbols), max_prefix, max_period)
    if count > _LASSO_LIMIT:
        raise ValueError(f"differential_check: {count} lassos {limit}")
    agreed = 0
    disagreements: list[tuple[Lasso, bool, bool]] = []
    for lasso in lassos:
        verdicts = [lasso_member(a, lasso) for a in automata]
        if all(v == verdicts[0] for v in verdicts):
            agreed += 1
        else:
            disagreements.append((lasso, verdicts[0], not verdicts[0]))
    return DiffReport(agreed=agreed, disagreements=tuple(disagreements))
