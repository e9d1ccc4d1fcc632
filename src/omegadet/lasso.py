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
    reach,
    state_mask,
)


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
    cycle and the cycle, and a query walks only until it meets a kept pair.
    """
    if not a.deterministic:
        raise ValueError("run_deterministic: deterministic automaton required")
    memo = _memo(a)
    transitions = a.transitions
    prefix, period = lasso.prefix, lasso.period
    state = a.initial
    try:
        for sym in prefix:
            (state,) = transitions[state, sym]
    except KeyError:  # the table is total, so a symbol is unknown
        _check_symbols(a, prefix, "run_deterministic")
    key = ("d", period)
    runs = memo.get(key)
    if runs is None:
        _check_symbols(a, period, "run_deterministic")
        runs = memo[key] = ({}, [])
    walked, cycles = runs
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
        (state,) = transitions[state, period[pos]]
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


def _sccs(nodes, edges):
    """Iterative Tarjan; returns the strongly connected components as lists.

    A component comes after every component it reaches.
    """
    index: dict = {}
    low: dict = {}
    stack: list = []
    out = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(edges.get(root, ())))]
        while work:
            node, it = work[-1]
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    stack.append(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
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
                    out.append(comp)
    return out


def _has_cycle(comp, edges) -> bool:
    if len(comp) > 1:
        return True
    node = comp[0]
    return node in edges.get(node, ())


def _fair_cycle(comps, edges, pairs) -> set:
    """The nodes of the components that lie on a cycle satisfying the Streett pairs.

    `comps` are strongly connected components of the graph `edges`, as
    `_sccs` gives them.  Nodes are tuples whose first entry is the
    automaton state that `pairs` speak of.  Emerson-Lei style refinement: a
    cyclic component is fair if every pair with a G-visit also has an
    R-visit, and then a cycle through all of its nodes is fair; otherwise
    the offending G-states are carved out and the remainder re-examined.
    """
    fair = set()
    for comp in comps:
        if not _has_cycle(comp, edges):
            continue
        states = {node[0] for node in comp}
        bad = [g for r, g in pairs if (states & g) and not (states & r)]
        if not bad:
            fair.update(comp)
            continue
        forbidden = frozenset().union(*bad)
        kept = {node for node in comp if node[0] not in forbidden}
        if kept:
            sub_edges = {node: [t for t in edges[node] if t in kept] for node in kept}
            fair |= _fair_cycle(_sccs(kept, sub_edges), sub_edges, pairs)
    return fair


# ---------------------------------------------------------------------------
# Word memo of the oracles
# ---------------------------------------------------------------------------

# The memo of an automaton (`Automaton.lasso_memo`) maps ("u", u) to δ(I, u)
# and ("v", v) to the period's (explored, good) masks for the nondeterministic
# oracles, and ("d", v) to the period's (walked pairs, cycles) for
# `run_deterministic`.  A query adds at most two entries and clears the memo
# first if they could take it past this many.
_MEMO_LIMIT = 4096


def _memo(a: Automaton) -> dict:
    """The automaton's memo, cleared if a query could take it past the limit."""
    memo = a.lasso_memo
    if len(memo) + 2 > _MEMO_LIMIT:
        memo.clear()
    return memo


def _check_symbols(a: Automaton, word: tuple[str, ...], oracle: str) -> None:
    """Raise ValueError naming a's alphabet and the first symbol of word outside it."""
    position = a.alphabet.position
    for symbol in word:
        if symbol not in position:
            known = " ".join(a.alphabet)
            raise ValueError(f"{oracle}: symbol {symbol!r} is not in the alphabet ({known})")


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
    fresh = todo = start & ~explored
    while todo:
        low = todo & -todo
        todo ^= low
        reach, through = low, 0
        for image in images:
            reach = image[reach]
            through = image[through] | reach & accepting
        rows[low.bit_length() - 1] = reach, through
        new = reach & ~(explored | fresh)
        fresh |= new
        todo |= new
    edges = {p: mask_states(reach & fresh) for p, (reach, _) in rows.items()}
    # explored is closed, so no component mixes old and fresh states, and
    # Tarjan emits a component after every component it reaches
    for comp in _sccs(rows, edges):
        mask = state_mask(comp)
        if any(rows[p][1] & mask or rows[p][0] & good for p in comp):
            good |= mask
    return explored | fresh, good


def _classify_streett(
    a: Automaton, period: tuple[str, ...], start: int, explored: int, good: int
) -> tuple[int, int]:
    """Extend explored and good by the states reachable from `start` on v.

    As `_classify_buchi`, for Streett pairs.  The product of the automaton
    with v's shape graph is built once, entered at (p, 0) for every state p
    of `start` not yet explored; a node (q, 0) with q explored is a sink
    whose verdict is known.  One sweep over the product's components marks
    the good nodes: a component is good if it has an edge to a good node
    or a good sink, or holds a fair cycle.
    """
    last = len(period) - 1
    transitions = a.transitions
    root = (-1, -1)

    def successors(node):
        state, pos = node
        if node is root:
            return [(p, 0) for p in mask_states(start & ~explored)]
        if not pos and explored >> state & 1:
            return ()
        nxt = pos + 1 if pos < last else 0
        return [(t, nxt) for t in transitions.get((state, period[pos]), ())]

    nodes, edges = reach(root, successors)
    pairs = a.acceptance.pairs
    marked = {node for node in nodes if not node[1] and good >> node[0] & 1}
    # Tarjan emits a component after every component it reaches
    for comp in _sccs(nodes, edges):
        if any(t in marked for node in comp for t in edges[node]) or _fair_cycle(
            (comp,), edges, pairs
        ):
            marked.update(comp)
    explored |= state_mask(state for state, pos in nodes if not pos)
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
