"""Ultimately periodic words and membership oracles.

A lasso u·v^ω is the only kind of word the test harness ever feeds an
automaton.  Deterministic automata are run directly until the (state,
period-position) pair repeats; nondeterministic ones go through a product
with the lasso's shape graph and an SCC analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from omegadet.automata import (
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    reach,
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
    if isinstance(acceptance, ParityAcceptance):
        return min(acceptance.priorities[s] for s in inf_states) % 2 == 0
    raise ValueError(f"unknown acceptance condition {type(acceptance).__name__}")


def run_deterministic(a: Automaton, lasso: Lasso) -> CycleVerdict:
    """Run a deterministic automaton on a lasso until the tail cycle closes.

    The pair (state, position in the period) repeats after at most
    |states| * |period| steps past the prefix; the states strictly between
    the two occurrences of the first repeated pair are exactly the ones
    visited infinitely often.
    """
    if not a.deterministic:
        raise ValueError("run_deterministic: deterministic automaton required")
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


# ---------------------------------------------------------------------------
# Product graph + SCCs for the nondeterministic oracles
# ---------------------------------------------------------------------------


def _lasso_product(a: Automaton, lasso: Lasso):
    """Reachable product of the automaton with the lasso's shape graph.

    Shape positions 0..|u|+|v|-1 read prefix then period symbols; the last
    position wraps back to |u|.  Returns (nodes, edges) with nodes =
    (automaton state, position).
    """
    u = len(lasso.prefix)
    word = lasso.prefix + lasso.period

    def successors(node):
        state, pos = node
        nxt = pos + 1 if pos + 1 < len(word) else u
        return [(t, nxt) for t in a.successors(state, word[pos])]

    return reach((a.initial, 0), successors)


def _sccs(nodes, edges):
    """Iterative Tarjan; yields each strongly connected component as a list."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = itertools.count()
    out = []
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = next(counter)
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
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


def _fair_cycle(nodes, edges, pairs) -> bool:
    """Does the graph have a cycle that satisfies the Streett pairs?

    Nodes are tuples whose first entry is the automaton state that `pairs`
    speak of.  Emerson-Lei style refinement: a cyclic component is fair if
    every pair with a G-visit also has an R-visit; otherwise the offending
    G-states are carved out and the remainder re-examined.
    """
    for comp in _sccs(nodes, edges):
        if not _has_cycle(comp, edges):
            continue
        states = {node[0] for node in comp}
        bad = [g for r, g in pairs if (states & g) and not (states & r)]
        if not bad:
            return True
        forbidden = frozenset().union(*bad)
        kept = {node for node in comp if node[0] not in forbidden}
        sub_edges = {node: [t for t in edges[node] if t in kept] for node in kept}
        if kept and _fair_cycle(kept, sub_edges, pairs):
            return True
    return False


def nbw_member(a: Automaton, lasso: Lasso) -> bool:
    """Does some run of a nondeterministic Buchi automaton accept the lasso?

    Buchi acceptance is the single Streett pair (F, all states).  Only
    the states of the product's nodes can meet a cycle, so they stand for
    all states, and a large declared state count costs nothing.
    """
    if not isinstance(a.acceptance, BuchiAcceptance):
        raise ValueError("nbw_member: Buchi acceptance required")
    nodes, edges = _lasso_product(a, lasso)
    pair = (a.acceptance.accepting, {state for state, _ in nodes})
    return _fair_cycle(nodes, edges, (pair,))


def nsw_member(a: Automaton, lasso: Lasso) -> bool:
    """Does some run of a nondeterministic Streett automaton accept the lasso?"""
    if not isinstance(a.acceptance, StreettAcceptance):
        raise ValueError("nsw_member: Streett acceptance required")
    nodes, edges = _lasso_product(a, lasso)
    return _fair_cycle(nodes, edges, a.acceptance.pairs)


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
            flipped = next(v for v in verdicts if v != verdicts[0])
            disagreements.append((lasso, verdicts[0], flipped))
    return DiffReport(agreed=agreed, disagreements=tuple(disagreements))
