"""Checks and plumbing that several test modules share but the package never calls."""

import os
from pathlib import Path

from omegadet import Automaton, Lasso
from omegadet.automata import mask_states, reach
from omegadet.lasso import _fair_cycle, _sccs

SRC = Path(__file__).resolve().parents[1] / "src"


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


def reachable_states(a: Automaton) -> frozenset[int]:
    order, _ = reach(
        a.initial, lambda s: [t for sym in a.alphabet for t in a.successors(s, sym)]
    )
    return frozenset(order)


# The virtual root of a product, on no cycle.
_ROOT = (-1, -1)


def _lasso_product(a: Automaton, lasso: Lasso, start: int):
    """Reachable product of the automaton with the lasso's shape graph.

    Shape positions 0..|u|+|v|-1 read prefix then period symbols; the last
    position wraps back to |u|.  Returns (nodes, edges) with nodes =
    (automaton state, position), from _ROOT, whose successors are (s, 0)
    for every s in the state mask `start`.
    """
    word = lasso.prefix + lasso.period
    # position i reads word[i] and moves on to steps[i][1]
    steps = [(sym, i + 1) for i, sym in enumerate(word)]
    steps[-1] = (word[-1], len(lasso.prefix))
    transitions = a.transitions

    def successors(node):
        state, pos = node
        if node is _ROOT:
            return [(s, 0) for s in mask_states(start)]
        sym, nxt = steps[pos]
        return [(t, nxt) for t in transitions.get((state, sym), ())]

    return reach(_ROOT, successors)


def product_nbw_member(a: Automaton, lasso: Lasso) -> bool:
    """The product-based Buchi oracle, kept as the reference for `nbw_member`.

    Buchi acceptance is the single Streett pair (F, reached states) over the
    product of the automaton with the lasso's whole shape graph.
    """
    nodes, edges = _lasso_product(a, lasso, 1 << a.initial)
    pair = (a.acceptance.accepting, {state for state, _ in nodes[1:]})
    return bool(_fair_cycle(_sccs(nodes, edges), edges, (pair,)))


def product_nsw_member(a: Automaton, lasso: Lasso) -> bool:
    """The Streett pairs over the product with the lasso's whole shape graph."""
    nodes, edges = _lasso_product(a, lasso, 1 << a.initial)
    return bool(_fair_cycle(_sccs(nodes, edges), edges, a.acceptance.pairs))
