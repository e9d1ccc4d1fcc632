"""Checks and plumbing that several test modules share but the package never calls."""

import os
from pathlib import Path

from omegadet import Automaton, Lasso
from omegadet.automata import reach
from omegadet.lasso import _fair_cycle, _lasso_product

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


def product_nbw_member(a: Automaton, lasso: Lasso) -> bool:
    """The product-based Buchi oracle, kept as the reference for `nbw_member`.

    Buchi acceptance is the single Streett pair (F, reached states) over the
    product of the automaton with the lasso's whole shape graph.
    """
    nodes, edges = _lasso_product(a, lasso, 1 << a.initial)
    pair = (a.acceptance.accepting, {state for state, _ in nodes[1:]})
    return _fair_cycle(nodes, edges, (pair,))


def product_nsw_member(a: Automaton, lasso: Lasso) -> bool:
    """The Streett pairs over the product with the lasso's whole shape graph."""
    nodes, edges = _lasso_product(a, lasso, 1 << a.initial)
    return _fair_cycle(nodes, edges, a.acceptance.pairs)
