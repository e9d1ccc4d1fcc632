"""Seeded random automaton generation for cross-checking.

Generators always produce total transition relations (every state/symbol
pair keeps at least one successor), matching the usual behavior of random
automaton generators; partial relations are exercised by the hand-built
fixtures instead.
"""

from __future__ import annotations

import random

from omegadet.automata import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    StreettAcceptance,
)

SYMBOLS = ("a", "b")


def _random_transitions(rng, n, density):
    transitions = {}
    for s in range(n):
        for sym in SYMBOLS:
            targets = {t for t in range(n) if rng.random() < density}
            if not targets:
                targets = {rng.randrange(n)}
            transitions[(s, sym)] = frozenset(targets)
    return transitions


def random_nbw(
    n: int, seed: int, density: float = 0.5, acceptance_density: float = 0.4
) -> Automaton:
    rng = random.Random(seed)
    transitions = _random_transitions(rng, n, density)
    accepting = frozenset(s for s in range(n) if rng.random() < acceptance_density)
    return Automaton(
        alphabet=Alphabet(SYMBOLS),
        state_count=n,
        initial=0,
        transitions=transitions,
        acceptance=BuchiAcceptance(accepting),
    )


def random_nsw(n: int, k: int, seed: int) -> Automaton:
    rng = random.Random(seed)
    transitions = _random_transitions(rng, n, 0.5)
    pairs = []
    # each state joins each R and each G with probability 0.35
    for _ in range(k):
        r = frozenset(s for s in range(n) if rng.random() < 0.35)
        g = frozenset(s for s in range(n) if rng.random() < 0.35)
        pairs.append((r, g))
    return Automaton(
        alphabet=Alphabet(SYMBOLS),
        state_count=n,
        initial=0,
        transitions=transitions,
        acceptance=StreettAcceptance(tuple(pairs)),
    )
