"""Seeded inputs for the three benchmark workloads.

Each workload starts from a fixed list of source automata:

* ``tv-buchi``: Tabakov-Vardi random NBWs, transition density 1.5 per
  letter, n in {14, 20}, generator seeds 0-19 (40 automata);
* ``full-n3``: the full automaton on 3 states, whose 512 letters are all
  subsets of Q x Q, once per nonempty accepting set (7 automata);
* ``streett``: random NSWs with n in {4, 5}, k in {2, 3} pairs, generator
  seeds 0-19 (80 automata).

The benchmark seed renames the states of every source automaton with a
random permutation and draws the full-n3 lasso sample.  Renaming gives each
seed its own HOA text while keeping the automata isomorphic: the Buchi
constructions then do the same work on every seed, so the figures of two
seeds can be compared.  Drawing fresh automata per seed instead moves the
total DPW state count of tv-buchi by 45% of its median between seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from omegadet import hoa, lasso, random_gen
from omegadet.automata import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    StreettAcceptance,
)

WORKLOADS = ("tv-buchi", "full-n3", "streett")

# Lasso bounds of the exhaustive binary-alphabet check, as in the tests.
MAX_PREFIX = 3
MAX_PERIOD = 4
# Size of the seeded full-n3 lasso sample: 450 is the number of bounded
# lassos over two letters, so every workload checks 450 lassos per automaton.
FULL_SAMPLE = 450
# Rounds per pass; every round determinizes every automaton once.  One
# round of streett's determinize work takes about 1 s, too short to time
# steadily, and full-n3's 7 automata give too few latency samples for a
# tail percentile in one round.
ROUNDS = {"tv-buchi": 1, "full-n3": 3, "streett": 4}


@dataclass(frozen=True)
class Workload:
    """What a benchmark pass sees: HOA texts and the lassos to check."""

    name: str
    kind: str  # "buchi" or "streett"
    inputs: tuple[str, ...]
    lassos: tuple[lasso.Lasso, ...]
    rounds: int


def valuation_symbol(index: int, ap_count: int) -> str:
    """Symbol name that parse_hoa gives letter `index` (bit j = AP j)."""
    return "".join("1" if (index >> j) & 1 else "0" for j in range(ap_count))


def full_automaton(n: int, accepting, initial: int = 0) -> Automaton:
    """The full NBW on n states: letter sigma moves s to t iff (s, t) is in sigma.

    Letters are all subsets of Q x Q; pair (s, t) is bit s*n + t of the
    letter index, and letters are named as HOA valuations so that an
    emit/parse round trip keeps their names.
    """
    pair_count = n * n
    transitions: dict[tuple[int, str], set[int]] = {}
    symbols = []
    for index in range(1 << pair_count):
        symbol = valuation_symbol(index, pair_count)
        symbols.append(symbol)
        for bit in range(pair_count):
            if (index >> bit) & 1:
                s, t = divmod(bit, n)
                transitions.setdefault((s, symbol), set()).add(t)
    return Automaton(
        alphabet=Alphabet(tuple(symbols)),
        state_count=n,
        initial=initial,
        transitions={key: frozenset(ts) for key, ts in transitions.items()},
        acceptance=BuchiAcceptance(frozenset(accepting)),
    )


def relabel(a: Automaton, rng: random.Random) -> Automaton:
    """Isomorphic copy of `a` with its states renamed by a random permutation."""
    perm = list(range(a.state_count))
    rng.shuffle(perm)

    def image(states):
        return frozenset(perm[s] for s in states)

    acc = a.acceptance
    if isinstance(acc, BuchiAcceptance):
        acc = BuchiAcceptance(image(acc.accepting))
    else:
        acc = StreettAcceptance(tuple((image(r), image(g)) for r, g in acc.pairs))
    return Automaton(
        alphabet=a.alphabet,
        state_count=a.state_count,
        initial=perm[a.initial],
        transitions={
            (perm[s], sym): image(ts) for (s, sym), ts in a.transitions.items()
        },
        acceptance=acc,
    )


def _sources(name: str) -> list[Automaton]:
    if name == "tv-buchi":
        return [
            random_gen.random_nbw(n, seed, density=1.5 / n, acceptance_density=0.5)
            for n in (14, 20)
            for seed in range(20)
        ]
    if name == "full-n3":
        subsets = [
            f
            for size in range(1, 4)
            for f in itertools.combinations(range(3), size)
        ]
        return [full_automaton(3, f) for f in subsets]
    if name == "streett":
        return [
            random_gen.random_nsw(n, k, seed)
            for n in (4, 5)
            for k in (2, 3)
            for seed in range(20)
        ]
    raise ValueError(f"unknown workload {name!r}")


def _sample_lassos(symbols, rng: random.Random, count: int):
    """Uniform lengths |u| <= MAX_PREFIX, 1 <= |v| <= MAX_PERIOD, uniform letters."""
    out = []
    for _ in range(count):
        u = rng.randint(0, MAX_PREFIX)
        v = rng.randint(1, MAX_PERIOD)
        out.append(
            lasso.Lasso(
                tuple(rng.choice(symbols) for _ in range(u)),
                tuple(rng.choice(symbols) for _ in range(v)),
            )
        )
    return out


def build(name: str, seed: int) -> Workload:
    """Generate the workload's automata for `seed` and emit them as HOA."""
    rng = random.Random(seed)
    automata = [relabel(a, rng) for a in _sources(name)]
    # lassos are written in the symbol names parse_hoa gives the emitted text
    size = len(automata[0].alphabet)
    symbols = tuple(
        valuation_symbol(i, size.bit_length() - 1) for i in range(size)
    )
    if name == "full-n3":
        lassos = _sample_lassos(symbols, rng, FULL_SAMPLE)
    else:
        lassos = list(lasso.enumerate_lassos(symbols, MAX_PREFIX, MAX_PERIOD))
    kind = "streett" if name == "streett" else "buchi"
    return Workload(
        name=name,
        kind=kind,
        inputs=tuple(hoa.emit_hoa(a) for a in automata),
        lassos=tuple(lassos),
        rounds=ROUNDS[name],
    )
