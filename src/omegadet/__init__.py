"""Omega-automaton determinization toolkit.

Nondeterministic Buchi and Streett word automata are turned into
deterministic parity automata through layered subset trees with compact,
dynamically renamed node names; the classic Rabin-producing tree
constructions are kept alongside as reference backends.  Lasso-word
membership oracles and an HOA v1 subset reader/writer round the package
out so every construction can be cross-checked end to end.
"""

from omegadet.automata import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    MalformedAutomaton,
    ParityAcceptance,
    RabinAcceptance,
    StreettAcceptance,
    dualize_parity,
)
from omegadet.hoa import (
    HoaError,
    emit_hoa,
    parse_hoa,
)
from omegadet.random_gen import (
    random_nbw,
    random_nsw,
)
from omegadet.compact import (
    CompactSafraTree,
    compact_step,
    compact_streett_step,
    nbw_to_dpw,
    nsw_to_dpw,
    priority_of,
)
from omegadet.lasso import (
    CycleVerdict,
    DiffReport,
    Lasso,
    differential_check,
    enumerate_lassos,
    lasso_member,
    nbw_member,
    nsw_member,
    run_deterministic,
)
from omegadet.safra import (
    SafraTree,
    safra_determinize,
    safra_step,
    streett_safra_determinize,
    streett_safra_step,
)

__all__ = [
    "Alphabet",
    "Automaton",
    "BuchiAcceptance",
    "CompactSafraTree",
    "CycleVerdict",
    "DiffReport",
    "HoaError",
    "Lasso",
    "MalformedAutomaton",
    "ParityAcceptance",
    "RabinAcceptance",
    "SafraTree",
    "StreettAcceptance",
    "compact_step",
    "compact_streett_step",
    "differential_check",
    "dualize_parity",
    "emit_hoa",
    "enumerate_lassos",
    "lasso_member",
    "nbw_member",
    "nbw_to_dpw",
    "nsw_member",
    "nsw_to_dpw",
    "parse_hoa",
    "priority_of",
    "random_nbw",
    "random_nsw",
    "run_deterministic",
    "safra_determinize",
    "safra_step",
    "streett_safra_determinize",
    "streett_safra_step",
]
