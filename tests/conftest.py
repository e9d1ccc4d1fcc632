"""Shared fixtures: tiny automata whose languages were worked out by hand,
and a wall limit on every test."""

import dis
import signal
from types import TracebackType

import pytest

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    ParityAcceptance,
    StreettAcceptance,
)

# A test that runs longer than this fails with a traceback of where it was,
# so that a step that never stops growing its trees fails one test instead
# of hanging the run.  The slowest test takes a few seconds.
TEST_WALL_LIMIT_S = 120


def _with_line_numbers(tb: TracebackType | None) -> TracebackType | None:
    """The traceback with a line number on every entry.

    A signal can land on an instruction that has none (a loop's jump back,
    in CPython 3.11), which pytest cannot print; such an entry takes the
    line of the nearest instruction before it.
    """
    entries = []
    while tb is not None:
        entries.append(tb)
        tb = tb.tb_next
    out = None
    for tb in reversed(entries):
        line = tb.tb_lineno
        if line is None:
            code = tb.tb_frame.f_code
            lines = [n for start, n in dis.findlinestarts(code) if start <= tb.tb_lasti and n]
            line = lines[-1] if lines else code.co_firstlineno
        out = TracebackType(out, tb.tb_frame, tb.tb_lasti, line)
    return out


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    """Run the test under a SIGALRM timer of TEST_WALL_LIMIT_S (POSIX only)."""
    if not hasattr(signal, "setitimer"):
        return (yield)
    limit = TEST_WALL_LIMIT_S

    def expire(signum, frame):
        raise TimeoutError(f"{item.nodeid} ran longer than {limit} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        return (yield)
    except TimeoutError as exc:
        raise exc.with_traceback(_with_line_numbers(exc.__traceback__))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def make_inf_a() -> Automaton:
    """2-state NBW over {a, b} for "infinitely many a".

    q0 -a-> q1, q0 -b-> q0, q1 -a-> q1, q1 -b-> q0, accepting {q1}.
    q1 is entered exactly by reading an a, so it recurs iff a recurs.
    """
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=2,
        initial=0,
        transitions={
            (0, "a"): frozenset({1}),
            (0, "b"): frozenset({0}),
            (1, "a"): frozenset({1}),
            (1, "b"): frozenset({0}),
        },
        acceptance=BuchiAcceptance(frozenset({1})),
    )


def make_inf_a_dpw() -> Automaton:
    """2-state DPW over {a, b}: accept iff a is read infinitely often.

    State 0 = "just read a" (priority 0), state 1 = "just read b"
    (priority 1); min-even over the cycle decides.
    """
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=2,
        initial=1,
        transitions={
            (0, "a"): frozenset({0}),
            (0, "b"): frozenset({1}),
            (1, "a"): frozenset({0}),
            (1, "b"): frozenset({1}),
        },
        acceptance=ParityAcceptance((0, 1), 2),
        deterministic=True,
    )


def make_fair_nsw() -> Automaton:
    """2-state NSW over {r, g, n}: visiting state 0 forever demands visits to 1.

    Single pair (R={1}, G={0}).  Words ending in g^omega park in state 1
    (G never recurs); words cycling r,g alternate both states.
    """
    return Automaton(
        alphabet=Alphabet(("r", "g", "n")),
        state_count=2,
        initial=0,
        transitions={
            (0, "r"): frozenset({0}),
            (0, "g"): frozenset({1}),
            (0, "n"): frozenset({0}),
            (1, "r"): frozenset({0}),
            (1, "g"): frozenset({1}),
            (1, "n"): frozenset({1}),
        },
        acceptance=StreettAcceptance(((frozenset({1}), frozenset({0})),)),
    )


def make_loop_nsw(pairs) -> Automaton:
    """1-state NSW looping on {a, b}; the Streett pairs are the whole story."""
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=1,
        initial=0,
        transitions={(0, "a"): frozenset({0}), (0, "b"): frozenset({0})},
        acceptance=StreettAcceptance(
            tuple((frozenset(r), frozenset(g)) for r, g in pairs)
        ),
    )


@pytest.fixture
def inf_a() -> Automaton:
    return make_inf_a()


@pytest.fixture
def inf_a_dpw() -> Automaton:
    return make_inf_a_dpw()


@pytest.fixture
def fair_nsw() -> Automaton:
    return make_fair_nsw()
