"""Top-level acceptance checks, one test per criterion.

Each test is a single pass/fail line under `pytest -v`.  The corpora are
seeded, the bounds are exact (no tolerances), and the language checks are
exhaustive over the stated lasso budgets.
"""

import math
import random
from dataclasses import dataclass

import pytest

from omegadet import (
    dualize_parity,
    nbw_member,
    nbw_to_dpw,
    nsw_member,
    nsw_to_dpw,
    run_deterministic,
    safra_determinize,
)
from omegadet.hoa import emit_hoa, parse_hoa
from omegadet.lasso import enumerate_lassos
from omegadet.random_gen import random_nbw, random_nsw

from conftest import make_inf_a
from helpers import build_lk_fixture, nsw_witness_union_nbw, structurally_equal
from treecheck import assert_tree_invariants, drive_buchi, drive_streett

BUCHI_CORPUS_SIZE = 200
STREETT_CORPUS_SIZE = 100


def buchi_bound(n: int) -> int:
    return 2 * n**n * math.factorial(n)


def streett_bound(n: int, k: int) -> int:
    m = n * (k + 1)
    return 2 * n**n * (k + 1) ** m * math.factorial(m)


@pytest.fixture(scope="session")
def buchi_corpus():
    return [random_nbw(1 + seed % 4, seed=seed) for seed in range(BUCHI_CORPUS_SIZE)]


@pytest.fixture(scope="session")
def streett_corpus():
    return [
        random_nsw(1 + seed % 3, (seed // 3) % 3, seed=seed)
        for seed in range(STREETT_CORPUS_SIZE)
    ]


@dataclass
class BuchiSweep:
    """One pass over the whole lasso suite, feeding criteria 2, 3 and 4."""

    lassos: int = 0
    dpw_vs_oracle: int = 0
    drw_vs_dpw: int = 0
    dual_agreements: int = 0
    first_failure: str = ""


@pytest.fixture(scope="session")
def buchi_sweep(buchi_corpus):
    sweep = BuchiSweep()
    subjects = list(buchi_corpus) + [
        make_inf_a(),
        build_lk_fixture(2),
        build_lk_fixture(3),
    ]
    for a in subjects:
        dpw = nbw_to_dpw(a)
        drw = safra_determinize(a)
        dual = dualize_parity(dpw)
        for lasso in enumerate_lassos(a.alphabet.symbols, 3, 4):
            sweep.lassos += 1
            oracle = nbw_member(a, lasso)
            got_dpw = run_deterministic(dpw, lasso).accepted
            got_drw = run_deterministic(drw, lasso).accepted
            got_dual = run_deterministic(dual, lasso).accepted
            if got_dpw != oracle:
                sweep.dpw_vs_oracle += 1
                sweep.first_failure = sweep.first_failure or f"dpw {lasso}"
            if got_drw != got_dpw:
                sweep.drw_vs_dpw += 1
                sweep.first_failure = sweep.first_failure or f"drw {lasso}"
            if got_dual == oracle:
                sweep.dual_agreements += 1
                sweep.first_failure = sweep.first_failure or f"dual {lasso}"
    return sweep


@dataclass
class StreettSweep:
    lassos: int = 0
    disagreements: int = 0
    first_failure: str = ""


@pytest.fixture(scope="session")
def streett_sweep(streett_corpus):
    sweep = StreettSweep()
    for a in streett_corpus:
        direct = nsw_to_dpw(a)
        via_union = nbw_to_dpw(nsw_witness_union_nbw(a))
        for lasso in enumerate_lassos(a.alphabet.symbols, 2, 4):
            sweep.lassos += 1
            oracle = nsw_member(a, lasso)
            got_direct = run_deterministic(direct, lasso).accepted
            got_union = run_deterministic(via_union, lasso).accepted
            if not (oracle == got_direct == got_union):
                sweep.disagreements += 1
                sweep.first_failure = sweep.first_failure or (
                    f"{lasso}: oracle={oracle} direct={got_direct} union={got_union}"
                )
    return sweep


def test_criterion_1_buchi_state_bound(buchi_corpus):
    assert len(buchi_corpus) == BUCHI_CORPUS_SIZE
    for a in buchi_corpus:
        dpw = nbw_to_dpw(a)
        n = a.state_count
        assert dpw.state_count <= buchi_bound(n), (n, dpw.state_count)
        assert max(dpw.acceptance.priorities) <= 2 * n - 1
    assert buchi_bound(4) == 12288


def test_criterion_2_buchi_language_equality(buchi_sweep):
    # corpus + named fixtures, all lassos |u|<=3, |v|<=4, zero disagreements
    assert buchi_sweep.lassos >= BUCHI_CORPUS_SIZE * 450
    assert buchi_sweep.dpw_vs_oracle == 0, buchi_sweep.first_failure


def test_criterion_3_reference_agreement(buchi_sweep):
    assert buchi_sweep.drw_vs_dpw == 0, buchi_sweep.first_failure


def test_criterion_4_complementation_flips_everything(buchi_sweep):
    assert buchi_sweep.dual_agreements == 0, buchi_sweep.first_failure


def test_criterion_5_streett_state_bound(streett_corpus):
    assert len(streett_corpus) == STREETT_CORPUS_SIZE
    for a in streett_corpus:
        dpw = nsw_to_dpw(a)
        n = a.state_count
        k = len(a.acceptance.pairs)
        assert dpw.state_count <= streett_bound(n, k), (n, k, dpw.state_count)
        assert max(dpw.acceptance.priorities) <= 2 * n * (k + 1) - 1
    assert streett_bound(2, 1) == 3072


def test_criterion_6_streett_three_way_equality(streett_sweep):
    assert streett_sweep.lassos == STREETT_CORPUS_SIZE * 210
    assert streett_sweep.disagreements == 0, streett_sweep.first_failure


def test_criterion_7_tree_invariant_suite():
    checked_buchi = 0
    seed = 0
    while checked_buchi < 10_000:
        rng = random.Random(seed)
        a = random_nbw(1 + seed % 4, seed=seed)
        for tree, priority in drive_buchi(a, rng, steps=10):
            assert_tree_invariants(tree, priority, a.state_count)
            checked_buchi += 1
        seed += 1

    checked_streett = 0
    seed = 0
    while checked_streett < 10_000:
        rng = random.Random(10_000 + seed)
        n, k = 1 + seed % 3, (seed // 3) % 3
        a = random_nsw(n, k, seed=seed)
        for tree, priority in drive_streett(a, rng, steps=10):
            assert_tree_invariants(tree, priority, n * (k + 1), pair_count=k)
            checked_streett += 1
        seed += 1

    assert checked_buchi >= 10_000 and checked_streett >= 10_000


def test_criterion_8_hoa_round_trip(buchi_corpus, streett_corpus):
    subjects = list(buchi_corpus) + list(streett_corpus)
    subjects += [
        nbw_to_dpw(make_inf_a()),
        safra_determinize(make_inf_a()),
        nsw_to_dpw(streett_corpus[7]),
    ]
    for a in subjects:
        first = emit_hoa(a)
        second = emit_hoa(a)
        assert first == second, "emission is not byte-deterministic"
        assert structurally_equal(parse_hoa(first), a)


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_9_lk_fixture_semantics(k):
    dpw = nbw_to_dpw(build_lk_fixture(k))
    symbols = tuple(str(i) for i in range(1, k + 1))
    for lasso in enumerate_lassos(symbols, 2, 3):
        want = min(int(sym) for sym in lasso.period) % 2 == 0
        got = run_deterministic(dpw, lasso).accepted
        assert got == want, str(lasso)
