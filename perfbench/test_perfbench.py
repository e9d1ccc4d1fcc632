"""Tests of the benchmark's own code: corpus generation, tracer, metric names.

Run from the repository root:
  PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import types
from pathlib import Path

from omegadet import hoa, nbw_to_dpw

import corpus
import run
from tracing import Tracer


def test_full_automaton_letters_are_all_subsets_of_pairs():
    a = corpus.full_automaton(3, {2})
    assert len(a.alphabet) == 512
    assert len(set(a.alphabet.symbols)) == 512


def test_full_automaton_moves_s_to_t_iff_the_letter_holds_the_pair():
    a = corpus.full_automaton(3, {2})
    for index, symbol in enumerate(a.alphabet):
        for s in range(3):
            expected = {t for t in range(3) if (index >> (3 * s + t)) & 1}
            assert a.successors(s, symbol) == expected


def test_full_automaton_survives_an_hoa_round_trip():
    a = corpus.full_automaton(3, {2})
    b = hoa.parse_hoa(hoa.emit_hoa(a))
    assert b.alphabet == a.alphabet
    assert b.transitions == a.transitions


def test_full_automaton_with_f2_determinizes_to_51_states():
    assert nbw_to_dpw(corpus.full_automaton(3, {2})).state_count == 51


def test_seed_fixes_the_inputs_and_renaming_keeps_buchi_state_counts():
    first = corpus.build("tv-buchi", 3)
    assert corpus.build("tv-buchi", 3) == first
    other = corpus.build("tv-buchi", 4)
    assert other.inputs != first.inputs
    for x, y in zip(first.inputs[:5], other.inputs[:5]):
        assert (
            nbw_to_dpw(hoa.parse_hoa(x)).state_count
            == nbw_to_dpw(hoa.parse_hoa(y)).state_count
        )


def test_lassos_use_the_symbol_names_of_the_parsed_inputs():
    for name in corpus.WORKLOADS:
        work = corpus.build(name, 0)
        symbols = set(hoa.parse_hoa(work.inputs[0]).alphabet)
        assert all(set(w.prefix + w.period) <= symbols for w in work.lassos)
        assert len(work.lassos) == corpus.FULL_SAMPLE


def test_tracer_records_nested_spans_and_restores_the_module():
    module = types.ModuleType("fake")
    module.inner = lambda: 1
    module.outer = lambda: module.inner() + 1
    original = module.inner
    tracer = Tracer()
    tracer.wrap(module, "inner")
    tracer.wrap(module, "outer")
    assert module.outer() == 2
    tracer.restore()
    assert module.inner is original

    (outer_id,) = [i for i, s in enumerate(tracer.spans) if s[0] == "fake.outer"]
    inner = next(s for s in tracer.spans if s[0] == "fake.inner")
    assert inner[3] == outer_id
    rows = tracer.summary()
    calls, total, own = rows["fake.outer"]
    assert calls == 1
    assert abs(own - (total - rows["fake.inner"][1])) < 1e-9


def test_benchmark_json_names_the_metrics_the_run_reports():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
