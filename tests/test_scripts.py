"""The scripts under scripts/ run from a checkout, as README shows them."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_pairs_summary_counts_wins_by_direction():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py"
    )
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)

    def run(pair, side, rate, p50):
        return {
            "workload": "w", "trace": 0, "pair": pair, "side": side,
            "failed": 0, "attempted": 1,
            "metrics": {"rate": rate, "p50": p50},
        }

    runs = [
        run(1, "base", 10.0, 4.0), run(1, "change", 20.0, 2.0),
        run(2, "change", 30.0, 5.0), run(2, "base", 10.0, 4.0),
        run(3, "base", 12.0, 4.0),  # a pair without its change run is left out
    ]
    summary = bench_pairs.summarize(runs, {"rate": "higher", "p50": "lower"})
    row = summary["w trace=0"]
    assert row["pairs"] == 2 and row["failed"] == 0
    assert row["metrics"]["rate"] == {
        "base_median": 10.0, "base_iqr": 0.0, "change_median": 25.0, "ratio": 2.5,
        "change_wins": 2,
    }
    assert row["metrics"]["p50"]["change_wins"] == 1
    # quartiles of the base rates 1, 2, 3, 4 are 1.25 and 3.75
    spread = bench_pairs.summarize(
        [run(i, side, float(i), 1.0) for i in range(1, 5) for side in ("base", "change")],
        {"rate": "higher", "p50": "lower"},
    )
    assert spread["w trace=0"]["metrics"]["rate"]["base_iqr"] == 2.5
    single = bench_pairs.summarize(runs[:2], {"rate": "higher", "p50": "lower"})
    assert single["w trace=0"]["metrics"]["rate"]["base_iqr"] is None


def test_bench_pairs_refuses_checkouts_with_different_benchmarks(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for side, seconds in (("base", spec["run_seconds"]), ("change", spec["run_seconds"] + 1)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            json.dumps({**spec, "run_seconds": seconds})
        )
    output = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
         "--workload", "tv-buchi", "--pairs", "1", "--seed", "1", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "different benchmarks" in proc.stderr
    assert not output.exists()


def test_hoa_digests_pins_the_full_n3_output():
    """The DPW and DRW texts of full-n3 at seed 3, as one digest per automaton.

    A change to the determinizers or to `emit_hoa` that moves a byte of
    this output fails here; one that is meant to must say why.
    """
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "hoa_digests.py"),
         "--workload", "full-n3", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == [*map(str, range(7)), "all"]
    assert lines[-1] == (
        "all 9134fa1d4779df5f0ab7db906eb34da1c41baca39d54feaa56bbcee099136d67"
    )


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    return mutants


def test_every_mutant_text_occurs_once():
    """A refactor that moves a catalogue entry's text must update the entry."""
    catalogue = _mutants().CATALOGUE
    assert len({m.name for m in catalogue}) == len(catalogue)
    for m in catalogue:
        assert (ROOT / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old and m.reason, m.name


def test_a_child_that_names_no_test_is_killed_with_its_signal(tmp_path):
    """A tier-1 child that a signal ends before pytest names a test is
    reported killed, with the signal and no test named; no mutant runs."""
    mutants = _mutants()
    (tmp_path / "conftest.py").write_text(
        "import os, signal\nos.kill(os.getpid(), signal.SIGTERM)\n"
    )
    verdict, test, _ = mutants.run_tier1(tmp_path)
    assert (verdict, test) == ("killed", "no test named (killed by SIGTERM)")
    assert mutants.unnamed(4) == "no test named (exit 4)"
    assert mutants.unnamed(-1000) == "no test named (killed by signal 1000)"


def test_a_mutant_changes_its_copy_only(tmp_path):
    mutants = _mutants()
    entry = mutants.CATALOGUE[0]
    before = (ROOT / entry.path).read_text()
    mutants.prepare(ROOT, tmp_path, entry)
    assert (ROOT / entry.path).read_text() == before
    assert (tmp_path / entry.path).read_text() == before.replace(entry.old, entry.new)
    assert (tmp_path / "tests" / "test_scripts.py").exists()
    output = "....F\n= short test summary info =\nFAILED tests/test_a.py::test_b[x - y] - Assert\n"
    assert mutants.first_failure(output) == "tests/test_a.py::test_b[x - y]"
    assert mutants.first_failure("5 passed\n") is None
