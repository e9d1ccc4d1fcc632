"""End-to-end CLI behavior: exit codes, report lines, error channel."""

import contextlib
import io
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    StreettAcceptance,
    dualize_parity,
    nbw_to_dpw,
    nsw_to_dpw,
    random_nsw,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet import cli
from omegadet.cli import _build_parser, run_cli
from omegadet.hoa import emit_hoa, parse_hoa

from conftest import make_inf_a
from helpers import child_env


@pytest.fixture
def nbw_file(tmp_path):
    path = tmp_path / "nbw.hoa"
    path.write_text(emit_hoa(make_inf_a()))
    return str(path)


@pytest.fixture
def nsw_file(tmp_path):
    path = tmp_path / "nsw.hoa"
    path.write_text(emit_hoa(random_nsw(4, 2, 3)))
    return str(path)


@pytest.fixture
def dpw_file(tmp_path):
    path = tmp_path / "dpw.hoa"
    path.write_text(emit_hoa(nbw_to_dpw(make_inf_a())))
    return str(path)


def lines_of(capsys):
    out, err = capsys.readouterr()
    return out.splitlines(), err.splitlines()


class TestDeterminize:
    def test_writes_dpw_and_reports_stats(self, nbw_file, tmp_path, capsys):
        out_path = str(tmp_path / "out.hoa")
        code = run_cli(
            ["determinize", "--input", nbw_file,
             "--output", out_path, "--stats"]
        )
        out, _ = lines_of(capsys)
        assert code == 0
        assert out == ["states: 3", "max-priority: 3"]
        produced = parse_hoa(open(out_path).read())
        assert produced.deterministic
        assert produced.state_count == 3

    def test_safra_backend_reports_pairs(self, nbw_file, tmp_path, capsys):
        out_path = str(tmp_path / "drw.hoa")
        code = run_cli(
            ["determinize", "--backend", "safra",
             "--input", nbw_file, "--output", out_path, "--stats"]
        )
        out, _ = lines_of(capsys)
        assert code == 0
        assert out == ["states: 2", "pairs: 2"]

    @pytest.mark.parametrize("backend", ["compact", "safra"])
    def test_streett_input_matches_the_library(
        self, nsw_file, backend, tmp_path, capsys
    ):
        out_path = tmp_path / "out.hoa"
        code = run_cli(
            ["determinize", "--backend", backend, "--input", nsw_file,
             "--output", str(out_path), "--stats"]
        )
        out, _ = lines_of(capsys)
        assert code == 0
        nsw = random_nsw(4, 2, 3)
        if backend == "compact":
            result = nsw_to_dpw(nsw)
            last = f"max-priority: {max(result.acceptance.priorities)}"
        else:
            result = streett_safra_determinize(nsw)
            last = f"pairs: {len(result.acceptance.pairs)}"
        assert out_path.read_text() == emit_hoa(result)
        assert out == [f"states: {result.state_count}", last]

    def test_type_mismatch_is_a_usage_error(self, dpw_file, tmp_path, capsys):
        code = run_cli(
            ["determinize", "--input", dpw_file,
             "--output", str(tmp_path / "x.hoa")]
        )
        _, err = lines_of(capsys)
        assert code == 2
        assert err and err[0].startswith("error:")

    def test_unwritable_output_is_usage_error(self, nbw_file, tmp_path, capsys):
        out_path = tmp_path / "no-such-dir" / "out.hoa"
        code = run_cli(["determinize", "--input", nbw_file, "--output", str(out_path)])
        _, err = lines_of(capsys)
        assert code == 2
        assert err == [f"error: cannot write {out_path}: No such file or directory"]

    def test_missing_input_file(self, tmp_path, capsys):
        code = run_cli(
            ["determinize",
             "--input", str(tmp_path / "nope.hoa"),
             "--output", str(tmp_path / "x.hoa")]
        )
        _, err = lines_of(capsys)
        assert code == 2
        assert "cannot read" in err[0]


class TestMember:
    def test_accepted_word(self, dpw_file, capsys):
        code = run_cli(["member", "--input", dpw_file, "--period", "0"])
        out, _ = lines_of(capsys)
        assert code == 0
        assert out[0] == "accepted: true"
        assert out[1].startswith("cycle-entry:")
        assert out[2].startswith("cycle-size:")
        assert out[3] == "cycle-priorities: 0"

    def test_rejected_word_exits_one(self, dpw_file, capsys):
        code = run_cli(
            ["member", "--input", dpw_file, "--prefix", "0,0", "--period", "1"]
        )
        out, _ = lines_of(capsys)
        assert code == 1
        assert out[0] == "accepted: false"
        assert out[3] == "cycle-priorities: 3"

    def test_nondeterministic_input_uses_the_oracle(self, nbw_file, capsys):
        code = run_cli(["member", "--input", nbw_file, "--period", "0,1"])
        out, _ = lines_of(capsys)
        assert code == 0
        assert out == ["accepted: true"]

    def test_unknown_symbol_is_usage_error(self, dpw_file, capsys):
        code = run_cli(["member", "--input", dpw_file, "--period", "z"])
        _, err = lines_of(capsys)
        assert code == 2
        assert "'z'" in err[0] and "(0 1)" in err[0]

    @pytest.mark.parametrize("fixture", ["nbw_file", "nsw_file"])
    def test_unknown_symbol_is_usage_error_for_nondeterministic_input(
        self, fixture, request, capsys
    ):
        path = request.getfixturevalue(fixture)
        code = run_cli(["member", "--input", path, "--prefix", "z", "--period", "z"])
        _, err = lines_of(capsys)
        assert code == 2
        assert len(err) == 1 and "_member: symbol 'z'" in err[0]

    def test_empty_symbol_is_usage_error(self, dpw_file, capsys):
        code = run_cli(["member", "--input", dpw_file, "--period", "0,,1"])
        _, err = lines_of(capsys)
        assert code == 2
        assert err == ["error: empty symbol in word '0,,1'"]

    def test_empty_period_is_usage_error(self, dpw_file, capsys):
        code = run_cli(["member", "--input", dpw_file, "--period", ""])
        _, err = lines_of(capsys)
        assert code == 2
        assert "period" in err[0]


class TestComplement:
    def test_flips_every_verdict(self, dpw_file, tmp_path, capsys):
        comp_path = str(tmp_path / "comp.hoa")
        assert run_cli(["complement", "--input", dpw_file, "--output", comp_path]) == 0
        capsys.readouterr()
        for period, original in (("0", 0), ("1", 1)):
            assert run_cli(["member", "--input", dpw_file, "--period", period]) == original
            assert run_cli(["member", "--input", comp_path, "--period", period]) == 1 - original
        capsys.readouterr()

    def test_buchi_input_is_determinized_first(self, nbw_file, tmp_path, capsys):
        comp_path = str(tmp_path / "comp.hoa")
        assert run_cli(["complement", "--input", nbw_file, "--output", comp_path]) == 0
        capsys.readouterr()
        assert run_cli(["member", "--input", comp_path, "--period", "1"]) == 0
        assert run_cli(["member", "--input", comp_path, "--period", "0"]) == 1
        capsys.readouterr()

    def test_streett_input_is_determinized_first(self, nsw_file, tmp_path):
        comp_path = tmp_path / "comp.hoa"
        code = run_cli(["complement", "--input", nsw_file, "--output", str(comp_path)])
        assert code == 0
        expected = emit_hoa(dualize_parity(nsw_to_dpw(random_nsw(4, 2, 3))))
        assert comp_path.read_text() == expected

    def test_refuses_nondeterministic_parity(self, dpw_file, tmp_path, capsys):
        text = open(dpw_file).read().replace("properties: deterministic\n", "")
        nd_path = tmp_path / "nd.hoa"
        nd_path.write_text(text)
        code = run_cli(
            ["complement", "--input", str(nd_path),
             "--output", str(tmp_path / "x.hoa")]
        )
        _, err = lines_of(capsys)
        assert code == 2
        assert "parity" in err[0]


class TestXcheck:
    def test_agreement_exits_zero(self, nbw_file, dpw_file, capsys):
        code = run_cli(
            ["xcheck", "--left", nbw_file, "--right", dpw_file,
             "--max-prefix", "2", "--max-period", "3"]
        )
        out, _ = lines_of(capsys)
        assert code == 0
        assert "lassos: 98" in out
        assert "agreed: 98" in out
        assert "disagreements: 0" in out

    def test_disagreement_prints_lasso_and_exits_one(
        self, dpw_file, tmp_path, capsys
    ):
        comp_path = str(tmp_path / "comp.hoa")
        run_cli(["complement", "--input", dpw_file, "--output", comp_path])
        capsys.readouterr()
        code = run_cli(
            ["xcheck", "--left", dpw_file, "--right", comp_path,
             "--max-prefix", "1", "--max-period", "2"]
        )
        out, _ = lines_of(capsys)
        assert code == 1
        assert "agreed: 0" in out
        assert any(line.startswith("first-disagreement:") for line in out)
        assert "left: true" in out or "left: false" in out

    def test_random_mode_self_checks(self, capsys):
        code = run_cli(
            ["xcheck", "--random", "4", "--states", "3", "--seed", "5",
             "--max-prefix", "2", "--max-period", "2"]
        )
        out, _ = lines_of(capsys)
        assert code == 0
        assert out[0] == "checked: 4"
        assert out[-1] == "disagreements: 0"

    def test_random_mode_reports_a_disagreement(self, monkeypatch, capsys):
        # a determinizer that complements: every lasso disagrees, the first
        # automaton stops the check
        monkeypatch.setattr(cli, "nbw_to_dpw", lambda a: dualize_parity(nbw_to_dpw(a)))
        code = run_cli(
            ["xcheck", "--random", "3", "--states", "2", "--seed", "1",
             "--max-prefix", "0", "--max-period", "1"]
        )
        out, _ = lines_of(capsys)
        assert code == 1
        assert out[:4] == ["automaton: 0", "lassos: 2", "agreed: 0", "disagreements: 2"]
        assert out[4].startswith("first-disagreement: ")
        assert out[5:] in (["left: true", "right: false"], ["left: false", "right: true"])

    def test_random_mode_is_reproducible(self, capsys):
        args = ["xcheck", "--random", "3", "--states", "2", "--seed", "9",
                "--max-prefix", "1", "--max-period", "2"]
        run_cli(args)
        first = capsys.readouterr().out
        run_cli(args)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "budget",
        [
            ["--random", "-3", "--states", "3", "--max-prefix", "1", "--max-period", "2"],
            ["--random", "0", "--states", "3", "--max-prefix", "1", "--max-period", "2"],
            ["--random", "2", "--states", "0", "--max-prefix", "1", "--max-period", "2"],
            ["--random", "2", "--states", "3", "--max-prefix", "1", "--max-period", "0"],
            ["--random", "2", "--states", "3", "--max-prefix", "-1", "--max-period", "2"],
        ],
    )
    def test_empty_random_check_is_usage_error(self, budget, capsys):
        code = run_cli(["xcheck", *budget])
        out, err = lines_of(capsys)
        assert code == 2
        assert "disagreements: 0" not in out
        assert err[0].startswith("error:")

    @pytest.mark.parametrize("bounds", [("1", "0"), ("-1", "2")])
    def test_empty_file_check_is_usage_error(self, nbw_file, dpw_file, bounds, capsys):
        code = run_cli(
            ["xcheck", "--left", nbw_file, "--right", dpw_file,
             "--max-prefix", bounds[0], "--max-period", bounds[1]]
        )
        out, err = lines_of(capsys)
        assert code == 2
        assert out == []
        assert err[0].startswith("error:")

    def test_alphabet_mismatch_is_usage_error(self, nbw_file, tmp_path, capsys):
        from omegadet import Alphabet, Automaton, BuchiAcceptance

        other = Automaton(
            alphabet=Alphabet(("p", "q", "r", "s")),
            state_count=1,
            initial=0,
            transitions={(0, sym): frozenset({0}) for sym in ("p", "q", "r", "s")},
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        other_path = tmp_path / "other.hoa"
        other_path.write_text(emit_hoa(other))
        code = run_cli(
            ["xcheck", "--left", nbw_file, "--right", str(other_path),
             "--max-prefix", "1", "--max-period", "1"]
        )
        _, err = lines_of(capsys)
        assert code == 2
        assert "alphabet" in err[0]


    def test_too_many_lassos_is_usage_error(self, tmp_path, capsys):
        symbols = tuple(format(i, "09b") for i in range(512))
        full = Automaton(
            alphabet=Alphabet(symbols),
            state_count=1,
            initial=0,
            transitions={(0, sym): frozenset({0}) for sym in symbols},
            acceptance=BuchiAcceptance(frozenset({0})),
        )
        path = tmp_path / "full.hoa"
        path.write_text(emit_hoa(full))
        code = run_cli(
            ["xcheck", "--left", str(path), "--right", str(path),
             "--max-prefix", "0", "--max-period", "3"]
        )
        out, err = lines_of(capsys)
        assert code == 2
        assert out == []
        assert "134480384 lassos" in err[0]


class TestStats:
    def test_nbw_report(self, nbw_file, capsys):
        assert run_cli(["stats", "--input", nbw_file]) == 0
        out, _ = lines_of(capsys)
        assert out == [
            "states: 2",
            "symbols: 2",
            "alphabet: 0 1",
            "acceptance: Buchi",
            "deterministic: false",
        ]

    def test_dpw_report(self, dpw_file, capsys):
        assert run_cli(["stats", "--input", dpw_file]) == 0
        out, _ = lines_of(capsys)
        assert out == [
            "states: 3",
            "symbols: 2",
            "alphabet: 0 1",
            "acceptance: parity min even 4",
            "deterministic: true",
        ]


    def test_too_many_aps_is_usage_error(self, nbw_file, tmp_path, capsys):
        names = " ".join(f'"p{j}"' for j in range(26))
        doc = open(nbw_file).read().replace('AP: 1 "p0"', f"AP: 26 {names}")
        path = tmp_path / "wide.hoa"
        path.write_text(doc)
        assert run_cli(["stats", "--input", str(path)]) == 2
        _, err = lines_of(capsys)
        assert err[0].startswith("error: line")
        assert "26 propositions" in err[0]


def _member_accepts_with_a_billion_declared_states(tmp_path, acceptance):
    """Check that `omegadet member` accepts 0·(1,0)^ω on a one-state
    automaton that declares 10**9 states.

    The child runs under a 1 GiB address-space limit, so an oracle that
    allocates per declared state fails there instead of in this process.
    """
    doc = emit_hoa(
        Automaton(
            alphabet=Alphabet(("0", "1")),
            state_count=1,
            initial=0,
            transitions={(0, "0"): frozenset({0}), (0, "1"): frozenset({0})},
            acceptance=acceptance,
        )
    ).replace("States: 1", "States: 1000000000")
    path = tmp_path / "huge.hoa"
    path.write_text(doc)
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from omegadet.cli import run_cli\n"
        "sys.exit(run_cli(sys.argv[1:]))\n"
    )
    env = child_env()
    proc = subprocess.run(
        [sys.executable, "-c", script, "member", "--input", str(path),
         "--prefix", "0", "--period", "1,0"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stdout == "accepted: true\n"


def test_member_of_a_huge_declared_automaton_runs_in_bounded_memory(tmp_path):
    """`member` on a one-state Buchi automaton declaring 10**9 states."""
    _member_accepts_with_a_billion_declared_states(
        tmp_path, BuchiAcceptance(frozenset({0}))
    )


def test_member_of_a_huge_declared_streett_automaton_runs_in_bounded_memory(tmp_path):
    """`member` on a one-state, one-pair Streett automaton declaring 10**9 states."""
    _member_accepts_with_a_billion_declared_states(
        tmp_path, StreettAcceptance(((frozenset({0}), frozenset({0})),))
    )


class TestModuleEntryPoint:
    """`python -m omegadet.cli` runs the tool from a checkout without installing."""

    def run(self, *argv):
        env = child_env()
        return subprocess.run(
            [sys.executable, "-m", "omegadet.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_stats_on_a_good_file(self, nbw_file):
        proc = self.run("stats", "--input", nbw_file)
        assert proc.returncode == 0, proc.stderr
        assert "states: 2" in proc.stdout.splitlines()

    def test_missing_file_exits_two(self, tmp_path):
        proc = self.run("stats", "--input", str(tmp_path / "absent.hoa"))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: cannot read")


def test_readme_command_line_examples_parse():
    """Every `omegadet ...` line in README's "Command line" block is valid usage."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8"
    )
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("omegadet ")]
    assert examples
    parser = _build_parser()
    for line in examples:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run_cli(["determinize"]) == 2

    def test_xcheck_needs_files_or_random(self, capsys):
        code = run_cli(["xcheck", "--max-prefix", "1", "--max-period", "1"])
        _, err = lines_of(capsys)
        assert code == 2


# Emitted documents of every acceptance kind the tool reads: the NBW for
# "infinitely many a", its DPW and Safra DRW, and a two-pair NSW.
DOCUMENTS = [
    emit_hoa(make_inf_a()),
    emit_hoa(nbw_to_dpw(make_inf_a())),
    emit_hoa(safra_determinize(make_inf_a())),
    emit_hoa(random_nsw(2, 2, 1)),
]
MUTATIONS = "0123456789 \n[]{}()!&|:tfInF-\"x"


@st.composite
def input_files(draw):
    """Text of an input file: an emitted document, maybe mutated; None if missing."""
    choice = draw(st.integers(min_value=-1, max_value=len(DOCUMENTS) - 1))
    if choice < 0:
        return None
    text = DOCUMENTS[choice]
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        # replace, delete or insert one character anywhere in the document
        at = rng.randrange(len(text))
        new = rng.choice(["", *MUTATIONS])
        text = text[:at] + new + text[at + rng.randint(0, 1):]
    return text


small = st.integers(min_value=-1, max_value=2).map(str)
words = st.lists(st.sampled_from(["0", "1", "x"]), max_size=3).map(",".join)


@st.composite
def cli_runs(draw):
    """(argv with INPUT/LEFT/RIGHT/OUTPUT placeholders, file texts by placeholder)."""
    command = draw(
        st.sampled_from(["determinize", "complement", "member", "xcheck", "stats"])
    )
    files = {}
    argv = [command]
    if command == "xcheck" and draw(st.booleans()):
        argv += ["--random", draw(small), "--seed", draw(small)]
        if draw(st.booleans()):
            argv += ["--states", str(draw(st.integers(min_value=-1, max_value=3)))]
    elif command == "xcheck":
        files = {"LEFT": draw(input_files()), "RIGHT": draw(input_files())}
        argv += ["--left", "LEFT", "--right", "RIGHT"]
    else:
        files = {"INPUT": draw(input_files())}
        argv += ["--input", "INPUT"]
    if command == "xcheck":
        argv += ["--max-prefix", draw(small), "--max-period", draw(small)]
    if command == "determinize":
        argv += ["--backend", draw(st.sampled_from(["compact", "safra"]))]
        argv += ["--stats"] * draw(st.integers(0, 1))
    if command in ("determinize", "complement"):
        argv += ["--output", "OUTPUT"]
    if command == "member":
        argv += ["--prefix", draw(words), "--period", draw(words)]
    return argv, files


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-contract")


@settings(max_examples=150, deadline=None)
@given(cli_runs())
def test_every_run_exits_0_1_or_2(run_dir, run):
    argv, files = run
    paths = {"OUTPUT": str(run_dir / "out.hoa")}
    for name, text in files.items():
        path = run_dir / f"{name}.hoa"
        if text is None:
            path.unlink(missing_ok=True)
        else:
            path.write_text(text)
        paths[name] = str(path)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = run_cli([paths.get(arg, arg) for arg in argv])
    assert code in (0, 1, 2), sink.getvalue()
