"""Deterministic automata keep one table, flat rows of ints.

`transitions` stays the (state, symbol) -> frozenset mapping of every
automaton: on a deterministic one it is a view over the rows.  These tests
pin that view to the dict tables the determinizers built before the rows,
pin the step counts and the emitted HOA of the perfbench corpora, and
check that every fault of a deterministic table is still named as it was,
through the constructor and through `parse_hoa`.  They also pin the
tables `parse_hoa` fills for the sources of the corpora, key order
included, and check that the constructor judges a table deterministic by
one rule.
"""

import hashlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegadet import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    HoaError,
    Lasso,
    MalformedAutomaton,
    ParityAcceptance,
    compact,
    dualize_parity,
    emit_hoa,
    parse_hoa,
    run_deterministic,
    safra,
)
from omegadet.automata import RowView
from omegadet.random_gen import random_nbw, random_nsw

from helpers import child_env, perfbench_corpus, structurally_equal


def _table_digest(automata) -> str:
    """sha256 over each automaton's (state, symbol) -> frozenset table, sorted."""
    h = hashlib.sha256()
    for a in automata:
        h.update(repr(sorted(dict(a.transitions).items())).encode())
    return h.hexdigest()


# The constructions of each corpus: (module, step, determinizer).
_BUCHI = (
    (compact, "compact_step", compact.nbw_to_dpw),
    (safra, "safra_step", safra.safra_determinize),
)
_STREETT = (
    (compact, "compact_streett_step", compact.nsw_to_dpw),
    (safra, "streett_safra_step", safra.streett_safra_determinize),
)

# Per perfbench workload at seed 3, for the DPW and then the DRW: the step
# calls of the closure and `_table_digest` of the outputs.  The digests are
# those of the (state, symbol) dicts that `explore` built before the rows.
CORPUS_PINS = {
    "tv-buchi": (
        (35_240, "6ff80f6b0acb27c0ea0051c556f0ab59fe2e3b23c895490524452ec72729c26a"),
        (38_026, "50048ff82803e4242cc48fc2ef8acd9005b2fcb07bf08e8a30bab08d66e9bc21"),
    ),
    "full-n3": (
        (1_167, "1532f27d31ab53460937d0038c589bf2ba950e21477fe95fc920144b35376804"),
        (2_271, "0b47ba09c68c7edcc0e532d0ed45183a2eae6e2cae09d3b204845739b6cb8c2e"),
    ),
    "streett": (
        (3_925, "2fd960ea82e3aba016038fc3cdafc99db63b205c728ca9012dab67a1417d43b2"),
        (11_156, "66fb816087a85eed134ed5d52ee40002c262ee301e37debf950c035a30b4ba46"),
    ),
}

# Per perfbench workload at seed 3, the digest of the emitted DPW and DRW
# texts, the last line of `scripts/hoa_digests.py`: it pins the acceptance
# sets, which the table digests leave out.
HOA_PINS = {
    "tv-buchi": "2ba49e7db74defc26c0a28b60c0146e9bb854d700ab317c1ea460b38808420cf",
    "full-n3": "9134fa1d4779df5f0ab7db906eb34da1c41baca39d54feaa56bbcee099136d67",
    "streett": "2184c38b59cdc1deeb96e0dbbdca13a08994b8c76c0b33099193a51bc09f60cc",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload", sorted(CORPUS_PINS))
def test_corpus_tables_and_step_counts_are_pinned(monkeypatch, workload):
    sources = [parse_hoa(text) for text in perfbench_corpus().build(workload, 3).inputs]
    constructions = _STREETT if workload == "streett" else _BUCHI
    texts = []  # per construction, the emitted text of each output
    for (module, step, determinize), (calls, digest) in zip(
        constructions, CORPUS_PINS[workload]
    ):
        original = getattr(module, step)
        count = 0

        def counting(*args):
            nonlocal count
            count += 1
            return original(*args)

        monkeypatch.setattr(module, step, counting)
        outputs = [determinize(a) for a in sources]
        assert count == calls, step
        assert _table_digest(outputs) == digest
        texts.append(list(map(emit_hoa, outputs)))
        for d, text in zip(outputs, texts[-1]):
            assert len(d.rows) == d.state_count * len(d.alphabet)
            assert parse_hoa(text) == d
    lines = [f"{i} {_sha256(dpw)} {_sha256(drw)}" for i, (dpw, drw) in enumerate(zip(*texts))]
    assert _sha256("\n".join(lines)) == HOA_PINS[workload]


# `_table_digest` of the dict tables of ten small random automata each.
RANDOM_PINS = [
    (lambda s: random_nbw(4, s), compact.nbw_to_dpw,
     "6ced978b9e60731a1d735a42a7ede29d5411938e4882cae711252b54323d137c"),
    (lambda s: random_nbw(4, s), safra.safra_determinize,
     "5dd40efc5daa34cdfa860cc0274eea4ecebb6116229645541f7941e243e2a285"),
    (lambda s: random_nsw(3, 2, s), compact.nsw_to_dpw,
     "b76534f8cb0660bad3592fbb6f9c5c56c2afbc94d061072f349833fe50087324"),
    (lambda s: random_nsw(3, 2, s), safra.streett_safra_determinize,
     "0406bde9a992a48fdf87eb203b6b91c5efa30fbde3067cedd27b2df9b1954a26"),
]


@pytest.mark.parametrize(
    "source,determinize,digest",
    RANDOM_PINS,
    ids=["nbw_to_dpw", "safra_determinize", "nsw_to_dpw", "streett_safra_determinize"],
)
def test_random_tables_are_pinned(source, determinize, digest):
    outputs = [determinize(source(seed)) for seed in range(10)]
    assert _table_digest(outputs) == digest
    for d in outputs:
        # emitted letters are AP valuations, so only the structure returns
        assert structurally_equal(parse_hoa(emit_hoa(d)), d)


def _fill_digest(automata) -> str:
    """sha256 over each automaton's `deterministic` and table, in the table's key order."""
    h = hashlib.sha256()
    for a in automata:
        table = [(key, sorted(targets)) for key, targets in a.transitions.items()]
        h.update(repr((a.deterministic, table)).encode())
    return h.hexdigest()


# `_fill_digest` of the parsed sources of each perfbench workload at seed 3,
# as `parse_hoa` filled them before it had one fill path.
SOURCE_FILL_PINS = {
    "tv-buchi": "131103848d23d23cd7895bb794625d4973c648e48315d89a04253f4a252317ef",
    "full-n3": "b0d86c95197a8a1bb3708874ad20e71fcca4e5cbdf2868f04552ef568c9a7ede",
    "streett": "c7c8efd79d48f7efed8b79011fbe480270c923bcf87055b266d568297db1442f",
}


@pytest.mark.parametrize("workload", sorted(SOURCE_FILL_PINS))
def test_source_tables_are_filled_as_before(workload):
    sources = [parse_hoa(text) for text in perfbench_corpus().build(workload, 3).inputs]
    assert _fill_digest(sources) == SOURCE_FILL_PINS[workload]


_HEAD = 'HOA: v1\nStates: 3\nStart: 0\nAP: 1 "p0"\nacc-name: Buchi\nAcceptance: 1 Inf(0)\n'


def test_a_table_keeps_the_order_of_its_first_edges():
    """Keys come in the order their first edge comes, with every target once."""
    doc = _HEAD + (
        "--BODY--\nState: 0 {0}\n[0] 2\n[!0] 1\n[0] 0\n[0] 2\n[0] 1\n"
        "State: 2\n[!0] 0\n[!0] 2\n[!0] 0\n[0] 1\nState: 1\n[0] 1\n--END--\n"
    )
    a = parse_hoa(doc)
    assert not a.deterministic and type(a.transitions) is dict
    assert [(key, sorted(targets)) for key, targets in a.transitions.items()] == [
        ((0, "1"), [0, 1, 2]), ((0, "0"), [1]), ((2, "0"), [0, 2]), ((2, "1"), [1]),
        ((1, "1"), [1]),
    ]


def test_a_late_second_target_of_a_deterministic_document_is_named():
    """State 0's second target on letter 1 comes after the edges of states 2 and 1."""
    doc = _HEAD + (
        "properties: deterministic\n--BODY--\nState: 2\n[!0] 1\n[0] 0\n"
        "State: 1\n[0] 2\n[!0] 1\nState: 0 {0}\n[0] 1\n[!0] 0\n[0] 1\n[0] 2\n--END--\n"
    )
    with pytest.raises(HoaError) as err:
        parse_hoa(doc)
    assert (str(err.value), err.value.line) == (
        "malformed automaton: deterministic: (0, '1') has 2 successors, want 1",
        None,
    )


def _two_letter_dpw(rows) -> Automaton:
    return Automaton(
        alphabet=Alphabet(("a", "b")),
        state_count=2,
        initial=0,
        transitions=rows,
        acceptance=ParityAcceptance((0, 1), 2),
        deterministic=True,
    )


class TestTheView:
    def test_a_caller_list_is_copied(self):
        rows = [1, 0, 0, 1]
        view = RowView(Alphabet(("a", "b")), rows)
        a = _two_letter_dpw(view)
        rows[0] = 0
        assert a.rows == (1, 0, 0, 1)
        assert a.transitions[0, "a"] == frozenset({1})

    def test_a_caller_dict_is_copied(self):
        targets = {1}
        table = {(0, "a"): targets, (0, "b"): {0}, (1, "a"): {0}, (1, "b"): {1}}
        a = _two_letter_dpw(table)
        table[0, "b"] = {1}
        targets.add(0)
        assert a.rows == (1, 0, 0, 1)
        assert dict(a.transitions) == {
            (0, "a"): frozenset({1}), (0, "b"): frozenset({0}),
            (1, "a"): frozenset({0}), (1, "b"): frozenset({1}),
        }

    def test_reads_like_the_dict_table(self):
        a = _two_letter_dpw({(0, "a"): {1}, (0, "b"): {0}, (1, "a"): {0}, (1, "b"): {1}})
        table = dict(a.transitions)
        assert isinstance(a.transitions, RowView)
        assert a.transitions == table and table == a.transitions
        assert list(a.transitions) == [(0, "a"), (0, "b"), (1, "a"), (1, "b")]
        assert list(a.transitions.items()) == list(table.items())
        assert len(a.transitions) == 4
        # one shared frozenset per target
        assert a.transitions[0, "b"] is a.transitions[1, "a"]
        for key in [(2, "a"), (-1, "a"), (0, "c"), (0.0, "a"), 0, (0, "a", 1)]:
            assert key not in a.transitions
            assert a.transitions.get(key) is None
        assert a.dstep(1, "b") == 1
        with pytest.raises(KeyError):
            a.dstep(2, "a")
        assert repr(a.transitions) == repr(table)

    def test_views_over_different_alphabets_differ(self):
        ab, ba = Alphabet(("a", "b")), Alphabet(("b", "a"))
        assert RowView(ab, [1, 0]) != RowView(ba, [1, 0])
        # the same mapping, read off rows in another letter order
        assert RowView(ab, [1, 0]) == RowView(ba, [0, 1])

    def test_dualizing_shares_the_rows(self):
        a = _two_letter_dpw(RowView(Alphabet(("a", "b")), [1, 0, 0, 1]))
        assert dualize_parity(a).rows is a.rows

    @pytest.mark.parametrize("reader", ["rows", "dstep"])
    def test_only_a_deterministic_automaton_has_rows(self, reader):
        a = random_nbw(3, 0)
        assert not a.deterministic
        with pytest.raises(ValueError, match=f"^{reader}: deterministic automaton required$"):
            a.rows if reader == "rows" else a.dstep(0, a.alphabet.symbols[0])

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_an_empty_alphabet_is_malformed_as_for_a_dict(self, deterministic):
        empty = Alphabet(())
        for table in (RowView(empty, []), {}):
            with pytest.raises(MalformedAutomaton, match="alphabet: empty"):
                Automaton(empty, 1, 0, table, BuchiAcceptance(()), deterministic)

    def test_a_nondeterministic_copy_gets_a_dict(self):
        a = _two_letter_dpw(RowView(Alphabet(("a", "b")), [1, 0, 0, 1]))
        b = Automaton(a.alphabet, 2, 0, a.transitions, BuchiAcceptance({0}))
        assert type(b.transitions) is dict and b.transitions == a.transitions


# ---------------------------------------------------------------------------
# Diagnostics of a deterministic table: one edit to a total table
# ---------------------------------------------------------------------------

# Letter i of the one-AP documents `emit_hoa` writes is named str(i), and
# its edge label is [!0] or [0].
_LETTERS = ("0", "1")

_EDITS = ("drop", "second target", "out of range", "True", "1.0", "unknown symbol")


@st.composite
def _edited_tables(draw):
    """A total 2-letter table of n states, one edit, and what the edit names."""
    n = draw(st.integers(min_value=2, max_value=4))
    rows = draw(st.lists(st.integers(0, n - 1), min_size=2 * n, max_size=2 * n))
    s = draw(st.integers(0, n - 1))
    i = draw(st.integers(0, 1))
    kind = draw(st.sampled_from(_EDITS))
    value = None
    if kind == "second target":
        value = draw(st.integers(0, n - 1).filter(lambda t: t != rows[2 * s + i]))
    elif kind == "out of range":
        value = draw(st.sampled_from((n, n + 1, 10**6)))
    return n, rows, s, i, kind, value


def _constructor_diagnostics(n, s, i, kind, value) -> list[str]:
    """The diagnostics of the edit, as the constructor has always named them."""
    sym = _LETTERS[i]
    entry = f"transition ({s}, {sym!r})"
    return {
        "drop": [f"deterministic: ({s}, {sym!r}) has 0 successors, want 1"],
        "second target": [f"deterministic: ({s}, {sym!r}) has 2 successors, want 1"],
        "out of range": [f"{entry}: state {value} out of range [0, {n})"],
        "True": [f"{entry}: state True is not an int"],
        "1.0": [f"{entry}: state 1.0 is not an int"],
        "unknown symbol": [
            f"transition: unknown symbol 'z' at state {s}",
            f"deterministic: ({s}, {sym!r}) has 0 successors, want 1",
        ],
    }[kind]


def _hoa_error(n, s, i, kind, value, line) -> tuple[str, int | None]:
    """The text and line of the HoaError that the edited document raises."""
    malformed = "malformed automaton: " + _constructor_diagnostics(n, s, i, kind, value)[0]
    return {
        "drop": (malformed, None),
        "second target": (malformed, None),
        "out of range": (f"line {line}: edge target '{value}' out of range", line),
        "True": (f"line {line}: unsupported edge target 'True' (single target state only)", line),
        "1.0": (f"line {line}: unsupported edge target '1.0' (single target state only)", line),
        "unknown symbol": (f"line {line}: label references AP '1' but only 1 exist", line),
    }[kind]


@settings(max_examples=300, deadline=None)
@given(edit=_edited_tables())
def test_an_edited_table_is_named_as_before(edit):
    n, rows, s, i, kind, value = edit
    alphabet = Alphabet(_LETTERS)
    table = {(q, sym): {rows[2 * q + j]} for q in range(n) for j, sym in enumerate(_LETTERS)}
    key = (s, _LETTERS[i])
    if kind == "drop":
        del table[key]
    elif kind == "second target":
        table[key] = table[key] | {value}
    elif kind == "unknown symbol":
        table[s, "z"] = table.pop(key)
    else:
        table[key] = {{"True": True, "1.0": 1.0}.get(kind, value)}
    want = _constructor_diagnostics(n, s, i, kind, value)
    tables = [table]
    if kind in ("out of range", "True", "1.0"):
        # the same edit in the rows
        edited = list(rows)
        edited[2 * s + i] = next(iter(table[key]))
        tables.append(RowView(alphabet, edited))
    for transitions in tables:
        with pytest.raises(MalformedAutomaton) as exc:
            Automaton(alphabet, n, 0, transitions, BuchiAcceptance({0}), deterministic=True)
        assert exc.value.diagnostics == want

    good = Automaton(alphabet, n, 0, RowView(alphabet, rows), BuchiAcceptance({0}), True)
    lines = emit_hoa(good).splitlines()
    # the edge of state s on letter i follows the state's line
    index = next(k for k, x in enumerate(lines) if x.split(" ")[:2] == ["State:", str(s)])
    index += 1 + i
    label = lines[index].split(" ")[0]
    if kind == "drop":
        del lines[index]
    elif kind == "second target":
        lines.insert(index + 1, f"{label} {value}")
    elif kind == "unknown symbol":
        lines[index] = f"[1] {rows[2 * s + i]}"
    else:
        lines[index] = f"{label} {value if kind == 'out of range' else kind}"
    with pytest.raises(HoaError) as err:
        parse_hoa("\n".join(lines) + "\n")
    assert (str(err.value), err.value.line) == _hoa_error(n, s, i, kind, value, index + 1)


def test_a_deterministic_document_of_a_billion_states_fails_in_bounded_memory():
    """A 'deterministic' document declaring 10**9 states, with edges for one.

    The child runs under a 1 GiB address-space limit, so a parser or a
    constructor that allocates n·|Σ| slots before it counts the edges fails
    there with MemoryError instead of naming the missing row.
    """
    doc = (
        'HOA: v1\nStates: 1000000000\nStart: 0\nAP: 1 "p0"\nacc-name: Buchi\n'
        "Acceptance: 1 Inf(0)\nproperties: deterministic\n--BODY--\n"
        "State: 0 {0}\n[!0] 0\n[0] 0\n--END--\n"
    )
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from omegadet.hoa import HoaError, parse_hoa\n"
        "try:\n"
        "    parse_hoa(sys.stdin.read())\n"
        "except HoaError as exc:\n"
        "    print(exc, exc.line)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=doc,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "malformed automaton: deterministic: (1, '0') has 0 successors, want 1"
        " (and 1 more) None\n"
    )


_STATES = st.integers(min_value=-1, max_value=3) | st.sampled_from(["x", 0.5, True, 1.0])
# Entries that name no successor: the constructor drops them before it
# judges the table, wherever they are.
_FALSY = st.sampled_from([frozenset(), [], None])


@st.composite
def _falsy_entries(draw, n):
    """Falsy entries under a key of the table, an unknown symbol or a source out of range."""
    known = st.tuples(st.integers(0, max(n - 1, 0)), st.sampled_from("ab"))
    unknown = st.tuples(st.integers(0, max(n - 1, 0)), st.just("z"))
    outside = st.tuples(st.sampled_from([-1, n, n + 1]), st.sampled_from("ab"))
    return draw(st.dictionaries(known | unknown | outside, _FALSY, max_size=3))


@st.composite
def _tables(draw):
    """n, and a table of n states over a and b: random entries, then falsy ones."""
    n = draw(st.integers(min_value=0, max_value=3))
    table = draw(st.dictionaries(
        st.tuples(_STATES, st.sampled_from("abz")),
        st.frozensets(_STATES, max_size=2),
        max_size=8,
    ))
    if draw(st.booleans()):
        # total and in range, so only the falsy entries below can spoil it
        targets = st.integers(0, max(n - 1, 0)).map(lambda t: frozenset((t,)))
        table = {(s, sym): draw(targets) for s in range(n) for sym in "ab"}
    table.update(draw(_falsy_entries(n)))
    return n, table


@settings(max_examples=400, deadline=None)
@given(tables=_tables(), as_rows=st.booleans())
def test_a_deterministic_automaton_is_refused_or_has_rows(tables, as_rows):
    """Whatever the table, the rows' checks and the listing of faults agree."""
    n, table = tables
    alphabet = Alphabet(("a", "b"))
    if as_rows:
        # the same entries in a view, in table order
        table = RowView(alphabet, [next(iter(ts or ()), "x") for ts in table.values()])
    try:
        a = Automaton(alphabet, n, 0, table, BuchiAcceptance(()), deterministic=True)
    except MalformedAutomaton as exc:
        assert exc.diagnostics
    else:
        assert type(a.transitions) is RowView
        assert len(a.rows) == n * 2
        if not as_rows:
            assert a.transitions == {key: frozenset(ts) for key, ts in table.items() if ts}


def test_an_empty_entry_does_not_keep_a_table_from_its_rows():
    """An empty entry for an unknown symbol is no successor: the table is total."""
    a = Automaton(
        Alphabet(("a",)),
        1,
        0,
        {(0, "a"): frozenset({0}), (0, "z"): frozenset()},
        ParityAcceptance((0,), 1),
        deterministic=True,
    )
    assert type(a.transitions) is RowView
    assert a.rows == (0,) and a.dstep(0, "a") == 0
    assert run_deterministic(a, Lasso((), ("a",))).accepted
    assert structurally_equal(parse_hoa(emit_hoa(a)), a)
