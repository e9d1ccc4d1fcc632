"""HOA v1 subset: state-based acceptance, complete conjunction labels.

The supported slice is exactly what the rest of the package produces:
explicit `States:`/`Start:`/`AP:` headers, one of four named acceptance
conditions, and edges labeled by complete conjunctions over all atomic
propositions.  Everything else is rejected with a diagnostic naming the
construct and its line.  Emission is byte-deterministic; symbols map to
AP valuations in bit order (bit j of the symbol index is the value of
AP j), so emitted alphabets always have power-of-two size.
"""

from __future__ import annotations

import re

from omegadet.automata import (
    Alphabet,
    Automaton,
    BuchiAcceptance,
    MalformedAutomaton,
    ParityAcceptance,
    RabinAcceptance,
    StreettAcceptance,
)


# A document's alphabet is every AP valuation, 2**AP letters, and the
# parser builds it before reading the body; 16 APs give 65,536 letters.
_AP_LIMIT = 16
# A message quotes at most this many characters of an offending value.
_QUOTE_LIMIT = 40


class HoaError(Exception):
    """Parse or emission failure; carries the offending 1-based line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# the acceptance table, shared by emit and parse
# ---------------------------------------------------------------------------


def _acceptance_name(kind: str, size: int) -> tuple[str, int]:
    """(acc-name, set count) of `kind` with `size` pairs or priorities."""
    if kind == "Buchi":
        return "Buchi", 1
    if kind == "parity":
        return f"parity min even {size}", size
    return f"{kind} {size}", 2 * size


def _acceptance_formula(kind: str, size: int) -> str:
    """The `Acceptance:` formula of `kind` with `size` pairs or priorities.

    With `_acceptance_name` this is the one HOA description of the four
    conditions: emit writes it, and the parser checks `acc-name:` and
    `Acceptance:` against it.  Pair i is sets 2i (Fin) and 2i+1 (Inf);
    priority p is set p.
    """
    if kind == "Buchi":
        return "Inf(0)"
    if kind == "parity":
        # Inf(0) | (Fin(1) & (Inf(2) | ...)), built in one pass
        ops = [("Inf({}) | ", "Fin({}) & ")[p % 2].format(p) for p in range(size - 1)]
        last = f"{'Inf' if size % 2 else 'Fin'}({size - 1})"
        opened = [f"{op}(" for op in ops[:-1]] + ops[-1:]
        return "".join(opened + [last, ")" * (size - 2)])
    inner, outer, empty = ("&", " | ", "f") if kind == "Rabin" else ("|", " & ", "t")
    pairs = [f"(Fin({2 * i}){inner}Inf({2 * i + 1}))" for i in range(size)]
    return outer.join(pairs) or empty


def _describe_acceptance(acc) -> tuple[str, int, str, list]:
    """acc-name, set count, formula and `sets[i]`, the states marked i, of acc."""
    if isinstance(acc, BuchiAcceptance):
        kind, size, sets = "Buchi", 1, [acc.accepting]
    elif isinstance(acc, RabinAcceptance):
        # (E, F) is Fin(E) & Inf(F)
        kind, size = "Rabin", len(acc.pairs)
        sets = [states for pair in acc.pairs for states in pair]
    elif isinstance(acc, StreettAcceptance):
        # (R, G) is Fin(G) | Inf(R), so G is the pair's first set
        kind, size = "Streett", len(acc.pairs)
        sets = [states for r, g in acc.pairs for states in (g, r)]
    else:  # parity
        kind, size = "parity", acc.index
        sets = [set() for _ in range(size)]
        for s, p in enumerate(acc.priorities):
            sets[p].add(s)
    return (*_acceptance_name(kind, size), _acceptance_formula(kind, size), sets)


def _build_acceptance(kind: str, sets: list, state_count: int):
    """Inverse of `_describe_acceptance` over the same set numbering."""
    if kind == "Buchi":
        return BuchiAcceptance(sets[0])
    if kind == "Rabin":
        return RabinAcceptance(tuple(zip(sets[0::2], sets[1::2])))
    if kind == "Streett":
        return StreettAcceptance(tuple(zip(sets[1::2], sets[0::2])))
    owned: dict[int, list[int]] = {}
    for p, states in enumerate(sets):
        for s in states:
            owned.setdefault(s, []).append(p)
    # stops at the first state without a State: line, so a large States:
    # count allocates nothing per declared state
    for s in range(state_count):
        if len(owned.get(s, ())) != 1:
            raise HoaError(
                f"parity automata need exactly one priority per state; state {s}"
                f" has {len(owned.get(s, ()))}"
            )
    return ParityAcceptance(tuple(owned[s][0] for s in range(state_count)), len(sets))


def _check_ap_count(ap_count: int, line: int | None = None) -> None:
    if ap_count > _AP_LIMIT:
        raise HoaError(
            f"AP: {ap_count} propositions exceed the supported maximum "
            f"of {_AP_LIMIT}",
            line,
        )


def _symbol_label(i: int, ap_count: int) -> str:
    return "&".join(
        f"{j}" if (i >> j) & 1 else f"!{j}" for j in range(ap_count)
    ) or "t"


def _valuation_symbols(ap_count: int) -> tuple[str, ...]:
    return tuple(
        "".join("1" if (i >> j) & 1 else "0" for j in range(ap_count)) or "t"
        for i in range(1 << ap_count)
    )


def emit_hoa(a: Automaton) -> str:
    """Serialize to the HOA subset; the alphabet must have 2**AP letters, AP <= 16."""
    size = len(a.alphabet)
    ap_count = size.bit_length() - 1
    if (1 << ap_count) != size:
        raise HoaError(
            f"alphabet size {size} is not a power of two; cannot map symbols to APs"
        )
    _check_ap_count(ap_count)
    name, set_count, formula, sets = _describe_acceptance(a.acceptance)
    lines = [
        "HOA: v1",
        f"States: {a.state_count}",
        f"Start: {a.initial}",
        "AP: "
        + " ".join([str(ap_count)] + [f'"p{j}"' for j in range(ap_count)]),
        f"acc-name: {name}",
        f"Acceptance: {set_count} {formula}",
    ]
    if a.deterministic:
        lines.append("properties: deterministic")
    lines.append("--BODY--")
    marks: dict[int, list[int]] = {s: [] for s in a.states()}
    for i, states in enumerate(sets):
        for s in states:
            marks[s].append(i)
    # each letter's label text is built once per document, not once per edge
    letters = [
        (sym, f"[{_symbol_label(i, ap_count)}] ") for i, sym in enumerate(a.alphabet)
    ]
    for s in a.states():
        suffix = " {" + " ".join(str(x) for x in marks[s]) + "}" if marks[s] else ""
        lines.append(f"State: {s}{suffix}")
        for sym, label in letters:
            for t in sorted(a.successors(s, sym)):
                lines.append(f"{label}{t}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_STATE_RE = re.compile(
    r"^State:\s*(?P<label>\[[^\]]*\]\s*)?(?P<num>[0-9]+)"
    r"(?P<name>\s+\"[^\"]*\")?(?P<acc>\s*\{[^}]*\})?\s*$"
)
# One match per line of the body, its lines joined by "\n": (label, target,
# marks, "") for an edge, a label and a target with optional {...} marks (a
# plain target is tried first), ("", "", "", the line stripped) for any
# other line.  [^\S\n] is \s within a line, as str.strip() sees it.
_BODY_LINE_RE = re.compile(
    r"^[^\S\n]*(?:(\[[^\]\n]*\])[^\S\n]*(\S+)(?:$|[^\S\n]*(\{[^}\n]*\})?[^\S\n]*$)"
    r"|(.*\S)?[^\S\n]*$)",
    re.MULTILINE,
)


def _number(text: str) -> int | None:
    """Value of text if it matches [0-9]+ and int() reads it, else None.

    str.isdigit() alone, like \\d, also accepts digits such as '²' or '٠',
    which int() refuses or reads; int() also refuses more digits than
    sys.get_int_max_str_digits() (4,300 by default).
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _quote(text: str, hint: str = "") -> str:
    """`text` quoted for a message, cut to `_QUOTE_LIMIT` characters, then `hint`.

    `_number` refuses an all-digit text only when int() cannot read it, so
    a long one is named by its length, and the hint does not apply to it.
    """
    if len(text) <= _QUOTE_LIMIT:
        return f"{text!r}{hint}"
    if text.isascii() and text.isdigit():
        return f"number too long ({len(text)} digits)"
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters){hint}"


def _parse_acc_name(value: str, line: int) -> tuple[str, int]:
    """(kind, size) of an acc-name; only the names `_acceptance_name` writes."""
    words = value.split()
    numbered = len(words) > 1 and _number(words[-1]) is not None
    size = int(words[-1]) if numbered else 1
    # parity needs at least one priority
    kind = words[0] if words and (size or words[0] != "parity") else None
    if kind == "parity" and numbered and len(words) == 4:
        if words[1:3] != ["min", "even"]:
            raise HoaError(
                f"unsupported parity polarity '{words[1]} {words[2]}'"
                " (only min even)",
                line,
            )
    if kind in ("Buchi", "Rabin", "Streett", "parity"):
        normal = words[:-1] + [str(size)] if numbered else words
        if _acceptance_name(kind, size)[0].split() == normal:
            return kind, size
    raise HoaError(f"unsupported acc-name: {_quote(value)}", line)


def _parse_label(text: str, ap_count: int, line: int) -> int:
    """Complete-conjunction label `[...]` of an edge -> symbol index."""
    body = text[1:-1].strip()
    shown = f"[{body}]" if len(body) <= _QUOTE_LIMIT else _quote(f"[{body}]")
    if ap_count == 0:
        if body == "t":
            return 0
        raise HoaError(
            f"label {shown} must be [t] in a document with 0 APs", line
        )
    if body in ("t", "f"):
        raise HoaError(
            f"incomplete label {shown}: every AP must appear exactly once", line
        )
    if "|" in body:
        raise HoaError(
            f"label {shown} is not a conjunction (alternatives unsupported)", line
        )
    seen: dict[int, bool] = {}
    for literal in body.split("&"):
        literal = literal.strip()
        negated = literal.startswith("!")
        if negated:
            literal = literal[1:].strip()
        ap = _number(literal)
        if ap is None:
            raise HoaError(f"malformed literal in label {shown}", line)
        if ap >= ap_count:
            raise HoaError(
                f"label references AP {_quote(str(ap))} but only {ap_count} exist",
                line,
            )
        if ap in seen:
            raise HoaError(f"label {shown} mentions AP {ap} twice", line)
        seen[ap] = not negated
    if len(seen) != ap_count:
        missing = sorted(set(range(ap_count)) - set(seen))
        raise HoaError(
            f"incomplete label {shown}: missing AP(s) {missing}", line
        )
    return sum(1 << ap for ap, positive in seen.items() if positive)


def _parse_marks(text: str | None, set_count: int, line: int) -> list[int]:
    if not text:
        return []
    marks = []
    for token in text.strip()[1:-1].split():  # {...}
        mark = _number(token)
        if mark is None:
            raise HoaError(f"malformed acceptance mark {_quote(token)}", line)
        if mark >= set_count:
            raise HoaError(
                f"acceptance mark {_quote(str(mark))} out of range"
                f" (only {set_count} sets)",
                line,
            )
        marks.append(mark)
    return marks


_HEADERS = ("States", "Start", "AP", "acc-name", "Acceptance")
_IGNORED_HEADERS = ("name", "tool")


def parse_hoa(text: str) -> Automaton:
    """Parse the HOA subset; raises HoaError with a line number on anything else."""
    lines = text.splitlines()
    # the header lines up to --BODY--, stripped, without blanks and comments
    numbered = []
    for index, raw in enumerate(lines):
        content = raw.strip()
        if content and not content.startswith("/*"):
            numbered.append((index + 1, content))
            if content == "--BODY--":
                break
    if not numbered:
        raise HoaError("empty document")
    if numbered[0][1] != "HOA: v1":
        raise HoaError("expected 'HOA: v1' on the first line", numbered[0][0])

    headers: dict[str, tuple[int, str]] = {}
    declared_deterministic = False

    for line, content in numbered[1:]:
        if content == "--BODY--":
            break
        name, colon, value = content.partition(":")
        if not colon:
            raise HoaError(f"unsupported header: {_quote(name)}", line)
        if name == "Alias":
            raise HoaError("aliases are unsupported", line)
        if name in _HEADERS:
            if name in headers:
                raise HoaError(f"multiple {name}: headers are unsupported", line)
            headers[name] = (line, value.strip())
        elif name == "properties":
            # informational except for "deterministic", which callers rely on
            declared_deterministic |= "deterministic" in value.split()
        elif name not in _IGNORED_HEADERS:
            raise HoaError(f"unsupported header: {_quote(name)}", line)
    else:
        raise HoaError("missing --BODY--")
    body_line = line

    for name in _HEADERS:
        if name not in headers:
            raise HoaError(f"missing {name}: header", body_line)

    line, value = headers["States"]
    state_count = _number(value)
    if state_count is None:
        raise HoaError(f"malformed States: {_quote(value)}", line)
    line, value = headers["Start"]
    initial = _number(value)
    if initial is None:
        raise HoaError(
            f"unsupported Start: {_quote(value, ' (single initial state only)')}",
            line,
        )
    line, value = headers["AP"]
    parts = value.split(None, 1)
    ap_count = _number(parts[0]) if parts else None
    if ap_count is None:
        raise HoaError(f"malformed AP: {_quote(value)}", line)
    _check_ap_count(ap_count, line)
    names = re.findall(r'"((?:[^"\\]|\\.)*)"', parts[1] if len(parts) > 1 else "")
    if len(names) != ap_count:
        raise HoaError(
            f"AP: declares {ap_count} propositions but names {len(names)}", line
        )
    line, value = headers["acc-name"]
    kind, size = _parse_acc_name(value, line)
    _, set_count = _acceptance_name(kind, size)
    line, value = headers["Acceptance"]
    parts = value.split(None, 1)
    if not parts or _number(parts[0]) != set_count:
        raise HoaError(f"Acceptance: expected {set_count} sets for this acc-name", line)
    given = (parts[1] if len(parts) > 1 else "").replace(" ", "")
    # the formula names every set, so a shorter one cannot match; checking
    # that first bounds the expected formula by the document's own size
    formula = None
    if len(given) < set_count or given != (
        formula := _acceptance_formula(kind, size)
    ).replace(" ", ""):
        expected = f" (expected {_quote(formula)})" if formula else ""
        raise HoaError(f"Acceptance: formula does not match acc-name{expected}", line)
    if initial >= state_count:
        raise HoaError(
            f"initial state {_quote(str(initial))} out of range", headers["Start"][0]
        )

    symbols = _valuation_symbols(ap_count)
    # label text -> symbol, and target text -> {target}; a text that fails
    # to parse is never stored, so it raises again on every line that has it
    letters: dict[str, str] = {}
    targets: dict[str, frozenset[int]] = {}
    transitions: dict[tuple[int, str], frozenset[int]] = {}
    marks_of: dict[int, list[int]] = {}
    current: int | None = None
    ended = False

    body = _BODY_LINE_RE.findall("\n".join(lines[body_line:]))
    for line, (label, target, marks, content) in enumerate(body, start=body_line + 1):
        if not target:  # any line but an edge continues or raises here
            if not content or content.startswith("/*"):
                continue
            if ended:
                raise HoaError("content after --END--", line)
            if content == "--END--":
                ended = True
                continue
            if content == "--ABORT--":
                raise HoaError("document aborted", line)
            if content.startswith("State:"):
                match = _STATE_RE.match(content)
                if not match:
                    raise HoaError(f"malformed State: line {_quote(content)}", line)
                if match.group("label"):
                    raise HoaError("state labels are unsupported", line)
                num = _number(match.group("num"))
                if num is None:
                    raise HoaError(f"malformed State: line {_quote(content)}", line)
                if num >= state_count:
                    raise HoaError(f"state {_quote(str(num))} out of range", line)
                if num in marks_of:
                    raise HoaError(f"duplicate State: {_quote(str(num))}", line)
                current = num
                marks_of[num] = _parse_marks(match.group("acc"), set_count, line)
                continue
            if current is None:
                raise HoaError("edge before any State: line", line)
            if content.startswith("["):
                raise HoaError(f"malformed edge {_quote(content)}", line)
            raise HoaError("implicit (unlabeled) edges are unsupported", line)
        if ended or current is None:
            raise HoaError(
                "content after --END--" if ended else "edge before any State: line",
                line,
            )
        if marks:
            raise HoaError(
                "edge acceptance marks are unsupported (state-based only)", line
            )
        single = targets.get(target)
        if single is None:
            number = _number(target)
            if number is None:
                raise HoaError(
                    "unsupported edge target "
                    + _quote(target, " (single target state only)"),
                    line,
                )
            if number >= state_count:
                raise HoaError(f"edge target {_quote(str(number))} out of range", line)
            single = targets[target] = frozenset((number,))
        symbol = letters.get(label)
        if symbol is None:
            symbol = letters[label] = symbols[_parse_label(label, ap_count, line)]
        key = (current, symbol)
        known = transitions.setdefault(key, single)
        if known is not single:
            transitions[key] = known | single

    if not ended:
        raise HoaError("missing --END--")

    sets: list[set[int]] = [set() for _ in range(set_count)]
    for s, marks in marks_of.items():
        for mark in marks:
            sets[mark].add(s)
    acceptance = _build_acceptance(kind, sets, state_count)
    try:
        return Automaton(
            alphabet=Alphabet(symbols),
            state_count=state_count,
            initial=initial,
            transitions=transitions,
            acceptance=acceptance,
            deterministic=declared_deterministic,
        )
    except MalformedAutomaton as err:  # a 'deterministic' document, not total
        raise HoaError(str(err)) from None
