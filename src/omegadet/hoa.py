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
    ParityAcceptance,
    RabinAcceptance,
    StreettAcceptance,
)


# A document's alphabet is every AP valuation, 2**AP letters, and the
# parser builds it before reading the body; 16 APs give 65,536 letters.
_AP_LIMIT = 16


class HoaError(Exception):
    """Parse or emission failure; carries the offending 1-based line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# shared shapes
# ---------------------------------------------------------------------------


def _parity_formula(index: int) -> str:
    term = "Inf" if (index - 1) % 2 == 0 else "Fin"
    formula = f"{term}({index - 1})"
    wrapped = formula
    for p in range(index - 2, -1, -1):
        if p % 2 == 0:
            formula = f"Inf({p}) | {wrapped}"
        else:
            formula = f"Fin({p}) & {wrapped}"
        wrapped = f"({formula})"
    return formula


def _rabin_formula(k: int) -> str:
    if k == 0:
        return "f"
    return " | ".join(f"(Fin({2 * i})&Inf({2 * i + 1}))" for i in range(k))


def _streett_formula(k: int) -> str:
    if k == 0:
        return "t"
    return " & ".join(f"(Fin({2 * i})|Inf({2 * i + 1}))" for i in range(k))


def _acceptance_header(acc) -> tuple[str, int, str]:
    """(acc-name, set count, canonical formula) for a condition."""
    if isinstance(acc, BuchiAcceptance):
        return "Buchi", 1, "Inf(0)"
    if isinstance(acc, RabinAcceptance):
        k = len(acc.pairs)
        return f"Rabin {k}", 2 * k, _rabin_formula(k)
    if isinstance(acc, StreettAcceptance):
        k = len(acc.pairs)
        return f"Streett {k}", 2 * k, _streett_formula(k)
    if isinstance(acc, ParityAcceptance):
        return f"parity min even {acc.index}", acc.index, _parity_formula(acc.index)
    raise HoaError(f"cannot emit acceptance {type(acc).__name__}")


def _symbol_label(i: int, ap_count: int) -> str:
    if ap_count == 0:
        return "t"
    return "&".join(
        f"{j}" if (i >> j) & 1 else f"!{j}" for j in range(ap_count)
    )


def _valuation_symbols(ap_count: int) -> tuple[str, ...]:
    if ap_count == 0:
        return ("t",)
    return tuple(
        "".join("1" if (i >> j) & 1 else "0" for j in range(ap_count))
        for i in range(1 << ap_count)
    )


def _state_sets(a: Automaton) -> dict[int, list[int]]:
    """Acceptance-set memberships per state, sets ascending."""
    member: dict[int, list[int]] = {s: [] for s in a.states()}
    acc = a.acceptance
    if isinstance(acc, BuchiAcceptance):
        for s in sorted(acc.accepting):
            member[s].append(0)
    elif isinstance(acc, (RabinAcceptance, StreettAcceptance)):
        for i, (first, second) in enumerate(acc.pairs):
            for s in sorted(second if isinstance(acc, StreettAcceptance) else first):
                member[s].append(2 * i)
            for s in sorted(first if isinstance(acc, StreettAcceptance) else second):
                member[s].append(2 * i + 1)
        for s in member:
            member[s].sort()
    elif isinstance(acc, ParityAcceptance):
        for s in a.states():
            member[s].append(acc.priorities[s])
    return member


def emit_hoa(a: Automaton) -> str:
    """Serialize to the HOA subset; the alphabet size must be a power of two."""
    size = len(a.alphabet)
    ap_count = size.bit_length() - 1
    if size <= 0 or (1 << ap_count) != size:
        raise HoaError(
            f"alphabet size {size} is not a power of two; cannot map symbols to APs"
        )
    name, set_count, formula = _acceptance_header(a.acceptance)
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
    member = _state_sets(a)
    for s in a.states():
        marks = member[s]
        suffix = " {" + " ".join(str(x) for x in marks) + "}" if marks else ""
        lines.append(f"State: {s}{suffix}")
        for i, sym in enumerate(a.alphabet):
            for t in sorted(a.successors(s, sym)):
                lines.append(f"[{_symbol_label(i, ap_count)}] {t}")
    lines.append("--END--")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_START_RE = re.compile(r"^\d+$")
_STATE_RE = re.compile(
    r"^State:\s*(?P<label>\[[^\]]*\]\s*)?(?P<num>\d+)"
    r"(?P<name>\s+\"[^\"]*\")?(?P<acc>\s*\{[^}]*\})?\s*$"
)
_EDGE_RE = re.compile(
    r"^(?P<label>\[[^\]]*\])\s*(?P<target>\S+)(?P<acc>\s*\{[^}]*\})?\s*$"
)


def _parse_acc_name(value: str, line: int) -> tuple[str, int]:
    parts = value.split()
    if parts == ["Buchi"]:
        return "buchi", 1
    if len(parts) == 2 and parts[0] in ("Rabin", "Streett") and parts[1].isdigit():
        return parts[0].lower(), int(parts[1])
    if (
        len(parts) == 4
        and parts[0] == "parity"
        and parts[3].isdigit()
        and int(parts[3]) >= 1
    ):
        if parts[1:3] != ["min", "even"]:
            raise HoaError(
                f"unsupported parity polarity '{parts[1]} {parts[2]}'"
                " (only min even)",
                line,
            )
        return "parity", int(parts[3])
    raise HoaError(f"unsupported acc-name: {value!r}", line)


def _expected_acceptance(kind: str, arg: int) -> tuple[int, str]:
    if kind == "buchi":
        return 1, "Inf(0)"
    if kind == "rabin":
        return 2 * arg, _rabin_formula(arg)
    if kind == "streett":
        return 2 * arg, _streett_formula(arg)
    return arg, _parity_formula(arg)


def _parse_label(
    text: str, ap_count: int, line: int
) -> int:
    """Complete-conjunction label -> symbol index."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise HoaError(f"malformed label {text!r}", line)
    body = body[1:-1].strip()
    if ap_count == 0:
        if body == "t":
            return 0
        raise HoaError(
            f"label [{body}] must be [t] in a document with 0 APs", line
        )
    if body in ("t", "f"):
        raise HoaError(
            f"incomplete label [{body}]: every AP must appear exactly once", line
        )
    if "|" in body:
        raise HoaError(
            f"label [{body}] is not a conjunction (alternatives unsupported)", line
        )
    seen: dict[int, bool] = {}
    for literal in body.split("&"):
        literal = literal.strip()
        negated = literal.startswith("!")
        if negated:
            literal = literal[1:].strip()
        if not literal.isdigit():
            raise HoaError(f"malformed literal in label [{body}]", line)
        ap = int(literal)
        if ap >= ap_count:
            raise HoaError(f"label references AP {ap} but only {ap_count} exist", line)
        if ap in seen:
            raise HoaError(f"label [{body}] mentions AP {ap} twice", line)
        seen[ap] = not negated
    if len(seen) != ap_count:
        missing = sorted(set(range(ap_count)) - set(seen))
        raise HoaError(
            f"incomplete label [{body}]: missing AP(s) {missing}", line
        )
    return sum(1 << ap for ap, positive in seen.items() if positive)


def _parse_marks(text: str | None, set_count: int, line: int) -> list[int]:
    if not text or not text.strip():
        return []
    body = text.strip()
    body = body[1:-1]  # {...}
    marks = []
    for token in body.split():
        if not token.isdigit():
            raise HoaError(f"malformed acceptance mark {token!r}", line)
        mark = int(token)
        if mark >= set_count:
            raise HoaError(
                f"acceptance mark {mark} out of range (only {set_count} sets)", line
            )
        marks.append(mark)
    return marks


_IGNORED_HEADERS = ("name:", "tool:")


def parse_hoa(text: str) -> Automaton:
    """Parse the HOA subset; raises HoaError with a line number on anything else."""
    lines = text.splitlines()
    numbered = [
        (i + 1, raw.strip())
        for i, raw in enumerate(lines)
        if raw.strip() and not raw.strip().startswith("/*")
    ]
    if not numbered:
        raise HoaError("empty document")
    if numbered[0][1] != "HOA: v1":
        raise HoaError("expected 'HOA: v1' on the first line", numbered[0][0])

    state_count: int | None = None
    initial: int | None = None
    ap_count: int | None = None
    acc_kind: tuple[str, int] | None = None
    acc_line: tuple[int, str] | None = None
    declared_deterministic = False
    body_at = None

    for pos, (line, content) in enumerate(numbered[1:], start=1):
        if content == "--BODY--":
            body_at = pos
            break
        if content.startswith("Alias:"):
            raise HoaError("aliases are unsupported", line)
        if content.startswith("States:"):
            value = content[len("States:"):].strip()
            if not value.isdigit():
                raise HoaError(f"malformed States: {value!r}", line)
            state_count = int(value)
        elif content.startswith("Start:"):
            value = content[len("Start:"):].strip()
            if initial is not None:
                raise HoaError("multiple Start: headers are unsupported", line)
            if not _START_RE.match(value):
                raise HoaError(
                    f"unsupported Start: {value!r} (single initial state only)", line
                )
            initial = int(value)
        elif content.startswith("AP:"):
            value = content[len("AP:"):].strip()
            parts = value.split(None, 1)
            if not parts or not parts[0].isdigit():
                raise HoaError(f"malformed AP: {value!r}", line)
            ap_count = int(parts[0])
            if ap_count > _AP_LIMIT:
                raise HoaError(
                    f"AP: {ap_count} propositions exceed the supported maximum "
                    f"of {_AP_LIMIT}",
                    line,
                )
            names = re.findall(r'"((?:[^"\\]|\\.)*)"', parts[1] if len(parts) > 1 else "")
            if len(names) != ap_count:
                raise HoaError(
                    f"AP: declares {ap_count} propositions but names {len(names)}", line
                )
        elif content.startswith("acc-name:"):
            acc_kind = _parse_acc_name(content[len("acc-name:"):].strip(), line)
        elif content.startswith("Acceptance:"):
            acc_line = (line, content[len("Acceptance:"):].strip())
        elif content.startswith("properties:"):
            # informational except for "deterministic", which callers rely on
            if "deterministic" in content[len("properties:"):].split():
                declared_deterministic = True
        elif content.startswith(_IGNORED_HEADERS):
            continue
        else:
            raise HoaError(f"unsupported header: {content.split(':')[0]!r}", line)

    if body_at is None:
        raise HoaError("missing --BODY--")
    last_header_line = numbered[body_at][0]
    if state_count is None:
        raise HoaError("missing States: header", last_header_line)
    if initial is None:
        raise HoaError("missing Start: header", last_header_line)
    if ap_count is None:
        raise HoaError("missing AP: header", last_header_line)
    if acc_kind is None:
        raise HoaError("missing acc-name: header", last_header_line)
    if acc_line is None:
        raise HoaError("missing Acceptance: header", last_header_line)
    if initial >= state_count:
        raise HoaError(f"initial state {initial} out of range", last_header_line)

    kind, arg = acc_kind
    set_count, formula = _expected_acceptance(kind, arg)
    acc_text = acc_line[1]
    parts = acc_text.split(None, 1)
    if not parts or not parts[0].isdigit() or int(parts[0]) != set_count:
        raise HoaError(
            f"Acceptance: expected {set_count} sets for this acc-name", acc_line[0]
        )
    given = (parts[1] if len(parts) > 1 else "").replace(" ", "")
    if given != formula.replace(" ", ""):
        raise HoaError(
            f"Acceptance: formula does not match acc-name (expected {formula!r})",
            acc_line[0],
        )

    symbols = _valuation_symbols(ap_count)
    transitions: dict[tuple[int, str], set[int]] = {}
    marks_of: dict[int, list[int]] = {}
    current: int | None = None
    seen_states: set[int] = set()
    ended = False

    for line, content in numbered[body_at + 1:]:
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
                raise HoaError(f"malformed State: line {content!r}", line)
            if match.group("label"):
                raise HoaError("state labels are unsupported", line)
            num = int(match.group("num"))
            if num >= state_count:
                raise HoaError(f"state {num} out of range", line)
            if num in seen_states:
                raise HoaError(f"duplicate State: {num}", line)
            seen_states.add(num)
            current = num
            marks_of[num] = _parse_marks(match.group("acc"), set_count, line)
            continue
        if current is None:
            raise HoaError("edge before any State: line", line)
        match = _EDGE_RE.match(content)
        if not match:
            if content.startswith("["):
                raise HoaError(f"malformed edge {content!r}", line)
            raise HoaError(
                "implicit (unlabeled) edges are unsupported", line
            )
        if match.group("acc"):
            raise HoaError(
                "edge acceptance marks are unsupported (state-based only)", line
            )
        target_text = match.group("target")
        if not target_text.isdigit():
            raise HoaError(
                f"unsupported edge target {target_text!r}"
                " (single target state only)",
                line,
            )
        target = int(target_text)
        if target >= state_count:
            raise HoaError(f"edge target {target} out of range", line)
        symbol_index = _parse_label(match.group("label"), ap_count, line)
        transitions.setdefault((current, symbols[symbol_index]), set()).add(target)

    if not ended:
        raise HoaError("missing --END--")

    acceptance = _build_acceptance(kind, arg, state_count, marks_of)
    if declared_deterministic:
        for s in range(state_count):
            for sym in symbols:
                if len(transitions.get((s, sym), ())) != 1:
                    raise HoaError(
                        "document declares 'deterministic' but state "
                        f"{s} has {len(transitions.get((s, sym), ()))} successors "
                        f"on symbol {sym!r}"
                    )
    return Automaton(
        alphabet=Alphabet(symbols),
        state_count=state_count,
        initial=initial,
        transitions={key: frozenset(v) for key, v in transitions.items()},
        acceptance=acceptance,
        deterministic=declared_deterministic,
    )


def _build_acceptance(kind: str, arg: int, state_count: int, marks_of):
    def marked(set_index: int) -> frozenset[int]:
        return frozenset(
            s for s, marks in marks_of.items() if set_index in marks
        )

    if kind == "buchi":
        return BuchiAcceptance(marked(0))
    if kind == "rabin":
        return RabinAcceptance(
            tuple((marked(2 * i), marked(2 * i + 1)) for i in range(arg))
        )
    if kind == "streett":
        # Fin side (2i) is the G set, Inf side (2i+1) the R set
        return StreettAcceptance(
            tuple((marked(2 * i + 1), marked(2 * i)) for i in range(arg))
        )
    priorities = []
    for s in range(state_count):
        marks = sorted(set(marks_of.get(s, [])))
        if len(marks) != 1:
            raise HoaError(
                f"parity automata need exactly one priority per state; state {s}"
                f" has {len(marks)}"
            )
        priorities.append(marks[0])
    return ParityAcceptance(priorities=tuple(priorities), index=arg)


def structurally_equal(a: Automaton, b: Automaton) -> bool:
    """Equality up to symbol names (transitions compared by symbol position)."""
    if (
        len(a.alphabet) != len(b.alphabet)
        or a.state_count != b.state_count
        or a.initial != b.initial
        or a.deterministic != b.deterministic
        or a.acceptance != b.acceptance
    ):
        return False
    for s in range(a.state_count):
        for i in range(len(a.alphabet)):
            if a.successors(s, a.alphabet.symbols[i]) != b.successors(
                s, b.alphabet.symbols[i]
            ):
                return False
    return True
