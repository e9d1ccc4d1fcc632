#!/usr/bin/env python3
"""Run the tier-1 tests against seeded mutations of src/ and report which survive.

Each catalogue entry names a file, an exact text that occurs once in it,
the text that replaces it and a one-line reason: what the mutation breaks,
or why no test can tell it from the original.  For each entry the script
copies src/ and tests/, with what the tests read (perfbench/, scripts/,
BENCHMARK.json, pyproject.toml and README.md), into a temporary directory,
applies the mutation there and runs the tier-1 command with `-x --tb=line
-p no:cacheprovider` in one child process at a time, less the catalogue's
own two tests.  The child runs under a wall limit of SECONDS and an
address-space limit of MEMORY_BYTES (RLIMIT_AS, set in the child), so a
mutant that loops or grows without bound ends as one failing test, a
MemoryError or a timeout.  One line per traceback reads no source file, so
pytest can still name a test that failed with a MemoryError.  A child that
ends with no test named, as when the address-space limit aborts the
interpreter itself, is still killed; its line gives the exit code or the
signal instead.  An unmutated copy runs first; if it fails, no mutant is
run.  One line per entry:

  killed     NAME  first failing test  (seconds)
  killed     NAME  no test named (killed by SIGABRT)  (seconds)
  survived   NAME  (seconds)
  timed-out  NAME  (seconds)

The checkout itself is never changed.  Usage (from the repository root):
  python3 scripts/mutants.py
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# What the tier-1 tests read besides src/ and tests/.
COPIED = ("src", "tests", "perfbench", "scripts", "BENCHMARK.json", "pyproject.toml", "README.md")
TIER1 = [
    "-m", "pytest", "-q", "--continue-on-collection-errors",
    "-x", "--tb=line", "-p", "no:cacheprovider",
]
# Per run: the wall limit, and the address-space limit set in the child.
SECONDS = 600
MEMORY_BYTES = 2 << 30
# The catalogue's own tests read the mutated file, so they fail on every mutant.
OWN_TESTS = (
    "tests/test_scripts.py::test_every_mutant_text_occurs_once",
    "tests/test_scripts.py::test_a_mutant_changes_its_copy_only",
)


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    reason: str


CATALOGUE = (
    # parse_hoa fills one table of cells
    Mutant(
        "fill-second-target-ignored", "src/omegadet/hoa.py",
        "    if declared_deterministic and not more and len(cells) == total:",
        "    if declared_deterministic and len(cells) == total:",
        "a 'deterministic' document that gives a cell two targets is read as rows of the first",
    ),
    Mutant(
        "fill-third-target-lost", "src/omegadet/hoa.py",
        "more[cell] = more.get(cell, singles[cells[cell]]) | singles[number]",
        "more[cell] = singles[cells[cell]] | singles[number]",
        "a cell's third target replaces its second",
    ),
    Mutant(
        "fill-first-target-only", "src/omegadet/hoa.py",
        "(cell // size, symbols[cell % size]): more.get(cell) or singles[t]",
        "(cell // size, symbols[cell % size]): singles[t]",
        "a nondeterministic document keeps one target per cell",
    ),
    Mutant(
        "fill-row-unscaled", "src/omegadet/hoa.py",
        "                row = num * size",
        "                row = num",
        "state s's edges fill the cells of letters s, s + 1, ... of state 0",
    ),
    Mutant(
        "body-edge-after-end", "src/omegadet/hoa.py",
        "        if ended:\n",
        "        if ended and not target:\n",
        "an edge after --END-- is read as an edge of the last state",
    ),
    # parse_hoa reads the header in one pass, and each state's marks as they are
    Mutant(
        "header-lines-from-0", "src/omegadet/hoa.py",
        "enumerate(map(str.strip, lines), start=1)",
        "enumerate(map(str.strip, lines))",
        "a header diagnostic names the line before the offending one",
    ),
    Mutant(
        "parity-repeated-mark-counts-twice", "src/omegadet/hoa.py",
        "marks = set(marks_of.get(s, ()))",
        "marks = marks_of.get(s, ())",
        "a parity state whose State: line repeats its mark is refused",
    ),
    Mutant(
        "parity-priority-0-unmarked", "src/omegadet/hoa.py",
        "marks = {s: [p] for s, p in enumerate(acc.priorities)}",
        "marks = {s: [p] for s, p in enumerate(acc.priorities) if p}",
        "emit_hoa writes a state of priority 0 without its mark",
    ),
    # the constructor judges determinism once, on the normalised table
    Mutant(
        "judge-keeps-empty-entries", "src/omegadet/automata.py",
        "{key: frozenset(targets) for key, targets in table.items() if targets}",
        "{key: frozenset(targets) for key, targets in table.items()}",
        "an empty entry counts against a deterministic table's size",
    ),
    Mutant(
        "judge-no-listing", "src/omegadet/automata.py",
        "(dense or not a.deterministic and position.keys() >=",
        "(dense or position.keys() >=",
        "a deterministic dict that `_row_view` refused is accepted as a dict",
    ),
    Mutant(
        "judge-target-past-range", "src/omegadet/automata.py",
        "and max(rows) < n",
        "and max(rows) <= n",
        "rows may name state n",
    ),
    Mutant(
        "faults-negative-priority", "src/omegadet/automata.py",
        "if not 0 <= p < acc.index:",
        "if not p < acc.index:",
        "a negative priority is accepted",
    ),
    Mutant(
        "faults-pair-sides-swapped", "src/omegadet/automata.py",
        'zip(("first", "second"), pair)',
        'zip(("second", "first"), pair)',
        "a state outside a pair's second set is named in its first, and the other way round",
    ),
    # the transition view
    Mutant(
        "view-eq-ignores-alphabet", "src/omegadet/automata.py",
        "if isinstance(other, RowView) and other.alphabet.symbols == self.alphabet.symbols:",
        "if isinstance(other, RowView):",
        "two views with equal rows over different alphabets compare equal",
    ),
    Mutant(
        "view-negative-state", "src/omegadet/automata.py",
        "if i is not None and isinstance(state, int) and state >= 0:",
        "if i is not None and isinstance(state, int):",
        "a negative state reads the rows from their end",
    ),
    # the image memo reads every table through .get
    Mutant(
        "read-self-loop", "src/omegadet/automata.py",
        "out = state_mask(self.transitions.get((s, self.symbol), ()))",
        "out = state_mask(self.transitions.get((s, self.symbol), ())) | mask",
        "every state gets a self-loop on every letter",
    ),
    Mutant(
        "images-assign-not-or", "src/omegadet/automata.py",
        "out |= self[low]",
        "out = self[low]",
        "the image of a mask is the image of its highest state alone",
    ),
    Mutant(
        "images-empty-as-state-0", "src/omegadet/automata.py",
        "            rest = mask\n",
        "            rest = mask or 1\n",
        "the empty mask maps to the image of state 0, not to 0",
    ),
    # the column memo and explore's column path
    Mutant(
        "columns-or-self", "src/omegadet/automata.py",
        "column = list(map(or_, column, self[1 << s]))",
        "column = list(map(or_, column, column))",
        "a column holds the images of its mask's lowest state alone",
    ),
    Mutant(
        "columns-drop-lowest", "src/omegadet/automata.py",
        "            column = self[low]\n",
        "            column = self[0]\n",
        "a column of two or more states leaves out the images of the lowest",
    ),
    Mutant(
        "explore-steps-without-rereading", "src/omegadet/automata.py",
        "                nxt = memo.get(keys[i])\n"
        "                row[i] = visit(tree, i, keys[i]) if nxt is None else nxt",
        "                row[i] = visit(tree, i, keys[i])",
        "a letter whose key an earlier letter of the row stepped is stepped again",
    ),
    Mutant(
        "explore-row-memo-by-shape", "src/omegadet/automata.py",
        "tree_rows.setdefault((shape, *masks), len(rows))",
        "tree_rows.setdefault(shape, len(rows))",
        "a state copies the row of an earlier tree with the same shape but other masks",
    ),
    Mutant(
        "explore-row-copied-off-by-one", "src/omegadet/automata.py",
        "rows += rows[first : first + size]",
        "rows += rows[first + 1 : first + 1 + size]",
        "a state whose tree was met before copies its row one letter late",
    ),
    # the tree steps
    Mutant(
        "priority-tie-even", "src/omegadet/compact.py",
        "    if f < e:\n        return 2 * f - 2",
        "    if f <= e:\n        return 2 * f - 2",
        "a step whose completion and deletion bookmarks are equal gets an even priority",
    ),
    Mutant(
        "compact-largest-green-f", "src/omegadet/compact.py",
        "            f = f or v",
        "            f = v",
        "f is the largest green name, not the smallest",
    ),
    Mutant(
        "compact-no-older-sibling-claim", "src/omegadet/compact.py",
        "states = label[v] & label[p] & ~claimed[p]",
        "states = label[v] & label[p]",
        "sibling labels overlap, and the closure never ends",
    ),
    Mutant(
        "compact-e-always-bound", "src/omegadet/compact.py",
        "        if cut[v]:\n            e = e or name",
        "        if cut[v]:\n            pass",
        "a step that removes only its youngest names, sprouts under cut nodes, is priced as removing none",
    ),
    Mutant(
        "compact-sprout-takes-claimed", "src/omegadet/compact.py",
        "elif states := label[v] & alpha & ~claimed[v]:",
        "elif states := label[v] & alpha:",
        "a sprout keeps the states its older siblings claimed",
    ),
    Mutant(
        "compact-green-without-sprout", "src/omegadet/compact.py",
        "if states == claimed[v] | (states & alpha):",
        "if states == claimed[v]:",
        "a node is green only when its old children cover it, never its sprout",
    ),
    Mutant(
        "compact-emptied-sprout-not-f", "src/omegadet/compact.py",
        "            f = f or name\n",
        "",
        "an emptied sprout is not green, so it is never f",
    ),
    Mutant(
        "compact-emptied-sprout-not-e", "src/omegadet/compact.py",
        "            f = f or name\n            e = e or name",
        "            f = f or name",
        "an emptied sprout is not priced as removed",
    ),
    Mutant(
        "streett-root-owes-from-0", "src/omegadet/compact.py",
        "ann_masks=((1 << (k + 1)) - 2,)",
        "ann_masks=((1 << k) - 1,)",
        "the root of the first Streett tree owes indices 0..k-1, not 1..k",
    ),
    Mutant(
        "compact-split-without-anns", "src/omegadet/compact.py",
        "return tree, (tree.parents, tree.ann_masks), tree.masks",
        "return tree, tree.parents, tree.masks",
        "two Streett trees that differ in owed indices share one step",
    ),
    Mutant(
        "compact-streett-r-as-g", "src/omegadet/compact.py",
        "gone = r_missing if hit & r_j else missing",
        "gone = missing",
        "an R-hit restarts its index as a G-hit does",
    ),
    Mutant(
        "safra-emptied-node-green", "src/omegadet/safra.py",
        "        if states and not room:",
        "        if not room:",
        "an emptied node counts as green",
    ),
    Mutant(
        "safra-sprout-never-settled", "src/omegadet/safra.py",
        "        for c in kids[v]:\n            kept = label[c] & room",
        "        for c in sons:\n            kept = label[c] & room",
        "a sprout keeps the states an older sibling claimed, and covers no node",
    ),
    Mutant(
        "safra-streett-sons-by-name", "src/omegadet/safra.py",
        "order.sort(key=itemgetter(0))",
        "order.sort()",
        "duplicated states settle on the smaller name, not the older son",
    ),
    Mutant(
        "safra-streett-no-static-filter", "src/omegadet/safra.py",
        "[v for v in finished if v <= m and label[v]]",
        "[v for v in finished if label[v]]",
        "a temporary that finished a round enters f_set",
    ),
    Mutant(
        "safra-rabin-pairs-swapped", "src/omegadet/safra.py",
        "RabinAcceptance(tuple(zip(map(frozenset, e[1:]), map(frozenset, f[1:]))))",
        "RabinAcceptance(tuple(zip(map(frozenset, f[1:]), map(frozenset, e[1:]))))",
        "each DRW pair's E and F sets trade places",
    ),
    # `_closed`, the end of both reference steps
    Mutant(
        "safra-temps-take-largest-free", "src/omegadet/safra.py",
        "for v, name in zip(temps, free):",
        "for v, name in zip(temps, free[::-1]):",
        "the surviving temporaries take the largest free names, not the smallest",
    ),
    Mutant(
        "safra-recycled-name-not-in-e", "src/omegadet/safra.py",
        "        e_set,\n        f_set,\n",
        "        e_set.difference(names),\n        f_set,\n",
        "a name recycled for a temporary is left out of e_set and does not restart its pair",
    ),
    Mutant(
        "safra-name-memo-by-count", "src/omegadet/safra.py",
        "known = by_static.get(static)\n    if known is None:\n"
        "        free = tuple(sorted(set(range(2, pool + 1)).difference(static)))\n"
        "        known = by_static[static] =",
        "known = by_static.get(len(static))\n    if known is None:\n"
        "        free = tuple(sorted(set(range(2, pool + 1)).difference(static)))\n"
        "        known = by_static[len(static)] =",
        "the name-set memo is read by the number of surviving names, so a step "
        "takes the e_set of another tree with as many nodes",
    ),
    Mutant(
        "safra-temp-child-keeps-old-name", "src/omegadet/safra.py",
        "tuple(map(renamed, filter(survives, kids[v])))",
        "tuple(filter(survives, kids[v]))",
        "a parent lists a renamed temporary under its name from before the step",
    ),
    # acceptance and the lasso oracles
    Mutant(
        "dualize-shift-two", "src/omegadet/automata.py",
        "priorities=tuple(p + 1 for p in a.acceptance.priorities),",
        "priorities=tuple(p + 2 for p in a.acceptance.priorities),",
        "the complement keeps every priority's parity",
    ),
    Mutant(
        "run-deterministic-entry-without-tail", "src/omegadet/lasso.py",
        "entry_steps=len(prefix) + len(trail) + found // unit,",
        "entry_steps=len(prefix) + len(trail),",
        "a run that meets a walked pair leaves out its steps to the cycle",
    ),
    Mutant(
        "lasso-count-one-letter", "src/omegadet/lasso.py",
        "return (max_prefix + 1) * max_period",
        "return max_prefix * max_period",
        "the lasso limit is checked against too small a count on one letter",
    ),
    Mutant(
        "streett-oracle-no-edges-to-good", "src/omegadet/lasso.py",
        "any(t in marked for node in comp for t in edges[node]) or _fair_cycle(",
        "_fair_cycle(",
        "a product component that only reaches a good node is not marked good",
    ),
    Mutant(
        "fair-cycle-ignores-self-loops", "src/omegadet/lasso.py",
        "if len(comp) == 1 and comp[0] not in successors(comp[0]):",
        "if len(comp) == 1:",
        "a single node with a self-loop is taken to lie on no cycle",
    ),
    Mutant(
        "fair-cycle-no-carve", "src/omegadet/lasso.py",
        "        work += _sccs(kept, lambda node: [t for t in successors(node) if t in kept])\n",
        "",
        "a component with an unfair G-state is rejected even where a fair cycle avoids it",
    ),
    Mutant(
        "fair-cycle-misses-self-loop", "src/omegadet/lasso.py",
        "        if not bad:\n            return True\n",
        "        if not bad:\n            return len(comp) > 1\n",
        "a fair cycle that is one node's self-loop is not found",
    ),
    Mutant(
        "fair-cycle-carve-unfiltered", "src/omegadet/lasso.py",
        "_sccs(kept, lambda node: [t for t in successors(node) if t in kept])",
        "_sccs(kept, successors)",
        "a carve walks back into the states it removed and finds the same component again",
    ),
    Mutant(
        "streett-oracle-unseeded-good-sinks", "src/omegadet/lasso.py",
        "marked = {(q, 0) for q in mask_states(good)}",
        "marked = set()",
        "a product node whose only way on is to a good explored state is not marked good",
    ),
    Mutant(
        "buchi-oracle-no-through", "src/omegadet/lasso.py",
        "if any(rows[p][1] & mask or rows[p][0] & good for p in comp):",
        "if any(rows[p][0] & good for p in comp):",
        "a component whose own rows pass an accepting state is not marked good",
    ),
    Mutant(
        "buchi-oracle-rewalks-explored", "src/omegadet/lasso.py",
        "return mask_states(reach & ~explored)",
        "return mask_states(reach)",
        "equivalent: explored is closed and already classified, so walking it again "
        "marks no component it did not mark before",
    ),
    Mutant(
        "sccs-low-link-le", "src/omegadet/lasso.py",
        "if index[succ] < low[node]:",
        "if index[succ] <= low[node]:",
        "equivalent: it only sets low[node] to the value it already has",
    ),
    # HOA and the command line
    Mutant(
        "hoa-label-polarity", "src/omegadet/hoa.py",
        "return sum(1 << ap for ap, positive in seen.items() if positive)",
        "return sum(1 << ap for ap, positive in seen.items() if not positive)",
        "a label is read as its negation",
    ),
    Mutant(
        "hoa-parity-formula-flipped", "src/omegadet/hoa.py",
        '("Inf({}) | ", "Fin({}) & ")[p % 2]',
        '("Fin({}) & ", "Inf({}) | ")[p % 2]',
        "a parity Acceptance: formula swaps Inf and Fin, in emit and in the parser's check",
    ),
    Mutant(
        "emit-start-zero", "src/omegadet/hoa.py",
        'f"Start: {a.initial}",',
        '"Start: 0",',
        "emit_hoa writes state 0 as the initial state",
    ),
    Mutant(
        "cli-stats-index-less-one", "src/omegadet/cli.py",
        'print(f"max-priority: {max(result.acceptance.priorities)}")',
        'print(f"max-priority: {result.acceptance.index - 1}")',
        "`determinize --stats` prints the parity index less one, not the largest priority",
    ),
    Mutant(
        "cli-member-no-run", "src/omegadet/cli.py",
        "verdict = run_deterministic(a, lasso) if a.deterministic else None",
        "verdict = None",
        "`omegadet member` prints no cycle lines for deterministic input",
    ),
    Mutant(
        "cli-member-entry-as-cycle-size", "src/omegadet/cli.py",
        'print(f"cycle-entry: {verdict.entry_steps}")',
        'print(f"cycle-entry: {len(verdict.cycle_states)}")',
        "`omegadet member` prints the cycle's size as its entry step",
    ),
    Mutant(
        "cli-xcheck-last-dpw-size", "src/omegadet/cli.py",
        "worst = max(worst, dpw.state_count)",
        "worst = dpw.state_count",
        "`omegadet xcheck --random` reports the last DPW's size, not the largest",
    ),
    Mutant(
        "cli-error-exit-1", "src/omegadet/cli.py",
        'print(f"error: {err}", file=sys.stderr)\n        return 2',
        'print(f"error: {err}", file=sys.stderr)\n        return 1',
        "bad input exits 1, the code of a rejected word, not 2",
    ),
)


def prepare(root: Path, work: Path, mutant: Mutant | None) -> None:
    """Copy what tier-1 reads from root into work, then apply the mutant there."""
    for name in COPIED:
        source = root / name
        if source.is_dir():
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "out")
            shutil.copytree(source, work / name, ignore=ignore)
        else:
            shutil.copy2(source, work / name)
    if mutant is not None:
        target = work / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text does not occur once in {mutant.path}")
        target.write_text(text.replace(mutant.old, mutant.new))


def first_failure(output: str) -> str | None:
    """The first test pytest's summary names as FAILED or ERROR."""
    for line in output.splitlines():
        # the id, its parameters (which may hold " - ") whole, then " - message"
        match = re.match(r"(?:FAILED|ERROR) (\S+?(?:\[.*?\])?)(?: - |$)", line)
        if match:
            return match.group(1)
    return None


def unnamed(returncode: int) -> str:
    """What ended a failed run that named no test: its exit code or its signal."""
    if returncode >= 0:
        return f"no test named (exit {returncode})"
    try:
        name = signal.Signals(-returncode).name
    except ValueError:
        name = f"signal {-returncode}"
    return f"no test named (killed by {name})"


def run_tier1(work: Path) -> tuple[str, str, float]:
    """(verdict, first failing test or "", seconds) of tier-1 in work."""

    def limit() -> None:
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, hard))

    env = {**os.environ, "PYTHONPATH": str(work / "src")}
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, *TIER1, *(f"--deselect={test}" for test in OWN_TESTS)],
        cwd=work,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        preexec_fn=limit,
        start_new_session=True,
    )
    try:
        output, _ = proc.communicate(timeout=SECONDS)
    except subprocess.TimeoutExpired:
        # the tests' own children are in the same session
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timed-out", "", time.monotonic() - start
    took = time.monotonic() - start
    if proc.returncode == 0:
        return "survived", "", took
    return "killed", first_failure(output) or unnamed(proc.returncode), took


def main() -> None:
    for mutant in [None, *CATALOGUE]:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            prepare(ROOT, Path(tmp), mutant)
            verdict, test, took = run_tier1(Path(tmp))
        if mutant is None:
            if verdict != "survived":
                sys.exit(f"the unmutated copy did not pass: {verdict} {test}")
            print(f"{'passed':<10} unmutated copy  ({took:.1f} s)", flush=True)
            continue
        detail = f"  {test}" if test else ""
        print(f"{verdict:<10} {mutant.name}{detail}  ({took:.1f} s)", flush=True)


if __name__ == "__main__":
    main()
