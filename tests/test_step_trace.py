"""Golden step traces: every reachable tree step must not change.

test_golden.py pins the emitted automata, which erase the e/f bookmarks of
the compact trees: when f < e the priority ignores e, so a wrong e can go
unseen there.  These digests pin, for every step reachable from the
initial tree, the successor tree together with its bookmarks and priority
(compact steps) or its full key with the E and F name sets (Safra steps).
"""

import hashlib
from collections import deque

import pytest

from omegadet import compact, safra
from omegadet.random_gen import random_nbw, random_nsw

SEEDS = range(30)

GOLDEN = {
    "compact_step": (
        "415332284abd08ae7f641232d21785fbb9ed348c6ba72c524af30b1c0ab8980f"
    ),
    "compact_streett_step": (
        "e175c8d2775fc370a2c7437ef3222c27a5c231e1cf5f8b9bc22e759136272c10"
    ),
    "safra_step": (
        "78e799b3cd2519fc9629b2360ed60e1b596eb0e48d0820882cfb796ebf4091d0"
    ),
    "streett_safra_step": (
        "f87f9c5ea3aeb96a7d1499c58acdfac6e9f0112c31c5456312faef128b5ddd4b"
    ),
}


def _trace(a, start, step, identity, record, digest) -> None:
    """Feed the record of every step reachable from start, breadth first."""
    seen = {identity(start)}
    queue = deque([start])
    while queue:
        tree = queue.popleft()
        for symbol in a.alphabet.symbols:
            out = step(tree, symbol, a)
            digest.update(f"{record(out)!r}\n".encode("utf-8"))
            nxt = out[0] if isinstance(out, tuple) else out
            if identity(nxt) not in seen:
                seen.add(identity(nxt))
                queue.append(nxt)


def _compact_identity(tree):
    return (tree.parents, tree.labels, tree.anns)


def _compact_record(out):
    tree, priority = out
    return (
        tree.parents,
        tuple(tuple(sorted(l)) for l in tree.labels),
        tuple(tuple(sorted(h)) for h in tree.anns),
        tree.e,
        tree.f,
        priority,
    )


def _nbw(seed):
    return random_nbw(5, seed)


def _nsw(seed):
    return random_nsw(4, 2, seed)


CASES = {
    "compact_step": (
        _nbw, compact.initial_compact_tree, compact.compact_step,
        _compact_identity, _compact_record,
    ),
    "compact_streett_step": (
        _nsw, compact.initial_compact_streett_tree, compact.compact_streett_step,
        _compact_identity, _compact_record,
    ),
    "safra_step": (
        _nbw, safra.initial_safra_tree, safra.safra_step,
        safra.SafraTree.key, safra.SafraTree.key,
    ),
    "streett_safra_step": (
        _nsw, safra.initial_streett_safra_tree, safra.streett_safra_step,
        safra.SafraTree.key, safra.SafraTree.key,
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_step_trace_is_pinned(name):
    source, initial, step, identity, record = CASES[name]
    digest = hashlib.sha256()
    for seed in SEEDS:
        a = source(seed)
        digest.update(f"seed {seed}\n".encode("utf-8"))
        _trace(a, initial(a), step, identity, record, digest)
    assert digest.hexdigest() == GOLDEN[name]
