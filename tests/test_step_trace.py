"""Golden step traces: every reachable tree step must not change.

test_golden.py pins the emitted automata, which erase the e/f bookmarks of
the compact trees: when f < e the priority ignores e, so a wrong e can go
unseen there.  These digests pin, for every step reachable from the
initial tree, the successor tree together with its bookmarks and priority
(compact steps) or its DRW state key, which holds the E and F name sets
(Safra steps).  Every tree's masks are read as sorted tuples.
"""

import hashlib
from collections import deque

import pytest

from omegadet import compact, safra
from omegadet.automata import mask_states
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
    "compact_step-n2": (
        "09acd02006649c5d1926809d8e93b1790ea5509e3527d8290125a8b0c4bc07ed"
    ),
    "compact_step-n3": (
        "b7774a75e9aa9dc0b7c8d948fe9b302e3ae28749eb9c9771e96eff1531fed0f8"
    ),
    "safra_step-n2": (
        "6315a332cbfec5fd0d54c32afc312aacc00edac0bdc71d37e33fcdf96c0f201a"
    ),
    "safra_step-n3": (
        "c564070a8120de4e88ad54d6bad84d9712a8c1f8c733508f621eabe463f2328b"
    ),
    "compact_streett_step-k1": (
        "4bff1d600a7d1917f92d70889169bd5e05903b72f5577b32b830f34d5690a870"
    ),
    "compact_streett_step-k3": (
        "b196b87248ca114b81f432b6443666d2f30d0f8899f56be9f3ec2d4a5a8ba2ff"
    ),
    "streett_safra_step-k1": (
        "aefa88c5daa8dbd0c8388a391f3b9aca3399a104e906f372ca4d8d473ed7e825"
    ),
    "streett_safra_step-k3": (
        "a52ada598256cee0f5284ad936cc683599582db16b814bb1c06da336c2afdf2f"
    ),
}


def _trace(a, start, step, record, digest) -> None:
    """Feed the record of every step reachable from start, breadth first."""
    seen = {start}
    queue = deque([start])
    while queue:
        tree = queue.popleft()
        for symbol in a.alphabet.symbols:
            out = step(tree, symbol, a)
            digest.update(f"{record(out)!r}\n".encode("utf-8"))
            nxt = out[0] if isinstance(out, tuple) else out
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)


def _compact_record(out):
    tree, priority = out
    return (
        tree.parents,
        tuple(map(mask_states, tree.masks)),
        tuple(map(mask_states, tree.ann_masks)),
        tree.e,
        tree.f,
        priority,
    )


def _safra_record(tree):
    return safra._drw_state_key(tree, mask_states)


def _nbw(n):
    return lambda seed: random_nbw(n, seed)


def _nsw(n, k):
    return lambda seed: random_nsw(n, k, seed)


CASES = {
    "compact_step": (
        compact.initial_compact_tree, compact.compact_step, _compact_record,
    ),
    "compact_streett_step": (
        compact.initial_compact_streett_tree, compact.compact_streett_step,
        _compact_record,
    ),
    "safra_step": (safra.initial_safra_tree, safra.safra_step, _safra_record),
    "streett_safra_step": (
        safra.initial_streett_safra_tree, safra.streett_safra_step, _safra_record,
    ),
}

# pin name -> (step, source automaton of each seed); each bare step name
# pins its step on NBW n = 5 or NSW n = 4, k = 2
PINS = {
    "compact_step": ("compact_step", _nbw(5)),
    "compact_streett_step": ("compact_streett_step", _nsw(4, 2)),
    "safra_step": ("safra_step", _nbw(5)),
    "streett_safra_step": ("streett_safra_step", _nsw(4, 2)),
    "compact_step-n2": ("compact_step", _nbw(2)),
    "compact_step-n3": ("compact_step", _nbw(3)),
    "safra_step-n2": ("safra_step", _nbw(2)),
    "safra_step-n3": ("safra_step", _nbw(3)),
    "compact_streett_step-k1": ("compact_streett_step", _nsw(4, 1)),
    "compact_streett_step-k3": ("compact_streett_step", _nsw(4, 3)),
    "streett_safra_step-k1": ("streett_safra_step", _nsw(4, 1)),
    "streett_safra_step-k3": ("streett_safra_step", _nsw(4, 3)),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_step_trace_is_pinned(name):
    case, source = PINS[name]
    initial, step, record = CASES[case]
    digest = hashlib.sha256()
    for seed in SEEDS:
        a = source(seed)
        digest.update(f"seed {seed}\n".encode("utf-8"))
        _trace(a, initial(a), step, record, digest)
    assert digest.hexdigest() == GOLDEN[name]
