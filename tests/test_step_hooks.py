"""The determinizers look their step function up on the module at call time.

Profilers and the benchmark time the tree steps by replacing them as module
attributes.  A determinizer that bound its step at import time, or as a
default argument, would bypass the replacement and report no steps.
"""

import pytest

from omegadet import compact, safra
from omegadet.random_gen import random_nbw, random_nsw


@pytest.mark.parametrize(
    "module,step,determinize,source",
    [
        (compact, "compact_step", "nbw_to_dpw", random_nbw(4, 1)),
        (compact, "compact_streett_step", "nsw_to_dpw", random_nsw(3, 2, 1)),
        (safra, "safra_step", "safra_determinize", random_nbw(4, 1)),
        (safra, "streett_safra_step", "streett_safra_determinize", random_nsw(3, 2, 1)),
    ],
    ids=["compact_step", "compact_streett_step", "safra_step", "streett_safra_step"],
)
def test_determinizer_calls_the_patched_step(
    monkeypatch, module, step, determinize, source
):
    plain = getattr(module, determinize)(source)
    original = getattr(module, step)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(module, step, counting)
    assert getattr(module, determinize)(source) == plain
    assert calls
