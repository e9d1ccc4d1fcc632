"""Golden bytes: the emitted automata must not change from one commit to the next.

The hash-seed test in test_hoa.py only shows that output is stable within
one checkout.  These digests pin the state numbering, the acceptance sets
and the HOA text of every construction, so a refactoring of the explorer
or of the tree types that reorders states fails here.  States are numbered
in the order the closure finds them, breadth first from the initial tree,
letters in alphabet order; the tests below check that rule, and that the
Büchi output does not depend on the names of the source states.
"""

import hashlib
import random

import pytest

from omegadet import (
    Automaton,
    BuchiAcceptance,
    emit_hoa,
    nbw_to_dpw,
    nsw_to_dpw,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet.random_gen import random_nbw, random_nsw

from helpers import bfs_numbered, build_lk_fixture, full3

GOLDEN = {
    "nbw_to_dpw": (
        "cfd64d495e14c553a38ff16200df7284be60288a188fec8795f00992adb7d113",
        "59434afab50c63935531016aee351bfc3d70035279141f289c75d5c43b964301",
        "9dc22a8dc7348f46b23d05c36d6c761b8205f567a29ab03499b562ccdc7adbde",
        "6f054008bc3b4a72bad0072d8dc56941aa61a26c205c67dc9f75bfd86476892b",
        "29892d1e61ab29085cb3305f77a468632f8a0c13992289dc216707d57c32f19d",
        "4ba590ceb00fb6d806e84732ac86cd135add31274bfc5dcc2ec166e093451fb3",
        "80628c413f45e0c8f726571186cce2d72f28f0d10f2ec5ec3f04ffebffd96ceb",
        "1323f7038324c1cb72b8b8b720c19ec06b4e1a8d72190758fb8cf02e39dc2633",
        "846f0084e7f731c12a57497db590d768b9069ec6da7ee596ec6130d26aac799d",
        "cfa6678caf40e9c02bbcce4b51222e8050445b6fd9524f3c4a31682cf20be8c5",
    ),
    "safra_determinize": (
        "a68bd8fe06ab4db75c01f4087d4d921fe836cfd8463994550b6b1281560779fa",
        "577a3aafd5b5fd7f5a9b22c9fd2f13eeac222c5dd5d3b44b99f928b2c29d8071",
        "3dfbbc4434635b7db278fa56892d68f1bce33cb5350d82fbb264610312b1288d",
        "f01ae310ca4d059c053c59315eb5a8767c121cd71df22749eb6cdc9544a72934",
        "a85a277bd7124ba2571d57285ddb4c6abfab9a1c4994b2447c16cd4f74ca1d3b",
        "e2384f09ce10452b2059118bb18f236ec2eed5ef5205b5fb77859b0fbe028e11",
        "f7a3daaccf124f96e6ae97556435d3348ab4ce1421b9d3e33c6d1f7f88db083f",
        "b9d9b38c5abb327c8a1ea57a00f7349775cf437f0e98aa648e35562605e965a8",
        "117e35d3c74fa8bc97482ff4f350865c69bf109dd95c2bc8d46b645aaf96c6c1",
        "de9e9d4c175f25caeaeaf2401424a95532e82fc0b13d4c8db18d5f89f4ff7411",
    ),
    "nsw_to_dpw": (
        "b1f74e467fd51a16623a0adba32818d533c84a100a3b310f4df1c749e2b1cd9e",
        "9170cff75435d701e05f0df75a83899a4d4702433c3ef98f504ad660629238e6",
        "df13c631068d387c85f82e4a46dc2b9b6f4279929ca330a3598c1b4bca2f2267",
        "1e4b6176488beb80517bea7250390cbe7594afd0dfb549b01e61439c2700ad9f",
        "e329d17472102179c2d7286e73df287622676405328183023991775bafa976b9",
        "4c29c2aefd8ba0b64e66ca276fb345a99f10630c07c5eca93b5e417fb58c7ec6",
        "11e151441dc7eba875aa1ec747f1641bf2f5861e9d6b60def4008278db9bedc3",
        "7ac7673a594febd0f435d433d34dbcc59df7b94acd138229c1b42160f19cf670",
        "e32be26c1089669d370eddd1b59eac5515667c78eac8f4113da0b389928906fe",
        "7820296eb4b6d8df0c1fe19701ba1280176eacaf448dcd4b39fa4ae2ae329f9c",
    ),
    "streett_safra_determinize": (
        "7658f3f6fede1b8195eaa792e00d58896ed4ced0dd7d198296e13b7507ea823d",
        "deb3cadeb8629229d3e5505751169be023445184bd6fd6fcbc3547fd6040a96f",
        "f2b82b190cf816ac7c65ee6b9846b13a5cd84abcb32c47609b5e84617f148d3d",
        "870aefed3a565d93ea3c6b3a51e28031f7f2423cd64be1df7a1ba4b8102cc50e",
        "44153af321a045daa93f741f0007c88d0dd8916d59f743f2bafb4e343999b373",
        "ac745bab62e19d9666044c07f366f6eae25a8c3f3b0f4d7973dc504ada8ec1dc",
        "c15aaef5b195572ffbeff56d4c907d975998c18e8a97af165dd4f1a0d4e3c4e1",
        "385f7e6e0310132eef5865c4485f5da3a531646ac7ad249882da9d6bedf40947",
        "3acda4aef2374f538aaf349cc89bf38ef5e341ea095b09ad77843cd642d22bbe",
        "4bc92275323c25129713fbfbf70cbe0d9ec0f709a1f2b7a99f444713b965e0cc",
    ),
}

# The source automata themselves: these pin the HOA text of the Büchi and
# Streett conditions on input, including the order of the G and R marks.
SOURCE_GOLDEN = {
    "random_nbw": (
        "a2cbc324b46da2f817ba952f518b897556e1c5ab878d0a00af33313904c4f068",
        "e8c49e89146fcbd8c4cc45ba699c52aba5492013a0e6514f013f7de6930b7577",
        "620ff08f3e62c28a4d69befbf84d6db6fb59208fa5bbe27964e5b16f9ee47253",
        "c05e044d9071f5eea2591da76c5e45a4906b0b5fecd2ef5eab7020738f65779a",
        "ade72503d1a568a905537ae97d5c8d04deedd8c957d1fbf3d96b20efe465671d",
        "2f7d345060af569999831a2cdb1bbc51cdc27e752d6641d775e30674825e5f9d",
        "9a90721a630d53345a0d1f92fedfab3445327163e1522ec89c34c7f86966988a",
        "40751507e9f5da3f0cb29d04fb76d1ed24e41044668365246ee7a68bf1cb0a53",
        "04aa0e9ede3fb0d64429a2b33f4076c914ebb80f96b0c02c2808062bbe11f47a",
        "65cd3239aba25cc3e98cc6b6e67515046765baa3dfe9060b7aab2c700624077d",
    ),
    "random_nsw": (
        "dbc1b2f960a0fa487068b9e43dfefb3751bc8e589c62f6d4cea2a2eb46e41026",
        "ad53addaa877c306598ff8e29d2812adabf9a574b51bfe617995c9b10773a82e",
        "e3abf07f2bada869006f4c508d44411380bf67f5153e4f4fb07c3b9c762be3e5",
        "0cb24e92a82e402e446f28bcf8b4d0f649c2be2922992d842c86e2275a6324b0",
        "499c8ca2722863c752d856546aa9cbf6f8489b76195dcb85a1bd200c740b71bd",
        "2a889e9e14295db4dceda959dbe178fb92ced4f94c1b3c95f07308d6451d6bd9",
        "27f93ee2f22afcbf94d450001e9c22f640e40e4b42896e86856b6a9360b8e71d",
        "b8232564a2f4bc816bb2afdbb947d075667e3e091550d71ddba8edb928657c9a",
        "6d53ab3391652b6f0cb977990317adb97197f5ef6fa1e29a221e5938631e4e53",
        "8e8447263843fc8353d447aa201c46c600a54a19249504b585213a469616da16",
    ),
}

# L_5 has five letters, which HOA cannot name with atomic propositions, so
# its DPW is pinned through a plain listing instead of emit_hoa.
LK5_DPW = "30968553e41960e45ebf4ef338eeca5394f5baea09ebdbd9379a943371d96823"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "construct,source",
    [
        (nbw_to_dpw, lambda seed: random_nbw(5, seed)),
        (safra_determinize, lambda seed: random_nbw(5, seed)),
        (nsw_to_dpw, lambda seed: random_nsw(4, 2, seed)),
        (streett_safra_determinize, lambda seed: random_nsw(4, 2, seed)),
    ],
    ids=list(GOLDEN),
)
def test_emitted_hoa_is_pinned(construct, source):
    got = tuple(_sha(emit_hoa(construct(source(seed)))) for seed in range(10))
    assert got == GOLDEN[construct.__name__]


SOURCES = {
    "random_nbw": lambda seed: random_nbw(5, seed),
    "random_nsw": lambda seed: random_nsw(4, 2, seed),
}


@pytest.mark.parametrize("name", list(SOURCE_GOLDEN))
def test_emitted_source_hoa_is_pinned(name):
    got = tuple(_sha(emit_hoa(SOURCES[name](seed))) for seed in range(10))
    assert got == SOURCE_GOLDEN[name]


def test_lk5_dpw_is_pinned():
    dpw = nbw_to_dpw(build_lk_fixture(5))
    lines = [
        f"states {dpw.state_count} initial {dpw.initial}",
        f"acceptance {dpw.acceptance!r}",
    ]
    lines += [
        f"{s} {sym} {dpw.dstep(s, sym)}" for s in dpw.states() for sym in dpw.alphabet
    ]
    assert _sha("\n".join(lines)) == LK5_DPW


BFS_CASES = [
    pytest.param(
        construct,
        [*(random_nbw(n, seed) for n in range(2, 8) for seed in range(10)),
         build_lk_fixture(5), full3()],
        id=construct.__name__,
    )
    for construct in (nbw_to_dpw, safra_determinize)
] + [
    pytest.param(
        construct,
        [random_nsw(n, k, seed) for n in range(2, 5) for k in range(1, 4) for seed in range(5)],
        id=construct.__name__,
    )
    for construct in (nsw_to_dpw, streett_safra_determinize)
]


@pytest.mark.parametrize("construct,sources", BFS_CASES)
def test_states_are_numbered_breadth_first(construct, sources):
    for a in sources:
        d = construct(a)
        assert d == bfs_numbered(d)


def _permuted(a: Automaton, perm: list[int]) -> Automaton:
    """a with state s renamed perm[s]."""
    return Automaton(
        alphabet=a.alphabet,
        state_count=a.state_count,
        initial=perm[a.initial],
        transitions={
            (perm[s], sym): frozenset(perm[t] for t in targets)
            for (s, sym), targets in a.transitions.items()
        },
        acceptance=BuchiAcceptance(frozenset(perm[s] for s in a.acceptance.accepting)),
    )


@pytest.mark.parametrize("construct", [nbw_to_dpw, safra_determinize])
@pytest.mark.parametrize("n", range(2, 8))
def test_buchi_output_ignores_source_state_names(construct, n):
    """Renaming the source's states leaves the emitted HOA byte-identical.

    A Büchi tree orders its nodes by age and depth, never by the states
    they hold, so a renamed source gives the same trees with renamed
    masks, found in the same order.  Streett output is left out: the
    Streett steps make their sprouts in state-bit order, so it depends on
    the state names.
    """
    for seed in range(20):
        a = random_nbw(n, seed)
        perm = list(range(n))
        random.Random(seed).shuffle(perm)
        assert emit_hoa(construct(_permuted(a, perm))) == emit_hoa(construct(a))
