"""Golden bytes: the emitted automata must not change from one commit to the next.

The hash-seed test in test_hoa.py only shows that output is stable within
one checkout.  These digests pin the state numbering, the acceptance sets
and the HOA text of every construction, so a refactoring of the explorer
or of the tree types that reorders states fails here.
"""

import hashlib

import pytest

from omegadet import (
    emit_hoa,
    nbw_to_dpw,
    nsw_to_dpw,
    safra_determinize,
    streett_safra_determinize,
)
from omegadet.random_gen import random_nbw, random_nsw

from helpers import build_lk_fixture

GOLDEN = {
    "nbw_to_dpw": (
        "012b02bebe5b944eb17c3f49e68ff709f21ab83a320ea816e2f85bf3bac78ca7",
        "0d55b6efe391f7405d1f04ff45dbf84cef276ae2a5cd7f27a0d57463395a5645",
        "304120f19903ae73c65494ef9f045456ddeeb9a92bd13fb1e9f17635c2a72916",
        "b09b9cc74f094885fac49823436c83366843be0e38621082c60e5a85a5a9208c",
        "8958cdfa5f5eb3ba530632f77fbcbd94f1658172c7d54435e0a0dee11e3c9366",
        "76666c5baa1554805fe807c4144de561102a29785c4e1efd4ac01aa5b641bb80",
        "c3e5421a1f2e7e3ad28ec5376b341910a81ff3bbe117c25ad10fa044c7fe8e2b",
        "46fb86e44aa08d0cb82a5cb4351ed3a37458baacbb136734d8a134c3038372eb",
        "16f8bb37b906799c7939063c0fdb1e287fdf21b16ca7da9e4dcadd7bfee02ec7",
        "cb99c0637870f7de5f0116df1a2e106b29b4ca86ff0b090f171fbb9aea768fd9",
    ),
    "safra_determinize": (
        "73e841a92992ed129647f2eda24075f41eae28735047c1e6eb0f3cf310d0273e",
        "462b4746685f87e488e76d50205e7487bf8349b02604785f895c7eaf717cd660",
        "aaca0439f6d69768780b1d4b36bbd716d9fb3118dbc95c6348edc480bad0ebec",
        "44cbb2637839ddc1b2e7cb5a43c2ed8a401381fc99fe9d0a69dca3b3ac063c6b",
        "dd72f9b5e903994a1f71e8a2c684e06d10c8cd2e7e608eb667715c493ed5b5d7",
        "9f0c741a07450cf12f3f28f815e0849b2dbc4033fe295c81e0f87cb086e0f5a0",
        "2677da78b3011329d20931443c43c8da0b6e400abd4c6e0c31db5a45c5d559cd",
        "7cac111437b8748020e994368447905ea4158f60b5314f665af0954259b71185",
        "3b88746ddf11e33f6fec8c877c922f86511aa1f844425e1bb2c2f0d3b820b2cf",
        "54d24c117ef5f056359a93ca308482dead74a78e521138ad3aecb1ac502c1d91",
    ),
    "nsw_to_dpw": (
        "f30abbf7b25bccdea1f9dc29f204b6a045dc81449ef5a4e9d794e2effc291a71",
        "6c127d23d50d3157624eaa540486759654b882cd1c7b6190dd8f48766a381a0a",
        "03c9cbbc1c080881a46a19c168e0ea871cdfe4086597291732cbbbeb6e4a6dab",
        "0469a3361e067b50221db3fbc0681a4b5afd86f05165bbea4a10c77618b2ec10",
        "66fb549541e27fef46075be6555b950c87a36e7c359bfaa3d0a34af4d7060b4c",
        "a4e91941006f2fe2d4d7f91e82e0ee29e5a68211174a8a324af3c1802fe3e58c",
        "b106289aa383ae6e7a29d5edf5cb64df71650c2e4a9c6ee7522af3ae32527c23",
        "638fbc077415894b9aa417a2b6ec2a377c135b069ff312b0573732a1827577b9",
        "1c3834c5e701f337f17f861a7a0d1e6da714746d95207cf228ea0683b06f1743",
        "91b467b15537069db03898c432387adcc27294b5809b53f4583d8cd570bbdcf3",
    ),
    "streett_safra_determinize": (
        "77201af0618ea37560d273e2e389dad7f066fbba1506712e4d8920779218c1a1",
        "2c59d6298a0b331398c339de45a25d5f27f51dc1d0058245c5ea681dd0b784b8",
        "637adb48ce6856767b0f019d9b4748ef7a6cc6bd5d497dc93ffd9b3d6448951b",
        "d268f7dd0091dfd1e59a89ed7cc2bb449b7802ad70f99f39961a5655b05abbd1",
        "bffb456d7f98e75a3eb2727cb82c160cec2da6b7a1b2b94b7411db09d56aa499",
        "bb229bb58cc4abca6acfeff721f731756161ab515412d5727276a712de6432ee",
        "a6d41030ec7de407296c91018a1599531dcd043f2a7029aca2660c238e54e9bf",
        "85febf6bd7e0e118cf62dee3044b63c94bceabd9fd60e79a99e610565e5256c1",
        "f16a71ebd81109b7fa135262c37431a3b16562bf66c96f7fd413a3bcde90c426",
        "657c781c2019ff2ad460b88114c68fc18d2dd9844f11bd3b9115b7a13b4e7226",
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
LK5_DPW = "e27143f02b7d39ee92a5aeec2bd67d7325638cd0942bdbc243316768972642f7"


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
