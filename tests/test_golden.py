"""Golden outputs: the sha256 of `--format json` files of fixed CLI runs.

The digests were taken before the polynomial layer moved from Fraction
coefficients to integer ones, and the swap-symmetric spectrum's before
coincidences were decided from pinned brackets, so any change to a
reported eigenvalue, exact root, certificate value or verdict on these
runs fails here.  The witness digests were retaken when the witness
document's "group" became the group object, as in the certify and
spectrum documents; nothing else in them changed.  The t3 spectrum's
digest was taken before coincidences were keyed by each root's nearest
double: its 86 entries are rational roots shared by up to 72 labels.
The two torus2 digests were taken before each operator class did its
work on its member of least torus scalar instead of its first label.
Each run writes its JSON document with --output and the file's bytes
are hashed; the exit code is pinned too.
"""

import hashlib
import json

import pytest

from lielap.cli import main


def _spin4_tensor(numerators) -> str:
    """Inline JSON rows of a symmetric spin4 tensor over the denominator 31."""
    return json.dumps([[f"{x}/31" for x in row] for row in numerators])


# two spectrum_generic tensors of the benchmark (seed 0, rounds 0 and 1)
GENERIC_0 = _spin4_tensor([
    [38, 2, 1, 2, -3, -4], [2, 32, 4, 2, 4, 4], [1, 4, 24, 1, -3, 3],
    [2, 2, 1, 32, -1, 4], [-3, 4, -3, -1, 25, -1], [-4, 4, 3, 4, -1, 30],
])
GENERIC_1 = _spin4_tensor([
    [33, 4, -3, 2, -3, 2], [4, 25, -2, 1, 1, -1], [-3, -2, 35, -3, 3, -2],
    [2, 1, -3, 34, -4, 4], [-3, 1, 3, -4, 39, 4], [2, -1, -2, 4, 4, 23],
])
# su2 x su2 tensor symmetric under the factor swap: the labels (m, m') and
# (m', m) have one charpoly, so their irrational roots coincide
SWAP = _spin4_tensor([
    [38, 2, 1, 3, -2, 1], [2, 32, 4, -2, 1, 2], [1, 4, 24, 1, 2, -4],
    [3, -2, 1, 38, 2, 1], [-2, 1, 2, 2, 32, 4], [1, 2, -4, 1, 4, 24],
])
BERGER = '[["1","0","0","0"],["0","1","0","0"],["0","0","2/3","0"],["0","0","0","3"]]'
# SU(2) x T^2 over a central quotient and a tensor without torus-SU(2)
# coupling (TORUS2 of test_spectrum.py): the class of the spins (1,) has
# its least torus scalar at (1; 1, 3), not at its first label (1; 1, 0).
# The group is written to a file that replaces GROUP_FILE in the argv
TORUS2_GROUP = {"k": 1, "n": 2, "central": [{"signs": [-1], "torus": ["1/2", "1/3"]}]}
TORUS2 = json.dumps([
    ["1", "1/7", "0", "0", "0"], ["1/7", "3/2", "0", "0", "0"], ["0", "0", "2", "0", "0"],
    ["0", "0", "0", "1", "-1/5"], ["0", "0", "0", "-1/5", "1/10"],
])
GROUP_FILE = "<group file>"

RUNS = {
    "witness-spin4-l4-s0": (
        ["witness", "--group", "spin4", "--level", "4", "--seed", "0"], 0,
        "26a7279c89d456c4b1f1fede8dae068af8252a56ba8fa92e86352b32243e4cc2",
    ),
    "witness-spin4-l4-s1": (
        ["witness", "--group", "spin4", "--level", "4", "--seed", "1"], 0,
        "c32278db8b5cd7f6663378ab1ee668851021d996f25b192a9071d4d2d1996cfa",
    ),
    "witness-spin4-l4-s2": (
        ["witness", "--group", "spin4", "--level", "4", "--seed", "2"], 0,
        "187da23601d0772d2b64116213974f9f309aacf1a83d8e76334f3d52bb2b0e68",
    ),
    "witness-spin4-l4-s3": (
        ["witness", "--group", "spin4", "--level", "4", "--seed", "3"], 0,
        "c3a7beffcb2e77045b13828f2da909acf9812994feae991b5da28964d74c7509",
    ),
    "certify-u2-l4": (
        ["certify", "--group", "u2", "--level", "4"], 1,
        "27c5e4627abe0ab78487635baedd8120829ba3d74a79bbe3850f6ddcff027366",
    ),
    "spectrum-berger": (
        ["spectrum", "--group", "u2", "--gram", BERGER, "--max-eig", "80"], 0,
        "a104c5bb5e2f3a44610cc96867fd95dc86f4d0f73013ab7dbb892ae13f740635",
    ),
    "spectrum-generic-0": (
        ["spectrum", "--group", "spin4", "--tensor", GENERIC_0, "--max-eig", "1779/64"], 0,
        "a0eb55820495b50446d2f1cfbe1cdbb5d48175b5fc2bcdf6b4eabf8c72cf0e24",
    ),
    "spectrum-generic-1": (
        ["spectrum", "--group", "spin4", "--tensor", GENERIC_1, "--max-eig", "1797/64"], 0,
        "7daab8961f50da56421c9d996ede42b16ee0051f7d74e742fbb673845d96a17f",
    ),
    "spectrum-t3": (
        ["spectrum", "--group", "t3", "--max-eig", "100"], 0,
        "9037c68f808f5c6e7f516e246997351641d4b2ddf5ff68cd37efdad6ab21b251",
    ),
    "spectrum-swap-symmetric": (
        ["spectrum", "--group", "su2xsu2", "--tensor", SWAP, "--max-eig", "40"], 0,
        "6ebffc969f3b55a87c74fb3a9edf98f8df52f261e228c4302c9556f7f3a0d148",
    ),
    "spectrum-torus2-5.4": (
        ["spectrum", "--group-file", GROUP_FILE, "--tensor", TORUS2, "--max-eig", "27/5"], 0,
        "72a66eb070a7b581e8d20fe77a6185a779b49c07af4453d41818416a88caa25a",
    ),
    "spectrum-torus2-40": (
        ["spectrum", "--group-file", GROUP_FILE, "--tensor", TORUS2, "--max-eig", "40"], 0,
        "dd651eb5c7318b9af03e5ea241ab24472ecbd6514eaca0ae7019cdbb5361f1d8",
    ),
    "verify-paper": (
        ["verify-paper"], 0,
        "c5a1a06c86e0ca7d1dcb1ea250c0363ae2b09d9ee406a668c588e4eec52133a3",
    ),
}


@pytest.mark.parametrize("name", list(RUNS))
def test_json_output_matches_golden_digest(name, tmp_path):
    argv, code, digest = RUNS[name]
    group = tmp_path / "group.json"
    group.write_text(json.dumps(TORUS2_GROUP))
    argv = [str(group) if a == GROUP_FILE else a for a in argv]
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--output", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
