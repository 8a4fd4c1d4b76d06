"""Each oracle accepts lielap's output and rejects it once corrupted;
the run summary scales times by the calibration.

    python3 -m pytest perfbench -q

Small instances of the four workloads; lielap is imported from src/.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
from lielap import cli  # noqa: E402
from lielap.algebra_core import SymTensor, identity_tensor, preset  # noqa: E402
from lielap.irreps import label  # noqa: E402
from lielap.operator import build_DV  # noqa: E402

P = oracles.PRIME


def run_cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--format", "json"]) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def generic_case():
    tensor, _ = inputs.generic_spectrum(0, 0)
    cutoff = Fraction(round(20 * inputs.smallest_eigenvalue(tensor) * 64), 64)
    doc = run_cli(["spectrum", "--group", "spin4", "--tensor",
                   json.dumps(inputs.rows_to_json(tensor)), "--max-eig", str(cutoff)])
    return doc, tensor, cutoff


def test_generic_accepts_lielap(generic_case):
    doc, tensor, cutoff = generic_case
    assert len(doc["entries"]) > 10
    assert oracles.check_generic_spectrum(doc, tensor, cutoff) == []


def test_generic_rejects_changed_multiplicity(generic_case):
    doc, tensor, cutoff = generic_case
    bad = copy.deepcopy(doc)
    bad["entries"][3]["multiplicity"] += 1
    assert oracles.check_generic_spectrum(bad, tensor, cutoff)


def test_generic_rejects_moved_eigenvalue(generic_case):
    doc, tensor, cutoff = generic_case
    bad = copy.deepcopy(doc)
    bad["entries"][5]["eigenvalue"] *= 1 + 1e-7
    assert oracles.check_generic_spectrum(bad, tensor, cutoff)


def test_generic_rejects_missing_entry(generic_case):
    doc, tensor, cutoff = generic_case
    bad = copy.deepcopy(doc)
    del bad["entries"][-1]
    assert oracles.check_generic_spectrum(bad, tensor, cutoff)


def test_generic_rejects_doubled_root(generic_case):
    # a label's eigenvalue listed twice in place of its neighbour
    doc, tensor, cutoff = generic_case
    bad = copy.deepcopy(doc)
    entries = bad["entries"]
    i = next(i for i in range(len(entries) - 1)
             if entries[i]["contributors"][0]["label"] == entries[i + 1]["contributors"][0]["label"])
    entries[i + 1]["eigenvalue"] = entries[i]["eigenvalue"]
    assert oracles.check_generic_spectrum(bad, tensor, cutoff)


def test_generic_spectrum_redraws_coincident_blocks():
    # equal block traces: (1,0) and (0,1) share the eigenvalue tr S_block
    rows = [[Fraction(int(i == j)) for j in range(6)] for i in range(6)]
    values = [r[0] for r in oracles.generic_spectrum_rows(rows, 3)]
    assert sum(abs(v - 3) < 1e-9 for v in values) == 2
    tensor, cutoff = inputs.generic_spectrum(0, 1)
    values = [r[0] for r in oracles.generic_spectrum_rows(tensor, cutoff)]
    assert all(b - a > inputs.GAP * b for a, b in zip(values, values[1:]))


@pytest.fixture(scope="module")
def berger_case():
    cutoff = 20
    doc = run_cli(["spectrum", "--group", "u2", "--gram",
                   json.dumps(inputs.rows_to_json(inputs.berger_gram())),
                   "--max-eig", str(cutoff)])
    return doc, cutoff


def test_berger_accepts_lielap(berger_case):
    doc, cutoff = berger_case
    assert oracles.check_berger_spectrum(doc, inputs.berger_gram(), cutoff) == []
    # 18.5 = 37/2 is a root of the degree-2 factor (2X - 37)(2X - 45)
    (e,) = [e for e in doc["entries"] if abs(e["eigenvalue"] - 18.5) < 1e-9]
    assert e["exact"] in (None, "37/2")


def test_berger_closed_form_small_values():
    spec = oracles.berger_spectrum(inputs.berger_gram(), 4)
    # (0;0) gives 0; (1;1) gives 3 + (1/2) + 1/3 twice over k = +-1, dim 2,
    # for l = 1 and l = -1
    assert spec[Fraction(0)] == {"multiplicity": 1, "contributors": {"0;0": 1}}
    assert spec[Fraction(23, 6)] == {"multiplicity": 8, "contributors": {"1;1": 2}}


def test_berger_rejects_changed_multiplicity(berger_case):
    doc, cutoff = berger_case
    bad = copy.deepcopy(doc)
    bad["entries"][4]["multiplicity"] -= 1
    assert oracles.check_berger_spectrum(bad, inputs.berger_gram(), cutoff)


def test_berger_rejects_flipped_verdict(berger_case):
    doc, cutoff = berger_case
    bad = copy.deepcopy(doc)
    e = next(e for e in bad["entries"] if not e["irreducible"])
    e["irreducible"], e["failed_condition"] = True, None
    assert oracles.check_berger_spectrum(bad, inputs.berger_gram(), cutoff)


def test_berger_rejects_wrong_exact_value(berger_case):
    doc, cutoff = berger_case
    bad = copy.deepcopy(doc)
    e = next(e for e in bad["entries"] if e["exact"] not in (None, "0"))
    e["exact"] = str(Fraction(e["exact"]) + Fraction(1, 7))
    assert oracles.check_berger_spectrum(bad, inputs.berger_gram(), cutoff)


@pytest.fixture(scope="module")
def witness_doc():
    return run_cli(["witness", "--group", "spin4", "--level", "2", "--seed", "0"])


def test_witness_accepts_lielap(witness_doc):
    assert witness_doc["success"]
    assert len(witness_doc["certificates"]) == 9 + 36
    assert oracles.check_witness(witness_doc, 2) == []


@pytest.mark.parametrize("index", [0, 4, 20])
def test_witness_rejects_value_off_by_one(witness_doc, index):
    bad = copy.deepcopy(witness_doc)
    cert = bad["certificates"][index]
    cert["value"] = str(Fraction(cert["value"]) + 1)
    assert oracles.check_witness(bad, 2)


def test_witness_rejects_dropped_certificate(witness_doc):
    bad = copy.deepcopy(witness_doc)
    del bad["certificates"][-1]
    assert oracles.check_witness(bad, 2)


def test_witness_rejects_failed_pair(witness_doc):
    bad = copy.deepcopy(witness_doc)
    bad["pairs"][0]["ok"] = False
    assert oracles.check_witness(bad, 2)


def _det_mod(rows, p=P):
    rows = [list(r) for r in rows]
    n, det = len(rows), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, n):
            u = rows[r][c] * inv % p
            rows[r] = [(x - u * y) % p for x, y in zip(rows[r], rows[c])]
    return det % p


def _sylvester_det_mod(f, g, p=P):
    n, m = len(f) - 1, len(g) - 1
    size = n + m
    rows = [[0] * i + f[::-1] + [0] * (size - i - n - 1) for i in range(m)]
    rows += [[0] * i + g[::-1] + [0] * (size - i - m - 1) for i in range(n)]
    return _det_mod(rows, p)


def test_resultant_mod_p_matches_sylvester_determinant():
    rng = random.Random(3)
    for _ in range(40):
        f = [rng.randrange(P) for _ in range(rng.randint(2, 7))]
        g = [rng.randrange(P) for _ in range(rng.randint(2, 7))]
        assert oracles.resultant_mod_p(f, g) == _sylvester_det_mod(f, g, P)
    # a common root gives zero
    assert oracles.resultant_mod_p([-2, 1], [-6, 1, 1]) == 0


def test_charpoly_mod_p_matches_determinants():
    rng = random.Random(5)
    n = 6
    M = [[rng.randrange(P) for _ in range(n)] for _ in range(n)]
    cp = oracles.charpoly_mod_p(M)
    for x in (0, 1, 12345):
        shifted = [[((x if i == j else 0) - M[i][j]) % P for j in range(n)] for i in range(n)]
        assert sum(c * pow(x, k, P) for k, c in enumerate(cp)) % P == _det_mod(shifted)


def _entries(op):
    return {(i, j): (v.re, v.im) for i, j, v in op.matrix.entries()}


def test_operator_checks_accept_lielap_and_reject_changed_entry():
    spec = preset("su2xsu2")
    rows = inputs.definite_tensor(random.Random(11))
    generic = SymTensor(tuple(map(tuple, rows)))
    for spins in [(0, 0), (1, 0), (2, 3), (4, 1)]:
        cas = _entries(build_DV(spec, label(spins), identity_tensor(6)))
        assert oracles.check_casimir_scalar(cas, spins) == []
        ent = _entries(build_DV(spec, label(spins), generic))
        assert oracles.check_trace(ent, spins, rows) == []
        assert oracles.check_weighted_hermitian(ent, spins) == []
        if spins in ((0, 0), (1, 0)):
            continue  # scalar operators: no entry off the diagonal
        bad = dict(cas)
        key = next(iter(bad))
        bad[key] = (bad[key][0] + 1, bad[key][1])
        assert oracles.check_casimir_scalar(bad, spins)
        off = [k for k in ent if k[0] != k[1]]
        bad = dict(ent)
        bad[off[0]] = (bad[off[0]][0] + Fraction(1, 3), bad[off[0]][1])
        assert oracles.check_weighted_hermitian(bad, spins)
        bad = dict(ent)
        diag = next(k for k in ent if k[0] == k[1])
        bad[diag] = (bad[diag][0] + 1, bad[diag][1])
        assert oracles.check_trace(bad, spins, rows)


def test_summarize_calibrates_times():
    import run

    def rec(wall, calibration):
        return {"wall_s": wall, "setup_s": 0.3, "calibration_s": calibration, "peak_rss_mb": 40.0,
                "attempted": 1, "failed": 0, "problems": []}

    # the second round ran on a machine 20 % slower: the same work once scaled
    rounds = [[rec(1.0, 0.25)], [rec(1.2, 0.30)], [rec(2.0, 0.25)]]
    result = run.summarize(rounds, trace=False)
    assert result["metrics"]["wall_s"] == {"value": pytest.approx(1.0 * run.CALIBRATION_S / 0.25), "unit": "s"}
    assert result["metrics"]["peak_rss_mb"]["value"] == 40.0
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 3, 0)
