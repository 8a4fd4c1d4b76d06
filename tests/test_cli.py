"""End-to-end CLI behavior: flags, exit codes, deterministic output."""

import json
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import lielap
from lielap.algebra_core import SymTensor, preset
from lielap.cli import main
from lielap.irreps import labels_up_to_level
from lielap.polycert import char_poly_of
from lielap.witness import certificate_battery


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_spectrum_text(capsys):
    rc, out, _ = run(
        capsys, "spectrum", "--group", "su2", "--tensor", "identity",
        "--max-eig", "8",
    )
    assert rc == 0
    lines = out.splitlines()
    assert any(line.strip().startswith("0") for line in lines)
    assert any(line.strip().startswith("8") for line in lines)


def test_spectrum_torus_gram(capsys):
    rc, out, _ = run(
        capsys, "spectrum", "--group", "t1", "--gram", "[[1]]",
        "--max-eig", "5", "--format", "csv",
    )
    assert rc == 0
    rows = out.strip().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "4"]


def test_spectrum_json_deterministic(capsys):
    args = (
        "spectrum", "--group", "u2", "--gram",
        '[["1","0","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","2"]]',
        "--max-eig", "4", "--format", "json",
    )
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["cutoff"] == "4"


def test_spectrum_missing_file_usage_error(capsys):
    rc, _, err = run(
        capsys, "spectrum", "--group", "su2", "--tensor", "/no/such/file.json",
        "--max-eig", "3",
    )
    assert rc == 2
    assert "cannot load" in err


def test_spectrum_indefinite_domain_error(capsys):
    # indefinite, then positive semidefinite and singular
    for gram in ("[[1,2],[2,1]]", "[[1,1],[1,1]]"):
        rc, _, err = run(
            capsys, "spectrum", "--group", "t2", "--gram", gram,
            "--max-eig", "3",
        )
        assert rc == 3
        assert "definite" in err


def test_spectrum_tensor_object_without_data_usage_error(capsys):
    # an input-file problem, not a domain violation
    rc, out, err = run(
        capsys, "spectrum", "--group", "su2", "--tensor", '{"foo": 1}', "--max-eig", "3",
    )
    assert rc == 2
    assert out == ""
    assert '"tensor" or "gram"' in err and "domain error" not in err


@pytest.mark.parametrize("flag, text", [
    ("--group-file", "[1]"),
    ("--group-file", '{"k": 1, "n": 0, "central": "x"}'),
    ("--group-file", '{"k": 1, "n": 0, "central": [5]}'),
    ("--tensor", "5"),
    ("--tensor", '"x"'),
    ("--gram", "null"),
])
def test_malformed_json_file_usage_error(capsys, tmp_path, flag, text):
    # JSON of the wrong shape is a usage error (exit 2), not a traceback
    path = tmp_path / "input.json"
    path.write_text(text)
    group = [] if flag == "--group-file" else ["--group", "su2"]
    rc, out, err = run(capsys, "spectrum", *group, flag, str(path), "--max-eig", "3")
    assert rc == 2
    assert out == ""
    assert "Traceback" not in err


def test_spectrum_bad_cutoff(capsys):
    rc, _, err = run(
        capsys, "spectrum", "--group", "su2", "--max-eig", "eight",
    )
    assert rc == 2


def test_usage_error_on_unknown_subcommand():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_certify_round_metric_fails(capsys):
    rc, out, _ = run(capsys, "certify", "--group", "su2", "--level", "4")
    assert rc == 1
    assert "verdict: false" in out


def test_certify_json_structure(capsys):
    rc, out, _ = run(
        capsys, "certify", "--group", "so3", "--level", "2", "--format", "json",
    )
    doc = json.loads(out)
    assert doc["labels"] == ["0", "2"]
    assert {c["kind"] for c in doc["certificates"]} <= {"a", "b", "c"}


def test_certify_json_past_int_str_digit_limit(capsys):
    # resultants of this tensor pass the 4300 digits that str() of an int
    # allows; the JSON document still carries every value exactly
    d = 10**119
    off = {(0, 1): d + 1, (0, 2): d + 3, (1, 2): d + 7}
    diag = ["1", "3/2", "2"]
    rows = [[diag[i] if i == j else f"1/{off[min(i, j), max(i, j)]}"
             for j in range(3)] for i in range(3)]
    limit = sys.get_int_max_str_digits()
    rc, out, _ = run(
        capsys, "certify", "--group", "su2", "--level", "6",
        "--tensor", json.dumps(rows), "--format", "json",
    )
    assert rc == 0
    assert sys.get_int_max_str_digits() == limit
    doc = json.loads(out)
    spec = preset("su2")
    tensor = SymTensor(tuple(tuple(Fraction(x) for x in r) for r in rows))
    labels = labels_up_to_level(spec, 6)
    certs = certificate_battery(
        labels, [char_poly_of(spec, lab, tensor) for lab in labels]
    )
    assert len(certs) == len(doc["certificates"])
    longest = max(len(c["value"]) for c in doc["certificates"])
    assert longest > 2 * limit
    for cert, entry in zip(certs, doc["certificates"]):
        num, _, den = entry["value"].partition("/")
        assert Fraction(int(Decimal(num)), int(Decimal(den or 1))) == cert.value


def test_witness_roundtrip_certify(capsys, tmp_path):
    rc, out, _ = run(
        capsys, "witness", "--group", "so3", "--level", "4", "--seed", "42",
        "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["success"] is True
    tensor_file = tmp_path / "witness_tensor.json"
    tensor_file.write_text(json.dumps(doc["tensor"]))
    rc, out, _ = run(
        capsys, "certify", "--group", "so3", "--level", "4",
        "--tensor", str(tensor_file),
    )
    assert rc == 0
    assert "verdict: true" in out


def test_witness_deterministic_json(capsys):
    args = ("witness", "--group", "su2", "--level", "3", "--seed", "7",
            "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0 and out1 == out2


def test_witness_exhausted_prints_best_report(capsys):
    rc, out, err = run(
        capsys, "witness", "--group", "spin4", "--level", "4", "--trials", "1",
        "--seed", "4", "--format", "json",
    )
    assert rc == 1
    doc = json.loads(out)
    assert doc["success"] is False and doc["trial"] == 0
    n = len(labels_up_to_level(preset("spin4"), 4))
    certs = doc["certificates"]
    assert len(certs) == n * (n + 1) // 2  # one b or c per label, one a per pair
    assert any(not c["nonzero"] for c in certs)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_witness_rejects_nonpositive_trials(capsys, trials):
    # no search runs, so nothing partial exists to print: a usage error,
    # not the exit code 1 of an exhausted search
    rc, out, err = run(
        capsys, "witness", "--group", "spin4", "--level", "2", "--trials", trials,
    )
    assert rc == 2
    assert out == ""
    assert "--trials" in err and "search failed" not in err


def test_witness_su2xsu2_includes_pairs(capsys):
    rc, out, _ = run(
        capsys, "witness", "--group", "su2xsu2", "--level", "3",
        "--seed", "0", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    spins = [tuple(p["spins"]) for p in doc["pairs"]]
    assert spins == [(1, 1), (1, 3), (3, 3)]
    assert all(p["ok"] for p in doc["pairs"])


def test_witness_runs_pairs_only_on_labels_of_the_group(capsys, tmp_path):
    # SO(3) x SU(2): no label with an odd first spin descends, so no pair does
    group = {"k": 2, "n": 0, "central": [{"signs": [-1, 1], "torus": []}]}
    gf = tmp_path / "group.json"
    gf.write_text(json.dumps(group))
    rc, out, _ = run(
        capsys, "witness", "--group-file", str(gf), "--level", "3",
        "--seed", "0", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["pairs"] == []
    assert doc["group"] == group


def test_witness_u2_includes_mixed(capsys):
    rc, out, _ = run(
        capsys, "witness", "--group", "u2", "--level", "2",
        "--seed", "0", "--format", "json",
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["mixed"]
    assert all(entry["ok"] for entry in doc["mixed"])


def test_verify_paper_all(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--max-m", "6")
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 8
    assert all(l.startswith("PASS") for l in lines)


def test_verify_paper_single_check(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--check", "eigH", "--m", "7")
    assert rc == 0
    assert out.startswith("PASS eigH")


@pytest.mark.parametrize("check", ["eigH", "all"])
def test_verify_paper_rejects_negative_max_m(capsys, check):
    rc, out, err = run(capsys, "verify-paper", "--check", check, "--max-m", "-1")
    assert rc == 2
    assert out == ""
    assert "--max-m" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--check", "all", "--m", "2"), "--m "),
        (("--check", "all", "--m", "0"), "--m "),
        (("--check", "pairs-ii", "--mprime", "4"), "--mprime "),
        (("--check", "pairs-ii", "--mprime", "-1"), "--mprime "),
        (("--check", "pairs-ii", "--m", "1", "--mprime", "-3"), "--mprime "),
    ],
)
def test_verify_paper_pairs_ii_rejects_even_or_nonpositive_spins(capsys, argv, flag):
    rc, out, err = run(capsys, "verify-paper", *argv)
    assert rc == 2
    assert out == ""
    assert flag in err


def test_verify_paper_even_m_is_fine_without_pairs_ii(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--check", "eigH", "--m", "2")
    assert rc == 0
    assert out.startswith("PASS eigH")


@pytest.mark.parametrize(
    "argv, idle",
    [
        (("--max-m", "0"), ["quaternionic-double", "tridiag"]),
        (("--max-m", "1"), ["tridiag"]),
        (("--check", "tridiag", "--max-m", "1"), ["tridiag"]),
        (("--check", "quaternionic-double", "--max-m", "0"), ["quaternionic-double"]),
    ],
)
def test_verify_paper_rejects_a_max_m_that_leaves_a_check_no_case(capsys, argv, idle):
    rc, out, err = run(capsys, "verify-paper", *argv)
    assert rc == 2
    assert out == ""
    assert "--max-m" in err and all(name in err for name in idle)
    assert all(name not in err for name in {"quaternionic-double", "tridiag"} - set(idle))


def test_verify_paper_least_max_m_runs_a_case(capsys):
    rc, out, _ = run(capsys, "verify-paper", "--check", "tridiag", "--max-m", "2")
    assert rc == 0 and out.startswith("PASS tridiag: m=2:")
    rc, out, _ = run(capsys, "verify-paper", "--check", "quaternionic-double", "--max-m", "1")
    assert rc == 0 and out.startswith("PASS quaternionic-double")


def test_verify_paper_unknown_check():
    with pytest.raises(SystemExit) as exc:
        main(["verify-paper", "--check", "nope"])
    assert exc.value.code == 2


def test_output_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    rc, out, _ = run(
        capsys, "spectrum", "--group", "su2", "--max-eig", "3",
        "--format", "csv", "--output", str(target),
    )
    assert rc == 0 and out == ""
    assert target.read_text().startswith("eigenvalue,")


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "su2", "max-eig": "8"}))
    rc, out, _ = run(capsys, "spectrum", "--config", str(cfg))
    assert rc == 0
    assert "8" in out


def test_config_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "su2", "max-eig": "8", "bogus": 1}))
    rc, _, err = run(capsys, "spectrum", "--config", str(cfg))
    assert rc == 2
    assert "bogus" in err


def test_config_values_go_through_the_flag_checks(capsys, tmp_path):
    # --trials, --seed, --format and --max-m have defaults, and a config
    # file must still set them, through the same type and choice checks
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 0, "format": "json"}))
    rc, out, err = run(capsys, "witness", "--group", "su2", "--level", "1", "--config", str(cfg))
    assert rc == 2 and "--trials" in err and out == ""

    cfg.write_text(json.dumps({"format": "json", "seed": 3}))
    rc, out, _ = run(capsys, "witness", "--group", "su2", "--level", "1", "--config", str(cfg))
    assert rc == 0 and json.loads(out)["seed"] == 3
    rc, out, _ = run(
        capsys, "witness", "--group", "su2", "--level", "1", "--config", str(cfg),
        "--format", "text",
    )
    assert rc == 0 and out.startswith("group su2")

    cfg.write_text(json.dumps({"max-m": 2, "format": "json"}))
    rc, out, _ = run(capsys, "verify-paper", "--check", "casimir", "--config", str(cfg))
    assert rc == 0 and "m <= 2" in out

    cfg.write_text(json.dumps({"format": "yaml"}))
    with pytest.raises(SystemExit) as exc:
        main(["witness", "--group", "su2", "--level", "1", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "invalid choice: 'yaml'" in capsys.readouterr().err


def test_group_file(capsys, tmp_path):
    gf = tmp_path / "group.json"
    gf.write_text(json.dumps({"k": 0, "n": 1, "central": []}))
    rc, out, _ = run(
        capsys, "spectrum", "--group-file", str(gf), "--max-eig", "4",
        "--format", "csv",
    )
    assert rc == 0
    assert [r.split(",")[0] for r in out.strip().splitlines()[1:]] == ["0", "1", "4"]


def test_unnamed_group_file_text_names_the_group_by_k_and_n(capsys, tmp_path):
    gf = tmp_path / "group.json"
    gf.write_text(json.dumps({"k": 1, "n": 0}))
    rc, out, _ = run(capsys, "spectrum", "--group-file", str(gf), "--tensor", "identity",
                     "--max-eig", "8")
    assert rc == 0 and out.startswith("group k1n0  cutoff 8  tensor ")
    rc, out, _ = run(capsys, "witness", "--group-file", str(gf), "--level", "2")
    assert rc == 0 and out.startswith("group k1n0 level 2 seed 0: certified")
    gf.write_text(json.dumps({"k": 2, "n": 0}))
    rc, out, _ = run(capsys, "witness", "--group-file", str(gf), "--level", "4",
                     "--trials", "1", "--seed", "4")
    assert rc == 1 and out.startswith("group k2n0 level 4 seed 4: search exhausted")
    # JSON keeps the group as given, with no name
    rc, out, _ = run(capsys, "spectrum", "--group-file", str(gf), "--tensor", "identity",
                     "--max-eig", "3", "--format", "json")
    assert rc == 0 and json.loads(out)["group"] == {"k": 2, "n": 0}


@pytest.mark.parametrize(
    "doc",
    [
        {"k": 1.7, "n": 0},
        {"k": True, "n": 0},
        {"k": 1, "n": 0.0},
        {"k": 1, "n": 0, "central": [{"signs": [-1.0]}]},
        {"k": 1, "n": 0, "central": [{"signs": [True]}]},
    ],
)
def test_group_file_rejects_non_integers(capsys, tmp_path, doc):
    gf = tmp_path / "group.json"
    gf.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "spectrum", "--group-file", str(gf), "--max-eig", "4")
    assert rc == 2
    assert out == ""
    assert "must be an integer" in err


def test_readme_entry_points_and_public_names_resolve():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sentence = re.search(r"the usual entry points are(.*?)\.\n", readme, re.S).group(1)
    entry_points = re.findall(r"`(\w+)`", sentence)
    assert "certificate_battery" in entry_points
    assert set(entry_points) <= set(lielap.__all__)
    assert [n for n in lielap.__all__ if not hasattr(lielap, n)] == []


_LAZY_IMPORT = """
import importlib, json, sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("lielap."))

import lielap
bare = loaded()
from lielap import operator
layer = loaded()
same = all(
    getattr(lielap, name) is getattr(importlib.import_module("lielap." + home), name)
    for home, names in lielap._HOMES.items() for name in names
)
try:
    lielap.no_such_name
    unknown = False
except AttributeError:
    unknown = True
print(json.dumps([bare, layer, operator.__name__, same, unknown]))
"""


def test_package_names_are_imported_on_first_use():
    # a fresh interpreter, so that no other test has imported a layer yet
    path = [str(Path(lielap.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", _LAZY_IMPORT], env=env, capture_output=True, text=True, check=True
    ).stdout
    bare, layer, name, same, unknown = json.loads(out)
    assert bare == []
    assert name == "lielap.operator"
    above = {"lielap.poly", "lielap.polycert", "lielap.spectrum", "lielap.witness", "lielap.cli"}
    assert not above & set(layer)
    assert same and unknown
    homes = [name for names in lielap._HOMES.values() for name in names]
    assert lielap.__all__ == sorted(set(homes)) and len(homes) == len(set(homes))
