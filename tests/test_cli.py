import json

import jsonschema
import numpy as np
import pytest

from robcls.cli import main
from robcls.report import report_schema


def test_classify_writes_valid_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        [
            "classify",
            "--metric",
            "schwarzschild",
            "--params",
            '{"M": 1, "dim": 5}',
            "--point",
            "0,3,1.0,0.5,0.2",
            "--robinson",
            "random:7",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    jsonschema.validate(report, report_schema())
    assert report["weyl_type"]["type"] == "II"
    assert report["predicates"]["algebraically_special"] is True
    assert report["predicates"]["aligned"] is True
    assert "III(b)" in report["weyl_type"]["subtype_flags"]  # Pi_1^1 = 0


def test_classify_byte_stable(tmp_path):
    args = [
        "classify",
        "--metric",
        "schwarzschild",
        "--params",
        '{"M": 1, "dim": 5}',
        "--point",
        "0,3,1.0,0.5,0.2",
        "--robinson",
        "random:7",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classify_search_minkowski(tmp_path):
    out = tmp_path / "mink.json"
    code = main(
        ["classify", "--metric", "minkowski", "--dim", "6", "--point", "0,0,0,0,0,0", "--search", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["weyl_type"]["type"] == "O"


def test_classify_domain_error():
    code = main(["classify", "--metric", "kk-bubble", "--point", "0,0.5,0,0,0"])
    assert code == 2


SCHW5 = ["classify", "--metric", "schwarzschild", "--params", '{"M": 1, "dim": 5}', "--point", "0,3,1.0,0.5,0.2"]


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--metric", "schwarzschild", "--params", '{"M": 1,', "--point", "0,3,1.0,0.5,0.2"],
        ["classify", "--metric", "schwarzschild", "--params", "[1, 5]", "--point", "0,3,1.0,0.5,0.2"],
        ["classify", "--metric", "schwarzschild", "--params", '{"M": 1, "dim": 5}', "--point", "0,3,1.0,0.5"],
        SCHW5 + ["--tol=-1e-9"],
        SCHW5 + ["--tol", "nan"],
        SCHW5 + ["--robinson", "random:x"],
        SCHW5 + ["--robinson", "random:-3"],
        ["classify", "--metric", "schwarzschild", "--params", '{"dim": "x"}', "--point", "0,3,1,0.5,0.2"],
        ["classify", "--metric", "schwarzschild", "--dim", "3", "--point", "0,3,1"],
        ["classify", "--metric", "schwarzschild", "--point", "nan,3,1,0.5,0.2"],
        ["classify", "--metric", "schwarzschild", "--point", "inf,3,1,0.5,0.2"],
        ["classify", "--metric", "iwasawa", "--search", "--point", "0.1,0.2,0.3,0.4,0.5,0.6"],
        ["classify", "--metric", "schwarzschild", "--dim", "0", "--point", "0,3,1,0.5,0.2"],
        ["classify", "--metric", "schwarzschild", "--dim", "-1", "--point", "0,3,1,0.5,0.2"],
    ],
    ids=[
        "params-json",
        "params-not-object",
        "point-count",
        "tol-negative",
        "tol-nan",
        "robinson-seed",
        "robinson-seed-negative",
        "params-bad-dim",
        "no-weyl-n3",
        "point-nan",
        "point-inf",
        "search-riemannian",
        "dim-zero",
        "dim-negative",
    ],
)
def test_classify_bad_input_one_line_exit_2(argv, capsys):
    """Malformed input gets a one-line error and the usage exit code, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_classify_unknown_metric():
    assert main(["classify", "--metric", "nosuch", "--point", "0"]) == 2


def test_classify_non_null_k():
    code = main(
        ["classify", "--metric", "minkowski", "--dim", "4", "--point", "0,0,0,0", "--k", "1,0,0,0"]
    )
    assert code == 2


def test_verify_dims_table(tmp_path, capsys):
    out = tmp_path / "dims.md"
    code = main(["verify-dims", "--n", "4..5", "--space", "C", "--level", "sim", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "C.0.1" in text and "| yes |" in text and "| NO |" not in text
    # n = 4 has no C.0.3 rows (low-dimension exclusion)
    rows4 = [line for line in text.splitlines() if line.startswith("| 4 ")]
    assert rows4 and not any("C.0.3" in r for r in rows4)


@pytest.mark.parametrize("spec", ["x", "4..x", "-1", "3..5", "9..4"])
def test_verify_dims_bad_n_one_line_exit_2(spec, capsys):
    assert main(["verify-dims", "--n", spec, "--space", "G", "--level", "sim"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "--n" in captured.err


def test_verify_dims_n6_includes_pm_rows(tmp_path):
    out = tmp_path / "dims6.json"
    code = main(["verify-dims", "--n", "6", "--space", "A", "--level", "sim", "--json", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    mods = {r["module"] for r in rows}
    assert "A.0.2+" in mods and "A.0.2-" in mods
    assert all(r["match"] for r in rows)


def test_regress_single_entry(tmp_path):
    out = tmp_path / "regress.md"
    code = main(["regress", "--only", "pp-wave", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "pp-wave" in text and "0 failed" in text


def test_regress_unknown_entry():
    assert main(["regress", "--only", "nosuch"]) == 2


def test_classify_indeterminate_exit_code(tmp_path):
    """A tolerance placed inside a module-norm band reports exit code 3."""
    out = tmp_path / "ind.json"
    code = main(
        [
            "classify",
            "--metric",
            "schwarzschild",
            "--params",
            '{"M": 1, "dim": 5}',
            "--point",
            "0,3,1.0,0.5,0.2",
            "--tol",
            "0.02",
            "--out",
            str(out),
        ]
    )
    assert code == 3
    report = json.loads(out.read_text())
    assert report["indeterminate"]


def test_distinguished_structures_registry():
    from robcls.catalog import ENTRIES, distinguished_structures

    named = 0
    for entry in ENTRIES.values():
        structs = distinguished_structures(entry)
        if entry.name != "minkowski":
            assert structs, entry.name
        named += len(structs)
    assert named >= 20
