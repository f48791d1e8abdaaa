import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from conftest import report_schema
import robcls
from robcls.cli import main


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
        ["classify", "--metric", "iwasawa", "--point", "0.3,-0.2,0.5,0.1,-0.4,0.7", "--robinson", "N0"],
        ["classify", "--metric", "schwarzschild", "--point", "0,3,1,0.5,0.2", "--k=1,0"],
        ["classify", "--metric", "schwarzschild", "--point", "0,3,1,0.5,0.2", "--k=1,1,0,0,0,0"],
        ["classify", "--metric", "schwarzschild", "--point", "0,3,1,0.5,0.2", "--k=nan,1,0,0,0"],
        ["classify", "--metric", "schwarzschild", "--point", "0,3,1,0.5,0.2", "--k=inf,inf,0,0,0"],
        ["classify", "--metric", "minkowski", "--dim", "11", "--point", ",".join(["0"] * 11), "--search"],
        ["classify", "--metric", "minkowski", "--params", '{"dim": 11}', "--point", ",".join(["0"] * 11), "--search"],
        ["classify", "--metric", "kk-bubble", "--dim", "9", "--point", "0,3,0.3,0.2,-0.4"],
        ["classify", "--metric", "taub-nut", "--params", '{"dim": 7}', "--point", "0,2,0.3,-0.2,0.5,0.1"],
        ["classify", "--metric", "myers-perry", "--dim", "6", "--point", "0,2.2,0.5,1.2,-0.6,0.1"],
        ["classify", "--metric", "taub-nut", "--params", '{"F": 3}', "--point", "0,3,0.3,0.2,-0.4,0.1"],
        ["classify", "--metric", "robinson-trautman", "--params", '{"screen": "cubes"}', "--point", "0,3,0.3,0.2,-0.4,0.1"],
        ["classify", "--metric", "pp-wave", "--params", '{"vacuum": "no"}', "--point", "0,3,0.3,0.2,0.1,0.2"],
        ["classify", "--metric", "taub-nut", "--params", '{"F": [0]}', "--point", "0,2,0.3,-0.2,0.5,0.1"],
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
        "riemannian-named-structure",
        "k-short",
        "k-long",
        "k-nan",
        "k-inf",
        "dim-11",
        "params-dim-11",
        "fixed-dim-ignored",
        "fixed-dim-params-ignored",
        "fixed-dim-built",
        "taub-nut-F-not-list",
        "rt-screen-unknown",
        "pp-wave-vacuum-not-bool",
        "taub-nut-F-vanishing",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_bad_input_one_line_exit_2(argv, capsys):
    """Malformed input gets a one-line error and the usage exit code, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


def test_classify_negative_mass(tmp_path):
    """Negative-mass Schwarzschild has a real domain radius, so classify reports it."""
    out = tmp_path / "negative.json"
    assert main(["classify", "--metric", "schwarzschild", "--params", '{"M": -1}', "--point", "0,3,1,0.5,0.2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"] == {"M": -1, "dim": 5}


def test_classify_unknown_metric():
    assert main(["classify", "--metric", "nosuch", "--point", "0"]) == 2


def test_classify_non_null_k():
    code = main(
        ["classify", "--metric", "minkowski", "--dim", "4", "--point", "0,0,0,0", "--k", "1,0,0,0"]
    )
    assert code == 2


def test_classify_negative_k_needs_equals_form(capsys):
    """argparse reads a value starting with '-' as an option, so only --k=-1,... passes it."""
    point = ["classify", "--metric", "minkowski", "--point", "0,0,0,0,0,0"]
    assert main(point + ["--k=-1,1,0,0,0,0"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(point + ["--k", "-1,1,0,0,0,0"])
    assert exc.value.code == 2
    assert "--k" in capsys.readouterr().err


def test_verify_dims_table(tmp_path, capsys):
    out = tmp_path / "dims.md"
    code = main(["verify-dims", "--n", "4..5", "--space", "C", "--level", "sim", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "C.0.1" in text and "| yes |" in text and "| NO |" not in text
    # n = 4 has no C.0.3 rows (low-dimension exclusion)
    rows4 = [line for line in text.splitlines() if line.startswith("| 4 ")]
    assert rows4 and not any("C.0.3" in r for r in rows4)


@pytest.mark.parametrize("spec", ["x", "4..x", "-1", "3..5", "9..4", "10", "4..20"])
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


def _patch_g01_params(monkeypatch, n, params):
    """Give the sim module G.0.1 at dimension n the parameter list ``params(p)``, p its own parameters."""
    from robcls import modules

    mod = modules._BY_LABEL["G", 0, 1]
    real = mod.params.sim_params
    space = dataclasses.replace(mod.params, sim_params=lambda nn: params(real(nn)) if nn == n else real(nn))
    monkeypatch.setitem(modules._BY_LABEL, ("G", 0, 1), dataclasses.replace(mod, params=space))


def test_verify_dims_exits_4_on_marginal_rank(monkeypatch, tmp_path):
    """Parameters of G.0.1 (sim, n = 5) whose Gram spectrum holds a kept
    eigenvalue only 10^1.2 above a dropped one: the rank still matches the
    closed form, but the rank decision is marginal, so verify-dims exits 4."""
    from robcls import modules
    from robcls.repdims import computed_module_dim

    n, key = 5, modules.ModuleKey("G", 0, 1)

    def params(p):
        s = np.zeros((n, n))
        s[1, 2] = s[2, 1] = 1.0
        s *= np.linalg.norm(p[2]) / np.linalg.norm(s)  # a symmetric screen tensor with the parameters' norm
        return [p[0], p[1], 10**-4.6 * p[2], 10**-5.2 * s]

    _patch_g01_params(monkeypatch, n, params)
    modules.sim_table.cache_clear()
    try:
        chk = computed_module_dim("G", n, key, "sim")
        assert chk.computed_dim == chk.formula_dim == 3
        assert not chk.stable and abs(chk.gap - 10**0.6) < 0.05
        out = tmp_path / "dims.md"
        assert main(["verify-dims", "--n", "5", "--space", "G", "--level", "sim", "--out", str(out)]) == 4
    finally:
        monkeypatch.undo()
        modules.sim_table.cache_clear()


def test_verify_dims_exits_1_on_rank_mismatch(monkeypatch, capsys):
    """G.0.1 (sim, n = 5) given two of its three parameters: verify-dims
    reports the module as a NO row and exits 1, with no traceback, and the
    table refuses to decompose a tensor."""
    from robcls import frames, modules
    from robcls.simclass import decompose

    n = 5
    _patch_g01_params(monkeypatch, n, lambda p: p[:2])
    modules.sim_table.cache_clear()
    try:
        assert main(["verify-dims", "--n", "5", "--space", "G", "--level", "sim"]) == 1
        out = capsys.readouterr().out
        assert "| 5 | sim | G.0.1 | 3 | 2 | NO |" in out.splitlines()
        with pytest.raises(RuntimeError, match=r"sim module G\.0\.1 \(n=5\): dim 2 != expected 3"):
            decompose("G", np.zeros((n, n)), frames.reference_frame(n))
    finally:
        monkeypatch.undo()
        modules.sim_table.cache_clear()


def test_main_builds_its_parser_once(monkeypatch, capsys):
    import argparse

    from robcls import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    try:
        for _ in range(2):
            assert main(["verify-dims", "--n", "3", "--space", "G", "--level", "sim"]) == 2
    finally:
        cli._parser.cache_clear()
    assert built.count("robcls") == 1
    assert capsys.readouterr().err.count("--n must be") == 2


def test_regress_single_entry(tmp_path):
    out = tmp_path / "regress.md"
    code = main(["regress", "--only", "pp-wave", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "pp-wave" in text and "0 failed" in text


def test_regress_unknown_entry():
    assert main(["regress", "--only", "nosuch"]) == 2


@pytest.mark.parametrize(
    "argv, out",
    [
        (["classify", "--metric", "schwarzschild", "--params", '{"dim": 4}', "--point", "0,3,0.9,0.5"], "missing/x.json"),
        (["verify-dims", "--n", "4", "--space", "G", "--level", "sim"], "."),
        (["regress", "--only", "pp-wave"], "missing/regress.md"),
    ],
    ids=["classify", "verify-dims", "regress"],
)
def test_unwritable_out_one_line_exit_2(argv, out, tmp_path, capsys):
    """An --out that cannot be opened (a missing directory, a directory) is a usage error, not a traceback."""
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert "cannot write --out" in captured.err


def test_regress_leaves_scipy_optimize_unloaded():
    """Only the search polish imports scipy.optimize, and a regress of kk-bubble never polishes."""
    src = str(Path(robcls.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import os, sys\n"
        "from robcls.cli import main\n"
        "assert main(['regress', '--only', 'kk-bubble', '--out', os.devnull]) == 0\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_commands_without_search_leave_scipy_unloaded():
    """No command imports scipy on start-up; kk-bubble's regress builds a 4000-point sphere grid."""
    src = str(Path(robcls.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import os, sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "from robcls.cli import main\n"
        "print(scipy_modules())\n"
        "assert main(['verify-dims', '--n', '4..5', '--out', os.devnull]) == 0\n"
        "print(scipy_modules())\n"
        "assert main(['regress', '--only', 'kk-bubble', '--out', os.devnull]) == 0\n"
        "print(scipy_modules())\n"
        "assert main(['classify', '--metric', 'schwarzschild', '--point', '0,3,1,0.5,0.2', '--out', os.devnull]) == 0\n"
        "print(scipy_modules())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n" * 4


def test_perfbench_tracer_binds_to_robcls():
    """perfbench/tracer.py wraps robcls names by attribute; a traced classify runs and records its layers."""
    src = str(Path(robcls.__file__).resolve().parent.parent)
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {perfbench!r})\n"
        "import tracer\n"
        "tr = tracer.install()\n"
        "from robcls.cli import main\n"
        "argv = ['classify', '--metric', 'schwarzschild', '--dim', '4', '--point', '0,3,1,0.5',\n"
        "        '--robinson', 'random:7', '--out', os.devnull]\n"
        "assert main(argv) == 0\n"
        "print(' '.join(sorted({name for _, name in tr.self_times()})))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    layers = set(out.stdout.split())
    assert {
        "cli.main",
        "chart.evaluate",
        "chart.curvature.n4",
        "frames.complete_null_frame",
        "simclass.weyl_type_at_frame",
        "simclass.decompose",
        "robclass.refined_flags",
        "robclass.predicates",
        "report.to_json",
    } <= layers, layers


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
    from robcls.catalog import ENTRIES

    named = 0
    for entry in ENTRIES.values():
        params = dict(entry.default_params)
        cp = entry.build(params).evaluate(entry.sample_points(params)[0])
        structs = {**entry.null_lines(cp, params), **entry.structures(params)}
        if entry.name != "minkowski":
            assert structs, entry.name
        named += len(structs)
    assert named >= 20


LORENTZIAN = ("minkowski", "pp-wave", "walker", "schwarzschild", "myers-perry", "kk-bubble", "robinson-trautman", "taub-nut")


def _classify_at_sample(metric, extra, tmp_path):
    """Run classify at the first sample point of a catalog entry; return (code, report, chart point, params)."""
    from robcls.catalog import ENTRIES

    entry = ENTRIES[metric]
    params = dict(entry.default_params)
    pt = entry.sample_points(params)[0]
    out = tmp_path / "named.json"
    argv = ["classify", "--metric", metric, "--point", ",".join(repr(float(v)) for v in pt), "--out", str(out)]
    code = main(argv + extra)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, entry.build(params).evaluate(pt), params


def _reported(**fields):
    """Fields as a report serialises them (floats rounded to 15 digits)."""
    from robcls.report import ClassificationReport

    return ClassificationReport("", "", {}, [], {}, **fields).to_dict()


def _catalog_lines(metric, cp, params):
    from robcls import catalog

    if metric == "schwarzschild":
        return catalog.schwarzschild_null_lines(cp)
    if metric == "myers-perry":
        return catalog.mp_null_lines(cp, params)
    if metric == "robinson-trautman":
        return catalog.rt_null_lines(cp)
    k = np.zeros(cp.n)
    k[1] = 1.0
    return {"K": k}  # pp-wave and walker: the parallel line e_1


@pytest.mark.parametrize(
    "metric,name",
    [(m, k) for m in ("schwarzschild", "myers-perry", "robinson-trautman") for k in ("K", "L", "ingoing", "outgoing", "l")]
    + [(m, k) for m in ("pp-wave", "walker") for k in ("K", "k")],
)
def test_classify_named_k(metric, name, tmp_path):
    """--k accepts the catalog's named null lines and their aliases (pp-wave and walker name only K)."""
    code, report, cp, params = _classify_at_sample(metric, ["--k", name], tmp_path)
    assert code == 0
    canonical = {"ingoing": "K", "outgoing": "L", "k": "K", "l": "L"}.get(name.lower(), name)
    assert report["frame"]["k"] == _reported(frame={"k": _catalog_lines(metric, cp, params)[canonical]})["frame"]["k"]


@pytest.mark.parametrize("metric", LORENTZIAN)
def test_classify_default_direction(metric, tmp_path):
    """Without --k the frame is built on the entry's line K, else on the first orthonormal null direction."""
    from robcls.frames import orthonormal_basis

    code, report, cp, params = _classify_at_sample(metric, [], tmp_path)
    assert code == 0
    if metric in ("minkowski", "kk-bubble", "taub-nut"):
        basis = orthonormal_basis(cp.g)
        expected = basis[0] + basis[1]
    else:
        expected = _catalog_lines(metric, cp, params)["K"]
    assert report["frame"]["k"] == _reported(frame={"k": expected})["frame"]["k"]


@pytest.mark.parametrize("metric,name", [("kk-bubble", "kappa"), ("taub-nut", "lambda_hb")])
def test_classify_named_robinson(metric, name, tmp_path):
    """--robinson accepts a named structure of the entry, built at the classified point."""
    from robcls import catalog
    from robcls.chart import distribution_span
    from robcls.frames import orthonormal_basis, robinson_from_span

    code, report, cp, params = _classify_at_sample(metric, ["--robinson", name], tmp_path)
    assert code == 0
    basis = orthonormal_basis(cp.g)
    assert report["frame"]["k"] == _reported(frame={"k": basis[0] + basis[1]})["frame"]["k"]
    dists = catalog.kk_structures(params) if metric == "kk-bubble" else catalog.taub_nut_structures(params)
    N = robinson_from_span(cp.g, distribution_span(cp, dists[name]))
    assert report["robinson"] == _reported(robinson=N.serialise())["robinson"]


def test_classify_named_robinson_unknown_for_entry(capsys):
    """A structure name the entry does not own is a usage error with one line."""
    assert main(SCHW5 + ["--robinson", "kappa"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "unknown robinson spec" in lines[0]
