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
from robcls.modules import ModuleKey
from robcls.robclass import aligned_flag_keys, special_flag_keys
from robcls.tensor import Tolerance


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
        ["classify", "--metric", "taub-nut", "--params", '{"N2": 1e300, "N3": 1e-300}', "--point=1e8,1e8,0.5,0.5,-2,1e8"],
        ["classify", "--metric", "myers-perry", "--params", '{"M": [0]}', "--point", "0.3,-1.5,1.8,0.4,1.1"],
        ["classify", "--metric", "myers-perry", "--params", '{"a1": 1e200}', "--point", "0.3,-1.5,1.8,0.4,1.1"],
        ["classify", "--metric", "minkowski", "--params", '{"foo": NaN}', "--point", "0,0,0,0,0,0"],
        ["classify", "--metric", "schwarzschild", "--params", '{"dim": 5.5}', "--point", "0,3,1,0.5,0.2"],
        ["classify", "--metric", "schwarzschild", "--params", '{"M": "1"}', "--point", "0,3,1,0.5,0.2"],
        ["classify", "--metric", "taub-nut", "--params", '{"F": [-3]}', "--point", "0,2,0.3,-0.2,0.5,0.1", "--robinson", "lambda_hh"],
        ["classify", "--metric", "myers-perry", "--params", '{"a1": 0, "a2": 0}', "--point", "0,2.2,0.5,1.2,-0.6", "--robinson", "eigen0"],
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
        "overflow",
        "mp-M-list",
        "mp-a1-overflow",
        "params-undeclared-nan",
        "params-dim-fractional",
        "params-M-string",
        "taub-nut-structure-F-negative",
        "mp-cky-spectrum-degenerate",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_bad_input_one_line_exit_2(argv, capsys):
    """Malformed input gets a one-line error and the usage exit code, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "metric, params, message",
    [
        ("schwarzschild", '{"Mass": 3}', 'unknown parameter "Mass" (declared: "dim", "M")'),
        ("minkowski", '{"foo": 1}', 'unknown parameter "foo" (declared: "dim")'),
        ("schwarzschild", '{"dim": 5.0}', "dim must be an integer in 4..9, got 5.0"),
        ("schwarzschild", '{"dim": true}', "dim must be an integer in 4..9, got true"),
        ("kk-bubble", '{"dim": 6}', "dim must be 5, got 6"),
        ("schwarzschild", '{"M": true}', "M must be a finite real number, got true"),
        ("schwarzschild", '{"M": NaN}', "M must be a finite real number, got NaN"),
        ("kk-bubble", '{"M": 1e400}', "M must be a finite real number, got Infinity"),
        ("pp-wave", '{"vacuum": 1}', "vacuum must be one of true, false, got 1"),
        ("robinson-trautman", '{"screen": "cubes"}', 'screen must be one of "flat", "spheres", got "cubes"'),
        ("taub-nut", '{"F": [1, NaN]}', "F must be a nonempty list of finite real numbers, got [1, NaN]"),
        ("taub-nut", '{"F": []}', "F must be a nonempty list of finite real numbers, got []"),
    ],
)
def test_classify_invalid_params_message(metric, params, message, capsys):
    """`CatalogEntry.chart` rejects each undeclared or inadmissible parameter, and classify prints it on one line."""
    assert main(["classify", "--metric", metric, "--params", params, "--point", "0,3,1,0.5,0.2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid parameters for '{metric}': {message}\n"


def test_classify_riemannian_metric_message(capsys):
    """A chart whose declared signature is not Lorentzian is refused before its point is evaluated."""
    assert main(["classify", "--metric", "iwasawa", "--point", "0.3,-0.2,0.5,0.1,-0.4,0.7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "metric 'iwasawa' is not Lorentzian: signature (1, 1, 1, 1, 1, 1) has no single timelike direction\n"


@pytest.mark.parametrize(
    "metric, params, point, echoed",
    [
        ("kk-bubble", '{"dim": 5, "M": 2}', "0,3,0.3,0.2,-0.4", {"M": 2, "dim": 5}),
        ("kk-bubble", '{"dim": null}', "0,3,0.3,0.2,-0.4", {"M": 1.0}),
        ("taub-nut", '{"F": null}', "0,2,0.3,-0.2,0.5,0.1", {"N2": 0.4, "N3": 0.7}),
        ("taub-nut", '{"F": [1, 0, 0.1]}', "0,2,0.3,-0.2,0.5,0.1", {"F": [1, 0, 0.1], "N2": 0.4, "N3": 0.7}),
        ("pp-wave", '{"vacuum": false}', "0.2,0,0.3,-0.4,0.5,0.1", {"dim": 6, "vacuum": False}),
    ],
)
def test_classify_echoes_params_as_given(metric, params, point, echoed, tmp_path):
    """Admissible parameters are echoed as supplied; an optional one left at None is not echoed."""
    out = tmp_path / "report.json"
    assert main(["classify", "--metric", metric, "--params", params, "--point", point, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["params"] == echoed


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
    """Give the sim module G.0.1 at dimension n the parameter list ``params``, tensors on the screen R^{n-2}."""
    from robcls import modules

    mod = modules._BY_LABEL["G", 0, 1]
    real = mod.params.sim_params
    space = dataclasses.replace(mod.params, sim_params=lambda nn: params if nn == n else real(nn))
    monkeypatch.setitem(modules._BY_LABEL, ("G", 0, 1), dataclasses.replace(mod, params=space))


def _screen_tensor(a, b, sign):
    """e_a (x) e_b + sign e_b (x) e_a on R^3: a 2-form for sign -1, symmetric for +1."""
    t = np.zeros((3, 3))
    t[a, b], t[b, a] = 1.0, sign
    return t


def test_verify_dims_exits_4_on_marginal_rank(monkeypatch, tmp_path):
    """Parameters of G.0.1 (sim, n = 5) whose Gram spectrum holds a kept
    eigenvalue only 10^1.2 above a dropped one: the rank still matches the
    closed form, but the rank decision is marginal, so verify-dims exits 4."""
    from robcls import modules
    from robcls.repdims import computed_module_dim

    n, key = 5, modules.ModuleKey("G", 0, 1)
    w01, w02, w12 = (_screen_tensor(a, b, -1.0) for a, b in ((0, 1), (0, 2), (1, 2)))
    # the Gram spectrum is 2, 2, 2e-9.2 (kept) and 2e-10.4 (dropped, below the floor 2e-10)
    _patch_g01_params(monkeypatch, n, [w01, w02, 10**-4.6 * w12, 10**-5.2 * _screen_tensor(0, 1, 1.0)])
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
    """G.0.1 (sim, n = 5) given two of the three screen 2-forms: verify-dims
    reports the module as a NO row and exits 1, with no traceback, and the
    table refuses to decompose a tensor."""
    from robcls import frames, modules
    from robcls.simclass import decompose

    n = 5
    _patch_g01_params(monkeypatch, n, [_screen_tensor(0, 1, -1.0), _screen_tensor(1, 2, -1.0)])
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


def test_regress_verbose_prints_plain_floats(capsys):
    """The details print numbers, not numpy scalar reprs such as `np.float64(...)`."""
    assert main(["regress", "--verbose", "--only", "myers-perry"]) == 0
    text = capsys.readouterr().out
    assert "cky_eigenvalues" in text and "reals=[-2.6" in text
    assert "np.float64" not in text


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
    """A regress of kk-bubble, which runs the WAND search on its chart, loads no scipy.optimize."""
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
    """No command imports scipy or numpy.ma; kk-bubble's regress builds a 4000-point sphere grid.

    The two searches polish, pp-wave at ladder level 1 and Schwarzschild n = 4
    at level -1, with the in-repo Nelder-Mead.  numpy.ma loads on the first
    np.unique or np.median call of a process.
    """
    src = str(Path(robcls.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import os, sys\n"
        "def lazy_modules():\n"
        "    return sorted(m for m in sys.modules if m in ('scipy', 'numpy.ma') or m.startswith('scipy.'))\n"
        "from robcls.cli import main\n"
        "print(lazy_modules())\n"
        "assert main(['verify-dims', '--n', '4..5', '--out', os.devnull]) == 0\n"
        "print(lazy_modules())\n"
        "assert main(['regress', '--only', 'kk-bubble', '--out', os.devnull]) == 0\n"
        "print(lazy_modules())\n"
        "assert main(['classify', '--metric', 'schwarzschild', '--point', '0,3,1,0.5,0.2', '--out', os.devnull]) == 0\n"
        "print(lazy_modules())\n"
        "assert main(['classify', '--metric', 'pp-wave', '--point=0.2,0.0,0.3,-0.4,0.5,0.1', '--search', '--out', os.devnull]) == 0\n"
        "print(lazy_modules())\n"
        "assert main(['classify', '--metric', 'schwarzschild', '--dim', '4', '--point', '0,3,0,0', '--search', '--out', os.devnull]) == 0\n"
        "print(lazy_modules())\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n" * 6


def test_perfbench_tracer_binds_to_robcls():
    """perfbench/tracer.py wraps robcls names by attribute; a traced classify and a traced regress run and record their layers."""
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
        "tr.op = 0\n"
        "assert main(argv) == 0\n"
        "tr.op = 1\n"
        "assert main(['regress', '--only', 'taub-nut', '--out', os.devnull]) == 0\n"
        "for op in (0, 1):\n"
        "    print(' '.join(sorted({name for o, name in tr.self_times() if o == op})))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    classify_layers, regress_layers = (set(line.split()) for line in out.stdout.splitlines())
    assert {
        "cli.main",
        "chart.evaluate",
        "chart.curvature.n4",
        "frames.complete_null_frame",
        "simclass.weyl_type_at_frame",
        "simclass.decompose",
        "robclass.refined_flags",
        "report.to_json",
    } <= classify_layers, classify_layers
    # classify reads its predicates off the refined flags; the catalog checks still call the residuals
    assert "robclass.predicates" in regress_layers, regress_layers


@pytest.mark.parametrize(
    "argv",
    [
        ["--metric", "kk-bubble", "--point", "0,5,0.3,0.2,-0.4", "--robinson", "random:1", "--tol", "1e-3"],
        ["--metric", "taub-nut", "--point", "0,2,0.3,-0.2,0.5,0.1", "--robinson", "random:1", "--tol", "1e-3"],
        ["--metric", "robinson-trautman", "--params", '{"screen": "spheres"}', "--point", "0,3,0.3,-0.2,0.4,0.1", "--robinson", "random:3", "--tol", "1e-3"],
        ["--metric", "schwarzschild", "--point", "0,3,1,0.5,0.2", "--robinson", "random:7"],
        ["--metric", "pp-wave", "--point", "0.2,0,0.3,-0.4,0.5,0.1", "--robinson", "standard"],
    ],
    ids=["kk-bubble-all-vanishing", "taub-nut", "rt-spheres", "schwarzschild", "pp-wave"],
)
def test_classify_predicates_follow_the_refined_flags(argv, tmp_path):
    """The predicates are read off the refined flags the report prints, at their threshold: aligned when
    every aligned-condition module vanishes, special when the special-condition modules and the whole
    grade <= -1 part of the refined decomposition vanish."""
    out = tmp_path / "report.json"
    assert main(["classify", *argv, "--out", str(out)]) in (0, 3)
    report = json.loads(out.read_text())
    flags, n = report["refined_flags"], len(report["point"])

    def vanish(keys):
        names = [str(ModuleKey.of("C", key)) for key in keys]
        return all(flags[name]["vanishing"] for name in names if name in flags)

    low = np.sqrt(sum(f["norm"] ** 2 for name, f in flags.items() if int(name.split(".")[1]) <= -1))
    tol = Tolerance(report["tolerances"]["abs_eps"], report["tolerances"]["rel_eps"])
    assert report["predicates"] == {
        "aligned": vanish(aligned_flag_keys(n)),
        "algebraically_special": vanish(special_flag_keys(n)) and tol.vanishes(low, report["curvature"]["riemann_norm"]),
    }
    if all(f["vanishing"] for f in flags.values()):
        assert report["predicates"] == {"aligned": True, "algebraically_special": True}


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("metric", ("schwarzschild", "walker"))
def test_classify_residuals_are_closure_norms_of_the_printed_modules(metric, n, capsys):
    """Each printed Pi_i^j is the root-sum-square of the printed sim module norms over
    `down_closure`, and each subtype flag is set exactly when its residual is within
    the threshold at the decomposition's scale; n = 4 has no Pi_0^3."""
    from robcls.simclass import SUBTYPE_MODULES, down_closure

    point = ",".join(map(str, [0.1, 3.0, 0.9, 0.5, 0.3, 0.2, 0.1, -0.3, 0.2][:n]))
    assert main(["classify", "--metric", metric, "--dim", str(n), "--point", point]) in (0, 3)
    report = json.loads(capsys.readouterr().out)
    wt, sim = report["weyl_type"], report["sim_decomposition"]
    assert len(wt["residuals"]) == (9 if n == 4 else 10)
    for name, value in wt["residuals"].items():
        i, j = map(int, name[3:].split("^"))
        closure = np.sqrt(sum(sim["modules"][str(key)]["norm"] ** 2 for key in down_closure("C", n, i, j)))
        assert value == pytest.approx(closure, rel=1e-12, abs=1e-300), name
    tol = Tolerance(report["tolerances"]["abs_eps"], report["tolerances"]["rel_eps"])
    expected = [f for f, (i, j) in SUBTYPE_MODULES.items() if f"Pi_{i}^{j}" in wt["residuals"] and wt["residuals"][f"Pi_{i}^{j}"] <= tol.threshold(sim["scale"])]
    assert wt["subtype_flags"] == sorted(expected)


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
    """Every entry but minkowski names lines or structures; `null_lines` reads every line, K first, each one null."""
    from robcls.catalog import ENTRIES

    named = 0
    for entry in ENTRIES.values():
        chart = entry.chart()
        cp = chart.evaluate(entry.sample_points(chart.params)[0])
        registry = entry.registry(chart.params)
        lines = entry.null_lines(cp)
        assert list(lines) == list(registry.lines) and list(lines)[:1] in ([], ["K"]), entry.name
        for v in lines.values():
            assert abs(v @ cp.g @ v) <= 1e-12 * np.abs(cp.g).max() * (v @ v), entry.name
        if entry.name != "minkowski":
            assert registry.lines or registry.structures, entry.name
        named += len(registry.lines) + len(registry.structures)
    assert named >= 25


LORENTZIAN = ("minkowski", "pp-wave", "walker", "schwarzschild", "myers-perry", "kk-bubble", "robinson-trautman", "taub-nut")


def _classify_at_sample(metric, extra, tmp_path, params=None):
    """Run classify at the first sample point of a catalog entry; return (code, report, chart point)."""
    from robcls.catalog import ENTRIES

    chart = ENTRIES[metric].chart(params)
    pt = ENTRIES[metric].sample_points(chart.params)[0]
    out = tmp_path / "named.json"
    argv = ["classify", "--metric", metric, "--point", ",".join(repr(float(v)) for v in pt), "--out", str(out)]
    code = main(argv + (["--params", json.dumps(params)] if params else []) + extra)
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, chart.evaluate(pt)


def _reported(**fields):
    """Fields as a report serialises them (floats rounded to 15 digits)."""
    from robcls.report import ClassificationReport

    return ClassificationReport("", "", {}, [], {}, **fields).to_dict()


def _gauged(g, k):
    """k rescaled to k^0 = 1 in the orthonormal basis of g, as the reported frame carries it: k / |c_0|, c_0 = -g(k, basis[0])."""
    from robcls.frames import orthonormal_basis

    return k / abs(orthonormal_basis(g)[0] @ (g @ k))


@pytest.mark.parametrize(
    "metric,name",
    [(m, k) for m in ("schwarzschild", "myers-perry", "robinson-trautman") for k in ("K", "L", "ingoing", "outgoing", "l")]
    + [(m, k) for m in ("pp-wave", "walker") for k in ("K", "k")],
)
def test_classify_named_k(metric, name, tmp_path):
    """--k accepts the catalog's named null lines and their aliases (pp-wave and walker name only K)."""
    from robcls.catalog import ENTRIES

    code, report, cp = _classify_at_sample(metric, ["--k", name], tmp_path)
    assert code == 0
    canonical = {"ingoing": "K", "outgoing": "L", "k": "K", "l": "L"}.get(name.lower(), name)
    assert report["frame"]["k"] == _reported(frame={"k": _gauged(cp.g, ENTRIES[metric].null_lines(cp)[canonical])})["frame"]["k"]


@pytest.mark.parametrize("metric", LORENTZIAN)
def test_classify_default_direction(metric, tmp_path):
    """Without --k the frame is built on the entry's line K, else on the first orthonormal null direction."""
    from robcls.catalog import ENTRIES
    from robcls.frames import orthonormal_basis

    code, report, cp = _classify_at_sample(metric, [], tmp_path)
    assert code == 0
    if metric in ("minkowski", "kk-bubble", "taub-nut"):
        basis = orthonormal_basis(cp.g)
        expected = basis[0] + basis[1]
    else:
        expected = ENTRIES[metric].null_lines(cp)["K"]
    assert report["frame"]["k"] == _reported(frame={"k": _gauged(cp.g, expected)})["frame"]["k"]


BOOSTS = (1e3, 1e-3, 1e5, 1e-5, 1e8, 1e-8)


def _verdict(code, report):
    """Exit code, type, subtype flags, refined vanishing map, predicates and indeterminate list of a report."""
    return (
        code,
        report["weyl_type"]["type"],
        report["weyl_type"]["subtype_flags"],
        {key: c["vanishing"] for key, c in report["refined_flags"].items()},
        report["predicates"],
        report["indeterminate"],
    )


@pytest.mark.parametrize("metric", LORENTZIAN)
def test_classify_verdict_is_boost_invariant(metric, tmp_path):
    """Every named line at every sample point, boosted by 10^+-3, 10^+-5 and 10^+-8,
    gives the verdict of the unboosted line under --robinson standard."""
    from robcls.catalog import ENTRIES

    entry = ENTRIES[metric]
    chart = entry.chart(None)
    out = tmp_path / "boost.json"
    for pt in entry.sample_points(chart.params):
        point = ",".join(repr(float(v)) for v in pt)
        for name, K in entry.null_lines(chart.evaluate(pt)).items():
            verdicts = []
            for s in (1.0, *BOOSTS):
                argv = ["classify", "--metric", metric, "--point=" + point, "--robinson", "standard", "--out", str(out)]
                code = main(argv + ["--k=" + ",".join(repr(float(v)) for v in s * K)])
                assert code in (0, 3), (name, s, code)
                verdicts.append(_verdict(code, json.loads(out.read_text())))
            assert verdicts == [verdicts[0]] * len(verdicts), (pt, name)


NAMED_ROBINSON = [
    ("kk-bubble", "kappa", None),
    ("taub-nut", "lambda_hb", None),
    ("myers-perry", "eigen0", None),
    ("myers-perry", "eigen3", None),
    ("robinson-trautman", "product", None),
    ("robinson-trautman", "mixed", {"screen": "spheres"}),
]


@pytest.mark.parametrize("metric,name,params", NAMED_ROBINSON, ids=[f"{m}-{s}" for m, s, _ in NAMED_ROBINSON])
def test_classify_named_robinson(metric, name, params, tmp_path):
    """--robinson accepts a named structure of the entry, built at the classified point by `CatalogEntry.structure`."""
    from robcls.catalog import ENTRIES

    code, report, cp = _classify_at_sample(metric, ["--robinson", name], tmp_path, params)
    assert code == 0
    assert report["frame"]["k"] == _reported(frame={"k": _gauged(cp.g, _default_k(metric, cp))})["frame"]["k"]
    N = ENTRIES[metric].structure(cp, name)
    assert report["robinson"] == _reported(robinson=N.serialise())["robinson"]


def _default_k(metric, cp):
    from robcls.catalog import ENTRIES
    from robcls.frames import orthonormal_basis

    lines = ENTRIES[metric].null_lines(cp)
    basis = orthonormal_basis(cp.g)
    return lines["K"] if lines else basis[0] + basis[1]


def test_classify_named_robinson_unknown_for_entry(capsys):
    """A structure name the entry does not own is a usage error with one line."""
    assert main(SCHW5 + ["--robinson", "kappa"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and "unknown robinson spec" in lines[0]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["classify", "--metric", "pp-wave", "--point=0.2,0,0.3,-0.4,0.5,0.1", "--k", "L"],
            "--k 'L' is neither comma-separated components nor a named null line of metric 'pp-wave' (its null lines are K)",
        ),
        (
            ["classify", "--metric", "minkowski", "--point=0,0,0,0,0,0", "--k", "K"],
            "--k 'K' is neither comma-separated components nor a named null line of metric 'minkowski' (it names no null line)",
        ),
        (
            ["classify", "--metric", "myers-perry", "--point=0,2.2,0.5,1.2,-0.6", "--robinson", "eigen4"],
            "unknown robinson spec 'eigen4' for metric 'myers-perry' (use 'standard', 'random:SEED', or a named structure; "
            "its structures are eigen0, eigen1, eigen2, eigen3)",
        ),
        (
            ["classify", "--metric", "robinson-trautman", "--point=0,3,0.3,-0.2,0.4,0.1", "--robinson", "mixed"],
            "unknown robinson spec 'mixed' for metric 'robinson-trautman' (use 'standard', 'random:SEED', or a named structure; "
            "its structures are product)",
        ),
        (
            SCHW5 + ["--robinson", "kappa"],
            "unknown robinson spec 'kappa' for metric 'schwarzschild' (use 'standard', 'random:SEED', or a named structure; "
            "it names no structure)",
        ),
    ],
    ids=["k-pp-wave-L", "k-minkowski-K", "robinson-mp-eigen4", "robinson-rt-flat-mixed", "robinson-schwarzschild"],
)
def test_classify_unknown_name_lists_the_registry(argv, message, capsys):
    """An unknown --k or --robinson name gets one line that names the metric and lists what it registers."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message + "\n"
