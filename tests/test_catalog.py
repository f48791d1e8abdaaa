import numpy as np
import pytest

from robcls.catalog import ENTRIES, catalog_entries, run_expectations
from robcls.chart import MetricChart

VARIANTS = [(name, extra) for name in sorted(ENTRIES) for extra in ENTRIES[name].variants]


def test_catalog_shape():
    entries = catalog_entries()
    assert len(entries) >= 9
    names = {e.name for e in entries}
    assert {"minkowski", "pp-wave", "walker", "schwarzschild", "myers-perry",
            "kk-bubble", "robinson-trautman", "taub-nut", "iwasawa"} <= names


@pytest.mark.parametrize("name,params", VARIANTS)
def test_entry_expectations(name, params, monkeypatch):
    """Every claim of the regression job holds, and the job evaluates each sample point once."""
    evaluated = []
    evaluate = MetricChart.evaluate

    def counting_evaluate(chart, point):
        evaluated.append(tuple(np.asarray(point, dtype=float)))
        return evaluate(chart, point)

    monkeypatch.setattr(MetricChart, "evaluate", counting_evaluate)
    results = run_expectations(ENTRIES[name], params=params)
    failures = [r for r in results if r.passed is False]
    assert not failures, [f"{r.name}: {r.residual} {r.detail}" for r in failures]
    assert results
    entry = ENTRIES[name]
    points = entry.sample_points({**entry.default_params, **(params or {})})
    assert sorted(evaluated) == sorted(tuple(pt) for pt in points)


def test_parameter_robustness_schwarzschild():
    """Qualitative flags survive documented parameter ranges."""
    for M in (0.1, 1.0, 10.0):
        results = run_expectations(
            ENTRIES["schwarzschild"],
            params={"M": M, "dim": 5},
            points=[np.array([0.0, 4.0 * max(M, 1.0), 1.0, 0.5, 0.2])],
        )
        failures = [r for r in results if r.passed is False and r.name != "kretschmann"]
        assert not failures, (M, [f"{r.name}: {r.residual}" for r in failures])


def test_parameter_robustness_myers_perry():
    for a1, a2 in ((0.05, 0.1), (0.4, 0.0)):
        results = run_expectations(
            ENTRIES["myers-perry"],
            params={"a1": a1, "a2": a2},
            points=[np.array([0.0, 2.5, 0.4, 1.0, -0.7])],
        )
        failures = [r for r in results if r.passed is False]
        # with a degenerate rotation (a2 = 0) the eigen-structure count and
        # eigenvalue separation may legitimately degrade; flags must hold
        hard = [r for r in failures if r.name.startswith(("ricci", "cky_residual", "type_II"))]
        assert not hard, [f"{r.name}: {r.residual}" for r in failures]


def test_taub_nut_skips_einstein_without_F():
    results = run_expectations(ENTRIES["taub-nut"])
    assert any(r.passed is None for r in results)


def test_kk_bubble_refined_flag_pattern():
    """The KK-bubble structures: every alignment flag vanishes while the
    leading refined piece survives (the structure is aligned, the metric
    type G)."""
    import numpy as np
    from robcls.catalog import ENTRIES, kk_structures
    from robcls.chart import distribution_span
    from robcls.frames import robinson_from_span
    from robcls.robclass import aligned_flag_keys, refined_flags

    entry = ENTRIES["kk-bubble"]
    chart = entry.chart()
    pt = np.array([0.0, 3.0, 0.3, 0.2, -0.4])
    cp = chart.evaluate(pt)
    dists = kk_structures(entry.default_params)
    for name, dist in dists.items():
        N = robinson_from_span(cp.g, distribution_span(cp, dist))
        dec = refined_flags("C", cp.weyl, N)
        for key in aligned_flag_keys(5):
            if dec.has(key):
                assert dec.flag(key), (name, key, dec.norm(key))
        # type G: the unconstrained grade -2 refined piece survives
        assert not dec.flag((-2, 0, 2)), name
        assert dec.grade_norm(-2) > 1e-3 * dec.scale, name


def test_taub_nut_einstein_mechanism_reports_failure():
    """Supplying a profile that is not Einstein turns the skipped check into a
    reported failure (the specialness claims still hold)."""
    results = run_expectations(ENTRIES["taub-nut"], params={"F": [1.0, 0.0, 0.1]})
    einstein = [r for r in results if r.name == "einstein_check"]
    assert einstein and all(r.passed is False for r in einstein)
    special = [r for r in results if r.name.startswith("special_")]
    assert special and all(r.passed for r in special)


def test_iwasawa_complex_family_member():
    """The Hermitian-structure family includes genuinely complex members."""
    import numpy as np
    from robcls.catalog import iwasawa_distributions
    from robcls.chart import distribution_span

    chart = ENTRIES["iwasawa"].chart()
    pt = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.7])
    cp = chart.evaluate(pt)
    dists = iwasawa_distributions()
    assert "Nab3" in dists
    span = distribution_span(cp, dists["Nab3"])
    g = cp.g.astype(complex)
    assert max(abs(x @ g @ y) for x in span for y in span) < 1e-10
