import numpy as np
import pytest

from robcls.catalog import ENTRIES, catalog_entries, run_expectations
from robcls.chart import MetricChart

VARIANTS = [(name, extra) for name in sorted(ENTRIES) for extra in ENTRIES[name].variants]
# the entries whose sample points are cut from fixed lists, at the two largest dimensions
HIGH_DIMS = [(name, {"dim": n}) for name in ("pp-wave", "schwarzschild", "walker") for n in (8, 9)]


def test_catalog_shape():
    entries = catalog_entries()
    assert len(entries) >= 9
    names = {e.name for e in entries}
    assert {"minkowski", "pp-wave", "walker", "schwarzschild", "myers-perry",
            "kk-bubble", "robinson-trautman", "taub-nut", "iwasawa"} <= names


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_declared_defaults_pass_the_validator(name):
    """Every default lies in its declared domain (None marks an optional parameter)."""
    entry = ENTRIES[name]
    chart = entry.chart(entry.default_params)
    assert chart.params == entry.default_params
    for variant in entry.variants:
        entry.chart(variant)
    with pytest.raises(ValueError, match="unknown parameter"):
        entry.chart({"nosuch": 1})


@pytest.mark.parametrize("name,params", VARIANTS + HIGH_DIMS)
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


def test_myers_perry_counts_eigen_structures_from_the_spectrum():
    """Without rotation the CKY spectrum has no imaginary eigenplane: `structure_count` fails with count 2, the
    structure check is skipped, and the job records no `evaluation` error."""
    results = run_expectations(ENTRIES["myers-perry"], params={"a1": 0.0, "a2": 0.0})
    names = [r.name for r in results]
    assert "evaluation" not in names
    counts = [r for r in results if r.name == "structure_count"]
    assert counts and all(r.status == "FAIL" and r.detail == "2" for r in counts)
    special = [r for r in results if r.name == "special_eigen_structures"]
    assert len(special) == len(counts) and all(r.status == "SKIP" for r in special)
    assert all(names[i - 1] == "special_eigen_structures" for i, name in enumerate(names) if name == "structure_count")


def test_taub_nut_skips_einstein_without_F():
    results = run_expectations(ENTRIES["taub-nut"])
    assert any(r.passed is None for r in results)


def test_kk_bubble_refined_flag_pattern():
    """The KK-bubble structures: every alignment flag vanishes while the
    leading refined piece survives (the structure is aligned, the metric
    type G)."""
    import numpy as np
    from robcls.catalog import ENTRIES
    from robcls.robclass import aligned_flag_keys, refined_flags

    entry = ENTRIES["kk-bubble"]
    chart = entry.chart()
    pt = np.array([0.0, 3.0, 0.3, 0.2, -0.4])
    cp = chart.evaluate(pt)
    for name in entry.registry(chart.params).structures:
        N = entry.structure(cp, name)
        dec = refined_flags("C", cp.weyl, N)
        for key in aligned_flag_keys(5):
            if dec.has(key):
                assert dec.flag(key), (name, key, dec.norm(key))
        # type G: the unconstrained grade -2 refined piece survives
        assert not dec.flag((-2, 0, 2)), name
        assert dec.boost_weights().get(-2, 0.0) > 1e-3 * dec.scale, name


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
    from robcls.chart import distribution_span

    chart = ENTRIES["iwasawa"].chart()
    pt = np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.7])
    cp = chart.evaluate(pt)
    dists = ENTRIES["iwasawa"].registry(chart.params).structures
    assert "Nab3" in dists
    span = distribution_span(cp, dists["Nab3"])
    g = cp.g.astype(complex)
    assert max(abs(x @ g @ y) for x in span for y in span) < 1e-10


def _geodesic_residual(kappa, dkappa, K):
    """max |kappa ^ i_K d kappa| over |kappa| |K| |d kappa / dx| (max norms), with dkappa[b, a] = d_a kappa_b.

    For a null kappa and K = g^-1 kappa, i_K d kappa is the lowered acceleration of K, so the residual
    vanishes iff K is geodesic.  It is divided by the partial derivatives, not by d kappa: the Kerr-Schild
    kappa is closed, and round-off over a vanishing d kappa reads O(1).
    """
    beta = K @ (dkappa.T - dkappa)
    wedge = np.outer(kappa, beta) - np.outer(beta, kappa)
    return float(np.abs(wedge).max() / (np.abs(kappa).max() * np.abs(K).max() * max(np.abs(dkappa).max(), 1e-300)))


def test_integrable_structures_have_geodesic_k():
    """The paper's "integrable => geodesic" over the registry, at every sample point and variant.

    Every registered K line is geodesic, and so is the line K = g^-1 kappa of every registered
    structure whose N and N^perp are integrable (kappa its first annihilator).  The non-integrable
    kk-bubble structures read O(1), so the residual can tell.
    """
    from robcls.chart import DistributionSpec, integrability_residual

    lines = integrable = 0
    not_integrable = {}
    for name, extra in VARIANTS:
        entry = ENTRIES[name]
        chart = entry.chart(extra)
        if sum(s < 0 for s in chart.signature) != 1:
            continue  # iwasawa: Riemannian, no null line
        registry = entry.registry(chart.params)
        for pt in entry.sample_points(chart.params):
            cp = chart.evaluate(pt)
            if registry.lines:
                K, grad = cp.eval_covector_field(registry.lines["K"])  # grad[a, c] = d_c K^a
                dkappa = np.einsum("bac,a->bc", cp.dg, K) + cp.g @ grad
                assert _geodesic_residual(cp.g @ K, dkappa, K) < 1e-14, (name, pt)
                lines += 1
            for sname, spec in registry.structures.items():
                if not isinstance(spec, DistributionSpec):
                    continue  # a pointwise structure has no field to differentiate
                kappa, dkappa = (a.real for a in cp.eval_covector_field(spec.forms[0]))
                residual = _geodesic_residual(kappa, dkappa, cp.g_inv @ kappa)
                if max(integrability_residual(cp, spec).values()) < 1e-9:
                    assert residual < 1e-14, (name, sname, pt)
                    integrable += 1
                else:
                    not_integrable[(name, sname)] = min(residual, not_integrable.get((name, sname), np.inf))
    assert lines == 2 * 2 + 3 + 2 + 2 * 2 and integrable == 3 * 2 + 2 * 8 + 2 * 2
    assert set(not_integrable) == {("kk-bubble", "kappa_prime"), ("kk-bubble", "lambda_prime")}
    assert min(not_integrable.values()) >= 0.1
