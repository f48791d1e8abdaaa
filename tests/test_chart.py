import numpy as np
import pytest

from robcls.catalog import ENTRIES
from robcls.chart import DomainError, MetricChart, check_cky, frame_field_bracket
from robcls.classes import frame_metric
from robcls.jets import Jet


def sphere_chart(radius):
    def g_fn(x):
        th, ph = x
        return [[radius * radius, 0], [0, radius * radius * (th.sin()) ** 2]]

    return MetricChart("sphere", 2, (1, 1), ("theta", "phi"), g_fn)


def test_sphere_scalar_curvature():
    # in this package's sign convention the round sphere has R = -2/r^2
    for r in (1.0, 2.5):
        cp = sphere_chart(r).evaluate([1.1, 0.4])
        assert abs(cp.ricci_scalar + 2.0 / r**2) < 1e-12
        # finite-difference cross-check of a Christoffel symbol
        h = 1e-6
        th = 1.1
        gamma_th_phph = cp.christoffel[0, 1, 1]
        expected = -np.sin(th) * np.cos(th)
        assert abs(gamma_th_phph - expected) < 1e-10


def test_schwarzschild_kretschmann_and_oracles():
    entry = ENTRIES["schwarzschild"]
    chart = entry.chart({"dim": 4, "M": 1.0})
    pt = np.array([0.0, 3.0, 0.0, 0.0])
    cp = chart.evaluate(pt)
    assert abs(cp.kretschmann - 48.0 / 3.0**6) < 1e-12
    assert np.abs(cp.ricci).max() < 1e-12
    # finite-difference curvature oracle on one component
    res = cp.riemann_symmetry_residuals()
    assert max(res.values()) < 1e-10
    assert cp.second_bianchi_residual() < 1e-8


def _central_difference(fn, pt, h):
    """(d) -> (fn(pt + h e_d) - fn(pt - h e_d)) / 2h, stacked on a leading axis."""
    out = []
    for d in range(len(pt)):
        qp, qm = pt.copy(), pt.copy()
        qp[d] += h
        qm[d] -= h
        out.append((fn(qp) - fn(qm)) / (2 * h))
    return np.array(out)


def test_finite_difference_riemann_oracle():
    """Curvature agrees with a second-order finite-difference oracle (Schwarzschild, n = 4 and 7)."""
    for dim, pt in ((4, [0.0, 3.0, 0.5, -0.2]), (7, [0.0, 3.0, 0.5, -0.2, 0.3, 0.1, 0.4])):
        chart = ENTRIES["schwarzschild"].chart({"dim": dim, "M": 1.0})
        pt = np.array(pt)
        cp = chart.evaluate(pt)
        dGamma = _central_difference(lambda q: chart.evaluate(q).christoffel, pt, 1e-4)
        G = cp.christoffel
        # R_{abd}^c = d_a G^c_bd - d_b G^c_ad + G^c_ae G^e_bd - G^c_be G^e_ad
        term = np.transpose(dGamma, (0, 2, 3, 1))
        curv = term - np.transpose(term, (1, 0, 2, 3))
        quad = np.einsum("cae,ebd->abdc", G, G)
        curv = curv + quad - np.transpose(quad, (1, 0, 2, 3))
        R_fd = np.einsum("abdc,ce->abde", curv, cp.g)
        assert np.abs(R_fd - cp.riemann).max() < 1e-6 * cp.curvature_scale(), dim


def _generic_lorentzian_chart(n, seed):
    """A generic polynomial perturbation of Minkowski space, with nonvanishing Cotton-York tensor."""
    rng = np.random.default_rng(seed)
    coef = 0.1 * rng.standard_normal((n, n, n, 2))
    coef = coef + np.transpose(coef, (1, 0, 2, 3))

    def g_fn(x):
        g = [[0.0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                g[a][b] = sum(coef[a, b, c, 0] * x[c] + coef[a, b, c, 1] * x[c] * x[c] * x[(c + 1) % n] for c in range(n))
            g[a][a] = g[a][a] + (-1.0 if a == 0 else 1.0)
        return g

    return MetricChart("generic", n, (-1,) + (1,) * (n - 1), tuple(f"x{i}" for i in range(n)), g_fn)


def test_finite_difference_cotton_oracle():
    """Cotton-York values agree with central differences of neighbouring Schouten values."""
    chart = _generic_lorentzian_chart(5, seed=3)
    pt = 0.1 + 0.05 * np.arange(5)
    cp = chart.evaluate(pt)
    A = cp.cotton_york()
    assert np.abs(A).max() > 1e-3 * cp.curvature_scale()
    dP = _central_difference(lambda q: chart.evaluate(q).schouten, pt, 1e-4)  # (d, a, b) = d_d P_ab
    P, Gm = cp.schouten, cp.christoffel
    nab = dP - np.einsum("eda,eb->dab", Gm, P) - np.einsum("edb,ae->dab", Gm, P)
    A_fd = np.einsum("bca->abc", nab) - np.einsum("cba->abc", nab)
    assert np.abs(A_fd - A).max() < 1e-6 * np.abs(A).max()


def test_decompose_reassemble_random_perturbed_flat():
    rng = np.random.default_rng(1)
    n = 5
    coef = 0.1 * rng.standard_normal((n, n, n))
    coef = coef + np.transpose(coef, (1, 0, 2))

    def g_fn(x):
        g = [[0.0] * n for _ in range(n)]
        for a in range(n):
            g[a][a] = -1.0 if a == 0 else 1.0
        for a in range(n):
            for b in range(n):
                pert = 0.0
                for c in range(n):
                    pert = pert + coef[a, b, c] * (x[c] * x[c] * 0.1 + 0.2 * x[c])
                g[a][b] = g[a][b] + pert * 0.2
        return g

    chart = MetricChart("perturbed", n, (-1,) + (1,) * (n - 1), tuple("txyzw"), g_fn)
    cp = chart.evaluate(0.1 * np.arange(n))
    scale = max(np.abs(cp.riemann).max(), 1e-300)
    assert np.abs(cp.reassemble_riemann() - cp.riemann).max() / scale < 1e-10
    parts = cp.curvature_parts()
    assert abs(np.einsum("ab,ab->", np.linalg.inv(cp.g), parts["phi"])) < 1e-10
    # Weyl is totally tracefree
    tr = np.einsum("ab,acbd->cd", np.linalg.inv(cp.g), parts["weyl"])
    assert np.abs(tr).max() < 1e-10 * scale


def test_weyl_requires_dimension():
    chart = sphere_chart(1.0)
    cp = chart.evaluate([1.0, 1.0])
    with pytest.raises(ValueError):
        _ = cp.weyl


def test_cotton_vanishes_conformally_flat():
    # conformally rescaled flat metrics have zero Cotton-York (n >= 4)
    for n in (4, 5, 6):
        def g_fn(x):
            w = 1.0 + 0.3 * x[0] * x[1] + 0.1 * x[min(2, n - 1)] ** 2
            conf = (w * w)
            g = [[0.0] * n for _ in range(n)]
            for a in range(n):
                g[a][a] = conf * (-1.0 if a == 0 else 1.0)
            return g

        chart = MetricChart("conf-flat", n, (-1,) + (1,) * (n - 1), tuple(f"x{i}" for i in range(n)), g_fn)
        cp = chart.evaluate(0.1 + 0.05 * np.arange(n))
        scale = max(cp.curvature_scale(), 1e-300)
        assert np.abs(cp.cotton_york()).max() / scale < 1e-8
        # and the Weyl tensor vanishes too
        assert np.abs(cp.weyl).max() / scale < 1e-9


def test_cotton_nonzero_dimension_three():
    # conformally flat non-Einstein in n = 3 still has zero Cotton; build a
    # generic non-conformally-flat 3-metric instead and see the obstruction
    def g_fn(x):
        a, b, c = x
        return [
            [1.0 + a * a, 0.2 * a * b, 0.0],
            [0.2 * a * b, 2.0 + b * b * 0.5, 0.1 * c],
            [0.0, 0.1 * c, 1.5 + 0.3 * c * c],
        ]

    chart = MetricChart("generic3", 3, (1, 1, 1), ("a", "b", "c"), g_fn)
    cp = chart.evaluate([0.3, 0.5, -0.2])
    assert np.abs(cp.cotton_york()).max() > 1e-6


def test_bracket_examples():
    mink = ENTRIES["minkowski"].chart({"dim": 4})

    def X_fn(x):
        return [0.0, 0.0, x[1], 0.0]  # x d_y

    def Y_fn(x):
        return [0.0, 1.0, 0.0, 0.0]  # d_x

    cp = mink.evaluate([0.0, 1.0, 2.0, 3.0])
    br = frame_field_bracket(cp, X_fn, Y_fn)
    assert np.allclose(br, [0.0, 0.0, -1.0, 0.0])
    # coordinate fields commute
    br2 = frame_field_bracket(cp, Y_fn, Y_fn)
    assert np.abs(br2).max() < 1e-14


def test_kk_bubble_bracket_nonintegrable_direction():
    """Fields dual to kappa', nu' have a bracket along the kappa'+lambda' dual."""
    entry = ENTRIES["kk-bubble"]
    chart = entry.chart()
    M = 1.0
    pt = np.array([0.0, 3.0, 0.3, 0.2, -0.4])

    def kprime_dual(x):
        f = 1.0 - M / x[1]
        half = f.sqrt()
        return [-0.5, 0.0, 0.5 / half, 0.0, 0.0]

    def nuprime_dual(x):
        f = 1.0 - M / x[1]
        return [0.0, f.sqrt(), 0.0, 0.0, 0.0]

    br = frame_field_bracket(chart.evaluate(pt), kprime_dual, nuprime_dual)
    # [X, Y] has a time component: ker{kappa', lambda'} excludes it
    assert abs(br[0]) > 1e-6 or abs(br[2]) > 1e-6


def test_domain_errors():
    entry = ENTRIES["kk-bubble"]
    chart = entry.chart()
    with pytest.raises(DomainError):
        chart.evaluate(np.array([0.0, 0.5, 0.0, 0.0, 0.0]))  # inside the bubble


def test_integrability_rescaling_invariance():
    """The integrability verdict depends on the distribution, not the frame scale."""
    from robcls.catalog import kk_structures
    from robcls.chart import integrability_residual, DistributionSpec

    entry = ENTRIES["kk-bubble"]
    chart = entry.chart()
    pt = np.array([0.0, 3.0, 0.3, 0.2, -0.4])
    cp = chart.evaluate(pt)
    dists = kk_structures(entry.default_params)
    rng = np.random.default_rng(2)
    for name, dist in dists.items():
        base = max(integrability_residual(cp, dist).values()) < 1e-9
        for _ in range(10):
            c = [float(rng.uniform(0.5, 2.0)) for _ in range(3)]

            def rescale(fn, s):
                def out(x):
                    w = 1.0 + 0.0 * x[0]
                    scale_fn = s * (1.0 + 0.3 * x[1] * 0 + 0.2 * (x[3] * x[3]))
                    return [scale_fn * v for v in fn(x)]

                return out

            scaled = DistributionSpec(
                name,
                [rescale(f, c[i]) for i, f in enumerate(dist.forms)],
                None if dist.perp_forms is None else [rescale(f, c[i]) for i, f in enumerate(dist.perp_forms)],
            )
            flag = max(integrability_residual(cp, scaled).values()) < 1e-9
            assert flag == base, name
