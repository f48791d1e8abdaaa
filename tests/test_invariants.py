"""Cross-cutting invariants: curvature symmetries on every catalog chart,
eigen-solver agreement, and hypothesis-driven (anti)symmetrisation properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_lorentzian, random_null_vector
from robcls.catalog import ENTRIES
from robcls.chart import eigenstructure
from robcls.tensor import skew_arr, sym_arr

VARIANTS = [(name, extra) for name in sorted(ENTRIES) for extra in ENTRIES[name].variants]


def _random_domain_points(entry, params, count, rng):
    base = entry.sample_points(params)
    chart = entry.build(params)
    out = []
    attempts = 0
    while len(out) < count and attempts < 30 * count:
        attempts += 1
        pt = np.array(base[attempts % len(base)], dtype=float)
        pt = pt + rng.uniform(-0.3, 0.3, size=len(pt))
        if chart.contains(pt):
            out.append(pt)
    return out


@pytest.mark.parametrize("name,extra", VARIANTS)
def test_riemann_symmetries_and_bianchi(name, extra):
    entry = ENTRIES[name]
    params = dict(entry.default_params)
    if extra:
        params.update(extra)
    chart = entry.build(params)
    rng = np.random.default_rng(hash(name) % 2**31)
    for pt in _random_domain_points(entry, params, 20, rng):
        cp = chart.evaluate(pt)
        if cp.curvature_scale() < 1e-14:
            continue
        res = cp.riemann_symmetry_residuals()
        assert max(res.values()) < 1e-10, (name, pt, res)
        assert cp.second_bianchi_residual() < 1e-8, (name, pt)


def test_eigenvalues_match_dense_solver():
    rng = np.random.default_rng(4)
    for n in (4, 5, 6, 8):
        g = random_lorentzian(n, rng)
        phi = rng.standard_normal((n, n))
        phi = phi - phi.T
        es = eigenstructure(phi, g)
        ref = np.linalg.eigvals(np.linalg.inv(g) @ phi)
        a = np.sort_complex(np.round(es["eigenvalues"], 12))
        b = np.sort_complex(np.round(ref, 12))
        assert np.abs(a - b).max() < 1e-10


def test_degenerate_cky_eigenpattern():
    """A simple 2-form k wedge u with null k is nilpotent: every eigenvalue
    of the endomorphism is zero -- the degenerate pattern is reported rather
    than raised."""
    rng = np.random.default_rng(5)
    n = 6
    from robcls.frames import complete_null_frame

    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    kb = g @ fr.k
    ub = g @ fr.screen[0]
    phi = np.outer(kb, ub) - np.outer(ub, kb)
    es = eigenstructure(phi, g)
    assert np.abs(es["eigenvalues"]).max() < 1e-4
    # a spacelike simple form has one pair of nonzero eigenvalues by contrast
    vb = g @ fr.screen[1]
    psi = np.outer(vb, ub) - np.outer(ub, vb)
    es2 = eigenstructure(psi, g)
    nonzero = sorted((v for v in es2["eigenvalues"] if abs(v) > 1e-9), key=lambda z: z.imag)
    assert len(nonzero) == 2 and abs(nonzero[0] + nonzero[1]) < 1e-9


@st.composite
def small_tensor(draw, rank=2):
    n = draw(st.integers(min_value=2, max_value=5))
    vals = draw(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False),
            min_size=n**rank,
            max_size=n**rank,
        )
    )
    return np.array(vals).reshape((n,) * rank)


@settings(max_examples=40, deadline=None)
@given(small_tensor(rank=3))
def test_skew_sym_projections(t):
    s1 = skew_arr(t, (0, 1))
    assert np.abs(skew_arr(s1, (0, 1)) - s1).max() < 1e-12
    s2 = sym_arr(t, (0, 1))
    assert np.abs(sym_arr(s2, (0, 1)) - s2).max() < 1e-12
    assert np.abs(sym_arr(s1, (0, 1))).max() < 1e-12
    assert np.abs((s1 + s2) - t).max() < 1e-10
