import itertools

import numpy as np
import pytest

from robcls import jets as J


def _poly_and_derivs(rng, n):
    """Random polynomial of total degree <= 3 with closed-form derivatives."""
    monos = J._monomials(n)
    coeffs = rng.standard_normal(len(monos))

    def val(x, order=()):
        out = 0.0
        for c, m in zip(coeffs, monos):
            m = list(m)
            fac = 1.0
            for v in order:
                if m[v] == 0:
                    fac = 0.0
                    break
                fac *= m[v]
                m[v] -= 1
            if fac == 0.0:
                continue
            out += c * fac * np.prod([x[i] ** m[i] for i in range(n)])
        return out

    def build(x):
        acc = J.Jet.constant(0.0, n)
        xs = J.jet_point(x, n)
        for c, m in zip(coeffs, monos):
            term = J.Jet.constant(c, n)
            for i, e in enumerate(m):
                for _ in range(e):
                    term = term * xs[i]
            acc = acc + term
        return acc

    return val, build


def test_polynomials_exact():
    rng = np.random.default_rng(0)
    for trial in range(50):
        n = int(rng.integers(2, 5))
        val, build = _poly_and_derivs(rng, n)
        x = rng.standard_normal(n)
        jet = build(x)
        assert abs(jet.value - val(x)) < 1e-13
        for v in range(n):
            d1 = J.jet_derivatives(jet.c, n, 1)[v]
            assert abs(d1 - val(x, (v,))) < 1e-13
        # a third derivative
        d3 = J.jet_derivatives(jet.c, n, 3)[0, 0, 0]
        assert abs(d3 - val(x, (0, 0, 0))) < 1e-12


def test_function_derivatives():
    n = 2
    x = J.jet_point([0.7, -0.3], n)
    f = (x[0] * x[1]).exp() * (1 + x[0] ** 2).sqrt() / (2 - x[1])
    h = 1e-5

    def fval(a, b):
        return np.exp(a * b) * np.sqrt(1 + a * a) / (2 - b)

    g = J.jet_derivatives(f.c, n, 1)
    fd0 = (fval(0.7 + h, -0.3) - fval(0.7 - h, -0.3)) / (2 * h)
    fd1 = (fval(0.7, -0.3 + h) - fval(0.7, -0.3 - h)) / (2 * h)
    assert abs(g[0] - fd0) < 1e-8
    assert abs(g[1] - fd1) < 1e-8


def test_trig_and_log():
    n = 1
    x = J.jet_point([0.4], n)[0]
    f = x.sin() * x.cos() + (x + 2).log()
    d = J.jet_derivatives(f.c, n, 1)[0]
    expected = np.cos(0.8) + 1.0 / 2.4
    assert abs(d - expected) < 1e-13


def test_jet_derivatives_cubic():
    """p = 2 + x - 3yz + x^2 y + 4 z^3 - x y z: known d, d^2, d^3 arrays."""
    n = 3
    pt = np.array([0.2, -0.1, 0.5])
    x, y, z = J.jet_point(pt, n)
    p = 2 + x - 3 * y * z + x * x * y + 4 * z ** 3 - x * y * z
    X, Y, Z = pt
    d1 = np.array([1 + 2 * X * Y - Y * Z, -3 * Z + X * X - X * Z, -3 * Y + 12 * Z * Z - X * Y])
    d2 = np.array(
        [
            [2 * Y, 2 * X - Z, -Y],
            [2 * X - Z, 0.0, -3 - X],
            [-Y, -3 - X, 24 * Z],
        ]
    )
    d3 = np.zeros((3, 3, 3))
    for idx, v in {(0, 0, 1): 2.0, (0, 1, 2): -1.0, (2, 2, 2): 24.0}.items():
        for perm in itertools.permutations(idx):
            d3[perm] = v
    assert abs(J.jet_derivatives(p.c, n, 0) - p.value) == 0.0
    for order, want in ((1, d1), (2, d2), (3, d3)):
        got = J.jet_derivatives(p.c, n, order)
        assert got.shape == (n,) * order
        assert np.abs(got - want).max() < 1e-13
        for perm in itertools.permutations(range(order)):
            assert np.array_equal(got, np.transpose(got, perm))
    # leading axes broadcast: a 2-vector of jets
    stacked = J.jet_derivatives(np.stack([p.c, 2 * p.c]), n, 2)
    assert stacked.shape == (2, n, n)
    assert np.abs(stacked[1] - 2 * d2).max() < 1e-13


def _jmul_add_at(a, b, nvar):
    """Reference product: the np.add.at scatter over the product table."""
    ii, jj, kk = J._product_table(nvar)
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + a.shape[-1:], dtype=np.result_type(a, b))
    np.add.at(out, (Ellipsis, kk), a[..., ii] * b[..., jj])
    return out


@pytest.mark.parametrize("nvar", range(1, 8))
def test_jmul_matches_add_at(nvar):
    rng = np.random.default_rng(nvar)
    M = J.jet_size(nvar)
    real = rng.standard_normal((3, 2, M))
    cplx = rng.standard_normal((2, M)) + 1j * rng.standard_normal((2, M))
    for a, b in ((real, real[:, ::-1]), (real[0], cplx), (cplx, cplx[::-1]), (real[0, 0], real[1, 1])):
        got, want = J.jmul(a, b, nvar), _jmul_add_at(a, b, nvar)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
