import itertools

import numpy as np
import pytest

from robcls.classes import ricci_contraction
from robcls.tensor import Tolerance, levi_civita, skew_arr, sym_arr, transform_slots


def test_contract_matches_loop_oracle():
    """ricci_contraction g^{ac} T_abcd against a naive loop, for several metrics."""
    rng = np.random.default_rng(2)
    for n in (3, 4, 5, 6):
        arr = rng.standard_normal((n,) * 4)
        ginv = np.linalg.inv(np.diag([-1.0] + [1.0] * (n - 1)) + 0.1 * np.eye(n))
        expected = np.zeros((n, n))
        for b, d in itertools.product(range(n), repeat=2):
            expected[b, d] = sum(ginv[a, c] * arr[a, b, c, d] for a in range(n) for c in range(n))
        assert np.abs(ricci_contraction(arr, ginv) - expected).max() < 1e-13


def test_skew_idempotent_and_formula():
    rng = np.random.default_rng(4)
    n = 4
    arr = rng.standard_normal((n, n))
    s = skew_arr(arr, (0, 1))
    assert np.abs(s - 0.5 * (arr - arr.T)).max() < 1e-15
    assert np.abs(skew_arr(s, (0, 1)) - s).max() < 1e-15
    f = arr - arr.T
    assert np.abs(skew_arr(f, (0, 1)) - f).max() < 1e-15


def test_sym_of_skew_vanishes():
    rng = np.random.default_rng(5)
    n = 4
    arr = rng.standard_normal((n, n, n))
    assert np.abs(sym_arr(skew_arr(arr, (0, 1)), (0, 1))).max() < 1e-15


def test_sym_over_gradient_of_symmetric():
    # nabla_[b P_c]a symmetrised over all three slots must vanish
    rng = np.random.default_rng(6)
    n = 4
    P = rng.standard_normal((n, n, n))
    P = P + np.transpose(P, (0, 2, 1))  # symmetric in the last two slots
    grad_like = np.transpose(P, (1, 0, 2)) - np.transpose(P, (2, 0, 1))
    assert np.abs(skew_arr(grad_like, (0, 1, 2))).max() < 1e-14


def test_levi_civita_is_inversion_parity():
    """The permutation symbol against an inversion count, zero off the permutations."""
    for n in range(1, 6):
        eps = levi_civita(n)
        for perm in itertools.permutations(range(n)):
            inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
            assert eps[perm] == (-1) ** inversions
        assert np.count_nonzero(eps) == np.prod(range(1, n + 1))


def test_tolerance_threshold():
    tol = Tolerance(1e-9, 1e-6)
    assert tol.threshold() == 1e-9
    assert tol.threshold(-2.0) == 1e-9 + 2e-6
    assert Tolerance(0.0, 0.0).threshold(5.0) == 0.0


def test_errors():
    for bad in ((-1.0, 0.0), (0.0, -1e-9), (np.nan, 1e-9), (1e-9, np.inf)):
        with pytest.raises(ValueError):
            Tolerance(*bad)


def test_schwarzschild_phi_trace_by_loop():
    """Raised tracefree Ricci of Schwarzschild has zero trace (loop oracle)."""
    from robcls.catalog import ENTRIES

    chart = ENTRIES["schwarzschild"].chart({"dim": 5, "M": 1.0})
    cp = chart.evaluate(np.array([0.0, 3.0, 1.0, 0.5, 0.2]))
    up = np.linalg.solve(cp.g, cp.phi)
    trace = sum(up[a, a] for a in range(5))
    assert abs(trace) < 1e-12


def _transform_slots_loop(arr, M):
    """Reference: contract M into one slot at a time with tensordot."""
    out = arr
    for ax in range(arr.ndim):
        out = np.moveaxis(np.tensordot(M, out, axes=(1, ax)), 0, ax)
    return out


@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("kind", ["square", "complex", "rectangular"])
def test_transform_slots_matches_slot_loop(rank, kind):
    rng = np.random.default_rng(10 * rank + len(kind))
    n = 5
    M = rng.standard_normal((3 if kind == "rectangular" else n, n))
    if kind == "complex":
        M = M + 1j * rng.standard_normal((n, n))
    arr = rng.standard_normal((n,) * rank)
    got = transform_slots(arr, M)
    ref = _transform_slots_loop(arr, M)
    assert got.shape == ref.shape == (M.shape[0],) * rank
    assert np.abs(got - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1.0)


@pytest.mark.parametrize("n,rank", [(4, 2), (5, 3), (6, 4), (6, 6)])
def test_swap_kl_rows_matches_per_row(n, rank):
    from robcls.modules import swap_kl, swap_kl_rows

    # n rows: the row axis has the size of a slot axis, so permuting it by mistake would show
    rows = np.random.default_rng(n + rank).standard_normal((n, n**rank))
    per_row = np.array([swap_kl(r.reshape((n,) * rank), n).ravel() for r in rows])
    assert np.array_equal(swap_kl_rows(rows, n, rank), per_row)
    assert np.array_equal(swap_kl(swap_kl(rows[0].reshape((n,) * rank), n), n), rows[0].reshape((n,) * rank))
