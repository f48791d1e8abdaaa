import itertools

import numpy as np
import pytest

from robcls.tensor import (
    DEFAULT_TOL,
    PointTensor,
    Tolerance,
    contract,
    is_zero,
    metric_inverse,
    raise_lower,
    skew,
    sym,
    transform_slots,
)


def minkowski(n):
    g = np.diag([-1.0] + [1.0] * (n - 1))
    return PointTensor(n, "dd", g, "eta")


def test_metric_trace_is_dimension():
    g = minkowski(4)
    t = contract(g, 0, 1, metric=g)
    assert abs(float(t.components) - 4.0) < 1e-14


def test_null_vector_norm():
    g = minkowski(4)
    k = PointTensor(4, "u", np.array([1.0, 1.0, 0.0, 0.0]))
    kk = contract(
        PointTensor(4, "uu", np.einsum("a,b->ab", k.components, k.components)), 0, 1, metric=g
    )
    assert abs(float(kk.components)) < 1e-14


def test_contract_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for n in (3, 4, 5, 6):
        for rank in (2, 3, 4, 5):
            arr = rng.standard_normal((n,) * rank)
            t = PointTensor(n, "d" * rank, arr)
            i, j = (1, 2) if rank >= 3 else (0, 1)
            g = minkowski(n)
            out = contract(t, i, j, metric=g).components
            ginv = np.linalg.inv(g.components)
            # naive loops
            shape = (n,) * (rank - 2)
            expected = np.zeros(shape)
            for idx in itertools.product(range(n), repeat=rank - 2):
                s = 0.0
                for a in range(n):
                    for b in range(n):
                        full = list(idx)
                        full.insert(min(i, j), a)
                        full.insert(max(i, j), b)
                        s += ginv[a, b] * arr[tuple(full)]
                expected[idx] = s
            assert np.abs(out - expected).max() < 1e-13


def test_mixed_variance_contraction_direct():
    rng = np.random.default_rng(3)
    n = 5
    arr = rng.standard_normal((n, n, n))
    t = PointTensor(n, "udd", arr)
    out = contract(t, 0, 1).components
    assert np.abs(out - np.einsum("aab->b", arr)).max() < 1e-14


def test_skew_idempotent_and_formula():
    rng = np.random.default_rng(4)
    n = 4
    arr = rng.standard_normal((n, n))
    t = PointTensor(n, "dd", arr)
    s = skew(t, (0, 1))
    assert np.abs(s.components - 0.5 * (arr - arr.T)).max() < 1e-15
    assert np.abs(skew(s, (0, 1)).components - s.components).max() < 1e-15
    f = PointTensor(n, "dd", arr - arr.T)
    assert np.abs(skew(f, (0, 1)).components - f.components).max() < 1e-15


def test_sym_of_skew_vanishes():
    rng = np.random.default_rng(5)
    n = 4
    arr = rng.standard_normal((n, n, n))
    t = PointTensor(n, "ddd", arr)
    s = sym(skew(t, (0, 1)), (0, 1))
    assert np.abs(s.components).max() < 1e-15


def test_sym_over_gradient_of_symmetric():
    # nabla_[b P_c]a symmetrised over all three slots must vanish
    rng = np.random.default_rng(6)
    n = 4
    P = rng.standard_normal((n, n, n))
    P = P + np.transpose(P, (0, 2, 1))  # symmetric in the last two slots
    grad_like = np.transpose(P, (1, 0, 2)) - np.transpose(P, (2, 0, 1))
    t = PointTensor(n, "ddd", grad_like)
    assert np.abs(skew(t, (0, 1, 2)).components).max() < 1e-14


def test_raise_lower_round_trip():
    rng = np.random.default_rng(7)
    for n in range(4, 10):
        from robcls.frames import random_lorentzian

        for _ in range(100):
            g = PointTensor(n, "dd", random_lorentzian(n, rng))
            arr = rng.standard_normal((n, n, n))
            t = PointTensor(n, "ddd", arr)
            up = raise_lower(t, 1, g)
            back = raise_lower(up, 1, g)
            assert np.abs(back.components - arr).max() < 1e-12


def test_lower_with_diagonal_metric():
    g = minkowski(4)
    k = PointTensor(4, "u", np.array([1.0, 1.0, 0.0, 0.0]))
    low = raise_lower(k, 0, g)
    assert np.allclose(low.components, [-1.0, 1.0, 0.0, 0.0])


def test_is_zero_thresholds():
    z = PointTensor(3, "dd", np.zeros((3, 3)))
    assert is_zero(z)
    t = PointTensor(3, "dd", np.full((3, 3), 1e-3))
    assert not is_zero(t, Tolerance(1e-9, 1e-9), scale=1.0)


def test_errors():
    g = minkowski(4)
    t = PointTensor(4, "dd", np.eye(4))
    with pytest.raises(ValueError):
        contract(t, 0, 0)
    with pytest.raises(ValueError):
        contract(t, 0, 1)  # same variance, no metric
    bad = PointTensor(4, "dd", np.zeros((4, 4)))
    with pytest.raises(ValueError):
        contract(t, 0, 1, metric=bad)  # singular metric
    mixed = PointTensor(4, "ud", np.eye(4))
    with pytest.raises(ValueError):
        skew(mixed, (0, 1))
    with pytest.raises(ValueError):
        Tolerance(-1.0, 0.0)


def test_schwarzschild_phi_trace_by_loop():
    """Raised tracefree Ricci of Schwarzschild has zero trace (loop oracle)."""
    from robcls.catalog import ENTRIES
    from robcls.tensor import PointTensor, raise_lower

    chart = ENTRIES["schwarzschild"].chart({"dim": 5, "M": 1.0})
    cp = chart.evaluate(np.array([0.0, 3.0, 1.0, 0.5, 0.2]))
    g = PointTensor(5, "dd", cp.g)
    phi = PointTensor(5, "dd", cp.phi)
    up = raise_lower(phi, 0, g)
    trace = sum(up.components[a, a] for a in range(5))
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
