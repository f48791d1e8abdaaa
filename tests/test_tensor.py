import itertools
import math

import numpy as np
import pytest

from robcls.classes import ricci_contraction
from robcls.tensor import Tolerance, levi_civita, skew_arr, swap_pairs, sym_arr, transform_slots


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


def test_tolerance_vanishing_rule():
    tol = Tolerance(1e-9, 1e-6)
    thr = tol.threshold(-2.0)
    assert tol.vanishes(thr, -2.0) and not tol.vanishes(thr * (1 + 1e-12), -2.0)
    assert tol.vanishes(0.0) and not tol.vanishes(2e-9)
    # the indeterminate band is [thr / 10, thr * 10], closed on both sides
    for norm, inside in ((thr / 10.0, True), (thr * 10.0, True), (thr, True), (thr / 11.0, False), (thr * 11.0, False)):
        assert tol.indeterminate(norm, -2.0) is inside


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
    """Reference: contract M (or M[ax]) into one slot at a time with tensordot."""
    mats = [M] * arr.ndim if isinstance(M, np.ndarray) else M
    out = arr
    for ax, Mi in enumerate(mats):
        out = np.moveaxis(np.tensordot(Mi, out, axes=(1, ax)), 0, ax)
    return out


@pytest.mark.parametrize("rank", range(5))
@pytest.mark.parametrize("kind", ["square", "complex", "rectangular", "per-slot"])
def test_transform_slots_matches_slot_loop(rank, kind):
    rng = np.random.default_rng(10 * rank + len(kind))
    n = 5
    if kind == "per-slot":
        # slot 0: (n, n) real, 1: (3, n) complex, 2: (n, n) complex, 3: (3, n) real
        M = []
        for ax in range(rank):
            Mi = rng.standard_normal((3 if ax % 2 else n, n))
            if ax % 4 in (1, 2):
                Mi = Mi + 1j * rng.standard_normal(Mi.shape)
            M.append(Mi)
        shape = tuple(Mi.shape[0] for Mi in M)
    else:
        M = rng.standard_normal((3 if kind == "rectangular" else n, n))
        if kind == "complex":
            M = M + 1j * rng.standard_normal((n, n))
        shape = (M.shape[0],) * rank
    arr = rng.standard_normal((n,) * rank)
    got = transform_slots(arr, M)
    ref = _transform_slots_loop(arr, M)
    assert got.shape == ref.shape == shape
    assert np.abs(got - ref).max() <= 1e-14 * max(np.abs(ref).max(), 1.0)
    if kind == "per-slot":
        with pytest.raises(ValueError):
            transform_slots(arr, M + [np.eye(n)])


@pytest.mark.parametrize("n,rank", [(4, 2), (5, 3), (6, 4), (6, 6)])
def test_swap_kl_rows_matches_per_row(n, rank):
    from robcls.modules import swap_kl, swap_kl_rows

    # n rows: the row axis has the size of a slot axis, so permuting it by mistake would show
    rows = np.random.default_rng(n + rank).standard_normal((n, n**rank))
    per_row = np.array([swap_kl(r.reshape((n,) * rank), n).ravel() for r in rows])
    assert np.array_equal(swap_kl_rows(rows, n, rank), per_row)
    assert np.array_equal(swap_kl(swap_kl(rows[0].reshape((n,) * rank), n), n), rows[0].reshape((n,) * rank))


def _perm_average_ref(components, slots, signed):
    """Zero-filled sum of sign * transpose over every permutation of ``slots``, over k!."""
    rank = components.ndim
    slots = tuple(slots)
    out = np.zeros_like(components)
    for perm in itertools.permutations(range(len(slots))):
        axes = list(range(rank))
        for pos, p in enumerate(perm):
            axes[slots[pos]] = slots[p]
        term = np.transpose(components, axes)
        if signed:
            inversions = sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm)))
            out += (-1) ** inversions * term
        else:
            out += term
    return out / math.factorial(len(slots))


def _assert_same_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


def _with_signed_zeros(shape, complex_, rng):
    """Random entries with every third one -0.0 and every fifth +0.0, in each real part."""
    def part():
        t = rng.standard_normal(shape)
        t.reshape(-1)[::3] = -0.0
        t.reshape(-1)[1::5] = 0.0
        return t

    if not complex_:
        return part()
    t = np.empty(shape, dtype=complex)
    t.real, t.imag = part(), part()
    return t


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "shape,slots",
    [
        ((4, 4), (0, 1)),
        ((4, 4), (-1, -2)),
        ((5, 5, 5), (0, 2)),
        ((5, 5, 5), (0, 1, 2)),
        ((2, 3, 4, 4, 4), (-3, -2, -1)),
        ((3, 4, 4, 4, 4), (-2, -1)),
        ((4, 4, 4, 4, 4, 4), (3, 4, 5)),
    ],
)
def test_skew_sym_match_zero_filled_permutation_sum(shape, slots, complex_):
    """skew_arr and sym_arr equal the zero-filled permutation sum bit for bit,
    signs of zeros included, with negative slots and leading batch axes."""
    arr = _with_signed_zeros(shape, complex_, np.random.default_rng(len(shape) + len(slots)))
    for part in (np.real, np.imag) if complex_ else (np.real,):
        assert ((part(arr) == 0) & np.signbit(part(arr))).any()
    _assert_same_bits(skew_arr(arr, slots), _perm_average_ref(arr, slots, True))
    _assert_same_bits(sym_arr(arr, slots), _perm_average_ref(arr, slots, False))


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize(
    "shape,groups",
    [
        ((4, 4, 4, 4), ((0, 1), (2, 3))),
        ((4, 4, 4, 4), ((2, 3), (0, 1))),
        ((3, 4, 4, 4, 4), ((-4, -3), (-2, -1))),
        ((4, 4, 4, 4, 4), ((0, 1, 2), (3, 4))),
        ((4, 4, 4, 4, 4, 4), ((0, 1, 2), (-3, -2, -1))),
        ((3, 3, 3, 3, 3, 3, 3, 3), ((0, 1), (2, 3), (4, 5), (6, 7))),
    ],
)
def test_skew_groups_match_nested_calls(shape, groups, complex_):
    """skew_arr over several groups equals one call per group in turn, bit for
    bit and with the same signs of zeros."""
    arr = _with_signed_zeros(shape, complex_, np.random.default_rng(len(shape) + len(groups)))
    ref = arr
    for slots in groups:
        ref = skew_arr(ref, slots)
    _assert_same_bits(skew_arr(arr, *groups), ref)
    with pytest.raises(TypeError):
        skew_arr(arr)


def test_swap_pairs():
    """swap_pairs gives t_cdab on the last four slots, leading axes batching."""
    rng = np.random.default_rng(5)
    t = rng.standard_normal((4, 5, 6, 7))
    assert np.array_equal(swap_pairs(t), np.einsum("abcd->cdab", t))
    batch = rng.standard_normal((2, 3, 4, 4, 4, 4))
    assert np.array_equal(swap_pairs(batch), np.einsum("...abcd->...cdab", batch))
    assert np.array_equal(swap_pairs(swap_pairs(t)), t)
