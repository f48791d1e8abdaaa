import itertools
import math

import numpy as np
import pytest

from robcls.classes import (
    RANK,
    class_dim,
    frame_metric,
    metric_wedge_part,
    orthonormal_coefficients,
    project_A,
    project_C,
    project_class,
    project_riemann,
    project_rows,
    spanning_seeds,
    weyl_trace_part,
)

SPACES = ("G", "F", "A", "C")


@pytest.mark.parametrize("n", (4, 5, 6, 9))
@pytest.mark.parametrize("space", SPACES)
def test_project_class_batched_matches_per_tensor(space, n):
    """Leading batch axes and blocked rows give the per-tensor projection bit for bit."""
    eta = frame_metric(n)
    eta_inv = np.linalg.inv(eta)
    shape = (n,) * RANK[space]
    rows = np.random.default_rng(3).standard_normal((37, n ** RANK[space]))
    ref = np.array([project_class(space, r.reshape(shape), eta, eta_inv, n).ravel() for r in rows])
    batch = project_class(space, rows[:36].reshape(3, 12, *shape), eta, eta_inv, n)
    assert np.array_equal(batch.reshape(36, -1), ref[:36])
    assert np.array_equal(project_rows(space, rows, eta, eta_inv, n), ref)


# --- projectors against the full permutation sums -------------------------


def _perm_sum(t, slots):
    """Signed average over every permutation of ``slots``, written out (reference)."""
    out = np.zeros_like(t)
    for perm in itertools.permutations(range(len(slots))):
        axes = list(range(t.ndim))
        for pos, p in enumerate(perm):
            axes[slots[pos]] = slots[p]
        inversions = sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm)))
        out += (-1) ** inversions * np.transpose(t, axes)
    return out / math.factorial(len(slots))


def _project_riemann_ref(t):
    b = t.ndim - 4
    r = _perm_sum(_perm_sum(t, (b, b + 1)), (b + 2, b + 3))
    r = 0.5 * (r + np.transpose(r, (*range(b), b + 2, b + 3, b, b + 1)))
    return r - _perm_sum(r, (b, b + 1, b + 2, b + 3))


def _project_A_ref(t, g, g_inv, dim):
    b = t.ndim - 3
    x = _perm_sum(t, (b + 1, b + 2))
    x = x - _perm_sum(x, (b, b + 1, b + 2))
    tr = np.einsum("ab,...abc->...c", g_inv, x)
    trace_part = _perm_sum(np.einsum("ab,...c->...abc", g, tr), (b + 1, b + 2))
    return x - (2.0 / (dim - 1)) * trace_part


def _project_C_ref(t, g, g_inv, dim):
    r = _project_riemann_ref(t)
    rho = np.einsum("ac,...abcd->...bd", g_inv, r)
    rs = np.einsum("bd,...bd->...", g_inv, rho)
    phi = rho - (rs / dim)[..., None, None] * g
    wedge = (2.0 / (dim * (dim - 1))) * rs[..., None, None, None, None] * metric_wedge_part(g)
    return r - (4.0 / (dim - 2)) * weyl_trace_part(phi, g) - wedge


def _random(shape, kind, rng):
    t = rng.standard_normal(shape)
    return t + 1j * rng.standard_normal(shape) if kind == "complex" else t


@pytest.mark.parametrize("kind", ("real", "complex"))
@pytest.mark.parametrize("n", range(4, 10))
def test_projectors_match_full_permutation_sums(n, kind):
    """The cyclic 3-term sums equal the 24-term and 6-term alternations, with leading batch axes."""
    rng = np.random.default_rng(n)
    eta = frame_metric(n)
    eta_inv = np.linalg.inv(eta)
    t4 = _random((2, 3) + (n,) * 4, kind, rng)
    t3 = _random((2, 3) + (n,) * 3, kind, rng)
    tol4 = 1e-15 * np.linalg.norm(t4)
    tol3 = 1e-15 * np.linalg.norm(t3)
    assert np.abs(project_riemann(t4) - _project_riemann_ref(t4)).max() <= tol4
    assert np.abs(project_C(t4, eta, eta_inv, n) - _project_C_ref(t4, eta, eta_inv, n)).max() <= tol4
    assert np.abs(project_A(t3, eta, eta_inv, n) - _project_A_ref(t3, eta, eta_inv, n)).max() <= tol3


def _weyl_trace_part_ref(phi, g):
    return 0.25 * (
        np.einsum("...ca,bd->...abcd", phi, g)
        - np.einsum("...da,bc->...abcd", phi, g)
        - np.einsum("...cb,ad->...abcd", phi, g)
        + np.einsum("...db,ac->...abcd", phi, g)
    )


@pytest.mark.parametrize("kind", ("real", "complex"))
@pytest.mark.parametrize("batch", ((), (3,), (2, 3)))
@pytest.mark.parametrize("n", (4, 5, 7))
def test_weyl_trace_part_matches_four_einsums(n, batch, kind):
    """One outer product and its transposes equal the four einsum terms bit
    for bit, signs of zeros included (the frame metric has zero entries)."""
    rng = np.random.default_rng(n + len(batch))
    phi = _random(batch + (n, n), kind, rng)
    phi[..., 0, :] = -0.0
    for g in (frame_metric(n), -frame_metric(n), rng.standard_normal((n, n))):
        got = weyl_trace_part(phi, g)
        ref = _weyl_trace_part_ref(phi, g)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_project_class_idempotent_and_euclidean_symmetric(space, n):
    """On the frame metric the projectors are Euclidean-orthogonal, so P P^T bases are the class."""
    rng = np.random.default_rng(7 * n)
    eta = frame_metric(n)
    eta_inv = np.linalg.inv(eta)
    s, t = rng.standard_normal((2,) + (n,) * RANK[space])
    ps = project_class(space, s, eta, eta_inv, n)
    pt = project_class(space, t, eta, eta_inv, n)
    scale = np.linalg.norm(s) * np.linalg.norm(t)
    assert np.abs(project_class(space, ps, eta, eta_inv, n) - ps).max() <= 1e-14 * np.linalg.norm(s)
    assert abs(np.vdot(ps, t) - np.vdot(s, pt)) <= 1e-13 * scale


# --- the orthonormaliser ---------------------------------------------------


def _svd_rows(mat):
    """Full-SVD row-space basis on the columns where ``mat`` is nonzero (reference)."""
    cols = np.flatnonzero(np.abs(mat).max(axis=0))
    _, s, vt = np.linalg.svd(mat[:, cols], full_matrices=False)
    out = np.zeros((int(np.sum(s > 1e-10 * s[0])), mat.shape[1]), dtype=vt.dtype)
    out[:, cols] = vt[: out.shape[0]]
    return out


def assert_orthonormal_basis_of(basis, rows, dim):
    assert basis.shape[0] == dim
    assert np.abs(basis @ basis.conj().T - np.eye(dim)).max() <= 1e-13
    ref = _svd_rows(rows)
    assert ref.shape[0] == dim
    assert np.abs(basis - basis @ ref.conj().T @ ref).max() <= 1e-13


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_class_basis_spans_projected_seeds(space, n):
    """The projected seeds span the class: their rank is `class_dim`, over the frame metric at n and
    over the Euclidean screen R^{n-2}."""
    eta = frame_metric(n)
    seeds = spanning_seeds(space, n).reshape(-1, n ** RANK[space])
    rows = project_rows(space, seeds, eta, np.linalg.inv(eta), n)
    assert _svd_rows(rows).shape[0] == class_dim(space, n)
    d = n - 2
    if class_dim(space, d) > 0:
        eye = np.eye(d)
        rows = project_class(space, spanning_seeds(space, d), eye, eye, d).reshape(-1, d ** RANK[space])
        assert _svd_rows(rows).shape[0] == class_dim(space, d)


def test_orthonormal_coefficients_complex_rank_deficient():
    rng = np.random.default_rng(11)
    base = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
    rows = np.vstack([base, (1 - 2j) * base[:2], base[1] + 1j * base[3]])
    W, gap = orthonormal_coefficients(rows)
    basis = W @ rows
    assert basis.dtype == complex
    assert_orthonormal_basis_of(basis, rows, 4)
    assert gap > 1e5
    assert orthonormal_coefficients(base)[1] == np.inf  # nothing dropped
    W, gap = orthonormal_coefficients(np.zeros((3, 5)))
    assert W.shape == (0, 3) and gap == np.inf


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_module_bases_span_representative_rows(space, n):
    from robcls.modules import module_rows, rob_module_dim, rob_table, sim_module_dim, sim_table

    parents = {}
    for e in sim_table(space, n).entries:
        k = e.key
        rows = module_rows(space, n, k)
        assert_orthonormal_basis_of(e.basis, rows, sim_module_dim(space, n, k.i, k.j, k.pm))
        parents.setdefault((k.i, k.j), []).append(rows)
    # a refined module (i, j, k) lies in the span of its sim module (i, j), both halves at n = 6
    for e in rob_table(space, n).entries:
        k = e.key
        dim = rob_module_dim(space, n, k.i, k.j, k.k)
        assert e.basis.shape[0] == dim
        assert np.abs(e.basis @ e.basis.T - np.eye(dim)).max() <= 1e-13
        ref = _svd_rows(np.vstack(parents[k.i, k.j]))
        assert np.abs(e.basis - e.basis @ ref.T @ ref).max() <= 1e-13
