import numpy as np
import pytest

from conftest import random_class_tensor
from robcls.classes import RANK, class_dim, component_grades, frame_metric, project_rows
from robcls.frames import n_to_m_eps
from robcls.modules import (
    _BY_LABEL,
    ModuleKey,
    _screen_params,
    module_rows,
    rob_module_dim,
    rob_module_keys,
    rob_table,
    sim_module_dim,
    sim_module_keys,
    sim_table,
)

SPACES = ("G", "F", "A", "C")


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_tables_complete(space, n):
    for level, table in (("sim", sim_table(space, n)), ("rob", rob_table(space, n))):
        assert table.total_dim == class_dim(space, n), (space, n, level)
        S = table.stacked
        # the guard in ModuleTable: the stacked module bases are orthonormal
        assert np.abs(S @ S.T - np.eye(table.total_dim)).max() <= 1e-12
        # per-grade completeness: reconstruction of random class tensors
        rng = np.random.default_rng(17)
        t = random_class_tensor(space, n, rng).ravel()
        coeff = table.coefficients(t)
        assert np.linalg.norm(S.T @ coeff - t) < 1e-10
        # the projection agrees with the least-squares coordinates
        ts = np.array([random_class_tensor(space, n, rng).ravel() for _ in range(3)]).T
        assert np.abs(table.coefficients(ts) - np.linalg.pinv(S.T) @ ts).max() < 1e-13


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_refined_dims_sum_to_sim_dims(space, n):
    """The closed-form refined dimensions of every (i, j) add up to its sim dimension."""
    for i in range(-2, 3):
        for j in range(4):
            refined = sum(rob_module_dim(space, n, i, j, k) for k in range(13))
            assert refined == sim_module_dim(space, n, i, j), (space, n, i, j)


def test_table_rejects_non_orthonormal_bases():
    from robcls.modules import ModuleEntry, ModuleTable

    e = sim_table("G", 4).entries[0]
    skewed = ModuleEntry(e.key, e.grade, 2.0 * e.basis, e.gap)
    with pytest.raises(RuntimeError, match="not orthonormal"):
        ModuleTable("G", 4, "sim", [skewed])


@pytest.mark.parametrize("n", (5, 6, 8, 9))
@pytest.mark.parametrize("space", ("F", "A", "C"))
def test_refinement_orthogonal(space, n):
    """|Pi_i^j|^2 = sum_k |Pi_i^{j,k}|^2 on random class tensors."""
    st, rt = sim_table(space, n), rob_table(space, n)
    rng = np.random.default_rng(23)
    for _ in range(5):
        t = random_class_tensor(space, n, rng).ravel()
        cs, cr = st.coefficients(t), rt.coefficients(t)
        for e in st.entries:
            if e.key.pm is not None:
                continue
            ns = np.linalg.norm(st.stacked[st.slices[e.key]].T @ cs[st.slices[e.key]]) ** 2
            nr = sum(
                np.linalg.norm(rt.stacked[rt.slices[er.key]].T @ cr[rt.slices[er.key]]) ** 2
                for er in rt.entries
                if (er.key.i, er.key.j) == (e.key.i, e.key.j)
            )
            assert abs(ns - nr) < 1e-10


def test_spec_dimension_examples():
    # closed-form table values at specific (space, n)
    assert class_dim("F", 7) == 27
    assert class_dim("C", 6) == 84
    assert class_dim("A", 4) == 16
    assert sim_module_dim("C", 8, 0, 3) == 84  # (1/3) m(m-1)(2m-1)(2m-5), m = 4
    assert sim_module_dim("F", 9, 0, 1) == 27  # (m-1)(2m+1), m = 4
    assert rob_module_dim("C", 8, 0, 3, 5) == 27  # (1/4)(m+2)(m-1)^2(m-2), m = 4


def test_low_dimension_exclusions():
    # no grade-0 screen-Weyl modules below n = 6
    assert sim_module_dim("C", 4, 0, 3) == 0
    assert sim_module_dim("C", 5, 0, 3) == 0
    assert sim_module_dim("C", 4, 0, 2) == 0  # dagger: n > 4 only
    assert sim_module_dim("C", 5, 0, 2) == 5  # (m-1)(2m+1) at m = 2
    # refined exclusions
    assert rob_module_dim("C", 5, 1, 1, 0) == 0  # dagger: n > 5 only
    assert rob_module_dim("C", 6, 1, 1, 0) == 4
    assert rob_module_dim("C", 6, 0, 3, 2) == 0  # double dagger
    assert rob_module_dim("C", 7, 0, 3, 2) == 0  # requires m > 3
    assert rob_module_dim("C", 8, 0, 3, 2) == 8
    assert rob_module_dim("A", 5, 0, 2, 0) == 0  # coincides with the u-built piece at m = 2
    assert rob_module_dim("A", 7, 0, 2, 0) == 4


def test_n6_pm_split_dims():
    st = sim_table("C", 6)
    dims = {str(e.key): e.dim for e in st.entries}
    assert dims["C.0.3+"] == dims["C.0.3-"] == 5
    assert dims["C.1.1+"] == dims["C.1.1-"] == 8
    assert dims["C.0.1+"] == dims["C.0.1-"] == 3
    at = sim_table("A", 6)
    dims = {str(e.key): e.dim for e in at.entries}
    assert dims["A.0.2+"] == dims["A.0.2-"] == 8
    assert dims["A.1.1+"] == dims["A.1.1-"] == 3


def test_n6_pm_split_orthogonal_and_sums():
    rng = np.random.default_rng(5)
    st = sim_table("C", 6)
    plus = st.entry(ModuleKey("C", 0, 3, None, "+"))
    minus = st.entry(ModuleKey("C", 0, 3, None, "-"))
    gram = plus.basis @ minus.basis.T
    assert np.abs(gram).max() < 1e-12
    # norms add for random class tensors
    t = random_class_tensor("C", 6, rng).ravel()
    c = st.coefficients(t)
    n_plus = np.linalg.norm(c[st.slices[plus.key]])
    n_minus = np.linalg.norm(c[st.slices[minus.key]])
    joint = np.vstack([plus.basis, minus.basis])
    proj = joint @ t
    assert abs(n_plus**2 + n_minus**2 - proj @ proj) < 1e-12


def test_refined_module_counting():
    """Index sets of refined modules match the direct-sum lists."""
    expected_C = {
        (2, 0): {0, 1, 2, 3},
        (1, 0): {0, 1},
        (1, 1): set(range(10)),
        (0, 0): {0},
        (0, 1): {0, 1, 2, 3},
        (0, 2): {0, 1, 2, 3},
        (0, 3): set(range(13)),
    }
    for n in (8, 9):
        m, eps = n_to_m_eps(n)
        keys = rob_module_keys("C", n)
        for (i, j), kset in expected_C.items():
            present = {k.k for k in keys if (k.i, k.j) == (i, j)}
            allowed = {k for k in kset if rob_module_dim("C", n, i, j, k) > 0}
            assert present == allowed, (n, i, j, present, allowed)
            # the full index set is exhausted at large m in odd dimension
            if n == 9:
                missing = kset - present
                for k in missing:
                    assert rob_module_dim("C", n, i, j, k) == 0


def test_grade_support():
    """Every module row, sim and refined, lies on its grade and in its class (projection leaves it unchanged)."""
    for n in range(4, 10):
        eta = frame_metric(n)
        for space in SPACES:
            grades = component_grades(n, RANK[space])
            for level, table in (("sim", sim_table(space, n)), ("rob", rob_table(space, n))):
                for e in table.entries:
                    mask = grades == e.grade
                    for row in e.basis:
                        assert np.linalg.norm(row[~mask]) < 1e-11
                S = table.stacked
                P = project_rows(space, S, eta, np.linalg.inv(eta), n)
                assert (np.linalg.norm(P - S, axis=1) <= 1e-9 * np.linalg.norm(S, axis=1)).all(), (space, n, level)


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_sim_embeddings_satisfy_schurs_identity(space, n):
    """Each embedding is a constant c times an isometry on its irreducible parameter space (Schur's
    lemma): the Gram matrix of a sim module's rows is c^2 times that of its screen parameters."""
    for key in sim_module_keys(space, n):
        rows = module_rows(space, n, key)
        P = _screen_params(_BY_LABEL[space, abs(key.i), key.j].params, n, key.pm)
        P = P.reshape(len(P), -1)
        gram_rows, gram_params = rows @ rows.T, P @ P.T
        c2 = np.trace(gram_rows) / np.trace(gram_params)
        assert c2 > 0.0, key
        assert np.abs(gram_rows - c2 * gram_params).max() <= 1e-12 * np.abs(gram_rows).max(), key


def _screen_action(X, rows, n, rank):
    """The n x n matrix X acting as a derivation on every slot of each flattened row."""
    T = rows.reshape((-1,) + (n,) * rank)
    out = np.zeros_like(T)
    for s in range(rank):
        out += np.moveaxis(np.tensordot(X, T, axes=(1, s + 1)), 0, s + 1)
    return out.reshape(rows.shape)


def _assert_invariant(images, basis):
    """The rows of ``images`` lie in the span of the orthonormal rows of ``basis``."""
    residual = images - (images @ basis.T) @ basis
    assert np.abs(residual).max(initial=0.0) <= 1e-12 * max(np.abs(images).max(initial=0.0), np.abs(basis).max())


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_rob_modules_are_stabiliser_invariant(space, n):
    """Each refined module lies in its sim parent and is mapped into itself by J and by u(m-1),
    each acting as a derivation, and at odd n by the reflection u -> -u of every slot."""
    from robcls.frames import RobinsonStructure, reference_frame

    rank = RANK[space]
    N = RobinsonStructure(reference_frame(n))
    p2 = N.J.shape[0]
    J = np.zeros((n, n))
    J[1 : p2 + 1, 1 : p2 + 1] = N.J
    # X - J X J commutes with J: these span u(m-1) on the J-plane of the screen
    generators = [J]
    for a in range(1, p2 + 1):
        for b in range(a + 1, p2 + 1):
            X = np.zeros((n, n))
            X[a, b], X[b, a] = 1.0, -1.0
            generators.append(X - J @ X @ J)
    sim, rob = sim_table(space, n), rob_table(space, n)
    images = [_screen_action(X, rob.stacked, n, rank) for X in generators]
    if N.u_index is not None:
        u_slots = (np.indices((n,) * rank) == N.u_index + 1).sum(axis=0).ravel()
        images.append(rob.stacked * (-1.0) ** u_slots)
    for e in rob.entries:
        parent = np.vstack([s.basis for s in sim.entries if (s.key.i, s.key.j) == (e.key.i, e.key.j)])
        _assert_invariant(e.basis, parent)
        for image in images:
            _assert_invariant(image[rob.slices[e.key]], e.basis)
