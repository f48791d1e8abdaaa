import numpy as np
import pytest

from robcls.classes import (
    RANK,
    _spanning_seeds,
    frame_metric,
    orthonormal_rows,
    project_class,
    project_rows,
    reference_class_basis,
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


@pytest.mark.parametrize("n", range(4, 10))
@pytest.mark.parametrize("space", SPACES)
def test_reference_class_basis_matches_per_seed_loop(space, n):
    eta = frame_metric(n)
    eta_inv = np.linalg.inv(eta)
    rows = [project_class(space, s, eta, eta_inv, n).ravel() for s in _spanning_seeds(space, list(range(n)), n)]
    assert np.array_equal(reference_class_basis(space, n), orthonormal_rows(np.array(rows)))
