"""Fixtures shared by the test modules: random Lorentzian metrics, null
vectors and class tensors, the sum of a decomposition's module images, the
report schema, and the real form of a unitary screen rotation."""

import json
from importlib import resources

import numpy as np

from robcls.classes import RANK, frame_metric, project_class


def random_lorentzian(n: int, rng: np.random.Generator) -> np.ndarray:
    eta = np.diag([-1.0] + [1.0] * (n - 1))
    while True:
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        g = A @ eta @ A.T
        if abs(np.linalg.det(A)) > 0.3 and np.linalg.cond(g) < 60.0:
            return g


def random_null_vector(g: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    n = g.shape[0]
    w, v = np.linalg.eigh(g)
    tdir = v[:, 0] / np.sqrt(-w[0])  # timelike unit, g(t,t) = -1
    while True:
        s = rng.standard_normal(n)
        spatial = s + float(s @ g @ tdir) * tdir
        ns = float(spatial @ g @ spatial)
        if ns > 1e-6:
            return tdir + spatial / np.sqrt(ns)


def random_class_tensor(space: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of the class (frame components), unit norm: the projection of a Gaussian tensor.

    On the frame metric the projector is Euclidean-orthogonal, so the result is
    isotropic in the class.
    """
    eta = frame_metric(n)
    out = project_class(space, rng.standard_normal((n,) * RANK[space]), eta, np.linalg.inv(eta), n)
    return out / max(np.linalg.norm(out), 1e-300)


def reconstruct(dec) -> np.ndarray:
    """The sum of a decomposition's module images, in coordinates."""
    out = 0.0
    for c in dec.components.values():
        out = out + dec.frame.from_frame(c.frame_image)
    return out


def report_schema() -> dict:
    """The JSON schema of a classification report, as shipped in the package."""
    with resources.files("robcls").joinpath("report.schema.json").open("r") as fh:
        return json.load(fh)


def unitary_to_real(U: np.ndarray) -> np.ndarray:
    """The screen rotation m_A -> U_AB m_B as real 2x2 blocks on the pairs (e_1, e_2), (e_3, e_4), ..."""
    p = U.shape[0]
    O = np.zeros((2 * p, 2 * p))
    for a in range(p):
        for b in range(p):
            O[2 * a, 2 * b] = U[a, b].real
            O[2 * a, 2 * b + 1] = U[a, b].imag
            O[2 * a + 1, 2 * b] = -U[a, b].imag
            O[2 * a + 1, 2 * b + 1] = U[a, b].real
    return O
