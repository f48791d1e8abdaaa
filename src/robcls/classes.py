"""Curvature symmetry classes, their projectors and the seeds that span them.

Four classes of tensors recur everywhere:

  G : 2-forms phi_ab
  F : symmetric tracefree Phi_ab
  A : Cotton-York class  A_abc = A_a[bc], A_[abc] = 0, A^a_ab = 0
  C : Weyl class         C_abcd = C_[ab][cd], C_[abc]d = 0, tracefree

Projectors work on plain ndarrays (real or complex) with an explicit
metric and effective dimension, so the same code serves the full
tangent space in null-frame components and the Euclidean screen R^{n-2}.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .tensor import skew_arr, sym_arr

SPACES = ("G", "F", "A", "C")

RANK = {"G": 2, "F": 2, "A": 3, "C": 4}


def project_G(t: np.ndarray) -> np.ndarray:
    b = t.ndim - 2
    return skew_arr(t, (b, b + 1))


def project_F(t: np.ndarray, g: np.ndarray, g_inv: np.ndarray, dim: int) -> np.ndarray:
    b = t.ndim - 2
    s = sym_arr(t, (b, b + 1))
    tr = np.einsum("ab,...ab->...", g_inv, s)
    return s - (tr / dim)[..., None, None] * g


def project_A(t: np.ndarray, g: np.ndarray, g_inv: np.ndarray, dim: int) -> np.ndarray:
    b = t.ndim - 3
    x = skew_arr(t, (b + 1, b + 2))
    # x is skew in its last two slots, so x_[abc] is the cyclic sum (x_abc + x_bca + x_cab) / 3
    bca = np.transpose(x, (*range(b), b + 2, b, b + 1))
    cab = np.transpose(x, (*range(b), b + 1, b + 2, b))
    x = x - (x + bca + cab) / 3.0
    tr = np.einsum("ab,...abc->...c", g_inv, x)
    trace_part = skew_arr(np.einsum("ab,...c->...abc", g, tr), (b + 1, b + 2))
    # g_{a[b} t_{c]} carries trace (dim-1)/2 * t
    return x - (2.0 / (dim - 1)) * trace_part


def project_riemann(t: np.ndarray) -> np.ndarray:
    b = t.ndim - 4
    r = skew_arr(t, (b, b + 1), (b + 2, b + 3))
    r = 0.5 * (r + np.transpose(r, (*range(b), b + 2, b + 3, b, b + 1)))
    # r is skew in each pair and pair-symmetric, so r_[abcd] is the cyclic sum
    # (r_abcd + r_acdb + r_adbc) / 3 over the last three slots
    acdb = np.transpose(r, (*range(b), b, b + 3, b + 1, b + 2))
    adbc = np.transpose(r, (*range(b), b, b + 2, b + 3, b + 1))
    return r - (r + acdb + adbc) / 3.0


def ricci_contraction(r: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """rho_bd = g^{ac} R_abcd for a Riemann-class array (leading axes batch)."""
    return np.einsum("ac,...abcd->...bd", g_inv, r)


def weyl_trace_part(phi: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Phi_{[c|[a} g_{b]|d]} assembled explicitly (leading axes of phi batch).

    With t_abcd = Phi_ca g_bd the four terms are t_abcd - t_abdc - t_bacd
    + t_badc, summed in that order.
    """
    b = phi.ndim - 2
    t = np.swapaxes(phi, -1, -2)[..., :, None, :, None] * g[:, None, :]
    # a product such as -1 * 0 is -0.0; adding 0.0 makes it 0.0, so zeros in
    # the result are signed as in the four-einsum formula, whose sums start at 0
    t += 0.0
    batch = tuple(range(b))
    out = t - t.transpose(*batch, b, b + 1, b + 3, b + 2)
    out -= t.transpose(*batch, b + 1, b, b + 2, b + 3)
    out += t.transpose(*batch, b + 1, b, b + 3, b + 2)
    out *= 0.25
    return out


def metric_wedge_part(g: np.ndarray) -> np.ndarray:
    """g_{a[c} g_{d]b}."""
    return 0.5 * (np.einsum("ac,db->abcd", g, g) - np.einsum("ad,cb->abcd", g, g))


def project_C(t: np.ndarray, g: np.ndarray, g_inv: np.ndarray, dim: int) -> np.ndarray:
    r = project_riemann(t)
    rho = ricci_contraction(r, g_inv)
    rs = np.einsum("bd,...bd->...", g_inv, rho)
    phi = rho - (rs / dim)[..., None, None] * g
    wedge = (2.0 / (dim * (dim - 1))) * rs[..., None, None, None, None] * metric_wedge_part(g)
    return r - (4.0 / (dim - 2)) * weyl_trace_part(phi, g) - wedge


def project_class(space: str, t: np.ndarray, g: np.ndarray, g_inv: np.ndarray, dim: int) -> np.ndarray:
    """Project onto the class; axes before the last ``RANK[space]`` are batch axes."""
    if space == "G":
        return project_G(t)
    if space == "F":
        return project_F(t, g, g_inv, dim)
    if space == "A":
        return project_A(t, g, g_inv, dim)
    if space == "C":
        return project_C(t, g, g_inv, dim)
    raise ValueError(f"unknown space {space!r}")


# Rows per project_class call in project_rows. Blocks of 4 to 16 rows
# projected the spanning seeds of every class at n = 4..9 about 1.7x faster
# than one row per call; one block of all 666 rows of C at n = 9 was slower
# than one row per call.
_PROJECT_BLOCK = 16


def project_rows(space: str, rows: np.ndarray, g: np.ndarray, g_inv: np.ndarray, dim: int) -> np.ndarray:
    """project_class applied to each flattened row of ``rows``, a block of rows per call."""
    shape = (g.shape[0],) * RANK[space]
    out = np.empty_like(rows)
    for start in range(0, rows.shape[0], _PROJECT_BLOCK):
        block = rows[start : start + _PROJECT_BLOCK]
        out[start : start + _PROJECT_BLOCK] = project_class(
            space, block.reshape(-1, *shape), g, g_inv, dim
        ).reshape(block.shape)
    return out


def class_dim(space: str, d: int) -> int:
    """Dimension of the symmetry class over R^d."""
    if space == "G":
        return d * (d - 1) // 2
    if space == "F":
        return d * (d + 1) // 2 - 1
    if space == "A":
        return d * (d * d - 4) // 3
    if space == "C":
        return d * (d + 1) * (d + 2) * (d - 3) // 12
    raise ValueError(f"unknown space {space!r}")


@lru_cache(maxsize=None)
def component_grades(n: int, rank: int) -> np.ndarray:
    """Grade #(l-slots) - #(k-slots) of every flattened null-frame component.

    A slot holding index 0 (the k slot) counts -1 and one holding n-1 (the l
    slot) counts +1.  The frame metric pairs index 0 with n-1, so the class
    projectors preserve grade.
    """
    g1 = np.zeros(n, dtype=int)
    g1[0], g1[n - 1] = -1, 1
    total = np.zeros((n,) * rank, dtype=int)
    for ax in range(rank):
        total = total + g1.reshape([n if a == ax else 1 for a in range(rank)])
    out = total.ravel()
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def grade_columns(n: int, rank: int, grade: int) -> np.ndarray:
    """Flat indices of the null-frame components of one grade."""
    out = np.flatnonzero(component_grades(n, rank) == grade)
    out.flags.writeable = False
    return out


# relative floor of a rank decision: Gram eigenvalues in `orthonormal_coefficients`,
# singular values in `kernel_rows`
RANK_RTOL = 1e-10


def orthonormal_coefficients(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """W whose rows W @ mat are an orthonormal basis of the row space of ``mat`` (real or complex), and the gap of its rank.

    The rank counts eigenvalues of the Gram matrix mat mat^H above ``RANK_RTOL``
    times the largest.  One Cholesky pass then re-orthonormalises (CholeskyQR2),
    which the eigen-basis alone leaves off by eps times the condition number
    squared.  The gap is the ratio of the smallest kept singular value to the
    largest dropped one, sqrt of the eigenvalue ratio, and infinite when
    nothing is dropped or nothing kept: a gap near 1 means the rank was cut
    at a marginal value.
    """
    w, v = np.linalg.eigh(mat @ mat.conj().T)
    keep = w > RANK_RTOL * w.max(initial=0.0)
    kept, dropped = w[keep], w[~keep]  # both ascending
    gap = float(np.sqrt(kept[0] / dropped[-1])) if kept.size and dropped.size and dropped[-1] > 0.0 else np.inf
    W = v[:, keep].conj().T / np.sqrt(kept)[:, None]
    q = W @ mat
    # the Cholesky factor is within round-off of the identity here
    return np.linalg.inv(np.linalg.cholesky(q @ q.conj().T)) @ W, gap


def kernel_rows(mat) -> np.ndarray:
    """Orthonormal basis (rows, complex) of the kernel of ``mat``: the vectors x with mat @ x = 0.

    The rank counts singular values above ``RANK_RTOL`` times the largest.
    """
    _, s, vt = np.linalg.svd(np.array(mat, dtype=complex))
    rank = int(np.sum(s > RANK_RTOL * max(s[0], 1e-300)))
    return vt[rank:].conj()


def spanning_seeds(space: str, d: int) -> np.ndarray:
    """Elementary tensors on R^d whose class projections span the class: a stack of (d,) * RANK[space] arrays.

    One seed e_a (x) e_b (x) ... per index tuple: a < b for G (a diagonal seed
    projects to 0), a <= b for F, b < c for A, and index pairs ab <= cd with
    a < b, c < d for C.
    """
    if space == "G":
        idx = [(a, b) for a in range(d) for b in range(a + 1, d)]
    elif space == "F":
        idx = [(a, b) for a in range(d) for b in range(a, d)]
    elif space == "A":
        idx = [(a, b, c) for a in range(d) for b in range(d) for c in range(b + 1, d)]
    elif space == "C":
        pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
        idx = [ab + cd for p, ab in enumerate(pairs) for cd in pairs[p:]]
    else:
        raise ValueError(f"unknown space {space!r}")
    seeds = np.zeros((len(idx),) + (d,) * RANK[space])
    for s, t in enumerate(idx):
        seeds[(s, *t)] = 1.0
    return seeds


@lru_cache(maxsize=None)
def frame_metric(n: int) -> np.ndarray:
    """Constant metric in null-frame components: k.l = 1, screen = identity."""
    eta = np.zeros((n, n))
    eta[0, n - 1] = eta[n - 1, 0] = 1.0
    for i in range(1, n - 1):
        eta[i, i] = 1.0
    return eta
