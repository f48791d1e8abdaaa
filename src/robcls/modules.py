"""Irreducible module tables for the null-line and Robinson classifications.

Every irreducible piece of the curvature spaces G, F, A, C under the
stabiliser of a null line (grades -2..2, labels (i, j), with self-dual
splits when n = 6) and under the stabiliser of a Robinson structure
(labels (i, j, k)) is realised here as an explicit subspace of
null-frame components.  Subspaces are generated from representative
formulas: a linear embedding of a small parameter space (screen vectors,
screen 2-forms, ... complex screen tensors) into the full class.

One registry, ``_MODULES``, declares each module (i, j) with i >= 0 once:
its embedding and its parameter space.  A parameter space supplies both
levels (its sim parameters and closed-form dimension, its refined
parameters and closed-form dimensions by k), so the sim and rob tables,
keys and dimensions are all read off the same rows.

Conventions (fixed throughout the package):
  frame slot order   (k, e_1, ..., e_{n-2}, l),  g(k,l) = 1, g(e_i,e_j) = d_ij
  grade of a frame component = #(l-slots) - #(k-slots); k has grade +1
  adapted complex frame  m_A = (e_{2A-1} - i e_{2A})/sqrt(2), A = 1..m-1,
  u = e_{n-2} in odd dimension; J m_A = +i m_A, omega(m_A, mbar_B) = i d_AB.
The screen vectors, m_A, omega and u are read from `frames` on its
`reference_frame(n)`; they are not re-derived here.

Negative-grade modules are the k <-> l swap of the positive-grade ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .classes import (
    RANK,
    class_dim,
    component_grades,
    frame_metric,
    grade_columns,
    kernel_rows,
    orthonormal_rows,
    project_class,
    project_riemann,
    project_rows,
    screen_class_basis,
)
from .frames import RobinsonStructure, n_to_m_eps, reference_frame
from .tensor import levi_civita, skew_arr, swap_pairs


# --------------------------------------------------------------------------
# frame-land invariant arrays
# --------------------------------------------------------------------------


def _kb(n):
    v = np.zeros(n)
    v[n - 1] = 1.0
    return v


def _lb(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def _h(n):
    return np.diag([0.0] + [1.0] * (n - 2) + [0.0])


def _S(n):
    k, l = _kb(n), _lb(n)
    return np.outer(k, l) + np.outer(l, k)


def _E(n):
    k, l = _kb(n), _lb(n)
    return -(np.outer(k, l) - np.outer(l, k))


class _Adapted(NamedTuple):
    mv: np.ndarray  # rows m_A
    omega: np.ndarray
    u: np.ndarray | None  # None when n is even


@lru_cache(maxsize=None)
def _adapted(n: int) -> _Adapted:
    """The m_A, omega and u of `RobinsonStructure(reference_frame(n))`, built once per n, read-only."""
    N = RobinsonStructure(reference_frame(n))
    mv, omega = np.array(N.m_vectors()), N.omega()
    mv.flags.writeable = omega.flags.writeable = False
    return _Adapted(mv, omega, N.u)


def _H(n):
    m, eps = n_to_m_eps(n)
    H = _h(n).copy()
    if eps:
        H[n - 2, n - 2] = 0.0
    return H


def swap_kl(arr: np.ndarray, n: int) -> np.ndarray:
    """Interchange k and l: permute slot values 0 <-> n-1 on every axis."""
    perm = np.arange(n)
    perm[0], perm[n - 1] = n - 1, 0
    return arr[np.ix_(*[perm] * arr.ndim)]


def swap_kl_rows(rows: np.ndarray, n: int, rank: int) -> np.ndarray:
    """`swap_kl` of every flattened rank-`rank` row of a stack, as one column permutation."""
    return rows[:, swap_kl(np.arange(n**rank).reshape((n,) * rank), n).ravel()]


# --------------------------------------------------------------------------
# small parameter spaces on the screen
# --------------------------------------------------------------------------


def _vecJ_basis(n):
    m, eps = n_to_m_eps(n)
    return reference_frame(n).screen[: 2 * (m - 1)]


def _form2_basis(n):
    vs = reference_frame(n).screen
    out = []
    for p in range(len(vs)):
        for q in range(p + 1, len(vs)):
            out.append(np.outer(vs[p], vs[q]) - np.outer(vs[q], vs[p]))
    return out


def _sym2tf_basis(n):
    vs = reference_frame(n).screen
    d = len(vs)
    out = []
    for p in range(d):
        for q in range(p + 1, d):
            out.append(np.outer(vs[p], vs[q]) + np.outer(vs[q], vs[p]))
    for p in range(d - 1):
        out.append(np.outer(vs[p], vs[p]) - np.outer(vs[p + 1], vs[p + 1]))
    return out


def _cplx_pair_basis(p):
    """Basis of complex antisymmetric 2-tensors on C^p."""
    out = []
    for a in range(p):
        for b in range(a + 1, p):
            z = np.zeros((p, p), dtype=complex)
            z[a, b] = 1.0
            z[b, a] = -1.0
            out.append(z)
    return out


def _cplx_sym_basis(p):
    out = []
    for a in range(p):
        for b in range(a, p):
            z = np.zeros((p, p), dtype=complex)
            z[a, b] += 1.0
            z[b, a] += 1.0
            out.append(z)
    return out


def _hermitian_tf_basis(p):
    """Hermitian tracefree p x p matrices (real dimension p^2 - 1)."""
    out = []
    for a in range(p):
        for b in range(a + 1, p):
            z = np.zeros((p, p), dtype=complex)
            z[a, b] = 1.0
            z[b, a] = 1.0
            out.append(z)
            z = np.zeros((p, p), dtype=complex)
            z[a, b] = 1.0j
            z[b, a] = -1.0j
            out.append(z)
    for a in range(p - 1):
        z = np.zeros((p, p), dtype=complex)
        z[a, a] = 1.0
        z[a + 1, a + 1] = -1.0
        out.append(z)
    return out


def _nullspace_basis(rows: list[np.ndarray], constraint):
    """Basis of {x in span(rows) : constraint(x) = 0} (complex allowed)."""
    if not rows:
        return []
    mat = np.array([r.ravel() for r in rows])
    cons = np.array([np.atleast_1d(constraint(r)).ravel() for r in rows])
    if cons.shape[1] == 0 or not np.any(np.abs(cons) > 1e-13):
        return rows
    # seeds -> constraints map acts on coefficient vectors as cons.T
    null = kernel_rows(cons.T)  # coefficient vectors spanning the kernel
    shaped = [np.tensordot(c, mat, axes=(0, 0)).reshape(rows[0].shape) for c in null]
    return shaped


def _cplx_hook_basis(p):
    """A_{A[BC]} with A_{[ABC]} = 0 on C^p (no trace condition)."""
    seeds = []
    for a in range(p):
        for b in range(p):
            for c in range(b + 1, p):
                z = np.zeros((p, p, p), dtype=complex)
                z[a, b, c] = 1.0
                z[a, c, b] = -1.0
                seeds.append(z)
    proj = [s - skew_arr(s, (0, 1, 2)) for s in seeds]
    flat, _ = orthonormal_rows(np.array([x.ravel() for x in proj]))
    return [f.reshape((p, p, p)) for f in flat]


def _cplx_hook_up_tf_basis(p):
    """Tracefree A^A_{[BC]} (trace over the first index against either lower)."""
    seeds = []
    for a in range(p):
        for b in range(p):
            for c in range(b + 1, p):
                z = np.zeros((p, p, p), dtype=complex)
                z[a, b, c] = 1.0
                z[a, c, b] = -1.0
                seeds.append(z)
    return _nullspace_basis(seeds, lambda z: np.einsum("aac->c", z))


def _cplx_symvec_tf_basis(p):
    """Tracefree A_{(AB)}^C."""
    seeds = []
    for a in range(p):
        for b in range(a, p):
            for c in range(p):
                z = np.zeros((p, p, p), dtype=complex)
                z[a, b, c] += 1.0
                z[b, a, c] += 1.0
                seeds.append(z)
    return _nullspace_basis(seeds, lambda z: np.einsum("aba->b", z))


def _cplx_riem_basis(p):
    """Psi_{[AB][CD]} with Psi_{[ABC]D} = 0 on C^p (no trace condition)."""
    seeds = []
    pairs = [(a, b) for a in range(p) for b in range(a + 1, p)]
    for s, (a, b) in enumerate(pairs):
        for (c, d) in pairs[s:]:
            z = np.zeros((p, p, p, p), dtype=complex)
            z[a, b, c, d] = 1.0
            seeds.append(project_riemann(z))
    flat, _ = orthonormal_rows(np.array([x.ravel() for x in seeds]))
    return [f.reshape((p,) * 4) for f in flat]


def _cplx_22_tf_basis(p):
    """Tracefree Psi_{[AB]}^{[CD]}."""
    pair = _cplx_pair_basis(p)
    seeds = []
    for x in pair:
        for y in pair:
            seeds.append(np.einsum("ab,cd->abcd", x, y))
    return _nullspace_basis(seeds, lambda z: np.einsum("abbd->ad", z))


def _cplx_22_sym_tf_basis(p):
    """Tracefree Psi_{(AC)}^{(DB)} (symmetric in the lower and upper pairs)."""
    seeds = []
    for a in range(p):
        for c in range(a, p):
            for d in range(p):
                for b in range(d, p):
                    z = np.zeros((p,) * 4, dtype=complex)
                    for (x, y) in {(a, c), (c, a)}:
                        for (w, v) in {(d, b), (b, d)}:
                            z[x, y, w, v] += 1.0
                    seeds.append(z)
    return _nullspace_basis(seeds, lambda z: np.einsum("acab->cb", z))


def _cplx_31_tf_basis(p):
    """Tracefree Psi_{[AB]C}^D with Psi_{[ABC]}^D = 0."""
    seeds = []
    for a in range(p):
        for b in range(a + 1, p):
            for c in range(p):
                for d in range(p):
                    z = np.zeros((p,) * 4, dtype=complex)
                    z[a, b, c, d] += 1.0
                    z[b, a, c, d] -= 1.0
                    seeds.append(z - skew_arr(z, (0, 1, 2)))
    if not seeds:
        return []

    def cons(z):
        return np.concatenate(
            [np.einsum("abca->bc", z).ravel(), np.einsum("abcb->ac", z).ravel(), np.einsum("abcc->ab", z).ravel()]
        )

    # independent traces; removing all is safe (over-constraining would only
    # shrink the space, dimension checks guard against that)
    return _nullspace_basis(seeds, cons)


# --------------------------------------------------------------------------
# representative embeddings (grade >= 0; negatives are k <-> l swaps)
# --------------------------------------------------------------------------


def _emb_G_1_0(n, v):
    k = _kb(n)
    return np.outer(k, v) - np.outer(v, k)


def _emb_F_2_0(n, _):
    k = _kb(n)
    return np.outer(k, k)


def _emb_F_1_0(n, v):
    k = _kb(n)
    return np.outer(k, v) + np.outer(v, k)


def _emb_F_0_0(n, _):
    return _S(n) - (2.0 / (n - 2)) * _h(n)


def _emb_A_2_0(n, v):
    k = _kb(n)
    return np.einsum("a,b,c->abc", k, k, v) - np.einsum("a,c,b->abc", k, k, v)


def _emb_A_1_0(n, _):
    k, E, h = _kb(n), _E(n), _h(n)
    return np.einsum("a,bc->abc", k, E) - (2.0 / (n - 2)) * skew_arr(np.einsum("ab,c->abc", h, k), (1, 2))


def _emb_A_1_1(n, w):
    k = _kb(n)
    return np.einsum("a,bc->abc", k, w) - skew_arr(np.einsum("ab,c->abc", w, k), (1, 2))


def _emb_A_1_2(n, s):
    k = _kb(n)
    return 2.0 * skew_arr(np.einsum("ab,c->abc", s, k), (1, 2))


def _emb_A_0_0(n, v):
    E = _E(n)
    return np.einsum("a,bc->abc", v, E) - skew_arr(np.einsum("ab,c->abc", E, v), (1, 2))


def _emb_A_0_1(n, v):
    S, h = _S(n), _h(n)
    t1 = skew_arr(np.einsum("ab,c->abc", S, v), (1, 2))
    return t1 - (2.0 / (n - 3)) * skew_arr(np.einsum("ab,c->abc", h, v), (1, 2))


def _emb_C_2_0(n, s):
    k = _kb(n)
    return skew_arr(np.einsum("a,bc,d->abcd", k, s, k), (0, 1), (2, 3))


def _emb_C_1_0(n, v):
    k, E, h = _kb(n), _E(n), _h(n)
    t1 = 2.0 * skew_arr(np.einsum("a,b,cd->abcd", k, v, E), (0, 1))
    t3 = skew_arr(np.einsum("ac,d,b->abcd", h, v, k), (0, 1), (2, 3))
    return t1 + swap_pairs(t1) - (4.0 / (n - 3)) * (t3 + swap_pairs(t3))


def _emb_C_1_1(n, psi):
    k = _kb(n)
    t = skew_arr(np.einsum("a,bcd->abcd", k, psi), (0, 1))
    return t + swap_pairs(t)


def _emb_C_0_0(n, _):
    # printed trace terms of this representative are inconsistent; the module
    # is one-dimensional, so take the canonical Weyl projection of E x E
    E = _E(n)
    eta = frame_metric(n)
    return project_class("C", 4.0 * np.einsum("ab,cd->abcd", E, E), eta, np.linalg.inv(eta), n)


def _emb_C_0_1(n, psi):
    E = _E(n)
    return (
        2.0 * np.einsum("ab,cd->abcd", E, psi)
        + 2.0 * np.einsum("ab,cd->abcd", psi, E)
        - 4.0 * skew_arr(np.einsum("ac,db->abcd", E, psi), (0, 1), (2, 3))
    )


def _emb_C_0_2(n, psi):
    S, h = _S(n), _h(n)
    t1 = skew_arr(np.einsum("ac,db->abcd", S, psi), (0, 1), (2, 3))
    t2 = skew_arr(np.einsum("ac,db->abcd", h, psi), (0, 1), (2, 3))
    return 2.0 * t1 - (4.0 / (n - 4)) * t2


# ---- refined screen representatives (B.2.2 patterns) ----------------------


def _real_pair(x):
    """Real span generators of a complex tensor + its conjugate."""
    return [x + np.conj(x), 1.0j * x - 1.0j * np.conj(x)]


def _emb_A02_0(n, v):
    w, H = _adapted(n).omega, _H(n)
    m = n // 2
    jv = w @ v  # (J A)_c = J_c^d A_d, J being omega with screen indices raised
    return (
        np.einsum("a,bc->abc", v, w)
        - skew_arr(np.einsum("b,ca->abc", v, w), (1, 2))
        + (3.0 / (2 * m - 3)) * skew_arr(np.einsum("ab,c->abc", H, jv), (1, 2))
    )


def _emb_A02_1(n, z):
    mb = np.conj(_adapted(n).mv)  # xi-slot realisation
    t = np.einsum("ABC,Aa,Bb,Cc->abc", z, mb, mb, mb)
    return t + np.conj(t)


def _emb_A02_2(n, z):
    mv = _adapted(n).mv
    mb = np.conj(mv)
    x1 = np.einsum("ABC,Aa,Bb,Cc->abc", z, mv, mb, mb)
    x2 = skew_arr(np.einsum("ABC,Ab,Bc,Ca->abc", z, mv, mb, mb), (1, 2))
    t = x1 - x2
    return t + np.conj(t)


def _emb_A02_3(n, z):
    mv = _adapted(n).mv
    mb = np.conj(mv)
    t = 2.0 * skew_arr(np.einsum("ABC,Aa,Bb,Cc->abc", z, mb, mb, mv), (1, 2))
    return t + np.conj(t)


def _emb_A02_4(n, _):
    _, w, u = _adapted(n)
    return np.einsum("a,bc->abc", u, w) - skew_arr(np.einsum("b,ca->abc", u, w), (1, 2))


def _emb_A02_5(n, v):
    u, H = _adapted(n).u, _H(n)
    m = n // 2
    t1 = skew_arr(np.einsum("a,b,c->abc", u, u, v), (1, 2))
    t2 = skew_arr(np.einsum("ab,c->abc", H, v), (1, 2))
    return 2.0 * t1 - (2.0 / (2 * m - 3)) * t2


def _emb_A02_67(n, w):
    u = _adapted(n).u
    return np.einsum("a,bc->abc", u, w) - skew_arr(np.einsum("b,ca->abc", u, w), (1, 2))


def _emb_A02_89(n, s):
    u = _adapted(n).u
    return 2.0 * skew_arr(np.einsum("ab,c->abc", s, u), (1, 2))


def _emb_C03_0(n, _):
    w, H = _adapted(n).omega, _H(n)
    m = n // 2
    return (
        2.0 * np.einsum("ab,cd->abcd", w, w)
        - 2.0 * skew_arr(np.einsum("ac,db->abcd", w, w), (2, 3))
        - (6.0 / (2 * m - 3)) * skew_arr(np.einsum("ac,db->abcd", H, H), (2, 3))
    )


def _emb_C03_12(n, psi):
    w, H = _adapted(n).omega, _H(n)
    m = n // 2
    jpsi = np.einsum("de,be->db", w, psi)  # J_d^e Psi_be
    t3 = skew_arr(np.einsum("ac,db->abcd", H, jpsi), (0, 1), (2, 3))
    return (
        np.einsum("ab,cd->abcd", w, psi)
        + np.einsum("ab,cd->abcd", psi, w)
        - 2.0 * skew_arr(np.einsum("ac,db->abcd", w, psi), (0, 1), (2, 3))
        - (6.0 / (2 * m - 4)) * (t3 + swap_pairs(t3))
    )


# _emb_C03_3 .. _emb_C03_6 take the whole stack of complex parameters z
# (leading axis) and return the stack of embedded tensors; their slots count
# from the end, so the leading axis batches.


def _emb_C03_3(n, z):
    mb = np.conj(_adapted(n).mv)
    t = np.einsum("NABCD,Aa,Bb,Cc,Dd->Nabcd", z, mb, mb, mb, mb, optimize=True)
    return t + np.conj(t)


def _emb_C03_4(n, z):
    mv = _adapted(n).mv
    mb = np.conj(mv)
    x1 = np.einsum("NABCD,Aa,Bb,Cc,Dd->Nabcd", z, mb, mb, mv, mv, optimize=True)
    # z_ACDB mb_A^a mv_B^b mb_C^c mv_D^d is x1 with its slots read as (a, c, d, b)
    x3 = skew_arr(np.transpose(x1, (0, 1, 4, 2, 3)), (-4, -3), (-2, -1))
    t = x1 + swap_pairs(x1) - 2.0 * x3
    return t + np.conj(t)


def _emb_C03_5(n, z):
    mv = _adapted(n).mv
    mb = np.conj(mv)
    t = skew_arr(np.einsum("NACDB,Aa,Bb,Cc,Dd->Nabcd", z, mb, mv, mb, mv, optimize=True), (-4, -3), (-2, -1))
    return t + np.conj(t)


def _emb_C03_6(n, z):
    mv = _adapted(n).mv
    mb = np.conj(mv)
    x = skew_arr(np.einsum("NABCD,Aa,Bb,Cc,Dd->Nabcd", z, mb, mb, mb, mv, optimize=True), (-2, -1))
    t = x + swap_pairs(x)
    return t + np.conj(t)


def _emb_C03_7(n, v):
    (_, w, u), H = _adapted(n), _H(n)
    m = n // 2
    jv = w @ v
    t1 = skew_arr(np.einsum("ab,c,d->abcd", w, v, u), (2, 3))
    t2 = skew_arr(np.einsum("a,b,cd->abcd", v, u, w), (0, 1))
    t3 = skew_arr(np.einsum("ac,d,b->abcd", w, v, u), (0, 1), (2, 3))
    t4 = skew_arr(np.einsum("ca,b,d->abcd", w, v, u), (0, 1), (2, 3))
    t5 = skew_arr(np.einsum("ac,d,b->abcd", H, u, jv), (0, 1), (2, 3))
    t6 = skew_arr(np.einsum("ca,b,d->abcd", H, u, jv), (0, 1), (2, 3))
    return t1 + t2 - t3 - t4 + (3.0 / (2 * m - 3)) * (t5 + t6)


def _emb_C03_89(n, psi):
    u, H = _adapted(n).u, _H(n)
    m = n // 2
    t1 = skew_arr(np.einsum("a,bc,d->abcd", u, psi, u), (0, 1), (2, 3))
    t2 = skew_arr(np.einsum("ac,db->abcd", H, psi), (0, 1), (2, 3))
    return t1 + (1.0 / (2 * m - 4)) * t2


def _emb_C03_10_12(n, psi):
    u = _adapted(n).u
    t = skew_arr(np.einsum("a,bcd->abcd", u, psi), (0, 1))
    return t + swap_pairs(t)


# --------------------------------------------------------------------------
# module keys and tables
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModuleKey:
    space: str
    i: int
    j: int
    k: int | None = None
    pm: str | None = None

    @classmethod
    def of(cls, space: str, label) -> "ModuleKey":
        """The key of a label (i, j), (i, j, k) or (i, j, '+'/'-'); a key is returned as it is."""
        if isinstance(label, ModuleKey):
            return label
        i, j, *rest = label
        tail = rest[0] if rest else None
        return cls(space, i, j, None, tail) if isinstance(tail, str) else cls(space, i, j, tail)

    def __str__(self):
        s = f"{self.space}.{self.i}.{self.j}"
        if self.k is not None:
            s += f".{self.k}"
        if self.pm is not None:
            s += self.pm
        return s


@dataclass
class ModuleEntry:
    key: ModuleKey
    grade: int
    basis: np.ndarray  # orthonormal rows, flattened frame components
    gap: float  # of the rank decision that kept these rows (``orthonormal_rows``)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass
class ModuleTable:
    space: str
    n: int
    level: str  # 'sim' or 'rob'
    entries: list[ModuleEntry]
    stacked: np.ndarray = field(init=False, repr=False)
    slices: dict = field(init=False, repr=False)
    rank_error: str | None = field(init=False, repr=False)  # the first module whose rank is not its closed form
    _by_key: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._by_key = {e.key: e for e in self.entries}
        self.rank_error = None
        for e in self.entries:
            expected = module_dim(self.space, self.n, e.key)
            if e.dim != expected:
                self.rank_error = f"{self.level} module {e.key} (n={self.n}): dim {e.dim} != expected {expected}"
                break
        rows, self.slices, pos = [], {}, 0
        for e in self.entries:
            rows.append(e.basis)
            self.slices[e.key] = slice(pos, pos + e.dim)
            pos += e.dim
        self.stacked = np.vstack(rows) if rows else np.zeros((0, self.n ** RANK[self.space]))
        gram_err = np.abs(self.stacked @ self.stacked.T - np.eye(pos)).max(initial=0.0)
        if gram_err > 1e-12:
            raise RuntimeError(
                f"{self.level} table {self.space} n={self.n}: module bases not orthonormal (max |S S^T - I| = {gram_err:.1e})"
            )

    def coefficients(self, frame_flat: np.ndarray) -> np.ndarray:
        """Coordinates of the orthogonal projection onto the module bases (rows of ``stacked``)."""
        if self.rank_error:
            raise RuntimeError(self.rank_error)
        return self.stacked @ frame_flat

    def entry(self, key: ModuleKey) -> ModuleEntry:
        e = self._by_key.get(key)
        if e is None:
            raise KeyError(str(key))
        return e

    @property
    def total_dim(self) -> int:
        return self.stacked.shape[0]


def _screen_hodge_eps(n):
    """Levi-Civita on the 4-dimensional screen (n = 6), frame slots 1..4."""
    eps = np.zeros((n,) * 4)
    eps[1:5, 1:5, 1:5, 1:5] = levi_civita(4)
    return eps


def _pm_split_form2(n, forms, sign):
    eps = _screen_hodge_eps(n)
    out = []
    for w in forms:
        dual = 0.5 * np.einsum("abcd,cd->ab", eps, w)
        out.append(0.5 * (w + sign * dual))
    return out


def _pm_project_pair(n, arr, sign, axes):
    eps = _screen_hodge_eps(n)
    moved = np.moveaxis(arr, axes, (0, 1))
    dual = 0.5 * np.einsum("abcd,cd...->ab...", eps, moved)
    return np.moveaxis(0.5 * (moved + sign * dual), (0, 1), axes)


def _pm_split_A2(n, psis, sign):
    h = _h(n)
    return [project_class("A", _pm_project_pair(n, a, sign, (1, 2)), h, h, n - 2) for a in psis]


def _pm_split_C3(n, psis, sign):
    rows = [_pm_project_pair(n, _pm_project_pair(n, c, sign, (0, 1)), sign, (2, 3)).ravel() for c in psis]
    return list(orthonormal_rows(np.array(rows), grade_columns(n, 4, 0))[0].reshape((-1,) + (n,) * 4))


def _screen_class_params(space):
    """Sim parameters of a screen class: its basis tensors on the screen slots."""

    def params(n):
        return list(screen_class_basis(space, n).reshape((-1,) + (n,) * RANK[space]))

    return params


# --------------------------------------------------------------------------
# refined screen parameter spaces (Robinson stabiliser)
# --------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _refined_form2_params(n):
    """Refined screen 2-form parameter spaces g^{1,k}, k = 0..3."""
    m, eps = n_to_m_eps(n)
    p = m - 1
    mv = _adapted(n).mv
    mb = np.conj(mv)
    out = {0: [_adapted(n).omega], 1: [], 2: [], 3: []}
    for z in _cplx_pair_basis(p):
        x = 1.0j * np.einsum("BC,Ba,Cb->ab", z, mb, mb)
        out[1].extend(_real_pair(x))
    for hmat in _hermitian_tf_basis(p):
        x = 1.0j * np.einsum("BD,Ba,Db->ab", hmat, mb, mv)
        out[2].append(np.real(x - x.T) / 1.0)
    if eps:
        u = _adapted(n).u
        for v in _vecJ_basis(n):
            out[3].append(np.outer(u, v) - np.outer(v, u))
    return out


@lru_cache(maxsize=None)
def _refined_sym2_params(n):
    """Refined screen symmetric tracefree parameter spaces F^{1,k}, k = 0..3."""
    m, eps = n_to_m_eps(n)
    p = m - 1
    mv = _adapted(n).mv
    mb = np.conj(mv)
    out = {0: [], 1: [], 2: [], 3: []}
    for hmat in _hermitian_tf_basis(p):
        x = np.einsum("BD,Ba,Db->ab", hmat, mb, mv)
        out[0].append(np.real(x + x.T))
    for z in _cplx_sym_basis(p):
        x = np.einsum("BC,Ba,Cb->ab", z, mb, mb)
        for y in _real_pair(x):
            out[1].append(0.5 * (y + y.T))
    if eps:
        u = _adapted(n).u
        out[2].append(np.outer(u, u) - _H(n) / (2 * m - 2))
        for v in _vecJ_basis(n):
            out[3].append(np.outer(u, v) + np.outer(v, u))
    return out


@lru_cache(maxsize=None)
def _refined_A02_params(n):
    """Refined screen Cotton-class pieces A_0^{2,k}, k = 0..9 (lists of arrays)."""
    m, eps = n_to_m_eps(n)
    p = m - 1
    form2 = _refined_form2_params(n)
    sym2 = _refined_sym2_params(n)
    out = {k: [] for k in range(10)}
    if m > 2:
        out[0] = [_emb_A02_0(n, v) for v in _vecJ_basis(n)]
    for z in _cplx_hook_basis(p):
        for w in _real_pair_complexparam(z):
            out[1].append(_emb_A02_1(n, w))
    for z in _cplx_hook_up_tf_basis(p):
        for w in _real_pair_complexparam(z):
            out[2].append(_emb_A02_2(n, w))
    for z in _cplx_symvec_tf_basis(p):
        for w in _real_pair_complexparam(z):
            out[3].append(_emb_A02_3(n, w))
    if eps:
        out[4] = [_emb_A02_4(n, None)]
        out[5] = [_emb_A02_5(n, v) for v in _vecJ_basis(n)]
        out[6] = [_emb_A02_67(n, w) for w in form2[1]]
        out[7] = [_emb_A02_67(n, w) for w in form2[2]]
        out[8] = [_emb_A02_89(n, s) for s in sym2[0]]
        out[9] = [_emb_A02_89(n, s) for s in sym2[1]]
    return {k: [np.real(v) for v in vs] for k, vs in out.items()}


def _real_pair_complexparam(z):
    return [z, 1.0j * z]


@lru_cache(maxsize=None)
def _refined_C03_params(n):
    """Refined screen Weyl-class pieces C_0^{3,k}, k = 0..12."""
    m, eps = n_to_m_eps(n)
    p = m - 1
    form2 = _refined_form2_params(n)
    sym2 = _refined_sym2_params(n)
    a02 = _refined_A02_params(n)
    out = {k: [] for k in range(13)}
    if m > 2:
        out[0] = [_emb_C03_0(n, None)]
        out[1] = [_emb_C03_12(n, w) for w in form2[1]]
        if m > 3:
            out[2] = [_emb_C03_12(n, w) for w in form2[2]]
    for k, emb, basis in (
        (3, _emb_C03_3, _cplx_riem_basis(p)),
        (4, _emb_C03_4, _cplx_22_tf_basis(p)),
        (5, _emb_C03_5, _cplx_22_sym_tf_basis(p)),
        (6, _emb_C03_6, _cplx_31_tf_basis(p)),
    ):
        if basis:
            out[k] = list(emb(n, np.array([w for z in basis for w in _real_pair_complexparam(z)])))
    if eps and m > 2:
        out[7] = [_emb_C03_7(n, v) for v in _vecJ_basis(n)]
        out[8] = [_emb_C03_89(n, s) for s in sym2[0]]
        out[9] = [_emb_C03_89(n, s) for s in sym2[1]]
        out[10] = [_emb_C03_10_12(n, psi) for psi in a02[1]]
        out[11] = [_emb_C03_10_12(n, psi) for psi in a02[2]]
        out[12] = [_emb_C03_10_12(n, psi) for psi in a02[3]]
    return {k: [np.real(np.real_if_close(v, tol=1e8)) for v in vs] for k, vs in out.items()}



def _refined_vec_params(n):
    out = {0: _vecJ_basis(n)}
    if n % 2:
        out[1] = [_adapted(n).u]
    return out


# closed-form dimensions of the refined pieces, k -> dim, from m = n // 2 and
# eps = n % 2 (negative values are read as absent)


def _vec_dims(m, eps):
    return {0: 2 * m - 2, 1: eps}


def _form2_dims(m, eps):
    return {0: 1, 1: (m - 1) * (m - 2), 2: m * (m - 2), 3: eps * (2 * m - 2)}


def _sym2_dims(m, eps):
    return {0: m * (m - 2), 1: m * (m - 1), 2: eps, 3: eps * (2 * m - 2)}


def _A2_dims(m, eps):
    return {
        0: (2 * m - 2) if m > 2 else 0,
        1: 2 * m * (m - 1) * (m - 2) // 3,
        2: m * (m - 1) * (m - 3),
        3: (m + 1) * (m - 1) * (m - 2),
        4: eps,
        5: eps * (2 * m - 2),
        6: eps * (m - 1) * (m - 2),
        7: eps * m * (m - 2),
        8: eps * m * (m - 2),
        9: eps * m * (m - 1),
    }


def _C3_dims(m, eps):
    return {
        0: 1 if m > 2 else 0,
        1: (m - 1) * (m - 2),
        2: m * (m - 2) if m > 3 else 0,
        3: m * (m - 1) ** 2 * (m - 2) // 6,
        4: m * (m - 1) ** 2 * (m - 4) // 4,
        5: (m + 2) * (m - 1) ** 2 * (m - 2) // 4,
        6: 2 * (m + 1) * (m - 1) ** 2 * (m - 3) // 3,
        7: eps * (2 * m - 2) if m > 2 else 0,
        8: eps * m * (m - 2),
        9: eps * m * (m - 1),
        10: eps * 2 * m * (m - 1) * (m - 2) // 3,
        11: eps * m * (m - 1) * (m - 3),
        12: eps * (m + 1) * (m - 1) * (m - 2),
    }


# --------------------------------------------------------------------------
# module registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _ParamSpace:
    """A screen parameter space, at both levels.

    ``sim_dim`` and ``refined_dims`` are closed forms, independent of the
    parameter lists: they are what the numerical ranks are checked against.
    """

    sim_params: Callable  # n -> parameter list
    sim_dim: Callable  # d = n - 2 -> dimension
    refined_params: Callable  # n -> {k: parameter list}
    refined_dims: Callable  # (m, eps) -> {k: dimension}
    pm_split: Callable | None = None  # (n, params, +-1) -> the n = 6 self-dual half


_NONE = _ParamSpace(lambda n: [None], lambda d: 1, lambda n: {0: [None]}, lambda m, eps: {0: 1})
_VEC = _ParamSpace(lambda n: reference_frame(n).screen, lambda d: d, _refined_vec_params, _vec_dims)
_FORM2 = _ParamSpace(_form2_basis, lambda d: d * (d - 1) // 2, _refined_form2_params, _form2_dims, _pm_split_form2)
_SYM2 = _ParamSpace(_sym2tf_basis, lambda d: d * (d + 1) // 2 - 1, _refined_sym2_params, _sym2_dims)
_A2 = _ParamSpace(_screen_class_params("A"), lambda d: class_dim("A", d), _refined_A02_params, _A2_dims, _pm_split_A2)
_C3 = _ParamSpace(_screen_class_params("C"), lambda d: class_dim("C", d), _refined_C03_params, _C3_dims, _pm_split_C3)


def _identity(n, t):
    return t


def _emb_G_0_0(n, _):
    return _E(n)


@dataclass(frozen=True)
class _Module:
    """Module (i, j) with i >= 0: the embedding of its parameter space."""

    i: int
    j: int
    embed: Callable  # (n, parameter) -> frame components
    params: _ParamSpace
    remap: tuple | None = None  # refined k -> k of the parameter space


# every module of grade >= 0 of each space, in table order; grade -i (i > 0)
# is the k <-> l swap of the grade-i rows and follows grade 0
_MODULES = {
    "G": (
        _Module(1, 0, _emb_G_1_0, _VEC),
        _Module(0, 0, _emb_G_0_0, _NONE),
        _Module(0, 1, _identity, _FORM2),
    ),
    "F": (
        _Module(2, 0, _emb_F_2_0, _NONE),
        _Module(1, 0, _emb_F_1_0, _VEC),
        _Module(0, 0, _emb_F_0_0, _NONE),
        _Module(0, 1, _identity, _SYM2),
    ),
    "A": (
        _Module(2, 0, _emb_A_2_0, _VEC),
        _Module(1, 0, _emb_A_1_0, _NONE),
        _Module(1, 1, _emb_A_1_1, _FORM2, remap=(1, 2, 0, 3)),
        _Module(1, 2, _emb_A_1_2, _SYM2, remap=(1, 0, 2, 3)),
        _Module(0, 0, _emb_A_0_0, _VEC),
        _Module(0, 1, _emb_A_0_1, _VEC),
        _Module(0, 2, _identity, _A2),
    ),
    "C": (
        _Module(2, 0, _emb_C_2_0, _SYM2),
        _Module(1, 0, _emb_C_1_0, _VEC),
        _Module(1, 1, _emb_C_1_1, _A2),
        _Module(0, 0, _emb_C_0_0, _NONE),
        _Module(0, 1, _emb_C_0_1, _FORM2),
        _Module(0, 2, _emb_C_0_2, _SYM2),
        _Module(0, 3, _identity, _C3),
    ),
}
_BY_LABEL = {(space, mod.i, mod.j): mod for space, mods in _MODULES.items() for mod in mods}


def _labels(space: str) -> list[tuple[int, int, _Module]]:
    """(i, j, module) of every module of a space, grade +2 down to -2."""
    mods = _MODULES[space]
    return [(mod.i, mod.j, mod) for mod in mods] + [(-g, mod.j, mod) for g in (1, 2) for mod in mods if mod.i == g]


def sim_module_keys(space: str, n: int) -> list[ModuleKey]:
    keys = []
    for i, j, mod in _labels(space):
        for pm in ("+", "-") if n == 6 and mod.params.pm_split else (None,):
            if sim_module_dim(space, n, i, j, pm) > 0:
                keys.append(ModuleKey(space, i, j, None, pm))
    return keys


def rob_module_keys(space: str, n: int) -> list[ModuleKey]:
    # refined tables never use the n = 6 pm splits
    return [
        ModuleKey(space, i, j, k) for i, j, _ in _labels(space) for k in range(13) if rob_module_dim(space, n, i, j, k) > 0
    ]


def sim_module_dim(space: str, n: int, i: int, j: int, pm: str | None = None) -> int:
    """Dimension of the sim module from the closed-form tables (0 if absent)."""
    mod = _BY_LABEL.get((space, abs(i), j))
    if mod is None or (space, abs(i), j, n) == ("C", 0, 2, 4):  # dagger: C(0, 2) only for n > 4
        return 0
    dim = max(mod.params.sim_dim(n - 2), 0)
    return dim // 2 if pm else dim


def rob_module_dim(space: str, n: int, i: int, j: int, k: int) -> int:
    """Closed-form dimensions of the refined modules (0 when absent)."""
    # a refined module cannot outlive its sim parent
    if sim_module_dim(space, n, i, j) <= 0:
        return 0
    mod = _BY_LABEL[space, abs(i), j]
    if mod.remap:
        k = mod.remap[k] if k < len(mod.remap) else None
    return max(mod.params.refined_dims(*n_to_m_eps(n)).get(k, 0), 0)


def module_dim(space: str, n: int, key: ModuleKey) -> int:
    """Closed-form dimension of a sim (``key.k`` unset) or refined module."""
    if key.k is None:
        return sim_module_dim(space, n, key.i, key.j, key.pm)
    return rob_module_dim(space, n, key.i, key.j, key.k)


def module_rows(space: str, n: int, key: ModuleKey) -> np.ndarray:
    """Representative rows spanning a module (refined when ``key.k`` is set), before orthonormalisation."""
    mod = _BY_LABEL[space, abs(key.i), key.j]
    ps = mod.params
    if key.k is not None:
        params = ps.refined_params(n).get(mod.remap[key.k] if mod.remap else key.k, [])
    elif key.pm:
        params = ps.pm_split(n, ps.sim_params(n), +1 if key.pm == "+" else -1)
    else:
        params = ps.sim_params(n)
    rows = _build_rows(n, mod.embed, params)
    return swap_kl_rows(rows, n, RANK[space]) if key.i < 0 else rows


# --------------------------------------------------------------------------
# building the tables
# --------------------------------------------------------------------------


def _build_rows(n, embed_fn, params):
    rows = []
    for p in params:
        t = embed_fn(n, p)
        t = np.real_if_close(t, tol=1e6)
        if np.iscomplexobj(t):
            if np.abs(t.imag).max() > 1e-9 * max(np.abs(t.real).max(), 1e-30):
                raise RuntimeError("representative embedding produced a complex tensor")
            t = t.real
        rows.append(np.asarray(t, dtype=float).ravel())
    return np.array(rows) if rows else np.zeros((0, n ** 0))


def _build_table(space: str, n: int, level: str) -> ModuleTable:
    """Validate and orthonormalise every module of a level on its grade.

    A module whose rank differs from its closed form is kept, and recorded in
    ``rank_error``: the dimension checks report it and the table refuses to
    decompose.
    """
    keys = sim_module_keys(space, n) if level == "sim" else rob_module_keys(space, n)
    entries = []
    for key in keys:
        rows = module_rows(space, n, key)
        _validate_rows(space, n, rows, expect_grade=key.i)
        basis, gap = orthonormal_rows(rows, grade_columns(n, RANK[space], key.i))
        entries.append(ModuleEntry(key, key.i, basis, gap))
    table = ModuleTable(space, n, level, entries)
    if table.rank_error is None and table.total_dim != class_dim(space, n):
        raise RuntimeError(f"{level} table {space} n={n}: total {table.total_dim} != {class_dim(space, n)}")
    return table


def _validate_rows(space, n, rows, expect_grade):
    if rows.shape[0] == 0:
        return
    eta = frame_metric(n)
    eta_inv = np.linalg.inv(eta)
    mask = component_grades(n, RANK[space]) == expect_grade
    for r, proj in zip(rows, project_rows(space, rows, eta, eta_inv, n)):
        nr = np.linalg.norm(r)
        if np.linalg.norm(proj - r) > 1e-9 * max(nr, 1e-30):
            raise RuntimeError(f"representative not in class {space} (n={n}, grade {expect_grade})")
        if np.linalg.norm(r[~mask]) > 1e-10 * max(nr, 1e-30):
            raise RuntimeError(f"representative has off-grade support ({space}, n={n}, grade {expect_grade})")



@lru_cache(maxsize=None)
def sim_table(space: str, n: int) -> ModuleTable:
    return _build_table(space, n, "sim")


@lru_cache(maxsize=None)
def rob_table(space: str, n: int) -> ModuleTable:
    return _build_table(space, n, "rob")


def module_table(space: str, n: int, level: str) -> ModuleTable:
    """The sim or rob table of a space."""
    return sim_table(space, n) if level == "sim" else rob_table(space, n)
