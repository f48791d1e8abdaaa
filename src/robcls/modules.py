"""Irreducible module tables for the null-line and Robinson classifications.

Every irreducible piece of the curvature spaces G, F, A, C under the
stabiliser of a null line (grades -2..2, labels (i, j), with self-dual
splits when n = 6) and under the stabiliser of a Robinson structure
(labels (i, j, k)) is realised here as an explicit subspace of
null-frame components.  A sim module is generated from representative
formulas: a linear embedding of a small parameter space (vectors,
2-forms, symmetric tracefree, Cotton or Weyl class tensors on the Euclidean
screen R^{n-2}) into the full class.  The parameter space is irreducible
and the embedding commutes with the screen rotations, so by Schur's lemma
the embedding is a constant times an isometry: a module's basis is its
orthonormalised parameters (`_param_basis`, the one rank decision of a sim
module), embedded and divided by that constant.

One registry, ``_MODULES``, declares each module (i, j) with i >= 0 once:
its embedding and its parameter space.  A parameter space supplies the sim
parameters with their closed-form dimension, and for the refined level
only closed-form dimensions by k and a table of labels.  The refined
modules (i, j, k) are the pieces of the sim module (i, j) under the
stabiliser of the Robinson structure, whose reductive part acts on the
screen as U(m-1) and fixes u when n is odd.  They are found, not built:
the joint eigenspaces of three commuting invariants on the same
orthonormal parameters (`_refined_split`), labelled through the table and
taken as combinations of the sim module's basis rows.  So the sim and rob
tables, keys and dimensions are all read off the same rows.

Conventions (fixed throughout the package):
  frame slot order   (k, e_1, ..., e_{n-2}, l),  g(k,l) = 1, g(e_i,e_j) = d_ij
  grade of a frame component = #(l-slots) - #(k-slots); k has grade +1
  adapted complex frame  m_A = (e_{2A-1} - i e_{2A})/sqrt(2), A = 1..m-1,
  u = e_{n-2} in odd dimension; J m_A = +i m_A, omega(m_A, mbar_B) = i d_AB.
A screen parameter is padded into the frame slots 1..n-2 only when it is
embedded (`module_rows`).  J and u are read from `frames` on its
`reference_frame(n)`; they are not re-derived here.

Negative-grade modules are the k <-> l swap of the positive-grade ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .classes import (
    RANK,
    class_dim,
    component_grades,
    frame_metric,
    orthonormal_coefficients,
    project_class,
    project_rows,
    spanning_seeds,
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


def swap_kl(arr: np.ndarray, n: int) -> np.ndarray:
    """Interchange k and l: permute slot values 0 <-> n-1 on every axis."""
    perm = np.arange(n)
    perm[0], perm[n - 1] = n - 1, 0
    return arr[np.ix_(*[perm] * arr.ndim)]


def swap_kl_rows(rows: np.ndarray, n: int, rank: int) -> np.ndarray:
    """`swap_kl` of every flattened rank-`rank` row of a stack, as one column permutation."""
    return rows[:, swap_kl(np.arange(n**rank).reshape((n,) * rank), n).ravel()]


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
    gap: float  # of the rank decision that kept these rows: the parameter Gram's (sim), the split's margin (rob)

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
        self.stacked = np.vstack([e.basis for e in self.entries]) if self.entries else np.zeros((0, self.n ** RANK[self.space]))
        self.stacked.flags.writeable = False
        self.slices, pos = {}, 0
        for e in self.entries:
            self.slices[e.key] = slice(pos, pos + e.dim)
            e.basis = self.stacked[self.slices[e.key]]  # a read-only view: the table holds each basis once
            pos += e.dim
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


def _self_dual_half(T, sign, slots):
    """(T + sign * dual T) / 2 on a pair of slots of every tensor of the stack T on R^4 (n = 6), dual the Hodge star of 2-forms."""
    moved = np.moveaxis(T, slots, (-2, -1))
    dual = 0.5 * np.einsum("abcd,...cd->...ab", levi_civita(4), moved)
    return np.moveaxis(0.5 * (moved + sign * dual), (-2, -1), slots)


def _pm_split_form2(P, sign):
    return _self_dual_half(P, sign, (1, 2))


def _pm_split_A2(P, sign):
    eye = np.eye(4)
    return project_class("A", _self_dual_half(P, sign, (2, 3)), eye, eye, 4)


def _pm_split_C3(P, sign):
    return _self_dual_half(_self_dual_half(P, sign, (1, 2)), sign, (3, 4))


def _screen_class_params(space):
    """Sim parameters of a screen class: the class projections of the elementary seeds on R^{n-2}, a spanning set."""

    def params(n):
        eye = np.eye(n - 2)
        return project_class(space, spanning_seeds(space, n - 2), eye, eye, n - 2)

    return params


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


# the refined label k of each joint eigenspace of `_stabiliser_invariants`,
# by its key (J-charge squared, the slots in which u has weight): the k of a
# key in order of increasing u(m-1) Casimir, a k being skipped at any n where
# its closed-form dimension is 0 (C3's k = 4 first has a piece at n = 10)


_NONE_LABELS = {(0, ()): (0,)}
_VEC_LABELS = {(1, ()): (0,), (0, (0,)): (1,)}
_FORM2_LABELS = {(0, ()): (0, 2), (4, ()): (1,), (1, (0, 1)): (3,)}
_SYM2_LABELS = {(0, ()): (0,), (4, ()): (1,), (0, (0, 1)): (2,), (1, (0, 1)): (3,)}
_A2_LABELS = {
    (1, ()): (0, 2, 3),
    (9, ()): (1,),
    (0, (0, 1, 2)): (4, 7),
    (1, (0, 1, 2)): (5,),
    (4, (0, 1, 2)): (6,),
    (0, (1, 2)): (8,),
    (4, (1, 2)): (9,),
}
_C3_LABELS = {
    (0, ()): (0, 2, 4, 5),
    (4, ()): (1, 6),
    (16, ()): (3,),
    (1, (0, 1, 2, 3)): (7, 11, 12),
    (0, (0, 1, 2, 3)): (8,),
    (4, (0, 1, 2, 3)): (9,),
    (9, (0, 1, 2, 3)): (10,),
}


# --------------------------------------------------------------------------
# module registry
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # hashed by identity: `_refined_split` is cached per space
class _ParamSpace:
    """A screen parameter space: the sim parameters, and the labels of their refined split.

    ``sim_dim`` and ``refined_dims`` are closed forms, independent of the
    parameter lists: they are what the numerical ranks are checked against.
    The refined pieces are not built here: `_refined_split` finds them in the
    span of the sim parameters and labels them through ``refined_labels``.
    """

    sim_params: Callable  # n -> parameters, a spanning list of tensors on R^{n-2}
    sim_dim: Callable  # d = n - 2 -> dimension
    refined_dims: Callable  # (m, eps) -> {k: dimension}
    refined_labels: dict  # (J-charge squared, u slots) -> k in Casimir order
    pm_split: Callable | None = None  # (stacked params, +-1) -> their n = 6 self-dual halves


# the one parameter of a module without one: a scalar, on which every invariant vanishes
_NONE = _ParamSpace(lambda n: [np.ones(())], lambda d: 1, lambda m, eps: {0: 1}, _NONE_LABELS)
_VEC = _ParamSpace(lambda n: np.eye(n - 2), lambda d: d, _vec_dims, _VEC_LABELS)
_FORM2 = _ParamSpace(_screen_class_params("G"), lambda d: class_dim("G", d), _form2_dims, _FORM2_LABELS, _pm_split_form2)
_SYM2 = _ParamSpace(_screen_class_params("F"), lambda d: class_dim("F", d), _sym2_dims, _SYM2_LABELS)
_A2 = _ParamSpace(_screen_class_params("A"), lambda d: class_dim("A", d), _A2_dims, _A2_LABELS, _pm_split_A2)
_C3 = _ParamSpace(_screen_class_params("C"), lambda d: class_dim("C", d), _C3_dims, _C3_LABELS, _pm_split_C3)


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


def _halves(ps: _ParamSpace, n: int) -> tuple:
    """The n = 6 self-dual halves a sim module of this parameter space is split into, else (None,)."""
    return ("+", "-") if n == 6 and ps.pm_split else (None,)


@lru_cache(maxsize=None)
def _param_basis(ps: _ParamSpace, n: int, pm: str | None) -> tuple[np.ndarray, np.ndarray, float]:
    """The stacked parameters P of a sim module (all, or one n = 6 half), W and the gap of its rank.

    P stacks the parameters, tensors on R^{n-2}, and the rows of W @ P are
    an orthonormal basis of their span (`orthonormal_coefficients`): this is
    the one rank decision of the module.  The parameters need only span, so
    an n = 6 half, and a screen class given by its projected seeds, drops its
    dependent ones here.  Cached per module parameter basis, P and W
    read-only.
    """
    P = np.array(ps.sim_params(n), dtype=float)
    if pm:
        P = ps.pm_split(P, +1 if pm == "+" else -1)
    W, gap = orthonormal_coefficients(P.reshape(len(P), -1))
    P.flags.writeable = W.flags.writeable = False
    return P, W, gap


def _pad(n: int, t: np.ndarray) -> np.ndarray:
    """A tensor on the screen R^{n-2} as frame components: supported on the slots 1..n-2."""
    out = np.zeros((n,) * t.ndim)
    out[(slice(1, n - 1),) * t.ndim] = t
    return out


def sim_module_keys(space: str, n: int) -> list[ModuleKey]:
    keys = []
    for i, j, mod in _labels(space):
        for pm in _halves(mod.params, n):
            if sim_module_dim(space, n, i, j, pm) > 0:
                keys.append(ModuleKey(space, i, j, None, pm))
    return keys


def rob_module_keys(space: str, n: int) -> list[ModuleKey]:
    # a refined module is labelled (i, j, k) also at n = 6: it takes both halves of its sim parent
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
    """Representative rows spanning a sim module, before orthonormalisation: its embedded parameters."""
    mod = _BY_LABEL[space, abs(key.i), key.j]
    rows = np.array([np.ravel(mod.embed(n, _pad(n, p))) for p in _param_basis(mod.params, n, key.pm)[0]])
    return swap_kl_rows(rows, n, RANK[space]) if key.i < 0 else rows


# --------------------------------------------------------------------------
# the refined split of a sim parameter space
# --------------------------------------------------------------------------

# relative floor below which two eigenvalues of an invariant are one group,
# and below which u has no weight in a slot
_GROUP_RTOL = 1e-8


def _on_slot(X: np.ndarray, T: np.ndarray, s: int) -> np.ndarray:
    """The matrix X applied to slot s of every tensor of the stack T."""
    return np.moveaxis(np.tensordot(X, T, axes=(1, s + 1)), 0, s + 1)


def _stabiliser_invariants(Po: np.ndarray, n: int) -> list[np.ndarray]:
    """Commuting invariants of the Robinson stabiliser on the span of Po.

    Po is a stack of orthonormal screen tensors (n - 2 values per slot).
    Each operator acts on every slot as a derivation, and each is returned
    as its symmetric, positive semi-definite matrix in the coordinates of Po:
      Q = -D_J^2, the J-charge squared;
      the u(m-1) Casimir -sum_a D_a^2, written as the one-slot Casimir
        sum_a A_a^2 on each slot plus the two-slot sum_a A_a (x) A_a on each
        pair of slots;
      for odd n, the projector onto u in each slot.
    J and u are those of `RobinsonStructure(reference_frame(n))`.
    """
    N = RobinsonStructure(reference_frame(n))
    d, r, p2 = n - 2, Po.ndim - 1, N.J.shape[0]
    J = np.zeros((d, d))
    J[:p2, :p2] = N.J
    # u(m-1) in an orthonormal basis of so(2m-2) projected by X -> (X - J X J) / 2,
    # the orthogonal projection onto the antisymmetric matrices that commute with J
    eye = np.eye(d)
    so = [(np.outer(eye[a], eye[b]) - np.outer(eye[b], eye[a])) / np.sqrt(2.0) for a in range(p2) for b in range(a + 1, p2)]
    gens = np.array([0.5 * (X - J @ X @ J) for X in so])
    one_slot = np.einsum("gij,gjk->ik", gens, gens)
    two_slot = np.einsum("gij,gkl->ikjl", gens, gens).reshape(d * d, d * d)
    dj, cas = np.zeros_like(Po), np.zeros_like(Po)
    for s in range(r):
        dj += _on_slot(J, Po, s)
        cas += _on_slot(one_slot, Po, s)
        for t in range(s + 1, r):
            pair = np.moveaxis(Po, (s + 1, t + 1), (-2, -1))
            acted = (pair.reshape(-1, d * d) @ two_slot.T).reshape(pair.shape)
            cas += 2.0 * np.moveaxis(acted, (-2, -1), (s + 1, t + 1))
    flat, dj = Po.reshape(len(Po), -1), dj.reshape(len(Po), -1)
    casimir = -flat @ cas.reshape(len(Po), -1).T
    ops = [dj @ dj.T, 0.5 * (casimir + casimir.T)]
    if N.u_index is not None:
        for s in range(r):
            on_u = np.take(Po, N.u_index, axis=s + 1).reshape(len(Po), -1)
            ops.append(on_u @ on_u.T)
    return ops


def _joint_eigenspaces(ops: list[np.ndarray]) -> tuple[list, float]:
    """The joint eigenspaces of commuting symmetric matrices, and the margin of their grouping.

    The space is split by one operator at a time; within a part, adjacent
    eigenvalues closer than ``_GROUP_RTOL`` times the operator's largest
    entry (at least 1) form one group.  Returns [(eigenvalues, rows)], the
    rows orthonormal, and the margin: the smallest distance between adjacent
    groups over the largest spread inside one (infinite when none spreads).
    """
    parts = [((), np.eye(len(ops[0])))]
    dist, spread = np.inf, 0.0
    for M in ops:
        tol = _GROUP_RTOL * max(1.0, np.abs(M).max())
        split = []
        for vals, V in parts:
            w, X = np.linalg.eigh(V @ M @ V.T)
            cuts = np.flatnonzero(np.diff(w) > tol) + 1
            dist = min(dist, np.diff(w)[cuts - 1].min(initial=np.inf))
            for group in np.split(np.arange(w.size), cuts):
                spread = max(spread, w[group[-1]] - w[group[0]])
                split.append((vals + (w[group].mean(),), X[:, group].T @ V))
        parts = split
    return parts, dist / spread if spread > 0.0 else np.inf


@lru_cache(maxsize=None)
def _refined_split(ps: _ParamSpace, n: int) -> tuple[dict, float]:
    """The refined pieces of a sim parameter space, and the margin of their eigenvalue grouping.

    The pieces are {k: orthonormal coefficient rows over the orthonormal
    parameters W @ P of `_param_basis`}, of both n = 6 halves one
    after the other, in table order.  Each piece is a joint eigenspace of
    `_stabiliser_invariants`; its key is its J-charge squared and the slots
    in which u has weight, and the eigenspaces of one key take that key's
    labels in ``ps.refined_labels`` in order of increasing Casimir.
    """
    Q = []
    for pm in _halves(ps, n):
        P, W, _ = _param_basis(ps, n, pm)
        Q.append(np.tensordot(W, P, axes=1))
    parts, margin = _joint_eigenspaces(_stabiliser_invariants(np.concatenate(Q), n))
    by_key: dict = {}
    for (q2, casimir, *u_weights), X in parts:
        key = (round(q2), tuple(s for s, x in enumerate(u_weights) if x > _GROUP_RTOL))
        by_key.setdefault(key, []).append((casimir, X))
    dims = ps.refined_dims(*n_to_m_eps(n))
    pieces = {}
    for key, found in by_key.items():
        labels = [k for k in ps.refined_labels.get(key, ()) if dims.get(k, 0) > 0]
        for k, (_, X) in zip(labels, sorted(found, key=lambda f: f[0])):
            pieces[k] = X
    return pieces, margin


def _sim_entries(space: str, n: int) -> list[ModuleEntry]:
    """Each sim module's embedded orthonormal parameters, divided by their one norm c (Schur's lemma).

    c is read as the rows' root-mean-square norm; an embedding that breaks
    the identity fails the guard of `ModuleTable`, and one with c = 0 keeps
    no rows.
    """
    entries = []
    for key in sim_module_keys(space, n):
        _, W, gap = _param_basis(_BY_LABEL[space, abs(key.i), key.j].params, n, key.pm)
        basis = W @ module_rows(space, n, key)
        c = np.linalg.norm(basis) / np.sqrt(max(len(basis), 1))
        entries.append(ModuleEntry(key, key.i, basis / c if c > 0.0 else basis[:0], gap))
    return entries


def _rob_entries(space: str, n: int) -> list[ModuleEntry]:
    """Each refined module (i, j, k): its piece of the parameter split applied to the sim bases of (i, j).

    The sim bases (both halves at n = 6, in table order) are the embedded
    orthonormal parameters of the split, so the rows are orthonormal, in the
    class and on the grade.  Its rank is the size of the piece; its gap is the
    split's margin.
    """
    sim = sim_table(space, n)
    entries = []
    for key in rob_module_keys(space, n):
        mod = _BY_LABEL[space, abs(key.i), key.j]
        pieces, margin = _refined_split(mod.params, n)
        # the halves of (i, j) are adjacent in the sim table
        spans = [sim.slices[ModuleKey(space, key.i, key.j, None, pm)] for pm in _halves(mod.params, n)]
        parent = sim.stacked[spans[0].start : spans[-1].stop]
        X = pieces.get(mod.remap[key.k] if mod.remap else key.k, np.zeros((0, len(parent))))
        entries.append(ModuleEntry(key, key.i, X @ parent, margin))
    return entries


def _build_table(space: str, n: int, level: str) -> ModuleTable:
    """Every module of a level, each on its grade with orthonormal rows.

    A module whose rank differs from its closed form is kept, and recorded in
    ``rank_error``: the dimension checks report it and the table refuses to
    decompose.
    """
    entries = _sim_entries(space, n) if level == "sim" else _rob_entries(space, n)
    table = ModuleTable(space, n, level, entries)
    if table.rank_error is None and table.total_dim != class_dim(space, n):
        raise RuntimeError(f"{level} table {space} n={n}: total {table.total_dim} != {class_dim(space, n)}")
    return table


@lru_cache(maxsize=None)
def sim_table(space: str, n: int) -> ModuleTable:
    return _build_table(space, n, "sim")


@lru_cache(maxsize=None)
def rob_table(space: str, n: int) -> ModuleTable:
    return _build_table(space, n, "rob")


def module_table(space: str, n: int, level: str) -> ModuleTable:
    """The sim or rob table of a space."""
    return sim_table(space, n) if level == "sim" else rob_table(space, n)


def validate_sim_table(space: str, n: int) -> None:
    """Raise RuntimeError unless every sim basis row is in its class and zero off its grade (`verify-dims` runs this)."""
    eta = frame_metric(n)
    eta_inv = np.linalg.inv(eta)
    grades = component_grades(n, RANK[space])
    for e in sim_table(space, n).entries:
        off_grade = grades != e.grade
        for r, proj in zip(e.basis, project_rows(space, e.basis, eta, eta_inv, n)):
            nr = np.linalg.norm(r)
            if np.linalg.norm(proj - r) > 1e-9 * max(nr, 1e-30):
                raise RuntimeError(f"representative not in class {space} (n={n}, grade {e.grade})")
            if np.linalg.norm(r[off_grade]) > 1e-10 * max(nr, 1e-30):
                raise RuntimeError(f"representative has off-grade support ({space}, n={n}, grade {e.grade})")
