"""Dense tensor helpers on plain arrays.

All classification code works with all-lower components at a single
point.  This module holds the tolerance pair, slot transforms into a frame,
the (anti)symmetrisation over chosen slots and the permutation symbol.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    abs_eps: float = 1e-9
    rel_eps: float = 1e-9

    def __post_init__(self):
        if not (np.isfinite(self.abs_eps) and np.isfinite(self.rel_eps)):
            raise ValueError("tolerances must be finite")
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise ValueError("tolerances must be nonnegative")

    def threshold(self, scale: float = 0.0) -> float:
        return self.abs_eps + self.rel_eps * abs(scale)


DEFAULT_TOL = Tolerance()


def _perm_average(components: np.ndarray, slots, signed: bool) -> np.ndarray:
    rank = components.ndim
    slots = tuple(slots)
    out = np.zeros_like(components)
    for perm in itertools.permutations(range(len(slots))):
        axes = list(range(rank))
        for pos, p in enumerate(perm):
            axes[slots[pos]] = slots[p]
        term = np.transpose(components, axes)
        if signed:
            sign = _perm_sign(perm)
            out += sign * term
        else:
            out += term
    return out / math.factorial(len(slots))


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


def levi_civita(n: int) -> np.ndarray:
    """The permutation symbol on n slots: eps[p] = sign of the permutation p."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = _perm_sign(perm)
    return eps


def transform_slots(arr: np.ndarray, M) -> np.ndarray:
    """out_{a b ...} = M_ap M_bq ... arr_{p q ...} for a (k, n) matrix M.

    ``M`` may also be a sequence of matrices, one per slot:
    out_{a b ...} = M1_ap M2_bq ... arr_{p q ...}.  With sets of vectors as
    the rows, this is the restriction of the tensor to those vectors.

    Each step multiplies the leading slot by its matrix and rotates it to the
    back, so after one step per slot the slots are back in order: one matrix
    product per slot, several times faster than an einsum over all slots.
    """
    mats = (M,) * arr.ndim if isinstance(M, np.ndarray) else tuple(M)
    if len(mats) != arr.ndim:
        raise ValueError(f"{len(mats)} matrices for a rank-{arr.ndim} tensor")
    out = arr
    for Mi in mats:
        k, n = Mi.shape
        out = (Mi @ out.reshape(n, -1)).T.reshape(k, -1)
    return out.reshape(tuple(Mi.shape[0] for Mi in mats))


def skew_arr(a: np.ndarray, slots) -> np.ndarray:
    return _perm_average(a, slots, signed=True)


def sym_arr(a: np.ndarray, slots) -> np.ndarray:
    return _perm_average(a, slots, signed=False)

