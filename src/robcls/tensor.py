"""Dense point-tensor algebra.

Tensors live at a single point of a chart: dense components plus a slot
variance word ('u' contravariant, 'd' covariant).  All classification
code downstream works with all-lower components; raising/lowering and
metric-mediated contraction live here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PointTensor:
    dim: int
    valence: str  # e.g. 'dd' for T_ab, 'udd' for T^a_bc, '' for scalars
    components: np.ndarray = field(repr=False)
    label: str = ""

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=float)
        if arr.shape != (self.dim,) * len(self.valence):
            raise ValueError(
                f"components shape {arr.shape} does not match dim {self.dim} rank {len(self.valence)}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "components", arr)

    @property
    def rank(self) -> int:
        return len(self.valence)

    def norm(self) -> float:
        return float(np.linalg.norm(self.components.ravel()))

    def with_label(self, label: str) -> "PointTensor":
        return PointTensor(self.dim, self.valence, self.components, label)


def scalar(value: float, dim: int, label: str = "") -> PointTensor:
    return PointTensor(dim, "", np.asarray(float(value)), label)


def norm(t: PointTensor) -> float:
    return t.norm()


def is_zero(t: PointTensor, tol: Tolerance = DEFAULT_TOL, scale: float = 0.0) -> bool:
    m = float(np.max(np.abs(t.components))) if t.components.size else 0.0
    return m <= tol.threshold(scale)


def _check_metric(metric: PointTensor):
    if metric.rank != 2 or metric.valence != "dd":
        raise ValueError("metric must be a rank-2 all-lower tensor g_ab")
    g = metric.components
    if not np.allclose(g, g.T, atol=1e-12 * max(1.0, np.abs(g).max())):
        raise ValueError("metric is not symmetric")
    if abs(np.linalg.det(g)) < 1e-14:
        raise ValueError("metric is singular")


def metric_inverse(metric: PointTensor) -> PointTensor:
    _check_metric(metric)
    return PointTensor(metric.dim, "uu", np.linalg.inv(metric.components), "g_inv")


def contract(t: PointTensor, slot_i: int, slot_j: int, metric: PointTensor | None = None) -> PointTensor:
    """Contract two slots; same-variance slots contract through the metric."""
    r = t.rank
    if not (0 <= slot_i < r and 0 <= slot_j < r) or slot_i == slot_j:
        raise ValueError(f"invalid slots ({slot_i}, {slot_j}) for rank {r}")
    i, j = sorted((slot_i, slot_j))
    vi, vj = t.valence[i], t.valence[j]
    comp = t.components
    if vi != vj:
        out = np.trace(comp, axis1=i, axis2=j)
    else:
        if metric is None:
            raise ValueError("same-variance contraction requires a metric")
        _check_metric(metric)
        g = np.linalg.inv(metric.components) if vi == "d" else metric.components
        moved = np.moveaxis(comp, (i, j), (0, 1))
        out = np.einsum("ab,ab...->...", g, moved)
    valence = "".join(v for k, v in enumerate(t.valence) if k not in (i, j))
    return PointTensor(t.dim, valence, out, t.label)


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


def _check_slots_same_variance(t: PointTensor, slots):
    vs = {t.valence[s] for s in slots}
    if len(vs) > 1:
        raise ValueError("(anti)symmetrisation slots must share variance")


def skew(t: PointTensor, slots) -> PointTensor:
    _check_slots_same_variance(t, slots)
    return PointTensor(t.dim, t.valence, _perm_average(t.components, slots, signed=True), t.label)


def sym(t: PointTensor, slots) -> PointTensor:
    _check_slots_same_variance(t, slots)
    return PointTensor(t.dim, t.valence, _perm_average(t.components, slots, signed=False), t.label)


def raise_lower(t: PointTensor, slot: int, metric: PointTensor) -> PointTensor:
    """Flip the variance of one slot with g_ab / g^ab."""
    _check_metric(metric)
    if not 0 <= slot < t.rank:
        raise ValueError("slot out of range")
    v = t.valence[slot]
    g = metric.components if v == "u" else np.linalg.inv(metric.components)
    moved = np.moveaxis(t.components, slot, 0)
    out = np.moveaxis(np.einsum("ab,b...->a...", g, moved), 0, slot)
    valence = t.valence[:slot] + ("d" if v == "u" else "u") + t.valence[slot + 1 :]
    return PointTensor(t.dim, valence, out, t.label)


# --- raw-array helpers used heavily by the classification layers ---------


def transform_slots(arr: np.ndarray, M: np.ndarray) -> np.ndarray:
    """out_{a b ...} = M_ap M_bq ... arr_{p q ...} for a (k, n) matrix M.

    Each step multiplies the leading slot by M and rotates it to the back,
    so after one step per slot the slots are back in order: one matrix
    product per slot, several times faster than an einsum over all slots.
    """
    k, n = M.shape
    out = arr
    for _ in range(arr.ndim):
        out = (M @ out.reshape(n, -1)).T.reshape(k, -1)
    return out.reshape((k,) * arr.ndim)


def skew_arr(a: np.ndarray, slots) -> np.ndarray:
    return _perm_average(a, slots, signed=True)


def sym_arr(a: np.ndarray, slots) -> np.ndarray:
    return _perm_average(a, slots, signed=False)

