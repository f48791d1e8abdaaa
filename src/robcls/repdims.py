"""Dimension-table verification and diagram arrow/leak checks.

Each module's rank is decided once, when its table is built.  For a sim
module, the eigen-decomposition of the Gram matrix of its screen parameters
keeps the eigenvalues above a relative floor (``modules._orthonormal_params``;
by Schur's lemma its embedded rows have the same Gram matrix up to one
constant), and the gap of the decision is the ratio of the smallest kept to
the largest dropped singular value.  A refined module is a joint eigenspace
of the stabiliser invariants on its sim parent's orthonormal parameters
(``modules._refined_split``): its rank is the size of that
eigenspace, and its gap is the margin of the eigenvalue grouping, the
smallest distance between distinct groups over the largest spread inside
one.  A dimension check reads the rank, its closed form and the gap; a gap
of 10 or less marks the rank as unstable.  A rank that differs from its
closed form is a failed check, not a build error.

The diagrams are verified through the action of the grade-lowering part
of the algebra: null rotations about l, acting algebraically to first
order on tensors.  A representative of a module may only produce
components in its arrow targets; any other nonzero component is a leak.
The published arrows are read as ``graphs.paper_arrow_set`` expands them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classes import RANK, grade_columns
from .frames import NullFrame, reference_frame
from .graphs import paper_arrow_set
from .modules import ModuleKey, module_dim, module_table
from .simclass import decompose


@dataclass
class DimCheck:
    key: ModuleKey
    n: int
    formula_dim: int
    computed_dim: int
    stable: bool
    gap: float

    @property
    def match(self) -> bool:
        return self.formula_dim == self.computed_dim and self.stable


def computed_module_dim(space: str, n: int, key: ModuleKey, level: str) -> DimCheck:
    """The rank of a module and its gap, as measured when its table was built."""
    entry = module_table(space, n, level).entry(key)
    return DimCheck(key, n, module_dim(space, n, key), entry.dim, entry.gap > 10.0, entry.gap)


def all_dim_checks(space: str, n: int, level: str) -> list[DimCheck]:
    return [computed_module_dim(space, n, e.key, level) for e in module_table(space, n, level).entries]


# --------------------------------------------------------------------------
# nilpotent action and arrow/leak verification
# --------------------------------------------------------------------------


def lowering_action(T: np.ndarray, frame: NullFrame, z: np.ndarray) -> np.ndarray:
    """First-order change of T under the null rotation about l with parameter z.

    The generator is psi_ab = 2 l_[a z_b] (z a screen covector built from
    the coefficients ``z``); it lowers the grade by exactly one.  This is the
    per-tensor reference that ``_lowered_on_grade`` reproduces for whole bases,
    one grade at a time.
    """
    g = frame.g
    g_inv = np.linalg.inv(g)
    lb = g @ frame.l
    zv = sum(z[i] * frame.screen[i] for i in range(len(frame.screen)))
    zb = g @ zv
    psi = np.outer(lb, zb) - np.outer(zb, lb)
    P = g_inv @ psi  # psi^b_a
    out = np.zeros_like(T)
    for s in range(T.ndim):
        out -= np.moveaxis(np.tensordot(P, T, axes=(0, s)), 0, s)
    return out


@lru_cache(maxsize=None)
def _lowering_maps(n: int, rank: int, q: int) -> tuple:
    """Index pairs that lower grade-q components onto grade q-1, slot by slot.

    In the reference frame the generator P_d = g^-1 psi of direction e_d has
    the two entries P[n-1, d+1] = 1 and P[d+1, 0] = -1.  On slot s that is
    out[.. d+1 ..] -= T[.. n-1 ..] and out[.. 0 ..] += T[.. d+1 ..].  For each
    slot this returns ``(minus_dst, minus_src, plus_dst, plus_src)`` covering
    all n-2 directions at once: ``src`` indexes the grade-q columns and
    ``dst`` the flattened (direction, grade q-1 column) block.
    """
    cols_src = grade_columns(n, rank, q)
    cols_dst = grade_columns(n, rank, q - 1)
    width = cols_dst.size
    pos = np.full(n**rank, -1)
    pos[cols_src] = np.arange(cols_src.size)
    digits = np.unravel_index(cols_dst, (n,) * rank)
    j = np.arange(width)
    d = np.arange(n - 2)[:, None]
    maps = []
    for s in range(rank):
        stride = n ** (rank - 1 - s)
        digit = digits[s]
        # slot s of the target holds a screen index d + 1: the source has n-1 there
        on = (digit > 0) & (digit < n - 1)
        minus_dst = (digit[on] - 1) * width + j[on]
        minus_src = pos[cols_dst[on] + (n - 1 - digit[on]) * stride]
        # slot s of the target holds 0: the source has d + 1 there, for every d
        on = digit == 0
        plus_dst = (d * width + j[on]).ravel()
        plus_src = pos[cols_dst[on] + (d + 1) * stride].ravel()
        maps.append((minus_dst, minus_src, plus_dst, plus_src))
    return tuple(maps)


def _lowered_on_grade(rows: np.ndarray, n: int, rank: int, q: int) -> np.ndarray:
    """Images of ``rows`` (read on grade q's columns) under the lowering
    generators of ``reference_frame(n)``, on grade q-1's columns.

    Row ``r * (n - 2) + d`` equals ``lowering_action`` of row r with z = e_d,
    read on ``grade_columns(n, rank, q - 1)``, bit for bit: the updates run
    slot by slot, in the order the per-tensor action adds them up.
    Off grade q-1 the action of a grade-q tensor is exactly zero.
    """
    maps = _lowering_maps(n, rank, q)
    width = grade_columns(n, rank, q - 1).size
    out = np.zeros((rows.shape[0], (n - 2) * width))
    for minus_dst, minus_src, plus_dst, plus_src in maps:
        out[:, minus_dst] -= rows[:, minus_src]
        out[:, plus_dst] += rows[:, plus_src]
    return out.reshape(rows.shape[0] * (n - 2), width)


@dataclass
class ArrowCheck:
    source: ModuleKey
    target: ModuleKey
    is_arrow: bool
    max_component: float

    @property
    def ok(self) -> bool:
        if self.is_arrow:
            return self.max_component > 1e-7
        return self.max_component < 1e-10


# relative floor above which a lowered image counts as an arrow
ARROW_RTOL = 1e-8


@lru_cache(maxsize=None)
def computed_arrow_set(space: str, n: int, level: str) -> frozenset:
    """Exact arrow set: (src -> dst) iff the lowering action maps the source
    module onto a piece of the target module above ``ARROW_RTOL`` times the
    largest image component.

    The action is bilinear in (screen direction, source element), so running
    over basis pairs decides each arrow exactly.  Each source module is
    lowered onto the target grade's columns only; one product with all the
    target modules' rows of that grade, stacked once, pairs it with every
    target, whose blocks of columns are then read off one by one.
    """
    table = module_table(space, n, level)
    rank = RANK[space]
    stacked: dict = {}
    out = set()
    for e in table.entries:
        q = e.grade
        targets = [t for t in table.entries if t.grade == q - 1]
        if not targets:
            continue
        if q not in stacked:
            cols = grade_columns(n, rank, q - 1)
            starts = np.cumsum([0] + [t.dim for t in targets[:-1]])
            stacked[q] = (np.vstack([t.basis[:, cols] for t in targets]), starts)
        target_rows, starts = stacked[q]
        imgs = _lowered_on_grade(e.basis[:, grade_columns(n, rank, q)], n, rank, q)
        scale = max(np.abs(imgs).max(), 1e-300)
        comp = np.abs(imgs @ target_rows.T).max(axis=0)
        for t, m in zip(targets, np.maximum.reduceat(comp, starts)):
            if m > ARROW_RTOL * scale:
                out.add((e.key, t.key))
    return frozenset(out)


def paper_arrow_delta(space: str, n: int, level: str) -> dict:
    """Compare published diagrams against the exact arrow sets."""
    paper = paper_arrow_set(space, n, level)
    exact = computed_arrow_set(space, n, level)
    return {
        "missing_from_paper": sorted((str(a), str(b)) for (a, b) in exact - paper),
        "spurious_in_paper": sorted((str(a), str(b)) for (a, b) in paper - exact),
    }


def nilpotent_action_check(
    space: str,
    n: int,
    level: str,
    samples: int = 10,
    rng_seed: int = 5,
) -> list[ArrowCheck]:
    """Verify every computed arrow is realised and every non-arrow never leaks."""
    frame = reference_frame(n)
    table = module_table(space, n, level)
    arrow_set = computed_arrow_set(space, n, level)
    rng = np.random.default_rng(rng_seed)
    records: dict = {}
    for e in table.entries:
        targets = [t for t in table.entries if t.grade == e.grade - 1]
        if not targets:
            continue
        for _ in range(samples):
            coeff = rng.standard_normal(e.dim)
            T = (coeff @ e.basis).reshape((n,) * RANK[space])
            T /= max(np.linalg.norm(T), 1e-300)
            z = rng.standard_normal(n - 2)
            z /= np.linalg.norm(z)
            dT = lowering_action(T, frame, z)
            dec = decompose(space, frame.from_frame(dT), frame, level)
            for t in targets:
                val = dec.norm(t.key)
                rec = records.setdefault((e.key, t.key), 0.0)
                records[(e.key, t.key)] = max(rec, val)
    out = []
    for (src, dst), val in sorted(records.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        out.append(ArrowCheck(src, dst, (src, dst) in arrow_set, val))
    return out
