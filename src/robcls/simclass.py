"""Classification of curvature tensors under the stabiliser of a null line.

Two complementary tools are provided:

* the graded decomposition of a class tensor with respect to a null frame
  (module images, norms, vanishing flags, boost-weight aggregates), built
  on the module tables of `modules`;
* the invariant probe maps of Bel-Debever type: explicit contractions
  with k (and, for the top-grade detectors, with l) whose vanishing
  characterises invariant submodule membership.  `weyl_type` and the
  Petrov/Weyl subtype flags are computed from these.

A probe at grade i vanishes exactly when the tensor has no component in
the probed module nor in any module reachable from it along arrows of
the classification diagram (down-closure semantics); this equivalence is
exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .classes import RANK
from .frames import FrameError, NullFrame, complete_null_frame, volume_form
from .graphs import graph_arrows
from .modules import ModuleKey, module_table, sim_table
from .tensor import DEFAULT_TOL, Tolerance, skew_arr, transform_slots


# --------------------------------------------------------------------------
# graded decomposition
# --------------------------------------------------------------------------


@dataclass
class ModuleComponent:
    key: ModuleKey
    grade: int
    image: np.ndarray  # coordinate components
    frame_image: np.ndarray
    norm: float
    vanishing: bool


@dataclass
class GradedDecomposition:
    space: str
    level: str
    frame: NullFrame
    components: dict  # ModuleKey -> ModuleComponent
    class_residual: float  # part of the input outside the symmetry class
    tol: Tolerance
    scale: float

    def _key(self, key) -> ModuleKey:
        if isinstance(key, ModuleKey):
            return key
        padded = self._pad(key)
        for k in self.components:
            if (k.i, k.j, k.k, k.pm) == padded:
                return k
        raise KeyError(str(key))

    @staticmethod
    def _pad(key):
        key = tuple(key)
        if len(key) == 2:
            return (key[0], key[1], None, None)
        if len(key) == 3:
            if isinstance(key[2], str):
                return (key[0], key[1], None, key[2])
            return (key[0], key[1], key[2], None)
        return key

    def has(self, key) -> bool:
        try:
            self._key(key)
            return True
        except KeyError:
            return False

    def norm(self, key) -> float:
        return self.components[self._key(key)].norm

    def flag(self, key) -> bool:
        """True when the module component vanishes (within tolerance)."""
        return self.components[self._key(key)].vanishing

    def image(self, key) -> np.ndarray:
        return self.components[self._key(key)].image

    def boost_weights(self) -> dict:
        out: dict[int, float] = {}
        for c in self.components.values():
            out[c.grade] = out.get(c.grade, 0.0) + c.norm**2
        return {g: float(np.sqrt(v)) for g, v in sorted(out.items())}

    def grade_norm(self, grade: int) -> float:
        return self.boost_weights().get(grade, 0.0)

    def filtration_vanishing(self, i: int) -> bool:
        """Pi_i(T) = 0: every component at grade <= i vanishes."""
        thr = self.tol.threshold(self.scale)
        total = np.sqrt(sum(v**2 for g, v in self.boost_weights().items() if g <= i))
        return total <= thr

    def norm_ij(self, i: int, j: int) -> float:
        """Aggregated norm over the (i, j) module including any +- parts."""
        tot = sum(c.norm ** 2 for k, c in self.components.items() if (k.i, k.j) == (i, j))
        return float(np.sqrt(tot))

    def reconstruct(self) -> np.ndarray:
        out = 0.0
        for c in self.components.values():
            out = out + c.image
        return out

    def summary(self) -> dict:
        return {
            str(c.key): {"norm": c.norm, "vanishing": bool(c.vanishing)}
            for c in self.components.values()
        }


def decompose(
    space: str,
    arr: np.ndarray,
    frame: NullFrame,
    level: str = "sim",
    tol: Tolerance = DEFAULT_TOL,
    scale: float | None = None,
) -> GradedDecomposition:
    """Split a class tensor (all-lower coordinate components) into modules."""
    n = frame.n
    table = module_table(space, n, level)
    F = frame.to_frame(np.asarray(arr, dtype=float))
    flat = F.ravel()
    coeff = table.coefficients(flat)
    resid = float(np.linalg.norm(table.stacked.T @ coeff - flat))
    if scale is None:
        scale = float(np.linalg.norm(flat))
    comps = {}
    for e in table.entries:
        sl = table.slices[e.key]
        fimg = (e.basis.T @ coeff[sl]).reshape((n,) * RANK[space])
        img = frame.from_frame(fimg)
        nrm = float(np.linalg.norm(fimg))
        comps[e.key] = ModuleComponent(e.key, e.grade, img, fimg, nrm, nrm <= tol.threshold(scale))
    return GradedDecomposition(space, level, frame, comps, resid, tol, scale)


def graded_reconstruct(dec: GradedDecomposition, frame: NullFrame) -> np.ndarray:
    """Sum of the module images; the frame must be the decomposition's own."""
    if frame is not dec.frame and not (
        np.array_equal(frame.vectors, dec.frame.vectors) and np.array_equal(frame.g, dec.frame.g)
    ):
        raise ValueError("frame mismatch: reconstruction requires the decomposing frame")
    return dec.reconstruct()


def down_closure(space: str, n: int, i: int, j: int) -> list[ModuleKey]:
    """Modules reachable from (i, j) (all +- parts) along diagram arrows."""
    arrows = graph_arrows(space, n, "sim")
    table = sim_table(space, n)
    present = {(e.key.i, e.key.j, e.key.pm) for e in table.entries}

    def expand(lbl):
        i_, j_, pm_ = lbl
        if pm_ is None:
            return [p for p in present if (p[0], p[1]) == (i_, j_)]
        return [p for p in present if p == lbl]

    adj: dict = {}
    for a, b in arrows:
        for src in expand((a.i, a.j, a.pm)):
            for dst in expand((b.i, b.j, b.pm)):
                adj.setdefault(src, set()).add(dst)
    start = [p for p in present if (p[0], p[1]) == (i, j)]
    seen = set(start)
    frontier = list(start)
    while frontier:
        cur = frontier.pop()
        for nxt in adj.get(cur, ()):  # noqa: B905
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return [ModuleKey(space, a, b, None, c) for (a, b, c) in sorted(seen)]


# --------------------------------------------------------------------------
# invariant probe maps (generalised Bel-Debever criteria)
# --------------------------------------------------------------------------


def probe_G(phi: np.ndarray, frame: NullFrame) -> dict:
    g, k, l = frame.g, frame.k, frame.l
    kb, lb = g @ k, g @ l
    out = {}
    w = np.einsum("c,ca->a", k, phi)
    out[(-1, 0)] = 0.5 * (np.outer(w, kb) - np.outer(kb, w))
    out[(0, 0)] = np.einsum("a,ab->b", k, phi)
    out[(0, 1)] = skew_arr(np.einsum("ab,c->abc", phi, kb), (0, 1, 2))
    wl = np.einsum("c,ca->a", l, phi)
    out[(1, 0)] = 0.5 * (np.outer(wl, lb) - np.outer(lb, wl))
    return out


def probe_G6_pm(phi: np.ndarray, frame: NullFrame) -> dict:
    """The n = 6 Hodge-split probes for 2-forms."""
    g = frame.g
    kb = g @ frame.k
    eps = volume_form(g)
    g_inv = np.linalg.inv(g)
    eps_up3 = np.einsum("abcdef,ax,by,cz->xyzdef", eps, g_inv, g_inv, g_inv)
    base = skew_arr(np.einsum("d,ef->def", kb, phi), (0, 1, 2))
    dual = (1.0 / 6.0) * np.einsum("a,bc,abcdef->def", kb, phi, eps_up3)
    return {"+": base + dual, "-": base - dual}


def probe_F(Phi: np.ndarray, frame: NullFrame) -> dict:
    g, k, l = frame.g, frame.k, frame.l
    kb = g @ k
    n = frame.n
    out = {(-2, 0): np.array(k @ Phi @ k)}
    w = k @ Phi
    out[(-1, 0)] = 0.5 * (np.outer(w, kb) - np.outer(kb, w))
    core = skew_arr(skew_arr(np.einsum("a,bc,d->abcd", kb, Phi, kb), (0, 1)), (2, 3))
    tr1 = skew_arr(skew_arr(np.einsum("a,bc,d->abcd", kb, g, Phi @ k), (0, 1)), (2, 3))
    tr2 = skew_arr(skew_arr(np.einsum("c,da,b->abcd", kb, g, Phi @ k), (2, 3)), (0, 1))
    out[(0, 1)] = core + (1.0 / (n - 2)) * (tr1 + tr2)
    out[(0, 0)] = Phi @ k
    out[(1, 0)] = 0.5 * (np.einsum("a,bc->abc", kb, Phi) - np.einsum("b,ac->abc", kb, Phi))
    out[(2, 0)] = np.array(l @ Phi @ l)
    return out


def probe_A(A: np.ndarray, frame: NullFrame) -> dict:
    g, k, l = frame.g, frame.k, frame.l
    kb, lb = g @ k, g @ l
    n = frame.n
    out = {}
    Akk = np.einsum("c,d,cda->a", k, k, A)
    out[(-2, 0)] = 0.5 * (np.outer(Akk, kb) - np.outer(kb, Akk))
    out[(-1, 0)] = Akk
    X = np.einsum("bec,e->bc", A, k)  # A_{bec} k^e
    core = skew_arr(skew_arr(np.einsum("a,bc,d->abcd", kb, X, kb), (0, 1)), (2, 3))
    trc = skew_arr(skew_arr(np.einsum("a,bc,d->abcd", kb, g, Akk), (0, 1)), (2, 3))
    pair = lambda t: np.transpose(t, (2, 3, 0, 1))
    out[(-1, 1)] = (core - pair(core)) + (1.0 / (n - 2)) * (trc - pair(trc))
    out[(-1, 2)] = (core + pair(core)) + (1.0 / (n - 2)) * (trc + pair(trc))
    Y = np.einsum("adb,d->ab", A, k)
    t1 = np.einsum("ab,c->abc", Y, kb) - np.einsum("ac,b->abc", Y, kb)
    t2 = np.einsum("a,dbc,d->abc", kb, A, k)
    # the printed assignment detects the opposite member of the isotypic
    # pair; kernels fix the labelling
    out[(0, 0)] = t1 + t2
    out[(0, 1)] = t1 - t2
    core = skew_arr(skew_arr(np.einsum("a,bcd,e->abcde", kb, A, kb), (0, 1)), (2, 3, 4))
    W = 2.0 * np.einsum("bfd,f->bd", A, k)
    Z = np.einsum("fde,f->de", A, k)
    q1 = np.einsum("ca,bd,e->abcde", g, W, kb) - np.einsum("ca,b,de->abcde", g, kb, Z)
    q1 = skew_arr(skew_arr(q1, (0, 1)), (2, 3, 4))
    q2 = skew_arr(skew_arr(np.einsum("ca,bd,e->abcde", g, g, Akk), (0, 1)), (2, 3, 4))
    out[(0, 2)] = core - (1.0 / (n - 3)) * q1 - (2.0 / ((n - 2) * (n - 3))) * q2
    out[(1, 0)] = np.einsum("abc,c->ab", A, k)
    P = skew_arr(np.einsum("a,bcd->abcd", kb, A), (0, 1))
    Q = skew_arr(np.einsum("c,dab->abcd", kb, A), (2, 3))
    R1 = skew_arr(skew_arr(np.einsum("ac,dbe,e->abcd", g, A, k), (0, 1)), (2, 3))
    R2 = skew_arr(skew_arr(np.einsum("ca,bde,e->abcd", g, A, k), (0, 1)), (2, 3))
    out[(1, 1)] = P - Q + (2.0 / (n - 2)) * (R1 - R2)
    out[(1, 2)] = P + Q + (2.0 / (n - 2)) * (R1 + R2)
    All = np.einsum("c,d,cda->a", l, l, A)
    out[(2, 0)] = 0.5 * (np.outer(All, lb) - np.outer(lb, All))
    return out


def probe_C(C: np.ndarray, frame: NullFrame) -> dict:
    g, k = frame.g, frame.k
    kb = g @ k
    n = frame.n
    out = {}
    M = np.einsum("befc,e,f->bc", C, k, k)
    out[(-2, 0)] = skew_arr(skew_arr(np.einsum("a,bc,d->abcd", kb, M, kb), (0, 1)), (2, 3))
    out[(-1, 0)] = skew_arr(np.einsum("adeb,d,e,c->abc", C, k, k, kb), (1, 2))
    X = np.einsum("bcfd,f->bcd", C, k)
    T = skew_arr(skew_arr(np.einsum("a,bcd,e->abcde", kb, X, kb), (0, 1, 2)), (3, 4))
    W = np.einsum("efgb,f,g->eb", C, k, k)
    q = skew_arr(skew_arr(np.einsum("ad,eb,c->abcde", g, W, kb), (0, 1, 2)), (3, 4))
    out[(-1, 1)] = T - (2.0 / (n - 3)) * q
    out[(0, 0)] = np.einsum("acdb,c,d->ab", C, k, k)
    out[(0, 1)] = skew_arr(np.einsum("a,bcde,e->abcd", kb, C, k), (0, 1, 2))
    Xk = np.einsum("abec,e->abc", C, k)
    t = skew_arr(np.einsum("abc,d->abcd", Xk, kb), (2, 3))
    Ckk = np.einsum("befd,e,f->bd", C, k, k)
    q = skew_arr(skew_arr(np.einsum("ca,bd->abcd", g, Ckk), (2, 3)), (0, 1))
    out[(0, 2)] = t + np.transpose(t, (2, 3, 0, 1)) - (4.0 / (n - 2)) * q
    if n > 4:
        out[(0, 3)] = _probe_C_0_3(C, frame)
    out[(1, 0)] = np.einsum("abcd,d->abc", C, k)
    t = skew_arr(np.einsum("a,bcde->abcde", kb, C), (0, 1, 2))
    Y = np.einsum("exbc,x->ebc", C, k)
    q = skew_arr(skew_arr(np.einsum("ad,ebc->abcde", g, Y), (0, 1, 2)), (3, 4))
    out[(1, 1)] = t + (2.0 / (n - 3)) * q
    out[(2, 0)] = C
    return out


def _probe_C_0_3(C: np.ndarray, frame: NullFrame) -> np.ndarray:
    g, k = frame.g, frame.k
    kb = g @ k
    n = frame.n
    t1 = skew_arr(skew_arr(np.einsum("a,bcde,f->abcdef", kb, C, kb), (0, 1, 2)), (3, 4, 5))
    X = np.einsum("efgb,g->efb", C, k)
    t2a = skew_arr(skew_arr(np.einsum("ad,efb,c->abcdef", g, X, kb), (0, 1, 2)), (3, 4, 5))
    Y = np.einsum("bcge,g->bce", C, k)
    t2b = skew_arr(skew_arr(np.einsum("da,bce,f->abcdef", g, Y, kb), (0, 1, 2)), (3, 4, 5))
    W = np.einsum("xghy,g,h->xy", C, k, k)
    pieces = [
        ("da,be,fc", (0, 1), (4, 5)),
        ("db,ce,fa", (1, 2), (4, 5)),
        ("dc,ae,fb", (0, 2), (4, 5)),
        ("ea,bf,dc", (0, 1), (3, 5)),
        ("eb,cf,da", (1, 2), (3, 5)),
        ("ec,af,db", (0, 2), (3, 5)),
        ("fa,bd,ec", (0, 1), (3, 4)),
        ("fb,cd,ea", (1, 2), (3, 4)),
        ("fc,ad,eb", (0, 2), (3, 4)),
    ]
    t3 = 0.0
    for spec, br1, br2 in pieces:
        arr = np.einsum(spec + "->abcdef", g, W, g)
        t3 = t3 + skew_arr(skew_arr(arr, br1), br2)
    return t1 - (2.0 / (n - 4)) * (t2a + t2b) + (4.0 / (9.0 * (n - 3) * (n - 4))) * t3


PROBES = {"G": probe_G, "F": probe_F, "A": probe_A, "C": probe_C}


def probe_images(space: str, arr: np.ndarray, frame: NullFrame) -> dict:
    return PROBES[space](np.asarray(arr, dtype=float), frame)


def probe_norms(space: str, arr: np.ndarray, frame: NullFrame) -> dict:
    return {k: float(np.linalg.norm(np.atleast_1d(v))) for k, v in probe_images(space, arr, frame).items()}


# --------------------------------------------------------------------------
# Petrov/Weyl types
# --------------------------------------------------------------------------

SUBTYPE_PROBES = {
    "I(a)": (-1, 0),
    "I(b)": (-1, 1),
    "II(a)": (0, 0),
    "II(d)": (0, 1),
    "II(b)": (0, 2),
    "II(c)": (0, 3),
    "III(a)": (1, 0),
    "III(b)": (1, 1),
}

TYPE_ORDER = ["G", "I", "II", "III", "N", "O"]


@dataclass
class WeylTypeLabel:
    type: str
    subtype_flags: tuple
    residuals: dict
    direction: np.ndarray | None = None
    search: dict | None = None

    def as_dict(self) -> dict:
        return {
            "type": self.type,
            "subtype_flags": sorted(self.subtype_flags),
            "residuals": {("Pi_%d^%d" % k): v for k, v in self.residuals.items()},
            "direction": None if self.direction is None else [float(x) for x in self.direction],
            "search": self.search,
        }


def weyl_type_at_frame(C: np.ndarray, frame: NullFrame, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> WeylTypeLabel:
    """Type and subtype flags of a Weyl tensor with respect to a fixed frame."""
    if scale is None:
        scale = float(np.linalg.norm(frame.to_frame(C)))
    dec = decompose("C", C, frame, "sim", tol, scale)
    label = "G"
    for t, i in (("I", -2), ("II", -1), ("III", 0), ("N", 1), ("O", 2)):
        if dec.filtration_vanishing(i):
            label = t
        else:
            break
    norms = probe_norms("C", C, frame)
    thr = tol.threshold(scale)
    flags = tuple(name for name, key in SUBTYPE_PROBES.items() if key in norms and norms[key] <= thr)
    return WeylTypeLabel(label, flags, norms, direction=frame.k)


def _orthonormal_basis(g: np.ndarray) -> np.ndarray:
    """Rows: timelike unit then spacelike units, diagonalising g."""
    w, v = np.linalg.eigh(g)
    order = np.argsort(w)
    cols = []
    for idx in order:
        val = w[idx]
        cols.append(v[:, idx] / np.sqrt(abs(val)))
    return np.array(cols)


def wand_residual(C: np.ndarray, frame_basis: np.ndarray, omega: np.ndarray, g: np.ndarray, Cnorm: float) -> float:
    k = frame_basis[0] + omega @ frame_basis[1:]
    M = np.einsum("befc,e,f->bc", C, k, k)
    kb = g @ k
    img = skew_arr(skew_arr(np.einsum("a,bc,d->abcd", kb, M, kb), (0, 1)), (2, 3))
    return float(np.linalg.norm(img) / Cnorm)


_GRID_BLOCK = 2048  # closed-form rows per block: about 3 MB of temporaries at n = 9
_GRID_MIN_CANDIDATES = 32


def _grid_wand_sq(C: np.ndarray, basis: np.ndarray, grid: np.ndarray, g: np.ndarray, Cnorm: float):
    """Closed-form squared WAND residuals of the grid points, with round-off bounds.

    With k = basis[0] + omega @ basis[1:], U = g k, M_bc = C_befc k^e k^f,
    s = |U|^2 and q = U.MU, the image in `wand_residual` has

        |U ^ M ^ U|^2 = (s^2 |M|^2 - 2 s |MU|^2 + q^2) / 4,

    one matrix product for M over a block of rows.  The form cancels near
    zero, so it only ranks; returns (val, err) with |val - wand_residual^2|
    <= err row by row.  The bound, with C divided by Cnorm as in
    `wand_residual`: both evaluations form M and U with errors
    |dM| <= n^2 eps |C||k|^2 and |dU| <= n eps |g||k|, which move the
    residual r <= s|M| by at most s|dM| + 2 sqrt(s)|M||dU|, so r^2 by twice
    r times that; the cancellation costs a few eps s^2 |M|^2.  Hence

        err = 4 n^2 eps s|M| (s|M| + s|C||k|^2 + sqrt(s)|g||k||M|),

    about 190 times the largest error seen on the catalog sample points and
    on random Weyl tensors in random Lorentzian metrics, n = 4..9.
    """
    n = g.shape[0]
    C = C / Cnorm  # Cnorm**2 may underflow
    Cmat = C.transpose(1, 2, 0, 3).reshape(n * n, n * n)
    Cfro, gfro = np.linalg.norm(C), np.linalg.norm(g)
    val, err = [], []
    for start in range(0, len(grid), _GRID_BLOCK):
        K = basis[0] + grid[start : start + _GRID_BLOCK] @ basis[1:]
        U = K @ g.T
        M = ((K[:, :, None] * K[:, None, :]).reshape(len(K), n * n) @ Cmat).reshape(len(K), n, n)
        MU = np.einsum("ibc,ic->ib", M, U)
        s = np.einsum("ib,ib->i", U, U)
        k2 = np.einsum("ib,ib->i", K, K)
        m = np.sqrt(np.einsum("ibc,ibc->i", M, M))
        q = np.einsum("ib,ib->i", U, MU)
        val.append(0.25 * ((s * m) ** 2 - 2.0 * s * np.einsum("ib,ib->i", MU, MU) + q * q))
        err.append(4 * n * n * np.finfo(float).eps * s * m * (s * m + s * Cfro * k2 + np.sqrt(s * k2) * gfro * m))
    return np.concatenate(val), np.concatenate(err)


def _grid_stage(C: np.ndarray, basis: np.ndarray, grid: np.ndarray, g: np.ndarray, Cnorm: float):
    """(index of the minimum, minimum, median) of the exact grid residuals.

    The closed form ranks the grid and `wand_residual` is evaluated only
    where the error bounds leave the answer open, so the result equals
    np.argmin (first index on ties), min and np.median of `wand_residual`
    at every grid point.
    """
    val, err = _grid_wand_sq(C, basis, grid, g, Cnorm)
    lo, hi = val - err, val + err
    exact: dict[int, float] = {}

    def resid(i):
        if i not in exact:
            exact[i] = wand_residual(C, basis, grid[i], g, Cnorm)
        return exact[i]

    # the minimum lies below every upper bound, so only intervals reaching
    # under the smallest one can hold it; np.argmin takes the first index on
    # ties, and a candidate is skipped once its lower bound shows that it
    # cannot beat the best exact value found so far
    for i in np.argsort(val, kind="stable")[:_GRID_MIN_CANDIDATES]:
        resid(i)
    floor, best = min((v, i) for i, v in exact.items())
    for i in np.flatnonzero(lo <= hi.min()):
        if i in exact or (lo[i], i) > (floor * floor, best):
            continue
        if (resid(i), i) < (floor, best):
            floor, best = exact[i], i
    # the order statistic of rank r has its square between the r-th smallest
    # lower and upper bounds; points wholly below that window are counted
    stats = []
    for r in ((len(grid) - 1) // 2, len(grid) // 2):
        L, H = np.partition(lo, r)[r], np.partition(hi, r)[r]
        if H <= 0.0:
            stats.append(0.0)
            continue
        window = sorted(resid(i) for i in np.flatnonzero((hi >= L) & (lo <= H)))
        stats.append(window[r - int(np.count_nonzero(hi < L))])
    return int(best), floor, float(np.median(stats))


def weyl_type_search(
    C: np.ndarray,
    g: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    grid_count: int = 10000,
    refine_steps: int = 50,
) -> WeylTypeLabel:
    """Search the null sphere for the direction minimising the WAND residual.

    Deterministic low-discrepancy grid followed by a local pattern descent;
    the type at the best direction is reported together with the residual
    landscape (a declared type G is evidence-bounded by the floor).
    """
    n = g.shape[0]
    if not np.isfinite(C).all():
        raise ValueError("the Weyl tensor has non-finite components")
    if np.count_nonzero(np.linalg.eigvalsh(g) < 0) != 1:
        raise FrameError("the metric is not Lorentzian: no null sphere to search")
    basis = _orthonormal_basis(g)
    Cnorm = max(float(np.linalg.norm(transform_slots(C, basis))), 1e-300)
    grid = sphere_grid(n - 2, grid_count)
    best, grid_floor, grid_median = _grid_stage(C, basis, grid, g, Cnorm)
    omega = grid[best]
    step = 0.3
    cur = grid_floor
    for _ in range(refine_steps):
        improved = False
        for d in range(n - 1):
            for s in (+1.0, -1.0):
                cand = omega + s * step * np.eye(n - 1)[d]
                cand = cand / np.linalg.norm(cand)
                val = wand_residual(C, basis, cand, g, Cnorm)
                if val < cur:
                    cur, omega, improved = val, cand, True
        if not improved:
            step *= 0.5
            if step < 1e-8:
                break
    # hierarchical polish: the WAND residual is quartic around deeply
    # degenerate directions, so refine through the filtration ladder where
    # each deeper level residual is better conditioned (the last is linear)
    from scipy.optimize import minimize

    table = sim_table("C", n)

    def level_residual(w, level):
        k = basis[0] + w @ basis[1:]
        try:
            fr = complete_null_frame(g, k)
        except Exception:
            return 1e6
        flat = fr.to_frame(C).ravel()
        coeff = table.coefficients(flat)
        tot = 0.0
        for e in table.entries:
            if e.grade <= level:
                tot += float(np.linalg.norm(coeff[table.slices[e.key]]) ** 2)
        return np.sqrt(tot) / Cnorm

    def polish(level, w0):
        def objective(w):
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                return 1e6
            return np.log10(level_residual(w / nw, level) + 1e-300)

        sol = minimize(objective, w0, method="Nelder-Mead", options={"xatol": 1e-13, "fatol": 1e-10, "maxiter": 400})
        return sol.x / np.linalg.norm(sol.x)

    if Cnorm > 1e-250:
        for level in (-2, -1, 0, 1):
            res = level_residual(omega, level)
            if 1e-11 < res < 1e-3:
                omega = polish(level, omega)
            elif res >= 1e-3:
                break
    cur = min(cur, wand_residual(C, basis, omega, g, Cnorm))
    k_best = basis[0] + omega @ basis[1:]
    frame = complete_null_frame(g, k_best)
    label = weyl_type_at_frame(C, frame, tol)
    label.search = {
        "grid_count": int(grid_count),
        "grid_floor": float(grid_floor),
        "grid_median": grid_median,
        "refined_floor": float(cur),
    }
    label.direction = k_best
    return label


def sphere_grid(dim_sphere: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy grid on S^{dim_sphere}."""
    d = dim_sphere + 1
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23][:d]
    idx = np.arange(1, count + 1)
    pts = np.empty((count, d))
    for c, p in enumerate(primes):
        x = np.zeros(count)
        denom = 1.0
        i = idx.copy()
        while np.any(i > 0):
            denom *= p
            x += (i % p) / denom
            i //= p
        pts[:, c] = np.clip(x, 1e-12, 1 - 1e-12)
    z = ndtri(pts)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    return z
