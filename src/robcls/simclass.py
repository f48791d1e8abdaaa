"""Classification of curvature tensors under the stabiliser of a null line.

The graded decomposition of a class tensor with respect to a null frame
(module images, norms, vanishing flags, boost-weight aggregates) is built on
the module tables of `modules`.  The Weyl type is read off its filtration,
and each subtype flag and printed residual Pi_i^j off the same
decomposition: Pi_i^j is the root-sum-square of the module norms over
`down_closure`, the modules reachable from (i, j) along the arrows of the
classification diagram.  That is the module content of the Bel-Debever
criteria, whose explicit contractions the test suite keeps as an oracle.
The null-sphere WAND search labels its best direction the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .classes import RANK, component_grades
from .frames import NullFrame, complete_null_frame, orthonormal_basis, orthonormal_null_frame
from .graphs import paper_arrow_set
from .modules import ModuleKey, module_table, sim_table
from .tensor import DEFAULT_TOL, Tolerance, transform_slots


# --------------------------------------------------------------------------
# graded decomposition
# --------------------------------------------------------------------------


@dataclass
class ModuleComponent:
    key: ModuleKey
    grade: int
    frame_image: np.ndarray  # frame components; `GradedDecomposition.image` maps them back
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

    def _component(self, key) -> ModuleComponent:
        """The component of a ModuleKey or of a label that `ModuleKey.of` reads."""
        return self.components[ModuleKey.of(self.space, key)]

    def has(self, key) -> bool:
        return ModuleKey.of(self.space, key) in self.components

    def norm(self, key) -> float:
        return self._component(key).norm

    def flag(self, key) -> bool:
        """True when the module component vanishes (within tolerance)."""
        return self._component(key).vanishing

    def image(self, key) -> np.ndarray:
        """Coordinate components of one module's image."""
        return self.frame.from_frame(self._component(key).frame_image)

    def boost_weights(self) -> dict:
        out: dict[int, float] = {}
        for c in self.components.values():
            out[c.grade] = out.get(c.grade, 0.0) + c.norm**2
        return {g: float(np.sqrt(v)) for g, v in sorted(out.items())}

    def filtration_vanishing(self, i: int) -> bool:
        """Pi_i(T) = 0: every component at grade <= i vanishes."""
        total = np.sqrt(sum(v**2 for g, v in self.boost_weights().items() if g <= i))
        return self.tol.vanishes(total, self.scale)

    def norm_ij(self, i: int, j: int) -> float:
        """Aggregated norm over the (i, j) module including any +- parts."""
        tot = sum(c.norm ** 2 for k, c in self.components.items() if (k.i, k.j) == (i, j))
        return float(np.sqrt(tot))

    def closure_norm(self, i: int, j: int) -> float:
        """Pi_i^j: the root-sum-square of the module norms over `down_closure` of (i, j).

        It vanishes exactly when the tensor has no part in the (i, j) module
        nor in any module below it.  A refined decomposition sums the refined
        parts of those sim modules.
        """
        labels = {(key.i, key.j) for key in down_closure(self.space, self.frame.n, i, j)}
        return math.hypot(*(c.norm for key, c in self.components.items() if (key.i, key.j) in labels))

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
        nrm = float(np.linalg.norm(fimg))
        comps[e.key] = ModuleComponent(e.key, e.grade, fimg, nrm, tol.vanishes(nrm, scale))
    return GradedDecomposition(space, level, frame, comps, resid, tol, scale)


@lru_cache(maxsize=None)
def down_closure(space: str, n: int, i: int, j: int) -> tuple[ModuleKey, ...]:
    """Modules reachable from (i, j) (all +- parts) along diagram arrows; cached per (space, n, i, j)."""
    adj: dict = {}
    for src, dst in paper_arrow_set(space, n, "sim"):
        adj.setdefault(src, set()).add(dst)
    seen = {e.key for e in sim_table(space, n).entries if (e.key.i, e.key.j) == (i, j)}
    frontier = list(seen)
    while frontier:
        for nxt in adj.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return tuple(sorted(seen, key=lambda k: (k.i, k.j, k.pm)))


# --------------------------------------------------------------------------
# Petrov/Weyl types
# --------------------------------------------------------------------------

# each subtype flag: the module (i, j) whose down-closure norm Pi_i^j vanishes
SUBTYPE_MODULES = {
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

# the reported Pi_i^j: every C label; (0, 3) only for n > 4
RESIDUAL_MODULES = tuple(sorted({(-2, 0), (2, 0), *SUBTYPE_MODULES.values()}))


@dataclass
class WeylTypeLabel:
    type: str
    subtype_flags: tuple
    residuals: dict
    direction: np.ndarray | None = None
    search: dict | None = None
    decomposition: GradedDecomposition | None = None  # the sim decomposition that set `type`; not reported

    def as_dict(self) -> dict:
        return {
            "type": self.type,
            "subtype_flags": sorted(self.subtype_flags),
            "residuals": {("Pi_%d^%d" % k): v for k, v in self.residuals.items()},
            "direction": None if self.direction is None else [float(x) for x in self.direction],
            "search": self.search,
        }


def weyl_type_at_frame(C: np.ndarray, frame: NullFrame, tol: Tolerance = DEFAULT_TOL, scale: float | None = None) -> WeylTypeLabel:
    """Type and subtype flags of a Weyl tensor with respect to a fixed frame.

    Both are read off one sim decomposition at ``scale`` (None: the norm of
    C's frame components): the type off its filtration, each subtype flag off
    the vanishing of its closure norm Pi_i^j, which is also the residual.
    """
    dec = decompose("C", C, frame, "sim", tol, scale)
    label = "G"
    for t, i in (("I", -2), ("II", -1), ("III", 0), ("N", 1), ("O", 2)):
        if dec.filtration_vanishing(i):
            label = t
        else:
            break
    residuals = {key: dec.closure_norm(*key) for key in RESIDUAL_MODULES if key != (0, 3) or frame.n > 4}
    flags = tuple(name for name, key in SUBTYPE_MODULES.items() if key in residuals and tol.vanishes(residuals[key], dec.scale))
    return WeylTypeLabel(label, flags, residuals, direction=frame.k, decomposition=dec)


_GRID_BLOCK = 1024  # directions per block of `wand_residual`: under 3 MB of temporaries at n = 9


def wand_matrix(C: np.ndarray, Cnorm: float) -> np.ndarray:
    """C / Cnorm as the (n^2, n^2) matrix [(b, e), (f, c)] -> C_befc that `wand_residual` contracts with k (x) k."""
    n = C.shape[0]
    return (C / Cnorm).transpose(1, 2, 0, 3).reshape(n * n, n * n)  # divided first: |P M P|^2 of a tiny C underflows


def wand_residual(Cmat: np.ndarray, frame_basis: np.ndarray, omega: np.ndarray, g: np.ndarray):
    """|skew_(01)(23)(U (x) M (x) U)| / Cnorm: the boost-weight +2 part of C along k, which vanishes at a WAND.

    Here Cmat = `wand_matrix(C, Cnorm)`, k = frame_basis[0] + omega @ frame_basis[1:],
    U = g k and M_bc = C_befc k^e k^f.  With s = |U|^2 and P = I - U U^T / s, the identity
    |x ^ u|^2 = |u|^2 |x - (x.u) u / |u|^2|^2, applied once per antisymmetrised
    pair, gives the norm exactly as s |P M P| / 2, which cancels no worse than
    building the n^4 image.  One direction (omega of shape (n - 1,)) gives a
    float; a stack of them (m, n - 1) gives m residuals, evaluated in blocks of
    _GRID_BLOCK rows.
    """
    n = g.shape[0]
    W = np.atleast_2d(omega)
    out = np.empty(len(W))
    for start in range(0, len(W), _GRID_BLOCK):
        K = frame_basis[0] + W[start : start + _GRID_BLOCK] @ frame_basis[1:]
        U = K @ g.T
        M = ((K[:, :, None] * K[:, None, :]).reshape(len(K), n * n) @ Cmat).reshape(len(K), n, n)
        s = np.einsum("ib,ib->i", U, U)
        V = U / s[:, None]
        M -= np.einsum("ibc,ic->ib", M, U)[:, :, None] * V[:, None, :]  # M P
        M -= V[:, :, None] * np.einsum("ib,ibc->ic", U, M)[:, None, :]  # P M P
        out[start : start + len(K)] = 0.5 * s * np.sqrt(np.einsum("ibc,ibc->i", M, M))
    return float(out[0]) if np.ndim(omega) == 1 else out


def ladder_residual(C_on: np.ndarray, Cnorm: float):
    """The polish's ladder residual of C, given on the orthonormal basis of g: a function of (w, level).

    At a unit w it is |frame components of C at grades <= level| / Cnorm in
    `orthonormal_null_frame(w)`, the frame of k = (1, w); the sim modules of
    each grade span its columns.  C is read in Lambda^2 form, the N x N matrix
    Cb[(a<b), (c<d)] = C_abcd with N = n(n - 1)/2, and the frame acts on it as
    K = Lambda^2 V, K[(i<j), (p<q)] = V_ip V_jq - V_iq V_jp, gathered from V
    through four flat index arrays: the pair components are K Cb K^T, each
    counted four times in the n^4 norm, and no n^4 array is built per call.
    """
    n = C_on.shape[0]
    a, b = np.triu_indices(n, 1)
    Cb = C_on[a[:, None], b[:, None], a, b]
    pair_grade = component_grades(n, 2).reshape(n, n)[a, b]
    masks = {level: np.flatnonzero(pair_grade[:, None] + pair_grade <= level) for level in (-2, -1, 0, 1)}
    ip, jq, iq, jp = a[:, None] * n + a, b[:, None] * n + b, a[:, None] * n + b, b[:, None] * n + a

    def residual(w, level):
        V = orthonormal_null_frame(w).ravel()
        K = V.take(ip) * V.take(jq)
        K -= V.take(iq) * V.take(jp)
        low = (K @ Cb @ K.T).take(masks[level])
        return 2.0 * math.sqrt(low.dot(low)) / Cnorm  # np.linalg.norm's own arithmetic

    return residual


def weyl_type_search(
    C: np.ndarray,
    g: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    grid_count: int = 10000,
    refine_steps: int = 50,
    scale: float | None = None,
) -> WeylTypeLabel:
    """Search the null sphere for the direction minimising the WAND residual.

    Deterministic low-discrepancy grid followed by a local pattern descent
    and a Nelder-Mead polish (`_nelder_mead`) down the boost-weight ladder
    (`ladder_residual`); the type at the best direction is reported together
    with the residual landscape (a declared type G is evidence-bounded by the
    floor).  The exact residual `wand_residual` scores the whole grid in one
    batched call, each poll of the descent in one call and the final floor in
    one, all against one `wand_matrix` of the search.  The best direction
    is the one direction completed to a frame (`complete_null_frame`), and
    is labelled by `weyl_type_at_frame` at ``scale`` (None: the norm of C in
    that direction's frame).
    """
    n = g.shape[0]
    if not np.isfinite(C).all():
        raise ValueError("the Weyl tensor has non-finite components")
    basis = orthonormal_basis(g)  # a FrameError when g is not Lorentzian: no null sphere to search
    C_on = transform_slots(C, basis)  # C on the orthonormal basis of g
    Cnorm = max(float(np.linalg.norm(C_on)), 1e-300)
    Cmat = wand_matrix(C, Cnorm)
    grid = sphere_grid(n - 2, grid_count)
    vals = wand_residual(Cmat, basis, grid, g)
    best = int(np.argmin(vals))
    grid_floor = float(vals[best])
    # the median as the mean of the two middle values; np.median would import numpy.ma
    mid = ((len(vals) - 1) // 2, len(vals) // 2)
    grid_median = float(0.5 * np.partition(vals, mid)[list(mid)].sum())
    # compass search: poll +e_0, -e_0, +e_1, ... at the current step and take
    # the first candidate that beats cur.  The rest of a poll is evaluated in
    # one call at the current omega; after a move the candidates behind the
    # one taken are polled again from the new omega, so the steps are those of
    # a sequential poll
    omega = grid[best]
    step = 0.3
    cur = grid_floor
    compass = np.kron(np.eye(n - 1), [[1.0], [-1.0]])
    for _ in range(refine_steps):
        improved = False
        j = 0
        while j < len(compass):
            cands = omega + step * compass[j:]
            cands /= np.sqrt(cands[:, None, :] @ cands[:, :, None])[:, 0]  # each row's dot, as np.linalg.norm of one row
            polled = wand_residual(Cmat, basis, cands, g)
            hits = np.flatnonzero(polled < cur)
            if not hits.size:
                break
            cur, omega, improved = float(polled[hits[0]]), cands[hits[0]], True
            j += int(hits[0]) + 1
        if not improved:
            step *= 0.5
            if step < 1e-8:
                break
    # hierarchical polish: the WAND residual is quartic around deeply
    # degenerate directions, so refine through the filtration ladder where
    # each deeper level residual is better conditioned (the last is linear).
    # The ladder reads C_on in the closed-form frame at k = (1, w) of the
    # orthonormal basis, the direction basis[0] + w @ basis[1:], which is the
    # frame `complete_null_frame` labels that direction in
    level_residual = ladder_residual(C_on, Cnorm)

    def polish(level, w0):
        def objective(w):
            nw = np.linalg.norm(w)
            if nw < 1e-12:
                return 1e6
            return np.log10(level_residual(w / nw, level) + 1e-300)

        x = _nelder_mead(objective, w0, xatol=1e-13, fatol=1e-10, maxiter=400)
        return x / np.linalg.norm(x)

    if Cnorm > 1e-250:
        for level in (-2, -1, 0, 1):
            res = level_residual(omega, level)
            if 1e-11 < res < 1e-3:
                omega = polish(level, omega)
            elif res >= 1e-3:
                break
    cur = min(cur, wand_residual(Cmat, basis, omega, g))
    k_best = basis[0] + omega @ basis[1:]
    frame = complete_null_frame(g, k_best)
    label = weyl_type_at_frame(C, frame, tol, scale)
    label.search = {
        "grid_count": int(grid_count),
        "grid_floor": float(grid_floor),
        "grid_median": grid_median,
        "refined_floor": float(cur),
    }
    label.direction = k_best
    return label


@lru_cache(maxsize=None)
def sphere_grid(dim_sphere: int, count: int) -> np.ndarray:
    """Deterministic low-discrepancy grid on S^{dim_sphere}; cached per (dim_sphere, count), read-only."""
    z = _ndtri(_halton(dim_sphere + 1, count))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    z.flags.writeable = False
    return z


def _halton(d: int, count: int) -> np.ndarray:
    """Points 1..count of the Halton sequence in [0, 1]^d, clipped to [1e-12, 1 - 1e-12]."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23][:d]
    if len(primes) < d:
        raise ValueError(f"sphere_grid has no prime for coordinate {len(primes)} of S^{d - 1}")
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
    return pts


# Cephes `ndtri` (S. L. Moshier), the algorithm scipy.special ships: rational
# approximations on |y - 1/2| <= 1/2 - exp(-2) and in the tails, in z = 1/x with
# x = sqrt(-2 log y) below and above x = 8 (y = exp(-32)). The denominators'
# leading 1 (Cephes `p1evl`) is written out: 1.0 * x is exact.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
# libm's log, elementwise: np.log differs from it in the last bit on a few
# points of every grid, and that changes `--search` report bytes
_log = np.frompyfunc(math.log, 1, 1)


def _polevl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Horner's rule, leading coefficient first, one multiply and one add a step (Cephes `polevl`)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y0: np.ndarray) -> np.ndarray:
    """Inverse of the standard normal CDF for 0 < y0 < 1, bit-equal to scipy.special.ndtri."""
    reflected = y0 > 1.0 - _EXP_M2
    y = np.where(reflected, 1.0 - y0, y0)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    ym = y[mid] - 0.5
    y2 = ym * ym
    out[mid] = (ym + ym * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))) * _S2PI
    tail = ~mid
    x = np.sqrt(-2.0 * _log(y[tail]).astype(float))
    x0 = x - _log(x).astype(float) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _P1) / _polevl(z, _Q1), z * _polevl(z, _P2) / _polevl(z, _Q2))
    xt = x0 - x1
    out[tail] = np.where(reflected[tail], xt, -xt)
    return out


def _nelder_mead(f, x0: np.ndarray, xatol: float, fatol: float, maxiter: int) -> np.ndarray:
    """The minimiser `scipy.optimize.minimize(f, x0, method="Nelder-Mead", options=...)` returns, bit for bit.

    A numpy port of scipy's `_minimize_neldermead` for the options the polish
    uses: not adaptive, no bounds, no evaluation limit, the default initial
    simplex (one component of x0 at a time scaled by 1.05, or set to 0.00025
    where it is 0), the `xatol`/`fatol` test and `maxiter`.  It keeps scipy's
    arithmetic, its `np.argsort`/`np.take` order and its `np.add.reduce`
    centroid.  scipy sorts the first simplex twice, so the loop sorts on entry.
    """
    N = len(x0)
    sim = np.array([x0] * (N + 1), dtype=float)
    for k in range(N):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    ind = fsim.argsort()
    sim, fsim = sim.take(ind, 0), fsim.take(ind)
    iterations = 1
    while True:
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind)
        if iterations >= maxiter or (np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
            return sim[0]
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]  # reflection
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]  # expansion
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = 1.5 * xbar - 0.5 * sim[-1]  # outside contraction
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:
                xc = 0.5 * xbar + 0.5 * sim[-1]  # inside contraction
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
