"""Null frames and almost Robinson structures at a point.

A `NullFrame` is the adapted real frame (k, e_1..e_{n-2}, l) with
g(k,l) = 1 and an orthonormal screen; it realises the grading used by the
classification layers: frame components of a covariant tensor are its
contractions with the frame vectors, and the grade of a component counts
(l-slots) - (k-slots).

A `RobinsonStructure` always stores a J-adapted frame: the screen complex
structure is in standard form (pairs (e_1,e_2), (e_3,e_4), ..., with the
distinguished unit u last in odd dimension), so the complex null plane is
N = span{k, m_A} with m_A = (e_{2A-1} - i e_{2A})/sqrt(2).  Generality
lives in the frame vectors, not in the J matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .classes import frame_metric, kernel_rows
from .tensor import levi_civita, skew_arr, transform_slots


class FrameError(ValueError):
    pass


def n_to_m_eps(n: int) -> tuple[int, int]:
    """(m, eps) with n = 2m + eps: m - 1 complex screen vectors m_A, and u when eps = 1."""
    return n // 2, n % 2


@dataclass(frozen=True)
class NullFrame:
    g: np.ndarray  # metric components g_ab at the point
    k: np.ndarray  # null vector, up components
    l: np.ndarray
    screen: tuple  # n-2 orthonormal spacelike vectors

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @cached_property
    def vectors(self) -> np.ndarray:
        """Frame matrix, rows (k, e_1..e_{n-2}, l)."""
        return np.vstack([self.k, *self.screen, self.l])

    @cached_property
    def coframe(self) -> np.ndarray:
        """Rows theta^alpha with theta^alpha(E_beta) = delta."""
        return np.linalg.inv(self.vectors @ self.g @ self.vectors.T) @ self.vectors @ self.g

    def to_frame(self, arr: np.ndarray) -> np.ndarray:
        """Frame components of an all-lower tensor."""
        return transform_slots(arr, self.vectors)

    def from_frame(self, F: np.ndarray) -> np.ndarray:
        """Coordinate components from frame components."""
        return transform_slots(F, self.coframe.T)

    def max_residual(self) -> float:
        """max |V g V^T - frame_metric(n)| over the frame matrix V."""
        V = self.vectors
        return float(np.abs(V @ self.g @ V.T - frame_metric(self.n)).max())

    def boost(self, lam: float) -> "NullFrame":
        return NullFrame(self.g, lam * self.k, self.l / lam, self.screen)

    def rotate_screen(self, O: np.ndarray) -> "NullFrame":
        new = tuple(sum(O[i, j] * self.screen[j] for j in range(len(self.screen))) for i in range(len(self.screen)))
        return NullFrame(self.g, self.k, self.l, new)

    def null_rotate_about_k(self, z: np.ndarray) -> "NullFrame":
        """k fixed; l -> l + z^i e_i - |z|^2 k / 2; e_i -> e_i - z_i k."""
        zv = sum(z[i] * self.screen[i] for i in range(len(self.screen)))
        new_l = self.l + zv - 0.5 * float(z @ z) * self.k
        new_screen = tuple(e - z[i] * self.k for i, e in enumerate(self.screen))
        return NullFrame(self.g, self.k, new_l, new_screen)


@lru_cache(maxsize=None)
def reference_frame(n: int) -> NullFrame:
    """The frame (k, e_1..e_{n-2}, l) = coordinate basis of `frame_metric(n)`; cached per n, read-only vectors."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return NullFrame(frame_metric(n), eye[0], eye[n - 1], tuple(eye[1 : n - 1]))


def orthonormal_basis(g: np.ndarray) -> np.ndarray:
    """Rows: timelike unit then spacelike units, diagonalising g."""
    w, v = np.linalg.eigh(g)
    order = np.argsort(w)
    cols = []
    for idx in order:
        val = w[idx]
        cols.append(v[:, idx] / np.sqrt(abs(val)))
    return np.array(cols)


def orthonormal_null_frame(w: np.ndarray) -> np.ndarray:
    """Adapted frame rows (k, e_1..e_{n-2}, l) at k = (1, w), for a unit w in R^{n-1}.

    The rows are components in an orthonormal basis, timelike first
    (`orthonormal_basis`), and V diag(-1, 1, ..., 1) V^T = `frame_metric(n)` up
    to round-off: l = (-1, w)/2, and the screen is rows 2..n-1
    of the Householder reflection H = I - v v^T / (1 + |w_1|), v = w + sign(w_1) e_1,
    which takes w to -sign(w_1) e_1; each row has time component 0.
    """
    n = w.shape[0] + 1
    v = w.copy()
    v[0] += 1.0 if w[0] >= 0.0 else -1.0
    V = np.zeros((n, n))
    V[0, 0], V[0, 1:] = 1.0, w
    V[1 : n - 1, 1:] = np.eye(n - 1)[1:] - np.outer(v[1:], v / (1.0 + abs(w[0])))
    V[n - 1, 0], V[n - 1, 1:] = -0.5, 0.5 * w
    return V


def complete_null_frame(g: np.ndarray, k: np.ndarray) -> NullFrame:
    """Deterministic completion of a null vector to an adapted frame.

    Ordered Gram-Schmidt over the coordinate basis, in matrix form: the
    candidates are the coordinate basis vectors with P = I - k (g l)^T -
    l (g k)^T, the projector off span{k, l}, applied twice; an ordered
    Cholesky factorisation of their Gram matrix skips each candidate whose
    pivot (its squared residual after the earlier kept ones) is degenerate
    and stops at n - 2 kept; the screen is L^{-1} times the kept candidates,
    re-orthonormalised once in g (CholeskyQR).  P is applied as
    v - g(v, l) k - g(v, k) l, never formed: the entries of P P cancel
    badly when |l| is large.  The output is reproducible, and every failure
    is a `FrameError`.
    """
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    if not (np.isfinite(g).all() and np.isfinite(k).all()):
        raise FrameError("g and k must have finite components")
    n = g.shape[0]
    knorm = np.linalg.norm(k)
    if knorm == 0.0:
        raise FrameError("k is zero")
    gmax = np.abs(g).max()
    scale = gmax * knorm**2
    if abs(k @ g @ k) > 1e-8 * max(scale, 1e-300):
        raise FrameError(f"k is not null: g(k,k) = {k @ g @ k}")
    gk = g @ k
    # dual null direction from the first usable coordinate basis vector
    cand = np.abs(gk)
    cmax = cand.max()
    if cmax == 0.0:
        raise FrameError("g k vanishes: k has no dual null direction")
    idx = int(np.argmax(cand > 0.1 * cmax))
    w = np.zeros(n)
    w[idx] = 1.0 / gk[idx]
    l = w - 0.5 * float(w @ g @ w) * k
    l = l / float(l @ g @ k)
    l = l - 0.5 * float(l @ g @ l) * k  # second pass for round-off
    gl = g @ l

    def project(rows):
        """P v = v - g(v, l) k - g(v, k) l for each row v."""
        return rows - np.outer(rows @ gl, k) - np.outer(rows @ gk, l)

    X = project(project(np.eye(n)))  # rows: the candidates; the second pass clears the first's round-off
    H = X @ g @ X.T
    floor = 1e-12 * max(1.0, gmax)
    L = np.zeros((n, n - 2))
    E = np.zeros((n - 2, n))
    j = 0
    for a in range(n):
        pivot = H[a, a] - L[a, :j] @ L[a, :j]
        if pivot > floor:
            L[a, j] = r = np.sqrt(pivot)
            L[a + 1 :, j] = (H[a + 1 :, a] - L[a + 1 :, :j] @ L[a, :j]) / r
            E[j] = (X[a] - L[a, :j] @ E[:j]) / r  # forward substitution: row j of L^{-1} X
            j += 1
            if j == n - 2:
                break
    if j != n - 2:
        raise FrameError("could not complete the screen basis")
    E = project(E)  # the substitution's round-off leaves parts along k and l
    try:
        E = np.linalg.solve(np.linalg.cholesky(E @ g @ E.T), E)
    except np.linalg.LinAlgError:
        raise FrameError("could not complete the screen basis") from None
    frame = NullFrame(g, k, l, tuple(E))
    if frame.max_residual() > 1e-9 * max(1.0, gmax):
        raise FrameError(f"frame completion failed, residual {frame.max_residual()}")
    return frame


# --------------------------------------------------------------------------
# Robinson structures
# --------------------------------------------------------------------------


def standard_J(dim_plane: int) -> np.ndarray:
    J = np.zeros((dim_plane, dim_plane))
    for a in range(dim_plane // 2):
        J[2 * a, 2 * a + 1] = 1.0
        J[2 * a + 1, 2 * a] = -1.0
    return J


@dataclass(frozen=True)
class RobinsonStructure:
    """Almost Robinson structure at a point, stored via a J-adapted frame."""

    frame: NullFrame
    orientation: int = 0  # +-1 when n even, 0 when odd

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def m_eps(self):
        return n_to_m_eps(self.n)

    @property
    def J(self) -> np.ndarray:
        m, eps = self.m_eps
        return standard_J(2 * (m - 1))

    @property
    def u_index(self):
        m, eps = self.m_eps
        return self.n - 3 if eps else None

    @property
    def u(self):
        return self.frame.screen[self.u_index] if self.u_index is not None else None

    def m_vectors(self) -> list[np.ndarray]:
        m, _ = self.m_eps
        return list(adapted_basis(self.frame)[1:m])

    def span_N(self) -> list[np.ndarray]:
        return [self.frame.k.astype(complex)] + self.m_vectors()

    def span_N_perp(self) -> list[np.ndarray]:
        out = self.span_N()
        if self.u is not None:
            out.append(self.u.astype(complex))
        return out

    def omega(self) -> np.ndarray:
        """Hermitian 2-form on the screen, as a full covariant 2-form."""
        g = self.frame.g
        s = [g @ e for e in self.frame.screen]
        m, eps = self.m_eps
        w = np.zeros((self.n, self.n))
        for a in range(m - 1):
            w += np.outer(s[2 * a], s[2 * a + 1]) - np.outer(s[2 * a + 1], s[2 * a])
        return w

    def nullity_residual(self) -> float:
        """max |g(X, Y)| over X, Y in the spanning set of N."""
        return float(np.abs(transform_slots(self.frame.g, np.array(self.span_N()))).max())

    def conjugate(self) -> "RobinsonStructure":
        """The complex-conjugate structure (J -> -J)."""
        m, eps = self.m_eps
        screen = list(self.frame.screen)
        for a in range(m - 1):
            screen[2 * a + 1] = -screen[2 * a + 1]
        fr = NullFrame(self.frame.g, self.frame.k, self.frame.l, tuple(screen))
        ori = -self.orientation if eps == 0 and (m % 2 == 0) else self.orientation
        return RobinsonStructure(fr, ori)

    def serialise(self) -> dict:
        return {
            "k": self.frame.k.tolist(),
            "l": self.frame.l.tolist(),
            "screen": [e.tolist() for e in self.frame.screen],
            "J": self.J.tolist(),
            "u_index": self.u_index,
            "orientation": int(self.orientation),
        }


def adapted_basis(frame: NullFrame) -> np.ndarray:
    """Rows k, m_A, mbar_A, (u,) l of the adapted complex frame of a J-adapted frame."""
    n = frame.n
    m, eps = n_to_m_eps(n)
    s = frame.screen
    ms = [(s[2 * a] - 1j * s[2 * a + 1]) / np.sqrt(2.0) for a in range(m - 1)]
    rows = [frame.k, *ms, *np.conj(ms)] + ([s[n - 3]] if eps else []) + [frame.l]
    return np.array(rows, dtype=complex)


def _orientation_det(frame: NullFrame) -> complex:
    return np.linalg.det(adapted_basis(frame).T) * np.sqrt(abs(np.linalg.det(frame.g)))


@lru_cache(maxsize=None)
def _reference_orientation_phase(n: int) -> complex:
    return _orientation_det(reference_frame(n))


def structure_sign(N: "RobinsonStructure") -> int:
    """Sign of the adapted-frame determinant against the reference phase.

    Equals the orientation tag for n even; for n odd it fixes the sign in
    the Hodge relation between the 3-form and the 2-form of the structure.
    """
    q = _orientation_det(N.frame) / _reference_orientation_phase(N.n)
    return int(np.sign(q.real))


def orientation_of(frame: NullFrame) -> int:
    """+-1 orientation tag of the adapted complex structure (n even), 0 for n odd."""
    return 0 if frame.n % 2 else structure_sign(RobinsonStructure(frame))


def hodge_relation_residuals(N: "RobinsonStructure") -> dict:
    """Residuals of the low-dimension duality relations of the forms.

    n = 4:  (1/3!) eps_a^{bcd} rho_bcd = -s k_a
    n = 5:  (1/3!) eps_ab^{cde} rho_cde = -s mu_ab
    with s the structure sign (the published prefactor of the second
    relation is convention-bound; the proportionality itself is exact).
    """
    g = N.frame.g
    n = N.n
    if n not in (4, 5):
        return {}
    forms = robinson_forms(N)
    eps = volume_form(g)
    rho_up = transform_slots(forms.rho, np.linalg.inv(g))
    s = structure_sign(N)
    if n == 4:
        dual = (1.0 / 6.0) * np.einsum("abcd,bcd->a", eps, rho_up)
        kb = g @ N.frame.k
        return {"k_from_rho": float(np.abs(dual + s * kb).max() / max(np.abs(kb).max(), 1e-300))}
    dual = (1.0 / 6.0) * np.einsum("abcde,cde->ab", eps, rho_up)
    mu = forms.mu
    return {"mu_from_rho": float(np.abs(dual + s * mu).max() / max(np.abs(mu).max(), 1e-300))}


def build_robinson(frame: NullFrame) -> RobinsonStructure:
    """The almost Robinson structure N = span{k, m_A} of a J-adapted frame.

    The screen is read in standard form: pairs (e_1, e_2), (e_3, e_4), ...,
    with u last when n is odd, and m_A = (e_{2A-1} - i e_{2A})/sqrt(2).  Any
    other structure on the frame's null line is this one on a rotated screen
    (`NullFrame.rotate_screen`).
    """
    N = RobinsonStructure(frame, orientation_of(frame))
    if N.nullity_residual() > 1e-9 * max(1.0, np.abs(frame.g).max()):
        raise FrameError("constructed plane is not totally null")
    return N


def sample_robinson_over_null_line(frame: NullFrame, count: int, rng_seed: int = 0) -> list[RobinsonStructure]:
    """Robinson structures sharing the frame's null line.

    Screen complex structures are drawn from the orthogonal-conjugation
    orbit of the standard one; when n is even both orientations are
    emitted.  Duplicates (e.g. the two structures at n = 4) are removed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = frame.n
    m, eps = n_to_m_eps(n)
    d = n - 2
    rng = np.random.default_rng(rng_seed)
    out, seen = [], []
    attempts = 0
    while len(out) < count and attempts < 20 * count + 40:
        attempts += 1
        A = rng.standard_normal((d, d))
        Q, _ = np.linalg.qr(A)
        if eps == 0:
            want_reflected = attempts % 2 == 0
            if (np.linalg.det(Q) < 0) != want_reflected:
                Q[:, -1] = -Q[:, -1]
        N = build_robinson(frame.rotate_screen(Q))
        w = N.omega()
        scale = max(np.abs(w).max(), 1e-30)
        if any(np.abs(w - prev).max() < 1e-6 * scale for prev in seen):
            continue
        seen.append(w)
        out.append(N)
    return out


def robinson_from_span(g: np.ndarray, span: list[np.ndarray]) -> RobinsonStructure:
    """Robinson structure from a spanning set of the complex null m-plane N.

    The real line of N is completed to a null frame; the screen parts of N
    have a Hermitian-orthonormal basis w_A, and the screen is rotated onto
    the polar factor of the rows sqrt(2) Re w_A, -sqrt(2) Im w_A (then
    m_A = w_A), followed at odd n by their unit normal u.  A span that is
    not a totally null m-plane of real index 1 is a `FrameError`.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    m, _ = n_to_m_eps(n)
    V = np.array([np.asarray(v, dtype=complex) for v in span])
    # orthonormal column space of the span (SVD: robust to ordering)
    u0, s0, _ = np.linalg.svd(V.T, full_matrices=False)
    q = u0[:, : int(np.sum(s0 > 1e-10 * s0[0]))]
    if q.shape[1] != m:
        raise FrameError(f"span has rank {q.shape[1]}, expected {m}")
    # real intersection with the conjugate plane: vectors with q c = conj(q) d
    null = kernel_rows(np.hstack([q, -np.conj(q)])).T
    reals = []
    for col in range(null.shape[1]):
        v = q @ null[:m, col]
        if np.linalg.norm(v) < 1e-12:
            continue
        # rotate the phase so the vector is real
        big = np.argmax(np.abs(v))
        v = v * np.exp(-1j * np.angle(v[big]))
        if np.abs(v.imag).max() < 1e-8 * np.abs(v.real).max():
            reals.append(v.real)
    if not reals:
        raise FrameError("span has real index 0: no real null line")
    k = reals[0] / np.linalg.norm(reals[0])
    if abs(k @ g @ k) > 1e-9 * max(1.0, np.abs(g).max()):
        raise FrameError("real intersection is not null")
    frame = complete_null_frame(g, k)
    S = (frame.coframe @ q)[1 : n - 1]  # columns: screen parts of the span's orthonormal basis
    w, s1, _ = np.linalg.svd(S, full_matrices=False)
    rank = int(np.sum(s1 > 1e-9 * max(s1[0], 1e-30)))
    if rank != m - 1:
        raise FrameError(f"screen part of the span has rank {rank}, expected {m - 1}")
    w = w[:, : m - 1]  # columns: a Hermitian-orthonormal basis w_A of the (1,0) screen space
    # m_A = (e_{2A-1} - i e_{2A})/sqrt(2) = w_A: rows sqrt(2) Re w_A and -sqrt(2) Im w_A
    p = 2 * (m - 1)
    rows = np.sqrt(2.0) * np.stack([w.real.T, -w.imag.T], axis=1).reshape(p, n - 2)
    U, _, Vt = np.linalg.svd(rows)  # polar factor U Vt[:p]; at odd n, Vt[p] is u
    N = build_robinson(frame.rotate_screen(np.vstack([U @ Vt[:p], Vt[p:]])))
    # the input span must coincide with span{k, m_A}
    B = np.array(N.span_N()).T
    for v in span:
        coef, res, *_ = np.linalg.lstsq(B, np.asarray(v, dtype=complex), rcond=None)
        err = np.linalg.norm(B @ coef - v)
        if err > 1e-7 * max(np.linalg.norm(v), 1e-30):
            raise FrameError("reconstructed structure does not contain the input span")
    return N


# --------------------------------------------------------------------------
# Robinson 2- and 3-forms
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RobinsonForms:
    rho: np.ndarray  # rank-3 antisymmetric, all-lower
    mu: np.ndarray | None  # rank-2 antisymmetric (odd dimension only)


def robinson_forms(N: RobinsonStructure) -> RobinsonForms:
    g = N.frame.g
    kb = g @ N.frame.k
    w = N.omega()
    rho = (
        np.einsum("a,bc->abc", kb, w)
        + np.einsum("b,ca->abc", kb, w)
        + np.einsum("c,ab->abc", kb, w)
    )
    mu = None
    if N.u is not None:
        ub = g @ N.u
        mu = np.outer(kb, ub) - np.outer(ub, kb)
    return RobinsonForms(rho, mu)


def robinson_form_residuals(N: RobinsonStructure) -> dict:
    """Residuals of the quadratic identities satisfied by (rho, mu)."""
    g = N.frame.g
    g_inv = np.linalg.inv(g)
    m, eps = N.m_eps
    forms = robinson_forms(N)
    rho = forms.rho
    kb = g @ N.frame.k
    lhs = np.einsum("ef,eab,fcd->abcd", g_inv, _raise2(rho, g_inv), rho)
    k_up = N.frame.k
    kdelta = np.einsum("a,c,bd->abcd", k_up, kb, np.eye(N.n))
    rhs = 4.0 * skew_arr(kdelta, (0, 1), (2, 3))
    if eps:
        mu = forms.mu
        mu_up = g_inv @ mu @ g_inv.T
        rhs = rhs - np.einsum("ab,cd->abcd", mu_up, mu)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1e-300)
    out = {"rho_identity": float(np.abs(lhs - rhs).max() / scale)}
    if eps:
        mu = forms.mu
        lhs2 = mu @ g_inv @ mu.T  # mu_{ac} mu_b^c
        scale2 = max(np.abs(lhs2).max(), np.abs(np.outer(kb, kb)).max(), 1e-300)
        out["mu_identity"] = float(np.abs(lhs2 - np.outer(kb, kb)).max() / scale2)
    return out


def _raise2(rho: np.ndarray, g_inv: np.ndarray) -> np.ndarray:
    """rho_e^{ab}: raise the last two slots."""
    return np.einsum("eab,ax,by->exy", rho, g_inv, g_inv)


def volume_form(g: np.ndarray) -> np.ndarray:
    """eps_{0...n-1} = +sqrt|det g| with the chart orientation."""
    n = g.shape[0]
    return levi_civita(n) * np.sqrt(abs(np.linalg.det(g)))
