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

from .classes import frame_metric
from .modules import n_to_m_eps
from .tensor import levi_civita, skew_arr, transform_slots


class FrameError(ValueError):
    pass


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

    def residuals(self) -> dict:
        g, k, l = self.g, self.k, self.l
        res = {
            "k.k": float(k @ g @ k),
            "l.l": float(l @ g @ l),
            "k.l-1": float(k @ g @ l - 1.0),
        }
        for i, e in enumerate(self.screen):
            res[f"k.e{i}"] = float(k @ g @ e)
            res[f"l.e{i}"] = float(l @ g @ e)
            for j, f in enumerate(self.screen[i:], start=i):
                target = 1.0 if i == j else 0.0
                res[f"e{i}.e{j}"] = float(e @ g @ f - target)
        return res

    def max_residual(self) -> float:
        return max(abs(v) for v in self.residuals().values())

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

    def swap_kl(self) -> "NullFrame":
        return NullFrame(self.g, self.l, self.k, self.screen)


def complete_null_frame(g: np.ndarray, k: np.ndarray, tol: float = 1e-10) -> NullFrame:
    """Deterministic completion of a null vector to an adapted frame.

    Gram-Schmidt over the coordinate basis in fixed order; degenerate
    candidates are skipped, so the output is reproducible.
    """
    g = np.asarray(g, dtype=float)
    k = np.asarray(k, dtype=float)
    if not (np.isfinite(g).all() and np.isfinite(k).all()):
        raise FrameError("g and k must have finite components")
    n = g.shape[0]
    knorm = np.linalg.norm(k)
    if knorm == 0.0:
        raise FrameError("k is zero")
    scale = np.abs(g).max() * knorm**2
    if abs(k @ g @ k) > 1e-8 * max(scale, 1e-300):
        raise FrameError(f"k is not null: g(k,k) = {k @ g @ k}")
    gk = g @ k
    # dual null direction from the first usable coordinate basis vector
    cand = np.abs(gk)
    cmax = cand.max()
    idx = next(a for a in range(n) if cand[a] > 0.1 * cmax)
    w = np.zeros(n)
    w[idx] = 1.0 / gk[idx]
    l = w - 0.5 * float(w @ g @ w) * k
    l = l / float(l @ g @ k)
    l = l - 0.5 * float(l @ g @ l) * k  # second pass for round-off
    screen = []
    for a in range(n):
        v = np.zeros(n)
        v[a] = 1.0
        for _ in range(2):  # twice-iterated Gram-Schmidt for stability
            v = v - float(v @ g @ l) * k - float(v @ g @ k) * l
            for e in screen:
                v = v - float(v @ g @ e) * e
        nv2 = float(v @ g @ v)
        if nv2 > 1e-12 * max(1.0, np.abs(g).max()):
            screen.append(v / np.sqrt(nv2))
        if len(screen) == n - 2:
            break
    if len(screen) != n - 2:
        raise FrameError("could not complete the screen basis")
    frame = NullFrame(g, k, l, tuple(screen))
    if frame.max_residual() > 1e-9 * max(1.0, np.abs(g).max()):
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
    eta = frame_metric(n)
    return _orientation_det(NullFrame(eta, np.eye(n)[0], np.eye(n)[n - 1], tuple(np.eye(n)[1 : n - 1])))


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


def build_robinson(frame: NullFrame, J_spec, u_index: int | None = None) -> RobinsonStructure:
    """Adapt a frame to a screen complex structure.

    ``J_spec`` is a skew matrix with J^2 = -1 acting on the screen basis
    (for odd n: on the screen with the ``u_index`` vector removed, default
    the last).  The returned structure carries an equivalent J-adapted frame.
    """
    n = frame.n
    m, eps = n_to_m_eps(n)
    d = n - 2
    if isinstance(J_spec, str) and J_spec == "standard":
        J_spec = standard_J(d - eps)
    J = np.asarray(J_spec, dtype=float)
    if J.shape != (d - eps, d - eps):
        raise FrameError(f"J must be {(d - eps, d - eps)}, got {J.shape}")
    if np.linalg.norm(J + J.T) > 1e-9 or np.linalg.norm(J @ J + np.eye(d - eps)) > 1e-9:
        raise FrameError("J_spec fails skewness or J^2 = -1")
    if eps:
        u_index = d - 1 if u_index is None else u_index
        plane_idx = [i for i in range(d) if i != u_index]
        u_vec = frame.screen[u_index]
    else:
        plane_idx = list(range(d))
        u_vec = None
    plane = [frame.screen[i] for i in plane_idx]
    # adapted coefficient basis: pairs (c, Jc)
    coeffs = []
    dimp = d - eps
    for seed in range(dimp):
        c = np.zeros(dimp)
        c[seed] = 1.0
        for prev in coeffs:
            c = c - (c @ prev) * prev
        nc = np.linalg.norm(c)
        if nc < 1e-8:
            continue
        c = c / nc
        jc = J.T @ c  # action: (J v)_b = v_a J[a, b]
        coeffs.extend([c, jc])
        if len(coeffs) == dimp:
            break
    if len(coeffs) != dimp:
        raise FrameError("failed to adapt the screen basis to J")
    new_screen = [sum(c[i] * plane[i] for i in range(dimp)) for c in coeffs]
    if eps:
        new_screen.append(u_vec)
    new_frame = NullFrame(frame.g, frame.k, frame.l, tuple(new_screen))
    ori = orientation_of(new_frame)
    N = RobinsonStructure(new_frame, ori)
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
        N = build_robinson(frame.rotate_screen(Q), "standard")
        w = N.omega()
        scale = max(np.abs(w).max(), 1e-30)
        if any(np.abs(w - prev).max() < 1e-6 * scale for prev in seen):
            continue
        seen.append(w)
        out.append(N)
    return out


def robinson_from_span(g: np.ndarray, span: list[np.ndarray], tol: float = 1e-9) -> RobinsonStructure:
    """Robinson structure from a spanning set of the complex null m-plane."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    m, eps = n_to_m_eps(n)
    V = np.array([np.asarray(v, dtype=complex) for v in span])
    # orthonormal column space of the span (SVD: robust to ordering)
    u0, s0, _ = np.linalg.svd(V.T, full_matrices=False)
    q = u0[:, : int(np.sum(s0 > 1e-10 * s0[0]))]
    if q.shape[1] != m:
        raise FrameError(f"span has rank {q.shape[1]}, expected {m}")
    # real intersection with the conjugate plane: vectors with q c = conj(q) d
    M = np.hstack([q, -np.conj(q)])
    u_, s_, vt = np.linalg.svd(M)
    null = vt[np.sum(s_ > 1e-10 * s_[0]) :].conj().T
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
    if abs(k @ g @ k) > tol * max(1.0, np.abs(g).max()):
        raise FrameError("real intersection is not null")
    frame = complete_null_frame(g, k)
    # project the plane onto the screen to extract J
    cof = frame.coframe
    span_screen = []
    for col in range(m):
        v = q[:, col]
        comps = cof @ v  # frame components
        span_screen.append(comps[1 : n - 1])
    S = np.array(span_screen)  # rows: screen parts of N-spanners
    # (1,0) subspace of the complexified screen: rank m-1
    u1, s1, _ = np.linalg.svd(S.T, full_matrices=False)
    rank = int(np.sum(s1 > 1e-9 * max(s1[0], 1e-30)))
    qs = u1[:, :rank]
    if rank != m - 1:
        raise FrameError(f"screen part of the span has rank {rank}, expected {m - 1}")
    P = qs @ qs.conj().T  # projector onto (1,0)
    # endomorphism with +i on (1,0): M = i (P - conj(P)); J row-convention J.T = M
    M = np.real(1j * (P - P.conj()))
    d = n - 2
    if eps:
        # kernel of M is the u direction; rotate it to the last screen slot
        w, vecs = np.linalg.eigh(M @ M.T)
        u_dir = vecs[:, np.argmin(w)]
        O = _rotation_moving_to_last(u_dir)
        frame2 = frame.rotate_screen(O)
        Mrot = O @ M @ O.T
        N = build_robinson(frame2, Mrot[: d - 1, : d - 1].T, u_index=d - 1)
    else:
        N = build_robinson(frame, M.T)
    # the input span must coincide with span{k, m_A}
    B = np.array(N.span_N()).T
    for v in span:
        coef, res, *_ = np.linalg.lstsq(B, np.asarray(v, dtype=complex), rcond=None)
        err = np.linalg.norm(B @ coef - v)
        if err > 1e-7 * max(np.linalg.norm(v), 1e-30):
            raise FrameError("reconstructed structure does not contain the input span")
    return N


def _rotation_moving_to_last(u_dir: np.ndarray) -> np.ndarray:
    d = len(u_dir)
    basis = [u_dir / np.linalg.norm(u_dir)]
    for a in range(d):
        v = np.zeros(d)
        v[a] = 1.0
        for b in basis:
            v = v - (v @ b) * b
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            basis.append(v / nv)
        if len(basis) == d:
            break
    O = np.array(basis[1:] + [basis[0]])
    return O


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
    rhs = 4.0 * skew_arr(skew_arr(kdelta, (0, 1)), (2, 3))
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


# --------------------------------------------------------------------------
# randomised inputs for property tests
# --------------------------------------------------------------------------


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
