"""Metric charts and pointwise curvature from metric derivative arrays.

A chart supplies closed-form metric components evaluable on jets.  Jets
only differentiate those closed forms (and closed-form tensor fields): one
jet pass per point is read off as the derivative arrays g, dg, d2g, d3g,
exact to round-off.  Christoffel symbols, Riemann, Ricci, Weyl, Schouten
and Cotton-York tensors, and the first derivatives the Cotton-York tensor
and the second Bianchi identity need, are plain tensor algebra on those
arrays, without finite-difference noise.

Curvature conventions, fixed package-wide:

    R_{abd}{}^c V^d = 2 nabla_[a nabla_b] V^c
    R_{abde} = R_{abd}{}^c g_{ce},   Ric_ab = R_{acb}{}^c,   R = Ric^a_a

With this sign the round 2-sphere has scalar curvature -2/r^2 and the
Iwasawa nilmanifold +2, matching the worked values this engine reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import jets as J
from .classes import kernel_rows, metric_wedge_part, weyl_trace_part
from .tensor import skew_arr, transform_slots


@dataclass
class MetricChart:
    name: str
    dim: int
    signature: tuple
    g_fn: Callable  # list of coordinate Jets -> nested (n, n) of Jet entries
    domain: Callable | None = None  # point -> bool
    params: dict = field(default_factory=dict)

    def contains(self, point) -> bool:
        if self.domain is None:
            return True
        return bool(self.domain(np.asarray(point, dtype=float)))

    def evaluate(self, point) -> "ChartPoint":
        point = np.asarray(point, dtype=float)
        if point.shape != (self.dim,):
            raise DomainError(f"point must have {self.dim} coordinates, got {point.size}")
        if not self.contains(point):
            raise DomainError(f"point {point.tolist()} outside the domain of chart '{self.name}'")
        return ChartPoint(self, point)


class DomainError(ValueError):
    pass


def _first_kind(d: np.ndarray) -> np.ndarray:
    """Gamma_abc = (d_b g_ac + d_c g_ab - d_a g_bc) / 2, and its derivatives.

    ``d[a, b, c, ...]`` is d_c d_... g_ab: the first metric derivative array
    or a higher one, whose extra derivative axes are carried along.
    """
    return 0.5 * (np.swapaxes(d, 1, 2) + d - np.moveaxis(d, 2, 0))


def _antisym_front(h: np.ndarray) -> np.ndarray:
    return h - np.swapaxes(h, 0, 1)


class ChartPoint:
    """All curvature data of a chart at one point (lazy, cached).

    Derivative arrays carry their derivative indices last:
    ``dg[a, b, e] = d_e g_ab``, ``dgamma[a, b, c, e] = d_e Gamma^a_bc``.
    """

    def __init__(self, chart: MetricChart, point: np.ndarray):
        self.chart = chart
        self.point = point
        self.n = chart.dim
        n = self.n
        x = J.jet_point(point, n)
        raw = chart.g_fn(x)
        G = J.stack_jets(raw, n)
        if np.iscomplexobj(G):
            if np.abs(G.imag).max() > 1e-10 * max(np.abs(G.real).max(), 1e-30):
                raise ValueError("metric function returned complex components")
            G = G.real
        if G.shape[:2] != (n, n):
            raise ValueError("metric function must return an n x n matrix")
        G = 0.5 * (G + np.swapaxes(G, 0, 1))
        self.g = G[..., 0]
        if abs(np.linalg.det(self.g)) < 1e-12:
            raise DomainError(f"metric singular at {point.tolist()}")
        self.g_inv = np.linalg.inv(self.g)
        self.dg, self.d2g, self.d3g = (J.jet_derivatives(G, n, k) for k in (1, 2, 3))
        self._fields: dict = {}  # field function -> (values, gradient)

    # --- metric and connection derivative arrays -------------------------

    @cached_property
    def _dg_inv(self) -> np.ndarray:
        """d_e g^ab = -g^ap d_e g_pq g^qb."""
        return -np.einsum("ap,pqe,qb->abe", self.g_inv, self.dg, self.g_inv)

    @cached_property
    def _gamma(self) -> tuple:
        """(Gamma^a_bc, d_e Gamma^a_bc)."""
        low, dlow = _first_kind(self.dg), _first_kind(self.d2g)
        gamma = np.einsum("ad,dbc->abc", self.g_inv, low)
        dgamma = np.einsum("ade,dbc->abce", self._dg_inv, low) + np.einsum("ad,dbce->abce", self.g_inv, dlow)
        return gamma, dgamma

    @cached_property
    def _d2gamma(self) -> np.ndarray:
        """d_ef Gamma^a_bc, with d_ef g^ab the derivative of -g^-1 (d_e g) g^-1."""
        low, dlow, d2low = _first_kind(self.dg), _first_kind(self.d2g), _first_kind(self.d3g)
        s = np.einsum("ape,pqf,qb->abef", self._dg_inv, self.dg, self.g_inv)
        d2g_inv = -np.einsum("ap,pqef,qb->abef", self.g_inv, self.d2g, self.g_inv) - s - np.swapaxes(s, 2, 3)
        t = np.einsum("ade,dbcf->abcef", self._dg_inv, dlow)
        return (
            np.einsum("adef,dbc->abcef", d2g_inv, low)
            + t
            + np.swapaxes(t, 3, 4)
            + np.einsum("ad,dbcef->abcef", self.g_inv, d2low)
        )

    @property
    def christoffel(self) -> np.ndarray:
        """Gamma^a_{bc} values."""
        return self._gamma[0]

    # --- curvature ------------------------------------------------------

    @cached_property
    def _riemann_up(self) -> np.ndarray:
        """R_{abd}{}^c = d_a Gamma^c_bd + Gamma^c_ae Gamma^e_bd - (a <-> b)."""
        gamma, dgamma = self._gamma
        return _antisym_front(np.einsum("cbda->abdc", dgamma) + np.einsum("cae,ebd->abdc", gamma, gamma))

    @cached_property
    def _d_riemann_up(self) -> np.ndarray:
        """d_f R_{abd}{}^c."""
        gamma, dgamma = self._gamma
        return _antisym_front(
            np.einsum("cbdaf->abdcf", self._d2gamma)
            + np.einsum("caef,ebd->abdcf", dgamma, gamma)
            + np.einsum("cae,ebdf->abdcf", gamma, dgamma)
        )

    @cached_property
    def _riemann_low(self) -> np.ndarray:
        return np.einsum("abdc,ce->abde", self._riemann_up, self.g)

    @property
    def riemann(self) -> np.ndarray:
        """R_abcd, all lower indices."""
        return self._riemann_low

    @property
    def ricci(self) -> np.ndarray:
        return np.einsum("acbc->ab", self._riemann_up)

    @property
    def ricci_scalar(self) -> float:
        return float(np.einsum("ab,ab->", self.g_inv, self.ricci))

    @property
    def phi(self) -> np.ndarray:
        """Tracefree Ricci."""
        return self.ricci - (self.ricci_scalar / self.n) * self.g

    @cached_property
    def _weyl(self) -> np.ndarray:
        n = self.n
        if n <= 3:
            raise ValueError("no Weyl tensor when n <= 3")
        return (
            self.riemann
            - (4.0 / (n - 2)) * weyl_trace_part(self.phi, self.g)
            - (2.0 / (n * (n - 1))) * self.ricci_scalar * metric_wedge_part(self.g)
        )

    @property
    def weyl(self) -> np.ndarray:
        return self._weyl

    @property
    def schouten(self) -> np.ndarray:
        n = self.n
        return (self.ricci - (self.ricci_scalar / (2.0 * (n - 1))) * self.g) / (n - 2)

    @cached_property
    def _cotton(self) -> np.ndarray:
        n = self.n
        dric = np.einsum("acbcf->abf", self._d_riemann_up)
        drs = np.einsum("abf,ab->f", self._dg_inv, self.ricci) + np.einsum("ab,abf->f", self.g_inv, dric)
        dP = (dric - (np.einsum("f,ab->abf", drs, self.g) + self.ricci_scalar * self.dg) / (2.0 * (n - 1))) / (n - 2)
        dP = np.moveaxis(dP, -1, 0)  # (d, a, b) = d_d P_ab
        P = self.schouten
        Gm = self.christoffel
        nab = dP - np.einsum("eda,eb->dab", Gm, P) - np.einsum("edb,ae->dab", Gm, P)
        return np.einsum("bca->abc", nab) - np.einsum("cba->abc", nab)

    def cotton_york(self) -> np.ndarray:
        """A_abc = 2 nabla_[b P_c]a with P the Schouten tensor, a fresh copy."""
        return self._cotton.copy()

    @property
    def kretschmann(self) -> float:
        return float(np.einsum("abcd,abcd->", self.riemann, transform_slots(self.riemann, self.g_inv)))

    def curvature_scale(self) -> float:
        return float(np.linalg.norm(self.riemann.ravel()))

    def riemann_symmetry_residuals(self) -> dict:
        r = self.riemann
        scale = max(np.abs(r).max(), 1e-300)
        return {
            "antisym_front": float(np.abs(r + np.transpose(r, (1, 0, 2, 3))).max() / scale),
            "antisym_back": float(np.abs(r + np.transpose(r, (0, 1, 3, 2))).max() / scale),
            "pair": float(np.abs(r - np.transpose(r, (2, 3, 0, 1))).max() / scale),
            "bianchi1": float(np.abs(skew_arr(r, (0, 1, 2))).max() / scale),
        }

    def second_bianchi_residual(self) -> float:
        d_low = np.einsum("abdcf,ce->abdef", self._d_riemann_up, self.g) + np.einsum(
            "abdc,cef->abdef", self._riemann_up, self.dg
        )
        dR = np.moveaxis(d_low, -1, 0)  # (f, a, b, c, d) = d_f R_abcd
        Rv = self.riemann
        Gm = self.christoffel
        nab = (
            dR
            - np.einsum("efa,ebcd->fabcd", Gm, Rv)
            - np.einsum("efb,aecd->fabcd", Gm, Rv)
            - np.einsum("efc,abed->fabcd", Gm, Rv)
            - np.einsum("efd,abce->fabcd", Gm, Rv)
        )
        resid = skew_arr(nab, (0, 1, 2))
        scale = max(np.abs(nab).max(), np.abs(Gm).max() * np.abs(Rv).max(), 1e-300)
        return float(np.abs(resid).max() / scale)

    # --- fields ---------------------------------------------------------

    def eval_covector_field(self, fn) -> tuple:
        """(values, gradient) of a vector or covector field; gradient[b, a] = d_a v_b.

        Each field function is evaluated once per point; the read-only arrays
        are kept under the function object, which the cache holds alive.
        """
        if fn not in self._fields:
            n = self.n
            comps = J.stack_jets(fn(J.jet_point(self.point, n)), n)
            vals, grad = comps[..., 0], J.jet_derivatives(comps, n, 1)
            vals.flags.writeable = grad.flags.writeable = False
            self._fields[fn] = (vals, grad)
        return self._fields[fn]

    def covariant_derivative_vector(self, fn) -> np.ndarray:
        """nabla_a X^b for a vector field."""
        vals, grad = self.eval_covector_field(fn)
        Gm = self.christoffel
        return np.transpose(grad, (1, 0)) + np.einsum("bae,e->ab", Gm, vals)


def frame_field_bracket(cp: ChartPoint, X_fn, Y_fn) -> np.ndarray:
    """[X, Y]^a = X^b d_b Y^a - Y^b d_b X^a at the point."""
    xv, xg = cp.eval_covector_field(X_fn)
    yv, yg = cp.eval_covector_field(Y_fn)
    return np.einsum("b,ab->a", xv, yg) - np.einsum("b,ab->a", yv, xg)


# --------------------------------------------------------------------------
# distributions and integrability
# --------------------------------------------------------------------------


@dataclass
class DistributionSpec:
    """A complex plane distribution given by closed-form annihilator 1-forms.

    ``forms`` annihilate N; ``perp_forms`` annihilate the orthogonal
    complement (defaults to ``forms``: in even dimension N^perp = N).
    """

    name: str
    forms: list
    perp_forms: list | None = None

    def all_checks(self):
        checks = [("N", self.forms)]
        if self.perp_forms is not None:
            checks.append(("Nperp", self.perp_forms))
        return checks


def integrability_residual(cp: ChartPoint, dist: DistributionSpec) -> dict:
    """Frobenius residuals: d(alpha)(X, Y) over X, Y in the kernel."""
    out = {}
    for label, forms in dist.all_checks():
        fields = [cp.eval_covector_field(fn) for fn in forms]
        span = kernel_rows([vals for vals, _ in fields])
        worst = 0.0
        for vals, grad in fields:
            # grad[b, a] = d_a alpha_b -> (d alpha)_{ab} = d_a alpha_b - d_b alpha_a
            dalpha = grad.T - grad
            scale = max(np.abs(dalpha).max(), np.abs(vals).max(), 1e-30)
            worst = max(worst, float(np.abs(transform_slots(dalpha, span)).max() / scale))
        out[label] = worst
    return out


def distribution_span(cp: ChartPoint, dist: DistributionSpec) -> list:
    return list(kernel_rows([cp.eval_covector_field(fn)[0] for fn in dist.forms]))


# --------------------------------------------------------------------------
# conformal Killing-Yano checker
# --------------------------------------------------------------------------


@dataclass
class CKYReport:
    residual: float
    tau: np.ndarray
    K: np.ndarray


def check_cky(cp: ChartPoint, phi_fn) -> CKYReport:
    """Residual of nabla_a phi_bc = tau_abc + 2 g_{a[b} K_{c]}."""
    n = cp.n
    phi, grad = cp.eval_covector_field(phi_fn)  # grad[b, c, a] = d_a phi_bc
    if np.abs(phi + phi.T).max() > 1e-9 * max(np.abs(phi).max(), 1e-30):
        raise ValueError("phi is not antisymmetric")
    Gm = cp.christoffel
    nab = np.transpose(grad, (2, 0, 1)) - np.einsum("eab,ec->abc", Gm, phi) - np.einsum("eac,be->abc", Gm, phi)
    tau = skew_arr(nab, (0, 1, 2))
    K = np.einsum("ab,abc->c", cp.g_inv, nab) / (n - 1.0)
    model = tau + np.einsum("ab,c->abc", cp.g, K) - np.einsum("ac,b->abc", cp.g, K)
    resid = float(np.abs(nab - model).max() / max(np.abs(nab).max(), 1e-30))
    return CKYReport(resid, tau, K)


def tau_degeneracy(cp: ChartPoint, dist: DistributionSpec, tau: np.ndarray) -> float:
    """max |tau(X, Y, Z)| over the N^perp spanning set (eq-tau condition)."""
    forms = dist.perp_forms if dist.perp_forms is not None else dist.forms
    span = kernel_rows([cp.eval_covector_field(fn)[0] for fn in forms])
    return float(np.abs(transform_slots(tau, span)).max() / max(np.abs(tau).max(), 1e-30))


def eigenstructure(phi: np.ndarray, g: np.ndarray) -> dict:
    """Eigen-data of the endomorphism phi_a{}^b = g^{bc} phi_ac.

    Returns the vector spectrum with its eigenvectors, and the combinatorial
    pure-spinor spectrum with the quarter-weight normalisation
    (gamma_(a gamma_b) = g_ab conventions) over the nonzero eigenvalues that
    pair as (lam, -lam), one per invariant plane.
    """
    M = np.linalg.inv(g) @ phi  # left action; eigenvectors with nonzero
    # eigenvalue are automatically g-null since g M is antisymmetric
    vals, vecs = np.linalg.eig(M)
    order = np.lexsort((vals.imag, vals.real))
    vals = vals[order]
    vecs = vecs[:, order]
    # pair eigenvalues: real pairs (lam, -lam), imaginary conjugate pairs
    used = np.zeros(len(vals), dtype=bool)
    lams = []
    for i, lam in enumerate(vals):
        if used[i]:
            continue
        used[i] = True
        if abs(lam) < 1e-10:
            continue
        for j in range(len(vals)):
            if not used[j] and abs(vals[j] + lam) < 1e-8 * max(abs(lam), 1.0):
                used[j] = True
                lams.append(lam)
                break
    spinor = []
    if len(lams) <= 12:
        for mask in range(1 << len(lams)):
            tot = 0.0 + 0.0j
            for b, lam in enumerate(lams):
                tot += lam if (mask >> b) & 1 else -lam
            spinor.append(0.25 * tot)
    return {
        "eigenvalues": vals,
        "eigenvectors": vecs,
        "pure_spinor_spectrum": np.array(sorted(spinor, key=lambda z: (round(z.real, 10), round(z.imag, 10)))),
    }
