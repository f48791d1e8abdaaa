"""Built-in metric charts with their distinguished structures and the
classification claims they are expected to satisfy.

Each entry is a regression fixture: a chart family, default parameters,
probe points, a list of expectations with citations, and the registry of
what the entry names: its null lines (`null_lines`), its Robinson
structures / Hermitian distributions (`structures`) and the parameter
variants the regression runs (`variants`).  `run_expectations` evaluates
everything and returns a pass/fail ledger; evaluation failures are
recorded, not fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets as JT
from .chart import (
    DistributionSpec,
    MetricChart,
    check_cky,
    distribution_span,
    eigenstructure,
    integrability_residual,
    tau_degeneracy,
)
from .classes import project_class
from .frames import (
    build_robinson,
    complete_null_frame,
    robinson_from_span,
    sample_robinson_over_null_line,
)
from .jets import Jet
from .robclass import (
    aligned_residual,
    parallel_structure_relations,
    parallel_vector_relations,
    recurrent_line_relations,
    restriction_residual,
    special_residual,
)
from .simclass import decompose, probe_norms, weyl_type_at_frame, weyl_type_search
from .tensor import skew_arr


def _c(v):
    return v.conj() if isinstance(v, Jet) else np.conj(v)


@dataclass
class ExpectationResult:
    entry: str
    name: str
    citation: str
    passed: bool | None  # None = skipped
    residual: float | None = None
    detail: str = ""

    @property
    def status(self) -> str:
        if self.passed is None:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"


@dataclass
class CatalogEntry:
    name: str
    description: str
    build: Callable[[dict], MetricChart]
    default_params: dict
    sample_points: Callable[[dict], list]
    expectations: Callable[[MetricChart, dict, list], list]
    # named null lines at a chart point: (cp, params) -> {name: vector}
    null_lines: Callable[[object, dict], dict] = lambda cp, p: {}
    # named distributions: params -> {name: DistributionSpec}
    structures: Callable[[dict], dict] = lambda p: {}
    # parameter overrides the regression runs (None: the defaults)
    variants: tuple = (None,)

    def chart(self, params: dict | None = None) -> MetricChart:
        p = dict(self.default_params)
        if params:
            p.update(params)
        return self.build(p)


def run_expectations(entry: CatalogEntry, params: dict | None = None, points=None) -> list:
    p = dict(entry.default_params)
    if params:
        p.update(params)
    chart = entry.build(p)
    pts = points if points is not None else entry.sample_points(p)
    try:
        return entry.expectations(chart, p, pts)
    except Exception as exc:  # recorded, not fatal
        return [ExpectationResult(entry.name, "evaluation", "", False, None, f"error: {exc}")]


def _res(entry, name, cite, value, tol) -> ExpectationResult:
    return ExpectationResult(entry, name, cite, bool(value <= tol), float(value))


def _flag(entry, name, cite, ok, detail="") -> ExpectationResult:
    return ExpectationResult(entry, name, cite, bool(ok), None, detail)


# --------------------------------------------------------------------------
# minkowski
# --------------------------------------------------------------------------


def _minkowski_chart(p):
    n = int(p["dim"])

    def g_fn(x):
        return [[(-1.0 if a == 0 else 1.0) if a == b else 0.0 for b in range(n)] for a in range(n)]

    return MetricChart("minkowski", n, (-1,) + (1,) * (n - 1), tuple(f"x{i}" for i in range(n)), g_fn, params=p)


def _minkowski_expect(chart, p, pts):
    cps = [chart.evaluate(pt) for pt in pts]
    out = [_res("minkowski", "riemann_vanishes", "flat space", np.abs(cp.riemann).max(), 1e-12) for cp in cps]
    label = weyl_type_search(np.zeros((chart.dim,) * 4), cps[0].g, grid_count=200, refine_steps=5)
    out.append(_flag("minkowski", "type_O", "vanishing Weyl tensor", label.type == "O", label.type))
    return out


MINKOWSKI = CatalogEntry(
    "minkowski",
    "flat space, any dimension",
    _minkowski_chart,
    {"dim": 6},
    lambda p: [np.zeros(int(p["dim"])), 0.3 * np.arange(int(p["dim"]))],
    _minkowski_expect,
)


# --------------------------------------------------------------------------
# pp-wave (parallel null vector) and Walker (parallel null line)
# --------------------------------------------------------------------------


def _pp_H(x, n, vacuum):
    u = x[0]
    xs = x[2:]
    H = (xs[0] * xs[0] - xs[1] * xs[1]) * (1 + 0.25 * u * u) + 0.7 * xs[0] * xs[1] * u
    if n >= 5:
        H = H + 0.2 * xs[0] * xs[2] + 0.1 * (xs[1] * xs[1] - xs[2] * xs[2])
    if not vacuum:
        H = H + 0.4 * (xs[0] * xs[0] + xs[1] * xs[1])
    return H


def _pp_chart(p):
    n = int(p["dim"])
    vacuum = bool(p.get("vacuum", True))

    def g_fn(x):
        H = _pp_H(x, n, vacuum)
        g = [[0.0] * n for _ in range(n)]
        g[0][0] = H
        g[0][1] = g[1][0] = 1.0
        for i in range(2, n):
            g[i][i] = 1.0
        return g

    return MetricChart("pp-wave", n, (-1,) + (1,) * (n - 1), ("u", "v") + tuple(f"x{i}" for i in range(n - 2)), g_fn, params=p)


def _pp_k_field(n):
    def fn(x):
        return [0.0, 1.0] + [0.0] * (n - 2)

    return fn


def _parallel_line(cp, p) -> dict:
    """The parallel (pp-wave) or recurrent (Walker) null line e_1 = d/dv."""
    k = np.zeros(cp.n)
    k[1] = 1.0
    return {"K": k}


def _pp_expect(chart, p, pts):
    n = chart.dim
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        nk = cp.covariant_derivative_vector(_pp_k_field(n))
        out.append(_res("pp-wave", "parallel_k", "nabla k = 0 for the wave vector", np.abs(nk).max(), 1e-12))
        if p.get("vacuum", True):
            out.append(_res("pp-wave", "ricci_flat", "vacuum pp-wave", np.abs(cp.ricci).max() / max(np.abs(cp.riemann).max(), 1e-300), 1e-10))
            out.append(
                _res("pp-wave", "cotton_vanishes", "Ricci-flat metrics have vanishing Cotton-York", np.abs(cp.cotton_york()).max() / max(cp.curvature_scale(), 1e-300), 1e-9)
            )
        fr = complete_null_frame(cp.g, _parallel_line(cp, p)["K"])
        rel = parallel_vector_relations(cp.weyl, cp.phi, cp.ricci_scalar, cp.riemann, fr)
        for name, val in rel.items():
            out.append(_res("pp-wave", f"parallel_vector:{name}", "parallel null vector curvature relations", val, 1e-9))
        label = weyl_type_at_frame(cp.weyl, fr)
        out.append(_flag("pp-wave", "type_N_or_O", "deep filtration forced by a parallel wave vector", label.type in ("N", "O"), label.type))
        N = build_robinson(fr, "standard")
        par = parallel_structure_relations(cp.weyl, cp.phi, cp.ricci_scalar, N)
        out.append(_res("pp-wave", "parallel_structure_blocks", "parallel Robinson structure curvature blocks", par.max_residual(), 1e-9))
        out.append(_flag("pp-wave", "parallel_structure_flags", "refined flags of a parallel structure", par.gs_flags_hold and all(par.extra_flags.values()), str(par.extra_flags)))
    return out


PP_WAVE = CatalogEntry(
    "pp-wave",
    "plane-fronted wave with parallel rays",
    _pp_chart,
    {"dim": 6, "vacuum": True},
    lambda p: [np.array([0.2, 0.0] + [0.3, -0.4, 0.5, 0.1, 0.2][: int(p["dim"]) - 2]), np.array([-0.4, 1.0] + [0.8, 0.2, -0.3, 0.4, -0.1][: int(p["dim"]) - 2])],
    _pp_expect,
    null_lines=_parallel_line,
)


def _walker_chart(p):
    n = int(p["dim"])

    def g_fn(x):
        u, v = x[0], x[1]
        xs = x[2:]
        H = v * (0.4 + 0.3 * xs[0]) + (xs[0] * xs[0] - xs[1] * xs[1]) + 0.1 * u
        g = [[0.0] * n for _ in range(n)]
        g[0][0] = H
        g[0][1] = g[1][0] = 1.0
        for i in range(2, n):
            g[i][i] = 1.0
        return g

    return MetricChart("walker", n, (-1,) + (1,) * (n - 1), ("u", "v") + tuple(f"x{i}" for i in range(n - 2)), g_fn, params=p)


def _walker_expect(chart, p, pts):
    n = chart.dim
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        nk = cp.covariant_derivative_vector(_pp_k_field(n))
        k = _parallel_line(cp, p)["K"]
        # recurrence: nabla_a k^b = alpha_a k^b
        alpha = nk[:, 1]
        resid = np.abs(nk - np.outer(alpha, k)).max()
        out.append(_res("walker", "recurrent_k", "parallel null line: nabla k proportional to k", resid, 1e-12))
        out.append(_flag("walker", "not_parallel", "recurrence is strict (nabla k != 0)", np.abs(nk).max() > 1e-6, f"|nabla k| = {np.abs(nk).max():.2e}"))
        fr = complete_null_frame(cp.g, k)
        rel = recurrent_line_relations(cp.weyl, cp.phi, cp.ricci_scalar, cp.riemann, fr)
        for name, val in rel.items():
            if name in ("recurrent_curvature", "Pi_0^1(C)", "Pi_-1^0(F)", "Pi_0^0_relation", "Pi_0^2_relation"):
                out.append(_res("walker", f"recurrent_line:{name}", "parallel null line curvature relations", val, 1e-9))
    return out


WALKER = CatalogEntry(
    "walker",
    "metric with a parallel null line (recurrent, non-parallel k)",
    _walker_chart,
    {"dim": 6},
    lambda p: [np.array([0.1, 0.7] + [0.4, -0.2, 0.3, 0.5, 0.1][: int(p["dim"]) - 2]), np.array([0.5, -0.3] + [0.2, 0.6, -0.4, 0.1, 0.3][: int(p["dim"]) - 2])],
    _walker_expect,
    null_lines=_parallel_line,
)


# --------------------------------------------------------------------------
# Schwarzschild in Kerr-Schild form
# --------------------------------------------------------------------------


def _ks_chart(name, p, k_and_H):
    n = int(p["dim"])

    def g_fn(x):
        kvec, H = k_and_H(x, p)
        g = [[0.0] * n for _ in range(n)]
        for a in range(n):
            g[a][a] = -1.0 if a == 0 else 1.0
        for a in range(n):
            for b in range(n):
                g[a][b] = g[a][b] + H * kvec[a] * kvec[b]
        return g

    return MetricChart(name, n, (-1,) + (1,) * (n - 1), ("t",) + tuple(f"x{i}" for i in range(1, n)), g_fn, params=p)


def _schw_k_and_H(x, p):
    n = int(p["dim"])
    M = float(p["M"])
    r2 = x[1] * x[1]
    for a in range(2, n):
        r2 = r2 + x[a] * x[a]
    r = r2.sqrt()
    kvec = [1.0] + [x[a] / r for a in range(1, n)]
    H = 2.0 * M / r ** (n - 3)
    return kvec, H


def _schwarzschild_chart(p):
    n = int(p["dim"])
    M = float(p["M"])
    rmin = 0.05 * (2 * M) ** (1.0 / max(n - 3, 1))

    chart = _ks_chart("schwarzschild", p, _schw_k_and_H)
    chart.domain = lambda pt: float(np.linalg.norm(pt[1:])) > rmin
    return chart


def schwarzschild_null_lines(cp) -> dict:
    """The two distinguished null directions dt +- dr (L null-corrected)."""
    n = cp.n
    x = cp.point[1:]
    r = np.linalg.norm(x)
    k_low = np.concatenate([[1.0], x / r])
    l_low = np.concatenate([[1.0], -x / r])
    k_up = cp.g_inv @ k_low
    l_up = cp.g_inv @ l_low
    l_up = l_up - (l_up @ cp.g @ l_up) / (2.0 * (l_up @ cp.g @ k_up)) * k_up
    return {"K": k_up, "L": l_up}


def _schw_expect(chart, p, pts):
    out = []
    rng = np.random.default_rng(12)
    for pt in pts:
        cp = chart.evaluate(pt)
        scale = cp.curvature_scale()
        out.append(_res("schwarzschild", "ricci_flat", "vacuum solution", np.abs(cp.ricci).max() / scale, 1e-10))
        out.append(_res("schwarzschild", "cotton_vanishes", "Ricci-flat metrics have vanishing Cotton-York", np.abs(cp.cotton_york()).max() / scale, 1e-9))
        if chart.dim == 4 and abs(float(p["M"]) - 1.0) < 1e-12:
            r = np.linalg.norm(pt[1:])
            out.append(
                _res("schwarzschild", "kretschmann", "48 M^2 / r^6 in four dimensions", abs(cp.kretschmann - 48.0 / r**6), 1e-9 * abs(cp.kretschmann))
            )
        Cn = np.linalg.norm(cp.weyl.ravel())
        for name, kvec in schwarzschild_null_lines(cp).items():
            fr = complete_null_frame(cp.g, kvec)
            dec = decompose("C", cp.weyl, fr, "sim")
            out.append(_flag("schwarzschild", f"type_II_at_{name}", "type D(bcd) in the null alignment sense", dec.filtration_vanishing(-1), str(dec.boost_weights())))
            pn = probe_norms("C", cp.weyl, fr)
            out.append(_res("schwarzschild", f"Pi_1^1_at_{name}", "algebraically special along every incident structure", pn[(1, 1)] / Cn, 1e-9))
            samples = sample_robinson_over_null_line(fr, 10, rng_seed=7)
            worst = max(special_residual(cp.weyl, N) for N in samples)
            out.append(_res("schwarzschild", f"special_samples_at_{name}", "special for sampled incident structures", worst, 1e-9))
    return out


SCHWARZSCHILD = CatalogEntry(
    "schwarzschild",
    "Kerr-Schild Schwarzschild black hole, n = 4..7",
    _schwarzschild_chart,
    {"dim": 5, "M": 1.0},
    lambda p: [
        np.array([0.0, 3.0, 1.0, 0.5, 0.2, 0.4, 0.1][: int(p["dim"])]),
        np.array([0.0, 2.0, -1.5, 1.0, 0.6, -0.2, 0.3][: int(p["dim"])]),
        np.array([0.5, -2.5, 2.0, 0.8, -0.5, 0.3, -0.4][: int(p["dim"])]),
    ],
    _schw_expect,
    null_lines=lambda cp, p: schwarzschild_null_lines(cp),
)


# --------------------------------------------------------------------------
# Myers-Perry (n = 5) in Kerr-Schild form
# --------------------------------------------------------------------------


def _mp_r_jet(x, p):
    """Kerr-Schild radial function r as a jet (implicit Newton iteration)."""
    a = (float(p["a1"]), float(p["a2"]))
    R2 = [x[1] * x[1] + x[2] * x[2], x[3] * x[3] + x[4] * x[4]]
    # value by bisection + Newton on rho = r^2
    R2v = [v.value if isinstance(v, Jet) else float(v) for v in R2]

    def f(rho):
        return sum(R2v[i] / (rho + a[i] ** 2) for i in range(2)) - 1.0

    lo, hi = 1e-12, sum(R2v) + 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    rho_val = 0.5 * (lo + hi)
    rho = Jet.constant(rho_val, x[0].nvar if isinstance(x[0], Jet) else 5)
    for _ in range(4):
        F = R2[0] / (rho + a[0] ** 2) + R2[1] / (rho + a[1] ** 2) - 1.0
        dF = -(R2[0] / (rho + a[0] ** 2) ** 2 + R2[1] / (rho + a[1] ** 2) ** 2)
        rho = rho - F / dF
    return rho.sqrt()


def _mp_k_and_H(x, p):
    a = (float(p["a1"]), float(p["a2"]))
    M = float(p["M"])
    r = _mp_r_jet(x, p)
    kvec = [1.0]
    pairs = [(x[1], x[2]), (x[3], x[4])]
    for i, (xi, yi) in enumerate(pairs):
        den = r * r + a[i] ** 2
        kvec.append((r * xi + a[i] * yi) / den)
        kvec.append((r * yi - a[i] * xi) / den)
    R2 = [x[1] * x[1] + x[2] * x[2], x[3] * x[3] + x[4] * x[4]]
    U = (1.0 - sum(a[i] ** 2 * R2[i] / (r * r + a[i] ** 2) ** 2 for i in range(2))) * (r * r + a[0] ** 2) * (
        r * r + a[1] ** 2
    ) / (r * r)
    return kvec, 2.0 * M / U


def _mp_chart(p):
    chart = _ks_chart("myers-perry", p, _mp_k_and_H)

    def dom(pt):
        a = (float(p["a1"]), float(p["a2"]))
        R2 = [pt[1] ** 2 + pt[2] ** 2, pt[3] ** 2 + pt[4] ** 2]

        def f(rho):
            return sum(R2[i] / (rho + a[i] ** 2) for i in range(2)) - 1.0

        return f(0.04) > 0  # keep r^2 comfortably positive

    chart.domain = dom
    return chart


def mp_cky_field(p):
    """Principal conformal Killing-Yano 2-form in Kerr-Schild coordinates.

    phi = (x.dx) ^ dt + a_1 dx_1 ^ dy_1 + a_2 dx_2 ^ dy_2 -- polynomial
    and mass-independent (found as the one-dimensional kernel of the CKY
    operator over a structured ansatz; eigenvalues come out +-r).
    """
    a = (float(p["a1"]), float(p["a2"]))

    def fn(x):
        n = 5
        rho = [x[v] for v in range(1, n)]  # spatial radial covector x.dx
        phi = [[0.0] * n for _ in range(n)]
        for v in range(1, n):
            phi[0][v] = phi[0][v] + rho[v - 1]
            phi[v][0] = phi[v][0] - rho[v - 1]
        phi[1][2] = phi[1][2] + a[0]
        phi[2][1] = phi[2][1] - a[0]
        phi[3][4] = phi[3][4] + a[1]
        phi[4][3] = phi[4][3] - a[1]
        return phi

    return fn


def mp_null_lines(cp, p) -> dict:
    x = cp.point
    a = (float(p["a1"]), float(p["a2"]))
    xj = JT.jet_point(cp.point, 5)
    r = _mp_r_jet(xj, p).value
    out = {}
    for sign, name in ((1.0, "K"), (-1.0, "L")):
        rr = sign * r
        low = [1.0 if sign > 0 else -1.0]
        pairs = [(x[1], x[2]), (x[3], x[4])]
        for i, (xi, yi) in enumerate(pairs):
            den = rr * rr + a[i] ** 2
            low.append(sign * (rr * xi + a[i] * yi) / den)
            low.append(sign * (rr * yi - a[i] * xi) / den)
        up = cp.g_inv @ np.array(low)
        nrm = up @ cp.g @ up
        if abs(nrm) > 1e-10:
            kref = out.get("K")
            up = up - nrm / (2.0 * (up @ cp.g @ kref)) * kref
        out[name] = up
    return out


def mp_eigen_structures(cp, p) -> list:
    """The 2^m Robinson structures from the principal CKY eigenplanes."""
    phi = cp.eval_covector_field(mp_cky_field(p))[0].real
    es = eigenstructure(phi, cp.g)
    vals, vecs = es["eigenvalues"], es["eigenvectors"]
    real_idx = [i for i, v in enumerate(vals) if abs(v.imag) < 1e-8 * max(abs(v), 1.0) and abs(v) > 1e-8]
    imag_idx = [i for i, v in enumerate(vals) if v.imag > 1e-8]
    structures = []
    for ri in real_idx:
        kvec = vecs[:, ri]
        big = np.argmax(np.abs(kvec))
        kvec = (kvec / kvec[big]).real
        for ii in imag_idx:
            for w in (vecs[:, ii], np.conj(vecs[:, ii])):
                structures.append(robinson_from_span(cp.g, [kvec.astype(complex), w]))
    return structures


def _mp_expect(chart, p, pts):
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        scale = cp.curvature_scale()
        out.append(_res("myers-perry", "ricci_flat", "vacuum rotating black hole", np.abs(cp.ricci).max() / scale, 1e-9))
        cky = mp_cky_field(p)
        rep = check_cky(cp, cky)
        out.append(_res("myers-perry", "cky_residual", "principal conformal Killing-Yano 2-form", rep.residual, 1e-9))
        phi = cp.eval_covector_field(cky)[0].real
        es = eigenstructure(phi, cp.g)
        xj = JT.jet_point(pt, 5)
        r = _mp_r_jet(xj, p).value
        vals = es["eigenvalues"]
        reals = sorted(v.real for v in vals if abs(v.imag) < 1e-8 and abs(v) > 1e-8)
        out.append(
            _flag(
                "myers-perry",
                "cky_eigenvalues",
                "two real eigenvalues +-r, the rest imaginary",
                len(reals) == 2 and abs(reals[0] + r) < 1e-8 and abs(reals[1] - r) < 1e-8,
                f"reals={reals}, r={r:.6f}",
            )
        )
        structures = mp_eigen_structures(cp, p)
        worst = max(special_residual(cp.weyl, N) for N in structures)
        out.append(_res("myers-perry", "special_eigen_structures", "special along the CKY eigen-structures", worst, 1e-8))
        out.append(_flag("myers-perry", "structure_count", "2^m structures from the eigenplanes", len(structures) == 4, str(len(structures))))
        for name, kvec in mp_null_lines(cp, p).items():
            fr = complete_null_frame(cp.g, kvec)
            dec = decompose("C", cp.weyl, fr, "sim")
            out.append(_flag("myers-perry", f"type_II_at_{name}", "Kerr-Schild direction is a multiple WAND", dec.filtration_vanishing(-1), str(dec.boost_weights())))
    return out


MYERS_PERRY = CatalogEntry(
    "myers-perry",
    "five-dimensional rotating black hole, Kerr-Schild form",
    _mp_chart,
    {"M": 1.0, "a1": 0.3, "a2": 0.2, "dim": 5},
    lambda p: [np.array([0.0, 2.2, 0.5, 1.2, -0.6]), np.array([0.3, -1.5, 1.8, 0.4, 1.1])],
    _mp_expect,
    null_lines=mp_null_lines,
)


# --------------------------------------------------------------------------
# static Kaluza-Klein bubble (n = 5)
# --------------------------------------------------------------------------


def _kk_chart(p):
    M = float(p["M"])

    def g_fn(x):
        t, r, z, xi, eta = x
        f = 1.0 - M / r
        conf = 2.0 * r / (1.0 + xi * xi + eta * eta)
        g = [[0.0] * 5 for _ in range(5)]
        g[0][0] = -1.0
        g[1][1] = 1.0 / f
        g[2][2] = f
        g[3][3] = conf * conf
        g[4][4] = conf * conf
        return g

    chart = MetricChart("kk-bubble", 5, (-1, 1, 1, 1, 1), ("t", "r", "z", "xi", "eta"), g_fn, params=p)
    chart.domain = lambda pt: pt[1] > M * 1.05
    return chart


def kk_structures(p) -> dict:
    """The four named structures: annihilator 1-forms of N and N^perp."""
    M = float(p["M"])

    def kappa(x):
        f = 1.0 - M / x[1]
        return [-1.0, 1.0 / f.sqrt(), 0.0, 0.0, 0.0]

    def lam(x):
        f = 1.0 - M / x[1]
        return [1.0, 1.0 / f.sqrt(), 0.0, 0.0, 0.0]

    def nu(x):
        f = 1.0 - M / x[1]
        return [0.0, 0.0, f.sqrt(), 0.0, 0.0]

    def mu(x):
        conf = 2.0 * x[1] / (1.0 + x[3] * x[3] + x[4] * x[4])
        return [0.0, 0.0, 0.0, conf, conf * 1j]

    def kappa_p(x):
        f = 1.0 - M / x[1]
        return [-1.0, 0.0, f.sqrt(), 0.0, 0.0]

    def lam_p(x):
        f = 1.0 - M / x[1]
        return [1.0, 0.0, f.sqrt(), 0.0, 0.0]

    def nu_p(x):
        f = 1.0 - M / x[1]
        return [0.0, 1.0 / f.sqrt(), 0.0, 0.0, 0.0]

    return {
        "kappa": DistributionSpec("kappa", [kappa, mu, nu], [kappa, mu]),
        "lambda": DistributionSpec("lambda", [lam, mu, nu], [lam, mu]),
        "kappa_prime": DistributionSpec("kappa_prime", [kappa_p, mu, nu_p], [kappa_p, mu]),
        "lambda_prime": DistributionSpec("lambda_prime", [lam_p, mu, nu_p], [lam_p, mu]),
    }


def _kk_expect(chart, p, pts):
    out = []
    dists = kk_structures(p)
    for pt in pts:
        cp = chart.evaluate(pt)
        out.append(_res("kk-bubble", "ricci_flat", "product of Euclidean Schwarzschild and time", np.abs(cp.ricci).max() / cp.curvature_scale(), 1e-9))
        for name, dist in dists.items():
            res = integrability_residual(cp, dist)
            integrable = max(res.values()) < 1e-9
            expected = not name.endswith("prime")
            out.append(
                _flag("kk-bubble", f"integrable_{name}", "unprimed structures integrable, primed not", integrable == expected, f"residuals {res}")
            )
            N = robinson_from_span(cp.g, distribution_span(cp, dist))
            out.append(_res("kk-bubble", f"aligned_{name}", "Weyl alignment for all four structures", aligned_residual(cp.weyl, N), 1e-9))
            out.append(
                _flag("kk-bubble", f"not_special_{name}", "type G metric is nowhere special", special_residual(cp.weyl, N) > 1e-6, f"{special_residual(cp.weyl, N):.3e}")
            )
        label = weyl_type_search(cp.weyl, cp.g, grid_count=4000, refine_steps=40)
        out.append(
            _flag("kk-bubble", "type_G_floor", "no WAND: residual floor exceeds 1e-2", label.search["refined_floor"] > 1e-2, f"floor {label.search['refined_floor']:.4f}")
        )
    return out


KK_BUBBLE = CatalogEntry(
    "kk-bubble",
    "five-dimensional static Kaluza-Klein bubble",
    _kk_chart,
    {"M": 1.0},
    lambda p: [np.array([0.0, r, 0.3, 0.2, -0.4]) for r in (2.5, 3.0, 5.0)],
    _kk_expect,
    structures=kk_structures,
)


# --------------------------------------------------------------------------
# Robinson-Trautman (n = 6)
# --------------------------------------------------------------------------


def _rt_chart(p):
    M = float(p["M"])
    screen = p.get("screen", "flat")
    # vacuum requires H = Khat - 2M/r^3 with Khat the screen Einstein
    # constant in this package's curvature sign convention
    Khat = 0.0 if screen == "flat" else -1.0 / 3.0

    def g_fn(x):
        u, r = x[0], x[1]
        H = Khat - 2.0 * M / (r * r * r)
        g = [[0.0] * 6 for _ in range(6)]
        g[0][0] = H
        g[0][1] = g[1][0] = 1.0
        if screen == "flat":
            for i in range(2, 6):
                g[i][i] = r * r
        else:
            c1 = 2.0 / (1.0 + x[2] * x[2] + x[3] * x[3])
            c2 = 2.0 / (1.0 + x[4] * x[4] + x[5] * x[5])
            g[2][2] = g[3][3] = r * r * c1 * c1
            g[4][4] = g[5][5] = r * r * c2 * c2
        return g

    chart = MetricChart("robinson-trautman", 6, (-1,) + (1,) * 5, ("u", "r", "x1", "x2", "x3", "x4"), g_fn, params=p)
    chart.domain = lambda pt: pt[1] > 0.5
    return chart


def rt_null_lines(cp) -> dict:
    n = 6
    k = np.zeros(n)
    k[1] = 1.0
    H = cp.g[0, 0]
    l = np.zeros(n)
    l[0] = 1.0
    l[1] = -H / 2.0
    return {"K": k, "L": l}


def _rt_expect(chart, p, pts):
    out = []
    screen = p.get("screen", "flat")
    for pt in pts:
        cp = chart.evaluate(pt)
        scale = cp.curvature_scale()
        Cn = np.linalg.norm(cp.weyl.ravel())
        out.append(_res("robinson-trautman", "ricci_flat", "vacuum Robinson-Trautman", np.abs(cp.ricci).max() / scale, 1e-9))
        for name, kvec in rt_null_lines(cp).items():
            fr = complete_null_frame(cp.g, kvec)
            dec = decompose("C", cp.weyl, fr, "sim")
            out.append(_flag("robinson-trautman", f"type_II_at_{name}", "type D null directions", dec.filtration_vanishing(-1), str(dec.boost_weights())))
            for key in ((0, 1), (0, 2)):
                out.append(_res("robinson-trautman", f"Pi_0^{key[1]}_at_{name}", "vanishing middle Weyl pieces", dec.norm_ij(*key) / Cn, 1e-9))
            n03 = dec.norm_ij(0, 3)
            if screen == "flat":
                out.append(_res("robinson-trautman", f"Pi_0^3_at_{name}", "flat screen: no screen Weyl", n03 / Cn, 1e-9))
            else:
                out.append(_flag("robinson-trautman", f"Pi_0^3_nonzero_at_{name}", "screen Weyl survives for the sphere product", n03 / Cn > 1e-6, f"{n03/Cn:.3e}"))
            # the mixed (k, e_i, l, e_j) block of the scalar piece is
            # proportional to the screen metric
            img = dec.image((0, 0))
            blk = np.einsum("abcd,a,c->bd", img, fr.k, fr.l)
            h = np.array([fr.screen[i] for i in range(4)])
            piv_screen = h @ blk @ h.T
            dev = piv_screen - np.trace(piv_screen) / 4.0 * np.eye(4)
            out.append(_res("robinson-trautman", f"Pi_0^0_proportional_h_at_{name}", "scalar piece proportional to the screen metric", np.abs(dev).max() / max(np.abs(piv_screen).max(), 1e-300), 1e-9))
        # product structure is special; a mixed one is not (sphere screen)
        k = rt_null_lines(cp)["K"]
        fr = complete_null_frame(cp.g, k)
        prod = robinson_from_span(cp.g, [k.astype(complex), _rt_m(cp, 0), _rt_m(cp, 1)])
        out.append(_res("robinson-trautman", "special_product_structure", "product Hermitian structure is special", special_residual(cp.weyl, prod), 1e-9))
        if screen == "spheres":
            mixed = _rt_mixed_structure(cp)
            out.append(
                _flag("robinson-trautman", "mixed_not_special", "sphere-mixing structure fails the special condition", special_residual(cp.weyl, mixed) > 1e-6, f"{special_residual(cp.weyl, mixed):.3e}")
            )
    return out


def _rt_m(cp, which):
    v = np.zeros(6, dtype=complex)
    a = 2 + 2 * which
    v[a] = 1.0
    v[a + 1] = -1.0j
    s = v @ cp.g.astype(complex) @ np.conj(v)
    return v / np.sqrt(abs(s) / 2.0)


def _rt_mixed_structure(cp):
    fr = complete_null_frame(cp.g, rt_null_lines(cp)["K"])
    # rotate the screen by mixing the two sphere blocks
    th = 0.7
    O = np.eye(4)
    O[1, 1] = O[2, 2] = np.cos(th)
    O[1, 2] = -np.sin(th)
    O[2, 1] = np.sin(th)
    return build_robinson(fr.rotate_screen(O), "standard")


ROBINSON_TRAUTMAN = CatalogEntry(
    "robinson-trautman",
    "six-dimensional vacuum Robinson-Trautman, flat or sphere-product screen",
    _rt_chart,
    {"M": 1.0, "screen": "flat"},
    lambda p: [np.array([0.0, 3.0, 0.3, -0.2, 0.4, 0.1]), np.array([0.7, 4.0, -0.5, 0.3, 0.2, -0.3])],
    _rt_expect,
    null_lines=lambda cp, p: rt_null_lines(cp),
    variants=(None, {"screen": "spheres"}),
)


# --------------------------------------------------------------------------
# Taub-NUT (n = 6, product of two spheres base)
# --------------------------------------------------------------------------


def _tn_F(x_r, p):
    coeffs = p.get("F", None)
    if coeffs is None:
        return 1.0 + 0.1 * x_r * x_r  # generic positive profile
    out = 0.0
    for c in reversed(list(coeffs)):
        out = out * x_r + c
    return out


def _tn_chart(p):
    N2, N3 = float(p["N2"]), float(p["N3"])

    def g_fn(x):
        t, r = x[0], x[1]
        F = _tn_F(r, p)
        A = _tn_A(x, p)
        g = [[0.0] * 6 for _ in range(6)]
        dt_plus_A = [1.0 if a == 0 else A[a] for a in range(6)]
        for a in range(6):
            for b in range(6):
                g[a][b] = g[a][b] - F * dt_plus_A[a] * dt_plus_A[b]
        g[1][1] = g[1][1] + 1.0 / F
        for i, (Nc, xi_i, eta_i) in enumerate(((N2, x[2], x[3]), (N3, x[4], x[5]))):
            conf = 2.0 / (1.0 + xi_i * xi_i + eta_i * eta_i)
            w = (r * r + Nc * Nc) * conf * conf
            a0 = 2 + 2 * i
            g[a0][a0] = g[a0][a0] + w
            g[a0 + 1][a0 + 1] = g[a0 + 1][a0 + 1] + w
        return g

    chart = MetricChart("taub-nut", 6, (-1,) + (1,) * 5, ("t", "r", "x1", "x2", "x3", "x4"), g_fn, params=p)
    chart.domain = lambda pt: pt[1] > 0.3
    return chart


def _tn_A(x, p):
    """Potential with dA = 2 sum_C N_C (2 i mu^C wedge mubar_C)."""
    N2, N3 = float(p["N2"]), float(p["N3"])
    A = [0.0] * 6
    for i, Nc in enumerate((N2, N3)):
        xi_i, eta_i = x[2 + 2 * i], x[3 + 2 * i]
        den = 1.0 + xi_i * xi_i + eta_i * eta_i
        A[2 + 2 * i] = -4.0 * Nc * eta_i / den
        A[3 + 2 * i] = 4.0 * Nc * xi_i / den
    return A


def taub_nut_structures(p) -> dict:
    """The 2^m annihilator-form structures {kappa/lambda, theta or bar}."""
    out = {}

    def make_kappa(sign):
        def fn(x):
            F = _tn_F(x[1], p)
            A = _tn_A(x, p)
            sq = F.sqrt() if isinstance(F, Jet) else np.sqrt(F)
            base = [sq if a == 0 else sq * A[a] for a in range(6)]
            out = [0.0] * 6
            for a in range(6):
                out[a] = sign * base[a]
            out[1] = out[1] + 1.0 / sq
            return [v * (2.0 ** -0.5) for v in out]

        return fn

    def make_mu(i, conj):
        def fn(x):
            xi_i, eta_i = x[2 + 2 * i], x[3 + 2 * i]
            conf = 2.0 / (1.0 + xi_i * xi_i + eta_i * eta_i)
            v = [0.0] * 6
            v[2 + 2 * i] = conf
            v[3 + 2 * i] = conf * (-1j if conj else 1j)
            return v

        return fn

    for sign, base in ((1.0, "kappa"), (-1.0, "lambda")):
        for c2 in (False, True):
            for c3 in (False, True):
                name = f"{base}_{'b' if c2 else 'h'}{'b' if c3 else 'h'}"
                out[name] = DistributionSpec(name, [make_kappa(sign), make_mu(0, c2), make_mu(1, c3)])
    return out


def _tn_expect(chart, p, pts):
    out = []
    dists = taub_nut_structures(p)
    for pt in pts:
        cp = chart.evaluate(pt)
        for name, dist in dists.items():
            N = robinson_from_span(cp.g, distribution_span(cp, dist))
            out.append(
                _res("taub-nut", f"special_{name}", "special for every listed structure, regardless of F", special_residual(cp.weyl, N), 1e-9)
            )
        if p.get("F") is None:
            out.append(ExpectationResult("taub-nut", "einstein_F", "Einstein expectations need a user-supplied F", None, None, "skipped: F not supplied"))
        else:
            out.append(_res("taub-nut", "einstein_check", "Einstein condition for the supplied F", np.abs(cp.phi).max() / max(cp.curvature_scale(), 1e-300), 1e-8))
    return out


TAUB_NUT = CatalogEntry(
    "taub-nut",
    "six-dimensional Taub-NUT over a product of spheres",
    _tn_chart,
    {"N2": 0.4, "N3": 0.7, "F": None},
    lambda p: [np.array([0.0, 2.0, 0.3, -0.2, 0.5, 0.1]), np.array([0.4, 3.0, -0.6, 0.2, 0.1, 0.4])],
    _tn_expect,
    structures=taub_nut_structures,
)


# --------------------------------------------------------------------------
# Iwasawa manifold (Riemannian, n = 6)
# --------------------------------------------------------------------------


def iwasawa_thetas(x):
    x1, y1, x2, y2, x3, y3 = x
    i = 1j
    z1 = x1 + y1 * i
    return [
        [1, i, 0, 0, 0, 0],
        [0, 0, 1, i, 0, 0],
        [0, 0, z1, z1 * i, -1, -i],
    ]


def _iwasawa_chart(p):
    def g_fn(x):
        ths = iwasawa_thetas(x)
        g = [[0.0] * 6 for _ in range(6)]
        for th in ths:
            for a in range(6):
                for b in range(6):
                    g[a][b] = g[a][b] + (th[a] * _c(th[b]) + _c(th[a]) * th[b]) * 0.5
        return g

    return MetricChart("iwasawa", 6, (1,) * 6, ("x1", "y1", "x2", "y2", "x3", "y3"), g_fn, params=p)


def iwasawa_phi_field(x):
    ths = iwasawa_thetas(x)
    out = [[0.0] * 6 for _ in range(6)]
    for w, th in zip((1.0, 1.0, 3.0), ths):
        for a in range(6):
            for b in range(6):
                out[a][b] = out[a][b] + 0.5j * w * (th[a] * _c(th[b]) - _c(th[a]) * th[b])
    return out


def iwasawa_distributions(ab_samples=((1.0, 0.0), (0.0, 1.0), (1.0, 0.7), (1.0, 0.3 + 0.4j))) -> dict:
    def th(idx, conj=False):
        def fn(x):
            t = iwasawa_thetas(x)[idx]
            return [_c(v) for v in t] if conj else list(t)

        return fn

    def ab_form(a, b, first):
        def fn(x):
            t1, t2 = iwasawa_thetas(x)[0], iwasawa_thetas(x)[1]
            if first:
                return [a * t1[i] + b * t2[i] for i in range(6)]
            return [b * _c(t1[i]) - a * _c(t2[i]) for i in range(6)]

        return fn

    out = {
        "N0": DistributionSpec("N0", [th(0), th(1), th(2)]),
        "N12": DistributionSpec("N12", [th(0, True), th(1, True), th(2)]),
    }
    for i, (a, b) in enumerate(ab_samples):
        out[f"Nab{i}"] = DistributionSpec(f"Nab{i}", [ab_form(a, b, True), ab_form(a, b, False), th(2)])
    return out


def iwasawa_quoted_combos(pt):
    xj = JT.jet_point(np.asarray(pt, dtype=float), 6)
    ths = [np.array([(v.c[0] if isinstance(v, Jet) else complex(v)) for v in th]) for th in iwasawa_thetas(xj)]
    sym = lambda t: 0.5 * (np.outer(t, np.conj(t)) + np.outer(np.conj(t), t))
    wdg = lambda t: 0.5j * (np.outer(t, np.conj(t)) - np.outer(np.conj(t), t))
    return {
        "nu": (sym(ths[0]) + sym(ths[1])).real,
        "beta": sym(ths[2]).real,
        "mu": (wdg(ths[0]) + wdg(ths[1])).real,
        "alpha": wdg(ths[2]).real,
        "thetas": ths,
    }


def iwasawa_quoted_weyl(pt):
    """The Weyl tensor assembled from the quoted block combination."""
    combos = iwasawa_quoted_combos(pt)
    NU, BE, MU, AL = combos["nu"], combos["beta"], combos["mu"], combos["alpha"]
    skewp = lambda x: skew_arr(skew_arr(x, (0, 1)), (2, 3))
    return (
        -0.5 * (np.einsum("ab,cd->abcd", MU, MU) - skewp(np.einsum("ac,db->abcd", MU, MU)))
        + 0.5
        * (
            np.einsum("ab,cd->abcd", MU, AL)
            + np.einsum("ab,cd->abcd", AL, MU)
            - 2.0 * skewp(np.einsum("ac,db->abcd", MU, AL))
        )
        + 0.7 * skewp(np.einsum("ac,db->abcd", NU, NU))
        + 0.6 * np.einsum("ab,cd->abcd", AL, AL)
        - 0.6 * skewp(np.einsum("ac,db->abcd", NU, BE))
    )


def iwasawa_quoted_cotton(pt, g, g_inv):
    """Class projection of thbar3 (x) (th1 ^ th2) + c.c. (shape of the quoted A)."""
    combos = iwasawa_quoted_combos(pt)
    t1, t2, t3 = combos["thetas"]
    w12 = 0.5 * (np.outer(t1, t2) - np.outer(t2, t1))
    raw = np.einsum("a,bc->abc", np.conj(t3), w12)
    raw = raw + np.conj(raw)
    return project_class("A", raw.real, g, g_inv, 6)


def _iwasawa_expect(chart, p, pts):
    out = []
    dists = iwasawa_distributions()
    kappas = []
    for pt in pts:
        cp = chart.evaluate(pt)
        out.append(_res("iwasawa", "scalar_curvature", "R = 2", abs(cp.ricci_scalar - 2.0), 1e-10))
        combos = iwasawa_quoted_combos(pt)
        target = (2.0 / 3.0) * combos["nu"] - (4.0 / 3.0) * combos["beta"]
        out.append(_res("iwasawa", "phi_formula", "Phi = (2/3) nu - (4/3) beta", np.abs(cp.phi - target).max(), 1e-9))
        out.append(
            _res("iwasawa", "weyl_formula", "Weyl tensor from the invariant 2-tensor blocks", np.abs(cp.weyl - iwasawa_quoted_weyl(pt)).max(), 1e-9)
        )
        rep = check_cky(cp, iwasawa_phi_field)
        out.append(_res("iwasawa", "cky_residual", "Killing-Yano 2-form", rep.residual, 1e-9))
        out.append(_res("iwasawa", "killing_yano_coclosed", "K = 0 (co-closed)", np.abs(rep.K).max(), 1e-10))
        out.append(_flag("iwasawa", "tau_nonzero", "d phi = 3 tau is nonzero", np.abs(rep.tau).max() > 1e-6, f"|tau| = {np.abs(rep.tau).max():.3f}"))
        # Cotton-York: fit the single calibration constant
        A = cp.cotton_york()
        quoted = iwasawa_quoted_cotton(pt, cp.g, cp.g_inv)
        kappa = float(np.dot(A.ravel(), quoted.ravel()) / np.dot(quoted.ravel(), quoted.ravel()))
        resid = np.abs(A - kappa * quoted).max() / max(np.abs(A).max(), 1e-300)
        kappas.append(kappa)
        out.append(_res("iwasawa", "cotton_shape", "Cotton-York proportional to the quoted 3-tensor", resid, 1e-9))
        phi_val = cp.eval_covector_field(iwasawa_phi_field)[0].real
        es = eigenstructure(phi_val, cp.g)
        vecvals = sorted(es["eigenvalues"], key=lambda z: z.imag)
        expected_vec = [-3, -1, -1, 1, 1, 3]
        err = max(abs(v - 1j * e) for v, e in zip(vecvals, expected_vec))
        out.append(_res("iwasawa", "phi_vector_eigenvalues", "endomorphism spectrum {+-i, +-i, +-3i}", float(err), 1e-10))
        spin = es["pure_spinor_spectrum"]
        expected_spin = np.array(sorted([1.25j, -1.25j, 0.25j, -0.25j, 0.75j, -0.75j, 0.75j, -0.75j], key=lambda z: (round(z.real, 10), round(z.imag, 10))))
        out.append(_res("iwasawa", "phi_spinor_spectrum", "pure spinor spectrum {+-5i/4, +-i/4, +-3i/4 x2}", float(np.abs(spin - expected_spin).max()), 1e-10))
        for name, dist in dists.items():
            res = integrability_residual(cp, dist)
            integrable = max(res.values()) < 1e-9
            expected = name != "N12"
            out.append(_flag("iwasawa", f"integrable_{name}", "N0 and Nab integrable; N12 not", integrable == expected, f"residuals {res}"))
            deg = tau_degeneracy(cp, dist, rep.tau)
            out.append(
                _flag("iwasawa", f"tau_degenerate_{name}", "tau nondegenerate exactly on N12", (deg < 1e-9) == expected, f"tau-restriction {deg:.3e}")
            )
            span = np.array(distribution_span(cp, dist))
            worstC = restriction_residual(cp.weyl, (span, span, span, np.eye(6)))
            out.append(_res("iwasawa", f"special_{name}", "Weyl special for every eigen-structure", worstC, 1e-9))
            degA = restriction_residual(A, span)
            out.append(
                _flag("iwasawa", f"cotton_degenerate_{name}", "Cotton-York degenerate except on N12", (degA < 1e-9) == expected, f"A-restriction {degA:.3e}")
            )
    spread = max(kappas) - min(kappas)
    out.append(_res("iwasawa", "cotton_kappa_constant", "calibration constant stable across points", spread, 1e-9 * max(abs(k) for k in kappas)))
    return out


IWASAWA = CatalogEntry(
    "iwasawa",
    "Iwasawa nilmanifold (Riemannian), Killing-Yano 2-form and Hermitian structures",
    _iwasawa_chart,
    {},
    lambda p: [np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.7]), np.array([-0.1, 0.4, 0.2, -0.3, 0.6, 0.2])],
    _iwasawa_expect,
    structures=lambda p: iwasawa_distributions(),
)


ENTRIES = {
    e.name: e
    for e in (
        MINKOWSKI,
        PP_WAVE,
        WALKER,
        SCHWARZSCHILD,
        MYERS_PERRY,
        KK_BUBBLE,
        ROBINSON_TRAUTMAN,
        TAUB_NUT,
        IWASAWA,
    )
}


def catalog_entries() -> list:
    return [ENTRIES[k] for k in sorted(ENTRIES)]
