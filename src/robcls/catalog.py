"""Built-in metric charts with their distinguished structures and the
classification claims they are expected to satisfy.

Each entry is a regression fixture: a chart family, its parameters,
probe points, a list of expectations with citations, the parameter
variants the regression runs (`variants`), and one registry of what the
entry names (`named`): its null lines and its Robinson structures, each
declared once as a field.  `CatalogEntry.null_lines` and
`CatalogEntry.structure` read that registry at a chart point, for
`classify`, the expectations and the tests alike.  Each parameter is
declared once, as name -> (default, domain), and `CatalogEntry.chart`
validates them all.  `run_expectations` evaluates everything and returns a
pass/fail ledger; evaluation failures are recorded, not fatal.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
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
    FrameError,
    RobinsonStructure,
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
from .simclass import decompose, weyl_type_at_frame, weyl_type_search
from .tensor import skew_arr


def _c(v):
    return v.conj() if isinstance(v, Jet) else np.conj(v)


@dataclass
class ExpectationResult:
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


def _admits(domain, v) -> bool:
    if isinstance(domain, range):
        return type(v) is int and v in domain
    if isinstance(domain, tuple):
        return any(type(v) is type(c) and v == c for c in domain)
    if domain is list:
        return type(v) is list and v != [] and all(_admits(float, c) for c in v)
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _domain_text(domain) -> str:
    if isinstance(domain, range):
        return str(domain[0]) if len(domain) == 1 else f"an integer in {domain[0]}..{domain[-1]}"
    if isinstance(domain, tuple):
        return "one of " + ", ".join(map(json.dumps, domain))
    return "a nonempty list of finite real numbers" if domain is list else "a finite real number"


@dataclass(frozen=True)
class Registry:
    """An entry's named null lines and Robinson structures at one parameter set.

    A line is a vector field (jets -> n components), K first.  A structure is a `DistributionSpec` of closed-form
    annihilators (the first the real null covector kappa of its line K = g^-1 kappa), or, where the structure is
    algebraic at a point, a builder cp -> RobinsonStructure.
    """

    lines: dict = field(default_factory=dict)
    structures: dict = field(default_factory=dict)


@dataclass
class CatalogEntry:
    name: str
    build: Callable[[dict], MetricChart]
    # each parameter once: name -> (default, domain). A domain is a range of
    # integers, a tuple of choices, float (finite reals) or list (nonempty
    # lists of finite reals); a None default is optional and not reported
    parameters: dict
    sample_points: Callable[[dict], list]
    expectations: Callable[[MetricChart, dict, list], list]
    # the named null lines and structures: params -> Registry
    named: Callable[[dict], Registry] = lambda p: Registry()
    # parameter overrides the regression runs (None: the defaults)
    variants: tuple = (None,)
    _registries: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def default_params(self) -> dict:
        return {name: default for name, (default, _) in self.parameters.items()}

    def chart(self, params: dict | None = None) -> MetricChart:
        """The chart at the defaults updated by ``params``; an undeclared name or inadmissible value is a ValueError."""
        p = self.default_params
        for name, value in (params or {}).items():
            if name not in self.parameters:
                raise ValueError(f"unknown parameter {json.dumps(name)} (declared: {', '.join(map(json.dumps, self.parameters))})")
            default, domain = self.parameters[name]
            if not (value is None and default is None or _admits(domain, value)):
                raise ValueError(f"{name} must be {_domain_text(domain)}, got {json.dumps(value)}")
            p[name] = value
        return self.build(p)

    def registry(self, params: dict) -> Registry:
        """`named` at ``params``, built once per parameter set: each field keeps its per-point cache in `ChartPoint.eval_covector_field`."""
        key = json.dumps(params, sort_keys=True)
        if key not in self._registries:
            self._registries[key] = self.named(params)
        return self._registries[key]

    def null_lines(self, cp) -> dict:
        """The named null lines at a chart point, as vectors; each after K is moved along K until it is null."""
        lines = {}
        for name, fn in self.registry(cp.chart.params).lines.items():
            v = cp.eval_covector_field(fn)[0]
            if lines:
                k = lines["K"]
                v = v - (v @ cp.g @ v) / (2.0 * (v @ cp.g @ k)) * k
            lines[name] = v
        return lines

    def structure(self, cp, name: str) -> RobinsonStructure:
        """The named structure at a chart point: the kernel of its annihilators, or its pointwise builder."""
        spec = self.registry(cp.chart.params).structures[name]
        if isinstance(spec, DistributionSpec):
            return robinson_from_span(cp.g, distribution_span(cp, spec))
        return spec(cp)


def run_expectations(entry: CatalogEntry, params: dict | None = None, points=None) -> list:
    chart = entry.chart(params)
    pts = points if points is not None else entry.sample_points(chart.params)
    try:
        return entry.expectations(chart, chart.params, pts)
    except Exception as exc:  # recorded, not fatal
        return [ExpectationResult("evaluation", "", False, None, f"error: {exc}")]


def _res(name, cite, value, tol) -> ExpectationResult:
    return ExpectationResult(name, cite, bool(value <= tol), float(value))


def _flag(name, cite, ok, detail="") -> ExpectationResult:
    return ExpectationResult(name, cite, bool(ok), None, detail)


# --------------------------------------------------------------------------
# minkowski
# --------------------------------------------------------------------------


def _minkowski_chart(p):
    n = int(p["dim"])

    def g_fn(x):
        return [[(-1.0 if a == 0 else 1.0) if a == b else 0.0 for b in range(n)] for a in range(n)]

    return MetricChart("minkowski", n, (-1,) + (1,) * (n - 1), g_fn, params=p)


def _minkowski_expect(chart, p, pts):
    cps = [chart.evaluate(pt) for pt in pts]
    out = [_res("riemann_vanishes", "flat space", np.abs(cp.riemann).max(), 1e-12) for cp in cps]
    label = weyl_type_search(np.zeros((chart.dim,) * 4), cps[0].g, grid_count=200, refine_steps=5)
    out.append(_flag("type_O", "vanishing Weyl tensor", label.type == "O", label.type))
    return out


MINKOWSKI = CatalogEntry(
    "minkowski",
    _minkowski_chart,
    {"dim": (6, range(4, 10))},
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
    vacuum = p["vacuum"]

    def g_fn(x):
        H = _pp_H(x, n, vacuum)
        g = [[0.0] * n for _ in range(n)]
        g[0][0] = H
        g[0][1] = g[1][0] = 1.0
        for i in range(2, n):
            g[i][i] = 1.0
        return g

    return MetricChart("pp-wave", n, (-1,) + (1,) * (n - 1), g_fn, params=p)


def _dv_named(p) -> Registry:
    """The parallel (pp-wave) or recurrent (Walker) null line K = d/dv."""
    n = int(p["dim"])
    return Registry(lines={"K": lambda x: [0.0, 1.0] + [0.0] * (n - 2)})


def _pp_expect(chart, p, pts):
    k_field = PP_WAVE.registry(p).lines["K"]
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        nk = cp.covariant_derivative_vector(k_field)
        out.append(_res("parallel_k", "nabla k = 0 for the wave vector", np.abs(nk).max(), 1e-12))
        if p["vacuum"]:
            out.append(_res("ricci_flat", "vacuum pp-wave", np.abs(cp.ricci).max() / max(np.abs(cp.riemann).max(), 1e-300), 1e-10))
            out.append(
                _res("cotton_vanishes", "Ricci-flat metrics have vanishing Cotton-York", np.abs(cp.cotton_york()).max() / max(cp.curvature_scale(), 1e-300), 1e-9)
            )
        fr = complete_null_frame(cp.g, PP_WAVE.null_lines(cp)["K"])
        rel = parallel_vector_relations(cp.weyl, cp.phi, cp.ricci_scalar, cp.riemann, fr)
        for name, val in rel.items():
            out.append(_res(f"parallel_vector:{name}", "parallel null vector curvature relations", val, 1e-9))
        label = weyl_type_at_frame(cp.weyl, fr)
        out.append(_flag("type_N_or_O", "deep filtration forced by a parallel wave vector", label.type in ("N", "O"), label.type))
        N = build_robinson(fr)
        par = parallel_structure_relations(cp.weyl, cp.phi, cp.ricci_scalar, cp.riemann, N)
        out.append(_res("parallel_structure_blocks", "parallel Robinson structure curvature blocks", par.max_residual(), 1e-9))
        out.append(_flag("parallel_structure_flags", "refined flags of a parallel structure", par.gs_flags_hold and all(par.extra_flags.values()), str(par.extra_flags)))
    return out


PP_WAVE = CatalogEntry(
    "pp-wave",
    _pp_chart,
    {"dim": (6, range(4, 10)), "vacuum": (True, (True, False))},
    lambda p: [np.array([0.2, 0.0] + [0.3, -0.4, 0.5, 0.1, 0.2, -0.3, 0.4][: int(p["dim"]) - 2]), np.array([-0.4, 1.0] + [0.8, 0.2, -0.3, 0.4, -0.1, 0.6, -0.2][: int(p["dim"]) - 2])],
    _pp_expect,
    named=_dv_named,
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

    return MetricChart("walker", n, (-1,) + (1,) * (n - 1), g_fn, params=p)


def _walker_expect(chart, p, pts):
    k_field = WALKER.registry(p).lines["K"]
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        nk = cp.covariant_derivative_vector(k_field)
        k = WALKER.null_lines(cp)["K"]
        # recurrence: nabla_a k^b = alpha_a k^b
        alpha = nk[:, 1]
        resid = np.abs(nk - np.outer(alpha, k)).max()
        out.append(_res("recurrent_k", "parallel null line: nabla k proportional to k", resid, 1e-12))
        out.append(_flag("not_parallel", "recurrence is strict (nabla k != 0)", np.abs(nk).max() > 1e-6, f"|nabla k| = {np.abs(nk).max():.2e}"))
        fr = complete_null_frame(cp.g, k)
        rel = recurrent_line_relations(cp.weyl, cp.phi, cp.ricci_scalar, cp.riemann, fr)
        for name, val in rel.items():
            if name in ("recurrent_curvature", "Pi_0^1(C)", "Pi_-1^0(F)", "Pi_0^0_relation", "Pi_0^2_relation"):
                out.append(_res(f"recurrent_line:{name}", "parallel null line curvature relations", val, 1e-9))
    return out


WALKER = CatalogEntry(
    "walker",
    _walker_chart,
    {"dim": (6, range(4, 10))},
    lambda p: [np.array([0.1, 0.7] + [0.4, -0.2, 0.3, 0.5, 0.1, -0.6, 0.2][: int(p["dim"]) - 2]), np.array([0.5, -0.3] + [0.2, 0.6, -0.4, 0.1, 0.3, -0.2, 0.5][: int(p["dim"]) - 2])],
    _walker_expect,
    named=_dv_named,
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

    return MetricChart(name, n, (-1,) + (1,) * (n - 1), g_fn, params=p)


def _ks_line(k):
    """eta^ab k_b: g^ab k_b for the Kerr-Schild covector (null for eta and g); for the partner at r -> -r it is
    off by a multiple of K, which `CatalogEntry.null_lines` fixes when it makes the line null."""
    return [-k[0]] + k[1:]


def _schw_r(x):
    r2 = x[1] * x[1]
    for a in range(2, len(x)):
        r2 = r2 + x[a] * x[a]
    return r2.sqrt()


def _schw_k(x, r):
    """The Kerr-Schild covector dt + x.dx / r."""
    inv = 1.0 / r
    return [1.0] + [x[a] * inv for a in range(1, len(x))]


def _schw_k_and_H(x, p):
    r = _schw_r(x)
    return _schw_k(x, r), 2.0 * float(p["M"]) / r ** (int(p["dim"]) - 3)


def _schw_named(p) -> Registry:
    """K: the Kerr-Schild line, dt + dr lowered; L: its partner dt - dr, at r -> -r."""
    return Registry(lines={"K": lambda x: _ks_line(_schw_k(x, _schw_r(x))), "L": lambda x: _ks_line(_schw_k(x, -_schw_r(x)))})


def _schwarzschild_chart(p):
    n = int(p["dim"])
    M = float(p["M"])
    rmin = 0.05 * (2 * abs(M)) ** (1.0 / max(n - 3, 1))

    chart = _ks_chart("schwarzschild", p, _schw_k_and_H)
    chart.domain = lambda pt: float(np.linalg.norm(pt[1:])) > rmin
    return chart


def _schw_expect(chart, p, pts):
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        scale = cp.curvature_scale()
        out.append(_res("ricci_flat", "vacuum solution", np.abs(cp.ricci).max() / scale, 1e-10))
        out.append(_res("cotton_vanishes", "Ricci-flat metrics have vanishing Cotton-York", np.abs(cp.cotton_york()).max() / scale, 1e-9))
        if chart.dim == 4 and abs(float(p["M"]) - 1.0) < 1e-12:
            r = np.linalg.norm(pt[1:])
            out.append(_res("kretschmann", "48 M^2 / r^6 in four dimensions", abs(cp.kretschmann - 48.0 / r**6), 1e-9 * abs(cp.kretschmann)))
        Cn = np.linalg.norm(cp.weyl.ravel())
        for name, kvec in SCHWARZSCHILD.null_lines(cp).items():
            fr = complete_null_frame(cp.g, kvec)
            dec = decompose("C", cp.weyl, fr, "sim")
            out.append(_flag(f"type_II_at_{name}", "type D(bcd) in the null alignment sense", dec.filtration_vanishing(-1), str(dec.boost_weights())))
            out.append(_res(f"Pi_1^1_at_{name}", "algebraically special along every incident structure", dec.closure_norm(1, 1) / Cn, 1e-9))
            samples = sample_robinson_over_null_line(fr, 10, rng_seed=7)
            worst = max(special_residual(cp.weyl, N) for N in samples)
            out.append(_res(f"special_samples_at_{name}", "special for sampled incident structures", worst, 1e-9))
    return out


SCHWARZSCHILD = CatalogEntry(
    "schwarzschild",
    _schwarzschild_chart,
    {"dim": (5, range(4, 10)), "M": (1.0, float)},
    lambda p: [
        np.array([0.0, 3.0, 1.0, 0.5, 0.2, 0.4, 0.1, -0.3, 0.2][: int(p["dim"])]),
        np.array([0.0, 2.0, -1.5, 1.0, 0.6, -0.2, 0.3, 0.4, -0.1][: int(p["dim"])]),
        np.array([0.5, -2.5, 2.0, 0.8, -0.5, 0.3, -0.4, 0.2, 0.6][: int(p["dim"])]),
    ],
    _schw_expect,
    named=_schw_named,
)


# --------------------------------------------------------------------------
# Myers-Perry (n = 5) in Kerr-Schild form
# --------------------------------------------------------------------------


def _mp_r_jet(x, p):
    """Kerr-Schild radial function r as a jet: solved once per point for the metric, the lines and the checks there."""
    return _mp_r(float(p["a1"]), float(p["a2"]), x[0].nvar, *(v.c.tobytes() for v in x[1:5]))


@lru_cache(maxsize=1)
def _mp_r(a1, a2, nvar, *coords):
    """r from the coefficients of the jets x_1..x_4 (implicit Newton iteration)."""
    a = (a1, a2)
    x1, y1, x2, y2 = (Jet(np.frombuffer(c), nvar) for c in coords)
    R2 = [x1 * x1 + y1 * y1, x2 * x2 + y2 * y2]
    # value by bisection + Newton on rho = r^2
    R2v = [v.value for v in R2]

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
    rho = Jet.constant(rho_val, nvar)
    for _ in range(2):  # each Newton step doubles the order the jet is correct to: 1, then 3
        F = R2[0] / (rho + a[0] ** 2) + R2[1] / (rho + a[1] ** 2) - 1.0
        dF = -(R2[0] / (rho + a[0] ** 2) ** 2 + R2[1] / (rho + a[1] ** 2) ** 2)
        rho = rho - F / dF
    return rho.sqrt()


def _mp_k(x, r, a):
    """The Kerr-Schild covector at radius r."""
    kvec = [1.0]
    for i, (xi, yi) in enumerate(((x[1], x[2]), (x[3], x[4]))):
        inv = 1.0 / (r * r + a[i] ** 2)
        kvec.append((r * xi + a[i] * yi) * inv)
        kvec.append((r * yi - a[i] * xi) * inv)
    return kvec


def _mp_k_and_H(x, p):
    a = (float(p["a1"]), float(p["a2"]))
    M = float(p["M"])
    r = _mp_r_jet(x, p)
    R2 = [x[1] * x[1] + x[2] * x[2], x[3] * x[3] + x[4] * x[4]]
    U = (1.0 - sum(a[i] ** 2 * R2[i] / (r * r + a[i] ** 2) ** 2 for i in range(2))) * (r * r + a[0] ** 2) * (
        r * r + a[1] ** 2
    ) / (r * r)
    return _mp_k(x, r, a), 2.0 * M / U


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


@lru_cache(maxsize=None)
def mp_cky_field(a1: float, a2: float):
    """Principal conformal Killing-Yano 2-form in Kerr-Schild coordinates.

    phi = (x.dx) ^ dt + a_1 dx_1 ^ dy_1 + a_2 dx_2 ^ dy_2 -- polynomial
    and mass-independent (found as the one-dimensional kernel of the CKY
    operator over a structured ansatz; eigenvalues come out +-r).  One
    field per (a1, a2), so a point evaluates it once.
    """
    a = (a1, a2)

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


@lru_cache(maxsize=1)
def _mp_eigen(cp) -> dict:
    """`eigenstructure` of the principal CKY 2-form at a chart point, once for every reader at that point."""
    p = cp.chart.params
    phi = cp.eval_covector_field(mp_cky_field(float(p["a1"]), float(p["a2"])))[0].real
    return eigenstructure(phi, cp.g)


def _mp_spectrum(cp) -> tuple[list, list]:
    """Indices of the CKY eigenvalues at a chart point: the real nonzero ones (the eigenlines) and the positive
    imaginary ones (the eigenplanes)."""
    vals = _mp_eigen(cp)["eigenvalues"]
    real_idx = [j for j, v in enumerate(vals) if abs(v.imag) < 1e-8 * max(abs(v), 1.0) and abs(v) > 1e-8]
    imag_idx = [j for j, v in enumerate(vals) if v.imag > 1e-8]
    return real_idx, imag_idx


def _mp_eigen_structure(cp, i: int) -> RobinsonStructure:
    """Structure i of the 2^m from the CKY eigenplanes: eigenline i // 2 (of -r, then +r) with the imaginary
    eigenplane's (1,0) vector, or its conjugate when i is odd."""
    vecs = _mp_eigen(cp)["eigenvectors"]
    real_idx, imag_idx = _mp_spectrum(cp)
    if (len(real_idx), len(imag_idx)) != (2, 1):
        raise FrameError(f"degenerate CKY spectrum: {len(real_idx)} real and {len(imag_idx)} positive imaginary eigenvalues, expected 2 and 1")
    kvec = vecs[:, real_idx[i // 2]]
    kvec = (kvec / kvec[np.argmax(np.abs(kvec))]).real
    w = vecs[:, imag_idx[0]]
    return robinson_from_span(cp.g, [kvec.astype(complex), np.conj(w) if i % 2 else w])


def _mp_named(p) -> Registry:
    """K: the Kerr-Schild line; L: minus its partner at r -> -r; eigen0..eigen3: the CKY eigen-structures."""
    a = (float(p["a1"]), float(p["a2"]))

    def line(sign):
        return lambda x: _ks_line([sign * c for c in _mp_k(x, sign * _mp_r_jet(x, p), a)])

    return Registry(
        lines={"K": line(1.0), "L": line(-1.0)},
        structures={f"eigen{i}": lambda cp, i=i: _mp_eigen_structure(cp, i) for i in range(4)},
    )


def _mp_expect(chart, p, pts):
    cky = mp_cky_field(float(p["a1"]), float(p["a2"]))
    names = list(MYERS_PERRY.registry(p).structures)
    out = []
    for pt in pts:
        cp = chart.evaluate(pt)
        scale = cp.curvature_scale()
        out.append(_res("ricci_flat", "vacuum rotating black hole", np.abs(cp.ricci).max() / scale, 1e-9))
        rep = check_cky(cp, cky)
        out.append(_res("cky_residual", "principal conformal Killing-Yano 2-form", rep.residual, 1e-9))
        r = _mp_r_jet(JT.jet_point(pt, 5), p).value
        real_idx, imag_idx = _mp_spectrum(cp)
        reals = sorted(float(_mp_eigen(cp)["eigenvalues"][j].real) for j in real_idx)
        out.append(
            _flag(
                "cky_eigenvalues",
                "two real eigenvalues +-r, the rest imaginary",
                len(reals) == 2 and abs(reals[0] + r) < 1e-8 and abs(reals[1] - r) < 1e-8,
                f"reals={reals}, r={r:.6f}",
            )
        )
        # each eigenline with either orientation of each eigenplane: the structures are built only when there are 2^m
        count = len(real_idx) * 2 ** len(imag_idx)
        cite = "special along the CKY eigen-structures"
        if count == 4:
            worst = max(special_residual(cp.weyl, MYERS_PERRY.structure(cp, name)) for name in names)
            out.append(_res("special_eigen_structures", cite, worst, 1e-8))
        else:
            out.append(ExpectationResult("special_eigen_structures", cite, None, detail=f"{count} eigen-structures"))
        out.append(_flag("structure_count", "2^m structures from the eigenplanes", count == 4, str(count)))
        for name, kvec in MYERS_PERRY.null_lines(cp).items():
            fr = complete_null_frame(cp.g, kvec)
            dec = decompose("C", cp.weyl, fr, "sim")
            out.append(_flag(f"type_II_at_{name}", "Kerr-Schild direction is a multiple WAND", dec.filtration_vanishing(-1), str(dec.boost_weights())))
    return out


MYERS_PERRY = CatalogEntry(
    "myers-perry",
    _mp_chart,
    {"M": (1.0, float), "a1": (0.3, float), "a2": (0.2, float), "dim": (5, range(5, 6))},
    lambda p: [np.array([0.0, 2.2, 0.5, 1.2, -0.6]), np.array([0.3, -1.5, 1.8, 0.4, 1.1])],
    _mp_expect,
    named=_mp_named,
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

    chart = MetricChart("kk-bubble", 5, (-1, 1, 1, 1, 1), g_fn, params=p)
    chart.domain = lambda pt: pt[1] > M * 1.05
    return chart


def _kk_named(p) -> Registry:
    """The four named structures: annihilator 1-forms of N and N^perp, with f = 1 - M/r."""
    M = float(p["M"])

    def sqf(x):
        return (1.0 - M / x[1]).sqrt()

    def mu(x):
        conf = 2.0 * x[1] / (1.0 + x[3] * x[3] + x[4] * x[4])
        return [0.0, 0.0, 0.0, conf, conf * 1j]

    kappa = lambda x: [-1.0, 1.0 / sqf(x), 0.0, 0.0, 0.0]
    lam = lambda x: [1.0, 1.0 / sqf(x), 0.0, 0.0, 0.0]
    nu = lambda x: [0.0, 0.0, sqf(x), 0.0, 0.0]
    kappa_p = lambda x: [-1.0, 0.0, sqf(x), 0.0, 0.0]
    lam_p = lambda x: [1.0, 0.0, sqf(x), 0.0, 0.0]
    nu_p = lambda x: [0.0, 1.0 / sqf(x), 0.0, 0.0, 0.0]

    return Registry(
        structures={
            "kappa": DistributionSpec("kappa", [kappa, mu, nu], [kappa, mu]),
            "lambda": DistributionSpec("lambda", [lam, mu, nu], [lam, mu]),
            "kappa_prime": DistributionSpec("kappa_prime", [kappa_p, mu, nu_p], [kappa_p, mu]),
            "lambda_prime": DistributionSpec("lambda_prime", [lam_p, mu, nu_p], [lam_p, mu]),
        }
    )


def _kk_expect(chart, p, pts):
    out = []
    dists = KK_BUBBLE.registry(p).structures
    for pt in pts:
        cp = chart.evaluate(pt)
        out.append(_res("ricci_flat", "product of Euclidean Schwarzschild and time", np.abs(cp.ricci).max() / cp.curvature_scale(), 1e-9))
        for name, dist in dists.items():
            res = integrability_residual(cp, dist)
            integrable = max(res.values()) < 1e-9
            expected = not name.endswith("prime")
            out.append(_flag(f"integrable_{name}", "unprimed structures integrable, primed not", integrable == expected, f"residuals {res}"))
            N = KK_BUBBLE.structure(cp, name)
            out.append(_res(f"aligned_{name}", "Weyl alignment for all four structures", aligned_residual(cp.weyl, N), 1e-9))
            special = special_residual(cp.weyl, N)
            out.append(_flag(f"not_special_{name}", "type G metric is nowhere special", special > 1e-6, f"{special:.3e}"))
        label = weyl_type_search(cp.weyl, cp.g, grid_count=4000, refine_steps=40)
        out.append(
            _flag("type_G_floor", "no WAND: residual floor exceeds 1e-2", label.search["refined_floor"] > 1e-2, f"floor {label.search['refined_floor']:.4f}")
        )
    return out


KK_BUBBLE = CatalogEntry(
    "kk-bubble",
    _kk_chart,
    {"M": (1.0, float), "dim": (None, range(5, 6))},
    lambda p: [np.array([0.0, r, 0.3, 0.2, -0.4]) for r in (2.5, 3.0, 5.0)],
    _kk_expect,
    named=_kk_named,
)


# --------------------------------------------------------------------------
# Robinson-Trautman (n = 6)
# --------------------------------------------------------------------------


def _rt_H(x, p):
    """H = Khat - 2M/r^3: vacuum needs Khat the screen Einstein constant, in this package's curvature sign convention."""
    Khat = 0.0 if p["screen"] == "flat" else -1.0 / 3.0
    return Khat - 2.0 * float(p["M"]) / (x[1] * x[1] * x[1])


def _rt_chart(p):
    screen = p["screen"]

    def g_fn(x):
        r = x[1]
        g = [[0.0] * 6 for _ in range(6)]
        g[0][0] = _rt_H(x, p)
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

    chart = MetricChart("robinson-trautman", 6, (-1,) + (1,) * 5, g_fn, params=p)
    chart.domain = lambda pt: pt[1] > 0.5
    return chart


def _rt_mixed_structure(cp):
    """The product structure's screen rotated by 0.7 in the (e_2, e_3) plane, mixing the two sphere blocks."""
    fr = complete_null_frame(cp.g, ROBINSON_TRAUTMAN.null_lines(cp)["K"])
    th = 0.7
    O = np.eye(4)
    O[1, 1] = O[2, 2] = np.cos(th)
    O[1, 2] = -np.sin(th)
    O[2, 1] = np.sin(th)
    return build_robinson(fr.rotate_screen(O))


def _rt_named(p) -> Registry:
    """K = d/dr and L = d/du - (H/2) d/dr; the product structure, annihilated by du, dx^2 - i dx^3 and
    dx^4 - i dx^5, and with the sphere screen the structure that mixes the spheres."""

    def m_form(a):
        return lambda x: [0.0] * a + [1.0, -1j] + [0.0] * (4 - a)

    structures = {"product": DistributionSpec("product", [lambda x: [1.0] + [0.0] * 5, m_form(2), m_form(4)])}
    if p["screen"] == "spheres":
        structures["mixed"] = _rt_mixed_structure
    return Registry(
        lines={"K": lambda x: [0.0, 1.0] + [0.0] * 4, "L": lambda x: [1.0, -0.5 * _rt_H(x, p)] + [0.0] * 4},
        structures=structures,
    )


def _rt_expect(chart, p, pts):
    out = []
    screen = p["screen"]
    for pt in pts:
        cp = chart.evaluate(pt)
        scale = cp.curvature_scale()
        Cn = np.linalg.norm(cp.weyl.ravel())
        out.append(_res("ricci_flat", "vacuum Robinson-Trautman", np.abs(cp.ricci).max() / scale, 1e-9))
        for name, kvec in ROBINSON_TRAUTMAN.null_lines(cp).items():
            fr = complete_null_frame(cp.g, kvec)
            dec = decompose("C", cp.weyl, fr, "sim")
            out.append(_flag(f"type_II_at_{name}", "type D null directions", dec.filtration_vanishing(-1), str(dec.boost_weights())))
            for key in ((0, 1), (0, 2)):
                out.append(_res(f"Pi_0^{key[1]}_at_{name}", "vanishing middle Weyl pieces", dec.norm_ij(*key) / Cn, 1e-9))
            n03 = dec.norm_ij(0, 3)
            if screen == "flat":
                out.append(_res(f"Pi_0^3_at_{name}", "flat screen: no screen Weyl", n03 / Cn, 1e-9))
            else:
                out.append(_flag(f"Pi_0^3_nonzero_at_{name}", "screen Weyl survives for the sphere product", n03 / Cn > 1e-6, f"{n03/Cn:.3e}"))
            # the mixed (k, e_i, l, e_j) block of the scalar piece is
            # proportional to the screen metric
            img = dec.image((0, 0))
            blk = np.einsum("abcd,a,c->bd", img, fr.k, fr.l)
            h = np.array([fr.screen[i] for i in range(4)])
            piv_screen = h @ blk @ h.T
            dev = piv_screen - np.trace(piv_screen) / 4.0 * np.eye(4)
            out.append(_res(f"Pi_0^0_proportional_h_at_{name}", "scalar piece proportional to the screen metric", np.abs(dev).max() / max(np.abs(piv_screen).max(), 1e-300), 1e-9))
        # product structure is special; a mixed one is not (sphere screen)
        prod = ROBINSON_TRAUTMAN.structure(cp, "product")
        out.append(_res("special_product_structure", "product Hermitian structure is special", special_residual(cp.weyl, prod), 1e-9))
        if screen == "spheres":
            special = special_residual(cp.weyl, ROBINSON_TRAUTMAN.structure(cp, "mixed"))
            out.append(_flag("mixed_not_special", "sphere-mixing structure fails the special condition", special > 1e-6, f"{special:.3e}"))
    return out


ROBINSON_TRAUTMAN = CatalogEntry(
    "robinson-trautman",
    _rt_chart,
    {"M": (1.0, float), "screen": ("flat", ("flat", "spheres")), "dim": (None, range(6, 7))},
    lambda p: [np.array([0.0, 3.0, 0.3, -0.2, 0.4, 0.1]), np.array([0.7, 4.0, -0.5, 0.3, 0.2, -0.3])],
    _rt_expect,
    named=_rt_named,
    variants=(None, {"screen": "spheres"}),
)


# --------------------------------------------------------------------------
# Taub-NUT (n = 6, product of two spheres base)
# --------------------------------------------------------------------------


def _tn_F(x_r, p):
    coeffs = p["F"]
    if coeffs is None:
        return 1.0 + 0.1 * x_r * x_r  # generic positive profile
    out = 0.0
    for c in reversed(coeffs):
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

    chart = MetricChart("taub-nut", 6, (-1,) + (1,) * 5, g_fn, params=p)
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


def _tn_named(p) -> Registry:
    """The 2^m annihilator-form structures {kappa/lambda, theta or bar}."""
    out = {}

    def make_kappa(sign):
        def fn(x):
            F = _tn_F(x[1], p)
            A = _tn_A(x, p)
            sq = F.sqrt() if isinstance(F, Jet) else np.sqrt(F)
            out = [sign * (sq if a == 0 else sq * A[a]) for a in range(6)]
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
    return Registry(structures=out)


def _tn_expect(chart, p, pts):
    out = []
    names = list(TAUB_NUT.registry(p).structures)
    for pt in pts:
        cp = chart.evaluate(pt)
        for name in names:
            N = TAUB_NUT.structure(cp, name)
            out.append(_res(f"special_{name}", "special for every listed structure, regardless of F", special_residual(cp.weyl, N), 1e-9))
        if p["F"] is None:
            out.append(ExpectationResult("einstein_F", "Einstein expectations need a user-supplied F", None, None, "skipped: F not supplied"))
        else:
            out.append(_res("einstein_check", "Einstein condition for the supplied F", np.abs(cp.phi).max() / max(cp.curvature_scale(), 1e-300), 1e-8))
    return out


TAUB_NUT = CatalogEntry(
    "taub-nut",
    _tn_chart,
    {"N2": (0.4, float), "N3": (0.7, float), "F": (None, list), "dim": (None, range(6, 7))},
    lambda p: [np.array([0.0, 2.0, 0.3, -0.2, 0.5, 0.1]), np.array([0.4, 3.0, -0.6, 0.2, 0.1, 0.4])],
    _tn_expect,
    named=_tn_named,
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

    return MetricChart("iwasawa", 6, (1,) * 6, g_fn, params=p)


def iwasawa_phi_field(x):
    ths = iwasawa_thetas(x)
    out = [[0.0] * 6 for _ in range(6)]
    for w, th in zip((1.0, 1.0, 3.0), ths):
        for a in range(6):
            for b in range(6):
                out[a][b] = out[a][b] + 0.5j * w * (th[a] * _c(th[b]) - _c(th[a]) * th[b])
    return out


def _iwasawa_named(p) -> Registry:
    """The Hermitian structures N0, N12 and the sampled family members Nab0..Nab3."""
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
    for i, (a, b) in enumerate(((1.0, 0.0), (0.0, 1.0), (1.0, 0.7), (1.0, 0.3 + 0.4j))):
        out[f"Nab{i}"] = DistributionSpec(f"Nab{i}", [ab_form(a, b, True), ab_form(a, b, False), th(2)])
    return Registry(structures=out)


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
    return (
        -0.5 * (np.einsum("ab,cd->abcd", MU, MU) - skew_arr(np.einsum("ac,db->abcd", MU, MU), (0, 1), (2, 3)))
        + 0.5
        * (
            np.einsum("ab,cd->abcd", MU, AL)
            + np.einsum("ab,cd->abcd", AL, MU)
            - 2.0 * skew_arr(np.einsum("ac,db->abcd", MU, AL), (0, 1), (2, 3))
        )
        + 0.7 * skew_arr(np.einsum("ac,db->abcd", NU, NU), (0, 1), (2, 3))
        + 0.6 * np.einsum("ab,cd->abcd", AL, AL)
        - 0.6 * skew_arr(np.einsum("ac,db->abcd", NU, BE), (0, 1), (2, 3))
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
    dists = IWASAWA.registry(p).structures
    kappas = []
    for pt in pts:
        cp = chart.evaluate(pt)
        out.append(_res("scalar_curvature", "R = 2", abs(cp.ricci_scalar - 2.0), 1e-10))
        combos = iwasawa_quoted_combos(pt)
        target = (2.0 / 3.0) * combos["nu"] - (4.0 / 3.0) * combos["beta"]
        out.append(_res("phi_formula", "Phi = (2/3) nu - (4/3) beta", np.abs(cp.phi - target).max(), 1e-9))
        out.append(_res("weyl_formula", "Weyl tensor from the invariant 2-tensor blocks", np.abs(cp.weyl - iwasawa_quoted_weyl(pt)).max(), 1e-9))
        rep = check_cky(cp, iwasawa_phi_field)
        out.append(_res("cky_residual", "Killing-Yano 2-form", rep.residual, 1e-9))
        out.append(_res("killing_yano_coclosed", "K = 0 (co-closed)", np.abs(rep.K).max(), 1e-10))
        out.append(_flag("tau_nonzero", "d phi = 3 tau is nonzero", np.abs(rep.tau).max() > 1e-6, f"|tau| = {np.abs(rep.tau).max():.3f}"))
        # Cotton-York: fit the single calibration constant
        A = cp.cotton_york()
        quoted = iwasawa_quoted_cotton(pt, cp.g, cp.g_inv)
        kappa = float(np.dot(A.ravel(), quoted.ravel()) / np.dot(quoted.ravel(), quoted.ravel()))
        resid = np.abs(A - kappa * quoted).max() / max(np.abs(A).max(), 1e-300)
        kappas.append(kappa)
        out.append(_res("cotton_shape", "Cotton-York proportional to the quoted 3-tensor", resid, 1e-9))
        phi_val = cp.eval_covector_field(iwasawa_phi_field)[0].real
        es = eigenstructure(phi_val, cp.g)
        vecvals = sorted(es["eigenvalues"], key=lambda z: z.imag)
        expected_vec = [-3, -1, -1, 1, 1, 3]
        err = max(abs(v - 1j * e) for v, e in zip(vecvals, expected_vec))
        out.append(_res("phi_vector_eigenvalues", "endomorphism spectrum {+-i, +-i, +-3i}", float(err), 1e-10))
        spin = es["pure_spinor_spectrum"]
        expected_spin = np.array(sorted([1.25j, -1.25j, 0.25j, -0.25j, 0.75j, -0.75j, 0.75j, -0.75j], key=lambda z: (round(z.real, 10), round(z.imag, 10))))
        out.append(_res("phi_spinor_spectrum", "pure spinor spectrum {+-5i/4, +-i/4, +-3i/4 x2}", float(np.abs(spin - expected_spin).max()), 1e-10))
        for name, dist in dists.items():
            res = integrability_residual(cp, dist)
            integrable = max(res.values()) < 1e-9
            expected = name != "N12"
            out.append(_flag(f"integrable_{name}", "N0 and Nab integrable; N12 not", integrable == expected, f"residuals {res}"))
            deg = tau_degeneracy(cp, dist, rep.tau)
            out.append(_flag(f"tau_degenerate_{name}", "tau nondegenerate exactly on N12", (deg < 1e-9) == expected, f"tau-restriction {deg:.3e}"))
            span = np.array(distribution_span(cp, dist))
            worstC = restriction_residual(cp.weyl, (span, span, span, np.eye(6)))
            out.append(_res(f"special_{name}", "Weyl special for every eigen-structure", worstC, 1e-9))
            degA = restriction_residual(A, span)
            out.append(_flag(f"cotton_degenerate_{name}", "Cotton-York degenerate except on N12", (degA < 1e-9) == expected, f"A-restriction {degA:.3e}"))
    spread = max(kappas) - min(kappas)
    out.append(_res("cotton_kappa_constant", "calibration constant stable across points", spread, 1e-9 * max(abs(k) for k in kappas)))
    return out


IWASAWA = CatalogEntry(
    "iwasawa",
    _iwasawa_chart,
    {"dim": (None, range(6, 7))},
    lambda p: [np.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.7]), np.array([-0.1, 0.4, 0.2, -0.3, 0.6, 0.2])],
    _iwasawa_expect,
    named=_iwasawa_named,
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
