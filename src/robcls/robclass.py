"""Classification refined by an almost Robinson structure.

Refined flags are component norms of the tensor in the irreducible
modules of the adapted frame (tables in `modules`); the aligned and
algebraically-special predicates are the finite block conditions on the
complex frame, discharged exactly by multilinearity over the spanning
set {k, m_A, u}.  The paper's closed-form refined maps for 2-forms and
the quartic integrability map are implemented as cross-checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .frames import NullFrame, RobinsonStructure, adapted_basis, robinson_forms, sample_robinson_over_null_line
from .modules import ModuleKey
from .simclass import GradedDecomposition, decompose
from .tensor import DEFAULT_TOL, Tolerance, skew_arr, swap_pairs, transform_slots

# block conditions of the alignment / specialness propositions, as refined keys
ALIGNED_KEYS = {
    "even": [(-2, 0, 1), (-1, 1, 1), (0, 3, 3)],
    "odd_extra": [(-2, 0, 3), (-1, 1, 6), (-1, 1, 9), (0, 3, 10)],
}

SPECIAL_EXTRA_KEYS = {
    "even": [(0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 3, 6), (1, 1, 1)],
    "odd_extra": [
        (0, 1, 3),
        (0, 2, 3),
        (0, 3, 7),
        (0, 3, 9),
        (0, 3, 11),
        (0, 3, 12),
        (1, 1, 6),
        (1, 1, 9),
    ],
}


def adapted_component_array(T: np.ndarray, N: RobinsonStructure) -> np.ndarray:
    """Complex frame components of T in the adapted frame {k, m_A, mbar_A, u, l}."""
    return transform_slots(T, adapted_basis(N.frame))


def adapted_blocks(T: np.ndarray, N: RobinsonStructure) -> dict:
    """The nonzero adapted-frame components of T, keyed by slot-type strings.

    Keys look like ``"k m1 mb1 u"``; Hermiticity (the block of the
    conjugated pattern is the conjugate) holds by construction for real T.
    """
    m, eps = N.m_eps
    names = ["k", *(f"m{a}" for a in range(1, m)), *(f"mb{a}" for a in range(1, m))]
    names += ["u"] * (N.u is not None) + ["l"]
    out = adapted_component_array(T, N)
    cutoff = 1e-11 * max(float(np.abs(out).max()), 1e-300)
    blocks = {}
    for combo in itertools.product(range(len(names)), repeat=T.ndim):
        val = out[combo]
        if abs(val) > cutoff:
            blocks[" ".join(names[c] for c in combo)] = val
    return blocks


def refined_flags(
    space: str,
    T: np.ndarray,
    N: RobinsonStructure,
    tol: Tolerance = DEFAULT_TOL,
    scale: float | None = None,
) -> GradedDecomposition:
    """Graded decomposition into the refined modules of the adapted frame."""
    return decompose(space, T, N.frame, level="rob", tol=tol, scale=scale)


def restriction_residual(T: np.ndarray, mats) -> float:
    """max |T(X_1, X_2, ...)| with X_i over the rows of mats[i], over max |T|.

    ``mats`` is one matrix per slot, or one matrix for every slot.
    """
    scale = max(float(np.abs(T).max()), 1e-300)
    return float(np.abs(transform_slots(T, mats)).max()) / scale


def aligned_residual(C: np.ndarray, N: RobinsonStructure) -> float:
    """max |C(X, Y, Z, W)| over X, Y in N^perp and Z, W in N (normalised)."""
    perp, m = np.array(N.span_N_perp()), N.m_eps[0]
    return restriction_residual(C, (perp, perp, perp[:m], perp[:m]))


def special_residual(C: np.ndarray, N: RobinsonStructure) -> float:
    """max |C(X, Y, Z, .)| over X, Y in N^perp and Z in N (normalised)."""
    perp, m = np.array(N.span_N_perp()), N.m_eps[0]
    return restriction_residual(C, (perp, perp, perp[:m], np.eye(N.n)))


def aligned_flag_keys(n: int) -> list:
    keys = list(ALIGNED_KEYS["even"])
    if n % 2:
        keys += ALIGNED_KEYS["odd_extra"]
    return keys


def special_flag_keys(n: int) -> list:
    keys = aligned_flag_keys(n) + SPECIAL_EXTRA_KEYS["even"]
    if n % 2:
        keys += SPECIAL_EXTRA_KEYS["odd_extra"]
    return keys


def aligned_from_flags(dec: GradedDecomposition) -> bool:
    n = dec.frame.n
    flags = [dec.flag(k) for k in aligned_flag_keys(n) if dec.has(k)]
    return all(flags)


def special_from_flags(dec: GradedDecomposition) -> bool:
    """eq-GS-condition: grade <= -1 filtration + the listed refined flags."""
    n = dec.frame.n
    ok = dec.filtration_vanishing(-1)
    for k in special_flag_keys(n):
        if dec.has(k):
            ok = ok and dec.flag(k)
    return ok


# --------------------------------------------------------------------------
# multi-Robinson equivalences
# --------------------------------------------------------------------------


@dataclass
class MultiRobinsonReport:
    pi11_norm: float
    pi11_vanishes: bool
    samples: int
    special_count: int
    failing_structure: RobinsonStructure | None
    equivalence_holds: bool


def multi_robinson_equivalences(
    C: np.ndarray,
    frame: NullFrame,
    samples: int = 100,
    rng_seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> MultiRobinsonReport:
    """Verify: Pi_1^1(C) = 0 iff C is special for every structure on the line.

    Both sides are decided by ``tol`` at the scale of C's frame components;
    Pi_1^1 is the closure norm of C's sim decomposition.
    """
    dec = decompose("C", C, frame, tol=tol)
    Cn = dec.scale
    Cmax = float(np.abs(C).max())  # undoes the normalisation of `special_residual`
    pi11 = dec.closure_norm(1, 1)
    vanishes = tol.vanishes(pi11, Cn)
    structures = sample_robinson_over_null_line(frame, samples, rng_seed)
    special_count = 0
    failing = None
    for N in structures:
        if tol.vanishes(special_residual(C, N) * Cmax, Cn):
            special_count += 1
        elif failing is None:
            failing = N
    all_special = special_count == len(structures)
    return MultiRobinsonReport(pi11, vanishes, len(structures), special_count, failing, vanishes == all_special)


# --------------------------------------------------------------------------
# parallel-structure curvature relations
# --------------------------------------------------------------------------


@dataclass
class ParallelRelationReport:
    curvature_block_residual: float
    ricci_block_residual: float
    gs_flags_hold: bool
    extra_flags: dict

    def max_residual(self) -> float:
        return max(self.curvature_block_residual, self.ricci_block_residual)


def parallel_structure_relations(
    C: np.ndarray,
    Phi: np.ndarray,
    R_scalar: float,
    riemann: np.ndarray,
    N: RobinsonStructure,
) -> ParallelRelationReport:
    """Residuals of the curvature relations forced by a parallel structure.

    The primitive identity is R_abcd X^c Y^d = 0 for X in N, Y in N^perp;
    its Ricci companion is Phi(X, Y) = 0.  The refined-flag consequences (the special-condition
    set plus the three extra vanishing flags) are evaluated as booleans.
    """
    span, perp = np.array(N.span_N()), np.array(N.span_N_perp())
    scale = max(np.abs(C).max(), np.abs(Phi).max(), abs(R_scalar), 1e-300)
    eye = np.eye(N.n)
    worst_c = float(np.abs(transform_slots(riemann, (eye, eye, span, perp))).max())
    worst_p = float(np.abs(transform_slots(Phi, (span, perp))).max())
    dec = refined_flags("C", C, N)
    gs = special_from_flags(dec)
    extra = {"Pi_0^1(C)": dec.tol.vanishes(dec.closure_norm(0, 1), dec.scale)}
    decF = refined_flags("F", Phi, N)
    for d, label in ((dec, (0, 3, 4)), (dec, (1, 1, 2)), (decF, (0, 1, 1)), (decF, (0, 1, 3))):
        key = ModuleKey.of(d.space, label)
        if d.has(key):
            extra[str(key)] = d.flag(key)
    return ParallelRelationReport(worst_c / scale, worst_p / scale, gs, extra)


def _pi02_relation(C: np.ndarray, Phi: np.ndarray, frame: NullFrame, scale: float) -> float:
    """max |Pi_0^2(C) + 4/(n-2) Pi_0^1(F)| / scale: a relation that a parallel null line forces.

    The two images are the Bel-Debever contractions of C at (0, 2) and of Phi
    at (0, 1), each antisymmetrised over (a, b) and (c, d) once.
    """
    g, k, n = frame.g, frame.k, frame.n
    kb = g @ k
    Xk = np.einsum("abec,e->abc", C, k)
    Ckk = np.einsum("befd,e,f->bd", C, k, k)
    D = skew_arr(np.einsum("abc,d->abcd", Xk, kb) - (2.0 / (n - 2)) * np.einsum("ca,bd->abcd", g, Ckk), (0, 1), (2, 3))
    tr = np.einsum("a,bc,d->abcd", kb, g, Phi @ k)
    F01 = skew_arr(np.einsum("a,bc,d->abcd", kb, Phi, kb) + (1.0 / (n - 2)) * (tr + swap_pairs(tr)), (0, 1), (2, 3))
    return float(np.abs(D + swap_pairs(D) + (4.0 / (n - 2.0)) * F01).max() / scale)


def recurrent_line_relations(C: np.ndarray, Phi: np.ndarray, R_scalar: float, riemann: np.ndarray, frame: NullFrame) -> dict:
    """Residuals of the relations that hold for a parallel null line."""
    g, k = frame.g, frame.k
    kb = g @ k
    n = frame.n
    scale = max(np.abs(riemann).max(), 1e-300)
    # R_{ab[c}{}^e k_{d]} k_e: R_abce k^e then antisymmetrise (c, d) against k
    rke = np.einsum("abce,e->abc", riemann, k)
    t = skew_arr(np.einsum("abc,d->abcd", rke, kb), (2, 3))
    out = {"recurrent_curvature": float(np.abs(t).max() / scale)}
    decC, decF = decompose("C", C, frame), decompose("F", Phi, frame)
    out["Pi_0^1(C)"] = decC.closure_norm(0, 1) / max(decC.scale, 1e-300)
    out["Pi_-1^0(F)"] = decF.closure_norm(-1, 0) / max(decF.scale, 1e-300, abs(R_scalar))
    # Pi_0^0(C)_ab = (n-4)/(n-2) k_(a Phi_b)c k^c + (n-2)/(n(n-1)) R k_a k_b
    lhs = np.einsum("acdb,c,d->ab", C, k, k)
    phik = Phi @ k
    rhs = ((n - 4.0) / (n - 2.0)) * 0.5 * (np.outer(kb, phik) + np.outer(phik, kb)) + (
        (n - 2.0) / (n * (n - 1.0))
    ) * R_scalar * np.outer(kb, kb)
    out["Pi_0^0_relation"] = float(np.abs(lhs - rhs).max() / scale)
    out["Pi_0^2_relation"] = _pi02_relation(C, Phi, frame, scale)
    return out


def parallel_vector_relations(C: np.ndarray, Phi: np.ndarray, R_scalar: float, riemann: np.ndarray, frame: NullFrame) -> dict:
    """Relations for a parallel null vector field (pp-waves)."""
    g, k = frame.g, frame.k
    kb = g @ k
    n = frame.n
    scale = max(np.abs(riemann).max(), 1e-300)
    out = {"riemann_k": float(np.abs(np.einsum("abce,e->abc", riemann, k)).max() / scale)}
    phik = Phi @ k
    out["phi_k_relation"] = float(np.abs(phik + (R_scalar / n) * kb).max() / max(np.abs(Phi).max(), abs(R_scalar), 1e-300))
    decC = decompose("C", C, frame)
    out["Pi_0^1(C)"] = decC.closure_norm(0, 1) / max(decC.scale, 1e-300)
    # biconditional chains evaluated as residual pairs: Pi_0^0(C) = C_acdb k^c k^d,
    # Pi_1^0(C) = C_abcd k^d and Pi_1^0(F) = k_[a Phi_b]c
    Ckk = np.einsum("acdb,c,d->ab", C, k, k)
    out["Pi_0^0_relation"] = float(np.abs(Ckk - (1.0 / ((n - 1.0) * (n - 2.0))) * R_scalar * np.outer(kb, kb)).max() / scale)
    Ck = np.einsum("abcd,d->abc", C, k)
    F10 = 0.5 * (np.einsum("a,bc->abc", kb, Phi) - np.einsum("b,ac->abc", kb, Phi))
    gpart = skew_arr(np.einsum("a,bc->abc", kb, g), (0, 1))
    out["Pi_1^0_relation"] = float(
        np.abs(Ck - (2.0 / (n - 2.0)) * F10 + (2.0 / (n * (n - 1.0) * (n - 2.0))) * R_scalar * gpart).max() / scale
    )
    out["Pi_0^2_relation"] = _pi02_relation(C, Phi, frame, scale)
    return out


# --------------------------------------------------------------------------
# closed-form refined maps (cross-checks)
# --------------------------------------------------------------------------


def g_refined_maps(phi: np.ndarray, N: RobinsonStructure) -> dict:
    """The explicit refined projections for 2-forms."""
    g = N.frame.g
    g_inv = np.linalg.inv(g)
    n = N.n
    m, eps = N.m_eps
    forms = robinson_forms(N)
    rho = forms.rho
    rho_up = np.einsum("abe,ef->abf", rho, g_inv)  # rho_{ab}{}^f
    kb = g @ N.frame.k
    out = {}
    X = np.einsum("abf,fc->abc", rho_up, phi)
    t1 = skew_arr(np.einsum("abc,d->abcd", X, kb), (2, 3))
    t2 = np.transpose(t1, (2, 3, 0, 1))
    tr = np.einsum("bxy,xf,yg,fg->b", rho, g_inv, g_inv, phi)
    q1 = skew_arr(np.einsum("c,da,b->abcd", kb, g, tr), (2, 3), (0, 1))
    q2 = skew_arr(np.einsum("a,bc,d->abcd", kb, g, tr), (0, 1), (2, 3))
    t = t1 + t2 + (2.0 / (n - 3)) * (q1 + q2)
    if eps:
        mu = forms.mu
        mu_mixed = g_inv @ mu  # mu^g{}_c
        Y = np.einsum("abf,fg->abg", rho_up, phi)
        e1 = skew_arr(np.einsum("abg,gc,de->abcde", Y, mu_mixed, mu), (2, 3))
        e2 = skew_arr(np.einsum("cdg,ga,be->cdabe", Y, mu_mixed, mu), (0, 1))
        e2 = np.transpose(e2, (2, 3, 0, 1, 4))
        out["0,1,1"] = np.einsum("abcd,e->abcde", t, kb) + e1 + e2
    else:
        out["0,1,1"] = t
    rr = np.einsum("abe,ef,fcd->abcd", rho_up, phi, np.einsum("xf,fcd->xcd", g_inv, rho))
    t4 = 4.0 * skew_arr(np.einsum("a,bc,d->abcd", kb, phi, kb), (0, 1), (2, 3))
    out["0,1,2"] = rr + t4
    if eps:
        mu = forms.mu
        muce = mu @ g_inv  # mu_c{}^e
        z1 = skew_arr(np.einsum("ab,ce,de->abcd", mu, muce, phi), (2, 3))
        z2 = skew_arr(np.einsum("cd,ae,be->abcd", mu, muce, phi), (0, 1))
        out["0,1,2"] = out["0,1,2"] - 2.0 * (z1 - z2)
        mu_up = g_inv @ mu @ g_inv.T
        w = np.einsum("c,ca->a", N.frame.k, phi)
        out["-1,0,0"] = 4.0 * 0.5 * (np.outer(w, kb) - np.outer(kb, w)) + np.einsum("cd,cd->", mu_up, phi) * mu
        out["-1,0,1"] = np.array(np.einsum("ab,ab->", mu_up, phi))
        out["1,1,3"] = skew_arr(np.einsum("a,bd,dc->abc", kb, phi, mu_mixed), (0, 1))
        out["1,0,1"] = np.einsum("ac,cb->ab", phi, mu_mixed)
        out["1,0,0"] = skew_arr(np.einsum("ab,cd->abcd", phi, mu), (0, 1, 2))
    return out


def integrability_map_0_3_3(C: np.ndarray, N: RobinsonStructure) -> float:
    """Norm of the closed-form quartic map detecting the C_0^{3,3} part.

    Relative signs of the eight terms are calibrated so the kernel matches
    the block condition exactly (a unique assignment out of 128).
    """
    g = N.frame.g
    g_inv = np.linalg.inv(g)
    forms = robinson_forms(N)
    rho_up = np.einsum("abe,ef->abf", forms.rho, g_inv)
    kb = g @ N.frame.k
    n = N.n

    t1 = np.einsum("abi,cdj,efk,ghl,ijkl->abcdefgh", rho_up, rho_up, rho_up, rho_up, C, optimize=True)
    X = np.einsum("abi,cdj,ijeg->abcdeg", rho_up, rho_up, C, optimize=True)
    t2 = np.moveaxis(
        np.multiply.outer(np.multiply.outer(X, kb), kb),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 2, 3, 4, 6, 7, 5),
    )
    t2 = -4.0 * skew_arr(t2, (4, 5), (6, 7))
    Y = np.einsum("dbkl,efk,ghl->dbefgh", C, rho_up, rho_up, optimize=True)
    t3 = np.moveaxis(
        np.multiply.outer(np.multiply.outer(Y, kb), kb),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (3, 1, 4, 5, 6, 7, 0, 2),
    )
    t3 = 4.0 * skew_arr(t3, (0, 1), (2, 3))
    t4 = np.multiply.outer(np.multiply.outer(np.multiply.outer(np.multiply.outer(C, kb), kb), kb), kb)
    # C_{dbeg} k_a k_c k_h k_f -> axes: C(0..3) = (d,b,e,g); attach (a,c,h,f)
    t4 = np.moveaxis(t4, (0, 1, 2, 3, 4, 5, 6, 7), (3, 1, 4, 6, 0, 2, 7, 5))
    t4 = -16.0 * skew_arr(t4, (0, 1), (2, 3), (4, 5), (6, 7))
    M1 = np.einsum("abj,djke,ghk->abdegh", rho_up, C, rho_up, optimize=True)
    t5 = np.moveaxis(
        np.multiply.outer(np.multiply.outer(M1, kb), kb),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 3, 4, 6, 7, 2, 5),
    )
    t5 = 4.0 * skew_arr(t5, (2, 3), (4, 5))
    M2 = np.einsum("cdj,bjke,ghk->cdbegh", rho_up, C, rho_up, optimize=True)
    t6 = np.moveaxis(
        np.multiply.outer(np.multiply.outer(M2, kb), kb),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (2, 3, 1, 4, 6, 7, 0, 5),
    )
    t6 = -4.0 * skew_arr(t6, (0, 1), (4, 5))
    M3 = np.einsum("abj,djkg,efk->abdgef", rho_up, C, rho_up, optimize=True)
    # M3 axes (a,b,d,g,e,f); attach c at 2 and h at 7; reorder g to slot 6
    t7 = np.moveaxis(
        np.multiply.outer(np.multiply.outer(M3, kb), kb),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 3, 6, 4, 5, 2, 7),
    )
    t7 = -4.0 * skew_arr(t7, (2, 3), (6, 7))
    M4 = np.einsum("cdj,bjkg,efk->cdbgef", rho_up, C, rho_up, optimize=True)
    t8 = np.moveaxis(
        np.multiply.outer(np.multiply.outer(M4, kb), kb),
        (0, 1, 2, 3, 4, 5, 6, 7),
        (2, 3, 1, 6, 4, 5, 0, 7),
    )
    t8 = 4.0 * skew_arr(t8, (0, 1), (6, 7))
    total = t1 + t2 + t3 + t4 + t5 + t6 + t7 + t8
    return float(np.linalg.norm(total.ravel()))
