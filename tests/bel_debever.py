"""The Bel-Debever probe maps: the test oracle for the closure norms of `simclass`.

Each probe is an explicit contraction of a class tensor with k (and, for the
top-grade detectors, with l), after the generalised Bel-Debever criteria of
Milson, Coley, Pravda & Pravdova, IJGMMP 2 (2005) 41 (boost-weight components
as in Ortaggio, Pravda & Pravdova, CQG 30 (2013) 013001).  The probe at
(i, j) vanishes exactly when the tensor has no component in the (i, j) module
nor in any module below it along the classification diagram: the condition
that `GradedDecomposition.closure_norm` reads off the module norms.  Each
probe image adds up its raw terms and antisymmetrises once (by linearity;
pair-swapped partners come from `swap_pairs`).
"""

import numpy as np

from robcls.frames import NullFrame, volume_form
from robcls.tensor import skew_arr, swap_pairs


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
    tr = np.einsum("a,bc,d->abcd", kb, g, Phi @ k)
    raw = np.einsum("a,bc,d->abcd", kb, Phi, kb) + (1.0 / (n - 2)) * (tr + swap_pairs(tr))
    out[(0, 1)] = skew_arr(raw, (0, 1), (2, 3))
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
    raw = np.einsum("a,bc,d->abcd", kb, X, kb) + (1.0 / (n - 2)) * np.einsum("a,bc,d->abcd", kb, g, Akk)
    D = skew_arr(raw, (0, 1), (2, 3))
    out[(-1, 1)] = D - swap_pairs(D)
    out[(-1, 2)] = D + swap_pairs(D)
    Y = np.einsum("adb,d->ab", A, k)
    t1 = np.einsum("ab,c->abc", Y, kb) - np.einsum("ac,b->abc", Y, kb)
    t2 = np.einsum("a,dbc,d->abc", kb, A, k)
    # the printed assignment detects the opposite member of the isotypic
    # pair; kernels fix the labelling
    out[(0, 0)] = t1 + t2
    out[(0, 1)] = t1 - t2
    W = 2.0 * np.einsum("bfd,f->bd", A, k)
    Z = np.einsum("fde,f->de", A, k)
    q1 = np.einsum("ca,bd,e->abcde", g, W, kb) - np.einsum("ca,b,de->abcde", g, kb, Z)
    q2 = np.einsum("ca,bd,e->abcde", g, g, Akk)
    raw = np.einsum("a,bcd,e->abcde", kb, A, kb) - (1.0 / (n - 3)) * q1 - (2.0 / ((n - 2) * (n - 3))) * q2
    out[(0, 2)] = skew_arr(raw, (0, 1), (2, 3, 4))
    out[(1, 0)] = np.einsum("abc,c->ab", A, k)
    # k_[a A_b]cd is already skew in (c, d)
    raw = np.einsum("a,bcd->abcd", kb, A) + (2.0 / (n - 2)) * np.einsum("ac,dbe,e->abcd", g, A, k)
    D = skew_arr(raw, (0, 1), (2, 3))
    out[(1, 1)] = D - swap_pairs(D)
    out[(1, 2)] = D + swap_pairs(D)
    All = np.einsum("c,d,cda->a", l, l, A)
    out[(2, 0)] = 0.5 * (np.outer(All, lb) - np.outer(lb, All))
    return out


def probe_C(C: np.ndarray, frame: NullFrame) -> dict:
    g, k = frame.g, frame.k
    kb = g @ k
    n = frame.n
    out = {}
    M = np.einsum("befc,e,f->bc", C, k, k)
    out[(-2, 0)] = skew_arr(np.einsum("a,bc,d->abcd", kb, M, kb), (0, 1), (2, 3))
    out[(-1, 0)] = skew_arr(np.einsum("adeb,d,e,c->abc", C, k, k, kb), (1, 2))
    X = np.einsum("bcfd,f->bcd", C, k)
    W = np.einsum("efgb,f,g->eb", C, k, k)
    raw = np.einsum("a,bcd,e->abcde", kb, X, kb) - (2.0 / (n - 3)) * np.einsum("ad,eb,c->abcde", g, W, kb)
    out[(-1, 1)] = skew_arr(raw, (0, 1, 2), (3, 4))
    out[(0, 0)] = np.einsum("acdb,c,d->ab", C, k, k)
    out[(0, 1)] = skew_arr(np.einsum("a,bcde,e->abcd", kb, C, k), (0, 1, 2))
    # C_abek^e is skew in (a, b), and the trace term is pair-symmetric
    Xk = np.einsum("abec,e->abc", C, k)
    Ckk = np.einsum("befd,e,f->bd", C, k, k)
    raw = np.einsum("abc,d->abcd", Xk, kb) - (2.0 / (n - 2)) * np.einsum("ca,bd->abcd", g, Ckk)
    D = skew_arr(raw, (0, 1), (2, 3))
    out[(0, 2)] = D + swap_pairs(D)
    if n > 4:
        out[(0, 3)] = _probe_C_0_3(C, frame)
    out[(1, 0)] = np.einsum("abcd,d->abc", C, k)
    # k_[a C_bc]de is already skew in (d, e)
    Y = np.einsum("exbc,x->ebc", C, k)
    raw = np.einsum("a,bcde->abcde", kb, C) + (2.0 / (n - 3)) * np.einsum("ad,ebc->abcde", g, Y)
    out[(1, 1)] = skew_arr(raw, (0, 1, 2), (3, 4))
    out[(2, 0)] = C
    return out


def _probe_C_0_3(C: np.ndarray, frame: NullFrame) -> np.ndarray:
    g, k = frame.g, frame.k
    kb = g @ k
    n = frame.n
    X = np.einsum("efgb,g->efb", C, k)
    Y = np.einsum("bcge,g->bce", C, k)
    W = np.einsum("xghy,g,h->xy", C, k, k)
    # the trace term is a sum of nine placements of g W g, each skew over two
    # pairs; as W is symmetric they add up to nine times the placement below
    # antisymmetrised over (a, b, c) and (d, e, f)
    raw = (
        np.einsum("a,bcde,f->abcdef", kb, C, kb)
        - (2.0 / (n - 4)) * (np.einsum("ad,efb,c->abcdef", g, X, kb) + np.einsum("da,bce,f->abcdef", g, Y, kb))
        + (4.0 / ((n - 3) * (n - 4))) * np.einsum("da,be,fc->abcdef", g, W, g)
    )
    return skew_arr(raw, (0, 1, 2), (3, 4, 5))


PROBES = {"G": probe_G, "F": probe_F, "A": probe_A, "C": probe_C}


def probe_images(space: str, arr: np.ndarray, frame: NullFrame) -> dict:
    return PROBES[space](np.asarray(arr, dtype=float), frame)


def probe_norms(space: str, arr: np.ndarray, frame: NullFrame) -> dict:
    return {k: float(np.linalg.norm(np.atleast_1d(v))) for k, v in probe_images(space, arr, frame).items()}
