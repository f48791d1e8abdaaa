import itertools

import numpy as np
import pytest

from robcls.classes import RANK, random_class_tensor
from robcls.frames import (
    build_robinson,
    complete_null_frame,
    random_lorentzian,
    random_null_vector,
    sample_robinson_over_null_line,
)
from robcls.modules import ModuleKey, rob_table, sim_table
from robcls.robclass import (
    adapted_blocks,
    adapted_component_array,
    adapted_reassemble,
    aligned_from_flags,
    aligned_residual,
    g_refined_maps,
    integrability_map_0_3_3,
    multi_robinson_equivalences,
    parallel_structure_relations,
    refined_flags,
    special_from_flags,
    special_residual,
)
from robcls.simclass import decompose
from robcls.tensor import skew_arr


def make_structure(n, seed=0):
    rng = np.random.default_rng(seed)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    return build_robinson(fr, "standard"), rng


@pytest.mark.parametrize("n", (5, 6, 7))
def test_adapted_blocks_hermitian_and_reassembly(n):
    N, rng = make_structure(n, seed=n)
    T = rng.standard_normal((n,) * 4)
    arr = adapted_component_array(T, N)
    back = adapted_reassemble(arr, N)
    assert np.abs(back.real - T).max() < 1e-10
    assert np.abs(back.imag).max() < 1e-10
    # Hermiticity: conjugated slot pattern = conjugate value
    m, eps = N.m_eps
    p = m - 1

    def conj_index(a):
        if 1 <= a <= p:
            return a + p
        if p < a <= 2 * p:
            return a - p
        return a

    for combo in itertools.product(range(n), repeat=2):
        idx = combo + (0, n - 1)
        cidx = tuple(conj_index(a) for a in idx)
        assert abs(arr[idx] - np.conj(arr[cidx])) < 1e-10


def test_metric_blocks(n=6):
    N, _ = make_structure(n, seed=2)
    blocks = adapted_blocks(N.frame.g, N)
    expected = {"k l", "l k"} | {f"m{a} mb{a}" for a in range(1, n // 2)} | {f"mb{a} m{a}" for a in range(1, n // 2)}
    assert set(blocks) == expected
    assert all(abs(v - 1) < 1e-9 for v in blocks.values())


def test_omega_block_is_i_delta(n=6):
    N, _ = make_structure(n, seed=3)
    blocks = adapted_blocks(N.omega(), N)
    for key, val in blocks.items():
        a, b = key.split()
        assert a.replace("mb", "m") == b.replace("mb", "m")
        if a.startswith("mb"):
            assert abs(val + 1j) < 1e-9  # omega(mbar, m) = -i
        else:
            assert abs(val - 1j) < 1e-9  # omega(m, mbar) = +i


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_predicates_match_brute_force_and_flags(n):
    N, rng = make_structure(n, seed=10 + n)
    st = sim_table("C", n)
    cases = []
    # generic tensor
    cases.append(random_class_tensor("C", n, rng))
    # aligned-only: avoid the modules in the alignment set support
    rowsets = {
        "special": [(2, 0), (1, 0), (0, 0)],
    }
    for grades in ([(2, 0), (1, 0), (0, 0)],):
        rows = np.vstack([e.basis for e in st.entries if (e.key.i, e.key.j) in grades])
        cases.append(((rng.standard_normal(rows.shape[0]) @ rows) / 1.0).reshape((n,) * RANK["C"]))
    for frame_t in cases:
        C = N.frame.from_frame(frame_t / max(np.linalg.norm(frame_t), 1e-300))
        dec = refined_flags("C", C, N)
        resid_al = aligned_residual(C, N)
        resid_sp = special_residual(C, N)
        assert aligned_from_flags(dec) == (resid_al < 1e-9)
        assert special_from_flags(dec) == (resid_sp < 1e-9)
        # brute force over the full complexified spanning tuples
        span = N.span_N()
        perp = N.span_N_perp()
        worst = 0.0
        for x in perp:
            for y in perp:
                for z in span:
                    for w in span:
                        worst = max(worst, abs(np.einsum("abcd,a,b,c,d->", C.astype(complex), x, y, z, w)))
        assert abs(worst / max(np.abs(C).max(), 1e-300) - resid_al) < 1e-12


@pytest.mark.parametrize("n", range(4, 10))
def test_restrictions_match_loop_oracles(n):
    """Restrictions to span vectors against the nested loops over the spanning sets.

    Random tensors and one supported on grades >= 1 (aligned: residual at round-off),
    over sampled structures; the residuals agree to 1e-12 of the tensor scale.
    """
    from robcls.catalog import ENTRIES
    from robcls.chart import DistributionSpec, distribution_span, tau_degeneracy

    rng = np.random.default_rng(40 + n)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    rows = np.vstack([e.basis for e in sim_table("C", n).entries if e.key.i >= 1])
    tensors = [rng.standard_normal((n,) * 4), fr.from_frame((rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4))]
    Phi = rng.standard_normal((n, n))
    Phi = Phi + Phi.T
    R = float(rng.standard_normal())
    cp = ENTRIES["minkowski"].chart({"dim": n}).evaluate(np.zeros(n))

    def close(got, ref):
        return abs(got - ref) <= 1e-12 * max(ref, 1.0)

    for N in sample_robinson_over_null_line(fr, 3, rng_seed=n):
        span, perp = N.span_N(), N.span_N_perp()
        assert close(N.nullity_residual(), max(abs(x @ g @ y) for x in span for y in span))
        for C in tensors:
            Cc = C.astype(complex)
            top = np.abs(C).max()
            aligned = max(
                abs(np.einsum("abcd,a,b,c,d->", Cc, x, y, z, w)) for x in perp for y in perp for z in span for w in span
            )
            special = max(np.abs(np.einsum("abcd,a,b,c->d", Cc, x, y, z)).max() for x in perp for y in perp for z in span)
            assert close(aligned_residual(C, N), aligned / top)
            assert close(special_residual(C, N), special / top)
            worst_c = worst_p = 0.0
            for x in span:
                for y in perp:
                    gx, gy, phix, phiy = g @ x, g @ y, Phi @ x, Phi @ y
                    term = (
                        np.einsum("abcd,c,d->ab", Cc, x, y)
                        + (2.0 / (n - 2)) * 0.5 * (np.outer(phix, gy) - np.outer(gy, phix) - np.outer(phiy, gx) + np.outer(gx, phiy))
                        + (2.0 / (n * (n - 1))) * R * 0.5 * (np.outer(gx, gy) - np.outer(gy, gx))
                    )
                    worst_c = max(worst_c, np.abs(term).max())
                    worst_p = max(worst_p, abs(x @ Phi @ y))
            rel = parallel_structure_relations(C, Phi, R, N)
            scale = max(top, np.abs(Phi).max(), abs(R))
            assert close(rel.curvature_block_residual, worst_c / scale)
            assert close(rel.ricci_block_residual, worst_p / scale)
        # constant annihilators: g(x, .) for x in N^perp annihilates N, for x in N annihilates N^perp
        dist = DistributionSpec(
            "N", [lambda _, v=g @ x: list(v) for x in perp], [lambda _, v=g @ x: list(v) for x in span]
        )
        kernel = distribution_span(cp, DistributionSpec("Nperp", dist.perp_forms))
        alpha, beta = rng.standard_normal((2, n))
        for tau in (
            skew_arr(rng.standard_normal((n,) * 3), (0, 1, 2)),
            skew_arr(np.einsum("a,b,c->abc", g @ N.frame.k, alpha, beta), (0, 1, 2)),  # vanishes on N^perp
        ):
            ref = max(abs(np.einsum("abc,a,b,c->", tau, x, y, z)) for x in kernel for y in kernel for z in kernel)
            assert close(tau_degeneracy(cp, dist, tau), ref / np.abs(tau).max())


@pytest.mark.parametrize("n", (5, 6, 8))
def test_refinement_consistency(n):
    """Pi_i^j = 0 iff all Pi_i^{j,k} = 0, on 100 random tensors per space."""
    N, rng = make_structure(n, seed=20 + n)
    for space in ("F", "A", "C"):
        st, rt = sim_table(space, n), rob_table(space, n)
        for _ in range(100):
            # random tensor supported on a random subset of sim modules
            keep = rng.random(len(st.entries)) > 0.5
            rows = [e.basis for e, kp in zip(st.entries, keep) if kp]
            if not rows:
                continue
            B = np.vstack(rows)
            t = (rng.standard_normal(B.shape[0]) @ B).reshape((n,) * RANK[space])
            t /= max(np.linalg.norm(t), 1e-300)
            arr = N.frame.from_frame(t)
            ds = decompose(space, arr, N.frame, "sim")
            dr = decompose(space, arr, N.frame, "rob")
            for e in st.entries:
                if e.key.pm is not None:
                    continue
                sim_zero = ds.norm(e.key) <= 1e-10
                refined = [c for k, c in dr.components.items() if (k.i, k.j) == (e.key.i, e.key.j)]
                rob_zero = all(c.norm <= 1e-10 for c in refined)
                assert sim_zero == rob_zero


def test_conjugation_covariance(n=6):
    """Flags for the conjugate structure swap the (1,0) and (0,1) roles."""
    N, rng = make_structure(n, seed=31)
    Nc = N.conjugate()
    C = N.frame.from_frame(random_class_tensor("C", n, rng))
    d1 = refined_flags("C", C, N)
    d2 = refined_flags("C", C, Nc)
    for k in d1.components:
        assert abs(d1.norm(k) - d2.norm(k)) < 1e-9, str(k)
    # and block conjugation: "m" blocks of N equal "mb" blocks of the conjugate
    arr1 = adapted_component_array(C, N)
    arr2 = adapted_component_array(C, Nc)
    m = n // 2
    p = m - 1

    def conj_index(a):
        if 1 <= a <= p:
            return a + p
        if p < a <= 2 * p:
            return a - p
        return a

    for combo in itertools.product(range(n), repeat=4):
        cidx = tuple(conj_index(a) for a in combo)
        assert abs(arr1[combo] - arr2[cidx]) < 1e-9


@pytest.mark.parametrize("n", (5, 6, 7, 8))
def test_structure_group_invariance_refined(n):
    """Refined flags survive transformations preserving the structure."""
    N, rng = make_structure(n, seed=40 + n)
    rt = rob_table("C", n)
    # tensor supported on an upward-closed refined set
    grades = sorted({e.grade for e in rt.entries})
    cut = 0
    keys_at_cut = [e.key for e in rt.entries if e.grade == cut]
    dropped = set(keys_at_cut[::2])
    rows = np.vstack([e.basis for e in rt.entries if e.grade >= cut and e.key not in dropped])
    t = (rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4)
    arr = N.frame.from_frame(t / np.linalg.norm(t))
    base = refined_flags("C", arr, N)
    flags = {str(k): c.vanishing for k, c in base.components.items()}
    assert any(flags.values()) and not all(flags.values())
    m, eps = n // 2, n % 2
    p = m - 1
    for trial in range(20):
        # unitary screen rotation commuting with J: block rotations of pairs
        theta = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
        U, _ = np.linalg.qr(theta)
        O = np.zeros((n - 2, n - 2))
        O[: 2 * p, : 2 * p] = _unitary_to_real(U)
        if eps:
            O[n - 3, n - 3] = 1.0
        lam = float(rng.uniform(0.5, 2.0))
        fr2 = N.frame.rotate_screen(O).boost(lam)
        z = 0.3 * rng.standard_normal(n - 2)
        fr2 = fr2.null_rotate_about_k(z)
        N2 = build_robinson(fr2, "standard")
        dec2 = refined_flags("C", arr, N2, scale=base.scale)
        flags2 = {str(k): c.vanishing for k, c in dec2.components.items()}
        assert flags == flags2, trial


def _unitary_to_real(U):
    p = U.shape[0]
    O = np.zeros((2 * p, 2 * p))
    for a in range(p):
        for b in range(p):
            O[2 * a, 2 * b] = U[a, b].real
            O[2 * a, 2 * b + 1] = U[a, b].imag
            O[2 * a + 1, 2 * b] = -U[a, b].imag
            O[2 * a + 1, 2 * b + 1] = U[a, b].real
    return O


def test_multi_robinson_equivalences_both_ways(n=6):
    N, rng = make_structure(n, seed=55)
    fr = N.frame
    st = sim_table("C", n)
    rows = np.vstack([e.basis for e in st.entries if (e.key.i, e.key.j) in ((2, 0), (1, 0), (0, 0))])
    C0 = fr.from_frame((rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4))
    C0 /= np.linalg.norm(C0)
    rep = multi_robinson_equivalences(C0, fr, samples=30, rng_seed=2)
    assert rep.pi11_vanishes and rep.special_count == rep.samples and rep.equivalence_holds
    Cg = fr.from_frame(random_class_tensor("C", n, rng))
    rep2 = multi_robinson_equivalences(Cg, fr, samples=30, rng_seed=3)
    assert not rep2.pi11_vanishes and rep2.failing_structure is not None and rep2.equivalence_holds


def test_multi_robinson_selfdual_variant(n=6):
    """Pi_1^{1,+} = 0 with Pi_1^{1,-} != 0: special for one orientation only."""
    N, rng = make_structure(n, seed=66)
    fr = N.frame
    st = sim_table("C", n)
    keep = [("C", 2, 0, None, None), ("C", 1, 0, None, None), ("C", 0, 0, None, None), ("C", 1, 1, None, "-"), ("C", 0, 1, None, "-"), ("C", 0, 3, None, "-")]
    keepkeys = {ModuleKey(*k[:4], pm=k[4]) for k in keep}
    rows = np.vstack([e.basis for e in st.entries if e.key in keepkeys])
    C = fr.from_frame((rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4))
    C /= np.linalg.norm(C)
    dec = decompose("C", C, fr, "sim")
    plus = dec.norm((1, 1, "+"))
    minus = dec.norm((1, 1, "-"))
    assert plus < 1e-10 and minus > 1e-3
    samples = sample_robinson_over_null_line(fr, 40, rng_seed=5)
    by_orient = {+1: [], -1: []}
    for Ns in samples:
        by_orient[Ns.orientation].append(special_residual(C, Ns) < 1e-9)
    # one orientation family is entirely special, the other is not
    all_plus = all(by_orient[+1])
    all_minus = all(by_orient[-1])
    assert all_plus != all_minus
    assert (not all(by_orient[-1])) if all_plus else (not all(by_orient[+1]))


@pytest.mark.parametrize("n", (6, 7))
def test_g_refined_maps_consistency(n):
    """Closed-form refined 2-form maps have exactly the predicted kernels.

    Each map vanishes precisely on the complement of the arrow down-closure
    of the module(s) it detects (two of the published labels name the other
    member of an isotypic pair; the kernels decide).
    """
    from robcls.repdims import computed_arrow_set

    N, rng = make_structure(n, seed=77)
    rt = rob_table("G", n)
    arrows = computed_arrow_set("G", n, "rob")

    def closure(*labels):
        seen = set()
        frontier = []
        for lab in labels:
            key = ModuleKey("G", *lab)
            if any(e.key == key for e in rt.entries):
                seen.add(key)
                frontier.append(key)
        while frontier:
            cur = frontier.pop()
            for (a, b) in arrows:
                if a == cur and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return {str(k) for k in seen}

    fired = {}
    for e in rt.entries:
        for _ in range(3):
            t = (rng.standard_normal(e.dim) @ e.basis).reshape((n, n))
            phi = N.frame.from_frame(t / np.linalg.norm(t))
            for name, v in g_refined_maps(phi, N).items():
                val = float(np.linalg.norm(np.atleast_1d(v)))
                fired.setdefault(name, {})
                fired[name][str(e.key)] = max(fired[name].get(str(e.key), 0.0), val)

    def hits(name):
        return {k for k, v in fired[name].items() if v > 1e-8}

    def silent_max(name):
        vals = [v for k, v in fired[name].items() if k not in hits(name)]
        return max(vals) if vals else 0.0

    expected = {
        "0,1,1": closure((0, 1, 0), (0, 1, 2), (0, 1, 3)),
        "0,1,2": closure((0, 1, 1)),
    }
    if n % 2:
        expected.update(
            {
                "-1,0,0": closure((-1, 0, 0)),
                "-1,0,1": closure((-1, 0, 1)),
                "1,0,0": closure((1, 0, 0)),
                "1,0,1": closure((1, 0, 1)),
                "1,1,3": closure((0, 1, 3)),
            }
        )
    for name, exp in expected.items():
        assert hits(name) == exp, (name, sorted(hits(name)), sorted(exp))
        assert silent_max(name) < 1e-10, name


def test_integrability_map_0_3_3(n=6):
    N, rng = make_structure(n, seed=88)
    rt = rob_table("C", n)
    e333 = rt.entry(ModuleKey("C", 0, 3, 3))
    t = (rng.standard_normal(e333.dim) @ e333.basis).reshape((n,) * 4)
    C = N.frame.from_frame(t / np.linalg.norm(t))
    assert integrability_map_0_3_3(C, N) > 1e-6
    # an element avoiding the (0,3,3) module and everything below grade 0
    rows = np.vstack([e.basis for e in rt.entries if e.grade >= 0 and e.key != e333.key])
    t2 = (rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4)
    C2 = N.frame.from_frame(t2 / np.linalg.norm(t2))
    assert integrability_map_0_3_3(C2, N) < 1e-9
