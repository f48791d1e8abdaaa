"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line.  One sub-criterion (the multiplicity
of the largest Killing-Yano spinor eigenvalue on the Iwasawa manifold) is
implemented exactly as stated but is internally inconsistent with the other
stated eigenvalues (see the strict-xfail reason and tests below); its honest
red line is reported alongside the corrected value, which passes.
"""

import numpy as np
import pytest

from robcls.catalog import (
    ENTRIES,
    iwasawa_phi_field,
    run_expectations,
    schwarzschild_null_lines,
)
from robcls.chart import eigenstructure
from robcls.classes import RANK, random_class_tensor
from robcls.frames import (
    build_robinson,
    complete_null_frame,
    hodge_relation_residuals,
    random_lorentzian,
    random_null_vector,
    robinson_form_residuals,
    sample_robinson_over_null_line,
)
from robcls import jets as JT
from robcls.modules import sim_table, rob_table
from robcls.repdims import all_dim_checks, nilpotent_action_check
from robcls.robclass import multi_robinson_equivalences, special_residual
from robcls.simclass import decompose, probe_norms, weyl_type_search
from robcls.robclass import aligned_residual

SPACES = ("G", "F", "A", "C")


def report(name, ok, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def test_ac1_dimension_tables():
    """Every table entry: computed rank equals the closed-form value."""
    import time

    t0 = time.time()
    bad = []
    total = 0
    for n in range(4, 10):
        for space in SPACES:
            for level in ("sim", "rob"):
                for chk in all_dim_checks(space, n, level):
                    total += 1
                    if not chk.match:
                        bad.append((space, n, level, str(chk.key)))
    elapsed = time.time() - t0
    report("1 dimension-tables", not bad and elapsed < 300.0, f"{total} entries, {elapsed:.0f}s")


def test_ac2_schwarzschild():
    ok = True
    details = []
    for n in range(4, 8):
        chart = ENTRIES["schwarzschild"].chart({"dim": n, "M": 1.0})
        pts = [
            np.array(([0.0, r] + [0.9, 0.5, 0.3, 0.2, 0.1][: n - 2]))
            for r in (2.6, 3.0, 4.0, 5.0, 7.0)
        ]
        for pt in pts:
            cp = chart.evaluate(pt)
            Cn = float(np.linalg.norm(cp.weyl.ravel()))
            for name, kvec in schwarzschild_null_lines(cp).items():
                fr = complete_null_frame(cp.g, kvec)
                dec = decompose("C", cp.weyl, fr, "sim")
                bw = dec.boost_weights()
                neg = np.sqrt(sum(v**2 for g_, v in bw.items() if g_ <= -1))
                pi11 = probe_norms("C", cp.weyl, fr)[(1, 1)]
                if neg / Cn > 1e-9 or pi11 / Cn > 1e-9:
                    ok = False
                    details.append(f"n={n} {name}: neg={neg/Cn:.1e} pi11={pi11/Cn:.1e}")
                samples = sample_robinson_over_null_line(fr, 100, rng_seed=n)
                worst = max(special_residual(cp.weyl, N) for N in samples)
                if len(samples) < (2 if n == 4 else 100) or worst > 1e-9:
                    ok = False
                    details.append(f"n={n} {name}: {len(samples)} samples, worst {worst:.1e}")
    report("2 schwarzschild", ok, "; ".join(details[:3]))


def test_ac3_kk_bubble():
    from robcls.catalog import kk_structures
    from robcls.chart import distribution_span
    from robcls.frames import robinson_from_span

    entry = ENTRIES["kk-bubble"]
    chart = entry.chart()
    dists = kk_structures(entry.default_params)
    ok = True
    details = []
    for r in (2.5, 3.0, 5.0):
        pt = np.array([0.0, r, 0.3, 0.2, -0.4])
        cp = chart.evaluate(pt)
        label = weyl_type_search(cp.weyl, cp.g, grid_count=10000, refine_steps=50)
        floor = label.search["refined_floor"]
        if floor <= 1e-2:
            ok = False
        details.append(f"r={r}: floor {floor:.3f}")
        for name, dist in dists.items():
            N = robinson_from_span(cp.g, distribution_span(cp, dist))
            if aligned_residual(cp.weyl, N) > 1e-9:
                ok = False
                details.append(f"r={r} {name} not aligned")
    report("3 kk-bubble", ok, "; ".join(details))


def _iwasawa_data():
    chart = ENTRIES["iwasawa"].chart()
    rng = np.random.default_rng(3)
    pts = [rng.uniform(-0.8, 0.8, size=6) for _ in range(10)]
    return chart, pts


def test_ac4_iwasawa_scalar_phi_cotton_tau():
    from robcls.catalog import iwasawa_distributions, iwasawa_quoted_combos, iwasawa_quoted_cotton
    from robcls.chart import check_cky, tau_degeneracy

    chart, pts = _iwasawa_data()
    ok = True
    details = []
    kappas = []
    for pt in pts:
        cp = chart.evaluate(pt)
        if abs(cp.ricci_scalar - 2.0) > 1e-10:
            ok = False
            details.append(f"R = {cp.ricci_scalar}")
        combos = iwasawa_quoted_combos(pt)
        target = (2.0 / 3.0) * combos["nu"] - (4.0 / 3.0) * combos["beta"]
        if np.abs(cp.phi - target).max() > 1e-9:
            ok = False
            details.append("Phi formula")
        A = cp.cotton_york()
        quoted = iwasawa_quoted_cotton(pt, cp.g, cp.g_inv)
        kappa = float(np.dot(A.ravel(), quoted.ravel()) / np.dot(quoted.ravel(), quoted.ravel()))
        kappas.append(kappa)
        if np.abs(A - kappa * quoted).max() / max(np.abs(A).max(), 1e-300) > 1e-9:
            ok = False
            details.append("Cotton shape")
    if max(kappas) - min(kappas) > 1e-9 * max(abs(k) for k in kappas):
        ok = False
        details.append("kappa drift")
    # tau nondegenerate exactly on N12
    pt = pts[0]
    cp = chart.evaluate(pt)
    rep = check_cky(cp, iwasawa_phi_field)
    for name, dist in iwasawa_distributions().items():
        deg = tau_degeneracy(cp, dist, rep.tau)
        expected_degenerate = name != "N12"
        if (deg < 1e-9) != expected_degenerate:
            ok = False
            details.append(f"tau on {name}")
    report("4 iwasawa (scalar, Phi, Cotton, tau)", ok, f"kappa = {kappas[0]:.6f}; " + "; ".join(details[:3]))


def test_ac4_iwasawa_eigenvalues_verified():
    """The verified spinor spectrum: {+-5i/4, +-i/4, +-3i/4 (x2)}."""
    chart, pts = _iwasawa_data()
    cp = chart.evaluate(pts[0])
    phi_val = JT.stack_jets(iwasawa_phi_field(JT.jet_point(pts[0], 6)), 6)[..., 0].real
    es = eigenstructure(phi_val, cp.g)
    spin = es["pure_spinor_spectrum"]
    expected = np.array(
        sorted(
            [1.25j, -1.25j, 0.25j, -0.25j, 0.75j, -0.75j, 0.75j, -0.75j],
            key=lambda z: (round(z.real, 10), round(z.imag, 10)),
        )
    )
    err = float(np.abs(spin - expected).max())
    report("4 iwasawa eigenvalues (verified spectrum, x2 value 3i/4)", err < 1e-10, f"err {err:.1e}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated literally, the multiplicity-2 eigenvalue is 3i; the two "
        "simple eigenvalues 5i/4 and i/4 (which match) force the "
        "multiplicity-2 value to be (1-1+3)i/4 = 3i/4 for any linear spinor "
        "action, since all ratios of polarisation sums of (1,1,3) are fixed; "
        "the printed 3i is inconsistent with the same source's own data"
    ),
)
def test_ac4_iwasawa_eigenvalues_as_stated():
    chart, pts = _iwasawa_data()
    cp = chart.evaluate(pts[0])
    phi_val = JT.stack_jets(iwasawa_phi_field(JT.jet_point(pts[0], 6)), 6)[..., 0].real
    es = eigenstructure(phi_val, cp.g)
    spin = es["pure_spinor_spectrum"]
    stated = np.array(
        sorted(
            [1.25j, -1.25j, 0.25j, -0.25j, 3.0j, -3.0j, 3.0j, -3.0j],
            key=lambda z: (round(z.real, 10), round(z.imag, 10)),
        )
    )
    err = float(np.abs(spin - stated).max())
    report("4 iwasawa eigenvalues (multiplicity-2 value as stated: 3i)", err < 1e-10, f"err {err:.1e}")


def test_ac5_robinson_form_identities():
    ok = True
    worst = 0.0
    for n in range(4, 10):
        rng = np.random.default_rng(500 + n)
        count = 0
        trial = 0
        while count < 100:
            g = random_lorentzian(n, rng)
            k = random_null_vector(g, rng)
            fr = complete_null_frame(g, k)
            for N in sample_robinson_over_null_line(fr, 4, rng_seed=trial):
                res = robinson_form_residuals(N)
                worst = max(worst, max(res.values()))
                count += 1
                if n in (4, 5):
                    h = hodge_relation_residuals(N)
                    worst = max(worst, max(h.values()))
            trial += 1
    ok = worst < 1e-12
    report("5 robinson-form identities", ok, f"worst {worst:.2e}")


def test_ac6_boost_scaling():
    worst = 0.0
    for n in (4, 5, 6, 7, 8):
        rng = np.random.default_rng(600 + n)
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        for space in SPACES:
            t = random_class_tensor(space, n, rng)
            arr = fr.from_frame(t)
            base = decompose(space, arr, fr, "sim")
            for lam in (0.5, 2.0, 7.0):
                boosted = decompose(space, arr, fr.boost(lam), "sim")
                for grade, nrm in base.boost_weights().items():
                    expect = lam ** (-grade) * nrm
                    worst = max(worst, abs(boosted.grade_norm(grade) - expect) / max(expect, 1e-300))
    report("6 boost-weight scaling", worst < 1e-12, f"worst relative {worst:.2e}")


def test_ac6_structure_group_invariance():
    ok = True
    for n in (5, 6, 7, 8):
        rng = np.random.default_rng(660 + n)
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        N = build_robinson(fr, "standard")
        rt = rob_table("C", n)
        keys_at0 = [e.key for e in rt.entries if e.grade == 0]
        dropped = set(keys_at0[::2])
        rows = np.vstack([e.basis for e in rt.entries if e.grade >= 0 and e.key not in dropped])
        t = (rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4)
        arr = N.frame.from_frame(t / np.linalg.norm(t))
        base = decompose("C", arr, N.frame, "rob")
        flags = {str(k): c.vanishing for k, c in base.components.items()}
        m, eps = n // 2, n % 2
        p = m - 1
        for trial in range(20):
            U, _ = np.linalg.qr(rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)))
            O = np.zeros((n - 2, n - 2))
            O[: 2 * p, : 2 * p] = _unitary_to_real(U)
            if eps:
                O[n - 3, n - 3] = 1.0
            fr2 = N.frame.rotate_screen(O).boost(float(rng.uniform(0.5, 2.0)))
            fr2 = fr2.null_rotate_about_k(0.3 * rng.standard_normal(n - 2))
            N2 = build_robinson(fr2, "standard")
            dec2 = decompose("C", arr, N2.frame, "rob", scale=base.scale)
            flags2 = {str(k): c.vanishing for k, c in dec2.components.items()}
            if flags != flags2:
                ok = False
    report("6 structure-group flag invariance", ok)


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


def test_ac6_graded_reconstruction():
    worst = 0.0
    for n in (4, 6, 7):
        rng = np.random.default_rng(670 + n)
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        for space in SPACES:
            for level in ("sim", "rob"):
                t = random_class_tensor(space, n, rng)
                arr = fr.from_frame(t)
                dec = decompose(space, arr, fr, level)
                worst = max(worst, float(np.abs(dec.reconstruct() - arr).max()))
    report("6 graded reconstruction", worst < 1e-10, f"worst {worst:.2e}")


def test_ac6_refinement_consistency():
    ok = True
    for space in ("F", "A", "C"):
        n = 7
        rng = np.random.default_rng(680)
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        N = build_robinson(fr, "standard")
        st = sim_table(space, n)
        for _ in range(100):
            keep = rng.random(len(st.entries)) > 0.5
            rows = [e.basis for e, kp in zip(st.entries, keep) if kp]
            if not rows:
                continue
            B = np.vstack(rows)
            t = (rng.standard_normal(B.shape[0]) @ B).reshape((n,) * RANK[space])
            arr = N.frame.from_frame(t / max(np.linalg.norm(t), 1e-300))
            ds = decompose(space, arr, N.frame, "sim")
            dr = decompose(space, arr, N.frame, "rob")
            for e in st.entries:
                sim_zero = ds.norm(e.key) <= 1e-10
                rob_zero = all(
                    c.norm <= 1e-10 for k, c in dr.components.items() if (k.i, k.j) == (e.key.i, e.key.j)
                )
                if sim_zero != rob_zero:
                    ok = False
    report("6 refinement consistency", ok)


def test_ac6_penrose_graphs():
    bad = []
    for n in range(4, 10):
        for space in SPACES:
            for level in ("sim", "rob"):
                checks = nilpotent_action_check(space, n, level, samples=5)
                bad += [(space, n, level, str(c.source), str(c.target)) for c in checks if not c.ok]
    report("6 penrose-graph arrow/leak", not bad, f"{len(bad)} failures")


def test_ac7_multi_robinson_equivalences():
    n = 6
    rng = np.random.default_rng(700)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    st = sim_table("C", n)
    rows = np.vstack([e.basis for e in st.entries if (e.key.i, e.key.j) in ((2, 0), (1, 0), (0, 0))])
    C0 = fr.from_frame((rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4))
    C0 /= np.linalg.norm(C0)
    rep = multi_robinson_equivalences(C0, fr, samples=200, rng_seed=1)
    ok = rep.pi11_vanishes and rep.special_count == rep.samples == 200 and rep.equivalence_holds
    Cg = fr.from_frame(random_class_tensor("C", n, rng))
    rep2 = multi_robinson_equivalences(Cg, fr, samples=200, rng_seed=2)
    ok = ok and (not rep2.pi11_vanishes) and rep2.failing_structure is not None and rep2.equivalence_holds
    report(
        "7 multi-robinson equivalence",
        ok,
        f"special {rep.special_count}/{rep.samples}; converse fails at {rep2.special_count}/{rep2.samples}",
    )


def test_ac8_parallel_and_recurrent_metrics():
    ok = True
    details = []
    for name in ("pp-wave", "walker", "schwarzschild", "myers-perry", "robinson-trautman"):
        results = run_expectations(ENTRIES[name])
        for r in results:
            if r.passed is False:
                ok = False
                details.append(f"{name}:{r.name}")
            if r.name.startswith(("parallel_vector", "recurrent_line", "parallel_structure")) and r.residual is not None:
                if r.residual > 1e-9:
                    ok = False
                    details.append(f"{name}:{r.name} residual {r.residual:.1e}")
            if r.name == "cotton_vanishes" and (r.residual or 0.0) > 1e-9:
                ok = False
                details.append(f"{name}: cotton {r.residual:.1e}")
    report("8 parallel/recurrent relations + Ricci-flat Cotton", ok, "; ".join(details[:4]))
