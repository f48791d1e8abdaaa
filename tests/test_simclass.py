import numpy as np
import pytest

from bel_debever import probe_G6_pm, probe_images, probe_norms
from conftest import random_class_tensor, random_lorentzian, random_null_vector, reconstruct
from robcls.classes import RANK, component_grades, frame_metric
from robcls.frames import NullFrame, complete_null_frame, orthonormal_basis, orthonormal_null_frame, reference_frame
from robcls.modules import sim_table
import robcls.simclass as simclass
from robcls.catalog import ENTRIES
from robcls.simclass import (
    GradedDecomposition,
    decompose,
    down_closure,
    sphere_grid,
    wand_residual,
    weyl_type_at_frame,
    weyl_type_search,
)
from robcls.tensor import skew_arr, transform_slots

SPACES = ("G", "F", "A", "C")


@pytest.mark.parametrize("n", (4, 5, 6, 7))
@pytest.mark.parametrize("space", SPACES)
def test_probe_vanishing_matches_down_closure(space, n):
    rng = np.random.default_rng(11)
    fr = reference_frame(n)
    tab = sim_table(space, n)
    for (i, j) in sorted({(e.key.i, e.key.j) for e in tab.entries}):
        closure = {(k.i, k.j, k.pm) for k in down_closure(space, n, i, j)}
        rows_out = [e.basis for e in tab.entries if (e.key.i, e.key.j, e.key.pm) not in closure]
        rows_in = [e.basis for e in tab.entries if (e.key.i, e.key.j, e.key.pm) in closure]
        for rows, expect_zero in ((rows_out, True), (rows_in, False)):
            if not rows:
                continue
            B = np.vstack(rows)
            t = (rng.standard_normal(B.shape[0]) @ B).reshape((n,) * RANK[space])
            t /= np.linalg.norm(t)
            val = probe_norms(space, t, fr)[(i, j)]
            if expect_zero:
                assert val < 1e-10, (space, n, i, j)
            else:
                assert val > 1e-6, (space, n, i, j)


@pytest.mark.parametrize("n", (4, 6, 7))
def test_boost_scaling_exact(n):
    """Grade-i frame components scale by lambda^{-i} under (k,l)->(lam k, l/lam)."""
    rng = np.random.default_rng(13)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    for space in SPACES:
        t = random_class_tensor(space, n, rng)
        arr = fr.from_frame(t)
        base = decompose(space, arr, fr, "sim")
        for lam in (0.5, 2.0, 7.0):
            boosted = decompose(space, arr, fr.boost(lam), "sim")
            for grade, nrm in base.boost_weights().items():
                scaled = boosted.boost_weights().get(grade, 0.0)
                assert abs(scaled - lam ** (-grade) * nrm) <= 1e-12 * max(1.0, scaled), (space, grade, lam)


@pytest.mark.parametrize("n", (5, 6))
def test_flag_invariance_under_structure_group(n):
    """Vanishing flags survive screen rotations and null rotations about k.

    Flags of the splitting-dependent components are invariant exactly when
    the tensor's support is upward-closed in the filtration (possibly with
    modules removed at the lowest retained grade); that is the shape of
    every invariant vanishing statement, and it is what is tested.
    """
    rng = np.random.default_rng(29)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    for space in ("F", "C"):
        tab = sim_table(space, n)
        grades = sorted({e.grade for e in tab.entries})
        cut = grades[len(grades) // 2]
        at_cut = [e.key for e in tab.entries if e.grade == cut]
        dropped = {at_cut[0]}
        rows = np.vstack([e.basis for e in tab.entries if e.grade >= cut and e.key not in dropped])
        t = (rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * RANK[space])
        t /= np.linalg.norm(t)
        arr = fr.from_frame(t)
        base = decompose(space, arr, fr, "sim")
        flags = {str(k): c.vanishing for k, c in base.components.items()}
        assert flags[str(at_cut[0])] and any(not v for v in flags.values())
        for trial in range(20):
            Q, _ = np.linalg.qr(rng.standard_normal((n - 2, n - 2)))
            fr2 = fr.rotate_screen(Q)
            z = 0.5 * rng.standard_normal(n - 2)
            fr2 = fr2.null_rotate_about_k(z)
            dec = decompose(space, arr, fr2, "sim", scale=base.scale)
            if n == 6:
                # +- labels may swap under orientation-reversing rotations
                agg = lambda d: {(k.i, k.j): d.norm_ij(k.i, k.j) <= d.tol.threshold(d.scale) for k in d.components}
                assert agg(base) == agg(dec)
            else:
                flags2 = {str(k): c.vanishing for k, c in dec.components.items()}
                assert flags == flags2, (space, trial)


def test_filtration_logic():
    rng = np.random.default_rng(31)
    n = 6
    fr = reference_frame(n)
    for space in SPACES:
        tab = sim_table(space, n)
        grades = sorted({e.grade for e in tab.entries})
        for _ in range(100):
            cut = rng.choice(grades)
            rows = [e.basis for e in tab.entries if e.grade > cut]
            if not rows:
                continue
            B = np.vstack(rows)
            t = (rng.standard_normal(B.shape[0]) @ B).reshape((n,) * RANK[space])
            arr = fr.from_frame(t / np.linalg.norm(t))
            dec = decompose(space, arr, fr, "sim")
            assert dec.filtration_vanishing(cut)
            deeper = [g for g in grades if g <= cut]
            for g_ in deeper:
                assert dec.boost_weights().get(g_, 0.0) < 1e-10


def test_graded_reconstruction():
    rng = np.random.default_rng(37)
    for n in (5, 6):
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        for space in SPACES:
            t = random_class_tensor(space, n, rng)
            arr = fr.from_frame(t)
            dec = decompose(space, arr, fr, "sim")
            rec = reconstruct(dec)
            assert np.abs(rec - arr).max() < 1e-10 * max(1.0, np.abs(arr).max())
            # representative injection is returned unchanged
            tab = sim_table(space, n)
            e = tab.entries[0]
            t1 = fr.from_frame((rng.standard_normal(e.dim) @ e.basis).reshape((n,) * RANK[space]))
            dec1 = decompose(space, t1, fr, "sim")
            assert np.abs(reconstruct(dec1) - t1).max() < 1e-10
            assert np.abs(dec1.image(e.key) - t1).max() < 1e-10


def test_representative_round_trip_probes():
    """Pure representatives fire only their own probe at the matching grade."""
    rng = np.random.default_rng(41)
    for n in (5, 6):
        fr = reference_frame(n)
        for space in SPACES:
            tab = sim_table(space, n)
            for e in tab.entries:
                for _ in range(3):
                    t = (rng.standard_normal(e.dim) @ e.basis).reshape((n,) * RANK[space])
                    t /= np.linalg.norm(t)
                    norms = probe_norms(space, t, fr)
                    for (i, j), val in norms.items():
                        if i != e.grade:
                            continue
                        same = (i, j) == (e.key.i, e.key.j)
                        if same:
                            assert val > 1e-8, (space, n, e.key)
                        else:
                            assert val < 1e-10, (space, n, e.key, (i, j))


def test_weyl_types_on_constructed_tensors():
    n = 5
    fr = reference_frame(n)
    tab = sim_table("C", n)
    rng = np.random.default_rng(43)

    def build(grades):
        rows = np.vstack([e.basis for e in tab.entries if e.grade in grades])
        t = (rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4)
        return fr.from_frame(t / np.linalg.norm(t))

    assert weyl_type_at_frame(build({2}), fr).type == "N"
    assert weyl_type_at_frame(build({1, 2}), fr).type == "III"
    assert weyl_type_at_frame(build({0, 1}), fr).type == "II"
    assert weyl_type_at_frame(build({-1, 0}), fr).type == "I"
    assert weyl_type_at_frame(build({-2, 0}), fr).type == "G"
    assert weyl_type_at_frame(np.zeros((n,) * 4), fr).type == "O"


def planted_weyl(n, grades, seed):
    """Weyl tensor with components only in the given grades of a random frame, and its k."""
    rng = np.random.default_rng(seed)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    rows = np.vstack([e.basis for e in sim_table("C", n).entries if e.grade in grades])
    t = fr.from_frame((rng.standard_normal(rows.shape[0]) @ rows).reshape((n,) * 4))
    return t / np.linalg.norm(t), g, fr.k


def test_weyl_type_search_recovers_wand():
    # a type-N tensor along a hidden direction is found by the search
    t, g, _ = planted_weyl(5, {2}, seed=47)
    label = weyl_type_search(t, g, grid_count=2000, refine_steps=60)
    assert label.search["refined_floor"] < 1e-6
    assert label.type in ("N", "O")


def _image_residual(C, frame_basis, omega, g, Cnorm):
    """The WAND residual as the norm of the n^4 image skew_(01)(23)(U (x) M (x) U): the oracle of `wand_residual`."""
    k = frame_basis[0] + omega @ frame_basis[1:]
    M = np.einsum("befc,e,f->bc", C, k, k)
    kb = g @ k
    img = skew_arr(np.einsum("a,bc,d->abcd", kb, M, kb), (0, 1), (2, 3))
    return float(np.linalg.norm(img) / Cnorm)


def _random_weyl_on_basis(n, rng):
    """A random Weyl tensor in a random Lorentzian metric, its orthonormal basis and Cnorm as the search takes it."""
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    C = fr.from_frame(random_class_tensor("C", n, rng))
    basis = orthonormal_basis(g)
    return C, g, basis, float(np.linalg.norm(transform_slots(C, basis)))


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9))
def test_wand_residual_matches_image_oracle(n):
    """s |P M P| / 2 equals the norm of the antisymmetrised n^4 image, one direction and a stack."""
    rng = np.random.default_rng(80 + n)
    for _ in range(4):
        C, g, basis, Cnorm = _random_weyl_on_basis(n, rng)
        W = rng.standard_normal((40, n - 1))
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        want = np.array([_image_residual(C, basis, w, g, Cnorm) for w in W])
        single = np.array([wand_residual(C, basis, w, g, Cnorm) for w in W])
        assert np.all(np.abs(single - want) <= 1e-13 * want)
        assert np.all(np.abs(wand_residual(C, basis, W, g, Cnorm) - want) <= 1e-13 * want)


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9))
@pytest.mark.parametrize("grades", [set(range(-1, 3)), {0, 1, 2}, {1, 2}, {2}], ids=["-1..2", "0..2", "1..2", "2"])
def test_wand_residual_matches_image_oracle_near_planted_wands(n, grades):
    """At a planted WAND, where both forms read round-off, and at perturbations
    of 1e-12 to 1e-4 from it, the closed form agrees with the n^4 image: to
    relative 1e-13 above the round-off floor, to 1e-15 absolute (|C| = 1) at it."""
    C, g, k0 = planted_weyl(n, grades, seed=900 + n + 10 * len(grades))
    basis = orthonormal_basis(g)
    Cnorm = float(np.linalg.norm(transform_slots(C, basis)))
    kh = np.linalg.solve(basis.T, k0)  # k0 = kh @ basis
    w0 = kh[1:] / np.linalg.norm(kh[1:])
    rng = np.random.default_rng(n)
    W = [w0]
    for eps in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
        d = rng.standard_normal(n - 1)
        w = w0 + eps * d / np.linalg.norm(d)
        W.append(w / np.linalg.norm(w))
    W = np.array(W)
    want = np.array([_image_residual(C, basis, w, g, Cnorm) for w in W])
    got = wand_residual(C, basis, W, g, Cnorm)
    assert want[0] < 1e-14  # the planted direction is a WAND
    assert np.all(np.abs(got - want) <= 1e-13 * want + 1e-15)


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9))
def test_grid_closed_form_matches_wand_residual(n):
    """The grid's batched call, over more than one row block, gives the single-direction values."""
    rng = np.random.default_rng(61 + n)
    C, g, basis, Cnorm = _random_weyl_on_basis(n, rng)
    grid = sphere_grid(n - 2, 3000)
    assert len(grid) > simclass._GRID_BLOCK
    batched = wand_residual(C, basis, grid, g, Cnorm)
    single = np.array([wand_residual(C, basis, w, g, Cnorm) for w in grid])
    assert batched.shape == (len(grid),)
    assert np.all(np.abs(batched - single) <= 1e-14 * single)


def _sequential_grid_and_descent(C, g, grid_count, refine_steps=50):
    """The grid and the pattern descent, one `wand_residual` call per direction:
    (descended direction, its residual, grid floor, grid median)."""
    n = g.shape[0]
    basis = orthonormal_basis(g)
    Cnorm = max(float(np.linalg.norm(transform_slots(C, basis))), 1e-300)
    grid = sphere_grid(n - 2, grid_count)
    vals = np.array([wand_residual(C, basis, w, g, Cnorm) for w in grid])
    best = int(np.argmin(vals))
    omega, cur, step = grid[best], vals[best], 0.3
    eye = np.eye(n - 1)
    for _ in range(refine_steps):
        improved = False
        for d in range(n - 1):
            for s in (+1.0, -1.0):
                cand = omega + s * step * eye[d]
                cand = cand / np.linalg.norm(cand)
                val = wand_residual(C, basis, cand, g, Cnorm)
                if val < cur:
                    cur, omega, improved = val, cand, True
        if not improved:
            step *= 0.5
            if step < 1e-8:
                break
    return omega, cur, float(vals.min()), float(np.median(vals))


SEARCH_CASES = ["schwarzschild-r3-n4", "schwarzschild-r3-n7", "pp-wave#0", "kk-bubble#0", "planted-N-n5"]


def _search_case(name):
    if name.startswith("schwarzschild"):
        n = int(name[-1])
        cp = ENTRIES["schwarzschild"].chart({"dim": n}).evaluate([0.0, 3.0] + [0.0] * (n - 2))
        return cp.weyl, cp.g
    if name == "planted-N-n5":
        return planted_weyl(5, {2}, seed=47)[:2]
    entry = ENTRIES[name.split("#")[0]]
    cp = entry.chart().evaluate(entry.sample_points(dict(entry.default_params))[0])
    return cp.weyl, cp.g


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_weyl_type_search_matches_per_point_grid(name, monkeypatch):
    """The batched grid and polls report what a per-point grid and a sequential
    compass poll give: the reference descends per point, and the search's
    polish then starts from its direction (a one-point grid, no descent).
    Floors agree to relative 1e-12, or to 1e-15 of |C| at the round-off floor."""
    C, g = _search_case(name)
    new = weyl_type_search(C, g, grid_count=2000)
    omega, cur, grid_floor, grid_median = _sequential_grid_and_descent(C, g, 2000)
    monkeypatch.setattr(simclass, "sphere_grid", lambda dim_sphere, count: omega[None, :])
    ref = weyl_type_search(C, g, grid_count=2000, refine_steps=0)
    assert ref.search["grid_floor"] == cur
    for key, want in (("grid_floor", grid_floor), ("grid_median", grid_median), ("refined_floor", ref.search["refined_floor"])):
        assert abs(new.search[key] - want) <= 1e-12 * want + 1e-15, key
    assert np.abs(new.direction - ref.direction).max() <= 1e-12 * np.abs(ref.direction).max()
    assert new.type == ref.type


# `wand_residual` calls per search as measured: the grid, the poll batches and
# the final floor (a sequential poll made 331 to 635 single-direction calls)
WAND_CALL_BUDGET = {"schwarzschild-r3-n4": 102, "schwarzschild-r3-n7": 103, "pp-wave#0": 102, "kk-bubble#0": 59, "planted-N-n5": 58}


@pytest.mark.parametrize("name", SEARCH_CASES)
def test_weyl_type_search_wand_residual_work_budget(name, monkeypatch):
    """One `wand_residual` call for the grid, one per poll batch and one for the final floor."""
    C, g = _search_case(name)
    calls = []

    def counting(C, frame_basis, omega, g, Cnorm):
        calls.append(np.shape(omega))
        return wand_residual(C, frame_basis, omega, g, Cnorm)

    monkeypatch.setattr(simclass, "wand_residual", counting)
    weyl_type_search(C, g)
    n = g.shape[0]
    assert calls[0] == (10000, n - 1)
    assert calls[-1] == (n - 1,)
    assert all(len(c) == 2 and 1 <= c[0] <= 2 * (n - 1) for c in calls[1:-1])
    assert len(calls) <= WAND_CALL_BUDGET[name], len(calls)


@pytest.mark.parametrize("n,grades,planted", [(8, {2}, "N"), (9, {0, 1, 2}, "II")])
def test_weyl_type_search_recovers_planted_wand_high_dim(n, grades, planted):
    C, g, k0 = planted_weyl(n, grades, seed=1)
    label = weyl_type_search(C, g)
    assert label.type == planted
    assert label.search["refined_floor"] < 1e-12
    k = label.direction / np.linalg.norm(label.direction)
    assert abs(k @ k0) / np.linalg.norm(k0) > 1 - 1e-9


@pytest.mark.parametrize("n", range(4, 10))
def test_grade_columns_carry_the_sim_module_norms(n):
    """The polish's ladder residual: the norm of a Weyl tensor's frame components
    at grades <= level is the norm of its sim module coefficients there."""
    rng = np.random.default_rng(300 + n)
    table = sim_table("C", n)
    assert (n == 6) == any(e.key.pm for e in table.entries)
    grades = component_grades(n, 4)
    for _ in range(5):
        g = random_lorentzian(n, rng)
        C = complete_null_frame(g, random_null_vector(g, rng)).from_frame(random_class_tensor("C", n, rng))
        flat = complete_null_frame(g, random_null_vector(g, rng)).to_frame(C).ravel()
        coeff = table.coefficients(flat)
        for level in (-2, -1, 0, 1):
            want = np.sqrt(sum(np.linalg.norm(coeff[table.slices[e.key]]) ** 2 for e in table.entries if e.grade <= level))
            got = np.linalg.norm(flat[grades <= level])
            assert abs(got - want) <= 1e-12 * want


def test_polish_propagates_errors_other_than_frame_error(monkeypatch):
    """The search completes one frame, the labelling one at the best direction
    (the ladder reads C in `orthonormal_null_frame`), and any error from that
    completion ends the search."""
    for name in SEARCH_CASES:
        C, g = _search_case(name)
        calls = []

        def counting(g, k):
            calls.append(k)
            return complete_null_frame(g, k)

        monkeypatch.setattr(simclass, "complete_null_frame", counting)
        label = weyl_type_search(C, g)
        assert len(calls) == 1, name
        assert np.array_equal(calls[0], label.direction)

    def broken(g, k):
        raise RuntimeError("broken completion")

    monkeypatch.setattr(simclass, "complete_null_frame", broken)
    with pytest.raises(RuntimeError, match="broken completion"):
        weyl_type_search(*_search_case("pp-wave#0"))


@pytest.mark.parametrize("n", range(4, 10))
def test_orthonormal_null_frame_is_an_adapted_frame(n):
    """Its rows pair like `frame_metric(n)` under eta and its k row is (1, w), also at w = +-e_1."""
    rng = np.random.default_rng(500 + n)
    eta = np.diag([-1.0] + [1.0] * (n - 1))
    e1 = np.eye(n - 1)[0]
    ws = [e1, -e1] + [w / np.linalg.norm(w) for w in rng.standard_normal((20, n - 1))]
    for w in ws:
        V = orthonormal_null_frame(w)
        assert np.abs(V @ eta @ V.T - frame_metric(n)).max() <= 1e-14
        assert np.array_equal(V[0], np.concatenate([[1.0], w]))


@pytest.mark.parametrize("n", range(4, 10))
def test_ladder_residual_matches_completed_frame_where_lower_grades_vanish(n):
    """At a planted k whose Weyl tensor has no grade below `level`, the ladder
    residual in `orthonormal_null_frame` equals the one read through
    `complete_null_frame` and `to_frame`: the two frames differ by a screen
    rotation and a null rotation about k, which adds only lower grades."""
    grades = component_grades(n, 4)
    for seed, level in enumerate((-2, -1, 0, 1)):
        C, g, k0 = planted_weyl(n, set(range(level, 3)), seed=700 + 10 * n + seed)
        basis = orthonormal_basis(g)
        kh = np.linalg.solve(basis.T, k0)  # k0 = kh @ basis
        w = kh[1:] / kh[0]
        w /= np.linalg.norm(w)
        F_new = transform_slots(transform_slots(C, basis), orthonormal_null_frame(w)).ravel()
        F_old = complete_null_frame(g, basis[0] + w @ basis[1:]).to_frame(C).ravel()
        want = np.linalg.norm(F_old[grades <= level])
        assert want > 1e-6  # the planted lowest grade does not vanish
        assert abs(np.linalg.norm(F_new[grades <= level]) - want) <= 1e-12 * want, level


def test_sphere_grid_deterministic_unit():
    a = sphere_grid(3, 500)
    b = sphere_grid(3, 500)
    assert np.array_equal(a, b)
    assert np.abs(np.linalg.norm(a, axis=1) - 1).max() < 1e-12


def _assert_bit_equal(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("count", (200, 4000, 10000))
def test_ndtri_matches_scipy_on_every_grid(count):
    """The grids of n = 4..9 at the sizes the program searches (catalog 200 and 4000, --search 10000)."""
    from scipy.special import ndtri

    for dim_sphere in range(2, 8):
        pts = simclass._halton(dim_sphere + 1, count)
        _assert_bit_equal(simclass._ndtri(pts), ndtri(pts))
        z = ndtri(pts)
        _assert_bit_equal(sphere_grid(dim_sphere, count), z / np.linalg.norm(z, axis=1, keepdims=True))


def test_ndtri_matches_scipy_on_random_points():
    """1.2M points: uniform, deep lower tail down to 1e-300, and upper tail up to 1 - 1e-16."""
    from scipy.special import ndtri

    rng = np.random.default_rng(2024)
    y = np.concatenate([rng.random(400_000), 10 ** rng.uniform(-300, -1, 400_000), 1 - 10 ** rng.uniform(-16, -1, 400_000)])
    _assert_bit_equal(simclass._ndtri(y), ndtri(y))


def test_ndtri_matches_scipy_at_branch_edges():
    """exp(-2) (central/tail), its reflection, 0.5, the grid's clip limits, and x = 8 (y = exp(-32)) where the tails switch."""
    from scipy.special import ndtri

    x_switch = np.exp(-0.5 * np.array([8.0 - 1e-9, 8.0, 8.0 + 1e-9]) ** 2)
    x = np.sqrt(-2.0 * np.log(x_switch))
    assert x[0] < 8.0 < x[2]  # both tail approximations are reached
    edges = [0.5, 1e-12, 1 - 1e-12]
    for y in (np.exp(-2.0), 0.13533528323661269189, *x_switch):
        for e in (np.nextafter(y, 0.0), y, np.nextafter(y, 1.0)):
            edges += [e, 1.0 - e]
    y = np.array(edges)
    _assert_bit_equal(simclass._ndtri(y), ndtri(y))


def test_sphere_grid_cached_read_only():
    a = sphere_grid(4, 300)
    assert sphere_grid(4, 300) is a
    with pytest.raises(ValueError, match="read-only"):
        a[0, 0] = 0.0


def test_sphere_grid_rejects_spheres_beyond_its_primes():
    """Nine primes cover S^8 (n = 10); S^9 would leave a column unset."""
    assert np.isfinite(sphere_grid(8, 50)).all()
    with pytest.raises(ValueError, match="no prime"):
        sphere_grid(9, 10)


def test_probe_g6_pm_matches_module_split():
    """The explicit n = 6 Hodge-split 2-form probes separate the +- modules."""
    from robcls.modules import ModuleKey

    n = 6
    rng = np.random.default_rng(53)
    fr = reference_frame(n)
    tab = sim_table("G", n)
    for pm in ("+", "-"):
        e = tab.entry(ModuleKey("G", 0, 1, None, pm))
        t = (rng.standard_normal(e.dim) @ e.basis).reshape((n, n))
        t /= np.linalg.norm(t)
        imgs = probe_G6_pm(t, fr)
        same = float(np.linalg.norm(imgs[pm]))
        other = float(np.linalg.norm(imgs["+" if pm == "-" else "-"]))
        assert same > 1e-6 and other < 1e-10, (pm, same, other)
    # the grading element is killed by both
    from robcls.modules import _E
    imgs = probe_G6_pm(_E(n), fr)
    assert max(np.linalg.norm(v) for v in imgs.values()) < 1e-12


def test_grading_element_probe_pattern():
    """phi = k wedge l fires only the center detector; k wedge e only the
    grade +1 one."""
    n = 5
    fr = reference_frame(n)
    g = fr.g
    kb, lb = g @ fr.k, g @ fr.l
    E = -(np.outer(kb, lb) - np.outer(lb, kb))
    norms = probe_norms("G", E, fr)
    assert norms[(-1, 0)] < 1e-14 and norms[(0, 1)] < 1e-14
    assert norms[(0, 0)] > 0.5
    eb = g @ fr.screen[0]
    ke = np.outer(kb, eb) - np.outer(eb, kb)
    norms = probe_norms("G", ke, fr)
    assert norms[(-1, 0)] < 1e-14 and norms[(0, 0)] < 1e-14 and norms[(0, 1)] < 1e-14
    assert norms[(1, 0)] > 0.5


# The C_0^3 probe's trace term as first written: nine two-pair placements of g W g.

_C03_PIECES = [
    ("da,be,fc", (0, 1), (4, 5)),
    ("db,ce,fa", (1, 2), (4, 5)),
    ("dc,ae,fb", (0, 2), (4, 5)),
    ("ea,bf,dc", (0, 1), (3, 5)),
    ("eb,cf,da", (1, 2), (3, 5)),
    ("ec,af,db", (0, 2), (3, 5)),
    ("fa,bd,ec", (0, 1), (3, 4)),
    ("fb,cd,ea", (1, 2), (3, 4)),
    ("fc,ad,eb", (0, 2), (3, 4)),
]


def _ref_C03_trace(g, W):
    t3 = 0.0
    for spec, br1, br2 in _C03_PIECES:
        t3 = t3 + skew_arr(np.einsum(spec + "->abcdef", g, W, g), br1, br2)
    return t3


@pytest.mark.parametrize("n", (4, 5, 6, 7, 8, 9))
def test_probes_vanish_with_closure_norms_in_random_frames(n):
    """In a random Lorentzian frame, each Bel-Debever probe of F, A and C and the
    closure norm of its label vanish together: both are nonzero on a random
    tensor (both vanish where the label has no module below it), and both
    vanish once the modules of the closure are taken out."""
    rng = np.random.default_rng(41 + n)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    for space in ("F", "A", "C"):
        tab = sim_table(space, n)
        t = random_class_tensor(space, n, rng)
        T = fr.from_frame(t)
        dec = decompose(space, T, fr, "sim")
        for (i, j), img in probe_images(space, T, fr).items():
            closure = down_closure(space, n, i, j)
            probe, pi = float(np.linalg.norm(img)), dec.closure_norm(i, j)
            if closure:
                assert probe > 1e-6 and pi > 1e-6, (space, i, j, probe, pi)
            else:
                assert probe < 1e-10 and pi == 0.0, (space, i, j, probe)
            coeff = tab.coefficients(t.ravel())
            for key in closure:
                coeff[tab.slices[key]] = 0.0
            T_out = fr.from_frame((tab.stacked.T @ coeff).reshape(t.shape))
            probe_out = float(np.linalg.norm(probe_images(space, T_out, fr)[(i, j)]))
            assert probe_out < 1e-10 and decompose(space, T_out, fr, "sim").closure_norm(i, j) < 1e-12, (space, i, j, probe_out)


def test_C03_trace_is_nine_times_one_placement():
    """The nine two-pair placements of g W g sum to 9 Skew_abc Skew_def (g_da W_be g_fc) for symmetric W."""
    rng = np.random.default_rng(43)
    n = 6
    W = rng.standard_normal((n, n))
    W = W + W.T
    for g in (random_lorentzian(n, rng), rng.standard_normal((n, n))):
        one = skew_arr(np.einsum("da,be,fc->abcdef", g, W, g), (0, 1, 2), (3, 4, 5))
        nine = _ref_C03_trace(g, W)
        assert np.abs(nine - 9.0 * one).max() <= 1e-14 * np.abs(nine).max()


LORENTZIAN = [name for name, entry in ENTRIES.items() if sum(s < 0 for s in entry.chart().signature) == 1]


@pytest.mark.parametrize("name", LORENTZIAN)
def test_weyl_type_is_coordinate_covariant(name):
    """The type, the subtype flags and the residuals Pi_i^j do not see a change of
    coordinates x = lam Q y: g, C and the frame at each sample point, along the
    default null direction, carried through it with lam = 1e-2 and 1e2."""
    from robcls.cli import _null_direction

    entry = ENTRIES[name]
    chart = entry.chart()
    rng = np.random.default_rng(59)
    for pt in entry.sample_points(chart.params):
        cp = chart.evaluate(pt)
        fr = complete_null_frame(cp.g, _null_direction(None, entry, cp))
        base = weyl_type_at_frame(cp.weyl, fr)
        n = fr.n
        for lam in (1e-2, 1e2):
            J = lam * np.linalg.qr(rng.standard_normal((n, n)))[0]  # dx/dy
            Jinv = np.linalg.inv(J)
            fr_y = NullFrame(J.T @ cp.g @ J, Jinv @ fr.k, Jinv @ fr.l, tuple(Jinv @ e for e in fr.screen))
            label = weyl_type_at_frame(transform_slots(cp.weyl, J.T), fr_y)
            assert (label.type, label.subtype_flags) == (base.type, base.subtype_flags), (pt, lam)
            assert label.residuals.keys() == base.residuals.keys()
            scale = base.decomposition.scale
            for key, val in base.residuals.items():
                assert abs(label.residuals[key] - val) <= 1e-12 * scale, (pt, lam, key)


def test_weyl_type_at_frame_memory_budget():
    """A warm label at n = 9 allocates no n^6 probe images: its tracemalloc peak stays under 2 MB."""
    import tracemalloc

    cp = ENTRIES["schwarzschild"].chart({"dim": 9}).evaluate([0.0, 3.0] + [0.0] * 7)
    fr = complete_null_frame(cp.g, ENTRIES["schwarzschild"].null_lines(cp)["K"])
    weyl_type_at_frame(cp.weyl, fr)  # builds the tables and closures
    tracemalloc.start()
    try:
        weyl_type_at_frame(cp.weyl, fr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
