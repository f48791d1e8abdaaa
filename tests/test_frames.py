import numpy as np
import pytest

from robcls.frames import (
    FrameError,
    build_robinson,
    complete_null_frame,
    hodge_relation_residuals,
    levi_civita,
    orientation_of,
    random_lorentzian,
    random_null_vector,
    robinson_forms,
    robinson_form_residuals,
    robinson_from_span,
    sample_robinson_over_null_line,
    volume_form,
)
from robcls.modules import n_to_m_eps


def test_minkowski_lightcone_frame():
    n = 4
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    k = np.array([1.0, 1.0, 0.0, 0.0])
    fr = complete_null_frame(g, k)
    assert fr.max_residual() < 1e-14
    # l lies in the t-x plane, screen spans y-z
    assert np.abs(fr.l[2:]).max() < 1e-14
    span = np.abs(np.array(fr.screen))[:, :2]
    assert span.max() < 1e-14


@pytest.mark.parametrize("n", range(4, 10))
def test_frame_invariants_random(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(200):
        g = random_lorentzian(n, rng)
        k = random_null_vector(g, rng)
        fr = complete_null_frame(g, k)
        assert fr.max_residual() < 1e-12 * max(1.0, np.abs(g).max())


def test_frame_completion_errors():
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    with pytest.raises(FrameError):
        complete_null_frame(g, np.zeros(4))
    with pytest.raises(FrameError):
        complete_null_frame(g, np.array([1.0, 0.0, 0.0, 0.0]))  # timelike
    for bad in (np.nan, np.inf):
        with pytest.raises(FrameError):
            complete_null_frame(g, np.array([bad, 1.0, 0.0, 0.0]))


def test_frame_completion_deterministic():
    rng = np.random.default_rng(7)
    g = random_lorentzian(5, rng)
    k = random_null_vector(g, rng)
    a = complete_null_frame(g, k)
    b = complete_null_frame(g, k)
    assert np.array_equal(a.vectors, b.vectors)


@pytest.mark.parametrize("n", range(4, 10))
def test_robinson_forms_identities(n):
    rng = np.random.default_rng(200 + n)
    for trial in range(20):
        g = random_lorentzian(n, rng)
        k = random_null_vector(g, rng)
        fr = complete_null_frame(g, k)
        samples = sample_robinson_over_null_line(fr, 2, rng_seed=trial)
        for N in samples:
            res = robinson_form_residuals(N)
            assert max(res.values()) < 1e-12, (n, res)


def test_bad_J_rejected():
    rng = np.random.default_rng(3)
    g = random_lorentzian(6, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    bad = np.eye(4)
    with pytest.raises(FrameError):
        build_robinson(fr, bad)


def test_sampling_counts_and_orientations():
    rng = np.random.default_rng(4)
    # n = 4: exactly two structures regardless of count
    g = random_lorentzian(4, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    samples = sample_robinson_over_null_line(fr, 50, rng_seed=1)
    assert len(samples) == 2
    assert {s.orientation for s in samples} == {-1, 1}
    # n = 6: a positive-dimensional family; distinct self-dual samples exist
    g = random_lorentzian(6, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    samples = sample_robinson_over_null_line(fr, 50, rng_seed=2)
    sd = [s for s in samples if s.orientation == 1]
    assert len(sd) >= 2
    oms = [s.omega() for s in sd]
    assert np.abs(oms[0] - oms[1]).max() > 1e-3


def test_fiber_dimension_by_svd():
    """n = 7: structures on one null line form a space of dimension
    dim O(5)/U(2) = (m-1) m = 6; measured as the rank of the orbit's
    tangent directions through the structure forms (omega, u)."""
    n = 7
    rng = np.random.default_rng(5)
    g = random_lorentzian(n, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    base = build_robinson(fr, "standard")
    m, eps = n_to_m_eps(n)
    fiber_dim = (m - 1) * m  # = dim O(n-2)/U(m-1) for odd n
    h = 1e-5
    rows = []
    d = n - 2
    gens = []
    for a in range(d):
        for b in range(a + 1, d):
            A = np.zeros((d, d))
            A[a, b], A[b, a] = 1.0, -1.0
            gens.append(A)
    for A in gens:
        from scipy.linalg import expm

        Q = expm(h * A)
        NB = build_robinson(fr.rotate_screen(Q), "standard")
        d_omega = (NB.omega() - base.omega()).ravel() / h
        d_mu = (robinson_forms(NB).mu - robinson_forms(base).mu).ravel() / h
        rows.append(np.concatenate([d_omega, d_mu]))
    s2 = np.linalg.svd(np.array(rows), compute_uv=False)
    rank2 = int(np.sum(s2 > 1e-3 * s2[0]))
    assert rank2 == fiber_dim, (rank2, fiber_dim, s2[:10])


@pytest.mark.parametrize("n", (4, 5))
def test_hodge_relations_low_dimensions(n):
    """Duality between the structure forms in four and five dimensions.

    The Hodge dual of the 3-form is proportional to k (n = 4) and to the
    2-form (n = 5), with the sign set by the structure's determinant sign.
    """
    rng = np.random.default_rng(300 + n)
    for trial in range(20):
        g = random_lorentzian(n, rng)
        k = random_null_vector(g, rng)
        fr = complete_null_frame(g, k)
        for N in sample_robinson_over_null_line(fr, 2, rng_seed=trial):
            res = hodge_relation_residuals(N)
            assert max(res.values()) < 1e-12, (n, res)


def test_hodge_relations_build_no_volume_form_above_five(monkeypatch):
    """There is no relation to check above n = 5, so no n^n volume form is built."""
    import robcls.frames as frames

    def refuse(g):
        raise AssertionError(f"volume form built at n = {g.shape[0]}")

    monkeypatch.setattr(frames, "volume_form", refuse)
    rng = np.random.default_rng(306)
    g = random_lorentzian(6, rng)
    fr = complete_null_frame(g, random_null_vector(g, rng))
    assert hodge_relation_residuals(build_robinson(fr, "standard")) == {}


def test_orientation_conjugation_rule():
    rng = np.random.default_rng(8)
    for n in (4, 6, 8):
        m, eps = n_to_m_eps(n)
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        N = build_robinson(fr, "standard")
        Nc = N.conjugate()
        if m % 2 == 0:
            assert orientation_of(Nc.frame) == -N.orientation
        else:
            assert orientation_of(Nc.frame) == N.orientation


def test_robinson_from_span_round_trip():
    rng = np.random.default_rng(9)
    for n in (4, 5, 6, 7):
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        for N in sample_robinson_over_null_line(fr, 3, rng_seed=11):
            N2 = robinson_from_span(g, N.span_N())
            assert np.abs(N2.omega() - N.omega()).max() < 1e-7
            assert abs(N2.frame.k @ g @ N.frame.k) < 1e-9  # same null line


def test_schwarzschild_screen_tangent_to_sphere():
    """Completing dt + dr on the Kerr-Schild chart gives a screen tangent
    to the round sphere: orthogonal to both the time and radial directions."""
    from robcls.catalog import ENTRIES, schwarzschild_null_lines

    for n in (4, 6):
        chart = ENTRIES["schwarzschild"].chart({"dim": n, "M": 1.0})
        pt = np.array([0.0, 3.0] + [1.0, 0.5, 0.3, 0.2][: n - 2])
        cp = chart.evaluate(pt)
        k = schwarzschild_null_lines(cp)["K"]
        fr = complete_null_frame(cp.g, k)
        x = pt[1:]
        radial = np.concatenate([[0.0], x / np.linalg.norm(x)])
        tdir = np.eye(n)[0]
        for e in fr.screen:
            assert abs(e @ cp.g @ radial) < 1e-10
            assert abs(e @ cp.g @ tdir) < 1e-10
