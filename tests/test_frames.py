import numpy as np
import pytest

from conftest import random_lorentzian, random_null_vector
from robcls.frames import (
    FrameError,
    NullFrame,
    build_robinson,
    complete_null_frame,
    hodge_relation_residuals,
    levi_civita,
    n_to_m_eps,
    orientation_of,
    robinson_forms,
    robinson_form_residuals,
    robinson_from_span,
    sample_robinson_over_null_line,
    volume_form,
)


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


def _loop_completion(g, k):
    """The vector-by-vector Gram-Schmidt completion that the matrix form replaced.

    Returns (vectors, max residual) and leaves the residual threshold to the
    caller; raises like `complete_null_frame` on every other failure.
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
    cand = np.abs(gk)
    cmax = cand.max()
    idx = next(a for a in range(n) if cand[a] > 0.1 * cmax)
    w = np.zeros(n)
    w[idx] = 1.0 / gk[idx]
    l = w - 0.5 * float(w @ g @ w) * k
    l = l / float(l @ g @ k)
    l = l - 0.5 * float(l @ g @ l) * k
    screen = []
    for a in range(n):
        v = np.zeros(n)
        v[a] = 1.0
        for _ in range(2):
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
    res = [k @ g @ k, l @ g @ l, k @ g @ l - 1.0]
    for i, e in enumerate(screen):
        res += [k @ g @ e, l @ g @ e] + [e @ g @ f - (i == j) for j, f in enumerate(screen[i:], start=i)]
    return np.vstack([k, *screen, l]), max(abs(float(r)) for r in res)


def _assert_matches_loop(g, k):
    want, _ = _loop_completion(g, k)
    got = complete_null_frame(g, k).vectors
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", range(4, 10))
def test_matrix_completion_matches_loop_gram_schmidt(n):
    """The matrix-form completion is the ordered Gram-Schmidt of the loop, to round-off."""
    rng = np.random.default_rng(100 + n)
    for _ in range(200):
        g = random_lorentzian(n, rng)
        _assert_matches_loop(g, random_null_vector(g, rng))


@pytest.mark.parametrize("n", range(4, 10))
def test_matrix_completion_skips_like_loop(n):
    """Minkowski k = e_t +- e_a: the candidates e_t and e_a are skipped in both forms."""
    g = np.diag([-1.0] + [1.0] * (n - 1))
    for a in range(1, n):
        for sign in (1.0, -1.0):
            k = np.zeros(n)
            k[0], k[a] = 1.0, sign
            _assert_matches_loop(g, k)


@pytest.mark.parametrize("n", range(4, 10))
def test_matrix_completion_rescaled_k(n):
    """k rescaled by 1e3 and 1e-3: the same frame, or the same residual failure.

    The residual check is absolute (ROADMAP item 4): at these scales g(k, k)
    or g(l, l) is round-off of size |k|^2 eps or |l|^2 eps, and any change in
    how it is summed moves it by a factor of a few.  So the decision to fail
    is compared only where the loop's residual is clear of the threshold by
    a factor 5; every frame that both forms complete is compared.
    """
    rng = np.random.default_rng(200 + n)
    completed = 0
    for _ in range(100):
        g = random_lorentzian(n, rng)
        k = random_null_vector(g, rng)
        threshold = 1e-9 * max(1.0, np.abs(g).max())
        for s in (1e3, 1e-3):
            want, residual = _loop_completion(g, s * k)
            try:
                got = complete_null_frame(g, s * k).vectors
            except FrameError as exc:
                assert residual > 0.2 * threshold and "frame completion failed" in str(exc)
                continue
            assert residual <= 5.0 * threshold
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            completed += 1
    assert completed > 150


def _unfinishable_cases():
    """(g, k) whose completion fails: zero, timelike, non-finite, no screen, no dual direction."""
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    return [
        (eta, np.zeros(4)),
        (eta, np.array([1.0, 0.0, 0.0, 0.0])),
        (eta, np.array([np.nan, 1.0, 0.0, 0.0])),
        (eta, np.array([np.inf, 1.0, 0.0, 0.0])),
        (np.diag([-1.0, 1.0, -1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0])),  # signature (2, 2)
        (np.diag([-1.0, 1.0, 1.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])),  # degenerate g
        (np.diag([-1.0, 1.0, 1.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])),  # g k = 0
    ]


@pytest.mark.parametrize("g, k", _unfinishable_cases())
def test_completion_raises_frame_error_where_loop_raises(g, k):
    """Every input the loop completion rejects is a FrameError, with the loop's message where it had one."""
    with pytest.raises(Exception) as want:
        _loop_completion(g, k)
    with pytest.raises(FrameError) as got:
        complete_null_frame(g, k)
    if isinstance(want.value, FrameError):
        assert str(got.value) == str(want.value)


def test_completion_linalg_error_is_frame_error(monkeypatch):
    """A failed factorisation is reported as a FrameError, not as numpy's LinAlgError."""

    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    with pytest.raises(FrameError, match="could not complete the screen basis"):
        complete_null_frame(np.diag([-1.0, 1.0, 1.0, 1.0]), np.array([1.0, 1.0, 0.0, 0.0]))


def test_max_residual_reads_the_frame_gram_matrix():
    """max_residual is the largest entry of V g V^T - frame_metric(n), off-diagonal ones included."""
    g = np.diag([-1.0, 1.0, 1.0, 1.0])
    fr = complete_null_frame(g, np.array([1.0, 1.0, 0.0, 0.0]))
    assert fr.max_residual() < 1e-15
    bent = NullFrame(g, fr.k, fr.l, (fr.screen[0], fr.screen[1] + 1e-3 * fr.screen[0]))
    assert abs(bent.max_residual() - 1e-3) < 1e-12


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


@pytest.mark.parametrize("n", (4, 5, 6, 7))
def test_robinson_from_span_errors(n):
    """A span of the wrong rank, of real index 0, or 1e-4 off a null plane is a FrameError; 1e-8 off still builds."""
    rng = np.random.default_rng(400 + n)
    g = random_lorentzian(n, rng)
    span = sample_robinson_over_null_line(complete_null_frame(g, random_null_vector(g, rng)), 1, rng_seed=n)[0].span_N()

    def perturbed(size):
        """k kept, each m_A moved by `size` relative to its length in a random complex direction."""
        return [span[0]] + [v + size * np.linalg.norm(v) * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for v in span[1:]]

    with pytest.raises(FrameError, match="rank"):
        robinson_from_span(g, span[:-1])
    with pytest.raises(FrameError, match="real index 0"):
        robinson_from_span(g, [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in span])
    with pytest.raises(FrameError):
        robinson_from_span(g, perturbed(1e-4))
    assert robinson_from_span(g, perturbed(1e-8)).frame.max_residual() <= 1e-12


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
    base = build_robinson(fr)
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
        NB = build_robinson(fr.rotate_screen(Q))
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
    assert hodge_relation_residuals(build_robinson(fr)) == {}


def test_orientation_conjugation_rule():
    rng = np.random.default_rng(8)
    for n in (4, 6, 8):
        m, eps = n_to_m_eps(n)
        g = random_lorentzian(n, rng)
        fr = complete_null_frame(g, random_null_vector(g, rng))
        N = build_robinson(fr)
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
    from robcls.catalog import ENTRIES

    for n in (4, 6):
        chart = ENTRIES["schwarzschild"].chart({"dim": n, "M": 1.0})
        pt = np.array([0.0, 3.0] + [1.0, 0.5, 0.3, 0.2][: n - 2])
        cp = chart.evaluate(pt)
        k = ENTRIES["schwarzschild"].null_lines(cp)["K"]
        fr = complete_null_frame(cp.g, k)
        x = pt[1:]
        radial = np.concatenate([[0.0], x / np.linalg.norm(x)])
        tdir = np.eye(n)[0]
        for e in fr.screen:
            assert abs(e @ cp.g @ radial) < 1e-10
            assert abs(e @ cp.g @ tdir) < 1e-10
