import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from meridian.kernels import (SERIES_M, RingMoments, k_modulus, kernel_batch,
                              kernel_triple)


def quad_kernel_reference(r, rho, zeta, which):
    """Independent full-period [0, 2pi] quadrature of the kernel displays."""
    def integrand(p):
        den = (r * r + rho * rho - 2 * r * rho * np.cos(p) + zeta * zeta) ** 1.5
        if which == 1:
            return zeta * np.cos(p) / den / (4 * np.pi)
        if which == 2:
            return -(rho - r * np.cos(p)) / den / (4 * np.pi)
        return -(rho - r * np.cos(p)) * np.cos(p) / den / (4 * np.pi)
    val, _ = quad(integrand, 0.0, 2.0 * np.pi, limit=400, epsabs=1e-13)
    return val


def test_kernel_axis_closed_forms():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = rng.uniform(0.2, 8.0)
        zeta = rng.uniform(-5.0, 5.0)
        kt = kernel_triple(0.0, rho, zeta, tol=1e-13)
        exact = -rho / (2.0 * (rho * rho + zeta * zeta) ** 1.5)
        assert abs(kt.gamma2 / exact - 1.0) < 1e-10
        assert abs(kt.gamma1) < 1e-12
        assert abs(kt.gamma3) < 1e-12


def test_kernel_zeta_zero_gamma1_vanishes():
    for r, rho in ((1.0, 2.0), (3.0, 0.5), (10.0, 11.0)):
        kt = kernel_triple(r, rho, 0.0)
        assert kt.gamma1 == 0.0


def test_kernel_gamma1_odd_in_zeta():
    rng = np.random.default_rng(3)
    for _ in range(100):
        r = rng.uniform(0.5, 20.0)
        rho = rng.uniform(0.1, 30.0)
        zeta = rng.uniform(0.05, 10.0)
        a = kernel_triple(r, rho, zeta, tol=1e-12)
        b = kernel_triple(r, rho, -zeta, tol=1e-12)
        tol = 2e-11 + a.err1 + b.err1
        assert abs(a.gamma1 + b.gamma1) < tol
        assert abs(a.gamma2 - b.gamma2) < 2e-11 + a.err2 + b.err2
        assert abs(a.gamma3 - b.gamma3) < 2e-11 + a.err3 + b.err3


def test_kernel_full_period_reduction_consistency():
    # the [0, pi/2] reduced quadrature equals raw full-period integration
    pts = [(2.0, 1.0, 0.5), (3.0, 3.1, 0.05), (5.0, 0.2, -1.0), (2.0, 8.0, 3.0)]
    for (r, rho, zeta) in pts:
        kt = kernel_triple(r, rho, zeta, tol=1e-13)
        for which, got, err in ((1, kt.gamma1, kt.err1),
                                (2, kt.gamma2, kt.err2),
                                (3, kt.gamma3, kt.err3)):
            ref = quad_kernel_reference(r, rho, zeta, which)
            assert abs(got - ref) < 1e-9 + err


def test_kernel_triple_rejects_diagonal():
    with pytest.raises(ValueError):
        kernel_triple(2.0, 2.0, 0.0)


def test_kernel_error_estimates_within_tolerance():
    kt = kernel_triple(4.0, 3.9, 0.01, tol=1e-11)
    assert kt.err1 <= 1e-10 and kt.err2 <= 1e-10 and kt.err3 <= 1e-10


def test_kernel_substitution_branch_near_diagonal():
    # K beyond 1e6: the angular boundary layer is narrower than 1e-3
    r, rho = 100.0, 100.001
    zeta = 5e-4
    K = k_modulus(r, rho, zeta)
    assert K > 1e6
    kt = kernel_triple(r, rho, zeta, tol=1e-12)
    kb = kernel_batch(r, np.array([rho]), np.array([zeta]))
    assert abs(kt.gamma2 - kb.g2[0]) < 1e-8 * abs(kt.gamma2)
    assert abs(kt.gamma1 - kb.g1[0]) < 1e-8 * abs(kt.gamma1)


def _oracle_gaps(r, rho, zeta):
    """The oracle's G1, G2, G3 at one point, their distances to the batch
    values and their error estimates, and the largest batch kernel.

    Near the diagonal G2 and G3 are small differences of large moments, so
    rounding-level agreement is relative to the largest kernel, not to each
    value."""
    kt = kernel_triple(r, rho, zeta)
    kb = kernel_batch(r, np.array([rho]), np.array([zeta]))
    got = np.array([kt.gamma1, kt.gamma2, kt.gamma3])
    want = np.array([kb.g1[0], kb.g2[0], kb.g3[0]])
    return got, np.abs(got - want), np.array([kt.err1, kt.err2, kt.err3]), \
        np.max(np.abs(want))


@pytest.mark.parametrize("r, rho, zeta", [(1.1, 1.1, 1.1e-3),
                                          (1.1, 1.0989, 0.0),
                                          (1000.0, 1000.0, 0.5)])
def test_kernel_triple_agrees_with_batch_near_the_diagonal(r, rho, zeta):
    # K = 4e6 at the first two points, 1.6e7 at the third
    got, gap, _, scale = _oracle_gaps(r, rho, zeta)
    assert np.all(np.isfinite(got))
    assert np.all(gap <= 1e-11 * scale), gap / scale


@pytest.mark.parametrize("eps", [1e-14, 1e-15, 2e-16])
def test_kernel_triple_converges_where_the_layer_needs_many_break_points(eps):
    # K = 4e28 and beyond: the boundary layer's break points alone reach
    # quad's default subdivision limit of 50
    got = kernel_triple(1.0, 1.0 + eps, 0.0)
    batch = kernel_batch(1.0, np.array([1.0 + eps]), np.array([0.0]))
    assert got.gamma1 == 0.0
    assert got.gamma2 == pytest.approx(float(batch.g2[0]), rel=1e-12)


def test_kernel_triple_estimates_cover_its_distance_to_batch():
    # log-uniform draws over the scales the benchmark and the tests reach,
    # plus rows close to the diagonal, where the angular layer is thinnest
    rng = np.random.default_rng(20181)
    n_wide, n_near = 600, 90
    r = np.exp(rng.uniform(np.log(1.01), np.log(2000.0), n_wide + n_near))
    rho = r[:n_wide] * 10.0 ** rng.uniform(-3.0, 3.0, n_wide)
    zeta = (r[:n_wide] * 10.0 ** rng.uniform(-6.0, np.log10(30.0), n_wide)
            * rng.choice((-1.0, 1.0), n_wide))
    dist = r[n_wide:] * 10.0 ** rng.uniform(-6.0, -2.0, n_near)
    angle = rng.uniform(0.0, 2.0 * np.pi, n_near)
    rho = np.concatenate([rho, r[n_wide:] + dist * np.cos(angle)])
    zeta = np.concatenate([zeta, dist * np.sin(angle)])
    for point in zip(r, rho, zeta):
        got, gap, err, scale = _oracle_gaps(*point)
        assert np.all(np.isfinite(got)), point
        assert np.all(gap <= err + 1e-12 * scale), (point, gap, err, scale)


def test_kernel_triple_raises_when_quad_does_not_converge(monkeypatch):
    # quad's 4-tuple is its failure form, the last entry its message
    # kernel_triple imports quad when called, so it reads the patched one
    monkeypatch.setattr("scipy.integrate.quad", lambda *args, **kwargs:
                        (0.5, 1.0, {}, "The algorithm does not converge."))
    with pytest.raises(ArithmeticError, match="does not converge"):
        kernel_triple(2.0, 1.0, 0.5)


def test_kernel_batch_matches_triple():
    rng = np.random.default_rng(11)
    r = 3.0
    rho = rng.uniform(0.1, 12.0, 40)
    zeta = rng.uniform(-6.0, 6.0, 40)
    kb = kernel_batch(r, rho, zeta)
    for i in range(rho.size):
        kt = kernel_triple(r, rho[i], zeta[i], tol=1e-12)
        assert abs(kb.g1[i] - kt.gamma1) < 1e-9 + kt.err1
        assert abs(kb.g2[i] - kt.gamma2) < 1e-9 + kt.err2
        assert abs(kb.g3[i] - kt.gamma3) < 1e-9 + kt.err3


def test_kernel_batch_forms_each_field_on_first_read():
    # a field is formed from the moments when read, once, by the closed
    # forms of the module docstring; unread fields are never formed
    r, rho, zeta = 3.0, np.array([0.5, 2.9, 7.0]), np.array([-1.0, 0.05, 2.0])
    moments = RingMoments(r, rho, zeta)
    j0, j1, j2 = moments.j0, moments.j1, moments.j2
    kb = kernel_batch(r, rho, zeta)
    fields = ("g1", "g2", "g3", "g_swirl", "g1_over_zeta")
    assert not set(fields) & set(vars(kb))
    assert kb.g1 is kb.g1 and set(fields) & set(vars(kb)) == {"g1"}
    expected = ((zeta / np.pi) * j1, -(rho * j0 - r * j1) / np.pi,
                -(rho * j1 - r * j2) / np.pi, (r * j0 - rho * j1) / np.pi,
                j1 / np.pi)
    for name, want in zip(fields, expected):
        assert np.array_equal(getattr(kb, name), want)


def test_kernel_batch_g1_over_zeta_limit():
    kb0 = kernel_batch(2.0, np.array([3.0]), np.array([0.0]))
    kb1 = kernel_batch(2.0, np.array([3.0]), np.array([1e-8]))
    assert abs(kb0.g1_over_zeta[0] - kb1.g1[0] / 1e-8) < 1e-8
    assert kb0.g1[0] == 0.0


def test_swirl_kernel_is_swapped_gamma2():
    # M(r, rho, zeta) = -G2(rho, r, zeta): the adaptive oracle at the
    # swapped radii against the batch's swirl kernel
    for (r, rho, zeta) in ((2.0, 1.0, 0.4), (5.0, 6.0, -1.0)):
        kt = kernel_triple(rho, r, zeta)
        kb = kernel_batch(r, np.array([rho]), np.array([zeta]))
        assert abs(kb.g_swirl[0] + kt.gamma2) < 1e-9 + kt.err2


def quad_moments(r, rho, zeta):
    """J0, J1, J2 by scipy quad to 1e-13 relative, in forms free of
    cancellation: D(2t) = a^2 (y + m sin^2 t), and for m < 1/2 the J1
    integrand subtracts its m = 0 value (whose integral is 0), so a J1 of
    size m is not the difference of two O(1) halves."""
    a2 = (r + rho) ** 2 + zeta ** 2
    m = 4.0 * r * rho / a2
    y = ((r - rho) ** 2 + zeta ** 2) / a2
    # breakpoints grade into the boundary layer of width sqrt(y) at t = 0
    pts = np.sqrt(y) * 2.0 ** np.arange(60)
    pts = pts[pts < np.pi / 2]

    def f(t, k):
        c = np.cos(2.0 * t)
        if k == 1 and m < 0.5:
            return c * np.expm1(-1.5 * np.log1p(-m * np.cos(t) ** 2))
        return c ** k * (y + m * np.sin(t) ** 2) ** -1.5

    return [quad(f, 0.0, np.pi / 2, args=(k,), points=pts, epsabs=0,
                 epsrel=1e-13, limit=500)[0] / a2 ** 1.5 for k in range(3)]


MOMENT_MS = (1e-10, 1e-6, 1e-3, SERIES_M * (1 - 1e-6), SERIES_M * (1 + 1e-6),
             0.5, 0.9, 1 - 1e-4, 1 - 1e-8, 1 - 1e-12)


@pytest.mark.parametrize("m", MOMENT_MS)
@pytest.mark.parametrize("on_plane", (True, False))
def test_ring_moments_match_quad(m, on_plane):
    r = 2.5
    if on_plane:
        # zeta = 0: rho/r is the root of m (1 + x)^2 = 4x below 1
        rho, zeta = r * m / ((2.0 - m) + 2.0 * np.sqrt(1.0 - m)), 0.0
    else:
        rho, zeta = r, 2.0 * r * np.sqrt((1.0 - m) / m)
    moments = RingMoments(r, rho, zeta)
    got = (moments.j0, moments.j1, moments.j2)
    ref = quad_moments(r, rho, zeta)
    for k in range(3):
        assert abs(got[k] / ref[k] - 1.0) < 1e-10, (k, got[k], ref[k])


def _magnitude(r, rho, zeta):
    """Crude bound (rho + r) / d^3 on |G2|, |G3|, |g_swirl| (and on |G1|):
    the scale for rounding-level comparisons, which cancellation near the
    diagonal makes relative to it rather than to the value."""
    return (rho + r) / ((r - rho) ** 2 + zeta ** 2) ** 1.5


radii = st.floats(0.01, 100.0)


@settings(max_examples=200, deadline=None)
@given(r=radii, rho=radii, zeta=st.floats(-100.0, 100.0),
       lam=st.floats(0.01, 100.0))
def test_kernel_homogeneity(r, rho, zeta, lam):
    # G(lam r, lam rho, lam zeta) = lam^-2 G(r, rho, zeta)
    assume((r - rho) ** 2 + zeta ** 2 > 1e-6 * max(r, rho) ** 2)
    a = kernel_batch(r, rho, zeta)
    b = kernel_batch(lam * r, lam * rho, lam * zeta)
    tol = 1e-12 * _magnitude(r, rho, zeta)
    for name in ("g1", "g2", "g3", "g_swirl"):
        assert abs(lam ** 2 * getattr(b, name) - getattr(a, name)) <= tol, name


@settings(max_examples=200, deadline=None)
@given(r=radii, rho=radii, zeta=st.floats(1e-6, 100.0))
def test_kernel_zeta_parity(r, rho, zeta):
    # zeta enters the moments only through zeta^2, so parity is exact
    a = kernel_batch(r, rho, zeta)
    b = kernel_batch(r, rho, -zeta)
    assert b.g1 == -a.g1
    for name in ("g2", "g3", "g_swirl", "g1_over_zeta"):
        assert getattr(b, name) == getattr(a, name), name
