import math

import numpy as np
import pytest
from scipy.integrate import quad

from meridian.norms import (CylinderDomain, DivergentNormError,
                            _cylinder_quad, bmo_oscillation_ln, disk_mean_ln,
                            lq_growth_exponent, lq_norm_cylinder,
                            weak_lorentz_norm)
from meridian.profiles import Profile, constant_profile, power_law_profile
from oracles import cylinder_quad_meshgrid, weak_lorentz_meshgrid


# ---------- oracles ----------

def moment_ln(j, c):
    """Exact int_0^c s (ln s)^j ds by the integration-by-parts recursion."""
    if j == 0:
        return c * c / 2.0
    return c * c / 2.0 * math.log(c) ** j - 0.5 * j * moment_ln(j - 1, c)


def oscillation_moment(p):
    """Exact (p in {3, 12}) or quadrature (p = 2/3) value of
    int_0^1 s |ln s + 1/2|^p ds."""
    s_star = math.exp(-0.5)
    if p == 12:
        return sum(math.comb(12, k) * 0.5 ** (12 - k) * moment_ln(k, 1.0)
                   for k in range(13))
    if p == 3:
        def J(c):
            return sum(math.comb(3, k) * 0.5 ** (3 - k) * moment_ln(k, c)
                       for k in range(4))
        return J(1.0) - 2.0 * J(s_star)
    val, _ = quad(lambda s: s * abs(math.log(s) + 0.5) ** p, 0.0, 1.0,
                  points=[s_star], limit=200)
    return val


def cylinder_weak_norm_oracle(mu, q, R):
    """1-D reduction of the weak norm of (1+r)^-mu on the cylinder C_R:
    {(1+r)^-mu > lambda} is the cylinder of radius c = lambda^{-1/mu} - 1
    and height 2R, so its measure in C_R is 2R pi min(R, c)^2."""
    def measure(lam):
        c = min(max(lam ** (-1.0 / mu) - 1.0, 0.0), R)
        return 2 * R * math.pi * c * c
    lams = np.geomspace((1 + R) ** -mu, 1.0, 40001)
    return max(lam * measure(lam) ** (1.0 / q) for lam in lams)


# ---------- domains ----------

def test_domain_volume_and_validation():
    # |C_R| = pi R^2 * 2R, as the L^1 norm of 1 and the weak norm's measure
    dom = CylinderDomain(2.0)
    assert lq_norm_cylinder(constant_profile(1.0), 1.0, dom) == pytest.approx(
        16 * math.pi, rel=1e-10)
    est = weak_lorentz_norm(constant_profile(1.0), 1.0, dom, n_cells=40)
    assert est.measures[0] == pytest.approx(16 * math.pi, rel=1e-12)
    for bad in (-1.0, 0.0):
        with pytest.raises(ValueError):
            CylinderDomain(bad)


# ---------- L^q norms ----------

def test_lq_norm_constant_is_volume():
    dom = CylinderDomain(1.0)
    val = lq_norm_cylinder(constant_profile(1.0), 1.0, dom)
    assert val == pytest.approx(2 * math.pi, rel=1e-10)


def test_lq_norm_power_law_analytic():
    # ||(1+r)^-2||_{L^2(C_R)}^2 = 4 pi R int_0^R r (1+r)^-4 dr
    R = 5.0
    exact_radial, _ = quad(lambda r: r * (1 + r) ** -4.0, 0.0, R)
    expect = (4 * math.pi * R * exact_radial) ** 0.5
    val = lq_norm_cylinder(power_law_profile(2.0), 2.0, CylinderDomain(R))
    assert val == pytest.approx(expect, rel=1e-8)


def test_lq_growth_exponent_is_one_over_q():
    scales = [2.0 ** j for j in range(4, 15)]
    for mu, q in ((1.0, 2.5), (0.8, 3.0), (2.0, 2.1)):
        slope, _, regime = lq_growth_exponent(power_law_profile(mu), q, scales,
                                              decay_mu=mu)
        assert abs(slope - 1.0 / q) < 0.02
        assert regime == "power"


def test_lq_growth_boundary_case_flagged():
    scales = [2.0 ** j for j in range(4, 13)]
    slope, _, regime = lq_growth_exponent(power_law_profile(1.0), 2.0, scales,
                                          decay_mu=1.0)
    assert regime == "log-boundary"
    # log(R)^(1/q) drift on top of R^(1/q): exponent biased high
    assert 1.0 / 2.0 < slope < 1.0 / 2.0 + 0.12


def test_lq_norm_divergent_integrand_flagged():
    # |f|^q ~ r^-2 near the axis is not integrable against r dr
    sing = Profile(fn=lambda r, z: 1.0 / np.asarray(r, float))
    with pytest.raises(DivergentNormError):
        lq_norm_cylinder(sing, 2.0, CylinderDomain(1.0))


# ---------- weak Lorentz ----------

def test_weak_norm_constant_profile():
    dom = CylinderDomain(2.0)
    est = weak_lorentz_norm(constant_profile(3.0), 2.5, dom)
    assert est.value == pytest.approx(3.0 * (16 * math.pi) ** (1 / 2.5),
                                      rel=5e-3)


def test_weak_norm_chebyshev_never_violated():
    rng = np.random.default_rng(31)
    for _ in range(100):
        mu = rng.uniform(0.3, 3.0)
        q = rng.uniform(1.2, 4.0)
        R = rng.uniform(0.5, 20.0)
        amp = rng.uniform(0.1, 10.0)
        prof = Profile(fn=lambda r, z, a=amp, m=mu:
                       a * (1.0 + np.asarray(r, float)) ** -m)
        est = weak_lorentz_norm(prof, q, CylinderDomain(R), n_cells=60)
        assert est.value <= est.lq_same_grid * (1 + 1e-12)


def test_weak_norm_grid_lq_consistent_with_quadrature():
    prof = power_law_profile(1.5)
    dom = CylinderDomain(4.0)
    est = weak_lorentz_norm(prof, 2.0, dom, n_cells=500)
    accurate = lq_norm_cylinder(prof, 2.0, dom)
    assert est.lq_same_grid == pytest.approx(accurate, rel=2e-3)


def test_weak_norm_cylinder_matches_1d_oracle():
    mu, q = 1.0, 2.5
    for R in (4.0, 8.0, 16.0):
        est = weak_lorentz_norm(power_law_profile(mu), q,
                                CylinderDomain(R), n_cells=600)
        oracle = cylinder_weak_norm_oracle(mu, q, R)
        assert est.value == pytest.approx(oracle, rel=2e-2)


def test_weak_norm_distribution_monotone():
    est = weak_lorentz_norm(power_law_profile(1.0), 2.0, CylinderDomain(3.0))
    assert np.all(np.diff(est.measures) <= 1e-12 * est.measures[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_weak_norm_non_finite_sample_raises(bad):
    # nan or inf for r < 1/2, before any level grid is built (an inf
    # level would warn, and pyproject makes a RuntimeWarning an error)
    prof = Profile(fn=lambda r, z: np.where(r < 0.5, bad, 1.0) + 0.0 * z)
    with pytest.raises(DivergentNormError, match="non-finite .*%s" % bad):
        weak_lorentz_norm(prof, 2.0, CylinderDomain(2.0), n_cells=40)


# ---------- column x row evaluation ----------

def column_row_profiles():
    """A profile of r alone, one of r and z, and a constant one."""
    zdep = Profile(fn=lambda r, z: (1.0 + r) ** -1.5 * np.exp(-z * z),
                   name="(1+r)^-1.5 exp(-z^2)")
    return [power_law_profile(1.3), zdep, constant_profile(2.5)]


@pytest.mark.parametrize("prof", column_row_profiles(), ids=lambda p: p.name)
def test_cylinder_quad_column_row_equals_meshgrid(prof):
    # bit for bit, at lq_norm_cylinder's two resolutions and the default
    g = lambda r, z: np.abs(prof(r, z)) ** 2.7
    for R in (0.7, 6.0, 2.0 ** 12):
        for res in ((10, 16, 12), (14, 32, 20), (12, 24, 16)):
            assert _cylinder_quad(g, R, *res) == cylinder_quad_meshgrid(
                g, R, *res)


@pytest.mark.parametrize("prof", column_row_profiles(), ids=lambda p: p.name)
def test_weak_norm_column_row_equals_meshgrid(prof):
    for q, R, n_cells in ((2.5, 3.0, 400), (1.7, 13.0, 61)):
        est = weak_lorentz_norm(prof, q, CylinderDomain(R), n_cells=n_cells)
        value, measures, lq_grid = weak_lorentz_meshgrid(
            prof, q, CylinderDomain(R), n_cells=n_cells)
        assert est.value == value and est.lq_same_grid == lq_grid
        assert np.array_equal(est.measures, measures)


def test_norms_evaluate_a_column_of_r_and_a_row_of_z():
    # a profile of r alone is evaluated at the radial nodes only: a
    # meshgrid revert hands it two (n, m) arrays
    shapes = []

    def recording(r, z):
        shapes.append((np.shape(r), np.shape(z)))
        return (1.0 + r) ** -2.0

    prof = Profile(fn=recording)
    lq_norm_cylinder(prof, 2.0, CylinderDomain(3.0))
    weak_lorentz_norm(prof, 2.0, CylinderDomain(3.0), n_cells=50)
    assert len(shapes) == 3
    for (n, one), (one_z, m) in shapes:
        assert one == one_z == 1 and n > 1 and m > 1
    assert shapes[-1] == ((50, 1), (1, 100))


# ---------- mean oscillation of ln r ----------

def test_disk_mean_closed_form():
    for R in (1.0, 2.0, 2.0 ** 10, 2.0 ** 20):
        assert abs(disk_mean_ln(R) - (math.log(R) - 0.5)) < 1e-10


def test_oscillation_matches_exact_moments():
    # R-free closed forms: p=3 -> (4 pi A3)^(1/3), p=2/3 -> (4 pi A23)^(2/3),
    # p=12 -> 4 pi A12, with A_p = int_0^1 s |ln s + 1/2|^p ds
    a3 = oscillation_moment(3)
    a23 = oscillation_moment(2.0 / 3.0)
    a12 = oscillation_moment(12)
    assert bmo_oscillation_ln(1.0, 3) == pytest.approx(
        (4 * math.pi * a3) ** (1.0 / 3.0), rel=1e-9)
    assert bmo_oscillation_ln(1.0, 2.0 / 3.0) == pytest.approx(
        (4 * math.pi * a23) ** (2.0 / 3.0), rel=1e-9)
    assert bmo_oscillation_ln(1.0, 12) == pytest.approx(
        4 * math.pi * a12, rel=1e-9)


def test_oscillation_scale_invariance():
    for p in (3, 2.0 / 3.0, 12):
        v_small = bmo_oscillation_ln(2.0, p)
        v_large = bmo_oscillation_ln(2.0 ** 20, p)
        assert abs(v_large / v_small - 1.0) < 1e-6


def test_oscillation_alias_and_validation():
    # only 3, 2/3 and 12 name a display; 3/2 is no alias of 2/3
    for p in (1.5, 5):
        with pytest.raises(ValueError):
            bmo_oscillation_ln(4.0, p)
