import numpy as np
import pytest

from meridian.fields import (AxialEnvelope, AxisymField, MeridianPoint,
                             power_law_vorticity, stream_function_field)
from meridian.operators import (AxisTooCloseError, curl_axisym,
                                divergence_axisym)
from meridian.profiles import (Profile, SmoothBump, constant_profile,
                               zero_profile)
from oracles import (gaussian_swirl_profile, stream_bump_field,
                     swirl_bump_field)


def fd_only(profile):
    """Strip the analytic-derivative channel, keeping only evaluation."""
    return Profile(fn=profile.fn, name=profile.name + "[fd]")


def test_meridian_point_validation():
    MeridianPoint(0.0, -3.0)
    with pytest.raises(ValueError):
        MeridianPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        MeridianPoint(float("nan"), 0.0)


def test_curl_gaussian_swirl_closed_form():
    # u_theta = r e^{-r^2 - z^2}: w_z = (2 - 2 r^2) e^{-r^2-z^2}, w_r = 2 r z e^{...}
    field = AxisymField(u_r=zero_profile(), u_theta=gaussian_swirl_profile(),
                        u_z=zero_profile())
    w_r, w_t, w_z = curl_axisym(field, MeridianPoint(1.0, 0.0))
    assert abs(w_z) < 1e-13          # (2 - 2 r^2) vanishes at r = 1
    assert abs(w_r) < 1e-13
    assert w_t == 0.0
    w_r2, _, w_z2 = curl_axisym(field, MeridianPoint(0.5, 0.3))
    g = np.exp(-(0.25 + 0.09))
    assert w_z2 == pytest.approx((2 - 2 * 0.25) * g, rel=1e-12)
    assert w_r2 == pytest.approx(2 * 0.5 * 0.3 * g, rel=1e-12)


def test_curl_zero_field():
    field = AxisymField(u_r=zero_profile(), u_theta=zero_profile(),
                        u_z=zero_profile())
    assert curl_axisym(field, MeridianPoint(2.0, 1.0)) == (0.0, 0.0, 0.0)


def test_curl_no_swirl_field_pure_w_theta():
    field, _ = stream_bump_field()
    w_r, w_t, w_z = curl_axisym(field, MeridianPoint(3.0, 0.2))
    assert w_r == 0.0 and w_z == 0.0
    assert w_t != 0.0


def test_curl_matches_exact_curl_of_bump():
    field, w = stream_bump_field()
    for (r, z) in ((2.7, 0.1), (3.3, -0.5)):
        _, w_t, _ = curl_axisym(field, MeridianPoint(r, z), h=1e-4)
        exact = float(w.w_theta(np.array(r), np.array(z)))
        assert w_t == pytest.approx(exact, rel=1e-6)


def test_curl_axis_rejection_without_analytics():
    field = AxisymField(u_r=zero_profile(),
                        u_theta=fd_only(gaussian_swirl_profile()),
                        u_z=zero_profile())
    with pytest.raises(AxisTooCloseError):
        curl_axisym(field, MeridianPoint(1e-6, 0.0), h=1e-4)


def test_divergence_examples():
    # u_r = r, u_z = -2z is divergence free: (1/r) d(r^2)/dr - 2 = 0
    lin = AxisymField(
        u_r=Profile(fn=lambda r, z: np.asarray(r, float)),
        u_theta=zero_profile(),
        u_z=Profile(fn=lambda r, z: -2.0 * np.asarray(z, float)))
    assert divergence_axisym(lin, MeridianPoint(1.7, 0.3)) == pytest.approx(0.0, abs=1e-9)
    # u_r = 1, u_z = 0: div = 1/r
    unit = AxisymField(u_r=constant_profile(1.0), u_theta=zero_profile(),
                       u_z=zero_profile())
    assert divergence_axisym(unit, MeridianPoint(2.0, 0.0)) == pytest.approx(0.5, rel=1e-10)


def test_stream_function_divergence_free_analytic():
    field, _ = stream_bump_field()
    rng = np.random.default_rng(5)
    for _ in range(100):
        r = rng.uniform(1.8, 4.2)
        z = rng.uniform(-1.2, 1.2)
        div = divergence_axisym(field, MeridianPoint(r, z))
        assert abs(div) < 1e-8


def test_stream_function_divergence_fd_second_order():
    field, _ = stream_bump_field()
    fd_field = AxisymField(u_r=fd_only(field.u_r), u_theta=zero_profile(),
                           u_z=fd_only(field.u_z))
    p = MeridianPoint(2.6, 0.4)
    e1 = abs(divergence_axisym(fd_field, p, h=0.08))
    e2 = abs(divergence_axisym(fd_field, p, h=0.04))
    assert 4.0 == pytest.approx(e1 / e2, abs=0.5)


def test_stream_function_requires_derivatives_and_support():
    bare = Profile(fn=lambda r, z: np.zeros(np.broadcast(r, z).shape))
    with pytest.raises(ValueError):
        stream_function_field(bare)
    with pytest.raises(ValueError):
        stream_bump_field(r0=0.5, radius=1.0)


def test_curl_second_order_convergence():
    exact_field = AxisymField(u_r=zero_profile(),
                              u_theta=gaussian_swirl_profile(),
                              u_z=zero_profile())
    field = AxisymField(u_r=zero_profile(),
                        u_theta=fd_only(gaussian_swirl_profile()),
                        u_z=zero_profile())
    p = MeridianPoint(1.3, 0.4)
    w_exact = np.array(curl_axisym(exact_field, p))
    e1 = np.linalg.norm(np.array(curl_axisym(field, p, h=0.1)) - w_exact)
    e2 = np.linalg.norm(np.array(curl_axisym(field, p, h=0.05)) - w_exact)
    assert 4.0 == pytest.approx(e1 / e2, abs=0.5)


def test_power_law_vorticity_values():
    w = power_law_vorticity(3.0)
    val = float(w.w_theta(np.array(1.0), np.array(0.0)))
    assert val == pytest.approx(0.125, rel=1e-14)
    rho = np.linspace(0.0, 50.0, 201)
    k = np.zeros_like(rho)
    assert np.max(w.w_theta(rho, k) * (1.0 + rho) ** 3.0) <= 1.0 + 1e-12


def test_power_law_vorticity_validation():
    power_law_vorticity(5.0 / 3.0 + 1e-6)
    with pytest.raises(ValueError):
        power_law_vorticity(1.0)


def test_power_law_vorticity_components():
    # one profile in every slot; each component reads the slots it needs
    w = power_law_vorticity(2.0)
    assert w.w_r is w.w_theta is w.w_z
    for slot in (w.w_r, w.w_theta, w.w_z):
        assert float(slot(np.array(1.0), np.array(0.0))) == pytest.approx(0.25)


def test_axial_envelope_kinds():
    g = AxialEnvelope("gauss", scale=2.0)
    assert g(np.array(0.0)) == 1.0
    assert g.integral() == pytest.approx(2.0 * np.sqrt(np.pi))
    assert g.tail_integral(20.0) < 1e-6 * g.integral()
    c = AxialEnvelope("compact", scale=3.0)
    assert c.integral() == 6.0
    assert c.tail_integral(3.0) == 0.0
    with pytest.raises(ValueError):
        AxialEnvelope("triangle")


@pytest.mark.parametrize("kind", ["gauss", "compact"])
@pytest.mark.parametrize("key", ["scale"])
@pytest.mark.parametrize("bad", [-1.0, 0.0, float("inf"), float("nan")])
def test_axial_envelope_rejects_non_positive_widths(kind, key, bad):
    # a width <= 0 gives negative tail majorants, a certified negative error
    with pytest.raises(ValueError, match=key):
        AxialEnvelope(kind, **{key: bad})


def test_swirl_bump_exact_curl():
    field, w = swirl_bump_field()
    p = MeridianPoint(3.2, 0.3)
    w_r, w_t, w_z = curl_axisym(field, p)
    assert w_t == 0.0
    assert w_r == pytest.approx(float(w.w_r(np.array(p.r), np.array(p.z))), rel=1e-10)
    assert w_z == pytest.approx(float(w.w_z(np.array(p.r), np.array(p.z))), rel=1e-10)


def test_axis_regularity_of_smooth_fields():
    # smooth axisymmetric fields vanish in u_r and u_theta on the axis
    z = np.linspace(-2.0, 2.0, 9)
    swirl = gaussian_swirl_profile()
    assert np.all(swirl(np.zeros_like(z), z) == 0.0)
    field, _ = stream_bump_field()
    # supported away from the axis: both meridian components vanish there
    assert np.all(field.u_r(np.full_like(z, 1e-9), z) == 0.0)
    assert np.all(field.u_z(np.full_like(z, 1e-9), z) == 0.0)


def reference_bump(r0, z0, radius, r, z):
    """The bump's value and exact derivatives, written out term by term
    from f = exp(1 - 1/(1 - q^2)) and its derivatives in q^2."""
    a2 = radius ** 2
    t = ((r - r0) ** 2 + (z - z0) ** 2) / a2
    inside = t < 1.0 - 1e-14
    om = 1.0 - np.where(inside, t, 0.0)
    f = np.where(inside, np.exp(1.0 - 1.0 / om), 0.0)
    fp = np.where(inside, -f / om ** 2, 0.0)
    fpp = np.where(inside, f * (1.0 / om ** 4 - 2.0 / om ** 3), 0.0)
    tr, tz = 2.0 * (r - r0) / a2, 2.0 * (z - z0) / a2
    return (f, fp * 2.0 * (r - r0) / a2, fp * 2.0 * (z - z0) / a2,
            fpp * tr * tr + fp * 2.0 / a2, fpp * tz * tz + fp * 2.0 / a2,
            fpp * tr * tz)


def _bump_nodes(shape, r0, rng):
    """Nodes inside and outside the support disk of radius 1 about (r0, 0):
    flat points, a rho column by a k row as a rectangle passes them, or a
    3-D (P, n_u, n_v) block as the polar core passes them."""
    if shape == "flat":
        return (rng.uniform(r0 - 1.4, r0 + 1.4, 4000),
                rng.uniform(-1.4, 1.4, 4000))
    if shape == "grid":
        return (rng.uniform(r0 - 1.4, r0 + 1.4, (60, 1)),
                rng.uniform(-1.4, 1.4, (1, 70)))
    return (rng.uniform(r0 - 1.4, r0 + 1.4, (30, 6, 8)),
            rng.uniform(-1.4, 1.4, (30, 6, 8)))


@pytest.mark.parametrize("shape", ["flat", "grid", "core"])
@pytest.mark.parametrize("r0", [3.0, 3.5, 3.77])
def test_bump_vorticity_matches_reference_on_every_node_shape(r0, shape):
    r, z = _bump_nodes(shape, r0, np.random.default_rng(7))
    inside = (r - r0) ** 2 + z ** 2 < 1.0
    assert 0 < inside.sum() < inside.size
    f, f_r, f_z, f_rr, f_zz, f_rz = reference_bump(r0, 0.0, 1.0, r, z)
    psi = SmoothBump(r0=r0, z0=0.0, radius=1.0).profile()
    for got, want in zip((psi.fn, psi.d_r, psi.d_z, psi.d_rr, psi.d_zz,
                          psi.d_rz), (f, f_r, f_z, f_rr, f_zz, f_rz)):
        assert np.array_equal(got(r, z), want)
    _, w = stream_bump_field(r0=r0)
    _, ws = swirl_bump_field(r0=r0)
    for got, want in ((w.w_theta(r, z), -(f_rr - f_r / r + f_zz) / r),
                      (ws.w_z(r, z), f_r + f / r), (ws.w_r(r, z), -f_z)):
        assert got.shape == inside.shape
        assert np.array_equal(got, want)
        assert np.all(got[~inside] == 0.0) and np.any(got[inside] != 0.0)
