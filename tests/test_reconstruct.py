import numpy as np
import pytest
from scipy.integrate import dblquad

from meridian.fields import (AxialEnvelope, MeridianPoint, VorticityField,
                             power_law_vorticity, stream_bump_field,
                             swirl_bump_field)
from meridian.kernels import kernel_batch, kernel_triple
from meridian.profiles import Profile, zero_profile
from meridian.quadrature import panel_nodes, uniform_mesh
from meridian.reconstruct import (NEAR_DIAG_REFINEMENT, N_S_NODES, N_THETA,
                                  QuadratureSpec, _integrate_polar_core,
                                  _resolution_edges, decay_trace,
                                  reconstruct_ur, reconstruct_utheta,
                                  reconstruct_uz)


def fine_grid_reference(w_field, p, component, n_pan=80, n_nodes=10):
    """Independent quadrature: composite GL tensor grid over the compact
    support, kernels from the closed-form batch evaluator (itself validated
    against the adaptive oracle and full-period quadrature)."""
    slo, shi, klo, khi = w_field.support
    rn, rw = panel_nodes(uniform_mesh(slo, shi, n_pan), n_nodes)
    kn, kw = panel_nodes(uniform_mesh(klo, khi, n_pan), n_nodes)
    RR = np.repeat(rn, kn.size)
    KK = np.tile(kn, rn.size)
    WW = np.repeat(rw, kn.size) * np.tile(kw, rn.size)
    kb = kernel_batch(p.r, RR, p.z - KK)
    if component == "u_r":
        contrib = kb.g1 * w_field.w_theta(RR, KK)
    elif component == "u_z":
        contrib = -kb.g2 * w_field.w_theta(RR, KK)
    else:
        contrib = kb.g_swirl * w_field.w_z(RR, KK) - kb.g1 * w_field.w_r(RR, KK)
    return float(np.sum(contrib * RR * WW))


def per_ray_polar_core(kernel_sel, weight, r, z, s0, n_theta, n_s, levels,
                       resolution):
    """The polar-core rule one ray at a time: one kernel call per angle."""
    h = 2.0 * np.pi / n_theta
    total, max_integrand, s_min = 0.0, 0.0, 0.0
    for theta in np.arange(n_theta) * h:
        c, s_ang = np.cos(theta), np.sin(theta)
        s_max = s0 / max(abs(c), abs(s_ang))
        edges = s_max * 2.0 ** (-np.arange(levels + 1.0)[::-1])
        edges = _resolution_edges(edges, resolution, 0)
        sn, sw = panel_nodes(edges, n_s)
        rho, kk = r + sn * c, z + sn * s_ang
        vals = kernel_sel(kernel_batch(r, rho, z - kk)) * weight(rho, kk) * rho * sn
        total += float(np.dot(sw, vals)) * h
        max_integrand = max(max_integrand, float(np.max(np.abs(vals))))
        s_min = max(s_min, float(edges[0]))
    return total, 2.0 * np.pi * s_min * max_integrand


def test_polar_core_matches_per_ray_loop():
    # the resolution edges give rays of two lengths; batching the rays into
    # one kernel call may change only the summation order
    _, w = stream_bump_field(r0=3.0, radius=1.0)
    r, z, s0, res = 3.5, 0.4, 0.5, w.resolution
    term = (lambda kv: kv.g1, w.w_theta)
    args = term + (r, z, s0)
    (value,), (err,) = _integrate_polar_core([term], r, z, s0, resolution=res)
    hi, trunc = per_ray_polar_core(*args, N_THETA, N_S_NODES,
                                   NEAR_DIAG_REFINEMENT, res)
    lo, _ = per_ray_polar_core(*args, N_THETA // 2, N_S_NODES - 1,
                               NEAR_DIAG_REFINEMENT, res)
    assert value == pytest.approx(hi, rel=1e-13, abs=1e-15)
    assert err == pytest.approx(abs(hi - lo) + trunc, rel=1e-9, abs=1e-15)


def test_utheta_terms_share_each_kernel_evaluation(monkeypatch):
    # u_theta's two terms come from one kernel call per node set
    import meridian.reconstruct as rec
    node_sets = []

    def recording(r, rho, zeta, *args, **kwargs):
        node_sets.append((float(r), np.asarray(rho).tobytes(),
                          np.asarray(zeta).tobytes()))
        return kernel_batch(r, rho, zeta, *args, **kwargs)

    monkeypatch.setattr(rec, "kernel_batch", recording)
    _, w = swirl_bump_field()
    reconstruct_utheta(w, MeridianPoint(2.6, 0.2))
    assert len(node_sets) == 36
    assert len(set(node_sets)) == len(node_sets)


def test_zero_vorticity_reconstructs_zero():
    w = VorticityField(w_r=zero_profile(), w_theta=zero_profile(),
                       w_z=zero_profile(), support=(0.0, 1.0, -1.0, 1.0))
    for rec in (reconstruct_ur, reconstruct_uz):
        res = rec(w, MeridianPoint(2.0, 0.0))
        assert res.value == 0.0
        assert all(v == 0.0 for v in res.per_region.values())
    res = reconstruct_utheta(w, MeridianPoint(2.0, 0.0))
    assert res.value == 0.0


def test_value_equals_region_sum():
    _, w = stream_bump_field()
    res = reconstruct_uz(w, MeridianPoint(2.5, 0.3))
    assert res.value == pytest.approx(sum(res.per_region.values()), abs=1e-15)


def test_parity_even_profile_kills_ur_on_midplane():
    # G1 is odd in z - k: an axial profile even about z makes the u_r
    # integrand odd in k, so u_r(r, z) = 0 on the symmetry plane
    w = power_law_vorticity(3.0)   # Gaussian envelope, even about k = 0
    res = reconstruct_ur(w, MeridianPoint(5.0, 0.0))
    assert abs(res.value) < 1e-12
    # off the symmetry plane the component is genuinely nonzero
    res1 = reconstruct_ur(w, MeridianPoint(5.0, 1.0))
    assert abs(res1.value) > 1e-4


def test_parity_odd_profile_kills_uz_on_midplane():
    # G2 is even in z - k: an odd axial profile kills u_z at z = 0
    def wt(rho, k):
        k = np.asarray(k, dtype=float)
        return (1.0 + np.asarray(rho, float)) ** -3.0 * k * np.exp(-k * k)

    w = VorticityField(w_r=zero_profile(), w_theta=Profile(fn=wt),
                       w_z=zero_profile(), decay_beta=3.0,
                       axial_envelope=AxialEnvelope("gauss"))
    res = reconstruct_uz(w, MeridianPoint(4.0, 0.0))
    assert abs(res.value) < 1e-12


def test_preconditions():
    w = power_law_vorticity(3.0)
    with pytest.raises(ValueError):
        reconstruct_ur(w, MeridianPoint(0.9, 0.0))
    # no decay metadata, no support: tails cannot be certified
    bare = VorticityField(w_r=zero_profile(), w_theta=zero_profile(),
                          w_z=zero_profile())
    with pytest.raises(ValueError):
        reconstruct_ur(bare, MeridianPoint(2.0, 0.0))
    with pytest.raises(ValueError):
        QuadratureSpec(gamma=1.5)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    # truncation radii below 8 max(1, r) are rejected
    with pytest.raises(ValueError):
        reconstruct_ur(w, MeridianPoint(2.0, 0.0),
                       QuadratureSpec(rho_max=10.0))


def test_linearity():
    _, w1 = stream_bump_field(r0=3.0, radius=0.8)
    _, w2 = stream_bump_field(r0=2.5, z0=0.4, radius=0.7)

    def combo(rho, k):
        return 2.0 * w1.w_theta(rho, k) - 0.5 * w2.w_theta(rho, k)

    w12 = VorticityField(
        w_r=zero_profile(), w_theta=Profile(fn=combo), w_z=zero_profile(),
        support=(1.7, 4.0, -1.0, 1.2), resolution=0.14)
    p = MeridianPoint(2.0, -0.3)
    a = reconstruct_uz(w1, p)
    b = reconstruct_uz(w2, p)
    c = reconstruct_uz(w12, p)
    tol = 2.0 * a.quad_err + 0.5 * b.quad_err + c.quad_err + 1e-9
    assert abs(c.value - (2.0 * a.value - 0.5 * b.value)) < tol


def test_region_additivity_across_splittings():
    # different (gamma, delta) move every region boundary; the total must
    # not move
    w = power_law_vorticity(2.5)
    p = MeridianPoint(6.0, 0.7)
    specs = [QuadratureSpec(gamma=0.0, delta=1.0),
             QuadratureSpec(gamma=0.5, delta=0.7),
             QuadratureSpec(gamma=1.0, delta=0.4)]
    vals = [reconstruct_uz(w, p, s) for s in specs]
    for res in vals[1:]:
        assert abs(res.value - vals[0].value) < (res.quad_err
                                                 + vals[0].quad_err + 1e-8)


def test_region_additivity_vs_fine_grid_oracle():
    # probes outside the support keep the kernel smooth on the integration
    # domain, where the uniform reference grid is trustworthy; interior
    # probes are covered by the exact-field round-trip tests
    rng = np.random.default_rng(17)
    _, w = stream_bump_field()
    for i in range(10):
        if i % 2 == 0:
            r = float(rng.uniform(4.8, 7.0))
        else:
            r = float(rng.uniform(1.3, 1.8))
        z = float(rng.uniform(-1.5, 1.5))
        gamma = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(0.3, 1.0))
        spec = QuadratureSpec(gamma=gamma, delta=delta)
        p = MeridianPoint(r, z)
        res = reconstruct_uz(w, p, spec)
        ref = fine_grid_reference(w, p, "u_z")
        assert abs(res.value - ref) < 5e-6 + res.quad_err


def test_against_scipy_dblquad_once():
    # fully independent integrator: scipy dblquad with pointwise adaptive
    # kernels, probe outside the support so the integrand is smooth
    _, w = stream_bump_field()
    p = MeridianPoint(5.5, 0.5)

    def integrand(k, rho):
        kt = kernel_triple(p.r, rho, p.z - k, tol=1e-11)
        return -kt.gamma2 * float(w.w_theta(np.asarray(rho), np.asarray(k))) * rho

    ref, err = dblquad(integrand, 2.0, 4.0, -1.0, 1.0, epsabs=1e-7)
    res = reconstruct_uz(w, p)
    assert abs(res.value - ref) < 1e-6 + err + res.quad_err


def test_truncation_tail_bound_majorizes_window_growth():
    w = power_law_vorticity(2.5)
    p = MeridianPoint(10.0, 0.0)
    base = QuadratureSpec()            # rho_max = z_max = 80
    wide = QuadratureSpec(rho_max=160.0, z_max=160.0)
    a = reconstruct_uz(w, p, base)
    b = reconstruct_uz(w, p, wide)
    observed = abs(b.value - a.value)
    assert observed < a.tail_bound + a.quad_err + b.quad_err
    assert a.tail_bound > 0
    # the wider window certifies a smaller tail
    assert b.tail_bound < a.tail_bound


def test_far_field_sign_consistency():
    # sign of u_z far outside a positive swirl-vorticity bump agrees with
    # the direct fine-grid quadrature (no a-priori sign assumption)
    _, w = stream_bump_field()

    def pos_wt(rho, k):
        return np.abs(w.w_theta(rho, k))

    wpos = VorticityField(w_r=zero_profile(), w_theta=Profile(fn=pos_wt),
                          w_z=zero_profile(), support=w.support,
                          resolution=w.resolution)
    p = MeridianPoint(9.0, 0.0)
    res = reconstruct_uz(wpos, p)
    ref = fine_grid_reference(wpos, p, "u_z")
    assert res.value != 0
    assert np.sign(res.value) == np.sign(ref)
    assert abs(res.value - ref) < 1e-6 + res.quad_err


def test_utheta_reports_both_terms():
    _, w = swirl_bump_field()
    res = reconstruct_utheta(w, MeridianPoint(2.6, 0.2))
    assert set(res.term_values) == {"axial_source", "radial_source"}
    assert res.value == pytest.approx(sum(res.term_values.values()), rel=1e-12)


def test_roundtrip_smoke_subset():
    field, w = stream_bump_field()
    fieldS, wS = swirl_bump_field()
    for (r, z) in ((2.5, 0.3), (3.4, -0.6)):
        p = MeridianPoint(r, z)
        assert reconstruct_ur(w, p).value == pytest.approx(
            float(field.u_r(np.asarray(r), np.asarray(z))), abs=6e-4)
        assert reconstruct_uz(w, p).value == pytest.approx(
            float(field.u_z(np.asarray(r), np.asarray(z))), abs=6e-4)
        assert reconstruct_utheta(wS, p).value == pytest.approx(
            float(fieldS.u_theta(np.asarray(r), np.asarray(z))), abs=6e-4)


def test_decay_trace_validation_and_flags():
    w = power_law_vorticity(3.0)
    with pytest.raises(ValueError):
        decay_trace(w, "u_phi", [10.0, 20.0])
    with pytest.raises(ValueError):
        decay_trace(w, "u_r", [0.5, 2.0])
    with pytest.raises(ValueError):
        decay_trace(w, "u_r", [10.0, 10.0])
    samples = decay_trace(w, "u_r", [10.0, 20.0, 40.0], z=1.0)
    assert [s.r for s in samples] == [10.0, 20.0, 40.0]
    assert all(not s.flagged for s in samples)
    assert all(s.quad_err + s.tail_bound < 0.1 * s.value for s in samples)


def test_decay_trace_utheta_and_z_sequence():
    ladder = [10.0, 20.0, 40.0]
    w = power_law_vorticity(3.0, component="r_and_z")
    samples = decay_trace(w, "u_theta", ladder, z=1.0)
    assert all(s.value > 0 for s in samples)
    assert samples[0].value > samples[-1].value
    # per-point probe heights (uniformity spot-check shape)
    sw = decay_trace(power_law_vorticity(3.0), "u_r", ladder,
                     z=[r / 2 for r in ladder])
    assert all(not s.flagged for s in sw)
    with pytest.raises(ValueError):
        decay_trace(power_law_vorticity(3.0), "u_r", ladder, z=[1.0, 2.0])


def test_non_finite_vorticity_is_rejected():
    # a NaN band inside the truncation window must raise, not return a NaN
    # value that the decay trace would then fail to flag
    base = power_law_vorticity(3.0)

    def wt(rho, k):
        rho = np.asarray(rho, dtype=float)
        return np.where((rho > 30.0) & (rho < 31.0), np.nan,
                        base.w_theta(rho, k))

    w = VorticityField(w_r=zero_profile(), w_theta=Profile(fn=wt),
                       w_z=zero_profile(), decay_beta=3.0,
                       radial_amplitude=1.0,
                       axial_envelope=base.axial_envelope)
    with pytest.raises(ValueError, match="non-finite"):
        reconstruct_ur(w, MeridianPoint(10.0, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        decay_trace(w, "u_r", [10.0, 20.0, 40.0], z=1.0)
