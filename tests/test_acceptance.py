"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here, not configurable.
"""

import math

import numpy as np

from meridian.envelopes import (evaluate_scan_grid, refine_and_compare,
                                scan_grid)
from meridian.fields import MeridianPoint, power_law_vorticity
from meridian.kernels import kernel_triple
from meridian.norms import (CylinderDomain, bmo_oscillation_ln, disk_mean_ln,
                            lq_growth_exponent, weak_lorentz_norm)
from meridian.operators import curl_axisym, divergence_axisym
from meridian.profiles import Profile, power_law_profile, zero_profile
from meridian.rates import (bruteforce_feasible_set, construct_feasible_pair,
                            fit_decay, optimize_split, predicted_decay)
from meridian.reconstruct import (decay_trace, reconstruct_ur,
                                  reconstruct_utheta, reconstruct_uz)
from meridian.fields import AxisymField
from oracles import (gaussian_swirl_profile, stream_bump_field,
                     swirl_bump_field)


def report(criterion, detail):
    print("PASS criterion %s: %s" % (criterion, detail))


def test_criterion_1_kernel_closed_forms():
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    worst_abs = 0.0
    for _ in range(50):
        rho = rng.uniform(0.2, 10.0)
        zeta = rng.uniform(-6.0, 6.0)
        kt = kernel_triple(0.0, rho, zeta, tol=1e-13)
        exact = -rho / (2.0 * (rho * rho + zeta * zeta) ** 1.5)
        worst_rel = max(worst_rel, abs(kt.gamma2 / exact - 1.0))
        worst_abs = max(worst_abs, abs(kt.gamma3))
        r = rng.uniform(0.5, 10.0)
        kt0 = kernel_triple(r, rng.uniform(0.2, 10.0), 0.0)
        worst_abs = max(worst_abs, abs(kt0.gamma1))
    assert worst_rel < 1e-10
    assert worst_abs < 1e-12
    report(1, "G2 axis closed form rel err %.2e (<1e-10); G1(.,.,0), "
              "G3(0,.,.) abs %.2e (<1e-12) on 50 samples" % (worst_rel, worst_abs))


def test_criterion_3_envelope_scans():
    base = dict(n_r=12, n_ratio=20, n_zeta=22)
    grid = scan_grid(**base)
    coarse = evaluate_scan_grid(grid)
    assert coarse.r.size >= 10 ** 4
    assert not coarse.failures
    fine = evaluate_scan_grid(scan_grid(n_r=24, n_ratio=40, n_zeta=44))
    worst_drift = 0.0
    checked = 0
    for kind, alphas in (("gamma23", (0.0, 0.5, 1.0)),
                         ("gamma1", (0.0, 0.5, 1.0, 3.0))):
        for alpha in alphas:
            _, rep = refine_and_compare(kind, alpha, coarse, fine)
            assert all(np.isfinite(v) for v in rep.suprema.values())
            assert rep.stable, (kind, alpha, rep.drift)
            worst_drift = max(worst_drift, max(rep.drift.values()))
            checked += 1
    report(3, "%d (kind, alpha) scans over %d points (r in (1, 1e3]): all "
              "suprema finite, worst refinement drift %.3f (<0.05)"
           % (checked, coarse.r.size, worst_drift))


def test_criterion_4_biot_savart_roundtrip():
    rs = np.linspace(1.5, 5.5, 5)
    zs = np.linspace(-1.2, 1.2, 4)
    probes = [(float(r), float(z)) for r in rs for z in zs]

    field, w = stream_bump_field()
    err2 = ref2 = 0.0
    for (r, z) in probes:
        p = MeridianPoint(r, z)
        ur = reconstruct_ur(w, p).value
        uz = reconstruct_uz(w, p).value
        ue = float(field.u_r(np.asarray(r), np.asarray(z)))
        ze = float(field.u_z(np.asarray(r), np.asarray(z)))
        err2 += (ur - ue) ** 2 + (uz - ze) ** 2
        ref2 += ue ** 2 + ze ** 2
    rel_noswirl = math.sqrt(err2 / ref2)
    assert rel_noswirl < 1e-3

    fieldS, wS = swirl_bump_field()
    err2 = ref2 = 0.0
    for (r, z) in probes:
        ut = reconstruct_utheta(wS, MeridianPoint(r, z)).value
        te = float(fieldS.u_theta(np.asarray(r), np.asarray(z)))
        err2 += (ut - te) ** 2
        ref2 += te ** 2
    rel_swirl = math.sqrt(err2 / ref2)
    assert rel_swirl < 1e-3
    report(4, "curl->reconstruct rel L2 over 20 probes: no-swirl %.2e, "
              "pure-swirl %.2e (<1e-3)" % (rel_noswirl, rel_swirl))


def test_criterion_5_decay_predictions():
    ladder = [10.0 * 2.0 ** j for j in range(8)]

    # the even axial envelope makes u_r vanish identically on the z = 0
    # plane (the G1 kernel is odd in z - k), so the trace probes z = 1;
    # the predicted envelopes are uniform in z
    parity = reconstruct_ur(power_law_vorticity(3.0), MeridianPoint(10.0, 0.0))
    assert abs(parity.value) < 1e-12

    slopes = {}
    for beta, bound in ((3.0, -1.25 + 0.1), (1.5, -0.5 + 0.1),
                        (2.0, -1.0 + 0.1)):
        w = power_law_vorticity(beta)
        samples = decay_trace(w, "u_r", ladder, z=1.0)
        assert all(s.total_error < 0.1 * abs(s.value) for s in samples)
        fit = fit_decay([(s.r, s.value, s.quad_err + s.tail_bound)
                         for s in samples])
        slopes[beta] = fit.selected_slope
        assert fit.selected_slope <= bound, (beta, fit.selected_slope, bound)

    # log-corrected selection at beta = 2, checked on envelope samples in
    # their own variable (the reconstruction decays strictly faster than
    # the predicted envelope, which is an upper bound)
    pred2 = predicted_decay(2.0)
    env_fit = fit_decay([(1.0 + r,
                          (1.0 + r) ** pred2.exponent * math.log(1.0 + r),
                          0.0) for r in ladder])
    assert env_fit.log_corrected
    assert abs(env_fit.slope_log_model - (-1.0)) < 0.1
    report(5, "u_r(., z=1) slopes: beta=3 -> %.3f (<=-1.15), beta=1.5 -> "
              "%.3f (<=-0.4), beta=2 -> %.3f (<=-0.9); u_r(., 0) parity zero "
              "%.1e; log model selected on beta=2 envelope with slope %.3f"
           % (slopes[3.0], slopes[1.5], slopes[2.0], abs(parity.value),
              env_fit.slope_log_model))


def test_criterion_6_feasibility_arithmetic():
    rng = np.random.default_rng(66)
    for _ in range(200):
        mu = rng.uniform(2.0 / 3.0 + 1e-9, 10.0)
        pair = construct_feasible_pair(mu)
        assert pair.lower_ok and pair.upper_ok and pair.negativity_ok

    deltas = (np.arange(200) + 0.5) / 200
    qs = 2.0 + (np.arange(200) + 0.5) / 200
    for mu in (0.5, 0.6, 2.0 / 3.0):
        assert not bruteforce_feasible_set(mu, deltas, qs).any()
    for mu in (0.68, 0.7, 1.0, 2.0):
        mask = bruteforce_feasible_set(mu, deltas, qs)
        assert mask.any()
        pair = construct_feasible_pair(mu)
        i = int(np.argmin(np.abs(deltas - pair.delta)))
        j = int(np.argmin(np.abs(qs - pair.q)))
        assert mask[i, j]
    report(6, "construction feasible for 200 random mu in (2/3, 10]; "
              "200x200 brute force empty for mu <= 2/3, nonempty above, "
              "construction cell always feasible")


def test_criterion_7_balancing_identity():
    for beta in (2.1, 3.0, 5.0, 10.0):
        g = 0.5 / (beta - 1.0)      # the balancing gamma 1/(2(beta - 1))
        assert abs((-1.5 + g) - (-1.0 + g * (2.0 - beta))) < 1e-15
        opt = optimize_split(beta)
        assert opt.gamma == g
        assert opt.exponent == -1.5 + g
    report(7, "balancing identity at machine precision and the closed-form "
              "split's gamma exact for beta in {2.1, 3, 5, 10}")


def test_criterion_8_bmo_scale_invariance():
    scales = [2.0 ** j for j in range(1, 21)]
    worst_mean = max(abs(disk_mean_ln(R) - (math.log(R) - 0.5))
                     for R in scales)
    assert worst_mean < 1e-8
    ratios = {}
    for p in (3.0, 2.0 / 3.0, 12.0):
        vals = [bmo_oscillation_ln(R, p) for R in scales]
        ratios[p] = max(vals) / min(vals)
        assert ratios[p] < 1.01
    report(8, "disk mean = ln R - 1/2 to %.1e (<1e-8); oscillation max/min "
              "ratios over 20 dyadic scales: %.6f, %.6f, %.6f (<1.01)"
           % (worst_mean, ratios[3.0], ratios[2.0 / 3.0], ratios[12.0]))


def test_criterion_9_norm_laws():
    scales = [2.0 ** j for j in range(4, 15)]
    worst = 0.0
    for mu, q in ((1.0, 2.5), (0.8, 3.0), (2.0, 2.1)):
        assert mu * q > 2.0
        slope, _, regime = lq_growth_exponent(power_law_profile(mu), q,
                                              scales, decay_mu=mu)
        assert regime == "power"
        worst = max(worst, abs(slope - 1.0 / q))
        assert abs(slope - 1.0 / q) < 0.02

    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(100):
        m = rng.uniform(0.3, 3.0)
        q = rng.uniform(1.2, 4.0)
        R = rng.uniform(0.5, 20.0)
        amp = rng.uniform(0.1, 10.0)
        prof = Profile(fn=lambda r, z, a=amp, mm=m:
                       a * (1.0 + np.asarray(r, float)) ** -mm)
        est = weak_lorentz_norm(prof, q, CylinderDomain(R), n_cells=60)
        if est.value > est.lq_same_grid * (1.0 + 1e-12):
            violations += 1
    assert violations == 0
    report(9, "L^q growth exponents within %.4f of 1/q (<0.02); weak-Lorentz "
              "<= L^q on 100 random profiles with 0 violations" % worst)


def test_criterion_10_operator_suite():
    field, _ = stream_bump_field()
    rng = np.random.default_rng(10)
    worst_div = max(abs(divergence_axisym(field,
                                          MeridianPoint(rng.uniform(1.5, 4.5),
                                                        rng.uniform(-1.5, 1.5))))
                    for _ in range(100))
    assert worst_div < 1e-8

    # second-order convergence of curl under h -> h/2 (FD-only profile)
    exact_field = AxisymField(u_r=zero_profile(),
                              u_theta=gaussian_swirl_profile(),
                              u_z=zero_profile())
    fd_field = AxisymField(u_r=zero_profile(),
                           u_theta=Profile(fn=gaussian_swirl_profile().fn),
                           u_z=zero_profile())
    p = MeridianPoint(1.3, 0.4)
    w_exact = np.array(curl_axisym(exact_field, p))
    e1 = np.linalg.norm(np.array(curl_axisym(fd_field, p, h=0.1)) - w_exact)
    e2 = np.linalg.norm(np.array(curl_axisym(fd_field, p, h=0.05)) - w_exact)
    curl_ratio = e1 / e2
    assert abs(curl_ratio - 4.0) < 0.5
    report(10, "stream-field divergence max %.1e (<1e-8); curl h->h/2 error "
               "ratio %.2f (4 +- 0.5)" % (worst_div, curl_ratio))
