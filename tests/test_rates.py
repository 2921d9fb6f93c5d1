import numpy as np
import pytest

from meridian.rates import (SPLIT_EPS, InfeasibleExponentError,
                            bruteforce_feasible_set, construct_feasible_pair,
                            evaluate_pair, fit_decay, optimize_split,
                            predicted_decay, region_term_exponents)


def test_construction_mu_one_matches_hand_arithmetic():
    pair = construct_feasible_pair(1.0)
    assert pair.delta == pytest.approx(0.5)
    # q = (max{30/11, 2} + 20/7) / 2 = 215/77
    assert pair.q == pytest.approx(215.0 / 77.0, rel=1e-14)
    assert pair.feasible
    # negativity margin: 2 - 1/4 - 5/q = -0.0409...
    margin = 2.0 - 0.25 - 5.0 / pair.q
    assert margin == pytest.approx(-8.75 / 215.0, rel=1e-12)


def test_construction_infeasible_below_two_thirds():
    for mu in (0.6, 2.0 / 3.0, 0.5):
        with pytest.raises(InfeasibleExponentError):
            construct_feasible_pair(mu)


def test_construction_sound_for_random_mu():
    rng = np.random.default_rng(42)
    for _ in range(200):
        mu = rng.uniform(2.0 / 3.0 + 1e-9, 10.0)
        pair = construct_feasible_pair(mu)
        assert pair.lower_ok and pair.upper_ok and pair.negativity_ok


def test_construction_large_mu_wide_interval():
    for mu in (10.0, 100.0):
        pair = construct_feasible_pair(mu)
        assert pair.feasible
        assert pair.delta == pytest.approx(0.5)  # cap at min(1, ...)/2


def test_bruteforce_grids_validated():
    with pytest.raises(ValueError):
        bruteforce_feasible_set(1.0, [0.0, 0.5], [2.5])
    with pytest.raises(ValueError):
        bruteforce_feasible_set(1.0, [0.5], [3.0])


def test_bruteforce_empty_iff_mu_small():
    deltas = (np.arange(100) + 0.5) / 100
    qs = 2.0 + (np.arange(100) + 0.5) / 100
    for mu in (0.5, 0.6, 2.0 / 3.0):
        assert not bruteforce_feasible_set(mu, deltas, qs).any()
    for mu in (0.68, 0.7, 1.0, 2.0):
        assert bruteforce_feasible_set(mu, deltas, qs).any()


def test_bruteforce_contains_construction():
    deltas = (np.arange(100) + 0.5) / 100
    qs = 2.0 + (np.arange(100) + 0.5) / 100
    for mu in (0.7, 1.0, 2.0, 5.0):
        mask = bruteforce_feasible_set(mu, deltas, qs)
        pair = construct_feasible_pair(mu)
        i = int(np.argmin(np.abs(deltas - pair.delta)))
        j = int(np.argmin(np.abs(qs - pair.q)))
        assert mask[i, j]


def test_feasible_area_shrinks_toward_boundary():
    deltas = (np.arange(200) + 0.5) / 200
    qs = 2.0 + (np.arange(200) + 0.5) / 200
    areas = [bruteforce_feasible_set(mu, deltas, qs).sum()
             for mu in (1.0, 0.8, 0.7, 0.68, 0.67)]
    assert all(a > b for a, b in zip(areas, areas[1:]))


def test_predicted_decay_table():
    assert predicted_decay(3.0).exponent == pytest.approx(-1.25)
    assert not predicted_decay(3.0).has_log
    assert predicted_decay(1.5).exponent == pytest.approx(-0.5)
    p2 = predicted_decay(2.0)
    assert p2.exponent == -1.0 and p2.has_log
    with pytest.raises(ValueError):
        predicted_decay(1.0)


def test_predicted_decay_continuity_at_two():
    eps = 1e-8
    above = predicted_decay(2.0 + eps).exponent
    below = predicted_decay(2.0 - eps).exponent
    assert above == pytest.approx(-1.0, abs=1e-7)
    assert below == pytest.approx(-1.0, abs=1e-7)


def test_balancing_identity_machine_precision():
    # gamma = 1/(2(beta - 1)) equalizes the inner-core and inner-band
    # exponents: -3/2 + gamma = -1 + gamma(2 - beta)
    for beta in (2.1, 3.0, 5.0, 10.0):
        g = 0.5 / (beta - 1.0)
        lhs = -1.5 + g
        rhs = -1.0 + g * (2.0 - beta)
        assert abs(lhs - rhs) < 1e-15


def test_region_term_exponents_cases():
    # gamma = 0 pins the inner core at -3/2
    exps, logs, worst = region_term_exponents(3.0, 0.5, 0.0, 1.0)
    assert exps[0] == -1.5
    # beta = 3, gamma = 1/4, alpha = delta -> 1: worst -> -5/4
    eps = 1e-6
    exps, logs, worst = region_term_exponents(3.0, 1 - eps, 0.25, 1 - eps)
    assert worst[0] == pytest.approx(-1.25, abs=1e-5)
    assert not worst[1]
    # beta = 1.5 with the boundary choice gamma = 0, delta = 1
    exps, logs, worst = region_term_exponents(1.5, 1 - eps, 0.0, 1.0)
    assert worst[0] == pytest.approx(-0.5, abs=1e-5)
    # beta = 2 carries log flags
    exps, logs, worst = region_term_exponents(2.0, 0.5, 0.0, 1.0)
    assert logs[1] and logs[2]
    assert worst == (-1.0, True)


def test_region_exponent_domination_ordering():
    # left band >= far tail >= diagonal, exactly (1-a)(1-d) and a(1-d) >= 0
    rng = np.random.default_rng(1)
    for _ in range(50):
        beta = rng.uniform(2.0001, 6.0)
        a = rng.uniform(0.0, 0.999)
        d = rng.uniform(0.0, 1.0)
        exps, _, _ = region_term_exponents(beta, a, 0.3, d)
        assert exps[2] >= exps[5] >= exps[3]


def test_region_term_validation():
    with pytest.raises(ValueError):
        region_term_exponents(3.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        region_term_exponents(3.0, 0.5, 1.5, 0.5)
    with pytest.raises(ValueError):
        region_term_exponents(0.9, 0.5, 0.5, 0.5)


def test_optimize_split_recovers_balance():
    for beta in (2.5, 3.0, 5.0):
        opt = optimize_split(beta)
        assert opt.gamma == 0.5 / (beta - 1.0)
        assert opt.exponent == -1.5 + 0.5 / (beta - 1.0)
    opt = optimize_split(1.5)
    assert opt.gamma == 0.0
    assert opt.exponent == -0.5


def test_optimize_split_never_beats_balance():
    for beta in (2.5, 3.0, 4.0, 8.0):
        opt = optimize_split(beta)
        assert opt.exponent >= -1.5 + 0.5 / (beta - 1.0) - 1e-9


SPLIT_ORACLE_BETAS = (1.2, 1.5, 1.9, 2.0, 2.0 - 1e-9, 2.0 + 1e-9, 2.2, 2.5,
                      3.0, 4.0, 5.0, 10.0)


@pytest.mark.parametrize("beta", SPLIT_ORACLE_BETAS)
def test_optimize_split_matches_the_lattice_search(beta):
    # the oracle: the exhaustive search over the lattice the split was once
    # chosen on, at the same alpha, finds no smaller worst exponent
    opt = optimize_split(beta)
    alpha = 1.0 - SPLIT_EPS
    lattice = min(region_term_exponents(beta, alpha, g, d)[2][0]
                  for g in np.linspace(0.0, 1.0, 201)
                  for d in (1.0, 0.999, 0.9, 0.75, 0.5, 0.25))
    assert lattice >= opt.exponent - 1e-12
    pred = predicted_decay(beta)
    assert abs(opt.exponent - pred.exponent) <= 1e-12
    assert opt.has_log == pred.has_log


def test_fit_decay_exact_power_law():
    r = np.array([10.0 * 2 ** j for j in range(8)])
    vals = 3.7 * r ** -1.25
    fit = fit_decay([(ri, vi, 0.0) for ri, vi in zip(r, vals)])
    assert fit.slope == pytest.approx(-1.25, abs=1e-6)
    assert not fit.log_corrected
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-6)


def test_fit_decay_log_model_detected():
    r = np.array([10.0 * 2 ** j for j in range(8)])
    vals = 0.9 * r ** -1.0 * np.log(r)
    fit = fit_decay([(ri, vi, 0.0) for ri, vi in zip(r, vals)])
    assert fit.log_corrected
    assert fit.slope_log_model == pytest.approx(-1.0, abs=0.02)
    assert fit.log_coeff == pytest.approx(1.0, abs=0.02)


def test_fit_decay_drops_nonpositive_and_validates():
    r = [10.0, 20.0, 40.0, 80.0, 160.0, 320.0]
    samples = [(ri, ri ** -2.0, 0.0) for ri in r]
    samples[2] = (40.0, 0.0, 0.0)
    fit = fit_decay(samples)
    assert fit.dropped == 1 and fit.n_used == 5
    with pytest.raises(ValueError):
        fit_decay(samples[:4])
    with pytest.raises(ValueError):
        fit_decay([(0.5, 1.0, 0.0)] + samples[:5])
    with pytest.raises(ValueError):
        fit_decay([samples[0], samples[0]] + samples[1:])


def test_fit_decay_weights_tighten_on_accurate_points():
    r = np.array([10.0 * 2 ** j for j in range(6)])
    vals = r ** -1.0
    vals_noisy = vals.copy()
    vals_noisy[-1] *= 1.5   # corrupt the least-weighted sample
    errs = [1e-6 * v for v in vals[:-1]] + [10.0 * vals[-1]]
    fit = fit_decay(list(zip(r, vals_noisy, errs)))
    assert fit.slope == pytest.approx(-1.0, abs=0.01)


def test_evaluate_pair_predicates():
    pair = evaluate_pair(0.5, 2.9, 1.0)
    assert pair.lower_ok and pair.upper_ok
    assert pair.negativity_ok == (2 - 0.25 - 5.0 / 2.9 < 0)
