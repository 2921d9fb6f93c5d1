import csv
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from meridian.envelopes import (DIAGONAL_MARGIN, RATIO_RANGE, REGIMES,
                                ZETA_SCALE_RANGE, BoundEnvelope,
                                envelope_value, evaluate_scan_grid,
                                k_split_consistency, refine_and_compare,
                                report_from_data, scan_grid, write_scan_csv,
                                write_summary_json)
from meridian.cli import load_config
from meridian.kernels import kernel_batch, kernel_triple
from oracles import (admissible_ratio, crude_bounds, scan_report,
                     write_scan_csv_reference)


def test_envelope_value_examples():
    env = BoundEnvelope("gamma23", 0.0)
    assert envelope_value(env, 2.0, 1.0, 0.0) == pytest.approx(1.0)
    # alpha = 3 collapses the distance factor for gamma1 off the band
    env1 = BoundEnvelope("gamma1", 3.0)
    assert envelope_value(env1, 1.0, 10.0, 5.0) == pytest.approx(
        5.0 / (1000.0 * ((1 - 10) ** 2 + 25) ** 0.0), rel=1e-12)
    assert envelope_value(env1, 1.0, 10.0, 5.0) == pytest.approx(0.005)


def test_envelope_regime_gate():
    env = BoundEnvelope("gamma1", 2.0)
    with pytest.raises(ValueError):
        envelope_value(env, 1.0, 2.0, 1.0)   # rho = 2r: near-diagonal band
    assert envelope_value(env, 1.0, 10.0, 1.0) > 0
    with pytest.raises(ValueError):
        BoundEnvelope("gamma23", 1.5)
    with pytest.raises(ValueError):
        BoundEnvelope("gamma1", 3.5)
    with pytest.raises(ValueError):
        BoundEnvelope("gamma7", 0.5)


def test_crude_bounds_values():
    b23, b1 = crude_bounds(1.0, 1.0, 1.0)
    assert b23 == pytest.approx(2.0)
    assert b1 == pytest.approx(1.0)
    _, b1z = crude_bounds(2.0, 1.0, 0.0)
    assert b1z == 0.0
    with pytest.raises(ValueError):
        crude_bounds(2.0, 2.0, 0.0)


def test_crude_bounds_dominate_kernels():
    rng = np.random.default_rng(19)
    for _ in range(60):
        r = rng.uniform(0.2, 30.0)
        rho = rng.uniform(0.05, 50.0)
        zeta = rng.uniform(-10.0, 10.0)
        if (r - rho) ** 2 + zeta ** 2 < 1e-4:
            continue
        kt = kernel_triple(r, rho, zeta, tol=1e-12)
        b23, b1 = crude_bounds(r, rho, zeta)
        assert abs(kt.gamma1) <= b1 + 1e-10
        assert abs(kt.gamma2) <= b23 + 1e-10
        assert abs(kt.gamma3) <= b23 + 1e-10


def test_k_split_arithmetic_exact():
    rng = np.random.default_rng(23)
    r = rng.uniform(0.1, 100.0, 5000)
    rho = rng.uniform(0.01, 400.0, 5000)
    zeta = rng.uniform(-200.0, 200.0, 5000)
    assert np.all(k_split_consistency(r, rho, zeta))


def test_scan_report_single_point():
    rep = report_from_data("gamma23", 0.5, evaluate_scan_grid(
        np.array([[2.0, 1.0, 0.5]])))
    assert rep.n_points == 1
    (label, sup), = rep.suprema.items()
    kt = kernel_triple(2.0, 1.0, 0.5)
    env = envelope_value(BoundEnvelope("gamma23", 0.5), 2.0, 1.0, 0.5)
    assert sup == pytest.approx(max(abs(kt.gamma2), abs(kt.gamma3)) / env, rel=1e-8)


def test_scan_excludes_r_below_one_and_diagonal():
    grid = np.array([[0.5, 1.0, 1.0],       # r <= 1: excluded
                     [2.0, 2.0000001, 0.0],  # inside diagonal margin
                     [2.0, 4.0, 1.0]])
    rep = report_from_data("gamma23", 0.0, evaluate_scan_grid(grid))
    assert rep.excluded == 2
    assert rep.n_points == 1


def test_scan_alpha_monotonicity_where_max_exceeds_dist():
    # at fixed point with max(rho, r) >= dist, the envelope decreases in
    # alpha, so the ratio increases
    r, rho, zeta = 10.0, 9.0, 0.5
    vals = [envelope_value(BoundEnvelope("gamma23", a), r, rho, zeta)
            for a in (0.0, 0.5, 1.0)]
    assert vals[0] > vals[1] > vals[2]


def test_small_scan_stability_machinery():
    coarse, fine = refine_and_compare(
        "gamma23", 1.0,
        evaluate_scan_grid(scan_grid(n_r=3, n_ratio=8, n_zeta=6)),
        evaluate_scan_grid(scan_grid(n_r=6, n_ratio=16, n_zeta=12)))
    assert fine.drift is not None
    assert set(fine.suprema) == set(fine.argmax)
    assert all(np.isfinite(v) for v in fine.suprema.values())


def test_scan_grid_covers_regimes():
    g = scan_grid(n_r=4, n_ratio=8, n_zeta=6)
    data = evaluate_scan_grid(g)
    rep = report_from_data("gamma23", 0.0, data)
    bands = {lab.split(":")[0] for lab in rep.suprema}
    assert bands == {"low", "mid", "high"}
    ksides = {lab.split(":")[1] for lab in rep.suprema}
    assert ksides == {"K<=1", "K>1"}


def test_gamma1_scan_handles_zeta_zero_line():
    # ratio on the zeta = 0 line is the finite limit |G1/zeta| max^a d^{3-a}
    grid = np.array([[2.0, 10.0, 0.0]])   # rho > 4r: alpha = 3 admissible
    data = evaluate_scan_grid(grid)
    rep = report_from_data("gamma1", 3.0, data)
    kb = kernel_batch(2.0, np.array([10.0]), np.array([0.0]))
    expect = abs(kb.g1_over_zeta[0]) * 10.0 ** 3
    (sup,) = rep.suprema.values()
    assert np.isfinite(sup)
    assert sup == pytest.approx(expect, rel=1e-10)


def test_scan_grid_blocks_scale_the_r1_pattern():
    # the ratios |kernel| / envelope are scale invariant only if every r
    # block is exactly the r = 1 grid times r
    pattern = scan_grid(n_r=1, n_ratio=8, n_zeta=6, r_range=(1.0, 1.0))
    rs = np.geomspace(1.1, 1000.0, 5)
    grid = scan_grid(n_r=5, n_ratio=8, n_zeta=6, r_range=(1.1, 1000.0))
    blocks = grid.reshape(len(rs), len(pattern), 3)
    for r, block in zip(rs, blocks):
        assert np.array_equal(block, pattern * r)
        assert np.all(block[:, 0] == r)


def _regime_labels(r, rho, K):
    band = np.where(rho < r / 4.0, "low", np.where(rho > 4.0 * r, "high", "mid"))
    return np.char.add(np.char.add(band, ":"), np.where(K <= 1.0, "K<=1", "K>1"))


@pytest.mark.parametrize("kind,alpha", [("gamma23", 0.5), ("gamma1", 3.0)])
def test_write_scan_csv_matches_csv_writer_reference(tmp_path, kind, alpha):
    # reference rows: csv.writer with one format per field; gamma1 at
    # alpha = 3 drops the near-diagonal band
    data = evaluate_scan_grid(scan_grid(n_r=3, n_ratio=8, n_zeta=6))
    env = BoundEnvelope(kind, alpha)
    ok = env.admissible(data.r, data.rho)
    r, rho, zeta, K = data.r[ok], data.rho[ok], data.zeta[ok], data.K[ok]
    envv = envelope_value(env, r, rho, zeta)
    if kind == "gamma23":
        kv = data.kernel23[ok]
        ratio = kv / envv
    else:
        kv = data.kernel1[ok]
        ratio = (data.kernel1_over_zeta[ok] * np.maximum(r, rho) ** alpha
                 * ((r - rho) ** 2 + zeta ** 2) ** ((3.0 - alpha) / 2.0))
    labels = _regime_labels(r, rho, K)
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["r", "rho", "zeta", "K", "regime", "kernel", "envelope",
                     "ratio"])
        for i in range(r.size):
            wr.writerow(["%.10g" % r[i], "%.10g" % rho[i], "%.10g" % zeta[i],
                         "%.10g" % K[i], str(labels[i]), "%.12g" % kv[i],
                         "%.12g" % envv[i], "%.12g" % ratio[i]])
    out = tmp_path / "scan.csv"
    write_scan_csv(str(out), kind, alpha, data)
    assert out.read_bytes() == ref.read_bytes()
    assert r.size > 0 and (r.size < data.r.size) == (alpha > 1)


def _default_jobs():
    cfg = load_config()
    return ([("gamma23", a) for a in cfg["scan.alphas23"]]
            + [("gamma1", a) for a in cfg["scan.alphas1"]])


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
def test_write_scan_csv_shares_no_rows_between_jobs(tmp_path, order):
    # one ScanData serves every default job; each file must equal the one
    # written from a freshly evaluated grid, whichever job came first
    jobs = _default_jobs()
    assert ("gamma1", 3.0) in jobs and ("gamma1", 1.0) in jobs
    grid = scan_grid(n_r=3, n_ratio=8, n_zeta=6)
    shared = evaluate_scan_grid(grid)
    rows = {}
    for kind, alpha in jobs[::order]:
        path = tmp_path / ("%s_%g.csv" % (kind, alpha))
        write_scan_csv(str(path), kind, alpha, shared)
        write_scan_csv(str(tmp_path / "fresh.csv"), kind, alpha,
                       evaluate_scan_grid(grid))
        assert path.read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        rows[kind, alpha] = path.read_bytes().count(b"\r\n")
    # gamma1 at alpha = 3 drops the near-diagonal band, alpha <= 1 keeps it
    assert rows["gamma1", 3.0] < rows["gamma1", 1.0] == rows["gamma23", 1.0]


@pytest.mark.parametrize("kind, alpha", _default_jobs())
def test_write_scan_csv_matches_per_row_reference(tmp_path, kind, alpha):
    # a small grid plus a hand-added point on the zeta = 0 line with zeta =
    # -0.0: formatted apart from the grid's +0.0 points, its zeta reads -0,
    # which a dedup keyed on values instead of bits would lose
    grid = scan_grid(n_r=3, n_ratio=8, n_zeta=6)
    r0 = grid[0, 0]
    data = evaluate_scan_grid(np.vstack([grid, [[r0, 0.1 * r0, -0.0]]]))
    assert np.any((data.zeta == 0.0) & ~np.signbit(data.zeta))
    ref, out = tmp_path / "ref.csv", tmp_path / "scan.csv"
    write_scan_csv_reference(str(ref), kind, alpha, data)
    write_scan_csv(str(out), kind, alpha, data)
    assert out.read_bytes() == ref.read_bytes()
    assert ("\r\n%.10g,%.10g,-0," % (r0, 0.1 * r0)).encode() in out.read_bytes()
    # gamma1 at alpha = 3 drops the near-diagonal band's rows
    assert (out.read_bytes().count(b"\r\n") - 1 < data.r.size) == (alpha > 1)


# rho = r/4 and rho = 4r sit in the mid band; (2, 2, +-4) and (3, 3, 6)
# have 4 r rho = d^2 exactly, and K = 1 falls on the K <= 1 side
EDGE_POINTS = np.array([[2.0, 0.5, 1.0], [2.0, 8.0, 1.0], [2.0, 2.0, 4.0],
                        [2.0, 2.0, -4.0], [3.0, 3.0, 6.0]])


def test_scan_regime_matches_band_and_k_side():
    data = evaluate_scan_grid(np.vstack([scan_grid(n_r=3, n_ratio=8, n_zeta=6),
                                         EDGE_POINTS]))
    expect = [REGIMES.index(lab)
              for lab in _regime_labels(data.r, data.rho, data.K)]
    assert np.array_equal(data.regime, expect)
    assert np.any(data.rho == data.r / 4.0) and np.any(data.rho == 4.0 * data.r)
    at_k1 = data.K == 1.0
    assert at_k1.sum() >= 3
    assert np.all(data.regime[at_k1] % 2 == 0)
    assert set(data.regime.tolist()) == set(range(len(REGIMES)))


def _tied_argmax(kind, alpha, data):
    """Whether some regime's supremum is attained at two distinct points."""
    ok, ratio = admissible_ratio(BoundEnvelope(kind, alpha), data)
    points = np.column_stack([data.r, data.rho, data.zeta])[ok]
    regime = data.regime[ok]
    for i in np.unique(regime):
        at_sup = (regime == i) & (ratio == ratio[regime == i].max())
        if len(np.unique(points[at_sup], axis=0)) > 1:
            return True
    return False


def _scan_grids():
    small = scan_grid(n_r=3, n_ratio=8, n_zeta=6)
    refined = scan_grid(n_r=6, n_ratio=16, n_zeta=12)
    # r <= 1 and on the diagonal: both excluded
    excluded = np.array([[0.5, 1.0, 1.0], [1.0, 2.0, 0.5], [2.0, 2.0, 0.0],
                         [5.0, 5.0000001, 0.0]])
    mixed = np.vstack([small, EDGE_POINTS, excluded])
    mixed = mixed[np.random.default_rng(29).permutation(len(mixed))]
    return {"small": small, "refined": refined, "unsorted": mixed,
            # every point twice, each copy in grid order
            "duplicated": np.vstack([small, small])}


@pytest.mark.parametrize("name", ["small", "refined", "unsorted", "duplicated"])
def test_report_matches_mask_reference(name):
    # the regime-grouped reduction against one mask per regime: same
    # suprema, argmax (the first point in scan order on a tie), counts
    grid = _scan_grids()[name]
    data = evaluate_scan_grid(grid)
    ties = 0
    for kind, alpha in _default_jobs():
        rep = report_from_data(kind, alpha, data)
        assert repr(rep.to_json_dict()) == repr(
            scan_report(kind, alpha, data).to_json_dict())
        ties += _tied_argmax(kind, alpha, data)
    if name == "unsorted":
        assert data.excluded == 4
        assert np.any(data.K == 1.0) and np.any(data.rho == 4.0 * data.r)
    if name == "duplicated":
        assert ties > 0


def _envelope_ratios(r, rho, zeta, alpha23, alpha1):
    """max(|G2|, |G3|) / env23 and, off the zeta = 0 line, |G1| / env1."""
    kv = kernel_batch(r, rho, zeta)
    env23 = envelope_value(BoundEnvelope("gamma23", alpha23), r, rho, zeta)
    ratios = [max(abs(float(kv.g2)), abs(float(kv.g3))) / env23]
    if zeta != 0.0:
        env1 = envelope_value(BoundEnvelope("gamma1", alpha1), r, rho, zeta)
        ratios.append(abs(float(kv.g1)) / env1)
    return ratios


# zeta / r as the scan samples it: 0 or a magnitude in ZETA_SCALE_RANGE
zeta_scales = st.one_of(st.just(0.0), st.floats(*ZETA_SCALE_RANGE),
                        st.floats(-ZETA_SCALE_RANGE[1], -ZETA_SCALE_RANGE[0]))


@settings(max_examples=200, deadline=None)
@given(r=st.floats(1.01, 1e3), q=st.floats(*RATIO_RANGE), s=zeta_scales,
       lam=st.floats(1e-2, 1e2), alpha23=st.floats(0.0, 1.0),
       alpha1=st.floats(0.0, 3.0))
def test_envelope_ratios_scale_invariant(r, q, s, lam, alpha23, alpha1):
    # kernels and envelopes are both homogeneous of degree -2, so each
    # ratio is invariant under (r, rho, zeta) -> lam (r, rho, zeta); the
    # scan's r ladder relies on it
    points = ((r, q * r, s * r), (lam * r, lam * q * r, lam * s * r))
    assume(lam * r > 1.0)
    for a, b, c in points:
        assume(math.hypot(a - b, c) >= DIAGONAL_MARGIN * max(a, b))
        assume(BoundEnvelope("gamma1", alpha1).admissible(a, b))
    base = _envelope_ratios(*points[0], alpha23, alpha1)
    scaled = _envelope_ratios(*points[1], alpha23, alpha1)
    assert scaled == pytest.approx(base, rel=1e-9)


def _sorted_json_dict(rep):
    """A report's summary dict as it was built before the JSON writer took
    over sorting: keys sorted, argmax tuples turned into lists."""
    return {
        "kind": rep.kind,
        "alpha": rep.alpha,
        "n_points": rep.n_points,
        "suprema": {k: rep.suprema[k] for k in sorted(rep.suprema)},
        "argmax": {k: list(rep.argmax[k]) for k in sorted(rep.argmax)},
        "stable": rep.stable,
        "drift": (None if rep.drift is None
                  else {k: rep.drift[k] for k in sorted(rep.drift)}),
        "excluded": rep.excluded,
        "n_failures": len(rep.failures),
    }


def test_write_summary_json_matches_sorted_reference(tmp_path):
    grids = _scan_grids()
    coarse_data = evaluate_scan_grid(grids["small"])
    fine_data = evaluate_scan_grid(grids["refined"])
    # every default job's coarse report (no drift) and refined report
    reports = [rep for kind, alpha in _default_jobs()
               for rep in refine_and_compare(kind, alpha, coarse_data,
                                             fine_data)]
    assert any(rep.drift is None for rep in reports)
    assert any(rep.drift for rep in reports)
    out, ref = tmp_path / "summary.json", tmp_path / "ref.json"
    write_summary_json(str(out), reports)
    with open(ref, "w") as fh:
        json.dump([_sorted_json_dict(rep) for rep in reports], fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    assert out.read_bytes() == ref.read_bytes()
