import csv
import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from meridian import cli
from meridian.cli import ConfigError, DEFAULTS, load_config, main
from meridian.norms import DivergentNormError
from meridian.rates import bruteforce_feasible_set, feasibility_predicates
from meridian.reconstruct import reconstruct
from oracles import write_csv_reference


FAST_SCAN = """
scan.n_r = 4
scan.n_ratio = 8
scan.n_zeta = 6
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def hash_dir(out):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        digest.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_print_config_lists_every_key(capsys):
    assert main(["print-config"]) == 0
    out = capsys.readouterr().out
    for key in DEFAULTS:
        assert key in out


def test_print_config_loads_back_as_the_defaults(tmp_path, capsys):
    assert main(["print-config"]) == 0
    loaded = load_config(write_cfg(tmp_path, capsys.readouterr().out))
    defaults = load_config(None)
    assert loaded == defaults
    assert all(type(loaded[k]) is type(defaults[k]) for k in defaults)


def test_config_defaults_and_parse(tmp_path):
    cfg = load_config(None)
    assert cfg["feas.mu"] == 1.0
    path = write_cfg(tmp_path, "feas.mu = 2.5 # comment\n\n# full line\n")
    assert load_config(path)["feas.mu"] == 2.5


def test_config_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, "feas.mu = 1\nbogus.key = 3\n")
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["feasibility", "--config", path, "--out", str(tmp_path)]) == 2


def test_config_bad_value_rejected(tmp_path):
    path = write_cfg(tmp_path, "feas.n_delta = many\n")
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("key", sorted(k for k, v in DEFAULTS.items()
                                     if v[1] is int))
def test_count_keys_below_one_rejected(tmp_path, key):
    path = write_cfg(tmp_path, "%s = 0\n" % key)
    with pytest.raises(ConfigError, match=key):
        load_config(path)
    command = {"scan": "kernel-scan", "feas": "feasibility"}.get(
        key.split(".")[0], key.split(".")[0])
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_alpha_out_of_range_fails_validation_before_work(tmp_path):
    path = write_cfg(tmp_path, "scan.alphas23 = 0,2.0\n" + FAST_SCAN)
    out = tmp_path / "out"
    assert main(["kernel-scan", "--config", path, "--out", str(out)]) == 2
    assert not (out / "kernel_scan_summary.json").exists()


def test_decay_beta_below_one_rejected(tmp_path):
    path = write_cfg(tmp_path, "decay.beta = 0.9\n")
    assert main(["decay", "--config", path, "--out", str(tmp_path)]) == 2


def test_feasibility_exit_and_files(tmp_path):
    path = write_cfg(tmp_path, "feas.mu = 1.0\nfeas.n_delta = 60\nfeas.n_q = 60\n"
                               "feas.mu_sweep = 0.67,0.7,1,3\n")
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "feasibility.json").read_text())
    assert payload["verdict"] == "feasible"
    assert payload["region_nonempty"] and payload["construction_cell_feasible"]
    assert (out / "feasibility_region.csv").exists()
    sweep = (out / "feasibility_sweep.csv").read_text().splitlines()
    assert sweep[0] == "mu,region_cells,region_fraction"
    assert len(sweep) == 5


def test_feasibility_region_rows_on_a_non_square_grid(tmp_path):
    # the streamed rows against one row per cell, delta outermost: a
    # transposed or misaligned flag column fails on a 37 x 51 grid
    path = write_cfg(tmp_path, "feas.mu = 1.1\nfeas.n_delta = 37\n"
                               "feas.n_q = 51\n")
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", path, "--out", str(out)]) == 0
    deltas, qs = (np.arange(37) + 0.5) / 37, 2.0 + (np.arange(51) + 0.5) / 51
    flags = [*feasibility_predicates(deltas[:, None], qs[None, :], 1.1),
             bruteforce_feasible_set(1.1, deltas, qs)]
    assert flags[-1].any() and len({f.sum() for f in flags}) == 4
    ref = tmp_path / "ref.csv"
    write_csv_reference(str(ref), ["mu", "delta", "q", "lower_ok", "upper_ok",
                                   "negativity_ok", "feasible"],
                        (["%.12g" % 1.1, "%.12g" % d, "%.12g" % q]
                         + [int(f[i, j]) for f in flags]
                         for i, d in enumerate(deltas)
                         for j, q in enumerate(qs)))
    assert (out / "feasibility_region.csv").read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("text", [
    "", "feas.mu = 0.5\n",
    "feas.n_delta = 37\nfeas.n_q = 51\nfeas.mu_sweep = 0.6,1.1,1.9\n",
    "feas.n_q = 1\n"], ids=["default", "infeasible", "37x51", "one_q"])
def test_feasibility_region_bytes_row_by_row(tmp_path, text):
    # the region CSV against one "%.12g,%.12g,%.12g,%d,%d,%d,%d" per cell:
    # a flag text from the wrong bits of its lookup index fails here
    path = write_cfg(tmp_path, text)
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", path, "--out", str(out)]) in (0, 1)
    cfg = load_config(path)
    mu, n_d, n_q = cfg["feas.mu"], cfg["feas.n_delta"], cfg["feas.n_q"]
    deltas = (np.arange(n_d) + 0.5) / n_d
    qs = 2.0 + (np.arange(n_q) + 0.5) / n_q
    flags = [*feasibility_predicates(deltas[:, None], qs[None, :], mu),
             bruteforce_feasible_set(mu, deltas, qs)]
    lines = ["mu,delta,q,lower_ok,upper_ok,negativity_ok,feasible"]
    for i, d in enumerate(deltas):
        for j, q in enumerate(qs):
            lines.append("%.12g,%.12g,%.12g,%d,%d,%d,%d"
                         % (mu, d, q, *(f[i, j] for f in flags)))
    expect = "".join(line + "\r\n" for line in lines).encode()
    assert (out / "feasibility_region.csv").read_bytes() == expect


def test_feasibility_infeasible_mu_exits_zero(tmp_path):
    path = write_cfg(tmp_path, "feas.mu = 0.6\nfeas.n_delta = 40\nfeas.n_q = 40\n")
    out = tmp_path / "feas"
    assert main(["feasibility", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "feasibility.json").read_text())
    assert payload["verdict"] == "infeasible"
    assert not payload["region_nonempty"]


def test_bmo_exit_zero_and_table(tmp_path):
    path = write_cfg(tmp_path, "bmo.n_scales = 6\n")
    out = tmp_path / "bmo"
    assert main(["bmo", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "bmo_summary.json").read_text())
    assert payload["pass"] and payload["mean_matches_closed_form"]
    assert all(v < 1.01 for v in payload["max_min_ratios"].values())
    rows = (out / "bmo_table.csv").read_text().splitlines()
    assert len(rows) == 7


def test_numerical_failure_exits_2(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise DivergentNormError("integral does not settle")
    monkeypatch.setattr(cli, "cmd_bmo", fail)
    assert main(["bmo", "--out", str(tmp_path)]) == 2
    assert "numerical failure: integral does not settle" in capsys.readouterr().err


def test_kernel_scan_outputs_and_determinism(tmp_path):
    path = write_cfg(tmp_path, FAST_SCAN + "scan.refine = false\n"
                                           "scan.kinds = gamma23\n"
                                           "scan.alphas23 = 0,1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["kernel-scan", "--config", path, "--out", str(out1)]) == 0
    assert main(["kernel-scan", "--config", path, "--out", str(out2)]) == 0
    assert hash_dir(str(out1)) == hash_dir(str(out2))
    summary = json.loads((out1 / "kernel_scan_summary.json").read_text())
    assert {rep["alpha"] for rep in summary} == {0.0, 1.0}
    assert all(rep["n_failures"] == 0 for rep in summary)


def test_kernel_scan_accepts_equal_radius_bounds(tmp_path):
    # r_max = r_min is a one-radius ladder, not a reversed range: its
    # n_r = 4 coinciding rungs are scanned once, as with n_r = 1
    text = FAST_SCAN + ("scan.refine = false\nscan.kinds = gamma23\n"
                        "scan.alphas23 = 0\nscan.r_min = 2\nscan.r_max = 2\n")
    assert "scan.n_r = 4" in text
    suprema = {}
    for n_r in (4, 1):
        path = write_cfg(tmp_path, text.replace("scan.n_r = 4",
                                                "scan.n_r = %d" % n_r))
        out = tmp_path / ("out%d" % n_r)
        assert main(["kernel-scan", "--config", path, "--out", str(out)]) == 0
        with open(out / "scan_gamma23_alpha0.csv", newline="") as fh:
            rows = [tuple(row.values()) for row in csv.DictReader(fh)]
        assert rows and {row[0] for row in rows} == {"2"}
        assert len(set(rows)) == len(rows)
        summary = json.loads((out / "kernel_scan_summary.json").read_text())
        suprema[n_r] = [rep["suprema"] for rep in summary]
    assert suprema[4] == suprema[1]


def test_kernel_scan_refined_two_kinds_deterministic(tmp_path):
    path = write_cfg(tmp_path, FAST_SCAN + "scan.alphas23 = 0.5\n"
                                           "scan.alphas1 = 0,3\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code = main(["kernel-scan", "--config", path, "--out", str(out1)])
    assert main(["kernel-scan", "--config", path, "--out", str(out2)]) == code
    assert hash_dir(str(out1)) == hash_dir(str(out2))
    summary = json.loads((out1 / "kernel_scan_summary.json").read_text())
    assert [(rep["kind"], rep["alpha"]) for rep in summary] == [
        ("gamma23", 0.5), ("gamma1", 0.0), ("gamma1", 3.0)]
    assert all(rep["drift"] for rep in summary)


def test_a_gamma1_only_scan_never_formats_the_gamma23_column(tmp_path,
                                                             monkeypatch):
    # with the gamma23 magnitudes removed from every scan grid, so that any
    # read of them fails, a gamma1-only scan writes the same bytes
    from meridian import envelopes
    path = write_cfg(tmp_path, FAST_SCAN + "scan.kinds = gamma1\n"
                                           "scan.alphas1 = 0,3\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    code = main(["kernel-scan", "--config", path, "--out", str(out1)])
    evaluate, formatted = envelopes.evaluate_scan_grid, []

    def without_gamma23(grid):
        data = evaluate(grid)
        data.kernel23 = None
        formatted.append(data)
        return data

    monkeypatch.setattr(envelopes, "evaluate_scan_grid", without_gamma23)
    assert main(["kernel-scan", "--config", path, "--out", str(out2)]) == code
    assert hash_dir(str(out1)) == hash_dir(str(out2))
    # only the coarse grid writes CSV, and only its gamma1 column is formatted
    assert [("csv_gamma1" in vars(d), "csv_gamma23" in vars(d))
            for d in formatted] == [(True, False), (False, False)]


def test_kernel_scan_refined_smoke(tmp_path):
    # tiny grids are genuinely unstable under refinement: exit 1 is the
    # honest verdict, and the drift must be reported
    path = write_cfg(tmp_path, FAST_SCAN + "scan.kinds = gamma23\n"
                                           "scan.alphas23 = 0.5\n")
    out = tmp_path / "scan"
    code = main(["kernel-scan", "--config", path, "--out", str(out)])
    summary = json.loads((out / "kernel_scan_summary.json").read_text())
    assert summary[0]["stable"] in (True, False)
    assert code == (0 if summary[0]["stable"] else 1)
    assert summary[0]["drift"]


def test_kernel_scan_counts_coarse_grid_failures(tmp_path, monkeypatch):
    # the CSVs are written from the coarse grid, so a non-finite kernel
    # value there must reach n_failures and the exit code too
    import numpy as np
    from meridian import envelopes
    calls = []

    def nan_first_g2(*args, **kwargs):
        out = kernel_batch(*args, **kwargs)
        if not calls:        # the first call is the coarse grid's first r
            out.g2[0] = np.nan
        calls.append(1)
        return out

    kernel_batch = envelopes.kernel_batch
    monkeypatch.setattr(envelopes, "kernel_batch", nan_first_g2)
    path = write_cfg(tmp_path, FAST_SCAN + "scan.kinds = gamma23\n"
                                           "scan.alphas23 = 0\n")
    out = tmp_path / "scan"
    assert main(["kernel-scan", "--config", path, "--out", str(out)]) == 1
    summary = json.loads((out / "kernel_scan_summary.json").read_text())
    assert summary[0]["n_failures"] >= 1
    assert summary[0]["stable"]


def test_kernel_scan_split_violation_exits_2(tmp_path, monkeypatch, capsys):
    # a violated K <= 1 split is a numerical failure (exit 2), raised
    # before any report or CSV is written
    import numpy as np
    from meridian import envelopes
    monkeypatch.setattr(envelopes, "k_split_consistency",
                        lambda r, rho, zeta: np.zeros(np.shape(r), bool))
    path = write_cfg(tmp_path, FAST_SCAN + "scan.kinds = gamma23\n"
                                           "scan.alphas23 = 0\n")
    out = tmp_path / "scan"
    assert main(["kernel-scan", "--config", path, "--out", str(out)]) == 2
    assert "split arithmetic violated" in capsys.readouterr().err
    assert not (out / "kernel_scan_summary.json").exists()


def test_decay_command_small_run(tmp_path):
    path = write_cfg(tmp_path, "decay.beta = 3.0\ndecay.n_points = 5\n")
    out = tmp_path / "decay"
    assert main(["decay", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "decay_fit_beta3.json").read_text())
    assert payload["slope_within_tolerance"]
    assert payload["trace_fit"]["selected_slope"] <= -1.25 + 0.1
    assert payload["envelope_fit"]["log_model_selected"] is False
    rows = (out / "decay_trace_beta3.csv").read_text().splitlines()
    assert rows[0].startswith("r,value,quad_err,tail_bound,inner_core")
    assert len(rows) == 6


def test_decay_beta2_reports_log_model_on_envelope(tmp_path):
    path = write_cfg(tmp_path, "decay.beta = 2.0\ndecay.n_points = 6\n")
    out = tmp_path / "decay2"
    assert main(["decay", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "decay_fit_beta2.json").read_text())
    assert payload["envelope_fit"]["log_model_selected"] is True
    assert abs(payload["envelope_fit"]["slope"] - (-1.0)) < 0.05
    assert payload["trace_fit"]["selected_slope"] <= -1.0 + 0.1


def test_decay_z_sweep_option(tmp_path):
    path = write_cfg(tmp_path, "decay.beta = 3.0\ndecay.n_points = 5\n"
                               "decay.z_sweep = true\n")
    out = tmp_path / "decayz"
    assert main(["decay", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "decay_fit_beta3.json").read_text())
    assert set(payload["z_sweep_slopes"]) == {"half_r", "full_r"}
    assert all(v <= -1.25 + 0.1 for v in payload["z_sweep_slopes"].values())


def test_decay_z_sweep_flags_reach_report_and_exit_code(tmp_path):
    # the main trace flags nothing, but the half_r trace's certified error
    # at r = 64 is about 0.13 of its value
    path = write_cfg(tmp_path, "decay.component = u_z\ndecay.z_sweep = true\n"
                               "decay.r_min = 8\n")
    out = tmp_path / "decayflag"
    assert main(["decay", "--config", path, "--out", str(out)]) == 1
    payload = json.loads((out / "decay_fit_beta3.json").read_text())
    assert payload["flagged_samples"] == 0
    assert payload["slope_within_tolerance"]
    assert payload["z_sweep_flagged"] == {"half_r": 1, "full_r": 0}


def test_decay_compact_envelope_option(tmp_path):
    path = write_cfg(tmp_path, "decay.beta = 3.0\ndecay.n_points = 5\n"
                               "decay.envelope = compact\n"
                               "decay.envelope_scale = 1.5\n")
    out = tmp_path / "decayc"
    assert main(["decay", "--config", path, "--out", str(out)]) == 0


@pytest.mark.parametrize("text, seed", [
    ("", "0"),
    # the benchmark's layout 3 (two random probes) about a bump at r0 = 3.5
    ("roundtrip.bump_r0 = 3.5\nroundtrip.probe_layout = random\n", "3"),
], ids=["grid", "random-seed3"])
def test_roundtrip_same_bytes_for_any_worker_count(tmp_path, text, seed):
    # the pool runs over the probes, and 3 workers outnumber the 2 probes,
    # so the results must come back in probe order from a pool left idle
    path = write_cfg(tmp_path, "roundtrip.n_r = 2\nroundtrip.n_z = 1\n" + text)
    out1 = tmp_path / "w1"
    code = main(["roundtrip", "--config", path, "--out", str(out1),
                 "--workers", "1", "--seed", seed])
    for workers in ("2", "3"):
        out = tmp_path / ("w" + workers)
        assert main(["roundtrip", "--config", path, "--out", str(out),
                     "--workers", workers, "--seed", seed]) == code
        assert hash_dir(str(out1)) == hash_dir(str(out))


@pytest.mark.parametrize("kind, names", [
    ("both", ("u_r", "u_z", "u_theta")), ("no_swirl", ("u_r", "u_z")),
    ("pure_swirl", ("u_theta",))])
def test_roundtrip_reconstructs_each_probe_once(tmp_path, monkeypatch, kind,
                                                names):
    # one call per probe carries every component the kinds check, on the
    # one field of the requested kinds' parts
    seen = []

    def counting(w, p, components):
        seen.append(((p.r, p.z), components))
        return reconstruct(w, p, components)

    monkeypatch.setattr(cli, "reconstruct", counting)
    path = write_cfg(tmp_path, "roundtrip.kind = %s\nroundtrip.n_r = 2\n"
                               "roundtrip.n_z = 1\n" % kind)
    out = tmp_path / "rt"
    assert main(["roundtrip", "--config", path, "--out", str(out),
                 "--workers", "2"]) == 0
    assert sorted(seen) == [((r, -1.2), names) for r in (1.5, 5.5)]
    with open(out / "roundtrip_probes.csv", newline="") as fh:
        assert (sorted(row["component"] for row in csv.DictReader(fh))
                == sorted(names * 2))


@pytest.mark.parametrize("envelope", ["gauss", "compact"])
@pytest.mark.parametrize("scale", [-1.0, 0.0])
def test_decay_non_positive_envelope_scale_rejected(tmp_path, capsys,
                                                    envelope, scale):
    path = write_cfg(tmp_path, "decay.envelope = %s\n"
                               "decay.envelope_scale = %g\n" % (envelope, scale))
    out = tmp_path / "decay"
    assert main(["decay", "--config", path, "--out", str(out)]) == 2
    assert "must be finite and positive" in capsys.readouterr().err
    assert not (out / "decay_trace_beta3.csv").exists()


def test_roundtrip_random_layout_seeded(tmp_path):
    path = write_cfg(tmp_path, "roundtrip.kind = pure_swirl\n"
                               "roundtrip.n_r = 2\nroundtrip.n_z = 2\n"
                               "roundtrip.probe_layout = random\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["roundtrip", "--config", path, "--out", str(out1),
                 "--seed", "5"]) == 0
    assert main(["roundtrip", "--config", path, "--out", str(out2),
                 "--seed", "5"]) == 0
    assert hash_dir(str(out1)) == hash_dir(str(out2))


def test_roundtrip_command_small(tmp_path):
    path = write_cfg(tmp_path, "roundtrip.kind = pure_swirl\n"
                               "roundtrip.n_r = 2\nroundtrip.n_z = 2\n")
    out = tmp_path / "rt"
    assert main(["roundtrip", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "roundtrip_report.json").read_text())
    assert payload["pass"]
    assert payload["pure_swirl"]["u_theta"] < 1e-3
    # the 2x2 grid probes only outside the support: the report must say so
    assert payload["pure_swirl"]["u_theta_normalization"] == "absolute"


def test_roundtrip_csv_recomputes_the_report(tmp_path):
    # the relative errors are about 1e-7, so 12-digit values would leave
    # only about 5 digits of each difference
    path = write_cfg(tmp_path, "roundtrip.n_r = 3\n")
    out = tmp_path / "rt"
    assert main(["roundtrip", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "roundtrip_report.json").read_text())
    sums = {}
    with open(out / "roundtrip_probes.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            rec, exact = float(row["reconstructed"]), float(row["exact"])
            acc = sums.setdefault((row["kind"], row["component"]), [0.0, 0.0])
            acc[0] += (rec - exact) ** 2
            acc[1] += exact ** 2
    assert sorted(comp for _, comp in sums) == ["u_r", "u_theta", "u_z"]
    for (kind, comp), (err2, ref2) in sums.items():
        assert report[kind][comp + "_normalization"] == "relative"
        assert math.sqrt(err2 / ref2) == pytest.approx(report[kind][comp],
                                                       rel=1e-12, abs=0.0)


def test_roundtrip_interior_probes_use_relative_norm(tmp_path):
    path = write_cfg(tmp_path, "roundtrip.kind = pure_swirl\n"
                               "roundtrip.n_r = 3\nroundtrip.n_z = 3\n")
    out = tmp_path / "rti"
    assert main(["roundtrip", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "roundtrip_report.json").read_text())
    assert payload["pure_swirl"]["u_theta_normalization"] == "relative"
    assert payload["pure_swirl"]["u_theta"] < 1e-3


@pytest.mark.parametrize("fault", ["violation", "tol_missed"])
def test_roundtrip_exits_1_on_a_broken_certificate(tmp_path, monkeypatch,
                                                   fault):
    # one result moved by twice its certified error, or marked as missing
    # tol: the relative-L2 gate still passes, the certificate check does not
    first_r, first_z = 1.5, -1.2     # the grid's first probe

    def faulty(w, p, components):
        found = reconstruct(w, p, components)
        if p.r == first_r and p.z == first_z:
            res = found["u_theta"]
            found["u_theta"] = (
                replace(res, value=res.value + 2.0 * res.total_error)
                if fault == "violation" else replace(res, tol_met=False))
        return found

    path = write_cfg(tmp_path, "roundtrip.kind = pure_swirl\n"
                               "roundtrip.n_r = 3\nroundtrip.n_z = 3\n")
    monkeypatch.setattr(cli, "reconstruct", faulty)
    out = tmp_path / "rt"
    assert main(["roundtrip", "--config", path, "--out", str(out)]) == 1
    payload = json.loads((out / "roundtrip_report.json").read_text())
    assert payload["pass"]
    violations = payload["cert_violations"]
    if fault == "violation":
        assert [(v["r"], v["z"]) for v in violations] == [(first_r, first_z)]
        assert violations[0]["error"] > violations[0]["total_error"]
        assert payload["cert_worst_ratio"] > 1.0
        assert (payload["tol_met"], payload["tol_missed"]) == (9, 0)
    else:
        assert violations == [] and payload["cert_worst_ratio"] <= 1.0
        assert (payload["tol_met"], payload["tol_missed"]) == (8, 1)


def test_roundtrip_bump_wider_than_the_window(tmp_path):
    # the support reaches rho = 18, past the window 8 * 1.2 of the probe at
    # r = 1.2, which then still covers the whole support
    path = write_cfg(tmp_path, "roundtrip.bump_r0 = 10\n"
                               "roundtrip.bump_radius = 8\n"
                               "roundtrip.n_r = 2\nroundtrip.n_z = 1\n")
    out = tmp_path / "wide"
    assert main(["roundtrip", "--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "roundtrip_report.json").read_text())
    assert payload["pass"]


@pytest.mark.parametrize("command", ["roundtrip", "decay"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected_before_output(tmp_path, capsys, command,
                                                  workers):
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--workers", workers]) == 2
    assert "error: --workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_exits_2_before_output(tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "missing.cfg"
    assert main(["bmo", "--config", str(missing), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_output_directory_under_a_regular_file_exits_2(tmp_path, capsys):
    regular = tmp_path / "regular"
    regular.write_text("")
    out = regular / "sub"
    assert main(["bmo", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err
    assert regular.read_text() == ""


@pytest.mark.parametrize("key, value, message", [
    ("roundtrip.probe_layout", "randm", "must be grid or random"),
    ("roundtrip.bump_radius", "-1", "must be finite and positive"),
    ("roundtrip.bump_radius", "0", "must be finite and positive"),
])
def test_roundtrip_bad_layout_or_radius_rejected(tmp_path, capsys,
                                                  monkeypatch, key, value,
                                                  message):
    def no_probe(*args, **kwargs):
        raise AssertionError("a probe was evaluated")

    monkeypatch.setattr(cli, "reconstruct", no_probe)
    path = write_cfg(tmp_path, "%s = %s\n" % (key, value))
    out = tmp_path / "rt"
    assert main(["roundtrip", "--config", path, "--out", str(out)]) == 2
    assert "error: %s %s" % (key, message) in capsys.readouterr().err
    assert not (out / "roundtrip_report.json").exists()
    assert not (out / "roundtrip_probes.csv").exists()


@pytest.mark.parametrize("command, text, message", [
    ("kernel-scan", "scan.r_max = nan", "scan.r_max: must be finite"),
    ("kernel-scan", "scan.stability = nan", "scan.stability: must be finite"),
    ("decay", "decay.slope_tolerance = nan",
     "decay.slope_tolerance: must be finite"),
    ("roundtrip", "roundtrip.threshold = nan",
     "roundtrip.threshold: must be finite"),
    # no relative error is below a threshold <= 0, so the gate always fails
    ("roundtrip", "roundtrip.threshold = 0",
     "roundtrip.threshold must be positive, got 0"),
    ("roundtrip", "roundtrip.threshold = -0.001",
     "roundtrip.threshold must be positive, got -0.001"),
    ("feasibility", "feas.mu = nan", "feas.mu: must be finite"),
    ("feasibility", "feas.mu = -1", "every feas.mu_sweep entry must"),
    ("feasibility", "feas.mu_sweep = 1,0", "every feas.mu_sweep entry must"),
    ("kernel-scan", "scan.kinds =", "scan.kinds: nothing to scan"),
    ("kernel-scan", "scan.kinds = gamma23; scan.alphas23 =",
     "scan.kinds: nothing to scan"),
    ("decay", "decay.n_points = 4", "decay.n_points must be at least 5"),
    ("roundtrip", "roundtrip.kind = bogus",
     "roundtrip.kind must be no_swirl, pure_swirl or both"),
    ("decay", "decay.envelope = bogus",
     "axial envelope kind must be gauss or compact, got 'bogus'"),
    ("kernel-scan", "scan.alphas23 = 0.5,0.5",
     "scan jobs (gamma23, alpha=0.5) and (gamma23, alpha=0.5) both write "
     "scan_gamma23_alpha0.5.csv"),
    # %g prints both alphas as 0.5, so their CSVs would share a name
    ("kernel-scan", "scan.alphas23 = 0.5,0.5000001",
     "and (gamma23, alpha=0.5000001) both write scan_gamma23_alpha0.5.csv"),
    ("kernel-scan", "scan.kinds = gamma1,gamma1",
     "both write scan_gamma1_alpha0.csv"),
    # with no gamma1 alphas an unknown kind used to be skipped silently
    ("kernel-scan", "scan.kinds = gamma23,bogus; scan.alphas1 =",
     "scan.kinds: kind must be 'gamma23' or 'gamma1', got 'bogus'"),
    ("kernel-scan", "scan.kinds = bogus",
     "scan.kinds: kind must be 'gamma23' or 'gamma1', got 'bogus'"),
    ("kernel-scan", "scan.r_min = 50; scan.r_max = 2",
     "scan.r_max must be at least scan.r_min, got 2 < 50"),
    # every probe radius would lie at or below the 1.2 floor
    ("roundtrip", "roundtrip.bump_r0 = 0.4; roundtrip.bump_radius = 0.28",
     "roundtrip.bump_r0 + 2.5 * roundtrip.bump_radius must exceed 1.2"),
    ("roundtrip", "roundtrip.bump_r0 = 0.4; roundtrip.bump_radius = 0.28; "
     "roundtrip.probe_layout = random",
     "roundtrip.bump_r0 + 2.5 * roundtrip.bump_radius must exceed 1.2"),
    ("feasibility", "feas.mu_sweep = 1,abc",
     "config key feas.mu_sweep: cannot parse 'abc' as float"),
], ids=["r_max-nan", "stability-nan", "slope_tolerance-nan", "threshold-nan",
        "threshold-zero", "threshold-negative", "mu-nan", "mu-negative",
        "mu_sweep-zero", "no-kinds", "no-alphas", "n_points-4",
        "roundtrip-kind-bogus", "envelope-bogus", "alphas-duplicate",
        "alphas-same-name", "kinds-duplicate", "kind-bogus-no-alphas",
        "kind-bogus", "r_max-below-r_min",
        "probe-window-grid", "probe-window-random", "mu_sweep-not-float"])
def test_invalid_config_value_exits_2_before_output(tmp_path, capsys, command,
                                                     text, message):
    # small grids, so a run that wrongly goes ahead still ends quickly; the
    # case's own lines come last and override them
    path = write_cfg(tmp_path, FAST_SCAN
                     + "decay.n_points = 5\nroundtrip.n_r = 1\n"
                     "roundtrip.n_z = 1\nfeas.n_delta = 20\nfeas.n_q = 20\n"
                     + text.replace("; ", "\n") + "\n")
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
