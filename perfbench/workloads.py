"""The benchmark workloads: inputs made from the seed, one pass of commands,
and checks of every report those commands write.

Every workload is closed-loop: one process runs one command at a time and
starts the next when the previous one has returned.  A check raises
`CheckError` when a report is missing, malformed or disagrees with itself
or with an independent recomputation; otherwise it returns the properties
the command asserts, as (name, held) pairs.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

from meridian import cli, envelopes, norms
from meridian.kernels import kernel_triple
from meridian.profiles import power_law_profile

REGIONS = ("inner_core", "inner_band", "left_band", "diagonal", "right_band",
           "far_tail")
REGIMES = {"low:K<=1", "low:K>1", "mid:K<=1", "mid:K>1", "high:K<=1",
           "high:K>1"}
SCAN_HEADER = ["r", "rho", "zeta", "K", "regime", "kernel", "envelope", "ratio"]
# kernel_batch agrees with the adaptive oracle to about 1e-7 relative at
# the worst scan points; a value off by more than this is wrong
KERNEL_REL_TOL = 1e-5
KERNEL_SAMPLE = 8       # oracle-checked rows per scan CSV


class CheckError(Exception):
    """A report is missing, malformed or inconsistent."""


class Command:
    """One closed-loop request: `run()` executes it, `check(result)` checks
    what it wrote and returns its properties (`n_props` of them); `work`
    counts the units of work it does."""

    def __init__(self, label, run, check, n_props, work, out_dir=None):
        self.label = label
        self.run = run
        self.check = check
        self.n_props = n_props
        self.work = work
        self.out_dir = out_dir


def sub_seed(*words):
    """A 32-bit seed derived from integers (the benchmark seed first)."""
    return int(np.random.SeedSequence(list(words)).generate_state(1)[0])


def _write_cfg(path, items):
    with open(path, "w") as fh:
        for key, value in items:
            fh.write("%s = %s\n" % (key, value))
    return path


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError("%s: %s" % (path, exc))


def _rows(path, header):
    """Yield the data rows of a CSV whose header must equal `header`."""
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise CheckError("%s: %s" % (path, exc))
    with fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise CheckError("%s: unexpected header" % path)
        for row in reader:
            if len(row) != len(header):
                raise CheckError("%s:%d: %d fields" % (path, reader.line_num,
                                                        len(row)))
            yield row


def _num(text, where):
    try:
        x = float(text)
    except (TypeError, ValueError):
        raise CheckError("%s: not a number: %r" % (where, text))
    if not math.isfinite(x):
        raise CheckError("%s: non-finite value %r" % (where, text))
    return x


def _close(a, b, rel, floor=0.0):
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _exit_matches(rc, passed, what):
    _require(rc == (0 if passed else 1),
             "%s: exit code %r but report says pass=%s" % (what, rc, passed))


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError as exc:
            raise CheckError("%s: %s" % (path, exc))
    return h.hexdigest()


class Workload:
    name = None
    work_unit = None
    cycle = 1               # command lists per pass

    def __init__(self, seed, out_root, workers):
        self.seed = seed
        self.workers = workers
        self.dir = os.path.join(out_root, self.name)
        os.makedirs(self.dir, exist_ok=True)
        self.rng = np.random.default_rng(sub_seed(seed, len(self.name)))
        self.truth = {}
        self.distinct = {}      # output key -> properties of that output

    def _cli(self, *argv):
        return cli.main([str(a) for a in argv])

    def _once(self, key, verify):
        """Verify each distinct output once.  Identical config and seed give
        byte-identical files, so a repeated output is checked by its digest
        and asserts nothing new: its properties count once."""
        if key not in self.distinct:
            self.distinct[key] = verify()
        return self.distinct[key]

    def _once_files(self, paths, verify):
        return self._once((paths[0], _digest(paths)), verify)


class Roundtrip(Workload):
    """`meridian roundtrip`, both kinds, random layouts of two probes.

    A pass is four commands with CLI seeds 0..3, eight probes in all.  The
    share of gates a run meets depends on where its few probes fall, and a
    probe's cost varies by about 30% with its place, so layouts drawn anew
    for each seed would spread both pass_share and the pass time across
    seeds by about 20%.  The layouts are therefore the same in every run,
    relative to the bump, and the benchmark seed moves the bump centre r0 in
    [3.2, 3.8] instead; the probe box [r0 - 2, r0 + 2.5] moves with it as
    long as r0 - 2 stays above the CLI's 1.2 floor."""
    name = "roundtrip"
    work_unit = "reconstructions"
    PROBES = 2
    LAYOUTS = 4
    cycle = LAYOUTS
    COMPONENTS = ("u_r", "u_z", "u_theta")

    def __init__(self, seed, out_root, workers):
        super().__init__(seed, out_root, workers)
        self.config = _write_cfg(os.path.join(self.dir, "roundtrip.cfg"), [
            ("roundtrip.bump_r0", repr(float(self.rng.uniform(3.2, 3.8)))),
            ("roundtrip.kind", "both"),
            ("roundtrip.probe_layout", "random"),
            ("roundtrip.n_r", self.PROBES),
            ("roundtrip.n_z", 1),
        ])
        self.threshold = cli.load_config(self.config)["roundtrip.threshold"]
        self.pool = {c: [0.0, 0.0] for c in self.COMPONENTS}

    def commands(self, index):
        layout = index % self.LAYOUTS
        out = os.path.join(self.dir, "out%d" % layout)
        return [Command(
            "roundtrip-s%d" % layout,
            lambda: self._cli("roundtrip", "--config", self.config, "--out",
                              out, "--workers", self.workers, "--seed", layout),
            lambda rc: self._check(rc, out), len(self.COMPONENTS),
            self.PROBES * len(self.COMPONENTS), out)]

    def _check(self, rc, out):
        paths = [os.path.join(out, "roundtrip_report.json"),
                 os.path.join(out, "roundtrip_probes.csv")]
        props = self._once_files(paths, lambda: self._verify(*paths))
        _exit_matches(rc, all(held for _, held in props), "roundtrip")
        return props

    def _verify(self, report_path, path):
        report = _load_json(report_path)
        _require(report.get("probes") == self.PROBES, "roundtrip: probe count")
        sums = {c: [0.0, 0.0] for c in self.COMPONENTS}
        kinds = {"u_r": "no_swirl", "u_z": "no_swirl", "u_theta": "pure_swirl"}
        n = 0
        for row in _rows(path, ["kind", "component", "r", "z",
                                "reconstructed", "exact"]):
            kind, comp = row[0], row[1]
            _require(kinds.get(comp) == kind, "%s: bad kind/component" % path)
            rec, exact = _num(row[4], path), _num(row[5], path)
            sums[comp][0] += (rec - exact) ** 2
            sums[comp][1] += exact ** 2
            self.truth[(comp, row[2], row[3])] = exact
            n += 1
        _require(n == self.PROBES * len(self.COMPONENTS), "%s: row count" % path)
        props = []
        for comp in self.COMPONENTS:
            err2, ref2 = sums[comp]
            rel = math.sqrt(err2 / ref2) if ref2 > 0 else math.sqrt(err2)
            section = report.get(kinds[comp], {})
            reported = section.get(comp)
            _require(isinstance(reported, (int, float))
                     and _close(rel, reported, 1e-6, 1e-15),
                     "roundtrip %s: reported %r, CSV gives %r" % (comp, reported, rel))
            _require(section.get(comp + "_normalization")
                     == ("relative" if ref2 > 0 else "absolute"),
                     "roundtrip %s: normalization" % comp)
            self.pool[comp][0] += err2
            self.pool[comp][1] += ref2
            props.append(("roundtrip:" + comp, rel < self.threshold))
        _require(report.get("pass") is all(held for _, held in props),
                 "roundtrip: pass flag")
        return props

    def figures(self):
        worst = 0.0
        for err2, ref2 in self.pool.values():
            worst = max(worst, math.sqrt(err2 / ref2) if ref2 > 0
                        else math.sqrt(err2))
        return {"roundtrip_rel_l2": (worst, "1")}


class Decay(Workload):
    """`meridian decay` for u_r with the z sweep, at beta = 3 and 1.5."""
    name = "decay"
    work_unit = "reconstructions"
    cycle = 2
    BETAS = (3.0, 1.5)

    def __init__(self, seed, out_root, workers):
        super().__init__(seed, out_root, workers)
        r_min = float(self.rng.uniform(8.0, 12.0))
        z = float(self.rng.uniform(0.75, 1.25))
        self.configs = {}
        for beta in self.BETAS:
            self.configs[beta] = _write_cfg(
                os.path.join(self.dir, "decay_b%g.cfg" % beta),
                [("decay.beta", beta), ("decay.component", "u_r"),
                 ("decay.r_min", repr(r_min)), ("decay.z", repr(z)),
                 ("decay.z_sweep", "true")])
        self.config = self.configs[self.BETAS[0]]
        cfg = cli.load_config(self.config)
        self.n_points = cfg["decay.n_points"]
        self.ladder = [r_min * 2.0 ** j for j in range(self.n_points)]
        self.tolerance = cfg["decay.slope_tolerance"]
        self.margin = math.inf

    def commands(self, index):
        # a pass is one command per beta, one command per index
        beta = self.BETAS[index % len(self.BETAS)]
        out = os.path.join(self.dir, "out_b%g" % beta)
        return [Command(
            "decay-b%g" % beta,
            lambda: self._cli("decay", "--config", self.configs[beta],
                              "--out", out, "--workers", self.workers),
            lambda rc: self._check(rc, beta, out),
            # one trace plus two z-sweep traces
            3, 3 * self.n_points, out)]

    def _check(self, rc, beta, out):
        fit_path = os.path.join(out, "decay_fit_beta%g.json" % beta)
        trace_path = os.path.join(out, "decay_trace_beta%g.csv" % beta)
        props = self._once_files([fit_path, trace_path],
                                 lambda: self._verify(beta, fit_path, trace_path))
        passed = all(held for _, held in props)
        _exit_matches(rc, passed, "decay beta=%g" % beta)
        return props

    def _verify(self, beta, fit_path, trace_path):
        rows = list(_rows(trace_path, ["r", "value", "quad_err", "tail_bound"]
                          + list(REGIONS)))
        _require(len(rows) == self.n_points, "%s: row count" % trace_path)
        for row, r in zip(rows, self.ladder):
            vals = [_num(x, trace_path) for x in row]
            _require(_close(vals[0], r, 1e-9), "%s: ladder radius" % trace_path)
            _require(vals[1] > 0 and vals[2] >= 0 and vals[3] >= 0,
                     "%s: sign of value or error" % trace_path)
            # the traced value is |sum of the region integrals|
            _require(_close(abs(sum(vals[4:])), vals[1], 1e-8, 1e-300),
                     "%s: regions do not sum to the value" % trace_path)
        fit = _load_json(fit_path)
        _require(fit.get("beta") == beta, "%s: beta" % fit_path)
        try:
            limit = fit["predicted_exponent"] + self.tolerance
            slopes = {"trace": fit["trace_fit"]["selected_slope"],
                      "half_r": fit["z_sweep_slopes"]["half_r"],
                      "full_r": fit["z_sweep_slopes"]["full_r"]}
            flagged = fit["flagged_samples"]
            within = fit["slope_within_tolerance"]
        except (KeyError, TypeError) as exc:
            raise CheckError("%s: missing %s" % (fit_path, exc))
        for value in list(slopes.values()) + [limit]:
            _require(isinstance(value, (int, float)) and math.isfinite(value),
                     "%s: slope not a finite number" % fit_path)
        _require(isinstance(flagged, int) and flagged >= 0,
                 "%s: flagged_samples" % fit_path)
        _require(within is all(s <= limit for s in slopes.values()),
                 "%s: slope_within_tolerance disagrees with the slopes" % fit_path)
        self.margin = min([self.margin] + [limit - s for s in slopes.values()])
        return [("decay-b%g:%s" % (beta, label),
                 slope <= limit and (label != "trace" or flagged == 0))
                for label, slope in slopes.items()]

    def figures(self):
        return {"decay_slope_margin": (self.margin, "1")}


class KernelScan(Workload):
    """`meridian kernel-scan` on the doubled grid with refinement."""
    name = "kernel-scan"
    work_unit = "scan points"

    def __init__(self, seed, out_root, workers):
        super().__init__(seed, out_root, workers)
        self.grid = {"scan.n_r": 16, "scan.n_ratio": 24, "scan.n_zeta": 16,
                     "scan.r_min": float(self.rng.uniform(1.05, 1.2)),
                     "scan.r_max": float(self.rng.uniform(700.0, 1400.0))}
        self.config = _write_cfg(
            os.path.join(self.dir, "scan.cfg"),
            [(k, repr(v)) for k, v in self.grid.items()]
            + [("scan.refine", "true")])
        self.cfg = cli.load_config(self.config)
        self.jobs = ([("gamma23", a) for a in self.cfg["scan.alphas23"]]
                     + [("gamma1", a) for a in self.cfg["scan.alphas1"]])
        self.sample_rng = np.random.default_rng(sub_seed(seed, 7))
        self.points = self._scan_points()
        self.drift_max = 0.0
        self.kernel_rel_err = 0.0

    def _scan_points(self):
        # the coarse and the refined grid are each evaluated once
        kw = dict(n_r=self.grid["scan.n_r"], n_ratio=self.grid["scan.n_ratio"],
                  n_zeta=self.grid["scan.n_zeta"],
                  r_range=(self.grid["scan.r_min"], self.grid["scan.r_max"]))
        coarse = evaluated_points(envelopes.scan_grid(**kw))
        for key in ("n_r", "n_ratio", "n_zeta"):
            kw[key] *= 2
        return coarse + evaluated_points(envelopes.scan_grid(**kw))

    def commands(self, index):
        out = os.path.join(self.dir, "out")
        return [Command(
            "kernel-scan",
            lambda: self._cli("kernel-scan", "--config", self.config, "--out",
                              out, "--workers", self.workers),
            lambda rc: self._check(rc, out), len(self.jobs), self.points, out)]

    def csv_path(self, out, kind, alpha):
        return os.path.join(out, "scan_%s_alpha%g.csv" % (kind, alpha))

    def _check(self, rc, out):
        summary = os.path.join(out, "kernel_scan_summary.json")
        paths = [summary] + [self.csv_path(out, k, a) for k, a in self.jobs]
        props = self._once_files(paths, lambda: self._verify(out))
        _exit_matches(rc, all(held for _, held in props), "kernel-scan")
        return props

    def _verify(self, out):
        reports = _load_json(os.path.join(out, "kernel_scan_summary.json"))
        _require(isinstance(reports, list) and len(reports) == len(self.jobs),
                 "kernel-scan summary: report count")
        props = []
        for rep, (kind, alpha) in zip(reports, self.jobs):
            try:
                _require(rep["kind"] == kind and rep["alpha"] == alpha,
                         "kernel-scan summary: job order")
                drift = rep["drift"]
                stable = rep["stable"]
                failures = rep["n_failures"]
                suprema = rep["suprema"]
            except (KeyError, TypeError) as exc:
                raise CheckError("kernel-scan summary: missing %s" % exc)
            _require(set(suprema) <= REGIMES and set(drift) == set(suprema),
                     "kernel-scan summary: regimes")
            for v in list(suprema.values()) + list(drift.values()):
                _require(isinstance(v, (int, float)) and v >= 0
                         and math.isfinite(v), "kernel-scan summary: value")
            _require(stable is (bool(drift) and all(
                v < self.cfg["scan.stability"] for v in drift.values())),
                "kernel-scan summary: stable flag disagrees with drift")
            self.drift_max = max([self.drift_max] + list(drift.values()))
            props.append(("scan:%s:%g" % (kind, alpha),
                          stable and failures == 0))
        counts = {}
        for kind, alpha in self.jobs:
            n, err = check_scan_csv(self.csv_path(out, kind, alpha), kind,
                                    alpha, self.sample_rng)
            counts[(kind, alpha)] = n
            self.kernel_rel_err = max(self.kernel_rel_err, err)
        # every gamma23 alpha and gamma1 with alpha <= 1 keep all points
        full = {n for (kind, alpha), n in counts.items()
                if kind == "gamma23" or alpha <= 1.0}
        _require(len(full) == 1, "kernel-scan: CSV row counts differ")
        return props

    def figures(self):
        return {"scan_drift_max": (self.drift_max, "1"),
                "kernel_rel_err": (self.kernel_rel_err, "1")}


def evaluated_points(grid):
    """Points of a scan grid that `evaluate_scan_grid` passes to the
    kernels: r > 1 and at least DIAGONAL_MARGIN * max(r, rho) from the
    diagonal."""
    r, rho, zeta = np.asarray(grid, dtype=float).T
    d = np.sqrt((r - rho) ** 2 + zeta ** 2)
    keep = (r > 1.0) & (d >= envelopes.DIAGONAL_MARGIN * np.maximum(r, rho))
    return int(keep.sum())


def _regimes(r, rho, K, rel=1e-8):
    """Regime labels consistent with (r, rho, K) as printed.  The grid
    samples the band edges rho = r/4, 4r and the K = 1 crossing exactly, so
    a point within rounding of an edge may carry either label."""
    def sides(x, edge):
        if abs(x - edge) <= rel * edge:
            return (True, False)
        return (x < edge,)
    bands = set()
    for low in sides(rho, r / 4.0):
        for high in sides(4.0 * r, rho):
            bands.add("low" if low else ("high" if high else "mid"))
    return {band + (":K<=1" if le else ":K>1")
            for band in bands for le in sides(K, 1.0)}


def oracle_kernel(kind, r, rho, zeta):
    """The scanned kernel magnitude from the adaptive `kernel_triple`."""
    kt = kernel_triple(r, rho, zeta)
    if kind == "gamma23":
        return max(abs(kt.gamma2), abs(kt.gamma3))
    return abs(kt.gamma1)


def check_scan_csv(path, kind, alpha, rng, n_sample=KERNEL_SAMPLE):
    """Check one scan CSV row by row; returns (rows, largest relative kernel
    error of a seeded row sample against the adaptive oracle).

    Every row must have a finite K equal to 4 r rho / d^2, the regime of
    its (r, rho, K), the envelope of its (r, rho, zeta), and a kernel equal
    to ratio * envelope.  The sample is drawn by reservoir sampling, so
    the file is streamed, not held in memory."""
    sample = []
    n = 0
    for row in _rows(path, SCAN_HEADER):
        r, rho, zeta, K = (_num(x, path) for x in row[:4])
        kernel, env, ratio = (_num(x, path) for x in row[5:])
        d2 = (r - rho) ** 2 + zeta ** 2
        m = max(r, rho)
        _require(r > 1.0 and d2 > 0, "%s: point of row %d" % (path, n + 1))
        # coordinates carry 10 digits; near the diagonal d^2 amplifies that
        # rounding by (r + rho + |zeta|) / d
        k_tol = 1e-9 + 1e-9 * (r + rho + abs(zeta)) / math.sqrt(d2)
        _require(_close(K, 4.0 * r * rho / d2, k_tol),
                 "%s: K of row %d" % (path, n + 1))
        _require(row[4] in _regimes(r, rho, K), "%s: regime of row %d" % (path, n + 1))
        if kind == "gamma23":
            expect = m ** -alpha * d2 ** (-(2.0 - alpha) / 2.0)
        else:
            expect = abs(zeta) * m ** -alpha * d2 ** (-(3.0 - alpha) / 2.0)
        _require(_close(env, expect, 1e-5, 1e-300),
                 "%s: envelope of row %d" % (path, n + 1))
        _require(kernel >= 0 and _close(kernel, ratio * env, 1e-8, 1e-300),
                 "%s: kernel != ratio * envelope in row %d" % (path, n + 1))
        n += 1
        if len(sample) < n_sample:
            sample.append((r, rho, zeta, kernel))
        else:
            j = int(rng.integers(n))
            if j < n_sample:
                sample[j] = (r, rho, zeta, kernel)
    _require(n > 0, "%s: no rows" % path)
    worst = 0.0
    for r, rho, zeta, kernel in sample:
        ref = oracle_kernel(kind, r, rho, zeta)
        err = abs(kernel - ref) / ref if ref != 0 else abs(kernel)
        _require(err <= KERNEL_REL_TOL,
                 "%s: kernel %.12g at (%g, %g, %g), oracle %.12g"
                 % (path, kernel, r, rho, zeta, ref))
        worst = max(worst, err)
    return n, worst


class Exponents(Workload):
    """`meridian feasibility` with a mu sweep, `meridian bmo`, and the
    L^q growth exponent and weak-Lorentz norm of a power-law profile."""
    name = "exponents"
    work_unit = "commands"
    SCALES = [2.0 ** j for j in range(4, 15)]
    EXPONENT_TOL = 0.02

    def __init__(self, seed, out_root, workers):
        super().__init__(seed, out_root, workers)
        rng = self.rng
        self.mu = float(rng.uniform(0.8, 3.0))
        sweep = sorted(float(x) for x in rng.uniform(0.5, 3.0, 5))
        self.config = _write_cfg(os.path.join(self.dir, "feas.cfg"), [
            ("feas.mu", repr(self.mu)),
            ("feas.mu_sweep", ",".join(repr(x) for x in sweep))])
        self.bmo_config = _write_cfg(os.path.join(self.dir, "bmo.cfg"), [])
        self.feas = cli.load_config(self.config)
        self.bmo = cli.load_config(self.bmo_config)
        # mu q > 2: the scaling law R^(1/q) applies
        self.lq_mu = float(rng.uniform(0.8, 2.0))
        self.lq_q = float(rng.uniform(2.4, 4.2)) / self.lq_mu
        self.wl_mu = float(rng.uniform(0.5, 3.0))
        self.wl_q = float(rng.uniform(1.5, 3.5))
        self.wl_R = float(rng.uniform(2.0, 20.0))
        self.exponent_err = 0.0

    def commands(self, index):
        feas_out = os.path.join(self.dir, "out_feas")
        bmo_out = os.path.join(self.dir, "out_bmo")
        return [
            Command("feasibility",
                    lambda: self._cli("feasibility", "--config", self.config,
                                      "--out", feas_out, "--workers",
                                      self.workers),
                    lambda rc: self._check_feasibility(rc, feas_out), 1, 1,
                    feas_out),
            Command("bmo",
                    lambda: self._cli("bmo", "--config", self.bmo_config,
                                      "--out", bmo_out, "--workers",
                                      self.workers),
                    lambda rc: self._check_bmo(rc, bmo_out), 1, 1, bmo_out),
            Command("lq_growth_exponent",
                    lambda: norms.lq_growth_exponent(
                        power_law_profile(self.lq_mu), self.lq_q, self.SCALES,
                        decay_mu=self.lq_mu),
                    self._check_lq, 1, 1),
            Command("weak_lorentz_norm",
                    lambda: norms.weak_lorentz_norm(
                        power_law_profile(self.wl_mu), self.wl_q,
                        norms.CylinderDomain(self.wl_R)),
                    self._check_weak, 1, 1),
        ]

    def _check_feasibility(self, rc, out):
        rep_path = os.path.join(out, "feasibility.json")
        region = os.path.join(out, "feasibility_region.csv")
        sweep = os.path.join(out, "feasibility_sweep.csv")
        props = self._once_files([rep_path, region, sweep],
                             lambda: self._verify_feasibility(rep_path, region, sweep))
        _exit_matches(rc, props[0][1], "feasibility")
        return props

    def _verify_feasibility(self, rep_path, region, sweep):
        rep = _load_json(rep_path)
        cells = 0
        n = 0
        for row in _rows(region, ["mu", "delta", "q", "lower_ok", "upper_ok",
                                  "negativity_ok", "feasible"]):
            _require(all(x in ("0", "1") for x in row[3:]),
                     "%s: flags must be 0/1" % region)
            flags = [x == "1" for x in row[3:]]
            _require(flags[3] == all(flags[:3]),
                     "%s: feasible != conjunction of predicates" % region)
            cells += flags[3]
            n += 1
        _require(n == self.feas["feas.n_delta"] * self.feas["feas.n_q"],
                 "%s: row count" % region)
        _require(rep.get("region_cells") == cells
                 and rep.get("region_nonempty") is (cells > 0),
                 "%s: region count disagrees with the CSV" % rep_path)
        verdict = "feasible" if self.mu > 2.0 / 3.0 else "infeasible"
        _require(rep.get("verdict") == verdict, "%s: verdict" % rep_path)
        sweep_rows = list(_rows(sweep, ["mu", "region_cells", "region_fraction"]))
        _require(len(sweep_rows) == len(self.feas["feas.mu_sweep"].split(",")),
                 "%s: row count" % sweep)
        for row in sweep_rows:
            _require(_close(_num(row[2], sweep), _num(row[1], sweep) / n, 1e-9),
                     "%s: fraction" % sweep)
        agree = rep.get("agreement")
        _require(isinstance(agree, bool), "%s: agreement" % rep_path)
        return [("feasibility:agreement", agree)]

    def _check_bmo(self, rc, out):
        summary = os.path.join(out, "bmo_summary.json")
        table = os.path.join(out, "bmo_table.csv")
        props = self._once_files([summary, table],
                             lambda: self._verify_bmo(summary, table))
        _exit_matches(rc, props[0][1], "bmo")
        return props

    def _verify_bmo(self, summary, table):
        rep = _load_json(summary)
        rows = [[_num(x, table) for x in row] for row in _rows(
            table, ["R", "mean_ln", "ln_R_minus_half", "osc_p3", "osc_p2_3",
                    "osc_p12"])]
        n = self.bmo["bmo.n_scales"]
        _require(len(rows) == n, "%s: row count" % table)
        mean_ok = True
        for j, row in enumerate(rows, 1):
            _require(row[0] == 2.0 ** j, "%s: scale ladder" % table)
            _require(_close(row[2], math.log(row[0]) - 0.5, 1e-11),
                     "%s: closed form ln R - 1/2" % table)
            mean_ok &= abs(row[1] - row[2]) <= self.bmo["bmo.mean_tolerance"]
        ratios = rep.get("max_min_ratios", {})
        for col, key in ((3, "3.0"), (4, str(2.0 / 3.0)), (5, "12.0")):
            vals = [row[col] for row in rows]
            _require(key in ratios and _close(ratios[key], max(vals) / min(vals), 1e-9),
                     "%s: ratio %s disagrees with the table" % (summary, key))
        passed = mean_ok and all(v < self.bmo["bmo.ratio_threshold"]
                                 for v in ratios.values())
        _require(rep.get("mean_matches_closed_form") is mean_ok
                 and rep.get("pass") is passed, "%s: pass flags" % summary)
        return [("bmo:pass", passed)]

    def _check_lq(self, result):
        try:
            slope, vals, regime = result
            vals = np.asarray(vals, dtype=float)
        except (TypeError, ValueError):
            raise CheckError("lq_growth_exponent: result shape")
        return self._once(("lq", repr(slope), vals.tobytes()),
                          lambda: self._verify_lq(slope, vals, regime))

    def _verify_lq(self, slope, vals, regime):
        _require(regime == "power", "lq_growth_exponent: regime %r" % regime)
        _require(vals.shape == (len(self.SCALES),) and np.all(np.isfinite(vals))
                 and np.all(np.diff(vals) > 0),
                 "lq_growth_exponent: norms must grow with the cylinder")
        err = abs(slope - 1.0 / self.lq_q)
        self.exponent_err = max(self.exponent_err, err)
        return [("lq:exponent", err < self.EXPONENT_TOL)]

    def _check_weak(self, est):
        return self._once(("weak", repr(est.value), repr(est.lq_same_grid)),
                          lambda: self._verify_weak(est))

    def _verify_weak(self, est):
        _require(math.isfinite(est.value) and est.value > 0,
                 "weak_lorentz_norm: value")
        # Chebyshev: the weak norm never exceeds the L^q norm in the same
        # discrete measure
        return [("weak_lorentz:chebyshev",
                 est.value <= est.lq_same_grid * (1.0 + 1e-12))]

    def figures(self):
        return {"lq_exponent_err": (self.exponent_err, "1")}


WORKLOADS = {cls.name: cls for cls in (Roundtrip, Decay, KernelScan, Exponents)}
