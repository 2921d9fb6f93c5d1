"""Batch front-end: validated key-value configs, deterministic reports.

Subcommands
    kernel-scan   envelope-ratio scans with refinement stability
    decay         reconstruction decay trace + log-log fit
    feasibility   (delta, q) construction and brute-force region
    roundtrip     curl -> reconstruct identity on bump fields
    bmo           normalized mean oscillation of ln r across scales
    print-config  dump the default configuration with documentation

Configuration is a flat `key = value` file ('#' comments); every key has a
typed default and, optionally, a rule below.  Unknown keys and values that
break their key's rule are rejected at load, before any computation and
whichever command runs; `meridian print-config` prints each key's rule.
`meridian.reports` writes every report: CSV for grids and traces (floats
%.12g, the scan CSVs' r, rho, zeta and K %.10g, roundtrip's values %.17g),
JSON for summaries; no timestamps or machine-dependent content, so
identical config + seed gives byte-identical files.  Exit codes: 0 = all
asserted properties held, 1 = a property was violated, 2 = validation, I/O
or numerical failure.
"""

import argparse
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import envelopes
from .fields import AXIAL_KINDS, AxialEnvelope, MeridianPoint, \
    power_law_vorticity, swirling_bump_field
from .norms import bmo_oscillation_ln, disk_mean_ln
from .rates import (FIT_MIN_SAMPLES, bruteforce_feasible_set,
                    construct_feasible_pair, feasibility_predicates,
                    fit_decay, predicted_decay, InfeasibleExponentError)
from .reconstruct import COMPONENTS, REGION_NAMES, decay_trace, reconstruct
from .reports import write_csv, write_json

# scan.kinds entry -> the config key of its alpha values
SCAN_ALPHAS = {"gamma23": "scan.alphas23", "gamma1": "scan.alphas1"}
# roundtrip.kind -> the velocity components it checks: the stream bump's
# and the swirl bump's parts of one swirling bump
ROUNDTRIP_KINDS = {"no_swirl": ("u_r", "u_z"), "pure_swirl": ("u_theta",)}
# probes stay clear of the r <= 1 band that reconstruction rejects
PROBE_R_MIN = 1.2


# a rule is (text, test): the value, or each entry of a comma list, passes
def _above(lo):
    return "greater than %g" % lo, lambda v: v > lo


def _at_least(lo):
    return "at least %g" % lo, lambda v: v >= lo


def _within(lo, hi):
    return "in [%g, %g]" % (lo, hi), lambda v: lo <= v <= hi


def _one_of(names):
    return "one of " + ", ".join(names), lambda v: v in names


# key -> (default, type, doc[, rule]); types: int, float, str, bool and the
# comma lists "floats", read as a list of floats, and "float text" and
# "name text", kept as their text, which their readers split
DEFAULTS = {
    "scan.kinds": ("gamma23,gamma1", "name text", "kernel families to scan",
                   _one_of(envelopes.ALPHA_RANGES)),
    "scan.alphas23": ("0,0.5,1", "floats", "alpha values for the gamma23 envelope",
                      _within(*envelopes.ALPHA_RANGES["gamma23"])),
    "scan.alphas1": ("0,0.5,1,3", "floats", "alpha values for the gamma1 envelope",
                     _within(*envelopes.ALPHA_RANGES["gamma1"])),
    "scan.n_r": (8, int, "field radii, log-spaced over [r_min, r_max]; one if equal"),
    "scan.n_ratio": (12, int, "rho/r ratios in the grid"),
    "scan.n_zeta": (8, int, "zeta scales in the grid (each sign)"),
    "scan.r_min": (1.1, float, "smallest field radius", _above(1)),
    "scan.r_max": (1000.0, float, "largest field radius"),
    "scan.refine": (True, bool, "also run the doubled grid for stability"),
    "scan.stability": (0.05, float, "max relative supremum drift", _above(0)),
    "decay.beta": (3.0, float, "radial decay exponent of the vorticity", _above(1)),
    "decay.component": ("u_r", str, "component to trace", _one_of(COMPONENTS)),
    "decay.z": (1.0, float, "probe height (u_r vanishes at z=0 by parity "
                            "for the even axial envelope)"),
    "decay.r_min": (10.0, float, "first ladder radius", _above(1)),
    "decay.n_points": (8, int, "dyadic ladder length", _at_least(FIT_MIN_SAMPLES)),
    "decay.envelope": ("gauss", str, "axial envelope kind", _one_of(AXIAL_KINDS)),
    "decay.envelope_scale": (1.0, float, "Gaussian scale or compact half-width",
                             _above(0)),
    "decay.slope_tolerance": (0.1, float, "allowed excess over the predicted slope"),
    "decay.z_sweep": (False, bool, "also trace at z = r/2 and z = r as a "
                                   "uniformity spot-check"),
    "feas.mu": (1.0, float, "velocity decay exponent", _above(0)),
    "feas.n_delta": (200, int, "delta grid size"),
    "feas.n_q": (200, int, "q grid size"),
    "feas.mu_sweep": ("", "float text", "optional comma list of mu values for "
                                        "a boundary-curve CSV", _above(0)),
    "roundtrip.kind": ("both", str, "bump parts to check",
                       _one_of(("both",) + tuple(ROUNDTRIP_KINDS))),
    "roundtrip.threshold": (1e-3, float, "relative L2 error bound", _above(0)),
    "roundtrip.n_r": (5, int, "probe grid radii"),
    "roundtrip.n_z": (4, int, "probe grid heights"),
    "roundtrip.probe_layout": ("grid", str, "probe placement (random: seeded)",
                               _one_of(("grid", "random"))),
    "roundtrip.bump_r0": (3.0, float, "bump center radius"),
    "roundtrip.bump_radius": (1.0, float, "bump support radius", _above(0)),
    "bmo.n_scales": (20, int, "number of dyadic scales starting at 2"),
    "bmo.ratio_threshold": (1.01, float, "scale-invariance max/min bound", _above(1)),
    "bmo.mean_tolerance": (1e-8, float, "|mean - (ln R - 1/2)| bound", _at_least(0)),
}
# comma-list type -> its entry type
LIST_TYPES = {"floats": float, "float text": float, "name text": str}
_BOOLS = {**dict.fromkeys(("true", "1", "yes", "on"), True),
          **dict.fromkeys(("false", "0", "no", "off"), False)}


def _full_rule(typ, rule=None):
    """A key's own rule joined to the implicit ones; None if it has none."""
    entry = LIST_TYPES.get(typ, typ)
    # every int key is a count: sizes of grids, ladders and scale lists
    if entry is int:
        return rule or _at_least(1)
    # nan fails every comparison a gate makes; inf makes no gate meaningful
    if entry is float and rule:
        text, test = rule
        return "finite and " + text, lambda v: math.isfinite(v) and test(v)
    return ("finite", math.isfinite) if entry is float else rule


# key -> the rule every value of the key must pass, implicit ones included
RULES = {k: _full_rule(t, *r) for k, (_, t, _, *r) in DEFAULTS.items()}


class ConfigError(ValueError):
    pass


def _tokens(raw):
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _parse_value(key, raw):
    typ = DEFAULTS[key][1]
    raw = raw.strip()
    entry = LIST_TYPES.get(typ, typ)
    entries = []
    for tok in _tokens(raw) if typ in LIST_TYPES else [raw]:
        try:
            entries.append(_BOOLS[tok.lower()] if entry is bool else entry(tok))
        except (KeyError, ValueError):
            raise ConfigError("config key %s: cannot parse %r as %s"
                              % (key, tok, entry.__name__))
    if RULES[key] is not None:
        text, test = RULES[key]
        for value in entries:
            if not test(value):
                raise ConfigError("config key %s: must be %s, got %r"
                                  % (key, text, value))
    if typ == "floats":
        return entries
    return raw if typ in LIST_TYPES else entries[0]


def load_config(path=None):
    # every default round-trips through str, so one parser reads both
    cfg = {key: _parse_value(key, str(default))
           for key, (default, *_) in DEFAULTS.items()}
    if path is None:
        return cfg
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected 'key = value'" % (path, lineno))
            key, raw = (tok.strip() for tok in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError("%s:%d: unknown config key %r" % (path, lineno, key))
            cfg[key] = _parse_value(key, raw)
    return cfg


def print_config(out=None):
    out = out if out is not None else sys.stdout
    for key, (default, _, doc, *_) in sorted(DEFAULTS.items()):
        rule = "; must be " + RULES[key][0] if RULES[key] else ""
        out.write("# %s%s\n%s = %s\n" % (doc, rule, key, default))


def _out(out_dir, name):
    """Path out_dir/name; out_dir is made at the first write, after all
    validation, so a rejected run leaves no directory behind."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_kernel_scan(cfg, out_dir):
    """Envelope-ratio scans; exit 0 iff stable and no non-finite kernel values."""
    kinds = _tokens(cfg["scan.kinds"])
    grid_kwargs = dict(n_r=cfg["scan.n_r"], n_ratio=cfg["scan.n_ratio"],
                       n_zeta=cfg["scan.n_zeta"],
                       r_range=(cfg["scan.r_min"], cfg["scan.r_max"]))
    if cfg["scan.r_max"] < cfg["scan.r_min"]:
        raise ConfigError("scan.r_max must be at least scan.r_min, got %g < %g"
                          % (cfg["scan.r_max"], cfg["scan.r_min"]))
    jobs = {}                        # CSV name -> (kind, alpha)
    for kind in kinds:
        for alpha in cfg[SCAN_ALPHAS[kind]]:
            # %g names the file, so alphas that print alike would collide
            name = "scan_%s_alpha%g.csv" % (kind, alpha)
            if name in jobs:
                raise ConfigError(
                    "scan jobs (%s, alpha=%r) and (%s, alpha=%r) both write %s"
                    % (jobs[name] + (kind, alpha, name)))
            jobs[name] = (kind, alpha)
    if not jobs:
        raise ConfigError("scan.kinds: nothing to scan (no kind or no alpha)")

    # one kernel pass per grid, shared across every (kind, alpha) job; the
    # refined grid doubles every dimension over the same ranges
    coarse_data = envelopes.evaluate_scan_grid(envelopes.scan_grid(**grid_kwargs))
    fine_data = None
    if cfg["scan.refine"]:
        fine_data = envelopes.evaluate_scan_grid(envelopes.scan_grid(
            **dict(grid_kwargs, n_r=2 * cfg["scan.n_r"],
                   n_ratio=2 * cfg["scan.n_ratio"],
                   n_zeta=2 * cfg["scan.n_zeta"])))

    reports = []
    ok = True
    for kind, alpha in jobs.values():
        if fine_data is not None:
            _, rep = envelopes.refine_and_compare(
                kind, alpha, coarse_data, fine_data,
                stability_threshold=cfg["scan.stability"])
            ok = ok and rep.stable
        else:
            rep = envelopes.report_from_data(kind, alpha, coarse_data)
        ok = ok and not rep.failures
        reports.append(rep)
    # free the fine grid before the coarse grid's CSV text is built
    del fine_data
    for name, (kind, alpha) in jobs.items():
        envelopes.write_scan_csv(_out(out_dir, name), kind, alpha, coarse_data)
    envelopes.write_summary_json(_out(out_dir, "kernel_scan_summary.json"),
                                 reports)
    return 0 if ok else 1


def cmd_decay(cfg, out_dir):
    """Trace + fit; exit 0 iff slopes <= predicted + tolerance and no
    sample of any trace, the z sweep's included, is flagged."""
    beta = cfg["decay.beta"]
    component = cfg["decay.component"]
    env = AxialEnvelope(cfg["decay.envelope"], scale=cfg["decay.envelope_scale"])
    w = power_law_vorticity(beta, axial_envelope=env)
    ladder = [cfg["decay.r_min"] * 2.0 ** j for j in range(cfg["decay.n_points"])]
    heights = {"trace": cfg["decay.z"]}
    if cfg["decay.z_sweep"]:
        # the predicted envelopes are uniform in z: the bound must hold
        # with the probe riding at z = r/2 and z = r as well
        heights.update(half_r=[r / 2 for r in ladder], full_r=list(ladder))
    traces = {label: decay_trace(w, component, ladder, z=z)
              for label, z in heights.items()}
    samples = traces["trace"]

    header = ["r", "value", "quad_err", "tail_bound"] + list(REGION_NAMES)
    write_csv(_out(out_dir, "decay_trace_beta%g.csv" % beta), header,
              ",".join(["%.12g"] * len(header)),
              ((s.r, abs(s.value), s.quad_err, s.tail_bound)
               + tuple(s.per_region[n] for n in REGION_NAMES)
               for s in samples))

    fits = {label: fit_decay([(s.r, abs(s.value), s.total_error) for s in trace])
            for label, trace in traces.items()}
    fit = fits.pop("trace")
    pred = predicted_decay(beta)
    # the prediction is an upper envelope: measured decay may be faster,
    # never slower beyond tolerance.  The log-corrected detection is
    # verified against synthetic envelope samples (the reconstruction
    # itself generally decays strictly faster than the envelope).
    # the envelope is a power of (1 + r): fitting against 1 + r makes the
    # log-correction detection exact rather than polluted by the r vs 1+r
    # mismatch at the small end of the ladder
    env_fit = fit_decay([(1.0 + r, pred.envelope(r), 0.0) for r in ladder])
    slope = fit.selected_slope
    max_slope = pred.exponent + cfg["decay.slope_tolerance"]
    sweep_fits = {label: f.selected_slope for label, f in fits.items()}
    # a sample is flagged when its value is 0 or its certified error exceeds
    # a tenth of |value|
    flagged = {label: sum(s.value == 0 or s.total_error > 0.1 * abs(s.value)
                          for s in trace)
               for label, trace in traces.items()}
    n_flagged = flagged.pop("trace")
    passed = all(v <= max_slope for v in [slope, *sweep_fits.values()])
    payload = {
        "beta": beta,
        "component": component,
        "probe_z": cfg["decay.z"],
        "predicted_exponent": pred.exponent,
        "predicted_has_log": pred.has_log,
        "trace_fit": {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "residual": fit.residual,
            "log_model_selected": fit.log_corrected,
            "slope_log_model": fit.slope_log_model,
            "selected_slope": slope,
        },
        "envelope_fit": {
            "slope": env_fit.selected_slope,
            "log_model_selected": env_fit.log_corrected,
        },
        "flagged_samples": n_flagged,
        "slope_within_tolerance": bool(passed),
        "z_sweep_slopes": sweep_fits,
        "z_sweep_flagged": flagged,
    }
    write_json(_out(out_dir, "decay_fit_beta%g.json" % beta), payload)
    return 0 if passed and not any([n_flagged, *flagged.values()]) else 1


def cmd_feasibility(cfg, out_dir):
    """Brute-force region + construction; exit 0 iff they agree."""
    mu = cfg["feas.mu"]
    sweep = [float(tok) for tok in _tokens(cfg["feas.mu_sweep"])]
    n_d, n_q = cfg["feas.n_delta"], cfg["feas.n_q"]
    deltas = (np.arange(n_d) + 0.5) / n_d
    qs = 2.0 + (np.arange(n_q) + 0.5) / n_q
    mask = bruteforce_feasible_set(mu, deltas, qs)

    lower_ok, upper_ok, neg_ok = feasibility_predicates(deltas[:, None],
                                                        qs[None, :], mu)
    # a row is three texts, each formatted once: "mu,delta," per delta, "q,"
    # per q, and the 0/1 flags as one of 16, indexed by 8 lower + 4 upper +
    # 2 negativity + feasible; rows stream one delta at a time
    flags = [",".join(format(k, "04b")) for k in range(16)]
    code = 8 * lower_ok + 4 * upper_ok + 2 * neg_ok + mask
    q_texts = ["%.12g," % q for q in qs.tolist()]
    write_csv(_out(out_dir, "feasibility_region.csv"),
              ["mu", "delta", "q", "lower_ok", "upper_ok", "negativity_ok",
               "feasible"], "%s%s%s",
              itertools.chain.from_iterable(
                  zip(itertools.repeat("%.12g,%.12g," % (mu, d)), q_texts,
                      map(flags.__getitem__, row))
                  for d, row in zip(deltas.tolist(), code.tolist())))

    payload = {"mu": mu, "region_nonempty": bool(mask.any()),
               "region_cells": int(mask.sum())}
    agree = True
    try:
        pair = construct_feasible_pair(mu)
        payload["construction"] = {
            "delta": pair.delta, "q": pair.q,
            "lower_ok": pair.lower_ok, "upper_ok": pair.upper_ok,
            "negativity_ok": pair.negativity_ok, "feasible": pair.feasible,
        }
        # the construction must sit inside the brute-force region: nearest
        # grid cell feasible
        i = int(np.argmin(np.abs(deltas - pair.delta)))
        j = int(np.argmin(np.abs(qs - pair.q)))
        payload["construction_cell_feasible"] = bool(mask[i, j])
        agree = pair.feasible and bool(mask.any()) and bool(mask[i, j])
        payload["verdict"] = "feasible"
    except InfeasibleExponentError:
        payload["construction"] = None
        payload["verdict"] = "infeasible"
        agree = not mask.any()

    if sweep:
        cells = [int(bruteforce_feasible_set(m, deltas, qs).sum())
                 for m in sweep]
        write_csv(_out(out_dir, "feasibility_sweep.csv"),
                  ["mu", "region_cells", "region_fraction"], "%.12g,%d,%.12g",
                  ((m, c, c / mask.size) for m, c in zip(sweep, cells)))

    payload["agreement"] = bool(agree)
    write_json(_out(out_dir, "feasibility.json"), payload)
    return 0 if agree else 1


def cmd_roundtrip(cfg, out_dir, workers, seed):
    """curl -> reconstruct identity; exit 0 iff rel L2 below threshold and
    every reconstruction meets tol and holds its certificate,
    |reconstructed - exact| <= total_error."""
    kinds = (tuple(ROUNDTRIP_KINDS) if cfg["roundtrip.kind"] == "both"
             else (cfg["roundtrip.kind"],))
    r0 = cfg["roundtrip.bump_r0"]
    radius = cfg["roundtrip.bump_radius"]
    r_max = r0 + 2.5 * radius
    if not r_max > PROBE_R_MIN:
        raise ConfigError(
            "roundtrip.bump_r0 + 2.5 * roundtrip.bump_radius must exceed %g, "
            "the smallest probe radius, got %g" % (PROBE_R_MIN, r_max))
    if cfg["roundtrip.probe_layout"] == "random":
        rng = np.random.default_rng(seed)
        n = cfg["roundtrip.n_r"] * cfg["roundtrip.n_z"]
        rs = rng.uniform(max(PROBE_R_MIN, r0 - 2 * radius), r_max, n)
        zs = rng.uniform(-1.5 * radius, 1.5 * radius, n)
        probes = list(zip(rs.tolist(), zs.tolist()))
    else:
        rs = np.linspace(max(PROBE_R_MIN, r0 - 1.5 * radius), r_max,
                         cfg["roundtrip.n_r"])
        zs = np.linspace(-1.2 * radius, 1.2 * radius, cfg["roundtrip.n_z"])
        probes = [(float(r), float(z)) for r in rs for z in zs]

    payload = {"probes": len(probes), "threshold": cfg["roundtrip.threshold"]}
    # one bump carries both kinds: each probe reconstructs every requested
    # component in one call, on one node set per rule
    field, w = swirling_bump_field(r0, 0.0, radius)
    truth = {name: getattr(field, name)
             for kind in kinds for name in ROUNDTRIP_KINDS[kind]}

    def probe_one(probe):
        r, z = probe
        found = reconstruct(w, MeridianPoint(r, z), tuple(truth))
        return {name: (found[name].value,
                       float(u(np.asarray(r), np.asarray(z))),
                       found[name].total_error, found[name].tol_met)
                for name, u in truth.items()}

    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(probe_one, probes))

    rows = []
    ok = True
    for kind in kinds:
        for name in ROUNDTRIP_KINDS[kind]:
            err2 = sum((res[name][0] - res[name][1]) ** 2 for res in results)
            ref2 = sum(res[name][1] ** 2 for res in results)
            if ref2 > 0:
                rel = math.sqrt(err2 / ref2)
                norm_kind = "relative"
            else:
                # every probe fell outside the support: a relative error is
                # meaningless, so fall back to the absolute L2 error
                rel = math.sqrt(err2)
                norm_kind = "absolute"
            payload.setdefault(kind, {})[name] = rel
            payload[kind][name + "_normalization"] = norm_kind
            ok = ok and rel < cfg["roundtrip.threshold"]
        for (r, z), res in zip(probes, results):
            for name in ROUNDTRIP_KINDS[kind]:
                rows.append((kind, name, r, z) + res[name])

    write_csv(_out(out_dir, "roundtrip_probes.csv"),
              ["kind", "component", "r", "z", "reconstructed", "exact"],
              # 17 digits give the values back exactly, so the report's
              # norms can be recomputed from the file
              "%s,%s,%.12g,%.12g,%.17g,%.17g", (row[:6] for row in rows))
    # the certificate check: each result's error against the exact field
    violations, worst, missed = [], 0.0, 0
    for kind, name, r, z, rec, exact, bound, met in rows:
        err = abs(rec - exact)
        worst = max(worst, err / bound if bound > 0
                    else math.inf if err > 0 else 0.0)
        if err > bound:
            violations.append({"kind": kind, "component": name, "r": r,
                               "z": z, "error": err, "total_error": bound})
        missed += not met
    payload.update(cert_violations=violations, cert_worst_ratio=worst,
                   tol_met=len(rows) - missed, tol_missed=missed)
    payload["pass"] = bool(ok)
    write_json(_out(out_dir, "roundtrip_report.json"), payload)
    return 0 if ok and not violations and not missed else 1


def cmd_bmo(cfg, out_dir):
    """Scale-invariance table; exit 0 iff ratios and disk means hold."""
    n = cfg["bmo.n_scales"]
    scales = [2.0 ** j for j in range(1, n + 1)]
    rows = []
    cols = {3.0: [], 2.0 / 3.0: [], 12.0: []}
    mean_ok = True
    for R in scales:
        mean = disk_mean_ln(R)
        expected = math.log(R) - 0.5
        if abs(mean - expected) > cfg["bmo.mean_tolerance"]:
            mean_ok = False
        vals = {p: bmo_oscillation_ln(R, p) for p in cols}
        for p in cols:
            cols[p].append(vals[p])
        rows.append((R, mean, expected, vals[3.0], vals[2.0 / 3.0], vals[12.0]))

    write_csv(_out(out_dir, "bmo_table.csv"),
              ["R", "mean_ln", "ln_R_minus_half", "osc_p3", "osc_p2_3",
               "osc_p12"], ",".join(["%.12g"] * 6), rows)

    ratios = {str(p): max(vs) / min(vs) for p, vs in cols.items()}
    ok = mean_ok and all(v < cfg["bmo.ratio_threshold"] for v in ratios.values())
    write_json(_out(out_dir, "bmo_summary.json"),
                {"max_min_ratios": ratios, "mean_matches_closed_form": mean_ok,
                 "pass": bool(ok)})
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="meridian",
        description="Batch verification runs for the axisymmetric kernel "
                    "and decay toolkit")
    parser.add_argument("command",
                        choices=["kernel-scan", "decay", "feasibility",
                                 "roundtrip", "bmo", "print-config"])
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--workers", type=int, default=4,
                        help="roundtrip pool size; the pool runs over the "
                             "probes, each reconstructing every component")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized probe layouts")
    args = parser.parse_args(argv)

    if args.command == "print-config":
        print_config()
        return 0

    try:
        if args.workers < 1:
            raise ConfigError("--workers must be at least 1, got %d"
                              % args.workers)
        cfg = load_config(args.config)
        if args.command == "kernel-scan":
            return cmd_kernel_scan(cfg, args.out)
        if args.command == "decay":
            return cmd_decay(cfg, args.out)
        if args.command == "feasibility":
            return cmd_feasibility(cfg, args.out)
        if args.command == "roundtrip":
            return cmd_roundtrip(cfg, args.out, args.workers, args.seed)
        if args.command == "bmo":
            return cmd_bmo(cfg, args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
