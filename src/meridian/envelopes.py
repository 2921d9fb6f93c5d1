"""Decay envelopes for the meridian kernels and empirical certification scans.

The interpolated envelopes (constants normalized to 1) are

    env23(alpha) = 1 / ( max(rho, r)^alpha * d^(2 - alpha) )
    env1(alpha)  = |zeta| / ( max(rho, r)^alpha * d^(3 - alpha) )

with d^2 = (r - rho)^2 + zeta^2, valid for r > 1.  The admissible alpha
range is gated by regime: env23 takes 0 <= alpha <= 1 everywhere; env1
takes 0 <= alpha <= 1 on the near-diagonal band r/4 <= rho <= 4r and
0 <= alpha <= 3 outside it.  Scans report the supremum of
|kernel| / envelope per regime together with a refinement-stability flag:
the supremum is an empirical constant, and its stability under grid
densification is the falsifiable content.  Scans over several alpha values
share one kernel evaluation pass per field radius, and one stable sort per
scan groups its points by regime: a report reduces each admissible regime's
group to its supremum and first argmax, the alpha gate read from its band.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import List, Optional

import numpy as np

from .kernels import k_modulus, kernel_batch
from .reports import write_csv, write_json

DIAGONAL_MARGIN = 1e-3
RATIO_RANGE = (1e-2, 1e2)           # rho / r span of the scan grid
ZETA_SCALE_RANGE = (1e-3, 10.0)     # nonzero |zeta| / r span of the scan grid
# ScanData.regime indexes this: 2 * band + (K > 1), where band is 0 for
# rho < r/4, 1 on r/4 <= rho <= 4r and 2 for rho > 4r
REGIMES = ("low:K<=1", "low:K>1", "mid:K<=1", "mid:K>1", "high:K<=1",
           "high:K>1")


@dataclass(frozen=True)
class BoundEnvelope:
    """An interpolation exponent alpha for one kernel family."""
    kind: str          # "gamma23" | "gamma1"
    alpha: float

    def __post_init__(self):
        if self.kind not in ("gamma23", "gamma1"):
            raise ValueError("kind must be 'gamma23' or 'gamma1'")
        hi = 1.0 if self.kind == "gamma23" else 3.0
        if not (0.0 <= self.alpha <= hi):
            raise ValueError("alpha=%g outside [0, %g] for %s"
                             % (self.alpha, hi, self.kind))

    def admissible(self, r, rho):
        """alpha gate at a point: the near-diagonal band caps alpha at 1."""
        if self.kind == "gamma23":
            return np.broadcast_to(self.alpha <= 1.0, np.broadcast(r, rho).shape)
        near = (np.asarray(r) / 4.0 <= np.asarray(rho)) \
            & (np.asarray(rho) <= 4.0 * np.asarray(r))
        return np.where(near, self.alpha <= 1.0, self.alpha <= 3.0)


def envelope_value(env, r, rho, zeta):
    """C-free envelope magnitude at (r, rho, zeta); alpha must be admissible.

    Scalar or array arguments; raises when alpha falls outside the regime
    gate anywhere in the batch.
    """
    r_a = np.asarray(r, dtype=float)
    rho_a = np.asarray(rho, dtype=float)
    zeta_a = np.asarray(zeta, dtype=float)
    ok = env.admissible(r_a, rho_a)
    if not np.all(ok):
        raise ValueError(
            "alpha=%g not admissible for %s in the near-diagonal band "
            "r/4 <= rho <= 4r" % (env.alpha, env.kind))
    d2 = (r_a - rho_a) ** 2 + zeta_a ** 2
    m = np.maximum(r_a, rho_a)
    if env.kind == "gamma23":
        out = m ** (-env.alpha) * d2 ** (-(2.0 - env.alpha) / 2.0)
    else:
        out = np.abs(zeta_a) * m ** (-env.alpha) * d2 ** (-(3.0 - env.alpha) / 2.0)
    return out if out.shape else float(out)


def k_split_consistency(r, rho, zeta):
    """The exact inequality behind the K <= 1 regime: whenever
    4 r rho <= d^2, also d^2 >= max(r, rho)^2 / 2.  Returns a bool array
    that is vacuously True at K > 1 points."""
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    d2 = (r - rho) ** 2 + np.asarray(zeta, dtype=float) ** 2
    k_le_1 = 4.0 * r * rho <= d2
    holds = d2 >= 0.5 * np.maximum(r, rho) ** 2
    return ~k_le_1 | holds


@dataclass
class ScanData:
    """Kernel magnitudes over a scan grid, shared across alpha values.

    kernel1_over_zeta carries |G1 / zeta|, finite through zeta = 0, so the
    G1 envelope ratio (whose envelope also carries a |zeta| factor) is
    evaluated as its well-defined limit on the zeta = 0 line."""
    r: np.ndarray
    rho: np.ndarray
    zeta: np.ndarray
    K: np.ndarray
    kernel23: np.ndarray
    kernel1: np.ndarray
    kernel1_over_zeta: np.ndarray
    regime: np.ndarray               # index into REGIMES per point
    excluded: int
    failures: List[tuple]

    @cached_property
    def regime_groups(self):
        """Per REGIMES entry, its points' indices in scan order (one sort)."""
        order = np.argsort(self.regime, kind="stable")
        counts = np.bincount(self.regime, minlength=len(REGIMES))
        return np.split(order, np.cumsum(counts)[:-1])

    @cached_property
    def csv_lead(self):
        """Per point, the r,rho,zeta,K,regime CSV text every job shares."""
        return list(map("%.10g,%.10g,%.10g,%.10g,%s,".__mod__, zip(
            self.r.tolist(), self.rho.tolist(), self.zeta.tolist(),
            self.K.tolist(), [REGIMES[i] for i in self.regime.tolist()])))

    # per point, a kind's kernel CSV field: formatted on its first read,
    # shared by every alpha, and never formatted for a kind left unscanned
    csv_gamma23 = cached_property(
        lambda s: list(map("%.12g,".__mod__, s.kernel23.tolist())))
    csv_gamma1 = cached_property(
        lambda s: list(map("%.12g,".__mod__, s.kernel1.tolist())))


@dataclass
class ScanReport:
    """Per-regime suprema of |kernel| / envelope over a log-spaced grid."""
    kind: str
    alpha: float
    n_points: int
    suprema: dict                    # regime -> sup ratio
    argmax: dict                     # regime -> (r, rho, zeta)
    stable: Optional[bool] = None    # set when a refined scan is compared
    drift: Optional[dict] = None     # regime -> relative change
    excluded: int = 0
    failures: List[tuple] = field(default_factory=list)

    def to_json_dict(self):
        """Summary fields; the writer sorts keys, tuples become arrays."""
        return {"kind": self.kind, "alpha": self.alpha,
                "n_points": self.n_points, "suprema": self.suprema,
                "argmax": self.argmax, "stable": self.stable,
                "drift": self.drift, "excluded": self.excluded,
                "n_failures": len(self.failures)}


def scan_grid(n_r=10, n_ratio=16, n_zeta=12, r_range=(1.1, 1000.0)):
    """Log-spaced (r, rho, zeta) triples covering all kernel regimes.

    rho = q * r and zeta = +- s * r.  The normalized ratios
    |kernel| / envelope are exactly invariant under (r, rho, zeta) ->
    (lr, lrho, lzeta), so the suprema live on the (q, s) plane and the
    r ladder cross-checks that invariance.  The (q, s) grid is log-spaced
    with extra structure where per-regime suprema sit: a cluster of q
    toward the diagonal q = 1, the band edges q = 1/4 and 4, the windows
    (3 - 2 sqrt 2, 1/4) and (4, 3 + 2 sqrt 2) where the K > 1 regime meets
    the zeta = 0 line, the zeta = 0 line itself, and the K = 1 crossing
    scale s*(q) = sqrt(4q - (1-q)^2) for every q.  With those boundary
    structures sampled exactly, grid doubling only probes smooth interior
    maxima and the suprema converge fast.
    """
    # coinciding rungs (r_min = r_max) are one rung, scanned once
    rs = np.unique(np.geomspace(*r_range, n_r))
    base = np.geomspace(*RATIO_RANGE, n_ratio)
    near = np.geomspace(5e-3, 0.74, max(n_ratio // 2, 3))
    n4 = max(n_ratio // 4, 3)
    k_lo, k_hi = 3.0 - 2.0 * math.sqrt(2.0), 3.0 + 2.0 * math.sqrt(2.0)
    ratios = np.unique(np.concatenate([
        base, 1.0 - near, 1.0 + near,
        [0.25, 4.0, k_lo, k_hi],
        np.geomspace(k_lo, 0.25, n4),
        np.geomspace(4.0, k_hi, n4),
        0.25 * (1.0 + np.geomspace(1e-3, 0.2, n4)),
        0.25 * (1.0 - np.geomspace(1e-3, 0.2, n4)),
        4.0 * (1.0 - np.geomspace(1e-3, 0.2, n4)),
        4.0 * (1.0 + np.geomspace(1e-3, 0.2, n4)),
    ]))
    scales = np.concatenate([[0.0], np.geomspace(*ZETA_SCALE_RANGE,
                                                 max(n_zeta - 1, 2))])
    # the (1, q, +-s) pattern does not depend on r: each r's block is the
    # pattern scaled by r, which rounds exactly like (r, q r, +-s r)
    pattern = []
    for q in ratios:
        s_star2 = 4.0 * q - (1.0 - q) ** 2
        extra = ()
        if s_star2 > 0:
            s_star = math.sqrt(s_star2)
            extra = (s_star, s_star * (1.0 - 1e-3), s_star * (1.0 + 1e-3))
        for s in np.unique(np.concatenate([scales, extra])):
            for sign in ((1.0,) if s == 0.0 else (1.0, -1.0)):
                pattern.append((1.0, q, sign * s))
    pattern = np.array(pattern)
    return np.concatenate([pattern * r for r in rs])


def evaluate_scan_grid(grid):
    """One kernel pass over the grid; r <= 1 and near-diagonal points are
    excluded, failures (a non-finite kernel value) recorded, and each kept
    point's regime (an index into REGIMES) assigned."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim == 1:
        grid = grid[None, :]
    # sorted by r, stably: each field radius is one contiguous block, its
    # points in grid order
    grid = grid[np.argsort(grid[:, 0], kind="stable")]
    r, rho, zeta = grid.T
    d = np.sqrt((r - rho) ** 2 + zeta ** 2)
    grid = grid[(r > 1.0) & (d >= DIAGONAL_MARGIN * np.maximum(r, rho))]
    r, rho, zeta = grid.T
    # rows: max(|G2|, |G3|), |G1|, |G1 / zeta|
    kernels = np.empty((3, len(grid)))
    starts = np.flatnonzero(np.diff(r, prepend=0.0))   # rungs: r steps up
    for a, b in zip(starts, np.append(starts[1:], len(grid))):
        kb = kernel_batch(r[a], rho[a:b], zeta[a:b])
        kernels[:, a:b] = (np.maximum(np.abs(kb.g2), np.abs(kb.g3)),
                           np.abs(kb.g1), np.abs(kb.g1_over_zeta))
    good = np.isfinite(kernels).all(axis=0)
    r, rho, zeta = grid[good].T
    K = k_modulus(r, rho, zeta)
    # the K <= 1 regime rests on the exact inequality d^2 >= max(r, rho)^2/2;
    # it must hold at every scanned point or the regime split is wrong
    if not np.all(k_split_consistency(r, rho, zeta)):
        raise ArithmeticError("K <= 1 split arithmetic violated on the grid")
    band = np.where(rho < r / 4.0, 0, np.where(rho > 4.0 * r, 2, 1))
    k23, k1, k1z = kernels[:, good]
    return ScanData(r=r, rho=rho, zeta=zeta, K=K, kernel23=k23, kernel1=k1,
                    kernel1_over_zeta=k1z, regime=2 * band + (K > 1.0),
                    excluded=len(d) - len(grid),
                    failures=list(map(tuple, grid[~good].tolist())))


def _ratio(env, data, idx, envv=None):
    """|kernel| / envelope at the points `idx` of data, given the envelope
    `envv` there if it is already computed."""
    r, rho, zeta = data.r[idx], data.rho[idx], data.zeta[idx]
    if env.kind == "gamma23":
        return data.kernel23[idx] / (
            envelope_value(env, r, rho, zeta) if envv is None else envv)
    # |G1| / (|zeta| max^-a d^-(3-a)) written via G1/zeta so the zeta = 0
    # line contributes its finite limit
    d2 = (r - rho) ** 2 + zeta ** 2
    m = np.maximum(r, rho)
    return (data.kernel1_over_zeta[idx] * m ** env.alpha
            * d2 ** ((3.0 - env.alpha) / 2.0))


def report_from_data(kind, alpha, data):
    """Reduce shared scan data to a per-regime supremum report for one
    alpha; ties go to the point that comes first in scan order."""
    env = BoundEnvelope(kind=kind, alpha=alpha)
    sup, arg, n_points = {}, {}, 0
    for label, idx in zip(REGIMES, data.regime_groups):
        # the gate reads only the band: a regime's first point decides it
        if idx.size == 0 or not env.admissible(data.r[idx[0]],
                                               data.rho[idx[0]]):
            continue
        ratio = _ratio(env, data, idx)
        j = int(np.argmax(ratio))
        sup[label], k = float(ratio[j]), idx[j]
        arg[label] = tuple(float(x[k]) for x in (data.r, data.rho, data.zeta))
        n_points += idx.size
    return ScanReport(kind=kind, alpha=alpha, n_points=n_points,
                      suprema=sup, argmax=arg, excluded=data.excluded,
                      failures=data.failures)


def refine_and_compare(kind, alpha, coarse_data, fine_data,
                       stability_threshold=0.05):
    """Reports on a scan and on its refinement; flag stability.

    `coarse_data` and `fine_data` are ScanData of a grid and of a denser
    grid over the same ranges.  The fine report's `stable` flag is set when
    every regime's supremum moved less than `stability_threshold`
    relatively, and its `failures` list the coarse grid's failures followed
    by the fine grid's.
    """
    coarse = report_from_data(kind, alpha, coarse_data)
    fine = report_from_data(kind, alpha, fine_data)
    fine.failures = coarse.failures + fine.failures
    drift = {}
    for reg in fine.suprema:
        a = coarse.suprema.get(reg)
        b = fine.suprema[reg]
        drift[reg] = abs(b - a) / abs(b) if a is not None and b != 0 else math.inf
    fine.drift = drift
    fine.stable = bool(drift) and all(v < stability_threshold for v in drift.values())
    return coarse, fine


def write_scan_csv(path, kind, alpha, data):
    """Point-by-point rows: r, rho, zeta, K, regime, kernel, envelope, ratio;
    only envelope and ratio are formatted here, the rest is cached text."""
    env = BoundEnvelope(kind=kind, alpha=alpha)
    ok = np.asarray(env.admissible(data.r, data.rho), dtype=bool)
    envv = envelope_value(env, data.r[ok], data.rho[ok], data.zeta[ok])
    keep = ok.tolist()
    write_csv(path, ("r", "rho", "zeta", "K", "regime", "kernel", "envelope",
                     "ratio"), "%s%s%.12g,%.12g",
              zip(compress(data.csv_lead, keep),
                  compress(getattr(data, "csv_" + kind), keep), envv.tolist(),
                  _ratio(env, data, ok, envv).tolist()))


def write_summary_json(path, reports):
    write_json(path, [rep.to_json_dict() for rep in reports])
