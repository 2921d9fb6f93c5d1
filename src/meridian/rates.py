"""Exponent arithmetic: feasibility of (delta, q) pairs, predicted decay
rates of reconstructed velocities, region-term bookkeeping and empirical
decay fitting.

The feasibility question: given a velocity decay exponent mu > 2/3, find
delta in (0, 1) and q with

    max{ 6(3 - delta)/(6 - delta), 2/mu } < q < 3,
    2 - delta/2 - (6 - 2 delta)/q < 0.

Both conditions force the two growth exponents of the exterior energy
estimate negative, so the gradient energy vanishes as the cylinder scale
grows.  The deterministic construction picks delta as the midpoint of its
admissible interval (0, min{1, (6 mu - 4)/(2 mu - 1)}) and

    q = ( max{6(3-d)/(6-d), 2/mu} + 4(3-d)/(4-d) ) / 2,

which satisfies all three predicates whenever mu > 2/3.
"""

import math
from dataclasses import dataclass

import numpy as np


class InfeasibleExponentError(ValueError):
    """mu <= 2/3 forces 2/mu >= 3, conflicting with q < 3."""


@dataclass(frozen=True)
class FeasibleExponents:
    """A (delta, q) pair with the three feasibility predicates evaluated."""
    delta: float
    q: float
    lower_ok: bool
    upper_ok: bool
    negativity_ok: bool

    @property
    def feasible(self):
        return self.lower_ok and self.upper_ok and self.negativity_ok


def _lower_bound(delta, mu):
    return np.maximum(6.0 * (3.0 - delta) / (6.0 - delta), 2.0 / mu)


def feasibility_predicates(delta, q, mu):
    """The three feasibility predicates (lower, upper, negativity) at
    (delta, q) for decay mu, broadcast against each other."""
    return np.broadcast_arrays(
        q > _lower_bound(delta, mu),
        q < 3.0,
        2.0 - delta / 2.0 - (6.0 - 2.0 * delta) / q < 0.0)


def evaluate_pair(delta, q, mu):
    """Evaluate the three feasibility predicates at (delta, q) for decay mu."""
    lower_ok, upper_ok, negativity_ok = feasibility_predicates(delta, q, mu)
    return FeasibleExponents(delta=delta, q=q, lower_ok=bool(lower_ok),
                             upper_ok=bool(upper_ok),
                             negativity_ok=bool(negativity_ok))


def construct_feasible_pair(mu):
    """Deterministic feasible (delta, q) for a velocity decay exponent mu.

    delta is the midpoint of (0, min{1, (6 mu - 4)/(2 mu - 1)}), the interval
    on which 2/mu < 4(3 - delta)/(4 - delta); q is the average of the lower
    feasibility bound and 4(3 - delta)/(4 - delta) < 3.  Raises
    InfeasibleExponentError for mu <= 2/3.
    """
    if not mu > 2.0 / 3.0:
        raise InfeasibleExponentError(
            "mu = %g infeasible: 2/mu >= 3 conflicts with q < 3" % mu)
    delta_cap = min(1.0, (6.0 * mu - 4.0) / (2.0 * mu - 1.0))
    delta = 0.5 * delta_cap
    anchor = 4.0 * (3.0 - delta) / (4.0 - delta)
    q = 0.5 * (float(_lower_bound(delta, mu)) + anchor)
    return evaluate_pair(delta, q, mu)


def bruteforce_feasible_set(mu, delta_grid, q_grid):
    """Exhaustive predicate evaluation on a (delta, q) product grid.

    Grids must lie inside (0, 1) x (2, 3).  Returns a boolean mask of shape
    (len(delta_grid), len(q_grid)); nonempty iff mu > 2/3 up to grid
    resolution near the boundary.
    """
    delta_grid = np.asarray(delta_grid, dtype=float)
    q_grid = np.asarray(q_grid, dtype=float)
    if np.any(delta_grid <= 0) or np.any(delta_grid >= 1):
        raise ValueError("delta grid must lie inside (0, 1)")
    if np.any(q_grid <= 2) or np.any(q_grid >= 3):
        raise ValueError("q grid must lie inside (2, 3)")
    lower_ok, upper_ok, negativity_ok = feasibility_predicates(
        delta_grid[:, None], q_grid[None, :], mu)
    return lower_ok & upper_ok & negativity_ok


@dataclass(frozen=True)
class DecayPrediction:
    """Predicted power of (1 + r) for reconstructed velocity components."""
    exponent: float
    has_log: bool

    def envelope(self, r):
        """(1 + r)^exponent, times log(1 + r) in the log case."""
        v = (1.0 + r) ** self.exponent
        return v * math.log(1.0 + r) if self.has_log else v


def predicted_decay(beta):
    """Decay prediction for vorticity bounded by (1 + rho)^(-beta), beta > 1.

    exponent = -3/2 + 1/(2(beta - 1)) for beta > 2, 1 - beta for beta < 2,
    and -1 with a logarithmic correction at beta = 2.  The two branches meet
    continuously at beta = 2.
    """
    if not beta > 1.0:
        raise ValueError("decay prediction requires beta > 1, got %g" % beta)
    if beta > 2.0:
        return DecayPrediction(-1.5 + 0.5 / (beta - 1.0), False)
    if beta < 2.0:
        return DecayPrediction(1.0 - beta, False)
    return DecayPrediction(-1.0, True)


def region_term_exponents(beta, alpha, gamma, delta):
    """Growth exponents of the six radial-region contributions.

    Region boundaries (powers of the evaluation radius r):
      inner core (0, r^gamma/8)          -> -3/2 + gamma
      inner band (r^gamma/8, r/4)        -> -1 + gamma(2 - beta)   [beta > 2]
                                            1 - beta               [beta < 2]
                                            -1, log                [beta = 2]
      left band  (r/4, r - r^delta/2)    -> 2 - beta - alpha - delta
                                            + delta*alpha  (log at beta = 2)
      diagonal   (r +- r^delta/2)        -> 1 - beta - alpha + delta*alpha
      right band (r + r^delta/2, 4r)     -> same as left band
      far tail   (4r, infinity)          -> 1 - beta

    Returns (exponents, log_flags, worst) where worst is the max exponent
    with its log flag.
    """
    if not (0.0 <= alpha < 1.0):
        raise ValueError("alpha must lie in [0, 1)")
    if not (0.0 <= gamma <= 1.0 and 0.0 <= delta <= 1.0):
        raise ValueError("gamma, delta must lie in [0, 1]")
    if not beta > 1.0:
        raise ValueError("beta must exceed 1")

    e1 = -1.5 + gamma
    if beta > 2.0:
        e2, log2f = -1.0 + gamma * (2.0 - beta), False
    elif beta < 2.0:
        e2, log2f = 1.0 - beta, False
    else:
        e2, log2f = -1.0, True
    e3 = 2.0 - beta - alpha - delta + delta * alpha
    log3f = beta == 2.0
    e4 = 1.0 - beta - alpha + delta * alpha
    e5, log5f = e3, log3f
    e6 = 1.0 - beta

    exps = (e1, e2, e3, e4, e5, e6)
    logs = (False, log2f, log3f, False, log5f, False)
    # a log factor at equal exponents is the slower decay
    worst_i = max(range(6), key=lambda i: (exps[i], logs[i]))
    return exps, logs, (exps[worst_i], logs[worst_i])


@dataclass(frozen=True)
class SplitOptimum:
    gamma: float
    exponent: float
    has_log: bool


SPLIT_EPS = 1e-3


def optimize_split(beta):
    """The split that minimizes the worst region exponent, in closed form.

    The bands' exponent falls and the diagonal's rises with delta, and at
    delta = 1 both equal the far tail's 1 - beta, so delta = 1 and only
    gamma is returned.  alpha approaches 1 in the analysis but alpha = 1 is
    outside the admissible range, so it is pinned at 1 - SPLIT_EPS.  For
    beta > 2, gamma = 1/(2(beta - 1)) balances the inner core's -3/2 +
    gamma against the inner band's -1 + gamma(2 - beta); for beta <= 2 no
    gamma lowers the worst exponent, and gamma = 0.  The exponent and its
    log flag are `region_term_exponents`' at that split.
    """
    gamma = 0.5 / (beta - 1.0) if beta > 2.0 else 0.0
    _, _, (worst, has_log) = region_term_exponents(beta, 1.0 - SPLIT_EPS,
                                                   gamma, 1.0)
    return SplitOptimum(gamma, worst, has_log)


@dataclass
class FitResult:
    """Log-log decay fit with an optional log-correction regressor.

    Plain model:  log|v| = intercept + slope * log r
    Log model:    log|v| = intercept + slope * log r + log_coeff * log log r

    `log_corrected` reports which model the selection rule picked; residuals
    are weighted RMS in log space.
    """
    slope: float
    intercept: float
    residual: float
    log_corrected: bool
    slope_log_model: float
    log_coeff: float
    n_used: int
    dropped: int = 0

    @property
    def selected_slope(self):
        return self.slope_log_model if self.log_corrected else self.slope


# the log model must earn its extra parameter: selected only when it cuts
# the weighted residual at least in half and the plain fit is not already
# at numerical noise level
LOG_MODEL_GAIN = 0.5
PLAIN_NOISE_FLOOR = 1e-9
FIT_MIN_SAMPLES = 5         # fit_decay: fewest positive samples it fits


def fit_decay(samples):
    """Weighted least-squares decay fit of {(r, value, error)} triples.

    Requires >= FIT_MIN_SAMPLES positive samples at strictly increasing
    r > 1; samples with nonpositive value are dropped (with a count in the
    result).  Weights are 1/sigma^2 with sigma the relative error
    |error/value|, floored against infinite weight on error-free data.
    """
    pts = [(float(r), float(v), float(e)) for (r, v, e) in samples]
    if any(p[0] <= 1.0 for p in pts):
        raise ValueError("fit requires radii > 1")
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        raise ValueError("fit requires strictly increasing radii")
    used = [(r, v, e) for (r, v, e) in pts if v > 0.0]
    dropped = len(pts) - len(used)
    if len(used) < FIT_MIN_SAMPLES:
        raise ValueError("fewer than %d positive samples remain (%d dropped)"
                         % (FIT_MIN_SAMPLES, dropped))

    r = np.array([p[0] for p in used])
    v = np.array([p[1] for p in used])
    err = np.array([p[2] for p in used])
    x = np.log(r)
    y = np.log(v)
    sigma = np.maximum(np.abs(err) / v, 1e-12)
    wgt = 1.0 / sigma ** 2

    def wls(cols):
        A = np.column_stack(cols)
        W = np.sqrt(wgt)
        coef, *_ = np.linalg.lstsq(A * W[:, None], y * W, rcond=None)
        res = y - A @ coef
        rms = float(np.sqrt(np.sum(wgt * res ** 2) / np.sum(wgt)))
        return coef, rms

    ones = np.ones_like(x)
    (b0, m), res_plain = wls([ones, x])
    (b0l, ml, cl), res_log = wls([ones, x, np.log(x)])

    pick_log = (res_plain > PLAIN_NOISE_FLOOR
                and res_log < LOG_MODEL_GAIN * res_plain)
    return FitResult(
        slope=float(m), intercept=float(b0), residual=res_plain,
        log_corrected=bool(pick_log), slope_log_model=float(ml),
        log_coeff=float(cl),
        n_used=len(used), dropped=dropped,
    )
