"""Cylinder L^q norms, weak-Lorentz norms and mean oscillation of ln r.

All 3-D integrals over axisymmetric integrands reduce to weighted 2-D
integrals with measure 2 pi r dr dz; nothing here ever samples in the
angle.  The domain is the solid cylinder C_R = {r <= R, |z| <= R}.  A
profile f(r, z) is called with a column of r and a row of z, and must
broadcast: a profile of r alone is then evaluated once per radial node.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import geometric_mesh, graded_mesh, panel_nodes


LQ_TOL = 1e-8               # lq_norm_cylinder: absolute settling tolerance
WEAK_LEVELS = 200           # weak_lorentz_norm: geometric level grid size
LN_NODES = 14               # GL nodes per panel of the ln r integrals


class DivergentNormError(ArithmeticError):
    """The requested integral is non-finite or fails to settle under
    refinement (non-integrable integrand on the domain)."""


@dataclass(frozen=True)
class CylinderDomain:
    """The solid cylinder C_R = {r <= R, |z| <= R}."""
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("domain scale must be positive")


def _axis_mesh(R):
    """Panels on [0, R] graded geometrically into 0 from width R * 1e-24."""
    return geometric_mesh(0.0, R, scale=R * 1e-24)


def _r_mesh(R, n_coarse=24):
    """Radial panels on [0, R]: geometric refinement toward 0 (integrable
    endpoint behavior like r ln(r)^p) plus a uniform body."""
    fine = _axis_mesh(R)
    body = np.linspace(0.0, R, n_coarse + 1)
    return np.unique(np.concatenate([fine, body]))


def _cylinder_quad(f, R, n_nodes=12, n_r_coarse=24, n_z=16):
    """integral of f(r, z) * 2 pi r over C_R by tensor composite GL."""
    re = _r_mesh(R, n_r_coarse)
    ze = np.linspace(-R, R, n_z + 1)
    rn, rw = panel_nodes(re, n_nodes)
    zn, zw = panel_nodes(ze, n_nodes)
    rc = rn[:, None]            # a column of r against a row of z
    vals = f(rc, zn[None, :]) * 2.0 * np.pi * rc
    vals = np.broadcast_to(vals, (rn.size, zn.size))
    return float(np.einsum("i,ij,j->", rw, vals, zw))


def lq_norm_cylinder(f, q, dom):
    """(integral_dom |f|^q 2 pi r dr dz)^(1/q) with a refinement check.

    The integral is evaluated at two resolutions; failure to settle within
    max(LQ_TOL, 1e-6 relative) or a non-finite value raises
    DivergentNormError.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    g = lambda r, z: np.abs(f(r, z)) ** q
    coarse = _cylinder_quad(g, dom.R, n_nodes=10, n_r_coarse=16, n_z=12)
    fine = _cylinder_quad(g, dom.R, n_nodes=14, n_r_coarse=32, n_z=20)
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise DivergentNormError("non-finite integral of |f|^%g on %s" % (q, dom))
    if abs(fine - coarse) > max(LQ_TOL, 1e-6 * abs(fine), 1e-300):
        raise DivergentNormError(
            "integral did not settle under refinement (%.6g vs %.6g): "
            "likely non-integrable on %s" % (coarse, fine, dom))
    return fine ** (1.0 / q)


def lq_growth_exponent(f, q, scales, decay_mu=None):
    """Fitted growth exponent of R -> ||f||_{L^q(C_R)} over dyadic scales.

    For profiles declaring decay (1+r)^(-mu) with mu q > 2 the exponent is
    1/q; mu q = 2 is the logarithmic boundary case and is flagged rather
    than fitted away; mu q < 2 grows like R^{(3 - mu q)/q} and the scaling
    law does not apply (flagged "divergent-scaling").
    """
    scales = np.asarray(scales, dtype=float)
    vals = np.array([lq_norm_cylinder(f, q, CylinderDomain(R)) for R in scales])
    # the scaling law is asymptotic: the early dyadic scales carry the
    # transient of the norm constant, so the slope is fitted on the tail
    # half of the ladder
    tail = slice(len(scales) // 2, None)
    slope = np.polyfit(np.log(scales[tail]), np.log(vals[tail]), 1)[0]
    regime = "power"
    if decay_mu is not None:
        if decay_mu * q == 2.0:
            regime = "log-boundary"
        elif decay_mu * q < 2.0:
            regime = "divergent-scaling"
    return float(slope), vals, regime


@dataclass
class WeakLorentzEstimate:
    """sup_lambda lambda |{|f| > lambda}|^{1/q} over a geometric level grid.

    The superlevel-set measure is a quadrature of the set indicator on a
    fixed cell grid, so the distribution function is non-increasing by
    construction and the Chebyshev comparison against `lq_same_grid` (the
    L^q norm in the same discrete measure) holds exactly.  A geometric grid
    of n levels under-estimates the true sup by at most ratio^(1/q).
    """
    q: float
    value: float
    measures: np.ndarray
    lq_same_grid: float


def weak_lorentz_norm(f, q, dom, n_cells=400):
    """Weak-L^q norm of f on dom via superlevel-set quadrature.

    Cells are midpoint samples of a (r, z) grid on the cylinder, weighted
    by 2 pi r * cell area.  A zero |f| gives a zero estimate with empty
    measures, and a non-finite sample raises DivergentNormError.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    R = dom.R
    re = np.linspace(0.0, R, n_cells + 1)
    ze = np.linspace(-R, R, 2 * n_cells + 1)
    rc = 0.5 * (re[1:] + re[:-1])[:, None]      # a column of r
    zc = 0.5 * (ze[1:] + ze[:-1])               # and a row of z
    dr = re[1] - re[0]
    dz = ze[1] - ze[0]
    shape = (rc.size, zc.size)      # vals and wgts: raveled alike, C order
    vals = np.broadcast_to(np.abs(f(rc, zc[None, :])), shape).ravel()
    wgts = np.broadcast_to(2.0 * np.pi * rc * dr * dz, shape).ravel()

    vmax = float(vals.max())        # nan if any sample is nan
    if not math.isfinite(vmax):
        k = int(np.argmin(np.isfinite(vals)))       # the first non-finite
        raise DivergentNormError(
            "non-finite |f| = %g at (r, z) = (%g, %g) on %s"
            % (vals[k], rc[k // zc.size, 0], zc[k % zc.size], dom))
    if vmax <= 0.0:
        return WeakLorentzEstimate(q, 0.0, np.array([]), 0.0)
    vmin_pos = float(vals[vals > 0].min())
    lo = max(vmin_pos, vmax * 1e-12)
    lambdas = np.geomspace(lo * 0.999, vmax * 0.999, WEAK_LEVELS)

    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    cum = np.cumsum(wgts[order])
    # measure(lambda) = total weight of cells with |f| > lambda
    idx = np.searchsorted(-sorted_vals, -lambdas, side="left")
    measures = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    ln = lambdas * measures ** (1.0 / q)
    lq_grid = float(np.dot(wgts, vals ** q) ** (1.0 / q))
    return WeakLorentzEstimate(q, float(ln.max()), measures, lq_grid)


def disk_mean_ln(R):
    """Mean of ln r over the disk {|x'| <= R}: equals ln R - 1/2 exactly.

    Computed by quadrature (2/R^2) int_0^R rho ln rho d rho so the closed
    form is a falsifiable check, not an input.
    """
    x, w = panel_nodes(_axis_mesh(R), LN_NODES)
    return float(2.0 / R ** 2 * np.dot(w, x * np.log(x)))


# p -> (power of |g - gbar|, normalizing power of R, outer power)
_BMO_POWERS = {3.0: (3.0, 1.0, 1.0 / 3.0),
               2.0 / 3.0: (2.0 / 3.0, 2.0, 2.0 / 3.0),
               12.0: (12.0, 3.0, 1.0)}


def bmo_oscillation_ln(R, p):
    """Normalized mean oscillation of g = ln r over the cylinder C_R.

    With gbar the disk mean of ln r, returns

        p = 3   :  R^-1 (int_{C_R} |g - gbar|^3 dx)^(1/3)
        p = 2/3 :  R^-2 (int_{C_R} |g - gbar|^(2/3) dx)^(2/3)
        p = 12  :  R^-3 (int_{C_R} |g - gbar|^12 dx)

    All three quantities are exactly scale-invariant: substituting rho = R s shows
    the R-dependence cancels against the normalizing power.  The third
    display is normalized without the 1/12 root; the dimensional asymmetry
    between the displays is preserved verbatim rather than repaired.
    """
    key = float(p)
    if key not in _BMO_POWERS:
        raise ValueError("p must be one of 3, 2/3 or 12")
    power, norm_pow, outer_pow = _BMO_POWERS[key]

    gbar = disk_mean_ln(R)
    # |ln rho - gbar|^power has a kink where ln rho = gbar, i.e. rho =
    # R/sqrt(e); fractional powers make the derivative singular there, so
    # the mesh grades geometrically into the kink from both sides
    kink = R * math.exp(-0.5)
    edges = np.unique(np.concatenate([
        _axis_mesh(R),
        graded_mesh(0.0, R, [kink], scale=kink * 1e-13),
    ]))
    x, w = panel_nodes(edges, LN_NODES)
    radial = float(np.dot(w, x * np.abs(np.log(x) - gbar) ** power))
    integral = 2.0 * R * 2.0 * math.pi * radial   # z-extent x angular measure
    return R ** (-norm_pow) * integral ** outer_pow
