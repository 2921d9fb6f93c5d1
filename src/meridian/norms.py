"""Cylinder L^q norms, weak-Lorentz norms, mean oscillation of ln r, and
grid Dirichlet energy.

All 3-D integrals over axisymmetric integrands reduce to weighted 2-D
integrals with measure 2 pi r dr dz; nothing here ever samples in the
angle.  Domains are the solid cylinder C_R = {r <= R, |z| <= R}, the
dyadic shell C_R \\ C_{R/2}, and the ball B_R, nested as
B_R inside C_R inside B_{sqrt(2) R}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (gauss_legendre, geometric_mesh, graded_mesh,
                         panel_nodes)


LQ_TOL = 1e-8               # lq_norm_cylinder: absolute settling tolerance
WEAK_LEVELS = 200           # weak_lorentz_norm: geometric level grid size
LN_NODES = 14               # GL nodes per panel of the ln r integrals
ENERGY_NODES, ENERGY_R_PANELS, ENERGY_Z_PANELS = 10, 20, 14  # dirichlet_energy


class DivergentNormError(ArithmeticError):
    """The requested integral is non-finite or fails to settle under
    refinement (non-integrable integrand on the domain)."""


@dataclass(frozen=True)
class CylinderDomain:
    """Axisymmetric integration domain at scale R.

    shape: "cylinder" for C_R, "shell" for C_R \\ C_{R/2}, "ball" for B_R.
    """
    R: float
    shape: str = "cylinder"

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("domain scale must be positive")
        if self.shape not in ("cylinder", "shell", "ball"):
            raise ValueError("unknown domain shape %r" % (self.shape,))

    def volume(self):
        if self.shape == "cylinder":
            return 2.0 * math.pi * self.R ** 3
        if self.shape == "shell":
            return 2.0 * math.pi * self.R ** 3 * (1.0 - 0.125)
        return 4.0 * math.pi * self.R ** 3 / 3.0

    def contains(self, r, z):
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        in_cyl = (r <= self.R) & (np.abs(z) <= self.R)
        if self.shape == "cylinder":
            return in_cyl
        if self.shape == "shell":
            inner = (r <= self.R / 2) & (np.abs(z) <= self.R / 2)
            return in_cyl & ~inner
        return r ** 2 + z ** 2 <= self.R ** 2


def _r_mesh(R, n_coarse=24):
    """Radial panels on [0, R]: geometric refinement toward 0 (integrable
    endpoint behavior like r ln(r)^p) plus a uniform body."""
    fine = geometric_mesh(0.0, R, scale=R * 1e-24, grow=4.0)
    body = np.linspace(0.0, R, n_coarse + 1)
    return np.unique(np.concatenate([fine, body]))


def _cylinder_quad(f, R, n_nodes=12, n_r_coarse=24, n_z=16):
    """integral of f(r, z) * 2 pi r over C_R by tensor composite GL."""
    re = _r_mesh(R, n_r_coarse)
    ze = np.linspace(-R, R, n_z + 1)
    rn, rw = panel_nodes(re, n_nodes)
    zn, zw = panel_nodes(ze, n_nodes)
    RR, ZZ = np.meshgrid(rn, zn, indexing="ij")
    vals = f(RR, ZZ) * 2.0 * np.pi * RR
    return float(np.einsum("i,ij,j->", rw, vals, zw))


def _ball_quad(f, R, n_nodes=12, n_r_coarse=24):
    """integral of f(r,z) * 2 pi r over B_R; z-limits depend on r."""
    re = _r_mesh(R, n_r_coarse)
    rn, rw = panel_nodes(re, n_nodes)
    x, w = gauss_legendre(n_nodes)
    total = 0.0
    for r, wr in zip(rn, rw):
        zmax = math.sqrt(max(R ** 2 - r ** 2, 0.0))
        if zmax == 0.0:
            continue
        zn = zmax * x
        total += wr * zmax * float(np.dot(w, f(np.full_like(zn, r), zn))) * 2.0 * np.pi * r
    return total


def _domain_integral(f, dom, n_nodes=12, n_r_coarse=24, n_z=16):
    if dom.shape == "cylinder":
        return _cylinder_quad(f, dom.R, n_nodes, n_r_coarse, n_z)
    if dom.shape == "shell":
        outer = _cylinder_quad(f, dom.R, n_nodes, n_r_coarse, n_z)
        inner = _cylinder_quad(f, dom.R / 2, n_nodes, n_r_coarse, n_z)
        return outer - inner
    return _ball_quad(f, dom.R, n_nodes, n_r_coarse)


def lq_norm_cylinder(f, q, dom):
    """(integral_dom |f|^q 2 pi r dr dz)^(1/q) with a refinement check.

    The integral is evaluated at two resolutions; failure to settle within
    max(LQ_TOL, 1e-6 relative) or a non-finite value raises
    DivergentNormError.
    """
    if q < 1:
        raise ValueError("q must be >= 1")
    g = lambda r, z: np.abs(f(r, z)) ** q
    coarse = _domain_integral(g, dom, n_nodes=10, n_r_coarse=16, n_z=12)
    fine = _domain_integral(g, dom, n_nodes=14, n_r_coarse=32, n_z=20)
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
    lambda_grid: np.ndarray
    measures: np.ndarray
    lq_same_grid: float
    argmax_lambda: float


def weak_lorentz_norm(f, q, dom, n_cells=400):
    """Weak-L^q norm of f on dom via superlevel-set quadrature.

    Cells are midpoint samples of a (r, z) grid restricted to the domain,
    weighted by 2 pi r * cell area.  Raises DivergentNormError when the
    level range degenerates (|f| constant zero) and ValueError for an
    under-resolved level grid.
    """
    if q <= 0:
        raise ValueError("q must be positive")
    R = dom.R
    re = np.linspace(0.0, R, n_cells + 1)
    ze = np.linspace(-R, R, 2 * n_cells + 1)
    rc = 0.5 * (re[1:] + re[:-1])
    zc = 0.5 * (ze[1:] + ze[:-1])
    dr = re[1] - re[0]
    dz = ze[1] - ze[0]
    RR, ZZ = np.meshgrid(rc, zc, indexing="ij")
    mask = dom.contains(RR, ZZ)
    if not np.any(mask):
        raise ValueError("domain contains no cells at this resolution")
    vals = np.abs(f(RR[mask], ZZ[mask])).ravel()
    wgts = (2.0 * np.pi * RR[mask] * dr * dz).ravel()

    vmax = float(vals.max())
    if vmax <= 0.0:
        return WeakLorentzEstimate(q, 0.0, np.array([]), np.array([]), 0.0, 0.0)
    vmin_pos = float(vals[vals > 0].min()) if np.any(vals > 0) else vmax
    lo = max(vmin_pos, vmax * 1e-12)
    lambdas = np.geomspace(lo * 0.999, vmax * 0.999, WEAK_LEVELS)

    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    cum = np.cumsum(wgts[order])
    # measure(lambda) = total weight of cells with |f| > lambda
    idx = np.searchsorted(-sorted_vals, -lambdas, side="left")
    measures = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    if np.any(np.diff(measures) > 1e-12 * cum[-1]):
        raise ValueError("distribution function not monotone: level sets "
                         "under-resolved")
    ln = lambdas * measures ** (1.0 / q)
    k = int(np.argmax(ln))
    lq_grid = float(np.dot(wgts, vals ** q) ** (1.0 / q))
    return WeakLorentzEstimate(q, float(ln[k]), lambdas, measures, lq_grid,
                               float(lambdas[k]))


def disk_mean_ln(R):
    """Mean of ln r over the disk {|x'| <= R}: equals ln R - 1/2 exactly.

    Computed by quadrature (2/R^2) int_0^R rho ln rho d rho so the closed
    form is a falsifiable check, not an input.
    """
    edges = geometric_mesh(0.0, R, scale=R * 1e-24, grow=4.0)
    x, w = panel_nodes(edges, LN_NODES)
    return float(2.0 / R ** 2 * np.dot(w, x * np.log(x)))


# p -> (power of |g - gbar|, normalizing power of R, outer power)
_BMO_POWERS = {3.0: (3.0, 1.0, 1.0 / 3.0),
               2.0 / 3.0: (2.0 / 3.0, 2.0, 2.0 / 3.0),
               1.5: (2.0 / 3.0, 2.0, 2.0 / 3.0),
               12.0: (12.0, 3.0, 1.0)}


def bmo_oscillation_ln(R, p):
    """Normalized mean oscillation of g = ln r over the cylinder C_R.

    With gbar the disk mean of ln r, returns

        p = 3   :  R^-1 (int_{C_R} |g - gbar|^3 dx)^(1/3)
        p = 2/3 :  R^-2 (int_{C_R} |g - gbar|^(2/3) dx)^(2/3)
        p = 12  :  R^-3 (int_{C_R} |g - gbar|^12 dx)

    (p = 3/2 is accepted as an alias for the 2/3-power display).  All three
    quantities are exactly scale-invariant: substituting rho = R s shows
    the R-dependence cancels against the normalizing power.  The third
    display is normalized without the 1/12 root; the dimensional asymmetry
    between the displays is preserved verbatim rather than repaired.
    """
    key = float(p)
    if key not in _BMO_POWERS:
        raise ValueError("p must be one of 3, 2/3 (alias 3/2), or 12")
    power, norm_pow, outer_pow = _BMO_POWERS[key]

    gbar = disk_mean_ln(R)
    # |ln rho - gbar|^power has a kink where ln rho = gbar, i.e. rho =
    # R/sqrt(e); fractional powers make the derivative singular there, so
    # the mesh grades geometrically into the kink from both sides
    kink = R * math.exp(-0.5)
    edges = np.unique(np.concatenate([
        geometric_mesh(0.0, R, scale=R * 1e-24, grow=4.0),
        graded_mesh(0.0, R, [kink], scale=kink * 1e-13),
    ]))
    x, w = panel_nodes(edges, LN_NODES)
    radial = float(np.dot(w, x * np.abs(np.log(x) - gbar) ** power))
    integral = 2.0 * R * 2.0 * math.pi * radial   # z-extent x angular measure
    return R ** (-norm_pow) * integral ** outer_pow


def dirichlet_energy(field, dom, h=1e-4):
    """integral over dom of the axisymmetric gradient energy density

        |du_r|^2 + |du_theta|^2 + |du_z|^2 + u_r^2/r^2 + u_theta^2/r^2

    with |df|^2 = f_r^2 + f_z^2, measure 2 pi r dr dz.  Components without
    analytic derivatives are differenced with step h, which requires the
    domain quadrature nodes to keep r > h.
    """
    comps = [field.u_r, field.u_theta, field.u_z]

    def density(r, z):
        r = np.asarray(r, dtype=float)
        total = np.zeros(np.broadcast(r, z).shape)
        for prof in comps:
            if prof.has_derivatives:
                fr = prof.d_r(r, z)
                fz = prof.d_z(r, z)
            else:
                fr = (prof.fn(r + h, z) - prof.fn(r - h, z)) / (2 * h)
                fz = (prof.fn(r, z + h) - prof.fn(r, z - h)) / (2 * h)
            total = total + fr ** 2 + fz ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            swirl = np.where(r > 0, field.u_theta(r, z) ** 2 / np.where(r > 0, r, 1) ** 2, 0.0)
            radial = np.where(r > 0, field.u_r(r, z) ** 2 / np.where(r > 0, r, 1) ** 2, 0.0)
        return total + swirl + radial

    val = _domain_integral(density, dom, n_nodes=ENERGY_NODES,
                           n_r_coarse=ENERGY_R_PANELS, n_z=ENERGY_Z_PANELS)
    if not math.isfinite(val):
        raise DivergentNormError(
            "gradient energy non-finite on %s: axis terms at r < h need "
            "analytic derivatives" % (dom,))
    return val
