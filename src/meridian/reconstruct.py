"""Velocity reconstruction from vorticity by singular half-plane quadrature.

The meridian components are recovered from the swirl vorticity,

    u_r(r, z) =  iint G1(r, rho, z - k) w_theta(rho, k) rho drho dk
    u_z(r, z) = -iint G2(r, rho, z - k) w_theta(rho, k) rho drho dk

and the swirl component from the meridian vorticity pair,

    u_theta  =  iint M w_z rho drho dk - iint G1 w_r rho drho dk,

with M(r, rho, zeta) = (1/4pi) int (r - rho cos p)/D^{3/2} dp =
-G2(rho, r, zeta).  (The direct cross-product expansion of the Biot-Savart
integrand produces M for the axial-vorticity factor; the round-trip
identity on compactly supported swirl fields confirms it numerically.)

The radial axis is split at

    rho in { r^gamma/8, r/4, r - r^delta/2, r + r^delta/2, 4r }

into six regions (inner core, inner band, left band, diagonal band, right
band, far tail).  The diagonal band is further split into a polar core --
a square of half-width s0 around (r, z), integrated in polar coordinates
with geometrically graded radii so the integrable kernel singularity
cancels in the angle -- and four rectangular remainders.  All rectangles
use tensor Gauss-Legendre rules on feature-graded meshes; truncation
beyond (rho_max, z_max) is certified by crude-bound tail majorants, never
by extrapolation.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .fields import MeridianPoint, VorticityField
from .kernels import kernel_batch
from .quadrature import fixed_integrate, geometric_mesh, graded_mesh, panel_nodes
from .rates import optimize_split, predicted_decay

REGION_NAMES = ("inner_core", "inner_band", "left_band", "diagonal",
                "right_band", "far_tail")


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the reconstruction quadrature.

    gamma, delta are the radial splitting exponents (region boundaries
    r^gamma/8 and r +- r^delta/2).  rho_max / z_max default to 8*max(1, r)
    at evaluation time and may only be enlarged.  tol is the target
    absolute error per component; when the estimated error exceeds it the
    meshes are refined up to `max_refinements` times and the result is
    flagged if the target is still unmet.
    """
    gamma: float = 0.0
    delta: float = 1.0
    rho_max: Optional[float] = None
    z_max: Optional[float] = None
    tol: float = 1e-6
    near_diag_refinement: int = 22
    core_radius: float = 0.5
    n_nodes: int = 6
    n_err: int = 4
    n_theta: int = 32
    n_s_nodes: int = 6
    max_refinements: int = 2

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0 and 0.0 <= self.delta <= 1.0):
            raise ValueError("splitting exponents must lie in [0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.near_diag_refinement < 4:
            raise ValueError("near-diagonal refinement depth too small")

    def resolved(self, r):
        """Concrete truncation radii for a probe at radius r."""
        floor = 8.0 * max(1.0, r)
        rho_max = self.rho_max if self.rho_max is not None else floor
        z_max = self.z_max if self.z_max is not None else floor
        if rho_max < floor or z_max < floor:
            raise ValueError("truncation radii must be >= 8*max(1, r) "
                             "(need %g, got rho_max=%g z_max=%g)"
                             % (floor, rho_max, z_max))
        return rho_max, z_max


@dataclass
class ReconstructionResult:
    """One reconstructed velocity component with certified error parts."""
    value: float
    per_region: dict
    tail_bound: float
    quad_err: float
    tol_met: bool
    component: str
    r: float
    z: float
    term_values: Optional[dict] = None

    @property
    def total_error(self):
        return self.tail_bound + self.quad_err


def _region_edges(r, gamma, delta):
    w = 0.5 * r ** delta
    return (r ** gamma / 8.0, r / 4.0, r - w, r + w, 4.0 * r), w


def _clip(lo, hi, box_lo, box_hi):
    return max(lo, box_lo), min(hi, box_hi)


def _resolution_edges(a, b, step, cap=512):
    """Uniform edges at `step` across [a, b], empty if that would exceed cap."""
    if step is None or step <= 0:
        return None
    n = int(np.ceil((b - a) / step))
    if n < 2 or n > cap:
        return None
    return np.linspace(a, b, n + 1)


def _integrate_rect(kernel_sel, weight, r, z, rect, spec, k_scale, deepen=0,
                    resolution=None):
    """Tensor GL integral of kernel * weight * rho over one rectangle.

    Meshes are graded toward rho = r (radial) and toward k = z and k = 0
    (axial) with feature scale `k_scale`; profiles with a short intrinsic
    `resolution` additionally force uniform panels at that scale.  `deepen`
    halves the scales and bumps node counts for refinement passes.
    """
    (ra, rb), (ka, kb) = rect
    if rb <= ra or kb <= ka:
        return 0.0, 0.0
    scale = max(k_scale * 0.5 ** deepen, 1e-12)
    n_hi = spec.n_nodes + 2 * deepen
    n_lo = spec.n_err + deepen
    r_edges = graded_mesh(ra, rb, [r, 0.0], scale)
    k_edges = graded_mesh(ka, kb, [z, 0.0], scale)
    if resolution is not None:
        res = resolution * 0.5 ** deepen
        extra_r = _resolution_edges(ra, rb, res)
        extra_k = _resolution_edges(ka, kb, res)
        if extra_r is not None:
            r_edges = np.unique(np.concatenate([r_edges, extra_r]))
        if extra_k is not None:
            k_edges = np.unique(np.concatenate([k_edges, extra_k]))

    def tensor(n):
        rn, rw = panel_nodes(r_edges, n)
        kn, kw = panel_nodes(k_edges, n)
        RR = np.repeat(rn, kn.size)
        KK = np.tile(kn, rn.size)
        kb_vals = kernel_batch(r, RR, z - KK)
        ker = kernel_sel(kb_vals)
        wv = weight(RR, KK)
        contrib = ker * wv * RR
        return float(np.einsum("i,i->", contrib,
                               np.repeat(rw, kn.size) * np.tile(kw, rn.size)))

    hi = tensor(n_hi)
    lo = tensor(n_lo)
    return hi, abs(hi - lo)


def _integrate_polar_core(kernel_sel, weight, r, z, s0, spec, deepen=0,
                          resolution=None):
    """Polar integral over the square |rho - r| <= s0, |k - z| <= s0.

    Radii are graded geometrically over `near_diag_refinement` levels so
    the 1/s kernel singularity (which cancels in the angle) is resolved;
    the angle uses the trapezoidal rule, spectrally accurate for the
    periodic smooth integrand.  Returns (value, error_estimate) where the
    error combines the embedded-rule difference and the omitted innermost
    disk bounded by its crude majorant.
    """
    levels = spec.near_diag_refinement + 2 * deepen
    n_theta = spec.n_theta * (2 ** deepen)
    if resolution is not None:
        n_theta = max(n_theta, int(np.ceil(8.0 * s0 / resolution)))
    n_s = spec.n_s_nodes + deepen

    def run(n_theta_run, n_s_run, levels_run):
        theta = np.arange(n_theta_run) * (2.0 * np.pi / n_theta_run)
        ct, st = np.cos(theta), np.sin(theta)
        nodes, weights, ray_id = [], [], []
        s_min_eff = 0.0
        for j, (c, s_ang) in enumerate(zip(ct, st)):
            s_max = s0 / max(abs(c), abs(s_ang))
            edges = s_max * 2.0 ** (-np.arange(levels_run + 1.0)[::-1])
            if resolution is not None:
                extra = _resolution_edges(float(edges[0]), float(s_max),
                                          resolution * 0.5 ** deepen)
                if extra is not None:
                    edges = np.unique(np.concatenate([edges, extra]))
            sn, sw = panel_nodes(edges, n_s_run)
            nodes.append(sn)
            weights.append(sw)
            ray_id.append(np.full(sn.size, j))
            s_min_eff = max(s_min_eff, float(edges[0]))
        # rays differ in length when `resolution` adds edges: one kernel call
        # over all of them, summed back per ray
        sn, sw = np.concatenate(nodes), np.concatenate(weights)
        ray_id = np.concatenate(ray_id)
        rho = r + sn * ct[ray_id]
        kk = z + sn * st[ray_id]
        ker = kernel_sel(kernel_batch(r, rho, z - kk))
        vals = ker * weight(rho, kk) * rho * sn
        ray_sums = np.bincount(ray_id, weights=sw * vals,
                               minlength=n_theta_run)
        total = float(np.sum(ray_sums)) * (2.0 * np.pi / n_theta_run)
        max_integrand = float(np.max(np.abs(vals)))
        # the omitted disk s < s_min contributes at most its area times the
        # bounded polar integrand
        trunc = 2.0 * np.pi * s_min_eff * max_integrand
        return total, trunc

    hi, trunc = run(n_theta, n_s, levels)
    lo, _ = run(max(n_theta // 2, 8), max(n_s - 1, 3), levels)
    return hi, abs(hi - lo) + trunc


def _support_box(w_field, rho_max, z_max):
    if w_field.support is not None:
        slo, shi, klo, khi = w_field.support
        return (max(0.0, slo), min(shi, rho_max)), (max(-z_max, klo), min(khi, z_max))
    return (0.0, rho_max), (-z_max, z_max)


def _radial_majorant(w_field):
    """rho -> pointwise bound on |w|(rho, .) for tail integrals."""
    if w_field.decay_beta is None:
        raise ValueError(
            "vorticity carries neither a support box nor decay metadata: "
            "truncation tails cannot be certified (nonintegrable tail risk)")
    amp = w_field.radial_amplitude
    beta = w_field.decay_beta
    return lambda rho: amp * (1.0 + rho) ** (-beta)


def _tail_bounds(w_field, kernel_kind, r, z, rho_max, z_max):
    """Crude-bound majorants for the mass outside the truncation window.

    Radial tail (rho > rho_max): |G1| <= 1/(rho - r)^2 and |G2|, |M| <=
    (rho + r)/(rho - r)^3 integrated against the radial majorant times the
    envelope integral.  Axial tail (|k| > z_max, rho <= rho_max): kernel
    bounds at |z - k| >= z_max - |z| times the envelope tail integral.
    Compactly supported fields inside the window have zero tails.
    """
    if w_field.support is not None:
        slo, shi, klo, khi = w_field.support
        if shi <= rho_max and -z_max <= klo and khi <= z_max:
            return 0.0
    bound = _radial_majorant(w_field)
    env = w_field.axial_envelope
    if env is None:
        raise ValueError("unbounded vorticity needs an axial envelope for "
                         "tail certification")
    if abs(z) > 0.5 * z_max:
        raise ValueError("probe |z| must stay below z_max / 2 for valid "
                         "axial tail bounds")
    env_total = env.integral()
    env_tail = env.tail_integral(z_max)

    if kernel_kind == "g1":
        rad_kernel = lambda rho: 1.0 / (rho - r) ** 2
    else:
        rad_kernel = lambda rho: (rho + r) / (rho - r) ** 3
    # map [rho_max, inf) to (0, 1] via rho = rho_max / u; the transformed
    # integrand is bounded for beta > 1 so fixed-interval quadrature is safe
    rad, _ = _scipy_quad(
        lambda u: rad_kernel(rho_max / u) * bound(rho_max / u)
        * (rho_max / u) * rho_max / u ** 2,
        0.0, 1.0, limit=200)
    radial_tail = env_total * rad

    zeta_min = z_max - abs(z)
    if kernel_kind == "g1":
        ax_kernel = lambda rho: 1.0 / zeta_min ** 2
    else:
        ax_kernel = lambda rho: (rho + r) / zeta_min ** 3
    ax, _ = fixed_integrate(
        lambda rho: ax_kernel(rho) * bound(rho) * rho,
        geometric_mesh(0.0, rho_max, scale=1.0), n=12)
    axial_tail = env_tail * ax
    return radial_tail + axial_tail


def _component_integral(kernel_sel, kernel_kind, weight, w_field, p, spec):
    """Region-decomposed integral of kernel * weight * rho over the window."""
    r, z = p.r, p.z
    rho_max, z_max = spec.resolved(r)
    (b1, b2, b3, b4, b5), w_half = _region_edges(r, spec.gamma, spec.delta)
    (rho_lo, rho_hi), (k_lo, k_hi) = _support_box(w_field, rho_max, z_max)

    env_scale = w_field.axial_envelope.scale if w_field.axial_envelope is not None else 1.0
    s0 = min(w_half, spec.core_radius * min(env_scale, 1.0))

    regions = {
        "inner_core": [((0.0, b1), "far")],
        "inner_band": [((b1, b2), "far")],
        "left_band": [((b2, b3), "band")],
        "diagonal": [((b3, r - s0), "strip"), ((r + s0, b4), "strip"),
                     ((r - s0, r + s0), "center")],
        "right_band": [((b4, b5), "band")],
        "far_tail": [((b5, rho_max), "far")],
    }
    k_scales = {"far": min(env_scale, 1.0) * 0.5,
                "band": min(w_half, env_scale, 1.0) * 0.5,
                "strip": s0 * 0.5,
                "center": s0 * 0.5}

    res = w_field.resolution

    def one_pass(deepen):
        per_region = {}
        per_err = {}
        for name, rects in regions.items():
            total = 0.0
            err = 0.0
            for (ra, rb), kind in rects:
                ra_c, rb_c = _clip(ra, rb, rho_lo, rho_hi)
                if rb_c <= ra_c:
                    continue
                if kind == "center":
                    # four-way remainder of the diagonal band around the core
                    for (ka, kb) in ((k_lo, z - s0), (z + s0, k_hi)):
                        ka_c, kb_c = _clip(ka, kb, k_lo, k_hi)
                        v, e = _integrate_rect(kernel_sel, weight, r, z,
                                               ((ra_c, rb_c), (ka_c, kb_c)),
                                               spec, k_scales[kind], deepen,
                                               resolution=res)
                        total += v
                        err += e
                else:
                    v, e = _integrate_rect(kernel_sel, weight, r, z,
                                           ((ra_c, rb_c), (k_lo, k_hi)),
                                           spec, k_scales[kind], deepen,
                                           resolution=res)
                    total += v
                    err += e
            per_region[name] = total
            per_err[name] = err
        v, e = _integrate_polar_core(kernel_sel, weight, r, z, s0, spec,
                                     deepen, resolution=res)
        per_region["diagonal"] += v
        per_err["diagonal"] += e
        return per_region, per_err

    deepen = 0
    per_region, per_err = one_pass(deepen)
    while sum(per_err.values()) > spec.tol and deepen < spec.max_refinements:
        deepen += 1
        per_region, per_err = one_pass(deepen)
    return per_region, sum(per_err.values())


def _check_point(p):
    if not p.r > 1.0:
        raise ValueError("reconstruction requires probe radius r > 1 "
                         "(kernel bounds hold on r > 1); got r=%g" % p.r)


def reconstruct_ur(w_field: VorticityField, p: MeridianPoint,
                   spec: QuadratureSpec = QuadratureSpec()):
    """u_r from the swirl vorticity via the G1 kernel."""
    _check_point(p)
    per_region, quad_err = _component_integral(
        lambda kv: kv.g1, "g1", w_field.w_theta, w_field, p, spec)
    rho_max, z_max = spec.resolved(p.r)
    tail = _tail_bounds(w_field, "g1", p.r, p.z, rho_max, z_max)
    value = sum(per_region.values())
    return ReconstructionResult(value=value, per_region=per_region,
                                tail_bound=tail, quad_err=quad_err,
                                tol_met=quad_err <= spec.tol,
                                component="u_r", r=p.r, z=p.z)


def reconstruct_uz(w_field: VorticityField, p: MeridianPoint,
                   spec: QuadratureSpec = QuadratureSpec()):
    """u_z from the swirl vorticity via the (negated) G2 kernel."""
    _check_point(p)
    per_region, quad_err = _component_integral(
        lambda kv: -kv.g2, "g2", w_field.w_theta, w_field, p, spec)
    rho_max, z_max = spec.resolved(p.r)
    tail = _tail_bounds(w_field, "g2", p.r, p.z, rho_max, z_max)
    value = sum(per_region.values())
    return ReconstructionResult(value=value, per_region=per_region,
                                tail_bound=tail, quad_err=quad_err,
                                tol_met=quad_err <= spec.tol,
                                component="u_z", r=p.r, z=p.z)


def reconstruct_utheta(w_field: VorticityField, p: MeridianPoint,
                       spec: QuadratureSpec = QuadratureSpec()):
    """u_theta from (w_r, w_z): the difference of two region integrals."""
    _check_point(p)
    axial_regions, err_a = _component_integral(
        lambda kv: kv.g_swirl, "g2", w_field.w_z, w_field, p, spec)
    radial_regions, err_r = _component_integral(
        lambda kv: kv.g1, "g1", w_field.w_r, w_field, p, spec)
    rho_max, z_max = spec.resolved(p.r)
    tail = (_tail_bounds(w_field, "g2", p.r, p.z, rho_max, z_max)
            + _tail_bounds(w_field, "g1", p.r, p.z, rho_max, z_max))
    per_region = {name: axial_regions[name] - radial_regions[name]
                  for name in REGION_NAMES}
    value = sum(per_region.values())
    quad_err = err_a + err_r
    return ReconstructionResult(
        value=value, per_region=per_region, tail_bound=tail,
        quad_err=quad_err, tol_met=quad_err <= spec.tol,
        component="u_theta", r=p.r, z=p.z,
        term_values={"axial_source": sum(axial_regions.values()),
                     "radial_source": -sum(radial_regions.values())})


_RECONSTRUCTORS = {"u_r": reconstruct_ur, "u_z": reconstruct_uz,
                   "u_theta": reconstruct_utheta}


@dataclass
class TraceSample:
    r: float
    value: float
    quad_err: float
    tail_bound: float
    per_region: dict
    flagged: bool


def decay_trace(w_field, component, r_ladder, spec=None, z=0.0,
                rel_tol=0.02):
    """|component|(r, z) along an increasing radius ladder.

    Per-point absolute tolerances follow the predicted decay envelope so
    the fractional accuracy stays roughly constant as values shrink; a
    sample is flagged when its certified error exceeds 10% of its value.
    Defaults: gamma, delta from the optimizer's balance for the profile's
    beta.  `z` is a fixed probe height or a sequence matching the ladder
    (the decay envelopes are uniform in z, so sweeping z = r/2 or z = r is
    a uniformity spot-check).
    """
    if component not in _RECONSTRUCTORS:
        raise ValueError("component must be one of %s" % (sorted(_RECONSTRUCTORS),))
    r_ladder = [float(r) for r in r_ladder]
    if any(r <= 1.0 for r in r_ladder):
        raise ValueError("trace radii must exceed 1")
    if any(b <= a for a, b in zip(r_ladder, r_ladder[1:])):
        raise ValueError("trace radii must be strictly increasing")
    if np.isscalar(z):
        z_ladder = [float(z)] * len(r_ladder)
    else:
        z_ladder = [float(v) for v in z]
        if len(z_ladder) != len(r_ladder):
            raise ValueError("probe-height sequence must match the ladder")

    beta = w_field.decay_beta
    if spec is None:
        spec = QuadratureSpec()
        if beta is not None:
            opt = optimize_split(beta)
            spec = replace(spec, gamma=opt.gamma, delta=min(opt.delta, 1.0))
    pred = predicted_decay(beta) if beta is not None else None

    # slow radial decay needs a wider truncation window for the tail
    # majorant to stay well under the shrinking values
    if beta is not None and spec.rho_max is None:
        factor = 64.0 if beta < 2.0 else (16.0 if beta < 2.5 else 8.0)
        if factor > 8.0:
            spec = replace(spec, rho_max=factor * max(1.0, r_ladder[-1]))

    def envelope(r):
        if pred is None:
            return 1.0
        v = (1.0 + r) ** pred.exponent
        return v * math.log(r + 1.0) if pred.has_log else v

    rec = _RECONSTRUCTORS[component]
    samples = []
    base_tol = None
    for r, z_r in zip(r_ladder, z_ladder):
        if base_tol is None:
            spec_r = spec
        else:
            tol_r = max(base_tol * envelope(r) / envelope(r_ladder[0]), 1e-14)
            spec_r = replace(spec, tol=tol_r)
        res = rec(w_field, MeridianPoint(r, z_r), spec_r)
        if base_tol is None:
            base_tol = max(rel_tol * abs(res.value), spec.tol)
        flagged = res.total_error > 0.1 * abs(res.value) if res.value != 0 else True
        samples.append(TraceSample(r=r, value=abs(res.value),
                                   quad_err=res.quad_err,
                                   tail_bound=res.tail_bound,
                                   per_region=res.per_region,
                                   flagged=flagged))
    return samples
