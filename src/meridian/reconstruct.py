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
band, far tail).  The diagonal band is further split into a core -- a
square of half-width s0 around (r, z) -- and four rectangular remainders.
The core is Duffy's split of the square at its singular vertex (Duffy,
SIAM J. Numer. Anal. 19, 1982): four triangles with their apex at (r, z),
each mapped to (u, v) in [0, 1] x [-1, 1] with Jacobian s0^2 u, which
cancels the 1/s kernel singularity.  Every piece, triangles and
rectangles, then takes a tensor Gauss-Legendre rule on a graded mesh;
truncation beyond (rho_max, z_max) is certified by crude-bound tail
majorants, never by extrapolation.
"""

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Optional

import numpy as np
from scipy.integrate import quad as _scipy_quad

from .fields import MeridianPoint, VorticityField
from .kernels import kernel_batch
from .quadrature import geometric_mesh, graded_mesh, panel_nodes
from .rates import optimize_split, predicted_decay

REGION_NAMES = ("inner_core", "inner_band", "left_band", "diagonal",
                "right_band", "far_tail")

# Fixed quadrature rules; refinement pass `deepen` adds nodes to each.
N_NODES = 6                 # GL nodes per rectangle panel (+2 per pass)
N_ERR = 4                   # embedded error rule (+1 per pass)
CORE_RADIUS = 0.5           # core half-width, in axial envelope scales
NEAR_DIAG_REFINEMENT = 22   # geometric levels in the core's u (+2 per pass)
N_SIDE = 16                 # GL nodes in v per core side (doubled per pass)
N_S_NODES = 6               # GL nodes per core u panel (+1 per pass)
MAX_REFINEMENTS = 2
RESOLUTION_CAP = 512        # most uniform panels a profile resolution adds
TRACE_REL_TOL = 0.02        # decay_trace: first tolerance, relative to value


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the reconstruction quadrature.

    gamma, delta are the radial splitting exponents (region boundaries
    r^gamma/8 and r +- r^delta/2).  rho_max / z_max default to 8*max(1, r)
    at evaluation time and may only be enlarged.  tol is the target
    absolute error per component.  The node counts are the fixed module
    rules above: when the estimated error exceeds tol, each refinement pass
    adds nodes to every rule, up to MAX_REFINEMENTS passes, and the result
    is flagged if the target is still unmet.
    """
    gamma: float = 0.0
    delta: float = 1.0
    rho_max: Optional[float] = None
    z_max: Optional[float] = None
    tol: float = 1e-6

    def __post_init__(self):
        if not (0.0 <= self.gamma <= 1.0 and 0.0 <= self.delta <= 1.0):
            raise ValueError("splitting exponents must lie in [0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")

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


def _resolution_edges(edges, resolution, deepen):
    """`edges` merged with uniform edges at resolution / 2^deepen across their
    span, unless that takes fewer than 2 or more than RESOLUTION_CAP panels."""
    if resolution is None or resolution <= 0:
        return edges
    a, b = edges[0], edges[-1]
    n = int(np.ceil((b - a) / (resolution * 0.5 ** deepen)))
    if n < 2 or n > RESOLUTION_CAP:
        return edges
    return np.unique(np.concatenate([edges, np.linspace(a, b, n + 1)]))


def _integrands(terms, r, z, rho, kk):
    """kernel * weight * rho at the nodes (rho, kk), one flat array per term.

    rho and kk broadcast against each other: a rectangle passes its rho
    nodes as a column and its k nodes as a row, so a separable weight
    evaluates each factor once per row or column; the arrays returned are
    flat in C order.  Each distinct weight is sampled once, however many
    terms share it, and the kernels are evaluated in one call, on the nodes
    where some weight is nonzero; NaN and inf weights count as nonzero, so
    they still reach the sums.  At every other node each integrand is the
    zero a zero weight would give, and the arrays keep their full length,
    so the sums over them are the same as with every node evaluated.
    """
    shape = np.broadcast_shapes(np.shape(rho), np.shape(kk))
    weights = {id(weight): weight for _, weight in terms}
    samples = {key: weight(rho, kk) for key, weight in weights.items()}
    live = np.zeros(shape, dtype=bool)
    for w in samples.values():
        live |= w != 0
    kv = None
    if live.any():
        kv = kernel_batch(r, np.broadcast_to(rho, shape)[live],
                          np.broadcast_to(z - kk, shape)[live])
    integrands = []
    for sel, weight in terms:
        vals = np.zeros(shape)
        if kv is not None:
            vals[live] = sel(kv)
        vals *= samples[id(weight)]
        vals *= rho
        integrands.append(vals.ravel())
    return integrands


def _tensor_nodes(x_edges, y_edges, n_x, n_y):
    """The tensor rule with n_x, n_y GL nodes per panel of the meshes
    `x_edges`, `y_edges`: x nodes as a column, y nodes as a row, and the
    weights of their outer product flat in C order (y varies fastest)."""
    xn, xw = panel_nodes(x_edges, n_x)
    yn, yw = panel_nodes(y_edges, n_y)
    return xn[:, None], yn[None, :], (xw[:, None] * yw[None, :]).ravel()


def _integrate_rules(terms, r, z, rules):
    """Integrals of kernel * weight * rho under a value rule and an error
    rule, each a node set (rho, k, weight): rho and k broadcast to the
    nodes (see `_integrands`), the weights are flat with any Jacobian
    folded in; `rules` yields them in that order, so a lazy iterable
    builds each only when it is used.  Returns (values, |values - error
    rule's values|), one entry per term."""
    sums = []
    for rho, kk, w in rules:
        sums.append(np.array([np.einsum("i,i->", vals, w)
                              for vals in _integrands(terms, r, z, rho, kk)]))
    hi, lo = sums
    return hi, np.abs(hi - lo)


def _integrate_rect(terms, r, z, rect, k_scale, deepen=0, resolution=None):
    """Tensor GL integrals of kernel * weight * rho over one rectangle.

    One per (kernel selector, vorticity profile) in `terms`, all from one
    kernel evaluation per rule.  Meshes are graded toward rho = r (radial)
    and toward k = z and k = 0 (axial) with feature scale `k_scale`;
    profiles with a short intrinsic `resolution` additionally force uniform
    panels at that scale.  `deepen` halves the scales and bumps node counts
    for refinement passes.  Returns (values, error estimates) per term.
    """
    (ra, rb), (ka, kb) = rect
    if rb <= ra or kb <= ka:
        return np.zeros(len(terms)), np.zeros(len(terms))
    scale = max(k_scale * 0.5 ** deepen, 1e-12)
    r_edges = _resolution_edges(graded_mesh(ra, rb, [r, 0.0], scale),
                                resolution, deepen)
    k_edges = _resolution_edges(graded_mesh(ka, kb, [z, 0.0], scale),
                                resolution, deepen)
    return _integrate_rules(terms, r, z, (
        _tensor_nodes(r_edges, k_edges, n, n)
        for n in (N_NODES + 2 * deepen, N_ERR + deepen)))


def _integrate_polar_core(terms, r, z, s0, deepen=0, resolution=None):
    """Integrals over the square |rho - r| <= s0, |k - z| <= s0.

    Duffy's split: the side with outward normal n and tangent t is the
    triangle (r, z) + s0 u (n + v t), (u, v) in [0, 1] x [-1, 1], with
    Jacobian s0^2 u.  The Jacobian cancels the 1/s kernel singularity at
    u = 0, so the integrand is bounded up to the apex and each triangle
    takes a tensor GL rule: in u on panels graded geometrically over
    NEAR_DIAG_REFINEMENT levels down to a first panel [0, 2^-levels] (plus
    uniform panels at the profile's `resolution`), in v on one panel.  All
    four sides go to one kernel call per rule.  `terms` is as for
    `_integrate_rect`; returns (values, error estimates) per term.
    """
    levels = NEAR_DIAG_REFINEMENT + 2 * deepen
    u_res = resolution / s0 if resolution is not None else None
    u_edges = _resolution_edges(
        np.concatenate([[0.0], 2.0 ** -np.arange(levels, -1.0, -1.0)]),
        u_res, deepen)
    n_u, n_v = N_S_NODES + deepen, N_SIDE * 2 ** deepen

    def rule(n_u_rule, n_v_rule):
        un, vn, w = _tensor_nodes(u_edges, (-1.0, 1.0), n_u_rule, n_v_rule)
        # offsets along the side's normal and along its tangent, flat
        a, b = (x.ravel() for x in np.broadcast_arrays(s0 * un, s0 * un * vn))
        # sides n = (1, 0), (0, 1), (-1, 0), (0, -1), each with t = n
        # turned a quarter counter-clockwise
        return (r + np.concatenate([a, -b, -a, b]),
                z + np.concatenate([b, a, -b, -a]), np.tile(w * s0 * a, 4))

    return _integrate_rules(terms, r, z,
                            map(rule, (n_u, n_u - 1), (n_v, n_v // 2)))


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
    `kernel_kind` names the term's kernel: "g1" takes the G1 majorants,
    "g2" and "g_swirl" (M) the G2 ones.  Compactly supported fields inside
    the window have zero tails.
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

    zeta_min = z_max - abs(z)
    if kernel_kind == "g1":
        rad_kernel = lambda rho: 1.0 / (rho - r) ** 2
        ax_kernel = lambda rho: 1.0 / zeta_min ** 2
    else:
        rad_kernel = lambda rho: (rho + r) / (rho - r) ** 3
        ax_kernel = lambda rho: (rho + r) / zeta_min ** 3
    # map [rho_max, inf) to (0, 1] via rho = rho_max / u; the transformed
    # integrand is bounded for beta > 1 so fixed-interval quadrature is safe
    rad, _ = _scipy_quad(
        lambda u: rad_kernel(rho_max / u) * bound(rho_max / u)
        * (rho_max / u) * rho_max / u ** 2,
        0.0, 1.0, limit=200)
    radial_tail = env_total * rad

    x, wts = panel_nodes(geometric_mesh(0.0, rho_max, scale=1.0), 12)
    axial_tail = env_tail * float(np.dot(wts, ax_kernel(x) * bound(x) * x))
    return radial_tail + axial_tail


def _component_integral(components, w_field, p, spec):
    """Region-decomposed integrals of kernel * weight * rho over the window.

    `components` maps each name to its terms, (kernel selector, vorticity
    profile) pairs.  All pending terms share each node set and kernel
    evaluation; a component leaves the passes once its summed error meets
    spec.tol or MAX_REFINEMENTS is reached, so its integrals are those it
    gets alone.  Returns name -> (per-region values, per-term error
    estimates); each region value is an array with one entry per term.
    Raises ValueError when a region value or error is non-finite (a
    vorticity sample that is not a finite number).
    """
    r, z = p.r, p.z
    rho_max, z_max = spec.resolved(r)
    (b1, b2, b3, b4, b5), w_half = _region_edges(r, spec.gamma, spec.delta)
    (rho_lo, rho_hi), (k_lo, k_hi) = _support_box(w_field, rho_max, z_max)

    env_scale = w_field.axial_envelope.scale if w_field.axial_envelope is not None else 1.0
    s0 = min(w_half, CORE_RADIUS * min(env_scale, 1.0))
    far = min(env_scale, 1.0) * 0.5
    band = min(w_half, env_scale, 1.0) * 0.5
    # (region, radial span, axial span, axial feature scale); the diagonal
    # band is two full-height strips plus the parts above and below the
    # polar core
    full = (k_lo, k_hi)
    spans = (("inner_core", (0.0, b1), full, far),
             ("inner_band", (b1, b2), full, far),
             ("left_band", (b2, b3), full, band),
             ("diagonal", (b3, r - s0), full, 0.5 * s0),
             ("diagonal", (r + s0, b4), full, 0.5 * s0),
             ("diagonal", (r - s0, r + s0), (k_lo, min(z - s0, k_hi)), 0.5 * s0),
             ("diagonal", (r - s0, r + s0), (max(z + s0, k_lo), k_hi), 0.5 * s0),
             ("right_band", (b4, b5), full, band),
             ("far_tail", (b5, rho_max), full, far))
    rects = []
    for name, (ra, rb), k_span, k_scale in spans:
        ra, rb = max(ra, rho_lo), min(rb, rho_hi)
        if rb > ra:
            rects.append((name, ((ra, rb), k_span), k_scale))
    res = w_field.resolution

    def one_pass(terms, deepen):
        per_region = {name: np.zeros(len(terms)) for name in REGION_NAMES}
        per_err = {name: np.zeros(len(terms)) for name in REGION_NAMES}
        for name, rect, k_scale in rects:
            v, e = _integrate_rect(terms, r, z, rect, k_scale, deepen,
                                   resolution=res)
            per_region[name] += v
            per_err[name] += e
        v, e = _integrate_polar_core(terms, r, z, s0, deepen, resolution=res)
        per_region["diagonal"] += v
        per_err["diagonal"] += e
        for name in REGION_NAMES:
            if not np.all(np.isfinite(per_region[name])
                          & np.isfinite(per_err[name])):
                raise ValueError(
                    "non-finite %s integral at probe (r=%g, z=%g): the "
                    "vorticity must be finite on the window" % (name, r, z))
        return per_region, sum(per_err.values())

    done, pending, deepen = {}, dict(components), 0
    while pending:
        per_region, errors = one_pass(
            [term for terms in pending.values() for term in terms], deepen)
        start = 0
        for name, terms in list(pending.items()):
            own = slice(start, start + len(terms))
            start = own.stop
            if sum(errors[own]) <= spec.tol or deepen == MAX_REFINEMENTS:
                done[name] = ({region: values[own]
                               for region, values in per_region.items()},
                              errors[own])
                del pending[name]
        deepen += 1
    return done


# component -> its terms (label, kernel, vorticity attribute, sign): `kernel`
# names the KernelValues field and the tail majorant; the labels name the
# term values reported when there are several
COMPONENTS = {
    "u_r": (("u_r", "g1", "w_theta", 1.0),),
    "u_z": (("u_z", "g2", "w_theta", -1.0),),
    "u_theta": (("axial_source", "g_swirl", "w_z", 1.0),
                ("radial_source", "g1", "w_r", -1.0)),
}


def reconstruct(w_field: VorticityField, p: MeridianPoint, components,
                spec: QuadratureSpec = QuadratureSpec()):
    """The named velocity components at p, name -> ReconstructionResult.

    Each is the signed sum of its terms' region integrals.  The components
    share one node set per rule and refine each on its own error, so each
    result is the one its component gets alone.
    """
    if not p.r > 1.0:
        raise ValueError("reconstruction requires probe radius r > 1 "
                         "(kernel bounds hold on r > 1); got r=%g" % p.r)
    integrals = _component_integral(
        {c: [(attrgetter(kernel), getattr(w_field, weight))
             for _, kernel, weight, _ in COMPONENTS[c]] for c in components},
        w_field, p, spec)
    rho_max, z_max = spec.resolved(p.r)
    results = {}
    for component in components:
        terms = COMPONENTS[component]
        regions, errors = integrals[component]
        tail = sum(_tail_bounds(w_field, kernel, p.r, p.z, rho_max, z_max)
                   for _, kernel, _, _ in terms)
        signs = [sign for _, _, _, sign in terms]
        per_region = {name: float(sum(s * v for s, v in zip(signs, values)))
                      for name, values in regions.items()}
        quad_err = float(sum(errors))
        term_values = None
        if len(terms) > 1:
            totals = sum(regions.values())
            term_values = {label: float(sign * total)
                           for (label, _, _, sign), total in zip(terms, totals)}
        results[component] = ReconstructionResult(
            value=sum(per_region.values()), per_region=per_region,
            tail_bound=tail, quad_err=quad_err, tol_met=quad_err <= spec.tol,
            component=component, r=p.r, z=p.z, term_values=term_values)
    return results


def reconstruct_ur(w_field: VorticityField, p: MeridianPoint,
                   spec: QuadratureSpec = QuadratureSpec()):
    """u_r from the swirl vorticity via the G1 kernel."""
    return reconstruct(w_field, p, ("u_r",), spec)["u_r"]


def reconstruct_uz(w_field: VorticityField, p: MeridianPoint,
                   spec: QuadratureSpec = QuadratureSpec()):
    """u_z from the swirl vorticity via the (negated) G2 kernel."""
    return reconstruct(w_field, p, ("u_z",), spec)["u_z"]


def reconstruct_utheta(w_field: VorticityField, p: MeridianPoint,
                       spec: QuadratureSpec = QuadratureSpec()):
    """u_theta from (w_r, w_z): the difference of two region integrals."""
    return reconstruct(w_field, p, ("u_theta",), spec)["u_theta"]


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


def decay_trace(w_field, component, r_ladder, z=0.0):
    """|component|(r, z) along an increasing radius ladder.

    Per-point absolute tolerances follow the predicted decay envelope from
    TRACE_REL_TOL of the first value, so the fractional accuracy stays
    roughly constant as values shrink; a sample is flagged when its
    certified error exceeds 10% of its value.  gamma, delta come from the
    optimizer's balance for the profile's beta.  `z` is a fixed probe
    height or a sequence matching the ladder (the decay envelopes are
    uniform in z, so sweeping z = r/2 or z = r is a uniformity spot-check).
    """
    if component not in COMPONENTS:
        raise ValueError("component must be one of %s" % (sorted(COMPONENTS),))
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
    spec = QuadratureSpec()
    envelope = lambda r: 1.0
    if beta is not None:
        opt = optimize_split(beta)
        spec = replace(spec, gamma=opt.gamma, delta=min(opt.delta, 1.0))
        envelope = predicted_decay(beta).envelope
        # slow radial decay needs a wider truncation window for the tail
        # majorant to stay well under the shrinking values
        if beta < 2.5:
            factor = 64.0 if beta < 2.0 else 16.0
            spec = replace(spec, rho_max=factor * max(1.0, r_ladder[-1]))

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
            base_tol = max(TRACE_REL_TOL * abs(res.value), spec.tol)
        flagged = res.total_error > 0.1 * abs(res.value) if res.value != 0 else True
        samples.append(TraceSample(r=r, value=abs(res.value),
                                   quad_err=res.quad_err,
                                   tail_bound=res.tail_bound,
                                   per_region=res.per_region,
                                   flagged=flagged))
    return samples
