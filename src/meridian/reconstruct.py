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

A component whose estimated error misses tol on those meshes refines where
the error is (the globally adaptive region scheme of Berntsen, Espelid and
Genz, ACM TOMS 17, 1991): its rectangle panels split 2 x 2, worst first,
each generation's new panels evaluated in one kernel call per rule, and
its core deepens its rules.
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

# Fixed quadrature rules.  Rectangles refine by splitting panels, the polar
# core by deepening its rules.
N_NODES = 6                 # GL nodes per rectangle panel, each direction
N_ERR = 4                   # embedded error rule
SPLIT_TARGET = 0.1          # later generations split until the rest hold this share of tol
PANEL_BUDGET = 8192         # most rectangle panels one component may hold
CORE_RADIUS = 0.5           # core half-width, in axial envelope scales
NEAR_DIAG_REFINEMENT = 22   # geometric levels in the core's u (+2 per deepening)
N_SIDE = 16                 # GL nodes in v per core side (doubled per deepening)
N_S_NODES = 6               # GL nodes per core u panel (+1 per deepening)
MAX_CORE_DEEPEN = 2
RESOLUTION_CAP = 512        # most uniform panels a profile resolution adds
TRACE_REL_TOL = 0.02        # decay_trace: first tolerance, relative to value


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the reconstruction quadrature.

    gamma, delta are the radial splitting exponents (region boundaries
    r^gamma/8 and r +- r^delta/2).  rho_max / z_max default to 8*max(1, r)
    at evaluation time and may only be enlarged; the window also widens to
    cover a compact vorticity's support.  tol is the target
    absolute error per component.  The node counts are the fixed module
    rules above: when the estimated error exceeds tol, the rectangle panels
    split, up to PANEL_BUDGET panels per component, and the polar core
    deepens its rules, up to MAX_CORE_DEEPEN; the result is flagged if the
    target is still unmet.
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
    weights of their outer product flat in C order (y varies fastest).
    Leading axes of the meshes stack separate meshes, and lead the nodes."""
    xn, xw = panel_nodes(x_edges, n_x)
    yn, yw = panel_nodes(y_edges, n_y)
    return (xn[..., :, None], yn[..., None, :],
            (xw[..., :, None] * yw[..., None, :]).ravel())


def _integrate_rules(terms, r, z, rules):
    """Integrals of kernel * weight * rho under a value rule and an error
    rule, each a node set (rho, k, weight): rho and k broadcast to the
    nodes (see `_integrands`), the weights are flat with any Jacobian
    folded in; `rules` yields them in that order, so a lazy iterable
    builds each only when it is used.  Returns (sums, samples): sums[i, t]
    is rule i's integral of term t, and samples[i] is rule i's
    (integrands, weights), from which a caller can break the sums down."""
    samples = []
    for rho, kk, w in rules:
        samples.append((_integrands(terms, r, z, rho, kk), w))
    sums = np.array([[np.einsum("i,i->", vals, w) for vals in integrands]
                     for integrands, w in samples])
    return sums, samples


def _integrate_rect(terms, r, z, x_edges, y_edges):
    """Tensor GL integrals of kernel * weight * rho over rectangle panels.

    `x_edges`, `y_edges` are the rho and k panel meshes of one rectangle,
    or, with a leading axis, of several: refinement hands in its panels as
    meshes of one panel each, edges of shape (P, 2).  The value rule
    (N_NODES GL nodes per panel and direction) and the error rule (N_ERR)
    are one kernel evaluation each over every panel, shared by all
    `terms`.  Returns (sums, panels): sums are `_integrate_rules`', and
    panels(own) forms the same per panel for the terms that the slice
    `own` selects, an array (rule, term, panel) with each mesh's panels in
    C order (k fastest).
    """
    rules = (N_NODES, N_ERR)
    sums, samples = _integrate_rules(
        terms, r, z, (_tensor_nodes(x_edges, y_edges, n, n) for n in rules))

    def panels(own):
        # each panel's n x n block of nodes is summed on its own, so its
        # integral does not depend on the panels evaluated with it
        px, py = np.shape(x_edges)[-1] - 1, np.shape(y_edges)[-1] - 1
        return np.array([[(vals * w).reshape(-1, px, n, py, n).swapaxes(2, 3)
                          .reshape(-1, n * n).sum(axis=1)
                          for vals in integrands[own]]
                         for (integrands, w), n in zip(samples, rules)])

    return sums, panels


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

    (hi, lo), _ = _integrate_rules(terms, r, z,
                                   map(rule, (n_u, n_u - 1), (n_v, n_v // 2)))
    return hi, np.abs(hi - lo)


def _window(w_field, spec, r):
    """The truncation window (rho_max, z_max) of a probe at radius r:
    `spec.resolved(r)`, widened to each bounded side of the vorticity's
    support box, so a compactly supported field is integrated whole and
    has no tail.  An unbounded side keeps the window, and the decay
    metadata certify its tail."""
    rho_max, z_max = spec.resolved(r)
    if w_field.support is not None:
        # an unbounded side counts as 0, which widens nothing
        _, rho_hi, k_lo, k_hi = np.nan_to_num(w_field.support, posinf=0.0,
                                              neginf=0.0)
        rho_max, z_max = max(rho_max, rho_hi), max(z_max, -k_lo, k_hi)
    return rho_max, z_max


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
    beta = w_field.decay_beta
    return lambda rho: (1.0 + rho) ** (-beta)


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


def _mesh_boxes(x_edges, y_edges):
    """The panels of a tensor mesh as rows (rho_a, rho_b, k_a, k_b), in C
    order (k fastest)."""
    px, py = len(x_edges) - 1, len(y_edges) - 1
    return np.column_stack([np.repeat(x_edges[:-1], py),
                            np.repeat(x_edges[1:], py),
                            np.tile(y_edges[:-1], px),
                            np.tile(y_edges[1:], px)])


def _quarters(boxes):
    """The 2 x 2 split of each panel row (rho_a, rho_b, k_a, k_b), four
    rows per panel."""
    xa, xb, ya, yb = boxes.T
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    return np.stack([np.stack(q, axis=-1) for q in (
        (xa, xm, ya, ym), (xa, xm, ym, yb), (xm, xb, ya, ym),
        (xm, xb, ym, yb))], axis=1).reshape(-1, 4)


class _Leaves:
    """One component's refinement state after generation 0: its rectangle
    panels, each with its region, box (rho_a, rho_b, k_a, k_b) and per-term
    value and error, and its polar core's deepening with per-term value
    and error."""

    def __init__(self, region, boxes, values, errors, core):
        self.region, self.boxes = region, boxes
        self.values, self.errors = values, errors
        self.core_deepen, self.core_values, self.core_errors = core
        self.generation = 0

    def term_errors(self):
        return self.errors.sum(axis=1) + self.core_errors

    def integrals(self):
        per_region = {name: self.values[:, self.region == i].sum(axis=1)
                      for i, name in enumerate(REGION_NAMES)}
        per_region["diagonal"] = per_region["diagonal"] + self.core_values
        return per_region, self.term_errors()

    def plan(self, tol):
        """(panels to split, whether the core deepens) in the next generation.

        The first splits every panel with a nonzero value or error: the
        value and error rules can err alike at a steep edge of the
        vorticity, and only a finer sample shows it.  Later ones split the
        worst panels until the rest hold less than SPLIT_TARGET * tol, and
        none once the error meets tol.  A live core deepens in each
        generation up to MAX_CORE_DEEPEN, even when the error meets tol:
        its two rules share one u mesh, and their difference can undershoot
        until the deepest rules.
        """
        err = self.errors.sum(axis=0)
        if self.generation == 0:
            split = np.flatnonzero((err > 0) | np.any(self.values != 0, axis=0))
        elif sum(self.term_errors()) <= tol:
            split = np.zeros(0, dtype=int)
        else:
            order = np.argsort(-err, kind="stable")
            rest = np.append(np.cumsum(err[order][::-1])[::-1], 0.0)
            split = order[:int(np.argmax(rest < SPLIT_TARGET * tol))]
        live = np.any(self.core_values != 0) or np.any(self.core_errors > 0)
        return split, bool(live) and self.core_deepen < MAX_CORE_DEEPEN

    def split(self, split, values, errors):
        """Replace the panels `split` by their quarters, whose values and
        errors come in `_quarters` order.  A quarter's error is at least a
        quarter of the distance between its panel's value and the sum of
        the four quarters, so a panel whose rules erred alike passes that
        error on."""
        diff = np.abs(self.values[:, split]
                      - values.reshape(len(values), -1, 4).sum(axis=2))
        errors = np.maximum(errors, np.repeat(diff / 4, 4, axis=1))
        keep = np.ones(len(self.region), dtype=bool)
        keep[split] = False
        self.region = np.concatenate([self.region[keep],
                                      np.repeat(self.region[split], 4)])
        self.boxes = np.concatenate([self.boxes[keep],
                                     _quarters(self.boxes[split])])
        self.values = np.concatenate([self.values[:, keep], values], axis=1)
        self.errors = np.concatenate([self.errors[:, keep], errors], axis=1)


def _component_integral(components, w_field, p, spec):
    """Region-decomposed integrals of kernel * weight * rho over the window.

    `components` maps each name to its terms, (kernel selector, vorticity
    profile) pairs.  Generation 0 puts the fixed rules on each rectangle's
    graded mesh and on the polar core, every term sharing each node set
    and kernel evaluation; a component whose summed error meets spec.tol
    there is done.  Every other one refines its own leaves, the panels of
    those meshes with their own values and |hi - lo| (see `_Leaves.plan`),
    until its error meets tol, it has nothing left to refine, or a split
    would take it past PANEL_BUDGET panels.  The new panels of a
    generation are evaluated together, once per distinct panel, and the
    cores once per depth, so each component's integrals are those it gets
    alone.  Returns name -> (per-region values, per-term error estimates);
    each region value is an array with one entry per term.  Raises
    ValueError when a region value or error is non-finite (a vorticity
    sample that is not a finite number).
    """
    r, z = p.r, p.z
    rho_max, z_max = _window(w_field, spec, r)
    (b1, b2, b3, b4, b5), w_half = _region_edges(r, spec.gamma, spec.delta)
    (rho_lo, rho_hi), (k_lo, k_hi) = _support_box(w_field, rho_max, z_max)

    env_scale = w_field.axial_envelope.scale if w_field.axial_envelope is not None else 1.0
    res = w_field.resolution
    # the core's v rule is one panel per side, so the core is kept within
    # the profile's resolution
    s0 = min(w_half, CORE_RADIUS * min(env_scale, 1.0),
             res if res is not None and res > 0 else np.inf)
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
    # (region index, rho mesh, k mesh): meshes graded toward rho = r and
    # toward k = z and k = 0 with the axial feature scale, plus uniform
    # panels at a short profile resolution
    rects = []
    for name, (ra, rb), (ka, kb), k_scale in spans:
        ra, rb = max(ra, rho_lo), min(rb, rho_hi)
        if rb > ra and kb > ka:
            scale = max(k_scale, 1e-12)
            rects.append((REGION_NAMES.index(name),
                          _resolution_edges(graded_mesh(ra, rb, [r, 0.0], scale), res, 0),
                          _resolution_edges(graded_mesh(ka, kb, [z, 0.0], scale), res, 0)))

    def fail(region):
        raise ValueError(
            "non-finite %s integral at probe (r=%g, z=%g): the "
            "vorticity must be finite on the window" % (region, r, z))

    def joint(names):
        """The terms of `names` in order, and each name's slice of them."""
        terms, owns = [], {}
        for name in names:
            owns[name] = slice(len(terms), len(terms) + len(components[name]))
            terms += components[name]
        return terms, owns

    # generation 0
    terms, owns = joint(list(components))
    per_region = {name: np.zeros(len(terms)) for name in REGION_NAMES}
    per_err = {name: np.zeros(len(terms)) for name in REGION_NAMES}
    breakdowns = []
    for region, x_edges, y_edges in rects:
        (hi, lo), panels = _integrate_rect(terms, r, z, x_edges, y_edges)
        per_region[REGION_NAMES[region]] += hi
        per_err[REGION_NAMES[region]] += np.abs(hi - lo)
        breakdowns.append(panels)
    # a core outside the support box integrates zeros
    core = ((np.zeros(len(terms)), np.zeros(len(terms)))
            if r + s0 <= rho_lo or r - s0 >= rho_hi or z + s0 <= k_lo
            or z - s0 >= k_hi else
            _integrate_polar_core(terms, r, z, s0, 0, resolution=res))
    per_region["diagonal"] += core[0]
    per_err["diagonal"] += core[1]
    for name in REGION_NAMES:
        if not np.all(np.isfinite(per_region[name]) & np.isfinite(per_err[name])):
            fail(name)
    errors = sum(per_err.values())

    done, pending = {}, {}
    for name, own in owns.items():
        if sum(errors[own]) <= spec.tol:
            done[name] = ({region: values[own]
                           for region, values in per_region.items()},
                          errors[own])
            continue
        hi, lo = np.concatenate([panels(own) for panels in breakdowns], axis=2)
        pending[name] = _Leaves(
            np.concatenate([np.full((len(x) - 1) * (len(y) - 1), i)
                            for i, x, y in rects]),
            np.concatenate([_mesh_boxes(x, y) for _, x, y in rects]),
            hi, np.abs(hi - lo), (0, core[0][own], core[1][own]))

    while pending:
        splits, deepens = {}, {}
        for name, leaves in list(pending.items()):
            split, deepen = leaves.plan(spec.tol)
            if (not (split.size or deepen)
                    or len(leaves.region) + 3 * split.size > PANEL_BUDGET):
                done[name] = leaves.integrals()
                del pending[name]
                continue
            leaves.generation += 1
            if split.size:
                splits[name] = split
            if deepen:
                deepens.setdefault(leaves.core_deepen + 1, []).append(name)

        if splits:
            # each distinct panel is split and evaluated once; a component
            # reads its quarters at `cols`
            parents, cols = {}, {}
            for name, split in splits.items():
                index = [parents.setdefault(box.tobytes(), (len(parents), box))[0]
                         for box in pending[name].boxes[split]]
                cols[name] = (4 * np.array(index)[:, None] + np.arange(4)).ravel()
            quarters = _quarters(np.array([box for _, box in parents.values()]))
            terms, owns = joint(list(splits))
            _, panels = _integrate_rect(terms, r, z, quarters[:, :2],
                                        quarters[:, 2:])
            hi, lo = panels(slice(None))
            for name, own in owns.items():
                leaves, split = pending[name], splits[name]
                values = hi[own][:, cols[name]]
                errors = np.abs(values - lo[own][:, cols[name]])
                finite = np.all(np.isfinite(values) & np.isfinite(errors), axis=0)
                if not finite.all():
                    fail(REGION_NAMES[leaves.region[split][np.argmin(finite) // 4]])
                leaves.split(split, values, errors)

        for deepen, names in deepens.items():
            terms, owns = joint(names)
            values, errors = _integrate_polar_core(terms, r, z, s0, deepen,
                                                   resolution=res)
            if not np.all(np.isfinite(values) & np.isfinite(errors)):
                fail("diagonal")
            for name, own in owns.items():
                leaves = pending[name]
                leaves.core_deepen = deepen
                leaves.core_values, leaves.core_errors = values[own], errors[own]
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
    rho_max, z_max = _window(w_field, spec, p.r)
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
