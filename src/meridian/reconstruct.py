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

    rho in { r^gamma/8, r/4, r/2, 3r/2, 4r }

into six regions (inner core, inner band, left band, diagonal band, right
band, far tail).  The diagonal band is further split into a core -- a
square of half-width s0 around (r, z) -- and four rectangular remainders.
The core is Duffy's split of the square at its singular vertex (Duffy,
SIAM J. Numer. Anal. 19, 1982): four triangles with their apex at (r, z),
each mapped to (u, v) in [0, 1] x [-1, 1] with Jacobian s0^2 u, which
cancels the 1/s kernel singularity.  Every piece, triangles and
rectangles, then takes a tensor Gauss-Legendre rule on a graded mesh;
truncation beyond (rho_max, z_max) is certified by crude-bound tail
majorants in closed form, never by extrapolation or quadrature.

Every panel, rectangle or core triangle piece, is one float row (kind,
region, a, b, c, d) of a panel table: its kind (a rectangle, or the core
side it lies on), its region and its box in its own coordinates.  A
component whose estimated error misses tol on those meshes refines where
the error is (the globally adaptive region scheme of Berntsen, Espelid and
Genz, ACM TOMS 17, 1991): its panel rows, rectangle and core alike, split
2 x 2 in their own coordinates, worst first, each quarter keeping its
parent's kind and region, and each generation's new panels are evaluated
in one kernel call per rule and kind.
"""

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Optional

import numpy as np

from .fields import MeridianPoint, VorticityField
from .kernels import kernel_batch
from .quadrature import graded_mesh, panel_nodes
from .rates import optimize_split, predicted_decay

REGION_NAMES = ("inner_core", "inner_band", "left_band", "diagonal",
                "right_band", "far_tail")

# Fixed quadrature rules; refinement splits panels and keeps their rules.
N_NODES = 6                 # GL nodes per rectangle panel, each direction
N_ERR = 4                   # embedded error rule
SPLIT_TARGET = 0.1          # later generations split until the rest hold this share of tol
PANEL_BUDGET = 8192         # most panels, rectangle and core, one component may hold
CORE_RADIUS = 0.5           # core half-width, in axial envelope scales
NEAR_DIAG_REFINEMENT = 22   # geometric levels in the core's u
N_SIDE = 16                 # GL nodes in v per core panel (half in the error rule)
N_S_NODES = 6               # GL nodes in u per core panel (one fewer in the error rule)
RECT = -1                   # kind of a rectangle panel; a core panel's is its side, 0-3
RESOLUTION_CAP = 512        # most uniform panels a profile resolution adds
TRACE_REL_TOL = 0.02        # decay_trace: first tolerance, relative to value


@dataclass(frozen=True)
class QuadratureSpec:
    """Knobs of the reconstruction quadrature.

    gamma is the radial splitting exponent (inner region boundary
    r^gamma/8).  rho_max is finite, defaults to 8*max(1, r) at evaluation
    time and may only be enlarged; the axial radius z_max is `_window`'s
    alone.  tol is the target absolute error per component.  The node
    counts are the fixed module rules above: when the estimated error
    exceeds tol, the panels split, up to PANEL_BUDGET panels per component;
    the result is flagged if the target is still unmet.
    """
    gamma: float = 0.0
    rho_max: Optional[float] = None
    tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("splitting exponent gamma must lie in [0, 1]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if not (self.rho_max is None or np.isfinite(self.rho_max)):
            raise ValueError("truncation radii must be finite or None")


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

    @property
    def total_error(self):
        return self.tail_bound + self.quad_err


def _region_edges(r, gamma):
    w = 0.5 * r
    return (r ** gamma / 8.0, r / 4.0, r - w, r + w, 4.0 * r), w


def _resolution_edges(edges, resolution):
    """`edges` merged with uniform edges at `resolution` across their span,
    unless that takes fewer than 2 or more than RESOLUTION_CAP panels."""
    if resolution is None or resolution <= 0:
        return edges
    a, b = edges[0], edges[-1]
    n = int(np.ceil((b - a) / resolution))
    if n < 2 or n > RESOLUTION_CAP:
        return edges
    return np.unique(np.concatenate([edges, np.linspace(a, b, n + 1)]))


def _integrands(w_field, terms, r, z, rho, kk):
    """kernel * w * rho at the nodes (rho, kk), one flat array per term;
    a term is a (kernel selector, vorticity slot) pair.

    rho and kk broadcast against each other: a rectangle passes its rho
    nodes as a column and its k nodes as a row, so a separable vorticity
    evaluates each factor once per row or column; the arrays returned are
    flat in C order.  The slots the terms name are sampled in one
    `w_field.sample` call, which samples each distinct profile once and a
    bump's curl slots from one gather, and the kernels are evaluated in one
    call, on the nodes where some sample is nonzero; NaN and inf samples
    count as nonzero, so they still reach the sums.  At every other node
    each integrand is the zero a zero sample would give, and the arrays
    keep their full length, so the sums over them are the same as with
    every node evaluated.
    """
    shape = np.broadcast_shapes(np.shape(rho), np.shape(kk))
    samples = w_field.sample([slot for _, slot in terms], rho, kk)
    live = np.zeros(shape, dtype=bool)
    for w in {id(w): w for w in samples}.values():
        live |= w != 0
    kv = None
    if live.any():
        kv = kernel_batch(r, np.broadcast_to(rho, shape)[live],
                          np.broadcast_to(z - kk, shape)[live])
    integrands = []
    for (sel, _), w in zip(terms, samples):
        vals = np.zeros(shape)
        if kv is not None:
            vals[live] = sel(kv)
        vals *= w
        vals *= rho
        integrands.append(vals.ravel())
    return integrands


def _integrate_rules(w_field, terms, r, z, x_edges, y_edges, rules, place):
    """Per-panel integrals of kernel * w * rho over tensor meshes, under a
    value rule and an error rule, for `_integrands`' terms.

    `x_edges`, `y_edges` are the panel meshes of one tensor mesh or, with a
    leading axis, of several; `rules` gives each rule's GL nodes per panel,
    (n_x, n_y), the value rule first.  `place(x, y, weights)` maps a rule's
    x nodes as a column, y nodes as a row (leading axes: the meshes) and
    the weights of their outer product, flat in C order, to (rho, k,
    weights), rho and k broadcasting as `_integrands` takes them and any
    Jacobian folded into the weights.  Returns an array (rule, term,
    panel), each mesh's panels in C order (y fastest).  Each panel's block
    of nodes is summed on its own, so its integral does not depend on the
    panels evaluated with it.
    """
    px, py = np.shape(x_edges)[-1] - 1, np.shape(y_edges)[-1] - 1
    out = []
    for n_x, n_y in rules:
        (xn, xw), (yn, yw) = panel_nodes(x_edges, n_x), panel_nodes(y_edges, n_y)
        rho, kk, w = place(xn[..., :, None], yn[..., None, :],
                           (xw[..., :, None] * yw[..., None, :]).ravel())
        sums = []
        for vals in _integrands(w_field, terms, r, z, rho, kk):
            vals *= w
            sums.append(vals.reshape(-1, px, n_x, py * n_y).sum(axis=2)
                        .reshape(-1, n_y).sum(axis=1))
        out.append(sums)
    return np.array(out)


def _integrate_rect(w_field, terms, r, z, x_edges, y_edges):
    """Tensor GL integrals of kernel * w * rho over rectangle panels.

    `x_edges`, `y_edges` are the rho and k panel meshes of one rectangle,
    or, with a leading axis, of several: refinement hands in its panels as
    meshes of one panel each, edges of shape (P, 2).  The value rule
    (N_NODES GL nodes per panel and direction) and the error rule (N_ERR)
    are one kernel evaluation each over every panel, shared by all
    `terms`.  Returns `_integrate_rules`' array (rule, term, panel).
    """
    return _integrate_rules(w_field, terms, r, z, x_edges, y_edges,
                            ((N_NODES, N_NODES), (N_ERR, N_ERR)),
                            lambda *nodes: nodes)


# each core side's outward normal n and its tangent t, n turned a quarter
# counter-clockwise, as rows (n_rho, n_k, t_rho, t_k)
_SIDE_FRAMES = np.array([(1.0, 0.0, 0.0, 1.0), (0.0, 1.0, -1.0, 0.0),
                         (-1.0, 0.0, 0.0, -1.0), (0.0, -1.0, 1.0, 0.0)])


def _integrate_polar_core(w_field, terms, r, z, s0, panels):
    """Integrals over panels of the square |rho - r| <= s0, |k - z| <= s0.

    Duffy's split: the side with outward normal n and tangent t is the
    triangle (r, z) + s0 u (n + v t), (u, v) in [0, 1] x [-1, 1], with
    Jacobian s0^2 u.  The Jacobian cancels the 1/s kernel singularity at
    u = 0, so the integrand is bounded up to the apex and each panel in
    (u, v) takes a tensor GL rule: N_S_NODES x N_SIDE nodes for the value,
    one u node fewer and half the v nodes for the error.  `panels` are core
    panel rows (side, region, u_a, u_b, v_a, v_b), each a mesh of one
    panel, and all of them go to one kernel call per rule.  Returns
    `_integrate_rules`' array (rule, term, panel).
    """
    n_r, n_k, t_r, t_k = (f[:, None, None] for f
                          in _SIDE_FRAMES[panels[:, 0].astype(int)].T)

    def place(un, vn, w):
        # offsets along the side's normal and along its tangent
        a, b = s0 * un, s0 * un * vn
        return (r + (a * n_r + b * t_r), z + (a * n_k + b * t_k),
                w * s0 * np.broadcast_to(a, b.shape).ravel())

    return _integrate_rules(w_field, terms, r, z, panels[:, 2:4], panels[:, 4:],
                            ((N_S_NODES, N_SIDE), (N_S_NODES - 1, N_SIDE // 2)),
                            place)


def _core_panels():
    """The polar core's first panel rows: on each side, u panels graded
    geometrically over NEAR_DIAG_REFINEMENT levels down to a first panel
    [0, 2^-levels], each across v in [-1, 1]."""
    u_edges = np.concatenate([[0.0], 2.0 ** -np.arange(NEAR_DIAG_REFINEMENT, -1.0, -1.0)])
    return np.concatenate([_mesh_panels(side, REGION_NAMES.index("diagonal"),
                                        u_edges, np.array([-1.0, 1.0]))
                           for side in range(4)])


def _window(w_field, spec, r):
    """What a probe at radius r integrates over, (box, radii).  The radii
    (rho_max, z_max) are 8*max(1, r), which spec.rho_max may only enlarge,
    and widen to each bounded side of the vorticity's support box, so a
    compact field is integrated whole.  The box ((rho_lo, rho_hi), (k_lo,
    k_hi)) is the support box with each unbounded side cut at the radii.
    `radii` is None when every side is bounded; otherwise `_tail_bounds`
    bounds the mass beyond them."""
    z_max = 8.0 * max(1.0, r)
    rho_max = spec.rho_max if spec.rho_max is not None else z_max
    if rho_max < z_max:
        raise ValueError("truncation radii must be >= 8*max(1, r) "
                         "(need %g, got rho_max=%g)" % (z_max, rho_max))
    rho_lo, rho_hi, k_lo, k_hi = (w_field.support if w_field.support is not None
                                  else (0.0, np.inf, -np.inf, np.inf))
    bounded = np.isfinite([rho_hi, k_lo, k_hi])
    rho_max = max(rho_max, rho_hi if bounded[0] else 0.0)
    z_max = max(z_max, -k_lo if bounded[1] else 0.0, k_hi if bounded[2] else 0.0)
    box = ((max(0.0, rho_lo), min(rho_hi, rho_max)),
           (max(-z_max, k_lo), min(k_hi, z_max)))
    return box, None if bounded.all() else (rho_max, z_max)


def _tail_majorants(kernel_kind, beta, r, rho_max, zeta_min):
    """`_tail_bounds`' factors (radial, axial) of the envelope integrals."""
    U = 1.0 + rho_max
    c, log_u = U / (rho_max - r), math.log(U)

    def power(s):       # int_1^U u^s du, which is ln U at s = -1
        t = s + 1.0
        return math.expm1(t * log_u) / t if t else log_u

    if kernel_kind == "g1":
        return (c ** 2 * U ** -beta / beta,
                (power(1.0 - beta) - power(-beta)) / zeta_min ** 2)
    return (c ** 3 * (rho_max + r) / U * U ** -beta / beta,
            (power(2.0 - beta) + (r - 2.0) * power(1.0 - beta)
             - (r - 1.0) * power(-beta)) / zeta_min ** 3)


def _tail_bounds(w_field, kernel_kind, r, z, rho_max, z_max):
    """Closed-form crude-bound majorants for the mass outside the
    truncation radii (rho_max, z_max) of `_window`.  A tail must be
    certifiable, so raises ValueError when the field lacks the decay
    metadata or the axial envelope, or when the probe's |z| is beyond
    z_max / 2, where the axial tail bounds do not hold.

    `kernel_kind` "g1" takes the G1 bounds, "g2" and "g_swirl" (M) the G2
    ones.  Write R = rho_max and U = 1 + R.  Radial tail (rho > R): |G1|
    <= 1/(rho - r)^2 and |G2|, |M| <= (rho + r)/(rho - r)^3 against (1 +
    rho)^-beta, times the envelope integral.  On rho >= R > r > 1, (1 +
    rho)/(rho - r) <= c = U/(R - r) and (rho + r)/(1 + rho) <= (R + r)/U,
    so the rho integrals are at most c^2 U^-beta / beta (G1) and c^3 (R +
    r)/U U^-beta / beta (G2).  Axial tail (|k| > z_max, rho <= R): the
    bounds 1/zeta^2 and (rho + r)/zeta^3 at |z - k| >= zeta = z_max - |z|,
    times the envelope tail integral; with u = 1 + rho their rho integrals
    are exactly I(1 - beta) - I(-beta) and I(2 - beta) + (r - 2) I(1 -
    beta) - (r - 1) I(-beta), where I(s) = int_1^U u^s du.
    """
    if w_field.decay_beta is None:
        raise ValueError(
            "vorticity carries neither a support box nor decay metadata: "
            "truncation tails cannot be certified (nonintegrable tail risk)")
    if w_field.axial_envelope is None:
        raise ValueError("unbounded vorticity needs an axial envelope for "
                         "tail certification")
    if abs(z) > 0.5 * z_max:
        raise ValueError("probe |z| must stay below z_max / 2 for valid "
                         "axial tail bounds")
    env, beta = w_field.axial_envelope, w_field.decay_beta
    radial, axial = _tail_majorants(kernel_kind, beta, r, rho_max, z_max - abs(z))
    return env.integral() * radial + env.tail_integral(z_max) * axial


def _mesh_panels(kind, region, x_edges, y_edges):
    """The panels of a tensor mesh as rows (kind, region, x_a, x_b, y_a,
    y_b), in C order (y fastest)."""
    px, py = len(x_edges) - 1, len(y_edges) - 1
    return np.column_stack([np.full(px * py, kind), np.full(px * py, region),
                            np.repeat(x_edges[:-1], py), np.repeat(x_edges[1:], py),
                            np.tile(y_edges[:-1], px), np.tile(y_edges[1:], px)])


def _quarters(panels):
    """The 2 x 2 split of each panel row, four rows per panel, each with its
    parent's kind and region."""
    kind, region, xa, xb, ya, yb = panels.T
    xm, ym = 0.5 * (xa + xb), 0.5 * (ya + yb)
    return np.stack([np.stack((kind, region) + q, axis=-1) for q in (
        (xa, xm, ya, ym), (xa, xm, ym, yb), (xm, xb, ya, ym),
        (xm, xb, ym, yb))], axis=1).reshape(-1, 6)


class _Leaves:
    """One component's panels, rectangle panels and the polar core's Duffy
    panels, as rows (kind, region, a, b, c, d) of one float table: the kind
    is RECT or the core side 0-3, the region an index into REGION_NAMES,
    and (a, b, c, d) the panel's box in its own coordinates, (rho_a, rho_b,
    k_a, k_b) or (u_a, u_b, v_a, v_b).  Each panel has its per-term value
    and error |hi - lo|."""

    def __init__(self, panels, values, errors):
        self.panels, self.values, self.errors = panels, values, errors
        self.generation = 0

    def term_errors(self):
        return self.errors.sum(axis=1)

    def integrals(self):
        return ({name: self.values[:, self.panels[:, 1] == i].sum(axis=1)
                 for i, name in enumerate(REGION_NAMES)}, self.term_errors())

    def plan(self, tol):
        """The panels to split in the next generation.

        None once the error meets tol.  The first generation splits every
        panel with a nonzero value or error: the value and error rules can
        err alike at a steep edge of the vorticity, and only a finer sample
        shows it.  Later ones split the worst panels until the rest hold
        less than SPLIT_TARGET * tol.
        """
        if sum(self.term_errors()) <= tol:
            return np.zeros(0, dtype=int)
        err = self.errors.sum(axis=0)
        if self.generation == 0:
            return np.flatnonzero((err > 0) | np.any(self.values != 0, axis=0))
        order = np.argsort(-err, kind="stable")
        rest = np.append(np.cumsum(err[order][::-1])[::-1], 0.0)
        return order[:int(np.argmax(rest < SPLIT_TARGET * tol))]

    def split(self, split, values, errors):
        """Replace the panels `split` by their quarters, whose values and
        errors come in `_quarters` order.  A quarter's error is at least a
        quarter of the distance between its panel's value and the sum of
        the four quarters, so a panel whose rules erred alike passes that
        error on."""
        diff = np.abs(self.values[:, split]
                      - values.reshape(len(values), -1, 4).sum(axis=2))
        errors = np.maximum(errors, np.repeat(diff / 4, 4, axis=1))
        keep = np.ones(len(self.panels), dtype=bool)
        keep[split] = False
        self.panels = np.concatenate([self.panels[keep],
                                      _quarters(self.panels[split])])
        self.values = np.concatenate([self.values[:, keep], values], axis=1)
        self.errors = np.concatenate([self.errors[:, keep], errors], axis=1)
        self.generation += 1


def _component_integral(components, w_field, p, spec, box):
    """Region-decomposed integrals of kernel * w * rho over `_window`'s
    box ((rho_lo, rho_hi), (k_lo, k_hi)).

    `components` maps each name to its terms, (kernel selector, slot of
    w_field) pairs.  Generation 0 puts the fixed rules on each rectangle's
    graded mesh and on the polar core's panels, every term sharing each
    node set and kernel evaluation, and gives every component its own
    leaves: those panel rows with their own values and |hi - lo|.  A component
    whose summed error meets spec.tol is done; every other one splits its
    leaves (see `_Leaves.plan`) until its error meets tol or a split would
    take it past PANEL_BUDGET panels.  The new panels of a generation are
    evaluated together, once per distinct row, so each component's
    integrals are those it gets alone.  Returns name -> (per-region values,
    per-term error estimates); each region value is an array with one entry
    per term.  Raises ValueError when a panel's value or error is
    non-finite (a vorticity sample that is not a finite number).
    """
    r, z = p.r, p.z
    (b1, b2, b3, b4, b5), w_half = _region_edges(r, spec.gamma)
    (rho_lo, rho_hi), (k_lo, k_hi) = box

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
             ("far_tail", (b5, rho_hi), full, far))
    # (region index, rho mesh, k mesh): meshes graded toward rho = r and
    # toward k = z and k = 0 with the axial feature scale, plus uniform
    # panels at a short profile resolution
    rects = []
    for name, (ra, rb), (ka, kb), k_scale in spans:
        ra, rb = max(ra, rho_lo), min(rb, rho_hi)
        if rb > ra and kb > ka:
            scale = max(k_scale, 1e-12)
            rects.append((REGION_NAMES.index(name),
                          _resolution_edges(graded_mesh(ra, rb, [r, 0.0], scale), res),
                          _resolution_edges(graded_mesh(ka, kb, [z, 0.0], scale), res)))
    # a core outside the support box has no panels
    core = _core_panels()
    if r + s0 <= rho_lo or r - s0 >= rho_hi or z + s0 <= k_lo or z - s0 >= k_hi:
        core = core[:0]

    def joint(names):
        """The terms of `names` in order, and each name's slice of them."""
        terms, owns = [], {}
        for name in names:
            owns[name] = slice(len(terms), len(terms) + len(components[name]))
            terms += components[name]
        return terms, owns

    def integrate(terms, panels):
        """(hi, lo) on the panel rows `panels`: one kernel call per rule for
        the rectangle panels and one for the core's."""
        out = np.empty((2, len(terms), len(panels)))
        rect = panels[:, 0] == RECT
        if rect.any():
            out[:, :, rect] = _integrate_rect(w_field, terms, r, z,
                                              panels[rect, 2:4], panels[rect, 4:])
        if not rect.all():
            out[:, :, ~rect] = _integrate_polar_core(w_field, terms, r, z, s0,
                                                     panels[~rect])
        return out

    def checked(hi, lo, panels):
        """(hi, |hi - lo|) of the new panel rows `panels`, all finite."""
        errors = np.abs(hi - lo)
        finite = np.all(np.isfinite(hi) & np.isfinite(errors), axis=0)
        if not finite.all():
            raise ValueError(
                "non-finite %s integral at probe (r=%g, z=%g): the vorticity "
                "must be finite on the window"
                % (REGION_NAMES[int(panels[np.argmin(finite), 1])], r, z))
        return hi, errors

    # generation 0: each rectangle's mesh as one rho column x k row, which
    # a separable weight evaluates per column and per row, and the core
    terms, owns = joint(list(components))
    panels = np.concatenate([_mesh_panels(RECT, i, x, y) for i, x, y in rects]
                            + [core])
    values, errors = checked(*np.concatenate(
        [_integrate_rect(w_field, terms, r, z, x, y) for _, x, y in rects]
        + [integrate(terms, core)], axis=2), panels)
    pending = {name: _Leaves(panels, values[own], errors[own])
               for name, own in owns.items()}

    done = {}
    while True:
        splits = {}
        for name, leaves in list(pending.items()):
            split = leaves.plan(spec.tol)
            if (not split.size
                    or len(leaves.panels) + 3 * split.size > PANEL_BUDGET):
                done[name] = leaves.integrals()
                del pending[name]
            else:
                splits[name] = split
        if not splits:
            return done
        # each distinct panel is split and evaluated once; a component reads
        # its quarters at `cols`
        parents, cols = {}, {}
        for name, split in splits.items():
            index = [parents.setdefault(row.tobytes(), (len(parents), row))[0]
                     for row in pending[name].panels[split]]
            cols[name] = (4 * np.array(index)[:, None] + np.arange(4)).ravel()
        quarters = _quarters(np.array([row for _, row in parents.values()]))
        terms, owns = joint(list(splits))
        values, errors = checked(*integrate(terms, quarters), quarters)
        for name, own in owns.items():
            pending[name].split(splits[name], values[own][:, cols[name]],
                                errors[own][:, cols[name]])


# component -> its terms (kernel, vorticity slot, sign): `kernel` names
# the KernelValues field and the tail majorant
COMPONENTS = {
    "u_r": (("g1", "w_theta", 1.0),),
    "u_z": (("g2", "w_theta", -1.0),),
    "u_theta": (("g_swirl", "w_z", 1.0), ("g1", "w_r", -1.0)),
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
    box, radii = _window(w_field, spec, p.r)
    # each tail is bounded, and one that cannot be certified fails, before
    # any kernel is evaluated
    tails = {c: sum(_tail_bounds(w_field, kernel, p.r, p.z, *radii)
                    for kernel, _, _ in COMPONENTS[c]) if radii else 0.0
             for c in components}
    integrals = _component_integral(
        {c: [(attrgetter(kernel), slot) for kernel, slot, _ in COMPONENTS[c]]
         for c in components}, w_field, p, spec, box)
    results = {}
    for component in components:
        terms = COMPONENTS[component]
        regions, errors = integrals[component]
        per_region = {name: float(sum(sign * v for (_, _, sign), v
                                      in zip(terms, values)))
                      for name, values in regions.items()}
        quad_err = float(sum(errors))
        results[component] = ReconstructionResult(
            value=sum(per_region.values()), per_region=per_region,
            tail_bound=tails[component], quad_err=quad_err,
            tol_met=quad_err <= spec.tol, component=component, r=p.r, z=p.z)
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


def decay_trace(w_field, component, r_ladder, z=0.0):
    """The signed ReconstructionResult of `component` at each rung (r, z)
    of an increasing radius ladder.

    Per-point absolute tolerances follow the predicted decay envelope from
    TRACE_REL_TOL of the first |value|, so the fractional accuracy stays
    roughly constant as values shrink.  gamma comes from the
    closed-form split for the profile's beta.  `z` is a fixed probe
    height or a sequence matching the ladder (the decay envelopes are
    uniform in z, so sweeping z = r/2 or z = r is a uniformity spot-check).
    """
    if component not in COMPONENTS:
        raise ValueError("component must be one of %s" % (sorted(COMPONENTS),))
    r_ladder = [float(r) for r in r_ladder]
    if not r_ladder:
        raise ValueError("trace ladder is empty")
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
        spec = replace(spec, gamma=optimize_split(beta).gamma)
        envelope = predicted_decay(beta).envelope
        # slow radial decay needs a wider truncation window for the tail
        # majorant to stay well under the shrinking values
        if beta < 2.5:
            factor = 64.0 if beta < 2.0 else 16.0
            spec = replace(spec, rho_max=factor * max(1.0, r_ladder[-1]))

    rec = _RECONSTRUCTORS[component]
    results = [rec(w_field, MeridianPoint(r_ladder[0], z_ladder[0]), spec)]
    base_tol = max(TRACE_REL_TOL * abs(results[0].value), spec.tol)
    for r, z_r in zip(r_ladder[1:], z_ladder[1:]):
        tol_r = max(base_tol * envelope(r) / envelope(r_ladder[0]), 1e-14)
        results.append(rec(w_field, MeridianPoint(r, z_r), replace(spec, tol=tol_r)))
    return results
