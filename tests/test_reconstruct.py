from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from meridian.cli import DEFAULTS, PROBE_R_MIN, ROUNDTRIP_FIELDS
from meridian.fields import (AxialEnvelope, MeridianPoint, VorticityField,
                             power_law_vorticity, stream_bump_field,
                             swirl_bump_field)
from meridian.kernels import kernel_batch, kernel_triple
from meridian.profiles import Profile, SmoothBump, zero_profile
from meridian.quadrature import panel_nodes
from meridian.reconstruct import (NEAR_DIAG_REFINEMENT, N_ERR, N_NODES,
                                  N_S_NODES, N_SIDE, QuadratureSpec,
                                  _core_panels, _integrands,
                                  _integrate_polar_core, _integrate_rect,
                                  _Leaves, _mesh_boxes, _quarters,
                                  _resolution_edges, decay_trace, reconstruct,
                                  reconstruct_ur, reconstruct_utheta,
                                  reconstruct_uz)


def fine_grid_reference(w_field, p, component, n_pan=80, n_nodes=10):
    """Independent quadrature: composite GL tensor grid over the compact
    support, kernels from the closed-form batch evaluator (itself validated
    against the adaptive oracle and full-period quadrature)."""
    slo, shi, klo, khi = w_field.support
    rn, rw = panel_nodes(np.linspace(slo, shi, n_pan + 1), n_nodes)
    kn, kw = panel_nodes(np.linspace(klo, khi, n_pan + 1), n_nodes)
    RR = np.repeat(rn, kn.size)
    KK = np.tile(kn, rn.size)
    WW = np.repeat(rw, kn.size) * np.tile(kw, rn.size)
    kb = kernel_batch(p.r, RR, p.z - KK)
    if component == "u_r":
        contrib = kb.g1 * w_field.w_theta(RR, KK)
    elif component == "u_z":
        contrib = -kb.g2 * w_field.w_theta(RR, KK)
    else:
        contrib = kb.g_swirl * w_field.w_z(RR, KK) - kb.g1 * w_field.w_r(RR, KK)
    return float(np.sum(contrib * RR * WW))


def per_ray_polar_core(kernel_sel, weight, r, z, s0, n_theta, n_s, levels,
                       resolution):
    """An independent polar rule for the core square, one ray at a time:
    the trapezoid rule in the angle, graded GL panels along each ray."""
    h = 2.0 * np.pi / n_theta
    total = 0.0
    for theta in np.arange(n_theta) * h:
        c, s_ang = np.cos(theta), np.sin(theta)
        s_max = s0 / max(abs(c), abs(s_ang))
        edges = s_max * 2.0 ** (-np.arange(levels + 1.0)[::-1])
        edges = _resolution_edges(edges, resolution)
        sn, sw = panel_nodes(edges, n_s)
        rho, kk = r + sn * c, z + sn * s_ang
        vals = kernel_sel(kernel_batch(r, rho, z - kk)) * weight(rho, kk) * rho * sn
        total += float(np.dot(sw, vals)) * h
    return total


def integrate_core(terms, r, z, s0, sides, boxes):
    """`_integrate_polar_core` on the panels `boxes` (u_a, u_b, v_a, v_b)."""
    return _integrate_polar_core(terms, r, z, s0, sides, boxes[:, :2],
                                 boxes[:, 2:])


def test_polar_core_matches_fine_polar_reference():
    # the trapezoid rule converges like h^2 across the square's diagonals,
    # so 4096 angles put the reference well inside the core's certificate,
    # on the first panels and on their quarters
    _, w = stream_bump_field(r0=3.0, radius=1.0)
    r, z, s0, res = 3.5, 0.4, 0.5, w.resolution
    term = (lambda kv: kv.g1, w.w_theta)
    ref = per_ray_polar_core(*term, r, z, s0, 4096, 10, 30, res)
    sides, boxes = _core_panels()
    for split in (False, True):
        if split:
            sides, boxes = np.repeat(sides, 4), _quarters(boxes)
        (hi,), (lo,) = integrate_core([term], r, z, s0, sides, boxes)
        assert abs(hi.sum() - ref) <= np.abs(hi - lo).sum()


@pytest.mark.parametrize("r, z, s0", [(3.5, 0.4, 0.5), (10.0, 1.0, 0.5),
                                      (2.0, -0.3, 0.25)])
def test_polar_core_is_exact_on_a_linear_integrand(r, z, s0):
    # kernel 1 and weight 1 leave rho, whose integral over the square is
    # 4 s0^2 r; the Duffy map makes it a polynomial in (u, v)
    term = (lambda kv: 1.0, lambda rho, k: np.ones_like(rho))
    (hi,), (lo,) = integrate_core([term], r, z, s0, *_core_panels())
    assert hi.sum() == pytest.approx(4.0 * s0 ** 2 * r, rel=1e-12)
    # both rules reach the apex u = 0, so neither omits a strip there
    assert np.abs(hi - lo).sum() <= 1e-12


def test_polar_core_makes_one_kernel_call_per_rule(monkeypatch):
    # all four sides share a call; the lo rule has one u node fewer and half
    # the v nodes; the u mesh has NEAR_DIAG_REFINEMENT geometric panels
    # plus the first panel [0, 2^-levels] at the apex
    calls = recording_kernel_batch(monkeypatch)
    term = (lambda kv: kv.g1, lambda rho, k: np.ones_like(rho))
    sides, boxes = _core_panels()
    integrate_core([term], 3.5, 0.4, 0.5, sides, boxes)
    n_panels = NEAR_DIAG_REFINEMENT + 1
    assert np.array_equal(sides, np.repeat(np.arange(4), n_panels))
    per_side = [n_panels * N_S_NODES * N_SIDE,
                n_panels * (N_S_NODES - 1) * (N_SIDE // 2)]
    assert [rho.size for rho, _ in calls] == [4 * n for n in per_side]


@pytest.mark.parametrize("r0", [3.2, 3.5, 3.8])
def test_core_certificate_holds_at_the_bump_edge(r0):
    # u_z at the second probe of the CLI's random layout with seed 2,
    # (r0 - 0.657, -1.224), next to the edge of the bump's support
    rng = np.random.default_rng(2)
    r = rng.uniform(r0 - 2.0, r0 + 2.5, 2)[1]
    z = rng.uniform(-1.5, 1.5, 2)[1]
    assert (r - r0, z) == (pytest.approx(-0.657, abs=1e-3),
                           pytest.approx(-1.224, abs=1e-3))
    field, w = stream_bump_field(r0=r0, radius=1.0)
    res = reconstruct_uz(w, MeridianPoint(r, z))
    assert abs(res.value - float(field.u_z(r, z))) <= res.total_error


# each id is the case's error against its certificate when it was found,
# with tol_met True; the first and the last three met tol in generation 0
# while its estimate was |hi - lo| of each whole mesh, not of each panel
@pytest.mark.parametrize("bump, name, centre, probe", [
    (swirl_bump_field, "u_theta", dict(r0=3.95296, z0=-0.951704),
     (2.03, 1.334)),
    (swirl_bump_field, "u_theta",
     dict(r0=2.963131158523197, z0=-0.5693170724567977, radius=0.8),
     (4.417, 1.017)),
    (stream_bump_field, "u_z",
     dict(r0=3.160802906204518, z0=0.7286579120819869),
     (4.4266835328071945, -1.3264406287302624)),
    (swirl_bump_field, "u_theta",
     dict(r0=3.267293832587711, z0=-0.4798051045255536),
     (4.233147624013029, 0.8612908246644029)),
    (swirl_bump_field, "u_theta",
     dict(r0=3.0607737394915406, z0=0.8417705064644236, radius=0.8),
     (3.9776929688691927, -0.16788142506924553)),
], ids=["u_theta-6.5e-7-vs-3.2e-7", "u_theta-1.2e-6-vs-7.7e-7",
        "u_z-3.7e-6-vs-7.9e-7", "u_theta-2.3e-6-vs-4.3e-7",
        "u_theta-2.1e-6-vs-4.3e-7"])
def test_certificate_at_a_bump(bump, name, centre, probe):
    field, w = bump(**centre)
    res = reconstruct(w, MeridianPoint(*probe), (name,))[name]
    exact = float(getattr(field, name)(np.asarray(probe[0]),
                                       np.asarray(probe[1])))
    assert res.tol_met and abs(res.value - exact) <= res.total_error


def recording_kernel_batch(monkeypatch):
    """Patch the reconstruction's kernel_batch to record each call's nodes."""
    import meridian.reconstruct as rec
    calls = []

    def recording(r, rho, zeta, *args, **kwargs):
        calls.append((np.array(rho), np.array(zeta)))
        return kernel_batch(r, rho, zeta, *args, **kwargs)

    monkeypatch.setattr(rec, "kernel_batch", recording)
    return calls


def test_utheta_terms_share_each_kernel_evaluation(monkeypatch):
    # u_theta's two terms come from one kernel call per node set: here two
    # per rectangle mesh and two for the core in generation 0, two for
    # rectangle and two for core quarters in the first split, and two for
    # rectangle quarters in the second
    calls = recording_kernel_batch(monkeypatch)
    _, w = swirl_bump_field()
    reconstruct_utheta(w, MeridianPoint(2.6, 0.2))
    node_sets = [(rho.tobytes(), zeta.tobytes()) for rho, zeta in calls]
    assert len(node_sets) == 18
    assert len(set(node_sets)) == len(node_sets)


def joint_and_single_costs(monkeypatch, probe, tol):
    """(u_r and u_z jointly, each alone, and the cost of each alone and of
    the joint call: kernel calls, w_theta samples, kernel points)."""
    _, w = stream_bump_field()
    samples = []

    def w_theta(rho, k, base=w.w_theta):
        samples.append(rho.size)
        return base(rho, k)

    w = replace(w, w_theta=Profile(fn=w_theta))
    p, spec = MeridianPoint(*probe), QuadratureSpec(tol=tol)
    calls = recording_kernel_batch(monkeypatch)

    def cost():
        return len(calls), len(samples), sum(rho.size for rho, _ in calls)

    single, costs = {}, {}
    for name, rec in (("u_r", reconstruct_ur), ("u_z", reconstruct_uz)):
        del calls[:], samples[:]
        single[name] = rec(w, p, spec)
        costs[name] = cost()
    del calls[:], samples[:]
    joint = reconstruct(w, p, ("u_r", "u_z"), spec)
    return joint, single, costs, cost()


def test_joint_reconstruction_equals_single_calls(monkeypatch):
    # here u_z splits panels for two generations and u_r for three:
    # jointly u_z leaves after the second, and u_r goes on with the node
    # sets it gets alone, so the joint call makes the calls of u_r alone
    joint, single, costs, cost = joint_and_single_costs(
        monkeypatch, (4.0, 1.0), 3e-6)
    assert {name: c[:2] for name, c in costs.items()} == {
        "u_r": (10, 12), "u_z": (8, 10)}
    assert joint == single
    assert cost[:2] == costs["u_r"][:2]


def test_joint_reconstruction_equals_single_calls_when_both_refine(
        monkeypatch):
    # both refine for three generations, not all on the same panels: jointly
    # each generation's new panels are one node set per rule and kind, each
    # distinct panel evaluated once, so the joint call makes the calls of
    # either alone on more points than either and fewer than both
    joint, single, costs, cost = joint_and_single_costs(
        monkeypatch, (2.5, 1.0), 1e-6)
    assert {name: c[:2] for name, c in costs.items()} == {
        "u_r": (22, 22), "u_z": (22, 22)}
    assert joint == single
    assert cost[:2] == (22, 22)
    points = sorted(c[2] for c in costs.values())
    assert points[1] < cost[2] < sum(points)


# bump centres spanning the benchmark's r0 draw in [3.2, 3.8]; with the
# CLI's random layouts at seeds 0-3 and both kinds, 240 reconstructions
TRAFFIC_R0 = (3.2, 3.25, 3.3, 3.4, 3.45, 3.5, 3.6, 3.65, 3.7, 3.8)


def test_certificates_on_roundtrip_traffic():
    # r0 = 3.25 at seed 2 holds u_r at (2.4273, 0.9427), where an error
    # of 2.3e-7 once exceeded a certificate of 1.4e-7
    threshold = DEFAULTS["roundtrip.threshold"][0]
    unmet, violations, gates, failed = [], [], 0, []
    for r0 in TRAFFIC_R0:
        for seed in range(4):
            # the probes cmd_roundtrip draws for a random layout of two
            rng = np.random.default_rng(seed)
            rs = rng.uniform(max(PROBE_R_MIN, r0 - 2.0), r0 + 2.5, 2)
            zs = rng.uniform(-1.5, 1.5, 2)
            for factory, names in ROUNDTRIP_FIELDS.values():
                field, w = factory(r0=r0, radius=1.0)
                sums = {name: [0.0, 0.0] for name in names}
                for r, z in zip(rs.tolist(), zs.tolist()):
                    found = reconstruct(w, MeridianPoint(r, z), names)
                    for name, res in found.items():
                        exact = float(getattr(field, name)(np.asarray(r),
                                                           np.asarray(z)))
                        case = (r0, seed, name, r, z)
                        if not res.tol_met:
                            unmet.append(case)
                        if abs(res.value - exact) > res.total_error:
                            violations.append(case)
                        sums[name][0] += (res.value - exact) ** 2
                        sums[name][1] += exact ** 2
                for name, (err2, ref2) in sums.items():
                    gates += 1
                    rel = np.sqrt(err2 / ref2) if ref2 > 0 else np.sqrt(err2)
                    if not rel < threshold:
                        failed.append((r0, seed, name))
    assert gates == 120
    assert unmet == [] and violations == []
    assert len(failed) <= 10


def test_certificates_on_random_bumps():
    # the random-field half of the certificate harness, seeded: bump centres
    # in [2.2, 4] x [-1, 1] at radius 1 and 0.8, stream and swirl bumps
    # alternating, six probes each in [1.5, 5.5] x [-1.5, 1.5]; 108
    # reconstructions
    rng = np.random.default_rng(20261019)
    kinds = ((stream_bump_field, ("u_r", "u_z")),
             (swirl_bump_field, ("u_theta",)))
    count, misses = 0, []
    for radius in (1.0, 0.8):
        for i in range(6):
            factory, names = kinds[i % 2]
            centre = dict(r0=rng.uniform(2.2, 4.0), z0=rng.uniform(-1.0, 1.0),
                          radius=radius)
            field, w = factory(**centre)
            for r, z in zip(rng.uniform(1.5, 5.5, 6).tolist(),
                            rng.uniform(-1.5, 1.5, 6).tolist()):
                for name, res in reconstruct(w, MeridianPoint(r, z),
                                             names).items():
                    count += 1
                    exact = float(getattr(field, name)(np.asarray(r),
                                                       np.asarray(z)))
                    if not (res.tol_met
                            and abs(res.value - exact) <= res.total_error):
                        misses.append((centre, name, r, z))
    assert count == 108 and misses == []


def test_a_u_r_kernel_batch_never_forms_j2(monkeypatch):
    # J2 feeds G3 alone, which no reconstruction term reads
    import meridian.reconstruct as rec
    batches = []

    def recording(*args, **kwargs):
        batches.append(kernel_batch(*args, **kwargs))
        return batches[-1]

    monkeypatch.setattr(rec, "kernel_batch", recording)
    _, w = stream_bump_field()
    reconstruct_ur(w, MeridianPoint(3.2, 0.3))
    assert batches and all("j2" not in vars(kv) for kv in batches)
    assert all("g1" in vars(kv) for kv in batches)


def test_a_panel_integral_does_not_depend_on_its_batch():
    # a panel of a generation-0 mesh, evaluated alone or among others as a
    # refinement panel, or for fewer terms, gives the bits it gets in its
    # mesh, whose panels sum to the mesh integrals; so does a core panel
    _, w = stream_bump_field()
    terms = [(lambda kv: kv.g1, w.w_theta), (lambda kv: kv.g2, w.w_theta)]
    x_edges, y_edges = np.linspace(2.2, 3.8, 5), np.linspace(-0.7, 0.9, 4)
    mesh = _integrate_rect(terms, 3.9, 0.4, x_edges, y_edges)
    assert mesh.shape == (2, 2, 12)
    for rule, n in enumerate((N_NODES, N_ERR)):
        (rho, rw), (kk, kw) = panel_nodes(x_edges, n), panel_nodes(y_edges, n)
        sums = [vals @ np.outer(rw, kw).ravel()
                for vals in _integrands(terms, 3.9, 0.4, rho[:, None], kk)]
        assert np.allclose(mesh[rule].sum(axis=1), sums, rtol=1e-13, atol=0.0)
    boxes = _mesh_boxes(x_edges, y_edges)
    for pick in ([5], [5, 0, 11], list(range(12))):
        alone = _integrate_rect(terms, 3.9, 0.4, boxes[pick, :2], boxes[pick, 2:])
        assert np.array_equal(alone, mesh[:, :, pick])
    second = _integrate_rect(terms[1:], 3.9, 0.4, boxes[:, :2], boxes[:, 2:])
    assert np.array_equal(second, mesh[:, 1:])

    sides, boxes = _core_panels()
    core = integrate_core(terms, 3.3, 0.2, 0.2, sides, boxes)
    assert core.shape == (2, 2, len(sides)) and np.all(core[0] != 0.0)
    for pick in ([5], [70, 5, 30], list(range(len(sides)))[::-1]):
        alone = integrate_core(terms, 3.3, 0.2, 0.2, sides[pick], boxes[pick])
        assert np.array_equal(alone, core[:, :, pick])
    second = integrate_core(terms[1:], 3.3, 0.2, 0.2, sides, boxes)
    assert np.array_equal(second, core[:, 1:])


def test_a_component_past_the_panel_budget_misses_tol(monkeypatch):
    import meridian.reconstruct as rec
    _, w = stream_bump_field()
    p = MeridianPoint(2.5, 1.0)
    assert reconstruct_ur(w, p).tol_met
    monkeypatch.setattr(rec, "PANEL_BUDGET", 1000)
    res = reconstruct_ur(w, p)
    assert not res.tol_met and res.quad_err > QuadratureSpec().tol


@pytest.mark.parametrize("w, s0", [
    (stream_bump_field(radius=1.0)[1], 0.2),
    (stream_bump_field(radius=0.8)[1], 0.16),
    (power_law_vorticity(3.0), 0.5),
])
def test_polar_core_stays_within_the_profile_resolution(monkeypatch, w, s0):
    import meridian.reconstruct as rec
    seen = []
    core = rec._integrate_polar_core

    def recording(terms, r, z, s0, *args, **kwargs):
        seen.append(s0)
        return core(terms, r, z, s0, *args, **kwargs)

    monkeypatch.setattr(rec, "_integrate_polar_core", recording)
    reconstruct_ur(w, MeridianPoint(3.1, 0.2))
    assert seen and all(x == pytest.approx(s0) for x in seen)


def test_joint_reconstruction_of_every_component_equals_single_calls():
    # w_theta and (w_r, w_z) come from bumps at different centres, so the
    # joint kernel calls run on the union of the two live node sets
    _, ws = stream_bump_field(r0=3.0)
    _, wt = swirl_bump_field(r0=3.5, z0=0.4)
    w = _on_common_nodes(ws, wt, w_theta=ws.w_theta, w_r=wt.w_r, w_z=wt.w_z)
    p = MeridianPoint(3.2, 0.3)
    single = {"u_theta": reconstruct_utheta(w, p), "u_r": reconstruct_ur(w, p),
              "u_z": reconstruct_uz(w, p)}
    assert reconstruct(w, p, tuple(single)) == single


@pytest.mark.parametrize("r", [10.0, 40.0])
def test_each_component_reads_only_the_slots_its_terms_name(r):
    # the power-law field fills every slot; zeroing the slots a component
    # does not read leaves its result unchanged, bit for bit
    w = power_law_vorticity(3.0)
    p = MeridianPoint(r, 1.0)
    zero = zero_profile()
    swirl_only = replace(w, w_r=zero, w_z=zero)
    meridian_only = replace(w, w_theta=zero)
    expected = dict(reconstruct(swirl_only, p, ("u_r", "u_z")),
                    **reconstruct(meridian_only, p, ("u_theta",)))
    assert reconstruct(w, p, ("u_r", "u_z", "u_theta")) == expected


@pytest.mark.parametrize("h", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r, z", [(10.0, 1.0), (5.0, 0.3)])
def test_compact_envelope_certificate_at_narrow_and_wide_sizes(h, r, z):
    # the support box makes the envelope's jumps at k = +-h rectangle
    # edges, so the reference does not straddle them in the rectangles; it
    # does not clip the polar core, which at h = 0.5, (5, 0.3) straddles
    # k = h in both computations
    w = power_law_vorticity(3.0, AxialEnvelope("compact", scale=h))
    ref_w = replace(w, support=(0.0, np.inf, -h, h))
    p = MeridianPoint(r, z)
    res = reconstruct_ur(w, p)
    ref = reconstruct_ur(ref_w, p, QuadratureSpec(tol=1e-10))
    assert abs(res.value - ref.value) <= res.total_error


# u_r's polar core at (5, 0.3) with s0 = 0.25 for
# power_law_vorticity(3, AxialEnvelope("compact", 0.5)): scipy dblquad of
# kernel_batch(...).g1 * w * rho over the four quarter squares about the
# probe, the upper two split at the jump k = 0.5 (epsabs 1e-13, each piece's
# error estimate below 1e-13; about 15 s)
CORE_JUMP_REFERENCE = 6.1664696e-5


def test_polar_core_estimate_covers_a_jump_inside_the_core():
    # the core's panels, refined as a component refines its panels until
    # their error meets tol, bracket the reference across the jump
    w = power_law_vorticity(3.0, AxialEnvelope("compact", scale=0.5))
    terms, r, z, s0, tol = [(lambda kv: kv.g1, w.w_theta)], 5.0, 0.3, 0.25, 1e-6
    sides, boxes = _core_panels()
    hi, lo = integrate_core(terms, r, z, s0, sides, boxes)
    leaves = _Leaves(sides, np.zeros_like(sides), boxes, hi, np.abs(hi - lo))
    while (split := leaves.plan(tol)).size:
        hi, lo = integrate_core(terms, r, z, s0, np.repeat(leaves.kind[split], 4),
                                _quarters(leaves.boxes[split]))
        leaves.split(split, hi, np.abs(hi - lo))
    assert leaves.generation > 1 and leaves.errors.sum() <= tol
    assert abs(leaves.values.sum() - CORE_JUMP_REFERENCE) <= leaves.errors.sum()


def integrand_nodes(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    return rng.uniform(1.5, 6.0, n), rng.uniform(-3.0, 3.0, n)


def plain_integrand(sel, weight, r, z, rho, kk):
    return sel(kernel_batch(r, rho, z - kk)) * weight(rho, kk) * rho


def test_integrands_match_plain_formula_with_zero_weights(monkeypatch):
    r, z = 3.0, 0.4
    rho, kk = integrand_nodes()
    base = power_law_vorticity(3.0).w_theta
    weight = lambda rho, k: np.where(k > 0.0, base(rho, k), 0.0)
    share_zero = np.mean(weight(rho, kk) == 0.0)
    assert 0.4 < share_zero < 0.6
    sel = lambda kv: kv.g1
    expected = plain_integrand(sel, weight, r, z, rho, kk)
    calls = recording_kernel_batch(monkeypatch)
    (vals,) = _integrands([(sel, weight)], r, z, rho, kk)
    assert np.array_equal(vals, expected)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], rho[kk > 0.0])


def test_integrands_live_set_is_union_over_terms(monkeypatch):
    r, z = 3.0, 0.4
    rho, kk = integrand_nodes()
    base = power_law_vorticity(3.0).w_theta
    w1 = lambda rho, k: np.where(k > 0.5, base(rho, k), 0.0)
    w2 = lambda rho, k: np.where(rho > 3.5, -2.0 * base(rho, k), 0.0)
    terms = [(lambda kv: kv.g_swirl, w1), (lambda kv: kv.g1, w2)]
    expected = [plain_integrand(sel, w, r, z, rho, kk) for sel, w in terms]
    calls = recording_kernel_batch(monkeypatch)
    vals = _integrands(terms, r, z, rho, kk)
    live = (kk > 0.5) | (rho > 3.5)
    assert 0 < live.sum() < live.size
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], rho[live])
    assert np.array_equal(calls[0][1], z - kk[live])
    for got, want in zip(vals, expected):
        assert np.array_equal(got, want)


def test_integrands_of_a_column_and_a_row_equal_the_flat_nodes():
    # a rectangle's rho column and k row give, bit for bit, the integrands
    # of the flat node set that repeats the column and tiles the row
    rho, kk = np.linspace(1.5, 6.0, 37)[:, None], np.linspace(-3, 3, 29)[None, :]
    flat = np.repeat(rho.ravel(), kk.size), np.tile(kk.ravel(), rho.size)
    _, wb = swirl_bump_field(r0=3.5, z0=0.4)
    power = power_law_vorticity(3.0, AxialEnvelope("compact", 1.0)).w_theta
    terms = [(lambda kv: kv.g_swirl, wb.w_z), (lambda kv: kv.g1, power),
             (lambda kv: kv.g2, lambda rho, k: np.ones_like(rho))]
    got = _integrands(terms, 3.0, 0.4, rho, kk)
    for g, want in zip(got, _integrands(terms, 3.0, 0.4, *flat)):
        assert g.shape == want.shape and np.array_equal(g, want)


def test_integrands_nan_weight_is_live(monkeypatch):
    r, z = 3.0, 0.4
    rho, kk = integrand_nodes(n=50)
    weight = lambda rho, k: np.where(np.arange(rho.size) == 7, np.nan, 0.0)
    calls = recording_kernel_batch(monkeypatch)
    (vals,) = _integrands([(lambda kv: kv.g1, weight)], r, z, rho, kk)
    assert len(calls) == 1
    assert np.array_equal(calls[0][0], rho[7:8])
    assert np.isnan(vals[7])
    assert np.all(vals[np.arange(rho.size) != 7] == 0.0)


def test_integrands_skip_the_kernel_call_when_every_weight_is_zero(
        monkeypatch):
    rho, kk = integrand_nodes(n=50)
    calls = recording_kernel_batch(monkeypatch)
    (vals,) = _integrands([(lambda kv: kv.g1, zero_profile())], 3.0, 0.4,
                          rho, kk)
    assert calls == []
    assert np.all(vals == 0.0) and vals.shape == rho.shape


def test_far_probe_sends_only_live_nodes_to_the_kernels(monkeypatch):
    # at (160, 160) the Gaussian axial envelope underflows to 0 on the whole
    # polar core and on the rectangles next to the probe
    import meridian.reconstruct as rec
    w = power_law_vorticity(3.0)
    calls = recording_kernel_batch(monkeypatch)
    core_calls = []
    core = rec._integrate_polar_core

    def recording_core(*args, **kwargs):
        before = len(calls)
        out = core(*args, **kwargs)
        core_calls.extend(calls[before:])
        return out

    monkeypatch.setattr(rec, "_integrate_polar_core", recording_core)
    p = MeridianPoint(160.0, 160.0)
    res = reconstruct_ur(w, p)
    assert np.isfinite(res.value) and res.value != 0.0
    assert calls and core_calls == []
    for rho, zeta in calls:
        assert np.all(w.w_theta(rho, p.z - zeta) != 0.0)


def test_zero_vorticity_reconstructs_zero():
    w = VorticityField(w_r=zero_profile(), w_theta=zero_profile(),
                       w_z=zero_profile(), support=(0.0, 1.0, -1.0, 1.0))
    for rec in (reconstruct_ur, reconstruct_uz):
        res = rec(w, MeridianPoint(2.0, 0.0))
        assert res.value == 0.0
        assert all(v == 0.0 for v in res.per_region.values())
    res = reconstruct_utheta(w, MeridianPoint(2.0, 0.0))
    assert res.value == 0.0


def test_value_equals_region_sum():
    _, w = stream_bump_field()
    res = reconstruct_uz(w, MeridianPoint(2.5, 0.3))
    assert res.value == pytest.approx(sum(res.per_region.values()), abs=1e-15)


def test_parity_even_profile_kills_ur_on_midplane():
    # G1 is odd in z - k: an axial profile even about z makes the u_r
    # integrand odd in k, so u_r(r, z) = 0 on the symmetry plane
    w = power_law_vorticity(3.0)   # Gaussian envelope, even about k = 0
    res = reconstruct_ur(w, MeridianPoint(5.0, 0.0))
    assert abs(res.value) < 1e-12
    # off the symmetry plane the component is genuinely nonzero
    res1 = reconstruct_ur(w, MeridianPoint(5.0, 1.0))
    assert abs(res1.value) > 1e-4


def test_parity_odd_profile_kills_uz_on_midplane():
    # G2 is even in z - k: an odd axial profile kills u_z at z = 0
    def wt(rho, k):
        k = np.asarray(k, dtype=float)
        return (1.0 + np.asarray(rho, float)) ** -3.0 * k * np.exp(-k * k)

    w = VorticityField(w_r=zero_profile(), w_theta=Profile(fn=wt),
                       w_z=zero_profile(), decay_beta=3.0,
                       axial_envelope=AxialEnvelope("gauss"))
    res = reconstruct_uz(w, MeridianPoint(4.0, 0.0))
    assert abs(res.value) < 1e-12


def test_preconditions():
    w = power_law_vorticity(3.0)
    with pytest.raises(ValueError):
        reconstruct_ur(w, MeridianPoint(0.9, 0.0))
    # no decay metadata, no support: tails cannot be certified
    bare = VorticityField(w_r=zero_profile(), w_theta=zero_profile(),
                          w_z=zero_profile())
    with pytest.raises(ValueError):
        reconstruct_ur(bare, MeridianPoint(2.0, 0.0))
    with pytest.raises(ValueError):
        QuadratureSpec(gamma=1.5)
    with pytest.raises(ValueError):
        QuadratureSpec(tol=-1.0)
    # truncation radii below 8 max(1, r) are rejected
    with pytest.raises(ValueError):
        reconstruct_ur(w, MeridianPoint(2.0, 0.0),
                       QuadratureSpec(rho_max=10.0))



@pytest.mark.parametrize("change, z, message", [
    ({"decay_beta": None}, 0.2, "neither a support box nor decay metadata"),
    ({"axial_envelope": None}, 0.2, "needs an axial envelope"),
    ({}, 13.0, "below z_max / 2")])
def test_uncertifiable_tail_fails_before_any_kernel_call(monkeypatch, change,
                                                         z, message):
    # the window of r = 3 has z_max = 24, so z = 13 is past z_max / 2
    calls = recording_kernel_batch(monkeypatch)
    w = replace(power_law_vorticity(3.0, AxialEnvelope("gauss")), **change)
    with pytest.raises(ValueError, match=message):
        reconstruct_ur(w, MeridianPoint(3.0, z))
    assert calls == []

def test_linearity():
    _, w1 = stream_bump_field(r0=3.0, radius=0.8)
    _, w2 = stream_bump_field(r0=2.5, z0=0.4, radius=0.7)

    def combo(rho, k):
        return 2.0 * w1.w_theta(rho, k) - 0.5 * w2.w_theta(rho, k)

    w12 = VorticityField(
        w_r=zero_profile(), w_theta=Profile(fn=combo), w_z=zero_profile(),
        support=(1.7, 4.0, -1.0, 1.2), resolution=0.14)
    p = MeridianPoint(2.0, -0.3)
    a = reconstruct_uz(w1, p)
    b = reconstruct_uz(w2, p)
    c = reconstruct_uz(w12, p)
    tol = 2.0 * a.quad_err + 0.5 * b.quad_err + c.quad_err + 1e-9
    assert abs(c.value - (2.0 * a.value - 0.5 * b.value)) < tol


def _on_common_nodes(w1, w2, **parts):
    """A vorticity with the components `parts` (the rest zero) on the union
    of the support boxes of w1 and w2 and their finer resolution, so that
    every field built this way is integrated on the same node sets."""
    (l1, h1, kl1, kh1), (l2, h2, kl2, kh2) = w1.support, w2.support
    return VorticityField(
        **{name: parts.get(name, zero_profile())
           for name in ("w_r", "w_theta", "w_z")},
        support=(min(l1, l2), max(h1, h2), min(kl1, kl2), max(kh1, kh2)),
        resolution=min(w1.resolution, w2.resolution))


centres = st.tuples(st.floats(2.2, 4.0), st.floats(-1.0, 1.0))


@settings(max_examples=5, deadline=None)
@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), c1=centres,
       c2=centres, r=st.floats(1.5, 5.5), z=st.floats(-1.5, 1.5))
def test_reconstruction_is_linear_in_the_vorticity(a, b, c1, c2, r, z):
    # on the same node sets the quadrature is a linear functional of the
    # vorticity, so u[a w1 + b w2] = a u[w1] + b u[w2] to rounding; an
    # infinite tol keeps every field at the first pass's nodes
    p, spec = MeridianPoint(r, z), QuadratureSpec(tol=np.inf)
    cases = ((stream_bump_field, ("w_theta",), (reconstruct_ur,
                                                reconstruct_uz)),
             (swirl_bump_field, ("w_r", "w_z"), (reconstruct_utheta,)))
    for make, names, recs in cases:
        w1, w2 = make(r0=c1[0], z0=c1[1])[1], make(r0=c2[0], z0=c2[1])[1]

        def combo(name):
            p1, p2 = getattr(w1, name), getattr(w2, name)
            return Profile(fn=lambda rho, k: a * p1(rho, k) + b * p2(rho, k))

        fields = [_on_common_nodes(w1, w2, **{n: getattr(w, n) for n in names})
                  for w in (w1, w2)]
        fields.append(_on_common_nodes(w1, w2, **{n: combo(n) for n in names}))
        for rec in recs:
            u1, u2, u12 = (rec(w, p, spec) for w in fields)
            # measured deviations stay below 2e-15
            assert abs(u12.value - (a * u1.value + b * u2.value)) <= 1e-12


def test_region_additivity_across_splittings():
    # different (gamma, delta) move every region boundary; the total must
    # not move
    w = power_law_vorticity(2.5)
    p = MeridianPoint(6.0, 0.7)
    specs = [QuadratureSpec(gamma=0.0, delta=1.0),
             QuadratureSpec(gamma=0.5, delta=0.7),
             QuadratureSpec(gamma=1.0, delta=0.4)]
    vals = [reconstruct_uz(w, p, s) for s in specs]
    for res in vals[1:]:
        assert abs(res.value - vals[0].value) < (res.quad_err
                                                 + vals[0].quad_err + 1e-8)


def test_region_additivity_vs_fine_grid_oracle():
    # probes outside the support keep the kernel smooth on the integration
    # domain, where the uniform reference grid is trustworthy; interior
    # probes are covered by the exact-field round-trip tests
    rng = np.random.default_rng(17)
    _, w = stream_bump_field()
    for i in range(10):
        if i % 2 == 0:
            r = float(rng.uniform(4.8, 7.0))
        else:
            r = float(rng.uniform(1.3, 1.8))
        z = float(rng.uniform(-1.5, 1.5))
        gamma = float(rng.uniform(0.0, 1.0))
        delta = float(rng.uniform(0.3, 1.0))
        spec = QuadratureSpec(gamma=gamma, delta=delta)
        p = MeridianPoint(r, z)
        res = reconstruct_uz(w, p, spec)
        ref = fine_grid_reference(w, p, "u_z")
        assert abs(res.value - ref) < 5e-6 + res.quad_err


DBLQUAD_PROBE = MeridianPoint(5.5, 0.5)


def dblquad_uz(w_theta, p):
    """u_z at p from a w_theta supported on the unit disk about (3, 0): scipy
    dblquad in polar coordinates (s, phi) about the centre, Jacobian s, so
    the non-analytic support circle s = 1 is an edge of the domain; kernels
    pointwise from the adaptive oracle.  Returns (value, error)."""
    def integrand(phi, s):
        rho, k = 3.0 + s * np.cos(phi), s * np.sin(phi)
        kt = kernel_triple(p.r, rho, p.z - k, tol=1e-11)
        wt = float(w_theta(np.asarray(rho), np.asarray(k)))
        return -kt.gamma2 * wt * rho * s

    return dblquad(integrand, 0.0, 1.0, 0.0, 2.0 * np.pi, epsabs=1e-7)


def test_against_scipy_dblquad_once():
    # fully independent integrator, probe outside the support so the
    # integrand is smooth; the stream bump's u_z vanishes off its support
    _, w = stream_bump_field()
    ref, err = dblquad_uz(w.w_theta, DBLQUAD_PROBE)
    res = reconstruct_uz(w, DBLQUAD_PROBE)
    assert abs(res.value - ref) < 1e-6 + err + res.quad_err


def test_against_scipy_dblquad_nonzero():
    # a positive w_theta bump has a nonzero far field, so the oracle and the
    # reconstruction agree on a value, not on two zeros
    bump = SmoothBump(3.0, 0.0, 1.0)
    w = VorticityField(w_r=zero_profile(),
                       w_theta=Profile(fn=bump.profile().fn),
                       w_z=zero_profile(), support=bump.support,
                       resolution=0.2)
    ref, err = dblquad_uz(w.w_theta, DBLQUAD_PROBE)
    res = reconstruct_uz(w, DBLQUAD_PROBE)
    assert abs(ref) > 1e-2
    assert abs(res.value - ref) < err + res.quad_err


def test_truncation_tail_bound_majorizes_window_growth():
    w = power_law_vorticity(2.5)
    p = MeridianPoint(10.0, 0.0)
    base = QuadratureSpec()            # rho_max = z_max = 80
    wide = QuadratureSpec(rho_max=160.0, z_max=160.0)
    a = reconstruct_uz(w, p, base)
    b = reconstruct_uz(w, p, wide)
    observed = abs(b.value - a.value)
    assert observed < a.tail_bound + a.quad_err + b.quad_err
    assert a.tail_bound > 0
    # the wider window certifies a smaller tail
    assert b.tail_bound < a.tail_bound


@pytest.mark.parametrize("bump, names", [(stream_bump_field, ("u_r", "u_z")),
                                         (swirl_bump_field, ("u_theta",))])
def test_a_support_wider_than_the_window_is_integrated_whole(bump, names):
    # the bump's support reaches rho = 18, past the default window 8 * r
    # of these probes: the window widens to cover it, so the result needs
    # no tail and lies within its certificate; (2.2, 0) is inside the
    # support, the others outside
    field, w = bump(r0=10.0, radius=8.0)
    for r, z in ((1.2, -9.6), (2.2, 0.0), (2.0, 1.0)):
        found = reconstruct(w, MeridianPoint(r, z), names)
        for name in names:
            exact = float(getattr(field, name)(np.asarray(r), np.asarray(z)))
            assert found[name].tail_bound == 0.0
            assert abs(found[name].value - exact) <= found[name].total_error


def test_far_field_sign_consistency():
    # sign of u_z far outside a positive swirl-vorticity bump agrees with
    # the direct fine-grid quadrature (no a-priori sign assumption)
    _, w = stream_bump_field()

    def pos_wt(rho, k):
        return np.abs(w.w_theta(rho, k))

    wpos = VorticityField(w_r=zero_profile(), w_theta=Profile(fn=pos_wt),
                          w_z=zero_profile(), support=w.support,
                          resolution=w.resolution)
    p = MeridianPoint(9.0, 0.0)
    res = reconstruct_uz(wpos, p)
    ref = fine_grid_reference(wpos, p, "u_z")
    assert res.value != 0
    assert np.sign(res.value) == np.sign(ref)
    assert abs(res.value - ref) < 1e-6 + res.quad_err


def test_utheta_reports_both_terms():
    _, w = swirl_bump_field()
    res = reconstruct_utheta(w, MeridianPoint(2.6, 0.2))
    assert set(res.term_values) == {"axial_source", "radial_source"}
    assert res.value == pytest.approx(sum(res.term_values.values()), rel=1e-12)


def test_roundtrip_smoke_subset():
    field, w = stream_bump_field()
    fieldS, wS = swirl_bump_field()
    for (r, z) in ((2.5, 0.3), (3.4, -0.6)):
        p = MeridianPoint(r, z)
        assert reconstruct_ur(w, p).value == pytest.approx(
            float(field.u_r(np.asarray(r), np.asarray(z))), abs=6e-4)
        assert reconstruct_uz(w, p).value == pytest.approx(
            float(field.u_z(np.asarray(r), np.asarray(z))), abs=6e-4)
        assert reconstruct_utheta(wS, p).value == pytest.approx(
            float(fieldS.u_theta(np.asarray(r), np.asarray(z))), abs=6e-4)


def test_decay_trace_validation_and_flags():
    w = power_law_vorticity(3.0)
    with pytest.raises(ValueError):
        decay_trace(w, "u_phi", [10.0, 20.0])
    with pytest.raises(ValueError):
        decay_trace(w, "u_r", [0.5, 2.0])
    with pytest.raises(ValueError):
        decay_trace(w, "u_r", [10.0, 10.0])
    samples = decay_trace(w, "u_r", [10.0, 20.0, 40.0], z=1.0)
    assert [s.r for s in samples] == [10.0, 20.0, 40.0]
    assert all(not s.flagged for s in samples)
    assert all(s.quad_err + s.tail_bound < 0.1 * s.value for s in samples)


def test_decay_trace_utheta_and_z_sequence():
    ladder = [10.0, 20.0, 40.0]
    w = power_law_vorticity(3.0)
    samples = decay_trace(w, "u_theta", ladder, z=1.0)
    assert all(s.value > 0 for s in samples)
    assert samples[0].value > samples[-1].value
    # per-point probe heights (uniformity spot-check shape)
    sw = decay_trace(power_law_vorticity(3.0), "u_r", ladder,
                     z=[r / 2 for r in ladder])
    assert all(not s.flagged for s in sw)
    with pytest.raises(ValueError):
        decay_trace(power_law_vorticity(3.0), "u_r", ladder, z=[1.0, 2.0])


def test_non_finite_vorticity_is_rejected():
    # a NaN band inside the truncation window must raise, not return a NaN
    # value that the decay trace would then fail to flag
    base = power_law_vorticity(3.0)

    def wt(rho, k):
        rho = np.asarray(rho, dtype=float)
        return np.where((rho > 30.0) & (rho < 31.0), np.nan,
                        base.w_theta(rho, k))

    w = VorticityField(w_r=zero_profile(), w_theta=Profile(fn=wt),
                       w_z=zero_profile(), decay_beta=3.0,
                       axial_envelope=base.axial_envelope)
    with pytest.raises(ValueError, match="non-finite"):
        reconstruct_ur(w, MeridianPoint(10.0, 1.0))
    with pytest.raises(ValueError, match="non-finite"):
        decay_trace(w, "u_r", [10.0, 20.0, 40.0], z=1.0)
