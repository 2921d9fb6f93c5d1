"""Closed forms and fields the tests check the package against.

Not collected by pytest (no `test_` prefix); test modules import it as
`oracles`, since pytest puts this directory on sys.path.
"""

import csv

import numpy as np

from meridian.envelopes import REGIMES, BoundEnvelope, ScanReport, envelope_value
from meridian.fields import AxisymField, VorticityField, swirling_bump_field
from meridian.norms import WEAK_LEVELS, _r_mesh
from meridian.profiles import Profile, zero_profile
from meridian.quadrature import panel_nodes


def crude_bounds(r, rho, zeta):
    """Global bounds ((rho + r)/d^3 for G2 and G3, |zeta|/d^3 for G1).

    Valid for all rho > 0, r > 0 with constant 1; only the diagonal point
    is excluded.  They are the oracle for the kernel majorants of
    `reconstruct._tail_bounds`, which weaken them: |zeta| <= d, and d
    bounded below by |rho - r| on the radial tail and by the least |zeta|
    on the axial one.  The radial tail's closed forms weaken them once
    more: (1 + rho)/(rho - r) <= c = (1 + R)/(R - r) on rho >= R > r.
    """
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rho, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    d2 = (r - rho) ** 2 + zeta ** 2
    if np.any(d2 <= 0):
        raise ValueError("crude bounds undefined on the diagonal")
    d3 = d2 ** 1.5
    b23 = (rho + r) / d3
    b1 = np.abs(zeta) / d3
    if b23.shape:
        return b23, b1
    return float(b23), float(b1)


def gaussian_swirl_profile():
    """u_theta = r exp(-(r^2 + z^2)), smooth through the axis."""
    def g(r, z):
        return np.exp(-(np.asarray(r, float) ** 2 + np.asarray(z, float) ** 2))

    return Profile(
        fn=lambda r, z: np.asarray(r, float) * g(r, z),
        d_r=lambda r, z: g(r, z) * (1.0 - 2.0 * np.asarray(r, float) ** 2),
        d_z=lambda r, z: np.asarray(r, float) * g(r, z) * (-2.0 * np.asarray(z, float)),
        d_rr=lambda r, z: g(r, z) * (-2.0 * np.asarray(r, float)) * (3.0 - 2.0 * np.asarray(r, float) ** 2),
        d_zz=lambda r, z: np.asarray(r, float) * g(r, z) * (4.0 * np.asarray(z, float) ** 2 - 2.0),
        d_rz=lambda r, z: g(r, z) * (-2.0 * np.asarray(z, float)) * (1.0 - 2.0 * np.asarray(r, float) ** 2),
        name="gaussian_swirl",
    )


def admissible_ratio(env, data):
    """(admissible mask, |kernel| / envelope on the admissible points) over
    ScanData `data`, the gate evaluated point by point."""
    ok = np.asarray(env.admissible(data.r, data.rho), dtype=bool)
    r, rho, zeta = data.r[ok], data.rho[ok], data.zeta[ok]
    if env.kind == "gamma23":
        return ok, data.kernel23[ok] / envelope_value(env, r, rho, zeta)
    d2 = (r - rho) ** 2 + zeta ** 2
    m = np.maximum(r, rho)
    return ok, (data.kernel1_over_zeta[ok] * m ** env.alpha
                * d2 ** ((3.0 - env.alpha) / 2.0))


def scan_report(kind, alpha, data):
    """The per-regime supremum report by one boolean mask per regime over
    the admissible points; the reference for `report_from_data`."""
    ok, ratio = admissible_ratio(BoundEnvelope(kind=kind, alpha=alpha), data)
    r, rho, zeta = data.r[ok], data.rho[ok], data.zeta[ok]
    regime = data.regime[ok]
    sup, arg = {}, {}
    for i in np.unique(regime):
        m = regime == i
        j = int(np.argmax(ratio[m]))
        sup[REGIMES[i]] = float(ratio[m][j])
        idx = np.nonzero(m)[0][j]
        arg[REGIMES[i]] = (float(r[idx]), float(rho[idx]), float(zeta[idx]))
    return ScanReport(kind=kind, alpha=alpha, n_points=int(ok.sum()),
                      suprema=sup, argmax=arg, excluded=data.excluded,
                      failures=data.failures)


def write_scan_csv_reference(path, kind, alpha, data):
    """The scan CSV of one (kind, alpha) job over ScanData `data`, every
    value formatted by its own row's `%`: the reference for
    `envelopes.write_scan_csv`, which formats each distinct value once."""
    env = BoundEnvelope(kind=kind, alpha=alpha)
    ok, ratio = admissible_ratio(env, data)
    r, rho, zeta = data.r[ok], data.rho[ok], data.zeta[ok]
    kernel = (data.kernel23 if kind == "gamma23" else data.kernel1)[ok]
    rows = zip(r.tolist(), rho.tolist(), zeta.tolist(), data.K[ok].tolist(),
               [REGIMES[i] for i in data.regime[ok].tolist()],
               kernel.tolist(), envelope_value(env, r, rho, zeta).tolist(),
               ratio.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("r,rho,zeta,K,regime,kernel,envelope,ratio\r\n")
        for row in rows:
            fh.write("%.10g,%.10g,%.10g,%.10g,%s,%.12g,%.12g,%.12g\r\n" % row)


def write_csv_reference(path, header, rows):
    """The csv-module writer the commands used before `reports.write_csv`:
    `rows` hold every field already formatted as text."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def stream_bump_field(r0=3.0, z0=0.0, radius=1.0):
    """The stream part of `swirling_bump_field`: (u_r, u_z) and w_theta,
    with the swirl part's slots zero."""
    field, w = swirling_bump_field(r0, z0, radius)
    return (AxisymField(field.u_r, zero_profile(), field.u_z),
            VorticityField(zero_profile(), w.w_theta, zero_profile(),
                           support=w.support, resolution=w.resolution))


def swirl_bump_field(r0=3.0, z0=0.0, radius=1.0):
    """The swirl part of `swirling_bump_field`: u_theta and (w_r, w_z),
    with the stream part's slots zero."""
    field, w = swirling_bump_field(r0, z0, radius)
    return (AxisymField(zero_profile(), field.u_theta, zero_profile()),
            VorticityField(w.w_r, zero_profile(), w.w_z,
                           support=w.support, resolution=w.resolution))


def cylinder_quad_meshgrid(f, R, n_nodes=12, n_r_coarse=24, n_z=16):
    """`norms._cylinder_quad` with f evaluated on the full (r, z) meshgrid:
    the reference its column x row evaluation matches bit for bit."""
    re = _r_mesh(R, n_r_coarse)
    ze = np.linspace(-R, R, n_z + 1)
    rn, rw = panel_nodes(re, n_nodes)
    zn, zw = panel_nodes(ze, n_nodes)
    RR, ZZ = np.meshgrid(rn, zn, indexing="ij")
    vals = f(RR, ZZ) * 2.0 * np.pi * RR
    return float(np.einsum("i,ij,j->", rw, vals, zw))


def weak_lorentz_meshgrid(f, q, dom, n_cells=400):
    """(value, measures, lq_same_grid) of `norms.weak_lorentz_norm` with
    the cells sampled on the full (r, z) meshgrid: the reference its column
    x row evaluation matches bit for bit, for finite samples of a nonzero
    f."""
    R = dom.R
    re = np.linspace(0.0, R, n_cells + 1)
    ze = np.linspace(-R, R, 2 * n_cells + 1)
    rc = 0.5 * (re[1:] + re[:-1])
    zc = 0.5 * (ze[1:] + ze[:-1])
    dr = re[1] - re[0]
    dz = ze[1] - ze[0]
    RR, ZZ = (a.ravel() for a in np.meshgrid(rc, zc, indexing="ij"))
    vals = np.abs(f(RR, ZZ)).ravel()
    wgts = 2.0 * np.pi * RR * dr * dz

    vmax = float(vals.max())
    vmin_pos = float(vals[vals > 0].min())
    lo = max(vmin_pos, vmax * 1e-12)
    lambdas = np.geomspace(lo * 0.999, vmax * 0.999, WEAK_LEVELS)
    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    cum = np.cumsum(wgts[order])
    idx = np.searchsorted(-sorted_vals, -lambdas, side="left")
    measures = np.where(idx > 0, cum[np.maximum(idx - 1, 0)], 0.0)
    ln = lambdas * measures ** (1.0 / q)
    lq_grid = float(np.dot(wgts, vals ** q) ** (1.0 / q))
    return float(ln.max()), measures, lq_grid
