"""Closed forms and fields the tests check the package against.

Not collected by pytest (no `test_` prefix); test modules import it as
`oracles`, since pytest puts this directory on sys.path.
"""

import numpy as np

from meridian.profiles import Profile


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
