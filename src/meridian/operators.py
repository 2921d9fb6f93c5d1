"""Differential operators of the axisymmetric system.

Curl and divergence in cylindrical coordinates with no angular dependence:

    w_r     = -dz u_theta
    w_theta =  dz u_r - dr u_z
    w_z     =  (1/r) dr(r u_theta)

    div u   =  (1/r) dr(r u_r) + dz u_z

They are the oracles for the bump fields that `roundtrip` runs on: the
curl checks the analytic vorticity it integrates, the divergence that the
stream-function velocity is solenoidal.  Profiles that carry analytic
derivatives are differentiated exactly; otherwise O(h^2) central
differences are used, which keeps the operators away from the axis (the
1/r terms need r > h).
"""

from .fields import AxisymField, MeridianPoint


class AxisTooCloseError(ValueError):
    """Finite differences would cross the axis and hit the 1/r singularity."""


def _first_derivs(profile, r, z, h):
    """(d/dr, d/dz) of a profile: analytic when available, else central FD."""
    if profile.has_derivatives:
        return profile.d_r(r, z), profile.d_z(r, z)
    if r <= h:
        raise AxisTooCloseError(
            "finite differences need r > h (r=%g, h=%g); supply analytic "
            "derivatives to evaluate near the axis" % (r, h))
    f = profile.fn
    return ((f(r + h, z) - f(r - h, z)) / (2.0 * h),
            (f(r, z + h) - f(r, z - h)) / (2.0 * h))


def curl_axisym(field: AxisymField, p: MeridianPoint, h: float = 1e-4):
    """Vorticity triple (w_r, w_theta, w_z) at p.

    The w_z component dr(r u_theta)/r is expanded as du_theta/dr +
    u_theta/r, so it needs r > h without analytic derivatives.
    """
    r, z = p.r, p.z
    ut_r, ut_z = _first_derivs(field.u_theta, r, z, h)
    ur_r, ur_z = _first_derivs(field.u_r, r, z, h)
    uz_r, uz_z = _first_derivs(field.u_z, r, z, h)
    w_r = -ut_z
    w_theta = ur_z - uz_r
    w_z = ut_r + field.u_theta(r, z) / r if r > 0 else 2.0 * ut_r
    return float(w_r), float(w_theta), float(w_z)


def divergence_axisym(field: AxisymField, p: MeridianPoint, h: float = 1e-4):
    """(1/r) dr(r u_r) + dz u_z = dr u_r + u_r/r + dz u_z at p."""
    r, z = p.r, p.z
    ur_r, _ = _first_derivs(field.u_r, r, z, h)
    _, uz_z = _first_derivs(field.u_z, r, z, h)
    if r > 0:
        return float(ur_r + field.u_r(r, z) / r + uz_z)
    # on the axis u_r(0, z) = 0 for smooth fields and u_r/r -> dr u_r
    return float(2.0 * ur_r + uz_z)
