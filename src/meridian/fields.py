"""Axisymmetric field containers, test-field factories and cutoff functions.

Velocity fields carry cylindrical components (u_r, u_theta, u_z) as profiles
over the meridian half-plane; vorticity fields carry (w_r, w_theta, w_z) and
the decay metadata the reconstruction and tail-bound machinery needs.  The
unit vectors e_r, e_theta, e_z never appear in computation: everything is
reduced to weighted scalar integrals in (r, z).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .profiles import Profile, SmoothBump, zero_profile


@dataclass(frozen=True)
class MeridianPoint:
    """A point (r, z) in the half-plane r >= 0."""
    r: float
    z: float

    def __post_init__(self):
        if not (self.r >= 0.0):
            raise ValueError("radial coordinate must be >= 0, got %r" % (self.r,))
        if not (math.isfinite(self.r) and math.isfinite(self.z)):
            raise ValueError("meridian point must have finite coordinates")


@dataclass
class AxisymField:
    """Axisymmetric velocity (u_r, u_theta, u_z) with optional pressure.

    decay_mu is the claimed power of (1 + r)^(-mu) controlling |u|; it is
    metadata used by the norm growth-law checks, not enforced pointwise.
    """
    u_r: Profile
    u_theta: Profile
    u_z: Profile
    pressure: Optional[Profile] = None
    decay_mu: Optional[float] = None


class AxialEnvelope:
    """Integrable bound eta(k) on the axial dependence of a vorticity profile.

    kind "gauss": eta(k) = exp(-(k/scale)^2); kind "compact": eta supported
    on |k| <= half_width (bounded by 1).  The envelope powers the analytic
    truncation-tail majorants, so it must majorize the actual k-dependence.
    """

    def __init__(self, kind="gauss", scale=1.0, half_width=1.0):
        if kind not in ("gauss", "compact"):
            raise ValueError("unknown axial envelope kind %r" % (kind,))
        # a scale or half-width <= 0 would make the tail majorants <= 0
        for name, v in (("scale", scale), ("half_width", half_width)):
            if not (math.isfinite(v) and v > 0):
                raise ValueError("axial envelope %s must be finite and "
                                 "positive, got %r" % (name, v))
        self.kind = kind
        self.scale = float(scale)
        self.half_width = float(half_width)

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        if self.kind == "gauss":
            return np.exp(-((k / self.scale) ** 2))
        return np.where(np.abs(k) <= self.half_width, 1.0, 0.0)

    def integral(self):
        if self.kind == "gauss":
            return self.scale * math.sqrt(math.pi)
        return 2.0 * self.half_width

    def tail_integral(self, k0):
        """integral of eta over |k| > k0."""
        if self.kind == "gauss":
            from scipy.special import erfc
            return self.scale * math.sqrt(math.pi) * float(erfc(k0 / self.scale))
        return max(0.0, 2.0 * (self.half_width - k0)) if k0 < self.half_width else 0.0


@dataclass
class VorticityField:
    """Axisymmetric vorticity with decay metadata.

    decay_beta / radial_amplitude declare |w| <= amplitude * (1+rho)^(-beta)
    * envelope(k); support is an optional (rho_lo, rho_hi, k_lo, k_hi) box
    outside which the field vanishes identically (compact test fields).
    Either a support box or (decay_beta, envelope) is required for
    reconstruction so truncation tails can be certified.
    """
    w_r: Profile
    w_theta: Profile
    w_z: Profile
    decay_beta: Optional[float] = None
    radial_amplitude: float = 1.0
    axial_envelope: Optional[AxialEnvelope] = None
    support: Optional[tuple] = None
    resolution: Optional[float] = None  # intrinsic variation scale, if short


def stream_function_field(psi: Profile, support=None, axis_clearance=0.0):
    """Divergence-free no-swirl velocity from a stream function.

    u_r = -(1/r) dpsi/dz,  u_z = (1/r) dpsi/dr,  u_theta = 0.  The identity
    d_r(r u_r) + d_z(r u_z) = -psi_zr + psi_rz = 0 makes the field exactly
    divergence-free.  psi must carry analytic first and second derivatives
    and be supported away from the axis so the 1/r factors stay regular.
    """
    if not psi.has_second_derivatives:
        raise ValueError("stream function needs analytic first and second derivatives")
    if support is not None and support[0] <= axis_clearance:
        raise ValueError("stream-function support must stay off the axis (r > 0)")

    def ur(r, z):
        return -psi.d_z(r, z) / np.asarray(r, dtype=float)

    def uz(r, z):
        return psi.d_r(r, z) / np.asarray(r, dtype=float)

    rr = lambda r, z: np.asarray(r, dtype=float)
    u_r = Profile(
        fn=ur,
        d_r=lambda r, z: -psi.d_rz(r, z) / rr(r, z) + psi.d_z(r, z) / rr(r, z) ** 2,
        d_z=lambda r, z: -psi.d_zz(r, z) / rr(r, z),
        name="stream_u_r",
    )
    u_z = Profile(
        fn=uz,
        d_r=lambda r, z: psi.d_rr(r, z) / rr(r, z) - psi.d_r(r, z) / rr(r, z) ** 2,
        d_z=lambda r, z: psi.d_rz(r, z) / rr(r, z),
        name="stream_u_z",
    )
    return AxisymField(u_r=u_r, u_theta=zero_profile(), u_z=u_z)


def stream_bump_field(r0=3.0, z0=0.0, radius=1.0, amplitude=1.0):
    """Stream-function bump field plus its exact curl's w_theta.

    Returns (field, vorticity).  With psi a SmoothBump,
    w_theta = dz u_r - dr u_z = -(1/r) (psi_rr - psi_r / r + psi_zz),
    so the vorticity is analytic and compactly supported in the same disk.
    The three derivatives are the profile's expressions, taken from one
    evaluation of the bump's exponential.
    """
    if r0 - radius <= 0:
        raise ValueError("bump support touches the axis")
    bump = SmoothBump(r0=r0, z0=z0, radius=radius, amplitude=amplitude)
    psi = bump.profile()
    field = stream_function_field(psi, support=bump.support)
    a2 = bump.radius ** 2

    def wt(r, z):
        r = np.asarray(r, dtype=float)
        _, _, fp, fpp, _ = bump._core(r, z)
        tr = 2.0 * (r - bump.r0) / a2
        tz = 2.0 * (np.asarray(z, float) - bump.z0) / a2
        psi_rr = fpp * tr * tr + fp * 2.0 / a2
        psi_r = fp * 2.0 * (r - bump.r0) / a2
        psi_zz = fpp * tz * tz + fp * 2.0 / a2
        return -(psi_rr - psi_r / r + psi_zz) / r

    w = VorticityField(
        w_r=zero_profile(),
        w_theta=Profile(fn=wt, name="stream_bump_w_theta"),
        w_z=zero_profile(),
        support=bump.support,
        resolution=radius / 5.0,
    )
    return field, w


def swirl_bump_field(r0=3.0, z0=0.0, radius=1.0, amplitude=1.0):
    """Pure-swirl bump u_theta plus its exact curl (w_r, w_z).

    w_r = -dz u_theta,  w_z = (1/r) dr(r u_theta) = dr u_theta + u_theta/r.
    Both vorticity components share the bump's compact support; w_z takes
    u_theta and its profile's dr expression from one evaluation of the
    bump's exponential.
    """
    if r0 - radius <= 0:
        raise ValueError("bump support touches the axis")
    bump = SmoothBump(r0=r0, z0=z0, radius=radius, amplitude=amplitude)
    p = bump.profile()
    field = AxisymField(u_r=zero_profile(), u_theta=p, u_z=zero_profile())
    a2 = bump.radius ** 2

    def wr(r, z):
        return -p.d_z(r, z)

    def wz(r, z):
        r = np.asarray(r, dtype=float)
        _, f, fp, _, _ = bump._core(r, z)
        return fp * 2.0 * (r - bump.r0) / a2 + f / r

    w = VorticityField(
        w_r=Profile(fn=wr, name="swirl_bump_w_r"),
        w_theta=zero_profile(),
        w_z=Profile(fn=wz, name="swirl_bump_w_z"),
        support=bump.support,
        resolution=radius / 5.0,
    )
    return field, w


def power_law_vorticity(beta, component="theta", axial_envelope=None, amplitude=1.0):
    """Vorticity profile w = amplitude * (1 + rho)^(-beta) * eta(k).

    `component` selects which components carry the profile: "theta" for the
    swirl-generating w_theta, "r_and_z" for the meridian pair feeding the
    u_theta reconstruction.  beta must exceed 1 or the reconstruction
    integrals may diverge.
    """
    if not beta > 1.0:
        raise ValueError("beta must exceed 1 (got %g): reconstruction integrals "
                         "may diverge" % beta)
    if component not in ("theta", "r_and_z"):
        raise ValueError("component must be 'theta' or 'r_and_z'")
    env = (axial_envelope if axial_envelope is not None
           else AxialEnvelope("gauss", scale=1.0))
    if not np.all(env(np.linspace(-50, 50, 101)) <= 1.0 + 1e-12):
        raise ValueError("axial envelope must be bounded by 1")

    amp = float(amplitude)

    def w(rho, k):
        rho = np.asarray(rho, dtype=float)
        return amp * (1.0 + rho) ** (-beta) * env(k)

    prof = Profile(fn=w, name="power_law_w(beta=%g)" % beta)
    zero = zero_profile()
    if component == "theta":
        return VorticityField(w_r=zero, w_theta=prof, w_z=zero,
                              decay_beta=beta, radial_amplitude=amp, axial_envelope=env)
    return VorticityField(w_r=prof, w_theta=zero, w_z=prof,
                          decay_beta=beta, radial_amplitude=amp, axial_envelope=env)


def _smoothstep(x):
    """Quintic smoothstep: C^2 transition 0 -> 1 on [0, 1]."""
    x = np.clip(x, 0.0, 1.0)
    return x ** 3 * (10.0 + x * (-15.0 + 6.0 * x))


def _smoothstep_d1(x):
    xc = np.clip(x, 0.0, 1.0)
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 30.0 * xc ** 2 * (xc - 1.0) ** 2, 0.0)


def _smoothstep_d2(x):
    xc = np.clip(x, 0.0, 1.0)
    inside = (x > 0.0) & (x < 1.0)
    return np.where(inside, 60.0 * xc * (2.0 * xc - 1.0) * (xc - 1.0), 0.0)


def _ramp(t):
    # 1 on t <= 1/2, 0 on t >= 1, C^2 quintic in between
    return 1.0 - _smoothstep(2.0 * np.asarray(t, dtype=float) - 1.0)


def _ramp_d1(t):
    return -2.0 * _smoothstep_d1(2.0 * np.asarray(t, dtype=float) - 1.0)


def _ramp_d2(t):
    return -4.0 * _smoothstep_d2(2.0 * np.asarray(t, dtype=float) - 1.0)


@dataclass
class CutoffPhi:
    """C^2 cutoff for the cylinder C_R = {r <= R, |z| <= R}.

    Identically 1 on C_{R/2}, identically 0 outside C_R, with
    R * sup|grad phi| and R^2 * sup|hess phi| independent of R by the
    scale-invariant construction phi_R(x) = phi_1(x/R).  `grad` returns the
    gradient magnitude sqrt(phi_r^2 + phi_z^2); `hess` the magnitude of the
    full cylindrical second derivative including the angular (1/r) phi_r
    curvature term.
    """
    R: float
    value: Profile
    grad: Profile
    hess: Profile

    def components(self, r, z):
        """(phi, phi_r, phi_z) for callers that need signed derivatives."""
        R = self.R
        r = np.asarray(r, dtype=float)
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        pr, pz = _ramp(r / R), _ramp(az / R)
        dr = _ramp_d1(r / R) / R * pz
        dz = pr * _ramp_d1(az / R) * np.sign(z) / R
        return pr * pz, dr, dz


def cutoff_phi(R):
    """Build the product-ramp cutoff phi_R(r, z) = ramp(r/R) ramp(|z|/R)."""
    if not R > 0:
        raise ValueError("cutoff scale R must be positive")
    R = float(R)

    def val(r, z):
        return _ramp(np.asarray(r, float) / R) * _ramp(np.abs(np.asarray(z, float)) / R)

    def grad_mag(r, z):
        r = np.asarray(r, dtype=float)
        az = np.abs(np.asarray(z, dtype=float))
        pr, pz = _ramp(r / R), _ramp(az / R)
        gr = _ramp_d1(r / R) / R * pz
        gz = pr * _ramp_d1(az / R) / R
        return np.sqrt(gr ** 2 + gz ** 2)

    def hess_mag(r, z):
        r = np.asarray(r, dtype=float)
        az = np.abs(np.asarray(z, dtype=float))
        pr, pz = _ramp(r / R), _ramp(az / R)
        d1r, d1z = _ramp_d1(r / R) / R, _ramp_d1(az / R) / R
        d2r, d2z = _ramp_d2(r / R) / R ** 2, _ramp_d2(az / R) / R ** 2
        h_rr = d2r * pz
        h_zz = pr * d2z
        h_rz = d1r * d1z
        h_ang = np.where(r > 0, d1r * pz / np.where(r > 0, r, 1.0), 0.0)
        return np.sqrt(h_rr ** 2 + h_zz ** 2 + 2.0 * h_rz ** 2 + h_ang ** 2)

    return CutoffPhi(
        R=R,
        value=Profile(fn=val, name="phi_R(%g)" % R),
        grad=Profile(fn=grad_mag, name="grad_phi_R(%g)" % R),
        hess=Profile(fn=hess_mag, name="hess_phi_R(%g)" % R),
    )
