"""Axisymmetric field containers and test-field factories.

Velocity fields carry cylindrical components (u_r, u_theta, u_z) as profiles
over the meridian half-plane; vorticity fields carry (w_r, w_theta, w_z) and
the decay metadata the reconstruction and tail-bound machinery needs.  The
reconstruction reads a vorticity's slots through `VorticityField.sample`,
one call per node set: a profile that several slots hold is sampled once,
and the swirling bump, the roundtrip's one test field, forms all its curl
slots from one gather.  The unit vectors e_r, e_theta, e_z never appear in
computation: everything is reduced to weighted scalar integrals in (r, z).
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
    """Axisymmetric velocity (u_r, u_theta, u_z)."""
    u_r: Profile
    u_theta: Profile
    u_z: Profile


AXIAL_KINDS = ("gauss", "compact")


class AxialEnvelope:
    """Integrable bound eta(k) on the axial dependence of a vorticity profile.

    kind "gauss": eta(k) = exp(-(k/scale)^2); kind "compact": eta supported
    on |k| <= scale (bounded by 1).  `scale` is also the axial feature scale
    the reconstruction meshes read.  The envelope powers the analytic
    truncation-tail majorants, so it must majorize the actual k-dependence.
    """

    def __init__(self, kind="gauss", scale=1.0):
        if kind not in AXIAL_KINDS:
            raise ValueError("axial envelope kind must be %s, got %r"
                             % (" or ".join(AXIAL_KINDS), kind))
        # a scale <= 0 would make the tail majorants <= 0
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError("axial envelope scale must be finite and "
                             "positive, got %r" % (scale,))
        self.kind = kind
        self.scale = float(scale)

    def __call__(self, k):
        k = np.asarray(k, dtype=float)
        if self.kind == "gauss":
            return np.exp(-((k / self.scale) ** 2))
        return np.where(np.abs(k) <= self.scale, 1.0, 0.0)

    def integral(self):
        if self.kind == "gauss":
            return self.scale * math.sqrt(math.pi)
        return 2.0 * self.scale

    def tail_integral(self, k0):
        """integral of eta over |k| > k0."""
        if self.kind == "gauss":
            return self.scale * math.sqrt(math.pi) * math.erfc(k0 / self.scale)
        return max(0.0, 2.0 * (self.scale - k0)) if k0 < self.scale else 0.0


@dataclass
class VorticityField:
    """Axisymmetric vorticity with decay metadata.

    decay_beta declares |w| <= (1+rho)^(-beta) * envelope(k); support is
    an optional (rho_lo, rho_hi, k_lo, k_hi) box outside which the field
    vanishes identically (compact test fields).
    Either a support box or (decay_beta, envelope) is required for
    reconstruction so truncation tails can be certified.
    """
    w_r: Profile
    w_theta: Profile
    w_z: Profile
    decay_beta: Optional[float] = None
    axial_envelope: Optional[AxialEnvelope] = None
    support: Optional[tuple] = None
    resolution: Optional[float] = None  # intrinsic variation scale, if short

    def sample(self, slots, rho, k):
        """The slots named in `slots` at the nodes (rho, k), one array per
        name; a profile that several names hold is sampled once."""
        profiles = {id(getattr(self, s)): getattr(self, s) for s in slots}
        found = {key: prof(rho, k) for key, prof in profiles.items()}
        return [found[id(getattr(self, s))] for s in slots]


def stream_function_field(psi: Profile, support=None):
    """Divergence-free no-swirl velocity from a stream function.

    u_r = -(1/r) dpsi/dz,  u_z = (1/r) dpsi/dr,  u_theta = 0.  The identity
    d_r(r u_r) + d_z(r u_z) = -psi_zr + psi_rz = 0 makes the field exactly
    divergence-free.  psi must carry analytic first and second derivatives
    and be supported away from the axis so the 1/r factors stay regular.
    """
    if not psi.has_second_derivatives:
        raise ValueError("stream function needs analytic first and second derivatives")
    if support is not None and support[0] <= 0.0:
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


class _BumpCurl(VorticityField):
    """The exact curl of `swirling_bump_field`'s velocity.  `sample` forms
    every slot it is asked for from one gather of the nodes inside the
    bump's disk; nothing is kept past the call, so threads may share the
    field.  Its constructor takes the bump, so `dataclasses.replace`
    cannot rebuild it: build a `VorticityField` from its slots instead."""

    def __init__(self, bump):
        self.bump = bump
        super().__init__(
            **{s: Profile(fn=lambda r, z, s=s: self.sample((s,), r, z)[0],
                          name="bump_" + s) for s in ("w_r", "w_theta", "w_z")},
            support=bump.support, resolution=bump.radius / 5.0)

    def sample(self, slots, rho, k):
        shape, idx, r, z, om, f, fp = self.bump._support_nodes(rho, k)
        a2 = self.bump.radius ** 2
        dr, dz = r - self.bump.r0, z - self.bump.z0
        f_r = fp * 2.0 * dr / a2

        def w_theta():
            fpp = f * (1.0 / om ** 4 - 2.0 / om ** 3)
            tr, tz = 2.0 * dr / a2, 2.0 * dz / a2
            f_rr = fpp * tr * tr + fp * 2.0 / a2
            f_zz = fpp * tz * tz + fp * 2.0 / a2
            return -(f_rr - f_r / r + f_zz) / r

        # slot -> (its values inside the disk, its value outside); outside,
        # w_theta and w_r are the jet's zeros negated, -0.0 (r > 0), which
        # keeps every sum over these nodes bit for bit
        forms = {"w_theta": (w_theta, -0.0), "w_z": (lambda: f_r + f / r, 0.0),
                 "w_r": (lambda: -(fp * 2.0 * dz / a2), -0.0)}
        found = {}
        for s in dict.fromkeys(slots):
            form, outside = forms[s]
            found[s] = np.full(shape, outside)
            found[s].put(idx, form())
        return [found[s] for s in slots]


def swirling_bump_field(r0, z0, radius):
    """A stream-function bump's velocity (u_r, u_z) plus a swirl bump
    u_theta, both on one SmoothBump psi, and the exact curl of their sum.

    The stream part gives w_theta = dz u_r - dr u_z = -(1/r) (psi_rr -
    psi_r / r + psi_zz), the swirl part w_r = -dz u_theta and w_z = (1/r)
    dr(r u_theta) = dr u_theta + u_theta / r.  The vorticity is analytic
    and compactly supported in the bump's disk.  Either part alone is this
    field with the other part's slots set to zero.
    """
    if r0 - radius <= 0:
        raise ValueError("bump support touches the axis")
    bump = SmoothBump(r0=r0, z0=z0, radius=radius)
    field = stream_function_field(bump.profile(), support=bump.support)
    field.u_theta = bump.profile()
    return field, _BumpCurl(bump)


def power_law_vorticity(beta, axial_envelope=None):
    """Vorticity profile w = (1 + rho)^(-beta) * eta(k) in all three slots.

    Each velocity component samples only the slots its reconstruction
    terms name (reconstruct.COMPONENTS), so one field serves u_r, u_z and
    u_theta.  beta must exceed 1 or the reconstruction integrals may
    diverge.
    """
    if not beta > 1.0:
        raise ValueError("beta must exceed 1 (got %g): reconstruction integrals "
                         "may diverge" % beta)
    env = (axial_envelope if axial_envelope is not None
           else AxialEnvelope("gauss", scale=1.0))
    if not np.all(env(np.linspace(-50, 50, 101)) <= 1.0 + 1e-12):
        raise ValueError("axial envelope must be bounded by 1")

    def w(rho, k):
        rho = np.asarray(rho, dtype=float)
        return (1.0 + rho) ** (-beta) * env(k)

    prof = Profile(fn=w, name="power_law_w(beta=%g)" % beta)
    return VorticityField(w_r=prof, w_theta=prof, w_z=prof,
                          decay_beta=beta, axial_envelope=env)
