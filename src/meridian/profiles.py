"""Evaluable scalar profiles on the meridian half-plane.

A Profile wraps f(r, z) together with optional analytic derivatives.  All
callables must accept numpy arrays and broadcast; quadrature and scan code
relies on vectorized evaluation.  The curl and divergence operators use
the analytic channel when present and fall back to central finite
differences otherwise.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass
class Profile:
    """Scalar profile with an optional analytic-derivative channel.

    fn(r, z) is mandatory.  d_r, d_z, d_rr, d_zz, d_rz are optional exact
    partial derivatives; `has_derivatives` reports whether first derivatives
    exist, `has_second_derivatives` whether the diagonal seconds do too.
    """
    fn: Callable
    d_r: Optional[Callable] = None
    d_z: Optional[Callable] = None
    d_rr: Optional[Callable] = None
    d_zz: Optional[Callable] = None
    d_rz: Optional[Callable] = None
    name: str = ""

    def __call__(self, r, z):
        return self.fn(r, z)

    @property
    def has_derivatives(self):
        return self.d_r is not None and self.d_z is not None

    @property
    def has_second_derivatives(self):
        return (self.has_derivatives and self.d_rr is not None
                and self.d_zz is not None)


def constant_profile(c):
    val = float(c)
    zero = lambda r, z: np.zeros(np.broadcast(r, z).shape)
    return Profile(fn=lambda r, z: np.full(np.broadcast(r, z).shape, val),
                   d_r=zero, d_z=zero, d_rr=zero, d_zz=zero, d_rz=zero,
                   name="const(%g)" % val)


def zero_profile():
    return constant_profile(0.0)


@dataclass
class SmoothBump:
    """C^infinity bump exp(1 - 1/(1 - q^2)) on q < 1, zero outside.

    q^2 = ((r - r0)^2 + (z - z0)^2) / radius^2, normalized to 1 at the
    center.  Carries exact first and second derivatives; supported on the
    closed disk of `radius` about (r0, z0).
    """
    r0: float
    z0: float
    radius: float

    def jet(self, r, z):
        """(f, f_r, f_z, f_rr, f_zz, f_rz) at (r, z) from one exponential,
        evaluated only at the nodes inside the support; zeros outside."""
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(z, dtype=float))
        a2 = self.radius ** 2
        t = ((r - self.r0) ** 2 + (z - self.z0) ** 2) / a2
        inside = np.flatnonzero(t < 1.0 - 1e-14)
        dr, dz = r.take(inside) - self.r0, z.take(inside) - self.z0
        om = 1.0 - t.take(inside)
        f = np.exp(1.0 - 1.0 / om)
        fp = -f / om ** 2
        fpp = f * (1.0 / om ** 4 - 2.0 / om ** 3)
        tr, tz = 2.0 * dr / a2, 2.0 * dz / a2
        # one row at a time, so no derivative outlives its copy into out
        out = np.zeros((6, t.size))
        out[0, inside] = f
        out[1, inside] = fp * 2.0 * dr / a2
        out[2, inside] = fp * 2.0 * dz / a2
        out[3, inside] = fpp * tr * tr + fp * 2.0 / a2
        out[4, inside] = fpp * tz * tz + fp * 2.0 / a2
        out[5, inside] = fpp * tr * tz
        return out.reshape((6,) + t.shape)

    def profile(self):
        # the jet's order is Profile's: fn, d_r, d_z, d_rr, d_zz, d_rz
        parts = [lambda r, z, i=i: self.jet(r, z)[i] for i in range(6)]
        return Profile(*parts, name="bump(%g,%g;%g)"
                       % (self.r0, self.z0, self.radius))

    @property
    def support(self):
        return (max(self.r0 - self.radius, 0.0), self.r0 + self.radius,
                self.z0 - self.radius, self.z0 + self.radius)


def power_law_profile(mu):
    """f(r, z) = (1 + r)^(-mu), z-independent."""
    return Profile(fn=lambda r, z: (1.0 + np.asarray(r, dtype=float)) ** (-mu),
                   name="power_law(mu=%g)" % mu)
