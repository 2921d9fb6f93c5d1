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

    def _support_nodes(self, r, z):
        """The nodes strictly inside the support, flat in C order over the
        broadcast shape of r and z: (shape, idx, r, z, om, f, fp), with r
        and z gathered at the flat indices idx, om = 1 - q^2, the bump f and
        fp = df/d(q^2) there.  q^2 sums (r - r0)^2 and (z - z0)^2 by
        broadcasting, so a column of r and a row of z are squared at their
        own size.  Nothing is cached, so threads may share one bump."""
        r, z = np.asarray(r, dtype=float), np.asarray(z, dtype=float)
        t = ((r - self.r0) ** 2 + (z - self.z0) ** 2) / self.radius ** 2
        idx = np.flatnonzero(t < 1.0 - 1e-14)
        r, z = (np.broadcast_to(x, t.shape).ravel().take(idx) for x in (r, z))
        om = 1.0 - t.take(idx)
        f = np.exp(1.0 - 1.0 / om)
        return t.shape, idx, r, z, om, f, -f / om ** 2

    def jet(self, r, z):
        """(f, f_r, f_z, f_rr, f_zz, f_rz) at (r, z) from one exponential,
        evaluated only at the nodes inside the support; zeros outside."""
        shape, idx, r, z, om, f, fp = self._support_nodes(r, z)
        a2 = self.radius ** 2
        dr, dz = r - self.r0, z - self.z0
        fpp = f * (1.0 / om ** 4 - 2.0 / om ** 3)
        tr, tz = 2.0 * dr / a2, 2.0 * dz / a2
        # one row at a time, so no derivative outlives its copy into out
        out = np.zeros((6,) + shape)
        rows = out.reshape(6, -1)
        rows[0, idx] = f
        rows[1, idx] = fp * 2.0 * dr / a2
        rows[2, idx] = fp * 2.0 * dz / a2
        rows[3, idx] = fpp * tr * tr + fp * 2.0 / a2
        rows[4, idx] = fpp * tz * tz + fp * 2.0 / a2
        rows[5, idx] = fpp * tr * tz
        return out

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
