"""Meridian-plane Biot-Savart ring kernels: closed forms and their oracle.

The three kernels coupling a source ring at (rho, k) to a field point at
(r, z), with zeta = z - k, are

    G1(r, rho, zeta) = (1/4pi) int_0^{2pi} zeta cos(p) / D(p)^{3/2} dp
    G2(r, rho, zeta) = -(1/4pi) int_0^{2pi} (rho - r cos(p)) / D(p)^{3/2} dp
    G3(r, rho, zeta) = -(1/4pi) int_0^{2pi} (rho - r cos(p)) cos(p) / D(p)^{3/2} dp

with D(p) = r^2 + rho^2 - 2 r rho cos(p) + zeta^2.  Periodicity and evenness
reduce them to the moments J_k = int_0^{pi/2} cos(2t)^k / D(2t)^{3/2} dt:

    G1 = zeta J1 / pi,   G2 = -(rho J0 - r J1) / pi,   G3 = -(rho J1 - r J2) / pi.

With a^2 = (r + rho)^2 + zeta^2, m = 4 r rho / a^2 and y = 1 - m =
((r - rho)^2 + zeta^2) / a^2, D(2t) = a^2 (1 - m cos(t)^2), and t -> pi/2 - t
turns the moments into

    J0 = a^-3 P0,   J1 = a^-3 (2 P1 - P0),   J2 = a^-3 (4 P2 - 4 P1 + P0),
    P_j = int_0^{pi/2} sin(t)^{2j} / (1 - m sin(t)^2)^{3/2} dt,

complete elliptic integrals of parameter m (Lamb, Hydrodynamics, sec. 161):

    P0 = E/y,   P1 = (P0 - K)/m,   P2 = (P1 - (K - E)/m)/m.

`kernel_batch` evaluates these with K = ellipkm1(y), E = ellipe(m), forming
y from the squared distance to the diagonal so it does not cancel there.
The two come from `scipy.special`, imported at the first evaluation, so
that importing the package loads no SciPy module.
P1 and P2 cancel as m -> 0, so below m = SERIES_M the moments come from
their power series in m instead.  Both branches are O(1) per point and
agree with 40-digit references to about 4e-13 relative at worst (just
above the switch).

`kernel_triple` keeps adaptive angular quadrature as the independent
oracle: QUADPACK's globally adaptive Gauss-Kronrod `quad` (Piessens et
al., 1983; from `scipy.integrate`, imported when the oracle is called) on
J0, J1, J2 directly.  Its integrand develops a boundary layer of width
K^{-1/2} at t = 0, where

    K = 4 r rho / ((r - rho)^2 + zeta^2)

is the near-diagonal modulus; `layer_panels`' geometrically graded edges
seed the subdivision there.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# relative tolerance of the oracle's quadrature beside its absolute `tol`:
# a double cannot hold an absolute error below its value's last digit
ORACLE_EPSREL = 1e-13


@dataclass(frozen=True)
class KernelTriple:
    """Kernel values at one (r, rho, zeta) with absolute error estimates."""
    gamma1: float
    gamma2: float
    gamma3: float
    err1: float
    err2: float
    err3: float


def layer_panels(K, deepen=0):
    """Panel edges on [0, pi/2] graded into the K sin^2 boundary layer."""
    span = np.pi / 2
    scale = min(span, 1.0 / np.sqrt(max(K, 1.0))) * 0.5 ** deepen
    edges = [span]
    e = span
    while e > scale:
        e *= 0.5
        edges.append(e)
    edges.append(0.0)
    return np.array(sorted(edges))


def k_modulus(r, rho, zeta):
    """K = 4 r rho / ((r - rho)^2 + zeta^2); inf on the diagonal."""
    d2 = (r - rho) ** 2 + zeta ** 2
    with np.errstate(divide="ignore"):
        return np.where(d2 > 0, 4.0 * r * rho / np.where(d2 > 0, d2, 1.0), np.inf)


def kernel_triple(r, rho, zeta, tol=1e-12):
    """G1, G2, G3 at a single point, each J_k to absolute tolerance `tol`
    or ORACLE_EPSREL relative, whichever is looser.

    The errors are QUADPACK's estimates carried through the kernel
    combinations.  Raises ArithmeticError when `quad` reports that it did
    not converge.  The diagonal point (rho = r, zeta = 0) is a
    non-integrable singularity of the kernels themselves and is rejected.
    """
    from scipy.integrate import quad
    d2 = (r - rho) ** 2 + zeta ** 2
    if d2 <= 0.0:
        raise ValueError("kernel singular at the diagonal point rho=r, zeta=0")
    if r < 0 or rho < 0:
        raise ValueError("radii must be nonnegative")
    four_r_rho = 4.0 * r * rho
    points = layer_panels(four_r_rho / d2)[1:-1]

    def moment(m):
        def f(t):
            den = (d2 + four_r_rho * math.sin(t) ** 2) ** 1.5
            return math.cos(2.0 * t) ** m / den
        # quad's default limit of 50 subintervals, beyond the break points
        out = quad(f, 0.0, math.pi / 2, points=points, epsabs=tol,
                   epsrel=ORACLE_EPSREL, limit=len(points) + 50,
                   full_output=1)
        if len(out) == 4:       # quad's failure form carries its message
            raise ArithmeticError("kernel oracle at (r=%g, rho=%g, zeta=%g): %s"
                                  % (r, rho, zeta, out[3]))
        return out[:2]

    (j0, e0), (j1, e1), (j2, e2) = moment(0), moment(1), moment(2)
    g1 = (zeta / np.pi) * j1
    g2 = -(rho * j0 - r * j1) / np.pi
    g3 = -(rho * j1 - r * j2) / np.pi
    return KernelTriple(
        gamma1=g1, gamma2=g2, gamma3=g3,
        err1=abs(zeta) / np.pi * e1,
        err2=(rho * e0 + r * e1) / np.pi,
        err3=(rho * e1 + r * e2) / np.pi,
    )


def _series_coefficients(n_terms):
    """Coefficients of a^3 J0, a^3 J1, a^3 J2 as power series in m.

    (1 - m s^2)^{-3/2} = sum_n c_n m^n s^{2n} with c_n = (3/2)_n / n!, and
    int_0^{pi/2} sin(t)^{2j} dt = s_j = (pi/2) (1/2)_j / j!, so
    P_k = sum_n c_n s_{n+k} m^n.  In the J combinations the ratios
    s_{n+1}/s_n = (2n+1)/(2n+2) collapse to exact factors,

        2 s_{n+1} - s_n = s_n n / (n+1)
        4 s_{n+2} - 4 s_{n+1} + s_n = s_n (n^2 + n + 1) / ((n+1)(n+2)),

    so the leading terms of J1 cancel in the coefficients, not at run time.
    Returned highest power first, ready for np.polyval.
    """
    n = np.arange(n_terms, dtype=float)
    c = np.cumprod(np.concatenate([[1.0], (n[:-1] + 1.5) / (n[:-1] + 1.0)]))
    s = 0.5 * np.pi * np.cumprod(np.concatenate(
        [[1.0], (n[:-1] + 0.5) / (n[:-1] + 1.0)]))
    cs = c * s
    return (cs[::-1], (cs * n / (n + 1.0))[::-1],
            (cs * (n * n + n + 1.0) / ((n + 1.0) * (n + 2.0)))[::-1])


# m below which the moments come from their power series: the closed forms
# divide by m twice and lose digits as m -> 0.  At m = SERIES_M the 20-term
# series is truncated below 1e-18 relative.
SERIES_M = 0.1
_SERIES = _series_coefficients(20)


class RingMoments:
    """Reduced moments J0, J1, J2 in closed form (see the module docstring).

    For m >= SERIES_M they come from K = ellipkm1(y) and E = ellipe(m),
    with y = 1 - m formed from the squared distance to the diagonal so it
    does not cancel as the source ring nears the field point; below it,
    from the power series in m.  J0 and J1 are formed at once; J2, which
    only G3 reads, is formed on first read.  Arrays broadcast, and each
    moment has their broadcast shape; callers reject the diagonal point
    itself.
    """

    def __init__(self, r, rho, zeta):
        from scipy.special import ellipe, ellipkm1
        rho, zeta = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                        np.asarray(zeta, dtype=float))
        self.r, self.rho, self.zeta = r, rho, zeta
        rho, zeta = rho.ravel(), zeta.ravel()
        a2 = (r + rho) ** 2 + zeta ** 2
        # rounding can carry 4 r rho past a^2 by an ulp at zeta = 0
        m = np.minimum(4.0 * r * rho / a2, 1.0)
        y = ((r - rho) ** 2 + zeta ** 2) / a2
        inv_a3 = 1.0 / (a2 * np.sqrt(a2))
        K = ellipkm1(y)
        E = ellipe(m)
        # m = 0 divides by zero here; the series overwrites those points
        with np.errstate(divide="ignore", invalid="ignore"):
            p0 = E / y
            p1 = (p0 - K) / m
        self._small = m < SERIES_M
        self._parts = m, inv_a3, K, E, p0, p1
        self.j0 = self._series(0, p0 * inv_a3)
        self.j1 = self._series(1, (2.0 * p1 - p0) * inv_a3)

    def _series(self, k, out):
        """`out`, the closed form of J_k on the flat nodes, with the series
        put in below SERIES_M, in the nodes' shape."""
        small = self._small
        if np.any(small):
            m, inv_a3 = self._parts[:2]
            out[small] = np.polyval(_SERIES[k], m[small]) * inv_a3[small]
        return out.reshape(self.rho.shape)

    @cached_property
    def j2(self):
        m, inv_a3, K, E, p0, p1 = self._parts
        with np.errstate(divide="ignore", invalid="ignore"):
            p2 = (p1 - (K - E) / m) / m
        return self._series(2, (4.0 * p2 - 4.0 * p1 + p0) * inv_a3)


class KernelValues(RingMoments):
    """Batched kernel values from the closed-form moments.

    Each field is formed from the moments on first read and then cached,
    so a caller pays only for the kernels it reads (u_r reads g1 alone, and
    no reconstruction kernel reads J2).
    g_swirl is the kernel pairing the axial vorticity in the swirl
    reconstruction, (1/4pi) int (r - rho cos p)/D^{3/2} dp; by the symmetry
    of D it equals -G2(rho, r, zeta) and shares the reduced moments.
    g1_over_zeta = G1 / zeta stays finite through zeta = 0 (G1 is odd in
    zeta); envelope-ratio scans use it to evaluate the zeta -> 0 limit.
    """

    g1 = cached_property(lambda s: (s.zeta / np.pi) * s.j1)
    g2 = cached_property(lambda s: -(s.rho * s.j0 - s.r * s.j1) / np.pi)
    g3 = cached_property(lambda s: -(s.rho * s.j1 - s.r * s.j2) / np.pi)
    g_swirl = cached_property(lambda s: (s.r * s.j0 - s.rho * s.j1) / np.pi)
    g1_over_zeta = cached_property(lambda s: s.j1 / np.pi)


def kernel_batch(r, rho, zeta, n_nodes=16, n_err=8, deepen=0,
                 with_errors=True):
    """Vectorized kernels over source-point arrays for one field radius r.

    Closed forms from `RingMoments`, O(1) per point and accurate to about
    4e-13 relative in the moments, so no error estimate is returned.  J0
    and J1 are evaluated here; the returned `KernelValues` forms J2 and
    each kernel when it is first read.  This is the workhorse for grid
    scans and half-plane reconstruction; its agreement with the adaptive
    `kernel_triple` oracle is asserted in tests.  `n_nodes`, `n_err`,
    `deepen` and `with_errors` are ignored: they remain only because the
    benchmark's trace binds them by name.
    """
    rho, zeta = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                    np.asarray(zeta, dtype=float))
    if np.any((r - rho) ** 2 + zeta ** 2 <= 0):
        raise ValueError("kernel_batch received a diagonal point")
    return KernelValues(r, rho, zeta)
