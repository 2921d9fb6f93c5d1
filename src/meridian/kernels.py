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
P1 and P2 cancel as m -> 0, so below m = SERIES_M the moments come from
their power series in m instead.  Both branches are O(1) per point and
agree with 40-digit references to about 4e-13 relative at worst (just
above the switch).

`kernel_triple` keeps adaptive angular quadrature as the independent
oracle.  Its integrand develops a boundary layer of width K^{-1/2} at t = 0,
where

    K = 4 r rho / ((r - rho)^2 + zeta^2)

is the near-diagonal modulus; geometrically graded panels resolve it and
`adaptive_integrate` refines to a requested absolute tolerance.

The model integral behind the kernel envelopes is

    I(K, beta) = int_0^{pi/2} dt / (1 + K sin(t)^2)^{beta/2}

which admits the closed form pi / (2 sqrt(1 + K)) at beta = 2 and decays
like K^{-1/2} (beta > 1) or K^{-delta/2} (beta = 1, any delta < 1).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ellipe, ellipkm1

from .quadrature import DEFAULT_PANEL_BUDGET, adaptive_integrate

# K above which kernel quadrature switches to the u = sin(t) substitution;
# the layer is then exactly algebraic and geometric panels in u are optimal.
SUBSTITUTION_K = 1e6


@dataclass(frozen=True)
class AngularIntegralSpec:
    """Parameters of the model integral I(K, beta)."""
    K: float
    beta: float
    tol: float = 1e-10
    budget: int = DEFAULT_PANEL_BUDGET

    def __post_init__(self):
        if not (self.K >= 0):
            raise ValueError("K must be >= 0, got %r" % (self.K,))
        if not (self.beta >= 1):
            raise ValueError("beta must be >= 1, got %r" % (self.beta,))
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.budget < 1:
            raise ValueError("subdivision budget must be positive")


@dataclass(frozen=True)
class KernelTriple:
    """Kernel values at one (r, rho, zeta) with absolute error estimates."""
    gamma1: float
    gamma2: float
    gamma3: float
    err1: float
    err2: float
    err3: float


def layer_panels(K, span=np.pi / 2, deepen=0):
    """Panel edges on [0, span] graded into the K sin^2 boundary layer."""
    scale = min(span, 1.0 / np.sqrt(max(K, 1.0))) * 0.5 ** deepen
    edges = [span]
    e = span
    while e > scale:
        e *= 0.5
        edges.append(e)
    edges.append(0.0)
    return np.array(sorted(edges))


def angular_integral(spec):
    """Evaluate I(K, beta) to spec.tol (absolute).

    Adaptive bisection seeded with layer-resolving panels; raises
    QuadratureError carrying the best estimate if the budget is exhausted.
    Returns (value, error_estimate).
    """
    K, beta = spec.K, spec.beta

    def f(t):
        return (1.0 + K * np.sin(t) ** 2) ** (-0.5 * beta)

    seed = layer_panels(K)
    return adaptive_integrate(f, 0.0, np.pi / 2, spec.tol, budget=spec.budget,
                              seed_edges=seed)


def angular_bound_ratio(spec, delta=None):
    """Ratio of I(K, beta) to its decay envelope.

    envelope = min(1, K^{-delta/2}) for beta = 1 (requires 0 <= delta < 1)
    and min(1, K^{-1/2}) for beta > 1.  Scanning the ratio over K estimates
    the sharp constant in the envelope; the ratio at K = 0 is pi/2.
    """
    if spec.beta == 1.0:
        if delta is None or not (0 <= delta < 1):
            raise ValueError("beta = 1 requires an exponent 0 <= delta < 1")
        expo = 0.5 * delta
    else:
        expo = 0.5
    value, _ = angular_integral(spec)
    envelope = min(1.0, spec.K ** (-expo)) if spec.K > 0 else 1.0
    return value / envelope


def k_modulus(r, rho, zeta):
    """K = 4 r rho / ((r - rho)^2 + zeta^2); inf on the diagonal."""
    d2 = (r - rho) ** 2 + zeta ** 2
    with np.errstate(divide="ignore"):
        return np.where(d2 > 0, 4.0 * r * rho / np.where(d2 > 0, d2, 1.0), np.inf)


def kernel_triple(r, rho, zeta, tol=1e-12):
    """G1, G2, G3 at a single point, each to absolute tolerance `tol`.

    The diagonal point (rho = r, zeta = 0) is a non-integrable singularity
    of the kernels themselves and is rejected.
    """
    d2 = (r - rho) ** 2 + zeta ** 2
    if d2 <= 0.0:
        raise ValueError("kernel singular at the diagonal point rho=r, zeta=0")
    if r < 0 or rho < 0:
        raise ValueError("radii must be nonnegative")
    K = 4.0 * r * rho / d2

    four = _reduced_moments_scalar(r, rho, zeta, K, tol)
    (j0, e0), (j1, e1), (j2, e2) = four
    g1 = (zeta / np.pi) * j1
    g2 = -(rho * j0 - r * j1) / np.pi
    g3 = -(rho * j1 - r * j2) / np.pi
    return KernelTriple(
        gamma1=g1, gamma2=g2, gamma3=g3,
        err1=abs(zeta) / np.pi * e1,
        err2=(rho * e0 + r * e1) / np.pi,
        err3=(rho * e1 + r * e2) / np.pi,
    )


def _reduced_moments_scalar(r, rho, zeta, K, tol):
    """Adaptive J_m = int_0^{pi/2} cos(2t)^m / D(2t)^{3/2} dt for m = 0, 1, 2.

    For K > SUBSTITUTION_K the substitution u = sin(t) is applied first so
    the boundary layer becomes an algebraic feature at u = 0.
    """
    D0 = (r - rho) ** 2 + zeta ** 2
    results = []
    if K <= SUBSTITUTION_K:
        seed = layer_panels(K)
        for m in (0, 1, 2):
            def f(t, m=m):
                den = (D0 + 4.0 * r * rho * np.sin(t) ** 2) ** 1.5
                return np.cos(2 * t) ** m / den
            results.append(adaptive_integrate(f, 0.0, np.pi / 2, tol, seed_edges=seed))
    else:
        # t = arcsin(u): dt = du / sqrt(1 - u^2), cos 2t = 1 - 2 u^2
        seed = layer_panels(K, span=1.0)
        for m in (0, 1, 2):
            def f(u, m=m):
                u2 = u * u
                den = (D0 + 4.0 * r * rho * u2) ** 1.5
                return (1.0 - 2.0 * u2) ** m / (den * np.sqrt(1.0 - u2))
            results.append(adaptive_integrate(f, 0.0, 1.0 - 1e-12, tol, seed_edges=seed))
    return results


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


def ring_moments(r, rho, zeta):
    """Reduced moments J0, J1, J2 in closed form (see the module docstring).

    For m >= SERIES_M they come from K = ellipkm1(y) and E = ellipe(m),
    with y = 1 - m formed from the squared distance to the diagonal so it
    does not cancel as the source ring nears the field point; below it,
    from the power series in m.  Arrays broadcast; callers reject the
    diagonal point itself.
    """
    rho, zeta = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                    np.asarray(zeta, dtype=float))
    shape = rho.shape
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
        p2 = (p1 - (K - E) / m) / m
    j0 = p0 * inv_a3
    j1 = (2.0 * p1 - p0) * inv_a3
    j2 = (4.0 * p2 - 4.0 * p1 + p0) * inv_a3

    small = m < SERIES_M
    if np.any(small):
        ms, inv_s = m[small], inv_a3[small]
        for out, coef in zip((j0, j1, j2), _SERIES):
            out[small] = np.polyval(coef, ms) * inv_s
    return j0.reshape(shape), j1.reshape(shape), j2.reshape(shape)


class KernelValues:
    """Batched kernel values from the closed-form moments.

    Each field is formed from the moments on first read and then cached,
    so a caller pays only for the kernels it reads (u_r reads g1 alone).
    g_swirl is the kernel pairing the axial vorticity in the swirl
    reconstruction, (1/4pi) int (r - rho cos p)/D^{3/2} dp; by the symmetry
    of D it equals -G2(rho, r, zeta) and shares the reduced moments.
    g1_over_zeta = G1 / zeta stays finite through zeta = 0 (G1 is odd in
    zeta); envelope-ratio scans use it to evaluate the zeta -> 0 limit.
    """

    def __init__(self, r, rho, zeta, moments):
        self.r, self.rho, self.zeta = r, rho, zeta
        self.j0, self.j1, self.j2 = moments

    g1 = cached_property(lambda s: (s.zeta / np.pi) * s.j1)
    g2 = cached_property(lambda s: -(s.rho * s.j0 - s.r * s.j1) / np.pi)
    g3 = cached_property(lambda s: -(s.rho * s.j1 - s.r * s.j2) / np.pi)
    g_swirl = cached_property(lambda s: (s.r * s.j0 - s.rho * s.j1) / np.pi)
    g1_over_zeta = cached_property(lambda s: s.j1 / np.pi)


def kernel_batch(r, rho, zeta, n_nodes=16, n_err=8, deepen=0,
                 with_errors=True):
    """Vectorized kernels over source-point arrays for one field radius r.

    Closed forms from `ring_moments`, O(1) per point and accurate to about
    4e-13 relative in the moments, so no error estimate is returned.  The
    moments are evaluated here; the returned `KernelValues` forms each
    kernel from them when it is first read.  This is the workhorse for grid
    scans and half-plane reconstruction; its agreement with the adaptive
    `kernel_triple` oracle is asserted in tests.  `n_nodes`, `n_err`,
    `deepen` and `with_errors` are ignored: they remain only because the
    benchmark's trace binds them by name.
    """
    rho, zeta = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                    np.asarray(zeta, dtype=float))
    if np.any((r - rho) ** 2 + zeta ** 2 <= 0):
        raise ValueError("kernel_batch received a diagonal point")
    return KernelValues(r, rho, zeta, ring_moments(r, rho, zeta))


def swirl_source_kernel(r, rho, zeta, tol=1e-12):
    """Kernel pairing the axial vorticity component in swirl reconstruction.

    Direct evaluation of the cross product in the Biot-Savart integral gives

        M(r, rho, zeta) = (1/4pi) int_0^{2pi} (r - rho cos p) / D(p)^{3/2} dp

    for the w_k factor of u_theta, i.e. M(r, rho, zeta) = -G2(rho, r, zeta).
    The round-trip identity on pure-swirl fields holds with M and fails with
    G3; see the package notes on the swirl representation.
    """
    kt = kernel_triple(rho, r, zeta, tol=tol)
    return -kt.gamma2, kt.err2
