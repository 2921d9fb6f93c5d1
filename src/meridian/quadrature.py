"""Shared 1-D quadrature machinery: Gauss-Legendre panels and adaptive bisection.

Everything downstream (angular kernels, half-plane reconstruction, norm
integrals) is built from composite Gauss-Legendre rules on explicit panel
meshes.  Panel meshes are ordinary 1-D float arrays of edges; helpers below
build uniform, geometric and feature-graded meshes.  The adaptive routine is
a worst-panel-first bisection with a hard subdivision budget so worst-case
cost stays bounded in grid scans.
"""

import heapq

import numpy as np
from numpy.polynomial.legendre import leggauss

DEFAULT_PANEL_BUDGET = 2 ** 14
ADAPTIVE_N_HI = 15          # adaptive_integrate: GL nodes per panel
ADAPTIVE_N_LO = 7           # and per panel of its embedded error rule
FIXED_N_ERR = 7             # fixed_integrate: nodes of the error rule

_GL_CACHE = {}


def gauss_legendre(n):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


def panel_nodes(edges, n):
    """Composite GL nodes and weights for the panel mesh `edges`.

    Returns (x, w) flat arrays; sum(w) equals the mesh span.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(n)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (np.abs(half)[:, None] * w[None, :]).ravel()
    return nodes, weights


def uniform_mesh(a, b, n_panels):
    return np.linspace(a, b, n_panels + 1)


def geometric_mesh(a, b, scale, grow=2.0):
    """Edges on [a, b] graded geometrically away from `a`.

    First panel has width `scale`; widths grow by `grow` until `b` is
    reached.  Falls back to a single panel when scale >= b - a.
    """
    span = b - a
    if span <= 0:
        raise ValueError("empty interval")
    if scale >= span:
        return np.array([a, b])
    edges = [0.0]
    w = scale
    pos = scale
    while pos < span:
        edges.append(pos)
        w *= grow
        pos += w
    edges.append(span)
    return a + np.asarray(edges)


def graded_mesh(a, b, features, scale, grow=2.0):
    """Edges on [a, b] refined geometrically around each feature point.

    `features` are locations (inside or outside [a, b]) where the integrand
    has a short length-scale `scale`; panel edges accumulate at distances
    scale * grow^j from each feature, so the mesh is fine there and coarse
    elsewhere.  Edges closer together than ~scale/4 are merged.
    """
    if b <= a:
        raise ValueError("empty interval")
    span = b - a
    pts = [a, b]
    for c in np.atleast_1d(np.asarray(features, dtype=float)):
        if a < c < b:
            pts.append(c)
        d = scale
        while d < span + max(abs(c - a), abs(c - b)):
            for p in (c - d, c + d):
                if a < p < b:
                    pts.append(p)
            d *= grow
    pts = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(pts) > 0.25 * scale])
    keep[-1] = True
    out = pts[keep]
    out[0] = a
    out[-1] = b
    return out


class QuadratureError(RuntimeError):
    """Tolerance unreachable within the subdivision budget.

    Carries the best available estimate and its error bound so callers can
    decide whether to degrade gracefully.
    """

    def __init__(self, message, best, error):
        super().__init__(message)
        self.best = best
        self.error = error


def adaptive_integrate(f, a, b, tol, budget=DEFAULT_PANEL_BUDGET,
                       seed_edges=None):
    """Worst-first adaptive bisection of int_a^b f on [a, b].

    `f` must accept a numpy array of abscissae.  Per-panel error is the
    difference between the ADAPTIVE_N_HI- and ADAPTIVE_N_LO-point GL
    results.  Returns (value, error_estimate).  Raises QuadratureError when
    `tol` is not met within `budget` panels.
    """
    xh, wh = gauss_legendre(ADAPTIVE_N_HI)
    xl, wl = gauss_legendre(ADAPTIVE_N_LO)

    def panel(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        vh = half * np.dot(wh, f(mid + half * xh))
        vl = half * np.dot(wl, f(mid + half * xl))
        return vh, abs(vh - vl)

    if seed_edges is None:
        seed_edges = [a, b]
    heap = []
    total = 0.0
    total_err = 0.0
    for i in range(len(seed_edges) - 1):
        v, e = panel(seed_edges[i], seed_edges[i + 1])
        total += v
        total_err += e
        heapq.heappush(heap, (-e, seed_edges[i], seed_edges[i + 1], v))
    n_panels = len(seed_edges) - 1

    while total_err > tol and n_panels < budget:
        neg_e, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        n_panels += 1

    if total_err > tol:
        raise QuadratureError(
            "tolerance %.3g not reached within %d panels (error %.3g)"
            % (tol, budget, total_err), total, total_err)
    return total, total_err


def fixed_integrate(f, edges, n=12):
    """Composite GL integral on a fixed mesh with a companion error estimate."""
    x, w = panel_nodes(edges, n)
    hi = float(np.dot(w, f(x)))
    xe, we = panel_nodes(edges, FIXED_N_ERR)
    lo = float(np.dot(we, f(xe)))
    return hi, abs(hi - lo)
