"""Shared 1-D quadrature machinery: Gauss-Legendre panels on graded meshes.

Half-plane reconstruction and the norm integrals are built from composite
Gauss-Legendre rules on explicit panel meshes.  Panel meshes are ordinary
1-D float arrays of edges; helpers below build geometric and
feature-graded meshes.  The one adaptive 1-D integrator in the package is
SciPy's QUADPACK `quad`, which the kernel oracle and the tail bounds
import and call directly when they run.
"""

import numpy as np
from numpy.polynomial.legendre import leggauss

_GL_CACHE = {}


def gauss_legendre(n):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if n not in _GL_CACHE:
        _GL_CACHE[n] = leggauss(n)
    return _GL_CACHE[n]


def panel_nodes(edges, n):
    """Composite GL nodes and weights for the panel mesh `edges`.

    Returns (x, w) arrays, flat along the mesh; sum(w) equals the mesh
    span.  Leading axes of `edges` stack separate meshes and are kept.
    """
    edges = np.asarray(edges, dtype=float)
    x, w = gauss_legendre(n)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
    weights = (np.abs(half)[..., None] * w).reshape(shape)
    return nodes, weights


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


def graded_mesh(a, b, features, scale):
    """Edges on [a, b] refined geometrically around each feature point.

    `features` are locations (inside or outside [a, b]) where the integrand
    has a short length-scale `scale`; panel edges accumulate at distances
    scale * 2^j from each feature, so the mesh is fine there and coarse
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
            d *= 2.0
    pts = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(pts) > 0.25 * scale])
    keep[-1] = True
    out = pts[keep]
    out[0] = a
    out[-1] = b
    return out

