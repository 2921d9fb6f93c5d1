import numpy as np
import pytest

from meridian.quadrature import (QuadratureError, adaptive_integrate,
                                 geometric_mesh, graded_mesh, panel_nodes)


def test_adaptive_polynomial_exact():
    val, err = adaptive_integrate(lambda x: 3 * x ** 2, 0.0, 2.0, 1e-12)
    assert abs(val - 8.0) < 1e-12


def test_adaptive_peaked_integrand():
    # int_0^1 a/(a^2 + x^2) dx = arctan(1/a), sharp peak at 0 for small a
    a = 1e-4
    val, err = adaptive_integrate(lambda x: a / (a * a + x * x), 0.0, 1.0, 1e-10)
    assert abs(val - np.arctan(1.0 / a)) < 1e-9
    assert err <= 1e-10


def test_adaptive_budget_exhaustion_carries_best():
    with pytest.raises(QuadratureError) as info:
        adaptive_integrate(lambda x: np.abs(x - np.sqrt(2) / 2) ** -0.5,
                           0.0, 1.0, 1e-14, budget=8)
    assert info.value.best > 0
    assert info.value.error > 1e-14


def test_panel_nodes_weights_sum_to_span():
    edges = np.array([0.0, 0.5, 2.0])
    x, w = panel_nodes(edges, 8)
    assert abs(w.sum() - 2.0) < 1e-14
    assert x.min() > 0 and x.max() < 2.0


def test_geometric_mesh_structure():
    edges = geometric_mesh(0.0, 10.0, scale=0.01)
    assert edges[0] == 0.0 and edges[-1] == 10.0
    assert np.all(np.diff(edges) > 0)
    assert edges[1] <= 0.011


def test_graded_mesh_refines_at_features():
    edges = graded_mesh(0.0, 100.0, [37.0], scale=0.125)
    assert edges[0] == 0.0 and edges[-1] == 100.0
    gaps = np.diff(edges)
    near = np.argmin(np.abs(edges - 37.0))
    assert gaps[max(near - 1, 0)] <= 0.5
    assert np.all(gaps > 0)


def test_panel_nodes_integrate_sine():
    x, w = panel_nodes(np.linspace(0.0, np.pi, 9), 12)
    assert abs(np.dot(w, np.sin(x)) - 2.0) < 1e-12
