import numpy as np

from meridian.quadrature import geometric_mesh, graded_mesh, panel_nodes


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
