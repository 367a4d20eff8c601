"""Hypothesis property tests over generated connected graphs."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from riccikit.curvature import kappa_lly, kappa_zero
from riccikit.graphs import Graph, RotationSystem, bfs_distances, trace_faces, validate_embedding
from riccikit.transport import lazy_measure, optimal_transport


@st.composite
def connected_graphs(draw, max_n=9):
    """Random tree plus a handful of extra edges; always connected."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    edges = set()
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.add((parent, child))
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=8,
        )
    )
    for u, v in extras:
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(edges)


@st.composite
def graphs_with_rotations(draw, max_n=8):
    """A connected graph with an arbitrary (not necessarily planar) rotation."""
    g = draw(connected_graphs(max_n=max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    order = {}
    for v in g.vertices:
        cycle = list(g.neighbors(v))
        rng.shuffle(cycle)
        order[v] = cycle
    return g, RotationSystem(g, order)


@settings(max_examples=40, deadline=None)
@given(connected_graphs())
def test_bfs_metric_axioms(g):
    maps = {v: bfs_distances(g, v) for v in g.vertices}
    for u in g.vertices:
        assert maps[u][u] == 0
        for v in g.vertices:
            assert maps[u][v] == maps[v][u]
            assert (maps[u][v] == 0) == (u == v)
    for u, v in g.edges():
        for w in g.vertices:
            assert abs(maps[u][w] - maps[v][w]) <= 1


@settings(max_examples=40, deadline=None)
@given(graphs_with_rotations())
def test_any_rotation_traces_a_closed_surface(pair):
    g, rot = pair
    faces = trace_faces(g, rot)
    assert sum(f.size for f in faces) == 2 * g.edge_count
    chi = validate_embedding(g, faces).euler_characteristic
    # rotation systems describe closed orientable surfaces: chi = 2 - 2g
    assert chi <= 2 and chi % 2 == 0


@settings(max_examples=30, deadline=None)
@given(connected_graphs(max_n=7), st.fractions(min_value=0, max_value=1))
def test_lazy_measure_is_a_probability(g, alpha):
    m = lazy_measure(g, g.vertices[0], Fraction(alpha))
    total = sum(mass for _, mass in m.items())
    assert total == 1
    assert all(mass > 0 for _, mass in m.items())


@settings(max_examples=20, deadline=None)
@given(connected_graphs(max_n=6), st.integers(0, 10**6))
def test_transport_symmetry_and_distance_bound(g, seed):
    # W can exceed d on negatively curved edges (spider trees already do it),
    # so the provable general bound is d + 2(1 - alpha): lazy mass rides a
    # geodesic, every neighbor unit detours through its endpoint.
    rng = random.Random(seed)
    x, y = rng.sample(list(g.vertices), 2)
    alpha = Fraction(1, 3)
    mx, my = lazy_measure(g, x, alpha), lazy_measure(g, y, alpha)
    wxy = optimal_transport(g, mx, my).distance
    wyx = optimal_transport(g, my, mx).distance
    assert wxy == wyx
    assert wxy <= bfs_distances(g, x)[y] + 2 * (1 - alpha)


@settings(max_examples=15, deadline=None)
@given(connected_graphs(max_n=6))
def test_edge_curvature_sandwich(g):
    for u, v in g.edges():
        k = kappa_lly(g, u, v)
        assert kappa_zero(g, u, v) <= k <= 2
