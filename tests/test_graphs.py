import random
from collections import Counter

import pytest

from riccikit import families
from riccikit.graphs import (
    Graph,
    GraphError,
    ParseError,
    RotationSystem,
    ball,
    bfs_distances,
    common_neighbors,
    diameter,
    distances_to,
    parse_edgelist,
    parse_graph,
    parse_rotation,
    sniff_format,
    to_edgelist_text,
    to_rotation_text,
    trace_faces,
    validate_embedding,
)

from oracles import all_pairs_distances, random_connected_graph


def test_parse_edgelist_triangle():
    g = parse_edgelist("1 2\n2 3\n3 1\n")
    assert g.vertex_count == 3
    assert g.edge_count == 3
    assert g.neighbors(1) == (2, 3)


def test_parse_edgelist_comments_and_blanks():
    g = parse_edgelist("# triangle\n\n1 2\n 2 3 \n3 1\n")
    assert g.edge_count == 3


def test_parse_rotation_triangle_has_two_faces():
    g, rot = parse_rotation("1: 2 3\n2: 3 1\n3: 1 2\n")
    assert g.edge_count == 3
    faces = trace_faces(g, rot)
    assert sorted(f.size for f in faces) == [3, 3]
    assert validate_embedding(g, faces).is_sphere


def test_parse_self_loop_names_line():
    with pytest.raises(ParseError, match="line 1.*self-loop"):
        parse_edgelist("1 1\n")


def test_parse_duplicate_edge_names_line():
    with pytest.raises(ParseError, match="line 3.*duplicate"):
        parse_edgelist("1 2\n2 3\n2 1\n")


def test_parse_bad_token():
    with pytest.raises(ParseError, match="line 2"):
        parse_edgelist("1 2\n2 x\n")


def test_parse_rejects_disconnected():
    with pytest.raises(GraphError, match=r"disconnected \(e\.g\. vertex 3 unreachable\)"):
        parse_edgelist("1 2\n3 4\n")


def test_negative_vertex_ids_are_rejected_on_vertices_and_edges():
    with pytest.raises(GraphError, match="negative vertex id -1$"):
        Graph([], vertices=[-1])
    with pytest.raises(GraphError, match="negative vertex id -2$"):
        Graph([(0, 1)], vertices=[-2, 0, 1])
    with pytest.raises(GraphError, match="negative vertex id -1$"):
        parse_rotation("-1:\n")
    with pytest.raises(GraphError, match="negative vertex id in edge -1 0"):
        parse_rotation("-1: 0\n0: -1\n")


def test_parse_rotation_asymmetric():
    with pytest.raises(ParseError, match="asymmetric"):
        parse_rotation("1: 2\n2:\n")


def test_parse_rotation_missing_vertex_line():
    with pytest.raises(ParseError, match="no rotation line"):
        parse_rotation("1: 2\n")


def test_parse_rotation_duplicate_vertex():
    with pytest.raises(ParseError, match="listed twice"):
        parse_rotation("1: 2\n2: 1\n1: 2\n")


def test_parse_graph_dispatch_and_sniff():
    g, rot = parse_graph("0 1\n1 2\n2 0\n", "edgelist")
    assert rot is None and g.edge_count == 3
    g, rot = parse_graph("1: 2 3\n2: 3 1\n3: 1 2\n", "rotation")
    assert rot is not None
    assert sniff_format("# hi\n1: 2\n") == "rotation"
    assert sniff_format("1 2\n") == "edgelist"
    with pytest.raises(ValueError):
        parse_graph("1 2", "weird")


def test_graph_invariants():
    with pytest.raises(GraphError, match="self-loop"):
        Graph([(1, 1)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph([(1, 2), (2, 1)])
    with pytest.raises(GraphError, match="no vertices"):
        Graph([])
    with pytest.raises(GraphError, match="unknown vertex"):
        Graph([(0, 1)]).neighbors(5)


def test_bfs_distances_cycle(c6):
    dm = bfs_distances(c6, 0)
    assert [dm[v] for v in range(6)] == [0, 1, 2, 3, 2, 1]
    assert dm.eccentricity == 3


def test_bfs_distances_triangle_and_path(k3, path3):
    dm = bfs_distances(k3, 1)
    assert dm[0] == dm[2] == 1
    assert bfs_distances(path3, 0)[2] == 2
    with pytest.raises(GraphError):
        bfs_distances(k3, 9)


def test_ball(k3, c6):
    assert ball(c6, 2, 0) == {2}
    assert ball(k3, 0, 1) == {0, 1, 2}
    assert len(ball(c6, 0, 2)) == 5
    with pytest.raises(ValueError):
        ball(k3, 0, -1)


def test_common_neighbors(k3, c6, k4_minus_edge):
    assert common_neighbors(k3, 0, 1) == {2}
    assert common_neighbors(c6, 0, 1) == set()
    assert common_neighbors(k4_minus_edge, 0, 1) == {2, 3}
    with pytest.raises(ValueError):
        common_neighbors(k3, 0, 0)


def test_trace_faces_families():
    q3, rot = families.hypercube(3)
    faces = trace_faces(q3, rot)
    assert sorted(f.size for f in faces) == [4] * 6
    assert validate_embedding(q3, faces).is_sphere

    c6, rot = families.cycle(6)
    faces = trace_faces(c6, rot)
    assert sorted(f.size for f in faces) == [6, 6]


def test_trace_faces_consumes_every_directed_edge():
    for g, rot in [families.figure1(), families.prism(5), families.antiprism(4),
                   families.wheel(6), families.icosahedron()]:
        faces = trace_faces(g, rot)
        assert sum(f.size for f in faces) == 2 * g.edge_count
        walked = Counter(e for f in faces for e in f.walk)
        assert all(count == 1 for count in walked.values())


def test_k5_is_not_spherical():
    g, _ = families.complete(5)
    natural = RotationSystem(g, {v: list(g.neighbors(v)) for v in g.vertices})
    check = validate_embedding(g, trace_faces(g, natural))
    assert not check.is_sphere
    assert check.euler_characteristic != 2


def test_face_incidences():
    g, rot = families.cycle(3)
    face = trace_faces(g, rot)[0]
    assert face.size == 3
    assert sorted(face.vertex_cycle()) == [0, 1, 2]


def test_one_vertex_graph_has_one_empty_face():
    g, rot = parse_rotation("0:\n")
    faces = trace_faces(g, rot)
    assert [f.walk for f in faces] == [()]
    assert validate_embedding(g, faces).euler_characteristic == 2


def test_distance_is_a_metric_on_random_graphs():
    rng = random.Random(1729)
    for _ in range(12):
        g = random_connected_graph(rng, n_max=9, max_degree=5)
        dist = all_pairs_distances(g)
        for u in g.vertices:
            assert dist[u, u] == 0
            for v in g.vertices:
                assert dist[u, v] == dist[v, u]
                for w in g.vertices:
                    assert dist[u, w] <= dist[u, v] + dist[v, w]
        # d moves by at most one along an edge
        for u, v in g.edges():
            for w in g.vertices:
                assert abs(dist[u, w] - dist[v, w]) <= 1


def test_relabeling_preserves_distances_and_faces():
    rng = random.Random(7)
    g, rot = families.prism(5)
    mapping = {v: 50 + i for v, i in zip(g.vertices, rng.sample(range(len(g.vertices)), len(g.vertices)))}
    g2 = Graph((mapping[u], mapping[v]) for u, v in g.edges())
    rot2 = RotationSystem(g2, {mapping[v]: [mapping[u] for u in rot.order(v)] for v in g.vertices})

    dist1 = sorted(all_pairs_distances(g).values())
    dist2 = sorted(all_pairs_distances(g2).values())
    assert dist1 == dist2

    sizes1 = sorted(f.size for f in trace_faces(g, rot))
    sizes2 = sorted(f.size for f in trace_faces(g2, rot2))
    assert sizes1 == sizes2


def test_rotation_validation():
    g = Graph([(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError, match="permutation"):
        RotationSystem(g, {0: [1, 1], 1: [0, 2], 2: [0, 1]})
    with pytest.raises(GraphError, match="missing"):
        RotationSystem(g, {0: [1, 2], 1: [0, 2]})
    with pytest.raises(GraphError, match="unknown"):
        RotationSystem(g, {0: [1, 2], 1: [0, 2], 2: [0, 1], 9: []})


def test_serialization_round_trip():
    g, rot = families.antiprism(4)
    g2 = parse_edgelist(to_edgelist_text(g))
    assert g2 == g
    g3, rot3 = parse_rotation(to_rotation_text(rot))
    assert g3 == g and rot3 == rot


def test_distances_and_diameter_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(1618)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=16, max_degree=5)
        h = nx.Graph(g.edges())
        h.add_nodes_from(g.vertices)
        for v in g.vertices:
            assert bfs_distances(g, v).dist == nx.single_source_shortest_path_length(h, v)
        assert diameter(g) == nx.diameter(h)


def test_distances_to_matches_bfs_distances_on_random_domains():
    rng = random.Random(2718)
    for _ in range(60):
        g = random_connected_graph(rng, n_max=30, max_degree=4)
        for source in rng.sample(g.vertices, min(4, g.vertex_count)):
            full = bfs_distances(g, source).dist
            far = max(full, key=full.get)
            domains = [{source}, {far}, {source, far},
                       set(rng.sample(g.vertices, rng.randint(1, g.vertex_count)))]
            for domain in domains:
                near = distances_to(g, source, domain)
                assert set(domain) <= set(near)
                assert all(full[v] == d for v, d in near.items())
                # The search never reaches past the farthest target.
                assert max(near.values()) == max(full[v] for v in domain | {source})
    with pytest.raises(GraphError, match="unknown vertex 99"):
        distances_to(g, 99, ())
    with pytest.raises(GraphError, match="unknown vertex -1"):
        distances_to(g, source, (source, -1))


def _trees_with_chords(rng: random.Random, count: int):
    """Seeded random trees on 3 to 40 vertices, each with a few extra chords."""
    for _ in range(count):
        n = rng.randint(3, 40)
        edges = {(rng.randrange(i), i) for i in range(1, n)}
        for _ in range(rng.randint(0, n // 2)):
            u, v = sorted(rng.sample(range(n), 2))
            edges.add((u, v))
        yield Graph(edges)


def test_diameter_matches_networkx_on_trees_with_chords():
    # An off-by-one in the iFUB stop rule is wrong on only a few of these
    # graphs, so many are checked.
    nx = pytest.importorskip("networkx")
    for g in _trees_with_chords(random.Random(1013), 1100):
        assert diameter(g) == nx.diameter(nx.Graph(g.edges()))


def test_diameter():
    # In K4 minus the edge 2-3 both sweeps meet only pairs at distance 1, so
    # the stop rule alone must find that 2 and 3, at level 1, are 2 apart.
    diamond = Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    cases = [(Graph([], vertices=[0]), 0), (Graph([(0, 1)]), 1), (diamond, 2)]
    for n in range(3, 14):
        cases += [(families.cycle(n)[0], n // 2), (families.complete(n)[0], 1),
                  (Graph((i, i + 1) for i in range(n - 1)), n - 1),
                  (Graph((0, i) for i in range(1, n)), 2),
                  (families.prism(n)[0], n // 2 + 1), (families.antiprism(n)[0], (n + 1) // 2)]
    cases += [(families.hypercube(d)[0], d) for d in range(1, 7)]
    for g, expected in cases:
        assert diameter(g) == expected, g
