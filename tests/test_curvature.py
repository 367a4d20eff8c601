import dataclasses
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from riccikit import curvature, families, graphs
from riccikit.curvature import (
    EmbeddingError,
    build_lipschitz_program,
    combinatorial_curvature,
    combinatorial_curvatures,
    curvature_report,
    kappa_alpha,
    kappa_lly,
    kappa_lly_slope,
    kappa_zero,
    moore_bound,
    report_to_csv,
    report_to_json_dict,
)
from riccikit.graphs import (
    Graph,
    RotationSystem,
    bfs_distances,
    diameter,
    trace_faces,
    validate_embedding,
)
from riccikit.transport import InternalConsistencyError, _MinCostFlow

from oracles import (
    oracle_full_program,
    oracle_kappa,
    oracle_objective,
    random_connected_graph,
    relabeled,
    star_with_pendants,
    torus_k4,
)


def test_kappa_lly_k2(k2):
    # no free variables once the unit-gradient constraint is imposed
    assert kappa_lly(k2, 0, 1) == 2


def test_kappa_lly_k3_matches_enumeration(k3):
    assert oracle_kappa(k3, 0, 1) == Fraction(3, 2)
    assert kappa_lly(k3, 0, 1) == Fraction(3, 2)


def test_kappa_lly_c6_matches_enumeration(c6):
    assert oracle_kappa(c6, 0, 1) == 0
    assert kappa_lly(c6, 0, 1) == 0


def test_kappa_lly_rejects_equal_vertices(k3):
    with pytest.raises(ValueError):
        kappa_lly(k3, 1, 1)


def test_kappa_alpha_two_point_closed_form(k2):
    # closed form on a single edge: kappa_alpha = 1 - |2 alpha - 1|
    assert kappa_alpha(k2, 0, 1, Fraction(3, 4)) == Fraction(1, 2)
    assert kappa_alpha(k2, 0, 1, 0) == 0
    assert kappa_alpha(k2, 0, 1, 1) == 0


def test_kappa_alpha_at_one_is_zero_for_any_pair(c6):
    assert kappa_alpha(c6, 0, 3, 1) == 0


def test_kappa_alpha_on_non_adjacent_pairs_matches_networkx():
    # Independent oracle: the lazy measures built here at the integer scale
    # q deg(x) deg(y), W as a networkx min-cost flow over networkx's
    # shortest-path lengths, and d(x, y) from networkx too.
    nx = pytest.importorskip("networkx")
    rng = random.Random(4141)
    checked = 0
    for _ in range(20):
        g = random_connected_graph(rng, n_max=10, max_degree=4)
        h = nx.Graph(list(g.edges()))
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        pairs = [(x, y) for x, y in combinations(g.vertices, 2) if not g.has_edge(x, y)]
        for x, y in rng.sample(pairs, min(3, len(pairs))):
            for alpha in (Fraction(0), Fraction(1, 3), Fraction(3, 4), Fraction(1)):
                p, q = alpha.numerator, alpha.denominator
                dx, dy = g.degree(x), g.degree(y)

                def units(v, own, other):
                    masses = dict.fromkeys(g.neighbors(v), (q - p) * other)
                    masses[v] = masses.get(v, 0) + p * own * other
                    return {u: c for u, c in masses.items() if c}

                flow = nx.DiGraph()
                for u, c in units(x, dx, dy).items():
                    flow.add_node(("s", u), demand=-c)
                for v, c in units(y, dy, dx).items():
                    flow.add_node(("t", v), demand=c)
                for u in [n for n in flow if n[0] == "s"]:
                    for v in [n for n in flow if n[0] == "t"]:
                        flow.add_edge(u, v, weight=lengths[u[1]][v[1]])
                w = Fraction(nx.min_cost_flow_cost(flow), q * dx * dy)
                expected = 1 - w / lengths[x][y]
                assert kappa_alpha(g, x, y, alpha) == expected, (x, y, alpha)
                checked += 1
    assert checked > 80


def test_slope_engine_matches_lp_on_named_graphs(k2, k3, c6):
    assert kappa_lly_slope(k2, 0, 1) == 2
    assert kappa_lly_slope(k3, 0, 1) == Fraction(3, 2)
    assert kappa_lly_slope(c6, 0, 1) == 0
    with pytest.raises(ValueError, match="not an edge"):
        kappa_lly_slope(c6, 0, 2)


def test_kappa_zero_examples(k2, k3, c6):
    assert kappa_zero(k3, 0, 1) == Fraction(1, 2)
    assert kappa_zero(c6, 0, 1) == 0
    assert kappa_zero(k2, 0, 1) == 0
    with pytest.raises(ValueError, match="not an edge"):
        kappa_zero(c6, 0, 3)


def test_lipschitz_program_shape(c6):
    prog = build_lipschitz_program(c6, 0, 1)
    assert prog.domain == (0, 1, 2, 5)
    assert prog.d_xy == 1
    assert prog.dist[2, 5] == 3
    value, f = prog.solve()
    assert value == 0
    assert f[1] - f[0] == 1
    # the optimizer it returns must be feasible
    for u in prog.domain:
        for v in prog.domain:
            assert abs(f[u] - f[v]) <= prog.dist[u, v]


@pytest.mark.parametrize(
    "family, x, y",
    [
        (families.cycle(6), 0, 1),
        (families.cycle(6), 0, 2),
        (families.cycle(6), 0, 3),
        (families.wheel(7), 7, 0),
        (families.wheel(7), 0, 1),
        (families.wheel(7), 0, 3),
    ],
)
def test_lipschitz_program_certificate(family, x, y):
    g, _ = family
    prog = build_lipschitz_program(g, x, y)
    value, f = prog.solve()
    assert value == oracle_kappa(g, x, y)
    assert f[x] == 0
    assert all(type(fu) is int for fu in f.values())
    assert f[y] - f[x] == prog.d_xy == bfs_distances(g, x)[y]
    for u in prog.domain:
        for v in prog.domain:
            assert f[v] - f[u] <= prog.dist[u, v]
    attained = sum((c * f[u] for u, c in prog.objective.items()), start=Fraction(0))
    assert attained / prog.d_xy == value


def test_lipschitz_program_rejects_a_broken_certificate(c6, monkeypatch):
    solve = _MinCostFlow.solve

    def solve_then_zero_potentials(self, s, t, amount, potential):
        total = solve(self, s, t, amount, potential)
        potential[:] = [0] * len(potential)
        return total

    monkeypatch.setattr(_MinCostFlow, "solve", solve_then_zero_potentials)
    with pytest.raises(InternalConsistencyError, match=r"f\(y\) - f\(x\)"):
        build_lipschitz_program(c6, 0, 1).solve()


def test_integer_objective_matches_the_fraction_objective():
    # The supplies are built at lcm(deg x, deg y); the oracle keeps the
    # objective as Fractions over all of U. The program's domain drops
    # exactly U's zero coefficients. Both must give the same value for every
    # point and the same solve, down to the optimal f.
    rng = random.Random(404)
    pairs = 0
    for _ in range(25):
        g = random_connected_graph(rng, n_max=10)
        for x, y in combinations(g.vertices, 2):
            prog = build_lipschitz_program(g, x, y)
            reference = oracle_objective(g, x, y)
            assert all(c == 0 for u, c in reference.items() if u not in prog.domain)
            reference = {u: reference[u] for u in prog.domain}
            assert prog.objective == reference
            scale = lcm(*(c.denominator for c in reference.values()))
            fractional = dataclasses.replace(
                prog, scale=scale, supply=[int(reference[u] * scale) for u in prog.domain])
            value, f = prog.solve()
            assert fractional.solve() == (value, f)
            dist = prog.dist
            points = [f, {u: dist[x, u] for u in prog.domain},
                      {u: prog.d_xy - dist[u, y] for u in prog.domain}]
            for point in points:
                assert prog.value(point) == sum(
                    (c * point[u] for u, c in reference.items()), Fraction(0)) / prog.d_xy
            pairs += 1
    assert pairs > 200


def test_program_matches_the_program_over_both_neighbourhoods():
    # The package's program leaves out U's zero coefficients. McShane's
    # extension F(u) = min over s in S of f(s) + d(s, u) carries its optimal f
    # to a point of the program over all of U that attains the same value.
    rng = random.Random(2119)
    graphs = [random_connected_graph(rng, n_max=10) for _ in range(20)]
    graphs += [families.complete(n)[0] for n in (3, 6, 9)]
    graphs += [families.wheel(n)[0] for n in (5, 8)]
    graphs += [families.icosahedron()[0], families.figure1()[0]]
    seen = {"adjacent": 0, "apart": 0, "smaller": 0}
    for g in graphs:
        for x, y in combinations(g.vertices, 2):
            prog = build_lipschitz_program(g, x, y)
            full = oracle_full_program(g, x, y)
            value, f = prog.solve()
            assert full.solve()[0] == value
            dist = full.dist
            extended = {u: min(f[s] + dist[s, u] for s in prog.domain) for u in full.domain}
            assert all(extended[s] == f[s] for s in prog.domain)
            assert full.value(extended) == value
            seen["adjacent" if g.has_edge(x, y) else "apart"] += 1
            seen["smaller"] += len(prog.domain) < len(full.domain)
    assert seen["adjacent"] + seen["apart"] >= 200 and min(seen.values()) > 0


def test_program_domain_drops_only_cancelled_common_neighbours():
    # Pinned sizes, so a regression to the full U shows without timing.
    k30 = families.complete(30)[0]
    assert all(build_lipschitz_program(k30, x, y).domain == (x, y) for x, y in k30.edges())
    ico = families.icosahedron()[0]  # |U| = 8, two common neighbours at degree 5
    assert all(len(build_lipschitz_program(ico, x, y).domain) == 6 for x, y in ico.edges())
    wheel = families.wheel(60)[0]  # the hub has degree 60, the rim 3
    for rim in range(60):
        assert build_lipschitz_program(wheel, 60, rim).domain == tuple(range(61))


def test_a_lowered_row_entry_fails_the_program_certificate():
    # The flow reads the arcs and the start row d(x, .); the certificate reads
    # every row. Lowering one entry on a pair that f makes tight, outside the
    # row of x, must make solve raise rather than return.
    g = families.wheel(6)[0]
    for x, y in [(0, 1), (6, 0)]:
        prog = build_lipschitz_program(g, x, y)
        _, f = prog.solve()
        ix = prog.domain.index(x)
        i, j = next((i, j) for i, u in enumerate(prog.domain) for j, v in enumerate(prog.domain)
                    if i != ix and i != j and f[v] - f[u] == prog.rows[i][j])
        rows = [list(row) for row in prog.rows]
        rows[i][j] -= 1
        with pytest.raises(InternalConsistencyError, match="1-Lipschitz"):
            dataclasses.replace(prog, rows=rows).solve()


def test_program_value_certifies_its_point(c6):
    prog = build_lipschitz_program(c6, 0, 1)  # domain 5, 0, 1, 2 along the cycle
    _, f = prog.solve()
    assert prog.value(f) == kappa_lly(c6, 0, 1)
    for bad, problem in [
        ({**f, 2: Fraction(3, 2)}, "not an integer"),
        ({**f, 2: f[5] + 4}, "1-Lipschitz"),  # d(5, 2) = 3
        ({**f, 1: f[0] + 2, 2: f[0] + 2}, r"1-Lipschitz .*; f\(y\) - f\(x\) = 2"),
    ]:
        with pytest.raises(InternalConsistencyError, match=problem):
            prog.value(bad)
    # The lemma4 witness on the star, extended by 0, bounds kappa from above.
    g, x, y, _ = star_with_pendants()
    star = build_lipschitz_program(g, x, y)
    witness = dict.fromkeys(star.domain, 0)
    witness.update({y: 1, 7: 1, 8: 1, 2: -1, 3: -1, 4: -1, 5: -1, 6: -1})
    assert star.value(witness) == Fraction(-1, 3) >= kappa_lly(g, x, y) == -1


@pytest.mark.parametrize(
    "g",
    [
        families.cycle(8)[0],
        families.wheel(7)[0],
        families.hypercube(3)[0],
        families.complete(5)[0],
        random_connected_graph(random.Random(19), n_max=12, max_degree=4),
        random_connected_graph(random.Random(38), n_max=12, max_degree=4),
    ],
    ids=["c8", "wheel7", "q3", "k5", "random19", "random38"],
)
def test_spanning_arcs_close_to_the_metric(g, monkeypatch):
    # The arcs are read back from the network `_metric_network` returns:
    # arc a (even) runs from to[a ^ 1] to to[a] at cost[a].
    networks = []
    metric_network = curvature._metric_network

    def record(*args):
        networks.append(metric_network(*args))
        return networks[-1]

    monkeypatch.setattr(curvature, "_metric_network", record)
    checked = set()
    for x, y in combinations(g.vertices, 2):
        prog = build_lipschitz_program(g, x, y)
        if prog.d_xy > 4:
            continue
        checked.add(prog.d_xy)
        networks.clear()
        prog.solve()
        (net, _), = networks
        added = [(net.to[a ^ 1], net.to[a], net.cost[a]) for a in range(0, len(net.to), 2)]
        n = len(prog.domain)
        closure = [[0 if i == j else float("inf") for j in range(n)] for i in range(n)]
        arcs = [(u, v, c) for u, v, c in added if u < n and v < n and c > 0]
        for u, v, c in arcs:
            assert c == prog.dist[prog.domain[u], prog.domain[v]]
            closure[u][v] = min(closure[u][v], c)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    closure[i][j] = min(closure[i][j], closure[i][k] + closure[k][j])
        assert all(
            closure[i][j] == prog.dist[u, v]
            for i, u in enumerate(prog.domain)
            for j, v in enumerate(prog.domain)
        )
    assert checked == set(range(1, min(diameter(g), 4) + 1))


def test_wheel_hub_rim_solve_needs_few_phases(monkeypatch):
    # Successive shortest paths ran 58 Dijkstras on this edge. Each raise
    # lifts p[t] - p[s] by >= 1, from -(d + 1) = -2 to at most 3.
    calls = []
    admissible_flow = _MinCostFlow._admissible_flow

    def count(self, *args):
        calls.append(1)
        return admissible_flow(self, *args)

    monkeypatch.setattr(_MinCostFlow, "_admissible_flow", count)
    g, _ = families.wheel(60)
    value, _ = build_lipschitz_program(g, 60, 0).solve()
    assert 1 <= len(calls) <= 6
    assert value == kappa_lly_slope(g, 60, 0)


def test_kappa_lly_nonadjacent_pair(c6):
    # antipodal pair on the hexagon; enumeration oracle confirms the LP
    assert kappa_lly(c6, 0, 3) == oracle_kappa(c6, 0, 3)


def test_combinatorial_curvature_formulas():
    q3, rot = families.hypercube(3)
    faces = trace_faces(q3, rot)
    assert all(combinatorial_curvature(q3, faces, v) == Fraction(1, 4) for v in q3.vertices)

    ico, rot = families.icosahedron()
    faces = trace_faces(ico, rot)
    assert all(combinatorial_curvature(ico, faces, v) == Fraction(1, 6) for v in ico.vertices)

    for n in range(3, 13):
        g, rot = families.prism(n)
        faces = trace_faces(g, rot)
        assert all(
            combinatorial_curvature(g, faces, v) == Fraction(1, n) for v in g.vertices
        )


def test_combinatorial_curvature_rejects_non_sphere():
    g, _ = families.complete(5)
    natural = RotationSystem(g, {v: list(g.neighbors(v)) for v in g.vertices})
    faces = trace_faces(g, natural)
    with pytest.raises(EmbeddingError, match="Euler characteristic"):
        combinatorial_curvature(g, faces, 0)
    with pytest.raises(EmbeddingError, match="Euler characteristic"):
        combinatorial_curvatures(g, faces)
    q3, rot = families.hypercube(3)
    with pytest.raises(EmbeddingError, match="unknown vertex"):
        combinatorial_curvature(q3, trace_faces(q3, rot), 99)


def test_gauss_bonnet_on_families():
    cases = [
        families.figure1(),
        families.wheel(7),
        families.antiprism(5),
        families.prism(9),
        families.complete(4),
        families.cycle(8),
        families.icosahedron(),
    ]
    for g, rot in cases:
        faces = trace_faces(g, rot)
        total = sum(
            (combinatorial_curvature(g, faces, v) for v in g.vertices), start=Fraction(0)
        )
        assert total == 2
        assert sum(combinatorial_curvatures(g, faces).values()) == 2


def test_moore_bound_small_values():
    assert moore_bound(3, 1) == 4
    assert moore_bound(3, 2) == 10  # attained by Petersen
    assert moore_bound(2, 5) == 11
    with pytest.raises(ValueError):
        moore_bound(1, 3)
    with pytest.raises(ValueError):
        moore_bound(3, 0)


def test_report_triangle(k3):
    report = curvature_report(k3, mode="lly")
    assert [e.kappa for e in report.edges] == [Fraction(3, 2)] * 3
    assert report.positively_curved
    assert report.min_kappa == Fraction(3, 2)
    assert report.diameter == 1
    assert report.sphere is None


def test_report_cycle_not_positive(c6):
    report = curvature_report(c6, mode="lly", include_zero=True)
    assert all(e.kappa == 0 for e in report.edges)
    assert not report.positively_curved
    assert all(e.kappa_zero == 0 for e in report.edges)


def test_report_modes(k3, c6):
    # on the final linear piece kappa_alpha = (1 - alpha) kappa_lly = 3/4
    rep = curvature_report(k3, mode="alpha", alpha=Fraction(1, 2))
    assert all(e.kappa == Fraction(3, 4) for e in rep.edges)
    rep = curvature_report(k3, mode="zero")
    assert all(e.kappa == Fraction(1, 2) for e in rep.edges)
    with pytest.raises(ValueError):
        curvature_report(k3, mode="alpha")
    with pytest.raises(ValueError):
        curvature_report(k3, mode="lly", alpha=Fraction(1, 2))
    with pytest.raises(ValueError):
        curvature_report(k3, mode="nope")
    with pytest.raises(EmbeddingError):
        curvature_report(c6, mode="comb")


def test_report_comb_mode():
    g, rot = families.prism(4)
    rep = curvature_report(g, rot=rot, mode="comb")
    assert rep.edges == ()
    assert all(r.phi == Fraction(1, 4) for r in rep.vertices)
    assert rep.positively_curved
    assert rep.min_phi == Fraction(1, 4)
    assert rep.sphere is True


def test_report_on_a_non_sphere_rotation():
    g, rot = torus_k4()
    with pytest.raises(EmbeddingError,
                       match="^embedding has Euler characteristic 0, not a sphere$"):
        curvature_report(g, rot=rot, mode="comb")
    rep = curvature_report(g, rot=rot, mode="lly")
    assert rep.sphere is False and rep.euler_characteristic == 0
    assert rep.vertices is None
    assert len(rep.edges) == 6


def test_program_build_work_is_independent_of_graph_size(monkeypatch):
    # Edge (0, 1) has the same neighbourhood in every large prism, so building
    # its program must touch the same vertices, however long the prism. Each
    # prism is new, so its search memo starts empty.
    counts = []
    for n in (100, 400):
        g, _ = families.prism(n)
        calls = []
        original = Graph.neighbors
        monkeypatch.setattr(Graph, "neighbors", lambda self, v: calls.append(v) or original(self, v))
        build_lipschitz_program(g, 0, 1)
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] < 100


def _memo_searches(monkeypatch) -> list:
    """Log the source of every search that `Graph.distance_row` starts.

    Other callers of `distances_to`, such as `diameter`, are not logged."""
    searches = []
    original = graphs.distances_to

    def counted(g, source, targets):
        if sys._getframe(1).f_code is Graph.distance_row.__code__:
            searches.append(source)
        return original(g, source, targets)

    monkeypatch.setattr(graphs, "distances_to", counted)
    return searches


@pytest.mark.parametrize("family, n", [("wheel", 60), ("complete", 30)])
def test_a_report_searches_from_each_vertex_at_most_once(monkeypatch, family, n):
    # Every hub edge of wheel(60) has the same 61-vertex domain. Searching
    # per row took 61 searches per hub edge; the memo searches once per
    # vertex, since a rim vertex's first search already holds every vertex.
    g, rot = getattr(families, family)(n)
    searches = _memo_searches(monkeypatch)
    curvature_report(g, rot=rot, mode="lly")
    assert len(searches) <= g.vertex_count
    # A second build of a program on the now warm graph starts no search.
    before = len(searches)
    build_lipschitz_program(g, *g.edges()[0])
    assert len(searches) == before


def test_report_json_and_csv_shapes():
    g, rot = families.prism(4)
    rep = curvature_report(g, rot=rot, mode="lly", include_zero=True)
    payload = report_to_json_dict(rep)
    assert payload["graph"] == {
        "vertex_count": 8, "edge_count": 12, "max_degree": 3,
        "min_degree": 3, "diameter": 3,
    }
    assert payload["summary"]["positively_curved"] is True
    assert set(payload["edges"][0]) == {"u", "v", "kappa", "kappa_zero"}
    assert payload["embedding"] == {"euler_characteristic": 2, "sphere": True}
    assert payload["vertices"][0]["phi"] == "1/4"

    csv = report_to_csv(rep)
    lines = csv.strip().splitlines()
    assert lines[0] == "u,v,kappa,kappa_zero"
    assert len(lines) == 13

    comb = report_to_csv(curvature_report(g, rot=rot, mode="comb"))
    assert comb.startswith("v,phi\n")


SMALL_CORPUS_SEED = 2718


def _small_corpus(count=10, n_max=9, max_degree=5):
    rng = random.Random(SMALL_CORPUS_SEED)
    return [random_connected_graph(rng, n_max=n_max, max_degree=max_degree) for _ in range(count)]


def test_engine_agreement_small_corpus():
    for g in _small_corpus():
        for u, v in g.edges():
            assert kappa_lly(g, u, v) == kappa_lly_slope(g, u, v)


def test_enumeration_oracle_small_corpus():
    for g in _small_corpus(count=6, n_max=7, max_degree=4):
        for u, v in g.edges():
            domain = {u, v} | set(g.neighbors(u)) | set(g.neighbors(v))
            if len(domain) <= 8:
                assert kappa_lly(g, u, v) == oracle_kappa(g, u, v)


def test_alpha_upper_bound_and_concavity():
    grid = [Fraction(i, 6) for i in range(7)]
    rng = random.Random(5)
    for g in _small_corpus(count=4, n_max=7, max_degree=4):
        pairs = list(combinations(g.vertices, 2))
        for x, y in rng.sample(pairs, min(3, len(pairs))):
            d = bfs_distances(g, x)[y]
            values = [kappa_alpha(g, x, y, a) for a in grid]
            for a, val in zip(grid, values):
                assert val <= 2 * (1 - a) / d
            for v0, v1, v2 in zip(values, values[1:], values[2:]):
                assert v0 - 2 * v1 + v2 <= 0


def test_slope_monotone_and_bounded_by_limit():
    grid = [Fraction(i, 8) for i in range(8)]
    for g in _small_corpus(count=4, n_max=7, max_degree=4):
        for x, y in list(g.edges())[:4]:
            limit = kappa_lly(g, x, y)
            slopes = [kappa_alpha(g, x, y, a) / (1 - a) for a in grid]
            assert all(s1 <= s2 for s1, s2 in zip(slopes, slopes[1:]))
            assert all(s <= limit for s in slopes)


def test_kappa_zero_is_lower_bound():
    for g in _small_corpus(count=6, n_max=8, max_degree=5):
        for x, y in g.edges():
            assert kappa_zero(g, x, y) <= kappa_lly(g, x, y)


def test_positive_curvature_floor():
    # complete graphs and the icosahedron are positively curved
    graphs = [families.complete(n)[0] for n in (3, 4, 5)] + [families.icosahedron()[0]]
    for g in graphs:
        report = curvature_report(g, mode="lly")
        assert report.positively_curved
        delta = g.max_degree
        for e in report.edges:
            assert e.kappa >= Fraction(1, g.degree(e.u) * g.degree(e.v))
        assert report.min_kappa >= Fraction(1, delta * (delta - 1))


def test_diameter_bound_on_positively_curved_graphs():
    for g in [families.complete(4)[0], families.icosahedron()[0], families.hypercube(3)[0]]:
        report = curvature_report(g, mode="lly")
        if report.positively_curved:
            assert report.min_kappa * report.diameter <= 2


def test_edge_to_pair_reduction_small():
    for g in _small_corpus(count=5, n_max=6, max_degree=4):
        if g.edge_count == 0:
            continue
        edge_min = min(kappa_lly(g, u, v) for u, v in g.edges())
        pair_min = min(kappa_lly(g, u, v) for u, v in combinations(g.vertices, 2))
        assert pair_min >= edge_min


def test_isomorphism_invariance():
    rng = random.Random(11)
    for g in _small_corpus(count=4, n_max=8, max_degree=4):
        g2, mapping = relabeled(g, rng)
        original = sorted(kappa_lly(g, u, v) for u, v in g.edges())
        image = sorted(kappa_lly(g2, mapping[u], mapping[v]) for u, v in g.edges())
        assert original == image


def test_networkx_planar_embeddings_trace_to_spheres():
    # Independent embedding oracle: any planar embedding networkx finds must
    # trace to a sphere whose phi totals exactly 2.
    nx = pytest.importorskip("networkx")
    rng = random.Random(3571)
    for _ in range(25):
        n = rng.randint(2, 14)
        h = nx.Graph((rng.randrange(i), i) for i in range(1, n))
        for _ in range(3 * n):
            u, v = rng.sample(range(n), 2)
            if not h.has_edge(u, v):
                h.add_edge(u, v)
                if not nx.check_planarity(h)[0]:
                    h.remove_edge(u, v)
        planar, embedding = nx.check_planarity(h)
        assert planar
        g = Graph(h.edges())
        rot = RotationSystem(g, {v: list(embedding.neighbors_cw_order(v)) for v in g.vertices})
        faces = trace_faces(g, rot)
        assert validate_embedding(g, faces).euler_characteristic == 2
        assert sum(combinatorial_curvatures(g, faces).values()) == 2
        assert curvature_report(g, rot, mode="comb").sphere is True
