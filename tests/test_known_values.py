"""Anchors against independently known curvature values and formulations.

Tree edges have the closed form -2 (1 - 1/deg(x) - 1/deg(y)); complete
bipartite edges give 2/max(m, n). Neither value is computed by any code
path in the package, so agreement here is an external consistency check on
the curvature engine. The last test solves the curvature LP with the
complete pairwise constraint set on the reference simplex and confirms the
min-cost flow engine reaches the same optimum.
"""

import random
from fractions import Fraction
from itertools import combinations

from riccikit.curvature import build_lipschitz_program, kappa_lly
from riccikit.graphs import Graph
from riccikit.lp import simplex_min

from oracles import random_connected_graph


def tree_prediction(g, x, y):
    return -2 * (1 - Fraction(1, g.degree(x)) - Fraction(1, g.degree(y)))


TREES = {
    "path2": [(0, 1)],
    "path5": [(i, i + 1) for i in range(4)],
    "star": [(0, i) for i in (1, 2, 3)],
    "spider": [(0, 1), (0, 2), (0, 3), (1, 4)],
    "double_star": [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)],
    "broom": [(0, 1), (1, 2), (2, 3), (2, 4), (2, 5)],
}


def test_tree_edges_match_closed_form():
    for edges in TREES.values():
        g = Graph(edges)
        for x, y in g.edges():
            assert kappa_lly(g, x, y) == tree_prediction(g, x, y)


def test_random_trees_match_closed_form():
    rng = random.Random(606)
    for _ in range(10):
        n = rng.randint(2, 10)
        edges = [(rng.randint(0, i - 1), i) for i in range(1, n)]
        g = Graph(edges) if edges else Graph([(0, 1)])
        for x, y in g.edges():
            assert kappa_lly(g, x, y) == tree_prediction(g, x, y)


def test_complete_bipartite_pattern():
    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 4)]:
        g = Graph([(i, m + j) for i in range(m) for j in range(n)])
        assert kappa_lly(g, 0, m) == Fraction(2, max(m, n))


def _solve_unpruned(program):
    """Same LP with every pairwise constraint kept; no reduction at all."""
    x, y, d_xy = program.x, program.y, program.d_xy
    fixed = {x: Fraction(0), y: Fraction(d_xy)}
    free = [u for u in program.domain if u not in fixed]
    if not free:
        return sum(
            (program.objective.get(u, Fraction(0)) * fu for u, fu in fixed.items()),
            start=Fraction(0),
        ) / d_xy
    lo = {
        u: Fraction(max(-program.dist[u, x], d_xy - program.dist[u, y])) for u in free
    }
    hi = {
        u: Fraction(min(program.dist[u, x], d_xy + program.dist[u, y])) for u in free
    }
    col = {u: i for i, u in enumerate(free)}
    rows = []
    bounds = []
    for u in free:
        rows.append({col[u]: 1})
        bounds.append(hi[u] - lo[u])
    for u, v in combinations(free, 2):
        duv = program.dist[u, v]
        rows.append({col[u]: 1, col[v]: -1})
        bounds.append(duv - lo[u] + lo[v])
        rows.append({col[u]: -1, col[v]: 1})
        bounds.append(duv - lo[v] + lo[u])
    costs = [program.objective.get(u, Fraction(0)) / d_xy for u in free]
    constant = sum(
        (program.objective.get(u, Fraction(0)) * fu for u, fu in fixed.items()),
        start=Fraction(0),
    )
    constant += sum(
        (program.objective.get(u, Fraction(0)) * lo[u] for u in free),
        start=Fraction(0),
    )
    value, _ = simplex_min(costs, rows, bounds)
    return constant / d_xy + value


def test_flow_engine_matches_unpruned_simplex():
    rng = random.Random(515)
    graphs = [random_connected_graph(rng, n_max=10, max_degree=6) for _ in range(8)]
    checked = 0
    for g in graphs:
        pairs = list(g.edges())
        non_edges = [
            (u, v) for u, v in combinations(g.vertices, 2) if not g.has_edge(u, v)
        ]
        pairs += rng.sample(non_edges, min(3, len(non_edges)))
        for x, y in pairs:
            program = build_lipschitz_program(g, x, y)
            flow, _ = program.solve()
            assert flow == _solve_unpruned(program)
            checked += 1
    assert checked > 40
