import random
from fractions import Fraction

import pytest

from riccikit import families
from riccikit.graphs import Graph, bfs_distances
from riccikit.transport import (
    DualPotential,
    InternalConsistencyError,
    Measure,
    TransportError,
    _MinCostFlow,
    TransportPlan,
    kantorovich_potential,
    lazy_measure,
    optimal_transport,
    verify_duality,
    _self_check,
    wasserstein,
)

from oracles import oracle_wasserstein, random_connected_graph


half = Fraction(1, 2)


def test_measure_validation():
    with pytest.raises(TransportError, match="negative"):
        Measure({0: Fraction(-1, 2), 1: Fraction(3, 2)})
    with pytest.raises(TransportError, match="sum"):
        Measure({0: half})
    m = Measure({0: half, 1: half, 2: 0})
    assert m.support() == (0, 1)
    assert m[2] == 0


def test_lazy_measure_examples(k3):
    # alpha = 0 spreads everything over the 2 neighbors
    m = lazy_measure(k3, 0, 0)
    assert dict(m.items()) == {1: half, 2: half}
    # alpha = 0 at a degree-3 vertex: a third per neighbor, nothing in place
    hub = families.wheel(3)[0]
    m = lazy_measure(hub, 3, 0)
    assert dict(m.items()) == {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
    # alpha = 1/2 with degree 3
    star = families.wheel(3)[0]  # hub 3 has degree 3
    m = lazy_measure(star, 3, half)
    assert m[3] == half and all(m[v] == Fraction(1, 6) for v in (0, 1, 2))
    # alpha = 1 is the point mass
    m = lazy_measure(k3, 0, 1)
    assert dict(m.items()) == {0: Fraction(1)}
    with pytest.raises(TransportError, match="alpha"):
        lazy_measure(k3, 0, Fraction(3, 2))
    with pytest.raises(TransportError, match="unknown"):
        lazy_measure(k3, 42, 0)


def test_wasserstein_identical_measures(k3):
    m = lazy_measure(k3, 0, Fraction(1, 3))
    w, plan = wasserstein(k3, m, m)
    assert w == 0
    assert plan.cost(k3) == 0
    assert plan.row_sums() == dict(m.items())
    assert plan.column_sums() == dict(m.items())


def test_wasserstein_point_masses(c6):
    dx = Measure({0: 1})
    dy = Measure({3: 1})
    w, plan = wasserstein(c6, dx, dy)
    assert w == bfs_distances(c6, 0)[3] == 3
    assert dict(plan.entries) == {(0, 3): Fraction(1)}


def test_wasserstein_triangle_lazy_zero(k3):
    # frozen from the dual enumeration oracle (and hand couplings): W = 1/2
    m1 = lazy_measure(k3, 0, 0)
    m2 = lazy_measure(k3, 1, 0)
    assert oracle_wasserstein(k3, m1, m2) == half
    w, _ = wasserstein(k3, m1, m2)
    assert w == half


def test_wasserstein_rejects_foreign_support(k3, c6):
    m_far = lazy_measure(c6, 5, 0)
    with pytest.raises(TransportError, match="mass on vertex"):
        wasserstein(k3, lazy_measure(k3, 0, 0), m_far)


def test_potential_identical_measures(k3):
    m = lazy_measure(k3, 2, half)
    pot = kantorovich_potential(k3, m, m)
    assert pot.pairing(m, m) == 0


def test_potential_point_masses(c6):
    dx = Measure({0: 1})
    dy = Measure({2: 1})
    pot = kantorovich_potential(c6, dx, dy)
    assert pot[0] - pot[2] == 2
    assert pot[pot.anchor] == 0 and pot.anchor == 0


def test_potential_triangle(k3):
    m1 = lazy_measure(k3, 0, 0)
    m2 = lazy_measure(k3, 1, 0)
    pot = kantorovich_potential(k3, m1, m2)
    assert all(isinstance(v, int) for _, v in pot.items())
    assert pot.pairing(m1, m2) == half
    with pytest.raises(TransportError):
        pot[99]


def test_verify_duality_accepts_optimal_pair(k3):
    m1 = lazy_measure(k3, 0, Fraction(1, 3))
    m2 = lazy_measure(k3, 1, Fraction(1, 3))
    result = optimal_transport(k3, m1, m2)
    assert verify_duality(result.plan, result.potential, k3)


def test_verify_duality_flags_gap(k3):
    m1 = lazy_measure(k3, 0, 0)
    m2 = lazy_measure(k3, 1, 0)
    _, plan = wasserstein(k3, m1, m2)
    zero_pot = DualPotential({v: 0 for v in k3.vertices}, anchor=0)
    check = verify_duality(plan, zero_pot, k3)
    assert not check
    assert any("duality gap" in v for v in check.violations)


def test_self_check_rejects_a_wrong_distance_or_potential(k3):
    m1 = lazy_measure(k3, 0, 0)
    m2 = lazy_measure(k3, 1, 0)
    result = optimal_transport(k3, m1, m2)
    _self_check(k3, m1, m2, result.distance, result.plan, result.potential)
    with pytest.raises(InternalConsistencyError, match="reported distance"):
        _self_check(k3, m1, m2, result.distance + 1, result.plan, result.potential)
    zero_pot = DualPotential({v: 0 for v in k3.vertices}, anchor=0)
    with pytest.raises(InternalConsistencyError, match="duality gap"):
        _self_check(k3, m1, m2, result.distance, result.plan, zero_pot)


def test_verify_duality_flags_bad_marginals(k3):
    m1 = lazy_measure(k3, 0, 0)
    m2 = lazy_measure(k3, 1, 0)
    result = optimal_transport(k3, m1, m2)
    entries = dict(result.plan.entries)
    (key, mass), *_ = entries.items()
    entries[key] = mass / 2
    doctored = TransportPlan(entries, m1, m2)
    check = verify_duality(doctored, result.potential, k3)
    assert not check
    assert any("row sums" in v or "column sums" in v for v in check.violations)


def test_verify_duality_flags_non_lipschitz(path3):
    m1 = Measure({0: 1})
    m2 = Measure({2: 1})
    result = optimal_transport(path3, m1, m2)
    wild = DualPotential({0: 5, 2: 0}, anchor=0)
    check = verify_duality(result.plan, wild, path3)
    assert any("Lipschitz" in v for v in check.violations)


def test_scale_independence(k3, c6):
    for g, x, y in [(k3, 0, 1), (c6, 0, 2)]:
        m1 = lazy_measure(g, x, Fraction(1, 3))
        m2 = lazy_measure(g, y, Fraction(1, 3))
        base = optimal_transport(g, m1, m2)
        for extra in (2, 3, 7):
            again = optimal_transport(g, m1, m2, scale_multiplier=extra)
            assert again.distance == base.distance
            assert again.plan.entries == base.plan.entries


def test_matches_oracle_on_random_instances():
    rng = random.Random(99)
    alphas = [Fraction(0), Fraction(1, 3), half]
    for _ in range(25):
        g = random_connected_graph(rng, n_max=8, max_degree=4)
        verts = list(g.vertices)
        x, y = rng.sample(verts, 2) if len(verts) > 1 else (verts[0], verts[0])
        alpha = rng.choice(alphas)
        m1 = lazy_measure(g, x, alpha)
        m2 = lazy_measure(g, y, alpha)
        result = optimal_transport(g, m1, m2)
        assert result.distance == oracle_wasserstein(g, m1, m2)
        assert verify_duality(result.plan, result.potential, g)


def test_w_is_a_metric_on_lazy_measures():
    rng = random.Random(4242)
    for _ in range(8):
        g = random_connected_graph(rng, n_max=7, max_degree=4)
        if g.vertex_count < 3:
            continue
        x, y, z = rng.sample(list(g.vertices), 3)
        alpha = Fraction(1, 3)
        mx, my, mz = (lazy_measure(g, v, alpha) for v in (x, y, z))
        wxy, _ = wasserstein(g, mx, my)
        wyx, _ = wasserstein(g, my, mx)
        wyz, _ = wasserstein(g, my, mz)
        wxz, _ = wasserstein(g, mx, mz)
        assert wxy == wyx
        assert wxz <= wxy + wyz
        assert wxy > 0  # distinct lazy measures


def test_lazy_walk_transport_distance_bounds():
    # general graphs only guarantee W <= d + 2(1 - alpha); the tighter W <= d
    # needs a mass-preserving geodesic translation, which the families below
    # (vertex-transitive with matching degrees) do admit
    rng = random.Random(777)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=8, max_degree=5)
        dist = {v: bfs_distances(g, v) for v in g.vertices}
        verts = list(g.vertices)
        for alpha in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            x, y = rng.sample(verts, 2)
            w, _ = wasserstein(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha))
            assert w <= dist[x][y] + 2 * (1 - alpha)

    translation_families = [
        families.cycle(7)[0],
        families.hypercube(3)[0],
        families.complete(5)[0],
    ]
    for g in translation_families:
        dist = {v: bfs_distances(g, v) for v in g.vertices}
        for alpha in (Fraction(0), Fraction(1, 2)):
            for x in list(g.vertices)[:2]:
                for y in g.vertices:
                    if x == y:
                        continue
                    w, _ = wasserstein(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha))
                    assert w <= dist[x][y]


def test_lazy_walk_transport_can_exceed_distance():
    # spider tree: center 0 with leaves 2, 3 and a path 0-1-4; the edge (0, 1)
    # is negatively curved, so its lazy measures are farther apart than the
    # endpoints themselves
    g = Graph([(0, 1), (0, 2), (0, 3), (1, 4)])
    w, _ = wasserstein(g, lazy_measure(g, 0, Fraction(1, 3)), lazy_measure(g, 1, Fraction(1, 3)))
    assert w == Fraction(11, 9) > 1


def test_integer_potentials_for_adjacent_lazy_pairs():
    rng = random.Random(31337)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=9, max_degree=5)
        x, y = rng.choice(list(g.edges()))
        for alpha in (Fraction(0), Fraction(1, 3), half):
            pot = kantorovich_potential(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha))
            assert all(isinstance(v, int) for _, v in pot.items())


def test_matches_oracle_on_tied_random_measures():
    # Equal masses on overlapping supports give many s-t paths of equal
    # reduced cost, so each primal-dual phase pushes flow along several.
    rng = random.Random(2718)
    for _ in range(20):
        g = random_connected_graph(rng, n_max=8, max_degree=4)
        verts = list(g.vertices)
        if len(verts) < 3:
            continue
        shared = rng.sample(verts, 2)
        rest = [v for v in verts if v not in shared]
        supports = [shared + rng.sample(rest, rng.randint(0, min(2, len(rest))))
                    for _ in range(2)]
        m1, m2 = (_tied_measure(rng, s) for s in supports)
        result = optimal_transport(g, m1, m2)
        assert result.distance == oracle_wasserstein(g, m1, m2)
        assert verify_duality(result.plan, result.potential, g)


def _tied_measure(rng, support):
    weights = {v: rng.choice((1, 1, 2)) for v in support}
    total = sum(weights.values())
    return Measure({v: Fraction(w, total) for v, w in weights.items()})


def test_transport_arcs_close_to_the_metric(monkeypatch):
    # Transport is a transshipment on D = supp m1 | supp m2 over the spanning
    # arcs of the metric network: their closure must be the graph metric on D.
    added = []
    add_edge = _MinCostFlow.add_edge

    def record(self, u, v, cap, cost):
        added.append((u, v, cost))
        return add_edge(self, u, v, cap, cost)

    monkeypatch.setattr(_MinCostFlow, "add_edge", record)
    rng = random.Random(4099)
    checked = 0
    for _ in range(25):
        g = random_connected_graph(rng, n_max=10, max_degree=4)
        verts = list(g.vertices)
        if len(verts) < 3:
            continue
        m1, m2 = (_tied_measure(rng, rng.sample(verts, rng.randint(1, min(4, len(verts))))) for _ in range(2))
        added.clear()
        result = optimal_transport(g, m1, m2)
        domain = sorted(set(m1.support()) | set(m2.support()))
        dist = {u: bfs_distances(g, u) for u in domain}
        n = len(domain)
        closure = [[0 if i == j else float("inf") for j in range(n)] for i in range(n)]
        for u, v, c in added:
            if u < n and v < n and c > 0:
                assert c == dist[domain[u]][domain[v]]
                closure[u][v] = min(closure[u][v], c)
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    closure[i][j] = min(closure[i][j], closure[i][k] + closure[k][j])
        assert all(closure[i][j] == dist[u][v]
                   for i, u in enumerate(domain) for j, v in enumerate(domain))

        for (u, v), mass in result.plan.entries.items():
            if u == v:
                assert mass == min(m1[u], m2[u])
            else:
                assert m1[u] > m2[u] and m2[v] > m1[v]
        assert all(result.plan.entries.get((v, v)) == min(m1[v], m2[v])
                   for v in domain if m1[v] and m2[v])
        assert result.distance == oracle_wasserstein(g, m1, m2)
        assert verify_duality(result.plan, result.potential, g)
        checked += 1
    assert checked >= 15
