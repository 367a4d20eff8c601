import random
from fractions import Fraction

import pytest

from riccikit import families, transport
from riccikit.curvature import build_lipschitz_program
from riccikit.graphs import Graph, bfs_distances, distances_to
from riccikit.transport import (
    DualPotential,
    InternalConsistencyError,
    Measure,
    TransportError,
    _MinCostFlow,
    TransportPlan,
    _common_scale,
    _domain_metric,
    _duality_violations,
    kantorovich_potential,
    lazy_measure,
    optimal_transport,
    verify_duality,
    wasserstein,
)

from oracles import oracle_duality_violations, oracle_wasserstein, random_connected_graph


half = Fraction(1, 2)


def certify(plan, potential, dist, distance=None):
    """The integer certificate on a Fraction plan, scaled as verify_duality scales it."""
    scale, units, source, target = _common_scale(plan.entries, plan.source, plan.target)
    scaled = None if distance is None else distance * scale
    return _duality_violations(units, source, target, potential.values, dist, scale, scaled)


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
    plan, distance = result.plan, result.distance
    dist = {(u, v): int(u != v) for u in k3.vertices for v in k3.vertices}  # K3's metric
    assert certify(plan, result.potential, dist, distance) == []
    wrong = certify(plan, result.potential, dist, distance + 1)
    assert any("reported distance" in p for p in wrong)
    zero_pot = DualPotential({v: 0 for v in k3.vertices}, anchor=0)
    assert any("duality gap" in p for p in certify(plan, zero_pot, dist, distance))


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


def test_verify_duality_takes_int_and_float_entries(path3):
    # Entries are scaled exactly, whatever number type holds them.
    m1, m2 = Measure({0: half, 1: half}), Measure({2: 1})
    pot = DualPotential({0: 2, 1: 1, 2: 0}, anchor=0)
    assert verify_duality(TransportPlan({(0, 2): 0.5, (1, 2): half}, m1, m2), pot, path3)
    point = TransportPlan({(0, 2): 1}, Measure({0: 1}), m2)
    assert verify_duality(point, pot, path3)
    check = verify_duality(TransportPlan({(0, 2): 0.25, (1, 2): half}, m1, m2), pot, path3)
    assert check.violations == ("plan row sums do not equal the source measure",
                                "plan column sums do not equal the target measure",
                                "duality gap: primal cost 1 != dual value 3/2")
    # A NaN or infinite entry is reported, not raised, and left out of the plan.
    for bad in (float("nan"), float("inf"), float("-inf")):
        check = verify_duality(TransportPlan({(0, 2): bad, (1, 2): half}, m1, m2), pot, path3)
        assert check.violations == ("non-finite plan entry at (0, 2)",
                                    "plan row sums do not equal the source measure",
                                    "plan column sums do not equal the target measure",
                                    "duality gap: primal cost 1/2 != dual value 3/2")


def test_verify_duality_flags_non_lipschitz(path3):
    m1 = Measure({0: 1})
    m2 = Measure({2: 1})
    result = optimal_transport(path3, m1, m2)
    wild = DualPotential({0: 5, 2: 0}, anchor=0)
    check = verify_duality(result.plan, wild, path3)
    assert any("Lipschitz" in v for v in check.violations)


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
    # The arcs are read back from the network `_metric_network` returns:
    # arc a (even) runs from to[a ^ 1] to to[a] at cost[a].
    networks = []
    metric_network = transport._metric_network

    def record(*args):
        networks.append(metric_network(*args))
        return networks[-1]

    monkeypatch.setattr(transport, "_metric_network", record)
    rng = random.Random(4099)
    checked = 0
    for _ in range(25):
        g = random_connected_graph(rng, n_max=10, max_degree=4)
        verts = list(g.vertices)
        if len(verts) < 3:
            continue
        m1, m2 = (_tied_measure(rng, rng.sample(verts, rng.randint(1, min(4, len(verts))))) for _ in range(2))
        networks.clear()
        result = optimal_transport(g, m1, m2)
        (net, _), = networks
        added = [(net.to[a ^ 1], net.to[a], net.cost[a]) for a in range(0, len(net.to), 2)]
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


def test_flow_engine_keeps_optimal_potentials(monkeypatch):
    # Callers hand `solve` potentials that price every residual arc at >= 0;
    # it must keep that and end with complementary slackness: an arc that
    # carries flow below its capacity has reduced cost 0 (a saturated one,
    # such as a source or sink arc, may end below 0).
    solve = _MinCostFlow.solve
    solves = []

    def checked(self, s, t, amount, potential):
        def reduced(a):
            return self.cost[a] + potential[self.to[a ^ 1]] - potential[self.to[a]]

        arcs = range(len(self.to))
        assert all(reduced(a) >= 0 for a in arcs if self.cap[a] > 0)
        total = solve(self, s, t, amount, potential)
        assert all(reduced(a) >= 0 for a in arcs if self.cap[a] > 0)
        carrying = [a for a in range(0, len(self.to), 2) if self.cap[a ^ 1] > 0]
        for a in carrying:
            assert reduced(a) == 0 if self.cap[a] > 0 else reduced(a) <= 0
        assert total == sum(self.cap[a ^ 1] * self.cost[a] for a in carrying)
        solves.append(amount)
        return total

    monkeypatch.setattr(_MinCostFlow, "solve", checked)
    rng = random.Random(6151)
    far = 0
    for _ in range(25):
        g = random_connected_graph(rng, n_max=12, max_degree=5)
        verts = list(g.vertices)
        if len(verts) < 3:
            continue
        pairs = [rng.choice(g.edges())] + [tuple(rng.sample(verts, 2)) for _ in range(2)]
        for x, y in pairs:
            far += not g.has_edge(x, y)
            build_lipschitz_program(g, x, y).solve()
            for alpha in (Fraction(0), Fraction(1, 3)):
                m1, m2 = lazy_measure(g, x, alpha), lazy_measure(g, y, alpha)
                assert optimal_transport(g, m1, m2).distance == oracle_wasserstein(g, m1, m2)
    assert far >= 20
    assert sum(amount > 0 for amount in solves) >= 150


def test_potentials_pricing_an_arc_below_zero_are_an_internal_fault(monkeypatch):
    # The raise across the cut needs every residual arc at reduced cost >= 0;
    # broken starting potentials must raise rather than loop.
    calls = []
    admissible_flow = _MinCostFlow._admissible_flow

    def count(self, *args):
        calls.append(1)
        assert len(calls) < 10, "solve kept looping"
        return admissible_flow(self, *args)

    monkeypatch.setattr(_MinCostFlow, "_admissible_flow", count)
    net = _MinCostFlow(3)
    net.add_edges([0, 1], [1, 2], [1, 1], [1, 1])  # 0 -> 1 -> 2, capacity 1, cost 1
    with pytest.raises(InternalConsistencyError, match="reduced cost -4"):
        net.solve(0, 2, 1, [0, 5, 0])  # prices 0 -> 1 at 1 + 0 - 5
    assert len(calls) == 1


def test_a_raise_loop_is_an_internal_fault(monkeypatch):
    # A faulty raise that lifts the reached side never makes an arc across
    # the cut admissible, so solve would loop; the raise bound stops it.
    def lifts_reached_side(self, level, potential):
        step = min(self.cost[arc] + potential[u] - potential[self.to[arc]]
                   for u in range(self.n) if level[u] >= 0
                   for arc in self.adj[u] if self.cap[arc] > 0 and level[self.to[arc]] < 0)
        for v in range(self.n):
            if level[v] >= 0:
                potential[v] += step

    monkeypatch.setattr(_MinCostFlow, "_raise", lifts_reached_side)
    g, _ = families.cycle(6)
    with pytest.raises(InternalConsistencyError, match="potential raises exceed the bound"):
        build_lipschitz_program(g, 0, 1).solve()
    with pytest.raises(InternalConsistencyError, match="potential raises exceed the bound"):
        optimal_transport(g, lazy_measure(g, 0, 0), lazy_measure(g, 3, 0))


def test_flow_engine_matches_networkx_with_a_negative_arc(monkeypatch):
    # An independent min-cost flow oracle on networks shaped like the
    # curvature dual: one arc of negative cost, which the starting
    # potentials price at >= 0 like every other arc.
    nx = pytest.importorskip("networkx")
    calls = []
    admissible_flow = _MinCostFlow._admissible_flow

    def count(self, *args):
        calls.append(1)
        assert len(calls) < 200, "solve kept looping"
        return admissible_flow(self, *args)

    monkeypatch.setattr(_MinCostFlow, "_admissible_flow", count)
    rng = random.Random(2718)
    checked = 0
    while checked < 30:
        n = rng.randint(4, 7)
        s, t = 0, n - 1
        p = [rng.randint(0, 4) for _ in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        downhill = [(u, v) for u, v in pairs if p[v] < p[u]]
        if not downhill:
            continue
        negative = rng.choice(downhill)
        net = _MinCostFlow(n)
        oracle = nx.DiGraph()
        oracle.add_nodes_from(range(n))
        for u, v in pairs:
            if (u, v) == negative:
                cost = p[v] - p[u] + rng.randrange(p[u] - p[v])
            else:
                cost = max(p[v] - p[u], 0) + rng.randint(0, 3)
            cap = rng.randint(1, 4)
            net.add_edges([u], [v], [cap], [cost])
            oracle.add_edge(u, v, capacity=cap, weight=cost)
        amount = nx.maximum_flow_value(oracle, s, t)
        if not amount:
            continue
        oracle.nodes[s]["demand"], oracle.nodes[t]["demand"] = -amount, amount
        calls.clear()
        assert net.solve(s, t, amount, p) == nx.min_cost_flow_cost(oracle)
        checked += 1


def test_plan_cost_runs_one_bfs_per_source(c6, monkeypatch):
    sources = []

    def counted(g, u, targets):
        sources.append(u)
        return distances_to(g, u, targets)

    monkeypatch.setattr(transport, "distances_to", counted)
    quarter = Fraction(1, 4)
    m1 = Measure({0: half, 1: half})
    m2 = Measure({2: quarter, 3: quarter, 4: quarter, 5: quarter})
    plan = TransportPlan({(0, 4): quarter, (0, 5): quarter, (1, 2): quarter, (1, 3): quarter},
                         m1, m2)
    assert plan.cost(c6) == Fraction(3, 2)  # 2/4 + 1/4 + 1/4 + 2/4
    assert sorted(sources) == [0, 1]


def test_duality_core_flags_a_corrupted_metric_or_plan():
    rng = random.Random(11)
    checked = 0
    while checked < 10:
        g = random_connected_graph(rng, n_max=9)
        x, y = rng.sample(g.vertices, 2)
        m1 = lazy_measure(g, x, Fraction(1, 3))
        m2 = lazy_measure(g, y, Fraction(1, 3))
        result = optimal_transport(g, m1, m2)
        if not result.distance:  # m1 = m2 (e.g. on a triangle): nothing moves
            continue
        plan, pot = result.plan, result.potential
        dist = _domain_metric(g, sorted(pot.values))
        assert certify(plan, pot, dist) == []
        moved = [(u, v) for (u, v) in plan.entries if u != v]
        tight = [(u, v) for (u, v), d in dist.items() if d and pot[v] - pot[u] == d]
        for (u, v), problem in [(moved[0], "duality gap"), (tight[0], "1-Lipschitz")]:
            step = 1 if problem == "duality gap" else -1
            corrupt = dict(dist)
            corrupt[u, v] += step
            assert any(problem in p for p in certify(plan, pot, corrupt))
        key = next(iter(plan.entries))
        for mass, problem in [(plan.entries[key] / 2, "sums"), (-plan.entries[key], "negative")]:
            bad_plan = TransportPlan({**plan.entries, key: mass}, m1, m2)
            violations = certify(bad_plan, pot, dist)
            assert any(problem in p for p in violations)
            assert verify_duality(bad_plan, pot, g).violations == tuple(violations)
        checked += 1


def test_measure_accepts_int_str_and_fraction_masses():
    assert dict(Measure({0: 1}).items()) == {0: Fraction(1)}
    mixed = Measure({2: "1/3", 0: Fraction(1, 6), 1: "0.5", 3: 0})
    assert mixed.support() == (0, 1, 2)
    assert dict(mixed.items()) == {0: Fraction(1, 6), 1: half, 2: Fraction(1, 3)}
    assert all(isinstance(m, Fraction) for _, m in mixed.items())
    assert Measure({"4": "1"}).support() == (4,)


def test_measure_messages_are_exact():
    with pytest.raises(TransportError) as info:
        Measure({0: Fraction(1, 3), 1: "1/3"})
    assert str(info.value) == "masses sum to 2/3, expected 1"
    with pytest.raises(TransportError) as info:
        Measure({0: 2, 1: Fraction(-1, 2), 2: "-1/2"})
    assert str(info.value) == "negative mass -1/2 at vertex 1"
    with pytest.raises(TransportError) as info:
        Measure({})
    assert str(info.value) == "masses sum to 0, expected 1"
    with pytest.raises(TransportError) as info:
        Measure({0: 1, 1: "1/6", 2: 0})
    assert str(info.value) == "masses sum to 7/6, expected 1"


def _corruptions(plan, pot, dist):
    """(plan, potential, dist) triples that break the certificate one way each."""
    m1, m2 = plan.source, plan.target
    entries, f = plan.entries, pot.values
    key = next(k for k in entries if k[0] != k[1])
    domain = sorted(f)
    tight = next((u, v) for u in domain for v in domain if u != v and f[v] - f[u] == dist[u, v])
    low = min(f, key=f.get)
    yield TransportPlan({**entries, key: entries[key] / 2}, m1, m2), pot, dist
    yield TransportPlan({**entries, key: -entries[key]}, m1, m2), pot, dist
    for (u, v), step in [(key, 1), (key, -1), (tight, -1)]:
        yield plan, pot, {**dist, (u, v): dist[u, v] + step}
    yield plan, DualPotential({**f, low: f[low] + 3}, pot.anchor), dist
    missing = m2.support()[0]
    yield plan, DualPotential({v: fv for v, fv in f.items() if v != missing}, pot.anchor), dist
    yield plan, DualPotential({**f, low: f[low] + half}, pot.anchor), dist
    yield plan, DualPotential({**f, low: Fraction(f[low])}, pot.anchor), dist


def test_integer_certificate_matches_the_fraction_reference():
    # Differential test: the integer core at the plan's scale must return the
    # very list the Fraction reference returns, message for message.
    rng = random.Random(1212)
    instances = corrupted = outside = 0
    while instances < 30:
        g = random_connected_graph(rng, n_max=10)
        if g.vertex_count < 3:
            continue
        x, y = rng.sample(g.vertices, 2)
        alpha = rng.choice((Fraction(0), Fraction(1, 3), half, Fraction(2, 7)))
        result = optimal_transport(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha))
        if not result.distance:
            continue
        plan, pot, distance = result.plan, result.potential, result.distance
        dist = _domain_metric(g, sorted(pot.values))
        assert certify(plan, pot, dist, distance) == oracle_duality_violations(
            plan, pot, dist, distance) == []
        wrong = distance + Fraction(1, 12)
        assert certify(plan, pot, dist, wrong) == oracle_duality_violations(plan, pot, dist, wrong)
        for bad_plan, bad_pot, bad_dist in _corruptions(plan, pot, dist):
            reference = oracle_duality_violations(bad_plan, bad_pot, bad_dist)
            assert reference, "each corruption breaks the certificate"
            assert certify(bad_plan, bad_pot, bad_dist) == reference
            if bad_dist is dist:  # the public check builds the metric itself
                vertices = set(bad_pot.values).union(*bad_plan.entries)
                full = _domain_metric(g, sorted(vertices))
                assert verify_duality(bad_plan, bad_pot, g).violations == tuple(
                    oracle_duality_violations(bad_plan, bad_pot, full))
            corrupted += 1
        # An entry to a vertex off the supports and the potential: the metric
        # verify_duality builds then reaches past the potential's domain.
        far = [v for v in g.vertices if v not in pot.values]
        if far:
            key = next(k for k in plan.entries if k[0] != k[1])
            bad_plan = TransportPlan({**plan.entries, (key[0], far[0]): half}, plan.source,
                                     plan.target)
            full = _domain_metric(g, sorted(set(pot.values) | {far[0]}))
            reference = oracle_duality_violations(bad_plan, pot, full)
            assert "plan column sums do not equal the target measure" in reference
            assert verify_duality(bad_plan, pot, g).violations == tuple(reference)
            outside += 1
        instances += 1
    assert corrupted == 30 * 9 and outside >= 10


@pytest.mark.parametrize("fault", ["swap targets", "drop a unit"])
def test_a_corrupted_decomposition_is_an_internal_fault(fault, monkeypatch):
    # The coupling is certified at the solve's scale before it is returned:
    # a decomposition that keeps the marginals but not the cost, or loses
    # mass, must raise rather than come back as an answer.
    coupling = transport._coupling

    def corrupt(*args):
        units = coupling(*args)
        moved = [k for k in units if k[0] != k[1]]
        if fault == "drop a unit":
            units[moved[0]] -= 1
            return units
        (a, b), (c, d) = moved[0], next(k for k in moved if k[0] != moved[0][0] and k[1] != moved[0][1])
        step = min(units[a, b], units[c, d])
        for key, change in [((a, b), -step), ((c, d), -step), ((a, d), step), ((c, b), step)]:
            units[key] = units.get(key, 0) + change
        return units

    monkeypatch.setattr(transport, "_coupling", corrupt)
    g, _ = families.cycle(8)
    m1 = Measure({0: half, 1: half})
    m2 = Measure({4: half, 6: half})
    with pytest.raises(InternalConsistencyError,
                       match="duality gap" if fault == "swap targets" else "row sums"):
        optimal_transport(g, m1, m2)
