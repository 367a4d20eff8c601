"""Probability measures on graph vertices and exact Wasserstein transport.

All masses, costs and distances are exact rationals. The transportation
problem is scaled to integers by the common denominator of the two measures
and solved by the primal-dual algorithm: each phase runs one Dijkstra over
reduced costs and then pushes a maximum flow over the arcs of zero reduced
cost. The node potentials of the optimal flow yield an integer Kantorovich
potential.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .graphs import Graph, bfs_distances


class TransportError(ValueError):
    """Invalid measure or transport input."""


class InternalConsistencyError(RuntimeError):
    """An exactness self-check failed; indicates a solver bug."""


_INF = float("inf")


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


class Measure:
    """Sparse probability distribution with exact rational masses."""

    __slots__ = ("_mass",)

    def __init__(self, masses: Mapping[int, Fraction]):
        clean: dict[int, Fraction] = {}
        total = Fraction(0)
        for v, m in masses.items():
            m = _frac(m)
            if m < 0:
                raise TransportError(f"negative mass {m} at vertex {v}")
            if m > 0:
                clean[int(v)] = m
                total += m
        if total != 1:
            raise TransportError(f"masses sum to {total}, expected 1")
        self._mass = dict(sorted(clean.items()))

    def support(self) -> tuple[int, ...]:
        return tuple(self._mass)

    def items(self):
        return self._mass.items()

    def __getitem__(self, v: int) -> Fraction:
        return self._mass.get(v, Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Measure) and self._mass == other._mass

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self._mass.items())
        return f"Measure({{{inner}}})"


def lazy_measure(g: Graph, x: int, alpha) -> Measure:
    """Alpha-lazy random walk step measure: alpha at x, (1-alpha)/deg on neighbors."""
    alpha = _frac(alpha)
    if not 0 <= alpha <= 1:
        raise TransportError(f"alpha must lie in [0, 1], got {alpha}")
    if x not in g:
        raise TransportError(f"unknown vertex {x}")
    if alpha == 1:
        return Measure({x: Fraction(1)})
    deg = g.degree(x)
    if deg == 0:
        raise TransportError(f"vertex {x} has no neighbors; lazy walk undefined for alpha < 1")
    share = (1 - alpha) / deg
    masses = {v: share for v in g.neighbors(x)}
    if alpha > 0:
        masses[x] = alpha
    return Measure(masses)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two measures; entries are strictly positive masses."""

    entries: Mapping[tuple[int, int], Fraction]
    source: Measure
    target: Measure

    def cost(self, g: Graph) -> Fraction:
        total = Fraction(0)
        dist_cache: dict[int, object] = {}
        for (u, v), mass in self.entries.items():
            if u not in dist_cache:
                dist_cache[u] = bfs_distances(g, u)
            total += mass * dist_cache[u][v]
        return total

    def row_sums(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (u, _), mass in self.entries.items():
            out[u] = out.get(u, Fraction(0)) + mass
        return out

    def column_sums(self) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for (_, v), mass in self.entries.items():
            out[v] = out.get(v, Fraction(0)) + mass
        return out


@dataclass(frozen=True)
class DualPotential:
    """Integer 1-Lipschitz Kantorovich potential over the supports' union."""

    values: Mapping[int, int]
    anchor: int

    def __getitem__(self, v: int) -> int:
        try:
            return self.values[v]
        except KeyError:
            raise TransportError(f"potential not defined at vertex {v}") from None

    def items(self):
        return self.values.items()

    def pairing(self, m1: Measure, m2: Measure) -> Fraction:
        """Dual value sum f (m1 - m2)."""
        total = Fraction(0)
        for v, f in self.values.items():
            total += f * (m1[v] - m2[v])
        return total


@dataclass(frozen=True)
class TransportResult:
    distance: Fraction
    plan: TransportPlan
    potential: DualPotential


class _MinCostFlow:
    """Primal-dual min-cost flow over reduced costs (all integer).

    Each phase runs one Dijkstra, raises the node potentials by the capped
    distances, and then pushes a maximum flow over the admissible arcs (the
    residual arcs of reduced cost 0) before the next Dijkstra (Ahuja,
    Magnanti & Orlin, Network Flows, 1993, section 9.8). Every admissible
    s-t path costs potential[t] - potential[s], so a phase changes the
    total cost by its flow times that difference. The arc costs used here
    are small distances, so a solve needs only a few phases.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> int:
        arc = len(self.to)
        self.adj[u].append(arc)
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.adj[v].append(arc + 1)
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)
        return arc

    def solve(self, s: int, t: int, amount: int) -> int:
        """Push `amount` units s -> t at minimum total cost.

        Negative arc costs are allowed as long as no cycle is negative: the
        starting potentials make every reduced cost nonnegative.
        """
        n, to, cap = self.n, self.to, self.cap
        potential = self.feasible_potentials()
        total = 0
        sent = 0
        while sent < amount:
            dist, prev_arc = self._shortest_paths(s, t, potential)
            dt = dist[t]
            if dt == _INF:
                raise InternalConsistencyError("transport network is infeasible")
            for v in range(n):
                potential[v] += dist[v] if dist[v] < dt else dt
            # The Dijkstra path is admissible too; augmenting it directly
            # saves a level BFS and a DFS when the phase has only this path.
            delta = amount - sent
            v = t
            while v != s:
                arc = prev_arc[v]
                delta = min(delta, cap[arc])
                v = to[arc ^ 1]
            v = t
            while v != s:
                arc = prev_arc[v]
                cap[arc] -= delta
                cap[arc ^ 1] += delta
                v = to[arc ^ 1]
            delta += self._admissible_flow(s, t, potential, amount - sent - delta)
            sent += delta
            total += delta * (potential[t] - potential[s])
        return total

    def _shortest_paths(self, s: int, t: int, potential: list[int]) -> tuple[list, list[int]]:
        """Dijkstra from s over reduced costs: distances and each node's last arc.

        Stops once t is settled. A node settled before t has its exact
        distance; any other has a label of at least dist[t], which the capped
        potential update in `solve` treats as dist[t] either way.
        """
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        dist: list = [_INF] * self.n
        prev_arc = [-1] * self.n
        dist[s] = 0
        heap = [(0, s)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            if u == t:
                break
            for arc in adj[u]:
                if cap[arc] <= 0:
                    continue
                v = to[arc]
                nd = d + cost[arc] + potential[u] - potential[v]
                if nd < dist[v]:
                    dist[v] = nd
                    prev_arc[v] = arc
                    heapq.heappush(heap, (nd, v))
        return dist, prev_arc

    def _admissible_flow(self, s: int, t: int, potential: list[int], limit: int) -> int:
        """Push up to `limit` units s -> t over admissible arcs; return the amount.

        Dinic's method: BFS levels over the admissible arcs, then a DFS that
        follows only arcs one level up, with a current-arc pointer per node
        so that a dead end is never searched twice. An arc that carries flow
        and its reverse are both admissible, so zero-cost cycles exist; the
        levels keep the DFS from re-entering a node on its current path.
        Repeats until t is unreachable, so the flow on the admissible
        subgraph is maximum (or `limit` is reached).
        """
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        pushed = 0
        while pushed < limit:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                if level[t] >= 0:
                    break
                pu, up = potential[u], level[u] + 1
                for arc in adj[u]:
                    v = to[arc]
                    if level[v] < 0 and cap[arc] > 0 and cost[arc] + pu == potential[v]:
                        level[v] = up
                        queue.append(v)
            if level[t] < 0:
                break
            current = [0] * self.n
            path: list[int] = []
            u = s
            while pushed < limit:
                if u == t:
                    delta = min(limit - pushed, min(cap[arc] for arc in path))
                    for arc in path:
                        cap[arc] -= delta
                        cap[arc ^ 1] += delta
                    pushed += delta
                    path.clear()
                    u = s
                    continue
                arcs = adj[u]
                i = current[u]
                pu, up = potential[u], level[u] + 1
                while i < len(arcs):
                    arc = arcs[i]
                    v = to[arc]
                    if level[v] == up and cap[arc] > 0 and cost[arc] + pu == potential[v]:
                        break
                    i += 1
                current[u] = i
                if i < len(arcs):
                    path.append(arcs[i])
                    u = to[arcs[i]]
                elif u == s:
                    break
                else:
                    u = to[path.pop() ^ 1]
                    current[u] += 1
        return pushed

    def feasible_potentials(self) -> list[int]:
        """Bellman-Ford potentials of the current residual graph.

        Starting every node at 0 is valid because neither the initial network
        nor the residual of an optimal flow has a negative cycle; the result
        satisfies p[v] <= p[u] + cost on every residual arc.
        """
        p = [0] * self.n
        arcs = [
            (self.to[a ^ 1], self.to[a], self.cost[a])
            for a in range(len(self.to))
            if self.cap[a] > 0
        ]
        for _ in range(self.n):
            changed = False
            for u, v, c in arcs:
                if p[u] + c < p[v]:
                    p[v] = p[u] + c
                    changed = True
            if not changed:
                return p
        raise InternalConsistencyError("negative cycle in optimal residual graph")


def _check_supported(g: Graph, m: Measure, name: str) -> None:
    for v in m.support():
        if v not in g:
            raise TransportError(f"{name} puts mass on vertex {v} not in the graph")


def optimal_transport(
    g: Graph, m1: Measure, m2: Measure, scale_multiplier: int = 1
) -> TransportResult:
    """Exact Wasserstein distance, an optimal coupling, and an integer potential.

    Masses are scaled by the lcm of their denominators (times the optional
    extra multiplier, which must not change the result) to an integer
    transportation problem over the two supports with BFS distances as costs.
    """
    if scale_multiplier < 1:
        raise TransportError("scale_multiplier must be a positive integer")
    _check_supported(g, m1, "m1")
    _check_supported(g, m2, "m2")
    sources = m1.support()
    sinks = m2.support()
    scale = lcm(*(m.denominator for _, m in m1.items()),
                *(m.denominator for _, m in m2.items())) * scale_multiplier
    supplies = [int(m1[u] * scale) for u in sources]
    demands = [int(m2[v] * scale) for v in sinks]

    sink_dist = {v: bfs_distances(g, v) for v in sinks}

    ns, nt = len(sources), len(sinks)
    net = _MinCostFlow(2 + ns + nt)
    s_node, t_node = 0, 1
    for i, u in enumerate(sources):
        net.add_edge(s_node, 2 + i, supplies[i], 0)
    sink_arcs = []
    for j, v in enumerate(sinks):
        sink_arcs.append(net.add_edge(2 + ns + j, t_node, demands[j], 0))
    # Interior capacities exceed the total supply so no source-sink arc ever
    # saturates; reduced-cost feasibility then holds on every such arc, which
    # the dual extraction below relies on.
    pair_arcs = {}
    for i, u in enumerate(sources):
        for j, v in enumerate(sinks):
            pair_arcs[i, j] = net.add_edge(2 + i, 2 + ns + j, scale + 1, sink_dist[v][u])

    total_cost = net.solve(s_node, t_node, scale)
    distance = Fraction(total_cost, scale)

    entries = {}
    for (i, j), arc in pair_arcs.items():
        flow = (scale + 1) - net.cap[arc]
        if flow > 0:
            entries[(sources[i], sinks[j])] = Fraction(flow, scale)
    plan = TransportPlan(entries, m1, m2)

    p = net.feasible_potentials()
    beta = {v: p[2 + ns + j] for j, v in enumerate(sinks)}
    domain = sorted(set(sources) | set(sinks))
    values = {}
    for w in domain:
        values[w] = min(sink_dist[v][w] - beta[v] for v in sinks)
    anchor = min(sources)
    base = values[anchor]
    values = {w: f - base for w, f in values.items()}
    potential = DualPotential(values, anchor)

    _self_check(g, m1, m2, distance, plan, potential)
    return TransportResult(distance, plan, potential)


def _self_check(g, m1, m2, distance, plan, potential) -> None:
    check = verify_duality(plan, potential, g)
    if not check:
        raise InternalConsistencyError("; ".join(check.violations))
    if potential.pairing(m1, m2) != distance:
        raise InternalConsistencyError("dual value disagrees with the reported distance")


def wasserstein(g: Graph, m1: Measure, m2: Measure) -> tuple[Fraction, TransportPlan]:
    """Exact transportation distance and an optimal coupling."""
    result = optimal_transport(g, m1, m2)
    return result.distance, result.plan


def kantorovich_potential(g: Graph, m1: Measure, m2: Measure) -> DualPotential:
    """Integer 1-Lipschitz potential attaining the transportation distance.

    Normalized to 0 at the smallest vertex of support(m1); integrality,
    Lipschitz feasibility and the zero duality gap are verified before
    returning.
    """
    return optimal_transport(g, m1, m2).potential


@dataclass(frozen=True)
class DualityCheck:
    """Outcome of a primal/dual cross-verification."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_duality(plan: TransportPlan, potential: DualPotential, g: Graph) -> DualityCheck:
    """True iff plan and potential are feasible and their values agree exactly."""
    problems = []
    m1, m2 = plan.source, plan.target
    for (u, v), mass in plan.entries.items():
        if mass < 0:
            problems.append(f"negative plan entry at ({u}, {v})")
    if plan.row_sums() != dict(m1.items()):
        problems.append("plan row sums do not equal the source measure")
    if plan.column_sums() != dict(m2.items()):
        problems.append("plan column sums do not equal the target measure")
    domain = set(potential.values)
    needed = set(m1.support()) | set(m2.support())
    missing = needed - domain
    if missing:
        problems.append(f"potential undefined on support vertices {sorted(missing)}")
    else:
        for v, f in potential.items():
            if not isinstance(f, int):
                problems.append(f"potential value at {v} is not an integer")
                break
        order = sorted(domain)
        for i, u in enumerate(order):
            du = bfs_distances(g, u)
            # pairs are checked once, (u, v) with u < v, as |.| is symmetric
            v = next((w for w in order[i + 1:] if abs(potential[u] - potential[w]) > du[w]), None)
            if v is not None:
                problems.append(
                    f"potential violates 1-Lipschitz on ({u}, {v}): "
                    f"|{potential[u]} - {potential[v]}| > {du[v]}"
                )
                break
        primal = plan.cost(g)
        dual = potential.pairing(m1, m2)
        if primal != dual:
            problems.append(f"duality gap: primal cost {primal} != dual value {dual}")
    return DualityCheck(not problems, tuple(problems))
