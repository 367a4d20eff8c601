"""Probability measures on graph vertices and exact Wasserstein transport.

All masses, costs and distances are exact rationals. By Kantorovich-
Rubinstein duality W1(m1, m2) is the min-cost transshipment of m1 - m2
over the graph metric on D = supp m1 union supp m2, scaled to integers. It
is solved on `_metric_network`, which the Lipschitz curvature program
shares, by a primal-dual min-cost flow. The negated node potentials are an
integer Kantorovich potential; a path decomposition of the flow is an
optimal coupling.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

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
        dist = {u: bfs_distances(g, u) for u, _ in self.entries}
        return sum((mass * dist[u][v] for (u, v), mass in self.entries.items()), Fraction(0))

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
        return sum((f * (m1[v] - m2[v]) for v, f in self.values.items()), Fraction(0))


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
            path, v = [], t
            while v != s:
                path.append(prev_arc[v])
                v = to[path[-1] ^ 1]
            delta = min(amount - sent, *(cap[arc] for arc in path))
            for arc in path:
                cap[arc] -= delta
                cap[arc ^ 1] += delta
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


def _domain_metric(g: Graph, domain: Sequence[int]) -> dict[tuple[int, int], int]:
    """Graph distance d(u, v) for every ordered pair of `domain`."""
    maps = {u: bfs_distances(g, u) for u in domain}
    return {(u, v): maps[u][v] for u in domain for v in domain}


def _lipschitz_violation(
    f: Mapping[int, int], dist: Mapping[tuple[int, int], int]
) -> tuple[int, int] | None:
    """The first pair (u, v) of `dist` with f(v) - f(u) > d(u, v), if any."""
    return next(((u, v) for (u, v), d in dist.items() if f[v] - f[u] > d), None)


def _metric_network(
    domain: Sequence[int], dist: Mapping[tuple[int, int], int], supply: Mapping[int, int]
) -> tuple[_MinCostFlow, int]:
    """Transshipment network of integer `supply` over the metric `dist` on `domain`.

    Node i is domain[i]; s = n feeds the positive supplies and t = n + 1
    drains the negative ones. Returns the network and the amount to push
    s -> t. Domain arcs cost d(u, v) and have capacity above that amount, so
    they never saturate and the final potentials satisfy each of them.

    Only a spanning set of arcs is added: u -> v is kept if d(u, v) = 1 or
    no G-neighbour of u inside the domain is one step closer to v. Their
    shortest-path closure is d on the domain, by induction on d: a pair at
    distance 1 is an arc; a dropped pair at distance d has a neighbour w in
    the domain with d(w, v) = d - 1, whose closure is d - 1, and no path of
    arcs is shorter than d. So potentials feasible for the kept arcs are
    1-Lipschitz on the whole domain.
    """
    n = len(domain)
    node = {u: i for i, u in enumerate(domain)}
    amount = sum(c for c in supply.values() if c > 0)
    net = _MinCostFlow(n + 2)
    for u, c in supply.items():
        if c > 0:
            net.add_edge(n, node[u], c, 0)
        elif c < 0:
            net.add_edge(node[u], n + 1, -c, 0)
    near = {u: [w for w in domain if dist[u, w] == 1] for u in domain}
    for u in domain:
        for v in domain:
            d = dist[u, v]
            if u != v and (d == 1 or all(dist[w, v] != d - 1 for w in near[u])):
                net.add_edge(node[u], node[v], amount + 1, d)
    return net, amount


def optimal_transport(
    g: Graph, m1: Measure, m2: Measure, scale_multiplier: int = 1
) -> TransportResult:
    """Exact Wasserstein distance, an optimal coupling, and an integer potential.

    Masses are scaled to integers by the lcm of their denominators, times the
    optional multiplier, which must not change the result.
    """
    if scale_multiplier < 1:
        raise TransportError("scale_multiplier must be a positive integer")
    domain = sorted(set(m1.support()) | set(m2.support()))
    foreign = [v for v in domain if v not in g]
    if foreign:
        raise TransportError(f"a measure puts mass on vertex {foreign[0]} not in the graph")
    scale = lcm(*(m.denominator for _, m in m1.items()),
                *(m.denominator for _, m in m2.items())) * scale_multiplier
    supply = dict.fromkeys(domain, 0)
    for v, m in m1.items():
        supply[v] += m.numerator * (scale // m.denominator)
    for v, m in m2.items():
        supply[v] -= m.numerator * (scale // m.denominator)
    n = len(domain)
    net, amount = _metric_network(domain, _domain_metric(g, domain), supply)
    distance = Fraction(net.solve(n, n + 1, amount), scale)

    p = net.feasible_potentials()
    anchor = min(m1.support())
    base = p[domain.index(anchor)]
    potential = DualPotential({v: base - p[i] for i, v in enumerate(domain)}, anchor)

    # The common mass stays in place; the rest follows a path decomposition
    # of the flow on the domain arcs (the flow on an arc is the capacity of
    # its reverse). An arc that carries flow has reduced cost 0, so p rises
    # by its cost >= 1 along it: the flow has no cycle, and a path from u to
    # v costs p(v) - p(u) <= d(u, v); no path is shorter, so it costs d(u, v).
    entries = {(v, v): min(m1[v], m2[v]) for v in domain if m1[v] and m2[v]}
    flow = {(i, net.to[a]): net.cap[a ^ 1] for i in range(n) for a in net.adj[i]
            if a % 2 == 0 and net.to[a] < n and net.cap[a ^ 1] > 0}
    excess = [supply[v] for v in domain]
    for i in range(n):
        while excess[i] > 0:
            path = [i]
            while excess[path[-1]] >= 0:
                path.append(next(j for j in range(n) if flow.get((path[-1], j))))
            arcs = list(zip(path, path[1:]))
            u = path[-1]
            delta = min(excess[i], -excess[u], *(flow[a] for a in arcs))
            for a in arcs:
                flow[a] -= delta
            excess[i] -= delta
            excess[u] += delta
            key = (domain[i], domain[u])
            entries[key] = entries.get(key, 0) + Fraction(delta, scale)
    plan = TransportPlan(entries, m1, m2)

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

    Normalized to 0 at the smallest vertex of support(m1) and verified, with
    the zero duality gap, before returning.
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
        odd = next((v for v, f in potential.items() if not isinstance(f, int)), None)
        if odd is not None:
            problems.append(f"potential value at {odd} is not an integer")
        dist = _domain_metric(g, sorted(domain))
        bad = _lipschitz_violation(potential.values, dist)
        if bad is not None:
            u, v = bad
            problems.append(
                f"potential violates 1-Lipschitz on ({u}, {v}): "
                f"{potential[v]} - {potential[u]} > {dist[bad]}"
            )
        primal = plan.cost(g)
        dual = potential.pairing(m1, m2)
        if primal != dual:
            problems.append(f"duality gap: primal cost {primal} != dual value {dual}")
    return DualityCheck(not problems, tuple(problems))
