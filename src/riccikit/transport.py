"""Probability measures on graph vertices and exact Wasserstein transport.

All masses, costs and distances are exact rationals. By Kantorovich-
Rubinstein duality W1(m1, m2) is the min-cost transshipment of m1 - m2
over the graph metric on D = supp m1 union supp m2, scaled to integers. It
is solved on `_metric_network`, which the Lipschitz curvature program
shares, by a primal-dual min-cost flow that starts from zero potentials and
alternates blocking flows with potential raises across their cuts. The
negated final potentials are an integer Kantorovich potential; a path
decomposition of the flow is an optimal coupling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

from .graphs import Graph, distances_to


class TransportError(ValueError):
    """Invalid measure or transport input."""


class InternalConsistencyError(RuntimeError):
    """An exactness self-check failed; indicates a solver bug."""


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _common_scale(*maps) -> tuple:
    """`scale`, the lcm of every denominator in `maps`, then each map times `scale`.

    Each map has Fraction values and an `items()` method, as a dict or a
    Measure does; each scaled map is a dict of ints with the same keys.
    """
    scale = lcm(*(m.denominator for values in maps for _, m in values.items()))
    return (scale, *({k: m.numerator * (scale // m.denominator) for k, m in values.items()}
                     for values in maps))


class Measure:
    """Sparse probability distribution with exact rational masses."""

    __slots__ = ("_mass",)

    def __init__(self, masses: Mapping[int, Fraction]):
        clean: dict[int, Fraction] = {}
        for v, m in masses.items():
            m = _frac(m)
            if m.numerator < 0:
                raise TransportError(f"negative mass {m} at vertex {v}")
            if m.numerator:
                clean[int(v)] = m
        # Summed over the common denominator: one integer per mass.
        scale, units = _common_scale(clean)
        total = sum(units.values())
        if total != scale:
            raise TransportError(f"masses sum to {Fraction(total, scale)}, expected 1")
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
        heads = {v for _, v in self.entries}
        dist = {u: distances_to(g, u, heads) for u in {u for u, _ in self.entries}}
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

    Its one graph search is a Dinic blocking flow over the admissible arcs,
    the residual arcs of reduced cost 0. While t is out of reach, every node
    the last BFS missed rises by the least reduced cost of a residual arc
    leaving the reached set (Ahuja, Magnanti & Orlin, Network Flows, 1993,
    section 9.8); that arc turns admissible, so the set grows. Between two
    pushes each node rises by min(dist(v), dist(t)), the capped Dijkstra
    update. Every admissible s-t path costs potential[t] - potential[s], so
    a push changes the total cost by its flow times that difference. The
    arc costs used here are small distances, so a solve needs few raises.

    The caller supplies potentials that price every arc at a nonnegative
    reduced cost. A raise keeps that, and each new residual arc reverses an
    admissible one, so they end optimal.
    """

    def __init__(self, n: int):
        self.n = n
        self.adj: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edges(
        self, tails: Sequence[int], heads: Sequence[int], caps: Sequence[int], costs: Sequence[int]
    ) -> None:
        """Add arcs tails[k] -> heads[k] of capacity caps[k] and cost costs[k].

        Arc k gets the next even id a, and its residual reverse a + 1 (no
        capacity, cost -costs[k]), so `a ^ 1` flips an arc; each id joins
        the adjacency list of its tail in order.
        """
        first, k = len(self.to), len(heads)
        to, cap, cost = [0] * (2 * k), [0] * (2 * k), [0] * (2 * k)
        to[::2], to[1::2] = heads, tails
        cap[::2] = caps
        cost[::2], cost[1::2] = costs, [-c for c in costs]
        self.to += to
        self.cap += cap
        self.cost += cost
        adj = self.adj
        for arc, u, v in zip(range(first, first + 2 * k, 2), tails, heads):
            adj[u].append(arc)
            adj[v].append(arc + 1)

    def solve(self, s: int, t: int, amount: int, potential: list[int]) -> int:
        """Push `amount` units s -> t at minimum total cost.

        `potential` must give every residual arc a nonnegative reduced
        cost, cost + potential[u] - potential[v]. It is raised in place
        across each blocking-flow cut; at the end every arc that carries
        flow below its capacity also has reduced cost 0, so it holds
        optimal duals.
        """
        # s is always reached, so each raise lifts potential[t] - potential[s]
        # by >= 1. While flow remains, a residual s-t path of < n arcs exists;
        # at reduced costs >= 0 its cost, at most (n - 1) max |cost|, bounds that.
        bound = (self.n - 1) * max(self.cost, default=0) - (potential[t] - potential[s])
        total = sent = raises = 0
        while sent < amount:
            delta, level = self._admissible_flow(s, t, potential, amount - sent)
            sent += delta
            total += delta * (potential[t] - potential[s])
            if sent == amount:
                break
            self._raise(level, potential)
            raises += 1
            if raises > bound:
                raise InternalConsistencyError(f"{raises} potential raises exceed the bound {bound}")
        return total

    def _raise(self, level: list[int], potential: list[int]) -> None:
        """Lift every unreached node by the least reduced cost leaving the reached set."""
        adj, to, cap, cost = self.adj, self.to, self.cap, self.cost
        step = min((cost[arc] + potential[u] - potential[to[arc]]
                    for u in range(self.n) if level[u] >= 0
                    for arc in adj[u] if cap[arc] > 0 and level[to[arc]] < 0),
                   default=None)
        if step is None:
            raise InternalConsistencyError("transport network is infeasible")
        if step <= 0:
            raise InternalConsistencyError(f"an arc leaves the cut at reduced cost {step}")
        for v in range(self.n):
            if level[v] < 0:
                potential[v] += step

    def _admissible_flow(
        self, s: int, t: int, potential: list[int], limit: int
    ) -> tuple[int, list[int]]:
        """Push up to `limit` units s -> t over admissible arcs.

        `limit` must be positive. Returns the amount and the levels of the
        last BFS: when t is out of reach, level[v] >= 0 exactly for the
        nodes that admissible arcs reach from s.

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
        return pushed, level


def _domain_metric(g: Graph, domain: Sequence[int]) -> dict[tuple[int, int], int]:
    """Graph distance d(u, v) for every ordered pair of `domain`, by local searches."""
    maps = {u: distances_to(g, u, domain) for u in domain}
    return {(u, v): maps[u][v] for u in domain for v in domain}


def _potential_violations(
    f: Mapping[int, int], dist: Mapping[tuple[int, int], int]
) -> list[str]:
    """Why f is not an integer 1-Lipschitz potential on the pairs of `dist`.

    Names the first non-integer value and the first pair (u, v) of `dist`
    with f(v) - f(u) > d(u, v); empty if f is a valid potential.
    """
    odd = [v for v, fv in f.items() if not isinstance(fv, int)]
    problems = [f"potential value at {odd[0]} is not an integer"] if odd else []
    for (u, v), d in dist.items():
        if f[v] - f[u] > d:
            problems.append(f"potential violates 1-Lipschitz on ({u}, {v}): {f[v]} - {f[u]} > {d}")
            break
    return problems


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
    tails = [n if c > 0 else node[u] for u, c in supply.items() if c]
    heads = [node[u] if c > 0 else n + 1 for u, c in supply.items() if c]
    caps = [abs(c) for c in supply.values() if c]
    costs = [0] * len(caps)
    rows = [[dist[u, v] for v in domain] for u in domain]
    for i, row in enumerate(rows):
        # around[j] holds d(w, domain[j]) for each G-neighbour w of domain[i]
        # in the domain. A row of distances 0 and 1 keeps its arcs without it.
        near = [r for r, d in zip(rows, row) if d == 1]
        around = list(zip(*near)) if near and max(row) > 1 else [()] * n
        for j, d in enumerate(row):
            if d == 1 or i != j and d - 1 not in around[j]:
                tails.append(i)
                heads.append(j)
                costs.append(d)
    caps += [amount + 1] * (len(heads) - len(caps))
    net = _MinCostFlow(n + 2)
    net.add_edges(tails, heads, caps, costs)
    return net, amount


def _coupling(
    net: _MinCostFlow, domain: Sequence[int], source: Mapping[int, int], target: Mapping[int, int]
) -> dict[tuple[int, int], int]:
    """An optimal coupling of the scaled measures, from the flow `net` carries.

    The common mass stays in place; the rest follows a path decomposition
    of the flow on the domain arcs (the flow on an arc is the capacity of
    its reverse). An arc that carries flow has reduced cost 0, so p rises
    by its cost >= 1 along it: the flow has no cycle, and a path from u to
    v costs p(v) - p(u) <= d(u, v); no path is shorter, so it costs d(u, v).
    A path leaves each node by the lowest-numbered head still carrying
    flow; `out[i]` maps those heads, in increasing order, to their flow.
    """
    n = len(domain)
    units = {(v, v): min(source[v], target[v]) for v in domain if v in source and v in target}
    to, cap = net.to, net.cap
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for i, j, c in sorted((to[a + 1], to[a], cap[a + 1]) for a in range(0, len(to), 2)
                          if cap[a + 1] and to[a] < n and to[a + 1] < n):
        out[i][j] = c
    excess = [source.get(v, 0) - target.get(v, 0) for v in domain]
    for i in range(n):
        while excess[i] > 0:
            path = [i]
            while excess[path[-1]] >= 0:
                path.append(next(iter(out[path[-1]])))
            u = path[-1]
            delta = min(excess[i], -excess[u], *(out[a][b] for a, b in zip(path, path[1:])))
            for a, b in zip(path, path[1:]):
                out[a][b] -= delta
                if not out[a][b]:
                    del out[a][b]
            excess[i] -= delta
            excess[u] += delta
            key = (domain[i], domain[u])
            units[key] = units.get(key, 0) + delta
    return units


def optimal_transport(g: Graph, m1: Measure, m2: Measure) -> TransportResult:
    """Exact Wasserstein distance, an optimal coupling, and an integer potential.

    Masses are scaled to integers by the lcm of their denominators; the
    solve and its certificate stay at that scale.
    """
    domain = sorted(set(m1.support()) | set(m2.support()))
    foreign = [v for v in domain if v not in g]
    if foreign:
        raise TransportError(f"a measure puts mass on vertex {foreign[0]} not in the graph")
    scale, source, target = _common_scale(m1, m2)
    supply = dict.fromkeys(domain, 0)
    for v, c in source.items():
        supply[v] += c
    for v, c in target.items():
        supply[v] -= c
    n = len(domain)
    dist = _domain_metric(g, domain)
    net, amount = _metric_network(domain, dist, supply)
    p = [0] * (n + 2)  # every arc cost is >= 0
    total = net.solve(n, n + 1, amount, p)
    anchor = min(m1.support())
    base = p[domain.index(anchor)]
    f = {v: base - p[i] for i, v in enumerate(domain)}
    units = _coupling(net, domain, source, target)
    # Certify the solve at its scale against `dist`, the metric its network
    # was built on, before any mass becomes a Fraction.
    violations = _duality_violations(units, source, target, f, dist, scale, total)
    if violations:
        raise InternalConsistencyError("; ".join(violations))
    plan = TransportPlan({key: Fraction(c, scale) for key, c in units.items()}, m1, m2)
    return TransportResult(Fraction(total, scale), plan, DualPotential(f, anchor))


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
    """True iff plan and potential are feasible and their values agree exactly.

    The plan and both measures are scaled to one integer scale
    (`_common_scale`) and checked by the certificate that
    `optimal_transport` runs. An entry that is not a finite number is
    reported and left out of the scaled plan.
    """
    entries, problems = {}, []
    for (u, v), mass in plan.entries.items():
        try:
            entries[u, v] = _frac(mass)
        except (ValueError, OverflowError):  # a NaN or infinite float
            problems.append(f"non-finite plan entry at ({u}, {v})")
    scale, units, source, target = _common_scale(entries, plan.source, plan.target)
    vertices = set(potential.values).union(*plan.entries)
    problems += _duality_violations(units, source, target, potential.values,
                                    _domain_metric(g, sorted(vertices)), scale)
    return DualityCheck(not problems, tuple(problems))


def _duality_violations(
    units: Mapping[tuple[int, int], int],
    source: Mapping[int, int],
    target: Mapping[int, int],
    f: Mapping[int, int],
    dist: Mapping[tuple[int, int], int],
    scale: int,
    distance: int | None = None,
) -> list[str]:
    """Every way a plan and a potential fail to certify each other under `dist`.

    Everything is at one integer scale: `units` are the plan entries times
    `scale`, `source` and `target` the masses of the two measures times
    `scale` (support only), and `distance`, if given, the reported distance
    times `scale`, which the dual value must equal. `f` is the potential.
    `dist` must hold d(u, v) for every pair of f's domain, in sorted order,
    and for every plan entry. Values enter a Fraction only in a message.
    """
    problems = []
    rows: dict[int, int] = {}
    cols: dict[int, int] = {}
    for (u, v), c in units.items():
        if c < 0:
            problems.append(f"negative plan entry at ({u}, {v})")
        rows[u] = rows.get(u, 0) + c
        cols[v] = cols.get(v, 0) + c
    if rows != source:
        problems.append("plan row sums do not equal the source measure")
    if cols != target:
        problems.append("plan column sums do not equal the target measure")
    missing = (source.keys() | target.keys()) - f.keys()
    if missing:
        problems.append(f"potential undefined on support vertices {sorted(missing)}")
        return problems
    pairs = dist
    if len(dist) != len(f) ** 2:  # dist reaches past f's domain
        domain = sorted(f)
        pairs = {(u, v): dist[u, v] for u in domain for v in domain}
    problems += _potential_violations(f, pairs)
    primal = sum(c * dist[key] for key, c in units.items())
    dual = (sum(f[v] * c for v, c in source.items())
            - sum(f[v] * c for v, c in target.items()))
    if primal != dual:
        problems.append(f"duality gap: primal cost {primal / Fraction(scale)} "
                        f"!= dual value {dual / Fraction(scale)}")
    if distance is not None and dual != distance:
        problems.append("dual value disagrees with the reported distance")
    return problems
