"""Probability measures on graph vertices and exact Wasserstein transport.

All masses, costs and distances are exact rationals. By Kantorovich-
Rubinstein duality W1(m1, m2) is the min-cost transshipment of m1 - m2
over the graph metric on D = supp m1 union supp m2, scaled to integers. It
is solved on `_metric_network` over `_domain_metric`, which the Lipschitz
curvature program shares. Its rows come from the graph's search memo, so
programs, transport solves and their certificates on one graph share one
local search per vertex. The flow is a primal-dual min-cost flow that starts
from zero potentials and alternates blocking flows with potential raises
across their cuts. The negated final potentials are an integer Kantorovich
potential. The flow on the domain arcs certifies them in integers: it is
feasible, and its cost equals their dual value (`_flow_violations`), so
both are optimal. `optimal_transport` also builds the coupling, a path
decomposition of the flow, and certifies it; `verify` reads the flow alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from operator import mul, sub
from typing import Mapping, Sequence

from .graphs import Graph


class TransportError(ValueError):
    """Invalid measure or transport input."""


class InternalConsistencyError(RuntimeError):
    """An exactness self-check failed; indicates a solver bug."""


def _frac(value) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _scaled(values: Mapping) -> tuple[int, dict]:
    """`scale`, the lcm of the denominators of the Fraction `values`, then `values` times `scale`."""
    scale = lcm(*(m.denominator for m in values.values()))
    return scale, {k: m.numerator * (scale // m.denominator) for k, m in values.items()}


def _one_scale(*pairs) -> tuple:
    """`scale`, the lcm of the scales of the (scale, units) `pairs`, then each units map at it."""
    scale = lcm(*(s for s, _ in pairs))
    return (scale, *({k: c * (scale // s) for k, c in units.items()} for s, units in pairs))


class Measure:
    """Sparse probability distribution with exact rational masses.

    Its state is (scale, units): each mass times `scale` as an integer, keyed
    by vertex in increasing order. Reads give the masses as Fractions."""

    __slots__ = ("_units",)

    def __init__(self, masses: Mapping[int, Fraction]):
        clean: dict[int, Fraction] = {}
        for v, m in masses.items():
            m = _frac(m)
            if m.numerator < 0:
                raise TransportError(f"negative mass {m} at vertex {v}")
            if m.numerator:
                clean[int(v)] = m
        scale, units = _scaled(dict(sorted(clean.items())))
        total = sum(units.values())
        if total != scale:
            raise TransportError(f"masses sum to {Fraction(total, scale)}, expected 1")
        self._units = scale, units

    def support(self) -> tuple[int, ...]:
        return tuple(self._units[1])

    def items(self):
        scale, units = self._units
        return {v: Fraction(c, scale) for v, c in units.items()}.items()

    def __getitem__(self, v: int) -> Fraction:
        scale, units = self._units
        return Fraction(units.get(v, 0), scale)

    def __eq__(self, other) -> bool:
        # Two scales may differ for equal masses: lazy_measure's is not the lcm.
        return isinstance(other, Measure) and self.items() == other.items()

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"Measure({{{inner}}})"


def lazy_measure(g: Graph, x: int, alpha) -> Measure:
    """Alpha-lazy random walk step measure: alpha at x, (1-alpha)/deg on neighbors.

    At alpha = p/q < 1 the masses are integers at scale q deg: p deg at x and
    q - p on each neighbour, which sum to the scale by construction."""
    alpha = _frac(alpha)
    p, q = alpha.numerator, alpha.denominator
    if not 0 <= p <= q:
        raise TransportError(f"alpha must lie in [0, 1], got {alpha}")
    if x not in g:
        raise TransportError(f"unknown vertex {x}")
    if p == q:
        return Measure({x: Fraction(1)})
    deg = g.degree(x)
    if deg == 0:
        raise TransportError(f"vertex {x} has no neighbors; lazy walk undefined for alpha < 1")
    units = dict.fromkeys(g.neighbors(x), q - p)
    if p:
        units[x] = p * deg
    measure = Measure.__new__(Measure)  # valid by construction, so not checked again
    measure._units = q * deg, dict(sorted(units.items()))
    return measure


@dataclass(frozen=True)
class TransportPlan:
    """Coupling between two measures; entries are strictly positive masses."""

    entries: Mapping[tuple[int, int], Fraction]
    source: Measure
    target: Measure

    def cost(self, g: Graph) -> Fraction:
        heads = sorted({v for _, v in self.entries})
        dist = {u: dict(zip(heads, g.distance_row(u, heads))) for u in {u for u, _ in self.entries}}
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


def _domain_metric(g: Graph, domain: Sequence[int]) -> tuple[list[list[int]], tuple]:
    """The graph metric on a sorted `domain` as rows, and its spanning arcs.

    rows[i][j] = d(domain[i], domain[j]). Each row is a new list read from
    g's search memo (`Graph.distance_row`), so a caller may change its rows,
    and a vertex is searched from again only for a farther target, not once
    per row. The arcs
    (tails, heads, costs) join positions i -> j at cost d(u, v) for u =
    domain[i], v = domain[j], kept if d(u, v) = 1 or no G-neighbour of u
    inside the domain is one step closer to v. Their shortest-path closure
    is d on the domain, by induction on d: a pair at distance 1 is an arc; a
    dropped pair at distance d has a neighbour w in the domain with d(w, v) =
    d - 1, whose closure is d - 1, and no path of arcs is shorter than d. So
    potentials feasible for the kept arcs are 1-Lipschitz on the whole domain.
    """
    rows = [g.distance_row(u, domain) for u in domain]
    tails, heads, costs = [], [], []
    for i, row in enumerate(rows):
        # around[j] holds d(w, domain[j]) for each G-neighbour w of domain[i]
        # in the domain. A row of distances 0 and 1 keeps its arcs without it.
        near = [r for r, d in zip(rows, row) if d == 1]
        around = list(zip(*near)) if near and max(row) > 1 else [()] * len(row)
        for j, d in enumerate(row):
            if d == 1 or i != j and d - 1 not in around[j]:
                tails.append(i)
                heads.append(j)
                costs.append(d)
    return rows, (tails, heads, costs)


def _potential_violations(f: Mapping[int, int], domain: Sequence[int], rows) -> list[str]:
    """Why f is not an integer 1-Lipschitz potential on `domain` under its metric `rows`.

    Names the first non-integer value and the first pair (u, v), in row
    order, with f(v) - f(u) > d(u, v); empty if f is a valid potential.
    """
    odd = [v for v, fv in f.items() if not isinstance(fv, int)]
    problems = [f"potential value at {odd[0]} is not an integer"] if odd else []
    values = [f[v] for v in domain]
    for u, fu, row in zip(domain, values, rows):
        if max(map(sub, values, row)) > fu:
            v, fv, d = next(t for t in zip(domain, values, row) if t[1] - fu > t[2])
            problems.append(f"potential violates 1-Lipschitz on ({u}, {v}): {fv} - {fu} > {d}")
            break
    return problems


def _metric_network(arcs: tuple, supply: Sequence[int]) -> tuple[_MinCostFlow, int]:
    """Transshipment network of integer `supply` over the `arcs` of `_domain_metric`.

    Node i is the i-th domain vertex, of supply[i]; s = n feeds the positive
    supplies and t = n + 1 drains the negative ones. Returns the network and
    the amount to push s -> t. The arcs get capacity above that amount, so
    they never saturate and the final potentials satisfy each of them. A
    caller may append arcs of its own to `arcs`, such as the curvature
    program's gradient arc y -> x; they come last, in the order given."""
    n = len(supply)
    amount = sum(c for c in supply if c > 0)
    tails = [n if c > 0 else i for i, c in enumerate(supply) if c]
    heads = [i if c > 0 else n + 1 for i, c in enumerate(supply) if c]
    caps = [abs(c) for c in supply if c]
    arc_tails, arc_heads, arc_costs = arcs
    net = _MinCostFlow(n + 2)
    net.add_edges(tails + arc_tails, heads + arc_heads,
                  caps + [amount + 1] * len(arc_heads), [0] * len(caps) + arc_costs)
    return net, amount


def _coupling(
    flow: Mapping[tuple[int, int], int],
    domain: Sequence[int],
    source: Mapping[int, int],
    target: Mapping[int, int],
) -> dict[tuple[int, int], int]:
    """An optimal coupling of the scaled measures, from the `flow` of `_flow_solve`.

    The common mass stays in place; the rest follows a path decomposition
    of the flow on the domain arcs. An arc that carries flow has reduced
    cost 0, so p rises by its cost >= 1 along it: the flow has no cycle,
    and a path from u to v costs p(v) - p(u) <= d(u, v); no path is
    shorter, so it costs d(u, v). A path leaves each node by the
    lowest-numbered head still carrying flow; `out[i]` maps those heads, in
    increasing order, to their flow.
    """
    n = len(domain)
    units = {(v, v): min(source[v], target[v]) for v in domain if v in source and v in target}
    out: list[dict[int, int]] = [{} for _ in range(n)]
    for (i, j), c in sorted(flow.items()):
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


def _flow_solve(g: Graph, m1: Measure, m2: Measure, metric=None) -> tuple[tuple, list]:
    """The integer min-cost flow of m1 - m2, as a record, and the metric rows it was solved on.

    The record is (scale, domain, supply, flow, f, total), all integers.
    scale is the lcm of the measures' scales and domain the sorted union of
    their supports; supply[i] is m1 - m2 at domain[i] times scale. flow
    maps each domain arc i -> j that carries flow, by position and in
    increasing order, to its units, read off the residual capacities. f is
    the potential by vertex, 0 at the smallest vertex of support(m1), and
    total the flow's cost. Nothing here is certified (`_flow_violations`
    does that). `metric(domain)`, for a sorted domain tuple, is
    `_domain_metric` on g or a memo of it as `run_checks` keeps."""
    domain = tuple(sorted(set(m1.support()) | set(m2.support())))
    foreign = [v for v in domain if v not in g]
    if foreign:
        raise TransportError(f"a measure puts mass on vertex {foreign[0]} not in the graph")
    scale, source, target = _one_scale(m1._units, m2._units)
    n = len(domain)
    rows, arcs = (metric or partial(_domain_metric, g))(domain)
    supply = [source.get(v, 0) - target.get(v, 0) for v in domain]
    net, amount = _metric_network(arcs, supply)
    p = [0] * (n + 2)  # every arc cost is >= 0
    total = net.solve(n, n + 1, amount, p)
    base = p[domain.index(min(m1.support()))]
    f = {v: base - p[i] for i, v in enumerate(domain)}
    # The flow on arc i -> j is the capacity of its reverse; s = n and t = n + 1.
    to, cap = net.to, net.cap
    flow = {(i, j): c for j, i, c in zip(to[::2], to[1::2], cap[1::2]) if c and i < n and j < n}
    return (scale, domain, supply, flow, f, total), rows


def _flow_violations(record: tuple, rows: Sequence[Sequence[int]]) -> list[str]:
    """Every way a `_flow_solve` record fails to certify itself under the metric `rows`.

    The flow must be nonnegative and conserve the supplies: at each
    position, the flow out minus the flow in is its supply. f must be an
    integer 1-Lipschitz potential on the domain (`_potential_violations`).
    The flow's cost, sum flow * d, f's dual value, sum f * supply, and the
    total must be one number. A feasible flow and a 1-Lipschitz f of equal
    value are both optimal (Kantorovich-Rubinstein duality), so then W =
    total / scale exactly. Values enter a Fraction only in a message.
    """
    scale, domain, supply, flow, f, total = record
    problems = [f"negative flow on arc ({domain[i]}, {domain[j]})"
                for (i, j), c in flow.items() if c < 0]
    excess = list(supply)
    for (i, j), c in flow.items():
        excess[i] -= c
        excess[j] += c
    if any(excess):
        v = next(v for v, e in zip(domain, excess) if e)
        problems.append(f"flow does not conserve the supply at vertex {v}")
    problems += _potential_violations(f, domain, rows)
    cost = sum(c * rows[i][j] for (i, j), c in flow.items())
    dual = sum(map(mul, map(f.__getitem__, domain), supply))
    if cost != dual:
        problems.append(f"duality gap: flow cost {Fraction(cost, scale)} "
                        f"!= dual value {Fraction(dual, scale)}")
    if dual != total:
        problems.append(f"W = {Fraction(total, scale)} is not f's dual value")
    return problems


def _lazy_flow(g: Graph, x: int, y: int, alpha, metric=None) -> tuple:
    """The `_flow_solve` record between the alpha-lazy walk measures at x and y, certified.

    A record that `_flow_violations` rejects raises InternalConsistencyError."""
    record, rows = _flow_solve(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha), metric)
    problems = _flow_violations(record, rows)
    if problems:
        raise InternalConsistencyError("; ".join(problems))
    return record


def optimal_transport(g: Graph, m1: Measure, m2: Measure, metric=None) -> TransportResult:
    """Exact Wasserstein distance, an optimal coupling, and an integer potential.

    The potential is 1-Lipschitz and normalized to 0 at the smallest vertex
    of support(m1); all three are verified, with the zero duality gap,
    before returning. The measures' integer masses are brought to the lcm of
    their scales, where the solve (`_flow_solve`) and the coupling's
    certificate stay. `metric` is as `_flow_solve` takes it."""
    (scale, domain, _, flow, f, total), rows = _flow_solve(g, m1, m2, metric)
    _, source, target = _one_scale(m1._units, m2._units)
    units = _coupling(flow, domain, source, target)
    # Certify the solve at its scale against `rows`, the metric its network
    # was built on, before any mass becomes a Fraction.
    violations = _duality_violations(units, source, target, f, domain, rows, scale, total)
    if violations:
        raise InternalConsistencyError("; ".join(violations))
    plan = TransportPlan({key: Fraction(c, scale) for key, c in units.items()}, m1, m2)
    return TransportResult(Fraction(total, scale), plan, DualPotential(f, min(m1.support())))


def idleness_lines(g: Graph, x: int, y: int, transport, metric=None) -> list[tuple]:
    """The linear pieces of alpha -> W(m_x^alpha, m_y^alpha) on an edge (x, y), certified.

    W is the maximum of the dual lines alpha -> sum f (m_x^alpha - m_y^alpha)
    of the 1-Lipschitz f, so it is convex and piecewise linear; on an edge it
    has at most three pieces, the last starting at or before 1 / (max(deg x,
    deg y) + 1) (Bourne, Cushing, Liu, Muench and Peyerimhoff, "Ollivier-Ricci
    idleness functions of graphs", SIAM J. Discrete Math. 32, 2018). Breakpoint
    search (Eisner and Severance, 1976) finds them from solves at 0 and 1/2
    and W(1) = 1: the dual lines of solved points a < b cross at c; if W(c)
    lies on both, W is a's line on [a, c] and b's on [c, b]; else a solve at c
    splits [a, b]. `transport(x, y, alpha)` gives a `_flow_solve` record on
    the edge's domain, N(x) | N(y); `metric` gives that domain's rows.

    Returns (a, b, c0, slope) for each piece in order: W = c0 + alpha * slope
    on [a, b]. Each piece is certified at its two ends, each end with its
    solve's own flow (at alpha = 1 the unit flow x -> y):
    `_flow_violations` checks the piece's potential f against the end's
    flow, supplies and W, and the end's W must lie on f's line. That is
    exact: the supplies, f's dual value and the flow interpolated between
    the ends, with its cost, are affine in alpha, so if the flows and f
    certify each other at a and at b, the interpolated flow and f do so at
    every alpha in [a, b], and W is f's line there.
    """
    domain = tuple(sorted({x, y, *g.neighbors(x), *g.neighbors(y)}))
    rows = (metric or partial(_domain_metric, g))(domain)[0]

    def point(alpha, record):  # f's dual line is c0 + alpha * slope: (c0, slope)
        scale, *_, f, total = record
        c0 = (Fraction(sum(f[v] for v in g.neighbors(x)), g.degree(x))
              - Fraction(sum(f[v] for v in g.neighbors(y)), g.degree(y)))
        return (alpha, Fraction(total, scale), record), f, (c0, f[x] - f[y] - c0)

    def solve(alpha):
        return point(alpha, transport(x, y, alpha))

    half = solve(Fraction(1, 2))
    iy = domain.index(y)
    step = [(v == x) - (v == y) for v in domain]
    one = point(1, (1, domain, step, {(domain.index(x), iy): 1}, dict(zip(domain, rows[iy])), 1))
    stack, found = [(half, one), (solve(Fraction(0)), half)], []
    while stack:
        lo, hi = stack.pop()
        (a, fa, (c0, s0)), (b, fb, (c1, s1)) = lo, hi
        c = (c0 - c1) / (s1 - s0) if s1 != s0 else b[0]  # s1 > s0 unless one line
        if not a[0] <= c <= b[0]:
            raise InternalConsistencyError(f"dual lines cross outside [{a[0]}, {b[0]}]")
        if c in (a[0], b[0]):
            found.append((a, b, *(hi if c == a[0] else lo)[1:]))
            continue
        mid = solve(c)
        if mid[0][1] == c0 + c * s0:
            found += [(a, mid[0], fa, (c0, s0)), (mid[0], b, fb, (c1, s1))]
        else:
            stack += [(mid, hi), (lo, mid)]
    pieces = []
    for a, b, f, line in found:  # a line met again continues its piece
        if pieces and pieces[-1][3] == line:
            a = pieces.pop()[0]
        pieces.append((a, b, f, line))
    for *ends, f, (c0, slope) in pieces:
        for end, w, record in ends:
            problems = _flow_violations((*record[:4], f, record[5]), rows)
            if w != c0 + end * slope:
                problems.append(f"W = {w} is off the dual line")
            if problems:
                raise InternalConsistencyError(f"idleness piece of ({x}, {y}), "
                                               f"alpha {end}: {'; '.join(problems)}")
    return [(a[0], b[0], *line) for a, b, _, line in pieces]


@dataclass(frozen=True)
class DualityCheck:
    """Outcome of a primal/dual cross-verification."""

    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def verify_duality(
    plan: TransportPlan, potential: DualPotential, g: Graph, metric=None
) -> DualityCheck:
    """True iff plan and potential are feasible and their values agree exactly.

    The plan's entries are scaled to integers (`_scaled`) and brought to one
    scale with the measures' own units (`_one_scale`), then checked by the
    certificate that `optimal_transport` runs, against the metric rows on the
    potential's and the plan's vertices (`metric` as `optimal_transport`
    takes it). An entry
    that is not a finite number is reported and left out of the scaled plan;
    a vertex that is not in g is reported, and then nothing is measured.
    """
    entries, problems = {}, []
    for (u, v), mass in plan.entries.items():
        try:
            entries[u, v] = _frac(mass)
        except (ValueError, OverflowError):  # a NaN or infinite float
            problems.append(f"non-finite plan entry at ({u}, {v})")
    problems += [f"plan entry at ({u}, {v}) leaves the graph"
                 for u, v in plan.entries if u not in g or v not in g]
    problems += [f"potential defined at vertex {v}, not in the graph"
                 for v in potential.values if v not in g]
    domain = tuple(sorted(set(potential.values).union(*plan.entries)))
    if all(v in g for v in domain):
        scale, units, source, target = _one_scale(_scaled(entries), plan.source._units,
                                                  plan.target._units)
        rows = (metric or partial(_domain_metric, g))(domain)[0]
        problems += _duality_violations(units, source, target, potential.values, domain, rows,
                                        scale)
    return DualityCheck(not problems, tuple(problems))


def _duality_violations(
    units: Mapping[tuple[int, int], int],
    source: Mapping[int, int],
    target: Mapping[int, int],
    f: Mapping[int, int],
    domain: Sequence[int],
    rows: Sequence[Sequence[int]],
    scale: int,
    distance: int | None = None,
) -> list[str]:
    """Every way a plan and a potential fail to certify each other under `rows`.

    Everything is at one integer scale: `units` are the plan entries times
    `scale`, `source` and `target` the masses of the two measures times
    `scale` (support only), and `distance`, if given, the reported distance
    times `scale`, which the dual value must equal. `f` is the potential.
    `rows` is the metric on the sorted `domain`, which holds f's domain and
    every vertex of the plan. Values enter a Fraction only in a message.
    """
    problems = []
    out: dict[int, int] = {}
    into: dict[int, int] = {}
    for (u, v), c in units.items():
        if c < 0:
            problems.append(f"negative plan entry at ({u}, {v})")
        out[u] = out.get(u, 0) + c
        into[v] = into.get(v, 0) + c
    if out != source:
        problems.append("plan row sums do not equal the source measure")
    if into != target:
        problems.append("plan column sums do not equal the target measure")
    missing = (source.keys() | target.keys()) - f.keys()
    if missing:
        problems.append(f"potential undefined on support vertices {sorted(missing)}")
        return problems
    index = {v: i for i, v in enumerate(domain)}
    own = domain, rows
    if len(f) != len(domain):  # the domain reaches past f's
        keep = [index[v] for v in sorted(f)]
        own = [domain[i] for i in keep], [[rows[i][j] for j in keep] for i in keep]
    problems += _potential_violations(f, *own)
    primal = sum(c * rows[index[u]][index[v]] for (u, v), c in units.items())
    dual = (sum(f[v] * c for v, c in source.items())
            - sum(f[v] * c for v, c in target.items()))
    if primal != dual:
        problems.append(f"duality gap: primal cost {primal / Fraction(scale)} "
                        f"!= dual value {dual / Fraction(scale)}")
    if distance is not None and dual != distance:
        problems.append("dual value disagrees with the reported distance")
    return problems
