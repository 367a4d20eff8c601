"""Independent brute-force oracles used to cross-check the exact engines.

Nothing here reuses solver code from the package: transport distances come
from integer dual enumeration, curvature values from integer enumeration of
Lipschitz functions, and LP optima from basic-solution enumeration. All of
these are exact because the underlying polytopes are difference-constraint
systems with integral vertices. The one exception is `oracle_full_program`,
which feeds the package's own program class a wider domain so that the
package's domain restriction can be tested against it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

from riccikit import families
from riccikit.curvature import LipschitzProgram
from riccikit.graphs import Graph, RotationSystem, bfs_distances
from riccikit.transport import _domain_metric


def all_pairs_distances(g: Graph) -> dict[tuple[int, int], int]:
    maps = {u: bfs_distances(g, u) for u in g.vertices}
    return {(u, v): maps[u][v] for u in g.vertices for v in g.vertices}


def oracle_wasserstein(g: Graph, m1, m2) -> Fraction:
    """Max of sum f (m1 - m2) over integer 1-Lipschitz f on the support union.

    Valid because the dual optimum restricted to the supports extends to the
    whole graph, and the dual polytope has integral vertices.
    """
    domain = sorted(set(m1.support()) | set(m2.support()))
    dist = all_pairs_distances(g)
    base = domain[0]
    free = domain[1:]
    weight = {v: m1[v] - m2[v] for v in domain}
    best = [None]
    assigned = {base: 0}

    def recurse(i, partial):
        if i == len(free):
            if best[0] is None or partial > best[0]:
                best[0] = partial
            return
        u = free[i]
        for val in range(-dist[u, base], dist[u, base] + 1):
            if all(abs(val - fw) <= dist[u, w] for w, fw in assigned.items()):
                assigned[u] = val
                recurse(i + 1, partial + weight[u] * val)
                del assigned[u]

    recurse(0, Fraction(0))
    assert best[0] is not None
    return best[0]


def oracle_kappa(g: Graph, x: int, y: int) -> Fraction:
    """Integer enumeration of the curvature program over the joint neighborhood.

    Minimizes (Lf(x) - Lf(y)) / d(x, y) over integer f with f(y) - f(x) =
    d(x, y) that are 1-Lipschitz on U = {x, y} + both neighborhoods; the LP
    optimum is attained at such an integer point.
    """
    domain = sorted({x, y} | set(g.neighbors(x)) | set(g.neighbors(y)))
    dist = all_pairs_distances(g)
    d_xy = dist[x, y]
    free = [u for u in domain if u not in (x, y)]
    assigned = {x: 0, y: d_xy}

    def objective() -> Fraction:
        def lap(w: int) -> Fraction:
            return Fraction(
                sum(assigned[z] - assigned[w] for z in g.neighbors(w)), g.degree(w)
            )

        return Fraction(lap(x) - lap(y), d_xy)

    best = [None]

    def recurse(i):
        if i == len(free):
            value = objective()
            if best[0] is None or value < best[0]:
                best[0] = value
            return
        u = free[i]
        lo = max(-dist[u, x], d_xy - dist[u, y])
        hi = min(dist[u, x], d_xy + dist[u, y])
        for val in range(lo, hi + 1):
            if all(abs(val - fw) <= dist[u, w] for w, fw in assigned.items()):
                assigned[u] = val
                recurse(i + 1)
                del assigned[u]

    recurse(0)
    assert best[0] is not None
    return best[0]


def oracle_lp_min(costs, rows, bounds):
    """Minimum of costs.x over {rows.x <= bounds, x >= 0} by enumerating all
    basic points (subsets of tight constraints solved exactly). Only for tiny
    bounded instances."""
    n = len(costs)
    constraints = []  # (coeff vector, rhs)
    for row, b in zip(rows, bounds):
        constraints.append(([Fraction(row.get(j, 0)) for j in range(n)], Fraction(b)))
    for j in range(n):
        coeffs = [Fraction(0)] * n
        coeffs[j] = Fraction(-1)
        constraints.append((coeffs, Fraction(0)))

    def solve_square(idx):
        mat = [constraints[i][0][:] + [constraints[i][1]] for i in idx]
        for col in range(n):
            piv = next((r for r in range(col, n) if mat[r][col] != 0), None)
            if piv is None:
                return None
            mat[col], mat[piv] = mat[piv], mat[col]
            inv = 1 / mat[col][col]
            mat[col] = [c * inv for c in mat[col]]
            for r in range(n):
                if r != col and mat[r][col] != 0:
                    factor = mat[r][col]
                    mat[r] = [a - factor * b for a, b in zip(mat[r], mat[col])]
        return [mat[r][n] for r in range(n)]

    best = None
    for idx in combinations(range(len(constraints)), n):
        point = solve_square(list(idx))
        if point is None:
            continue
        if all(
            sum(c * xj for c, xj in zip(coeffs, point)) <= b for coeffs, b in constraints
        ):
            value = sum(c * xj for c, xj in zip(costs, point))
            if best is None or value < best:
                best = value
    return best


def random_connected_graph(rng: random.Random, n_max: int = 12, max_degree: int = 6) -> Graph:
    """Seeded random connected graph: random tree plus extra degree-capped edges."""
    n = rng.randint(2, n_max)
    edges = set()
    degree = [0] * n
    for i in range(1, n):
        candidates = [j for j in range(i) if degree[j] < max_degree]
        j = rng.choice(candidates)
        edges.add((j, i))
        degree[i] += 1
        degree[j] += 1
    for _ in range(rng.randint(0, 2 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u != v and key not in edges and degree[u] < max_degree and degree[v] < max_degree:
            edges.add(key)
            degree[u] += 1
            degree[v] += 1
    return Graph(edges)


def ifub_diameter(g: Graph) -> int:
    """Plain iFUB from a 4-sweep centre, with no certified skips.

    A copy of `riccikit.graphs.diameter` before it certified vertices with
    two-centre bounds: the reference for how many BFS runs that saves.
    """
    r, lb = max(g.vertices, key=g.degree), 0
    for _ in range(2):
        dist = bfs_distances(g, r).dist
        dist = bfs_distances(g, max(dist, key=dist.get)).dist
        r = max(dist, key=dist.get)
        lb = max(lb, dist[r])
        for _ in range(dist[r] - dist[r] // 2):
            r = next(w for w in g.neighbors(r) if dist[w] == dist[r] - 1)
    levels = bfs_distances(g, r).dist
    for v in reversed(levels):
        if lb >= 2 * levels[v]:
            break
        lb = max(lb, bfs_distances(g, v).eccentricity)
    return lb


def relabeled(g: Graph, rng: random.Random) -> tuple[Graph, dict[int, int]]:
    """Random vertex relabeling of g (fresh ids), plus the mapping used."""
    perm = list(g.vertices)
    rng.shuffle(perm)
    mapping = {v: 100 + p for v, p in zip(g.vertices, perm)}
    return Graph((mapping[u], mapping[v]) for u, v in g.edges()), mapping


def star_with_pendants() -> tuple[Graph, int, int, tuple[int, int]]:
    """Star center 0 with leaves 1..6; leaf 1 carries two pendants 7, 8.

    Returns (graph, x, y, S) for the inequality's canonical failing instance.
    """
    edges = [(0, i) for i in range(1, 7)] + [(1, 7), (1, 8)]
    return Graph(edges), 0, 1, (7, 8)


def torus_k4() -> tuple[Graph, RotationSystem]:
    """K4 with vertex 0's rotation reversed: two faces, Euler characteristic 0."""
    g, rot = families.complete(4)
    order = {v: rot.order(v) for v in g.vertices}
    order[0] = order[0][::-1]
    return g, RotationSystem(g, order)


def oracle_lemma4(g: Graph, x: int, y: int, subset) -> dict:
    """The neighborhood-expansion inequality for S = subset on edge (x, y),
    evaluated straight from its definition.

    It holds when |Gamma(S) & Gamma(x)| > (s / deg y) deg x - (k + 1 + gamma)
    + |Gamma(S) & Gamma(x) & Gamma(y)|, with s = |S|, k = |S & Gamma(x)| and
    gamma = |Gamma(x) & Gamma(y)|. A failing instance also gets the proof's
    witness f (+1 on {y} + S; -1 on the rest of Gamma(x) outside Gamma(S) and
    Gamma(y)) and its Laplacian gradient Lf(x) - Lf(y), summed edge by edge.
    """
    def around(vs):
        return {w for v in vs for w in g.neighbors(v)}

    gx, gy, gs = around([x]), around([y]), around(subset)
    s, k, gamma = len(subset), len(set(subset) & gx), len(gx & gy)
    out = {
        "s": s, "k": k, "gamma": gamma, "lhs": len(gs & gx), "overlap": len(gs & gx & gy),
        "rhs": Fraction(s, g.degree(y)) * g.degree(x) - (k + 1 + gamma) + len(gs & gx & gy),
    }
    out["holds"] = out["lhs"] > out["rhs"]
    if not out["holds"]:
        f = {v: 1 for v in [y, *subset]}
        f.update({v: -1 for v in gx if v not in gs | gy | set(f)})

        def laplacian(w):
            return Fraction(sum(f.get(z, 0) - f.get(w, 0) for z in g.neighbors(w)),
                            g.degree(w))

        out["witness"], out["nabla"] = f, laplacian(x) - laplacian(y)
    return out


def oracle_lemma4_failures(g: Graph) -> set[tuple[int, int, tuple[int, ...]]]:
    """Every failing (x, y, S): each edge oriented so that deg x >= deg y (the
    smaller id is x on a tie), and every subset S of Gamma(y) - {x}."""
    failures = set()
    for u, v in g.edges():
        x, y = sorted((u, v), key=lambda w: (-g.degree(w), w))
        pool = sorted(set(g.neighbors(y)) - {x})
        for size in range(len(pool) + 1):
            for subset in combinations(pool, size):
                if not oracle_lemma4(g, x, y, subset)["holds"]:
                    failures.add((x, y, subset))
    return failures


def oracle_duality_violations(plan, potential, dist, distance=None) -> list[str]:
    """The transport certificate in `Fraction` arithmetic, message for message.

    The reference for `transport._duality_violations`, which runs the same
    tests on integers at the solve's scale. `plan` is a TransportPlan,
    `potential` a DualPotential, `dist` holds d(u, v) for every pair of the
    potential's domain and for every plan entry, and `distance`, if given,
    is the distance the dual value must equal.
    """
    problems = []
    m1, m2 = plan.source, plan.target
    rows: dict[int, Fraction] = {}
    cols: dict[int, Fraction] = {}
    for (u, v), mass in plan.entries.items():
        if mass < 0:
            problems.append(f"negative plan entry at ({u}, {v})")
        rows[u] = rows.get(u, Fraction(0)) + mass
        cols[v] = cols.get(v, Fraction(0)) + mass
    if rows != dict(m1.items()):
        problems.append("plan row sums do not equal the source measure")
    if cols != dict(m2.items()):
        problems.append("plan column sums do not equal the target measure")
    f = potential.values
    domain = sorted(f)
    missing = (set(m1.support()) | set(m2.support())) - set(domain)
    if missing:
        problems.append(f"potential undefined on support vertices {sorted(missing)}")
        return problems
    odd = [v for v, fv in f.items() if not isinstance(fv, int)]
    if odd:
        problems.append(f"potential value at {odd[0]} is not an integer")
    for u in domain:
        lifted = [v for v in domain if f[v] - f[u] > dist[u, v]]
        if lifted:
            v = lifted[0]
            problems.append(f"potential violates 1-Lipschitz on ({u}, {v}): "
                            f"{f[v]} - {f[u]} > {dist[u, v]}")
            break
    primal = sum((mass * dist[u, v] for (u, v), mass in plan.entries.items()), Fraction(0))
    dual = sum((fv * (m1[v] - m2[v]) for v, fv in f.items()), Fraction(0))
    if primal != dual:
        problems.append(f"duality gap: primal cost {primal} != dual value {dual}")
    if distance is not None and dual != distance:
        problems.append("dual value disagrees with the reported distance")
    return problems


def oracle_flow_violations(record, dist) -> list[str]:
    """The flow certificate in `Fraction` arithmetic and vertices, message for message.

    The reference for `transport._flow_violations`, which runs the same
    tests on integers by domain position. `record` is (scale, domain,
    supply, flow, f, total): supply[i] is the mass of m1 - m2 at domain[i]
    times scale, flow maps position pairs (i, j) to units of mass times
    scale, f maps vertices to values and total is W times scale. `dist`
    holds d(u, v) for every pair of the domain.
    """
    scale, domain, supply, flow, f, total = record
    moved = {(domain[i], domain[j]): Fraction(c, scale) for (i, j), c in flow.items()}
    problems = [f"negative flow on arc ({u}, {v})" for (u, v), mass in moved.items() if mass < 0]
    net = {v: Fraction(c, scale) for v, c in zip(domain, supply)}  # m1 - m2, left to send
    for (u, v), mass in moved.items():
        net[u] -= mass
        net[v] += mass
    unsent = [v for v in domain if net[v]]
    if unsent:
        problems.append(f"flow does not conserve the supply at vertex {unsent[0]}")
    odd = [v for v, fv in f.items() if not isinstance(fv, int)]
    if odd:
        problems.append(f"potential value at {odd[0]} is not an integer")
    for u in domain:
        lifted = [v for v in domain if f[v] - f[u] > dist[u, v]]
        if lifted:
            v = lifted[0]
            problems.append(f"potential violates 1-Lipschitz on ({u}, {v}): "
                            f"{f[v]} - {f[u]} > {dist[u, v]}")
            break
    primal = sum((mass * dist[u, v] for (u, v), mass in moved.items()), Fraction(0))
    dual = sum((f[v] * Fraction(c, scale) for v, c in zip(domain, supply)), Fraction(0))
    if primal != dual:
        problems.append(f"duality gap: flow cost {primal} != dual value {dual}")
    if dual != Fraction(total, scale):
        problems.append(f"W = {Fraction(total, scale)} is not f's dual value")
    return problems


def oracle_objective(g: Graph, x: int, y: int) -> dict[int, Fraction]:
    """The curvature program's objective as `Fraction` coefficients per vertex.

    Lf(x) - Lf(y) = sum of c_u f(u) with 1/deg x on each neighbour of x, -1 at
    x, -1/deg y on each neighbour of y and +1 at y, summed where they meet:
    the reference for the integer supplies of `build_lipschitz_program`.
    """
    objective: dict[int, Fraction] = {}
    for z in g.neighbors(x):
        objective[z] = objective.get(z, Fraction(0)) + Fraction(1, g.degree(x))
    objective[x] = objective.get(x, Fraction(0)) - 1
    for z in g.neighbors(y):
        objective[z] = objective.get(z, Fraction(0)) - Fraction(1, g.degree(y))
    objective[y] = objective.get(y, Fraction(0)) + 1
    return objective


def oracle_full_program(g: Graph, x: int, y: int) -> LipschitzProgram:
    """The curvature program over all of U = {x, y} + both neighbourhoods.

    The metric is `_domain_metric` on U and the supplies are
    `oracle_objective` at the lcm of its denominators, zero coefficients
    kept: the reference for `build_lipschitz_program`, whose domain leaves
    out the vertices of coefficient 0.
    """
    objective = oracle_objective(g, x, y)
    domain = tuple(sorted(objective))
    scale = lcm(*(c.denominator for c in objective.values()))
    rows, arcs = _domain_metric(g, domain)
    return LipschitzProgram(x, y, rows[domain.index(x)][domain.index(y)], domain, rows, arcs,
                            [int(objective[u] * scale) for u in domain], scale)
