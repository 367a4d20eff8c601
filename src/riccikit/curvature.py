"""Curvature engines: lazy-walk curvature, the limit-free flow engine, and phi.

kappa_lly solves the Lipschitz program

    minimize (Lf(x) - Lf(y)) / d(x, y)
    subject to f(y) - f(x) = d(x, y) and f(v) - f(u) <= d(u, v)

over S = {x, y} union {z : c_z != 0}, where Lf(w) is the degree-averaged
Laplacian and c_z is the coefficient of f(z) in Lf(x) - Lf(y). Every such z
lies in U = {x, y} union Gamma(x) union Gamma(y); S drops only the common
neighbours when deg x = deg y. Any 1-Lipschitz f on S extends to the whole
graph with the same values on S, by McShane's F(u) = min over s in S of
f(s) + d(s, u) (Bull. AMS 40, 1934), and the objective reads only S, so
restricting to S is exact.

The program is a system of difference constraints, so its dual is an
integer transshipment problem on S: supplies are the objective built in
integers at scale L = lcm(deg x, deg y), constraint arcs u -> v of cost
d(u, v) are uncapacitated, and one arc y -> x of cost -d(x, y) encodes the
gradient constraint. The optimum is -(min cost) / (L d(x, y)). The flow
starts from the potentials d(x, .) on S, which price every arc at >= 0, and
its final potentials are an optimal integer f. The metric on S is held as
rows by position in S, with the spanning arcs of `transport._domain_metric`:
their shortest-path closure is d on S, so the optimum is unchanged.
Lazy-walk transport solves the same network without the gradient arc, on
the union of its two supports.

The independent lazy-walk slope engine, the enumeration oracle and the
reference simplex in the test suite cross-check this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Mapping, Optional, Sequence

from .graphs import (
    Face,
    Graph,
    RotationSystem,
    diameter,
    trace_faces,
    validate_embedding,
)
from .transport import (
    InternalConsistencyError,
    _frac,
    lazy_measure,
    optimal_transport,
)
from .transport import _domain_metric, _metric_network, _potential_violations


class EmbeddingError(ValueError):
    """Combinatorial curvature requested without a validated sphere embedding."""


@dataclass(frozen=True)
class LipschitzProgram:
    """Exact LP data for one vertex pair: domain, metric, and integer objective.

    The domain is S of the module docstring: x, y and every vertex of
    nonzero coefficient, sorted. `rows` and `arcs` are
    `transport._domain_metric` of the domain; supply[i] is the objective's
    coefficient at domain[i] times `scale`, nonzero at every position. A
    point f of the program, as `value` takes and `solve` returns, is given
    on the domain only."""

    x: int
    y: int
    d_xy: int
    domain: tuple[int, ...]
    rows: list[list[int]]
    arcs: tuple
    supply: list[int]
    scale: int

    # The metric by vertex pair and the objective by vertex, derived on demand.
    @property
    def dist(self) -> dict[tuple[int, int], int]:
        domain = self.domain
        return {(u, v): d for u, row in zip(domain, self.rows) for v, d in zip(domain, row)}

    @property
    def objective(self) -> dict[int, Fraction]:
        return {u: Fraction(c, self.scale) for u, c in zip(self.domain, self.supply)}

    def value(self, f: Mapping[int, int]) -> Fraction:
        """Objective value of f, a point of the program given on the whole domain.

        f must be integer, 1-Lipschitz on the domain and meet f(y) - f(x) =
        d(x, y); otherwise one InternalConsistencyError names every problem.
        """
        problems = _potential_violations(f, self.domain, self.rows)
        if f[self.y] - f[self.x] != self.d_xy:
            problems.append(f"f(y) - f(x) = {f[self.y] - f[self.x]}, expected {self.d_xy}")
        if problems:
            raise InternalConsistencyError(f"curvature potential: {'; '.join(problems)}")
        total = sum(map(mul, self.supply, map(f.__getitem__, self.domain)))
        return Fraction(total, self.scale * self.d_xy)

    def solve(self) -> tuple[Fraction, dict[int, int]]:
        """Optimal value and one optimal integer f (with f(x) = 0).

        Solves the dual min-cost flow described in the module docstring and
        certifies f through `value` before returning; an infeasible f, or one
        that does not attain the flow's value, raises InternalConsistencyError.
        """
        x, y, d_xy, domain = self.x, self.y, self.d_xy, self.domain
        n, ix = len(domain), domain.index(x)
        tails, heads, costs = self.arcs
        net, amount = _metric_network(
            (tails + [domain.index(y)], heads + [ix], costs + [-d_xy]), self.supply)
        # By the triangle inequality these price every arc, y -> x included, at >= 0.
        p = [*self.rows[ix], d_xy + 1, 0]
        value = Fraction(-net.solve(n, n + 1, amount, p), self.scale * d_xy)
        f = {u: p[i] - p[ix] for i, u in enumerate(domain)}
        attained = self.value(f)
        if attained != value:
            raise InternalConsistencyError(
                f"curvature potential attains {attained}, flow value is {value}"
            )
        return value, f


def build_lipschitz_program(g: Graph, x: int, y: int) -> LipschitzProgram:
    if x == y:
        raise ValueError("curvature requires two distinct vertices")
    near_x, near_y = set(g.neighbors(x)), set(g.neighbors(y))
    # Lf(x) - Lf(y) times L: L / deg x on Gamma(x), -L / deg y on Gamma(y), -L at x, L at y.
    scale = lcm(len(near_x), len(near_y))
    supply = {z: scale // len(near_x) * (z in near_x) - scale // len(near_y) * (z in near_y)
              + scale * ((z == y) - (z == x)) for z in {x, y} | near_x | near_y}
    # S: U less the common neighbours at deg x = deg y, whose coefficients cancel.
    domain = tuple(sorted([z for z, c in supply.items() if c or z in (x, y)]))
    rows, arcs = _domain_metric(g, domain)
    return LipschitzProgram(x, y, rows[domain.index(x)][domain.index(y)], domain, rows, arcs,
                            [supply[z] for z in domain], scale)


def kappa_lly(g: Graph, x: int, y: int) -> Fraction:
    """Exact limit-free curvature of an arbitrary vertex pair via the Lipschitz program."""
    value, _ = build_lipschitz_program(g, x, y).solve()
    return value


def kappa_alpha(g: Graph, x: int, y: int, alpha) -> Fraction:
    """Lazy-walk curvature 1 - W(m_x^a, m_y^a) / d(x, y)."""
    if x == y:
        raise ValueError("curvature requires two distinct vertices")
    alpha = _frac(alpha)
    d = 1 if g.has_edge(x, y) else g.distance_row(x, (y,))[0]
    result = optimal_transport(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha))
    return 1 - result.distance / d


def _require_edge(g: Graph, x: int, y: int) -> None:
    if x == y or not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")


def kappa_lly_slope(g: Graph, x: int, y: int) -> Fraction:
    """Transport-based cross-check: kappa_alpha / (1 - alpha) deep in the lazy regime.

    Evaluated at alpha = L / (L + 1) with L = lcm(deg x, deg y). alpha ->
    kappa_alpha is linear from 1 / (max(deg x, deg y) + 1) to 1 (Bourne,
    Cushing, Liu, Muench and Peyerimhoff, SIAM J. Discrete Math. 32, 2018),
    so the ratio there is the slope, the limit-free value. Tests assert exact
    agreement with kappa_lly.
    """
    _require_edge(g, x, y)
    big = lcm(g.degree(x), g.degree(y))
    alpha = Fraction(big, big + 1)
    return kappa_alpha(g, x, y, alpha) / (1 - alpha)


def kappa_zero(g: Graph, x: int, y: int) -> Fraction:
    """Certified lower bound 1 - W(m_x^0, m_y^0) for an edge."""
    _require_edge(g, x, y)
    return kappa_alpha(g, x, y, 0)


def combinatorial_curvatures(g: Graph, faces: Sequence[Face]) -> dict[int, Fraction]:
    """phi(v) = 1 - deg(v)/2 + sum of 1/|face| per incidence of v, for every v.

    Requires a sphere embedding; a face touching v several times contributes
    once per incidence, which keeps the total over all vertices equal to 2.
    One pass over the face walks.
    """
    check = validate_embedding(g, faces)
    if not check.is_sphere:
        raise EmbeddingError(
            f"embedding has Euler characteristic {check.euler_characteristic}, not a sphere"
        )
    phi = {v: Fraction(1) - Fraction(g.degree(v), 2) for v in g.vertices}
    for face in faces:
        # The one face of the one-vertex sphere has an empty walk; it meets
        # the vertex once, so phi = 2 there.
        cycle = face.vertex_cycle() or g.vertices
        share = Fraction(1, len(cycle))
        for u in cycle:
            phi[u] += share
    return phi


def combinatorial_curvature(g: Graph, faces: Sequence[Face], v: int) -> Fraction:
    """phi(v) of one vertex; see combinatorial_curvatures."""
    phi = combinatorial_curvatures(g, faces)
    if v not in phi:
        raise EmbeddingError(f"unknown vertex {v}")
    return phi[v]


def moore_bound(max_degree: int, diam: int) -> int:
    """Ball-volume bound 1 + D * sum_{i<diam} (D-1)^i on the vertex count."""
    if max_degree < 2:
        raise ValueError("bound needs maximum degree >= 2")
    if diam < 1:
        raise ValueError("bound needs diameter >= 1")
    q = max_degree - 1
    return 1 + max_degree * sum(q**i for i in range(diam))


@dataclass(frozen=True)
class EdgeCurvature:
    u: int
    v: int
    kappa: Fraction
    kappa_zero: Optional[Fraction] = None


@dataclass(frozen=True)
class VertexCurvature:
    v: int
    phi: Fraction


@dataclass(frozen=True)
class CurvatureReport:
    """Per-edge and per-vertex curvatures with graph-level aggregates."""

    mode: str
    alpha: Optional[Fraction]
    edges: tuple[EdgeCurvature, ...]
    vertices: Optional[tuple[VertexCurvature, ...]]
    vertex_count: int
    edge_count: int
    max_degree: int
    min_degree: int
    diameter: int
    sphere: Optional[bool]
    euler_characteristic: Optional[int]

    @property
    def min_kappa(self) -> Optional[Fraction]:
        return min((e.kappa for e in self.edges), default=None)

    @property
    def min_phi(self) -> Optional[Fraction]:
        if not self.vertices:
            return None
        return min(r.phi for r in self.vertices)

    @property
    def positively_curved(self) -> bool:
        if self.mode == "comb":
            return bool(self.vertices) and all(r.phi > 0 for r in self.vertices)
        return bool(self.edges) and all(e.kappa > 0 for e in self.edges)


_EDGE_MODES = ("lly", "alpha", "zero")
_MODES = _EDGE_MODES + ("comb",)


def _edge_value(g: Graph, u: int, v: int, mode: str, alpha, include_zero: bool) -> EdgeCurvature:
    if mode == "zero":
        kz = kappa_zero(g, u, v)
        return EdgeCurvature(u, v, kz, kz)
    kappa = kappa_lly(g, u, v) if mode == "lly" else kappa_alpha(g, u, v, alpha)
    return EdgeCurvature(u, v, kappa, kappa_zero(g, u, v) if include_zero else None)


def curvature_report(
    g: Graph,
    rot: Optional[RotationSystem] = None,
    mode: str = "lly",
    alpha=None,
    include_zero: bool = False,
) -> CurvatureReport:
    """Batch curvature over all edges (and vertices when an embedding is given).

    Edges are solved one by one, in sorted order.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "alpha":
        if alpha is None:
            raise ValueError("mode 'alpha' needs an alpha value")
        alpha = _frac(alpha)
    elif alpha is not None:
        raise ValueError("alpha is only meaningful in mode 'alpha'")

    sphere = None
    chi = None
    vertices = None
    faces = None
    if rot is not None:
        faces = trace_faces(g, rot)
        check = validate_embedding(g, faces)
        sphere = check.is_sphere
        chi = check.euler_characteristic
    if mode == "comb" and rot is None:
        raise EmbeddingError("mode 'comb' needs a rotation system")
    if sphere or mode == "comb":
        phi = combinatorial_curvatures(g, faces)
        vertices = tuple(VertexCurvature(v, phi[v]) for v in g.vertices)

    edge_records: tuple[EdgeCurvature, ...] = ()
    if mode in _EDGE_MODES:
        edge_records = tuple(_edge_value(g, u, v, mode, alpha, include_zero)
                             for u, v in g.edges())

    return CurvatureReport(
        mode=mode,
        alpha=alpha,
        edges=edge_records,
        vertices=vertices,
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        max_degree=g.max_degree,
        min_degree=g.min_degree,
        diameter=diameter(g),
        sphere=sphere,
        euler_characteristic=chi,
    )


def report_to_json_dict(report: CurvatureReport) -> dict:
    """Stable-schema JSON payload for a report."""
    out: dict = {
        "graph": {
            "vertex_count": report.vertex_count,
            "edge_count": report.edge_count,
            "max_degree": report.max_degree,
            "min_degree": report.min_degree,
            "diameter": report.diameter,
        },
        "mode": report.mode,
    }
    if report.alpha is not None:
        out["alpha"] = str(report.alpha)
    if report.mode != "comb":
        edges = []
        for rec in report.edges:
            item = {"u": rec.u, "v": rec.v, "kappa": str(rec.kappa)}
            if rec.kappa_zero is not None:
                item["kappa_zero"] = str(rec.kappa_zero)
            edges.append(item)
        out["edges"] = edges
    if report.vertices is not None:
        out["vertices"] = [{"v": r.v, "phi": str(r.phi)} for r in report.vertices]
    if report.euler_characteristic is not None:
        out["embedding"] = {
            "euler_characteristic": report.euler_characteristic,
            "sphere": report.sphere,
        }
    summary: dict = {
        "min_kappa": str(report.min_kappa) if report.min_kappa is not None else None,
        "positively_curved": report.positively_curved,
    }
    if report.min_phi is not None:
        summary["min_phi"] = str(report.min_phi)
    out["summary"] = summary
    return out


def report_to_csv(report: CurvatureReport) -> str:
    """One row per edge (or per vertex in comb mode)."""
    lines = []
    if report.mode == "comb":
        lines.append("v,phi")
        for rec in report.vertices or ():
            lines.append(f"{rec.v},{str(rec.phi)}")
    else:
        with_zero = any(rec.kappa_zero is not None for rec in report.edges)
        lines.append("u,v,kappa,kappa_zero" if with_zero else "u,v,kappa")
        for rec in report.edges:
            row = f"{rec.u},{rec.v},{str(rec.kappa)}"
            if with_zero:
                row += f",{str(rec.kappa_zero) if rec.kappa_zero is not None else ''}"
            lines.append(row)
    return "\n".join(lines) + "\n"
