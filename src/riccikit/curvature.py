"""Curvature engines: lazy-walk curvature, the limit-free flow engine, and phi.

kappa_lly solves the Lipschitz program

    minimize (Lf(x) - Lf(y)) / d(x, y)
    subject to f(y) - f(x) = d(x, y) and f(v) - f(u) <= d(u, v)

over U = {x, y} union Gamma(x) union Gamma(y), where Lf(w) is the degree-
averaged Laplacian. Any 1-Lipschitz f on U extends to the whole graph
without changing the objective, so restricting to U is exact.

The program is a system of difference constraints, so its dual is an
integer transshipment problem on U: supplies are the objective scaled to
integers, constraint arcs u -> v of cost d(u, v) are uncapacitated, and one
arc y -> x of cost -d(x, y) encodes the gradient constraint. The optimum is
-(min cost) / (scale * d(x, y)). The flow starts from the potentials
d(x, .) on U, which price every arc at >= 0, and its final potentials are
an optimal integer f. The network is `transport._metric_network`, which
lazy-walk transport solves without the gradient arc; its spanning arc set
has shortest-path closure d on U, so the optimum is unchanged.

The independent lazy-walk slope engine, the enumeration oracle and the
reference simplex in the test suite cross-check this.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Mapping, Optional, Sequence

from .graphs import (
    Face,
    Graph,
    RotationSystem,
    diameter,
    distances_to,
    trace_faces,
    validate_embedding,
)
from .transport import (
    InternalConsistencyError,
    TransportResult,
    _frac,
    lazy_measure,
    optimal_transport,
)
from .transport import _common_scale, _domain_metric, _metric_network, _potential_violations


class EmbeddingError(ValueError):
    """Combinatorial curvature requested without a validated sphere embedding."""


@dataclass(frozen=True)
class LipschitzProgram:
    """Exact LP data for one vertex pair: domain, metric, and objective."""

    x: int
    y: int
    d_xy: int
    domain: tuple[int, ...]
    dist: Mapping[tuple[int, int], int]
    objective: Mapping[int, Fraction]

    def value(self, f: Mapping[int, int]) -> Fraction:
        """Objective value of f, a point of the program given on the whole domain.

        f must be integer, 1-Lipschitz on the domain and meet f(y) - f(x) =
        d(x, y); otherwise one InternalConsistencyError names every problem.
        """
        problems = _potential_violations(f, self.dist)
        if f[self.y] - f[self.x] != self.d_xy:
            problems.append(f"f(y) - f(x) = {f[self.y] - f[self.x]}, expected {self.d_xy}")
        if problems:
            raise InternalConsistencyError(f"curvature potential: {'; '.join(problems)}")
        return sum((c * f[u] for u, c in self.objective.items()), start=Fraction(0)) / self.d_xy

    def solve(self) -> tuple[Fraction, dict[int, int]]:
        """Optimal value and one optimal integer f (with f(x) = 0).

        Solves the dual min-cost flow described in the module docstring and
        certifies f through `value` before returning; an infeasible f, or one
        that does not attain the flow's value, raises InternalConsistencyError.
        """
        x, y, d_xy, dist, domain = self.x, self.y, self.d_xy, self.dist, self.domain
        scale, supply = _common_scale(self.objective)
        net, amount = _metric_network(domain, dist, supply)
        n, ix = len(domain), domain.index(x)
        net.add_edges([domain.index(y)], [ix], [amount + 1], [-d_xy])
        # By the triangle inequality these price every arc, y -> x included, at >= 0.
        p = [dist[x, u] for u in domain] + [d_xy + 1, 0]
        value = Fraction(-net.solve(n, n + 1, amount, p), scale * d_xy)
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
    domain = sorted({x, y} | set(g.neighbors(x)) | set(g.neighbors(y)))
    dist = _domain_metric(g, domain)
    objective: dict[int, Fraction] = {}
    deg_x, deg_y = g.degree(x), g.degree(y)
    for z in g.neighbors(x):
        objective[z] = objective.get(z, Fraction(0)) + Fraction(1, deg_x)
    objective[x] = objective.get(x, Fraction(0)) - 1
    for z in g.neighbors(y):
        objective[z] = objective.get(z, Fraction(0)) - Fraction(1, deg_y)
    objective[y] = objective.get(y, Fraction(0)) + 1
    return LipschitzProgram(
        x=x, y=y, d_xy=dist[x, y], domain=tuple(domain), dist=dist, objective=objective
    )


def kappa_lly(g: Graph, x: int, y: int) -> Fraction:
    """Exact limit-free curvature of an arbitrary vertex pair via the Lipschitz program."""
    value, _ = build_lipschitz_program(g, x, y).solve()
    return value


def _lazy_transport(g: Graph, x: int, y: int, alpha, measure=None) -> TransportResult:
    """Exact transport between the alpha-lazy walk measures at x and y.

    `measure(v, alpha)` is `lazy_measure` on g, or a memo such as `run_checks` keeps.
    """
    measure = measure or partial(lazy_measure, g)
    return optimal_transport(g, measure(x, alpha), measure(y, alpha))


def _kappa_alpha(g: Graph, x: int, y: int, alpha, transport) -> Fraction:
    """1 - W / d(x, y), with W from `transport(x, y, alpha)`.

    `transport` is `_lazy_transport` bound to g, or a memo of it, such as the
    one `checks.run_checks` keeps for one call.
    """
    if x == y:
        raise ValueError("curvature requires two distinct vertices")
    alpha = _frac(alpha)
    d = 1 if g.has_edge(x, y) else distances_to(g, x, (y,))[y]
    return 1 - transport(x, y, alpha).distance / d


def _kappa_lly_slope(g: Graph, x: int, y: int, transport) -> Fraction:
    """kappa_alpha / (1 - alpha) at alpha = L / (L + 1); see kappa_lly_slope."""
    _require_edge(g, x, y)
    big = lcm(g.degree(x), g.degree(y))
    alpha = Fraction(big, big + 1)
    return _kappa_alpha(g, x, y, alpha, transport) / (1 - alpha)


def kappa_alpha(g: Graph, x: int, y: int, alpha) -> Fraction:
    """Lazy-walk curvature 1 - W(m_x^a, m_y^a) / d(x, y)."""
    return _kappa_alpha(g, x, y, alpha, partial(_lazy_transport, g))


def _require_edge(g: Graph, x: int, y: int) -> None:
    if x == y or not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")


def kappa_lly_slope(g: Graph, x: int, y: int) -> Fraction:
    """Transport-based cross-check: kappa_alpha / (1 - alpha) deep in the lazy regime.

    Evaluated at alpha = L / (L + 1) with L = lcm(deg x, deg y), which lies in
    the final linear piece of alpha -> kappa_alpha, where the slope equals the
    limit-free value. Tests assert exact agreement with kappa_lly.
    """
    return _kappa_lly_slope(g, x, y, partial(_lazy_transport, g))


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
    if sphere:
        phi = combinatorial_curvatures(g, faces)
        vertices = tuple(VertexCurvature(v, phi[v]) for v in g.vertices)
    elif mode == "comb":
        raise EmbeddingError(
            f"embedding has Euler characteristic {chi}, not a sphere"
        )

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


def _rat(value: Fraction) -> str:
    return str(value)


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
        out["alpha"] = _rat(report.alpha)
    if report.mode != "comb":
        edges = []
        for rec in report.edges:
            item = {"u": rec.u, "v": rec.v, "kappa": _rat(rec.kappa)}
            if rec.kappa_zero is not None:
                item["kappa_zero"] = _rat(rec.kappa_zero)
            edges.append(item)
        out["edges"] = edges
    if report.vertices is not None:
        out["vertices"] = [{"v": r.v, "phi": _rat(r.phi)} for r in report.vertices]
    if report.euler_characteristic is not None:
        out["embedding"] = {
            "euler_characteristic": report.euler_characteristic,
            "sphere": report.sphere,
        }
    summary: dict = {
        "min_kappa": _rat(report.min_kappa) if report.min_kappa is not None else None,
        "positively_curved": report.positively_curved,
    }
    if report.min_phi is not None:
        summary["min_phi"] = _rat(report.min_phi)
    out["summary"] = summary
    return out


def report_to_csv(report: CurvatureReport) -> str:
    """One row per edge (or per vertex in comb mode)."""
    lines = []
    if report.mode == "comb":
        lines.append("v,phi")
        for rec in report.vertices or ():
            lines.append(f"{rec.v},{_rat(rec.phi)}")
    else:
        with_zero = any(rec.kappa_zero is not None for rec in report.edges)
        lines.append("u,v,kappa,kappa_zero" if with_zero else "u,v,kappa")
        for rec in report.edges:
            row = f"{rec.u},{rec.v},{_rat(rec.kappa)}"
            if with_zero:
                row += f",{_rat(rec.kappa_zero) if rec.kappa_zero is not None else ''}"
            lines.append(row)
    return "\n".join(lines) + "\n"
