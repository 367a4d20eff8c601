"""Verification suite: runs the quantitative invariants on a concrete graph.

Each check returns pass/fail/skip with a diagnostic. Checks verify
implications, so they pass vacuously when their hypotheses fail (a cycle is
not positively curved, hence the positivity floor has nothing to say).
Sampling is driven entirely by the caller's seed.

The transport checks (duality, integrality, concavity, slope-monotonicity)
sample the same edges on small graphs, so one `run_checks` call solves each
lazy-walk transport problem (x, y, alpha) once and hands the result to every
check that asks for it. Each check still runs its own test on each result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Optional, Sequence

from .curvature import (
    CurvatureReport,
    _kappa_alpha,
    _kappa_lly_slope,
    _lazy_transport,
    curvature_report,
    kappa_lly,
)
from .graphs import Graph, RotationSystem
from .structure import degree_audit, instance_to_json_dict, lemma4_sweep
from .transport import InternalConsistencyError, lazy_measure, verify_duality

_EDGE_SAMPLE = 12
_PAIR_LIMIT = 10  # vertices; all-pairs curvature beyond this is out of desk range
_ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2))
_GRID = tuple(Fraction(i, 10) for i in range(11))


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    details: str

    @property
    def failed(self) -> bool:
        return self.status == "fail"


def _sample_edges(g: Graph, rng: random.Random) -> list[tuple[int, int]]:
    edges = list(g.edges())
    if len(edges) <= _EDGE_SAMPLE:
        return edges
    return sorted(rng.sample(edges, _EDGE_SAMPLE))


def _check_positivity(g: Graph, report: CurvatureReport, **_) -> CheckResult:
    if not report.positively_curved:
        return CheckResult(
            "positivity", "pass", "not positively curved; curvature floor is vacuous"
        )
    delta = report.max_degree
    floor = Fraction(1, delta * (delta - 1)) if delta >= 2 else Fraction(1)
    for rec in report.edges:
        per_edge = Fraction(1, g.degree(rec.u) * g.degree(rec.v))
        if rec.kappa < per_edge:
            return CheckResult(
                "positivity",
                "fail",
                f"edge ({rec.u}, {rec.v}) has kappa {rec.kappa} < 1/(deg deg) = {per_edge}",
            )
    if report.min_kappa < floor:
        return CheckResult(
            "positivity", "fail", f"min kappa {report.min_kappa} below floor {floor}"
        )
    return CheckResult(
        "positivity", "pass", f"min kappa {report.min_kappa} >= floor {floor}"
    )


def _check_duality(g: Graph, rng: random.Random, transport, **_) -> CheckResult:
    count = 0
    for x, y in _sample_edges(g, rng):
        for alpha in _ALPHAS:
            result = transport(x, y, alpha)
            check = verify_duality(result.plan, result.potential, g)
            if not check:
                return CheckResult(
                    "duality",
                    "fail",
                    f"edge ({x}, {y}), alpha {alpha}: {'; '.join(check.violations)}",
                )
            count += 1
    return CheckResult("duality", "pass", f"{count} primal/dual pairs agree exactly")


def _check_integrality(g: Graph, rng: random.Random, transport, **_) -> CheckResult:
    count = 0
    for x, y in _sample_edges(g, rng):
        for alpha in _ALPHAS:
            result = transport(x, y, alpha)
            bad = [v for v, f in result.potential.items() if not isinstance(f, int)]
            if bad:
                return CheckResult(
                    "integrality",
                    "fail",
                    f"edge ({x}, {y}), alpha {alpha}: non-integer potential at {bad[0]}",
                )
            count += 1
    return CheckResult("integrality", "pass", f"{count} potentials integer-valued")


def _check_concavity(g: Graph, rng: random.Random, transport, **_) -> CheckResult:
    for x, y in _sample_edges(g, rng):
        values = [_kappa_alpha(g, x, y, a, transport) for a in _GRID]
        for i in range(len(_GRID) - 2):
            if values[i] - 2 * values[i + 1] + values[i + 2] > 0:
                return CheckResult(
                    "concavity",
                    "fail",
                    f"edge ({x}, {y}): second difference positive at alpha {_GRID[i + 1]}",
                )
        for a, val in zip(_GRID, values):
            if val > 2 * (1 - a):  # d(x, y) = 1 on an edge
                return CheckResult(
                    "concavity",
                    "fail",
                    f"edge ({x}, {y}): kappa_alpha({a}) = {val} exceeds 2(1-alpha)/d",
                )
    return CheckResult("concavity", "pass", "midpoint concavity and upper bound hold")


def _check_slope_monotonicity(
    g: Graph, report: CurvatureReport, rng: random.Random, transport, **_
) -> CheckResult:
    kappa_by_edge = {(rec.u, rec.v): rec.kappa for rec in report.edges}
    for x, y in _sample_edges(g, rng):
        limit = kappa_by_edge[(x, y)]
        slopes = [_kappa_alpha(g, x, y, a, transport) / (1 - a) for a in _GRID if a != 1]
        for s1, s2 in zip(slopes, slopes[1:]):
            if s1 > s2:
                return CheckResult(
                    "slope-monotonicity", "fail",
                    f"edge ({x}, {y}): slope decreases along the alpha grid",
                )
        if any(s > limit for s in slopes):
            return CheckResult(
                "slope-monotonicity", "fail",
                f"edge ({x}, {y}): slope exceeds the limit value {limit}",
            )
        if _kappa_lly_slope(g, x, y, transport) != limit:
            return CheckResult(
                "slope-monotonicity", "fail",
                f"edge ({x}, {y}): transport slope engine disagrees with the LP value",
            )
    return CheckResult(
        "slope-monotonicity", "pass", "slopes nondecreasing and bounded by the limit"
    )


def _check_diameter(g: Graph, report: CurvatureReport, **_) -> CheckResult:
    kmin = report.min_kappa
    if kmin is None or kmin <= 0:
        return CheckResult(
            "diameter", "pass", "no positive curvature floor; bound is vacuous"
        )
    if kmin * report.diameter <= 2:
        return CheckResult(
            "diameter", "pass",
            f"diameter {report.diameter} <= 2 / {kmin}",
        )
    return CheckResult(
        "diameter", "fail",
        f"diameter {report.diameter} exceeds 2 / {kmin}",
    )


def _check_lemma3(g: Graph, report: CurvatureReport, **_) -> CheckResult:
    if g.vertex_count > _PAIR_LIMIT:
        return CheckResult(
            "lemma3", "skip", f"graph has {g.vertex_count} > {_PAIR_LIMIT} vertices"
        )
    if g.vertex_count < 2:
        return CheckResult("lemma3", "skip", "graph has no vertex pair")
    edge_min = report.min_kappa
    # The report already holds kappa on every edge; solve only the other pairs.
    pair_min = min(
        [edge_min] + [kappa_lly(g, u, v) for u, v in combinations(g.vertices, 2)
                      if not g.has_edge(u, v)]
    )
    if pair_min >= edge_min:
        return CheckResult(
            "lemma3", "pass",
            f"min over pairs {pair_min} >= min over edges {edge_min}",
        )
    return CheckResult(
        "lemma3", "fail",
        f"min over pairs {pair_min} < min over edges {edge_min}",
    )


def _check_lemma4(g: Graph, report: CurvatureReport, seed: int, **_) -> CheckResult:
    failing = lemma4_sweep(g, seed=seed)
    if not failing:
        return CheckResult("lemma4", "pass", "no failing instance found")
    # Each witness is feasible for the Lipschitz program, so it bounds the
    # exact kappa of its edge from above; a larger kappa is a solver fault.
    kappa_by_edge = {(rec.u, rec.v): rec.kappa for rec in report.edges}
    for inst in failing:
        kappa = kappa_by_edge[min(inst.x, inst.y), max(inst.x, inst.y)]
        if kappa > inst.witness.nabla:
            raise InternalConsistencyError(
                f"kappa({inst.x}, {inst.y}) = {kappa} exceeds the lemma4 witness "
                f"bound {inst.witness.nabla}"
            )
    shown = instance_to_json_dict(failing[0])
    return CheckResult(
        "lemma4", "fail",
        f"{len(failing)} failing instance(s), e.g. {shown}",
    )


def _check_gauss_bonnet(
    report: CurvatureReport, rot: Optional[RotationSystem], **_
) -> CheckResult:
    if rot is None:
        return CheckResult("gauss-bonnet", "skip", "no rotation system given")
    if not report.sphere:
        return CheckResult(
            "gauss-bonnet", "skip",
            f"embedding has Euler characteristic {report.euler_characteristic}, not a sphere",
        )
    total = sum((r.phi for r in report.vertices), start=Fraction(0))
    if total == 2:
        return CheckResult("gauss-bonnet", "pass", "sum of phi equals 2 exactly")
    return CheckResult("gauss-bonnet", "fail", f"sum of phi is {total}, expected 2")


def _check_degree_audit(g: Graph, report: CurvatureReport, **_) -> CheckResult:
    audit = degree_audit(g, report)
    if audit.passed:
        return CheckResult("degree-audit", "pass", audit.note)
    return CheckResult("degree-audit", "fail", audit.note)


_CHECK_FUNCS = {
    "positivity": _check_positivity,
    "duality": _check_duality,
    "integrality": _check_integrality,
    "concavity": _check_concavity,
    "slope-monotonicity": _check_slope_monotonicity,
    "diameter": _check_diameter,
    "lemma3": _check_lemma3,
    "lemma4": _check_lemma4,
    "gauss-bonnet": _check_gauss_bonnet,
    "degree-audit": _check_degree_audit,
}
ALL_CHECKS = tuple(_CHECK_FUNCS)  # canonical order


def run_checks(
    g: Graph,
    rot: Optional[RotationSystem] = None,
    checks: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the selected checks (all by default) in canonical order."""
    selected = list(checks) if checks is not None else list(ALL_CHECKS)
    unknown = [c for c in selected if c not in _CHECK_FUNCS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]!r}")
    report = curvature_report(g, rot=rot, mode="lly")
    # One measure per (v, alpha) and one solve per (x, y, alpha).
    measure = cache(partial(lazy_measure, g))
    transport = cache(partial(_lazy_transport, g, measure=measure))
    results = []
    for name in ALL_CHECKS:
        if name not in selected:
            continue
        rng = random.Random(f"{seed}:{name}")  # str seeding is process stable
        results.append(
            _CHECK_FUNCS[name](
                g=g, rot=rot, report=report, rng=rng, seed=seed, transport=transport
            )
        )
    return results
