"""Verification suite: runs the quantitative invariants on a concrete graph.

Each check returns pass/fail/skip with a diagnostic. Checks verify
implications, so they pass vacuously when their hypotheses fail (a cycle is
not positively curved, hence the positivity floor has nothing to say).
Sampling is driven entirely by the caller's seed.

The transport checks (duality, integrality, concavity, slope-monotonicity)
sample the same edges on small graphs, so one `run_checks` call solves each
lazy-walk transport problem (x, y, alpha) at most once, and builds the
metric of each transport domain once. Each solve is an integer record,
certified once by its own arc flow (`transport._lazy_flow`) before any
check reads it; no coupling is built. `duality` counts the certified
pairs, and `integrality` reads their potentials. `concavity` and
`slope-monotonicity` read each sampled edge's certified lines from
`transport.idleness_lines`: W = c0 + alpha * slope on each of at most three
pieces covering [0, 1], so both checks hold for every alpha, not at sample
points. The lines come from only a few solves per edge, and each piece is
certified once, at its two ends, against each end's flow.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Optional, Sequence

from .curvature import CurvatureReport, curvature_report, kappa_lly
from .graphs import Graph, RotationSystem
from .structure import degree_audit, instance_to_json_dict, lemma4_sweep
from .transport import InternalConsistencyError, idleness_lines
from .transport import _domain_metric, _lazy_flow

_EDGE_SAMPLE = 12
_PAIR_LIMIT = 10  # vertices; all-pairs curvature beyond this is out of desk range
_ALPHAS = (Fraction(0), Fraction(1, 3), Fraction(1, 2))


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
    # A solve whose flow and potential do not certify each other raises.
    count = 0
    for x, y in _sample_edges(g, rng):
        for alpha in _ALPHAS:
            transport(x, y, alpha)
            count += 1
    return CheckResult("duality", "pass", f"{count} primal/dual pairs agree exactly")


def _check_integrality(g: Graph, rng: random.Random, transport, **_) -> CheckResult:
    count = 0
    for x, y in _sample_edges(g, rng):
        for alpha in _ALPHAS:
            *_, f, _ = transport(x, y, alpha)
            bad = [v for v, fv in f.items() if not isinstance(fv, int)]
            if bad:
                return CheckResult(
                    "integrality",
                    "fail",
                    f"edge ({x}, {y}), alpha {alpha}: non-integer potential at {bad[0]}",
                )
            count += 1
    return CheckResult("integrality", "pass", f"{count} potentials integer-valued")


def _check_concavity(g: Graph, rng: random.Random, lines, **_) -> CheckResult:
    # On an edge d = 1, so kappa_alpha = 1 - c0 - alpha * slope on a piece.
    for x, y in _sample_edges(g, rng):
        pieces = lines(x, y)
        for i, (a, b, c0, slope) in enumerate(pieces):
            if i and slope < pieces[i - 1][3]:
                return CheckResult(
                    "concavity", "fail",
                    f"edge ({x}, {y}): slope of kappa_alpha rises at alpha {a}",
                )
            for end in (a, b):  # both sides are linear on the piece
                val = 1 - c0 - end * slope
                if val > 2 * (1 - end):
                    return CheckResult(
                        "concavity", "fail",
                        f"edge ({x}, {y}): kappa_alpha({end}) = {val} exceeds 2(1-alpha)/d",
                    )
    return CheckResult("concavity", "pass",
                       "slopes nondecreasing on every piece and upper bound holds")


def _check_slope_monotonicity(
    g: Graph, report: CurvatureReport, rng: random.Random, lines, **_
) -> CheckResult:
    kappa_by_edge = {(rec.u, rec.v): rec.kappa for rec in report.edges}
    for x, y in _sample_edges(g, rng):
        pieces = lines(x, y)
        for a, b, c0, slope in pieces:
            # (1 - c0 - alpha * slope) / (1 - alpha) has derivative
            # (1 - c0 - slope) / (1 - alpha)^2.
            if 1 - c0 - slope < 0:
                return CheckResult(
                    "slope-monotonicity", "fail",
                    f"edge ({x}, {y}): kappa_alpha / (1 - alpha) decreases on [{a}, {b}]",
                )
        # W(1) = 1 on the last piece, so there the ratio is its slope.
        limit, last = kappa_by_edge[(x, y)], pieces[-1][3]
        if last != limit:
            return CheckResult(
                "slope-monotonicity", "fail",
                f"edge ({x}, {y}): last slope {last} disagrees with the LP value {limit}",
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
    # One metric (rows and spanning arcs) per domain, at most one certified
    # solve per (x, y, alpha) and one list of idleness lines per edge.
    metric = cache(partial(_domain_metric, g))
    transport = cache(partial(_lazy_flow, g, metric=metric))
    lines = cache(partial(idleness_lines, g, transport=transport, metric=metric))
    results = []
    for name in ALL_CHECKS:
        if name not in selected:
            continue
        rng = random.Random(f"{seed}:{name}")  # str seeding is process stable
        results.append(
            _CHECK_FUNCS[name](
                g=g, rot=rot, report=report, rng=rng, seed=seed, transport=transport,
                lines=lines,
            )
        )
    return results
