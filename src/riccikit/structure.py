"""Executable structure checkers: caps, the neighborhood-expansion inequality
with its Lipschitz certificate, bulk sweeps, and the max-degree audit."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Optional

from .curvature import CurvatureReport, LipschitzProgram
from .curvature import build_lipschitz_program, report_to_json_dict
from .graphs import Graph, RotationSystem
from .transport import InternalConsistencyError

MAX_DEGREE_LIMIT = 17
_EXHAUSTIVE_DEGREE = 10  # lemma4_sweep enumerates every subset up to this deg(y)
_SAMPLES = 1024  # and draws this many seeded subsets beyond it


@dataclass(frozen=True)
class CapRecord:
    """A chord (arc) or external bridge (cap) between rotation neighbors of x.

    Indices are positions in the clockwise neighbor order at x; span is their
    cyclic index distance. kind is "arc" when the two neighbors are adjacent,
    otherwise "cap" with the witness vertex that bridges them while avoiding
    all rotation neighbors strictly in between.
    """

    center: int
    index_a: int
    index_b: int
    span: int
    vertex_a: int
    vertex_b: int
    kind: str
    witness: Optional[int] = None


def detect_caps(g: Graph, rot: RotationSystem, x: int, span_max: int) -> list[CapRecord]:
    """All arcs/caps at x with span 1..span_max, ordered by (span, start index)."""
    order = rot.order(x)
    t = len(order)
    records = []
    for span in range(1, min(span_max, t - 1) + 1):
        for k in range(t):
            a = order[k]
            b = order[(k + span) % t]
            between = {order[(k + i) % t] for i in range(1, span)}
            if g.has_edge(a, b):
                records.append(CapRecord(x, k, (k + span) % t, span, a, b, "arc"))
                continue
            witness = None
            for z in sorted(set(g.neighbors(a)) & set(g.neighbors(b)) - {x}):
                if all(not g.has_edge(z, w) for w in between):
                    witness = z
                    break
            if witness is not None:
                records.append(
                    CapRecord(x, k, (k + span) % t, span, a, b, "cap", witness)
                )
    return records


@dataclass(frozen=True)
class LipschitzWitness:
    """Certificate f with values in {-1, 0, 1} proving kappa(x, y) <= nabla <= 0."""

    x: int
    y: int
    values: dict[int, int]
    nabla: Fraction

    def __getitem__(self, v: int) -> int:
        return self.values.get(v, 0)


@dataclass(frozen=True)
class Lemma4Instance:
    """One evaluation of the neighborhood-expansion inequality on edge (x, y).

    holds means |Gamma(S) meet Gamma(x)| is strictly larger than
    (s/deg y) deg x - (k + 1 + gamma) + |Gamma(S) meet Gamma(x, y)|.
    """

    x: int
    y: int
    subset: tuple[int, ...]
    s: int
    k: int
    gamma: int
    lhs: int
    overlap: int
    rhs: Fraction
    holds: bool
    witness: Optional[LipschitzWitness] = None


def _validate_lemma4_inputs(g: Graph, x: int, y: int, subset: Iterable[int]) -> tuple[int, ...]:
    if not g.has_edge(x, y):
        raise ValueError(f"({x}, {y}) is not an edge")
    if g.degree(x) < g.degree(y):
        raise ValueError(f"deg({x}) = {g.degree(x)} < deg({y}) = {g.degree(y)}")
    subset = tuple(sorted(set(subset)))
    allowed = set(g.neighbors(y)) - {x}
    bad = [v for v in subset if v not in allowed]
    if bad:
        raise ValueError(f"subset member {bad[0]} is not in Gamma({y}) minus {{{x}}}")
    return subset


def _evaluate(g: Graph, x: int, y: int, subset: tuple) -> tuple[Lemma4Instance, set[int]]:
    """The inequality for a valid, sorted subset S on edge (x, y), and Gamma(S)."""
    gx = set(g.neighbors(x))
    gamma_set = gx & set(g.neighbors(y))
    gs: set[int] = set()
    for v in subset:
        gs.update(g.neighbors(v))
    s = len(subset)
    k = len(set(subset) & gx)
    gamma = len(gamma_set)
    lhs = len(gs & gx)
    overlap = len(gs & gamma_set)
    rhs = Fraction(s * g.degree(x), g.degree(y)) - (k + 1 + gamma) + overlap
    instance = Lemma4Instance(
        x=x, y=y, subset=subset, s=s, k=k, gamma=gamma,
        lhs=lhs, overlap=overlap, rhs=rhs, holds=lhs > rhs,
    )
    return instance, gs


def _witness(
    g: Graph, instance: Lemma4Instance, gs: set[int], program: LipschitzProgram
) -> LipschitzWitness:
    """The witness of a failing instance, certified and evaluated by its edge's program."""
    x, y = instance.x, instance.y
    plus = {y, *instance.subset}
    minus = set(g.neighbors(x)) - gs - set(g.neighbors(y)) - plus
    values = dict.fromkeys(plus, 1) | dict.fromkeys(minus, -1)
    nabla = program.value({v: values.get(v, 0) for v in program.domain})
    if nabla > 0:
        raise InternalConsistencyError("witness gradient is positive on a failing instance")
    return LipschitzWitness(x=x, y=y, values=values, nabla=nabla)


def lemma4_check(g: Graph, x: int, y: int, subset: Iterable[int]) -> Lemma4Instance:
    """Exact evaluation of the inequality for S = subset on edge (x, y)."""
    return _evaluate(g, x, y, _validate_lemma4_inputs(g, x, y, subset))[0]


def lemma4_witness(g: Graph, x: int, y: int, subset: Iterable[int]) -> LipschitzWitness:
    """The proof's 1-Lipschitz f for a failing instance.

    f = 1 on {y} union S, f = -1 on Gamma(x) minus (Gamma(S) union Gamma(y)),
    f = 0 elsewhere, with the +1 class taking precedence. Both classes lie in
    U = {x, y} union Gamma(x) union Gamma(y), and f is 1-Lipschitz on the
    whole graph: no -1 vertex is y, or adjacent to y or to a member of S.
    The edge's Lipschitz program certifies f on its domain, U less the
    common neighbours at deg x = deg y (so possibly less some members of
    S), and evaluates it: those vertices have coefficient 0, so the value is
    f's on U. At d(x, y) = 1 the objective is the Laplacian gradient
    Lf(x) - Lf(y), an upper bound on kappa(x, y). On a failing instance
    that bound is <= 0.
    """
    instance, gs = _evaluate(g, x, y, _validate_lemma4_inputs(g, x, y, subset))
    if instance.holds:
        raise ValueError(
            "inequality holds on this instance; the construction certifies nothing"
        )
    return _witness(g, instance, gs, build_lipschitz_program(g, x, y))


def _oriented(g: Graph, u: int, v: int) -> tuple[int, int]:
    """Pick the (x, y) orientation with deg(x) >= deg(y); ties by vertex id."""
    if g.degree(u) > g.degree(v):
        return u, v
    if g.degree(v) > g.degree(u):
        return v, u
    return (u, v) if u < v else (v, u)


def lemma4_sweep(g: Graph, seed: int = 0) -> list[Lemma4Instance]:
    """Hunt for failing instances over every edge; each hit carries a witness.

    Subsets are enumerated exhaustively while deg(y) <= _EXHAUSTIVE_DEGREE
    and sampled uniformly (seeded) beyond that. On a positively curved graph
    the result must be empty.
    """
    rng = random.Random(seed)
    failing = []
    for u, v in g.edges():
        x, y = _oriented(g, u, v)
        candidates = tuple(w for w in g.neighbors(y) if w != x)
        if g.degree(y) <= _EXHAUSTIVE_DEGREE:
            masks = range(1 << len(candidates))
        else:
            masks = (rng.getrandbits(len(candidates)) for _ in range(_SAMPLES))
        program = None  # built at the edge's first failing subset
        for mask in dict.fromkeys(masks):
            # sorted and drawn from Gamma(y) minus {x}, so valid by construction
            subset = tuple(c for i, c in enumerate(candidates) if mask >> i & 1)
            instance, gs = _evaluate(g, x, y, subset)
            if not instance.holds:
                program = program or build_lipschitz_program(g, x, y)
                failing.append(replace(instance, witness=_witness(g, instance, gs, program)))
    return failing


@dataclass(frozen=True)
class DegreeAudit:
    """Outcome of the max-degree <= 17 audit for positively curved sphere graphs."""

    applicable: bool
    passed: bool
    max_degree: int
    note: str
    counterexample: Optional[dict] = None


def degree_audit(g: Graph, report: CurvatureReport) -> DegreeAudit:
    """Check max degree <= 17 whenever the hypotheses hold.

    A violation would contradict the degree bound for positively curved
    planar graphs. `verify` prints only the note; the full graph and
    curvature table go back to library callers in
    `DegreeAudit.counterexample`.
    """
    reasons = []
    if report.mode != "lly":
        reasons.append(f"report mode is {report.mode!r}, not 'lly'")
    elif not report.positively_curved:
        reasons.append("graph is not positively curved")
    if report.min_degree < 3:
        reasons.append(f"minimum degree {report.min_degree} < 3")
    if report.sphere is not True:
        reasons.append("no validated sphere embedding")
    if reasons:
        return DegreeAudit(
            applicable=False,
            passed=True,
            max_degree=report.max_degree,
            note="not applicable: " + "; ".join(reasons),
        )
    if report.max_degree <= MAX_DEGREE_LIMIT:
        return DegreeAudit(
            applicable=True,
            passed=True,
            max_degree=report.max_degree,
            note=f"max degree {report.max_degree} <= {MAX_DEGREE_LIMIT}",
        )
    return DegreeAudit(
        applicable=True,
        passed=False,
        max_degree=report.max_degree,
        note=(
            f"max degree {report.max_degree} > {MAX_DEGREE_LIMIT}: counterexample "
            "candidate; demands human review"
        ),
        counterexample={
            "edges": [[u, v] for u, v in g.edges()],
            "report": report_to_json_dict(report),
        },
    )


def instance_to_json_dict(instance: Lemma4Instance) -> dict:
    out = {
        "x": instance.x,
        "y": instance.y,
        "S": list(instance.subset),
        "s": instance.s,
        "k": instance.k,
        "gamma": instance.gamma,
        "lhs": instance.lhs,
        "overlap": instance.overlap,
        "rhs": str(instance.rhs),
        "holds": instance.holds,
    }
    if instance.witness is not None:
        out["witness"] = {str(v): f for v, f in sorted(instance.witness.values.items())}
        out["nabla_xy_delta_f"] = str(instance.witness.nabla)
    return out
