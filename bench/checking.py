"""Untimed output checks; every failure found here counts toward fail_ratio.

Reference values come from the input files through this module's own parser
and BFS, except the sampled curvatures, which come from `kappa_lly_slope`,
the transport engine that shares no solver code with the LP behind reports.
References are computed once per input and reused for every pass.
"""

from __future__ import annotations

import ast
import json
import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from corpus import Input

KAPPA_SAMPLE = 16
# The ten checks `verify` runs by default, in the order it prints them.
CHECK_NAMES = (
    "positivity", "duality", "integrality", "concavity", "slope-monotonicity",
    "diameter", "lemma3", "lemma4", "gauss-bonnet", "degree-audit",
)


@dataclass
class CommandResult:
    """What one CLI invocation returned: exit code, stdout, and any exception."""

    item: Input
    code: Optional[int]
    stdout: str
    seconds: float
    error: Optional[str] = None


def read_graph(item: Input) -> tuple[dict[int, list[int]], Optional[dict[int, list[int]]]]:
    """Adjacency lists (and the rotation, for `.rot` files) from the input file."""
    adj: dict[int, list[int]] = {}
    rotation = None
    text = item.path.read_text(encoding="utf-8")
    if item.embedded:
        rotation = {}
        for line in text.splitlines():
            head, _, tail = line.partition(":")
            rotation[int(head)] = [int(t) for t in tail.split()]
        adj = {v: sorted(cyc) for v, cyc in rotation.items()}
    else:
        for line in text.splitlines():
            u, v = map(int, line.split())
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    return adj, rotation


def bfs(adj: dict[int, list[int]], source: int) -> dict[int, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def euler_characteristic(adj, rotation) -> int:
    """V - E + F, tracing faces by (u, v) -> (v, vertex after u at v)."""
    succ = {}
    for v, cyc in rotation.items():
        for i, u in enumerate(cyc):
            succ[v, u] = (v, cyc[(i + 1) % len(cyc)])
    unused = {(u, v) for u in adj for v in adj[u]}
    faces = 0
    while unused:
        start = e = unused.pop()
        faces += 1
        while True:
            u, v = e
            _, w = succ[v, u]
            e = (v, w)
            if e == start:
                break
            unused.discard(e)
    edge_count = sum(len(ns) for ns in adj.values()) // 2
    return len(adj) - edge_count + faces


@dataclass(frozen=True)
class Reference:
    vertex_count: int
    edge_count: int
    diameter: int
    chi: Optional[int]
    kappa: dict[tuple[int, int], Fraction]


def reference(item: Input, seed: int) -> Reference:
    from riccikit.curvature import kappa_lly_slope
    from riccikit.graphs import Graph

    adj, rotation = read_graph(item)
    edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
    diameter = max(max(bfs(adj, v).values()) for v in adj)
    chi = euler_characteristic(adj, rotation) if rotation is not None else None
    rng = random.Random(f"{seed}:check:{item.name}")
    sample = sorted(rng.sample(edges, min(KAPPA_SAMPLE, len(edges))))
    g = Graph(edges)
    kappa = {(u, v): kappa_lly_slope(g, u, v) for u, v in sample}
    return Reference(len(adj), len(edges), diameter, chi, kappa)


def check(result: CommandResult, command: str, seed: int, refs: dict) -> list[str]:
    """Problems with one command's outcome (empty when correct).

    `refs` caches the reference values per input across passes.
    """
    if result.error is not None:
        return [result.error]
    if command == "verify":
        return check_verify(result)
    if result.code != 0:
        return [f"exit code {result.code}"]
    name = result.item.name
    if name not in refs:
        refs[name] = reference(result.item, seed)
    return check_report(result, refs[name])


def check_report(result: CommandResult, ref: Reference) -> list[str]:
    """Problems with one successful `curvature --mode lly` JSON report."""
    try:
        report = json.loads(result.stdout)
        problems = []
        graph = report["graph"]
        for key, want in (("vertex_count", ref.vertex_count), ("edge_count", ref.edge_count),
                          ("diameter", ref.diameter)):
            if graph[key] != want:
                problems.append(f"{key} {graph[key]} != {want}")
        kappa = {(e["u"], e["v"]): Fraction(e["kappa"]) for e in report["edges"]}
        if len(kappa) != ref.edge_count:
            problems.append(f"{len(kappa)} edge records for {ref.edge_count} edges")
        for edge, want in ref.kappa.items():
            if kappa.get(edge) != want:
                problems.append(f"kappa{edge} = {kappa.get(edge)} != slope engine {want}")
        if kappa and Fraction(report["summary"]["min_kappa"]) != min(kappa.values()):
            problems.append("summary min_kappa is not the minimum edge kappa")
        if ref.chi is not None:
            embedding = report["embedding"]
            if embedding["euler_characteristic"] != ref.chi:
                problems.append(f"chi {embedding['euler_characteristic']} != {ref.chi}")
            if ref.chi == 2:
                phi = sum((Fraction(r["phi"]) for r in report["vertices"]), Fraction(0))
                if phi != 2 or len(report["vertices"]) != ref.vertex_count:
                    problems.append(f"sum of phi is {phi} over {len(report['vertices'])} vertices")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc!r}"]


def _certified_lemma4(detail: str, adj: dict[int, list[int]]) -> Optional[str]:
    """Why a printed lemma4 counterexample is not genuine, or None if it is.

    A genuine one has a subset S of Gamma(y) - {x} on which the expansion
    inequality fails, and a {-1, 0, 1}-valued 1-Lipschitz f with
    f(y) - f(x) = 1 whose Laplacian gradient is <= 0, i.e. kappa(x, y) <= 0.
    """
    shown = ast.literal_eval(detail[detail.index("e.g. ") + len("e.g. "):])
    x, y, subset = shown["x"], shown["y"], set(shown["S"])
    gx, gy = set(adj[x]), set(adj[y])
    if y not in gx or len(gx) < len(gy) or not subset <= gy - {x}:
        return "instance is not on an oriented edge"
    gs = set().union(*(adj[v] for v in subset))
    gamma = gx & gy
    rhs = Fraction(len(subset) * len(gx), len(gy)) - (len(subset & gx) + 1 + len(gamma))
    if len(gs & gx) > rhs + len(gs & gamma):
        return "the inequality holds on the printed instance"
    f = {int(v): val for v, val in shown["witness"].items()}
    if set(f.values()) - {-1, 0, 1} or f.get(y, 0) - f.get(x, 0) != 1:
        return "witness values or unit gradient are wrong"
    for u in f:
        du = bfs(adj, u)
        if any(abs(f[u] - f[v]) > du[v] for v in f):
            return "witness is not 1-Lipschitz"

    def lap(w: int) -> Fraction:
        return Fraction(sum(f.get(z, 0) - f.get(w, 0) for z in adj[w]), len(adj[w]))

    nabla = lap(x) - lap(y)
    if nabla > 0 or str(nabla) != shown["nabla_xy_delta_f"]:
        return f"witness gradient {nabla} does not certify kappa <= 0"
    return None


def check_verify(result: CommandResult) -> list[str]:
    """Problems with one `verify` transcript (empty when correct).

    Every check must print one line, in order. Exit 0 needs every line to be
    PASS or SKIP. The only accepted FAIL is lemma4 with exit 1, and only when
    its printed instance is independently a genuine counterexample: the
    lemma4 sweep reports such instances on graphs that are not positively
    curved, which is the verdict the package's own tests require there.
    """
    if result.code not in (0, 1):
        return [f"exit code {result.code}"]
    lines = result.stdout.splitlines()
    names = [line.split()[1].rstrip(":") if len(line.split()) > 1 else "" for line in lines]
    if names != list(CHECK_NAMES):
        return [f"check lines {names} != {list(CHECK_NAMES)}"]
    if any(not line.startswith(("PASS", "SKIP", "FAIL")) for line in lines):
        return ["a line is not PASS, SKIP or FAIL"]
    failed = [(name, line) for name, line in zip(names, lines) if line.startswith("FAIL")]
    if not failed:
        return [] if result.code == 0 else [f"exit code {result.code} with no FAIL line"]
    if result.code != 1 or [name for name, _ in failed] != ["lemma4"]:
        return [f"exit code {result.code} with FAIL lines {[n for n, _ in failed]}"]
    adj, _ = read_graph(result.item)
    try:
        why = _certified_lemma4(failed[0][1], adj)
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        why = f"unreadable lemma4 instance: {exc!r}"
    return [] if why is None else [f"lemma4 FAIL not certified: {why}"]
