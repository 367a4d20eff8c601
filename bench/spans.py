"""Layer spans recorded from outside the package by wrapping its functions.

Callers import layer functions by name (`from .graphs import bfs_distances`),
so a wrapper must replace the function in every module that holds it, not
only where it is defined. `Tracer.install` does that by identity over all
`riccikit.*` modules and restores every binding on `uninstall`.

Spans nest on a stack. Instead of keeping every span (a verify pass makes
millions of BFS calls), each finished span is folded into a total keyed by
(parent span name, span name): calls, time, self time (time minus the time
of its direct child spans), and a work count where one is defined.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

from checking import CHECK_NAMES

LAYERS = ("graphs", "curvature", "lp", "transport", "structure", "checks", "cli")


def _bfs_work(args, result):
    return {"graphs.bfs.vertices": len(result.dist)}


def _lp_work(args, result):
    costs, rows = args[0], args[1]
    return {"lp.rows": len(rows), "lp.cols": len(costs)}


def _transport_work(args, result):
    _, m1, m2 = args[:3]
    return {"transport.pairs": len(m1.support()) * len(m2.support())}


# span name -> (module, attribute) of the original function, and the work
# counts, computed from its positional arguments and result, added per call.
FUNCTIONS = {
    "cli.main": ("cli", "main", None),
    "cli.serialize": ("curvature", "report_to_json_dict", None),
    "graphs.parse": ("graphs", "parse_graph", None),
    "graphs.bfs": ("graphs", "bfs_distances", _bfs_work),
    "graphs.diameter": ("graphs", "diameter", None),
    "graphs.faces": ("graphs", "trace_faces", None),
    "curvature.report": ("curvature", "curvature_report", None),
    "curvature.program": ("curvature", "build_lipschitz_program", None),
    "curvature.phi": ("curvature", "combinatorial_curvature", None),
    "curvature.alpha": ("curvature", "kappa_alpha", None),
    "lp.simplex": ("lp", "simplex_min", _lp_work),
    "transport.ot": ("transport", "optimal_transport", _transport_work),
    "transport.verify_duality": ("transport", "verify_duality", None),
    "structure.lemma4_sweep": ("structure", "lemma4_sweep", None),
    "structure.lemma4_check": ("structure", "lemma4_check", None),
    "structure.lemma4_witness": ("structure", "lemma4_witness", None),
    "structure.degree_audit": ("structure", "degree_audit", None),
    "checks.run": ("checks", "run_checks", None),
}


class _JsonShim:
    """Stands in for the `json` module inside `riccikit.cli` to time encoding."""

    def __init__(self, tracer):
        self.dumps = tracer.wrap("cli.serialize", json.dumps)

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, child time]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, s, self_s
        self.work = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        stack, spans, work = self.stack, self.spans, self.work

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                rec = spans[parent[0] if parent else None, name]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if counter is not None:
                for key, amount in counter(args, result).items():
                    work[key] += amount
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.startswith("riccikit.") and m]
        for name, (mod, attr, counter) in FUNCTIONS.items():
            original = getattr(sys.modules[f"riccikit.{mod}"], attr)
            wrapper = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper)
        program = sys.modules["riccikit.curvature"].LipschitzProgram
        self._set(program, "solve", self.wrap("curvature.solve", program.solve))
        checks = sys.modules["riccikit.checks"]
        table = checks._CHECK_FUNCS
        for check in CHECK_NAMES:
            self._restore.append((table, check, table[check]))
            table[check] = self.wrap(f"checks.{check}", table[check])
        self._set(sys.modules["riccikit.cli"], "json", _JsonShim(self))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def totals(self) -> dict[str, list]:
        """Per span name: calls, time, self time (summed over parents)."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), rec in self.spans.items():
            acc = out[name]
            for i in range(3):
                acc[i] += rec[i]
        return out

    def metrics(self, passes: int) -> dict[str, float]:
        """The per-layer metrics, each per traced pass."""
        tot = self.totals()

        def per(x):
            return x / passes

        def calls(n):
            return per(tot[n][0])

        def total(n):
            return per(tot[n][1])

        def own(n):
            return per(tot[n][2])

        def bfs_under(layer):
            return per(sum(rec[2] for (parent, name), rec in self.spans.items()
                           if name == "graphs.bfs" and parent and parent.startswith(layer + ".")))

        m = {
            "graphs.bfs.calls": calls("graphs.bfs"),
            "graphs.bfs.vertices": per(self.work["graphs.bfs.vertices"]),
            "graphs.bfs.self_s": own("graphs.bfs"),
            "graphs.bfs.under_curvature.self_s": bfs_under("curvature"),
            "graphs.bfs.under_transport.self_s": bfs_under("transport"),
            "graphs.bfs.under_structure.self_s": bfs_under("structure"),
            "graphs.diameter.s": total("graphs.diameter"),
            "graphs.faces.s": total("graphs.faces"),
            "graphs.parse.s": total("graphs.parse"),
            "curvature.phi.s": total("curvature.phi"),
            "curvature.program.self_s": own("curvature.program"),
            "curvature.solve.self_s": own("curvature.solve"),
            "lp.simplex.calls": calls("lp.simplex"),
            "lp.simplex.s": total("lp.simplex"),
            "lp.rows": per(self.work["lp.rows"]),
            "lp.cols": per(self.work["lp.cols"]),
            "transport.ot.calls": calls("transport.ot"),
            "transport.ot.self_s": own("transport.ot"),
            "transport.pairs": per(self.work["transport.pairs"]),
            "transport.verify_duality.s": total("transport.verify_duality"),
            "structure.lemma4_sweep.s": total("structure.lemma4_sweep"),
            "structure.lemma4_check.calls": calls("structure.lemma4_check"),
            "structure.degree_audit.s": total("structure.degree_audit"),
            "cli.serialize.s": total("cli.serialize"),
        }
        for check in CHECK_NAMES:
            m[f"checks.{check}.s"] = total(f"checks.{check}")
        for layer in LAYERS:
            m[f"layer.{layer}.self_s"] = per(sum(
                rec[2] for name, rec in tot.items() if name.split(".")[0] == layer))
        return m
