"""riccikit benchmark: timed CLI passes over seeded corpora, checked afterwards.

    python3 bench/run.py --workload sparse-lly --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. Set-up (fresh import, corpus generation, one warm-up command) is
repeated and timed separately. Then one closed-loop client calls
`riccikit.cli.main` in process, one command per input, pass after pass,
until `--seconds` have elapsed. Every output is checked after timing.

`--trace 0` reports the end-to-end metrics. `--trace 1` alternates untraced
and traced passes at `--jobs 1` (plus untraced passes at the workload's own
`--jobs` when that differs) and reports the per-layer metrics of
`spans.Tracer`, the tracing overhead and the fan-out CPU. The last stdout
line is the JSON result; the lines before it list every metric with its
unit and sample count, and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

# None of these imports riccikit at import time, so main() can still refuse
# to run when the sources are missing.
from checking import CommandResult, check
from corpus import WORKLOADS, Input
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
WARMUP_EDGES = "0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"  # K4


@dataclass
class Pass:
    results: list
    wall: float
    cpu: float


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Larger of this process's and its largest child's peak RSS (Linux: KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def run_command(cli, argv, item) -> CommandResult:
    out = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        error = None
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # a traceback is a failed command, not a benchmark crash
        code, error = None, f"{type(exc).__name__}: {exc}"
    return CommandResult(item, code, out.getvalue(), perf_counter() - start, error)


def run_pass(cli, workload, inputs, seed, jobs=None) -> Pass:
    cpu0 = cpu_seconds()
    start = perf_counter()
    results = [run_command(cli, workload.argv(item, seed, jobs), item) for item in inputs]
    return Pass(results, perf_counter() - start, cpu_seconds() - cpu0)


def set_up(workload, seed, work: Path):
    """Fresh import of the package, corpus written to disk, one warm-up command."""
    for name in [m for m in sys.modules if m == "riccikit" or m.startswith("riccikit.")]:
        del sys.modules[name]
    cli = importlib.import_module("riccikit.cli")
    inputs_dir = work / "inputs"
    shutil.rmtree(inputs_dir, ignore_errors=True)
    inputs_dir.mkdir(parents=True)
    inputs = workload.build(seed, inputs_dir)
    warm = Input("warmup", work / "warmup.edges", 6, False)
    warm.path.write_text(WARMUP_EDGES, encoding="utf-8")
    result = run_command(cli, workload.argv(warm, seed), warm)
    if result.code != 0:
        raise RuntimeError(f"warm-up command failed: {result.error or result.code}")
    return cli, inputs


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "riccikit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "jobs": {name: wl.jobs if wl.jobs is not None else "serial (verify has no --jobs)"
                 for name, wl in WORKLOADS.items()},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
    }


def percentile90(values):
    return quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def end_to_end(passes, inputs, setups):
    edges = sum(item.edge_count for item in inputs)
    times = [r.seconds for p in passes for r in p.results]
    n_cmd, n_pass = len(times), len(passes)
    return {
        "edges_per_s": (median(edges / p.wall for p in passes), "edges/s", n_pass),
        "cmd_p50_s": (median(times), "s", n_cmd),
        "cmd_p90_s": (percentile90(times), "s", n_cmd),
        "cpu_s": (median(p.cpu for p in passes), "s", n_pass),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "setup_s": (median(setups), "s", len(setups)),
    }


def traced(cli, workload, inputs, seed, seconds):
    """Untraced and traced passes in turn; returns all passes and the metrics."""
    tracer = Tracer()
    kinds = {"untraced": 1, "traced": 1}
    if workload.jobs not in (None, 1):
        kinds["fanout"] = workload.jobs
    runs = {kind: [] for kind in kinds}
    start = perf_counter()
    while not runs["traced"] or perf_counter() - start < seconds:
        for kind, jobs in kinds.items():
            if kind == "traced":
                tracer.install()
                try:
                    runs[kind].append(run_pass(cli, workload, inputs, seed, jobs))
                finally:
                    tracer.uninstall()
            else:
                runs[kind].append(run_pass(cli, workload, inputs, seed, jobs))
    plain = median(p.wall for p in runs["untraced"])
    with_spans = median(p.wall for p in runs["traced"])
    metrics = {name: (value, _layer_unit(name), len(runs["traced"]))
               for name, value in tracer.metrics(len(runs["traced"])).items()}
    metrics["trace.untraced_pass_s"] = (plain, "s", len(runs["untraced"]))
    metrics["trace.traced_pass_s"] = (with_spans, "s", len(runs["traced"]))
    metrics["trace.overhead_pct"] = (100 * (with_spans / plain - 1), "%", len(runs["traced"]))
    fanout = 0.0
    if "fanout" in runs:
        fanout = median(p.cpu for p in runs["fanout"]) - median(p.cpu for p in runs["untraced"])
    metrics["fanout.cpu_s"] = (fanout, "s", len(runs.get("fanout", runs["untraced"])))
    return [p for kind in runs.values() for p in kind], metrics


def _layer_unit(name: str) -> str:
    return "s" if name.endswith((".s", "_s")) else "count"


def count_failures(passes, command, seed):
    """Check every output of every pass; returns attempted, failed, notes.

    Besides its own check, each output must equal the first pass's output
    for the same input, since reports are deterministic.
    """
    refs: dict = {}
    first: dict = {}
    attempted = failed = 0
    notes = []
    for p in passes:
        for r in p.results:
            attempted += 1
            problems = check(r, command, seed, refs)
            if first.setdefault(r.item.name, r.stdout) != r.stdout:
                problems.append("output differs from the first pass")
            if problems:
                failed += 1
                if len(notes) < 10:
                    notes.append(f"FAILED {r.item.name}: {'; '.join(problems)[:500]}")
    return attempted, failed, notes


def print_summary(metrics, attempted, failed, notes):
    width = max(len(name) for name in metrics)
    print(f"{'metric':{width}}  {'value':>14}  unit     samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:{width}}  {value:14.6g}  {unit:7}  {samples}")
    print(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for note in notes:
        print(note)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "riccikit" / "__init__.py").is_file():
        print(f"error: no riccikit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            cli, inputs = set_up(workload, args.seed, work)
            setups.append(perf_counter() - start)

        if args.trace:
            passes, metrics = traced(cli, workload, inputs, args.seed, args.seconds)
        else:
            passes = []
            start = perf_counter()
            while not passes or perf_counter() - start < args.seconds:
                passes.append(run_pass(cli, workload, inputs, args.seed))
            metrics = end_to_end(passes, inputs, setups)

        attempted, failed, notes = count_failures(passes, workload.command, args.seed)
        if workload.command == "verify":
            certified = sum(1 for r in passes[0].results if r.code == 1)
            notes.append(f"verify exit 1 (a lemma4 counterexample, checked above): "
                         f"{certified} of {len(inputs)} inputs")
        if args.trace:
            layers = sorted((v[0], k) for k, v in metrics.items() if k.startswith("layer."))
            notes.append("largest layer self time: " + ", ".join(
                f"{k} {v:.4g}s" for v, k in reversed(layers)))
        notes.append("env " + json.dumps(environment(), sort_keys=True))
        print_summary(metrics, attempted, failed, notes)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
