"""Command line frontend: generate, curvature, transport, verify.

Exit codes: 0 success (all selected checks pass for verify), 1 verification
failure, 2 malformed input, 3 internal error (a solver's exactness self-check
failed; one "internal error: ..." line on stderr). Alpha values cross this
boundary as exact rationals only: "p/q" or a finite decimal, never a binary
float.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .checks import ALL_CHECKS, run_checks
from .curvature import (
    EmbeddingError,
    curvature_report,
    report_to_csv,
    report_to_json_dict,
)
from .families import FAMILIES, FamilySpec
from .graphs import GraphError, parse_graph, sniff_format, to_edgelist_text, to_rotation_text
from .transport import InternalConsistencyError, TransportError, optimal_transport, lazy_measure


class _InputError(Exception):
    """Wraps any bad-input condition for a uniform exit-2 path."""


_ALPHA_LIMIT = 1000  # characters of alpha text, and the largest |exponent|


def _parse_alpha(text: str) -> Fraction:
    # Fraction expands 10**exponent in full, and an int of over 4,300 digits
    # cannot be printed, so the size is decided from the text first.
    exponent = re.search(r"e[-+]?(\d[\d_]*)", text[:_ALPHA_LIMIT + 1], re.IGNORECASE)
    digits = exponent[1].replace("_", "") if exponent else "0"
    if len(text) > _ALPHA_LIMIT or int(digits) > _ALPHA_LIMIT:
        raise _InputError(f"alpha needs at most {_ALPHA_LIMIT} characters and an "
                          f"exponent of at most {_ALPHA_LIMIT} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _InputError(f"cannot parse alpha {text!r} as an exact rational") from None


def _load_graph(args):
    path = Path(args.input)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None
    fmt = args.format or sniff_format(text)
    return parse_graph(text, fmt)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from None


def cmd_generate(args) -> int:
    spec = FamilySpec(args.family, args.n)
    try:
        graph, rot = spec.build()
    except ValueError as exc:  # a family parameter out of range
        raise _InputError(str(exc)) from None
    base = args.out or spec.label()
    files = [(str(Path(f"{base}.edges")), to_edgelist_text(graph))]
    if rot is not None:
        files.append((str(Path(f"{base}.rot")), to_rotation_text(rot)))
    for path, text in files:
        _write_text(path, text)
    print("\n".join(path for path, _ in files))
    return 0


def cmd_curvature(args) -> int:
    graph, rot = _load_graph(args)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None else None
    if args.mode == "alpha" and alpha is None:
        raise _InputError("mode 'alpha' needs an alpha value")
    if args.mode != "alpha" and alpha is not None:
        raise _InputError("alpha is only meaningful in mode 'alpha'")
    if args.jobs < 1:
        raise _InputError(f"--jobs must be at least 1, not {args.jobs}")
    report = curvature_report(
        graph,
        rot=rot,
        mode=args.mode,
        alpha=alpha,
        include_zero=args.with_zero,
    )
    if args.out and args.out.endswith(".csv"):
        _write_text(args.out, report_to_csv(report))
    else:
        payload = json.dumps(report_to_json_dict(report), indent=2) + "\n"
        _write_text(args.out, payload)
    return 0


def cmd_transport(args) -> int:
    graph, _ = _load_graph(args)
    alpha = _parse_alpha(args.alpha)
    m1 = lazy_measure(graph, args.x, alpha)
    m2 = lazy_measure(graph, args.y, alpha)
    result = optimal_transport(graph, m1, m2)
    print(f"W = {result.distance}")
    print("plan (u v mass):")
    for (u, v), mass in sorted(result.plan.entries.items()):
        print(f"  {u} {v} {mass}")
    print("potential (v f):")
    for v, f in sorted(result.potential.items()):
        print(f"  {v} {f}")
    print("duality gap: 0 (verified exactly)")
    return 0


def cmd_verify(args) -> int:
    graph, rot = _load_graph(args)
    checks = args.checks.split(",") if args.checks is not None else None
    unknown = [c for c in checks or () if c not in ALL_CHECKS]
    if unknown:
        raise _InputError(f"unknown check {unknown[0]!r}")
    results = run_checks(graph, rot=rot, checks=checks, seed=args.seed)
    failed = False
    for res in results:
        print(f"{res.status.upper():4s} {res.name}: {res.details}")
        failed = failed or res.failed
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riccikit",
        description="Exact curvature toolkit for finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a named family as edge/rotation files")
    gen.add_argument("--family", required=True, choices=sorted(FAMILIES))
    gen.add_argument("--n", "--d", dest="n", type=int, default=None,
                     help="integer parameter for parametric families")
    gen.add_argument("--out", help="output base path (default: family label)")
    gen.set_defaults(func=cmd_generate)

    def add_input_options(p):
        p.add_argument("--input", required=True, help="graph file")
        p.add_argument("--format", choices=["edgelist", "rotation"],
                       help="input format (default: sniffed from content)")

    curv = sub.add_parser("curvature", help="per-edge/per-vertex curvature report")
    add_input_options(curv)
    curv.add_argument("--mode", choices=["lly", "alpha", "comb", "zero"], default="lly")
    curv.add_argument("--alpha", help="exact rational, e.g. 1/3 or 0.25 (mode alpha)")
    curv.add_argument("--with-zero", action="store_true",
                      help="also report the lazy lower bound per edge")
    curv.add_argument("--out", help="output file; .csv suffix selects CSV")
    curv.add_argument("--jobs", type=int, default=1,
                      help="accepted and checked (>= 1); reports are computed serially")
    curv.set_defaults(func=cmd_curvature)

    tr = sub.add_parser("transport", help="optimal transport between two lazy measures")
    add_input_options(tr)
    tr.add_argument("x", type=int)
    tr.add_argument("y", type=int)
    tr.add_argument("--alpha", required=True, help="exact rational laziness")
    tr.set_defaults(func=cmd_transport)

    ver = sub.add_parser("verify", help="run the quantitative checks")
    add_input_options(ver)
    ver.add_argument("--checks", help=f"comma list from: {','.join(ALL_CHECKS)}")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify)
    return parser


_parser = cache(build_parser)  # built by the first `main` call, then reused


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, GraphError, TransportError, EmbeddingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
