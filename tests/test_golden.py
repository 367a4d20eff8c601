"""Byte-identity gate: CLI outputs on a fixed set of inputs never change.

Each case runs one command on an input file under `tests/golden/` and
compares stdout with the stored `.out` file byte for byte. The inputs are
stored too, so the gate does not move if a generator does. A change that
is meant to alter an output regenerates the files on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from riccikit import families
from riccikit.cli import main
from riccikit.graphs import Graph, to_edgelist_text, to_rotation_text

from oracles import random_connected_graph

GOLDEN = Path(__file__).parent / "golden"
RANDOM_SEEDS = (11, 12, 13)
# Graphs with more than 12 edges, so each transport check of `verify` draws
# its own edge sample; random_37 has 12 vertices and 19 edges.
SAMPLED = (("prism_8", "rot"), ("antiprism_8", "rot"), ("random_37", "edges"))
# Dense inputs, stored as edge lists: every lly program has a large domain.
DENSE = (("complete", 12), ("wheel", 20), ("hypercube", 4), ("complete", 8))
GNP = (16, Fraction(2, 5), 3)  # vertices, edge probability, seed


def gnp_graph(n: int, p: Fraction, seed: int) -> Graph:
    """Seeded G(n, p): each vertex pair is an edge with probability p."""
    rng = random.Random(seed)
    return Graph((u, v) for u, v in combinations(range(n), 2) if rng.random() < p)


# (stored output, input file, command and options before --input)
CASES = [
    *((f"{name}.verify.out", f"{name}.rot", ("verify", "--seed", "1"))
      for name in ("icosahedron", "prism_5", "antiprism_5")),
    *((f"random_{s}.verify.out", f"random_{s}.edges", ("verify", "--seed", "1"))
      for s in RANDOM_SEEDS),
    *((f"{name}.verify.seed{seed}.out", f"{name}.{ext}", ("verify", "--seed", str(seed)))
      for name, ext in SAMPLED for seed in (3, 7)),
    *((f"{name}.lly.out", f"{name}.rot", ("curvature", "--mode", "lly", "--jobs", "1"))
      for name in ("figure1", "wheel_7")),
    # Plans and potentials depend on the flow engine's arc order, not only on W.
    ("figure1.transport.out", "figure1.rot", ("transport", "0", "8", "--alpha", "2/3")),
    ("wheel_7.transport.out", "wheel_7.rot", ("transport", "7", "2", "--alpha", "1/3")),
    *((f"{name}.lly.out", f"{name}.edges", ("curvature", "--mode", "lly", "--jobs", "1"))
      for name in ("complete_12", "wheel_20", "hypercube_4", "gnp_16")),
    ("complete_8.transport.out", "complete_8.edges", ("transport", "0", "1", "--alpha", "1/3")),
    ("hypercube_4.transport.out", "hypercube_4.edges", ("transport", "0", "15", "--alpha", "0")),
]


def _run(command: tuple[str, ...], path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--input", str(path)])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("output, source, command", CASES, ids=[c[0] for c in CASES])
def test_output_is_byte_identical(output, source, command):
    code, out, err = _run(command, GOLDEN / source)
    assert err == ""
    # verify exits 1 exactly when a check fails (lemma4 on graphs that are
    # not positively curved); the transcript holds the FAIL line.
    assert code == (1 if "\nFAIL " in "\n" + out else 0)
    assert out == (GOLDEN / output).read_text(encoding="utf-8")


def _write_inputs() -> None:
    for spec in (families.FamilySpec("icosahedron"), families.FamilySpec("prism", 5),
                 families.FamilySpec("antiprism", 5), families.FamilySpec("figure1"),
                 families.FamilySpec("wheel", 7), families.FamilySpec("prism", 8),
                 families.FamilySpec("antiprism", 8)):
        _, rot = spec.build()
        (GOLDEN / f"{spec.label()}.rot").write_text(to_rotation_text(rot), encoding="utf-8")
    for seed in (*RANDOM_SEEDS, 37):
        g = random_connected_graph(random.Random(seed))
        (GOLDEN / f"random_{seed}.edges").write_text(to_edgelist_text(g), encoding="utf-8")
    dense = [(families.FamilySpec(*spec).label(), families.FamilySpec(*spec).build()[0])
             for spec in DENSE]
    for label, g in [*dense, (f"gnp_{GNP[0]}", gnp_graph(*GNP))]:
        (GOLDEN / f"{label}.edges").write_text(to_edgelist_text(g), encoding="utf-8")


def regenerate() -> None:
    """Rewrite every stored input and output from the current source."""
    GOLDEN.mkdir(exist_ok=True)
    _write_inputs()
    for output, source, command in CASES:
        _, out, _ = _run(command, GOLDEN / source)
        (GOLDEN / output).write_text(out, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
