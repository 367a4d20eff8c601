"""Tests of the benchmark itself: generators and output checks.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import corpus
from checking import CommandResult, check, check_verify, euler_characteristic, read_graph
from corpus import WORKLOADS, Input
from run import Pass, count_failures, run_command
from riccikit import cli


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    build = WORKLOADS[name].build
    for sub, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / sub).mkdir()
        build(seed, tmp_path / sub)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first.keys() == _files(tmp_path / "c").keys()
    assert first != _files(tmp_path / "c")


def test_triangulation_is_a_relabelled_sphere_with_capped_degree(tmp_path):
    rng = corpus.sub_rng(5, "t")
    edges, rot = corpus.relabel(*corpus.random_triangulation(60, rng, max_degree=8), rng)
    item = corpus._write(tmp_path, "t", edges, rot)
    adj, rotation = read_graph(item)
    assert len(edges) == 3 * 60 - 6
    assert max(len(ns) for ns in adj.values()) <= 8
    assert euler_characteristic(adj, rotation) == 2


def _prism_input(tmp_path) -> Input:
    edges, rot = corpus.relabel(*corpus._family("prism", 5), corpus.sub_rng(1, "p"))
    return corpus._write(tmp_path, "prism_5", edges, rot)


def test_check_counts_a_changed_kappa_as_failure(tmp_path):
    item = _prism_input(tmp_path)
    result = run_command(cli, WORKLOADS["sparse-lly"].argv(item, 1, jobs=1), item)
    refs: dict = {}
    assert check(result, "curvature", 1, refs) == []

    report = json.loads(result.stdout)
    sampled = next(iter(refs[item.name].kappa))
    for rec in report["edges"]:
        if (rec["u"], rec["v"]) == sampled:
            rec["kappa"] = str(Fraction(rec["kappa"]) + Fraction(1, 7))
    result.stdout = json.dumps(report)
    problems = check(result, "curvature", 1, refs)
    assert any("kappa" in p for p in problems)
    attempted, failed, _ = count_failures([Pass([result], 1.0, 1.0)], "curvature", 1)
    assert (attempted, failed) == (1, 1)


@pytest.mark.parametrize("command", ["curvature", "verify"])
def test_check_counts_a_nonzero_exit_as_failure(command, tmp_path):
    path = tmp_path / "loop.edges"
    path.write_text("0 1\n1 1\n", encoding="utf-8")
    item = Input("loop", path, 2, False)
    workload = WORKLOADS["dense-lly" if command == "curvature" else "verify-small"]
    result = run_command(cli, workload.argv(item, 1), item)
    assert result.code == 2
    assert check(result, command, 1, {}) == ["exit code 2"]
    attempted, failed, _ = count_failures([Pass([result], 1.0, 1.0)], command, 1)
    assert (attempted, failed) == (1, 1)


def test_verify_check_accepts_only_a_certified_lemma4_counterexample(tmp_path):
    # Star with six leaves, one of which carries two pendants: not positively
    # curved, and the lemma4 sweep prints a failing instance with its witness.
    edges = [(0, i) for i in range(1, 7)] + [(1, 7), (1, 8)]
    item = corpus._write(tmp_path, "star", edges, None)
    result = run_command(cli, WORKLOADS["verify-small"].argv(item, 1), item)
    assert result.code == 1 and "FAIL lemma4" in result.stdout
    assert check_verify(result) == []

    shown = result.stdout.split("'nabla_xy_delta_f': '")[1].split("'")[0]
    forged = CommandResult(item, 1, result.stdout.replace(
        f"'nabla_xy_delta_f': '{shown}'", "'nabla_xy_delta_f': '-5'"), 0.0)
    assert check_verify(forged)
    wrong_code = CommandResult(item, 0, result.stdout, 0.0)
    assert check_verify(wrong_code)
