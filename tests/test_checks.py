import random
import sys
from fractions import Fraction as F
from types import SimpleNamespace

import pytest

import riccikit.curvature
import riccikit.transport
from riccikit import families
from riccikit.checks import _CHECK_FUNCS, ALL_CHECKS, run_checks
from riccikit.cli import main
from riccikit.graphs import Graph, to_rotation_text

from oracles import random_connected_graph, star_with_pendants


def _by_name(results):
    return {r.name: r for r in results}


def test_all_checks_pass_on_triangle():
    g, rot = families.complete(3)
    results = _by_name(run_checks(g, rot=rot, seed=3))
    assert set(results) == set(ALL_CHECKS)
    assert not any(r.failed for r in results.values())
    assert results["lemma3"].status == "pass"
    assert results["gauss-bonnet"].status == "pass"
    assert results["positivity"].status == "pass"


def test_checks_on_cycle_are_vacuous_but_green():
    g, rot = families.cycle(6)
    results = _by_name(run_checks(g, rot=rot, seed=0))
    assert not any(r.failed for r in results.values())
    assert "vacuous" in results["positivity"].details
    assert "not applicable" in results["degree-audit"].details


def test_lemma3_skipped_on_large_graphs(figure1_pair):
    g, rot = figure1_pair
    results = _by_name(run_checks(g, rot=rot, checks=["lemma3"], seed=0))
    assert results["lemma3"].status == "skip"


def test_lemma4_flags_star_with_pendants():
    g, *_ = star_with_pendants()
    results = _by_name(run_checks(g, checks=["lemma4"], seed=0))
    assert results["lemma4"].failed
    assert "failing instance" in results["lemma4"].details


def test_gauss_bonnet_skipped_without_rotation(k3):
    results = _by_name(run_checks(k3, checks=["gauss-bonnet"]))
    assert results["gauss-bonnet"].status == "skip"


def test_check_selection_and_unknown(k3):
    results = run_checks(k3, checks=["duality", "integrality"], seed=1)
    assert [r.name for r in results] == ["duality", "integrality"]
    with pytest.raises(ValueError, match="unknown check"):
        run_checks(k3, checks=["nonsense"])


def test_checks_are_seed_deterministic(k3):
    a = run_checks(k3, seed=42)
    b = run_checks(k3, seed=42)
    assert a == b


def _count_calls(monkeypatch, original) -> list:
    """Wrap `original` wherever a riccikit module binds it; returns the call log."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("riccikit"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_verify_solves_each_transport_problem_once(tmp_path, capsys, monkeypatch):
    # prism(3) has 9 <= 12 edges, so all four transport checks use every edge:
    # duality and integrality at 0, 1/3, 1/2, and the idleness pieces that
    # concavity and slope-monotonicity read at 0, 1/2 and the one breakpoint,
    # 1/4.
    g, rot = families.prism(3)
    path = tmp_path / "prism3.rot"
    path.write_text(to_rotation_text(rot))
    calls = _count_calls(monkeypatch, riccikit.transport._flow_solve)
    assert main(["verify", "--input", str(path), "--seed", "5"]) == 0
    assert "PASS slope-monotonicity" in capsys.readouterr().out
    solved = [repr(c[1:]) for c in calls]  # the two measures of each solve
    assert len(solved) == len(set(solved)) == 9 * 4


@pytest.mark.parametrize("check", ["concavity", "slope-monotonicity"])
def test_line_checks_take_few_solves_per_sampled_edge(monkeypatch, check):
    # The icosahedron has 30 edges, so each check samples 12 of them and reads
    # their lines from at most 5 solves per edge on average. Reading
    # kappa_alpha at every tenth took 11 solves per edge (132).
    g, rot = families.icosahedron()
    calls = _count_calls(monkeypatch, riccikit.transport._flow_solve)
    assert run_checks(g, rot=rot, checks=[check], seed=1)[0].status == "pass"
    assert len(calls) <= 5 * 12


def test_verify_builds_each_transport_metric_once(tmp_path, monkeypatch):
    # The transport solves, their certificates and the idleness pieces of
    # one verify all read one metric per domain. The report's own programs
    # build theirs in curvature, which is left unwrapped here.
    g, rot = families.prism(3)
    path = tmp_path / "prism3.rot"
    path.write_text(to_rotation_text(rot))
    original = riccikit.transport._domain_metric
    calls = _count_calls(monkeypatch, original)
    monkeypatch.setattr(riccikit.curvature, "_domain_metric", original)
    assert main(["verify", "--input", str(path), "--seed", "5"]) == 0
    domains = [c[1] for c in calls]
    edge_domains = {tuple(sorted({x, y, *g.neighbors(x), *g.neighbors(y)})) for x, y in g.edges()}
    assert len(domains) == len(set(domains)) and set(domains) == edge_domains


def test_shared_transport_solves_change_no_result():
    rng = random.Random(8)
    for seed in range(20):
        g = random_connected_graph(rng, n_max=7)
        singles = [r for name in ALL_CHECKS for r in run_checks(g, checks=[name], seed=seed)]
        assert run_checks(g, seed=seed) == singles


@pytest.mark.parametrize("check, lines, message", [
    # W = c0 + alpha * slope on [a, b]; kappa_alpha = 1 - W on an edge.
    ("concavity", [(0, F(1, 2), F(-1, 4), 1), (F(1, 2), 1, F(1, 2), F(1, 2))],
     "slope of kappa_alpha rises at alpha 1/2"),
    ("concavity", [(0, F(1, 2), 0, F(-1, 2)), (F(1, 2), 1, F(-3, 2), F(5, 2))],
     "kappa_alpha(1/2) = 5/4 exceeds 2(1-alpha)/d"),
    ("slope-monotonicity", [(0, F(1, 2), F(1, 2), F(3, 4)), (F(1, 2), 1, F(3, 4), F(1, 4))],
     "kappa_alpha / (1 - alpha) decreases on [0, 1/2]"),
    ("slope-monotonicity", [(0, 1, F(1, 2), F(1, 2))],
     "last slope 1/2 disagrees with the LP value 1/4"),
], ids=["slope-falls", "end-above-bound", "ratio-falls", "last-slope-off"])
def test_line_checks_fail_on_hand_made_lines(check, lines, message):
    result = _CHECK_FUNCS[check](
        g=Graph([(0, 1)]), rng=random.Random(0),
        report=SimpleNamespace(edges=[SimpleNamespace(u=0, v=1, kappa=F(1, 4))]),
        lines=lambda x, y: lines,
    )
    assert result.status == "fail"
    assert result.details == f"edge (0, 1): {message}"
