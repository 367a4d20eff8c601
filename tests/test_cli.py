import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import riccikit
from riccikit import cli
from riccikit.checks import ALL_CHECKS
from riccikit.cli import main
from riccikit import families, transport
from riccikit.graphs import to_edgelist_text, to_rotation_text
from riccikit.transport import InternalConsistencyError, _MinCostFlow

from oracles import star_with_pendants, torus_k4


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_figure1(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "generate", "--family", "figure1")
    assert code == 0
    assert (tmp_path / "figure1.edges").exists()
    assert (tmp_path / "figure1.rot").exists()
    assert len((tmp_path / "figure1.rot").read_text().splitlines()) == 17


def test_generate_prism_with_param(tmp_path, capsys):
    base = tmp_path / "p8"
    code, out, _ = run_cli(capsys, "generate", "--family", "prism", "--n", "8", "--out", str(base))
    assert code == 0
    edges = (tmp_path / "p8.edges").read_text()
    assert len(edges.splitlines()) == 24  # 16-vertex prism


def test_generate_complete3(tmp_path, capsys):
    base = tmp_path / "k3"
    code, *_ = run_cli(capsys, "generate", "--family", "complete", "--n", "3", "--out", str(base))
    assert code == 0
    assert (tmp_path / "k3.edges").read_text() == "0 1\n0 2\n1 2\n"


def test_curvature_cycle_json(tmp_path, capsys):
    g, _ = families.cycle(6)
    path = tmp_path / "c6.edges"
    path.write_text(to_edgelist_text(g))
    code, out, _ = run_cli(capsys, "curvature", "--input", str(path), "--mode", "lly",
                           "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["min_kappa"] == "0"
    assert payload["summary"]["positively_curved"] is False


def test_curvature_comb_mode_cube(tmp_path, capsys):
    g, rot = families.hypercube(3)
    path = tmp_path / "q3.rot"
    path.write_text(to_rotation_text(rot))
    code, out, _ = run_cli(capsys, "curvature", "--input", str(path), "--mode", "comb",
                           "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert all(rec["phi"] == "1/4" for rec in payload["vertices"])


def test_curvature_csv_output(tmp_path, capsys):
    g, _ = families.complete(3)
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(g))
    out_file = tmp_path / "report.csv"
    code, *_ = run_cli(capsys, "curvature", "--input", str(path), "--out", str(out_file),
                       "--jobs", "1")
    assert code == 0
    assert out_file.read_text().splitlines()[0] == "u,v,kappa"


def test_curvature_alpha_requires_exact_rational(tmp_path, capsys):
    g, _ = families.complete(3)
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(g))
    code, _, err = run_cli(capsys, "curvature", "--input", str(path), "--mode", "alpha",
                           "--alpha", "zebra", "--jobs", "1")
    assert code == 2
    assert "alpha" in err

    code, out, _ = run_cli(capsys, "curvature", "--input", str(path), "--mode", "alpha",
                           "--alpha", "0.5", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["alpha"] == "1/2"


def test_alpha_size_is_bounded_before_parsing(tmp_path, capsys):
    # An exponent or a text past 1,000 would build or print integers beyond
    # Python's 4,300-digit str limit; both exit 2 before Fraction runs.
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    commands = (["curvature", "--input", str(path), "--mode", "alpha", "--jobs", "1", "--alpha"],
                ["transport", "--input", str(path), "0", "1", "--alpha"])
    for argv in commands:
        for alpha in ("1e5000", "1e-5000", "0." + "1" * 5000):
            code, out, err = run_cli(capsys, *argv, alpha)
            assert (code, out) == (2, ""), alpha[:10]
            assert err.startswith("error: alpha needs at most 1000") and err.count("\n") == 1
        for alpha in ("1e-1000", "0.25", "1/3"):
            code, out, err = run_cli(capsys, *argv, alpha)
            assert (code, err) == (0, ""), alpha


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit2(tmp_path, capsys, jobs):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    code, out, err = run_cli(capsys, "curvature", "--input", str(path), "--jobs", jobs)
    assert (code, out) == (2, "")
    assert err == f"error: --jobs must be at least 1, not {jobs}\n"


def test_transport_triangle(tmp_path, capsys):
    g, _ = families.complete(3)
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(g))
    code, out, _ = run_cli(capsys, "transport", "--input", str(path), "0", "1",
                           "--alpha", "0")
    assert code == 0
    assert "W = 1/2" in out
    assert "duality gap: 0" in out


def test_transport_same_vertex(tmp_path, capsys):
    g, _ = families.complete(3)
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(g))
    code, out, _ = run_cli(capsys, "transport", "--input", str(path), "2", "2",
                           "--alpha", "1/3")
    assert code == 0
    assert "W = 0" in out


def test_transport_single_edge_half_lazy(tmp_path, capsys):
    # both lazy measures coincide at alpha = 1/2 on a single edge
    path = tmp_path / "k2.edges"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "transport", "--input", str(path), "0", "1",
                           "--alpha", "1/2")
    assert code == 0
    assert "W = 0" in out


def test_curvature_zero_mode(tmp_path, capsys):
    g, _ = families.complete(3)
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(g))
    code, out, _ = run_cli(capsys, "curvature", "--input", str(path), "--mode", "zero",
                           "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert all(rec["kappa"] == "1/2" for rec in payload["edges"])


def test_transport_unknown_vertex_exit2(tmp_path, capsys):
    g, _ = families.complete(3)
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(g))
    code, _, err = run_cli(capsys, "transport", "--input", str(path), "0", "9",
                           "--alpha", "0")
    assert code == 2 and "error" in err


def test_parse_error_exit2(tmp_path, capsys):
    path = tmp_path / "bad.edges"
    path.write_text("1 1\n")
    code, _, err = run_cli(capsys, "curvature", "--input", str(path), "--jobs", "1")
    assert code == 2
    assert "self-loop" in err


def test_missing_file_exit2(capsys):
    code, _, err = run_cli(capsys, "curvature", "--input", "no/such/file", "--jobs", "1")
    assert code == 2


def test_internal_fault_exit3_without_traceback(tmp_path, capsys, monkeypatch):
    # Zero potentials break the curvature certificate, which must surface as
    # an internal error, not as a failed verification (1) or bad input (2).
    solve = _MinCostFlow.solve

    def solve_then_zero_potentials(self, s, t, amount, potential):
        total = solve(self, s, t, amount, potential)
        potential[:] = [0] * len(potential)
        return total

    monkeypatch.setattr(_MinCostFlow, "solve", solve_then_zero_potentials)
    g, _ = families.cycle(6)
    path = tmp_path / "c6.edges"
    path.write_text(to_edgelist_text(g))
    for argv in (["curvature", "--input", str(path), "--jobs", "1"],
                 ["verify", "--input", str(path), "--checks", "positivity"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_transport_fault_through_shared_solves_exit3(tmp_path, capsys, monkeypatch):
    # Only transport solves start from zero potentials (the curvature program
    # starts from d(x, .)); zeroing their final potentials breaks the zero
    # duality gap, so each transport check, and the full run, must exit 3.
    solve = _MinCostFlow.solve

    def solve_then_zero_transport_potentials(self, s, t, amount, potential):
        transport = not any(potential)
        total = solve(self, s, t, amount, potential)
        if transport:
            potential[:] = [0] * len(potential)
        return total

    monkeypatch.setattr(_MinCostFlow, "solve", solve_then_zero_transport_potentials)
    g, _ = families.cycle(6)
    path = tmp_path / "c6.edges"
    path.write_text(to_edgelist_text(g))
    for checks in ("duality", "integrality", "concavity", "slope-monotonicity", ",".join(ALL_CHECKS)):
        code, out, err = run_cli(capsys, "verify", "--input", str(path), "--checks", checks)
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def _doctored_flow(fault, record, rows):
    """`record` with one unit of the flow on its first arc i -> j changed by `fault`."""
    scale, domain, supply, flow, f, total = record
    (i, j), c = next(iter(flow.items()))
    if fault == "conservation":  # the unit ends at k instead of j
        k = next(k for k in range(len(domain)) if k not in (i, j))
        flow = {**flow, (i, j): c - 1, (i, k): flow.get((i, k), 0) + 1}
    elif fault == "cost":  # the unit detours through k, one unit longer
        k = next(k for k in range(len(domain)) if rows[i][k] + rows[k][j] == rows[i][j] + 1)
        flow = {**flow, (i, j): c - 1, (i, k): flow.get((i, k), 0) + 1,
                (k, j): flow.get((k, j), 0) + 1}
    else:
        flow = {**flow, (i, j): -c}
    return scale, domain, supply, flow, f, total


@pytest.mark.parametrize("fault, message", [
    ("conservation", "flow does not conserve the supply at vertex"),
    ("cost", "duality gap: flow cost"),
    ("negative", "negative flow on arc"),
])
def test_flow_fault_through_shared_solves_exit3(fault, message, tmp_path, capsys, monkeypatch):
    # verify reads only records that their own flow certifies: a flow that
    # breaks conservation, costs one unit more than f's dual value or has a
    # negative entry must raise before any transport check reads it, so each
    # of them exits 3 and none prints FAIL. On K4 every detour through a third
    # vertex costs one unit more.
    solve = transport._flow_solve

    def doctored(*args):
        record, rows = solve(*args)
        return _doctored_flow(fault, record, rows), rows

    monkeypatch.setattr(transport, "_flow_solve", doctored)
    g, _ = families.complete(4)
    with pytest.raises(InternalConsistencyError, match=message):
        transport._lazy_flow(g, 0, 1, Fraction(1, 2))
    path = tmp_path / "k4.edges"
    path.write_text(to_edgelist_text(g))
    for checks in ("duality", "integrality", "concavity", "slope-monotonicity"):
        code, out, err = run_cli(capsys, "verify", "--input", str(path), "--checks", checks)
        assert (code, out) == (3, "")
        assert err.startswith("internal error: ") and err.count("\n") == 1
        assert message in err


def test_one_vertex_rotation_is_a_sphere(tmp_path, capsys):
    path = tmp_path / "k1.rot"
    path.write_text("0:\n")
    code, out, err = run_cli(capsys, "curvature", "--input", str(path), "--mode", "comb")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["embedding"] == {"euler_characteristic": 2, "sphere": True}
    assert payload["vertices"] == [{"v": 0, "phi": "2"}]
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--checks", "gauss-bonnet")
    assert code == 0
    assert out == "PASS gauss-bonnet: sum of phi equals 2 exactly\n"


def test_comb_mode_on_a_non_sphere_rotation_exit2(tmp_path, capsys):
    path = tmp_path / "k4_torus.rot"
    path.write_text(to_rotation_text(torus_k4()[1]))
    code, out, err = run_cli(capsys, "curvature", "--input", str(path), "--mode", "comb")
    assert (code, out) == (2, "")
    assert err == "error: embedding has Euler characteristic 0, not a sphere\n"
    code, out, _ = run_cli(capsys, "curvature", "--input", str(path), "--mode", "lly",
                           "--jobs", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["embedding"] == {"euler_characteristic": 0, "sphere": False}
    assert "vertices" not in payload


def test_verify_triangle_exit0(tmp_path, capsys):
    g, rot = families.complete(3)
    path = tmp_path / "k3.rot"
    path.write_text(to_rotation_text(rot))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--seed", "1")
    assert code == 0
    assert "PASS positivity" in out


def test_verify_figure1_all_checks_exit0(tmp_path, capsys):
    g, rot = families.figure1()
    path = tmp_path / "fig1.rot"
    path.write_text(to_rotation_text(rot))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--seed", "0")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS degree-audit" in out


def test_verify_one_vertex_graph_skips_lemma3(tmp_path, capsys):
    path = tmp_path / "k1.rot"
    path.write_text("0:\n")
    code, out, err = run_cli(capsys, "verify", "--input", str(path))
    assert code == 0
    assert "SKIP lemma3: graph has no vertex pair" in out.splitlines()
    assert "error:" not in err


def test_verify_star_with_pendants_exit1(tmp_path, capsys):
    g, *_ = star_with_pendants()
    path = tmp_path / "star.edges"
    path.write_text(to_edgelist_text(g))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--checks", "lemma4")
    assert code == 1
    assert "FAIL lemma4" in out


def test_lemma4_witness_below_kappa_is_an_internal_fault(tmp_path, capsys, monkeypatch):
    # A witness bounds kappa of its edge from above; a kappa above the
    # bound means a solver fault (exit 3), not a failed verification.
    from dataclasses import replace
    from fractions import Fraction

    from riccikit import checks
    from riccikit.structure import lemma4_sweep

    g, *_ = star_with_pendants()
    inst = lemma4_sweep(g)[0]
    bogus = replace(inst, witness=replace(inst.witness, nabla=Fraction(-100)))
    monkeypatch.setattr(checks, "lemma4_sweep", lambda g, seed: [bogus])
    path = tmp_path / "star.edges"
    path.write_text(to_edgelist_text(g))
    code, out, err = run_cli(capsys, "verify", "--input", str(path), "--checks", "lemma4")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: kappa(") and err.count("\n") == 1


def test_verify_check_subset(tmp_path, capsys):
    g, rot = families.complete(3)
    path = tmp_path / "k3.rot"
    path.write_text(to_rotation_text(rot))
    code, out, _ = run_cli(capsys, "verify", "--input", str(path), "--checks",
                           "gauss-bonnet,duality")
    assert code == 0
    assert out.count("\n") == 2


def test_reports_are_deterministic_across_job_counts(tmp_path, capsys):
    g, rot = families.prism(4)
    path = tmp_path / "cube.rot"
    path.write_text(to_rotation_text(rot))
    outputs = []
    for jobs in ("1", "2"):
        out_file = tmp_path / f"out_{jobs}.json"
        code, *_ = run_cli(capsys, "curvature", "--input", str(path), "--mode", "lly",
                           "--jobs", jobs, "--out", str(out_file))
        assert code == 0
        outputs.append(out_file.read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_loads_no_process_machinery():
    # Reports are serial; the CLI must not pay for importing process pools.
    # Its import, which every fresh process pays, loads exactly the package's
    # nine modules.
    src = str(Path(riccikit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = ("import sys, riccikit.cli; "
             "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
             "if m in sys.modules]); "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'riccikit'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    modules = ["riccikit"] + [f"riccikit.{name}" for name in (
        "checks", "cli", "curvature", "families", "graphs", "lp", "structure", "transport")]
    assert result.stdout == f"[]\n{modules}\n"


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # Importing the CLI builds no parser; the first `main` call builds it and
    # later calls reuse it, with the same help text and the same error exits.
    src = str(Path(riccikit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import riccikit.cli as c; print(c._parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "0\n"
    cli._parser.cache_clear()
    path = tmp_path / "k3.edges"
    path.write_text(to_edgelist_text(families.complete(3)[0]))
    first = run_cli(capsys, "transport", "--input", str(path), "0", "1", "--alpha", "0")
    second = run_cli(capsys, "verify", "--input", str(path), "--checks", "duality")
    assert first[0] == 0 and first[1].startswith("W = 1/2\nplan (u v mass):\n")
    assert second == (0, "PASS duality: 9 primal/dual pairs agree exactly\n", "")
    assert cli._parser.cache_info().misses == 1
    fresh = cli.build_parser().format_help()
    for argv, code in [(["--help"], 0), (["curvature"], 2), (["verify", "--seed", "x"], 2)]:
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == code
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        if code == 0:
            assert outputs[0].out == fresh
    assert cli._parser.cache_info().misses == 1


def test_format_flag_overrides_sniffing(tmp_path, capsys):
    g, rot = families.complete(3)
    path = tmp_path / "k3.rot"
    path.write_text(to_rotation_text(rot))
    code, *_ = run_cli(capsys, "curvature", "--input", str(path), "--format", "edgelist",
                       "--jobs", "1")
    assert code == 2  # rotation text is not a valid edge list


def test_input_errors_exit2(tmp_path, capsys):
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    latin1 = tmp_path / "latin1.edges"
    latin1.write_bytes(b"0 1 \xe9\n")
    cases = [
        (["generate", "--family", "cycle", "--n", "2", "--out", str(tmp_path / "c")],
         "cycle needs n >= 3"),
        (["generate", "--family", "figure1", "--n", "3", "--out", str(tmp_path / "f")],
         "takes no parameter"),
        (["curvature", "--input", str(path), "--mode", "alpha", "--jobs", "1"],
         "needs an alpha value"),
        (["curvature", "--input", str(path), "--alpha", "1/2", "--jobs", "1"],
         "only meaningful in mode 'alpha'"),
        (["verify", "--input", str(path), "--checks", "duality,nonsense"],
         "unknown check 'nonsense'"),
        (["verify", "--input", str(path), "--checks", ""], "unknown check ''"),
        (["verify", "--input", str(path), "--checks", ","], "unknown check ''"),
        (["curvature", "--input", str(latin1), "--jobs", "1"], "cannot read"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and message in err


def test_negative_vertex_rotation_exit2(tmp_path, capsys):
    path = tmp_path / "neg.rot"
    path.write_text("-1:\n")
    code, out, err = run_cli(capsys, "curvature", "--input", str(path), "--jobs", "1")
    assert (code, out) == (2, "")
    assert err == "error: negative vertex id -1\n"


@pytest.mark.parametrize("family, n", [("hypercube", "64"), ("cycle", "1000000000000")])
def test_generate_refuses_oversized_family_exit2(tmp_path, capsys, family, n):
    base = tmp_path / "big"
    code, out, err = run_cli(capsys, "generate", "--family", family, "--n", n, "--out", str(base))
    assert (code, out) == (2, "")
    assert err == f"error: family {family!r} with parameter {n} has more than 1000000 edges\n"
    assert list(tmp_path.iterdir()) == []


def test_unwritable_out_exit2(tmp_path, capsys):
    path = tmp_path / "c5.edges"
    path.write_text(to_edgelist_text(families.cycle(5)[0]))
    missing = tmp_path / "nodir"
    for argv in (
        ["curvature", "--input", str(path), "--jobs", "1", "--out", str(missing / "x.json")],
        ["curvature", "--input", str(path), "--jobs", "1", "--out", str(missing / "x.csv")],
        ["generate", "--family", "cycle", "--n", "5", "--out", str(missing / "c")],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: cannot write ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert not missing.exists()


def test_solver_value_error_is_not_bad_input(tmp_path, capsys, monkeypatch):
    # Only input and validation errors exit 2; a ValueError raised inside
    # the solver is a programming error and must not be reported as bad input.
    from riccikit.curvature import LipschitzProgram

    def broken(self):
        raise ValueError("solver bug")

    monkeypatch.setattr(LipschitzProgram, "solve", broken)
    path = tmp_path / "k3.edges"
    path.write_text("0 1\n0 2\n1 2\n")
    for argv in (["curvature", "--input", str(path), "--jobs", "1"],
                 ["verify", "--input", str(path), "--checks", "positivity"]):
        with pytest.raises(ValueError, match="solver bug"):
            main(argv)
