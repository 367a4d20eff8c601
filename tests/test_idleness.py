"""The certified idleness lines of alpha -> W(m_x^alpha, m_y^alpha) on an edge."""

import random
from fractions import Fraction
from functools import partial

import pytest

from riccikit import checks, families, transport
from riccikit.cli import main
from riccikit.curvature import curvature_report
from riccikit.graphs import Graph
from riccikit.transport import (
    InternalConsistencyError,
    _lazy_flow,
    idleness_lines,
    lazy_measure,
    optimal_transport,
)

from oracles import random_connected_graph

GRID = [Fraction(i, 60) for i in range(61)]
NAMED = [("figure1",), ("icosahedron",),
         *(("prism", n) for n in range(3, 9)), *(("antiprism", n) for n in range(3, 9)),
         *(("wheel", n) for n in range(3, 9)), *(("complete", n) for n in range(2, 8)),
         *(("hypercube", d) for d in range(1, 5))]


def _lines(g, x, y):
    return idleness_lines(g, x, y, partial(_lazy_flow, g))


def _transport_w(g, x, y, alpha):
    """W(m_x^alpha, m_y^alpha) from `optimal_transport`, whose coupling certifies it."""
    return optimal_transport(g, lazy_measure(g, x, alpha), lazy_measure(g, y, alpha)).distance


def _w(lines, alpha):
    """W(alpha), read off the line of the first piece that reaches alpha."""
    return next(c0 + alpha * slope for _, b, c0, slope in lines if alpha <= b)


def _graphs():
    for spec in NAMED:
        yield "-".join(map(str, spec)), families.FamilySpec(*spec).build()[0]
    rng = random.Random(19)
    for i in range(40):
        yield f"random-{i}", random_connected_graph(rng, n_max=9)


@pytest.mark.parametrize("name, g", list(_graphs()), ids=lambda v: v if isinstance(v, str) else "")
def test_pieces_give_lazy_transport_on_the_sixtieths(name, g):
    kappa = {(e.u, e.v): e.kappa for e in curvature_report(g, mode="lly").edges}
    for x, y in g.edges():
        lines = _lines(g, x, y)
        # Bourne, Cushing, Liu, Muench and Peyerimhoff: at most three pieces.
        assert 1 <= len(lines) <= 3
        assert [a for a, *_ in lines] + [1] == [0] + [b for _, b, *_ in lines]
        for alpha in GRID:
            assert _w(lines, alpha) == _transport_w(g, x, y, alpha), (x, y, alpha)
        # On the last piece kappa_alpha = 1 - W = (1 - alpha) kappa_LLY, so W
        # has slope kappa_LLY there; the piece starts by 1 / (max degree + 1).
        last, _, _, slope = lines[-1]
        assert slope == kappa[x, y]
        assert last <= Fraction(1, max(g.degree(x), g.degree(y)) + 1)


def _doctored(at, doctor):
    """`_lazy_flow` with the certified record of the solve of (x, y, alpha) =
    `at` passed through `doctor`; the metric rows stay the solve's own."""
    def solve(g, x, y, alpha, metric=None):
        record, rows = _lazy_flow(g, x, y, alpha, metric)
        return (doctor(record) if (x, y, alpha) == at else record), rows
    return solve


def _lines_with(g, at, doctor):
    return idleness_lines(g, *at[:2], partial(_doctored(at, doctor), g))


def _moved(units, old, new):
    """A copy of `units` with one unit at key `old` moved to key `new`."""
    return {**units, old: units[old] - 1, new: units.get(new, 0) + 1}


def _moved_in_a_row(record):
    """The record with a unit of its flow moved to another head of its first tail."""
    scale, domain, supply, flow, f, total = record
    i, j = min(flow)
    k = next(k for k in range(len(domain)) if k not in (i, j))
    return scale, domain, supply, _moved(flow, (i, j), (i, k)), f, total


def _off_line(record):
    """The record with its W one unit (1 / scale) higher."""
    return (*record[:5], record[5] + 1)


def _first_break():
    """The icosahedron, its edge (0, 1) and the right end of the first piece there."""
    g, _ = families.icosahedron()
    end = _lines(g, 0, 1)[0][1]
    assert end < 1  # an end the search solved, not W(1) = 1
    return g, (0, 1, end)


def test_a_moved_unit_in_an_end_plan_is_caught():
    g, _ = families.icosahedron()
    # A unit of the flow of the left end, alpha = 0, moves to another head of
    # its tail, so that flow no longer conserves the supplies and the left
    # end's certificate of the first piece fails.
    with pytest.raises(InternalConsistencyError, match="does not conserve"):
        _lines_with(g, (0, 1, 0), _moved_in_a_row)


def test_a_potential_value_off_by_one_is_caught():
    g, _ = families.wheel(5)

    def off_by_one(record):
        f = record[4]
        return (*record[:4], {**f, 0: f[0] + 1}, record[5])

    # x = 0 carries net mass alpha - (1 - alpha) / deg(5) = -1/5 at alpha = 0.
    assert g.degree(5) == 5
    with pytest.raises(InternalConsistencyError, match="idleness piece of \\(0, 5\\)"):
        _lines_with(g, (0, 5, 0), off_by_one)


def test_a_moved_unit_in_a_right_end_plan_is_caught():
    g, at = _first_break()
    with pytest.raises(InternalConsistencyError, match="does not conserve"):
        _lines_with(g, at, _moved_in_a_row)


def test_a_moved_unit_in_a_right_end_target_measure_is_caught():
    g, at = _first_break()

    def moved_target(record):  # a unit of demand moves between two target vertices
        scale, domain, supply, flow, f, total = record
        i, j = [k for k, c in enumerate(supply) if c < 0][:2]
        moved = list(supply)
        moved[i], moved[j] = moved[i] + 1, moved[j] - 1
        return scale, domain, moved, flow, f, total

    with pytest.raises(InternalConsistencyError, match="does not conserve"):
        _lines_with(g, at, moved_target)


def test_an_end_off_its_line_is_caught():
    # The flow and the potential still certify each other at the right end,
    # and the search finds the same pieces, so only the checks that its W is
    # the potential's dual value and lies on the piece's line can fail.
    g, at = _first_break()
    with pytest.raises(InternalConsistencyError,
                       match="idleness piece of \\(0, 1\\), alpha .*off the dual line"):
        _lines_with(g, at, _off_line)


@pytest.mark.parametrize("spec", [("figure1",), ("icosahedron",), ("wheel", 5)], ids=str)
def test_each_piece_is_certified_once_at_its_two_ends(spec, monkeypatch):
    g, _ = families.FamilySpec(*spec).build()
    calls, solves = [], []

    def counted(*args):
        calls.append(args)
        return certify(*args)

    def solve(x, y, alpha):
        solves.append(alpha)
        return _lazy_flow(g, x, y, alpha)

    # Each solve certifies itself once, then each piece end once more.
    certify = transport._flow_violations
    monkeypatch.setattr(transport, "_flow_violations", counted)
    for x, y in g.edges():
        lines = idleness_lines(g, x, y, solve)
        assert len(calls) == len(solves) + 2 * len(lines)
        calls.clear()
        solves.clear()


def test_reads_solve_nothing():
    g, _ = families.prism(4)
    calls = []

    def counted(x, y, alpha):
        calls.append(alpha)
        return _lazy_flow(g, x, y, alpha)

    lines = idleness_lines(g, 0, 1, counted)
    solved = len(calls)
    assert [_w(lines, a) for a in GRID] == [_transport_w(g, 0, 1, a) for a in GRID]
    assert len(calls) == solved <= 5


def test_a_failed_certificate_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def doubled(record):  # more flow on an arc than the supplies send
        scale, domain, supply, flow, f, total = record
        key = min(flow)
        return scale, domain, supply, {**flow, key: 2 * flow[key]}, f, total

    monkeypatch.setattr(checks, "_lazy_flow", _doctored((0, 1, 0), doubled))
    path = tmp_path / "k4.edges"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["verify", "--input", str(path), "--checks", "concavity"]) == 3
    assert "internal error: idleness piece of (0, 1)" in capsys.readouterr().err


def test_verify_certifies_a_piece_that_no_grid_point_reads(tmp_path, capsys, monkeypatch):
    # Edge (0, 1) has pieces [0, 3/23], [3/23, 1/6] and [1/6, 1]: no tenth and
    # not L / (L + 1) = 20/21 is an end of the middle one, so a check that read
    # kappa_alpha on that grid never certified W at 3/23.
    edges = "0 1, 0 2, 0 3, 0 4, 1 2, 1 3, 1 4, 1 6, 2 3, 2 6, 3 6, 4 5"
    g = Graph(tuple(map(int, e.split())) for e in edges.split(", "))
    ends = [(a, b) for a, b, _, _ in _lines(g, 0, 1)]
    assert ends == [(0, Fraction(3, 23)), (Fraction(3, 23), Fraction(1, 6)), (Fraction(1, 6), 1)]

    # W at 3/23 moves off the lines of both its pieces.
    monkeypatch.setattr(checks, "_lazy_flow", _doctored((0, 1, Fraction(3, 23)), _off_line))
    path = tmp_path / "random_082.edges"
    path.write_text(edges.replace(", ", "\n") + "\n")
    for check in ("concavity", "slope-monotonicity"):
        assert main(["verify", "--input", str(path), "--checks", check]) == 3
        assert "internal error: idleness piece of (0, 1), alpha 3/23" in capsys.readouterr().err
