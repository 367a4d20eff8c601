"""The certified idleness pieces of alpha -> W(m_x^alpha, m_y^alpha) on an edge."""

import random
from fractions import Fraction
from functools import partial

import pytest

from riccikit import families, transport
from riccikit.cli import main
from riccikit.curvature import _lazy_transport, curvature_report
from riccikit.graphs import Graph
from riccikit.transport import IdlenessPieces, InternalConsistencyError, TransportError

from oracles import random_connected_graph

GRID = [Fraction(i, 60) for i in range(61)]
NAMED = [("figure1",), ("icosahedron",),
         *(("prism", n) for n in range(3, 9)), *(("antiprism", n) for n in range(3, 9)),
         *(("wheel", n) for n in range(3, 9)), *(("complete", n) for n in range(2, 8)),
         *(("hypercube", d) for d in range(1, 5))]


def _pieces(g, x, y):
    return IdlenessPieces(g, x, y, partial(_lazy_transport, g))


def _graphs():
    for spec in NAMED:
        yield "-".join(map(str, spec)), families.FamilySpec(*spec).build()[0]
    rng = random.Random(19)
    for i in range(40):
        yield f"random-{i}", random_connected_graph(rng, n_max=9)


@pytest.mark.parametrize("name, g", list(_graphs()), ids=lambda v: v if isinstance(v, str) else "")
def test_pieces_give_lazy_transport_on_the_sixtieths(name, g):
    kappa = {(e.u, e.v): e.kappa for e in curvature_report(g, mode="lly").edges}
    solve = partial(_lazy_transport, g)
    for x, y in g.edges():
        pieces = IdlenessPieces(g, x, y, solve)
        # Bourne, Cushing, Liu, Muench and Peyerimhoff: at most three pieces.
        assert 1 <= len(pieces.pieces) <= 3
        assert [p[0][0] for p in pieces.pieces] + [1] == [0] + [p[1][0] for p in pieces.pieces]
        for alpha in GRID:
            assert pieces.distance(alpha) == solve(x, y, alpha).distance, (x, y, alpha)
        # On the last piece kappa_alpha = 1 - W = (1 - alpha) kappa_LLY, so W
        # has slope kappa_LLY there; the piece starts by 1 / (max degree + 1).
        assert pieces.pieces[-1][3][1] == kappa[x, y]
        last = pieces.pieces[-1][0][0]
        assert last <= Fraction(1, max(g.degree(x), g.degree(y)) + 1)


def _middle(pieces):
    """An alpha strictly inside the first piece, the piece's left end and its
    potential's values."""
    start, end, f, _ = pieces.pieces[0]
    return (start[0] + end[0]) / 2, start, f.values


def _move_mass(masses, old, new):
    """Move half the mass at key `old` to key `new` of the same mapping."""
    half = masses[old] / 2
    masses[old] -= half
    masses[new] = masses.get(new, 0) + half


def test_a_moved_unit_in_an_end_plan_is_caught():
    g, _ = families.icosahedron()
    pieces = _pieces(g, 0, 1)
    alpha, start, _ = _middle(pieces)
    # Mass in the left end's plan moves to another column of its row, so
    # that plan no longer has the target's column sums and the left end's
    # certificate of the piece fails.
    entries = start[2].entries
    u, v = min(entries)
    _move_mass(entries, (u, v), (u, next(k[1] for k in entries if k[1] != v)))
    with pytest.raises(InternalConsistencyError, match="column sums"):
        pieces.distance(alpha)


def test_a_potential_value_off_by_one_is_caught():
    g, _ = families.wheel(5)
    pieces = _pieces(g, 0, 5)
    alpha, _, f = _middle(pieces)
    # x = 0 carries net mass alpha - (1 - alpha) / deg(5) != 0 at this alpha.
    assert alpha != Fraction(1, g.degree(5) + 1)
    f[0] += 1
    with pytest.raises(InternalConsistencyError, match="idleness piece of \\(0, 5\\)"):
        pieces.distance(alpha)


def _right_end_of_first_piece():
    """The icosahedron's edge (0, 1), an alpha strictly inside its first piece, and
    that piece's right end."""
    g, _ = families.icosahedron()
    pieces = _pieces(g, 0, 1)
    start, end, _, _ = pieces.pieces[0]
    assert end[0] < 1  # an end the search solved, not W(1) = 1
    return pieces, (start[0] + end[0]) / 2, end


def test_a_moved_unit_in_a_right_end_plan_is_caught():
    pieces, alpha, end = _right_end_of_first_piece()
    entries = end[2].entries
    u, v = min(entries)
    _move_mass(entries, (u, v), (u, next(k[1] for k in entries if k[1] != v)))
    with pytest.raises(InternalConsistencyError, match="column sums"):
        pieces.distance(alpha)


def test_a_moved_unit_in_a_right_end_target_measure_is_caught():
    pieces, alpha, end = _right_end_of_first_piece()
    target = end[2].target._mass
    _move_mass(target, min(target), max(target))
    with pytest.raises(InternalConsistencyError, match="column sums"):
        pieces.distance(alpha)


def test_an_end_off_its_line_is_caught():
    # The plan and the potential still certify each other at the right end,
    # so only the check that its W lies on the piece's line can fail.
    pieces, alpha, (b, w, plan) = _right_end_of_first_piece()
    start, _, f, line = pieces.pieces[0]
    pieces.pieces[0] = start, (b, w + Fraction(1, w.denominator), plan), f, line
    with pytest.raises(InternalConsistencyError,
                       match="idleness piece of \\(0, 1\\), alpha .*off the dual line"):
        pieces.distance(alpha)


@pytest.mark.parametrize("alpha", [Fraction(3, 2), Fraction(-1, 2)], ids=str)
def test_a_read_outside_the_unit_interval_is_refused(alpha):
    g, _ = families.prism(4)
    with pytest.raises(TransportError, match=f"alpha must lie in \\[0, 1\\], got {alpha}"):
        _pieces(g, 0, 1).distance(alpha)


@pytest.mark.parametrize("spec", [("figure1",), ("icosahedron",), ("wheel", 5)], ids=str)
def test_each_piece_is_certified_once_at_its_two_ends(spec, monkeypatch):
    g, _ = families.FamilySpec(*spec).build()
    readers = [lambda pieces: [pieces.distance(a) for a in GRID], IdlenessPieces.lines]
    # Built before counting: building runs solves, which certify themselves.
    built = [(read, _pieces(g, x, y)) for x, y in g.edges() for read in readers]
    calls = []

    def counted(*args):
        calls.append(args)
        return certify(*args)

    certify = transport.verify_duality
    monkeypatch.setattr(transport, "verify_duality", counted)
    for read, pieces in built:
        first = read(pieces)
        assert len(calls) == 2 * len(pieces.pieces)
        assert read(pieces) == first
        assert len(calls) == 2 * len(pieces.pieces)
        calls.clear()


def test_reads_solve_nothing():
    g, _ = families.prism(4)
    calls = []

    def counted(x, y, alpha):
        calls.append(alpha)
        return _lazy_transport(g, x, y, alpha)

    pieces = IdlenessPieces(g, 0, 1, counted)
    solved = len(calls)
    assert [pieces.distance(a) for a in GRID] == [_lazy_transport(g, 0, 1, a).distance
                                                  for a in GRID]
    assert len(calls) == solved <= 5


def test_a_failed_certificate_is_an_internal_error(tmp_path, capsys, monkeypatch):
    build = IdlenessPieces.__init__

    def corrupted(self, *args):
        build(self, *args)
        entries = self.pieces[0][0][2].entries
        entries[min(entries)] *= 2  # more mass than the source measure holds

    monkeypatch.setattr(IdlenessPieces, "__init__", corrupted)
    path = tmp_path / "k4.edges"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    assert main(["verify", "--input", str(path), "--checks", "concavity"]) == 3
    assert "internal error: idleness piece of (0, 1)" in capsys.readouterr().err


def test_verify_certifies_a_piece_that_no_grid_point_reads(tmp_path, capsys, monkeypatch):
    # Edge (0, 1) has pieces [0, 3/23], [3/23, 1/6] and [1/6, 1]: no tenth and
    # not L / (L + 1) = 20/21 falls in the middle one, so a check that read
    # kappa_alpha on that grid never certified it.
    edges = "0 1, 0 2, 0 3, 0 4, 1 2, 1 3, 1 4, 1 6, 2 3, 2 6, 3 6, 4 5"
    g = Graph(tuple(map(int, e.split())) for e in edges.split(", "))
    ends = [(a[0], b[0]) for a, b, _, _ in _pieces(g, 0, 1).pieces]
    assert ends == [(0, Fraction(3, 23)), (Fraction(3, 23), Fraction(1, 6)), (Fraction(1, 6), 1)]
    build = IdlenessPieces.__init__

    def corrupted(self, g, x, y, *args):
        build(self, g, x, y, *args)
        if (x, y) == (0, 1):  # the middle piece's W at 3/23 moves off its line
            (a, w, plan), *rest = self.pieces[1]
            self.pieces[1] = ((a, w + Fraction(1, w.denominator), plan), *rest)

    monkeypatch.setattr(IdlenessPieces, "__init__", corrupted)
    path = tmp_path / "random_082.edges"
    path.write_text(edges.replace(", ", "\n") + "\n")
    for check in ("concavity", "slope-monotonicity"):
        assert main(["verify", "--input", str(path), "--checks", check]) == 3
        assert "internal error: idleness piece of (0, 1)" in capsys.readouterr().err
