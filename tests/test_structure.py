import random
from fractions import Fraction

import pytest

import riccikit.structure
from riccikit import families
from riccikit.curvature import build_lipschitz_program, curvature_report, kappa_lly
from riccikit.graphs import Graph, RotationSystem
from riccikit.structure import (
    degree_audit,
    detect_caps,
    instance_to_json_dict,
    lemma4_check,
    lemma4_sweep,
    lemma4_witness,
)

from oracles import (
    oracle_full_program,
    oracle_lemma4,
    oracle_lemma4_failures,
    random_connected_graph,
    star_with_pendants,
)


def test_detect_caps_wheel_rim_arcs():
    g, rot = families.wheel(6)
    hub = 6
    records = detect_caps(g, rot, hub, span_max=2)
    one_arcs = [r for r in records if r.span == 1 and r.kind == "arc"]
    assert len(one_arcs) == 6  # every consecutive rim pair
    assert not [r for r in records if r.span == 2 and r.kind == "arc"]
    # consecutive rim vertices do bridge span-2 pairs externally
    two_caps = [r for r in records if r.span == 2]
    assert all(r.kind == "cap" and r.witness is not None for r in two_caps)


def test_detect_caps_figure1_two_arcs():
    g, rot = families.figure1()
    records = detect_caps(g, rot, 16, span_max=2)
    two_arcs = [r for r in records if r.span == 2 and r.kind == "arc"]
    # one span-2 window per chord: 8 chords on the even rim vertices
    assert len(two_arcs) == 8
    assert all({r.vertex_a % 2, r.vertex_b % 2} == {0} for r in two_arcs)


def test_detect_caps_external_witness():
    # hub 6 with rim 0..5, plus apex 7 adjacent to rim vertices 0 and 3 only
    g0, rot0 = families.wheel(6)
    edges = list(g0.edges()) + [(0, 7), (3, 7)]
    g = Graph(edges)
    order = {v: list(rot0.order(v)) for v in g0.vertices}
    order[0] = [7] + order[0]
    order[3] = [7] + order[3]
    order[7] = [0, 3]
    rot = RotationSystem(g, order)
    records = detect_caps(g, rot, 6, span_max=3)
    three = [r for r in records if r.span == 3 and r.kind == "cap"]
    assert any(r.witness == 7 and {r.vertex_a, r.vertex_b} == {0, 3} for r in three)


def test_detect_caps_shift_invariance():
    g, rot0 = families.wheel(6)
    hub = 6
    base = rot0.order(hub)
    shifted = RotationSystem(
        g, {v: (base[2:] + base[:2]) if v == hub else rot0.order(v) for v in g.vertices}
    )
    rec0 = detect_caps(g, rot0, hub, span_max=3)
    rec2 = detect_caps(g, shifted, hub, span_max=3)
    assert len(rec0) == len(rec2)
    assert sorted((r.span, r.kind, r.vertex_a, r.vertex_b) for r in rec0) == sorted(
        (r.span, r.kind, r.vertex_a, r.vertex_b) for r in rec2
    )


def test_lemma4_check_empty_subset(k3):
    inst = lemma4_check(k3, 0, 1, ())
    assert inst.lhs == 0
    assert inst.rhs == Fraction(-2)  # -(k + 1 + gamma) with gamma = 1
    assert inst.holds


def test_lemma4_check_cycle(c6):
    inst = lemma4_check(c6, 0, 1, {2})
    assert (inst.lhs, inst.rhs) == (1, 0)
    assert inst.holds


def test_lemma4_check_star_with_pendants_fails():
    g, x, y, subset = star_with_pendants()
    inst = lemma4_check(g, x, y, subset)
    assert (inst.s, inst.k, inst.gamma) == (2, 0, 0)
    assert inst.lhs == 1 and inst.rhs == 3
    assert not inst.holds


def test_lemma4_check_preconditions(k3, c6):
    with pytest.raises(ValueError, match="not an edge"):
        lemma4_check(c6, 0, 2, ())
    with pytest.raises(ValueError, match="deg"):
        g, x, y, _ = star_with_pendants()
        lemma4_check(g, y, x, ())  # wrong orientation: deg(y) < deg(x)
    with pytest.raises(ValueError, match="subset member"):
        lemma4_check(k3, 0, 1, {0})


def test_lemma4_witness_star_with_pendants():
    g, x, y, subset = star_with_pendants()
    w = lemma4_witness(g, x, y, subset)
    assert w[y] == w[7] == w[8] == 1
    assert all(w[v] == -1 for v in range(2, 7))
    assert w[x] == 0
    assert w.nabla == Fraction(-1, 3)
    # Laplacian-gradient certificate really does bound the LP value
    assert kappa_lly(g, x, y) <= w.nabla


def test_lemma4_witness_rejects_holding_instance(k3):
    with pytest.raises(ValueError, match="certifies nothing"):
        lemma4_witness(k3, 0, 1, ())


def test_lemma4_witness_with_subset_overlapping_gamma_x():
    # star with pendants plus the edge x-z1, so S meets Gamma(x)
    g0, x, y, subset = star_with_pendants()
    g = Graph(list(g0.edges()) + [(0, 7)])
    inst = lemma4_check(g, x, y, subset)
    assert not inst.holds and inst.k == 1
    w = lemma4_witness(g, x, y, subset)
    assert w[7] == 1  # +1 class wins for subset members adjacent to x
    assert w.nabla == Fraction(-2, 21)
    assert kappa_lly(g, x, y) <= w.nabla


def test_lemma4_sweep_triangle_empty(k3):
    assert lemma4_sweep(k3) == []


def test_lemma4_sweep_finds_star_instance():
    g, x, y, subset = star_with_pendants()
    failing = lemma4_sweep(g)
    assert failing
    hits = [f for f in failing if (f.x, f.y, f.subset) == (x, y, subset)]
    assert hits and hits[0].witness is not None
    assert hits[0].witness.nabla <= 0
    payload = instance_to_json_dict(hits[0])
    assert payload["S"] == [7, 8] and "nabla_xy_delta_f" in payload


def test_lemma4_sweep_empty_on_positively_curved():
    for g, _ in [families.complete(4), families.icosahedron()]:
        report = curvature_report(g, mode="lly")
        assert report.positively_curved
        assert lemma4_sweep(g) == []


def test_lemma4_sweep_samples_subsets_of_a_degree_11_edge():
    # Hubs 0 and 1, adjacent, with leaves 2..11 and 12..21: deg(y) = 11 is
    # past exhaustive enumeration, so the hub edge's subsets are sampled.
    g = Graph([(0, 1)] + [(0, v) for v in range(2, 12)] + [(1, v) for v in range(12, 22)])
    a = lemma4_sweep(g, seed=5)
    assert a
    assert all((f.x, f.y) == (0, 1) and f.s >= 2 for f in a)
    assert a == lemma4_sweep(g, seed=5)


def test_lemma4_sweep_draws_each_sampled_mask_once_in_first_draw_order():
    # deg(y) = 12: the hub edge's 11 candidates are sampled. Of the 1,024
    # draws at seed 5, 799 masks are distinct; each is evaluated once, at its
    # first draw, and exactly those with at least two leaves fail.
    g = _two_hubs(11)
    assert g.degree(1) > riccikit.structure._EXHAUSTIVE_DEGREE
    candidates = tuple(range(13, 24))
    rng = random.Random(5)
    draws = [rng.getrandbits(len(candidates)) for _ in range(riccikit.structure._SAMPLES)]
    assert len(set(draws)) == 799
    expected = [tuple(c for i, c in enumerate(candidates) if mask >> i & 1)
                for mask in dict.fromkeys(draws) if mask.bit_count() >= 2]
    failing = lemma4_sweep(g, seed=5)
    assert all((f.x, f.y) == (0, 1) for f in failing)
    assert [f.subset for f in failing] == expected
    assert len(failing) == 794


def _two_hubs(leaves):
    """Adjacent hubs 0 and 1, each with `leaves` leaves of its own."""
    return Graph([(0, 1)] + [(0, v) for v in range(2, 2 + leaves)]
                 + [(1, v) for v in range(2 + leaves, 2 + 2 * leaves)])


def _assert_matches_oracle(g, inst, kappa):
    expected = oracle_lemma4(g, inst.x, inst.y, inst.subset)
    assert not expected["holds"]
    for field in ("s", "k", "gamma", "lhs", "overlap", "rhs", "holds"):
        assert getattr(inst, field) == expected[field], field
    assert inst.witness.values == expected["witness"]
    assert inst.witness.nabla == expected["nabla"]
    assert kappa <= inst.witness.nabla <= 0


def test_lemma4_sweep_matches_the_oracle_on_random_graphs():
    # Degrees stay at most 10, so the sweep enumerates every subset and must
    # find exactly the oracle's failing instances.
    rng = random.Random(41)
    total = 0
    for seed in range(50):
        g = random_connected_graph(rng, n_max=22, max_degree=10)
        assert g.max_degree <= 10
        failing = lemma4_sweep(g, seed=seed)
        found = [(inst.x, inst.y, inst.subset) for inst in failing]
        assert len(set(found)) == len(found)
        assert set(found) == oracle_lemma4_failures(g)
        kappa = {}
        for inst in failing:
            if (inst.x, inst.y) not in kappa:
                kappa[inst.x, inst.y] = kappa_lly(g, inst.x, inst.y)
            _assert_matches_oracle(g, inst, kappa[inst.x, inst.y])
        total += len(failing)
    assert total >= 100


def test_lemma4_witnesses_hold_on_the_whole_graph():
    # The program certifies a witness on its own domain, which leaves out
    # common neighbours at deg x = deg y. Extended by 0, each witness must
    # still be 1-Lipschitz on all of G, and its nabla must be the value of
    # the same point in the program over both closed neighbourhoods.
    nx = pytest.importorskip("networkx")
    small, wide = random.Random(5), random.Random(41)
    graphs = [random_connected_graph(small, n_max=12, max_degree=6) for _ in range(60)]
    graphs += [random_connected_graph(wide, n_max=22, max_degree=10) for _ in range(50)]
    graphs.append(star_with_pendants()[0])
    total = outside = 0
    for seed, g in enumerate(graphs):
        dist = dict(nx.all_pairs_shortest_path_length(nx.Graph(list(g.edges()))))
        for inst in lemma4_sweep(g, seed=seed):
            w = inst.witness
            assert all(abs(w[u] - w[v]) <= dist[u][v] for u in g.vertices for v in g.vertices)
            full = oracle_full_program(g, inst.x, inst.y)
            assert full.value({u: w[u] for u in full.domain}) == w.nabla
            domain = build_lipschitz_program(g, inst.x, inst.y).domain
            outside += any(v not in domain for v in w.values)
            total += 1
    assert total >= 200 and outside >= 1


def test_lemma4_sweep_builds_one_program_per_edge(monkeypatch):
    # deg(y) = 17, so the hub edge's subsets are sampled; every failing one
    # is certified by the same program.
    g = _two_hubs(16)
    builds = []
    build = riccikit.structure.build_lipschitz_program

    def counted(g, x, y):
        builds.append((x, y))
        return build(g, x, y)

    monkeypatch.setattr(riccikit.structure, "build_lipschitz_program", counted)
    failing = lemma4_sweep(g, seed=5)
    assert len(failing) > 900
    assert builds == [(0, 1)]
    kappa = kappa_lly(g, 0, 1)
    for inst in failing:
        _assert_matches_oracle(g, inst, kappa)


def test_lemma4_sweep_skips_the_validating_functions(monkeypatch):
    # The sweep's subsets are valid by construction, and a witness comes
    # from the one evaluation that found its instance failing.
    def forbidden(*args):
        raise AssertionError("called on the sweep path")

    g, x, y, subset = star_with_pendants()
    monkeypatch.setattr(riccikit.structure, "lemma4_check", forbidden)
    assert lemma4_witness(g, x, y, subset).nabla == Fraction(-1, 3)
    monkeypatch.setattr(riccikit.structure, "lemma4_witness", forbidden)
    monkeypatch.setattr(riccikit.structure, "_validate_lemma4_inputs", forbidden)
    assert any(inst.subset == subset for inst in lemma4_sweep(g))


def test_degree_audit_applicable_pass():
    g, rot = families.icosahedron()
    report = curvature_report(g, rot=rot, mode="lly")
    audit = degree_audit(g, report)
    assert audit.applicable and audit.passed
    assert audit.max_degree == 5


def test_degree_audit_not_applicable_cycle(c6):
    report = curvature_report(c6, mode="lly")
    audit = degree_audit(c6, report)
    assert not audit.applicable
    assert audit.passed  # vacuous
    assert "not positively curved" in audit.note


def test_degree_audit_counterexample_artifact():
    # doctored report: star graph dressed up as a positively curved sphere
    import dataclasses

    g, rot = families.wheel(18)
    hub_report = curvature_report(g, rot=rot, mode="lly")
    fake_edges = tuple(
        dataclasses.replace(e, kappa=Fraction(1, 100)) for e in hub_report.edges
    )
    doctored = dataclasses.replace(hub_report, edges=fake_edges)
    assert doctored.positively_curved and doctored.max_degree == 18
    audit = degree_audit(g, doctored)
    assert audit.applicable and not audit.passed
    assert audit.counterexample is not None
    assert audit.counterexample["report"]["graph"]["max_degree"] == 18
    assert len(audit.counterexample["edges"]) == g.edge_count
