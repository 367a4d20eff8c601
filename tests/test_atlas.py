"""Every connected graph on 2 to 7 vertices, from networkx's graph atlas.

The atlas lists each graph on up to 7 vertices once up to isomorphism, so a
fact asserted on all of it holds on every graph of that size. Each graph is
relabelled with a seeded permutation, so a fault that depends on labels
still shows.
"""

import random
from functools import partial
from itertools import combinations

import networkx as nx

from riccikit.curvature import kappa_lly
from riccikit.graphs import Graph
from riccikit.structure import lemma4_sweep
from riccikit.transport import _lazy_flow, idleness_lines

from oracles import oracle_kappa, relabeled

KAPPA_STRIDE = 3  # every 3rd connected graph: 3,556 of the 10,664 edges
PIECE_STRIDE = 4  # every 4th connected graph: 2,666 of the 10,664 edges


def _atlas(stride):
    connected = [h for h in nx.graph_atlas_g() if h.number_of_nodes() >= 2 and nx.is_connected(h)]
    rng = random.Random(13)
    return [relabeled(Graph(h.edges()), rng)[0] for h in connected[::stride]]


def test_kappa_lly_matches_the_oracle_on_the_atlas():
    edges = 0
    for g in _atlas(KAPPA_STRIDE):
        for x, y in g.edges():
            assert kappa_lly(g, x, y) == oracle_kappa(g, x, y), (x, y)
            edges += 1
    assert edges == 3556


def test_lemma3_on_the_atlas():
    # Lemma 3: no vertex pair is less curved than the least curved edge.
    graphs = _atlas(1)
    for g in graphs:
        kappa = {(u, v): kappa_lly(g, u, v) for u, v in combinations(g.vertices, 2)}
        assert min(kappa.values()) >= min(kappa[e] for e in g.edges()), g.edges()
    assert len(graphs) == 995


def test_lemma4_witnesses_bound_kappa_on_the_atlas():
    # Each failing instance's witness f is feasible for the edge's Lipschitz
    # program, so kappa(x, y) <= Lf(x) - Lf(y) = nabla, and the lemma's proof
    # makes nabla <= 0.
    failing = 0
    for g in _atlas(1):
        for inst in lemma4_sweep(g):
            assert kappa_lly(g, inst.x, inst.y) <= inst.witness.nabla <= 0, (inst.x, inst.y)
            failing += 1
    assert failing == 92


def test_idleness_lines_on_the_atlas():
    # The certified lines of alpha -> W cover [0, 1]; W is convex, so the
    # slopes rise; kappa_alpha / (1 - alpha) = (1 - c0 - alpha * slope) /
    # (1 - alpha) does not fall on a piece, so 1 - c0 - slope >= 0; and W(1)
    # = 1 on the last piece, so its slope is kappa_LLY.
    edges = 0
    for g in _atlas(PIECE_STRIDE):
        for x, y in g.edges():
            lines = idleness_lines(g, x, y, partial(_lazy_flow, g))
            assert [a for a, *_ in lines] + [1] == [0] + [b for _, b, *_ in lines], (x, y)
            slopes = [slope for *_, slope in lines]
            assert slopes == sorted(set(slopes)), (x, y)
            assert all(1 - c0 - slope >= 0 for _, _, c0, slope in lines), (x, y)
            assert slopes[-1] == kappa_lly(g, x, y), (x, y)
            edges += 1
    assert edges == 2666
