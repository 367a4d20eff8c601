import hashlib
from collections import Counter

import pytest

from riccikit import families
from riccikit.families import FAMILIES, MAX_EDGES, FamilySpec
from riccikit.graphs import to_edgelist_text, to_rotation_text, trace_faces, validate_embedding


def test_figure1_shape(figure1_pair):
    g, rot = figure1_pair
    assert g.vertex_count == 17
    assert g.edge_count == 44  # 16 spokes + 16 rim + 8 short chords + 4 long chords
    assert g.degree(16) == 16
    for j in range(16):
        expected = 7 if j % 4 == 0 else (5 if j % 2 == 0 else 3)
        assert g.degree(j) == expected
    assert (g.max_degree, g.min_degree) == (16, 3)
    faces = trace_faces(g, rot)
    assert validate_embedding(g, faces).is_sphere
    assert Counter(f.size for f in faces) == {3: 28, 4: 1}


def test_prism_is_cube_for_n4():
    g, rot = families.prism(4)
    assert g.vertex_count == 8 and g.edge_count == 12
    assert all(g.degree(v) == 3 for v in g.vertices)
    faces = trace_faces(g, rot)
    assert sorted(f.size for f in faces) == [4] * 6


def test_prism_face_sizes():
    for n in (3, 5, 8):
        g, rot = families.prism(n)
        sizes = Counter(f.size for f in trace_faces(g, rot))
        assert sizes[4] == n and sizes[n] == (2 if n != 4 else sizes[n])
        assert validate_embedding(g, trace_faces(g, rot)).is_sphere


def test_antiprism_3_is_octahedron():
    g, rot = families.antiprism(3)
    assert g.vertex_count == 6 and g.edge_count == 12
    assert all(g.degree(v) == 4 for v in g.vertices)
    sizes = Counter(f.size for f in trace_faces(g, rot))
    assert sizes == {3: 8}


def test_antiprism_faces():
    for n in (4, 5, 7):
        g, rot = families.antiprism(n)
        sizes = Counter(f.size for f in trace_faces(g, rot))
        assert sizes[3] == 2 * n and sizes[n] == 2
        assert validate_embedding(g, trace_faces(g, rot)).is_sphere


def test_cycle_complete_wheel_hypercube():
    g, rot = families.cycle(5)
    assert g.edge_count == 5 and rot is not None

    g, rot = families.complete(4)
    assert g.edge_count == 6
    assert sorted(f.size for f in trace_faces(g, rot)) == [3, 3, 3, 3]

    g, rot = families.complete(6)
    assert g.edge_count == 15 and rot is None

    g, rot = families.wheel(5)
    assert g.vertex_count == 6 and g.degree(5) == 5
    assert validate_embedding(g, trace_faces(g, rot)).is_sphere

    g, rot = families.hypercube(4)
    assert g.vertex_count == 16 and all(g.degree(v) == 4 for v in g.vertices)
    assert rot is None

    g, rot = families.hypercube(2)
    assert sorted(f.size for f in trace_faces(g, rot)) == [4, 4]

    g, rot = families.hypercube(1)
    assert g.edge_count == 1 and rot is not None


def test_icosahedron_shape():
    g, rot = families.icosahedron()
    assert g.vertex_count == 12 and g.edge_count == 30
    assert all(g.degree(v) == 5 for v in g.vertices)
    sizes = Counter(f.size for f in trace_faces(g, rot))
    assert sizes == {3: 20}


def test_every_emitted_rotation_is_spherical():
    cases = [
        families.figure1(),
        families.icosahedron(),
        families.cycle(7),
        families.complete(2),
        families.complete(3),
        families.complete(4),
        families.wheel(8),
        families.prism(6),
        families.antiprism(6),
        families.hypercube(1),
        families.hypercube(2),
        families.hypercube(3),
    ]
    for g, rot in cases:
        assert rot is not None
        check = validate_embedding(g, trace_faces(g, rot))
        assert check.is_sphere, f"{g!r} traced to characteristic {check.euler_characteristic}"


def test_generators_are_deterministic():
    for spec in [FamilySpec("figure1"), FamilySpec("prism", 7), FamilySpec("antiprism", 4)]:
        g1, r1 = spec.build()
        g2, r2 = spec.build()
        assert to_edgelist_text(g1) == to_edgelist_text(g2)
        assert to_rotation_text(r1) == to_rotation_text(r2)


def test_parameter_validation():
    for name, bad in [("cycle", 2), ("complete", 1), ("wheel", 2),
                      ("prism", 2), ("antiprism", 2), ("hypercube", 0)]:
        with pytest.raises(ValueError):
            FamilySpec(name, bad).build()
    with pytest.raises(ValueError, match="needs a parameter"):
        FamilySpec("prism").build()
    with pytest.raises(ValueError, match="takes no parameter"):
        FamilySpec("figure1", 3).build()
    with pytest.raises(ValueError, match="unknown family"):
        FamilySpec("petersen").build()
    assert FamilySpec("prism", 5).label() == "prism_5"


def _transcript(name: str) -> str:
    """Edge-list and rotation text, or the ValueError text, of each parameter."""
    takes_param = FAMILIES[name][0] is not None
    params = range(1, 11 if name == "hypercube" else 40) if takes_param else [None]
    parts = []
    for p in params:
        try:
            g, rot = FamilySpec(name, p).build()
        except ValueError as exc:
            parts.append(f"{p}: {exc}\n")
            continue
        parts.append(f"{p}:\n{to_edgelist_text(g)}--\n{to_rotation_text(rot) if rot else ''}")
    return "".join(parts)


# SHA-256 of `_transcript`, taken from the generators that listed every edge
# by hand, before the embedded families derived their edges from the rotation.
FAMILY_DIGESTS = {
    "antiprism": "90ec39669eaaa33941441fc81c47673d3d9b975376d0b989ec344df524dce922",
    "complete": "acdbddfaccff95260cf92bdb4a2e177c7f698c62b2ebd04c101ae54f0e4a2d1e",
    "cycle": "6b0b397a03eeb15bc174510542fa40452b2d26a927f168f39dc8dcd12a47bd41",
    "figure1": "1187990af4b00d127437dff6b37d53a1d1705c1968a60b512a65eafada5a785f",
    "hypercube": "8d991fa76e367bdd262cf4f7ec3a3a2f6584357905804c60e0420f64ed8a0c99",
    "icosahedron": "912f018ec447dd75cf0177e783ef9c20d73679b7efeac23247dd23c5879cc29f",
    "prism": "46a3cf4171a95eef2101ecad63263552ac299fdd1eb08503df41554225740745",
    "wheel": "cf3037f095d0e1d57be9f5356e88837664c761a3e212c2c49e37648fff4db5f8",
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_texts_are_pinned(name):
    assert FAMILY_DIGESTS.keys() == FAMILIES.keys()
    assert hashlib.sha256(_transcript(name).encode()).hexdigest() == FAMILY_DIGESTS[name]


def test_size_bound_is_checked_before_building(monkeypatch):
    def never(n):
        raise AssertionError(f"built with parameter {n}")

    for name, n in [("hypercube", 17), ("hypercube", 64), ("hypercube", 10**12),
                    ("cycle", MAX_EDGES + 1), ("complete", 1415), ("wheel", 500_001),
                    ("prism", 333_334), ("antiprism", 250_001)]:
        count, _ = FAMILIES[name]
        monkeypatch.setitem(FAMILIES, name, (count, never))
        with pytest.raises(ValueError, match=f"more than {MAX_EDGES} edges"):
            FamilySpec(name, n).build()
    # the largest parameters within the bound still reach the generator
    for name, n in [("hypercube", 16), ("cycle", MAX_EDGES), ("complete", 1414),
                    ("wheel", 500_000), ("prism", 333_333), ("antiprism", 250_000)]:
        with pytest.raises(AssertionError, match=f"built with parameter {n}"):
            FamilySpec(name, n).build()
