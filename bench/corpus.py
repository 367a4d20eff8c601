"""Seeded input generators and the three benchmark corpora.

Everything here is a pure function of the seed: the same seed writes
byte-identical `.edges` / `.rot` files. Graphs are plain data (a sorted edge
list and, for embedded graphs, a clockwise rotation dict), so the files the
program reads never depend on how the program itself would serialise them.
Named families come from `riccikit.families`; that import is part of set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

Edges = list[tuple[int, int]]
Rotation = dict[int, list[int]]


@dataclass(frozen=True)
class Input:
    """One generated input file and the facts the checker needs about it."""

    name: str
    path: Path
    edge_count: int
    embedded: bool


def sub_rng(seed: int, label: str) -> random.Random:
    """Independent stream per input; str seeding is stable across processes."""
    return random.Random(f"{seed}:{label}")


def relabel(edges: Edges, rotation: Optional[Rotation], rng: random.Random):
    """Rename vertices by a seeded permutation, carrying the rotation along.

    The clockwise order at each vertex keeps its cyclic sequence under the new
    names, so a sphere embedding stays a sphere embedding.
    """
    vertices = sorted({v for e in edges for v in e})
    images = list(vertices)
    rng.shuffle(images)
    perm = dict(zip(vertices, images))
    new_edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
    new_rot = None
    if rotation is not None:
        new_rot = {perm[v]: [perm[u] for u in cyc] for v, cyc in rotation.items()}
    return new_edges, new_rot


def random_triangulation(n: int, rng: random.Random, max_degree: int = 8):
    """Sphere triangulation on n >= 3 vertices by repeated face insertion.

    Starts from a triangle (two faces) and inserts each new vertex into a
    uniformly chosen triangular face whose three corners are still below
    `max_degree`, keeping the degree bounded. Insertion never lowers a degree,
    so the process can run out of such faces; it then starts over from the
    triangle with the same generator, which stays deterministic per seed.
    """
    if n < 3:
        raise ValueError("triangulation needs n >= 3")
    while True:
        order = _insert_vertices(n, rng, max_degree)
        if order is not None:
            edges = sorted((u, v) for u, cyc in order.items() for v in cyc if u < v)
            return edges, order


def _insert_vertices(n: int, rng: random.Random, max_degree: int) -> Optional[Rotation]:
    # A face (a, b, c) is the directed walk a -> b -> c -> a under the
    # successor rule (u, v) -> (v, next after u at v), so a vertex w inserted
    # into it goes after a at b, after b at c and after c at a.
    order: Rotation = {0: [1, 2], 1: [2, 0], 2: [0, 1]}
    faces = [(0, 1, 2), (0, 2, 1)]

    def open_face(face) -> bool:
        return all(len(order[v]) < max_degree for v in face)

    for w in range(3, n):
        eligible = [i for i, f in enumerate(faces) if open_face(f)]
        if not eligible:
            return None
        idx = rng.choice(eligible)
        a, b, c = faces[idx]
        for at, after in ((b, a), (c, b), (a, c)):
            cyc = order[at]
            cyc.insert(cyc.index(after) + 1, w)
        order[w] = [b, a, c]
        faces[idx] = (a, b, w)
        faces += [(b, c, w), (c, a, w)]
    return order


def random_connected_graph(n: int, extra: int, rng: random.Random, max_degree: int = 6) -> Edges:
    """Random tree on n vertices plus `extra` more random edges, degrees capped.

    Fewer extra edges are added only when the degree cap leaves no room.
    """
    edges: set[tuple[int, int]] = set()
    degree = [0] * n
    for i in range(1, n):
        j = rng.choice([j for j in range(i) if degree[j] < max_degree])
        edges.add((j, i))
        degree[i] += 1
        degree[j] += 1
    candidates = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    rng.shuffle(candidates)
    for u, v in candidates:
        if extra == 0:
            break
        if degree[u] < max_degree and degree[v] < max_degree:
            edges.add((u, v))
            degree[u] += 1
            degree[v] += 1
            extra -= 1
    return sorted(edges)


def connected_gnp(n: int, p: float, rng: random.Random) -> Edges:
    """Erdos-Renyi G(n, p), redrawn until connected."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        seen = {0}
        stack = [0]
        adj: dict[int, list[int]] = {v: [] for v in range(n)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            return edges


def edgelist_text(edges: Edges) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def rotation_text(rotation: Rotation) -> str:
    return "".join(
        f"{v}: " + " ".join(map(str, rotation[v])) + "\n" for v in sorted(rotation)
    )


def _family(name: str, param: Optional[int] = None):
    """A named riccikit family as plain (edges, rotation-or-None) data."""
    from riccikit.families import FamilySpec

    g, rot = FamilySpec(name, param).build()
    rotation = None if rot is None else {v: list(rot.order(v)) for v in g.vertices}
    return list(g.edges()), rotation


def _write(out_dir: Path, name: str, edges: Edges, rotation: Optional[Rotation]) -> Input:
    if rotation is None:
        path = out_dir / f"{name}.edges"
        path.write_text(edgelist_text(edges), encoding="utf-8")
    else:
        path = out_dir / f"{name}.rot"
        path.write_text(rotation_text(rotation), encoding="utf-8")
    return Input(name, path, len(edges), rotation is not None)


# Sizes are fixed and only structure and labels follow the seed, so a pass
# does the same amount of work under every seed. Each corpus has an odd
# number of inputs whose middle one by cost is a named family, so the
# median command time does not hinge on a seeded graph.
SPARSE_SIZES = (
    ("prism", 100), ("prism", 200), ("prism", 400), ("antiprism", 100), ("antiprism", 200),
)
SPARSE_TRIANGULATIONS = (200, 400)
DENSE_FAMILIES = (
    ("wheel", 50), ("wheel", 60), ("complete", 24), ("complete", 30), ("figure1", None),
    ("hypercube", 6),
)
DENSE_GNP = (24, 0.35)
VERIFY_RANDOM = 99
VERIFY_FAMILIES = (
    ("figure1", None), ("icosahedron", None),
    ("prism", 3), ("prism", 5), ("prism", 8),
    ("antiprism", 3), ("antiprism", 5), ("antiprism", 8),
)


def sparse_corpus(seed: int, out_dir: Path) -> list[Input]:
    """Large bounded-degree sphere graphs as rotation files, relabelled."""
    inputs = []
    for fam, n in SPARSE_SIZES:
        name = f"{fam}_{n}"
        edges, rot = relabel(*_family(fam, n), sub_rng(seed, name))
        inputs.append(_write(out_dir, name, edges, rot))
    for n in SPARSE_TRIANGULATIONS:
        name = f"triangulation_{n}"
        rng = sub_rng(seed, name)
        edges, rot = relabel(*random_triangulation(n, rng), rng)
        inputs.append(_write(out_dir, name, edges, rot))
    return inputs


def dense_corpus(seed: int, out_dir: Path) -> list[Input]:
    """Small high-degree graphs as edge lists; only G(n, p) follows the seed."""
    inputs = []
    for fam, n in DENSE_FAMILIES:
        name = fam if n is None else f"{fam}_{n}"
        edges, _ = _family(fam, n)
        inputs.append(_write(out_dir, name, edges, None))
    n, p = DENSE_GNP
    edges = connected_gnp(n, p, sub_rng(seed, "gnp"))
    inputs.append(_write(out_dir, f"gnp_{n}", edges, None))
    return inputs


def verify_corpus(seed: int, out_dir: Path) -> list[Input]:
    """Small connected graphs plus small sphere graphs.

    The random graphs cover n = 2..12 crossed with nine densities (0 to n
    edges beyond a spanning tree), so the mix of sizes is the same under
    every seed.
    """
    inputs = []
    for i in range(VERIFY_RANDOM):
        name = f"random_{i:03d}"
        n, level = 2 + i % 11, i // 11
        edges = random_connected_graph(n, level * n // 8, sub_rng(seed, name))
        inputs.append(_write(out_dir, name, edges, None))
    for fam, n in VERIFY_FAMILIES:
        name = fam if n is None else f"{fam}_{n}"
        edges, rot = relabel(*_family(fam, n), sub_rng(seed, name))
        inputs.append(_write(out_dir, name, edges, rot))
    return inputs


@dataclass(frozen=True)
class Workload:
    """A corpus plus the CLI command issued once per input in every pass."""

    command: str
    jobs: Optional[int]
    build: object

    def argv(self, item: Input, seed: int, jobs: Optional[int] = None) -> list[str]:
        jobs = self.jobs if jobs is None else jobs
        if self.command == "verify":
            return ["verify", "--input", str(item.path), "--seed", str(seed)]
        return ["curvature", "--input", str(item.path), "--mode", "lly", "--jobs", str(jobs)]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "sparse-lly": Workload("curvature", 2, sparse_corpus),
    "dense-lly": Workload("curvature", 1, dense_corpus),
    "verify-small": Workload("verify", None, verify_corpus),
}
