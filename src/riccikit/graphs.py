"""Graph substrate: immutable simple graphs, BFS metric, rotation systems, faces."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Mapping, Optional, Sequence


class GraphError(ValueError):
    """Invalid graph data: loops, parallel edges, disconnected input, bad ids."""


class ParseError(GraphError):
    """Malformed input text; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Immutable simple connected undirected graph over integer vertex ids.

    Adjacency is kept once, as sorted neighbor tuples, which `has_edge`
    reads too; all operations treat the graph as read-only, so instances
    are safe to share across threads/processes.

    The one mutable part is a search memo that `distance_row` keeps: per
    source vertex, the ball of its last local search. It holds only exact
    distances and hands out new lists, so the graph still behaves as
    immutable; two threads that miss at once at worst repeat a search, and
    either ball is exact. At worst it keeps one map per source vertex, at
    most |V|^2 entries, for a caller who asks for far-apart targets from
    every vertex.
    """

    __slots__ = ("_adj", "_vertices", "_edge_count", "_near")

    def __init__(self, edges: Iterable[tuple[int, int]], vertices: Iterable[int] = ()):
        adj: dict[int, set[int]] = {int(v): set() for v in vertices}
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v < 0 or u < 0:
                raise GraphError(f"negative vertex id in edge {u} {v}")
            if u in adj and v in adj[u]:
                raise GraphError(f"duplicate edge {u} {v}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        if not adj:
            raise GraphError("graph has no vertices")
        if min(adj) < 0:
            raise GraphError(f"negative vertex id {min(adj)}")
        self._adj: dict[int, tuple[int, ...]] = {
            v: tuple(sorted(ns)) for v, ns in sorted(adj.items())
        }
        self._vertices = tuple(self._adj)
        self._edge_count = sum(len(ns) for ns in self._adj.values()) // 2
        self._near: dict[int, dict[int, int]] = {}
        self._check_connected()

    def _check_connected(self) -> None:
        distances_to(self, self._vertices[0], self._vertices)

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_count(self) -> int:
        return len(self._vertices)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def distance_row(self, source: int, targets: Sequence[int]) -> list[int]:
        """[d(source, t) for t in targets], as a new list, read from the search memo.

        The memo keeps the map of the last `distances_to` search from source:
        the whole ball around source out to its farthest target. A search
        runs only when a target lies outside that ball, so the new ball is
        larger and replaces the stored one: source is searched at most once
        per radius. Every stored entry is exact, though the search stopped
        short of the graph: BFS fixes a vertex's distance when it first
        reaches it, and never changes it after.
        """
        try:
            return list(map(self._near[source].__getitem__, targets))
        except KeyError:
            pass
        near = self._near[source] = distances_to(self, source, targets)
        return list(map(near.__getitem__, targets))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as (u, v) with u < v, sorted."""
        return tuple((u, v) for u in self._vertices for v in self._adj[u] if u < v)

    def directed_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple((u, v) for u in self._vertices for v in self._adj[u])

    @property
    def max_degree(self) -> int:
        return max(len(ns) for ns in self._adj.values())

    @property
    def min_degree(self) -> int:
        return min(len(ns) for ns in self._adj.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(tuple(self._adj.items()))

    def __repr__(self) -> str:
        return f"Graph(|V|={self.vertex_count}, |E|={self.edge_count})"


@dataclass(frozen=True)
class DistanceMap:
    """Exact BFS distances from a single source."""

    source: int
    dist: Mapping[int, int]

    def __getitem__(self, v: int) -> int:
        try:
            return self.dist[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    @property
    def eccentricity(self) -> int:
        return max(self.dist.values())


def bfs_distances(g: Graph, source: int) -> DistanceMap:
    """Shortest-path distances from source to every vertex (graph connected)."""
    return DistanceMap(source, distances_to(g, source, g.vertices))


def distances_to(g: Graph, source: int, targets: Iterable[int]) -> dict[int, int]:
    """BFS distances from source to every vertex of the ball that holds the targets.

    The ball has radius r = max d(source, target): the search stops once it
    has reached every target and finished the level of the last one, so
    the map holds every vertex within r and no other. It lists vertices in
    BFS order, so its distances never fall. A target of g that the search
    cannot reach makes g disconnected, which only a Graph under
    construction can be.
    """
    if source not in g:
        raise GraphError(f"unknown vertex {source}")
    dist = {source: 0}
    left = set(targets) - {source}
    reach = g.vertex_count if left else 0  # r, once the last target is met
    queue = [source]
    for u in queue:
        du = dist[u] + 1
        if du > reach:
            break
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = du
                queue.append(w)
                if w in left:
                    left.remove(w)
                    if not left:
                        reach = du
    if left:
        v = min(left)
        if v in g:
            raise GraphError(f"graph is disconnected (e.g. vertex {v} unreachable)")
        raise GraphError(f"unknown vertex {v}")
    return dist


def ball(g: Graph, v: int, r: int) -> set[int]:
    """Closed ball {u : d(v, u) <= r}."""
    if r < 0:
        raise ValueError("radius must be >= 0")
    return {u for u, d in bfs_distances(g, v).dist.items() if d <= r}


def common_neighbors(g: Graph, x: int, y: int) -> set[int]:
    """Common neighborhood of two distinct vertices."""
    if x == y:
        raise ValueError("common_neighbors requires two distinct vertices")
    return set(g.neighbors(x)) & set(g.neighbors(y))


def diameter(g: Graph) -> int:
    """Exact diameter by iFUB (Crescenzi et al., TCS 2013), skipping certified vertices.

    Two double sweeps give a lower bound lb and a centre r. iFUB takes
    vertices by falling BFS level i from r, each eccentricity raising lb;
    a pair that lb does not cover has both ends at most i from r, so at
    most 2i apart, and lb >= 2i is the answer.

    It skips the vertices certified to have eccentricity <= lb. For two
    centres a and b with known distances, d(u, v) <= min(d(a, u) + d(a, v),
    d(b, u) + d(b, v)), and u is certified when that bound is <= lb for
    every v still unsure (`_uncertified`). Every other v was searched or
    certified, so d(u, v) <= lb too. As lb only grows, each vertex above
    the current level is searched or certified, the stop rule covers
    every pair, and the answer is exact.

    The first centres are the last sweep's source and the unsure vertex
    farthest from it. While a round certifies at least half of the unsure
    vertices and iFUB would still search more than two of them, the next
    centres are the unsure vertex highest above r and the unsure vertex
    farthest from it. Prisms and antiprisms then take 6 to 9 BFS runs
    instead of about |V| / 2.
    """
    r, lb = max(g.vertices, key=g.degree), 0
    for _ in range(2):  # double sweeps; r moves to the middle of a longest path found
        dist = bfs_distances(g, r).dist
        a = max(dist, key=dist.get)
        dist = bfs_distances(g, a).dist
        r = max(dist, key=dist.get)
        lb = max(lb, dist[r])
        for _ in range(dist[r] - dist[r] // 2):
            r = next(w for w in g.neighbors(r) if dist[w] == dist[r] - 1)
    levels = bfs_distances(g, r).dist
    unsure = set(g.vertices)  # vertices whose eccentricity may exceed lb
    while True:  # a round: dist maps a, whose eccentricity is at most lb
        before = len(unsure)
        unsure.remove(a)
        if sum(2 * levels[v] > lb for v in unsure) <= 2:
            break
        b = max(unsure, key=dist.get)
        near = bfs_distances(g, b).dist
        lb = max(lb, max(near.values()))
        unsure = _uncertified(dist, near, unsure - {b}, lb)
        if not unsure or 2 * len(unsure) > before:
            break
        a = max(unsure, key=levels.get)
        dist = bfs_distances(g, a).dist
        lb = max(lb, max(dist.values()))
    for v in reversed(levels):  # BFS order, so levels fall
        if lb >= 2 * levels[v]:
            break
        if v in unsure:
            lb = max(lb, bfs_distances(g, v).eccentricity)
    return lb


def _uncertified(da: Mapping[int, int], db: Mapping[int, int], vertices: Iterable[int],
                 lb: int) -> set[int]:
    """{u in vertices : max over v in vertices of min(da[u] + da[v], db[u] + db[v]) > lb}.

    The pair takes the da-sum exactly when (da[u] - db[u]) + (da[v] - db[v])
    <= 0. So after one sort by da - db, the v that take the da-sum for u
    form a prefix, whose largest da is a prefix maximum, and the rest take
    the db-sum, whose largest db is a suffix maximum: O(n log n) in all.
    """
    order = sorted(vertices, key=lambda v: da[v] - db[v])
    gaps = [da[v] - db[v] for v in order]
    none = float("-inf")
    heads = [none, *accumulate((da[v] for v in order), max)]  # max da over order[:k]
    tails = [*accumulate((db[v] for v in reversed(order)), max)][::-1] + [none]  # over order[k:]
    unsure = set()
    for u, gap in zip(order, gaps):
        k = bisect_right(gaps, -gap)
        if da[u] + heads[k] > lb or db[u] + tails[k] > lb:
            unsure.add(u)
    return unsure


class RotationSystem:
    """Clockwise cyclic neighbor order at every vertex of a graph."""

    __slots__ = ("_order",)

    def __init__(self, g: Graph, order: Mapping[int, Sequence[int]]):
        cleaned = {}
        for v in g.vertices:
            if v not in order:
                raise GraphError(f"rotation system missing vertex {v}")
            cycle = tuple(int(u) for u in order[v])
            if sorted(cycle) != sorted(g.neighbors(v)):
                raise GraphError(
                    f"rotation at vertex {v} is not a permutation of its neighbors"
                )
            cleaned[v] = cycle
        extra = set(order) - set(g.vertices)
        if extra:
            raise GraphError(f"rotation system names unknown vertex {min(extra)}")
        self._order = cleaned

    def order(self, v: int) -> tuple[int, ...]:
        try:
            return self._order[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def next_after(self, v: int, u: int) -> int:
        """Neighbor following u in the clockwise order at v."""
        cycle = self.order(v)
        try:
            i = cycle.index(u)
        except ValueError:
            raise GraphError(f"{u} is not a neighbor of {v}") from None
        return cycle[(i + 1) % len(cycle)]

    def vertices(self) -> tuple[int, ...]:
        return tuple(self._order)

    def __eq__(self, other) -> bool:
        return isinstance(other, RotationSystem) and self._order == other._order

    def __repr__(self) -> str:
        return f"RotationSystem({len(self._order)} vertices)"


@dataclass(frozen=True)
class Face:
    """Closed boundary walk of a traced face, as directed edges."""

    walk: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.walk)

    def vertex_cycle(self) -> tuple[int, ...]:
        return tuple(u for u, _ in self.walk)


def trace_faces(g: Graph, rot: RotationSystem) -> tuple[Face, ...]:
    """Partition all directed edges into face walks.

    Successor of directed edge (u, v) is (v, w) with w the neighbor following
    u in the clockwise order at v. The one-vertex graph has one face, with
    an empty walk, so it is a sphere.
    """
    if not g.edge_count:
        return (Face(()),)
    used: set[tuple[int, int]] = set()
    faces = []
    for start in g.directed_edges():
        if start in used:
            continue
        walk = []
        e = start
        while True:
            walk.append(e)
            used.add(e)
            u, v = e
            e = (v, rot.next_after(v, u))
            if e == start:
                break
        faces.append(Face(tuple(walk)))
    return tuple(faces)


@dataclass(frozen=True)
class EmbeddingCheck:
    """Euler-characteristic report for a traced embedding."""

    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int

    @property
    def is_sphere(self) -> bool:
        return self.euler_characteristic == 2


def validate_embedding(g: Graph, faces: Sequence[Face]) -> EmbeddingCheck:
    """Check |V| - |E| + |F| against the sphere value 2."""
    chi = g.vertex_count - g.edge_count + len(faces)
    return EmbeddingCheck(g.vertex_count, g.edge_count, len(faces), chi)


def parse_edgelist(text: str) -> Graph:
    """Parse "u v" lines; '#' lines and blank lines are ignored."""
    edges = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"duplicate edge {u} {v}", lineno)
        seen.add(key)
        edges.append((u, v))
    return Graph(edges)


def parse_rotation(text: str) -> tuple[Graph, RotationSystem]:
    """Parse "v: n1 n2 ... nk" clockwise rotation lines."""
    order: dict[int, tuple[int, ...]] = {}
    first_line: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'v: n1 n2 ...', got {line!r}", lineno)
        try:
            v = int(head)
            cycle = tuple(int(t) for t in tail.split())
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if v in order:
            raise ParseError(f"vertex {v} listed twice", lineno)
        if v in cycle:
            raise ParseError(f"self-loop at vertex {v}", lineno)
        if len(set(cycle)) != len(cycle):
            raise ParseError(f"repeated neighbor in rotation of vertex {v}", lineno)
        order[v] = cycle
        first_line[v] = lineno
    if not order:
        raise ParseError("no rotation lines found")
    for v, cycle in order.items():
        for u in cycle:
            if u not in order:
                raise ParseError(
                    f"vertex {u} appears as a neighbor of {v} but has no rotation line",
                    first_line[v],
                )
            if v not in order[u]:
                raise ParseError(
                    f"asymmetric rotation: {v} lists {u} but {u} does not list {v}",
                    first_line[v],
                )
    return _embedded(order)


def _embedded(order: Mapping[int, Sequence[int]]) -> tuple[Graph, RotationSystem]:
    """The graph whose edges the clockwise rotation `order` lists, with that rotation."""
    g = Graph(((v, u) for v, cycle in order.items() for u in cycle if v < u), vertices=order)
    return g, RotationSystem(g, order)


def parse_graph(text: str, fmt: str = "edgelist") -> tuple[Graph, Optional[RotationSystem]]:
    """Parse either supported format; returns (graph, rotation-or-None)."""
    if fmt == "edgelist":
        return parse_edgelist(text), None
    if fmt == "rotation":
        return parse_rotation(text)
    raise ValueError(f"unknown format {fmt!r}")


def sniff_format(text: str) -> str:
    """Guess the file format from the first data line."""
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        return "rotation" if ":" in line else "edgelist"
    return "edgelist"


def to_edgelist_text(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def to_rotation_text(rot: RotationSystem) -> str:
    lines = []
    for v in sorted(rot.vertices()):
        lines.append(f"{v}: " + " ".join(str(u) for u in rot.order(v)) + "\n")
    return "".join(lines)
