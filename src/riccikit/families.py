"""Deterministic generators for named graphs, with canonical embeddings.

Every generator returns (Graph, RotationSystem or None). Rotation lists are
clockwise and realize the usual plane drawing of each family, so tracing
them yields Euler characteristic 2. An embedded family is written as its
rotation alone; its edges are the ones the rotation lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Optional

from .graphs import Graph, RotationSystem, _embedded

MAX_EDGES = 10**6  # edges of the largest graph a FamilySpec builds


def figure1() -> tuple[Graph, RotationSystem]:
    """Positively curved 17-vertex planar graph with maximum degree 16.

    Center 16 joined to a 16-cycle 0..15; chords j to j+2 for even j and
    j to j+4 for j divisible by 4. Spokes sit inside the rim; chords nest
    outside it by span.
    """
    z = 16
    order: dict[int, list[int]] = {z: [0] + list(range(15, 0, -1))}
    for j in range(16):
        cw = []
        if j % 4 == 0:
            cw.append((j - 4) % 16)
        if j % 2 == 0:
            cw.append((j - 2) % 16)
        cw += [(j - 1) % 16, z, (j + 1) % 16]
        if j % 2 == 0:
            cw.append((j + 2) % 16)
        if j % 4 == 0:
            cw.append((j + 4) % 16)
        order[j] = cw
    return _embedded(order)


def cycle(n: int) -> tuple[Graph, RotationSystem]:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return _embedded({i: [(i - 1) % n, (i + 1) % n] for i in range(n)})


def complete(n: int) -> tuple[Graph, Optional[RotationSystem]]:
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    if n > 4:
        return Graph(combinations(range(n), 2)), None
    if n == 2:
        return _embedded({0: [1], 1: [0]})
    if n == 3:
        return _embedded({0: [2, 1], 1: [0, 2], 2: [1, 0]})
    # triangle 0 1 2 with 3 in the middle
    return _embedded({0: [2, 3, 1], 1: [0, 3, 2], 2: [1, 3, 0], 3: [2, 1, 0]})


def wheel(n: int) -> tuple[Graph, RotationSystem]:
    """Hub n joined to an n-cycle 0..n-1."""
    if n < 3:
        raise ValueError("wheel needs rim size n >= 3")
    hub = n
    order: dict[int, list[int]] = {hub: [0] + list(range(n - 1, 0, -1))}
    for i in range(n):
        order[i] = [(i - 1) % n, hub, (i + 1) % n]
    return _embedded(order)


def _prism_order(outer: list[int], inner: list[int]) -> dict[int, list[int]]:
    """Two concentric cycles, outer[i] matched to inner[i]."""
    n = len(outer)
    order = {}
    for i in range(n):
        order[outer[i]] = [outer[(i - 1) % n], inner[i], outer[(i + 1) % n]]
        order[inner[i]] = [outer[i], inner[(i - 1) % n], inner[(i + 1) % n]]
    return order


def prism(n: int) -> tuple[Graph, RotationSystem]:
    """Two concentric n-cycles 0..n-1 (outer) and n..2n-1 (inner), matched up."""
    if n < 3:
        raise ValueError("prism needs n >= 3")
    return _embedded(_prism_order(list(range(n)), [n + i for i in range(n)]))


def antiprism(n: int) -> tuple[Graph, RotationSystem]:
    """Outer n-cycle 0..n-1 and inner n-cycle n..2n-1 joined by a triangle band."""
    if n < 3:
        raise ValueError("antiprism needs n >= 3")
    outer = list(range(n))
    inner = [n + i for i in range(n)]
    order = {}
    for i in range(n):
        order[outer[i]] = [
            outer[(i - 1) % n],
            inner[(i - 1) % n],
            inner[i],
            outer[(i + 1) % n],
        ]
        order[inner[i]] = [
            inner[(i + 1) % n],
            outer[(i + 1) % n],
            outer[i],
            inner[(i - 1) % n],
        ]
    return _embedded(order)


def hypercube(d: int) -> tuple[Graph, Optional[RotationSystem]]:
    """d-dimensional cube on bitstring vertices 0..2^d - 1."""
    if d < 1:
        raise ValueError("hypercube needs d >= 1")
    if d == 1:
        return _embedded({0: [1], 1: [0]})
    if d == 2:
        ring = [0, 1, 3, 2]
        return _embedded({ring[i]: [ring[(i - 1) % 4], ring[(i + 1) % 4]] for i in range(4)})
    if d == 3:
        # outer square 0 1 3 2, inner square 4 5 7 6, spokes v to v+4
        return _embedded(_prism_order([0, 1, 3, 2], [4, 5, 7, 6]))
    n = 1 << d
    return Graph((v, v | (1 << b)) for v in range(n) for b in range(d) if not v & (1 << b)), None


def icosahedron() -> tuple[Graph, RotationSystem]:
    """Apex 0, outer pentagon 1..5, inner pentagon 6..10, apex 11."""
    up = [1, 2, 3, 4, 5]
    low = [6, 7, 8, 9, 10]
    order: dict[int, list[int]] = {
        0: up[:],
        11: [low[0]] + low[:0:-1],
    }
    for i in range(5):
        order[up[i]] = [
            0,
            up[(i - 1) % 5],
            low[(i - 1) % 5],
            low[i],
            up[(i + 1) % 5],
        ]
        order[low[i]] = [
            low[(i + 1) % 5],
            up[(i + 1) % 5],
            up[i],
            low[(i - 1) % 5],
            11,
        ]
    return _embedded(order)


@dataclass(frozen=True)
class FamilySpec:
    """A named generator plus its integer parameter, if any."""

    name: str
    param: Optional[int] = None

    def build(self) -> tuple[Graph, Optional[RotationSystem]]:
        """The family's graph and rotation; a ValueError for a bad name or parameter.

        A parameter whose graph has more than MAX_EDGES edges is refused
        before anything is built. Every parametric family has at least n
        edges once n >= 3, so n > MAX_EDGES is refused without computing
        its count, which for a hypercube is exponential in n.
        """
        entry = FAMILIES.get(self.name)
        if entry is None:
            raise ValueError(f"unknown family {self.name!r}")
        edge_count, factory = entry
        if edge_count is None:
            if self.param is not None:
                raise ValueError(f"family {self.name!r} takes no parameter")
            return factory()
        if self.param is None:
            raise ValueError(f"family {self.name!r} needs a parameter")
        if self.param > MAX_EDGES or self.param > 0 and edge_count(self.param) > MAX_EDGES:
            raise ValueError(
                f"family {self.name!r} with parameter {self.param} has more than "
                f"{MAX_EDGES} edges"
            )
        return factory(self.param)

    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}_{self.param}"


# name -> (edge count as a function of the parameter, or None if the family
# takes none; generator)
FAMILIES: dict[str, tuple[Optional[Callable[[int], int]], Callable]] = {
    "figure1": (None, figure1),
    "icosahedron": (None, icosahedron),
    "cycle": (lambda n: n, cycle),
    "complete": (lambda n: n * (n - 1) // 2, complete),
    "wheel": (lambda n: 2 * n, wheel),
    "prism": (lambda n: 3 * n, prism),
    "antiprism": (lambda n: 4 * n, antiprism),
    "hypercube": (lambda d: d << (d - 1), hypercube),
}
