"""Simple connected graphs and their canonical arc tables.

Vertices are 0-indexed everywhere. Edges are unordered pairs stored as
(min, max) tuples in lexicographic order; the two arcs of edge i occupy
arc-table indices 2i (low -> high) and 2i+1 (high -> low), so everything
derived from the table is byte-reproducible regardless of input order.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

from .errors import (
    DisconnectedError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    InvalidParameterError,
    SelfLoopError,
)


@dataclass(frozen=True)
class Graph:
    """Validated simple connected graph."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def betti(self) -> int:
        """Cycle-space dimension m - n + 1; zero for trees."""
        return self.m - self.n + 1

    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(deg)

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": [list(e) for e in self.edges]})


@dataclass(frozen=True)
class ArcTable:
    """Oriented edges of a graph in canonical order.

    Arc k = (origin, terminus); the inverse of arc k is arc k XOR 1.
    """

    arcs: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.arcs)

    def origin(self, k: int) -> int:
        return self.arcs[k][0]

    def terminus(self, k: int) -> int:
        return self.arcs[k][1]

    def inverse(self, k: int) -> int:
        return k ^ 1


def build_graph(n: int, edges) -> Graph:
    """Validate and canonicalize a vertex count plus edge list.

    Raises SelfLoopError, DuplicateEdgeError, IndexOutOfRangeError or
    DisconnectedError when the input is not a simple connected graph.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidParameterError(f"vertex count must be a positive integer, got {n!r}")
    canon = []
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2:
            raise InvalidParameterError(f"edge must be a pair, got {e!r}")
        u, v = pair
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
            raise IndexOutOfRangeError(f"vertex indices must be integers, got {e!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRangeError(f"edge {e!r} outside vertex range [0, {n})")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        canon.append((min(u, v), max(u, v)))
    counts = Counter(canon)
    if len(counts) != len(canon):
        dup = sorted(e for e, c in counts.items() if c > 1)
        raise DuplicateEdgeError(f"duplicate edge(s) {dup}")
    # a connected graph has a spanning tree; refuse before allocating O(n)
    if len(canon) < n - 1:
        raise DisconnectedError(
            f"{len(canon)} edge(s) cannot connect {n} vertices, which needs {n - 1}")
    canon.sort()

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in canon:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    reached = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    if reached != n:
        raise DisconnectedError(f"graph reaches {reached} of {n} vertices from vertex 0")
    return Graph(n=n, edges=tuple(canon))


def arc_table(g: Graph) -> ArcTable:
    """Canonical arc table: arcs 2i and 2i+1 are the orientations of edge i."""
    arcs = []
    for u, v in g.edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return ArcTable(arcs=tuple(arcs))


# generate's largest member: 10^6 edges take about 370 MB to build
_MAX_EDGES = 10 ** 6


def generate(family: str, *params: int) -> Graph:
    """Build a canonical member of a named graph family.

    Families: cycle(n>=3), path(n>=2), complete(n>=2),
    complete_bipartite(a>=1, b>=1), star(leaves>=1), petersen(). A member
    with more than 10^6 edges is refused before its edge list is built.
    """
    def need(count):
        if len(params) != count:
            raise InvalidParameterError(
                f"family {family!r} takes {count} parameter(s), got {len(params)}")

    def cap(m):
        if m > _MAX_EDGES:
            raise InvalidParameterError(
                f"family {family!r} member has {m} edges, more than {_MAX_EDGES}")

    if family == "cycle":
        need(1)
        n = params[0]
        if n < 3:
            raise InvalidParameterError("cycle needs n >= 3")
        cap(n)
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "path":
        need(1)
        n = params[0]
        if n < 2:
            raise InvalidParameterError("path needs n >= 2")
        cap(n - 1)
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "complete":
        need(1)
        n = params[0]
        if n < 2:
            raise InvalidParameterError("complete needs n >= 2")
        cap(n * (n - 1) // 2)
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "complete_bipartite":
        need(2)
        a, b = params
        if a < 1 or b < 1:
            raise InvalidParameterError("complete_bipartite needs both parts >= 1")
        cap(a * b)
        return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if family == "star":
        need(1)
        k = params[0]
        if k < 1:
            raise InvalidParameterError("star needs >= 1 leaf")
        cap(k)
        return build_graph(k + 1, [(0, i + 1) for i in range(k)])
    if family == "petersen":
        need(0)
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + ((i + 2) % 5)) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        return build_graph(10, outer + inner + spokes)
    raise InvalidParameterError(f"unknown family {family!r}")


def graph_from_json(text: str) -> Graph:
    """Parse the {"n": ..., "edges": [[u, v], ...]} wire format, validating."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "n" not in raw or "edges" not in raw:
        raise InvalidParameterError('graph JSON must be {"n": ..., "edges": [...]}')
    n = raw["n"]
    edges = raw["edges"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParameterError(f'"n" must be an integer, got {n!r}')
    if not isinstance(edges, list):
        raise InvalidParameterError('"edges" must be a list of pairs')
    return build_graph(n, edges)


# Verification corpus: trees, m = n, m > n, regular and irregular degrees.
CORPUS_NAMES = (
    "K2",
    "C3", "C4", "C5", "C6", "C7", "C8",
    "K4", "K5", "K3,3", "S5", "petersen",
)


def builtin_corpus() -> tuple[tuple[str, Graph], ...]:
    """Named graphs every identity in this package is verified against."""
    out = [("K2", generate("complete", 2))]
    for n in range(3, 9):
        out.append((f"C{n}", generate("cycle", n)))
    out.append(("K4", generate("complete", 4)))
    out.append(("K5", generate("complete", 5)))
    out.append(("K3,3", generate("complete_bipartite", 3, 3)))
    out.append(("S5", generate("star", 5)))
    out.append(("petersen", generate("petersen")))
    return tuple(out)
