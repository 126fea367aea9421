"""Abstract multigraphs: the underlying objects that get drawn.

Vertices and edges are identified by integers.  Loops and parallel edges
are allowed (intermediate stages of the redrawing pipeline need them);
``is_simple`` distinguishes the graphs accepted by the top-level
pipelines.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable


@dataclass(frozen=True)
class Multigraph:
    """Vertex set plus a list of identified edges.

    ``edges`` maps edge id -> (u, v).  Endpoint order is meaningful only
    as a naming convention: end 0 of edge e is its ``u`` side, end 1 the
    ``v`` side.  A loop has u == v.
    """

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, tuple[int, int]], ...]

    def __post_init__(self) -> None:
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise ValueError("duplicate vertex id")
        seen = set()
        for eid, (u, v) in self.edges:
            if eid in seen:
                raise ValueError(f"duplicate edge id {eid}")
            seen.add(eid)
            if u not in vs or v not in vs:
                raise ValueError(f"edge {eid} references unknown vertex")
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        object.__setattr__(self, "_ends", dict(self.edges))  # O(1) endpoint index
        object.__setattr__(self, "_eids", tuple(eid for eid, _ in self.edges))

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_ids(self) -> tuple[int, ...]:
        return self._eids

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._ends[eid]
        except KeyError:
            raise KeyError(f"unknown edge id {eid}") from None

    def adjacent(self, e: int, f: int) -> bool:
        """True if e and f share at least one endpoint (e != f)."""
        a, b = self.endpoints(e)
        c, d = self.endpoints(f)
        return e != f and len({a, b} & {c, d}) > 0

    @property
    def is_simple(self) -> bool:
        seen = set()
        for _, (u, v) in self.edges:
            if u == v:
                return False
            key = (min(u, v), max(u, v))
            if key in seen:
                return False
            seen.add(key)
        return True

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, vertex_set: set[int]) -> "Multigraph":
        unknown = vertex_set - set(self.vertices)
        if unknown:
            raise KeyError(f"unknown vertex ids {sorted(unknown)}")
        keep = tuple(
            (eid, (u, v)) for eid, (u, v) in self.edges if u in vertex_set and v in vertex_set
        )
        return Multigraph(tuple(sorted(vertex_set)), keep)

    def without_edges(self, edge_set: set[int]) -> "Multigraph":
        """This graph minus the given edges.  What is left of a checked,
        sorted graph needs no second check or sort: only the endpoint
        index and the id tuple are rebuilt."""
        unknown = edge_set.difference(self._ends)
        if unknown:
            raise KeyError(f"unknown edge ids {sorted(unknown)}")
        ends = dict(self._ends)
        for eid in edge_set:
            del ends[eid]
        g = object.__new__(Multigraph)
        object.__setattr__(g, "vertices", self.vertices)
        object.__setattr__(g, "edges", tuple(item for item in self.edges if item[0] in ends))
        object.__setattr__(g, "_ends", ends)
        object.__setattr__(g, "_eids", tuple(ends))
        return g

    def components(self) -> list[tuple[int, ...]]:
        """Connected components as sorted vertex tuples, in id order."""
        return connected_components(self.vertices, (uv for _, uv in self.edges))


def connected_components(nodes: Iterable[int], links: Iterable[tuple[int, int]]) -> list[tuple[int, ...]]:
    """Components of the graph on ``nodes`` with the given links, as sorted
    node tuples in order of their least node."""
    adj: dict[int, list[int]] = {x: [] for x in nodes}
    for a, b in links:
        adj[a].append(b)
        adj[b].append(a)
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        comp = []
        seen.add(start)
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(tuple(sorted(comp)))
    return comps


# -- small named graphs used by tests and the CLI --------------------------


def complete_graph(n: int) -> Multigraph:
    if n < 0:
        raise ValueError("complete graph needs n >= 0")
    verts = tuple(range(n))
    edges = tuple(
        (i, (u, v)) for i, (u, v) in enumerate(combinations(range(n), 2))
    )
    return Multigraph(verts, edges)


def complete_bipartite(a: int, b: int) -> Multigraph:
    if a < 0 or b < 0:
        raise ValueError("complete bipartite graph needs part sizes >= 0")
    verts = tuple(range(a + b))
    edges = []
    eid = 0
    for u in range(a):
        for v in range(a, a + b):
            edges.append((eid, (u, v)))
            eid += 1
    return Multigraph(verts, tuple(edges))


def cycle_graph(n: int) -> Multigraph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    verts = tuple(range(n))
    edges = tuple((i, (i, (i + 1) % n)) for i in range(n))
    return Multigraph(verts, edges)
