"""Independent checks of drawing documents.

Everything here reads the raw ``oddplanar-drawing/1`` JSON and never calls
into ``oddplanar``, so a check does not trust the code path that produced
the document.  ``read_map`` checks that the document is a proper
planarization on the sphere and returns its crossing counts.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

DRAWING_FORMAT = "oddplanar-drawing/1"


class MapError(ValueError):
    pass


@dataclass(frozen=True)
class Map:
    vertices: frozenset[int]
    edges: dict[int, tuple[int, int]]
    pair_counts: Counter  # (e, f) with e < f -> crossing points shared
    self_counts: Counter  # e -> self-crossing points
    crossings_on: Counter  # e -> crossing points on e, each counted once

    def odd_partners(self, e: int) -> int:
        return sum(1 for (a, b), c in self.pair_counts.items() if c % 2 and e in (a, b))

    def parity(self, e: int, f: int) -> int:
        return self.pair_counts[(min(e, f), max(e, f))] % 2


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise MapError(message)


def read_map(doc: dict) -> Map:
    """Check the map of a drawing document and return its crossing counts.

    Checked: darts partition into rotations and into involution pairs;
    real nodes are the graph's vertices and crossing nodes have degree 4;
    each edge path runs segment by segment from its end-0 vertex to its
    end-1 vertex, passing straight through crossing nodes (entry and exit
    darts opposite); every crossing node is passed exactly twice; every
    connected component satisfies V - E + F = 2.
    """
    _need(doc.get("format") == DRAWING_FORMAT, "wrong format tag")
    verts = frozenset(doc["graph"]["vertices"])
    edges = {e: (u, v) for e, u, v in doc["graph"]["edges"]}
    _need(len(edges) == len(doc["graph"]["edges"]), "duplicate edge id")
    kind = dict(doc["map"]["nodes"])
    rot = {n: tuple(r) for n, r in doc["map"]["rotations"]}
    _need(set(kind) == set(rot), "nodes and rotations disagree")
    _need({n for n, k in kind.items() if k == "real"} == verts, "real nodes are not the vertices")
    _need(all(k in ("real", "crossing") for k in kind.values()), "unknown node kind")

    node_of: dict[int, int] = {}
    for n, r in rot.items():
        if kind[n] == "crossing":
            _need(len(r) == 4, f"crossing node {n} has degree {len(r)}")
        for d in r:
            _need(d not in node_of, f"dart {d} in two rotations")
            node_of[d] = n
    theta: dict[int, int] = {}
    for a, b in doc["map"]["involution"]:
        _need(a != b and a not in theta and b not in theta, f"bad involution pair {a},{b}")
        theta[a], theta[b] = b, a
    _need(set(theta) == set(node_of), "involution and rotations cover different darts")

    paths = {e: tuple(p) for e, p in doc["edge_paths"]}
    _need(set(paths) == set(edges), "edge paths do not cover the edges")
    used: set[int] = set()
    passes: dict[int, list[int]] = {}
    crossings_on: Counter = Counter()
    for e, p in paths.items():
        u, v = edges[e]
        _need(len(p) >= 2 and len(p) % 2 == 0, f"edge {e} path has odd length")
        _need(node_of.get(p[0]) == u and node_of.get(p[-1]) == v, f"edge {e} path ends are wrong")
        _need(not used.intersection(p) and len(set(p)) == len(p), f"edge {e} reuses a dart")
        used.update(p)
        for i in range(0, len(p), 2):
            _need(theta.get(p[i]) == p[i + 1], f"edge {e} path breaks at dart {p[i]}")
        on_edge = set()
        for i in range(1, len(p) - 1, 2):
            c = node_of[p[i]]
            _need(node_of.get(p[i + 1]) == c and kind[c] == "crossing", f"edge {e} bends at node {c}")
            r = rot[c]
            _need((r.index(p[i]) - r.index(p[i + 1])) % 4 == 2, f"edge {e} touches at node {c}")
            passes.setdefault(c, []).append(e)
            on_edge.add(c)
        crossings_on[e] = len(on_edge)
    _need(used == set(theta), "darts outside every edge path")

    pair_counts: Counter = Counter()
    self_counts: Counter = Counter()
    for c, n in kind.items():
        if n != "crossing":
            continue
        _need(len(passes.get(c, ())) == 2, f"crossing {c} is not passed twice")
        e, f = passes[c]
        if e == f:
            self_counts[e] += 1
        else:
            pair_counts[(min(e, f), max(e, f))] += 1

    _check_euler(rot, theta, node_of)
    return Map(verts, edges, pair_counts, self_counts, crossings_on)


def _check_euler(rot, theta, node_of) -> None:
    parent = {n: n for n in rot}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in theta.items():
        parent[find(node_of[a])] = find(node_of[b])
    succ = {}
    for r in rot.values():
        for i, d in enumerate(r):
            succ[d] = r[(i + 1) % len(r)]
    nodes: Counter = Counter(find(n) for n in rot)
    darts: Counter = Counter(find(node_of[d]) for d in theta)
    faces: Counter = Counter()
    seen: set[int] = set()
    for d0 in theta:
        if d0 in seen:
            continue
        faces[find(node_of[d0])] += 1
        d = d0
        while d not in seen:
            seen.add(d)
            d = succ[theta[d]]
    for comp, v in nodes.items():
        e = darts[comp] // 2
        f = faces[comp] if e else 1
        _need(v - e + f == 2, f"component at node {comp} violates V - E + F = 2")
