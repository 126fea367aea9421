"""Deterministic SVG rendering of drawings.

Layout is Tutte's barycentric drawing of a triangulated layout graph,
one per map component.  The graph holds every map node, a point on each
dart of a loop and on each segment parallel to another (so edges may
become polylines), a corner point of its own for every node occurrence
that repeats on a face walk (joined to its node, to its polygon
neighbours and, where two replaced occurrences follow each other, by a
diagonal), and a star in every inner face longer than a triangle.  The
outer face (largest, ties by least dart) is pinned clockwise on a convex
polygon of exact rational circle points and every other point sits at
the average of its neighbours, found by one exact sparse solve.  A simple
plane triangulation with a convex outer face draws without crossings, so
the picture is then only audited, in linear time after one sort per
point: the directions from each point to its neighbours give the layout
graph a rotation system, which must pass the Euler check and have
counterclockwise triangles for faces besides the pinned outer polygon,
and the clockwise order at every map node must equal its stored
rotation.  A failed audit raises DegenerateLayout, which is a bug for
valid drawings.

Coordinates in the output are fixed-precision decimals (6 places)
derived from the exact rationals, so renders are byte-stable.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key

from .drawing import Drawing
from .graphs import Multigraph


class DegenerateLayout(RuntimeError):
    pass


_MARGIN = 30


Point = tuple[Fraction, Fraction]


def _circle_points(count: int) -> list[Point]:
    """Exact rational points on the unit circle in counterclockwise
    order, via the tangent half-angle parametrization."""
    pts = []
    for i in range(count):
        t = Fraction(round(math.tan((2 * i + 1) * math.pi / (2 * count)) * 10**6), 10**6)
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return pts


def _solve_barycentric(interior: list, neighbors: dict, pinned: dict) -> dict:
    """Exact solution of x_v = average of v's neighbours for every interior
    v, the rest pinned.  The system is symmetric positive definite on a
    connected graph with a pin, so sparse elimination needs no pivot
    search: eliminate the unknown with the fewest nonzeros first (ties by
    ``repr``), which keeps the fill of planar systems small, then
    back-substitute."""
    rows: dict = {}
    rhs: dict = {}
    for v in interior:
        row = rows[v] = {v: Fraction(len(neighbors[v]))}
        bx = by = Fraction(0)
        for w in neighbors[v]:
            if w in pinned:
                bx += pinned[w][0]
                by += pinned[w][1]
            else:
                row[w] = -1
        rhs[v] = (bx, by)
    heap = [(len(rows[v]), repr(v), v) for v in interior]
    heapq.heapify(heap)
    order = []
    while heap:
        size, _, p = heapq.heappop(heap)
        if p not in rows or size != len(rows[p]):
            continue  # eliminated already, or a stale size
        prow = rows.pop(p)
        order.append((p, prow))
        px, py = rhs[p]
        for r in prow:
            if r == p:
                continue
            row = rows[r]
            f = row.pop(p) / prow[p]
            for c, a in prow.items():
                if c != p:
                    row[c] = row.get(c, 0) - f * a
                    if not row[c]:
                        del row[c]
            rx, ry = rhs[r]
            rhs[r] = (rx - f * px, ry - f * py)
            heapq.heappush(heap, (len(row), repr(r), r))
    out = dict(pinned)
    for p, prow in reversed(order):
        x, y = rhs[p]
        for c, a in prow.items():
            if c != p:
                x -= a * out[c][0]
                y -= a * out[c][1]
        out[p] = (x / prow[p], y / prow[p])
    return out


def _half(v) -> int:
    x, y = v
    return 0 if (y > 0 or (y == 0 and x > 0)) else 1


def _ccw_cmp(a, b) -> int:
    va, vb = a[0], b[0]
    ha, hb = _half(va), _half(vb)
    if ha != hb:
        return -1 if ha < hb else 1
    cr = va[0] * vb[1] - va[1] * vb[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


# Sort key for (vector, payload) pairs: counterclockwise by the exact
# direction of the nonzero vector, starting at the positive x axis.
ccw_key = cmp_to_key(_ccw_cmp)


class _LayoutPlan:
    """One component's layout: the triangulated layout graph, its single
    barycentric solve, and the audit of the picture it gives."""

    def __init__(self, d: Drawing, comp: tuple[int, ...]):
        self.d = d
        self.comp = set(comp)
        self.darts = [x for n in comp for x in d.rotation[n]]

    def layout(self) -> tuple[dict, dict, dict, dict]:
        """(positions, mids, neighbors, pinned): every layout point's exact
        position, the subdivision point on each subdivided dart's side of
        its segment, the layout graph's adjacency sets, and the outer
        polygon's points with their pins, in pin order."""
        d = self.d
        ends = {x: frozenset((d.dart_node(x), d.dart_node(d.theta[x]))) for x in self.darts}
        twins = Counter(ends.values())  # each segment counts twice, once per dart
        mids: dict[int, tuple] = {}
        for x, pair in ends.items():
            if len(pair) == 1:
                mids[x] = ("mid", x)
            elif twins[pair] > 2:
                mids[x] = ("mid", min(x, d.theta[x]))
        neighbors: dict = {}

        def link(a, b):
            neighbors.setdefault(a, set()).add(b)
            neighbors.setdefault(b, set()).add(a)

        faces = [f for f in d.faces() if d.dart_node(f[0]) in self.comp]
        outer = min(faces, key=lambda f: (-len(f), f))
        for face in faces:
            walk = []
            for x in face:
                walk.append(d.dart_node(x))
                if x in mids:
                    walk.append(mids[x])
                    if mids[d.theta[x]] != mids[x]:
                        walk.append(mids[d.theta[x]])
            # The face polygon: each occurrence of a point the walk repeats
            # becomes a corner point of its own, so the polygon is simple.
            seen = Counter(walk)
            poly = [("corner", face[0], i) if seen[v] > 1 else v for i, v in enumerate(walk)]
            for i, (a, pa) in enumerate(zip(walk, poly)):
                b, pb = walk[(i + 1) % len(walk)], poly[(i + 1) % len(poly)]
                # Walk step a-b and polygon edge pa-pb; a corner's spoke to
                # its point, and a diagonal where both ends are corners, cut
                # the strip between them into triangles.
                link(a, b)
                link(pa, pb)
                if pa != a:
                    link(pa, a)
                    if pb != b:
                        link(pa, b)
            if face == outer:
                ring = _circle_points(len(poly))
                ring.reverse()  # pin the outer polygon clockwise
                pinned = dict(zip(poly, ring))
            elif len(poly) > 3:
                for p in poly:
                    link(("star", face[0]), p)
        interior = [v for v in neighbors if v not in pinned]
        return _solve_barycentric(interior, neighbors, pinned), mids, neighbors, pinned

    def _verify(self, pos, mids, neighbors, pinned) -> bool:
        """Audit the picture as a triangulation.  Sorting each point's
        neighbours by direction gives the layout graph the rotation system
        of the picture.  The audit accepts if that map is a sphere map, if
        its faces are counterclockwise triangles plus the outer polygon,
        walked in pin order and sitting at its pins, and if every map
        node's darts leave it in the order of its stored rotation.  That is
        enough: the layout is then a triangulated disk whose boundary goes
        once around a convex polygon and whose triangles all keep their
        orientation, so by a degree argument every point inside the polygon
        is covered exactly once, and no two layout edges meet outside a
        shared endpoint.  Every drawn segment is a layout edge."""
        if any(pos[p] != at for p, at in pinned.items()):
            return False
        d = self.d
        # Orientation is invariant under a positive scale, so the audit
        # runs exactly on integers.
        unit = math.lcm(*(c.denominator for p in pos.values() for c in p))
        pos = {k: (x.numerator * (unit // x.denominator), y.numerator * (unit // y.denominator))
               for k, (x, y) in pos.items()}
        keys = list(neighbors)
        ids = {p: i for i, p in enumerate(keys)}
        clockwise: dict = {}
        edges: dict = {}
        rotation: dict = {}
        for p, near in neighbors.items():
            px, py = pos[p]
            vecs = [((pos[q][0] - px, pos[q][1] - py), q) for q in near]
            if any(v == (0, 0) for v, _ in vecs):
                return False
            dirs = sorted(vecs, key=ccw_key)
            for (a, _), (b, _) in zip(dirs, dirs[1:]):
                if a[0] * b[1] - a[1] * b[0] == 0 and a[0] * b[0] + a[1] * b[1] > 0:
                    return False  # two neighbours in one direction
            clockwise[p] = [q for _, q in reversed(dirs)]
            i = ids[p]
            ends = []
            for q in clockwise[p]:
                j = ids[q]
                ends.append((edges.setdefault((min(i, j), max(i, j)), len(edges)), int(j < i)))
            rotation[i] = tuple(ends)
        for n in self.comp:
            rot = d.rotation[n]
            dart_to = {mids.get(x, d.dart_node(d.theta[x])): x for x in rot}
            order = [dart_to[q] for q in clockwise[n] if q in dart_to]
            j = order.index(rot[0])
            if tuple(order[j:] + order[:j]) != rot:
                return False
        graph = Multigraph(tuple(range(len(keys))), tuple((e, uv) for uv, e in edges.items()))
        tri = Drawing.crossing_free(graph, rotation, validate=False)
        if tri.validate():
            return False  # not a sphere map
        rest = []
        for f in tri.faces():
            ring = [keys[tri.dart_node(x)] for x in f]
            if len(ring) == 3:
                (ax, ay), (bx, by), (cx, cy) = (pos[p] for p in ring)
                if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) > 0:
                    continue
            rest.append(ring)
        rim = list(pinned)
        if len(rest) != 1 or rim[0] not in rest[0]:
            return False
        j = rest[0].index(rim[0])
        return rest[0][j:] + rest[0][:j] == rim


def _fmt(x: Fraction) -> str:
    q = round(x * 10**6)
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 10**6}.{q % 10**6:06d}"


def render_svg(d: Drawing, size: int = 480) -> bytes:
    """Render to a ``size`` x ``size`` SVG 1.1 picture with labelled
    vertices; raises DegenerateLayout only if a layout fails its audit (a
    bug for valid drawings).  The picture needs room inside its margins:
    ``size`` must exceed twice the margin of 30."""
    if size <= 2 * _MARGIN:
        raise ValueError(f"size {size} leaves no room inside the {_MARGIN}-unit margins")
    d = d.canonicalize()
    comps = d.map_components()
    placed: list[tuple[dict, dict, tuple[int, ...]]] = []
    for comp in comps:
        if not any(d.rotation[n] for n in comp):
            placed.append(({comp[0]: (Fraction(0), Fraction(0))}, {}, comp))
            continue
        plan = _LayoutPlan(d, comp)
        pos, mids, neighbors, pinned = plan.layout()
        if not plan._verify(pos, mids, neighbors, pinned):
            raise DegenerateLayout(f"the layout of component {comp[:4]} failed its audit")
        placed.append((pos, mids, comp))

    # arrange components left to right in a unit-height band
    offset = Fraction(0)
    world: dict = {}
    dart_mid: dict = {}  # dart -> world key of its side's subdivision point
    for pos, mids, comp in placed:
        xs = [p[0] for p in pos.values()]
        ys = [p[1] for p in pos.values()]
        w = (max(xs) - min(xs)) or Fraction(1)
        x0, y0 = min(xs), min(ys)
        for node, (x, y) in pos.items():
            key = node if not isinstance(node, tuple) else (comp[0], node)
            world[key] = (x - x0 + offset, y - y0)
        for dart, mid in mids.items():
            dart_mid[dart] = (comp[0], mid)
        offset += w + Fraction(1, 2)

    xs = [p[0] for p in world.values()] or [Fraction(0)]
    ys = [p[1] for p in world.values()] or [Fraction(0)]
    spanx = (max(xs) - min(xs)) or Fraction(1)
    spany = (max(ys) - min(ys)) or Fraction(1)
    scale = min(
        Fraction(size - 2 * _MARGIN) / spanx,
        Fraction(size - 2 * _MARGIN) / spany,
    )
    ox, oy = min(xs), min(ys)

    def sp(p: Point) -> tuple[str, str]:
        x = (p[0] - ox) * scale + _MARGIN
        y = (p[1] - oy) * scale + _MARGIN
        return _fmt(x), _fmt(y)

    def node_point(n: int) -> Point:
        return world[n]

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="#ffffff"/>',
        '<g fill="none" stroke="#1f2937" stroke-width="1.5">',
    ]
    for eid in d.graph.edge_ids():
        p = d.edge_paths[eid]
        pts: list[Point] = [node_point(d.dart_node(p[0]))]
        for q in range(0, len(p), 2):
            a, b = p[q], p[q + 1]
            if a in dart_mid:
                pts.append(world[dart_mid[a]])
                if dart_mid[b] != dart_mid[a]:
                    pts.append(world[dart_mid[b]])
            pts.append(node_point(d.dart_node(b)))
        joined = " ".join(f"{x},{y}" for x, y in (sp(pt) for pt in pts))
        lines.append(f'<polyline points="{joined}"/>')
    lines.append("</g>")
    lines.append('<g font-family="Helvetica,Arial,sans-serif" font-size="12" text-anchor="middle">')
    for v in d.graph.vertices:
        x, y = sp(node_point(v))
        lines.append(f'<circle cx="{x}" cy="{y}" r="6" fill="#2563eb"/>')
        lines.append(f'<text x="{x}" y="{y}" dy="4" fill="#ffffff">{v}</text>')
    lines.append("</g>")
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode()
