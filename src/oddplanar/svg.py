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
the picture is then only audited: the clockwise angular order at every
node must equal the stored rotation and no two map segments may meet
outside their shared nodes.  A failed audit raises DegenerateLayout,
which is a bug for valid drawings.

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


def _seg_intersect_badly(p1: Point, p2: Point, q1: Point, q2: Point, share: bool) -> bool:
    """True if the closed segments meet anywhere besides a shared node
    endpoint (``share`` marks that they are allowed to touch there).
    Exact on integer or rational coordinates."""
    if (
        max(p1[0], p2[0]) < min(q1[0], q2[0])
        or max(q1[0], q2[0]) < min(p1[0], p2[0])
        or max(p1[1], p2[1]) < min(q1[1], q2[1])
        or max(q1[1], q2[1]) < min(p1[1], p2[1])
    ):
        return False  # disjoint bounding boxes share no point

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True  # proper crossing
    touches = [
        c
        for o, a, b, c in ((o1, p1, p2, q1), (o2, p1, p2, q2), (o3, q1, q2, p1), (o4, q1, q2, p2))
        if o == 0
        and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
    ]
    if not touches:
        return False
    if not share:
        return True
    shared = {p1, p2} & {q1, q2}
    return any(t not in shared for t in touches)


class _LayoutPlan:
    """One component's layout: the triangulated layout graph, its single
    barycentric solve, and the audit of the picture it gives."""

    def __init__(self, d: Drawing, comp: tuple[int, ...]):
        self.d = d
        self.comp = set(comp)
        self.darts = [x for n in comp for x in d.rotation[n]]

    def layout(self) -> tuple[dict, dict]:
        """(positions, mids): every layout point's exact position, and the
        subdivision point on each subdivided dart's side of its segment."""
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
        return _solve_barycentric(interior, neighbors, pinned), mids

    def _verify(self, pos, mids) -> bool:
        d = self.d
        # Orientation, collinearity and betweenness are invariant under a
        # positive scale, so the audit runs exactly on integers.
        unit = math.lcm(*(c.denominator for p in pos.values() for c in p))
        pos = {k: (x.numerator * (unit // x.denominator), y.numerator * (unit // y.denominator))
               for k, (x, y) in pos.items()}
        for n in self.comp:
            rot = d.rotation[n]
            if len(rot) < 3:
                continue
            dirs = []
            for x in rot:
                px, py = pos[mids.get(x, d.dart_node(d.theta[x]))]
                vx, vy = px - pos[n][0], py - pos[n][1]
                if vx == 0 and vy == 0:
                    return False
                dirs.append(((vx, vy), x))
            dirs_sorted = sorted(dirs, key=ccw_key)
            for i in range(len(dirs_sorted) - 1):
                a, b = dirs_sorted[i][0], dirs_sorted[i + 1][0]
                if a[0] * b[1] - a[1] * b[0] == 0 and (a[0] * b[0] + a[1] * b[1]) > 0:
                    return False  # equal directions
            dirs_sorted.reverse()  # counterclockwise sort -> clockwise order
            order = [x for _, x in dirs_sorted]
            j = order.index(rot[0])
            if tuple(order[j:] + order[:j]) != rot:
                return False
        # drawn sub-segments must meet only at shared nodes
        segs = []
        seen = set()
        for x in self.darts:
            k2 = frozenset((x, d.theta[x]))
            if k2 in seen:
                continue
            seen.add(k2)
            a, b = min(k2), max(k2)
            chain = [d.dart_node(a)]
            if a in mids:
                chain.append(mids[a])
                if mids[b] != mids[a]:
                    chain.append(mids[b])
            chain.append(d.dart_node(b))
            for i in range(len(chain) - 1):
                segs.append((pos[chain[i]], pos[chain[i + 1]], (chain[i], chain[i + 1])))
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                p1, p2, ids1 = segs[i]
                q1, q2, ids2 = segs[j]
                if p1 == p2 or q1 == q2:
                    return False
                share = bool(set(ids1) & set(ids2))
                if _seg_intersect_badly(p1, p2, q1, q2, share):
                    return False
        return True


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
        pos, mids = plan.layout()
        if not plan._verify(pos, mids):
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
