"""Deterministic SVG rendering of drawings.

Layout is barycentric: pin the outer face (largest, ties by least dart)
on a convex polygon of exact rational circle points and place every other
node at the average of its neighbors, solved exactly over fractions.
The rendered picture is then audited: the clockwise angular order at
every node must equal the stored rotation and no two map segments may
meet outside their shared nodes.  If the plain layout fails the audit,
stellated and subdivided+stellated variants are tried (virtual face
centers pull collapsed corners apart; subdivision turns edges into
two-segment polylines), which is the face-respecting polyline fallback.
A drawing that defeats every strategy raises DegenerateLayout.

Coordinates in the output are fixed-precision decimals (6 places)
derived from the exact rationals, so renders are byte-stable.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

from .drawing import Drawing


class DegenerateLayout(RuntimeError):
    pass


_PRIMES: list[int] = [2, 3]


def _prime(i: int) -> int:
    while len(_PRIMES) <= i:
        c = _PRIMES[-1] + 2
        while any(c % p == 0 for p in _PRIMES if p * p <= c):
            c += 2
        _PRIMES.append(c)
    return _PRIMES[i]


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


def _solve_barycentric(
    interior: list, neighbors: dict, pinned: dict
) -> dict | None:
    """Exact Gaussian elimination for x_v = average of neighbors."""
    idx = {v: i for i, v in enumerate(interior)}
    k = len(interior)
    if k == 0:
        return dict(pinned)
    rows = []
    for v in interior:
        row = [Fraction(0)] * k
        bx, by = Fraction(0), Fraction(0)
        deg = len(neighbors[v])
        if deg == 0:
            return None
        row[idx[v]] = Fraction(deg)
        for w in neighbors[v]:
            if w in idx:
                row[idx[w]] -= 1
            else:
                px, py = pinned[w]
                bx += px
                by += py
        rows.append(row + [bx, by])
    # forward elimination with partial pivoting
    for col in range(k):
        piv = None
        for r in range(col, k):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        rows[col], rows[piv] = rows[piv], rows[col]
        pr = rows[col]
        inv = Fraction(1) / pr[col]
        rows[col] = [x * inv for x in pr]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    out = dict(pinned)
    for v, i in idx.items():
        out[v] = (rows[i][k], rows[i][k + 1])
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
    """One component's layout problem: node adjacency (with virtual
    stars/midpoints), the pinned outer cycle, and how darts map to their
    first drawn point for the angular audit."""

    def __init__(self, d: Drawing, comp: tuple[int, ...]):
        self.d = d
        self.comp = set(comp)
        self.darts = [x for n in comp for x in d.rotation[n]]
        self.faces = [f for f in d.faces() if d.dart_node(f[0]) in self.comp]

    def outer_candidates(self):
        return sorted(self.faces, key=lambda f: (-len(f), f))

    def _make_mids(self):
        """Subdivision points per segment, keyed by the dart whose side
        they sit on; loop segments get two so the two darts at the shared
        node point different ways."""
        d = self.d
        mids: dict[int, object] = {}
        chains: dict[frozenset, list] = {}
        for x in self.darts:
            key = frozenset((x, d.theta[x]))
            if key in chains:
                continue
            a, b = min(key), max(key)
            if d.dart_node(a) == d.dart_node(b):
                chains[key] = [("mid", a), ("mid", b)]
                mids[a] = ("mid", a)
                mids[b] = ("mid", b)
            else:
                chains[key] = [("mid", a)]
                mids[a] = ("mid", a)
                mids[b] = ("mid", a)
        return mids, chains

    def attempt(self, mode: str):
        d = self.d
        mids: dict[int, object] = {}
        chains: dict[frozenset, list] = {}
        neighbors: dict = {n: [] for n in self.comp}
        if mode == "subdivided":
            mids, chains = self._make_mids()
            for ch in chains.values():
                for m in ch:
                    neighbors[m] = []
            for key, ch in chains.items():
                a, b = min(key), max(key)
                path = [d.dart_node(a)] + ([ch[0], ch[1]] if len(ch) == 2 else [ch[0]]) + [d.dart_node(b)]
                for i in range(len(path) - 1):
                    neighbors[path[i]].append(path[i + 1])
                    neighbors[path[i + 1]].append(path[i])
            # the dart-side walk above double-counts node links for loops;
            # rebuild real-node adjacency from darts instead
            for n in self.comp:
                neighbors[n] = []
            for n in self.comp:
                for x in d.rotation[n]:
                    neighbors[n].append(mids[x])
        else:
            for n in self.comp:
                for x in d.rotation[n]:
                    neighbors[n].append(d.dart_node(d.theta[x]))

        def face_cycle_nodes(face):
            out = []
            for x in face:
                out.append(d.dart_node(x))
                if chains:
                    key = frozenset((x, d.theta[x]))
                    ch = chains[key]
                    if len(ch) == 1:
                        out.append(ch[0])
                    elif mids[x] == ch[0]:
                        out.extend(ch)
                    else:
                        out.extend(reversed(ch))
            return out

        for outer in self.outer_candidates():
            cycle = face_cycle_nodes(outer)
            if len(cycle) < 3 or len(set(cycle)) != len(cycle):
                continue
            for variant in range(4 if mode != "plain" else 1):
                if mode in ("stellated", "subdivided"):
                    # Twin stars per face with distinct prime weights per
                    # (star, corner): no two corners can see the star pair
                    # in proportional mixes, so pendant material anchored
                    # through one face still spans two dimensions.
                    aug = {k: list(v) for k, v in neighbors.items()}
                    for j, face in enumerate(self.faces):
                        if face == outer:
                            continue
                        corners = face_cycle_nodes(face)
                        ln = len(corners)
                        for s in (0, 1):
                            star = ("star", j, s)
                            aug[star] = []
                            for idx, c in enumerate(corners):
                                w = _prime(s * ln + (idx + variant) % ln)
                                aug[star].extend([c] * w)
                                aug[c].extend([star] * w)
                    nb = aug
                else:
                    nb = neighbors
                ring = _circle_points(len(cycle))
                ring.reverse()  # pin the outer cycle clockwise
                pinned = {node: ring[i] for i, node in enumerate(cycle)}
                interior = [v for v in sorted(nb, key=repr) if v not in pinned]
                pos = _solve_barycentric(interior, nb, pinned)
                if pos is None:
                    continue
                if self._verify(pos, mids):
                    return pos, mids, chains
        return None

    def _first_point(self, pos, mids, dart):
        d = self.d
        if mids:
            return pos[mids[dart]]
        return pos[d.dart_node(d.theta[dart])]

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
                px, py = self._first_point(pos, mids, x)
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
            if mids:
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
    vertices; raises DegenerateLayout only if every layout strategy fails
    its audit (a bug for valid drawings).  The picture needs room
    inside its margins: ``size`` must exceed twice the margin of 30."""
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
        got = None
        for mode in ("plain", "stellated", "subdivided"):
            got = plan.attempt(mode)
            if got:
                break
        if not got:
            raise DegenerateLayout(f"no layout strategy handled component {comp[:4]}")
        placed.append((got[0], got[1], comp))

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
