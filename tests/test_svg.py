from __future__ import annotations

import hashlib
import re
from fractions import Fraction

import pytest

from oddplanar import complete_graph
from oddplanar.oracle import perturb_even, random_drawing
from oddplanar.redraw import OneVertexSketch, lemma1_redraw
from oddplanar.surgery import random_planar_drawing, random_planar_triangulation, random_quadrangulation
from oddplanar.svg import _solve_barycentric, render_svg
from fixtures import figure_eight, k5_one_crossing, lens_pair, triangle
from test_explore_kernels import self_crossing_drawing
from test_surgery_golden import _random_graph


def polylines(svg: bytes) -> list[list[tuple[Fraction, Fraction]]]:
    out = []
    for m in re.finditer(rb'<polyline points="([^"]+)"', svg):
        pts = []
        for pair in m.group(1).decode().split(" "):
            x, y = pair.split(",")
            pts.append((Fraction(x), Fraction(y)))
        out.append(pts)
    return out


def circles(svg: bytes) -> list[tuple[Fraction, Fraction]]:
    return [
        (Fraction(m.group(1).decode()), Fraction(m.group(2).decode()))
        for m in re.finditer(rb'<circle cx="([^"]+)" cy="([^"]+)"', svg)
    ]


def count_edge_intersections(svg: bytes) -> int:
    """Interior points shared by two different edge polylines, plus any
    proper transversal crossings of their straight pieces (exact)."""
    polys = polylines(svg)
    vertex_points = set(circles(svg))
    shared = set()
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            a = set(polys[i]) - vertex_points
            b = set(polys[j]) - vertex_points
            shared |= a & b

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    proper = 0
    segs = []
    for pi, poly in enumerate(polys):
        for q in range(len(poly) - 1):
            segs.append((pi, poly[q], poly[q + 1]))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            pi, p1, p2 = segs[i]
            pj, q1, q2 = segs[j]
            if pi == pj:
                continue
            if {p1, p2} & {q1, q2}:
                continue
            o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
            o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
            if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
                proper += 1
    assert proper == 0, "straight pieces must cross only at drawn nodes"
    return len(shared)


def test_triangle_svg():
    svg = render_svg(triangle())
    assert svg.startswith(b"<?xml")
    assert len(circles(svg)) == 3
    assert len(polylines(svg)) == 3
    assert count_edge_intersections(svg) == 0


def test_k5_svg_one_intersection():
    d = k5_one_crossing()
    svg = render_svg(d)
    assert len(circles(svg)) == 5
    assert count_edge_intersections(svg) == 1


def test_lemma1_three_loops_svg():
    d = lemma1_redraw(OneVertexSketch(0, ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1))))
    svg = render_svg(d)
    assert count_edge_intersections(svg) == 3


def test_render_deterministic():
    d = k5_one_crossing()
    assert render_svg(d) == render_svg(d)


# ---------------------------------------------------------------------------
# Totality: one solve per component, on shapes that need every kind of
# layout point (loops, parallel segments, repeated corners, long faces)
# ---------------------------------------------------------------------------


CORPUS = {
    "tree-8": lambda: random_planar_drawing(8, 1, deletions=12),
    "tree-10": lambda: random_planar_drawing(10, 2, deletions=15),
    "tree-12": lambda: random_planar_drawing(12, 5, deletions=19),
    "convex-7": lambda: random_drawing(_random_graph(7, 12, 1), 1, "convex"),
    "convex-8": lambda: random_drawing(_random_graph(8, 10, 2), 2, "convex"),
    "convex-k6": lambda: random_drawing(complete_graph(6), 3, "convex"),
    "lemma1-two-loops": lambda: lemma1_redraw(OneVertexSketch(0, ((1, 0), (2, 0), (1, 1), (2, 1)))),
    "lemma1-three-loops": lambda: lemma1_redraw(
        OneVertexSketch(0, ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)))
    ),
    "forest+figure-eight": lambda: random_planar_drawing(7, 4, deletions=8).disjoint_union(figure_eight()),
    "convex-k5+lens": lambda: random_drawing(complete_graph(5), 2, "convex").disjoint_union(lens_pair()),
    "perturbed-triangulation": lambda: perturb_even(random_planar_triangulation(8, 1), 3, 1)[0],
    "perturbed-quadrangulation": lambda: perturb_even(random_quadrangulation(8, 2), 3, 2)[0],
    "self-crossings": self_crossing_drawing,
}


def _pair_crossings(d) -> int:
    """Crossing nodes where two different edges meet."""
    return sum(1 for (a, _), (b, _) in d.crossing_passes().values() if a != b)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_component_renders_from_one_solve(monkeypatch, name):
    d = CORPUS[name]()
    solves = []

    def counted(interior, neighbors, pinned):
        solves.append(len(interior))
        return _solve_barycentric(interior, neighbors, pinned)

    monkeypatch.setattr("oddplanar.svg._solve_barycentric", counted)
    data = render_svg(d)
    assert len(solves) == sum(1 for comp in d.map_components() if any(d.rotation[n] for n in comp))
    assert len(circles(data)) == d.graph.n
    assert count_edge_intersections(data) == _pair_crossings(d)


def ref_solve_barycentric(interior: list, neighbors: dict, pinned: dict) -> dict | None:
    """The dense Gauss-Jordan elimination over fractions that the sparse
    solver replaced, kept as its reference."""
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


def test_sparse_solver_matches_dense_reference(monkeypatch):
    sizes = []

    def both(interior, neighbors, pinned):
        got = _solve_barycentric(interior, neighbors, pinned)
        assert got == ref_solve_barycentric(interior, neighbors, pinned)
        sizes.append(len(interior))
        return got

    monkeypatch.setattr("oddplanar.svg._solve_barycentric", both)
    for make in CORPUS.values():
        render_svg(make())
    render_svg(k5_one_crossing())
    assert max(sizes) >= 50


# First 16 hex digits of the sha256 of render_svg(random_planar_triangulation(n,
# seed)), recorded from the dense solver over the map itself.
TRIANGULATION_SVG = {
    (4, 0): "b9484142e003ec69",
    (8, 2): "207ec69eba80d859",
    (16, 0): "ed19ab44e7623137",
    (16, 3): "3dbe52712679f646",
    (40, 5): "59fe4d0ff4e10ce2",
}


@pytest.mark.parametrize("n,seed", sorted(TRIANGULATION_SVG))
def test_triangulations_render_as_their_own_layout_graph(n, seed):
    """A triangulation needs no extra layout point, so its picture is the
    plain barycentric drawing of its map, byte for byte."""
    data = render_svg(random_planar_triangulation(n, seed))
    assert hashlib.sha256(data).hexdigest()[:16] == TRIANGULATION_SVG[n, seed]
