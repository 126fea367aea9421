"""What ``drawing.spin`` means, pinned on the map itself rather than
through any caller, and the one build behind ``Drawing.disjoint_union``."""
from __future__ import annotations

import pytest

from oddplanar import Drawing, Multigraph, complete_graph, merge_disjoint
from oddplanar.docio import serialize_drawing
from oddplanar.drawing import spin
from oddplanar.oracle import random_drawing
from fixtures import figure_eight, k5_one_crossing, lens_pair


def one_crossing(a: int, b: int, b_from_left: bool) -> Drawing:
    """Edge a (0 -> 1) and edge b (2 -> 3) crossing once, spin by the rule."""
    g = Multigraph((0, 1, 2, 3), ((a, (0, 1)), (b, (2, 3))))
    vrot = {0: ((a, 0),), 1: ((a, 1),), 2: ((b, 0),), 3: ((b, 1),)}
    return Drawing.from_routes(g, vrot, {a: ("x",), b: ("x",)}, {"x": spin(a, b, b_from_left)})


def incoming(d: Drawing, e: int) -> int:
    """The dart of e's first segment at the crossing, pointing back to end 0."""
    return d.edge_paths[e][1]


@pytest.mark.parametrize("b_from_left", [True, False])
@pytest.mark.parametrize("a, b", [(0, 1), (1, 0)])
def test_spin_says_which_side_b_passes_from(a, b, b_from_left):
    d = one_crossing(a, b, b_from_left)
    (c,) = d.crossing_nodes()
    rot = d.rotation[c]
    succ = rot[(rot.index(incoming(d, a)) + 1) % 4]
    # Clockwise after a's incoming dart comes the side b arrives from.
    assert (succ == incoming(d, b)) == b_from_left


@pytest.mark.parametrize("b_from_left", [True, False])
@pytest.mark.parametrize("a, b", [(0, 1), (1, 0)])
def test_reversing_one_edge_flips_the_bit(a, b, b_from_left):
    d = one_crossing(a, b, b_from_left)
    (c,) = d.crossing_nodes()
    # The same map with b's endpoints swapped: b now passes from a's
    # other side, and the stored bit flips with it.
    g = Multigraph((0, 1, 2, 3), ((a, (0, 1)), (b, (3, 2))))
    paths = dict(d.edge_paths)
    paths[b] = tuple(reversed(paths[b]))
    flipped = Drawing(g, d.rotation, d.theta, paths)
    assert flipped.validate() == []
    assert flipped.crossing_spin(c) == spin(a, b, not b_from_left) != d.crossing_spin(c)


def relabelled(base: Drawing, other: Drawing) -> Drawing:
    """``other`` moved above ``base``'s ids, built on its own."""
    v_base = max(base.graph.vertices, default=-1) + 1
    e_base = max(base.graph.edge_ids(), default=-1) + 1
    vmap = {v: v_base + i for i, v in enumerate(other.graph.vertices)}
    emap = {e: e_base + i for i, e in enumerate(other.graph.edge_ids())}
    vr, rt, sp = other.route_view()
    return Drawing.from_routes(
        Multigraph(
            tuple(vmap.values()),
            tuple((emap[e], (vmap[u], vmap[v])) for e, (u, v) in other.graph.edges),
        ),
        {vmap[v]: tuple((emap[e], end) for e, end in vr[v]) for v in vr},
        {emap[e]: r for e, r in rt.items()},
        sp,
    )


@pytest.mark.parametrize(
    "pair",
    [
        (k5_one_crossing, figure_eight),
        (lens_pair, lens_pair),
        (lambda: random_drawing(complete_graph(6), 3, "convex"), lens_pair),
        (Drawing.empty, k5_one_crossing),
    ],
)
def test_disjoint_union_builds_once(pair, monkeypatch):
    left, right = pair[0](), pair[1]()
    expected = serialize_drawing(merge_disjoint([left, relabelled(left, right)]))
    built = []
    real = Drawing.from_routes

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(Drawing, "from_routes", counting)
    out = left.disjoint_union(right)
    monkeypatch.undo()
    assert len(built) == 1
    assert serialize_drawing(out) == expected
    assert out.validate() == []
