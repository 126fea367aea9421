"""``Drawing.from_routes`` fills the route, pass, segment and ending views
while it assigns darts.  Those seeded views must equal, value for value
and in iteration order, the views the raw constructor derives lazily from
the same map."""
from __future__ import annotations

from functools import cache

import pytest

from oddplanar import Drawing, Multigraph, complete_graph, merge_disjoint
from oddplanar.oracle import _entangle_options, perturb_even, random_drawing
from oddplanar.redraw import theorem2_transform
from oddplanar.surgery import (
    add_diagonals,
    base_square,
    base_triangle,
    double_crossing_move,
    greedy_embed,
    insert_edge_shortest,
    insert_vertex_in_face,
    planar_embedding,
    pseudo_double_wheel,
    quadrangulation_with_diagonals,
    random_planar_drawing,
    random_planar_triangulation,
    random_quadrangulation,
    undo_double_crossing,
)
from fixtures import figure_eight, k4_convex, k5_one_crossing, lens_pair
from test_explore_kernels import self_crossing_drawing


def views(d: Drawing) -> list[str]:
    """Every view as the repr of its item list: equal lists mean equal
    values in the same order, and the repr also tells True from 1."""
    vrot, routes, spins = d.route_view()
    return [
        repr(list(m.items()))
        for m in (vrot, routes, spins, d.crossing_passes(), d.segment_of_dart(), d._ending_of_dart())
    ]


def lazy(d: Drawing) -> Drawing:
    return Drawing(d.graph, d.rotation, d.theta, d.edge_paths)


def two_loops() -> Drawing:
    g = Multigraph((0, 1), ((0, (0, 0)), (1, (0, 0)), (2, (0, 1))))
    vrot = {0: ((0, 0), (0, 1), (2, 0), (1, 0), (1, 1)), 1: ((2, 1),)}
    return Drawing.from_routes(g, vrot, {0: (), 1: (), 2: ()}, {})


def far_figure_eight() -> Drawing:
    """A figure-eight loop on vertex 9 as edge 7, disjoint from the ids of
    the other fixtures."""
    g = Multigraph((9,), ((7, (9, 9)),))
    return Drawing.from_routes(g, {9: ((7, 0), (7, 1))}, {7: ("c", "c")}, {"c": True})


def poked() -> Drawing:
    d = random_planar_triangulation(9, 4)
    a, b = _entangle_options(d)[0]
    return double_crossing_move(d, a, b)[0]


@cache
def triangulation() -> Drawing:
    return random_planar_triangulation(12, 1)


@cache
def perturbed():
    return perturb_even(random_planar_triangulation(10, 2), 5, 7)


def transform_outputs() -> list[Drawing]:
    pipeline = theorem2_transform(quadrangulation_with_diagonals(13, 3), 1)
    return [pipeline.g1, *pipeline.g3, pipeline.g4]


# name -> the drawings it builds; each is built inside its own test case.
CORPUS = {
    "empty": lambda: [Drawing.from_routes(Multigraph((), ()), {}, {}, {}), Drawing.empty()],
    "isolated": lambda: [Drawing.from_routes(Multigraph((0, 3, 5), ()), {0: (), 3: (), 5: ()}, {}, {})],
    "loops": lambda: [two_loops(), figure_eight(), far_figure_eight()],
    "lens-pair": lambda: [lens_pair()],
    "fixtures": lambda: [k4_convex(), k5_one_crossing()],
    "self-crossing": lambda: [self_crossing_drawing()],
    "base": lambda: [base_triangle(), base_square(), pseudo_double_wheel(4)],
    "triangulation": lambda: [triangulation(), random_planar_drawing(12, 2, deletions=5)],
    "quadrangulation": lambda: [random_quadrangulation(11, 5), add_diagonals(random_quadrangulation(10, 1))],
    "quad-diagonals": lambda: [quadrangulation_with_diagonals(12, 0), quadrangulation_with_diagonals(11, 0)],
    "embedding": lambda: [planar_embedding(complete_graph(4)), greedy_embed(triangulation().graph)],
    "vertex-in-face": lambda: [
        insert_vertex_in_face(triangulation(), triangulation().faces()[3], [0, 1, 2], 12, 100)
    ],
    "edge-shortest": lambda: [insert_edge_shortest(triangulation(), 100, 0, 11)],
    "double-crossing": lambda: [poked(), perturbed()[0], undo_double_crossing(perturbed()[0], perturbed()[1][-1])],
    "convex": lambda: [random_drawing(complete_graph(6), 2, "convex")],
    "remove-edges": lambda: [perturbed()[0].remove_edges({0, 5, 9}), perturbed()[0].induced_subdrawing(range(7))],
    "unions": lambda: [
        k5_one_crossing().disjoint_union(figure_eight()),
        merge_disjoint([lens_pair(), far_figure_eight()]),
    ],
    "canonical": lambda: [perturbed()[0].canonicalize()],
    "transform": transform_outputs,
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_seeded_views_equal_the_lazy_views(name):
    for d in CORPUS[name]():
        assert views(d) == views(lazy(d))


def test_corpus_has_crossings_self_crossings_and_loops():
    drawings = [d for build in CORPUS.values() for d in build()]
    assert sum(len(d.crossing_nodes()) for d in drawings) > 50
    assert any(d.self_crossing_count(e) for d in drawings for e in d.graph.edge_ids())
    assert any(u == v for d in drawings for _, (u, v) in d.graph.edges)
