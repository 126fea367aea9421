"""Hand-built drawings and graphs reused across test modules.

Rotations were worked out on paper (clockwise, y axis up) and are pinned
here; the validator's Euler check confirms each is a sphere drawing.
"""
from __future__ import annotations

from oddplanar import Drawing, Multigraph, complete_bipartite, complete_graph


def triangle() -> Drawing:
    g = Multigraph((0, 1, 2), ((0, (0, 1)), (1, (0, 2)), (2, (1, 2))))
    vrot = {
        0: ((1, 0), (0, 0)),
        1: ((0, 1), (2, 0)),
        2: ((2, 1), (1, 1)),
    }
    return Drawing.crossing_free(g, vrot)


def k4_planar() -> Drawing:
    """K4 embedded without crossings: outer triangle 0,1,2 and center 3."""
    g = complete_graph(4)
    # edges: (0,1)=0 (0,2)=1 (0,3)=2 (1,2)=3 (1,3)=4 (2,3)=5
    vrot = {
        0: ((1, 0), (2, 0), (0, 0)),
        1: ((0, 1), (4, 0), (3, 0)),
        2: ((3, 1), (5, 0), (1, 1)),
        3: ((5, 1), (4, 1), (2, 1)),
    }
    return Drawing.crossing_free(g, vrot)


def k4_convex() -> Drawing:
    """K4 with vertices in convex position: the two diagonals cross once."""
    g = complete_graph(4)
    vrot = {
        0: ((0, 0), (1, 0), (2, 0)),
        1: ((3, 0), (4, 0), (0, 1)),
        2: ((5, 0), (1, 1), (3, 1)),
        3: ((2, 1), (4, 1), (5, 1)),
    }
    routes = {e: () for e in g.edge_ids()}
    routes[1] = ("c",)
    routes[4] = ("c",)
    return Drawing.from_routes(g, vrot, routes, {"c": True})


def k5_one_crossing() -> Drawing:
    """The standard K5 drawing with a single crossing: K4 drawn planar,
    vertex 4 inside face (0,1,3), edge (2,4) crossing edge (0,1) once."""
    g = complete_graph(5)
    # edges: (0,1)=0 (0,2)=1 (0,3)=2 (0,4)=3 (1,2)=4 (1,3)=5 (1,4)=6
    #        (2,3)=7 (2,4)=8 (3,4)=9
    vrot = {
        0: ((1, 0), (2, 0), (3, 0), (0, 0)),
        1: ((0, 1), (6, 0), (5, 0), (4, 0)),
        2: ((8, 0), (4, 1), (7, 0), (1, 1)),
        3: ((7, 1), (5, 1), (9, 0), (2, 1)),
        4: ((9, 1), (6, 1), (8, 1), (3, 1)),
    }
    routes = {e: () for e in g.edge_ids()}
    routes[0] = ("c",)
    routes[8] = ("c",)
    return Drawing.from_routes(g, vrot, routes, {"c": False})


def figure_eight() -> Drawing:
    """A single loop with one self-crossing."""
    g = Multigraph((0,), ((0, (0, 0)),))
    vrot = {0: ((0, 0), (0, 1))}
    return Drawing.from_routes(g, vrot, {0: ("c", "c")}, {"c": True})


def lens_pair() -> Drawing:
    """Two disjoint edges crossing each other twice (an even pair)."""
    g = Multigraph((0, 1, 2, 3), ((0, (0, 1)), (1, (2, 3))))
    vrot = {0: ((0, 0),), 1: ((0, 1),), 2: ((1, 0),), 3: ((1, 1),)}
    routes = {0: ("a", "b"), 1: ("a", "b")}
    return Drawing.from_routes(g, vrot, routes, {"a": False, "b": True})


def k33_subdivided() -> Multigraph:
    """K3,3 with its last edge (2, 5) subdivided by vertex 6: nonplanar,
    with no K5 or K3,3 subgraph, so the oracle's parity screen never
    fires and every multiset costs planarity tests.  Under rule minus its
    19 adjacent pairs have value 0, and the first independent pair (edges
    0 and 4) is realizable."""
    k33 = complete_bipartite(3, 3)
    return Multigraph(tuple(range(7)), k33.edges[:-1] + ((8, (2, 6)), (9, (6, 5))))
