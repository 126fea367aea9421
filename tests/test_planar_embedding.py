"""The exact path-addition planarity embedder, ``surgery.planar_embedding``.

Its verdict is checked against networkx (when installed) on seeded random
graphs and against the Kuratowski check of acceptance 5 on every graph
class with n <= 6; every drawing it returns must be a valid crossing-free
map of exactly the input graph.
"""
from __future__ import annotations

import random

import pytest

from oddplanar import Multigraph, complete_bipartite, complete_graph, cycle_graph, validate_drawing
from oddplanar.surgery import planar_embedding, random_planar_drawing
from test_acceptance import _all_graph_classes, _is_planar_small

# Planar graphs on which seeded greedy edge insertion into common faces
# runs out of attempts.
GREEDY_FAILURES = tuple((n, 1, 3) for n in (12, 15, 20, 30))


def _checked(g: Multigraph):
    d = planar_embedding(g)
    if d is not None:
        assert validate_drawing(d) == []
        assert d.crossing_nodes() == ()
        assert d.graph == g  # same vertices, edge ids and endpoints
    return d


def _random_graph(seed: int) -> Multigraph:
    rng = random.Random(f"{seed}:planarity")
    n = rng.randint(0, 12)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = rng.randint(0, min(len(pairs), 3 * n))
    return Multigraph(tuple(range(n)), tuple(enumerate(rng.sample(pairs, m))))


def test_verdict_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    planar = 0
    graphs = [_random_graph(seed) for seed in range(400)]
    graphs += [random_planar_drawing(*args).graph for args in GREEDY_FAILURES]
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(uv for _, uv in g.edges)
        want, _ = nx.check_planarity(h)
        assert (_checked(g) is not None) == want, g
        planar += want
    # both verdicts are exercised
    assert 50 < planar < len(graphs) - 50


def test_verdict_matches_kuratowski_on_all_small_classes():
    checked = 0
    for n in range(1, 7):
        pairs, classes = _all_graph_classes(n)
        for mask in classes:
            edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
            g = Multigraph(tuple(range(n)), tuple(enumerate(edges)))
            assert (_checked(g) is not None) == _is_planar_small(n, edges), (n, edges)
            checked += 1
    assert checked == 1 + 2 + 4 + 11 + 34 + 156


def test_greedy_failures_are_planar():
    for args in GREEDY_FAILURES:
        assert _checked(random_planar_drawing(*args).graph) is not None


def test_nonplanar_kuratowski_graphs():
    k33 = complete_bipartite(3, 3)
    # K3,3 with edge 0 subdivided by a new vertex 6
    sub = Multigraph(tuple(range(7)), k33.edges[1:] + ((0, (0, 6)), (9, (6, 3))))
    for g in (complete_graph(5), k33, sub, complete_graph(6)):
        assert planar_embedding(g) is None


def test_empty_isolated_and_disconnected():
    assert _checked(Multigraph((), ())) is not None
    assert _checked(Multigraph((3, 7, 9), ())) is not None
    two = Multigraph(
        tuple(range(8)),
        complete_graph(4).edges + tuple((10 + i, (4 + i, 4 + (i + 1) % 4)) for i in range(4)),
    )
    assert _checked(two) is not None
    k5_and_triangle = Multigraph(
        tuple(range(8)), complete_graph(5).edges + ((20, (5, 6)), (21, (6, 7)), (22, (5, 7)))
    )
    assert planar_embedding(k5_and_triangle) is None


def test_cut_vertices_and_bridges():
    # two K4s sharing vertex 0, a pendant path and a triangle on a bridge
    k4 = complete_graph(4).edges
    shifted = tuple((10 + e, (0 if u == 0 else u + 3, 0 if v == 0 else v + 3)) for e, (u, v) in k4)
    extra = ((20, (6, 7)), (21, (7, 8)), (22, (8, 9)), (23, (9, 10)), (24, (8, 10)))
    g = Multigraph(tuple(range(11)), k4 + shifted + extra)
    assert _checked(g) is not None
    # K5 attached at a cut vertex keeps the whole graph nonplanar
    g2 = Multigraph(tuple(range(7)), complete_graph(5).edges + ((10, (4, 5)), (11, (5, 6))))
    assert planar_embedding(g2) is None


def test_loops_and_parallel_edges():
    # loops and parallel copies on a planar skeleton, edges listed both ways
    g = Multigraph(
        (0, 1, 2, 5),
        (
            (0, (0, 1)), (1, (1, 0)), (2, (0, 1)), (3, (1, 2)), (4, (2, 0)),
            (5, (0, 0)), (6, (0, 0)), (7, (2, 2)), (8, (5, 5)), (9, (2, 1)),
        ),
    )
    d = _checked(g)
    assert d is not None
    # each parallel copy beside its twin: copies of 0-1 bound 2-gons
    assert sum(1 for f in d.faces() if len(f) == 2) >= 3
    assert _checked(Multigraph((0,), ((0, (0, 0)), (1, (0, 0))))) is not None
    # loops and copies never change planarity
    k5 = complete_graph(5)
    doubled = Multigraph(k5.vertices, k5.edges + ((10, (0, 0)), (11, (1, 0))))
    assert planar_embedding(doubled) is None
    c4 = cycle_graph(4)
    assert _checked(Multigraph(c4.vertices, c4.edges + ((9, (3, 3)), (8, (1, 2))))) is not None
