from __future__ import annotations

import pytest

from oddplanar import complete_graph, validate_drawing
from oddplanar.surgery import (
    double_crossing_move,
    greedy_embed,
    insert_edge_shortest,
    insert_vertex_in_face,
    planar_embedding,
    quadrangulation_with_diagonals,
    random_planar_drawing,
    random_planar_triangulation,
    random_quadrangulation,
    undo_double_crossing,
)
from fixtures import k4_planar, triangle


def test_insert_vertex_in_face_makes_k4():
    t = triangle()
    face = sorted(t.faces())[0]
    d = insert_vertex_in_face(t, face, [0, 1, 2], 3, 3)
    assert validate_drawing(d) == []
    assert d.graph.n == 4 and d.graph.m == 6
    assert len(d.faces()) == 4


def test_build_k5_one_crossing_via_surgery():
    d = k4_planar()
    # put vertex 4 into some inner triangular face and join to its corners
    face = sorted(d.faces())[0]
    d = insert_vertex_in_face(d, face, [0, 1, 2], 4, 6)
    assert validate_drawing(d) == []
    # the remaining K5 edge needs exactly one crossing
    missing = ({0, 1, 2, 3} - {d.dart_node(x) for x in face}).pop()
    d2 = insert_edge_shortest(d, 9, 4, missing)
    assert validate_drawing(d2) == []
    assert d2.graph.m == 10
    assert len(d2.crossing_nodes()) == 1
    assert d2.is_k_plane(1)


def test_insert_edge_bridges_components():
    t = triangle()
    u = t.disjoint_union(t)
    d = insert_edge_shortest(u, 6, 0, 3)
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 0
    assert d.graph.m == 7


def test_double_crossing_move_and_undo():
    t = triangle()
    faces = sorted(t.faces())
    face = faces[0]
    # two darts on distinct edges of the same face
    dart_a, dart_b = face[0], face[1]
    d2, rec = double_crossing_move(t, dart_a, dart_b)
    assert validate_drawing(d2) == []
    ea, eb = rec.edge_a, rec.edge_b
    assert d2.crossing_count(ea, eb) == t.crossing_count(ea, eb) + 2
    assert d2.odd_pairs() == t.odd_pairs()
    back = undo_double_crossing(d2, rec)
    assert back == t


def test_double_crossing_move_rejects_same_edge():
    t = triangle()
    face = max(sorted(t.faces()), key=len)
    with pytest.raises(ValueError):
        double_crossing_move(t, face[0], t.theta[face[0]])


def test_random_triangulation_density_and_validity():
    for seed in range(4):
        d = random_planar_triangulation(7, seed)
        assert validate_drawing(d) == []
        assert d.graph.m == 3 * 7 - 6
        assert len(d.crossing_nodes()) == 0


def test_random_planar_drawing_deletions():
    d = random_planar_drawing(8, 3, deletions=5)
    assert validate_drawing(d) == []
    assert d.graph.m == 3 * 8 - 6 - 5


def test_quadrangulation_density():
    for n in (4, 6, 9):
        d = random_quadrangulation(n, 1)
        assert validate_drawing(d) == []
        assert d.graph.m == 2 * n - 4
        assert all(len(f) == 4 for f in d.faces())


def test_quadrangulation_with_diagonals_is_one_plane():
    for n, seed in ((4, 0), (7, 3), (8, 1), (12, 2)):
        d = quadrangulation_with_diagonals(n, seed)
        assert validate_drawing(d) == []
        assert d.graph.is_simple
        assert d.is_k_plane(1)
        assert d.is_k_odd_plane(1)
        if n >= 8 and n % 2 == 0:
            # pseudo double wheel attains the full 1-planar density
            assert d.graph.m == 4 * n - 8


def test_greedy_embed_planar_and_nonplanar():
    d = greedy_embed(complete_graph(4))
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 0
    with pytest.raises(ValueError, match="graph is nonplanar"):
        greedy_embed(complete_graph(5))


def test_greedy_embed_is_the_exact_embedding():
    g = random_planar_drawing(12, 1, deletions=3).graph
    d = greedy_embed(g)
    assert d == planar_embedding(g)
    assert validate_drawing(d) == [] and d.crossing_nodes() == ()


def test_generators_deterministic():
    a = random_planar_triangulation(8, 42)
    b = random_planar_triangulation(8, 42)
    assert a == b
    c = quadrangulation_with_diagonals(10, 42)
    e = quadrangulation_with_diagonals(10, 42)
    assert c == e
