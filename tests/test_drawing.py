from __future__ import annotations

import pytest

from oddplanar import (
    Drawing,
    Multigraph,
    complete_graph,
    validate_drawing,
)
from fixtures import figure_eight, k4_convex, k4_planar, k5_one_crossing, lens_pair, triangle


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_triangle_valid_and_euler():
    d = triangle()
    assert validate_drawing(d) == []
    assert len(d.faces()) == 2  # 3 - 3 + 2 = 2


def test_k4_planar_valid():
    d = k4_planar()
    assert validate_drawing(d) == []
    assert len(d.faces()) == 4


def test_k4_convex_one_crossing():
    d = k4_convex()
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 1
    assert d.crossing_count(1, 4) == 1
    assert len(d.faces()) == 5


def test_k5_fixture_valid_one_crossing():
    d = k5_one_crossing()
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 1
    assert d.crossing_stats().cr_rule0 == 1
    assert len(d.faces()) == 8


def test_nonquad_crossing_detected():
    # Degree-3 "crossing" node hand-assembled at the dart level.
    g = Multigraph((0, 1), ((0, (0, 1)),))
    rotation = {0: (0,), 1: (3,), 9: (1, 2, 4)}
    theta = {0: 1, 1: 0, 2: 3, 3: 2, 4: 4}
    paths = {0: (0, 1, 2, 3)}
    d = Drawing(g, rotation, theta, paths)
    kinds = {v.kind for v in validate_drawing(d)}
    assert "DanglingDart" in kinds or "NonQuadCrossing" in kinds


def test_bad_spin_fails_euler():
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
    with pytest.raises(ValueError):
        Drawing.from_routes(g, vrot, routes, {"c": False})
    d = Drawing.from_routes(g, vrot, routes, {"c": False}, validate=False)
    assert any(v.kind == "EulerFailure" for v in validate_drawing(d))


# ---------------------------------------------------------------------------
# Crossing counts and parities
# ---------------------------------------------------------------------------


def test_disjoint_uncrossed_edges_count_zero():
    g = Multigraph((0, 1, 2, 3), ((0, (0, 1)), (1, (2, 3))))
    vrot = {0: ((0, 0),), 1: ((0, 1),), 2: ((1, 0),), 3: ((1, 1),)}
    d = Drawing.crossing_free(g, vrot)
    assert validate_drawing(d) == []
    assert d.crossing_count(0, 1) == 0


def test_lens_pair_counts_two_and_parity_zero():
    d = lens_pair()
    assert validate_drawing(d) == []
    assert d.crossing_count(0, 1) == 2
    sk = d.parity_sketch()
    assert sk.parity(0, 1) == 0
    assert d.is_k_odd_plane(0) is True
    assert d.is_k_plane(0) is False


def test_figure_eight_self_count():
    d = figure_eight()
    assert validate_drawing(d) == []
    assert d.self_crossing_count(0) == 1
    assert d.crossings_on_edge(0) == 1


def test_unknown_edge_raises():
    d = triangle()
    with pytest.raises(KeyError):
        d.crossing_count(0, 99)


def test_parity_matches_counts_mod_2():
    for d in (triangle(), k4_convex(), k5_one_crossing(), lens_pair()):
        sk = d.parity_sketch()
        eids = d.graph.edge_ids()
        for i, e in enumerate(eids):
            for f in eids[i + 1 :]:
                assert sk.parity(e, f) == d.crossing_count(e, f) % 2


def test_crossing_free_drawing_zero_matrix():
    sk = k4_planar().parity_sketch()
    assert sk.odd_pairs == frozenset()


# ---------------------------------------------------------------------------
# Stats
# ---------------------------------------------------------------------------


def test_stats_planar_all_zero_all_admissible():
    s = k4_planar().crossing_stats()
    assert (
        s.cr_rule0 == s.cr_rule_minus == s.pcr_rule0 == s.pcr_rule_minus
        == s.ocr_rule0 == s.ocr_rule_minus == 0
    )
    assert s.plus_admissible and s.star_admissible


def test_stats_single_independent_crossing():
    s = k4_convex().crossing_stats()
    assert s.cr_rule0 == s.pcr_rule0 == s.ocr_rule0 == 1
    assert s.cr_rule_minus == s.pcr_rule_minus == s.ocr_rule_minus == 1
    # No adjacent pair crosses at all, so both flags hold (the odd pair
    # is independent, which weak semisimplicity does not restrict).
    assert s.plus_admissible and s.star_admissible


def test_stats_adjacent_plus_independent_crossing():
    # Path 0-1, 1-2 plus far edge 3-4 and edge 0-2; drawn so that the two
    # path edges cross once (adjacent pair) and (3,4) crosses (0,2) once.
    g = Multigraph(
        (0, 1, 2, 3, 4),
        ((0, (0, 1)), (1, (1, 2)), (2, (0, 2)), (3, (3, 4))),
    )
    # 0 left, 2 right, 1 above-center; edge (0,1) overshoots to the right
    # before landing at 1, crossing edge (1,2); below them, (3,4) crosses
    # (0,2) once.
    vrot = {
        0: ((2, 0), (0, 0)),
        1: ((0, 1), (1, 0)),
        2: ((1, 1), (2, 1)),
        3: ((3, 0),),
        4: ((3, 1),),
    }
    routes = {0: ("a",), 1: ("a",), 2: ("b",), 3: ("b",)}
    d = None
    for s_a in (False, True):
        for s_b in (False, True):
            cand = Drawing.from_routes(g, vrot, routes, {"a": s_a, "b": s_b}, validate=False)
            if not cand.validate():
                d = cand
                break
        if d:
            break
    assert d is not None, "some spin assignment must be realizable"
    s = d.crossing_stats()
    assert s.cr_rule0 == 2
    assert s.cr_rule_minus == 1
    assert not s.plus_admissible
    assert not s.star_admissible


def test_ladder_inequalities():
    for d in (k4_convex(), k5_one_crossing(), lens_pair(), figure_eight()):
        s = d.crossing_stats()
        assert s.ocr_rule0 <= s.pcr_rule0 <= s.cr_rule0
        assert s.ocr_rule_minus <= s.pcr_rule_minus <= s.cr_rule_minus
        assert s.cr_rule_minus <= s.cr_rule0
        assert s.pcr_rule_minus <= s.pcr_rule0
        assert s.ocr_rule_minus <= s.ocr_rule0


# ---------------------------------------------------------------------------
# Planarity classes
# ---------------------------------------------------------------------------


def test_planarity_class_examples():
    assert k4_planar().is_k_plane(0)
    assert k4_planar().is_k_odd_plane(0)
    assert k5_one_crossing().is_k_plane(1)
    assert not k5_one_crossing().is_k_plane(0)


# ---------------------------------------------------------------------------
# Removal, restriction, union
# ---------------------------------------------------------------------------


def test_remove_nothing_is_identity():
    d = k5_one_crossing()
    assert d.remove_edges(()) == d


def test_remove_one_crossing_edge_leaves_planar():
    d = k5_one_crossing()
    d2 = d.remove_edges({8})
    assert validate_drawing(d2) == []
    assert d2.graph.m == 9
    assert len(d2.crossing_nodes()) == 0
    # the partner edge kept its path but lost the crossing
    assert d2.crossings_on_edge(0) == 0


def test_remove_edges_preserves_other_counts_exactly():
    d = k5_one_crossing()
    d2 = d.remove_edges({3})  # uncrossed edge: everything else unchanged
    assert d2.crossing_count(0, 8) == 1
    d3 = lens_pair().remove_edges({0})
    assert d3.crossings_on_edge(1) == 0
    assert validate_drawing(d3) == []


def test_remove_both_passes_drops_crossing_node():
    d = k5_one_crossing()
    d2 = d.remove_edges({0, 8})
    assert validate_drawing(d2) == []
    assert len(d2.crossing_nodes()) == 0
    assert d2.graph.m == 8


def test_induced_subdrawing_k5_to_k4():
    d = k5_one_crossing()
    d2 = d.induced_subdrawing({0, 1, 2, 3})
    assert validate_drawing(d2) == []
    assert d2.graph.n == 4 and d2.graph.m == 6
    d_all = d.induced_subdrawing({0, 1, 2, 3, 4})
    assert d_all == d
    d_none = d.induced_subdrawing(set())
    assert d_none.graph.n == 0 and d_none.graph.m == 0
    assert validate_drawing(d_none) == []


def test_disjoint_union_two_triangles():
    t = triangle()
    u = t.disjoint_union(t)
    assert validate_drawing(u) == []
    assert u.graph.n == 6 and u.graph.m == 6
    assert len(u.crossing_nodes()) == 0


def test_disjoint_union_two_k5s_stays_one_plane():
    d = k5_one_crossing()
    u = d.disjoint_union(d)
    assert validate_drawing(u) == []
    assert u.crossing_stats().cr_rule0 == 2
    assert u.is_k_plane(1)


def test_disjoint_union_with_empty_is_identity():
    d = k5_one_crossing()
    assert d.disjoint_union(Drawing.empty()) == d


# ---------------------------------------------------------------------------
# Canonical form and round trips
# ---------------------------------------------------------------------------


def test_route_view_round_trip():
    for d in (triangle(), k4_convex(), k5_one_crossing(), figure_eight(), lens_pair()):
        vrot, routes, spins = d.route_view()
        d2 = Drawing.from_routes(d.graph, vrot, routes, spins)
        assert d2 == d


def test_canonicalize_idempotent():
    d = k5_one_crossing()
    c1 = d.canonicalize()
    c2 = c1.canonicalize()
    assert c1.rotation == c2.rotation
    assert c1.theta == c2.theta
    assert c1.edge_paths == c2.edge_paths
