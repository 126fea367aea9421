from __future__ import annotations

from itertools import permutations

import pytest

from oddplanar import Drawing, Multigraph, complete_graph, validate_drawing
from oddplanar.redraw import (
    ContractLoop,
    ContractOddEdge,
    InconsistentSplit,
    NotKOddPlane,
    OddPairPresent,
    OneVertexSketch,
    contract_even_edge,
    hanani_tutte_embed,
    interleaving_parity,
    lemma1_redraw,
    max_even_forest,
    remove_self_crossings,
    split_vertex,
    theorem2_transform,
)
from oddplanar.drawing import ParitySketch
from fixtures import figure_eight, k4_convex, k4_planar, k5_one_crossing, lens_pair, triangle


def loop_sketch(*tokens: tuple[int, int]) -> OneVertexSketch:
    return OneVertexSketch(0, tuple(tokens))


def check_lemma1_conclusions(sk: OneVertexSketch) -> Drawing:
    d = lemma1_redraw(sk)
    assert validate_drawing(d) == []
    # (i) rotation preserved
    assert set(d.vertex_endings(sk.vertex)) == set(sk.rotation)
    got = d.vertex_endings(sk.vertex)
    n = len(got)
    assert any(got[i:] + got[:i] == sk.rotation for i in range(max(1, n)))
    # (ii)+(iii) crossing counts equal the interleaving parity
    for i, e in enumerate(sk.loops):
        for f in sk.loops[i + 1 :]:
            assert d.crossing_count(e, f) == interleaving_parity(sk.rotation, e, f)
    # (iv) no self-crossings
    for e in sk.loops:
        assert d.self_crossing_count(e) == 0
    return d


# ---------------------------------------------------------------------------
# Lemma 1
# ---------------------------------------------------------------------------


def test_lemma1_single_loop():
    d = check_lemma1_conclusions(loop_sketch((5, 0), (5, 1)))
    assert len(d.crossing_nodes()) == 0


def test_lemma1_nested_pair_even():
    d = check_lemma1_conclusions(loop_sketch((1, 0), (2, 0), (2, 1), (1, 1)))
    assert len(d.crossing_nodes()) == 0


def test_lemma1_interleaved_pair_odd():
    d = check_lemma1_conclusions(loop_sketch((1, 0), (2, 0), (1, 1), (2, 1)))
    assert len(d.crossing_nodes()) == 1
    assert d.crossing_count(1, 2) == 1


def test_lemma1_three_pairwise_interleaved():
    d = check_lemma1_conclusions(
        loop_sketch((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1))
    )
    assert len(d.crossing_nodes()) == 3


def test_lemma1_empty_sketch():
    d = lemma1_redraw(OneVertexSketch(7, ()))
    assert validate_drawing(d) == []
    assert d.graph.n == 1 and d.graph.m == 0


def test_lemma1_exhaustive_three_loops():
    # All cyclic arrangements of 6 endings with the first fixed.
    tokens = [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1)]
    for rest in permutations(tokens):
        check_lemma1_conclusions(loop_sketch((1, 0), *rest))


def test_lemma1_reversed_end_labels():
    # End 1 can come first from the reference point; routes still stored
    # end0 -> end1.
    d = check_lemma1_conclusions(loop_sketch((1, 1), (2, 1), (1, 0), (2, 0)))
    assert d.crossing_count(1, 2) == 1


def test_sketch_rejects_bad_rotation():
    with pytest.raises(ValueError):
        OneVertexSketch(0, ((1, 0), (1, 0), (2, 0), (2, 1)))


# ---------------------------------------------------------------------------
# Self-crossing removal
# ---------------------------------------------------------------------------


def test_remove_self_crossings_noop():
    d = k5_one_crossing()
    assert remove_self_crossings(d) == d


def test_remove_self_crossings_figure_eight():
    d = remove_self_crossings(figure_eight())
    assert validate_drawing(d) == []
    assert d.self_crossing_count(0) == 0
    assert len(d.crossing_nodes()) == 0


def test_remove_self_crossing_keeps_pair_count():
    # Loop at vertex 0 with one self-crossing; edge (1,2) crosses the loop
    # once, inside the section between the loop's two visits to the
    # self-crossing.
    g = Multigraph((0, 1, 2), ((0, (0, 0)), (1, (1, 2))))
    vrot = {0: ((0, 0), (0, 1)), 1: ((1, 0),), 2: ((1, 1),)}
    routes = {0: ("s", "x", "s"), 1: ("x",)}
    built = None
    for a in (False, True):
        for b in (False, True):
            cand = Drawing.from_routes(g, vrot, routes, {"s": a, "x": b}, validate=False)
            if not cand.validate():
                built = cand
                break
        if built:
            break
    assert built is not None
    assert built.self_crossing_count(0) == 1
    assert built.crossing_count(0, 1) == 1
    out = remove_self_crossings(built)
    assert validate_drawing(out) == []
    assert out.self_crossing_count(0) == 0
    assert out.crossing_count(0, 1) == 1
    assert out.vertex_endings(0) == built.vertex_endings(0)


# ---------------------------------------------------------------------------
# Contraction and splitting
# ---------------------------------------------------------------------------


def sketch_for_contraction() -> ParitySketch:
    # u=0 with (e, e1, e2), v=1 with (e, f1); e=(0,1)=0, e1=(0,2)=1,
    # e2=(0,2)=2 (parallel), f1=(1,2)=3.  Rotations match a concrete
    # crossing-free picture (0 left, 1 right, 2 below).
    edges = ((0, (0, 1)), (1, (0, 2)), (2, (0, 2)), (3, (1, 2)))
    rotation = (
        (0, ((0, 0), (1, 0), (2, 0))),
        (1, ((0, 1), (3, 0))),
        (2, ((3, 1), (2, 1), (1, 1))),
    )
    return ParitySketch(rotation, frozenset(), edges)


def test_contract_concatenates_rotations():
    sk = sketch_for_contraction()
    sk2, rec = contract_even_edge(sk, 0, target=0)
    assert sk2.vertex_rotation(0) == ((1, 0), (2, 0), (3, 0))
    assert rec.u_block == ((1, 0), (2, 0))
    assert rec.v_block == ((3, 0),)
    assert sk2.odd_pairs == frozenset()
    assert 0 not in sk2.edge_ids()


def test_contract_pendant_edge():
    edges = ((0, (0, 1)), (1, (0, 2)), (2, (0, 2)))
    rotation = ((0, ((0, 0), (1, 0), (2, 0))), (1, ((0, 1),)), (2, ((1, 1), (2, 1))))
    sk = ParitySketch(rotation, frozenset(), edges)
    sk2, _ = contract_even_edge(sk, 0, target=0)
    assert sk2.vertex_rotation(0) == ((1, 0), (2, 0))


def test_contract_rejects_odd_edge_and_loop():
    edges = ((0, (0, 1)), (1, (0, 1)))
    rotation = ((0, ((0, 0), (1, 0))), (1, ((0, 1), (1, 1))))
    sk = ParitySketch(rotation, frozenset({(0, 1)}), edges)
    with pytest.raises(ContractOddEdge):
        contract_even_edge(sk, 0, target=0)
    loop_sk = ParitySketch(((0, ((0, 0), (0, 1))),), frozenset(), ((0, (0, 0)),))
    with pytest.raises(ContractLoop):
        contract_even_edge(loop_sk, 0, target=0)


def test_contract_spanning_tree_of_even_k5_sketch():
    g = complete_graph(5)
    # fabricate an all-even sketch with arbitrary rotations
    rot = []
    for v in g.vertices:
        endings = []
        for eid, (a, b) in g.edges:
            if a == v:
                endings.append((eid, 0))
            elif b == v:
                endings.append((eid, 1))
        rot.append((v, tuple(endings)))
    sk = ParitySketch(tuple(rot), frozenset(), g.edges)
    for eid in (0, 1, 2, 3):  # star spanning tree at vertex 0
        sk, _ = contract_even_edge(sk, eid, target=0)
    assert sk.vertices() == (0,)
    assert len(sk.edge_ids()) == 6
    assert all(u == v == 0 for _, (u, v) in sk.edges)
    assert sk.odd_pairs == frozenset()


def test_split_round_trip():
    sk = sketch_for_contraction()
    sk2, rec = contract_even_edge(sk, 0, target=0)
    # materialize the contracted sketch as a crossing-free drawing
    g = Multigraph((0, 2), tuple(sk2.edges))
    d = Drawing.crossing_free(g, {0: sk2.vertex_rotation(0), 2: sk2.vertex_rotation(2)})
    d2 = split_vertex(d, rec)
    assert validate_drawing(d2) == []
    assert d2.vertex_endings(0) == ((0, 0), (1, 0), (2, 0))
    assert d2.vertex_endings(1) == ((0, 1), (3, 0))
    assert d2.crossings_on_edge(0) == 0


def test_split_inconsistent_record():
    sk = sketch_for_contraction()
    sk2, rec = contract_even_edge(sk, 0, target=0)
    g = Multigraph((0, 2), tuple(sk2.edges))
    d = Drawing.crossing_free(g, {0: sk2.vertex_rotation(0), 2: sk2.vertex_rotation(2)})
    bad = SplitRecordShuffle(rec)
    with pytest.raises(InconsistentSplit):
        split_vertex(d, bad)


def _contracted_drawing():
    sk2, rec = contract_even_edge(sketch_for_contraction(), 0, target=0)
    g = Multigraph((0, 2), tuple(sk2.edges))
    d = Drawing.crossing_free(g, {0: sk2.vertex_rotation(0), 2: sk2.vertex_rotation(2)})
    return d, rec


def test_split_rejects_each_inconsistency():
    from dataclasses import replace

    d, rec = _contracted_drawing()
    assert d.vertex_endings(0) == ((1, 0), (2, 0), (3, 0))
    # blocks that are a rotation apart stay contiguous and are accepted
    split_vertex(d, replace(rec, u_block=((2, 0),), v_block=((3, 0), (1, 0))))
    cases = {
        "non-contiguous": replace(rec, u_block=((1, 0), (3, 0)), v_block=((2, 0),)),
        "wrong size": replace(rec, v_block=()),
        "too large": replace(rec, v_block=rec.v_block + ((9, 0),)),
        "unknown first ending": replace(rec, u_block=((9, 0), (2, 0))),
        "id in use": replace(rec, v=2),
        "merged missing": replace(rec, merged=7, u=7),
    }
    for why, bad in cases.items():
        with pytest.raises(InconsistentSplit):
            split_vertex(d, bad)
            pytest.fail(why)


def SplitRecordShuffle(rec):
    from oddplanar.redraw import SplitRecord

    return SplitRecord(
        rec.merged,
        rec.u,
        rec.v,
        rec.edge,
        rec.edge_end_at_u,
        tuple(reversed(rec.u_block)),
        rec.v_block,
    )


# ---------------------------------------------------------------------------
# Maximal even forests
# ---------------------------------------------------------------------------


def test_forest_of_crossing_free_connected_is_spanning_tree():
    d = k4_planar()
    f = max_even_forest(d)
    assert len(f) == 3


def test_forest_of_all_even_connected_is_spanning_tree():
    d = triangle()
    assert len(max_even_forest(d)) == 2


def test_forest_avoids_odd_edges():
    d = k5_one_crossing()
    f = max_even_forest(d)
    assert len(f) == 4
    sk = d.parity_sketch()
    for e in f:
        for g in f:
            assert sk.parity(e, g) == 0


# ---------------------------------------------------------------------------
# Theorem 2 pipeline and weak Hanani-Tutte
# ---------------------------------------------------------------------------


def test_pipeline_planar_k0():
    d = k4_planar()
    tr = theorem2_transform(d, 0)
    assert tr.removed == frozenset()
    assert len(tr.g4.crossing_nodes()) == 0
    assert validate_drawing(tr.g4) == []
    assert tr.g4.rotation_system() == d.rotation_system()


def test_pipeline_k5_one_crossing_k1():
    d = k5_one_crossing()
    tr = theorem2_transform(d, 1)
    assert validate_drawing(tr.g4) == []
    assert tr.g4.is_k_plane(1)
    assert len(tr.removed) <= 4
    assert tr.g4.graph.m >= 6
    # pair counts in g4 equal parities of the input drawing
    sk = d.parity_sketch()
    eids = tr.g4.graph.edge_ids()
    for i, e in enumerate(eids):
        for f in eids[i + 1 :]:
            assert tr.g4.crossing_count(e, f) == sk.parity(e, f)
    assert tr.g4.rotation_system() == tr.g1.rotation_system()


def test_pipeline_keeps_and_redraws_a_true_odd_pair():
    # Convex K4 with the square sides numbered before the diagonals: the
    # greedy even forest uses only sides, both diagonals stay, and their
    # crossing must be carried through contraction, one-vertex redrawing
    # and the split replay.
    g = Multigraph(
        (0, 1, 2, 3),
        ((0, (0, 1)), (1, (1, 2)), (2, (2, 3)), (3, (0, 3)), (4, (0, 2)), (5, (1, 3))),
    )
    vrot = {
        0: ((0, 0), (4, 0), (3, 0)),
        1: ((1, 0), (5, 0), (0, 1)),
        2: ((2, 0), (4, 1), (1, 1)),
        3: ((3, 1), (5, 1), (2, 1)),
    }
    routes = {e: () for e in g.edge_ids()}
    routes[4] = ("c",)
    routes[5] = ("c",)
    d = Drawing.from_routes(g, vrot, routes, {"c": True})
    assert d.crossing_count(4, 5) == 1
    tr = theorem2_transform(d, 1)
    assert tr.removed == frozenset()
    assert validate_drawing(tr.g4) == []
    assert len(tr.g4.crossing_nodes()) == 1
    assert tr.g4.crossing_count(4, 5) == 1
    assert tr.g4.is_k_plane(1)
    assert tr.g4.rotation_system() == d.rotation_system()


def test_pipeline_rejects_wrong_k():
    with pytest.raises(NotKOddPlane):
        theorem2_transform(k5_one_crossing(), 0)


def test_hanani_tutte_on_planar_embedding():
    d = k4_planar()
    out = hanani_tutte_embed(d)
    assert validate_drawing(out) == []
    assert len(out.crossing_nodes()) == 0
    assert out.graph == d.graph


def test_hanani_tutte_on_even_lens():
    d = lens_pair()
    out = hanani_tutte_embed(d)
    assert validate_drawing(out) == []
    assert len(out.crossing_nodes()) == 0
    assert out.graph == d.graph


def test_hanani_tutte_rejects_odd_pair():
    with pytest.raises(OddPairPresent):
        hanani_tutte_embed(k4_convex())


def test_pipeline_disconnected_input():
    # two one-crossing K5s: the even forest has two components, so the
    # pipeline contracts, redraws and splits per component, then merges
    d = k5_one_crossing().disjoint_union(k5_one_crossing())
    assert d.is_k_odd_plane(1)
    tr = theorem2_transform(d, 1)
    assert len(tr.components) == 2
    assert validate_drawing(tr.g4) == []
    assert tr.g4.is_k_plane(1)
    assert len(tr.removed) <= 1 * (10 - 1)
    sk = d.parity_sketch()
    eids = tr.g4.graph.edge_ids()
    for i, e in enumerate(eids):
        for f in eids[i + 1 :]:
            assert tr.g4.crossing_count(e, f) == sk.parity(e, f)


def test_gauss_parity_rejects_interleaved_self_crossings():
    # the Gauss code a b a b is not realizable by a closed plane curve
    # (each chord must interlace evenly); the sphere check knows this
    g = Multigraph((0,), ((0, (0, 0)),))
    vrot = {0: ((0, 0), (0, 1))}
    for sa in (False, True):
        for sb in (False, True):
            cand = Drawing.from_routes(
                g, vrot, {0: ("a", "b", "a", "b")}, {"a": sa, "b": sb}, validate=False
            )
            assert any(v.kind == "EulerFailure" for v in cand.validate())


def test_remove_self_crossings_doubly_twisted_loop():
    # one loop with two nested self-crossings (Gauss code a b b a): both
    # smoothings must fire and leave a plain loop with the same rotation
    g = Multigraph((0,), ((0, (0, 0)),))
    vrot = {0: ((0, 0), (0, 1))}
    built = None
    for sa in (False, True):
        for sb in (False, True):
            cand = Drawing.from_routes(
                g, vrot, {0: ("a", "b", "b", "a")}, {"a": sa, "b": sb}, validate=False
            )
            if not cand.validate():
                built = cand
                break
        if built:
            break
    assert built is not None, "a doubly twisted loop must be drawable"
    assert built.self_crossing_count(0) == 2
    out = remove_self_crossings(built)
    assert validate_drawing(out) == []
    assert out.self_crossing_count(0) == 0
    assert len(out.crossing_nodes()) == 0
    assert out.vertex_endings(0) == built.vertex_endings(0)


def test_remove_self_crossing_with_two_mid_crossings():
    # loop with a self-crossing whose middle section crosses two other
    # edges; smoothing reverses the section and must flip both spins
    g = Multigraph((0, 1, 2, 3, 4), ((0, (0, 0)), (1, (1, 2)), (2, (3, 4))))
    vrot = {
        0: ((0, 0), (0, 1)),
        1: ((1, 0),),
        2: ((1, 1),),
        3: ((2, 0),),
        4: ((2, 1),),
    }
    routes = {0: ("s", "x", "y", "s"), 1: ("x",), 2: ("y",)}
    built = None
    for bits in range(8):
        spins = {"s": bool(bits & 1), "x": bool(bits & 2), "y": bool(bits & 4)}
        cand = Drawing.from_routes(g, vrot, routes, spins, validate=False)
        if not cand.validate():
            built = cand
            break
    assert built is not None
    out = remove_self_crossings(built)
    assert validate_drawing(out) == []
    assert out.self_crossing_count(0) == 0
    assert out.crossing_count(0, 1) == 1
    assert out.crossing_count(0, 2) == 1
    assert out.crossing_count(1, 2) == 0
