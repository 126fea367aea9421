"""The fast self-checks of the redrawing pipeline agree with their
brute-force definitions and still fire on bad input; the closed-form
Lemma 1 redrawing agrees with the inductive construction it replaces."""
from __future__ import annotations

from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from oddplanar.docio import serialize_drawing
from oddplanar.drawing import Drawing, _norm_cyclic, spin
from oddplanar.oracle import random_drawing
from oddplanar.redraw import (
    OneVertexSketch,
    check_sketch_parity,
    contract_even_edge,
    interleaving_pairs,
    interleaving_parity,
    lemma1_redraw,
    split_vertex,
    theorem2_transform,
)
from oddplanar.surgery import quadrangulation_with_diagonals
from test_redraw_golden import _acceptance2_inputs, _acceptance3_inputs, _random_graph, _triangulation


@st.composite
def rotations(draw, max_loops: int = 9):
    """A one-vertex rotation with distinct, unordered loop ids."""
    ids = draw(st.lists(st.integers(0, 60), max_size=max_loops, unique=True))
    tokens = [(e, end) for e in ids for end in (0, 1)]
    return tuple(draw(st.permutations(tokens)))


def inserted_lemma1(sketch: OneVertexSketch) -> Drawing:
    """Lemma 1 by induction: set the loops aside in (span length, id) order,
    then reinsert them in reverse, each as an arc hugging the vertex that
    crosses the endings of the loops already drawn strictly inside its
    span, in rotation order.  A crossed loop gets the new crossing as its
    innermost one: first on its route if the crossed ending is its minus
    ending, last otherwise."""
    lin = sketch.linear()
    pos = {tok: i for i, tok in enumerate(lin)}
    span: dict[int, tuple[int, int]] = {}
    minus_end: dict[int, int] = {}
    for e in sketch.loops:
        p0, p1 = sorted((pos[(e, 0)], pos[(e, 1)]))
        span[e] = (p0, p1)
        minus_end[e] = lin[p0][1]
    routes: dict[int, list] = {e: [] for e in sketch.loops}
    spins: dict[tuple, bool] = {}
    drawn: list[int] = []
    for e in sorted(span, key=lambda e: (span[e][1] - span[e][0], e), reverse=True):
        a, b = span[e]
        crossed = [lin[i] for i in sorted(drawn) if a < i < b]
        assert len({f for f, _ in crossed}) == len(crossed), "a loop was crossed twice"
        for f, f_end in crossed:
            key = ("x", e, f)
            routes[e].append(key)
            if f_end == minus_end[f]:
                routes[f].insert(0, key)
            else:
                routes[f].append(key)
            spins[key] = spin(e, f, f_end != minus_end[e])
        drawn += [a, b]
    final = {e: tuple(r if minus_end[e] == 0 else reversed(r)) for e, r in routes.items()}
    return Drawing.from_routes(sketch.graph(), {sketch.vertex: sketch.rotation}, final, spins)


@settings(max_examples=300, deadline=None)
@given(rotations(max_loops=10))
def test_lemma1_matches_the_insertion(rotation):
    sk = OneVertexSketch(0, rotation)
    assert serialize_drawing(lemma1_redraw(sk)) == serialize_drawing(inserted_lemma1(sk))


def test_lemma1_matches_the_insertion_on_every_small_rotation():
    count = 0
    for n_loops in range(5):
        rest = [(e, end) for e in range(n_loops) for end in (0, 1)][1:]
        for perm in permutations(rest):
            sk = OneVertexSketch(0, ((0, 0),) + perm if n_loops else ())
            assert serialize_drawing(lemma1_redraw(sk)) == serialize_drawing(inserted_lemma1(sk)), sk
            count += 1
    assert count == 1 + 1 + 6 + 120 + 5040


def test_lemma1_stacks_alternating_loops_by_span():
    # Loops 2 and 3 have shorter spans than loop 1, so they lie nearer the
    # vertex and cross loop 1 at its plus ending, farther loop 3 first,
    # rather than loop 1 crossing their minus endings inside its span.
    d = lemma1_redraw(OneVertexSketch(0, ((0, 0), (1, 0), (0, 1), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1))))
    _, routes, spins = d.route_view()
    assert dict(routes) == {0: (1,), 1: (1, 2, 3), 2: (4, 3), 3: (4, 2)}
    assert dict(spins) == {1: False, 2: False, 3: False, 4: False}


@settings(max_examples=300, deadline=None)
@given(rotations())
def test_interleaving_pairs_match_pairwise_parity(rotation):
    loops = sorted({e for e, _ in rotation})
    want = {
        (e, f)
        for i, e in enumerate(loops)
        for f in loops[i + 1 :]
        if interleaving_parity(rotation, e, f)
    }
    assert interleaving_pairs(rotation) == want
    check_sketch_parity(OneVertexSketch(0, rotation), frozenset(want))


def _pipeline_sketches():
    cases = [(quadrangulation_with_diagonals(13, 5), 1)]
    d = random_drawing(_random_graph(8, 12, 3), 3, model="convex")
    cases.append((d, max(d.odd_degree(e) for e in d.graph.edge_ids())))
    for d, k in cases:
        trace = theorem2_transform(d, k)
        odd = trace.g1.odd_pairs()
        for sk in trace.sketches:
            if len(sk.loops) >= 2:
                yield sk, odd


def test_parity_check_fires_on_a_corrupted_relation():
    flipped = set()
    for sk, odd in _pipeline_sketches():
        check_sketch_parity(sk, odd)
        loops = sk.loops
        for pair in ((e, f) for i, e in enumerate(loops) for f in loops[i + 1 :]):
            with pytest.raises(AssertionError):
                check_sketch_parity(sk, odd ^ {pair})
            flipped.add(pair in odd)
    assert flipped == {True, False}  # dropped an odd pair and invented one


def test_parity_check_fires_on_every_single_flip():
    sk = OneVertexSketch(0, ((1, 0), (2, 0), (1, 1), (3, 0), (2, 1), (3, 1)))
    good = frozenset({(1, 2), (2, 3)})
    check_sketch_parity(sk, good)
    for pair in ((1, 2), (1, 3), (2, 3)):
        with pytest.raises(AssertionError):
            check_sketch_parity(sk, good ^ {pair})


def _golden_and_acceptance_cases():
    """(drawing, k) for the golden corpus and acceptance criteria 2 and 3."""
    cases = [(_triangulation(n), 0) for n in (25, 50, 100)]
    cases += [(quadrangulation_with_diagonals(n, 2000 + n), 1) for n in (21, 41, 61)]
    cases += [(d, 0) for d in _acceptance2_inputs()]
    return cases + _acceptance3_inputs()


def test_tree_walk_matches_the_contraction_chain():
    """A second method for the pipeline's walk around each forest tree:
    contract the tree edge by edge in BFS order from the component's first
    vertex, then split g3 back open record by record in reverse."""
    for d, k in _golden_and_acceptance_cases():
        trace = theorem2_transform(d, k)
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in d.graph.vertices}
        for f in trace.forest:
            a, b = d.graph.endpoints(f)
            adj[a].append((b, f))
            adj[b].append((a, f))
        sk = trace.g1.parity_sketch()
        g4_rotation = trace.g4.rotation_system()
        g4_pairs = trace.g4.crossing_stats().pair_counts
        for comp, sketch, g3 in zip(trace.components, trace.sketches, trace.g3):
            root = comp[0]
            records = []
            seen, frontier = {root}, [root]
            while frontier:
                nxt = []
                for p in frontier:
                    for child, f in sorted(adj[p]):
                        if child not in seen:
                            seen.add(child)
                            nxt.append(child)
                            a, b = sk.endpoints(f)
                            sk, rec = contract_even_edge(sk, f, a if b == child else b)
                            records.append(rec)
                frontier = nxt
            assert _norm_cyclic(sk.vertex_rotation(root)) == sketch.rotation
            split = g3
            for rec in reversed(records):
                split = split_vertex(split, rec)
            assert split.rotation_system() == {v: g4_rotation[v] for v in comp}
            eids = set(split.graph.edge_ids())
            assert split.crossing_stats().pair_counts == {
                pair: c for pair, c in g4_pairs.items() if pair[0] in eids
            }
            # routes and spins too: the whole component of g4
            assert split == trace.g4.induced_subdrawing(comp)


def brute_least_rotation(seq: tuple) -> tuple:
    return min((seq[i:] + seq[:i] for i in range(len(seq))), default=seq)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=12).map(tuple))
def test_norm_cyclic_is_the_least_rotation(seq):
    assert _norm_cyclic(seq) == brute_least_rotation(seq)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=10).map(tuple))
def test_norm_cyclic_on_endings(seq):
    assert _norm_cyclic(seq) == brute_least_rotation(seq)


def test_norm_cyclic_edge_cases():
    assert _norm_cyclic(()) == ()
    assert _norm_cyclic((5,)) == (5,)
    assert _norm_cyclic((1, 0, 1, 0, 0)) == (0, 0, 1, 0, 1)
    assert _norm_cyclic((0, 2, 0, 1)) == (0, 1, 0, 2)
