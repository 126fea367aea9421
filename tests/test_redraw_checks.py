"""The fast self-checks of the redrawing pipeline agree with their
brute-force definitions and still fire on bad input."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oddplanar.drawing import _norm_cyclic
from oddplanar.oracle import random_drawing
from oddplanar.redraw import (
    OneVertexSketch,
    check_sketch_parity,
    elimination_order,
    interleaving_pairs,
    interleaving_parity,
    theorem2_transform,
)
from oddplanar.surgery import quadrangulation_with_diagonals
from test_redraw_golden import _random_graph


@st.composite
def rotations(draw, max_loops: int = 9):
    """A one-vertex rotation with distinct, unordered loop ids."""
    ids = draw(st.lists(st.integers(0, 60), max_size=max_loops, unique=True))
    tokens = [(e, end) for e in ids for end in (0, 1)]
    return tuple(draw(st.permutations(tokens)))


def brute_elimination_order(span: dict[int, tuple[int, int]]) -> list[int]:
    """Repeatedly take the smallest loop with no remaining loop nested in it."""
    remaining = set(span)
    order = []
    while remaining:
        minimal = []
        for e in remaining:
            a, b = span[e]
            if not any(a < span[f][0] and span[f][1] < b for f in remaining if f != e):
                minimal.append(e)
        pick = min(minimal)
        order.append(pick)
        remaining.remove(pick)
    return order


def _spans(rotation) -> dict[int, tuple[int, int]]:
    pos: dict[int, list[int]] = {}
    for i, (e, _) in enumerate(OneVertexSketch(0, rotation).linear()):
        pos.setdefault(e, []).append(i)
    return {e: (p[0], p[1]) for e, p in pos.items()}


@settings(max_examples=300, deadline=None)
@given(rotations())
def test_elimination_order_matches_brute_force(rotation):
    span = _spans(rotation)
    assert elimination_order(span) == brute_elimination_order(span)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.randoms(use_true_random=False))
def test_elimination_order_on_laminar_and_chained_spans(depth, rng):
    # a nested chain plus disjoint siblings: the cases the witness scheme targets
    span = {e: (e, 2 * depth - 1 - e) for e in range(depth)}
    base = 2 * depth
    for e in range(depth, depth + rng.randrange(6)):
        span[e] = (base, base + 1)
        base += 2
    ids = list(span)
    rng.shuffle(ids)
    span = {new: span[old] for new, old in zip(range(100, 100 + len(ids)), ids)}
    assert elimination_order(span) == brute_elimination_order(span)


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
