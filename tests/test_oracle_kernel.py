"""The integer face-count kernel of the reference enumeration
(``enumeration._realizations``) against a reference that materializes
and fully validates every candidate drawing."""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from oddplanar import Drawing, complete_bipartite, complete_graph, cycle_graph
from oddplanar.graphs import Multigraph
from oddplanar.oracle import _counting_lower_bound

from enumeration import _realizations, _rotation_choices

TRIANGLE_PLUS_EDGE = Multigraph((0, 1, 2, 3, 4), ((0, (0, 1)), (1, (1, 2)), (2, (0, 2)), (3, (3, 4))))


def reference_realizations(g, multiset):
    """Every candidate in enumeration order, built with ``from_routes`` and
    kept iff ``validate`` finds nothing."""
    on_edge = {e: [] for e in g.edge_ids()}
    for cid, (e, f) in enumerate(multiset):
        on_edge[e].append(cid)
        on_edge[f].append(cid)
    order_choices = [list(permutations(on_edge[e])) for e in g.edge_ids()]
    out = []
    for rots in product(*_rotation_choices(g)):
        for orders in product(*order_choices):
            for spins in product((False, True), repeat=len(multiset)):
                d = Drawing.from_routes(
                    g,
                    dict(zip(g.vertices, rots)),
                    dict(zip(g.edge_ids(), orders)),
                    dict(enumerate(spins)),
                    validate=False,
                )
                if not d.validate():
                    out.append(d.canonical_key())
    return out


def kernel_realizations(g, multiset):
    ticks = []
    keys = [d.canonical_key() for d in _realizations(g, multiset, lambda: ticks.append(1))]
    return keys, len(ticks)


def small_multisets(g):
    pairs = sorted(combinations(g.edge_ids(), 2))
    return [ms for size in (0, 1) for ms in combinations_with_replacement(pairs, size)]


def candidate_count(g, multiset):
    count = 2 ** len(multiset)
    for choices in _rotation_choices(g):
        count *= len(choices)
    for e in g.edge_ids():
        for k in range(1, sum(e in p for p in multiset) + 1):
            count *= k
    return count


@pytest.mark.parametrize(
    "g",
    [complete_graph(4), complete_bipartite(2, 3), cycle_graph(5), TRIANGLE_PLUS_EDGE],
    ids=["K4", "K2,3", "C5", "triangle+edge"],
)
def test_kernel_matches_reference_up_to_one_crossing(g):
    survivors = 0
    for ms in small_multisets(g):
        keys, ticks = kernel_realizations(g, ms)
        assert keys == reference_realizations(g, ms), ms
        assert ticks == candidate_count(g, ms), ms
        survivors += len(keys)
    assert survivors > 0


@pytest.mark.parametrize(
    "g, multiset",
    [
        (complete_graph(4), ((0, 5), (0, 5))),  # a repeated independent pair
        (complete_graph(4), ((0, 1), (2, 5))),
        (complete_graph(4), ((0, 5), (1, 4))),
        (complete_bipartite(2, 3), ((0, 4), (0, 4))),
        (complete_bipartite(2, 3), ((0, 4), (1, 3))),
        (TRIANGLE_PLUS_EDGE, ((0, 3), (0, 3))),  # the lone edge dips into the triangle
        (TRIANGLE_PLUS_EDGE, ((0, 3), (1, 3))),
        (cycle_graph(5), ((0, 2), (1, 3))),
    ],
)
def test_kernel_matches_reference_two_crossings(g, multiset):
    keys, ticks = kernel_realizations(g, multiset)
    assert keys == reference_realizations(g, multiset)
    assert ticks == candidate_count(g, multiset)


@pytest.mark.parametrize("multiset", [(), ((0, 1),), ((0, 7),)])
def test_kernel_matches_reference_k5(multiset):
    # K5's 7776 rotation systems: nonplanar with no crossing, no drawing
    # with one crossing of adjacent edges, many with one independent one
    g = complete_graph(5)
    keys, ticks = kernel_realizations(g, multiset)
    assert keys == reference_realizations(g, multiset)
    assert ticks == candidate_count(g, multiset)
    assert bool(keys) == (multiset == ((0, 7),))


@pytest.mark.parametrize(
    "g, pruned_sizes",
    [(complete_bipartite(2, 3), []), (complete_bipartite(3, 3), [0]), (cycle_graph(4), []), (cycle_graph(5), [])],
    ids=["K2,3", "K3,3", "C4", "C5"],
)
def test_counting_prune_never_rejects_a_realizable_multiset(g, pruned_sizes):
    pruned = []
    for ms in small_multisets(g):
        if len(ms) < _counting_lower_bound(g):
            pruned.append(len(ms))
            assert next(_realizations(g, ms, lambda: None), None) is None, ms
    assert pruned == pruned_sizes
