"""Kleitman's parity screen: its K5 and K3,3 listing against brute force
over vertex subsets, its rejections against the planarity test, and its
cap on graphs with very many obstructions."""
from __future__ import annotations

import random
import time
from itertools import combinations, combinations_with_replacement

import pytest

from oddplanar import complete_bipartite, complete_graph
from oddplanar.graphs import Multigraph
from oddplanar.oracle import (
    OBSTRUCTION_LIMIT,
    EnumerationBudget,
    LowerBoundOnly,
    _kleitman_masks,
    _kleitman_obstructions,
    _planarization_witness,
    exact_crossing_value,
)


def brute_force_obstructions(g: Multigraph) -> set[tuple[int, ...]]:
    """Every K5 and K3,3 subgraph of g as its sorted edge ids, from all
    5-vertex subsets and all splits of all 6-vertex subsets."""
    eid_of = {frozenset(uv): e for e, uv in g.edges}

    def edges(pairs) -> tuple[int, ...] | None:
        ids = [eid_of.get(frozenset(p)) for p in pairs]
        return None if None in ids else tuple(sorted(ids))

    found = set()
    for five in combinations(g.vertices, 5):
        found.add(edges(combinations(five, 2)))
    for six in combinations(g.vertices, 6):
        for rest in combinations(six[1:], 2):
            a = (six[0], *rest)
            b = tuple(v for v in six if v not in a)
            found.add(edges((x, y) for x in a for y in b))
    found.discard(None)
    return found


def random_graph(seed: int) -> Multigraph:
    """A seeded simple graph with 5 <= n <= 8 on sparse vertex and edge ids."""
    rng = random.Random(f"{seed}:kleitman")
    n = rng.randint(5, 8)
    density = rng.uniform(0.4, 1.0)
    ids = sorted(rng.sample(range(100), n))
    pairs = [p for p in combinations(ids, 2) if rng.random() < density]
    edge_ids = sorted(rng.sample(range(100), len(pairs)))
    return Multigraph(tuple(ids), tuple(zip(edge_ids, pairs)))


@pytest.mark.parametrize("seed", range(40))
def test_listing_matches_brute_force(seed):
    g = random_graph(seed)
    listed = _kleitman_obstructions(g)
    assert listed == _kleitman_obstructions(g)
    assert len(set(listed)) == len(listed)
    every = brute_force_obstructions(g)
    assert set(listed) <= every
    assert len(listed) == min(len(every), OBSTRUCTION_LIMIT)


def test_seeded_graphs_cover_empty_and_capped_listings():
    counts = [len(brute_force_obstructions(random_graph(seed))) for seed in range(40)]
    assert 0 in counts and 0 < counts[2] < OBSTRUCTION_LIMIT
    assert counts[3] == 336  # K8: 56 K5s and 280 K3,3s, above the cap


def screened(g: Multigraph, max_crossings: int) -> list[tuple]:
    masks, full = _kleitman_masks(g)
    pairs = list(combinations(g.edge_ids(), 2))
    out = []
    for size in range(max_crossings + 1):
        for ms in combinations_with_replacement(pairs, size):
            parity = 0
            for p in ms:
                parity ^= masks.get(p, 0)
            if parity != full:
                out.append(ms)
    return out


@pytest.mark.parametrize(
    "g, max_crossings, count",
    [
        (complete_graph(5), 2, 616),
        (complete_bipartite(3, 3), 2, 361),
        (complete_bipartite(3, 4), 1, 67),
        (complete_graph(6), 1, 106),
    ],
    ids=["K5", "K3,3", "K3,4", "K6"],
)
def test_every_screened_multiset_is_refuted_by_the_planarity_test(g, max_crossings, count):
    rejected = screened(g, max_crossings)
    assert len(rejected) == count
    for ms in rejected:
        assert _planarization_witness(g, ms, lambda: None) is None, ms


def test_listing_on_k3_600_with_a_triangle_stops_at_the_cap():
    # C(600, 3) K3,3s; the triangle keeps the counting bound at 0
    k = complete_bipartite(3, 600)
    g = k._plus((603, 604, 605), ((1800, (603, 604)), (1801, (604, 605)), (1802, (603, 605))))
    start = time.perf_counter()
    listed = _kleitman_obstructions(g)
    assert time.perf_counter() - start < 1.0
    assert len(listed) == OBSTRUCTION_LIMIT
    # the screen refutes the empty multiset, so no planarity test runs
    budget = EnumerationBudget(0, 0, 60.0)
    assert exact_crossing_value(g, "cr", "zero", budget) == LowerBoundOnly(1)
