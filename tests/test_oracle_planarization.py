"""The oracle's planarity test of wheeled planarizations against the
rotation-system enumeration of ``enumeration._realizations``: two
independent exact methods that must agree on every crossing-pair
multiset."""
from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement, permutations

import pytest

from oddplanar import complete_bipartite, complete_graph, cycle_graph
from oddplanar.graphs import Multigraph
from oddplanar.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    _counting_lower_bound,
    _planarization_witness,
    exact_crossing_value,
)

from enumeration import _realizations

K5 = complete_graph(5)
K5_MINUS_E = Multigraph(K5.vertices, K5.edges[1:])


def random_graph(seed: int) -> Multigraph:
    """A seeded simple graph with 4 <= n <= 6, n <= m <= n + 3 and
    maximum degree at most 4."""
    rng = random.Random(f"{seed}:planarization")
    n = rng.randint(4, 6)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    degree = [0] * n
    edges: list[tuple[int, tuple[int, int]]] = []
    for u, v in pairs:
        if len(edges) == n + seed % 4:
            break
        if degree[u] < 4 and degree[v] < 4:
            degree[u] += 1
            degree[v] += 1
            edges.append((len(edges), (u, v)))
    return Multigraph(tuple(range(n)), tuple(edges))


def assert_verdicts_agree(g: Multigraph, size: int) -> int:
    """Compare the two methods on every multiset of ``size`` crossings and
    return how many were realizable."""
    pairs = sorted(combinations(g.edge_ids(), 2))
    found = 0
    for ms in combinations_with_replacement(pairs, size):
        witness = _planarization_witness(g, ms, lambda: None)
        assert (witness is not None) == (next(_realizations(g, ms, lambda: None), None) is not None), ms
        if witness is not None:
            assert not witness.validate()
            assert witness.graph == g
            assert sorted((e, f) for (e, _), (f, _) in witness.crossing_passes().values()) == list(ms)
            found += 1
    return found


@pytest.mark.parametrize(
    "g, size, realizable",
    [
        (complete_graph(4), 1, 15),
        (K5, 1, 15),  # exactly the 15 independent pairs
        (complete_bipartite(3, 3), 1, 18),
        (K5_MINUS_E, 1, 30),
        (complete_graph(4), 2, 114),
        (cycle_graph(5), 2, 50),
        (complete_bipartite(3, 3), 2, 324),
    ],
    ids=["K4-1", "K5-1", "K3,3-1", "K5-e-1", "K4-2", "C5-2", "K3,3-2"],
)
def test_planarity_verdict_matches_rotation_enumeration(g, size, realizable):
    assert assert_verdicts_agree(g, size) == realizable


def test_planarity_verdict_matches_rotation_enumeration_on_random_graphs():
    graphs = [random_graph(seed) for seed in range(16)]
    assert {g.n for g in graphs} == {4, 5, 6}
    assert sum(assert_verdicts_agree(g, 1) for g in graphs) > 0


def witness_and_ticks(g: Multigraph, ms) -> tuple:
    ticks = []
    d = _planarization_witness(g, ms, lambda: ticks.append(1))
    return d, len(ticks)


def test_budget_counts_one_tick_per_choice_of_crossing_orders():
    k4 = complete_graph(4)
    # no crossing and a single crossing: one planarization each
    assert _counting_lower_bound(K5) == 1  # the empty multiset is refuted by counting
    d, ticks = witness_and_ticks(k4, ())
    assert d is not None and ticks == 1
    assert witness_and_ticks(K5, ((0, 1),)) == (None, 1)
    # two crossings on edge 0: 2 orders on it, 1 on the others
    assert witness_and_ticks(K5, ((0, 1), (0, 2))) == (None, 2)
    # a tick that refuses its second call stops the witness there
    ticks = []

    def refusing():
        ticks.append(1)
        if len(ticks) > 1:
            raise BudgetExceeded("refused")

    with pytest.raises(BudgetExceeded):
        _planarization_witness(K5, ((0, 1), (0, 2)), refusing)
    assert len(ticks) == 2


def test_one_drawing_per_positive_verdict(monkeypatch):
    from oddplanar import oracle

    built = []
    real = oracle.Drawing.from_routes

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle.Drawing, "from_routes", counting)
    budget = EnumerationBudget(1, 1000, 60.0)
    # the parity screen refutes the 30 adjacent multisets, then the first
    # independent one is drawn
    assert exact_crossing_value(K5, "pcr", "minus", budget) == 1
    assert len(built) == 1


@pytest.mark.parametrize("g", [complete_graph(4), K5, complete_bipartite(3, 3)], ids=["K4", "K5", "K3,3"])
def test_repeated_crossing_pairs_are_tested_once_per_labelling(g, monkeypatch):
    """Against the unfiltered enumeration (every permutation on every
    edge): the same verdict and witness, never more planarity tests, on
    every multiset of at most 3 crossings with a repeated pair."""
    from oddplanar import oracle

    saved = total = 0
    pairs = sorted(combinations(g.edge_ids(), 2))
    for size in (2, 3):
        for ms in combinations_with_replacement(pairs, size):
            if len(set(ms)) == size:
                continue
            d, ticks = witness_and_ticks(g, ms)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_crossing_orders", lambda e, cids, multiset: permutations(cids))
                ref, ref_ticks = witness_and_ticks(g, ms)
            assert (d is None) == (ref is None), ms
            assert ticks <= ref_ticks, ms
            if d is not None:
                assert (d.rotation, d.edge_paths) == (ref.rotation, ref.edge_paths), ms
            saved += ref_ticks - ticks
            total += ref_ticks
    assert 0 < saved < total


def test_repeated_pair_orders_are_distinct_choices():
    # (e: 0,1; f: 0,1) and (e: 1,0; f: 1,0) name one planarization
    assert witness_and_ticks(K5, ((0, 1), (0, 1))) == (None, 2)
    d, ticks = witness_and_ticks(complete_graph(4), ((0, 1), (0, 1)))
    assert d is not None and ticks == 1
