from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oddplanar import complete_bipartite, complete_graph, cycle_graph, validate_drawing
from oddplanar.graphs import Multigraph
from oddplanar.oracle import (
    BudgetExceeded,
    EnumerationBudget,
    LowerBoundOnly,
    _realizable,
    exact_crossing_value,
    extremal_search,
    perturb_even,
    random_drawing,
)
from oddplanar.surgery import (
    quadrangulation_with_diagonals,
    random_planar_drawing,
    random_planar_triangulation,
)

from enumeration import enumerate_drawings


SMALL = EnumerationBudget(max_crossings=1, max_candidates=500_000, time_limit=120.0)


# ---------------------------------------------------------------------------
# Random drawings
# ---------------------------------------------------------------------------


def test_convex_triangle_no_crossings():
    d = random_drawing(cycle_graph(3), seed=1, model="convex")
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 0


def test_convex_k4_one_crossing():
    # whatever the seeded circular order, K4 in convex position has
    # exactly one crossing (the two diagonals of the quadrilateral)
    for seed in range(5):
        d = random_drawing(complete_graph(4), seed=seed, model="convex")
        assert validate_drawing(d) == []
        assert len(d.crossing_nodes()) == 1


def test_convex_k5_crossing_count():
    d = random_drawing(complete_graph(5), seed=3, model="convex")
    assert validate_drawing(d) == []
    # convex position: one crossing per 4-subset of vertices
    assert len(d.crossing_nodes()) == 5


def test_convex_deterministic():
    a = random_drawing(complete_graph(5), seed=9, model="convex")
    b = random_drawing(complete_graph(5), seed=9, model="convex")
    assert a == b


def test_perturbed_even_model():
    g = complete_graph(4)
    d = random_drawing(g, seed=5, model="perturbed-even", moves=3)
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 6
    assert d.odd_pairs() == frozenset()


def test_perturbed_even_accepts_planar_graphs_greedy_insertion_misses():
    # seeded greedy edge insertion into common faces runs out of attempts
    # on each of these planar graphs
    for n in (12, 15, 20, 30):
        g = random_planar_drawing(n, 1, deletions=3).graph
        d = random_drawing(g, seed=1, model="perturbed-even")
        assert validate_drawing(d) == []
        assert d.graph == g
        assert d.odd_pairs() == frozenset()


def test_perturb_even_keeps_all_pairs_even():
    base = random_planar_drawing(6, 2)
    d, recs = perturb_even(base, 4, seed=11)
    assert validate_drawing(d) == []
    assert len(recs) == 4
    assert d.odd_pairs() == frozenset()
    assert len(d.crossing_nodes()) == 8


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_k4_planar_embedding_found():
    budget = EnumerationBudget(max_crossings=0, max_candidates=100_000)
    stream = enumerate_drawings(complete_graph(4), budget)
    d = next(stream)
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 0


def test_enumerate_k5_zero_crossings_empty():
    budget = EnumerationBudget(max_crossings=0, max_candidates=100_000)
    assert list(enumerate_drawings(complete_graph(5), budget)) == []


def test_enumerate_k5_one_crossing_nonempty():
    stream = enumerate_drawings(complete_graph(5), SMALL)
    d = next(d for d in stream if d.crossing_nodes())
    assert validate_drawing(d) == []
    assert len(d.crossing_nodes()) == 1


def test_enumerate_budget_exceeded():
    budget = EnumerationBudget(max_crossings=1, max_candidates=50)
    with pytest.raises(BudgetExceeded):
        list(enumerate_drawings(complete_graph(5), budget))


def test_exact_zero_candidate_budget_raises():
    # the planar verdict runs first, but still spends from the budget
    for g in (cycle_graph(4), complete_graph(5)):
        with pytest.raises(BudgetExceeded):
            exact_crossing_value(g, "cr", "zero", EnumerationBudget(1, 0, 60.0))


def test_enumeration_dedup_tiny():
    g = Multigraph((0, 1), ((0, (0, 1)),))
    budget = EnumerationBudget(max_crossings=0, max_candidates=1000)
    ds = list(enumerate_drawings(g, budget))
    assert len(ds) == 1


def test_enumeration_counts_k4_embeddings():
    # K4 is 3-connected, so its sphere embedding is unique up to
    # reflection: the enumerator must find exactly the mirror pair.
    budget = EnumerationBudget(max_crossings=0, max_candidates=10_000)
    ds = list(enumerate_drawings(complete_graph(4), budget))
    assert len(ds) == 2
    for d in ds:
        assert validate_drawing(d) == []
        assert len(d.crossing_nodes()) == 0


# ---------------------------------------------------------------------------
# Exact values
# ---------------------------------------------------------------------------


def test_exact_k4_all_zero():
    for variant in ("cr", "pcr", "ocr"):
        for rule in ("plus", "zero", "minus"):
            assert exact_crossing_value(complete_graph(4), variant, rule, SMALL) == 0
    assert exact_crossing_value(complete_graph(4), "ocr", "star", SMALL) == 0


def test_exact_k5_rule_zero_all_one():
    g = complete_graph(5)
    assert exact_crossing_value(g, "cr", "zero", SMALL) == 1
    assert exact_crossing_value(g, "pcr", "zero", SMALL) == 1
    assert exact_crossing_value(g, "ocr", "zero", SMALL) == 1


def test_exact_k33_rule_zero_all_one():
    g = complete_bipartite(3, 3)
    assert exact_crossing_value(g, "cr", "zero", SMALL) == 1
    assert exact_crossing_value(g, "pcr", "zero", SMALL) == 1
    assert exact_crossing_value(g, "ocr", "zero", SMALL) == 1


def test_planar_verdict_is_exact_without_enumeration():
    # one tick: the embedder alone decides the empty multiset
    k33 = complete_bipartite(3, 3)
    # K3,3 with edge 0 subdivided by a new vertex 6
    g = Multigraph(tuple(range(7)), k33.edges[1:] + ((0, (0, 6)), (9, (6, 3))))
    assert _realizable(g, (), 10**6) == (False, 1)
    assert exact_crossing_value(g, "cr", "zero", SMALL) == 1
    assert _realizable(random_planar_drawing(12, 1, deletions=3).graph, (), 10**6) == (True, 1)


def test_budget_exhaustion_carries_the_refuted_range():
    k5 = complete_graph(5)
    # 0 is refuted by counting and by the 30 single adjacent crossings (one
    # planarity test each), so the budget runs out while value 1 is tested
    with pytest.raises(BudgetExceeded) as info:
        exact_crossing_value(k5, "pcr", "minus", EnumerationBudget(1, 30, 60.0))
    assert info.value.lower_bound == 1
    # with no budget at all nothing is proved
    for g in (k5, cycle_graph(4)):
        with pytest.raises(BudgetExceeded) as info:
            exact_crossing_value(g, "cr", "zero", EnumerationBudget(1, 0, 60.0))
        assert info.value.lower_bound == 0


def test_sizes_below_the_counting_bound_list_no_edge_pairs():
    # K300 has 44,850 edges, so listing its edge pairs would not finish
    g = complete_graph(300)
    for max_crossings in (0, 2):
        budget = EnumerationBudget(max_crossings, 10, 60.0)
        assert exact_crossing_value(g, "cr", "zero", budget) == LowerBoundOnly(max_crossings + 1)


def test_exact_rejects_star_with_cr():
    with pytest.raises(ValueError):
        exact_crossing_value(complete_graph(4), "cr", "star", SMALL)


def test_exact_lower_bound_only():
    # K6 needs 3 crossings; within a 1-crossing budget nothing is drawable
    g = complete_graph(6)
    out = exact_crossing_value(g, "cr", "zero", EnumerationBudget(1, 500_000, 120.0))
    assert out == LowerBoundOnly(2)


def test_oracle_cli_determinism_across_processes():
    # different hash randomization must not leak into oracle outputs
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for hash_seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "oddplanar", "oracle", "K5", "--variant", "ocr",
             "--rule", "zero", "--max-crossings", "1"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["value"] == 1


# ---------------------------------------------------------------------------
# Extremal search
# ---------------------------------------------------------------------------


def test_search_k0_reaches_triangulation_density():
    res = extremal_search(0, 6, EnumerationBudget(0, 40, 30.0), seed=3)
    assert res.edge_count == 12  # 3n - 6
    assert validate_drawing(res.best) == []
    assert res.report.all_passed


def test_search_k1_n5_capped():
    res = extremal_search(1, 5, EnumerationBudget(0, 60, 30.0), seed=1)
    assert res.edge_count <= 10
    assert res.edge_count <= res.target_upper == 16
    assert res.best.is_k_odd_plane(1)


def test_search_k1_n12_reaches_forty():
    res = extremal_search(1, 12, EnumerationBudget(0, 30, 30.0), seed=0)
    assert res.edge_count >= 40
    assert validate_drawing(res.best) == []


def old_warm_start(k: int, n: int, seed: int):
    """The start the search took when it built both drawings: the
    triangulation, replaced by the quadrangulation with diagonals when
    that is denser and k-odd-plane."""
    start = random_planar_triangulation(n, seed)
    if k >= 1 and n >= 4:
        alt = quadrangulation_with_diagonals(n, seed)
        if alt.graph.m > start.graph.m and alt.is_k_odd_plane(k):
            start = alt
    return start


@pytest.mark.parametrize("k", [0, 1, 2])
def test_search_warm_start_is_the_denser_valid_start(k):
    denser = set()
    for n in range(3, 14):
        for seed in (0, 5):
            best = extremal_search(k, n, EnumerationBudget(0, 0, 30.0), seed).best
            start = old_warm_start(k, n, seed)
            assert (best.graph, best.rotation, best.edge_paths) == (start.graph, start.rotation, start.edge_paths)
            denser.add(start.graph.m > 3 * n - 6)
    # n = 4 and 6 tie at 3n - 6 edges and keep the triangulation
    assert denser == ({False, True} if k else {False})


def test_search_deterministic():
    a = extremal_search(1, 6, EnumerationBudget(0, 50, 30.0), seed=8)
    b = extremal_search(1, 6, EnumerationBudget(0, 50, 30.0), seed=8)
    assert a.edge_count == b.edge_count
    assert a.best == b.best
