"""The explorer's integer shortcuts against the slow paths they replace.

* Sampling counts (n', m', x') from endpoint sets, checked on every trial
  against the induced subdrawing, and the 1-in-64 built cross-check.
* Sampling statistics from running sums, checked against the per-trial
  lists they replaced (kept below as the reference).
* The search screen, which decides k-odd-planarity of a routed edge from
  its dual path, checked on every proposal against the built candidate.
* The SVG audit, which checks the layout as a triangulation, checked
  against the pairwise segment test it replaced (kept below as the
  reference): it accepts every layout and nothing that test rejects.
"""
from __future__ import annotations

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from oddplanar import bounds, complete_graph, oracle, svg
from oddplanar.bounds import _sample_counts, sampling_experiment
from oddplanar.drawing import Drawing
from oddplanar.oracle import EnumerationBudget, extremal_search, perturb_even, random_drawing
from oddplanar.redraw import OneVertexSketch, lemma1_redraw
from oddplanar.surgery import (
    add_diagonals,
    insert_edge_shortest,
    insert_vertex_in_face,
    random_planar_triangulation,
    random_quadrangulation,
    route_edge,
)
from oddplanar.svg import _LayoutPlan, render_svg
from fixtures import figure_eight, k5_one_crossing, lens_pair


def self_crossing_drawing() -> Drawing:
    """Convex K6 plus a figure-eight loop bridged to it, a pendant vertex
    in the loop's lobe whose edge leaves the lobe across the loop (an
    odd loop pair), then six double-crossing moves."""
    d = random_drawing(complete_graph(6), 3, "convex").disjoint_union(figure_eight())
    d = insert_edge_shortest(d, 100, 0, 6)
    lobe = next(f for f in d.faces() if len(f) == 2)
    d = insert_vertex_in_face(d, lobe, [[d.dart_node(x) for x in lobe].index(6)], 7, 101)
    d = insert_edge_shortest(d, 102, 7, 2)
    d, _ = perturb_even(d, 6, 1)
    return d


SAMPLE_DRAWINGS = {
    "convex": lambda: random_drawing(complete_graph(8), 5, "convex"),
    "perturbed-even": lambda: perturb_even(random_planar_triangulation(12, 2), 10, 3)[0],
    "self-crossings": self_crossing_drawing,
    "lens": lens_pair,
}


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_self_crossing_fixture_has_what_it_claims():
    d = self_crossing_drawing()
    assert not d.validate()
    assert d.self_crossing_count(15) == 1
    assert (15, 102) in d.odd_pairs()
    assert d.crossing_count(1, 15) == 2


@pytest.mark.parametrize("name", sorted(SAMPLE_DRAWINGS))
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 4), Fraction(1)])
def test_sample_counts_equal_induced_subdrawing_every_trial(name, p):
    d = SAMPLE_DRAWINGS[name]()
    trials, seed = 150, 11
    fast = list(_sample_counts(d, p, trials, seed))
    assert len(fast) == trials
    for t, counts in enumerate(fast):
        rng = random.Random(seed + t)
        vs = {v for v in d.graph.vertices if rng.random() < float(p)} if p != 1 else set(d.graph.vertices)
        sub = d.induced_subdrawing(vs)
        assert counts == (sub.graph.n, sub.graph.m, len(sub.odd_pairs())), (name, t)
    assert any(x for _, _, x in fast) or not d.odd_pairs()


def test_sampling_cross_check_runs_on_every_64th_trial(monkeypatch):
    d = SAMPLE_DRAWINGS["convex"]()
    seen = []
    real = Drawing.induced_subdrawing

    def spy(self, vertex_set):
        seen.append(frozenset(vertex_set))
        return real(self, vertex_set)

    monkeypatch.setattr(Drawing, "induced_subdrawing", spy)
    sampling_experiment(d, Fraction(1, 2), 200, 4)
    expected = []
    for t in (0, 64, 128, 192):
        rng = random.Random(4 + t)
        expected.append(frozenset(v for v in d.graph.vertices if rng.random() < 0.5))
    assert seen == expected


def test_sampling_cross_check_catches_a_wrong_count(monkeypatch):
    d = SAMPLE_DRAWINGS["convex"]()
    monkeypatch.setattr(Drawing, "induced_subdrawing", lambda self, vs: lens_pair())
    with pytest.raises(AssertionError, match="sample counts"):
        sampling_experiment(d, Fraction(1, 2), 1, 0)


def reference_mean_se(values: list[int]) -> tuple[Fraction, float]:
    """Mean and standard error from the list of per-trial values."""
    t = len(values)
    mean = Fraction(sum(values), t)
    if t < 2:
        return mean, 0.0
    var = sum((Fraction(v) - mean) ** 2 for v in values) / (t - 1)
    return mean, float(var / t) ** 0.5


@pytest.mark.parametrize("name", ["convex", "perturbed-even", "lens"])
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 4), Fraction(1)])
@pytest.mark.parametrize("trials", [1, 2, 130])
def test_running_sums_give_the_list_based_statistics(name, p, trials):
    d = SAMPLE_DRAWINGS[name]()
    columns = zip(*_sample_counts(d, p, trials, 5))
    (mean_n, se_n), (mean_m, se_m), (mean_x, se_x) = (reference_mean_se(list(c)) for c in columns)
    stats = sampling_experiment(d, p, trials, 5)
    expected = replace(stats, mean_n=mean_n, se_n=se_n, mean_m=mean_m, se_m=se_m, mean_x=mean_x, se_x=se_x)
    assert stats == expected


def test_sampling_memory_does_not_grow_with_trials(monkeypatch):
    # per-trial lists of 300,000 counts would hold about 7 MB
    trials = 300_000
    monkeypatch.setattr(bounds, "_sample_counts", lambda d, p, t, seed: ((5, 7, 3) for _ in range(t)))
    tracemalloc.start()
    try:
        stats = sampling_experiment(lens_pair(), Fraction(1, 2), trials, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (stats.mean_n, stats.mean_m, stats.mean_x, stats.se_m) == (5, 7, 3, 0.0)
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# Search screen
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [12, 24])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_search_screen_matches_built_candidate(monkeypatch, n, k):
    verdicts: list[bool] = []
    errors: list[str] = []
    last: dict = {}
    real_path = oracle.shortest_dual_path
    real_screen = oracle._routed_is_k_odd_plane

    def path(base, u, v, rng=None):
        got = real_path(base, u, v, rng=rng)
        last.update(base=base, uv=(u, v), got=got)
        return got

    def screen(base, crossed, kk):
        verdict = real_screen(base, crossed, kk)
        uc, vc, path_darts = last["got"]
        if base is not last["base"] or crossed is not path_darts or kk != k:
            errors.append("screen called on another path")
        try:
            cand = route_edge(base, max(base.graph.edge_ids()) + 1, *last["uv"], uc, vc, crossed)
        except ValueError as exc:  # a failure here would be swallowed by the search
            errors.append(str(exc))
        else:
            if cand.is_k_odd_plane(kk) != verdict:
                errors.append(f"screen says {verdict} for {last['uv']} across {crossed}")
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(oracle, "shortest_dual_path", path)
    monkeypatch.setattr(oracle, "_routed_is_k_odd_plane", screen)
    res = extremal_search(k, n, EnumerationBudget(0, 200, 300.0), seed=n + k)
    assert not errors, errors[:3]
    assert True in verdicts and False in verdicts
    assert res.best.is_k_odd_plane(k)


def test_search_screen_counts_parity_not_crossings():
    """A path across two segments of one edge makes an even pair, not a
    partner: the lens pair's edge 0 has three segments, and crossing its
    first and last keeps the drawing 0-odd-plane."""
    lens = lens_pair()
    seg_of = lens.segment_of_dart()
    crossed = [lens.edge_paths[0][0], lens.edge_paths[0][4]]
    assert [seg_of[x][:2] for x in crossed] == [(0, 0), (0, 2)]
    assert oracle._routed_is_k_odd_plane(lens, crossed, 0)
    assert not oracle._routed_is_k_odd_plane(lens, crossed[:1], 0)
    assert oracle._routed_is_k_odd_plane(lens, crossed[:1], 1)


# ---------------------------------------------------------------------------
# SVG audit
# ---------------------------------------------------------------------------


def ref_seg_intersect_badly(p1, p2, q1, q2, share: bool) -> bool:
    """The rational segment test the integer audit replaced."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return (v > 0) - (v < 0)

    def on_seg(a, b, c):
        return (
            orient(a, b, c) == 0
            and min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    touches = []
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    for a, b, c in ((p1, p2, q1), (p1, p2, q2), (q1, q2, p1), (q1, q2, p2)):
        if on_seg(a, b, c):
            touches.append(c)
    if not touches:
        return False
    if not share:
        return True
    shared = {p1, p2} & {q1, q2}
    return any(t not in shared for t in touches)


def ref_verify(plan: _LayoutPlan, pos, mids) -> bool:
    """``_LayoutPlan._verify`` as it was, on rational coordinates."""
    d = plan.d
    for n in plan.comp:
        rot = d.rotation[n]
        if len(rot) < 3:
            continue
        dirs = []
        for x in rot:
            px, py = pos[mids.get(x, d.dart_node(d.theta[x]))]
            vx, vy = px - pos[n][0], py - pos[n][1]
            if vx == 0 and vy == 0:
                return False
            dirs.append(((vx, vy), x))
        dirs_sorted = sorted(dirs, key=svg.ccw_key)
        for i in range(len(dirs_sorted) - 1):
            a, b = dirs_sorted[i][0], dirs_sorted[i + 1][0]
            if a[0] * b[1] - a[1] * b[0] == 0 and (a[0] * b[0] + a[1] * b[1]) > 0:
                return False
        dirs_sorted.reverse()
        order = [x for _, x in dirs_sorted]
        j = order.index(rot[0])
        if tuple(order[j:] + order[:j]) != rot:
            return False
    segs = []
    seen = set()
    for x in plan.darts:
        k2 = frozenset((x, d.theta[x]))
        if k2 in seen:
            continue
        seen.add(k2)
        a, b = min(k2), max(k2)
        chain = [d.dart_node(a)]
        if a in mids:
            chain.append(mids[a])
            if mids[b] != mids[a]:
                chain.append(mids[b])
        chain.append(d.dart_node(b))
        for i in range(len(chain) - 1):
            segs.append((pos[chain[i]], pos[chain[i + 1]], (chain[i], chain[i + 1])))
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            p1, p2, ids1 = segs[i]
            q1, q2, ids2 = segs[j]
            if p1 == p2 or q1 == q2:
                return False
            if ref_seg_intersect_badly(p1, p2, q1, q2, bool(set(ids1) & set(ids2))):
                return False
    return True


def _render_corpus():
    return [
        k5_one_crossing(),
        lemma1_redraw(OneVertexSketch(0, ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)))),
        random_drawing(complete_graph(6), seed=3, model="convex"),
        random_planar_triangulation(10, 4),
        add_diagonals(random_quadrangulation(9, 2)),
        figure_eight(),
        lens_pair(),
    ]


def test_triangulation_audit_accepts_layouts_and_is_sound(monkeypatch):
    """Every layout of the corpus passes the audit, and on broken variants
    of them the audit accepts nothing that the pairwise segment test
    rejects."""
    unsound: list = []
    rejected = 0
    real = _LayoutPlan._verify
    rng = random.Random(5)

    def both(plan, pos, mids, neighbors, pinned):
        nonlocal rejected
        assert real(plan, pos, mids, neighbors, pinned), sorted(plan.comp)
        # Broken variants of the same layout: a node moved onto another
        # node, and a node moved to a random rational point.
        keys = sorted(pos, key=repr)
        a, b = rng.sample(keys, 2)
        for moved in ({**pos, a: pos[b]}, {**pos, a: (Fraction(rng.randrange(-5, 6), 7), Fraction(1, 3))}):
            if not real(plan, moved, mids, neighbors, pinned):
                rejected += 1
            elif not ref_verify(plan, moved, mids):
                unsound.append(sorted(plan.comp))
        return True

    monkeypatch.setattr(_LayoutPlan, "_verify", both)
    for d in _render_corpus():
        render_svg(d)
    assert not unsound, unsound[:3]
    assert rejected


def _plans():
    for d in _render_corpus():
        d = d.canonicalize()
        plan = _LayoutPlan(d, d.map_components()[0])
        yield plan, plan.layout()


def test_audit_rejects_a_mirrored_layout():
    for plan, (pos, mids, neighbors, pinned) in _plans():
        mirrored = {p: (-x, y) for p, (x, y) in pos.items()}
        pins = {p: mirrored[p] for p in pinned}
        assert not plan._verify(mirrored, mids, neighbors, pins), sorted(plan.comp)


def test_audit_rejects_two_equal_points():
    moved = 0
    for plan, (pos, mids, neighbors, pinned) in _plans():
        for a in sorted((p for p in pos if p not in pinned), key=repr)[:1]:
            for b in pos:
                if b != a:
                    assert not plan._verify({**pos, a: pos[b]}, mids, neighbors, pinned), (a, b)
                    moved += 1
    assert moved


def test_audit_rejects_a_star_or_corner_moved_out_of_its_face():
    """Stars and corners carry no drawn segment, so moving one crosses
    layout edges only: the pairwise segment test never saw that."""
    moved = 0
    for plan, (pos, mids, neighbors, pinned) in _plans():
        for p in pos:
            if isinstance(p, tuple) and p[0] in ("star", "corner") and p not in pinned:
                out = {**pos, p: (Fraction(3), Fraction(3))}
                assert ref_verify(plan, out, mids)
                assert not plan._verify(out, mids, neighbors, pinned), p
                moved += 1
    assert moved
