"""``Drawing.remove_edges`` smooths the map in place; ``smoothing.py``
keeps the route-view rebuild it replaced as the reference.

On a corpus of drawings and removal sets the two must agree on every
output the package derives (document bytes, canonical key, odd pairs,
crossing statistics, validity), and on the map itself up to the
order-preserving renaming of the kept ids onto the reference's canonical
ids.  The views carried over from the source drawing must equal the views
the raw constructor derives lazily from the smoothed map.  Smoothing
builds no drawing through ``from_routes``.
"""
from __future__ import annotations

import random
from functools import cache

import pytest

from oddplanar import Drawing, complete_graph
from oddplanar.docio import serialize_drawing
from oddplanar.drawing import _norm_cyclic
from oddplanar.oracle import perturb_even, random_drawing
from oddplanar.surgery import random_planar_triangulation
from fixtures import figure_eight, lens_pair
from smoothing import rebuilt_without
from test_drawing_views import CORPUS, lazy, views
from test_explore_kernels import self_crossing_drawing


def relabelled(d: Drawing) -> Drawing:
    """The same map under dart and crossing ids in reverse order, through
    the raw constructor: no seeded views, rotations not normalized."""
    darts = sorted(d.theta)
    dmap = dict(zip(darts, reversed(darts)))
    top = 10 * (len(d.rotation) + 1)
    nmap = {n: n if n in d.graph.vertices else top - n for n in d.rotation}
    return Drawing(
        d.graph,
        {nmap[n]: tuple(dmap[x] for x in r) for n, r in d.rotation.items()},
        {dmap[a]: dmap[b] for a, b in d.theta.items()},
        {e: tuple(dmap[x] for x in p) for e, p in d.edge_paths.items()},
    )


@cache
def sources() -> dict[str, Drawing]:
    out = {}
    for name, build in sorted(CORPUS.items()):
        for i, d in enumerate(build()):
            out[f"{name}/{i}"] = d
    tri = random_planar_triangulation(9, 4)
    out["relabelled/perturbed"] = relabelled(perturb_even(tri, 5, 2)[0])
    out["relabelled/self-crossing"] = relabelled(self_crossing_drawing())
    out["dense-convex"] = random_drawing(complete_graph(7), 4, "convex")
    out["lens-twice"] = lens_pair().disjoint_union(lens_pair())
    return out


def removal_sets(d: Drawing) -> list[frozenset[int]]:
    """The empty set, every single edge, all edges, both edges of a
    crossing, the partners of runs of consecutive crossings on one edge,
    and seeded random subsets."""
    eids = d.graph.edge_ids()
    sets = [frozenset(), frozenset(eids)]
    sets += [frozenset({e}) for e in eids]
    for (e1, _), (e2, _) in list(d.crossing_passes().values())[:4]:
        sets.append(frozenset({e1, e2}))
    _, routes, _ = d.route_view()
    passes = d.crossing_passes()
    for e in eids:
        route = routes[e]
        if len(route) >= 2:
            partners = set()
            for c in route[: max(2, len(route) // 2)]:
                for g, _ in passes[c]:
                    partners.add(g)
            partners.discard(e)
            if partners:
                sets.append(frozenset(partners))
    rng = random.Random(len(eids))
    for _ in range(3):
        sets.append(frozenset(e for e in eids if rng.random() < 0.4))
    return list(dict.fromkeys(sets))


def order_map(kept, ref) -> dict[int, int]:
    """Kept ids onto reference ids, the i-th least onto the i-th least."""
    kept, ref = sorted(kept), sorted(ref)
    assert len(kept) == len(ref)
    return dict(zip(kept, ref))


def segment_faces(d: Drawing) -> list:
    """Faces as cycles of (edge, segment, direction), free of dart ids,
    each rotated to start at its least item, sorted."""
    seg = d.segment_of_dart()
    return sorted(_norm_cyclic(tuple(seg[x] for x in f)) for f in d.faces())


def assert_agrees(d: Drawing, removed: frozenset[int], ordered: bool) -> None:
    ref = rebuilt_without(d, removed)
    calls = []
    original = Drawing.from_routes.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    held = d._faces is not None and d._face_of is not None, d._pokes is not None, d._odd_deg is not None
    Drawing.from_routes = classmethod(counting)
    try:
        out = d.remove_edges(removed)
    finally:
        Drawing.from_routes = classmethod(original)
    assert calls == []
    odd_deg = out._odd_deg

    assert serialize_drawing(out) == serialize_drawing(ref)
    assert out.canonical_key() == ref.canonical_key()
    assert out.odd_pairs() == ref.odd_pairs()
    assert out.crossing_stats() == ref.crossing_stats()
    assert out.validate() == [] == ref.validate()
    assert out.graph == ref.graph
    assert segment_faces(out) == segment_faces(ref)

    # The carried views equal the lazily derived ones, in order, and so
    # do the crossing counts when they were carried.
    carried = out._pair_counts is not None
    assert views(out) == views(lazy(out))
    again = lazy(out)
    if carried:
        assert repr(list(out._counts()[0].items())) == repr(list(again._counts()[0].items()))
        assert repr(list(out._counts()[1].items())) == repr(list(again._counts()[1].items()))
    # The odd degrees, and with the faces the face map and poke counts,
    # are patched where the source holds them, and equal fresh ones.
    face_map, pokes, odd = held
    assert (odd_deg is not None) == odd and (odd_deg is None or odd_deg == again._odd_degrees())
    assert (out._face_of is not None) >= face_map and (out._pokes is not None) >= pokes
    assert dict(out.face_of_dart()) == dict(again.face_of_dart())
    assert out._poke_counts() == again._poke_counts()

    if ordered:
        # Kept ids keep their relative order, so on a canonical source the
        # smoothed map is the reference map under the order-preserving
        # renaming: rotations, involution, paths and faces alike.
        dmap = order_map(out.theta, ref.theta)
        nmap = order_map(out.rotation, ref.rotation)
        assert {nmap[n]: tuple(dmap[x] for x in r) for n, r in out.rotation.items()} == ref.rotation
        assert {dmap[a]: dmap[b] for a, b in out.theta.items()} == ref.theta
        assert {e: tuple(dmap[x] for x in p) for e, p in out.edge_paths.items()} == ref.edge_paths
        assert [tuple(dmap[x] for x in f) for f in out.faces()] == list(ref.faces())


@pytest.mark.parametrize("name", sorted(sources()))
def test_smoothing_agrees_with_the_rebuild(name):
    d = sources()[name]
    ordered = not name.startswith("relabelled/")
    # The source's counts, odd degrees, face map and poke counts exist,
    # so they are carried.
    d.crossing_stats(), d.face_of_dart(), d._poke_counts()
    for i, removed in enumerate(removal_sets(d)):
        # Every other set starts from a copy whose views are all lazy.
        assert_agrees(lazy(d) if i % 2 else d, removed, ordered)


@pytest.mark.parametrize("name", ["self-crossing/0", "double-crossing/1", "dense-convex", "transform/0"])
def test_chained_smoothing_agrees_with_chained_rebuilds(name):
    d = sources()[name]
    rng = random.Random(name)
    eids = list(d.graph.edge_ids())
    rng.shuffle(eids)
    step = max(1, len(eids) // 4)
    out, ref = d, d
    for start in range(0, len(eids), step):
        chunk = frozenset(eids[start : start + step])
        assert_agrees(out, chunk, True)
        out, ref = out.remove_edges(chunk), rebuilt_without(ref, chunk)
        assert serialize_drawing(out) == serialize_drawing(ref)
    assert out.graph.m == 0 and out.validate() == []


def test_smoothing_leaves_the_source_unchanged():
    d = self_crossing_drawing()
    before = (dict(d.rotation), dict(d.theta), dict(d.edge_paths), views(d), d.crossing_stats())
    for removed in removal_sets(d):
        d.remove_edges(removed)
    assert (dict(d.rotation), dict(d.theta), dict(d.edge_paths), views(d), d.crossing_stats()) == before


def test_unknown_edges_are_a_key_error():
    with pytest.raises(KeyError):
        lens_pair().remove_edges({0, 7})
    d = figure_eight()
    assert d.remove_edges(()) is d


def test_corpus_reaches_every_smoothing_case():
    """Loops, isolated vertices, a surviving self-crossing edge losing a
    crossing, a removed self-crossing edge, both edges of one crossing,
    and one edge losing two consecutive crossings in one removal."""
    seen = set()
    for d in sources().values():
        _, routes, _ = d.route_view()
        passes = d.crossing_passes()
        if any(u == v for _, (u, v) in d.graph.edges):
            seen.add("loop")
        if any(not r for r in d.rotation.values()):
            seen.add("isolated")
        selfs = {e for e in d.graph.edge_ids() if d.self_crossing_count(e)}
        for removed in removal_sets(d):
            dead = {c for e in removed for c in routes[e]}
            if removed & selfs:
                seen.add("removed self-crossing edge")
            for e in set(d.graph.edge_ids()) - removed:
                lost = [c in dead for c in routes[e]]
                if e in selfs and any(lost):
                    seen.add("kept self-crossing edge smoothed")
                if any(a and b for a, b in zip(lost, lost[1:])):
                    seen.add("consecutive run")
            if any({e1, e2} == removed for (e1, _), (e2, _) in passes.values() if e1 != e2):
                seen.add("both edges of a crossing")
            if removed and removed == set(d.graph.edge_ids()):
                seen.add("all edges")
    assert seen == {
        "loop", "isolated", "removed self-crossing edge", "kept self-crossing edge smoothed",
        "consecutive run", "both edges of a crossing", "all edges",
    }
