"""Surgery splices the map in place; ``splicing.py`` keeps the route-view
rebuilds it replaced as the reference.

On a corpus of drawings the edits (and ``remove_edges``, whose
reference is ``smoothing.py``) must give the drawing the rebuild gives,
with the map itself, faces included, equal up to the order-preserving
renaming of darts and crossing nodes onto the reference's canonical ids.
Every view the edit carries must equal the view the raw constructor
derives lazily from the spliced map.  No edit builds a drawing through
``from_routes``, and growing a triangulation or a quadrangulation traces
all faces a bounded number of times, not once per step.  Growth on one
mutable map (``surgery._grow``) equals the splice-per-vertex loop it
replaced (``splicing.spliced_growth``) slot by slot, dict order included.

Spliced ids keep their canonical relative order but are not compact: new
ids go into the gaps between old ones, and only a gap without room
renumbers the map (``_respace``).  The corpus holds parents with such
gapped ids, and a search renumbers a bounded number of times.
"""
from __future__ import annotations

import random
from functools import cache
from types import MappingProxyType

import pytest

from oddplanar import Drawing, Multigraph, complete_graph
from oddplanar import oracle, surgery
from oddplanar.docio import serialize_drawing
from oddplanar.drawing import STRIDE
from oddplanar.oracle import EnumerationBudget, extremal_search, perturb_even, random_drawing
from oddplanar.surgery import (
    add_diagonals,
    double_crossing_move,
    insert_vertex_in_face,
    pseudo_double_wheel,
    quadrangulation_with_diagonals,
    random_planar_drawing,
    random_planar_triangulation,
    random_quadrangulation,
    route_edge,
    shortest_dual_path,
)
from fixtures import figure_eight, k5_one_crossing, lens_pair
from poking import entangle_options
from smoothing import rebuilt_without
from splicing import rebuilt_diagonals, rebuilt_double_crossing, rebuilt_route_edge, rebuilt_vertex_in_face, spliced_growth
from test_drawing_views import lazy, two_loops, views
from test_explore_kernels import self_crossing_drawing
from test_remove_edges import order_map, relabelled


def search_walk(seed: int, steps: int = 20) -> Drawing:
    """Search-style edits on a perturbed triangulation: pokes, and reroutes
    of an edge under its own id, so the ids end up in gaps."""
    rng = random.Random(seed)
    d = perturb_even(random_planar_triangulation(10, seed), 2, seed)[0]
    for step in range(steps):
        if step % 2:
            d = double_crossing_move(d, *rng.choice(entangle_options(d)))[0]
        else:
            eid = rng.choice(d.graph.edge_ids())
            u, v = d.graph.endpoints(eid)
            base = d.remove_edges({eid})
            d = route_edge(base, eid, u, v, *shortest_dual_path(base, u, v, rng))
    return d


def respaced() -> Drawing:
    """A poke on a compact drawing: no gap has room, so every id is
    renumbered to a multiple of the stride."""
    d = perturb_even(random_planar_triangulation(12, 7), 2, 7)[0].canonicalize()
    return double_crossing_move(d, *entangle_options(d)[0])[0]


@cache
def sources() -> dict[str, Drawing]:
    tri = random_planar_triangulation(14, 3)
    return {
        "triangulation": tri,
        "triangulation-gappy": tri.remove_edges({2, 9, 20}),
        "vertex-gap": tri.induced_subdrawing(set(tri.graph.vertices) - {3, 8}),
        "quadrangulation": random_quadrangulation(13, 4),
        "quad-diagonals": quadrangulation_with_diagonals(11, 2),
        "perturbed": perturb_even(random_planar_triangulation(10, 5), 5, 5)[0],
        "convex": random_drawing(complete_graph(6), 1, "convex"),
        "self-crossing": self_crossing_drawing(),
        "loops": two_loops(),
        "figure-eight": figure_eight().disjoint_union(k5_one_crossing()),
        "lens": lens_pair(),
        "relabelled": relabelled(perturb_even(random_planar_triangulation(8, 6), 3, 6)[0]),
        "respaced": respaced(),
        "search-walk": search_walk(4),
    }


def counting_respaces(monkeypatch) -> list:
    calls = []
    original = surgery._respace

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(surgery, "_respace", counting)
    return calls


def counting_from_routes(monkeypatch) -> list:
    calls = []
    original = Drawing.from_routes.__func__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Drawing, "from_routes", classmethod(counting))
    return calls


def prime(d: Drawing) -> Drawing:
    """d with the views an edit patches where its parent holds them."""
    d.face_of_dart(), d._odd_degrees(), d._poke_counts()
    return d


def assert_spliced(out: Drawing, ref: Drawing, ordered: bool, parent: Drawing | None = None) -> None:
    face_of, odd_deg, pokes = out._face_of, out._odd_deg, out._pokes
    assert serialize_drawing(out) == serialize_drawing(ref)
    assert out == ref
    assert out.validate() == [] == ref.validate()
    assert out.crossing_stats() == ref.crossing_stats()
    assert max(out.theta, default=-1) <= out._top

    # Carried views equal the lazily derived ones: counts and odd degrees
    # as dicts, the faces and the dart-to-face map exactly, and the route,
    # pass and segment views in order too when the source's ids are in
    # canonical relative order.
    again = lazy(out)
    if ordered:
        assert views(out) == views(again)
        assert [list(c.items()) for c in out._counts()] == [list(c.items()) for c in again._counts()]
    vrot, routes, spins = out.route_view()
    for mine, derived in zip((vrot, routes, spins, out.crossing_passes(), out.segment_of_dart()),
                             (*again.route_view(), again.crossing_passes(), again.segment_of_dart())):
        assert dict(mine) == dict(derived)
    assert out._counts() == again._counts()
    assert out._odd_degrees() == again._odd_degrees()
    assert out.faces() == again.faces()
    assert dict(out.face_of_dart()) == dict(again.face_of_dart())
    assert out._poke_counts() == again._poke_counts()

    # What the edit patched from its parent (the face map only where no
    # id was renamed) equals the fresh derivation.
    if parent is not None:
        assert odd_deg is not None or parent._odd_deg is None
        assert pokes is not None or parent._pokes is None
        assert face_of is not None or parent._face_of is None or not parent.theta.keys() <= out.theta.keys()
    assert face_of is None or dict(face_of) == dict(again.face_of_dart())
    assert odd_deg is None or odd_deg == again._odd_degrees()
    assert pokes is None or pokes == again._poke_counts()

    if ordered:
        dmap = order_map(out.theta, ref.theta)
        nmap = order_map(out.rotation, ref.rotation)
        assert {nmap[n]: tuple(dmap[x] for x in r) for n, r in out.rotation.items()} == ref.rotation
        assert {dmap[a]: dmap[b] for a, b in out.theta.items()} == ref.theta
        assert {e: tuple(dmap[x] for x in p) for e, p in out.edge_paths.items()} == ref.edge_paths
        assert [tuple(dmap[x] for x in f) for f in out.faces()] == list(ref.faces())
        assert list(out.edge_paths) == sorted(out.edge_paths)


def vertex_insertions(d: Drawing):
    """(face, corner positions) for up to six faces: every corner at a
    distinct real vertex, and the first such corner alone."""
    real = set(d.graph.vertices)
    for face in d.faces()[:6]:
        picks, seen = [], set()
        for i, x in enumerate(face):
            node = d.dart_node(x)
            if node in real and node not in seen:
                picks.append(i)
                seen.add(node)
        if picks:
            yield face, picks
            yield face, picks[:1]


def routes_of(d: Drawing, rng: random.Random):
    """(u, v, u corner, v corner, crossed) along shortest dual paths for a
    few seeded vertex pairs."""
    verts = d.graph.vertices
    for _ in range(4):
        u, v = rng.sample(verts, 2)
        yield (u, v, *shortest_dual_path(d, u, v, rng))


def ids_below_max(d: Drawing) -> list[int]:
    """Unused edge ids below the largest one."""
    used = set(d.graph.edge_ids())
    return [e for e in range(max(used, default=0)) if e not in used][:2]


@pytest.mark.parametrize("name", sorted(sources()))
def test_vertex_insertion_agrees_with_the_rebuild(name, monkeypatch):
    d = prime(sources()[name])
    ordered = name != "relabelled"
    top_v = max(d.graph.vertices) + 1
    top_e = max(d.graph.edge_ids(), default=-1) + 1
    cases = []
    for face, picks in vertex_insertions(d):
        cases.append((face, picks, top_v, top_e))
        for low in ids_below_max(d)[: 1 if len(picks) == 1 else 0]:
            cases.append((face, picks, top_v + 5, low))
    cases.append((d.faces()[0], [], top_v + 1, top_e))
    gaps = [v for v in range(top_v) if v not in d.graph.vertices]
    if gaps:
        face, picks = next(vertex_insertions(d))
        cases.append((face, picks, gaps[0], top_e))
    assert cases
    calls = counting_from_routes(monkeypatch)
    outs = [(insert_vertex_in_face(d, *case), case) for case in cases]
    assert calls == []
    monkeypatch.undo()
    for out, case in outs:
        assert_spliced(out, rebuilt_vertex_in_face(d, *case), ordered, d)


@pytest.mark.parametrize("name", sorted(sources()))
def test_edge_routing_agrees_with_the_rebuild(name, monkeypatch):
    d = prime(sources()[name])
    ordered = name != "relabelled"
    rng = random.Random(name)
    top = max(d.graph.edge_ids(), default=-1) + 1
    cases = [(d, top, *r) for r in routes_of(d, rng)]
    cases += [(d, e, *r) for e, r in zip(ids_below_max(d), routes_of(d, rng))]
    # The explorer's reroute: remove an edge, route it again under its id.
    for eid in rng.sample(d.graph.edge_ids(), min(3, d.graph.m)):
        u, v = d.graph.endpoints(eid)
        if u != v:
            base = d.remove_edges({eid})
            cases.append((base, eid, u, v, *shortest_dual_path(base, u, v, rng)))
    assert any(case[-1] for case in cases) or name in ("convex", "figure-eight", "lens", "loops")
    calls = counting_from_routes(monkeypatch)
    outs = [route_edge(*case) for case in cases]
    assert calls == []
    monkeypatch.undo()
    for out, case in zip(outs, cases):
        assert_spliced(out, rebuilt_route_edge(*case), ordered, case[0])


@pytest.mark.parametrize("name", sorted(sources()))
def test_double_crossing_agrees_with_the_rebuild(name, monkeypatch):
    d = prime(sources()[name])
    ordered = name != "relabelled"
    options = entangle_options(d)
    if not options:
        pytest.skip("no face offers two distinct edges")
    picks = random.Random(name).sample(options, min(8, len(options)))
    calls = counting_from_routes(monkeypatch)
    outs = [double_crossing_move(d, a, b)[0] for a, b in picks]
    assert calls == []
    monkeypatch.undo()
    for out, (a, b) in zip(outs, picks):
        assert_spliced(out, rebuilt_double_crossing(d, a, b), ordered, d)


def perturbed_quadrangulation() -> Drawing:
    return perturb_even(random_quadrangulation(12, 1), 6, 2)[0]


@pytest.mark.parametrize("make", [
    lambda: random_quadrangulation(13, 4),
    lambda: pseudo_double_wheel(40),  # two apices of degree 40
    perturbed_quadrangulation,
    lambda: random_drawing(complete_graph(6), 1, "convex"),
], ids=["quadrangulation", "double-wheel", "perturbed", "convex-K6"])
def test_diagonals_agree_with_the_rebuild(make, monkeypatch):
    d = make()
    calls = counting_from_routes(monkeypatch)
    out = add_diagonals(d)
    assert calls == []
    monkeypatch.undo()
    assert_spliced(out, rebuilt_diagonals(d), True)


def test_diagonals_skip_faces_with_crossing_corners():
    d = perturbed_quadrangulation()
    out = add_diagonals(d)
    assert out.graph.m > d.graph.m
    assert set(out.graph.vertices) == set(d.graph.vertices)
    assert out.validate() == []
    assert all(len(out.rotation[c]) == 4 for c in out.crossing_nodes())


def test_diagonals_leave_an_edgeless_drawing_as_it_is():
    for d in (Drawing.empty(), Drawing.crossing_free(Multigraph((0, 1, 2), ()), {0: (), 1: (), 2: ()})):
        assert add_diagonals(d) is d


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chained_edits_agree_with_chained_rebuilds(seed):
    """An explorer-like walk: pokes, reroutes under the removed id, new
    edges and new vertices, each applied to the last spliced drawing and
    to the last rebuild alike."""
    rng = random.Random(seed)
    out = ref = perturb_even(random_planar_triangulation(9, seed), 2, seed)[0]
    for step in range(12):
        kind, parent = step % 4, out
        if kind == 0:
            a, b = rng.choice(entangle_options(out))
            dmap = order_map(out.theta, ref.theta)
            out, ref = double_crossing_move(out, a, b)[0], rebuilt_double_crossing(ref, dmap[a], dmap[b])
        elif kind in (1, 2):
            eid = rng.choice(out.graph.edge_ids()) if kind == 1 else max(out.graph.edge_ids()) + 1
            u, v = out.graph.endpoints(eid) if kind == 1 else rng.sample(out.graph.vertices, 2)
            parent = base_out = out.remove_edges({eid}) if kind == 1 else out
            base_ref = rebuilt_without(ref, {eid}) if kind == 1 else ref
            uc, vc, crossed = shortest_dual_path(base_out, u, v, random.Random(step))
            dmap = order_map(base_out.theta, base_ref.theta)
            out = route_edge(base_out, eid, u, v, uc, vc, crossed)
            ref = rebuilt_route_edge(base_ref, eid, u, v, dmap.get(uc), dmap.get(vc), [dmap[x] for x in crossed])
        else:
            i = rng.randrange(len(out.faces()))
            face = out.faces()[i]
            w, e = max(out.graph.vertices) + 1, max(out.graph.edge_ids()) + 1
            real = [j for j, x in enumerate(face) if out.dart_node(x) in out.graph.vertices][:1]
            out, ref = insert_vertex_in_face(out, face, real, w, e), rebuilt_vertex_in_face(ref, ref.faces()[i], real, w, e)
        assert_spliced(out, ref, True, parent)


@pytest.mark.parametrize("seed", range(70, 90))
def test_pokes_after_removals_agree_with_the_rebuild(seed):
    """Removals leave gaps below the dart bound; pokes near the top must
    still place their darts between the right neighbours."""
    out = ref = random_planar_drawing(4 + seed % 7, seed, deletions=seed % 4)
    rng = random.Random(seed)
    for _ in range(4):
        options = entangle_options(out)
        if not options:
            return
        a, b = options[rng.randrange(len(options))]
        dmap = order_map(out.theta, ref.theta)
        parent = out
        out, ref = double_crossing_move(out, a, b)[0], rebuilt_double_crossing(ref, dmap[a], dmap[b])
        assert_spliced(out, ref, True, parent)


def test_removal_carries_faces():
    for d in sources().values():
        prime(d)
        for eid in d.graph.edge_ids()[:6]:
            out = d.remove_edges({eid})
            # The faces, face map and poke counts are patched from the
            # source's on first read, the odd degrees at once.
            assert out._face_source is not None and out._odd_deg is not None
            again = lazy(out)
            assert out._odd_deg == again._odd_degrees()
            assert out.faces() == again.faces()
            assert out._face_of is not None and dict(out._face_of) == dict(again.face_of_dart())
            assert out._pokes is not None and out._pokes == again._poke_counts()
            assert rebuilt_without(d, {eid}) == out


def test_removal_carries_the_segment_map():
    for d in sources().values():
        for eid in d.graph.edge_ids()[:6]:
            out = d.remove_edges({eid})
            assert out._segments is not None
            assert list(out.segment_of_dart().items()) == list(lazy(out).segment_of_dart().items())


def test_edits_leave_their_input_unchanged():
    d = sources()["self-crossing"]
    before = (dict(d.rotation), dict(d.theta), dict(d.edge_paths), views(d), d.faces(), d.crossing_stats())
    a, b = entangle_options(d)[0]
    double_crossing_move(d, a, b)
    route_edge(d, 500, 0, 7, *shortest_dual_path(d, 0, 7))
    insert_vertex_in_face(d, d.faces()[0], [0], 501, 501)
    assert (dict(d.rotation), dict(d.theta), dict(d.edge_paths), views(d), d.faces(), d.crossing_stats()) == before


@pytest.mark.parametrize("grow, n", [(random_planar_triangulation, 300), (random_quadrangulation, 301)])
def test_growth_traces_and_rebuilds_a_bounded_number_of_times(grow, n, monkeypatch):
    calls = counting_from_routes(monkeypatch)
    traces = []
    original = Drawing.faces

    def counting_faces(self):
        if self._faces is None:
            traces.append(self)
        return original(self)

    monkeypatch.setattr(Drawing, "faces", counting_faces)
    for seed in (0, 1):
        d = grow(n, seed)
        assert d.graph.n == n
    assert len(calls) <= 2 and len(traces) <= 2


def fields(d: Drawing) -> list:
    """Every slot of d, each container as the repr of its item list, so
    equal lists mean equal values in the same key order."""

    def show(v):
        if isinstance(v, Multigraph):
            return show((v.vertices, v.edges, v._ends, v._eids))
        if isinstance(v, (dict, MappingProxyType)):
            return repr(list(v.items()))
        if isinstance(v, tuple) and v and isinstance(v[0], (dict, MappingProxyType)):
            return [show(m) for m in v]
        return repr(v)

    return [(name, show(getattr(d, name))) for name in Drawing.__slots__]


@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("n", ["base", "base + 1", 9, 25, 60])
@pytest.mark.parametrize("base, corners, tag", [(surgery.base_triangle, [0, 1, 2], "tri"),
                                                (surgery.base_square, [0, 2], "quad")])
def test_growth_on_one_map_equals_the_splice_loop(base, corners, tag, n, seed):
    size = base().graph.n
    n = {"base": size, "base + 1": size + 1}.get(n, n)
    rng, ref_rng = random.Random(f"{seed}:{tag}"), random.Random(f"{seed}:{tag}")
    out, ref = surgery._grow(base(), n, rng, corners), spliced_growth(base(), n, ref_rng, corners)
    assert fields(out) == fields(ref)
    assert rng.getstate() == ref_rng.getstate()
    assert out.validate() == [] == ref.validate()
    assert fields(perturb_even(out, 6, seed)[0]) == fields(perturb_even(ref, 6, seed)[0])
    assert fields(add_diagonals(out)) == fields(add_diagonals(ref))


# ---------------------------------------------------------------------------
# Ids in gaps
# ---------------------------------------------------------------------------


def test_the_gapped_sources_have_gapped_ids():
    d = sources()["respaced"]
    assert all(x % STRIDE == 0 for x in d.theta)
    crossings = d.crossing_nodes()
    assert [c - max(d.graph.vertices) for c in crossings] == [STRIDE * (i + 1) for i in range(len(crossings))]
    walked = sorted(sources()["search-walk"].theta)
    assert walked[-1] > STRIDE and min(b - a for a, b in zip(walked, walked[1:])) < STRIDE


def test_pokes_into_one_shrinking_gap_respace_and_agree_with_the_rebuild(monkeypatch):
    """Poke the lens a poke leaves, again and again: each poke splits the
    middle segments of the last one, so their gap shrinks until it has no
    room and the map is respaced."""
    calls = counting_respaces(monkeypatch)
    out = ref = sources()["search-walk"]
    a, b = entangle_options(out)[0]
    for _ in range(30):
        dmap = order_map(out.theta, ref.theta)
        parent = prime(out)
        out, rec = double_crossing_move(out, a, b)
        ref = rebuilt_double_crossing(ref, dmap[a], dmap[b])
        assert_spliced(out, ref, True, parent)
        if calls:
            break
        # The lens between the two new crossings: one side is the middle
        # segment of each poked edge.
        face_of = out.face_of_dart()
        pa, pb = out.edge_paths[rec.edge_a], out.edge_paths[rec.edge_b]
        qa, qb = 2 * rec.route_pos_a + 2, 2 * rec.route_pos_b + 2
        a, b = next((x, y) for x in pa[qa : qa + 2] for y in pb[qb : qb + 2] if face_of[x] == face_of[y])
    assert len(calls) == 1


def test_a_splice_into_gaps_leaves_untouched_darts_alone(monkeypatch):
    calls = counting_respaces(monkeypatch)
    d = sources()["search-walk"]
    rng = random.Random(5)
    seg = d.segment_of_dart()
    for a, b in rng.sample(entangle_options(d), 6):
        out = double_crossing_move(d, a, b)[0]
        edited = {seg[a][0], seg[b][0]}
        kept = [x for x in d.theta if seg[x][0] not in edited]
        assert kept
        for x in kept:
            assert out.theta[x] == d.theta[x]
            assert out.dart_node(x) == d.dart_node(x)
            assert out.segment_of_dart()[x] == seg[x]
        assert {c: out.rotation[c] for c in d.crossing_nodes()} == {c: d.rotation[c] for c in d.crossing_nodes()}
    assert calls == []


def shuffled(d: Drawing, seed: int) -> Drawing:
    """The same map with its dart and crossing ids permuted at random,
    through the raw constructor, so the gaps between ids overlap."""
    rng = random.Random(seed)
    darts = sorted(d.theta)
    dmap = dict(zip(darts, rng.sample(darts, len(darts))))
    top = max(d.graph.vertices)
    cross = [n for n in d.rotation if n not in d.graph.vertices]
    ids = rng.sample(range(top + 1, top + 1 + 3 * len(cross)), len(cross))
    nmap = {n: n for n in d.graph.vertices} | dict(zip(cross, ids))
    return Drawing(
        d.graph,
        {nmap[n]: tuple(dmap[x] for x in r) for n, r in d.rotation.items()},
        {dmap[a]: dmap[b] for a, b in d.theta.items()},
        {e: tuple(dmap[x] for x in p) for e, p in d.edge_paths.items()},
    )


@pytest.mark.parametrize("seed", [9, 11, 17, 34])
def test_splices_on_ids_out_of_order_stay_valid(seed):
    """Ids out of canonical order give overlapping gaps: no two new darts
    may take the same free id (on these seeds some poke's two gaps
    overlap)."""
    d = shuffled(perturb_even(random_planar_triangulation(9, seed), 3, seed)[0], seed)
    for a, b in entangle_options(d):
        out = double_crossing_move(d, a, b)[0]
        assert out.validate() == [] and out == rebuilt_double_crossing(d, a, b)
    rng = random.Random(seed)
    for eid in rng.sample(d.graph.edge_ids(), 3):
        u, v = d.graph.endpoints(eid)
        base = d.remove_edges({eid})
        case = (base, eid, u, v, *shortest_dual_path(base, u, v, rng))
        out = route_edge(*case)
        assert out.validate() == [] and out == rebuilt_route_edge(*case)


@pytest.mark.parametrize("k, n", [(1, 12), (1, 13), (1, 24), (2, 12), (2, 13), (2, 24)])
def test_a_reroute_keeps_the_drawing_exactly_when_the_rebuild_equals_it(k, n, monkeypatch):
    """Every reroute of a seeded search against ``route_edge``: the search
    keeps its drawing exactly when the rebuilt map, ids included, is that
    drawing's, and otherwise gets the rebuilt map."""
    seen = []

    def checked(d, base, eid, uc, vc, crossed):
        out = surgery.reroute_edge(d, base, eid, uc, vc, crossed)
        ref = route_edge(base, eid, *d.graph.endpoints(eid), uc, vc, crossed)
        same = (ref.theta, ref.rotation, ref.edge_paths) == (d.theta, d.rotation, d.edge_paths)
        assert (out is d) == same
        assert (out.theta, out.rotation, out.edge_paths) == (ref.theta, ref.rotation, ref.edge_paths)
        seen.append((same, ref == d))
        return out

    monkeypatch.setattr(oracle, "reroute_edge", checked)
    for seed in range(3):
        extremal_search(k, n, EnumerationBudget(max_candidates=300), seed)
    # Kept, rebuilt equal up to ids, and real moves all occur.
    assert {(True, True), (False, True), (False, False)} <= set(seen)


def path_plus(crossings: int) -> Drawing:
    """The path 0-1-2, whose one face runs along both sides of each edge,
    plus edge 2: from 0 to 2 across edge 1, which a route may cross either
    way, or from 1 to 0 with no crossing, which may start at either of
    vertex 1's corners."""
    g = Multigraph((0, 1, 2), ((0, (0, 1)), (1, (1, 2))))
    path = Drawing.crossing_free(g, {0: ((0, 0),), 1: ((0, 1), (1, 0)), 2: ((1, 1),)})
    if crossings:
        return route_edge(path, 2, 0, 2, path.rotation[0][0], path.rotation[2][0], [path.edge_paths[1][0]])
    return route_edge(path, 2, 1, 0, path.rotation[1][0], path.rotation[0][0], [])


@pytest.mark.parametrize("make, keeps", [
    (lambda: path_plus(1), True),
    (lambda: path_plus(0), True),
    (k5_one_crossing, True),
    (lambda: sources()["search-walk"], True),
    # Ids out of canonical order: no route puts them back.
    (lambda: shuffled(perturb_even(random_planar_triangulation(7, 2), 2, 2)[0], 2), False),
], ids=["path-crossing", "path-parallel", "k5", "search-walk", "shuffled"])
def test_reroute_edge_keeps_the_drawing_exactly_when_the_route_rebuilds_it(make, keeps):
    """Every corner pair with no crossing or one, for a few edges: the
    drawing comes back itself exactly when ``route_edge`` rebuilds its map,
    ids included; otherwise the rebuilt map, or the same ValueError."""
    d = make()
    kept = built = 0
    for eid in [e for e, (u, v) in d.graph.edges if u != v][:4]:
        u, v = d.graph.endpoints(eid)
        base = d.remove_edges({eid})
        for uc in base.rotation[u] or (None,):
            for vc in base.rotation[v] or (None,):
                for crossed in [[], *([x] for x in base.theta)]:
                    try:
                        ref = route_edge(base, eid, u, v, uc, vc, crossed)
                    except ValueError:
                        with pytest.raises(ValueError):
                            surgery.reroute_edge(d, base, eid, uc, vc, crossed)
                        continue
                    out = surgery.reroute_edge(d, base, eid, uc, vc, crossed)
                    same = (ref.theta, ref.rotation, ref.edge_paths) == (d.theta, d.rotation, d.edge_paths)
                    assert (out is d) == same
                    assert (out.theta, out.rotation, out.edge_paths) == (ref.theta, ref.rotation, ref.edge_paths)
                    kept, built = kept + same, built + (not same)
    assert bool(kept) == keeps and built


@pytest.mark.parametrize("seed", [3, 8])
def test_a_search_respaces_a_bounded_number_of_times(seed, monkeypatch):
    calls = counting_respaces(monkeypatch)
    res = extremal_search(1, 24, EnumerationBudget(max_candidates=300), seed)
    assert res.proposals == 300 and res.accepted > 50
    assert len(calls) <= 2


# ---------------------------------------------------------------------------
# Malformed arguments are a ValueError
# ---------------------------------------------------------------------------


def test_route_edge_refuses_corners_that_do_not_chain():
    d = random_planar_triangulation(8, 1)
    with pytest.raises(ValueError, match="chain"):
        route_edge(d, d.graph.m, 0, 6, d.rotation[0][0], d.rotation[6][0], [])
    # A crossed dart on a face away from the u corner breaks the chain too.
    uc, vc, crossed = shortest_dual_path(d, 0, 6)
    far = next(x for x in d.theta if d.face_of_dart()[x] not in {d.face_of_dart()[uc], d.face_of_dart()[vc]})
    with pytest.raises(ValueError, match="chain"):
        route_edge(d, d.graph.m, 0, 6, uc, vc, [far])


def test_route_edge_still_bridges_map_components():
    d = k5_one_crossing().disjoint_union(lens_pair())
    out = route_edge(d, 50, 0, 6, d.rotation[0][0], d.rotation[6][0], [])
    assert out.validate() == [] and len(out.map_components()) == 1
    # From an isolated vertex into the other component, across one of its
    # segments: the first step joins the components.
    d = Drawing.from_routes(Multigraph((0, 1, 2, 3), ((0, (0, 1)), (1, (1, 2)), (2, (0, 2)))),
                            {0: ((0, 0), (2, 0)), 1: ((1, 0), (0, 1)), 2: ((2, 1), (1, 1)), 3: ()},
                            {0: (), 1: (), 2: ()}, {})
    face_of = d.face_of_dart()
    for x in d.theta:
        for vc in d.rotation[0]:
            if face_of[vc] == face_of[d.theta[x]]:
                out = route_edge(d, 3, 3, 0, None, vc, [x])
                assert out.validate() == [] and out == rebuilt_route_edge(d, 3, 3, 0, None, vc, [x])
            else:
                with pytest.raises(ValueError):
                    route_edge(d, 3, 3, 0, None, vc, [x])


def test_route_edge_arguments_are_value_errors():
    d = random_planar_triangulation(5, 2)
    corner = d.rotation[0][0]
    for args in (
        (99, 0, 77, None, None, []),  # unknown endpoint
        (99, 0, 5, corner, None, [10_000]),  # unknown crossed dart
        (99, 0, 4, -7, d.rotation[4][0], []),  # corner that is no dart
        (99, 0, 4, d.rotation[4][0], d.rotation[4][0], []),  # corner at the other end
        (99, 0, 4, None, d.rotation[4][0], []),  # no corner at a vertex with darts
        (0, 0, 4, corner, d.rotation[4][0], []),  # edge id in use
        (99, 2, 2, None, None, []),  # loop
    ):
        with pytest.raises(ValueError):
            route_edge(d, *args)


def test_vertex_insertion_arguments_are_value_errors():
    d = random_planar_triangulation(6, 1)
    face = d.faces()[0]
    for positions in ([0, 5], [-1], [0.5], [0, 0]):
        with pytest.raises(ValueError):
            insert_vertex_in_face(d, face, positions, 6, 100)
    with pytest.raises(ValueError):
        insert_vertex_in_face(d, face, [0], 3, 100)  # vertex id in use
    with pytest.raises(ValueError):
        insert_vertex_in_face(d, face, [0, 1], 6, 0)  # edge id in use
    with pytest.raises(ValueError):
        insert_vertex_in_face(d, face[1:] + (face[0] + 1,), [0], 6, 100)  # not a face
    with pytest.raises(ValueError):
        insert_vertex_in_face(d, (), [], 6, 100)


def test_double_crossing_arguments_are_value_errors():
    d = random_planar_triangulation(6, 1)
    a, b = entangle_options(d)[0]
    for args in ((a, 10_000), (-1, b), (a, d.theta[a])):
        with pytest.raises(ValueError):
            double_crossing_move(d, *args)
