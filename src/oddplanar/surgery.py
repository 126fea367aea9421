"""Face-respecting surgery on drawings.

Everything here modifies a drawing through its faces, which keeps the
result a sphere map by construction: inserting a vertex inside a face,
routing a new edge along a path in the dual (crossing one segment per
step), and the parity-preserving "double crossing" move that pokes one
edge across another and back.

Corners are addressed by darts: the corner of a face at a node sits
immediately counterclockwise of the face-cycle dart leaving that node,
so "insert before dart d" places a new ending into exactly that corner.

Every new crossing gets its stored bit from :func:`drawing.spin`: each
move works out which side one edge, taken end0->end1, passes the other
from, and ``spin`` turns that side into the stored bit.

The three edits check their arguments (a malformed one is a ValueError)
and, with ``add_diagonals``, patch copies of the map through one kernel,
``_splice``, and every view of the input, faces included, is carried.
Odd degrees are patched from the crossings a splice adds; pair counts are
carried only when no crossing is added.  The dart-to-face map and the
per-face poke counts are patched where the input holds them (the face
map not when ids are respaced).  New darts and crossings take free ids
between the old ids where a canonical rebuild puts them (``_place``), so
no old id changes: spliced ids keep their canonical relative order but
are not compact.  Only a gap without room makes the kernel respace every
id once, ``drawing.STRIDE`` apart.  ``reroute_edge`` compares the ids it
would place with the drawing the edge came from and splices nothing when
they, the corners and the spins are all the same.

Growth does not splice: ``_grow``, behind the triangulation and
quadrangulation generators, is the in-place kernel.  It edits one mutable
map step by step, gives each new edge the darts ``_place`` would, ``top +
STRIDE`` and ``top + 2 * STRIDE`` above the largest dart ``top`` so far,
and freezes the map once, with the views a spliced drawing carries.
"""
from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate, islice
from types import MappingProxyType

from .drawing import STRIDE, Drawing, Ending, _crossing, _endings, _norm_cyclic, _recount, _reface, _repass, _respace, _spread, _walk, spin
from .graphs import Multigraph


def _place(d: Drawing, vertex, edges, routes, splices) -> tuple:
    """Where :func:`_splice` puts the ids of what it adds: ``(dm, made, nm,
    node_of, ins, gaps, cgaps)``, the renaming of old darts and crossings
    (empty unless a gap has no room), the new darts per slot (a new edge,
    or a split segment (edge, index)), the node of each new crossing key,
    its (in, out) dart pairs, and the gaps of old dart and crossing ids
    that receive new ones."""
    old, rot0, theta0, spins0 = d.edge_paths, d.rotation, d.theta, d.route_view()[2]
    # Each slot of new darts goes into a gap of dart ids: a split segment
    # into the gap between its two darts, new edges into the gap between
    # the edges beside them by id (no upper limit after the last one).
    eids, slots, gaps = d.graph.edge_ids(), [], {}
    for e, _ in edges:
        i = bisect_left(eids, e)
        hi = old[eids[i]][0] if i < len(eids) else None
        lo = old[eids[i - 1]][-1] if i else -1
        slots.append(((lo, hi), e, 2 * len(routes[e]) + 2))
    slots += [((old[g][2 * q], old[g][2 * q + 1]), (g, q), 2 * len(keys)) for (g, q), keys in splices.items()]
    for gap, _, size in slots:
        gaps[gap] = gaps.get(gap, 0) + size
    dm, placed = {}, _spread(gaps, theta0.keys())
    if placed is None:
        dm, placed = _respace(theta0, gaps, 0)
    dget = dm.get
    made = {slot: list(islice(placed[gap], size)) for gap, slot, size in slots}

    # New crossings likewise go between their neighbours in least-dart
    # order, above every vertex; a new vertex at or above a crossing id
    # renumbers the crossings.
    ins: dict = {}
    for slot, keys in {**routes, **splices}.items():
        k = 0 if isinstance(slot, tuple) else 1
        for j, key in enumerate(keys):
            ins.setdefault(key, []).append(made[slot][k + 2 * j : k + 2 * j + 2])  # (in, out)
    nm, node_of, cgaps = {}, {}, {}
    new_v = () if vertex is None else (vertex,)
    if ins or (new_v and spins0):
        cross, top_v, at = sorted(spins0), max(d.graph.vertices[-1:] + new_v), []

        def least(c):
            x = min(rot0[c])
            return dget(x, x)

        for x, key in sorted((min(p[0] for p in ps), key) for key, ps in ins.items()):
            i = bisect_left(cross, x, key=least)
            gap = (cross[i - 1] if i else top_v, cross[i] if i < len(cross) else None)
            cgaps[gap] = cgaps.get(gap, 0) + 1
            at.append((key, gap))
        placed = None if new_v and cross and cross[0] <= vertex else _spread(cgaps, rot0.keys())
        if placed is None:
            nm, placed = _respace(cross, cgaps, top_v)
        node_of = {key: next(placed[gap]) for key, gap in at}
    return dm, made, nm, node_of, ins, gaps, cgaps


def _splice(d: Drawing, vertex, edges, ends, routes, splices, spins) -> Drawing:
    """The one surgery kernel: a new vertex, new edges ``(id, (u, v))``
    in id order and new crossings spliced into copies of the map.  ``ends``
    maps each new ending to the dart it goes before (None: at a vertex
    without darts, listed clockwise); ``routes`` (new edge -> keys) and
    ``splices`` ((edge, segment) -> keys) list new crossings in travel
    order, ``spins`` their bits.  The caller checks the arguments.

    New darts and crossings take free ids between the old ids where a
    rebuild would put them, so no old id changes and the ids keep their
    canonical relative order, though they are not compact.  Only when a
    gap has no room (as right after :meth:`Drawing.from_routes`) does
    :func:`_respace` renumber every dart or crossing once.  Only the faces
    through an edited corner or split segment are traced."""
    new_v = () if vertex is None else (vertex,)
    graph = d.graph._plus(new_v, tuple(edges)) if edges or new_v else d.graph
    old, rot0, theta0, node0 = d.edge_paths, d.rotation, d.theta, d._dart_node
    vrot, routes0, spins0 = d.route_view()
    passes0, faces0, seg0 = d.crossing_passes(), d.faces(), d.segment_of_dart()
    dm, made, nm, node_of, ins, gaps, cgaps = _place(d, vertex, edges, routes, splices)
    dget, nget = dm.get, nm.get

    def darts(t):  # t with its darts renamed; t itself when none moves
        return t if dm.keys().isdisjoint(t) else tuple(map(dget, t, t))

    if dm or nm:
        rotation = {nget(n, n): darts(r) for n, r in rot0.items()}
        theta = {dget(x, x): dget(y, y) for x, y in theta0.items()}
        paths = {e: darts(p) for e, p in old.items()}
        node = {dget(x, x): nget(n, n) for x, n in node0.items()}
        seg = {dget(x, x): s for x, s in seg0.items()}
        new_routes = {e: r if nm.keys().isdisjoint(r) else tuple(map(nget, r, r)) for e, r in routes0.items()}
        new_spins = {nget(c, c): s for c, s in spins0.items()}
        passes = {nget(c, c): p for c, p in passes0.items()}
        faces = [darts(f) for f in faces0]
    else:  # a read-only proxy copies fast only by its copy()
        rotation, theta, paths, node, seg = dict(rot0), dict(theta0), dict(old), dict(node0), seg0.copy()
        new_routes, new_spins, passes, faces = routes0.copy(), spins0.copy(), dict(passes0), list(faces0)
    vrot = vrot.copy()

    # New darts: paths, nodes, involution, segments, routes and passes.
    for (g, q), r in sorted((s, made[s]) for s in splices)[::-1]:
        paths[g] = paths[g][: 2 * q + 1] + tuple(r) + paths[g][2 * q + 1 :]
    for e, (u, v) in edges:
        paths[e] = tuple(made[e])
        node[made[e][0]], node[made[e][-1]] = u, v
    for key, ps in ins.items():
        for x, y in ps:
            node[x] = node[y] = node_of[key]
    touched = {g for g, _ in splices} | {e for e, _ in edges}
    for e in sorted(touched):
        p = paths[e]
        for q in range(0, len(p), 2):
            theta[p[q]], theta[p[q + 1]] = p[q + 1], p[q]
            seg[p[q]], seg[p[q + 1]] = (e, q // 2, True), (e, q // 2, False)
        new_routes[e] = tuple([node[x] for x in p[1:-1:2]])
    _repass(passes, new_routes, touched)
    for key, c in node_of.items():
        new_spins[c] = bool(spins[key])
        rotation[c] = _crossing(paths, passes[c], new_spins[c])

    # New endings at their vertices, one merge pass over each rotation.
    before: dict[int, dict] = {v: {} for v in new_v}
    for (e, end), corner in ends.items():
        t = made[e][-end]
        before.setdefault(node[t], {}).setdefault(dget(corner, corner), []).append(t)
    for x, put in before.items():
        r = []
        for y in rotation.get(x, ()):
            r += put.get(y, ())
            r.append(y)
        rotation[x] = _norm_cyclic(tuple(r + put.get(None, [])))
        vrot[x] = _endings(seg, rotation[x])

    # The views and paths in id order, as a rebuild lists them.  Renaming
    # keeps the order and appends keep it too; only a view that gained a
    # key below an old one is sorted again.  (No reader depends on the
    # order of the map's dicts.)
    def in_order(m):
        return {k: m[k] for k in sorted(m)}

    eids = d.graph.edge_ids()
    if edges and eids and edges[0][0] < eids[-1]:
        paths, new_routes = in_order(paths), in_order(new_routes)
    if any(hi is not None for _, hi in gaps):
        seg = in_order(seg)
    if new_v and vertex != graph.vertices[-1]:
        vrot = in_order(vrot)
    if any(hi is not None for _, hi in cgaps):
        new_spins, passes = in_order(new_spins), in_order(passes)
    top = max([max(dm.values()) if dm else d._top, *(r[-1] for r in made.values())])
    out = Drawing.__new__(Drawing)
    out._adopt(graph, rotation, theta, paths, node, top)
    out._segments, out._passes = MappingProxyType(seg), passes
    out._routes = (MappingProxyType(vrot), MappingProxyType(new_routes), MappingProxyType(new_spins))
    # The faces the new endings and split segments cut: every face left
    # where an old face was split or merged runs through a new dart, so
    # the new darts reach them all.
    seeds = [c for c in ends.values() if c is not None] + [x for g, q in splices for x in old[g][2 * q : 2 * q + 2]]
    _reface(out, faces, d, seeds, [x for r in made.values() for x in r], renamed=bool(dm))
    if not node_of:  # no new crossing: the counts stand
        (out._pair_counts, out._self_counts), out._odd_deg = d._counts(), d._odd_degrees()
    elif d._odd_deg is not None:
        # Pair counts stay lazy.  A new edge's pairs had no crossing.
        fresh = {e for e, _ in edges}
        out._odd_deg = _recount(d._odd_deg, [passes[c] for c in node_of.values()],
                                lambda pair: fresh.isdisjoint(pair) and d.crossing_count(*pair) % 2)
    return out


def _corners(face: tuple[int, ...], positions, node, real) -> tuple[list[int], list[int]]:
    """The corner darts of ``face`` at ``positions``, in ascending order of
    position, and their nodes, checked: each position inside the face,
    each node a real vertex (in ``real``), no node twice."""
    if not all(isinstance(i, int) and 0 <= i < len(face) for i in positions):
        raise ValueError("corner position outside the face")
    corners = [face[i] for i in sorted(positions)]
    nodes = [node[x] for x in corners]
    if not all(x in real for x in nodes):
        raise ValueError("face corner is not a real vertex")
    if len(set(nodes)) != len(nodes):
        raise ValueError("corner nodes must be distinct")
    return corners, nodes


def insert_vertex_in_face(d: Drawing, face: tuple[int, ...], corner_positions: list[int],
                          new_vid: int, first_eid: int) -> Drawing:
    """Place a new vertex inside the face and join it, crossing-free, to
    the real vertices at the chosen face corners.  New edges are numbered
    from ``first_eid`` in ascending corner order and run (corner, new).
    The face splits into one face per corner; ids and carried views
    follow the splice contract above."""
    vrot = d.route_view()[0]
    if new_vid in vrot:
        raise ValueError(f"vertex id {new_vid} already in use")
    if not d.edge_paths.keys().isdisjoint(range(first_eid, first_eid + len(corner_positions))):
        raise ValueError("edge id already in use")
    face, faces = tuple(face), d.faces()
    i = bisect_left(faces, (min(face),)) if face else 0
    if faces[i : i + 1] != (_norm_cyclic(face),):
        raise ValueError("not a face of the drawing")
    corners, nodes = _corners(face, corner_positions, d._dart_node, vrot)
    edges = [(first_eid + rank, (x, new_vid)) for rank, x in enumerate(nodes)]
    ends = {(e, 0): x for (e, _), x in zip(edges, corners)}
    # Clockwise around the new vertex = reverse of the boundary walk.
    ends.update(((e, 1), None) for e, _ in reversed(edges))
    return _splice(d, new_vid, edges, ends, {e: () for e, _ in edges}, {}, {})


def _route_args(d: Drawing, eid: int, u: int, v: int, u_corner, v_corner, crossed_darts) -> tuple:
    """:func:`route_edge`'s arguments, checked, as :func:`_splice` takes
    them: (edges, ends, routes, splices, spins)."""
    vrot = d.route_view()[0]
    seg_of = d.segment_of_dart()
    if u == v:
        raise ValueError("route_edge does not insert loops")
    if eid in d.edge_paths:
        raise ValueError(f"edge id {eid} already in use")
    if u not in vrot or v not in vrot or not all(x in seg_of for x in crossed_darts):
        raise ValueError("endpoints and crossed darts must belong to the drawing")
    for vert, corner in ((u, u_corner), (v, v_corner)):
        if corner is None and d.rotation[vert]:
            raise ValueError(f"vertex {vert} needs an explicit corner")
        if corner is not None and d._dart_node.get(corner) != vert:
            raise ValueError("corner dart not at its endpoint")
    splices: dict[tuple[int, int], tuple[int]] = {}
    spins: dict[int, bool] = {}
    for i, x in enumerate(crossed_darts):
        g, q, fwd = seg_of[x]
        if (g, q) in splices:
            raise ValueError("dual path crosses a segment twice")
        splices[g, q] = (i,)
        # The new edge crosses from x's left to its right, so x's edge
        # passes from the new edge's right when x points along it.
        spins[i] = spin(eid, g, not fwd)
    return [(eid, (u, v))], {(eid, 0): u_corner, (eid, 1): v_corner}, {eid: tuple(spins)}, splices, spins


def _chained(d: Drawing, out: Drawing, u: int, v: int, u_corner, v_corner, crossed_darts) -> Drawing:
    """``out``, the route of an edge from u to v spliced into d, once its
    corners and crossed darts are seen to chain through faces."""
    # The edge joins `parts` map components, or one when each step stays
    # in a face; every other component keeps V - E + F = 2 (an isolated
    # vertex counts one face, which faces() does not list).
    hops = [u_corner, *(y for x in crossed_darts for y in (x, d.theta[x])), v_corner]
    face_of = d.face_of_dart()
    parts = 1
    if None in hops or any(face_of[a] != face_of[b] for a, b in zip(hops[::2], hops[1::2])):
        comp = {n: i for i, c in enumerate(d.map_components()) for n in c}
        parts = len({comp[u], comp[v], *(comp[d.dart_node(x)] for x in crossed_darts)})
    isolated = hops.count(None)
    if len(out._faces) - len(d._faces) != len(crossed_darts) + 1 + isolated - 2 * (parts - 1):
        raise ValueError("corners and crossed darts do not chain through faces")
    return out


def route_edge(d: Drawing, eid: int, u: int, v: int,
               u_corner: int | None, v_corner: int | None,
               crossed_darts: list[int]) -> Drawing:
    """Insert edge ``eid`` from u to v along an explicit dual path.

    ``crossed_darts`` lists, in travel order, the dart of each segment the
    new edge crosses; the edge leaves the face on that dart's left and
    enters the face on its right.  Corners are "insert before this dart"
    at u and v (None only for an isolated endpoint).  Each segment may be
    crossed at most once per call.  Each face on the way splits in two; a
    route that does not chain through faces is a ValueError.  Ids and
    carried views follow the splice contract above, also for an ``eid``
    below the largest id.
    """
    args = _route_args(d, eid, u, v, u_corner, v_corner, crossed_darts)
    return _chained(d, _splice(d, None, *args), u, v, u_corner, v_corner, crossed_darts)


def reroute_edge(d: Drawing, base: Drawing, eid: int,
                 u_corner: int | None, v_corner: int | None,
                 crossed_darts: list[int]) -> Drawing:
    """Edge ``eid`` of d routed again: :func:`route_edge` on ``base``,
    which must be ``d.remove_edges({eid})``, with d's endpoints of eid.
    When the route would give the edge back every dart, crossing, corner
    and spin it has in d, ids included, the result is d itself and nothing
    is spliced."""
    u, v = d.graph.endpoints(eid)
    args = _route_args(base, eid, u, v, u_corner, v_corner, crossed_darts)
    if _puts_back(d, base, eid, *args):
        return d
    return _chained(base, _splice(base, None, *args), u, v, u_corner, v_corner, crossed_darts)


def _puts_back(d: Drawing, base: Drawing, eid: int, edges, ends, routes, splices, spins) -> bool:
    """Whether :func:`_splice` of edge ``eid`` into ``base`` (d without
    it) with these arguments gives d's map exactly, ids included, without
    splicing.  It does when no id is renamed, the edge's path and route
    are d's (so its crossings are the ones removing it killed, in order),
    each edge it crosses gets back d's path, which holds every dart that
    removing eid smoothed away, and each new crossing and both endpoints
    get back d's rotation: nothing else differs between base and d.  (The
    renaming and path checks matter only for ids out of canonical order.)"""
    dm, made, nm, node_of = _place(base, None, edges, routes, splices)[:4]
    p = tuple(made[eid])
    if dm or nm or p != d.edge_paths[eid] or d.route_view()[1][eid] != tuple(node_of[i] for i in range(len(spins))):
        return False
    paths = {eid: p}
    for (g, q), r in sorted(((s, made[s]) for s in splices), reverse=True):
        path = paths.get(g, base.edge_paths[g])
        paths[g] = path[: 2 * q + 1] + tuple(r) + path[2 * q + 1 :]
    if any(d.edge_paths[g] != path for g, path in paths.items()):
        return False
    for (g, q), (i,) in splices.items():
        at = (eid, i), (g, (paths[g].index(made[g, q][0]) - 1) // 2)
        if d.rotation[node_of[i]] != _crossing(paths, sorted(at), spins[i]):
            return False
    for (e, end), corner in ends.items():
        x = p[-end]
        r = base.rotation[d._dart_node[x]]
        i = r.index(corner) if corner is not None else len(r)
        if d.rotation[d._dart_node[x]] != _norm_cyclic(r[:i] + (x,) + r[i:]):
            return False
    return True


def _shuffle(x: list, bits) -> list:
    """Shuffle x in place and return it, with the draws and result of
    ``random.Random.shuffle``: for i from the top down, j below i + 1 by
    rejection from ``bits((i + 1).bit_length())``, ``bits`` being the
    generator's ``getrandbits``; then x[i] and x[j] swap."""
    for i in range(len(x) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = bits(k)
        while j > i:
            j = bits(k)
        x[i], x[j] = x[j], x[i]
    return x


def shortest_dual_path(d: Drawing, u: int, v: int,
                       rng: random.Random | None = None) -> tuple[int | None, int | None, list[int]]:
    """A fewest-crossings dual path from u to v as (u corner, v corner,
    crossed darts), the arguments :func:`route_edge` takes.  Breadth-first
    search over faces, read off the carried dart-to-face map, in least-dart
    order; ``rng`` shuffles the start faces and each face's darts as it is
    explored, drawing as ``rng.shuffle`` does, for seeded variety.
    Endpoints in different map components are bridged without crossings.
    An endpoint that is not a vertex of d is a ValueError."""
    vrot = d.route_view()[0]
    if u not in vrot or v not in vrot:
        raise ValueError("endpoints must be vertices of the drawing")
    if u == v:
        raise ValueError("cannot insert a loop")
    face_of, theta = d.face_of_dart(), d.theta
    u_corners = d.rotation[u]
    v_corners = d.rotation[v]
    if not u_corners or not v_corners:
        # An isolated endpoint floats freely; bridge with no crossings.
        uc = u_corners[0] if u_corners else None
        vc = v_corners[0] if v_corners else None
        return uc, vc, []

    # Faces are named by their least dart.
    v_faces = {face_of[x][0]: x for x in reversed(v_corners)}
    start = {}
    for x in u_corners:
        start.setdefault(face_of[x][0], x)
    # BFS over faces: one FIFO queue that grows while it is read.
    queue = sorted(start)
    bits = None if rng is None else rng.getrandbits
    if bits is not None:
        _shuffle(queue, bits)
    parent: dict[int, tuple[int, int] | None] = dict.fromkeys(queue)
    goal = next((f for f in queue if f in v_faces), None)
    for f in queue:
        if goal is not None:
            break
        darts = face_of[f]
        if bits is not None and len(darts) == 3:  # _shuffle unrolled
            a, b, c = darts
            j = bits(2)
            while j == 3:
                j = bits(2)
            if j == 0:
                a, c = c, a
            elif j == 1:
                b, c = c, b
            j = bits(2)
            while j > 1:
                j = bits(2)
            darts = (b, a, c) if j == 0 else (a, b, c)
        elif bits is not None:
            darts = _shuffle(list(darts), bits)
        for x in darts:
            g = face_of[theta[x]][0]
            if g not in parent:
                parent[g] = (f, x)
                queue.append(g)
                if g in v_faces:
                    goal = g
                    break
    if goal is None:
        # Different map components with no shared face: plain bridge.
        return u_corners[0], v_corners[0], []
    crossed: list[int] = []
    f = goal
    while parent[f] is not None:
        f, x = parent[f]
        crossed.append(x)
    crossed.reverse()
    return start[f], v_faces[goal], crossed


def insert_edge_shortest(d: Drawing, eid: int, u: int, v: int,
                         rng: random.Random | None = None) -> Drawing:
    """Insert the edge along :func:`shortest_dual_path`."""
    return route_edge(d, eid, u, v, *shortest_dual_path(d, u, v, rng))


@dataclass(frozen=True)
class MoveRecord:
    """One parity-preserving double-crossing move: edge of dart a poked
    across edge of dart b inside their common face."""

    edge_a: int
    edge_b: int
    route_pos_a: int
    route_pos_b: int


def double_crossing_move(d: Drawing, dart_a: int, dart_b: int) -> tuple[Drawing, MoveRecord]:
    """Poke the segment of ``dart_a`` across the segment of ``dart_b`` and
    back; both darts must lie on the same face and on distinct edges.  The
    crossing count of that pair grows by exactly two, parities unchanged,
    and the lens between the two new crossings becomes a face.  Both new
    crossings are spliced into the gaps of existing segments."""
    face_of = d.face_of_dart()
    if dart_a not in face_of or dart_b not in face_of:
        raise ValueError("unknown dart")
    if face_of[dart_a] != face_of[dart_b]:
        raise ValueError("darts are not on a common face")
    seg_of = d.segment_of_dart()
    ea, qa, fa = seg_of[dart_a]
    eb, qb, fb = seg_of[dart_b]
    if ea == eb:
        raise ValueError("double crossing needs two distinct edges")
    # Walking the face, A traverses its segment along dart_a and B along
    # dart_b; in the disk between them A meets crossing 1 then 2, B meets
    # 2 then 1.  Along those darts B passes from A's right at 1 and from
    # A's left at 2; each dart against its edge's direction flips that.
    spins = {1: spin(ea, eb, fa != fb), 2: spin(ea, eb, fa == fb)}
    splices = {(ea, qa): (1, 2) if fa else (2, 1), (eb, qb): (2, 1) if fb else (1, 2)}
    return _splice(d, None, [], {}, {}, splices, spins), MoveRecord(ea, eb, qa, qb)


def random_poke(d: Drawing, rng: random.Random) -> tuple[int, int] | None:
    """Arguments for :func:`double_crossing_move` drawn by one
    ``rng.randrange`` over all of them, or None, with no draw, when there
    are none.  They are the pairs (a, b) of darts on one face and on
    distinct edges, b after a along the face, counted face by face in
    face order from the carried per-face counts; only the drawn face is
    listed."""
    cum = list(accumulate(d._poke_counts()))
    if not cum or not cum[-1]:
        return None
    r = rng.randrange(cum[-1])
    i = bisect_right(cum, r)
    r -= cum[i - 1] if i else 0
    face, seg = d.faces()[i], d.segment_of_dart()
    for j, a in enumerate(face):
        for b in face[j + 1 :]:
            if seg[b][0] != seg[a][0]:
                if not r:
                    return a, b
                r -= 1
    raise AssertionError("poke count out of date")


def undo_double_crossing(d: Drawing, rec: MoveRecord) -> Drawing:
    """Invert the most recent double-crossing move (LIFO discipline: the
    recorded route positions must still name the inserted pair)."""
    vrot, routes, spins = d.route_view()
    routes, spins = dict(routes), dict(spins)
    ra, rb = routes[rec.edge_a], routes[rec.edge_b]
    ca = ra[rec.route_pos_a : rec.route_pos_a + 2]
    cb = rb[rec.route_pos_b : rec.route_pos_b + 2]
    if len(ca) != 2 or set(ca) != set(cb):
        raise ValueError("record does not match the drawing")
    routes[rec.edge_a] = ra[: rec.route_pos_a] + ra[rec.route_pos_a + 2 :]
    routes[rec.edge_b] = rb[: rec.route_pos_b] + rb[rec.route_pos_b + 2 :]
    for c in set(ca):
        del spins[c]
    return Drawing.from_routes(d.graph, vrot, routes, spins, validate=False)


# ---------------------------------------------------------------------------
# Seeded constructive generators
# ---------------------------------------------------------------------------


def base_triangle() -> Drawing:
    g = Multigraph((0, 1, 2), ((0, (0, 1)), (1, (0, 2)), (2, (1, 2))))
    vrot = {0: ((1, 0), (0, 0)), 1: ((0, 1), (2, 0)), 2: ((2, 1), (1, 1))}
    return Drawing.crossing_free(g, vrot, validate=False)


def _grow(d: Drawing, n: int, rng: random.Random, corners: list[int]) -> Drawing:
    """Drop new vertices into seeded random faces until there are n, each
    joined to the face corners at positions ``corners``: the steps, draws,
    checks and output of :func:`insert_vertex_in_face`, made in place on
    one map (``d`` crossing-free, numbered from 0 as ``from_routes`` numbers
    it).  Rotations are one successor map over darts and the faces one
    list in least-dart order; a step traces only its new faces, and its new
    edges take the darts ``top + STRIDE``, ``top + 2 * STRIDE``, ... in id
    order, as :func:`_place` gives them.  The map is frozen once."""
    if n <= d.graph.n:
        return d
    faces, order = list(d.faces()), sorted(corners)
    theta, node, paths, seg = dict(d.theta), dict(d._dart_node), dict(d.edge_paths), d.segment_of_dart().copy()
    succ, at = {}, {}  # at: a dart at each vertex whose rotation grew
    for r in d.rotation.values():
        succ.update(zip(r, r[1:] + r[:1]))
    eid, top, edges = d.graph.m, d._top, []
    for w in range(d.graph.n, n):
        i = rng.randrange(len(faces))
        face, news = faces[i], []
        for j, x, u in zip(order, *_corners(face, corners, node, range(w))):
            a, b = top + STRIDE, top + 2 * STRIDE
            theta[a], theta[b] = b, a
            seg[a], seg[b] = (eid, 0, True), (eid, 0, False)
            node[a], node[b] = u, w
            paths[eid], top = (a, b), b
            edges.append((eid, (u, w)))
            eid += 1
            # a goes into the corner before x, right after the twin of the
            # face dart before x (the face walk turns from it onto x).
            succ[theta[face[j - 1]]], succ[a] = a, x
            at[u] = a
            news.append(a)
        # Clockwise around w = reverse of the boundary walk.
        bs = [theta[a] for a in news]
        succ.update(zip(bs, bs[-1:] + bs[:-1]))
        at[w] = bs[0]
        # Each new face enters w along one new edge, so it runs through
        # that edge's dart at the corner.  succ holds every dart, so the
        # walks read no rotation.
        del faces[i]
        for a in news:
            f = _walk(None, theta, None, a, succ)
            j = f.index(min(f))
            insort(faces, tuple(f[j:] + f[:j]))

    rotation, vrot = dict(d.rotation), d.route_view()[0].copy()
    for v, x in at.items():
        r, y = [x], succ[x]
        while y != x:
            r.append(y)
            y = succ[y]
        rotation[v] = _norm_cyclic(tuple(r))
        vrot[v] = _endings(seg, rotation[v])
    out = Drawing.__new__(Drawing)
    out._adopt(d.graph._plus(tuple(range(d.graph.n, n)), tuple(edges)), rotation, theta, paths, node, top)
    out._segments, out._passes, out._faces = MappingProxyType(seg), {}, tuple(faces)
    out._routes = (MappingProxyType(vrot), MappingProxyType(dict.fromkeys(paths, ())), MappingProxyType({}))
    (out._pair_counts, out._self_counts), out._odd_deg = d._counts(), d._odd_degrees()
    return out


def random_planar_triangulation(n: int, seed: int) -> Drawing:
    """Grow a plane triangulation: start from a triangle, repeatedly drop a
    new vertex into a (seeded) random face and join it to the three
    corners.  Every face stays a triangle with distinct corners."""
    if n < 3:
        raise ValueError("need n >= 3")
    return _grow(base_triangle(), n, random.Random(f"{seed}:tri"), [0, 1, 2])


def random_planar_drawing(n: int, seed: int, deletions: int = 0) -> Drawing:
    """Random embedded planar graph: a grown triangulation minus a seeded
    random selection of edges (isolated vertices may remain)."""
    if deletions < 0:
        raise ValueError("deletions must be >= 0")
    d = random_planar_triangulation(n, seed)
    if deletions:
        rng = random.Random(f"{seed}:del")
        eids = list(d.graph.edge_ids())
        rng.shuffle(eids)
        d = d.remove_edges(eids[: min(deletions, len(eids))])
    return d


def base_square() -> Drawing:
    g = Multigraph((0, 1, 2, 3), ((0, (0, 1)), (1, (0, 3)), (2, (1, 2)), (3, (2, 3))))
    vrot = {
        0: ((0, 0), (1, 0)),
        1: ((0, 1), (2, 0)),
        2: ((2, 1), (3, 0)),
        3: ((3, 1), (1, 1)),
    }
    return Drawing.crossing_free(g, vrot, validate=False)


def random_quadrangulation(n: int, seed: int) -> Drawing:
    """Grow a simple plane quadrangulation on n >= 4 vertices: insert each
    new vertex into a quadrilateral face joined to two opposite corners,
    which splits it into two quadrilaterals."""
    if n < 4:
        raise ValueError("need n >= 4")
    return _grow(base_square(), n, random.Random(f"{seed}:quad"), [0, 2])


def add_diagonals(d: Drawing) -> Drawing:
    """Add both diagonals, crossing once, inside every quadrilateral face
    with four distinct real vertices as corners, skipping any diagonal
    whose vertex pair is already an edge, so the result stays simple when
    the input is.  On a quadrangulation whose faces share no opposite
    corner pair this yields 2n-4 + 2(n-2) = 4n-8 edges, each diagonal
    crossed once.  One splice adds every chord; with none to add the
    input comes back as it is."""
    real = d.route_view()[0]
    used_pairs = {frozenset(uv) for _, uv in d.graph.edges}
    eid = max(d.graph.edge_ids(), default=-1) + 1
    edges, ends, routes, spins = [], {}, {}, {}
    for face in d.faces():
        nodes = [d.dart_node(x) for x in face]
        if len(face) != 4 or len(set(nodes)) != 4 or not all(x in real for x in nodes):
            continue
        pa, pb = frozenset(nodes[::2]), frozenset(nodes[1::2])
        if pa in used_pairs or pb in used_pairs:
            continue
        used_pairs |= {pa, pb}
        ea, eb = eid, eid + 1
        eid += 2
        # A runs corner0 -> corner2 and B corner1 -> corner3 through key ea;
        # with the face walked counterclockwise B passes from A's right.
        edges += [(ea, (nodes[0], nodes[2])), (eb, (nodes[1], nodes[3]))]
        routes[ea] = routes[eb] = (ea,)
        spins[ea] = spin(ea, eb, False)
        ends.update({(ea, 0): face[0], (ea, 1): face[2], (eb, 0): face[1], (eb, 1): face[3]})
    return _splice(d, None, edges, ends, routes, {}, spins) if edges else d


def pseudo_double_wheel(half: int) -> Drawing:
    """The quadrangulation on n = 2*half + 2 vertices (half >= 3) with a
    cycle v0..v_{2*half-1}, an inner apex adjacent to the even cycle
    vertices and an outer apex adjacent to the odd ones.  No two faces
    share an opposite corner pair, so :func:`add_diagonals` on it attains
    the full 4n-8 edge count."""
    if half < 3:
        raise ValueError("need half >= 3")
    m2 = 2 * half
    a, b = m2, m2 + 1
    verts = tuple(range(m2 + 2))
    edges: list[tuple[int, tuple[int, int]]] = []
    cyc: dict[int, int] = {}
    for i in range(m2):
        cyc[i] = len(edges)
        edges.append((len(edges), (i, (i + 1) % m2)))
    spoke: dict[int, int] = {}
    for i in range(m2):
        spoke[i] = len(edges)
        edges.append((len(edges), (a if i % 2 == 0 else b, i)))
    g = Multigraph(verts, tuple(edges))

    def tok(eid: int, at: int) -> Ending:
        u, v = g.endpoints(eid)
        return (eid, 0 if u == at else 1)

    vrot: dict[int, tuple[Ending, ...]] = {}
    # Cycle drawn clockwise with the even apex inside, odd apex outside.
    for i in range(m2):
        nxt = tok(cyc[i], i)
        prv = tok(cyc[(i - 1) % m2], i)
        sp = tok(spoke[i], i)
        if i % 2 == 0:
            vrot[i] = (nxt, sp, prv)  # clockwise: next on cycle, inward, prev
        else:
            vrot[i] = (sp, nxt, prv)  # clockwise: outward, next, prev
    vrot[a] = tuple(tok(spoke[i], a) for i in range(0, m2, 2))
    vrot[b] = tuple(tok(spoke[i], b) for i in reversed(range(1, m2, 2)))
    return Drawing.crossing_free(g, vrot)


def quadrangulation_with_diagonals(n: int, seed: int) -> Drawing:
    """Dense 1-plane warm start: for even n >= 8 the pseudo double wheel
    plus all diagonals (exactly 4n-8 edges); otherwise a grown
    quadrangulation plus whatever diagonals keep the graph simple."""
    if n >= 8 and n % 2 == 0:
        return add_diagonals(pseudo_double_wheel((n - 2) // 2))
    return add_diagonals(random_quadrangulation(n, seed))


def _blocks(adj: dict[int, list[int]]) -> list[list[tuple[int, int]]]:
    """Biconnected blocks of a simple graph as edge lists, by an iterative
    depth-first search with an edge stack (Hopcroft and Tarjan)."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        # (vertex, parent, neighbour iterator, stack index of the tree edge)
        work = [(root, None, iter(adj[root]), 0)]
        while work:
            v, parent, it, mark = work[-1]
            for w in it:
                if w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    work.append((w, v, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                work.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    blocks.append(edges[mark:])
                    del edges[mark:]
    return blocks


def _embed_block(block: list[tuple[int, int]]) -> dict[int, list[int]] | None:
    """Clockwise neighbour lists of a plane embedding of one biconnected
    block of a simple graph, or None if the block is nonplanar.

    Demoucron, Malgrange and Pertuiset (1964): embed a cycle, then
    repeatedly take the fragments of the rest (an unembedded edge between
    embedded vertices, or a component of unembedded vertices with its
    edges to the embedded part), find the faces holding all of each
    fragment's attachments, and lay a path of the fragment with the fewest
    such faces into one of them.  A fragment with no admissible face proves
    the block nonplanar.  Every face stays a simple cycle, stored as its
    vertex list in walk order: at face[i] the next vertex face[i + 1]
    follows face[i - 1] clockwise, as in :meth:`Drawing.faces`."""
    adj: dict[int, list[int]] = {}
    for u, v in block:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    a, b = block[0]
    if len(block) == 1:
        return {a: [b], b: [a]}
    # A cycle through the first edge: a shortest b-a path avoiding it.
    parent = {b: None}
    queue = [b]
    for x in queue:
        for y in adj[x]:
            if y not in parent and (x, y) != (b, a):
                parent[y] = x
                queue.append(y)
    cycle = [a]
    while cycle[-1] != b:
        cycle.append(parent[cycle[-1]])
    k = len(cycle)
    rot = {c: [cycle[i - 1], cycle[(i + 1) % k]] for i, c in enumerate(cycle)}
    faces = [cycle, cycle[::-1]]
    faces_at = {c: {0, 1} for c in cycle}
    done = {frozenset((cycle[i - 1], c)) for i, c in enumerate(cycle)}
    while len(done) < len(block):
        best = None
        for attach, path in _fragments(adj, rot, done):
            ok = set.intersection(*(faces_at[x] for x in attach))
            if not ok:
                return None
            if best is None or len(ok) < len(best[0]):
                best = (ok, path)
        ok, path = best
        fi = min(ok)
        face = faces[fi]
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        for x, prev, new in ((path[0], face[-1], path[1]), (path[-1], face[j - 1], path[-2])):
            r = rot[x]
            r.insert(r.index(prev) + 1, new)
        for h in range(1, len(path) - 1):
            rot[path[h]] = [path[h - 1], path[h + 1]]
            faces_at[path[h]] = {fi}
        for h in range(1, len(path)):
            done.add(frozenset(path[h - 1 : h + 1]))
        other = path[::-1] + face[1:j]
        faces[fi] = path + face[j + 1 :]
        for x in face[1:j]:
            faces_at[x].discard(fi)
        for x in other:
            faces_at[x].add(len(faces))
        faces.append(other)
    return rot


def _fragments(adj: dict[int, list[int]], rot: dict[int, list[int]], done: set):
    """(attachments, path) of each fragment of the embedded part ``rot``:
    the path joins two distinct attachments through the fragment."""
    for u in rot:
        for v in adj[u]:
            if u < v and v in rot and frozenset((u, v)) not in done:
                yield (u, v), [u, v]
    seen: set[int] = set()
    for start in adj:
        if start in rot or start in seen:
            continue
        seen.add(start)
        comp = [start]
        attach: dict[int, None] = {}
        for x in comp:
            for y in adj[x]:
                if y in rot:
                    attach[y] = None
                elif y not in seen:
                    seen.add(y)
                    comp.append(y)
        # In a biconnected block every fragment has two attachments; walk
        # from the first one into the fragment until another is adjacent.
        a = next(iter(attach))
        inside = set(comp)
        parent = {y: a for y in adj[a] if y in inside}
        queue = list(parent)
        for x in queue:
            end = next((y for y in adj[x] if y in rot and y != a), None)
            if end is not None:
                path = [end, x]
                while path[-1] != a:
                    path.append(parent[path[-1]])
                yield tuple(attach), path
                break
            for y in adj[x]:
                if y in inside and y not in parent:
                    parent[y] = x
                    queue.append(y)


def planar_rotations(adj: dict[int, list[int]]) -> dict[int, list[int]] | None:
    """Clockwise neighbour lists of a plane embedding of the simple graph
    with adjacency lists ``adj``, or None iff it is nonplanar.

    The graph is split into biconnected blocks, each block is embedded by
    path addition (:func:`_embed_block`), and the blocks are glued at
    their cut vertices by concatenating their rotations.  No map is built."""
    around: dict[int, list[int]] = {v: [] for v in adj}
    for block in _blocks(adj):
        rot = _embed_block(block)
        if rot is None:
            return None
        for v, r in rot.items():
            around[v].extend(r)
    return around


def planar_embedding(g: Multigraph) -> Drawing | None:
    """A crossing-free drawing of g, or None iff g is nonplanar.

    Exact for every multigraph: the simple skeleton (one edge per adjacent
    vertex pair) is embedded by :func:`planar_rotations`.  Loops and
    parallel copies never change planarity: each parallel copy goes
    beside its twin and each loop into a corner of its own.  The only map
    built is the final one, which is validated."""
    copies: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    for eid, (u, v) in g.edges:
        if u == v:
            loops.setdefault(u, []).append(eid)
        else:
            copies.setdefault((min(u, v), max(u, v)), []).append(eid)
    adj: dict[int, list[int]] = {v: [] for v in g.vertices}
    for u, v in copies:
        adj[u].append(v)
        adj[v].append(u)
    around = planar_rotations(adj)
    if around is None:
        return None
    vrot: dict[int, list[Ending]] = {}
    for v in g.vertices:
        out: list[Ending] = []
        for w in around[v]:
            # Copies run in id order at the smaller end and reversed at the
            # larger, so consecutive copies bound a 2-gon.
            group = copies[(v, w)] if v < w else copies[(w, v)][::-1]
            out.extend((e, 0 if g.endpoints(e)[0] == v else 1) for e in group)
        for e in loops.get(v, ()):
            out.extend(((e, 0), (e, 1)))
        vrot[v] = out
    d = Drawing.crossing_free(g, vrot, validate=False)
    assert not d.validate(), "planar embedding produced an invalid map"
    return d


def greedy_embed(g: Multigraph) -> Drawing:
    """Crossing-free drawing of a planar graph: :func:`planar_embedding`.
    Raises ValueError if g is nonplanar."""
    d = planar_embedding(g)
    if d is None:
        raise ValueError("graph is nonplanar")
    return d
