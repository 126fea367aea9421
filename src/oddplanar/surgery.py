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
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .drawing import Drawing, Ending, spin
from .graphs import Multigraph


def insert_vertex_in_face(d: Drawing, face: tuple[int, ...], corner_positions: list[int],
                          new_vid: int, first_eid: int) -> Drawing:
    """Place a new vertex inside the face and join it, crossing-free, to
    the real vertices at the chosen face corners.  New edges are numbered
    from ``first_eid`` in ascending corner order and run (corner, new)."""
    if new_vid in d.graph.vertices:
        raise ValueError(f"vertex id {new_vid} already in use")
    vrot, routes, spins = d.route_view()
    vrot, routes = dict(vrot), dict(routes)
    corner_nodes = []
    for i in corner_positions:
        x = d.dart_node(face[i])
        if x not in vrot:
            raise ValueError("face corner is not a real vertex")
        corner_nodes.append(x)
    if len(set(corner_nodes)) != len(corner_nodes):
        raise ValueError("corner nodes must be distinct")

    new_edges = []
    w_tokens: list[Ending] = []
    for rank, i in enumerate(sorted(corner_positions)):
        eid = first_eid + rank
        x = d.dart_node(face[i])
        j = d.rotation[x].index(face[i])
        vrot[x] = vrot[x][:j] + ((eid, 0),) + vrot[x][j:]
        new_edges.append((eid, (x, new_vid)))
        routes[eid] = ()
    # Clockwise around the new vertex = reverse of the boundary walk.
    for i in sorted(corner_positions, reverse=True):
        rank = sorted(corner_positions).index(i)
        w_tokens.append((first_eid + rank, 1))

    g2 = Multigraph(d.graph.vertices + (new_vid,), d.graph.edges + tuple(new_edges))
    vrot[new_vid] = w_tokens
    return Drawing.from_routes(g2, vrot, routes, spins, validate=False)


def route_edge(d: Drawing, eid: int, u: int, v: int,
               u_corner: int | None, v_corner: int | None,
               crossed_darts: list[int]) -> Drawing:
    """Insert edge ``eid`` from u to v along an explicit dual path.

    ``crossed_darts`` lists, in travel order, the dart of each segment the
    new edge crosses; the edge leaves the face on that dart's left and
    enters the face on its right.  Corners are "insert before this dart"
    at u and v (None only for an isolated endpoint).  Each segment may be
    crossed at most once per call.
    """
    if u == v:
        raise ValueError("route_edge does not insert loops")
    if eid in d.graph.edge_ids():
        raise ValueError(f"edge id {eid} already in use")
    vrot, routes, spins = d.route_view()
    vrot, routes, spins = dict(vrot), dict(routes), dict(spins)
    seg_of = d.segment_of_dart()

    # New crossings, travel order: (edge, segment) -> key.
    inserts: dict[tuple[int, int], object] = {}
    for i, x in enumerate(crossed_darts):
        g, q, fwd = seg_of[x]
        if (g, q) in inserts:
            raise ValueError("dual path crosses a segment twice")
        key = inserts[g, q] = ("new", i)
        # The new edge crosses from x's left to its right, so x's edge
        # passes from the new edge's right when x points along it.
        spins[key] = spin(eid, g, not fwd)
    # Splice each crossing into its segment, last segments first.
    for (g, q), key in sorted(inserts.items(), reverse=True):
        routes[g] = routes[g][:q] + (key,) + routes[g][q:]

    for end, vert, corner in ((0, u, u_corner), (1, v, v_corner)):
        if corner is None:
            if d.rotation[vert]:
                raise ValueError(f"vertex {vert} needs an explicit corner")
            vrot[vert] = ((eid, end),)
        else:
            if d.dart_node(corner) != vert:
                raise ValueError("corner dart not at its endpoint")
            j = d.rotation[vert].index(corner)
            vrot[vert] = vrot[vert][:j] + ((eid, end),) + vrot[vert][j:]

    g2 = Multigraph(d.graph.vertices, d.graph.edges + ((eid, (u, v)),))
    routes[eid] = tuple(inserts.values())
    return Drawing.from_routes(g2, vrot, routes, spins, validate=False)


def shortest_dual_path(d: Drawing, u: int, v: int,
                       rng: random.Random | None = None) -> tuple[int | None, int | None, list[int]]:
    """A fewest-crossings dual path from u to v as (u corner, v corner,
    crossed darts), the arguments :func:`route_edge` takes.  Breadth-first
    search over faces with deterministic tie-breaks; ``rng`` shuffles the
    exploration order for seeded variety.  Endpoints in different map
    components are bridged without crossings."""
    if u == v:
        raise ValueError("cannot insert a loop")
    faces = d.faces()
    face_of_dart = d.face_of_dart()
    u_corners = list(d.rotation[u])
    v_corners = list(d.rotation[v])
    if not u_corners or not v_corners:
        # An isolated endpoint floats freely; bridge with no crossings.
        uc = u_corners[0] if u_corners else None
        vc = v_corners[0] if v_corners else None
        return uc, vc, []

    v_faces = {face_of_dart[x]: x for x in reversed(v_corners)}
    start = {}
    for x in u_corners:
        start.setdefault(face_of_dart[x], x)
    # BFS over faces.
    parent: dict[int, tuple[int, int] | None] = {}
    order = sorted(start)
    if rng is not None:
        rng.shuffle(order)
    queue = list(order)
    for f in queue:
        parent[f] = None
    goal = None
    for f in queue:
        if f in v_faces:
            goal = f
            break
    while goal is None and queue:
        nxt: list[int] = []
        for f in queue:
            darts = list(faces[f])
            if rng is not None:
                rng.shuffle(darts)
            for x in darts:
                g = face_of_dart[d.theta[x]]
                if g in parent:
                    continue
                parent[g] = (f, x)
                nxt.append(g)
                if g in v_faces:
                    goal = g
                    break
            if goal is not None:
                break
        queue = nxt
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
    crossing count of that pair grows by exactly two, parities unchanged."""
    face_of = d.face_of_dart()
    if face_of[dart_a] != face_of[dart_b]:
        raise ValueError("darts are not on a common face")
    seg_of = d.segment_of_dart()
    ea, qa, fa = seg_of[dart_a]
    eb, qb, fb = seg_of[dart_b]
    if ea == eb:
        raise ValueError("double crossing needs two distinct edges")

    vrot, routes, spins = d.route_view()
    routes, spins = dict(routes), dict(spins)
    z1, z2 = ("dx", 1), ("dx", 2)
    # Walking the face, A traverses its segment along dart_a and B along
    # dart_b; in the disk between them A meets z1 then z2, B meets z2
    # then z1.  Along those darts B passes from A's right at z1 and from
    # A's left at z2; each dart against its edge's direction flips that.
    spins[z1] = spin(ea, eb, fa != fb)
    spins[z2] = spin(ea, eb, fa == fb)

    pair_a = (z1, z2) if fa else (z2, z1)
    pair_b = (z2, z1) if fb else (z1, z2)
    routes[ea] = routes[ea][:qa] + pair_a + routes[ea][qa:]
    routes[eb] = routes[eb][:qb] + pair_b + routes[eb][qb:]
    out = Drawing.from_routes(d.graph, vrot, routes, spins, validate=False)
    return out, MoveRecord(ea, eb, qa, qb)


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


def random_planar_triangulation(n: int, seed: int) -> Drawing:
    """Grow a plane triangulation: start from a triangle, repeatedly drop a
    new vertex into a (seeded) random face and join it to the three
    corners.  Every face stays a triangle with distinct corners."""
    if n < 3:
        raise ValueError("need n >= 3")
    rng = random.Random(f"{seed}:tri")
    d = base_triangle()
    eid = 3
    for w in range(3, n):
        faces = d.faces()
        face = faces[rng.randrange(len(faces))]
        d = insert_vertex_in_face(d, face, [0, 1, 2], w, eid)
        eid += 3
    return d


def random_planar_drawing(n: int, seed: int, deletions: int = 0) -> Drawing:
    """Random embedded planar graph: a grown triangulation minus a seeded
    random selection of edges (isolated vertices may remain)."""
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
    new vertex into a quadrilateral face joined to two opposite corners."""
    if n < 4:
        raise ValueError("need n >= 4")
    rng = random.Random(f"{seed}:quad")
    d = base_square()
    eid = 4
    for w in range(4, n):
        faces = [f for f in d.faces() if len(f) == 4]
        face = faces[rng.randrange(len(faces))]
        d = insert_vertex_in_face(d, face, [0, 2], w, eid)
        eid += 2
    return d


def add_diagonals(d: Drawing) -> Drawing:
    """Add both diagonals, crossing once, inside every quadrilateral face
    with four distinct corners, skipping any diagonal whose vertex pair
    is already an edge, so the result stays simple when the input is.
    On a quadrangulation whose faces share no opposite corner pair this
    yields 2n-4 + 2(n-2) = 4n-8 edges, each diagonal crossed once."""
    faces = [f for f in d.faces() if len(f) == 4]
    old_vrot, routes, spins = d.route_view()
    routes, spins = dict(routes), dict(spins)
    eid = max(d.graph.edge_ids()) + 1
    new_edges = []
    used_pairs = {frozenset(uv) for _, uv in d.graph.edges}
    # queued corner insertions: before-dart -> ending token
    pending: dict[int, Ending] = {}
    for idx, face in enumerate(faces):
        nodes = [d.dart_node(x) for x in face]
        if len(set(nodes)) != 4:
            continue
        pa, pb = frozenset((nodes[0], nodes[2])), frozenset((nodes[1], nodes[3]))
        if pa in used_pairs or pb in used_pairs:
            continue
        used_pairs.add(pa)
        used_pairs.add(pb)
        ea, eb = eid, eid + 1
        eid += 2
        z = ("diag", idx)
        new_edges.append((ea, (nodes[0], nodes[2])))
        new_edges.append((eb, (nodes[1], nodes[3])))
        routes[ea] = [z]
        routes[eb] = [z]
        # A runs corner0 -> corner2, B corner1 -> corner3; with the face
        # walked counterclockwise B passes from A's right.
        spins[z] = spin(ea, eb, False)
        for end, pos, e in ((0, 0, ea), (1, 2, ea), (0, 1, eb), (1, 3, eb)):
            pending[face[pos]] = (e, end)
    vrot: dict[int, list[Ending]] = {}
    for v in d.graph.vertices:
        out: list[Ending] = []
        for x, t in zip(d.rotation[v], old_vrot[v]):
            if x in pending:
                out.append(pending[x])
            out.append(t)
        vrot[v] = out
    g2 = Multigraph(d.graph.vertices, d.graph.edges + tuple(new_edges))
    return Drawing.from_routes(g2, vrot, routes, spins, validate=False)


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
