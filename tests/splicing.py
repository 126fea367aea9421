"""Reference surgery for the tests: the route-view rebuilds that
``insert_vertex_in_face``, ``route_edge``, ``double_crossing_move`` and
``add_diagonals`` used before they spliced the map in place, the growth
loop that spliced once per new vertex before ``surgery._grow`` grew one
mutable map, and the dual-path search before it drew its own shuffles.

Each rebuild edits a copy of the route view and materializes the result with
``Drawing.from_routes``, so its output has canonical ids.  Arguments are
taken as valid.  Not collected by pytest: the module name has no
``test_`` prefix."""
from __future__ import annotations

from oddplanar.drawing import Drawing, spin
from oddplanar.graphs import Multigraph
from oddplanar.surgery import insert_vertex_in_face


def spliced_growth(d: Drawing, n: int, rng, corners) -> Drawing:
    """``surgery._grow`` as one :func:`insert_vertex_in_face` splice per
    new vertex, into the face that ``rng.randrange`` draws."""
    eid = d.graph.m
    for w in range(d.graph.n, n):
        faces = d.faces()
        d = insert_vertex_in_face(d, faces[rng.randrange(len(faces))], corners, w, eid)
        eid += len(corners)
    return d


def rebuilt_vertex_in_face(d: Drawing, face, corner_positions, new_vid: int, first_eid: int) -> Drawing:
    vrot, routes, spins = d.route_view()
    vrot, routes = dict(vrot), dict(routes)
    positions = sorted(corner_positions)
    new_edges = []
    for rank, i in enumerate(positions):
        eid = first_eid + rank
        x = d.dart_node(face[i])
        j = d.rotation[x].index(face[i])
        vrot[x] = vrot[x][:j] + ((eid, 0),) + vrot[x][j:]
        new_edges.append((eid, (x, new_vid)))
        routes[eid] = ()
    # Clockwise around the new vertex = reverse of the boundary walk.
    vrot[new_vid] = tuple((first_eid + rank, 1) for rank in reversed(range(len(positions))))
    g2 = Multigraph(d.graph.vertices + (new_vid,), d.graph.edges + tuple(new_edges))
    return Drawing.from_routes(g2, vrot, routes, spins, validate=False)


def rebuilt_route_edge(d: Drawing, eid: int, u: int, v: int, u_corner, v_corner, crossed_darts) -> Drawing:
    vrot, routes, spins = d.route_view()
    vrot, routes, spins = dict(vrot), dict(routes), dict(spins)
    seg_of = d.segment_of_dart()
    inserts: dict[tuple[int, int], object] = {}
    for i, x in enumerate(crossed_darts):
        g, q, fwd = seg_of[x]
        key = inserts[g, q] = ("new", i)
        spins[key] = spin(eid, g, not fwd)
    for (g, q), key in sorted(inserts.items(), reverse=True):
        routes[g] = routes[g][:q] + (key,) + routes[g][q:]
    for end, vert, corner in ((0, u, u_corner), (1, v, v_corner)):
        if corner is None:
            vrot[vert] = ((eid, end),)
        else:
            j = d.rotation[vert].index(corner)
            vrot[vert] = vrot[vert][:j] + ((eid, end),) + vrot[vert][j:]
    g2 = Multigraph(d.graph.vertices, d.graph.edges + ((eid, (u, v)),))
    routes[eid] = tuple(inserts.values())
    return Drawing.from_routes(g2, vrot, routes, spins, validate=False)


def rebuilt_double_crossing(d: Drawing, dart_a: int, dart_b: int) -> Drawing:
    seg_of = d.segment_of_dart()
    ea, qa, fa = seg_of[dart_a]
    eb, qb, fb = seg_of[dart_b]
    vrot, routes, spins = d.route_view()
    routes, spins = dict(routes), dict(spins)
    z1, z2 = ("dx", 1), ("dx", 2)
    spins[z1] = spin(ea, eb, fa != fb)
    spins[z2] = spin(ea, eb, fa == fb)
    pair_a = (z1, z2) if fa else (z2, z1)
    pair_b = (z2, z1) if fb else (z1, z2)
    routes[ea] = routes[ea][:qa] + pair_a + routes[ea][qa:]
    routes[eb] = routes[eb][:qb] + pair_b + routes[eb][qb:]
    return Drawing.from_routes(d.graph, vrot, routes, spins, validate=False)


def rebuilt_diagonals(d: Drawing) -> Drawing:
    """Both crossing diagonals in every quadrilateral face with four
    distinct real vertices as corners, unless a pair is already an edge."""
    vrot, routes, spins = d.route_view()
    routes, spins = dict(routes), dict(spins)
    real = set(d.graph.vertices)
    eid = max(d.graph.edge_ids(), default=-1) + 1
    new_edges = []
    used_pairs = {frozenset(uv) for _, uv in d.graph.edges}
    pending = {}  # before-dart -> ending
    for idx, face in enumerate(d.faces()):
        nodes = [d.dart_node(x) for x in face]
        if len(face) != 4 or len(set(nodes)) != 4 or not real.issuperset(nodes):
            continue
        pa, pb = frozenset((nodes[0], nodes[2])), frozenset((nodes[1], nodes[3]))
        if pa in used_pairs or pb in used_pairs:
            continue
        used_pairs |= {pa, pb}
        ea, eb = eid, eid + 1
        eid += 2
        z = ("diag", idx)
        new_edges += [(ea, (nodes[0], nodes[2])), (eb, (nodes[1], nodes[3]))]
        routes[ea] = routes[eb] = (z,)
        spins[z] = spin(ea, eb, False)
        for end, pos, e in ((0, 0, ea), (1, 2, ea), (0, 1, eb), (1, 3, eb)):
            pending[face[pos]] = (e, end)
    new_vrot = {}
    for v in d.graph.vertices:
        out = []
        for x, t in zip(d.rotation[v], vrot[v]):
            if x in pending:
                out.append(pending[x])
            out.append(t)
        new_vrot[v] = tuple(out)
    g2 = Multigraph(d.graph.vertices, d.graph.edges + tuple(new_edges))
    return Drawing.from_routes(g2, new_vrot, routes, spins, validate=False)


def shuffled_dual_path(d: Drawing, u: int, v: int, rng=None):
    """``shortest_dual_path`` as it was before it read the dart-to-face map
    and drew its own shuffles: faces by index, orders by ``rng.shuffle``."""
    faces = d.faces()
    face_of_dart = {x: i for i, f in enumerate(faces) for x in f}
    u_corners = list(d.rotation[u])
    v_corners = list(d.rotation[v])
    if not u_corners or not v_corners:
        return (u_corners[0] if u_corners else None), (v_corners[0] if v_corners else None), []
    v_faces = {face_of_dart[x]: x for x in reversed(v_corners)}
    start = {}
    for x in u_corners:
        start.setdefault(face_of_dart[x], x)
    queue = sorted(start)
    if rng is not None:
        rng.shuffle(queue)
    parent = dict.fromkeys(queue)
    goal = next((f for f in queue if f in v_faces), None)
    for f in queue:
        if goal is not None:
            break
        darts = list(faces[f])
        if rng is not None:
            rng.shuffle(darts)
        for x in darts:
            g = face_of_dart[d.theta[x]]
            if g not in parent:
                parent[g] = (f, x)
                queue.append(g)
                if g in v_faces:
                    goal = g
                    break
    if goal is None:
        return u_corners[0], v_corners[0], []
    crossed = []
    f = goal
    while parent[f] is not None:
        f, x = parent[f]
        crossed.append(x)
    crossed.reverse()
    return start[f], v_faces[goal], crossed
