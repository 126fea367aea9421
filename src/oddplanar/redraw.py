"""Constructive redrawing machinery.

The central construction redraws a one-vertex multigraph (all edges are
loops) from nothing but its rotation, so that even pairs do not cross,
odd pairs cross exactly once, and no loop crosses itself.  Around it sit
even-edge contraction and its inverse vertex split, maximal even forests,
and the full pipeline that turns a drawing in which every edge is crossed
oddly by at most k others into a drawing with at most k crossings per
edge, at the cost of removing at most k(n-1) edges.

For loops at a single vertex the crossing parity of two loops is forced
by the rotation: the pair is odd iff the endings of one interleave with
the endings of the other.  ``interleaving_parity`` implements that
predicate directly and doubles as the independent test oracle for the
redrawing output; ``interleaving_pairs`` lists the whole relation in one
sweep.

Cost.  ``theorem2_transform`` is near-linear apart from the size of what
it returns (the crossings it draws and the split records, whose blocks
list the rotation of each merged vertex).  Contraction and splitting work
in place on a mutable rotation system and route view, each step linear in
the degrees involved; each component is materialized once, as its
one-vertex redrawing (g3), and g4 is built from the split route views in
a single call.  The elimination order takes O(L log L) for L loops when
no two loops alternate; a loop blocked by alternating loops may be
re-examined once per loop nested in it.  The proof self-checks all stay:
the parity of every loop pair is compared with the carried relation in
one sweep, and every split re-checks its record.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

from .drawing import Drawing, Ending, ParitySketch
from .graphs import Multigraph


class ContractOddEdge(ValueError):
    pass


class ContractLoop(ValueError):
    pass


class InconsistentSplit(ValueError):
    pass


class NotKOddPlane(ValueError):
    pass


class OddPairPresent(ValueError):
    pass


# ---------------------------------------------------------------------------
# One-vertex sketches
# ---------------------------------------------------------------------------


def interleaving_parity(rotation: tuple[Ending, ...], e: int, f: int) -> int:
    """1 iff the endings of f alternate with the endings of e in the cyclic
    rotation (equivalently: f has exactly one ending on each side of e)."""
    if e == f:
        return 0
    pe = [i for i, t in enumerate(rotation) if t[0] == e]
    pf = [i for i, t in enumerate(rotation) if t[0] == f]
    if len(pe) != 2 or len(pf) != 2:
        raise ValueError("both edges must be loops of the rotation")
    a, b = pe
    return 1 if (a < pf[0] < b) != (a < pf[1] < b) else 0


def interleaving_pairs(rotation: tuple[Ending, ...]) -> set[tuple[int, int]]:
    """Every pair (e, f), e < f, of loops whose endings alternate in the
    rotation, in one sweep.  The loops opened but not yet closed are kept
    in opening order as a linked list; when a loop closes, exactly the open
    loops opened after it alternate with it.  Linear in the rotation plus
    the number of pairs returned."""
    nxt: dict = {None: None}  # None is the head of the list
    prv: dict = {}
    tail = None
    out: set[tuple[int, int]] = set()
    for eid, _ in rotation:
        if eid not in prv:
            prv[eid] = tail
            nxt[tail] = eid
            nxt[eid] = None
            tail = eid
            continue
        f = nxt[eid]
        while f is not None:
            out.add((eid, f) if eid < f else (f, eid))
            f = nxt[f]
        before, after = prv[eid], nxt[eid]
        nxt[before] = after
        if after is None:
            tail = before
        else:
            prv[after] = before
    return out


@dataclass(frozen=True)
class OneVertexSketch:
    """Rotation of the 2L loop endings at a single vertex.

    ``reference_gap`` is the index of the ending immediately clockwise of
    the crossing-free reference point s; by default s sits right before
    the smallest ending token, which makes redrawing reproducible.  Loop
    orientations follow s: reading clockwise from s, the first occurrence
    of a loop is its "minus" ending.
    """

    vertex: int
    rotation: tuple[Ending, ...]
    reference_gap: int = field(default=-1)

    def __post_init__(self) -> None:
        counts: dict[int, set[int]] = {}
        for eid, end in self.rotation:
            counts.setdefault(eid, set()).add(end)
        for eid, ends in counts.items():
            if ends != {0, 1}:
                raise ValueError(f"loop {eid} must contribute endings 0 and 1 exactly once")
        if len(self.rotation) != 2 * len(counts):
            raise ValueError("rotation lists an ending twice")
        if self.reference_gap == -1 and self.rotation:
            object.__setattr__(self, "reference_gap", self.rotation.index(min(self.rotation)))
        if self.rotation and not 0 <= self.reference_gap < len(self.rotation):
            raise ValueError("reference gap out of range")
        if not self.rotation:
            object.__setattr__(self, "reference_gap", 0)

    @property
    def loops(self) -> tuple[int, ...]:
        return tuple(sorted({eid for eid, _ in self.rotation}))

    def linear(self) -> tuple[Ending, ...]:
        g = self.reference_gap
        return self.rotation[g:] + self.rotation[:g]

    def parity(self, e: int, f: int) -> int:
        return interleaving_parity(self.rotation, e, f)

    def graph(self) -> Multigraph:
        v = self.vertex
        return Multigraph((v,), tuple((eid, (v, v)) for eid in self.loops))


def check_sketch_parity(sketch: OneVertexSketch, odd_pairs: frozenset[tuple[int, int]]) -> None:
    """The pipeline's self-check after contraction: two loops of the
    contracted rotation interleave exactly when the carried relation
    ``odd_pairs`` (pairs stored as (min, max)) calls them odd.  Every pair
    of loops is compared, by one sweep over the rotation."""
    loops = set(sketch.loops)
    carried = {(e, f) for e, f in odd_pairs if e in loops and f in loops}
    assert interleaving_pairs(sketch.rotation) == carried, (
        "contracted rotation parity disagrees with the carried matrix"
    )


def elimination_order(span: dict[int, tuple[int, int]]) -> list[int]:
    """Repeatedly take the nesting-minimal loop with the smallest id: the
    lexicographically least order in which every loop follows the loops
    nested in it.  ``span`` maps each loop to its two (distinct) ending
    positions a < b in the linearized rotation; f is nested in e when
    a_e < a_f and b_f < b_e.

    Kahn's algorithm with a min-heap of the loops that contain no remaining
    loop.  A blocked loop waits on one witness, the remaining nested loop
    that starts leftmost, found by descending a min segment tree that holds
    each remaining loop's end position at its start position; it is
    re-examined only when its witness is taken.  O(L log L) when no two
    loops alternate.
    """
    inf = 2 * len(span)
    size = 1
    while size < inf:
        size *= 2
    tree = [inf] * (2 * size)
    loop_at: dict[int, int] = {}
    for e, (a, b) in span.items():
        tree[size + a] = b
        loop_at[a] = e
    for i in range(size - 1, 0, -1):
        tree[i] = min(tree[2 * i], tree[2 * i + 1])

    def first_nested(e: int) -> int | None:
        a, b = span[e]
        lo, hi = size + a + 1, size + b
        left: list[int] = []
        right: list[int] = []
        while lo < hi:
            if lo & 1:
                left.append(lo)
                lo += 1
            if hi & 1:
                hi -= 1
                right.append(hi)
            lo >>= 1
            hi >>= 1
        for node in left + right[::-1]:
            if tree[node] < b:
                while node < size:
                    node = 2 * node if tree[2 * node] < b else 2 * node + 1
                return loop_at[node - size]
        return None

    heap: list[int] = []
    waiting: dict[int, list[int]] = {}

    def place(e: int) -> None:
        w = first_nested(e)
        if w is None:
            heapq.heappush(heap, e)
        else:
            waiting.setdefault(w, []).append(e)

    for e in span:
        place(e)
    order: list[int] = []
    while heap:
        f = heapq.heappop(heap)
        order.append(f)
        i = size + span[f][0]
        tree[i] = inf
        i >>= 1
        while i:
            tree[i] = min(tree[2 * i], tree[2 * i + 1])
            i >>= 1
        for e in waiting.pop(f, ()):
            place(e)
    return order


def lemma1_redraw(sketch: OneVertexSketch) -> Drawing:
    """Redraw the loops so that the rotation is unchanged, even pairs do
    not cross, odd pairs cross exactly once, and nothing crosses itself.

    Works inductively: repeatedly take a loop minimal in the nesting
    order (no other loop has both endings strictly inside its span from
    the reference point), set it aside, redraw the rest, then reinsert it
    as an arc hugging the vertex that crosses exactly the endings lying
    strictly inside its span.  Each new crossing is the innermost one on
    the loop it crosses, and crossings along the inserted arc follow the
    rotation order of the crossed endings.
    """
    lin = sketch.linear()
    pos = {tok: i for i, tok in enumerate(lin)}
    span: dict[int, tuple[int, int]] = {}
    minus_end: dict[int, int] = {}
    for eid in sketch.loops:
        p0, p1 = sorted((pos[(eid, 0)], pos[(eid, 1)]))
        span[eid] = (p0, p1)
        minus_end[eid] = lin[p0][1]

    order = elimination_order(span)

    # Insert in reverse elimination order; routes run minus -> plus.
    routes: dict[int, list] = {e: [] for e in sketch.loops}
    spins: dict[tuple, bool] = {}
    inserted_at: list[int] = []  # sorted positions of the inserted loops' endings
    for e in reversed(order):
        a, b = span[e]
        inside = inserted_at[bisect_right(inserted_at, a) : bisect_left(inserted_at, b)]
        crossed = [lin[i] for i in inside]
        hit_loops = [f for f, _ in crossed]
        assert len(set(hit_loops)) == len(hit_loops), "minimal loop crossed a loop twice"
        for f, f_end in crossed:
            key = ("x", e, f)
            routes[e].append(key)
            is_minus = f_end == minus_end[f]
            if is_minus:
                routes[f].insert(0, key)
            else:
                routes[f].append(key)
            spins[key] = (e < f) != is_minus
        insort(inserted_at, a)
        insort(inserted_at, b)

    # Convert minus->plus routes to the stored end0->end1 direction.
    flips: dict[tuple, int] = {k: 0 for k in spins}
    final_routes: dict[int, tuple] = {}
    for e in sketch.loops:
        if minus_end[e] == 0:
            final_routes[e] = tuple(routes[e])
        else:
            final_routes[e] = tuple(reversed(routes[e]))
            for key in routes[e]:
                flips[key] += 1
    final_spins = {k: s != bool(flips[k] % 2) for k, s in spins.items()}

    return Drawing.from_routes(
        sketch.graph(), {sketch.vertex: sketch.rotation}, final_routes, final_spins
    )


# ---------------------------------------------------------------------------
# Self-crossing removal
# ---------------------------------------------------------------------------


def remove_self_crossings(d: Drawing) -> Drawing:
    """Smooth away self-crossings one at a time.  At a self-crossing the
    reconnection that keeps the edge a single curve reverses the section
    of the route between the two visits; every crossing strictly inside
    that section has one of its passes reversed, which flips its spin.
    Crossing counts between distinct edges are exactly preserved and
    rotations at real vertices never change."""
    vrot, routes_t, spins = d.route_view()
    routes = {e: list(r) for e, r in routes_t.items()}
    spins = dict(spins)
    while True:
        target = None
        for e in sorted(routes):
            seen: dict = {}
            for i, c in enumerate(routes[e]):
                if c in seen:
                    target = (e, seen[c], i, c)
                    break
                seen[c] = i
            if target:
                break
        if target is None:
            break
        e, i, j, c = target
        mid = routes[e][i + 1 : j]
        for x in set(mid):
            spins[x] = not spins[x]
        routes[e] = routes[e][:i] + list(reversed(mid)) + routes[e][j + 1 :]
        del spins[c]
    return Drawing.from_routes(
        d.graph, vrot, {e: tuple(r) for e, r in routes.items()}, spins, validate=False
    )


# ---------------------------------------------------------------------------
# Contraction and vertex splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplitRecord:
    """How a merged vertex splits back into the two it came from."""

    merged: int
    u: int
    v: int
    edge: int
    edge_end_at_u: int
    u_block: tuple[Ending, ...]
    v_block: tuple[Ending, ...]


def _rotate_to_front(rot: tuple[Ending, ...], token: Ending) -> tuple[Ending, ...]:
    i = rot.index(token)
    return rot[i:] + rot[:i]


def _contract(
    rotation: dict[int, tuple[Ending, ...]],
    edges: dict[int, tuple[int, int]],
    odd_edges: frozenset[int],
    eid: int,
    target: int,
) -> SplitRecord:
    """One contraction on a mutable rotation system, in time linear in the
    degrees of the two endpoints; returns the record that undoes it."""
    u, v = edges[eid]
    if u == v:
        raise ContractLoop(f"edge {eid} is a loop")
    if eid in odd_edges:
        raise ContractOddEdge(f"edge {eid} is in an odd pair")
    if target == u:
        other = v
        end_at_u = 0
    elif target == v:
        other = u
        end_at_u = 1
    else:
        raise ValueError(f"target {target} is not an endpoint of edge {eid}")

    rot_u = _rotate_to_front(rotation[target], (eid, end_at_u))[1:]
    rot_v = _rotate_to_front(rotation.pop(other), (eid, 1 - end_at_u))[1:]
    rotation[target] = rot_u + rot_v
    del edges[eid]
    for g, end in rot_v:
        a, b = edges[g]
        edges[g] = (target, b) if end == 0 else (a, target)
    return SplitRecord(target, target, other, eid, end_at_u, rot_u, rot_v)


def contract_even_edge(sk: ParitySketch, eid: int, target: int) -> tuple[ParitySketch, SplitRecord]:
    """Slide one endpoint of an even edge along it onto the other.

    The rotations concatenate: if the cyclic orders were (e, e1..ea) at
    the kept endpoint and (e, f1..fb) at the absorbed one, the merged
    vertex reads e1..ea f1..fb.  The parity relation on the surviving
    edges is exactly unchanged.
    """
    rotation, edges = dict(sk.rotation), dict(sk.edges)
    odd_edges = frozenset(e for pair in sk.odd_pairs for e in pair)
    rec = _contract(rotation, edges, odd_edges, eid, target)
    sk2 = ParitySketch(tuple(sorted(rotation.items())), sk.odd_pairs, tuple(sorted(edges.items())))
    return sk2, rec


def _split(
    vrot: dict[int, tuple[Ending, ...]],
    edges: dict[int, tuple[int, int]],
    routes: dict[int, tuple],
    rec: SplitRecord,
) -> None:
    """One vertex split on a mutable route view (its vertex set is the keys
    of ``vrot``), in time linear in the degree of the merged vertex."""
    if rec.merged not in vrot:
        raise InconsistentSplit(f"vertex {rec.merged} not present")
    if rec.v in vrot and rec.v != rec.merged:
        raise InconsistentSplit(f"vertex id {rec.v} already in use")
    current = vrot[rec.merged]
    target_seq = rec.u_block + rec.v_block
    if len(current) != len(target_seq):
        raise InconsistentSplit("rotation size does not match the record")
    if target_seq and (
        target_seq[0] not in current or _rotate_to_front(current, target_seq[0]) != target_seq
    ):
        raise InconsistentSplit("record blocks are not contiguous in the rotation")

    u, v = rec.u, rec.v
    end_u = rec.edge_end_at_u
    vrot[u] = ((rec.edge, end_u),) + rec.u_block
    vrot[v] = ((rec.edge, 1 - end_u),) + rec.v_block
    for g, end in rec.v_block:
        a, b = edges[g]
        edges[g] = (v, b) if end == 0 else (a, v)
    edges[rec.edge] = (u, v) if end_u == 0 else (v, u)
    routes[rec.edge] = ()


def split_vertex(d: Drawing, rec: SplitRecord) -> Drawing:
    """Inverse of contraction on a concrete drawing: pull the merged
    vertex apart into two close vertices joined by the restored edge,
    which is drawn without crossings."""
    vrot, routes, spins = d.route_view()
    vrot, routes, edges = dict(vrot), dict(routes), dict(d.graph.edges)
    _split(vrot, edges, routes, rec)
    g2 = Multigraph(tuple(sorted(vrot)), tuple(sorted(edges.items())))
    return Drawing.from_routes(g2, vrot, routes, spins, validate=False)


# ---------------------------------------------------------------------------
# Maximal even forests and the main pipeline
# ---------------------------------------------------------------------------


def _find(parent: dict[int, int], x: int) -> int:
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def max_even_forest(d: Drawing) -> frozenset[int]:
    """Greedy maximal forest whose edges pairwise cross evenly.

    After the single pass in edge-id order, every non-forest edge whose
    endpoints lie in different forest components crosses some forest edge
    an odd number of times (otherwise it would have been taken when
    examined), which is the maximality the pipeline relies on.
    """
    odd_partners: dict[int, list[int]] = {}
    for a, b in d.odd_pairs():
        odd_partners.setdefault(a, []).append(b)
        odd_partners.setdefault(b, []).append(a)
    parent = {v: v for v in d.graph.vertices}
    forest: set[int] = set()
    for eid, (u, v) in d.graph.edges:
        if u == v:
            continue
        ru, rv = _find(parent, u), _find(parent, v)
        if ru == rv:
            continue
        if any(f in forest for f in odd_partners.get(eid, ())):
            continue
        forest.add(eid)
        parent[ru] = rv
    return frozenset(forest)


@dataclass(frozen=True)
class PipelineTrace:
    """Everything the redrawing pipeline produced on the way to the k-plane
    drawing: the even forest, the removed edges, the drawing after removal
    (g1), per-component contracted sketches (g2) with their split stacks,
    the one-vertex redrawings (g3), and the final drawing (g4)."""

    input: Drawing
    k: int
    forest: frozenset[int]
    removed: frozenset[int]
    g1: Drawing
    components: tuple[tuple[int, ...], ...]
    component_edge_counts: tuple[int, ...]
    sketches: tuple[OneVertexSketch, ...]
    split_stacks: tuple[tuple[SplitRecord, ...], ...]
    g3: tuple[Drawing, ...]
    g4: Drawing


def theorem2_transform(d: Drawing, k: int) -> PipelineTrace:
    """Turn a drawing whose edges are each crossed oddly by at most k
    others into a drawing of a large subgraph with at most k crossings per
    edge: drop every edge crossing the even forest oddly, contract each
    forest tree on the parity sketch, redraw the one-vertex residue, and
    split the contractions back open.  Pair crossing counts of the output
    equal the input crossing parities."""
    if k < 0 or not d.is_k_odd_plane(k):
        raise NotKOddPlane(f"drawing is not {k}-odd-plane")

    forest = max_even_forest(d)
    # Forest edges cross each other evenly, so an odd pair touching the
    # forest names exactly one forest edge and one edge to remove.
    removed = frozenset(
        b if a in forest else a for a, b in d.odd_pairs() if (a in forest) != (b in forest)
    )
    g1 = d.remove_edges(removed)

    # Forest components partition the vertices; removal confined every
    # surviving edge to a single component.
    parent = {v: v for v in d.graph.vertices}
    for eid in sorted(forest):
        u, v = d.graph.endpoints(eid)
        parent[_find(parent, u)] = _find(parent, v)
    groups: dict[int, list[int]] = {}
    for v in d.graph.vertices:
        groups.setdefault(_find(parent, v), []).append(v)
    comps = [tuple(sorted(g)) for g in sorted(groups.values())]
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    n_removed_bound = k * (d.graph.n - len(comps))
    assert len(removed) <= n_removed_bound, (
        f"removed {len(removed)} edges, proof allows {n_removed_bound}"
    )
    comp_edges: list[dict[int, tuple[int, int]]] = [{} for _ in comps]
    for eid, (u, v) in g1.graph.edges:
        assert comp_of[u] == comp_of[v], "surviving edge straddles forest components"
        comp_edges[comp_of[u]][eid] = (u, v)
    edge_counts = tuple(len(edges) for edges in comp_edges)
    trees: list[list[int]] = [[] for _ in comps]
    for f in sorted(forest):
        trees[comp_of[d.graph.endpoints(f)[0]]].append(f)
    odd = g1.odd_pairs()
    odd_edges = frozenset(e for pair in odd for e in pair)

    sketches: list[OneVertexSketch] = []
    stacks: list[tuple[SplitRecord, ...]] = []
    g3: list[Drawing] = []
    # Route view of g4, assembled component by component and materialized once.
    vrot4: dict[int, tuple[Ending, ...]] = {}
    edges4: dict[int, tuple[int, int]] = {}
    routes4: dict[int, tuple] = {}
    spins4: dict = {}
    for i, comp in enumerate(comps):
        # The component's parity sketch, contracted in place: vertex
        # rotations and current edge endpoints.
        rotation = {v: g1.vertex_endings(v) for v in comp}
        edges = comp_edges[i]
        tree = trees[i]

        root = comp[0]
        # BFS order over the tree, child contracted into the merged parent.
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in comp}
        for f in tree:
            a, b = edges[f]
            adj[a].append((b, f))
            adj[b].append((a, f))
        seen = {root}
        frontier = [root]
        bfs_edges: list[tuple[int, int]] = []
        while frontier:
            nxt: list[int] = []
            for p in frontier:
                for child, f in sorted(adj[p]):
                    if child not in seen:
                        seen.add(child)
                        bfs_edges.append((f, child))
                        nxt.append(child)
            frontier = nxt
        assert len(bfs_edges) == len(tree), "forest component is not a tree"

        stack: list[SplitRecord] = []
        for f, child in bfs_edges:
            a, b = edges[f]
            target = a if b == child else b
            stack.append(_contract(rotation, edges, odd_edges, f, target))
        assert list(rotation) == [root]

        sketch = OneVertexSketch(root, rotation[root])
        check_sketch_parity(sketch, odd)
        redrawn = lemma1_redraw(sketch)
        sketches.append(sketch)
        stacks.append(tuple(stack))
        g3.append(redrawn)

        vrot, routes, spins = redrawn.route_view()
        vrot, routes, edges = dict(vrot), dict(routes), dict(redrawn.graph.edges)
        for rec in reversed(stack):
            _split(vrot, edges, routes, rec)
        vrot4.update(vrot)
        edges4.update(edges)
        routes4.update({e: tuple((i, c) for c in r) for e, r in routes.items()})
        spins4.update({(i, c): s for c, s in spins.items()})

    g4 = Drawing.from_routes(
        Multigraph(tuple(vrot4), tuple(edges4.items())), vrot4, routes4, spins4, validate=False
    )
    assert g4.graph == g1.graph, "pipeline changed the underlying graph"
    return PipelineTrace(
        input=d,
        k=k,
        forest=forest,
        removed=removed,
        g1=g1,
        components=tuple(comps),
        component_edge_counts=edge_counts,
        sketches=tuple(sketches),
        split_stacks=tuple(stacks),
        g3=tuple(g3),
        g4=g4,
    )


def hanani_tutte_embed(d: Drawing) -> Drawing:
    """Weak Hanani-Tutte as an algorithm: a drawing in which every pair of
    edges crosses evenly is redrawn without any crossings at all."""
    if d.odd_pairs():
        raise OddPairPresent("drawing has an odd pair")
    trace = theorem2_transform(d, 0)
    assert not trace.removed
    return trace.g4
