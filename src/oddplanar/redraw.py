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
sweep.  The redrawing is that relation in closed form: the loops are
ranked by span length from the reference point, the nearer loop of each
alternating pair crosses the other once, and each route is one sort.

Cost.  ``theorem2_transform`` is near-linear, and so is the trace it
returns.  Each forest tree is contracted by one walk around it, linear in
the degrees of its vertices; splitting gives every vertex back its
rotation in g1, so g4 is built from g1's rotations and g3's routes in a
single call.  ``lemma1_redraw`` takes O(L log L + P log P) for L loops
and P alternating pairs.  The proof self-checks all stay:
the parity of every loop pair is compared with the carried relation in
one sweep, and the walk must enter every vertex of its tree once and list
every other edge of the component twice.  ``contract_even_edge`` and
``split_vertex`` are single steps of the same contraction and split, for
callers that want one edge at a time.
"""
from __future__ import annotations

from dataclasses import dataclass

from .drawing import Drawing, Ending, ParitySketch, _norm_cyclic, _union_views, spin
from .graphs import Multigraph, connected_components


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

    The crossing-free reference point s sits right before the smallest
    ending token, which makes redrawing reproducible.  Loop orientations
    follow s: reading clockwise from s, the first occurrence of a loop is
    its "minus" ending.
    """

    vertex: int
    rotation: tuple[Ending, ...]

    def __post_init__(self) -> None:
        counts: dict[int, set[int]] = {}
        for eid, end in self.rotation:
            counts.setdefault(eid, set()).add(end)
        for eid, ends in counts.items():
            if ends != {0, 1}:
                raise ValueError(f"loop {eid} must contribute endings 0 and 1 exactly once")
        if len(self.rotation) != 2 * len(counts):
            raise ValueError("rotation lists an ending twice")

    @property
    def loops(self) -> tuple[int, ...]:
        return tuple(sorted({eid for eid, _ in self.rotation}))

    def linear(self) -> tuple[Ending, ...]:
        """The rotation read clockwise from the reference point."""
        g = self.rotation.index(min(self.rotation)) if self.rotation else 0
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


def lemma1_redraw(sketch: OneVertexSketch) -> Drawing:
    """Redraw the loops so that the rotation is unchanged, even pairs do
    not cross, odd pairs cross exactly once, and nothing crosses itself.

    The closed form of the inductive construction: rank the loops by the
    length of their span from the reference point, then id.  A loop nested
    in another has the shorter span, so it lies nearer the vertex; drawn
    as arcs hugging the vertex, the nearer loop of an alternating pair
    crosses the other once, at the other's ending inside its own span, and
    no other pair crosses.  Read minus -> plus, a loop meets the nearer
    loops crossing its minus ending (nearest first), then the endings
    inside its span (in rotation order), then the nearer loops crossing
    its plus ending (farthest first).
    """
    lin = sketch.linear()
    pos = {tok: i for i, tok in enumerate(lin)}
    span: dict[int, tuple[int, int]] = {}
    minus_end: dict[int, int] = {}
    for eid in sketch.loops:
        p0, p1 = sorted((pos[(eid, 0)], pos[(eid, 1)]))
        span[eid] = (p0, p1)
        minus_end[eid] = lin[p0][1]
    rank = {e: r for r, e in enumerate(sorted(span, key=lambda e: (span[e][1] - span[e][0], e)))}

    # Sort keys along each route, minus -> plus: rank - 2L at the minus
    # ending, the position inside the span, 4L - rank at the plus ending.
    # Routes are reversed at the end for the loops whose minus ending is end 1.
    n = len(lin)
    along: dict[int, list] = {e: [] for e in sketch.loops}
    spins: dict[tuple, bool] = {}
    for e, f in interleaving_pairs(sketch.rotation):
        if rank[f] < rank[e]:
            e, f = f, e  # e is the nearer loop
        (a, b), (c, d) = span[e], span[f]
        p = c if a < c < b else d
        assert a < p < b, "nearer loop does not pass the other loop's ending"
        key, f_end = ("x", e, f), lin[p][1]
        along[e].append((p, key))
        along[f].append((rank[e] - n if p == c else 2 * n - rank[e], key))
        # Both taken minus -> plus, f passes from e's left iff e crosses
        # f's plus ending.  Each loop whose minus ending is end 1 runs the
        # other way when stored, which flips the side, so in stored
        # directions f passes from e's left iff f_end != minus_end[e].
        spins[key] = spin(e, f, f_end != minus_end[e])

    routes = {}
    for e, keyed in along.items():
        route = [key for _, key in sorted(keyed)]
        routes[e] = tuple(route if minus_end[e] == 0 else reversed(route))
    return Drawing.from_routes(sketch.graph(), {sketch.vertex: sketch.rotation}, routes, spins)


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


def contract_even_edge(sk: ParitySketch, eid: int, target: int) -> tuple[ParitySketch, SplitRecord]:
    """Slide one endpoint of an even edge along it onto the other.

    The rotations concatenate: if the cyclic orders were (e, e1..ea) at
    the kept endpoint and (e, f1..fb) at the absorbed one, the merged
    vertex reads e1..ea f1..fb.  The parity relation on the surviving
    edges is exactly unchanged.  Returns the record that undoes the step.
    """
    rotation, edges = dict(sk.rotation), dict(sk.edges)
    u, v = edges[eid]
    if u == v:
        raise ContractLoop(f"edge {eid} is a loop")
    if any(eid in pair for pair in sk.odd_pairs):
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
    sk2 = ParitySketch(tuple(sorted(rotation.items())), sk.odd_pairs, tuple(sorted(edges.items())))
    return sk2, SplitRecord(target, target, other, eid, end_at_u, rot_u, rot_v)


def split_vertex(d: Drawing, rec: SplitRecord) -> Drawing:
    """Inverse of contraction on a concrete drawing: pull the merged
    vertex apart into two close vertices joined by the restored edge,
    which is drawn without crossings."""
    vrot, routes, spins = d.route_view()
    vrot, routes, edges = dict(vrot), dict(routes), dict(d.graph.edges)
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
    (g1), per-component one-vertex sketches (g2: the Euler walk around
    each forest tree, stored from its least ending), the one-vertex
    redrawings (g3), and the final drawing (g4)."""

    input: Drawing
    k: int
    forest: frozenset[int]
    removed: frozenset[int]
    g1: Drawing
    components: tuple[tuple[int, ...], ...]
    component_edge_counts: tuple[int, ...]
    sketches: tuple[OneVertexSketch, ...]
    g3: tuple[Drawing, ...]
    g4: Drawing


def theorem2_transform(d: Drawing, k: int) -> PipelineTrace:
    """Turn a drawing whose edges are each crossed oddly by at most k
    others into a drawing of a large subgraph with at most k crossings per
    edge: drop every edge crossing the even forest oddly, contract each
    forest tree on the parity sketch, redraw the one-vertex residue, and
    split the contractions back open.  Pair crossing counts of the output
    equal the input crossing parities.

    Contracting a whole tree reads its Euler walk: the walk around the
    root's rotation, where each tree ending is replaced by the child's
    rotation read from just after the matching ending, all the way round.
    Splitting it back open gives every vertex its rotation in g1, leaves
    the tree edges uncrossed and keeps every other edge's route from g3."""
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
    comps = connected_components(d.graph.vertices, map(d.graph.endpoints, forest))
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    n_removed_bound = k * (d.graph.n - len(comps))
    assert len(removed) <= n_removed_bound, (
        f"removed {len(removed)} edges, proof allows {n_removed_bound}"
    )
    comp_edges: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in comps]
    for eid, (u, v) in g1.graph.edges:
        assert comp_of[u] == comp_of[v], "surviving edge straddles forest components"
        comp_edges[comp_of[u]].append((eid, (u, v)))
    odd = g1.odd_pairs()
    # Contraction along a tree edge keeps parities only if it is even.
    assert not any(a in forest or b in forest for a, b in odd), "a forest edge crosses oddly"
    vrot = g1.route_view()[0]

    sketches: list[OneVertexSketch] = []
    g3: list[Drawing] = []
    # Route views of g4's components, materialized together once.
    parts: list[tuple] = []
    for comp, edges in zip(comps, comp_edges):
        root = comp[0]
        walk: list[Ending] = []
        entered = {root}
        stack = [iter(vrot[root])]
        while stack:
            for eid, end in stack[-1]:
                if eid in forest:
                    child = g1.graph.endpoints(eid)[1 - end]
                    assert child not in entered, "walk entered a vertex twice"
                    entered.add(child)
                    rot = vrot[child]
                    i = rot.index((eid, 1 - end))
                    stack.append(iter(rot[i + 1 :] + rot[:i]))
                    break
                walk.append((eid, end))
            else:
                stack.pop()
        assert len(entered) == len(comp), "walk missed a vertex of its component"
        # A spanning tree of the component has len(comp) - 1 edges.
        assert len(walk) == 2 * (len(edges) - len(comp) + 1), "walk missed an ending"

        sketch = OneVertexSketch(root, _norm_cyclic(tuple(walk)))
        check_sketch_parity(sketch, odd)
        redrawn = lemma1_redraw(sketch)
        sketches.append(sketch)
        g3.append(redrawn)

        _, routes, spins = redrawn.route_view()
        g4_routes = {e: routes.get(e, ()) for e, _ in edges}  # tree edges stay uncrossed
        parts.append((edges, {v: vrot[v] for v in comp}, g4_routes, spins))

    g4 = _union_views(parts)
    assert g4.graph == g1.graph, "pipeline changed the underlying graph"
    return PipelineTrace(
        input=d,
        k=k,
        forest=forest,
        removed=removed,
        g1=g1,
        components=tuple(comps),
        component_edge_counts=tuple(map(len, comp_edges)),
        sketches=tuple(sketches),
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
