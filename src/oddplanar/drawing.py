"""Combinatorial plane drawings (planarizations).

A drawing of a multigraph is stored as a combinatorial map on the sphere:
every crossing point becomes a degree-4 "crossing node", every map segment
(piece of an edge between consecutive nodes) becomes a pair of darts
related by an involution ``theta``, and every node carries the clockwise
cyclic order of its darts.  ``edge_paths`` records, for each edge, the
alternating dart sequence from its end-0 vertex to its end-1 vertex.

Face tracing uses ``next(d) = sigma(theta(d))`` where ``sigma`` is the
clockwise successor in the rotation; with all rotations clockwise this
walks each face with the face on the left, and a drawing is realizable on
the sphere iff every connected component of the map satisfies
``V - E + F = 2``.

Two conventions are load-bearing everywhere:

* Route view.  A drawing is equivalently described by (a) the cyclic
  sequence of edge endings at each real vertex, (b) per edge, the ordered
  sequence of crossing nodes from end 0 to end 1, and (c) one orientation
  bit ("spin") per crossing.  ``from_routes`` materializes this view and
  assigns canonical dart ids; ``route_view`` extracts it back.

* Spin.  At a crossing traversed by passes P and Q (P the lexicographically
  smaller (edge id, route position)), with in/out darts taken along each
  edge's end0->end1 direction, the clockwise rotation is
  ``(P_in, Q_in, P_out, Q_out)`` when the spin is True and
  ``(P_in, Q_out, P_out, Q_in)`` when it is False.  For two distinct
  edges, :func:`spin` is the one rule that turns the side one edge passes
  from into this bit; every caller that draws a crossing uses it.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .graphs import Multigraph, connected_components

Ending = tuple[int, int]  # (edge id, end index 0 or 1)


@dataclass(frozen=True)
class Violation:
    """One failed drawing invariant; ``kind`` is a stable machine name."""

    kind: str
    locus: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.locus}"


def spin(a: int, b: int, b_from_left: bool) -> bool:
    """The stored spin of a crossing of distinct edges a and b, where
    ``b_from_left`` says that, both edges taken end0 -> end1, b passes
    from a's left to a's right.  Reversing either edge flips the bit."""
    return b_from_left == (a < b)


def _norm_cyclic(seq: tuple) -> tuple:
    """Rotate a cyclic tuple so its lexicographically least rotation is stored.

    That rotation starts at a copy of the minimum; only when the minimum
    repeats do the rotations starting at its other copies get compared."""
    if len(seq) <= 1:
        return seq
    low = min(seq)
    i = seq.index(low)
    best = seq[i:] + seq[:i]
    for j in range(i + 1, len(seq)):
        if seq[j] == low:
            cand = seq[j:] + seq[:j]
            if cand < best:
                best = cand
    return best


class Drawing:
    """Immutable planarization of a multigraph.

    The raw constructor performs no checking, so malformed maps can be
    represented and fed to :func:`validate_drawing`; use
    :meth:`Drawing.from_routes` to build drawings that are valid by
    construction.  Treat instances as frozen: all operations return new
    drawings.  The derived views (route view, faces, dart-to-face and
    dart-to-segment maps) are computed once, shared by every caller and
    read-only; copy them to edit.

    :meth:`from_routes` and :meth:`canonicalize` give canonical dart and
    crossing ids, and are the only source of compact ones.  Inherited
    drawings (:meth:`remove_edges`, :meth:`induced_subdrawing`) keep their
    parent's ids for whatever survives, in the same relative order.
    Surgery keeps every old id too and gives new darts and crossings free
    ids in between, in canonical relative order: from a canonical parent,
    ids are ordered as a rebuild orders them but are not compact.
    """

    __slots__ = (
        "graph",
        "rotation",
        "theta",
        "edge_paths",
        "_dart_node",
        "_top",
        "_canon",
        "_pair_counts",
        "_self_counts",
        "_odd_deg",
        "_violations",
        "_passes",
        "_routes",
        "_faces",
        "_face_source",
        "_face_of",
        "_pokes",
        "_segments",
    )

    def __init__(
        self,
        graph: Multigraph,
        rotation: Mapping[int, tuple[int, ...]],
        theta: Mapping[int, int],
        edge_paths: Mapping[int, tuple[int, ...]],
    ) -> None:
        rotation = {n: tuple(r) for n, r in rotation.items()}
        self._adopt(graph, rotation, dict(theta), {e: tuple(p) for e, p in edge_paths.items()})

    def _adopt(self, graph, rotation, theta, edge_paths, dart_node=None, top=None) -> None:
        """Take the given containers as they are, without copying, and
        leave every derived view to be computed on first use.  ``top``
        bounds the dart ids from above."""
        self.graph = graph
        self.rotation = rotation
        self.theta = theta
        self.edge_paths = edge_paths
        self._dart_node = dart_node if dart_node is not None else {d: n for n, rot in rotation.items() for d in rot}
        self._top = max(theta, default=-1) if top is None else top
        self._canon = None
        self._pair_counts = None
        self._self_counts = None
        self._odd_deg = None
        self._violations = None
        self._passes = None
        self._routes = None
        self._faces = None
        self._face_source = None
        self._face_of = None
        self._pokes = None
        self._segments = None

    # ------------------------------------------------------------------
    # Construction from the route view
    # ------------------------------------------------------------------

    @classmethod
    def from_routes(
        cls,
        graph: Multigraph,
        vertex_rotation: Mapping[int, tuple[Ending, ...]],
        routes: Mapping[int, tuple],
        spins: Mapping[object, bool],
        validate: bool = True,
    ) -> "Drawing":
        """Materialize a drawing from per-vertex endings, per-edge crossing
        sequences (end0 -> end1) and per-crossing spins.

        Crossing keys in ``routes`` may be arbitrary hashables; they are
        renumbered to node ids above the largest vertex id, in order of
        first appearance along edges taken in id order.  Dart ids are
        assigned the same way, which makes the output canonical.  The
        output comes with its route view, crossing passes and segment map,
        kept from the build.
        """
        eids = graph.edge_ids()
        if set(routes) != set(eids):
            raise ValueError("routes must cover exactly the graph's edges")
        if set(vertex_rotation) != set(graph.vertices):
            raise ValueError("vertex_rotation must cover exactly the graph's vertices")

        expected: dict[int, list[Ending]] = {v: [] for v in graph.vertices}
        for eid, (u, v) in graph.edges:
            expected[u].append((eid, 0))
            expected[v].append((eid, 1))
        for v in graph.vertices:
            # expected[v] is sorted already: edges come in id order
            if sorted(vertex_rotation[v]) != expected[v]:
                raise ValueError(f"vertex {v} rotation does not list its incident endings")

        # Crossing keys -> node ids, in order of first appearance, and
        # pass bookkeeping.
        occurrences: dict[object, list[tuple[int, int]]] = {}
        for eid in eids:
            for pos, key in enumerate(routes[eid]):
                occurrences.setdefault(key, []).append((eid, pos))
        for key, occ in occurrences.items():
            if len(occ) != 2:
                raise ValueError(f"crossing {key!r} must be traversed exactly twice")
            if key not in spins:
                raise ValueError(f"missing spin for crossing {key!r}")
        base = max(graph.vertices, default=-1) + 1
        node_of_key = {key: base + i for i, key in enumerate(occurrences)}

        # Darts: edge by edge, two per segment, numbered consecutively, so
        # the partner of dart x is x ^ 1, every dart of an edge is below
        # every dart of a later edge, and p[0] < p[-1] on each path p.  The
        # segment map and the node-id routes are views the lazy accessors
        # would derive; they are kept as the darts are assigned.
        edge_paths: dict[int, tuple[int, ...]] = {}
        segments: dict[int, tuple[int, int, bool]] = {}
        node_routes: dict[int, tuple[int, ...]] = {}
        first = 0
        for eid, _ in graph.edges:
            route = node_routes[eid] = tuple([node_of_key[k] for k in routes[eid]])
            end = first + 2 * len(route) + 2
            for q, x in enumerate(range(first, end, 2)):
                segments[x] = (eid, q, True)
                segments[x + 1] = (eid, q, False)
            edge_paths[eid] = tuple(range(first, end))
            first = end
        theta = {x: x ^ 1 for x in range(first)}

        # By that numbering endings sort as their darts do: a rotation
        # normalized on its endings is normalized on its darts.  End 0 or 1
        # picks p[-0] or p[-1].
        rotation: dict[int, tuple[int, ...]] = {}
        vrot: dict[int, tuple[Ending, ...]] = {}
        for v in graph.vertices:
            ends = vrot[v] = _norm_cyclic(tuple(vertex_rotation[v]))
            rotation[v] = tuple([edge_paths[eid][-end] for eid, end in ends])
        # Occurrences come in (edge id, position) order, so each pass pair is
        # sorted and a_in is the least of its crossing's four darts: the
        # rotations below start at their least dart as built.
        passes: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
        spin_of: dict[int, bool] = {}
        for key, occ in occurrences.items():
            c = node_of_key[key]
            passes[c] = tuple(occ)
            spin_of[c] = bool(spins[key])
            rotation[c] = _crossing(edge_paths, passes[c], spin_of[c])

        d = cls.__new__(cls)
        d._adopt(graph, rotation, theta, edge_paths, top=first - 1)
        d._segments = MappingProxyType(segments)
        d._passes = passes
        d._routes = (MappingProxyType(vrot), MappingProxyType(node_routes), MappingProxyType(spin_of))
        if validate:
            bad = d.validate()
            if bad:
                raise ValueError("from_routes produced an invalid drawing: " + "; ".join(map(str, bad[:4])))
        return d

    @classmethod
    def crossing_free(cls, graph: Multigraph, vertex_rotation: Mapping[int, tuple[Ending, ...]], validate: bool = True) -> "Drawing":
        return cls.from_routes(graph, vertex_rotation, {e: () for e in graph.edge_ids()}, {}, validate=validate)

    @classmethod
    def empty(cls) -> "Drawing":
        return cls(Multigraph((), ()), {}, {}, {})

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    def nodes(self) -> tuple[int, ...]:
        return tuple(sorted(self.rotation))

    def crossing_nodes(self) -> tuple[int, ...]:
        real = set(self.graph.vertices)
        return tuple(sorted(n for n in self.rotation if n not in real))

    def dart_node(self, d: int) -> int:
        return self._dart_node[d]

    def vertex_endings(self, v: int) -> tuple[Ending, ...]:
        """Clockwise cyclic order of edge endings at a real vertex."""
        return _norm_cyclic(_endings(self.segment_of_dart(), self.rotation[v]))

    def rotation_system(self) -> dict[int, tuple[Ending, ...]]:
        return {v: self.vertex_endings(v) for v in self.graph.vertices}

    def edge_route(self, eid: int) -> tuple[int, ...]:
        """Crossing nodes traversed by the edge, in end0 -> end1 order."""
        p = self.edge_paths[eid]
        return tuple(self._dart_node[p[2 * q + 1]] for q in range(len(p) // 2 - 1))

    def crossing_passes(self) -> dict[int, tuple[tuple[int, int], tuple[int, int]]]:
        """For each crossing node, its two passes as sorted ((eid, pos), (eid, pos))."""
        if self._passes is None:
            acc: dict[int, list[tuple[int, int]]] = {}
            for eid in self.graph.edge_ids():
                for pos, c in enumerate(self.edge_route(eid)):
                    acc.setdefault(c, []).append((eid, pos))
            self._passes = {c: tuple(v) for c, v in acc.items()}  # collected in sorted order
        return self._passes

    def crossing_spin(self, c: int) -> bool:
        (e1, p1), (e2, p2) = self.crossing_passes()[c]
        a_in = self.edge_paths[e1][2 * p1 + 1]
        b_in = self.edge_paths[e2][2 * p2 + 1]
        b_out = self.edge_paths[e2][2 * p2 + 2]
        rot = self.rotation[c]
        succ = rot[(rot.index(a_in) + 1) % 4]
        if succ == b_in:
            return True
        if succ == b_out:
            return False
        raise ValueError(f"crossing {c} does not alternate")

    def route_view(self):
        """(vertex endings, routes, spins), the inverse of :meth:`from_routes`.

        Each vertex lists its endings in ``rotation[v]`` order, so position
        i names the corner before dart ``rotation[v][i]``.  Cached and
        read-only."""
        if self._routes is None:
            seg = self.segment_of_dart()
            vrot = {v: _endings(seg, self.rotation[v]) for v in self.graph.vertices}
            routes = {e: self.edge_route(e) for e in self.graph.edge_ids()}
            spins = {c: self.crossing_spin(c) for c in self.crossing_nodes()}
            self._routes = (MappingProxyType(vrot), MappingProxyType(routes), MappingProxyType(spins))
        return self._routes

    # ------------------------------------------------------------------
    # Faces and validation
    # ------------------------------------------------------------------

    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face boundaries as dart cycles of ``sigma . theta``, each walked
        with the face on its left.  Every face starts at its least dart and
        the faces come in that order, so the tuple is sorted.  Cached, and
        carried through surgery and :meth:`remove_edges`."""
        if self._faces is None and self._face_source is not None:
            # remove_edges' parent and dropped darts: its faces through
            # them merge, on first use.
            (parent, gone), self._face_source = self._face_source, None
            _reface(self, list(parent._faces), parent, gone)
        if self._faces is None:
            succ: dict[int, int] = {}
            for rot in self.rotation.values():
                n = len(rot)
                for i, d in enumerate(rot):
                    succ[d] = rot[(i + 1) % n]
            seen: set[int] = set()
            out: list[tuple[int, ...]] = []
            for d0 in sorted(self.theta):
                if d0 in seen:
                    continue
                face = []
                d = d0
                while d not in seen:
                    seen.add(d)
                    face.append(d)
                    d = succ[self.theta[d]]
                out.append(tuple(face))
            self._faces = tuple(out)
        return self._faces

    def face_of_dart(self) -> Mapping[int, tuple[int, ...]]:
        """dart -> the face in :meth:`faces` that it bounds, as that tuple.
        Cached and read-only.  Surgery and :meth:`remove_edges` patch their
        parent's map, where it has one, for the faces they trace again."""
        if self._face_of is None:
            faces = self.faces()  # patching carried faces may patch the map
            if self._face_of is None:
                face_of: dict = {}
                for f in faces:
                    face_of.update(dict.fromkeys(f, f))
                self._face_of = MappingProxyType(face_of)
        return self._face_of

    def _poke_counts(self) -> list[int]:
        """Per face of :meth:`faces`, the number of dart pairs on it that
        lie on distinct edges (see ``surgery.random_poke``).  Cached, and
        patched like the face map."""
        faces = self.faces()
        if self._pokes is None:
            seg = self.segment_of_dart()
            self._pokes = [_face_pokes(f, seg) for f in faces]
        return self._pokes

    def segment_of_dart(self) -> Mapping[int, tuple[int, int, bool]]:
        """dart -> (edge, segment index, True if the dart points along the
        edge's end0 -> end1 direction).  Cached and read-only."""
        if self._segments is None:
            out: dict[int, tuple[int, int, bool]] = {}
            for eid, p in self.edge_paths.items():
                for q in range(len(p) // 2):
                    out[p[2 * q]] = (eid, q, True)
                    out[p[2 * q + 1]] = (eid, q, False)
            self._segments = MappingProxyType(out)
        return self._segments

    def map_components(self) -> list[tuple[int, ...]]:
        """Connected components of the map (nodes linked by segments)."""
        node = self._dart_node
        links = [(node[d], node[dd]) for d, dd in self.theta.items() if d in node and dd in node]
        return connected_components(self.rotation, links)

    def validate(self) -> list[Violation]:
        if self._violations is None:
            self._violations = self._validate()
        return self._violations

    def _validate(self) -> list[Violation]:
        bad: list[Violation] = []
        real = set(self.graph.vertices)

        # Dart bookkeeping: theta is a fixed-point-free involution and the
        # rotations partition exactly the darts of theta.
        for d, dd in sorted(self.theta.items()):
            if dd == d:
                bad.append(Violation("DanglingDart", f"theta fixes dart {d}"))
            elif self.theta.get(dd) != d:
                bad.append(Violation("DanglingDart", f"theta not an involution at dart {d}"))
        counts: dict[int, int] = {}
        for rot in self.rotation.values():
            for d in rot:
                counts[d] = counts.get(d, 0) + 1
        for d in sorted(self.theta):
            if counts.get(d, 0) != 1:
                bad.append(Violation("DanglingDart", f"dart {d} appears {counts.get(d, 0)} times in rotations"))
        for d in sorted(counts):
            if d not in self.theta:
                bad.append(Violation("DanglingDart", f"rotation dart {d} missing from involution"))
        for v in sorted(real):
            if v not in self.rotation:
                bad.append(Violation("DanglingDart", f"real vertex {v} has no rotation entry"))
        if bad:
            return bad

        # Edge paths: alternate (from, to) darts, theta-paired segments,
        # endpoints at the edge's vertices, interior nodes not real.
        if set(self.edge_paths) != set(self.graph.edge_ids()):
            bad.append(Violation("BadEdgePath", "edge_paths keys differ from graph edges"))
            return bad
        path_darts: dict[int, int] = {}
        for eid, (u, v) in self.graph.edges:
            p = self.edge_paths[eid]
            if len(p) < 2 or len(p) % 2:
                bad.append(Violation("BadEdgePath", f"edge {eid} path has length {len(p)}"))
                continue
            ok = True
            for q in range(0, len(p), 2):
                if self.theta.get(p[q]) != p[q + 1]:
                    bad.append(Violation("BadEdgePath", f"edge {eid} segment {q // 2} not theta-paired"))
                    ok = False
            for d in p:
                path_darts[d] = path_darts.get(d, 0) + 1
            if not ok:
                continue
            if self._dart_node[p[0]] != u or self._dart_node[p[-1]] != v:
                bad.append(Violation("BadEdgePath", f"edge {eid} path does not join its endpoints"))
            for q in range(1, len(p) // 2):
                a, b = p[2 * q - 1], p[2 * q]
                na, nb = self._dart_node[a], self._dart_node[b]
                if na != nb:
                    bad.append(Violation("BadEdgePath", f"edge {eid} breaks at interior point {q}"))
                elif na in real:
                    bad.append(Violation("BadEdgePath", f"edge {eid} passes through real vertex {na}"))
        for d in sorted(self.theta):
            if path_darts.get(d, 0) != 1:
                bad.append(Violation("BadEdgePath", f"dart {d} lies on {path_darts.get(d, 0)} path positions"))
        if bad:
            return bad

        # Crossing nodes: degree 4, exactly two passes, opposite darts in
        # the rotation belong to the same pass.
        passes: dict[int, list[tuple[int, int]]] = {}
        for eid in self.graph.edge_ids():
            p = self.edge_paths[eid]
            for q in range(1, len(p) // 2):
                c = self._dart_node[p[2 * q - 1]]
                passes.setdefault(c, []).append((p[2 * q - 1], p[2 * q]))
        for c in sorted(self.rotation):
            if c in real:
                continue
            rot = self.rotation[c]
            if len(rot) != 4:
                bad.append(Violation("NonQuadCrossing", f"crossing node {c} has degree {len(rot)}"))
                continue
            pp = passes.get(c, [])
            if len(pp) != 2:
                bad.append(Violation("NonQuadCrossing", f"crossing node {c} traversed by {len(pp)} passes"))
                continue
            for d_in, d_out in pp:
                if (rot.index(d_in) - rot.index(d_out)) % 4 != 2:
                    bad.append(Violation("NonAlternating", f"pass darts ({d_in},{d_out}) not opposite at node {c}"))
        if bad:
            return bad

        # Genus: every map component is a sphere map.
        face_comp: dict[int, int] = {}
        comps = self.map_components()
        for i, comp in enumerate(comps):
            for nd in comp:
                face_comp[nd] = i
        fcount = [0] * len(comps)
        for face in self.faces():
            fcount[face_comp[self._dart_node[face[0]]]] += 1
        for i, comp in enumerate(comps):
            v_c = len(comp)
            e_c = sum(len(self.rotation[nd]) for nd in comp) // 2
            f_c = fcount[i] if e_c else 1
            if v_c - e_c + f_c != 2:
                bad.append(
                    Violation(
                        "EulerFailure",
                        f"component of node {comp[0]}: V={v_c} E={e_c} F={f_c}",
                    )
                )
        return bad

    # ------------------------------------------------------------------
    # Crossing counts, parities, statistics
    # ------------------------------------------------------------------

    def _counts(self) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
        if self._pair_counts is None:
            pairs: dict[tuple[int, int], int] = {}
            selfs: dict[int, int] = {}
            for (e1, _), (e2, _) in self.crossing_passes().values():
                if e1 == e2:
                    selfs[e1] = selfs.get(e1, 0) + 1
                else:
                    key = (e1, e2)
                    pairs[key] = pairs.get(key, 0) + 1
            self._pair_counts = pairs
            self._self_counts = selfs
        return self._pair_counts, self._self_counts

    def crossing_count(self, e: int, f: int) -> int:
        """Number of crossing points shared by edges e and f (e != f)."""
        if e == f:
            raise ValueError("use self_crossing_count for a single edge")
        for g in (e, f):
            if g not in self.edge_paths:
                raise KeyError(f"unknown edge id {g}")
        pairs, _ = self._counts()
        return pairs.get((min(e, f), max(e, f)), 0)

    def self_crossing_count(self, e: int) -> int:
        if e not in self.edge_paths:
            raise KeyError(f"unknown edge id {e}")
        _, selfs = self._counts()
        return selfs.get(e, 0)

    def odd_pairs(self) -> frozenset[tuple[int, int]]:
        pairs, _ = self._counts()
        return frozenset(k for k, v in pairs.items() if v % 2)

    def crossings_on_edge(self, e: int) -> int:
        """Crossing points on the edge, each counted once (a self-crossing
        is one point of the curve even though the route visits it twice)."""
        return len(set(self.edge_route(e)))

    def odd_degree(self, e: int) -> int:
        """Number of other edges crossing e an odd number of times."""
        return self._odd_degrees().get(e, 0)

    def _odd_degrees(self) -> dict[int, int]:
        if self._odd_deg is None:
            deg: dict[int, int] = {}
            for a, b in self.odd_pairs():
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            self._odd_deg = deg
        return self._odd_deg

    def parity_sketch(self) -> "ParitySketch":
        return ParitySketch(
            rotation=tuple(sorted((v, self.vertex_endings(v)) for v in self.graph.vertices)),
            odd_pairs=self.odd_pairs(),
            edges=self.graph.edges,
        )

    def crossing_stats(self) -> "CrossingStats":
        pairs, selfs = self._counts()
        adjacent = {k for k in pairs if self.graph.adjacent(*k)}
        odd = {k for k, v in pairs.items() if v % 2}
        odd_deg = self._odd_degrees()
        total_self = sum(selfs.values())
        cr0 = sum(pairs.values()) + total_self
        crm = sum(v for k, v in pairs.items() if k not in adjacent)
        return CrossingStats(
            pair_counts=dict(sorted(pairs.items())),
            self_counts=dict(sorted(selfs.items())),
            cr_rule0=cr0,
            cr_rule_minus=crm,
            pcr_rule0=len(pairs),
            pcr_rule_minus=len(set(pairs) - adjacent),
            ocr_rule0=len(odd),
            ocr_rule_minus=len(odd - adjacent),
            plus_admissible=not (adjacent & {k for k, v in pairs.items() if v}),
            star_admissible=not (adjacent & odd),
            odd_degree={e: odd_deg.get(e, 0) for e in self.graph.edge_ids()},
        )

    def is_k_plane(self, k: int) -> bool:
        return all(self.crossings_on_edge(e) <= k for e in self.graph.edge_ids())

    def is_k_odd_plane(self, k: int) -> bool:
        deg = self._odd_degrees()
        return all(deg.get(e, 0) <= k for e in self.graph.edge_ids())

    # ------------------------------------------------------------------
    # Inherited drawings (edge/vertex removal, unions)
    # ------------------------------------------------------------------

    def remove_edges(self, edge_set: Iterable[int]) -> "Drawing":
        """Inherited drawing: removed edges vanish, their crossing points on
        surviving edges are smoothed away, all other crossings untouched.

        The map is smoothed in place on copies of its containers.  The
        removed edges' darts and the dead crossing nodes are dropped, and
        where a surviving edge loses a crossing its two segments merge into
        one: the first segment's forward dart paired with the last
        segment's backward dart.  Every surviving dart and node keeps its
        id, so the ids keep their relative order; from a canonical drawing
        the faces, face starts and rotation starts come in the order that
        canonical renumbering would give.  Only the rotations at the
        removed edges' endpoints are re-normalized.  The route view (node
        ids unchanged), the segment map and the passes are carried over,
        and so are the crossing counts, odd degrees and faces already
        computed; the faces through a dropped dart merge and are traced on
        first read, which patches the face map and poke counts too."""
        removed = set(edge_set)
        if not removed:
            return self
        graph = self.graph.without_edges(removed)  # KeyError on unknown ids
        vrot, routes, spins = self.route_view()
        passes = self.crossing_passes()
        dead = {c for e in removed for c in routes[e]}
        rotation = dict(self.rotation)
        theta = dict(self.theta)
        node = dict(self._dart_node)
        edge_paths = dict(self.edge_paths)
        new_routes = routes.copy()
        gone: set[int] = set()
        ends: set[int] = set()
        for e in removed:
            gone.update(edge_paths.pop(e))
            del new_routes[e]
            ends.update(self.graph.endpoints(e))
        touched: set[int] = set()
        for c in dead:
            del rotation[c]
            (e1, _), (e2, _) = passes[c]
            touched.add(e1)
            touched.add(e2)
        for e in touched - removed:
            p = edge_paths[e]
            path = [p[0]]
            kept = []
            for q, c in enumerate(routes[e]):
                if c in dead:
                    gone.add(p[2 * q + 1])
                    gone.add(p[2 * q + 2])
                else:
                    path.append(p[2 * q + 1])
                    path.append(p[2 * q + 2])
                    kept.append(c)
            path.append(p[-1])
            for i in range(0, len(path), 2):
                theta[path[i]] = path[i + 1]
                theta[path[i + 1]] = path[i]
            edge_paths[e] = tuple(path)
            new_routes[e] = tuple(kept)
        seg = self.segment_of_dart()
        new_seg = seg.copy()
        for x in gone:
            del theta[x], node[x], new_seg[x]
        for e in touched - removed:
            for i, x in enumerate(edge_paths[e]):
                new_seg[x] = (e, i // 2, not i % 2)
        new_vrot = vrot.copy()
        for v in ends:
            rot = rotation[v] = _norm_cyclic(tuple(x for x in rotation[v] if x not in gone))
            new_vrot[v] = _endings(seg, rot)

        d = Drawing.__new__(Drawing)
        d._adopt(graph, rotation, theta, edge_paths, node, self._top)
        d._segments = MappingProxyType(new_seg)
        d._passes = {c: p for c, p in passes.items() if c not in dead}
        _repass(d._passes, new_routes, touched - removed)
        d._routes = (
            MappingProxyType(new_vrot),
            MappingProxyType(new_routes),
            MappingProxyType({c: s for c, s in spins.items() if c not in dead}),
        )
        if self._pair_counts is not None:
            d._pair_counts = {k: n for k, n in self._pair_counts.items() if removed.isdisjoint(k)}
            d._self_counts = {e: n for e, n in self._self_counts.items() if e not in removed}
        if self._odd_deg is not None:
            # Every crossing of a pair with a removed edge is dead, so such
            # a pair with an odd number of them was odd.
            d._odd_deg = _recount(self._odd_deg, (passes[c] for c in dead), lambda pair: True)
        if self._faces is not None:
            d._face_source = (self, gone)
        return d

    def induced_subdrawing(self, vertex_set: Iterable[int]) -> "Drawing":
        """Keep exactly the vertices of ``vertex_set`` and the edges with
        both endpoints inside it, in the inherited drawing."""
        vs = set(vertex_set)
        unknown = vs - set(self.graph.vertices)
        if unknown:
            raise KeyError(f"unknown vertex ids {sorted(unknown)}")
        doomed = {
            eid for eid, (u, v) in self.graph.edges if u not in vs or v not in vs
        }
        d = self.remove_edges(doomed)
        new_graph = Multigraph(tuple(sorted(vs)), d.graph.edges)
        real = set(d.graph.vertices)
        rotation = {n: r for n, r in d.rotation.items() if n in vs or n not in real}
        return Drawing(new_graph, rotation, d.theta, d.edge_paths)

    def disjoint_union(self, other: "Drawing") -> "Drawing":
        """Place two drawings side by side; the second drawing's vertex and
        edge ids are relabeled compactly above this drawing's maxima."""
        v_base = max(self.graph.vertices, default=-1) + 1
        e_base = max(self.graph.edge_ids(), default=-1) + 1
        vmap = {v: v_base + i for i, v in enumerate(sorted(other.graph.vertices))}
        emap = {e: e_base + i for i, e in enumerate(other.graph.edge_ids())}
        vr, rt, sp = other.route_view()
        moved = (
            tuple((emap[e], (vmap[u], vmap[v])) for e, (u, v) in other.graph.edges),
            {vmap[v]: tuple((emap[e], end) for e, end in vr[v]) for v in vr},
            {emap[e]: r for e, r in rt.items()},
            sp,
        )
        return _union_views([(self.graph.edges, *self.route_view()), moved])

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------

    def canonicalize(self) -> "Drawing":
        """Relabel darts and crossing nodes into the canonical numbering."""
        vrot, routes, spins = self.route_view()
        return Drawing.from_routes(self.graph, vrot, routes, spins, validate=False)

    def canonical_key(self):
        if self._canon is None:
            c = self.canonicalize()
            self._canon = (
                self.graph.vertices,
                self.graph.edges,
                tuple(sorted((n, r) for n, r in c.rotation.items())),
                tuple(sorted(c.theta.items())),
                tuple(sorted(c.edge_paths.items())),
            )
        return self._canon

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Drawing):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self) -> int:
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return (
            f"Drawing(n={self.graph.n}, m={self.graph.m}, "
            f"crossings={len(self.crossing_nodes())})"
        )


def _endings(seg: Mapping[int, tuple[int, int, bool]], darts: Iterable[int]) -> tuple[Ending, ...]:
    """The edge endings of darts at real vertices.  Such a dart starts its
    edge's path (segment 0, forward: end 0) or ends it (last segment,
    backward: end 1), so the segment map names its ending."""
    return tuple([(seg[x][0], 0 if seg[x][2] else 1) for x in darts])


def _crossing(paths, passes, s: bool) -> tuple[int, int, int, int]:
    """Clockwise rotation of a crossing with sorted passes and spin s,
    starting at the first pass's in-dart."""
    (e1, p1), (e2, p2) = passes
    a_in, a_out = paths[e1][2 * p1 + 1 : 2 * p1 + 3]
    b_in, b_out = paths[e2][2 * p2 + 1 : 2 * p2 + 3]
    return (a_in, b_in, a_out, b_out) if s else (a_in, b_out, a_out, b_in)


def _repass(passes: dict, routes, touched) -> None:
    """Give every crossing on a touched edge its passes again from the
    routes; passes along other edges stay as they are."""
    acc: dict[int, list[tuple[int, int]]] = {}
    for e in sorted(touched):
        for pos, c in enumerate(routes[e]):
            acc.setdefault(c, []).append((e, pos))
    for c, ps in acc.items():
        passes[c] = tuple(sorted(ps + [p for p in passes.get(c, ()) if p[0] not in touched]))


def _walk(rotation, theta, node, x: int, succ: dict) -> list[int]:
    """The face cycle of ``sigma . theta`` through dart x, from x.
    ``succ`` caches sigma, dart to clockwise successor, filled one whole
    rotation at a time as the walk reaches it, so each step is O(1)."""
    face = [x]
    for _ in theta:
        y = theta[face[-1]]
        z = succ.get(y)
        if z is None:
            rot = rotation[node[y]]
            succ.update(zip(rot, rot[1:] + rot[:1]))
            z = succ[y]
        if z == x:
            return face
        face.append(z)
    raise ValueError(f"the face walk from dart {x} does not close")


def _reface(out: Drawing, faces: list, d: Drawing, seeds, starts=None, renamed: bool = False) -> None:
    """Give ``out``, an edit of ``d``, its faces: ``faces`` (``d``'s faces
    in order, ids maybe renamed) where each face of ``d`` through a seed
    dart, found by its least dart, is replaced by the faces of ``out``'s
    map through the ``starts`` darts, by default the replaced faces' darts
    but the seeds.  The per-face poke counts and, unless ``out`` renamed
    ``d``'s ids, the dart-to-face map are patched the same way where ``d``
    holds them."""
    stale: set[int] = set()
    dirty, succ = [], {}
    for x in seeds:
        if x not in stale:
            cycle = _walk(d.rotation, d.theta, d._dart_node, x, succ)
            stale.update(cycle)
            dirty.append(bisect_left(d._faces, (min(cycle),)))
    dirty.sort(reverse=True)
    for i in dirty:
        del faces[i]
    new, seen, succ = [], set(), {}
    for x in stale.difference(seeds) if starts is None else starts:
        if x not in seen:
            cycle = _walk(out.rotation, out.theta, out._dart_node, x, succ)
            seen.update(cycle)
            i = cycle.index(min(cycle))
            new.append(tuple(cycle[i:] + cycle[:i]))  # from its least dart
    new.sort()
    for f in new:
        insort(faces, f)
    out._faces = tuple(faces)
    if d._pokes is not None:
        pokes, seg = list(d._pokes), out.segment_of_dart()
        for i in dirty:
            del pokes[i]
        for f in new:  # in face order, so each lands at its final place
            pokes.insert(bisect_left(out._faces, f), _face_pokes(f, seg))
        out._pokes = pokes
    if d._face_of is not None and not renamed:
        face_of = d._face_of.copy()
        for f in new:
            face_of.update(dict.fromkeys(f, f))
        for x in stale.difference(out.theta):
            del face_of[x]
        out._face_of = MappingProxyType(face_of)


def _face_pokes(face: tuple[int, ...], seg) -> int:
    """The dart pairs on ``face`` whose darts lie on distinct edges."""
    per: dict[int, int] = {}
    for x in face:
        e = seg[x][0]
        per[e] = per.get(e, 0) + 1
    return (len(face) ** 2 - sum(k * k for k in per.values())) // 2


def _recount(odd_deg: dict, passes, was_odd) -> dict:
    """``odd_deg`` after the crossings with these passes are added or
    removed: a pair of distinct edges crossed an odd number of times among
    them flips parity, so each of its edges gains one odd partner, or
    loses one if ``was_odd(pair)``."""
    gained: dict[tuple[int, int], int] = {}
    for (a, _), (b, _) in passes:
        if a != b:
            gained[a, b] = gained.get((a, b), 0) + 1
    deg = dict(odd_deg)
    for pair, k in gained.items():
        if k % 2:
            step = -1 if was_odd(pair) else 1
            for e in pair:
                deg[e] = deg.get(e, 0) + step
                if not deg[e]:
                    del deg[e]
    return deg


# Surgery's ids (see ``surgery._splice``): new darts and crossings take
# free ids between old ones, and a respace leaves this many ids from each
# id to the next, so that later splices find room instead of renaming.
STRIDE = 1 << 20


def _spread(gaps: dict, taken) -> dict | None:
    """An iterator over fresh ids for ``gaps[lo, hi]`` new items in each
    open gap (lo, hi) of old ids (hi None: no upper limit), evenly spaced
    and ascending, or None when a gap has no room or an id is ``taken``
    or given to another gap (gaps overlap only where old ids are out of
    canonical order)."""
    out, fresh = {}, set()
    for (lo, hi), k in gaps.items():
        step = STRIDE if hi is None else (hi - lo) // (k + 1)
        ids = range(lo + step, lo + (k + 1) * step, step) if step > 0 else None
        if ids is None or not taken.isdisjoint(ids) or not fresh.isdisjoint(ids):
            return None
        fresh.update(ids)
        out[lo, hi] = iter(ids)
    return out


def _respace(old, gaps: dict, base: int) -> tuple[dict, dict]:
    """Number the old ids and ``gaps[lo, hi]`` new ones per gap, placed
    right before hi (after every old id when hi is None), base + rank x
    STRIDE with ranks from 1: the old ids' renaming, and an iterator over
    each gap's new ids."""
    order = sorted(old)
    at = sorted((len(order) if gap[1] is None else bisect_left(order, gap[1]), i, gap) for i, gap in enumerate(gaps))
    before = [p for p, _, gap in at for _ in range(gaps[gap])]  # each new id's place among the old
    rename = {x: base + (i + bisect_right(before, i) + 1) * STRIDE for i, x in enumerate(order)}
    ids, t = {}, 0
    for p, _, gap in at:
        ids[gap] = iter(range(base + (p + t + 1) * STRIDE, base + (p + t + gaps[gap] + 1) * STRIDE, STRIDE))
        t += gaps[gap]
    return rename, ids


def merge_disjoint(drawings: list[Drawing]) -> Drawing:
    """Union of drawings whose vertex and edge id sets are already disjoint
    (ids are preserved, unlike :meth:`Drawing.disjoint_union`)."""
    verts: set[int] = set()
    eids: set[int] = set()
    for d in drawings:
        if verts & set(d.graph.vertices):
            raise ValueError("vertex id collision in merge_disjoint")
        if eids & set(d.graph.edge_ids()):
            raise ValueError("edge id collision in merge_disjoint")
        verts.update(d.graph.vertices)
        eids.update(d.graph.edge_ids())
    return _union_views([(d.graph.edges, *d.route_view()) for d in drawings])


def _union_views(parts) -> Drawing:
    """Materialize route views side by side in one build.  Each part is
    (edges as ``(id, (u, v))`` pairs, vertex endings, routes, spins), and
    no two parts share a vertex or edge id.  Crossing keys are namespaced
    by part index, so parts may reuse them."""
    edges: list = []
    vrot: dict[int, tuple] = {}
    routes: dict[int, tuple] = {}
    spins: dict = {}
    for i, (es, vr, rt, sp) in enumerate(parts):
        edges.extend(es)
        vrot.update(vr)
        routes.update({e: tuple((i, c) for c in r) for e, r in rt.items()})
        spins.update({(i, c): s for c, s in sp.items()})
    return Drawing.from_routes(Multigraph(tuple(vrot), tuple(edges)), vrot, routes, spins, validate=False)


# ----------------------------------------------------------------------
# Derived combinatorial records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ParitySketch:
    """Rotation system plus the GF(2) crossing-parity relation.

    ``odd_pairs`` holds exactly the unordered edge pairs crossing an odd
    number of times; the symmetric matrix with zero diagonal is implied.
    Self-crossing parity is deliberately not tracked.
    """

    rotation: tuple[tuple[int, tuple[Ending, ...]], ...]
    odd_pairs: frozenset[tuple[int, int]]
    edges: tuple[tuple[int, tuple[int, int]], ...]

    def __post_init__(self) -> None:
        for a, b in self.odd_pairs:
            if a >= b:
                raise ValueError("odd pairs must be stored as (min, max)")
        seen: dict[Ending, int] = {}
        for v, endings in self.rotation:
            for t in endings:
                if t in seen:
                    raise ValueError(f"ending {t} listed twice")
                seen[t] = v
        for eid, (u, v) in self.edges:
            if seen.get((eid, 0)) != u or seen.get((eid, 1)) != v:
                raise ValueError(f"rotation endings of edge {eid} do not match its endpoints")
        # O(1) lookup indexes; not fields, so equality and hashing ignore them.
        object.__setattr__(self, "_ends", dict(self.edges))
        object.__setattr__(self, "_rot", dict(self.rotation))

    def parity(self, e: int, f: int) -> int:
        if e == f:
            return 0
        return 1 if (min(e, f), max(e, f)) in self.odd_pairs else 0

    def edge_ids(self) -> tuple[int, ...]:
        return tuple(e for e, _ in self.edges)

    def endpoints(self, eid: int) -> tuple[int, int]:
        try:
            return self._ends[eid]
        except KeyError:
            raise KeyError(f"unknown edge id {eid}") from None

    def vertex_rotation(self, v: int) -> tuple[Ending, ...]:
        try:
            return self._rot[v]
        except KeyError:
            raise KeyError(f"unknown vertex id {v}") from None

    def vertices(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.rotation)


@dataclass(frozen=True)
class CrossingStats:
    """Single-drawing crossing statistics: the drawing-level values behind
    the nine crossing-number variants, plus admissibility flags."""

    pair_counts: dict[tuple[int, int], int]
    self_counts: dict[int, int]
    cr_rule0: int
    cr_rule_minus: int
    pcr_rule0: int
    pcr_rule_minus: int
    ocr_rule0: int
    ocr_rule_minus: int
    plus_admissible: bool
    star_admissible: bool
    odd_degree: dict[int, int]


def validate_drawing(d: Drawing) -> list[Violation]:
    """All structural and genus checks; empty list means valid."""
    return d.validate()
