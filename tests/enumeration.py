"""Rotation-system enumeration of small drawings: a reference for the tests.

Every drawing of a tiny graph with a given crossing-pair multiset is
listed by choosing a cyclic order of endings at each vertex, an order of
crossings along each edge and a spin at each crossing; a candidate is
kept iff its map is a sphere.  This is a second exact method, written
apart from the planarity test of ``oracle._planarization_witness``, so
the tests use it to check the oracle's verdicts and to feed the
redrawing engine every small drawing.  The package itself has no use
for it.
"""
from __future__ import annotations

import time
from itertools import combinations, combinations_with_replacement, permutations, product

from oddplanar.drawing import Drawing, Ending
from oddplanar.graphs import Multigraph
from oddplanar.oracle import BudgetExceeded, EnumerationBudget


def _rotation_choices(g: Multigraph) -> list[list[tuple[Ending, ...]]]:
    """All cyclic orders per vertex: first incident ending pinned, the
    rest permuted ((deg-1)! options)."""
    out = []
    for v in g.vertices:
        endings = []
        for eid, (a, b) in g.edges:
            if a == v:
                endings.append((eid, 0))
            if b == v:
                endings.append((eid, 1))
        endings.sort()
        if len(endings) <= 1:
            out.append([tuple(endings)])
        else:
            first, rest = endings[0], endings[1:]
            out.append([(first,) + p for p in permutations(rest)])
    return out


def _face_count(succ: list[int]) -> int:
    """Number of cycles of d -> succ[theta(d)] with theta(d) = d ^ 1."""
    seen = bytearray(len(succ))
    faces = 0
    for d0 in range(len(succ)):
        if not seen[d0]:
            faces += 1
            d = d0
            while not seen[d]:
                seen[d] = 1
                d = succ[d ^ 1]
    return faces


def _realizations(g: Multigraph, multiset: tuple[tuple[int, int], ...], tick):
    """Yield every valid drawing whose crossing-pair multiset is exactly
    ``multiset`` (crossing ids, orders along edges, spins, rotations).

    Candidates are screened on integer arrays: darts laid out edge by edge
    with theta(d) = d ^ 1, and ``succ`` the clockwise successor of each
    dart.  V = n + c, E = m + 2c and the map's components are the same for
    every candidate; a connected map has at most 2 - V + E faces (cycles of
    succ . theta), with equality iff it is a sphere.  So a candidate is
    valid iff its face count is the sum of those bounds over components
    with edges.  Only survivors become a ``Drawing``, each fully checked."""
    eids = g.edge_ids()
    on_edge: dict[int, list[int]] = {e: [] for e in eids}
    for cid, (e, f) in enumerate(multiset):
        on_edge[e].append(cid)
        on_edge[f].append(cid)
    ending_dart: dict[Ending, int] = {}
    ndarts = 0
    for e in eids:
        ending_dart[(e, 0)] = ndarts
        ndarts += 2 * len(on_edge[e]) + 2
        ending_dart[(e, 1)] = ndarts - 1
    # A crossing joins the map components of its two edges.
    links = tuple(
        (-1 - cid, (g.endpoints(e)[0], g.endpoints(f)[0])) for cid, (e, f) in enumerate(multiset)
    )
    linked = Multigraph(g.vertices, g.edges + links)
    comps = [comp for comp in linked.components() if len(comp) > 1]
    need = 2 * len(comps) - (sum(map(len, comps)) + len(multiset)) + ndarts // 2

    rot_choices = [
        [(rot, tuple(ending_dart[t] for t in rot)) for rot in choices]
        for choices in _rotation_choices(g)
    ]
    # Per order choice, (P_in, P_out, Q_in, Q_out) of each crossing, P the
    # pass on the smaller edge id, as in the spin convention of ``Drawing``.
    order_choices = []
    for orders in product(*(permutations(on_edge[e]) for e in eids)):
        passes = [[0, 0, 0, 0] for _ in multiset]
        for e, order in zip(eids, orders):
            for pos, cid in enumerate(order):
                k = 0 if e == min(multiset[cid]) else 2
                passes[cid][k] = ending_dart[(e, 0)] + 2 * pos + 1
                passes[cid][k + 1] = ending_dart[(e, 0)] + 2 * pos + 2
        order_choices.append((orders, passes))
    succ = [0] * ndarts
    for picks in product(*rot_choices):
        for _, darts in picks:
            for i, d in enumerate(darts):
                succ[darts[i - 1]] = d
        for orders, passes in order_choices:
            for spin_bits in product((False, True), repeat=len(multiset)):
                tick()
                for (a_in, a_out, b_in, b_out), spin in zip(passes, spin_bits):
                    if spin:  # clockwise (a_in, b_in, a_out, b_out)
                        succ[a_in], succ[b_in], succ[a_out], succ[b_out] = b_in, a_out, b_out, a_in
                    else:  # clockwise (a_in, b_out, a_out, b_in)
                        succ[a_in], succ[b_out], succ[a_out], succ[b_in] = b_out, a_out, b_in, a_in
                if _face_count(succ) != need:
                    continue
                d = Drawing.from_routes(
                    g,
                    dict(zip(g.vertices, (rot for rot, _ in picks))),
                    dict(zip(eids, orders)),
                    dict(enumerate(spin_bits)),
                    validate=False,
                )
                assert not d.validate(), "face-count kernel accepted an invalid drawing"
                yield d


def enumerate_drawings(g: Multigraph, budget: EnumerationBudget):
    """Stream every valid self-crossing-free drawing of g with at most
    ``budget.max_crossings`` crossings, up to sphere homeomorphism
    (deduplicated by canonical encoding; mirror images both appear).
    Crossing-pair multisets are visited in lexicographic order.  Raises
    BudgetExceeded when the candidate or time budget runs out, leaving
    the stream incomplete."""
    if not g.is_simple:
        raise ValueError("enumeration takes simple graphs")
    start = time.monotonic()
    state = {"count": 0}

    def tick():
        state["count"] += 1
        if state["count"] > budget.max_candidates:
            raise BudgetExceeded(f"candidate budget {budget.max_candidates} exhausted")
        if state["count"] % 512 == 0 and time.monotonic() - start > budget.time_limit:
            raise BudgetExceeded(f"time budget {budget.time_limit}s exhausted")

    pairs = sorted(combinations(sorted(g.edge_ids()), 2))
    seen: set = set()
    for size in range(budget.max_crossings + 1):
        for multiset in combinations_with_replacement(pairs, size):
            for d in _realizations(g, multiset, tick):
                if d.canonical_key() not in seen:
                    seen.add(d.canonical_key())
                    yield d
