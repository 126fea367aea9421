"""Independent ground truth at desk scale.

Exact values of the crossing-number variants of tiny graphs, seeded
random drawing generators, and a stochastic explorer for dense drawings
with bounded odd crossings per edge.

Exact values do not touch the redrawing machinery.  They decide each
crossing-pair multiset with planarity tests: one per choice of per-edge
crossing orders, on the planarization with a wheel around every
crossing.  A positive verdict is built as one drawing and validated.
Drawings whose edges cross themselves are not considered: smoothing a
self-crossing preserves every pairwise crossing count exactly, so no
minimum over drawings changes by ignoring them.

Budgets count planarity tests for exact values and proposals for the
search.  The candidate limit is enforced deterministically; the time
limit is a safety net and should not be used to pin down results.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from .bounds import BoundReport, audit_drawing, modd_upper
from .drawing import Drawing, Ending, spin
from .graphs import Multigraph
from .surgery import (
    MoveRecord,
    double_crossing_move,
    greedy_embed,
    planar_rotations,
    quadrangulation_with_diagonals,
    random_planar_triangulation,
    route_edge,
    shortest_dual_path,
)
from .svg import ccw_key

class BudgetExceeded(Exception):
    """The candidate or time budget ran out.  ``lower_bound`` is set by
    :func:`exact_crossing_value`: every smaller value is already refuted
    within the crossing budget (None where nothing is proved)."""

    def __init__(self, message: str, lower_bound: int | None = None) -> None:
        super().__init__(message)
        self.lower_bound = lower_bound


@dataclass(frozen=True)
class EnumerationBudget:
    """``max_crossings``: the largest crossing-pair multiset an exact
    value tests.  ``max_candidates``: planarity tests for an exact value,
    proposals for :func:`extremal_search`.  ``time_limit``: seconds, a
    safety net for both."""

    max_crossings: int = 1
    max_candidates: int = 2_000_000
    time_limit: float = 300.0

    def __post_init__(self) -> None:
        # "not >=" also rejects NaN, for which every comparison is false
        if self.max_crossings < 0 or self.max_candidates < 0 or not self.time_limit >= 0:
            raise ValueError("budget fields must be nonnegative numbers")


@dataclass(frozen=True)
class LowerBoundOnly:
    """Every admissible crossing-pair multiset within the crossing budget
    was refuted, by counting or by planarity tests, so no admissible
    drawing has fewer than ``bound`` crossings.  For the plain crossing
    number this bounds the true value below by ``bound``; for the pair
    and odd variants it only certifies the tested range."""

    bound: int


# ---------------------------------------------------------------------------
# Random drawings
# ---------------------------------------------------------------------------


def _convex_drawing(g: Multigraph, seed: int) -> Drawing:
    """Vertices in seeded random order in convex position (points on the
    parabola t -> (t, t^2), so all tests are exact integer arithmetic),
    edges as straight chords.  Chords cross iff their endpoints
    interleave in the convex order; concurrent triple intersections are
    detected exactly and dodged by re-sampling the positions."""
    rng = random.Random(f"{seed}:convex")
    order = list(g.vertices)
    rng.shuffle(order)
    slot = {v: i for i, v in enumerate(order)}
    n = g.n
    for attempt in range(64):
        if attempt == 0:
            ts = list(range(n))
        else:
            rng2 = random.Random(f"{seed}:convex:t:{attempt}")
            ts = sorted(rng2.sample(range(1_000_000), n))
        pt = {v: (ts[slot[v]], ts[slot[v]] ** 2) for v in g.vertices}

        def interleave(e, f):
            (a, b), (c, d) = g.endpoints(e), g.endpoints(f)
            if len({a, b, c, d}) < 4:
                return False
            lo, hi = sorted((slot[a], slot[b]))
            return (lo < slot[c] < hi) != (lo < slot[d] < hi)

        eids = g.edge_ids()
        crossings = [
            (e, f) for i, e in enumerate(eids) for f in eids[i + 1 :] if interleave(e, f)
        ]
        along: dict[int, list[tuple[Fraction, tuple]]] = {e: [] for e in eids}
        spins: dict[tuple, bool] = {}
        for e, f in crossings:
            (a, b), (c, d) = g.endpoints(e), g.endpoints(f)
            pa, pb, pc, pd = pt[a], pt[b], pt[c], pt[d]
            d1 = (pb[0] - pa[0], pb[1] - pa[1])
            d2 = (pd[0] - pc[0], pd[1] - pc[1])
            den = d1[0] * d2[1] - d1[1] * d2[0]
            ca = (pc[0] - pa[0], pc[1] - pa[1])
            s = Fraction(ca[0] * d2[1] - ca[1] * d2[0], den)
            t = Fraction(ca[0] * d1[1] - ca[1] * d1[0], den)
            key = (e, f)
            along[e].append((s, key))
            along[f].append((t, key))
            spins[key] = spin(e, f, den < 0)  # f passes from e's left iff d1 x d2 < 0
        degenerate = False
        routes: dict[int, tuple] = {}
        for e in eids:
            along[e].sort()
            params = [s for s, _ in along[e]]
            if any(params[i] == params[i + 1] for i in range(len(params) - 1)):
                degenerate = True
                break
            routes[e] = tuple(key for _, key in along[e])
        if degenerate:
            continue

        vrot: dict[int, tuple[Ending, ...]] = {}
        for v in g.vertices:
            items = []
            for eid, (x, y) in g.edges:
                if x == v or y == v:
                    other = y if x == v else x
                    vec = (pt[other][0] - pt[v][0], pt[other][1] - pt[v][1])
                    items.append((vec, (eid, 0 if x == v else 1)))
            items.sort(key=ccw_key)
            items.reverse()  # clockwise
            vrot[v] = tuple(tok for _, tok in items)
        return Drawing.from_routes(g, vrot, routes, spins)
    raise RuntimeError("could not find a nondegenerate convex placement")


def _entangle_options(d: Drawing) -> list[tuple[int, int]]:
    """Dart pairs (a, b) on one face whose darts lie on distinct edges, the
    arguments ``double_crossing_move`` accepts, listed face by face in
    sorted face order and by position along each face."""
    seg_of = d.segment_of_dart()
    options: list[tuple[int, int]] = []
    for face in d.faces():
        for i, a in enumerate(face):
            for b in face[i + 1 :]:
                if seg_of[a][0] != seg_of[b][0]:
                    options.append((a, b))
    return options


def perturb_even(d: Drawing, moves: int, seed: int) -> tuple[Drawing, tuple[MoveRecord, ...]]:
    """Apply a seeded sequence of parity-preserving double-crossing moves;
    starting from an all-even drawing the result stays all-even.  The
    records allow replay and last-in-first-out inversion."""
    rng = random.Random(f"{seed}:moves")
    recs: list[MoveRecord] = []
    for _ in range(moves):
        options = _entangle_options(d)
        if not options:
            raise ValueError("no face offers two distinct edges to entangle")
        a, b = options[rng.randrange(len(options))]
        d, rec = double_crossing_move(d, a, b)
        recs.append(rec)
    return d, tuple(recs)


def random_drawing(g: Multigraph, seed: int, model: str = "convex", moves: int | None = None) -> Drawing:
    """Deterministic seeded drawing generator.

    ``convex``: chord diagram in convex position with exact crossing
    extraction.  ``perturbed-even``: the exact crossing-free embedding
    (:func:`greedy_embed`; the graph must be planar) entangled by seeded
    double-crossing moves, so every pair of edges crosses evenly.
    """
    if not g.is_simple:
        raise ValueError("generators take simple graphs")
    if model == "convex":
        return _convex_drawing(g, seed)
    if model == "perturbed-even":
        base = greedy_embed(g)
        rng = random.Random(f"{seed}:nmoves")
        n_moves = moves if moves is not None else rng.randint(1, 4)
        out, _ = perturb_even(base, n_moves, seed)
        return out
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# Exact crossing-number variants
# ---------------------------------------------------------------------------

_VARIANTS = ("cr", "pcr", "ocr")
_RULES = ("plus", "zero", "minus", "star")


def _multiset_value(multiset, variant: str, rule: str, adjacent) -> tuple[bool, int]:
    """(admissible, value) of any drawing realizing the multiset."""
    counts: dict[tuple[int, int], int] = {}
    for p in multiset:
        counts[p] = counts.get(p, 0) + 1
    adj_present = {p for p in counts if adjacent(p)}
    if rule == "plus" and adj_present:
        return False, 0
    if rule == "star" and any(counts[p] % 2 for p in adj_present):
        return False, 0
    if rule == "minus":
        considered = {p: c for p, c in counts.items() if not adjacent(p)}
    else:
        considered = counts
    if variant == "cr":
        val = sum(considered.values())
    elif variant == "pcr":
        val = len(considered)
    else:
        val = sum(1 for c in considered.values() if c % 2)
    return True, val


def _triangle_free(g: Multigraph) -> bool:
    nbrs: dict[int, set[int]] = {v: set() for v in g.vertices}
    for _, (u, v) in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return all(not (nbrs[u] & nbrs[v]) for _, (u, v) in g.edges)


def _counting_lower_bound(g: Multigraph) -> int:
    """Fewest crossings a drawing of the simple graph g can have by
    counting.  Deleting one edge per crossing leaves a planar simple
    subgraph, so a drawing with c crossings forces m - c <= 3n - 6; if g is
    triangle-free the subgraph is too, and every face of a triangle-free
    plane graph with n >= 3 has length >= 4, which forces m - c <= 2n - 4."""
    if g.n < 3:
        return 0
    bound = g.m - (3 * g.n - 6)
    if g.m > 2 * g.n - 4 and _triangle_free(g):
        bound = g.m - (2 * g.n - 4)
    return max(bound, 0)


def _crossing_orders(e: int, cids: list[int], multiset: tuple[tuple[int, int], ...]):
    """The orders of crossings ``cids`` along edge e that
    :func:`_planarization_witness` tests.  Crossings with the same edge
    pair are interchangeable, since renaming them renames the
    planarization, so along the pair's smaller edge only orders that keep
    their ids increasing are taken.  Sorting them that way never moves a
    choice of orders later in ``product`` order, so the first planar
    choice is always among those taken."""
    for order in permutations(cids):
        last: dict[tuple[int, int], int] = {}
        for cid in order:
            pair = multiset[cid]
            if min(pair) == e:
                if last.get(pair, -1) > cid:
                    break
                last[pair] = cid
        else:
            yield order


def _planarization_witness(g: Multigraph, multiset: tuple[tuple[int, int], ...], tick) -> Drawing | None:
    """A drawing whose crossing-pair multiset is exactly ``multiset``, or
    None if there is none; ``tick`` is called once per planarity test.

    For each choice of per-edge crossing orders the planarization is
    built: every crossing becomes a hub node, each of its four half-edges
    is subdivided, and the four subdivision nodes are joined in a rim
    cycle (P before, Q before, P after, Q after).  The wheel is
    3-connected, so every plane embedding passes the two edges through
    the hub transversally, with either spin; conversely the rim of a
    drawn crossing can follow the corners around it.  So a drawing with
    these orders exists iff the planarization is planar.  A positive
    verdict is mapped back to vertex rotations, routes and spins and
    built as one validated ``Drawing``."""
    eids = g.edge_ids()
    on_edge: dict[int, list[int]] = {e: [] for e in eids}
    for cid, (e, f) in enumerate(multiset):
        on_edge[e].append(cid)
        on_edge[f].append(cid)
    hub = max(g.vertices, default=-1) + 1
    for orders in product(*(_crossing_orders(e, on_edge[e], multiset) for e in eids)):
        tick()
        adj: dict[int, list[int]] = {v: [] for v in g.vertices}
        # Per crossing: the subdivision nodes (P before, P after, Q before,
        # Q after), P the pass on the smaller edge id as in ``Drawing``.
        ports = [[0, 0, 0, 0] for _ in multiset]
        ending_at: dict[tuple[int, int], Ending] = {}
        fresh = hub + len(multiset)
        for e, order in zip(eids, orders):
            u, v = g.endpoints(e)
            path = [u]
            for cid in order:
                k = 0 if e == min(multiset[cid]) else 2
                ports[cid][k], ports[cid][k + 1] = fresh, fresh + 1
                path += [fresh, hub + cid, fresh + 1]
                fresh += 2
            path.append(v)
            for x, y in zip(path, path[1:]):
                adj.setdefault(x, []).append(y)
                adj.setdefault(y, []).append(x)
            ending_at[(u, path[1])] = (e, 0)
            ending_at[(v, path[-2])] = (e, 1)
        for p_in, p_out, q_in, q_out in ports:
            rim = (p_in, q_in, p_out, q_out)
            for x, y in zip(rim, rim[1:] + rim[:1]):
                adj[x].append(y)
                adj[y].append(x)
        rot = planar_rotations(adj)
        if rot is None:
            continue
        vrot = {v: tuple(ending_at[(v, w)] for w in rot[v]) for v in g.vertices}
        spins = {}
        for cid, (p_in, _, q_in, _) in enumerate(ports):
            r = rot[hub + cid]
            spins[cid] = r[(r.index(p_in) + 1) % 4] == q_in  # clockwise (P_in, Q_in, P_out, Q_out)
        d = Drawing.from_routes(g, vrot, dict(zip(eids, orders)), spins, validate=False)
        assert not d.validate(), "planarity test accepted an invalid drawing"
        # With no crossing every route is empty, so there is nothing to compare.
        assert not multiset or sorted(
            (e, f) for (e, _), (f, _) in d.crossing_passes().values()
        ) == sorted(multiset), "planarity witness has the wrong crossings"
        return d
    return None


def _realizable(g: Multigraph, multiset, max_ticks: int) -> tuple[bool | None, int]:
    """(found, ticks) where found is None if the tick budget ran out; one
    tick per planarity test of :func:`_planarization_witness`."""
    if len(multiset) < _counting_lower_bound(g):
        return False, 0
    ticks = 0

    def tick():
        nonlocal ticks
        ticks += 1
        if ticks > max_ticks:
            raise BudgetExceeded("realizability tick budget")

    try:
        return _planarization_witness(g, multiset, tick) is not None, ticks
    except BudgetExceeded:
        return None, ticks


def exact_crossing_value(
    g: Multigraph, variant: str, rule: str, budget: EnumerationBudget
):
    """Minimum of the chosen crossing-number variant over all drawings
    admissible under the rule with at most ``budget.max_crossings``
    crossings.  The value is exact whenever the true optimum is attained
    within the crossing budget (the caller chooses the budget); each
    multiset is decided exactly by :func:`_planarization_witness`.
    Returns LowerBoundOnly when no admissible multiset within the
    crossing budget is realizable.  When the budget runs out while
    multisets of value v are tested, the raised BudgetExceeded carries v
    as its ``lower_bound``: every smaller value has been refuted.

    Candidate multisets are processed serially in (value, multiset) order
    with pruning, so the search stops as soon as no better value is
    possible, and results do not depend on the process or the machine.
    """
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule == "star" and variant != "ocr":
        raise ValueError("rule star is defined for the odd crossing number only")
    if not g.is_simple:
        raise ValueError("exact values are defined for simple graphs")

    start = time.monotonic()
    remaining = budget.max_candidates

    def realizable(multiset, val: int) -> bool:
        nonlocal remaining
        if time.monotonic() - start > budget.time_limit:
            raise BudgetExceeded("time budget exhausted", val)
        if remaining <= 0:
            raise BudgetExceeded("candidate budget exhausted", val)
        found, used = _realizable(g, multiset, remaining)
        remaining -= used
        if found is None:
            raise BudgetExceeded("candidate budget exhausted", val)
        return found

    # The empty multiset would sort first with value 0 under every variant
    # and rule, so a planar verdict needs no candidate list.
    if realizable((), 0):
        return 0

    # Smaller multisets are refuted by counting alone, without a test; the
    # m^2 edge pairs are listed only if some size survives.
    low = max(1, _counting_lower_bound(g))
    if low > budget.max_crossings:
        return LowerBoundOnly(budget.max_crossings + 1)
    pairs = sorted(combinations(sorted(g.edge_ids()), 2))
    adjacent = frozenset(p for p in pairs if g.adjacent(*p)).__contains__
    candidates: list[tuple[int, int, tuple]] = []
    for size in range(low, budget.max_crossings + 1):
        for multiset in combinations_with_replacement(pairs, size):
            ok, val = _multiset_value(multiset, variant, rule, adjacent)
            if ok:
                adj_count = sum(1 for p in multiset if adjacent(p))
                candidates.append((val, adj_count, multiset))
    # Equal-value multisets with fewer adjacent crossings first: witnesses
    # tend to be independent, and failed sweeps are the expensive part.
    candidates.sort()
    for val, _, multiset in candidates:
        if realizable(multiset, val):
            return val
    return LowerBoundOnly(budget.max_crossings + 1)


# ---------------------------------------------------------------------------
# Extremal search
# ---------------------------------------------------------------------------


def _routed_is_k_odd_plane(base: Drawing, crossed: list[int], k: int) -> bool:
    """Whether ``route_edge`` on ``base`` along the dual path ``crossed``
    yields a k-odd-plane drawing, decided without building it.  Each
    crossed dart is one crossing of the new edge with that dart's edge,
    so the new edge's odd partners are the edges it crosses an odd number
    of times, each of which gains one partner; no other pair changes
    parity.  ``base`` must itself be k-odd-plane, which is not rechecked:
    the search's current drawing always is, and removing an edge never
    raises an odd degree."""
    seg_of = base.segment_of_dart()
    odd: set[int] = set()
    for x in crossed:
        odd ^= {seg_of[x][0]}
    if len(odd) > k:
        return False
    return all(base.odd_degree(g) < k for g in odd)


@dataclass(frozen=True)
class SearchResult:
    best: Drawing
    edge_count: int
    target_upper: int
    report: BoundReport
    proposals: int
    accepted: int
    budget_exhausted: bool


def extremal_search(k: int, n: int, budget: EnumerationBudget, seed: int) -> SearchResult:
    """Stochastic local search for dense drawings in which every edge is
    crossed oddly by at most k others.  Starts from the densest known
    constructive drawing (a triangulation; for k >= 1 also the
    diagonal-augmented quadrangulation), then proposes edge additions,
    reroutes and parity-preserving pokes, keeping the constraint hard.
    The reported edge count is audited against modd_upper; exceeding it
    would mean an implementation bug, not new mathematics."""
    if k < 0 or n < 3:
        raise ValueError("need k >= 0 and n >= 3")
    rng = random.Random(f"{seed}:search")
    # Every triangulation has 3n - 6 edges, so the triangulation is built
    # only when the denser warm start does not apply.
    current = quadrangulation_with_diagonals(n, seed) if k >= 1 and n >= 4 else None
    if current is None or current.graph.m <= 3 * n - 6 or not current.is_k_odd_plane(k):
        current = random_planar_triangulation(n, seed)
    best = current
    proposals = 0
    accepted = 0
    start = time.monotonic()
    exhausted = False
    next_eid = max(current.graph.edge_ids()) + 1
    verts = current.graph.vertices
    present = {frozenset(uv) for _, uv in current.graph.edges}
    absent = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if frozenset((u, v)) not in present
    ]
    while True:
        if proposals >= budget.max_candidates:
            exhausted = True
            break
        if time.monotonic() - start > budget.time_limit:
            exhausted = True
            break
        proposals += 1
        roll = rng.random()
        added = base = None
        try:
            if absent and roll < 0.6:
                u, v = added = absent[rng.randrange(len(absent))]
                eid = next_eid
                base = current
            elif roll < 0.85 and current.graph.m > 0:
                eids = current.graph.edge_ids()
                eid = eids[rng.randrange(len(eids))]
                u, v = current.graph.endpoints(eid)
                base = current.remove_edges({eid})
            else:
                options = _entangle_options(current)
                if not options:
                    continue
                a, b = options[rng.randrange(len(options))]
                cand, _ = double_crossing_move(current, a, b)
            if base is not None:
                uc, vc, crossed = shortest_dual_path(
                    base, u, v, rng=random.Random(f"{seed}:route:{proposals}")
                )
                # Screened before it is built: a rejected route costs no Drawing.
                if not _routed_is_k_odd_plane(base, crossed, k):
                    continue
                cand = route_edge(base, eid, u, v, uc, vc, crossed)
        except ValueError:
            continue
        if not cand.is_k_odd_plane(k):
            continue
        if cand.graph.m >= current.graph.m:
            current = cand
            accepted += 1
            if added is not None:
                absent.remove(added)
                next_eid += 1
            if current.graph.m > best.graph.m:
                best = current
    assert best.is_k_odd_plane(k)
    assert not best.validate()
    report = audit_drawing(best, k)
    target = modd_upper(k, n)
    assert best.graph.m <= target, "search exceeded a proven upper bound: bug"
    return SearchResult(
        best=best,
        edge_count=best.graph.m,
        target_upper=target,
        report=report,
        proposals=proposals,
        accepted=accepted,
        budget_exhausted=exhausted,
    )
