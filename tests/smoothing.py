"""Reference edge removal for the tests: the route-view rebuild that
``Drawing.remove_edges`` used before it smoothed the map in place.

It filters the route view (removed edges' endings, dead crossings) and
materializes the result with ``Drawing.from_routes``, so its output has
canonical ids.  Not collected by pytest: the module name has no ``test_``
prefix."""
from __future__ import annotations

from typing import Iterable

from oddplanar.drawing import Drawing


def rebuilt_without(d: Drawing, edge_set: Iterable[int]) -> Drawing:
    """Inherited drawing: removed edges vanish, their crossing points on
    surviving edges are smoothed away, all other crossings untouched."""
    removed = set(edge_set)
    unknown = removed - set(d.graph.edge_ids())
    if unknown:
        raise KeyError(f"unknown edge ids {sorted(unknown)}")
    if not removed:
        return d
    vrot, routes, spins = d.route_view()
    dead = {
        c
        for c, ((e1, _), (e2, _)) in d.crossing_passes().items()
        if e1 in removed or e2 in removed
    }
    new_graph = d.graph.without_edges(removed)
    new_vrot = {
        v: tuple(t for t in vrot[v] if t[0] not in removed) for v in new_graph.vertices
    }
    new_routes = {
        e: tuple(c for c in routes[e] if c not in dead)
        for e in new_graph.edge_ids()
    }
    new_spins = {c: s for c, s in spins.items() if c not in dead}
    return Drawing.from_routes(new_graph, new_vrot, new_routes, new_spins, validate=False)
