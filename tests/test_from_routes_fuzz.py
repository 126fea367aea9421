"""Totality of ``Drawing.from_routes``: a valid route view with one defect
(a crossing key dropped, duplicated or unknown, a spin missing, a wrong or
duplicate vertex ending, an edge added or dropped) is refused with
``ValueError`` and nothing else, whether or not validation was asked for."""
from __future__ import annotations

import pytest

from oddplanar import Drawing, Multigraph
from oddplanar.oracle import perturb_even
from oddplanar.surgery import random_planar_triangulation
from fixtures import figure_eight, k5_one_crossing, lens_pair


hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASES = [k5_one_crossing(), lens_pair(), figure_eight(), perturb_even(random_planar_triangulation(7, 1), 3, 2)[0]]
MUTATIONS = (
    "drop-key",
    "duplicate-key",
    "unknown-key",
    "drop-spin",
    "wrong-ending",
    "duplicate-ending",
    "add-edge",
    "add-route",
    "drop-edge",
    "drop-route",
)


def mutate(d: Drawing, kind: str, data):
    """A route view of ``d`` with one defect of the given kind."""
    vr, rt, sp = d.route_view()
    g = d.graph
    vrot = {v: list(t) for v, t in vr.items()}
    routes = {e: list(r) for e, r in rt.items()}
    spins = dict(sp)
    crossed = [(e, i) for e, r in routes.items() for i in range(len(r))]
    ends = [(v, i) for v, t in vrot.items() for i in range(len(t))]
    new_eid = max(g.edge_ids(), default=-1) + 1
    if kind == "drop-key":
        e, i = data.draw(st.sampled_from(crossed))
        del routes[e][i]
    elif kind == "duplicate-key":
        e, i = data.draw(st.sampled_from(crossed))
        f = data.draw(st.sampled_from(sorted(routes)))
        routes[f].insert(data.draw(st.integers(0, len(routes[f]))), routes[e][i])
    elif kind == "unknown-key":
        f = data.draw(st.sampled_from(sorted(routes)))
        routes[f].insert(data.draw(st.integers(0, len(routes[f]))), "unknown")
        if data.draw(st.booleans()):
            spins["unknown"] = True
    elif kind == "drop-spin":
        del spins[data.draw(st.sampled_from(sorted(spins)))]
    elif kind == "wrong-ending":
        v, i = data.draw(st.sampled_from(ends))
        eid, end = vrot[v][i]
        vrot[v][i] = data.draw(st.sampled_from([(eid, 1 - end), (new_eid, end), (eid, 2)]))
    elif kind == "duplicate-ending":
        v, i = data.draw(st.sampled_from(ends))
        vrot[v].insert(data.draw(st.integers(0, len(vrot[v]))), vrot[v][i])
    elif kind == "add-edge":
        u, v = data.draw(st.sampled_from(g.vertices)), data.draw(st.sampled_from(g.vertices))
        g = Multigraph(g.vertices, g.edges + ((new_eid, (u, v)),))
        routes[new_eid] = []
    elif kind == "add-route":
        routes[new_eid] = []
    elif kind == "drop-edge":
        g = g.without_edges({data.draw(st.sampled_from(g.edge_ids()))})
    else:
        del routes[data.draw(st.sampled_from(sorted(routes)))]
    return g, vrot, routes, spins


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(
    base=st.sampled_from(range(len(BASES))),
    kind=st.sampled_from(MUTATIONS),
    validate=st.booleans(),
    data=st.data(),
)
def test_mutated_route_views_raise_value_error(base, kind, validate, data):
    d = BASES[base]
    g, vrot, routes, spins = mutate(d, kind, data)
    with pytest.raises(ValueError):
        Drawing.from_routes(g, vrot, routes, spins, validate=validate)


@pytest.mark.parametrize("d", BASES, ids=["k5", "lens", "figure-eight", "perturbed"])
def test_unmutated_route_views_rebuild_the_drawing(d):
    vr, rt, sp = d.route_view()
    assert Drawing.from_routes(d.graph, vr, rt, sp) == d
