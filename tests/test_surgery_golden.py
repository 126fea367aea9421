"""Byte-identity gate for face surgery, the generators built on it, the
explorer and the SVG renderer.

The sha256 digests below were recorded before surgery, the oracle's
generators and the renderer were moved onto the route view, faces and
segment map cached on ``Drawing``, so any change to the bytes they produce
fails here.  Regenerate the table with ``python tests/test_surgery_golden.py``
only when a change of output bytes is intended.  Intended so far: the
``greedy`` and ``perturbed-even`` digests that changed when
``greedy_embed`` became the exact embedding, and ``svg-convex-k6`` when the
SVG layout became one solve of a triangulated layout graph.

Also checked here: no surgery edit leaks into the cached views of the
drawing it starts from, and faces come in least-dart order.
"""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from oddplanar import Multigraph, complete_bipartite, complete_graph, cycle_graph, merge_disjoint
from oddplanar.docio import canonical_json, serialize_drawing, to_jsonable
from oddplanar.oracle import EnumerationBudget, extremal_search, perturb_even, random_drawing
from oddplanar.redraw import remove_self_crossings
from oddplanar.surgery import (
    add_diagonals,
    double_crossing_move,
    greedy_embed,
    insert_edge_shortest,
    insert_vertex_in_face,
    quadrangulation_with_diagonals,
    random_planar_drawing,
    random_planar_triangulation,
    random_quadrangulation,
    route_edge,
    undo_double_crossing,
)
from oddplanar.svg import render_svg
from fixtures import figure_eight, k4_convex, k5_one_crossing, lens_pair, triangle

GOLDEN = {
    'triangulation/4/0': 'bd4c53353180fb88e282dbd5d405a166b37e7ac54d26f4d4535d62a65aa62216',
    'triangulation/12/1': '37ceb9e89add8828213b3a28ad8d7f16bd657d7bc55b7dd7a295bc87362f573c',
    'triangulation/40/2': '082bbb87ed5401b9c87757b9d14309454fc9dac8bff049dd52dae13b3f2a6cf8',
    'triangulation/150/3': '6a7b3e0e7076dfb7cdaa19eaec46f86750a608d4a8191f472552b053471741c4',
    'quad-diagonals/9/1': '054936e5bf7bf2e518516b1df2aae7a86635da3a1b36e80b5f44f2c460664c9b',
    'quad-diagonals/30/2': '094eecfc8e5899bbfcb92b4c5507dc9cb5d771397ad6413497f36e2a069911dc',
    'quad-diagonals/61/3': '75e80b579971430adbb764646067057a6b8ae2adc9033950ca6709870d4d69f6',
    'quad-with-diagonals/7/4': 'fcbe4509c99a858596f1eeb449933a09fa920d9751bc381cdc6ad18d38dca218',
    'quad-with-diagonals/12/5': 'f82f41761fa180609e990959b9d9888d797817f45890b8afd7f0b742b20717b8',
    'quad-with-diagonals/21/6': '2a0ad63d7519c432c67a6a069b73c0848928048d1d4269405ef4ba6f318189fe',
    'quad-with-diagonals/40/7': 'b111c662e07f2a8998c2e9637ebb0c95fb2e1ef74188cac7c935bbe0104ac29c',
    'perturb/10/3/1': 'f31ca24a8e010d60c42489c2bd18a4bfd1c6b3575b063f23af73db572e9d3501',
    'perturb/25/6/2': '9ea23fb277ec5116e3a5f05e7feff9ae88a2a806e50d59ad0943ca7651905284',
    'perturb/60/12/3': 'cda80845e045435d02af792736ed1918d8766826c135e7db3b3731e5203cb638',
    'convex/7/12/1': '16e73ac7ed9aedfb86402550353616c72b05cd27424ed259f4e3c4c0f160bbad',
    'convex/9/16/2': '3d400c9a05460655c09afcff705bfd4ca0c3686ee0994f594262064e8a3325bb',
    'convex-k/6/3': 'c23dc2438fa4d52637c215956356cb14ffa23619e573ceae390bcf1f37e9b1b8',
    'convex-k/7/5': 'f0f4db71363ab018680bfc6cdf9d2124bb2822e6708c46f9c53e25debb5b42e1',
    'perturbed-even/8/1': 'e29dbc6ccd48e03d55b34a151e4c33ea9996a237f3ea433b991c7db46b6b05ba',
    'perturbed-even/16/2': 'f15e622d7e0f09a6d47412a1047e3a3d8b39c5b121c2143173771743d78492d1',
    'perturbed-even/20/3': 'fcc886a690f02b51b05ea704610afdeb712aabe7bfdeae4c08826bd9ae223dad',
    'greedy/10/1': 'd49f0b11566df20498c2ffa1878e1e468a1ec642834a06a0cd3d0fef0dc62d1b',
    'greedy/18/2': 'f76f64f4ffdef187d9db08ecb2357c86be69b614e37323d6adc6f57d1b914204',
    'greedy/24/3': '330d578c3b53b7e088707c38f0db538e6bec25fb9dd4c6282e3225499d471935',
    'greedy-named/0/1': 'c796e3c458d42620c64a03605ef98b141a15b72983a6af4f936f172e7a285d16',
    'greedy-named/1/2': '556f02cda75c379e3f9b864ecdd9f40c1d8a8c6ea14eba72457c812ee69addb7',
    'greedy-named/2/3': '2016e578e04958502c2a064d52bea779dccac698561461592f7f173a522f690c',
    'search/12/0': 'f6f8c41417dc29614f2dae1f896903d3875189840fe9e569674661ccdb8dc297',
    'search/24/1': 'cb8adc750a7619e4e81510c68eadb51cfd821d56275d3b204e541b7b23285690',
    'svg-k5': '3ffbd50743bb16ec32ec12725885d1578f1ec789099792991c3f721db5eea42a',
    'svg-convex-k6': 'b8ffa7a093bd567d8afcb6c26ff8c1dcb595659e9d0726a553d37ebcf3413121',
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _planar_graph(n: int, seed: int) -> Multigraph:
    """A seeded planar graph with shuffled edge ids: a grown triangulation
    minus a few edges."""
    d = random_planar_drawing(n, seed, deletions=3 * n // 2)
    pairs = [uv for _, uv in d.graph.edges]
    random.Random(f"{seed}:ids").shuffle(pairs)
    return Multigraph(d.graph.vertices, tuple(enumerate(pairs)))


def _random_graph(n: int, m: int, seed: int) -> Multigraph:
    rng = random.Random(f"{seed}:graph")
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return Multigraph(tuple(range(n)), tuple(enumerate(sorted(pairs[:m]))))


def _gallery_k5():
    """The gallery's one-crossing K5 (``scripts/render_gallery.py``)."""
    d = random_planar_triangulation(4, 0)
    face = d.faces()[0]
    d = insert_vertex_in_face(d, face, [0, 1, 2], 4, d.graph.m)
    missing = ({0, 1, 2, 3} - {d.dart_node(x) for x in face}).pop()
    return insert_edge_shortest(d, 9, 4, missing)


def _search_bytes(n: int, seed: int) -> bytes:
    res = extremal_search(1, n, EnumerationBudget(0, 200, 600.0), seed)
    return canonical_json({"seed": seed, "k": 1, "n": n, **to_jsonable(res)})


def _output(case: str) -> bytes:
    kind, *args = case.split("/")
    a = [int(x) for x in args]
    if kind == "triangulation":
        return serialize_drawing(random_planar_triangulation(*a))
    if kind == "quad-diagonals":
        return serialize_drawing(add_diagonals(random_quadrangulation(*a)))
    if kind == "quad-with-diagonals":
        return serialize_drawing(quadrangulation_with_diagonals(*a))
    if kind == "perturb":
        n, moves, seed = a
        d, recs = perturb_even(random_planar_triangulation(n, seed), moves, seed)
        return serialize_drawing(d) + repr(recs).encode()
    if kind == "convex":
        n, m, seed = a
        return serialize_drawing(random_drawing(_random_graph(n, m, seed), seed, model="convex"))
    if kind == "convex-k":
        n, seed = a
        return serialize_drawing(random_drawing(complete_graph(n), seed, model="convex"))
    if kind == "perturbed-even":
        n, seed = a
        return serialize_drawing(random_drawing(_planar_graph(n, seed), seed, model="perturbed-even"))
    if kind == "greedy":
        n, seed = a
        return serialize_drawing(greedy_embed(_planar_graph(n, seed)))
    if kind == "greedy-named":
        which, seed = a
        g = (cycle_graph(9), complete_bipartite(2, 5), complete_graph(4))[which]
        return serialize_drawing(greedy_embed(g))
    if kind == "search":
        return _search_bytes(*a)
    if kind == "svg-k5":
        return render_svg(_gallery_k5())
    if kind == "svg-convex-k6":
        return render_svg(random_drawing(complete_graph(6), seed=3, model="convex"))
    raise ValueError(case)


CASES = (
    "triangulation/4/0", "triangulation/12/1", "triangulation/40/2", "triangulation/150/3",
    "quad-diagonals/9/1", "quad-diagonals/30/2", "quad-diagonals/61/3",
    "quad-with-diagonals/7/4", "quad-with-diagonals/12/5", "quad-with-diagonals/21/6",
    "quad-with-diagonals/40/7",
    "perturb/10/3/1", "perturb/25/6/2", "perturb/60/12/3",
    "convex/7/12/1", "convex/9/16/2", "convex-k/6/3", "convex-k/7/5",
    "perturbed-even/8/1", "perturbed-even/16/2", "perturbed-even/20/3",
    "greedy/10/1", "greedy/18/2", "greedy/24/3",
    "greedy-named/0/1", "greedy-named/1/2", "greedy-named/2/3",
    "search/12/0", "search/24/1",
    "svg-k5", "svg-convex-k6",
)


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical(case):
    assert _sha(_output(case)) == GOLDEN[case]


# ---------------------------------------------------------------------------
# Cached views stay untouched by surgery
# ---------------------------------------------------------------------------


def _snapshot(d):
    views = (*d.route_view(), d.face_of_dart(), d.segment_of_dart())
    return [dict(v) for v in views], d.faces(), serialize_drawing(d)


def _surgery_operations(d):
    """Every edit that starts from ``d``, each as a thunk."""
    faces = d.faces()
    big = max(faces, key=len)
    nv = max(d.graph.vertices) + 1
    ne = max(d.graph.edge_ids()) + 1
    real = [i for i, x in enumerate(big) if d.dart_node(x) in d.graph.vertices]
    ops = [
        lambda: insert_vertex_in_face(d, big, real[:2], nv, ne),
        lambda: d.remove_edges({d.graph.edge_ids()[0]}),
        lambda: d.disjoint_union(d),
        lambda: merge_disjoint([d]),
        lambda: remove_self_crossings(d),
        lambda: d.canonicalize(),
    ]
    u, v = d.graph.vertices[0], d.graph.vertices[-1]
    ops.append(lambda: insert_edge_shortest(d, ne, u, v, rng=random.Random(5)))
    seg = d.segment_of_dart()
    for face in faces:
        pairs = [(a, b) for i, a in enumerate(face) for b in face[i + 1 :] if seg[a][0] != seg[b][0]]
        if pairs:
            a, b = pairs[0]
            ops.append(lambda a=a, b=b: double_crossing_move(d, a, b))
            ops.append(lambda a=a, b=b: undo_double_crossing(*double_crossing_move(d, a, b)))
            break
    for face in faces:
        corners = [i for i, x in enumerate(face) if d.dart_node(x) in d.graph.vertices]
        if len({d.dart_node(face[i]) for i in corners}) >= 2:
            i = corners[0]
            j = next(j for j in corners if d.dart_node(face[j]) != d.dart_node(face[i]))
            x, y = d.dart_node(face[i]), d.dart_node(face[j])
            ops.append(lambda: route_edge(d, ne, x, y, face[i], face[j], []))
            break
    ops.append(lambda: add_diagonals(d))
    return ops


def _surgery_inputs():
    base = random_planar_triangulation(9, 4)
    return [
        base,
        perturb_even(base, 4, 4)[0],
        random_quadrangulation(10, 2),
        quadrangulation_with_diagonals(12, 0),
        k5_one_crossing(),
        figure_eight(),
        lens_pair(),
        k4_convex(),
        triangle(),
    ]


@pytest.mark.parametrize("index", range(9))
def test_surgery_leaves_the_source_views_unchanged(index):
    d = _surgery_inputs()[index]
    before = _snapshot(d)
    for op in _surgery_operations(d):
        try:
            op()
        except ValueError:
            pass
        assert _snapshot(d) == before


def test_faces_come_in_least_dart_order():
    for d in _surgery_inputs():
        faces = list(d.faces())
        assert all(f[0] == min(f) for f in faces)
        assert [f[0] for f in faces] == sorted(f[0] for f in faces)
        assert faces == sorted(faces)
        assert sorted(x for f in faces for x in f) == sorted(d.theta)


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {_sha(_output(case))!r},")
