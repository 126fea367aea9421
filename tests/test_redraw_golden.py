"""Byte-identity gate for the redrawing pipeline.

The canonical JSON of ``hanani_tutte_embed`` and ``theorem2_transform``
output on a fixed, seeded corpus must hash to the digests pinned below.
They were recorded before the pipeline was made near-linear, so any
change to the bytes the pipeline produces (dart numbering, crossing
order, split stacks, sketches) fails here.

The corpus: perturbed triangulations at n = 25/50/100 (embed), grown
quadrangulations with diagonals at odd n = 21/41/61 (transform, k=1),
and the inputs of acceptance criteria 2 and 3 (200 cases each, one
aggregate digest per criterion).  Regenerate the table with
``python tests/test_redraw_golden.py`` only when a change of output
bytes is intended.
"""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from oddplanar import Multigraph
from oddplanar.docio import canonical_json, drawing_to_doc, to_jsonable
from oddplanar.oracle import perturb_even, random_drawing
from oddplanar.redraw import hanani_tutte_embed, theorem2_transform
from oddplanar.surgery import (
    insert_edge_shortest,
    quadrangulation_with_diagonals,
    random_planar_drawing,
    random_planar_triangulation,
)

GOLDEN = {
    "embed/25": "1e2bba02a7881f3784fbdf84b159877177f26e57e6a2fa26576a2ac10b9606a4",
    "embed/50": "e9749a7d2b2e38c00600127922b1b016ac45119787e4a3959fd4d43eee74a260",
    "embed/100": "07ec0995724feb2d1114d8c98a7da40e1ae4287066dff04c2ca901e9ee7da01e",
    "transform-k1/21": "e3858b4de209f816b59ba1a9df8fdf9144c8b07aa1b10db1d3c32801fb1754e4",
    "transform-k1/41": "69c2f9869f4717e72bd65842ef4c7245bdc55b1c5d43b76ff75d3914e47e1f56",
    "transform-k1/61": "950ccb18fb507767bfc1f56875e8ee509e7557d72afaa1914d81bc67e7a33914",
    "acceptance2/all": "933766241112100960eefe53e1ed4ba3679e93c2e53c1847ed305e2ced047bdf",
    "acceptance3/all": "ec355422cd74e0649e679988908ee4aec02b1b437afcac8b2384331450b60218",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _embed_bytes(d) -> bytes:
    return canonical_json(drawing_to_doc(hanani_tutte_embed(d)))


def _transform_bytes(d, k: int) -> bytes:
    return canonical_json({"k": k, "trace": to_jsonable(theorem2_transform(d, k))})


def _triangulation(n: int):
    d, _ = perturb_even(random_planar_triangulation(n, 1000 + n), 6, 1000 + n)
    return d


def _acceptance2_inputs():
    """The 200 all-even drawings of acceptance criterion 2."""
    seed = 0
    out = []
    while len(out) < 200:
        seed += 1
        base = random_planar_drawing(4 + seed % 7, seed, deletions=seed % 4)
        if base.graph.m < 2:
            continue
        try:
            d, _ = perturb_even(base, 1 + seed % 6, seed)
        except ValueError:
            continue
        out.append(d)
    return out


def _random_graph(n: int, m: int, seed: int) -> Multigraph:
    rng = random.Random(f"{seed}:graph")
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return Multigraph(tuple(range(n)), tuple(enumerate(sorted(pairs[:m]))))


def _acceptance3_inputs():
    """The 200 (drawing, k) cases of acceptance criterion 3."""
    seed = 0
    out = []
    while len(out) < 200:
        seed += 1
        kind = seed % 3
        if kind == 0:
            n = 5 + seed % 5
            d = random_drawing(_random_graph(n, n + 2 + seed % 3, seed), seed, model="convex")
        elif kind == 1:
            d = quadrangulation_with_diagonals(4 + seed % 6, seed)
        else:
            base = random_planar_drawing(5 + seed % 5, seed, deletions=2 + seed % 3)
            verts = base.graph.vertices
            present = {frozenset(uv) for _, uv in base.graph.edges}
            absent = [
                (u, v)
                for i, u in enumerate(verts)
                for v in verts[i + 1 :]
                if frozenset((u, v)) not in present
            ]
            if not absent:
                continue
            rng = random.Random(f"{seed}:pick")
            u, v = absent[rng.randrange(len(absent))]
            d = insert_edge_shortest(base, max(base.graph.edge_ids()) + 1, u, v, rng=rng)
        if d.graph.n > 9:
            continue
        k = 1 if d.is_k_odd_plane(1) else 2 if d.is_k_odd_plane(2) else None
        if k is not None:
            out.append((d, k))
    return out


def _digest(case: str) -> str:
    kind, _, arg = case.partition("/")
    if kind == "embed":
        return _sha(_embed_bytes(_triangulation(int(arg))))
    if kind == "transform-k1":
        n = int(arg)
        return _sha(_transform_bytes(quadrangulation_with_diagonals(n, 2000 + n), 1))
    h = hashlib.sha256()
    if kind == "acceptance2":
        for d in _acceptance2_inputs():
            h.update(_embed_bytes(d))
    else:
        for d, k in _acceptance3_inputs():
            h.update(_transform_bytes(d, k))
    return h.hexdigest()


CASES = (
    "embed/25", "embed/50", "embed/100",
    "transform-k1/21", "transform-k1/41", "transform-k1/61",
    "acceptance2/all", "acceptance3/all",
)


@pytest.mark.parametrize("case", CASES)
def test_pipeline_output_is_byte_identical(case):
    assert _digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for case in CASES:
        print(f"    {case!r}: {_digest(case)!r},")
