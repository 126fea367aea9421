"""Render a small gallery: a one-crossing K5, a redrawn loop bouquet, a
plane forest, a drawing with a self-crossing loop, and a before/after
pair for the odd-to-plain crossing pipeline.

Usage: python scripts/render_gallery.py [--out out/]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oddplanar.docio import serialize_drawing
from oddplanar.oracle import perturb_even, random_drawing
from oddplanar.redraw import OneVertexSketch, lemma1_redraw, theorem2_transform
from oddplanar.surgery import (
    insert_edge_shortest,
    insert_vertex_in_face,
    random_planar_drawing,
    random_planar_triangulation,
)
from oddplanar.svg import render_svg
from oddplanar import Drawing, Multigraph, complete_graph


def k5_one_crossing():
    d = random_planar_triangulation(4, 0)
    face = d.faces()[0]
    d = insert_vertex_in_face(d, face, [0, 1, 2], 4, d.graph.m)
    missing = ({0, 1, 2, 3} - {d.dart_node(x) for x in face}).pop()
    return insert_edge_shortest(d, 9, 4, missing)


def self_crossing():
    """Convex K6 plus a figure-eight loop bridged to it, a pendant vertex
    in the loop's lobe whose edge leaves the lobe across the loop, then
    six double-crossing moves."""
    loop = Multigraph((0,), ((0, (0, 0)),))
    figure_eight = Drawing.from_routes(loop, {0: ((0, 0), (0, 1))}, {0: ("c", "c")}, {"c": True})
    d = random_drawing(complete_graph(6), 3, "convex").disjoint_union(figure_eight)
    d = insert_edge_shortest(d, 100, 0, 6)
    lobe = next(f for f in d.faces() if len(f) == 2)
    d = insert_vertex_in_face(d, lobe, [[d.dart_node(x) for x in lobe].index(6)], 7, 101)
    d = insert_edge_shortest(d, 102, 7, 2)
    return perturb_even(d, 6, 1)[0]


def run(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    gallery = {
        "k5-one-crossing": k5_one_crossing(),
        "bouquet-redrawn": lemma1_redraw(
            OneVertexSketch(0, ((1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)))
        ),
        "convex-k6": random_drawing(complete_graph(6), seed=3, model="convex"),
        "forest": random_planar_drawing(8, 1, deletions=12),
        "self-crossing": self_crossing(),
    }
    pipe_in = random_drawing(complete_graph(5), seed=1, model="convex")
    k = max(pipe_in.odd_degree(e) for e in pipe_in.graph.edge_ids())
    trace = theorem2_transform(pipe_in, k)
    gallery["pipeline-input"] = pipe_in
    gallery["pipeline-output"] = trace.g4
    for name, d in gallery.items():
        (out / f"{name}.svg").write_bytes(render_svg(d))
        (out / f"{name}.json").write_bytes(serialize_drawing(d))
        print(f"wrote {out / name}.svg ({len(d.crossing_nodes())} crossings)")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    run(Path(ap.parse_args().out))
