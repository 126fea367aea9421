"""Command-line surface.

Machine-readable canonical JSON goes to stdout, a one-line human summary
to stderr.  Exit codes: 0 success, 1 validation/precondition failure (or
a failed audit check), 2 usage error, 3 budget exceeded (``oracle`` still
writes what it proved: the value below which everything is refuted).

Randomized commands (`sample`, `search`) take an explicit ``--seed`` or
use the documented default 0; the seed used is always echoed in the
output.  The oracle is serial, so its results never depend on the
machine.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bounds import (
    CROSSING_LEMMA_VARIANTS,
    audit_drawing,
    crossing_lemma_lower,
    mk_is_exact,
    mk_upper,
    modd_upper,
    ocr_linear_lower,
    sampling_experiment,
)
from .docio import (
    ValidationError,
    _num,
    canonical_json,
    drawing_to_doc,
    parse_drawing,
    parse_graph,
    to_jsonable,
)
from .graphs import Multigraph, complete_bipartite, complete_graph, cycle_graph
from .oracle import (
    BudgetExceeded,
    EnumerationBudget,
    LowerBoundOnly,
    exact_crossing_value,
    extremal_search,
)
from .redraw import (
    OneVertexSketch,
    hanani_tutte_embed,
    lemma1_redraw,
    theorem2_transform,
)
from .svg import DegenerateLayout, render_svg


def _emit(doc, summary: str) -> None:
    sys.stdout.write(canonical_json(doc).decode())
    sys.stderr.write(summary + "\n")


def _load_drawing(path: str):
    return parse_drawing(Path(path).read_bytes())


def _named_graph(spec: str) -> Multigraph:
    s = spec.strip()
    if s.upper().startswith("K") and "," in s:
        a, b = s[1:].split(",")
        return complete_bipartite(int(a), int(b))
    if s.upper().startswith("K"):
        return complete_graph(int(s[1:]))
    if s.upper().startswith("C"):
        return cycle_graph(int(s[1:]))
    return parse_graph(Path(s).read_bytes())


def _parse_budget(spec: str, max_crossings: int) -> EnumerationBudget:
    fields = {"candidates": 200_000, "time": 300.0}
    if spec:
        for part in spec.split(","):
            k, _, v = part.partition("=")
            if k == "candidates":
                fields["candidates"] = int(v)
            elif k == "time":
                fields["time"] = float(v)
            else:
                raise ValueError(f"unknown budget field {k!r}")
    return EnumerationBudget(max_crossings, fields["candidates"], fields["time"])


def _cmd_validate(args) -> int:
    try:
        _load_drawing(args.file)
    except ValidationError as exc:
        bad = [{"kind": v.kind, "locus": v.locus} for v in exc.violations]
        _emit({"valid": False, "violations": bad}, "invalid drawing")
        return 1
    _emit({"valid": True, "violations": []}, "valid drawing")
    return 0


def _cmd_stats(args) -> int:
    d = _load_drawing(args.file)
    s = d.crossing_stats()
    doc = {"n": d.graph.n, "m": d.graph.m, **to_jsonable(s)}
    _emit(doc, f"cr0={s.cr_rule0} pcr0={s.pcr_rule0} ocr0={s.ocr_rule0}")
    return 0


def _cmd_redraw_lemma1(args) -> int:
    d = _load_drawing(args.file)
    if d.graph.n != 1 or any(u != v for _, (u, v) in d.graph.edges):
        sys.stderr.write("input must be a one-vertex drawing (all loops)\n")
        return 1
    v = d.graph.vertices[0]
    sk = OneVertexSketch(v, d.vertex_endings(v))
    out = lemma1_redraw(sk)
    _emit(drawing_to_doc(out), f"redrawn with {len(out.crossing_nodes())} crossings")
    return 0


def _cmd_transform(args) -> int:
    d = _load_drawing(args.file)
    trace = theorem2_transform(d, args.k)
    _emit(
        {"k": args.k, "trace": to_jsonable(trace)},
        f"removed {len(trace.removed)} edges; g4 has {len(trace.g4.crossing_nodes())} crossings",
    )
    return 0


def _cmd_embed(args) -> int:
    d = _load_drawing(args.file)
    out = hanani_tutte_embed(d)
    _emit(drawing_to_doc(out), "crossing-free redrawing found")
    return 0


def _cmd_bounds(args) -> int:
    doc = {
        "k": args.k,
        "n": args.n,
        "mk_upper": mk_upper(args.k, args.n),
        "mk_exact": mk_is_exact(args.k, args.n),
        "modd_upper": modd_upper(args.k, args.n),
    }
    if args.m is not None:
        doc["m"] = args.m
        doc["ocr_linear_lower"] = ocr_linear_lower(args.n, args.m)
        doc["crossing_lemma"] = {
            variant: _num(crossing_lemma_lower(args.n, args.m, variant))
            for variant in sorted(CROSSING_LEMMA_VARIANTS)
        }
    _emit(doc, f"modd_upper({args.k},{args.n}) = {doc['modd_upper']}")
    return 0


def _cmd_audit(args) -> int:
    d = _load_drawing(args.file)
    rep = audit_drawing(d, args.k)
    _emit(to_jsonable(rep), "all checks passed" if rep.all_passed else "COUNTEREXAMPLE ALERT")
    return 0 if rep.all_passed else 1


def _cmd_sample(args) -> int:
    d = _load_drawing(args.file)
    stats = sampling_experiment(d, args.p, args.trials, args.seed)
    doc = {"seed": args.seed, **to_jsonable(stats)}
    _emit(doc, f"seed={args.seed} mean_m={float(stats.mean_m):.4f} (expect {float(stats.expected_m):.4f})")
    return 0


def _cmd_oracle(args) -> int:
    g = _named_graph(args.graph)
    budget = _parse_budget(args.budget, args.max_crossings)
    doc = {
        "graph": {"n": g.n, "m": g.m},
        "variant": args.variant,
        "rule": args.rule,
        "max_crossings": args.max_crossings,
    }
    try:
        value = exact_crossing_value(g, args.variant, args.rule, budget)
    except BudgetExceeded as exc:
        doc["lower_bound"] = exc.lower_bound
        doc["budget_exhausted"] = True
        _emit(doc, f"budget exceeded: {exc}; every value below {exc.lower_bound} refuted")
        return 3
    if isinstance(value, LowerBoundOnly):
        doc["lower_bound_only"] = value.bound
        _emit(doc, f"no admissible drawing within budget; bound {value.bound}")
    else:
        doc["value"] = value
        _emit(doc, f"{args.variant}/{args.rule} = {value}")
    return 0


def _cmd_search(args) -> int:
    budget = _parse_budget(args.budget, 0)
    res = extremal_search(args.k, args.n, budget, args.seed)
    doc = {"seed": args.seed, "k": args.k, "n": args.n, **to_jsonable(res)}
    _emit(
        doc,
        f"seed={args.seed} best m={res.edge_count} (upper bound {res.target_upper})",
    )
    return 0


def _cmd_render(args) -> int:
    d = _load_drawing(args.file)
    svg = render_svg(d, args.size)
    Path(args.output).write_bytes(svg)
    _emit({"written": args.output, "bytes": len(svg)}, f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="oddplanar", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser("validate", help="check a drawing document")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_validate)

    s = sub.add_parser("stats", help="nine-variant crossing statistics")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_stats)

    s = sub.add_parser("redraw-lemma1", help="redraw a one-vertex drawing")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_redraw_lemma1)

    s = sub.add_parser("transform", help="odd-crossing to plain-crossing pipeline")
    s.add_argument("file")
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(fn=_cmd_transform)

    s = sub.add_parser("embed", help="crossing-free redrawing of an all-even drawing")
    s.add_argument("file")
    s.set_defaults(fn=_cmd_embed)

    s = sub.add_parser("bounds", help="edge-density bounds")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--m", type=int)
    s.set_defaults(fn=_cmd_bounds)

    s = sub.add_parser("audit", help="check a drawing against all bounds")
    s.add_argument("file")
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(fn=_cmd_audit)

    s = sub.add_parser("sample", help="random induced-subdrawing experiment")
    s.add_argument("file")
    s.add_argument("--p", required=True, help="keep probability (fraction or decimal)")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_sample)

    s = sub.add_parser("oracle", help="exact crossing variant on a tiny graph")
    s.add_argument("graph", help="K5, K3,3, C6 or a graph document path")
    s.add_argument("--variant", choices=("cr", "pcr", "ocr"), required=True)
    s.add_argument("--rule", choices=("plus", "zero", "minus", "star"), required=True)
    s.add_argument("--max-crossings", type=int, default=1)
    s.add_argument("--budget", default="",
                   help="candidates=N,time=SECONDS (N counts planarizations tested)")
    s.set_defaults(fn=_cmd_oracle)

    s = sub.add_parser("search", help="stochastic dense-drawing explorer")
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--budget", default="candidates=300", help="candidates=N,time=SECONDS")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(fn=_cmd_search)

    s = sub.add_parser("render", help="render a drawing to SVG")
    s.add_argument("file")
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--size", type=int, default=480)
    s.set_defaults(fn=_cmd_render)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError, DegenerateLayout) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
