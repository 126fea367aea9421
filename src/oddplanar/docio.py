"""Interchange formats.

Drawings (and graphs) serialize to a canonical JSON document: integers
only, fixed key order, sorted ids, compact separators, one trailing
newline.  Serialization canonicalizes the dart numbering first, so equal
drawings produce byte-identical documents and ``parse(serialize(d))``
returns a drawing equal to ``d``.

Report objects (crossing statistics, bound reports, sample statistics,
pipeline traces, search results) serialize through ``to_jsonable`` with
exact rationals rendered as "p/q" strings; ``canonical_json`` turns any
such structure into bytes with the same conventions.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .bounds import NOT_APPLICABLE, BoundReport, SampleStats
from .drawing import CrossingStats, Drawing, validate_drawing
from .graphs import Multigraph
from .oracle import SearchResult
from .redraw import PipelineTrace

DRAWING_FORMAT = "oddplanar-drawing/1"
GRAPH_FORMAT = "oddplanar-graph/1"


class ParseError(ValueError):
    def __init__(self, locus: str, message: str) -> None:
        super().__init__(f"{locus}: {message}")
        self.locus = locus


class ValidationError(ValueError):
    def __init__(self, violations) -> None:
        super().__init__("; ".join(str(v) for v in violations))
        self.violations = tuple(violations)


def canonical_json(obj) -> bytes:
    return (json.dumps(obj, separators=(",", ":"), ensure_ascii=True) + "\n").encode()


# ---------------------------------------------------------------------------
# Drawings
# ---------------------------------------------------------------------------


def drawing_to_doc(d: Drawing) -> dict:
    c = d.canonicalize()
    real = set(c.graph.vertices)
    return {
        "format": DRAWING_FORMAT,
        "graph": {
            "vertices": list(c.graph.vertices),
            "edges": [[eid, u, v] for eid, (u, v) in c.graph.edges],
        },
        "map": {
            "nodes": [
                [n, "real" if n in real else "crossing"] for n in c.nodes()
            ],
            "rotations": [[n, list(c.rotation[n])] for n in c.nodes()],
            "involution": sorted([d1, d2] for d1, d2 in c.theta.items() if d1 < d2),
        },
        "edge_paths": [[eid, list(c.edge_paths[eid])] for eid in c.graph.edge_ids()],
    }


def serialize_drawing(d: Drawing) -> bytes:
    return canonical_json(drawing_to_doc(d))


def _is_int(x) -> bool:
    """JSON integer: ``true`` and ``false`` are not ids."""
    return isinstance(x, int) and not isinstance(x, bool)


def _int_list(x, length: int | None = None) -> bool:
    """A list of JSON integers, of the given length if one is given."""
    return isinstance(x, list) and (length is None or len(x) == length) and all(map(_is_int, x))


def _labelled_list(x) -> bool:
    """An ``[id, [int, ...]]`` entry."""
    return isinstance(x, list) and len(x) == 2 and _is_int(x[0]) and _int_list(x[1])


def _node_entry(x) -> bool:
    """An ``[id, "real" | "crossing"]`` entry."""
    return isinstance(x, list) and len(x) == 2 and _is_int(x[0]) and x[1] in ("real", "crossing")


def _expect(cond: bool, locus: str, message: str) -> None:
    if not cond:
        raise ParseError(locus, message)


def _document(data: bytes | str, fmt: str) -> dict:
    """The decoded top-level object, checked to declare format ``fmt``."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8 and over-long integer literals too.
        raise ParseError("document", f"not valid JSON ({exc})") from None
    _expect(isinstance(doc, dict), "document", "must be an object")
    _expect(doc.get("format") == fmt, "format", f"expected {fmt!r}")
    return doc


def _entries(section: dict, key: str, locus: str, shape, what: str) -> list:
    """``section[key]``, checked to be a list whose every entry passes ``shape``."""
    items = section.get(key)
    _expect(isinstance(items, list), locus, "must be a list")
    for item in items:
        _expect(shape(item), locus, f"bad {what} entry {item!r}")
    return items


def _repeated(ids):
    """The first id that ``ids`` yields twice."""
    seen = set()
    for x in ids:
        if x in seen:
            return x
        seen.add(x)


def _graph(section: dict, prefix: str) -> Multigraph:
    """The multigraph of a section holding ``vertices`` and ``edges``."""
    _expect(_int_list(section.get("vertices")), prefix + "vertices", "must be a list of integers")
    edges = _entries(section, "edges", prefix + "edges", lambda x: _int_list(x, 3), "edge")
    try:
        return Multigraph(tuple(section["vertices"]), tuple((e, (u, v)) for e, u, v in edges))
    except ValueError as exc:
        raise ParseError("graph", str(exc)) from None


def parse_drawing(data: bytes | str) -> Drawing:
    doc = _document(data, DRAWING_FORMAT)
    g = doc.get("graph")
    _expect(isinstance(g, dict), "graph", "missing section")
    graph = _graph(g, "graph.")
    mp = doc.get("map")
    _expect(isinstance(mp, dict), "map", "missing section")
    # A repeated id would be merged silently by the dict built from its
    # section; comparing sizes catches it without another container.
    entries = _entries(mp, "rotations", "map.rotations", _labelled_list, "rotation")
    rotation = dict(entries)
    if len(rotation) != len(entries):
        raise ParseError("map.rotations", f"duplicate node id {_repeated(n for n, _ in entries)}")
    entries = _entries(mp, "involution", "map.involution", lambda x: _int_list(x, 2), "involution")
    theta = {}
    for a, b in entries:
        theta[a] = b
        theta[b] = a
    if len(theta) != 2 * len(entries):
        raise ParseError("map.involution", f"duplicate dart {_repeated(x for pair in entries for x in pair)}")
    entries = _entries(doc, "edge_paths", "edge_paths", _labelled_list, "path")
    paths = dict(entries)
    if len(paths) != len(entries):
        raise ParseError("edge_paths", f"duplicate edge id {_repeated(e for e, _ in entries)}")
    # The node tags are derived data: checked against the graph, never used.
    real = set(graph.vertices)
    tagged: set[int] = set()
    for n, tag in _entries(mp, "nodes", "map.nodes", _node_entry, "node"):
        _expect(n not in tagged, "map.nodes", f"duplicate node id {n}")
        tagged.add(n)
        want = "real" if n in real else "crossing"
        _expect(tag == want, "map.nodes", f"node {n} must be tagged {want!r}")
    _expect(tagged == rotation.keys(), "map.nodes", "ids differ from the map.rotations ids")
    d = Drawing(graph, rotation, theta, paths)
    bad = validate_drawing(d)
    if bad:
        raise ValidationError(bad)
    return d


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------


def graph_to_doc(g: Multigraph) -> dict:
    return {
        "format": GRAPH_FORMAT,
        "vertices": list(g.vertices),
        "edges": [[eid, u, v] for eid, (u, v) in g.edges],
    }


def serialize_graph(g: Multigraph) -> bytes:
    return canonical_json(graph_to_doc(g))


def parse_graph(data: bytes | str) -> Multigraph:
    return _graph(_document(data, GRAPH_FORMAT), "")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _num(x):
    if isinstance(x, Fraction):
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    if x is NOT_APPLICABLE:
        return "not-applicable"
    return x


def to_jsonable(obj):
    """Render report objects as JSON-ready structures with fixed key
    order; rationals become 'p/q' strings, never floats."""
    if isinstance(obj, CrossingStats):
        return {
            "pair_counts": [[list(k), v] for k, v in sorted(obj.pair_counts.items())],
            "self_counts": [[k, v] for k, v in sorted(obj.self_counts.items())],
            "cr": {"rule0": obj.cr_rule0, "rule_minus": obj.cr_rule_minus},
            "pcr": {"rule0": obj.pcr_rule0, "rule_minus": obj.pcr_rule_minus},
            "ocr": {"rule0": obj.ocr_rule0, "rule_minus": obj.ocr_rule_minus},
            "plus_admissible": obj.plus_admissible,
            "star_admissible": obj.star_admissible,
            "odd_degree": [[k, v] for k, v in sorted(obj.odd_degree.items())],
        }
    if isinstance(obj, BoundReport):
        return {
            "n": obj.n,
            "m": obj.m,
            "k": obj.k,
            "mk_upper": obj.mk_upper_value,
            "mk_exact": obj.mk_exact,
            "modd_upper": obj.modd_upper_value,
            "ocr_linear_lower": obj.ocr_linear,
            "crossing_lemma": {k: _num(v) for k, v in sorted(obj.crossing_lemma.items())},
            "odd_pair_count": obj.odd_pair_count,
            "is_k_plane": obj.is_k_plane,
            "is_k_odd_plane": obj.is_k_odd_plane,
            "checks": [
                {
                    "name": c.name,
                    "applicable": c.applicable,
                    "passed": c.passed,
                    "detail": c.detail,
                }
                for c in obj.checks
            ],
            "all_passed": obj.all_passed,
        }
    if isinstance(obj, SampleStats):
        return {
            "p": _num(obj.p),
            "trials": obj.trials,
            "mean_n": _num(obj.mean_n),
            "se_n": f"{obj.se_n:.9f}",
            "mean_m": _num(obj.mean_m),
            "se_m": f"{obj.se_m:.9f}",
            "mean_x": _num(obj.mean_x),
            "se_x": f"{obj.se_x:.9f}",
            "expected_n": _num(obj.expected_n),
            "expected_m": _num(obj.expected_m),
            "expected_x": _num(obj.expected_x),
            "law_violations": obj.law_violations,
        }
    if isinstance(obj, PipelineTrace):
        return {
            "k": obj.k,
            "forest": sorted(obj.forest),
            "removed": sorted(obj.removed),
            "components": [list(c) for c in obj.components],
            "component_edge_counts": list(obj.component_edge_counts),
            "sketch_rotations": [
                {"vertex": sk.vertex, "rotation": [list(t) for t in sk.rotation]}
                for sk in obj.sketches
            ],
            "g1": drawing_to_doc(obj.g1),
            "g3": [drawing_to_doc(x) for x in obj.g3],
            "g4": drawing_to_doc(obj.g4),
        }
    if isinstance(obj, SearchResult):
        return {
            "edge_count": obj.edge_count,
            "target_upper": obj.target_upper,
            "proposals": obj.proposals,
            "accepted": obj.accepted,
            "budget_exhausted": obj.budget_exhausted,
            "report": to_jsonable(obj.report),
            "best": drawing_to_doc(obj.best),
        }
    raise TypeError(f"no JSON form for {type(obj).__name__}")
