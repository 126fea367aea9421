"""The document reader's error messages, pinned byte for byte, and the
inputs that must be rejected as a ``ParseError`` rather than escape as
another exception."""
from __future__ import annotations

import json

import pytest

from oddplanar import complete_graph
from oddplanar.cli import main
from oddplanar.docio import ParseError, parse_drawing, parse_graph, serialize_drawing, serialize_graph
from fixtures import k5_one_crossing

DRAWING = json.loads(serialize_drawing(k5_one_crossing()))
GRAPH = json.loads(serialize_graph(complete_graph(3)))


def _edit(base: dict, path: tuple, value=None, delete: bool = False) -> bytes:
    doc = json.loads(json.dumps(base))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if delete:
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc).encode()


def _drawing(path, value=None, delete=False):
    return _edit(DRAWING, path, value, delete)


def _graph(path, value=None, delete=False):
    return _edit(GRAPH, path, value, delete)


def _repeat(path, entry=0, change=None) -> bytes:
    """The drawing document with one entry of the list at ``path`` listed
    again at its end, after ``change`` (if given) edits the copy."""
    doc = json.loads(json.dumps(DRAWING))
    items = doc
    for key in path:
        items = items[key]
    copy = json.loads(json.dumps(items[entry]))
    items.append(change(copy) if change else copy)
    return json.dumps(doc).encode()


DRAWING_CASES = [
    (b"not json", "document: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    (b"[1,2,3]", "document: must be an object"),
    (_drawing(("format",), "oddplanar-drawing/99"), "format: expected 'oddplanar-drawing/1'"),
    (_drawing(("format",), delete=True), "format: expected 'oddplanar-drawing/1'"),
    (_drawing(("graph",), delete=True), "graph: missing section"),
    (_drawing(("graph",), [0, 1]), "graph: missing section"),
    (_drawing(("map",), delete=True), "map: missing section"),
    (_drawing(("graph", "vertices"), [0, 1, "2", 3, 4]), "graph.vertices: must be a list of integers"),
    (_drawing(("graph", "vertices"), [0, 1, 2.0, 3, 4]), "graph.vertices: must be a list of integers"),
    (_drawing(("graph", "vertices"), {"0": 0}), "graph.vertices: must be a list of integers"),
    (_drawing(("graph", "vertices", 1), True), "graph.vertices: must be a list of integers"),
    (_drawing(("graph", "vertices", 1), 0), "graph: duplicate vertex id"),
    (_drawing(("graph", "edges"), {}), "graph.edges: must be a list"),
    (_drawing(("graph", "edges"), delete=True), "graph.edges: must be a list"),
    (_drawing(("graph", "edges", 0), [0, 1]), "graph.edges: bad edge entry [0, 1]"),
    (_drawing(("graph", "edges", 0, 2), True), "graph.edges: bad edge entry [0, 0, True]"),
    (_drawing(("graph", "edges", 0), "e"), "graph.edges: bad edge entry 'e'"),
    (_drawing(("graph", "edges", 1, 0), 0), "graph: duplicate edge id 0"),
    (_drawing(("graph", "edges", 0, 2), 9), "graph: edge 0 references unknown vertex"),
    (_drawing(("map", "rotations"), "r"), "map.rotations: must be a list"),
    (_drawing(("map", "rotations", 0), [0]), "map.rotations: bad rotation entry [0]"),
    (_drawing(("map", "rotations", 0, 1), [0, None]), "map.rotations: bad rotation entry [0, [0, None]]"),
    (_drawing(("map", "rotations", 0, 0), False), "map.rotations: bad rotation entry [False, [0, 4, 6, 8]]"),
    (_drawing(("map", "involution"), delete=True), "map.involution: must be a list"),
    (_drawing(("map", "involution", 0), [0, 1, 2]), "map.involution: bad involution entry [0, 1, 2]"),
    (_drawing(("map", "involution", 0, 1), True), "map.involution: bad involution entry [0, True]"),
    (_drawing(("edge_paths",), {}), "edge_paths: must be a list"),
    (_drawing(("edge_paths", 0), [0, 1]), "edge_paths: bad path entry [0, 1]"),
    (_drawing(("edge_paths", 0, 1, 0), "x"), "edge_paths: bad path entry [0, ['x', 1, 2, 3]]"),
    (_drawing(("edge_paths", 0, 0), True), "edge_paths: bad path entry [True, [0, 1, 2, 3]]"),
    (_drawing(("map", "nodes"), "garbage"), "map.nodes: must be a list"),
    (_drawing(("map", "nodes"), None), "map.nodes: must be a list"),
    (_drawing(("map", "nodes"), delete=True), "map.nodes: must be a list"),
    (_drawing(("map", "nodes"), [[5, "real"]]), "map.nodes: node 5 must be tagged 'crossing'"),
    (_drawing(("map", "nodes", 1), [0, "real"]), "map.nodes: duplicate node id 0"),
    (_drawing(("map", "nodes", 0), [0, "crossing"]), "map.nodes: node 0 must be tagged 'real'"),
    (_drawing(("map", "nodes", 5, 1), "hub"), "map.nodes: bad node entry [5, 'hub']"),
    (_drawing(("map", "nodes", 5), delete=True), "map.nodes: ids differ from the map.rotations ids"),
    (_repeat(("map", "rotations")), "map.rotations: duplicate node id 0"),
    (_repeat(("map", "rotations"), 5), "map.rotations: duplicate node id 5"),
    (_drawing(("map", "rotations", 1, 0), 0), "map.rotations: duplicate node id 0"),
    (_repeat(("map", "involution")), "map.involution: duplicate dart 0"),
    (_repeat(("map", "involution"), 3, lambda x: x[::-1]), "map.involution: duplicate dart 7"),
    (_drawing(("map", "involution", 0), [0, 0]), "map.involution: duplicate dart 0"),
    (_drawing(("map", "involution", 1), [0, 2]), "map.involution: duplicate dart 0"),
    (_repeat(("edge_paths",)), "edge_paths: duplicate edge id 0"),
    (_drawing(("edge_paths", 1, 0), 0), "edge_paths: duplicate edge id 0"),
]

GRAPH_CASES = [
    (b"not json", "document: not valid JSON (Expecting value: line 1 column 1 (char 0))"),
    (b"7", "document: must be an object"),
    (_graph(("format",), "oddplanar-drawing/1"), "format: expected 'oddplanar-graph/1'"),
    (_graph(("vertices",), delete=True), "vertices: must be a list of integers"),
    (_graph(("vertices", 0), None), "vertices: must be a list of integers"),
    (_graph(("vertices", 0), True), "vertices: must be a list of integers"),
    (_graph(("vertices", 1), 0), "graph: duplicate vertex id"),
    (_graph(("edges",), "e"), "edges: must be a list"),
    (_graph(("edges", 0), [0, 0]), "edges: bad edge entry [0, 0]"),
    (_graph(("edges", 0, 1), True), "edges: bad edge entry [0, True, 1]"),
    (_graph(("edges", 1, 0), 0), "graph: duplicate edge id 0"),
    (_graph(("edges", 0, 2), -1), "graph: edge 0 references unknown vertex"),
]


@pytest.mark.parametrize("data, message", DRAWING_CASES)
def test_parse_drawing_messages(data, message):
    with pytest.raises(ParseError) as info:
        parse_drawing(data)
    assert str(info.value) == message


@pytest.mark.parametrize("data, message", GRAPH_CASES)
def test_parse_graph_messages(data, message):
    with pytest.raises(ParseError) as info:
        parse_graph(data)
    assert str(info.value) == message


# ``json.loads`` rejects these with a RecursionError, a UnicodeDecodeError
# or a plain ValueError rather than a JSONDecodeError.
UNDECODABLE = {
    "deep-nesting": b"[" * 100_000,
    "bad-utf8": b"\xff",
    "huge-int": b"1" * 5000,
}


@pytest.mark.parametrize("parse", [parse_drawing, parse_graph])
@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_documents_are_parse_errors(parse, name):
    with pytest.raises(ParseError) as info:
        parse(UNDECODABLE[name])
    assert info.value.locus == "document"


@pytest.mark.parametrize("argv", [["validate"], ["stats"], ["oracle", "--variant", "cr", "--rule", "zero"]])
def test_cli_deeply_nested_document_is_one_error_line(tmp_path, capsys, argv):
    p = tmp_path / "deep.json"
    p.write_bytes(UNDECODABLE["deep-nesting"])
    assert main([argv[0], str(p), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: document: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "{dir}"],
        ["oracle", "{dir}", "--variant", "cr", "--rule", "zero"],
        ["render", "{doc}", "-o", "{dir}"],
    ],
)
def test_cli_file_system_errors_exit_1(tmp_path, capsys, argv):
    doc = tmp_path / "d.json"
    doc.write_bytes(serialize_drawing(k5_one_crossing()))
    before = sorted(tmp_path.iterdir())
    args = [a.format(dir=tmp_path, doc=doc) for a in argv]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before
