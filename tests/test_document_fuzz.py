"""Totality of the document readers and the subcommands that read them.

Serialized drawing and graph documents get a few random edits: an
integer made negative, huge or boolean, a list item deleted or appended,
a list turned into a dict or a string, a key dropped, a value nested
deeply.  ``parse_drawing`` and ``parse_graph`` may only raise
``ParseError`` or ``ValidationError``; ``validate``, ``stats`` and
``oracle`` may only exit 0 or 1, with at most one ``error:`` line."""
from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest

from oddplanar.cli import main
from oddplanar.docio import ParseError, ValidationError, parse_drawing, parse_graph, serialize_drawing, serialize_graph
from oddplanar.graphs import cycle_graph
from fixtures import k5_one_crossing

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DOCS = {
    "drawing": json.loads(serialize_drawing(k5_one_crossing())),
    "graph": json.loads(serialize_graph(cycle_graph(4))),
}
KINDS = ("int", "delete", "append", "retype", "nest")
# 700 levels decode and are quoted whole in the error message; before
# Python 3.13, 5000 levels exceed the JSON decoder's recursion limit.
DEPTHS = (2, 50, 700, 5000)


def _spots(node, path=()):
    # Real documents are at most five levels deep; nested placeholders are
    # strings, so nothing deeper than that is ever visited.
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _spots(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _spots(value, path + (i,))


def _fits(kind: str, path: tuple, value) -> bool:
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind in ("append", "retype"):
        return isinstance(value, list)
    return bool(path)


def mutate(doc, kind: str, pick: int, param: int, nests: list) -> None:
    """Apply one edit of ``kind`` to ``doc`` in place, at the ``pick``-th
    place it fits (modulo their number).  A value to nest is replaced by a
    placeholder string, recorded in ``nests`` for :func:`encode`."""
    spots = [(p, v) for p, v in _spots(doc) if _fits(kind, p, v)]
    if not spots:
        return
    path, value = spots[pick % len(spots)]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1] if path else None
    if kind == "int":
        parent[key] = (-value - 1, value + 2**64, -(2**64), True, False)[param % 5]
    elif kind == "delete":
        del parent[key]
    elif kind == "append":
        value.append(copy.deepcopy(value[param % len(value)]) if value and param % 2 else param)
    elif kind == "retype":
        parent[key] = {str(i): x for i, x in enumerate(value)} if param % 2 else "text"
    else:
        parent[key] = f"nest-{len(nests)}"
        nests.append((DEPTHS[param % len(DEPTHS)], json.dumps(value)))


def encode(doc, nests: list) -> bytes:
    """``doc`` as JSON with each placeholder expanded into its value inside
    that many list brackets (text substitution: ``json.dumps`` itself
    cannot write the deepest ones)."""
    text = json.dumps(doc)
    for i in reversed(range(len(nests))):
        depth, inner = nests[i]
        text = text.replace(json.dumps(f"nest-{i}"), "[" * depth + inner + "]" * depth)
    return text.encode()


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


EDITS = st.lists(
    st.tuples(st.sampled_from(KINDS), st.integers(0, 255), st.integers(0, 59)),
    min_size=1,
    max_size=3,
)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(which=st.sampled_from(sorted(DOCS)), edits=EDITS)
def test_mutated_documents_are_refused_cleanly(which, edits):
    doc = copy.deepcopy(DOCS[which])
    nests: list = []
    for kind, pick, param in edits:
        mutate(doc, kind, pick, param, nests)
    data = encode(doc, nests)
    parse = parse_drawing if which == "drawing" else parse_graph
    try:
        parse(data)
    except (ParseError, ValidationError):
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_bytes(data)
        if which == "drawing":
            runs = [["validate", str(path)], ["stats", str(path)]]
        else:
            runs = [["oracle", str(path), "--variant", "cr", "--rule", "zero"]]
        for argv in runs:
            code, _, err = _run(argv)
            assert code in (0, 1), (argv[0], code, err)
            assert sum(line.startswith("error:") for line in err.splitlines()) <= 1
