from __future__ import annotations

import json
import re

import pytest

from oddplanar.docio import (
    ParseError,
    ValidationError,
    parse_drawing,
    parse_graph,
    serialize_drawing,
    serialize_graph,
    to_jsonable,
)
from oddplanar.bounds import audit_drawing, sampling_experiment
from oddplanar.cli import main
from oddplanar import complete_graph
from fixtures import figure_eight, k4_convex, k5_one_crossing, lens_pair, triangle


# ---------------------------------------------------------------------------
# Document round trips
# ---------------------------------------------------------------------------


def test_round_trip_all_fixtures():
    for d in (triangle(), k4_convex(), k5_one_crossing(), figure_eight(), lens_pair()):
        data = serialize_drawing(d)
        d2 = parse_drawing(data)
        assert d2 == d
        assert serialize_drawing(d2) == data  # canonical: equal drawings, equal bytes


def test_serialize_is_canonical_across_labelings():
    d = k5_one_crossing()
    vrot, routes, spins = d.route_view()
    from oddplanar import Drawing

    relabeled = Drawing.from_routes(
        d.graph,
        vrot,
        {e: tuple(("other", c) for c in r) for e, r in routes.items()},
        {("other", c): s for c, s in spins.items()},
    )
    assert serialize_drawing(relabeled) == serialize_drawing(d)


def test_parse_rejects_unknown_version():
    doc = json.loads(serialize_drawing(triangle()))
    doc["format"] = "oddplanar-drawing/99"
    with pytest.raises(ParseError):
        parse_drawing(json.dumps(doc))


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_drawing(b"not json at all")
    with pytest.raises(ParseError):
        parse_drawing(b"[1,2,3]")


def test_parse_validates_map():
    doc = json.loads(serialize_drawing(k4_convex()))
    # break the involution
    doc["map"]["involution"][0][1] = doc["map"]["involution"][1][1]
    with pytest.raises((ParseError, ValidationError)):
        parse_drawing(json.dumps(doc))


def test_graph_round_trip():
    g = complete_graph(5)
    assert parse_graph(serialize_graph(g)) == g


def test_empty_drawing_round_trip():
    from oddplanar import Drawing

    d = Drawing.empty()
    assert parse_drawing(serialize_drawing(d)) == d


def test_report_jsonable():
    d = k5_one_crossing()
    rep = audit_drawing(d, 1)
    doc = to_jsonable(rep)
    assert doc["modd_upper"] == 16
    stats = sampling_experiment(d, 1, trials=2, seed=0)
    doc2 = to_jsonable(stats)
    assert doc2["mean_m"] == "10"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def drawing_file(tmp_path, d, name="d.json"):
    p = tmp_path / name
    p.write_bytes(serialize_drawing(d))
    return str(p)


def test_cli_validate_ok(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["validate", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def test_cli_validate_bad(tmp_path, capsys):
    doc = json.loads(serialize_drawing(k4_convex()))
    # give the crossing node a wrong-order rotation (non-alternating)
    for entry in doc["map"]["rotations"]:
        if entry[0] == 4:
            entry[1] = [entry[1][0], entry[1][2], entry[1][1], entry[1][3]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False and out["violations"]


def test_cli_validate_exact_output(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["validate", f]) == 0
    assert capsys.readouterr() == ('{"valid":true,"violations":[]}\n', "valid drawing\n")
    doc = json.loads(serialize_drawing(k4_convex()))
    for entry in doc["map"]["rotations"]:
        if entry[0] == 4:
            entry[1] = [entry[1][0], entry[1][2], entry[1][1], entry[1][3]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    assert capsys.readouterr() == (
        '{"valid":false,"violations":['
        '{"kind":"NonAlternating","locus":"pass darts (3,4) not opposite at node 4"},'
        '{"kind":"NonAlternating","locus":"pass darts (11,12) not opposite at node 4"}]}\n',
        "invalid drawing\n",
    )


@pytest.mark.parametrize("spec", ["K-2", "K3,-1", "K-1,2"])
def test_cli_oracle_rejects_negative_sizes(capsys, spec):
    assert main(["oracle", spec, "--variant", "cr", "--rule", "zero"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_validate_reports_edge_path_dart_missing_from_involution(tmp_path, capsys):
    from oddplanar import Drawing, validate_drawing
    from oddplanar.oracle import random_drawing

    doc = json.loads(serialize_drawing(random_drawing(complete_graph(5), 0, "convex")))
    doc["edge_paths"][0][1][0] = 999
    d = Drawing(
        complete_graph(5),
        {n: tuple(r) for n, r in doc["map"]["rotations"]},
        {a: b for x, y in doc["map"]["involution"] for a, b in ((x, y), (y, x))},
        {e: tuple(p) for e, p in doc["edge_paths"]},
    )
    kinds = {v.kind for v in validate_drawing(d)}
    assert "BadEdgePath" in kinds
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False
    assert {"kind": "BadEdgePath", "locus": "edge 0 segment 0 not theta-paired"} in out["violations"]


def test_cli_stats(tmp_path, capsys):
    f = drawing_file(tmp_path, k4_convex())
    assert main(["stats", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["cr"]["rule0"] == 1


def test_cli_bounds(capsys):
    assert main(["bounds", "--k", "1", "--n", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["modd_upper"] == 41


def test_cli_bounds_with_m(capsys):
    assert main(["bounds", "--k", "1", "--n", "10", "--m", "60"]) == 0
    raw = capsys.readouterr().out
    out = json.loads(raw)
    assert out["ocr_linear_lower"] == 40  # max(m-3n, 2m-8n) = max(30, 40)
    assert out["crossing_lemma"]["ocr_star"] == "40"
    assert raw == (
        '{"k":1,"n":10,"mk_upper":32,"mk_exact":false,"modd_upper":41,"m":60,"ocr_linear_lower":40,'
        '"crossing_lemma":{"cr_ackerman":"not-applicable","cr_classic":"320/9","ocr_pt":"135/4","ocr_star":"40"}}\n'
    )


def test_cli_transform(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["transform", f, "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    g4 = parse_drawing(json.dumps(out["trace"]["g4"]))
    assert g4.is_k_plane(1)


def test_cli_embed_rejects_odd_pair(tmp_path, capsys):
    f = drawing_file(tmp_path, k4_convex())
    assert main(["embed", f]) == 1


def test_cli_embed_even(tmp_path, capsys):
    f = drawing_file(tmp_path, lens_pair())
    assert main(["embed", f]) == 0
    out = json.loads(capsys.readouterr().out)
    d = parse_drawing(json.dumps(out))
    assert len(d.crossing_nodes()) == 0


def test_cli_redraw_lemma1(tmp_path, capsys):
    f = drawing_file(tmp_path, figure_eight())
    assert main(["redraw-lemma1", f]) == 0
    out = json.loads(capsys.readouterr().out)
    d = parse_drawing(json.dumps(out))
    assert d.self_crossing_count(0) == 0


def test_cli_audit(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["audit", f, "--k", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["all_passed"] is True


def test_cli_sample_prints_seed(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["sample", f, "--p", "1/2", "--trials", "50", "--seed", "9"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 9
    assert out["law_violations"] == 0


def test_cli_oracle(capsys):
    assert main(["oracle", "K5", "--variant", "ocr", "--rule", "zero"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 1


def test_cli_oracle_budget_exceeded(capsys):
    rc = main(
        ["oracle", "K3,3", "--variant", "cr", "--rule", "zero", "--budget", "candidates=0"]
    )
    assert rc == 3


def test_cli_oracle_budget_exceeded_reports_the_proved_bound(capsys):
    # 0 is refuted by counting and the 30 single adjacent crossings (value
    # 0 under rule minus) by one planarity test each, then the budget is out
    rc = main(["oracle", "K5", "--variant", "pcr", "--rule", "minus", "--budget", "candidates=30"])
    assert rc == 3
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "graph": {"n": 5, "m": 10},
        "variant": "pcr",
        "rule": "minus",
        "max_crossings": 1,
        "lower_bound": 1,
        "budget_exhausted": True,
    }


@pytest.mark.parametrize("variant", ["cr", "pcr", "ocr"])
def test_cli_oracle_k5_rule_minus_at_the_default_budget(capsys, variant):
    assert main(["oracle", "K5", "--variant", variant, "--rule", "minus"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 1


def test_cli_oracle_k34_two_crossings(capsys):
    assert main(["oracle", "K3,4", "--variant", "cr", "--rule", "zero", "--max-crossings", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2


@pytest.mark.parametrize("budget", ["time=nan", "time=-1", "candidates=-1"])
def test_cli_oracle_rejects_bad_budgets_with_one_error_line(capsys, budget):
    assert main(["oracle", "K3,3", "--variant", "cr", "--rule", "zero", "--budget", budget]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_cli_oracle_planar_graph_greedy_insertion_misses(tmp_path, capsys):
    from oddplanar.surgery import random_planar_drawing

    p = tmp_path / "g.json"
    p.write_bytes(serialize_graph(random_planar_drawing(12, 1, deletions=3).graph))
    assert main(["oracle", str(p), "--variant", "cr", "--rule", "zero"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == 0 and out["graph"] == {"n": 12, "m": 27}


def test_cli_search(capsys):
    assert main(["search", "--k", "0", "--n", "5", "--budget", "candidates=10", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 1
    assert out["edge_count"] == 9


def test_cli_render(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    out_path = tmp_path / "k5.svg"
    assert main(["render", f, "-o", str(out_path)]) == 0
    data = out_path.read_bytes()
    assert data.startswith(b"<?xml") and b"<svg" in data


def test_cli_render_tree(tmp_path, capsys):
    from oddplanar.surgery import random_planar_drawing

    f = drawing_file(tmp_path, random_planar_drawing(8, 1, deletions=12))
    out_path = tmp_path / "tree.svg"
    assert main(["render", f, "-o", str(out_path)]) == 0
    assert not capsys.readouterr().err.startswith("error")
    assert out_path.read_bytes().count(b"<polyline") == 6


def test_cli_usage_error():
    assert main(["bounds", "--k", "1"]) == 2
    assert main(["nonsense"]) == 2


def test_cli_determinism_across_processes(tmp_path):
    # different hash randomization must not leak into outputs
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    f = drawing_file(tmp_path, k5_one_crossing())
    outs = []
    for hash_seed in ("1", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "oddplanar", "sample", f, "--p", "0.5",
             "--trials", "60", "--seed", "5"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
        proc = subprocess.run(
            [sys.executable, "-m", "oddplanar", "search", "--k", "1", "--n", "6",
             "--budget", "candidates=25", "--seed", "6"],
            capture_output=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[2]
    assert outs[1] == outs[3]


def test_cli_determinism_byte_identical(tmp_path, capsys):
    f = drawing_file(tmp_path, k5_one_crossing())
    main(["sample", f, "--p", "0.5", "--trials", "100", "--seed", "4"])
    first = capsys.readouterr().out
    main(["sample", f, "--p", "0.5", "--trials", "100", "--seed", "4"])
    second = capsys.readouterr().out
    assert first == second
    main(["search", "--k", "1", "--n", "5", "--budget", "candidates=30", "--seed", "2"])
    s1 = capsys.readouterr().out
    main(["search", "--k", "1", "--n", "5", "--budget", "candidates=30", "--seed", "2"])
    s2 = capsys.readouterr().out
    assert s1 == s2


TRIANGLE_EDGES = [[0, 0, 1], [1, 1, 2], [2, 0, 2]]


@pytest.mark.parametrize(
    "vertices, edges",
    [
        ([0, 1, 2, None], TRIANGLE_EDGES),
        ([0, 1.0, 2], TRIANGLE_EDGES),
        ([0, True, 2], TRIANGLE_EDGES),
        ([0, 1, 2], [[0, 0, 1], [1, True, 2], [2, 0, 2]]),
    ],
)
def test_cli_oracle_rejects_non_int_ids(tmp_path, capsys, vertices, edges):
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"format": "oddplanar-graph/1", "vertices": vertices, "edges": edges}))
    assert main(["oracle", str(p), "--variant", "cr", "--rule", "zero"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    with pytest.raises(ParseError):
        parse_graph(p.read_bytes())


@pytest.mark.parametrize("section", ["vertices", "edges", "rotations", "edge_paths"])
def test_cli_validate_rejects_bool_ids(tmp_path, capsys, section):
    doc = json.loads(serialize_drawing(triangle()))
    if section == "vertices":
        doc["graph"]["vertices"][1] = True
    elif section == "edges":
        doc["graph"]["edges"][0][2] = True
    elif section == "rotations":
        doc["map"]["rotations"][1][0] = True
    else:
        doc["edge_paths"][0][1][0] = False
    p = tmp_path / "d.json"
    p.write_text(json.dumps(doc))
    assert main(["validate", str(p)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("p", ["1/0", "abc", "nan", "0", "3/2"])
def test_cli_sample_rejects_bad_p_with_one_error_line(tmp_path, capsys, p):
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["sample", f, "--p", p, "--trials", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sampling_rejects_negative_seed(tmp_path, capsys):
    # random.Random(-1) equals random.Random(1): trials 0 and 2 would repeat.
    with pytest.raises(ValueError, match="seed"):
        sampling_experiment(k5_one_crossing(), "1/2", trials=3, seed=-1)
    f = drawing_file(tmp_path, k5_one_crossing())
    assert main(["sample", f, "--p", "1/2", "--trials", "3", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert main(["sample", f, "--p", "1/2", "--trials", "3", "--seed", "0"]) == 0


@pytest.mark.parametrize("size", [-5, 0, 40, 60])
def test_cli_render_rejects_size_without_room(tmp_path, capsys, size):
    f = drawing_file(tmp_path, k5_one_crossing())
    out_path = tmp_path / "k5.svg"
    assert main(["render", f, "-o", str(out_path), "--size", str(size)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out_path.exists()


def test_render_smallest_size_keeps_the_picture_inside():
    from oddplanar.svg import render_svg

    with pytest.raises(ValueError):
        render_svg(k5_one_crossing(), 60)
    data = render_svg(k5_one_crossing(), 61)
    assert b'width="61"' in data
    coords = [float(c) for c in re.findall(rb'c[xy]="([^"]+)"', data)]
    assert coords and all(30 <= c <= 31 for c in coords)
