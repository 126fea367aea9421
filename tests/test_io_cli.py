from __future__ import annotations

import json

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
    with pytest.raises((ParseError, ValidationError, KeyError)):
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
    out = json.loads(capsys.readouterr().out)
    assert out["ocr_linear_lower"] == 40  # max(m-3n, 2m-8n) = max(30, 40)
    assert out["crossing_lemma"]["ocr_star"] == "40"


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
        ["oracle", "K3,3", "--variant", "cr", "--rule", "zero", "--budget", "candidates=3"]
    )
    assert rc == 3


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
