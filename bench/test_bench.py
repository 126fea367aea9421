"""Self-test of the benchmark: ``python3 -m pytest bench -q``.

Runs every workload in smoke mode, untraced and traced, and checks that
each metric named in BENCHMARK.json is reported with its unit and that no
job failed.  Also checks that the independent output checks reject
broken outputs.
"""
from __future__ import annotations

import copy
import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from drawcheck import MapError, read_map  # noqa: E402
from workloads import CheckFailed, _check_embed, _check_transform  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@functools.cache
def _run(trace: int) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "3",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_without_failures(trace):
    result, text = _run(trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for w in (w["name"] for w in SPEC["workloads"]):
        for m in spec:
            got = result["metrics"][f"{w}.{m['name']}"]
            assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
    assert text.count("fail_frac") == len(SPEC["workloads"])


def test_bypass_layers_are_idle():
    result, _ = _run(1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for w in ("oracle", "explore"):
        assert all(v == 0 for k, v in values.items() if k.startswith(f"{w}.redraw."))
    for w in ("redraw", "oracle"):
        assert all(v == 0 for k, v in values.items() if k.startswith(f"{w}.svg."))
    assert all(v == 0 for k, v in values.items() if k.startswith("redraw.surgery."))
    assert values["explore.svg.render_svg.calls"] == 2
    assert values["oracle.oracle.exact_crossing_value.calls"] == 5


def _k4_drawings():
    from oddplanar.docio import serialize_drawing
    from oddplanar.graphs import complete_graph
    from oddplanar.oracle import perturb_even, random_drawing

    k4 = complete_graph(4)
    convex = json.loads(serialize_drawing(random_drawing(k4, 0, "convex")))
    even, _ = perturb_even(random_drawing(k4, 0, "perturbed-even"), 2, 0)
    return convex, json.loads(serialize_drawing(even))


def test_read_map_counts_and_rejects_broken_maps():
    convex, _ = _k4_drawings()
    m = read_map(convex)
    assert sum(m.pair_counts.values()) == 1 and not m.self_counts
    bad = copy.deepcopy(convex)
    bad["map"]["involution"].pop()
    with pytest.raises(MapError):
        read_map(bad)
    bad = copy.deepcopy(convex)
    rot = bad["map"]["rotations"][0][1]
    rot[0], rot[1] = rot[1], rot[0]  # a vertex of degree 3: this breaks Euler
    with pytest.raises(MapError):
        read_map(bad)


def test_output_checks_reject_wrong_outputs(tmp_path):
    convex, even = _k4_drawings()
    src = tmp_path / "even.json"
    src.write_text(json.dumps(even))
    with pytest.raises(CheckFailed):
        _check_embed(str(src), even)  # still has its crossings
    trace = {"k": 1, "trace": {"removed": [], "g4": convex}}
    with pytest.raises(CheckFailed):
        _check_transform(str(src), 1, trace)  # pair count 1 where the input parity is 0
