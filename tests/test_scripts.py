"""Smoke runs of the example scripts at tiny sizes, each in its own
interpreter, so the scripts keep working with the library they call."""
from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_sampling_demo():
    out = run_script("sampling_demo.py", "--trials", "200").splitlines()
    assert re.fullmatch(r"drawing: n=10 m=20 odd pairs=\d+ p=1/2 trials=200", out[0])
    assert [line.split(":")[0].strip() for line in out[1:4]] == ["n'", "m'", "x"]
    assert out[4] == "  x >= 2m'-8n' violations: 0"


def test_extremal_gap():
    out = run_script("extremal_gap.py", "--kmax", "1", "--nmax", "6", "--budget", "50").splitlines()
    assert out[0].split() == ["k", "n", "best", "m", "mk_upper", "modd_upper", "gap"]
    rows = [tuple(int(x) for x in line.split()) for line in out[1:]]
    assert [(k, n) for k, n, *_ in rows] == [(0, 5), (0, 6), (1, 5), (1, 6)]
    for _, _, best, _, modd, gap in rows:
        assert 0 <= best <= modd and gap == modd - best


def test_render_gallery(tmp_path):
    out = run_script("render_gallery.py", "--out", str(tmp_path)).splitlines()
    names = ["k5-one-crossing", "bouquet-redrawn", "convex-k6", "forest", "self-crossing",
             "pipeline-input", "pipeline-output"]
    assert [line.split(" (")[0] for line in out] == [f"wrote {tmp_path / n}.svg" for n in names]
    assert out[0].endswith("(1 crossings)")
    for n in names:
        assert (tmp_path / f"{n}.svg").read_bytes().startswith(b"<?xml")
        assert (tmp_path / f"{n}.json").stat().st_size > 0
