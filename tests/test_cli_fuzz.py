"""Totality of the command line under fuzzed arguments.

Every subcommand gets small and negative integers, bad probabilities and
budgets, and as file arguments a small document, a missing path or an
empty string; then one token may be replaced by ``nan``, ``inf``,
``1/0``, an empty string or another odd value, or dropped.  Sizes stay bounded so that each run is quick: at most 50 trials
and 50 candidates, ``--max-crossings`` at most 2 unless it is so large
that the multiset limit refuses it, and ``search --n`` huge only above
``SEARCH_N_LIMIT``, which is refused before anything is built.
``cli.main`` never raises, exits 0 to 3, and writes any ``error:`` as
exactly one line."""
from __future__ import annotations

import contextlib
import io

import pytest

from oddplanar.cli import main
from oddplanar.docio import serialize_drawing
from oddplanar.oracle import SEARCH_N_LIMIT
from oddplanar.redraw import OneVertexSketch, lemma1_redraw
from fixtures import k5_one_crossing

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ODD = st.sampled_from(["nan", "inf", "-inf", "1/0", "", "0.5", "1e9"])


def num(lo: int, hi: int):
    return st.integers(lo, hi).map(str)


FILE = st.sampled_from(["{k5}", "{bouquet}", "{missing}", ""])
BUDGET = st.builds(
    lambda c, t: f"candidates={c}" + (f",time={t}" if t is not None else ""),
    st.sampled_from(["0", "1", "7", "50", "-1", "nan", "inf", "1/0", ""]),
    st.sampled_from([None, "0", "-1", "nan", "inf", "1/0", "", "0.5", "30"]),
)
K = num(-3, 5)
SEED = num(-3, 60)

COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["validate", "stats", "redraw-lemma1", "embed"]), FILE),
    st.tuples(st.sampled_from(["transform", "audit"]), FILE, st.just("--k"), K),
    st.tuples(
        st.just("bounds"), st.just("--k"), K, st.just("--n"), num(-3, 60) | st.just(str(10**12)),
        st.just(()) | num(-3, 60).map(lambda m: ("--m", m)),
    ),
    st.tuples(
        st.just("sample"), FILE,
        st.just("--p"), st.sampled_from(["1/2", "1", "0", "3/2", "-1", "0.25", "nan", "inf", "1/0", ""]),
        st.just("--trials"), num(-3, 50),
        st.just("--seed"), SEED,
    ),
    st.tuples(
        st.just("oracle"), st.sampled_from(["K3", "K5", "K3,3", "C4", "C2", "K0", "K-1", "K100000", "", "{missing}"]),
        st.just("--variant"), st.sampled_from(["cr", "pcr", "ocr"]),
        st.just("--rule"), st.sampled_from(["plus", "zero", "minus", "star"]),
        st.just("--max-crossings"), num(-3, 2) | st.just("1000000"),
        st.just("--budget"), BUDGET,
    ),
    st.tuples(
        st.just("search"), st.just("--k"), K,
        st.just("--n"), st.sampled_from(["-1", "0", "3", "4", "7", "12", "40", str(SEARCH_N_LIMIT + 1), str(10**12)]),
        st.just("--budget"), BUDGET,
        st.just("--seed"), SEED,
    ),
    st.tuples(st.just("render"), FILE, st.just("-o"), st.sampled_from(["{out}", ""]), st.just("--size"), num(-3, 100)),
)
# After the arguments are drawn, one token may be replaced by an odd value
# or dropped.
EDITS = st.tuples(st.sampled_from([None, "replace", "drop"]), st.integers(0, 11), ODD)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-fuzz")
    bouquet = lemma1_redraw(OneVertexSketch(0, ((1, 0), (2, 0), (1, 1), (2, 1))))
    (root / "k5.json").write_bytes(serialize_drawing(k5_one_crossing()))
    (root / "bouquet.json").write_bytes(serialize_drawing(bouquet))
    return {
        "k5": str(root / "k5.json"),
        "bouquet": str(root / "bouquet.json"),
        "missing": str(root / "missing.json"),
        "out": str(root / "out.svg"),
    }


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(argv=COMMANDS, edit=EDITS)
def test_fuzzed_arguments_exit_cleanly(paths, argv, edit):
    tokens = [t for part in argv for t in (part if isinstance(part, tuple) else (part,))]
    argv = [token.format(**paths) for token in tokens]
    kind, at, odd = edit
    if kind == "replace":
        argv[at % len(argv)] = odd
    elif kind == "drop":
        del argv[at % len(argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if "error:" in line]
    if code == 2:
        # argparse: a usage line, then one line naming the error
        assert len(errors) == 1 and lines[-1] == errors[0], (argv, lines)
    elif code == 1:
        # one "error:" line, or the one-line summary of a failed check
        assert len(lines) == 1, (argv, lines)
    else:
        assert code in (0, 3) and not errors, (argv, code, lines)
