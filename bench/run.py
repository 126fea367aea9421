"""Benchmark of the oddplanar command line.

    python3 bench/run.py --workload redraw|oracle|explore|all --seed N \\
        --seconds S --trace 0|1 [--smoke]

Each workload is a fixed list of CLI jobs on documents generated from
``--seed`` (see ``workloads.py``).  The load is a closed loop: one client,
jobs back to back in a fixed order.  One pass runs the whole list in a
fresh interpreter (``one_pass.py``), so process-global state and peak RSS
never carry over between passes; ``ODDPLANAR_THREADS`` is removed from
the environment, so the oracle runs its default thread count.  Passes
repeat until ``--seconds`` is used up (at least three), and every metric
is the median over passes.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: first job's start to last job's end;
* ``top_rung_s``: summed latency of the jobs at the largest size of each ladder;
* ``scaling_exp``: largest least-squares slope of log(job time) against
  log(n) over the workload's ladders;
* ``setup_s``: interpreter start to inputs ready (import, generation,
  serialization);
* ``peak_rss_mb``: ``ru_maxrss`` of the pass's process.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``tracing.py``), plus the
tracing overhead.  Every job's output is checked independently of the
program (see ``drawcheck.py``) and digested; a failed check, a traceback,
a nonzero exit or a digest that differs between passes of the same seed
counts as a failed job.  The failure fraction is printed in the table and
reported as ``failed`` / ``attempted`` on the last line, a JSON object.
``--smoke`` runs a tiny ladder of each workload once.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("redraw", "oracle", "explore")
PASS_LIMIT_S = 170.0  # every pass of one run must end within this

END_TO_END = {"wall_s": "s", "top_rung_s": "s", "scaling_exp": "1", "setup_s": "s", "peak_rss_mb": "MB"}

_SPANNED = {
    "redraw": ("theorem2_transform", "interleaving_parity", "lemma1_redraw", "contract_even_edge",
               "split_vertex", "max_even_forest"),
    "drawing": ("from_routes", "validate", "parity_sketch", "remove_edges", "merge_disjoint", "faces",
                "map_components", "induced_subdrawing", "odd_pairs", "is_k_odd_plane", "crossing_stats"),
    "oracle": ("exact_crossing_value", "extremal_search"),
    "surgery": ("insert_edge_shortest", "double_crossing_move"),
    "svg": ("render_svg",),
}
PER_LAYER = {f"{m}.{fn}.{k}": u for m, fns in _SPANNED.items() for fn in fns
             for k, u in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({f"{m}.{fn}.self_s": "s" for m, fns in (
    ("bounds", ("sampling_experiment", "audit_drawing")),
    ("docio", ("parse_drawing", "drawing_to_doc", "to_jsonable", "canonical_json"))) for fn in fns})
PER_LAYER.update({
    "surgery.greedy_embed.calls": "count",
    "graphs.Multigraph.endpoints.calls": "count",
    "oracle.exact_crossing_value.us_per_build": "us",
    "oracle.extremal_search.accept_ratio": "1",
    "docio.out_bytes": "bytes",
    "trace.overhead_ratio": "1",
})


class HarnessError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace: bool, smoke: bool, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("ODDPLANAR_THREADS", None)
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))] + (["--smoke"] if smoke else [])
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} pass ran past the {PASS_LIMIT_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass exited with code {proc.returncode}")
    rec = json.loads(out.decode().strip().splitlines()[-1])
    rec["setup_s"] = rec["ready"] - t0
    rec["pass_s"] = time.monotonic() - t0
    rec["traced"] = trace
    return rec


def collect(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> list[dict]:
    """Passes until ``seconds`` is used up; with ``trace``, untraced and
    traced passes alternate."""
    start = time.monotonic()
    deadline = start + PASS_LIMIT_S
    least = 1 if smoke else (2 if trace else 3)
    passes: list[dict] = []
    while True:
        kind = trace and sum(p["traced"] for p in passes) < sum(not p["traced"] for p in passes)
        passes.append(run_pass(workload, seed, kind, smoke, deadline))
        counts = [sum(p["traced"] == t for p in passes) for t in ((False, True) if trace else (False,))]
        longest = max(p["pass_s"] for p in passes)
        if min(counts) >= least and time.monotonic() - start + longest > seconds:
            return passes


def _wall(p: dict) -> float:
    return p["jobs"][-1]["end"] - p["jobs"][0]["start"]


def _slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons); a digest that differs from the first
    pass's digest of the same job counts as a failure."""
    reference = {j["id"]: j["digest"] for j in passes[0]["jobs"]}
    attempted, reasons = 0, []
    for p in passes:
        for j in p["jobs"]:
            attempted += 1
            if j["error"]:
                reasons.append(f"{j['id']}: {j['error']}")
            elif j["digest"] != reference[j["id"]]:
                reasons.append(f"{j['id']}: stdout digest differs between passes")
    return attempted, len(reasons), reasons


def end_to_end(passes: list[dict]) -> dict:
    plain = [p for p in passes if not p["traced"]]
    jobs = plain[0]["jobs"]
    top = {}
    for j in jobs:
        top[j["ladder"]] = max(top.get(j["ladder"], 0), j["n"])
    tops = [sum(j["end"] - j["start"] for j in p["jobs"] if j["n"] == top[j["ladder"]]) for p in plain]
    ladders: dict[str, list[tuple[int, float]]] = {}
    for i, j in enumerate(jobs):
        t = statistics.median(p["jobs"][i]["end"] - p["jobs"][i]["start"] for p in plain)
        ladders.setdefault(j["ladder"], []).append((j["n"], t))
    slopes = [_slope(pts) for pts in ladders.values() if len({n for n, _ in pts}) > 1]
    values = {
        "wall_s": statistics.median(_wall(p) for p in plain),
        "top_rung_s": statistics.median(tops),
        "scaling_exp": max(slopes),
        "setup_s": statistics.median(p["setup_s"] for p in plain),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in plain),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "calls":  # exact: a pass's own count, never an average
            values[name] = statistics.median_low(p["layers"][kind][base] for p in traced)
        elif kind == "self_s":
            values[name] = statistics.median(p["layers"][kind][base] for p in traced)
    values["oracle.exact_crossing_value.us_per_build"] = statistics.median(
        p["layers"]["us_per_build"] for p in traced)
    proposals = sum(j["extra"].get("proposals", 0) for j in traced[0]["jobs"])
    accepted = sum(j["extra"].get("accepted", 0) for j in traced[0]["jobs"])
    values["oracle.extremal_search.accept_ratio"] = accepted / proposals if proposals else 0.0
    values["docio.out_bytes"] = sum(j["bytes"] for j in traced[0]["jobs"])
    values["trace.overhead_ratio"] = (statistics.median(_wall(p) for p in traced)
                                      / statistics.median(_wall(p) for p in plain))
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def report(workload: str, seed: int, passes: list[dict], trace: bool) -> dict:
    attempted, failed, reasons = failures(passes)
    metrics = per_layer(passes) if trace else end_to_end(passes)
    env = {"python": platform.python_version(), "cpu_count": os.cpu_count(), "commit": commit(),
           "ODDPLANAR_THREADS": "cleared", "workload": workload, "seed": seed,
           "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes)}
    print(f"== {workload} (seed {seed})")
    print("env " + json.dumps(env))
    first = next(p for p in passes if not p["traced"])
    for i, j in enumerate(first["jobs"]):
        t = statistics.median(p["jobs"][i]["end"] - p["jobs"][i]["start"] for p in passes if not p["traced"])
        print(f"job {j['id']:<32} {t:9.4f} s  sha256 {j['digest']}")
    for reason in reasons:
        print(f"FAILED {reason}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{'fail_frac':<44} {failed / attempted:>14.6g} 1")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny ladders, one pass each")
    args = ap.parse_args()
    if not (ROOT / "src" / "oddplanar" / "__init__.py").is_file():
        sys.stderr.write(f"no oddplanar sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in names:
            passes = collect(w, args.seed, args.seconds, bool(args.trace), args.smoke)
            results[w] = report(w, args.seed, passes, bool(args.trace))
    except HarnessError as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
