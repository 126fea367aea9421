"""One pass of a workload in a fresh interpreter.

Generates the workload's inputs from the seed, then runs its jobs back to
back, each as ``oddplanar.cli.main([...])`` in this process with stdout
captured.  Prints one JSON line: the monotonic time at which the inputs
were ready, per-job results (start, end, error, sha256 digest), the peak
RSS and, with ``--trace 1``, the per-layer summary.  ``run.py`` starts it;
it is not meant to be run by hand.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_job(cli_main, job, recorder) -> dict:
    if recorder is not None:
        recorder.job = job.id
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(list(job.argv))
    except Exception as exc:  # a traceback is a failed job, not a failed pass
        rc, error = None, f"traceback: {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    stdout = out.getvalue().encode()
    digest = hashlib.sha256(stdout).hexdigest()
    if job.svg is not None and os.path.exists(job.svg):
        digest += "+" + hashlib.sha256(Path(job.svg).read_bytes()).hexdigest()
    extra = {}
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[:200]}"
    if error is None:
        try:
            doc = json.loads(stdout)
            job.check(doc)
            extra = {k: doc[k] for k in ("proposals", "accepted") if k in doc}
        except Exception as exc:  # any failed check counts against the job
            error = f"check failed: {type(exc).__name__}: {exc}"
    return {"id": job.id, "ladder": job.ladder, "n": job.n, "start": start, "end": end,
            "error": error, "digest": digest, "bytes": len(stdout), "extra": extra}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("ODDPLANAR_THREADS", None)
    import oddplanar
    from oddplanar.cli import main as cli_main

    if Path(oddplanar.__file__).resolve().parent != ROOT / "src" / "oddplanar":
        sys.stderr.write(f"imported oddplanar from {oddplanar.__file__}, not from this checkout\n")
        return 2
    import tracing
    import workloads

    work = Path(".bench_work") / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = workloads.build(args.workload, args.seed, args.smoke, work)
        ready = time.monotonic()
        recorder = tracing.install() if args.trace else None
        results = [run_job(cli_main, job, recorder) for job in jobs]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    record = {
        "ready": ready,
        "jobs": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        record["layers"] = recorder.summary()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
