"""One benchmark pass: a fresh interpreter runs every job of a workload once.

It times the import of `stablepp.cli`, then calls `stablepp.cli.main(argv)`
for each job back to back, timing each call, counting the scipy
IntegrationWarnings it raised and checking its outputs (outside the timed
region). A speed probe runs before the import, between the import and the
jobs, and after the jobs, so that run.py can scale each timed stretch to a
reference machine speed. With `--trace 1` it first wraps the package's public functions
(see tracing.py) and reports per-layer metrics. The result goes to `--result`
as JSON; the exit code is non-zero only when the pass itself could not run.
"""
from __future__ import annotations

import argparse
import contextlib
import glob
import importlib
import io
import json
import os
import resource
import sys
import time
import warnings
from pathlib import Path

import checks
import workloads


def speed_probe(chunks: int = 100) -> float:
    """Mean time of a fixed chunk of interpreter work: a gauge of how fast the
    machine runs right now, independent of the program under test."""
    data = [[i * 0.5, str(i), {"k": i}] for i in range(300)]
    values = [((i * 7919) % 10007) * 1e-3 for i in range(20000)]
    t0 = time.perf_counter()
    for _ in range(chunks):
        total = 0.0
        for i in range(5000):
            total += (i * 1e-3) ** 0.5
        json.loads(json.dumps(data))
        sorted(values)
    return (time.perf_counter() - t0) / chunks


def _run_job(cli, job, argv):
    """(seconds, exit code or None if the command raised, integration warnings, log)."""
    log = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception as exc:  # a crash is one failed operation, not a failed pass
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=log)
        seconds = time.perf_counter() - t0
    n_warn = sum(type(w.message).__name__ == "IntegrationWarning" for w in caught)
    return seconds, rc, n_warn, log.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True, help="directory holding the stablepp package")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    probes = [speed_probe()]
    t0 = time.perf_counter()
    cli = importlib.import_module("stablepp.cli")
    import_s = time.perf_counter() - t0
    src = Path(args.src).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"stablepp was imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    probes.append(speed_probe())

    os.chdir(args.workdir)
    jobs = workloads.jobs(args.workload)
    results = []
    for i, job in enumerate(jobs):
        with open(job.name + ".json", "w", encoding="utf-8") as fh:
            json.dump(job.config, fh)
        argv = job.command(workloads.job_seed(args.workload, args.seed, i), args.threads)
        if tracer is not None:
            tracer.job = i
        seconds, rc, n_warn, log = _run_job(cli, job, argv)
        if tracer is not None:
            tracer.job = -1
        try:
            problem = checks.check_job(job, rc)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            problem = f"cannot check outputs: {type(exc).__name__}: {exc}"
        results.append({
            "job": job.name, "metric": job.metric, "argv": argv, "seconds": seconds,
            "exit_code": rc, "ok": problem is None, "problem": problem,
            "quad_warnings": n_warn,
            "bytes_out": sum(os.path.getsize(p) for p in glob.glob(glob.escape(job.out) + "*")),
            "log_tail": log[-2000:] if problem else "",
        })

    probes.append(speed_probe())
    out = {
        "probe_s": probes,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": args.threads,
        "jobs": results,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(
            quad_warnings=sum(r["quad_warnings"] for r in results),
            bytes_out=sum(r["bytes_out"] for r in results))
        tracer.write("spans.tsv")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
