"""Benchmark of the stablepp command line; BENCHMARK.json declares its metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. The workloads (battery, closed-form, replicas) are described in
workloads.py. The load is a closed loop with one client: a pass spawns a
fresh interpreter (worker.py) that imports `stablepp.cli` and runs every job
of the workload back to back through `stablepp.cli.main(argv)`. Each job is
one operation and fails when its exit code or its outputs are wrong
(checks.py). Every pass repeats the same inputs, which the seed fixes.

With `--trace 0`, passes repeat until `--seconds` is used up (at least three)
and the end-to-end metrics are medians over the passes:

- setup_s: the time to import `stablepp.cli` in a fresh interpreter
- wall_s: the sum over jobs of each job's median time
- peak_rss_mb: `ru_maxrss` of the pass interpreter
- cmd.<command>_s: the same sum over that command's jobs, for each command
  the workload runs. These are printed by name but are not in
  BENCHMARK.json, which lists only metrics that every workload reports.

Times are scaled to a reference machine speed. The speed of a shared
machine drifts: on the 2-vCPU VM this was tuned on, the same pass took from
2.4 to 3.9 s within minutes, and the import time moved with it. Each pass
therefore runs a fixed pure-Python speed probe (worker.speed_probe) before
the import, between the import and the jobs, and after the jobs, and every
timed stretch is multiplied by PROBE_REF_S over the mean of the two probes
that bracket it. The probe runs none of the program's code, so a change to
the program moves the scaled times as it moves the raw ones. The raw
medians are printed too, as raw.setup_s and raw.wall_s.

With `--trace 1` it runs one untraced pass and two traced ones (tracing.py),
whatever `--seconds` says, the second traced pass at the other thread count
(1 and 2 swap). It reports the per-layer metrics of the first traced pass
(times scaled as above) and `trace_overhead_frac`, that pass's wall time
against the untraced pass's. The deterministic counts must agree between
the two traced passes, which also shows they do not depend on the thread
count.

The last line of standard output is the JSON result. Results, with a machine
fingerprint, and the spans of traced passes are kept under .perfbench_work/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# time of one speed-probe chunk (worker.speed_probe) at the reference speed:
# the usual speed of the 2-vCPU x86_64 VM the benchmark was tuned on
PROBE_REF_S = 0.0028
# stop starting passes once one more could cross this many seconds of run time
TIME_LIMIT_S = 150.0
_START = time.monotonic()


class BenchError(Exception):
    pass


def _run_pass(args, threads: int, trace: int, index: int, work: Path) -> dict:
    pdir = work / f"pass{index}"
    pdir.mkdir()
    result = pdir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--threads", str(threads), "--trace", str(trace),
           "--src", str(ROOT / "src"), "--workdir", str(pdir), "--result", str(result)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, TIME_LIMIT_S + 20.0 - _elapsed()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish in time")
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"pass {index} failed (exit {proc.returncode}): "
                         f"{proc.stderr.strip()[-2000:]}")
    doc = json.loads(result.read_text())
    for p in pdir.iterdir():
        if p.name not in ("result.json", "spans.tsv"):
            p.unlink()
    return doc


def _elapsed() -> float:
    return time.monotonic() - _START


def _scales(p: dict) -> tuple:
    """Factors taking the pass's import time and job times to the reference speed.

    Each timed stretch is scaled by the mean of the two speed probes that
    bracket it: the import by the probes before and after it, the jobs by the
    probes before and after them.
    """
    before, between, after = p["probe_s"]
    return PROBE_REF_S * 2 / (before + between), PROBE_REF_S * 2 / (between + after)


def _wall(p: dict) -> float:
    return sum(j["seconds"] for j in p["jobs"]) * _scales(p)[1]


def _end_to_end(passes: list) -> dict:
    # per-job medians over the passes, so a burst of load on the machine that
    # slows one job in a minority of passes leaves the sums untouched
    values = {"setup_s": statistics.median(p["import_s"] * _scales(p)[0] for p in passes),
              "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
              "wall_s": 0.0,
              "raw.setup_s": statistics.median(p["import_s"] for p in passes),
              "raw.wall_s": 0.0}
    for i, job in enumerate(passes[0]["jobs"]):
        seconds = statistics.median(p["jobs"][i]["seconds"] * _scales(p)[1] for p in passes)
        values["wall_s"] += seconds
        values[job["metric"]] = values.get(job["metric"], 0.0) + seconds
        values["raw.wall_s"] += statistics.median(p["jobs"][i]["seconds"] for p in passes)
    return values


def _fingerprint() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "commit": commit, "src_sha256": digest.hexdigest()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "stablepp" / "cli.py").is_file():
        print(f"error: no stablepp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    threads = workloads.THREADS[args.workload]

    passes = []
    mismatched = []
    try:
        if args.trace:
            for index, (n_threads, traced) in enumerate(
                    [(threads, 0), (threads, 1), (3 - threads, 1)]):
                passes.append(_run_pass(args, n_threads, traced, index, work))
            untraced, first, second = passes
            scale = _scales(first)[1]
            values = {k: v * scale if k.endswith("_s") else v
                      for k, v in first["layers"].items()}
            values["trace_overhead_frac"] = _wall(first) / _wall(untraced) - 1.0
            mismatched = [k for k in tracing.DETERMINISTIC
                          if first["layers"][k] != second["layers"][k]]
            metrics = declared["per_layer"]
        else:
            t_start = time.monotonic()
            while True:
                t0 = time.monotonic()
                passes.append(_run_pass(args, threads, 0, len(passes), work))
                last = time.monotonic() - t0
                if _elapsed() + last > TIME_LIMIT_S:
                    break
                if len(passes) >= MIN_PASSES and time.monotonic() - t_start + last > args.seconds:
                    break
            values = _end_to_end(passes)
            metrics = declared["end_to_end"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    for j in failed:
        print(f"FAILED {j['job']} ({' '.join(j['argv'])}): {j['problem']}\n{j['log_tail']}",
              file=sys.stderr)
    for k in mismatched:
        print(f"FAILED deterministic count {k}: {passes[1]['layers'][k]} at "
              f"{passes[1]['threads']} thread(s), {passes[2]['layers'][k]} at "
              f"{passes[2]['threads']}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in metrics}
    extra = sorted(set(values) - set(units)) if not args.trace else []
    units.update((k, "s") for k in extra)
    fingerprint = _fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} operations={len(jobs)} failed={len(failed)}")
    for name, unit in units.items():
        value = values[name]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {name:<36} {shown} {unit}")
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    result = {
        "correct": not failed and not mismatched,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }
    (work / "result.json").write_text(json.dumps(
        {"args": vars(args), "fingerprint": fingerprint, "passes": passes,
         "values": values, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
