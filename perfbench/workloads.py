"""The benchmark's three workloads, each a list of CLI jobs run back to back.

Every job is one `stablepp` command line. Its `--seed` is derived from the
workload seed and the job's position, so one workload seed fixes every input.
The sizes keep the jobs of one pass (a fresh interpreter running every job
once) near 3 to 5 seconds on a 2-core machine, so a 40-second run repeats
the pass five to eight times.

Why these workloads:

- battery: statistics are the product, on large dirac campaigns with two
  threads. Test-function evaluation over every campaign atom and the
  per-replica reductions take most of the time, and the alpha=2 support test
  (about 400 atoms per replica) sets peak RSS. The closed forms are cheap.
- closed-form: predictions are the product, on small random-atom and
  random-dilation campaigns with one thread. Quadrature through scalar
  test-function calls dominates, so a quadrature change shows here and a
  change to evaluation over campaign atoms barely moves it.
- replicas: atoms are the product, with one thread. Sampling, per-replica
  measures, JSON lines, rejection and permutation work dominate; no job
  evaluates test functions over a whole campaign.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

SCHEMA = "stablepp/v1"

SCALE_A1 = {"family": "scdppp", "alpha": 1.0,
            "decoration": {"kind": "dirac", "atoms": [[1.0, 1]]}, "window": 0.05}
SCALE_A2 = dict(SCALE_A1, alpha=2.0)
SHIFT_C1 = {"family": "dppp", "c": 1.0,
            "decoration": {"kind": "dirac", "atoms": [[0.0, 1]]}, "window": -3.0}
RANDOM_SCALE = {"family": "scdppp", "alpha": 1.0, "window": 0.05,
                "decoration": {"kind": "random_atoms",
                               "count_probs": [[1, 0.3], [2, 0.4], [4, 0.3]],
                               "location": {"kind": "uniform", "low": 0.5, "high": 1.5}}}
RANDOM_SHIFT = {"family": "dppp", "c": 1.0, "window": -3.0,
                "decoration": {"kind": "random_atoms",
                               "count_probs": [[1, 0.5], [3, 0.5]],
                               "location": {"kind": "uniform", "low": -1.0, "high": 0.0}}}
LOGNORMAL_SCALE = dict(SCALE_A1, family="sscdppp",
                       scale={"kind": "lognormal", "mu": 0.0, "sigma": 0.5})

# Statistical tests run at a level where a correct program is rejected with
# negligible probability, so a rejection points at the program, not the seed.
TEST_LEVEL = "1e-6"

WORKLOADS = ("battery", "closed-form", "replicas")
THREADS = {"battery": 2, "closed-form": 1, "replicas": 1}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the check its outputs must pass.

    `metric` names the end-to-end command metric the job's time adds to.
    `check` is a (kind, parameters) pair understood by checks.check_job.
    """

    name: str
    metric: str
    argv: tuple
    config: dict
    check: tuple
    out: str

    def command(self, seed: int, threads: int) -> list:
        return [*self.argv, "--config", self.name + ".json", "--out", self.out,
                "--seed", str(seed), "--threads", str(threads)]


def _job(name, metric, argv, config, check, out=None):
    return Job(name, metric, tuple(argv), {"schema": SCHEMA, **config}, check,
               out or name + ".out")


def job_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def jobs(workload: str) -> list:
    if workload == "battery":
        return [
            _job("estimate_scale", "cmd.estimate_s", ["estimate", "--reps", "30000"],
                 {"process": SCALE_A1}, ("estimate", 20)),
            _job("estimate_shift", "cmd.estimate_s", ["estimate", "--reps", "30000"],
                 {"process": SHIFT_C1}, ("estimate", 16)),
            _job("stability", "cmd.stability_s",
                 ["test", "stability", "--reps", "30000", "--level", TEST_LEVEL],
                 {"process": SCALE_A1, "b1": 1.0, "b2": 1.0}, ("report", "stability")),
            _job("support", "cmd.support_s", ["test", "support", "--reps", "3000"],
                 {"process": SCALE_A2}, ("report", "scale_unique_support")),
        ]
    if workload == "closed-form":
        # band_sym's quadrature takes about 2.5 s per evaluation point on the
        # random-atom scale spec, so that job uses one of the four default points
        return [
            _job("estimate_random_scale", "cmd.estimate_s", ["estimate", "--reps", "10000"],
                 {"process": RANDOM_SCALE, "points": [1.0]}, ("estimate", 5)),
            _job("estimate_random_shift", "cmd.estimate_s", ["estimate", "--reps", "10000"],
                 {"process": RANDOM_SHIFT}, ("estimate", 16)),
            _job("estimate_lognormal", "cmd.estimate_s", ["estimate", "--reps", "10000"],
                 {"process": LOGNORMAL_SCALE}, ("estimate", 20)),
        ]
    if workload == "replicas":
        n = 3000
        extract = {"process": SCALE_A1, "threshold": 100.0, "inner_radius": 0.5,
                   "n_accepted": 500}
        return [
            _job("sample", "cmd.sample_s", ["sample", "--reps", str(n)],
                 {"process": RANDOM_SCALE}, ("lines", n), "sample.jsonl"),
            _job("transform_log", "cmd.transform_s", ["transform"],
                 {"direction": "log", "input": "sample.jsonl"}, ("lines", n), "log.jsonl"),
            _job("transform_exp", "cmd.transform_s", ["transform"],
                 {"direction": "exp", "input": "log.jsonl"},
                 ("roundtrip", "sample.jsonl"), "exp.jsonl"),
            *[_job(f"extract_{i}", "cmd.extract_s", ["extract"], extract,
                   ("decorations", 500)) for i in range(5)],
            _job("tail", "cmd.tail_s", ["test", "tail", "--reps", "200000"],
                 {"process": SCALE_A1}, ("report", "tail_index")),
            _job("maxlaw", "cmd.maxlaw_s",
                 ["test", "maxlaw", "--reps", "100000", "--level", TEST_LEVEL],
                 {"process": SCALE_A1}, ("report", "maxmod_law")),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
