"""The tracer in perfbench/tracing.py rebinds module attributes when it is
installed. A caller that bound a traced function at import time (a dict of
predictors built at module level, say) would bypass the wrapper and silently
zero that layer's metric; this test runs the CLI under the tracer and checks
that every traced functional name, and the test function `test maxlaw`
calls, recorded spans."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import stablepp

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

SCRIPT = r"""
import importlib.util, json, sys

spec = importlib.util.spec_from_file_location("_perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)

from stablepp import cli, functionals, sampler

tracer = tracing.Tracer()
tracer.install()
for config, out in zip(sys.argv[2::2], sys.argv[3::2]):
    code = cli.main(["estimate", "--config", config, "--out", out, "--reps", "300"])
    assert code == 0, code
# the scale config; a rejection (exit 2) still ran the test function
code = cli.main(["test", "maxlaw", "--config", sys.argv[2], "--out", sys.argv[3] + ".json",
                 "--reps", "300"])
assert code in (0, 2), code
# the estimate command reduces its campaign block by block and never calls the
# single-campaign estimators, so they are reached through the module bindings
for config in sys.argv[2::2]:
    with open(config) as fh:
        proc = sampler.process_spec_from_config(json.load(fh)["process"])
    campaign = sampler.run_campaign(sampler.ProcessSource(proc), 0, 300)
    estimate = {"scale": functionals.estimate_scaled_laplace,
                "shift": functionals.estimate_shift_laplace}[proc.carrier]
    f = next(iter(functionals.default_battery(proc.carrier).values()))
    estimate(campaign, f, functionals.default_points(proc.carrier)[1])
print(json.dumps(sorted({tracer.names[span[0]] for span in tracer.spans})))
"""

PROCESSES = {
    "scale": {"family": "scdppp", "alpha": 1.0,
              "decoration": {"kind": "dirac", "atoms": [[1.0, 1]]}, "window": 0.05},
    "shift": {"family": "dppp", "c": 1.0,
              "decoration": {"kind": "dirac", "atoms": [[0.0, 1]]}, "window": -3.0},
}


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_estimate_under_the_tracer_records_every_functional_layer(tmp_path):
    args = []
    for carrier, process in PROCESSES.items():
        config = tmp_path / f"{carrier}.json"
        config.write_text(json.dumps({"schema": "stablepp/v1", "process": process}))
        args += [str(config), str(tmp_path / f"{carrier}.csv")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(stablepp.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(TRACING), *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    recorded = set(json.loads(out.splitlines()[-1]))
    tracing = _tracing()
    for layer in ("PREDICT", "QUAD", "PSI", "ESTIMATE"):
        missing = getattr(tracing, layer) - recorded
        assert not missing, f"{layer}: no span for {sorted(missing)}"
    assert "characterization.maxmod_law_test" in recorded
