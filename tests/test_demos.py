"""Every demo the README lists runs to completion as a script, with every
RuntimeWarning (an overflow, an invalid value) an error: pytest's own
warning filters do not reach a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ["sample_and_maxima.py", "shift_scale_bridge.py", "decoration_extraction.py",
         "laplace_predictions.py", "stability_check.py", "tail_and_templates.py",
         "cli_walkthrough.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
