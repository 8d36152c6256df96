"""Drive the command line end to end in a temporary directory.

Writes a config, samples replicas, estimates the Laplace battery, runs the
stability test, extracts the decoration, and maps the process to the shift
carrier. Every command leaves a manifest next to its output; running a
command twice produces byte-identical files. Exits non-zero as soon as a
command fails; the stability test may accept (0) or reject (2).
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def run(*argv, ok=(0,)):
    cmd = [sys.executable, "-m", "stablepp.cli", *argv]
    print(f"$ stablepp {' '.join(argv)}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    for line in proc.stderr.splitlines():
        print(f"  {line}")
    if proc.returncode not in ok:
        sys.exit(f"stablepp {argv[0]} exited {proc.returncode}")
    return proc.returncode


def main():
    with tempfile.TemporaryDirectory(prefix="stablepp_demo_") as tmp:
        walk(Path(tmp))


def walk(root):
    print(f"working in {root}\n")

    config = root / "process.json"
    config.write_text(json.dumps({
        "schema": "stablepp/v1",
        "process": {
            "family": "scdppp",
            "alpha": 1.0,
            "decoration": {"kind": "dirac", "atoms": [[1.0, 1]]},
            "window": 0.05,
        },
    }, indent=2))

    run("sample", "--config", str(config), "--reps", "500", "--seed", "1",
        "--out", str(root / "replicas.jsonl"))
    run("estimate", "--config", str(config), "--reps", "20000", "--seed", "2",
        "--out", str(root / "battery.csv"))

    stab = root / "stability.json"
    doc = json.loads(config.read_text())
    doc.update({"b1": 1.0, "b2": 1.0})
    stab.write_text(json.dumps(doc))
    code = run("test", "stability", "--config", str(stab), "--reps", "20000",
               "--seed", "3", "--out", str(root / "stability_report.json"), ok=(0, 2))
    print(f"  exit code {code} (0 accepts, 2 rejects)\n")

    ext = root / "extract.json"
    doc = json.loads(config.read_text())
    doc.update({"threshold": 50.0, "inner_radius": 0.5, "n_accepted": 200})
    ext.write_text(json.dumps(doc))
    run("extract", "--config", str(ext), "--seed", "4",
        "--out", str(root / "decoration.json"))

    tr = root / "to_shift.json"
    tr.write_text(json.dumps({"schema": "stablepp/v1", "direction": "log",
                              "process": json.loads(config.read_text())["process"]}))
    run("transform", "--config", str(tr), "--out", str(root / "shift_process.json"))

    print("\nfiles produced:")
    for p in sorted(root.iterdir()):
        print(f"  {p.name:<40} {p.stat().st_size:>8} bytes")

    head = (root / "battery.csv").read_text().splitlines()
    print("\nbattery.csv head:")
    for line in head[:4]:
        print(f"  {line}")


if __name__ == "__main__":
    main()
