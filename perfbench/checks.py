"""Output checks: each returns None when a job's outputs are correct, else why not.

Every tolerance is wide enough that a correct program fails with negligible
probability, whatever the seed. The tail and support tests report their own
verdict at a fixed 95% coverage and a fixed 3-standard-error residual, which a
correct program misses on some seeds, so for those two the check applies a
5-standard-error bound to the statistic the report carries instead.
"""
from __future__ import annotations

import csv
import json
import re

Z = 5.0
ROUNDTRIP_RTOL = 1e-12


def _estimate(path: str, n_rows: int):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_rows:
        return f"{len(rows)} estimate rows, expected {n_rows}"
    compared = 0
    for row in rows:
        if row["predicted"] == "":
            continue
        value, se = float(row["value"]), float(row["std_error"])
        pred, pred_err = float(row["predicted"]), float(row["predicted_error"])
        tol = Z * se + pred_err + 1e-9
        if not abs(value - pred) <= tol:
            return (f"{row['f_id']} at {row['point']}: estimate {value!r} is "
                    f"{abs(value - pred):.3g} from prediction {pred!r} (tolerance {tol:.3g})")
        compared += 1
    return None if compared else "no row carries a prediction"


def _report(path: str, rc: int, test_name: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("test_name") != test_name:
        return f"report is for {doc.get('test_name')!r}, expected {test_name!r}"
    if test_name == "tail_index":
        (sub,) = doc["subchecks"]
        half = float(re.search(r"half width ([0-9.eE+-]+)", sub["note"]).group(1))
        alpha = float(doc["params"]["alpha"])
        if rc not in (0, 2) or not abs(sub["statistic"] - alpha) <= Z * half / 1.96:
            return f"tail index {sub['statistic']!r} is off alpha {alpha!r} (exit {rc})"
        return None
    if test_name == "scale_unique_support":
        for sub in doc["subchecks"]:
            found = re.search(r"pooled se = ([0-9.eE+-]+)", sub["note"])
            if found and not sub["statistic"] <= Z * float(found.group(1)):
                return f"{sub['name']}: residual {sub['statistic']!r} ({sub['note']})"
        return None if rc in (0, 2) else f"exit code {rc}"
    if rc != 0 or doc.get("passed") is not True:
        return f"exit code {rc}, passed={doc.get('passed')!r}"
    return None


def _measures(path: str):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["atoms"] for line in fh]


def _lines(path: str, n: int):
    got = len(_measures(path))
    return None if got == n else f"{got} measure lines, expected {n}"


def _roundtrip(path: str, original: str):
    back, orig = _measures(path), _measures(original)
    if len(back) != len(orig):
        return f"{len(back)} lines after the round trip, {len(orig)} before"
    for i, (b, o) in enumerate(zip(back, orig)):
        if len(b) != len(o) or any(
                mb != mo or not abs(xb - xo) <= ROUNDTRIP_RTOL * abs(xo)
                for (xb, mb), (xo, mo) in zip(b, o)):
            return f"line {i + 1} differs after log then exp"
    return None


def _decorations(path: str, n: int):
    with open(path + ".decorations.jsonl", encoding="utf-8") as fh:
        got = sum(1 for _ in fh)
    return None if got == n else f"{got} decoration lines, expected {n}"


def check_job(job, rc) -> str | None:
    """None when the job exited as expected and its outputs are correct."""
    if rc is None:
        return "the command raised"
    kind, param = job.check
    if kind == "report":
        return _report(job.out, rc, param)
    if rc != 0:
        return f"exit code {rc}"
    if kind == "estimate":
        return _estimate(job.out, param)
    if kind == "lines":
        return _lines(job.out, param)
    if kind == "roundtrip":
        return _roundtrip(job.out, param)
    if kind == "decorations":
        return _decorations(job.out, param)
    raise ValueError(f"unknown check {kind!r}")
