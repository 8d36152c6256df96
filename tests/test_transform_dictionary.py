"""The exp/log dictionary as one map: every transport checks the carrier of its
input, function transport holds its tolerance on random functions in both
directions, and the bytes of `transform` outputs are pinned."""
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepp.cli import main
from stablepp.errors import DomainError, RangeError
from stablepp.point_measure import (
    MeasureBatch,
    PointMeasure,
    TestFunction,
    tent,
)
from stablepp.sampler import GlobalLaw
from stablepp.transform import (
    exp_function,
    exp_transform,
    log_function,
    log_transform,
    scale_law_to_shift,
    shift_law_to_scale,
)

WRONG_CARRIER = {
    "log_transform": lambda: log_transform(PointMeasure([1.0, 2.0], carrier="shift")),
    "log_transform_batch": lambda: log_transform(
        MeasureBatch("shift", [1.0, 2.0], [1, 1], [0, 1], 2)),
    "exp_transform": lambda: exp_transform(PointMeasure([1.0, 2.0])),
    "exp_function": lambda: exp_function(tent(0.5, 1.0, 2.0)),
    "log_function": lambda: log_function(tent(0.5, 1.0, 2.0, carrier="shift")),
    "scale_law_to_shift": lambda: scale_law_to_shift(
        GlobalLaw.deterministic(-1.0, carrier="shift"), 1.0),
    "shift_law_to_scale": lambda: shift_law_to_scale(GlobalLaw.deterministic(2.0), 1.0),
}


@pytest.mark.parametrize("case", sorted(WRONG_CARRIER))
def test_every_transport_checks_the_carrier_of_its_input(case):
    name = case.removesuffix("_batch")
    with pytest.raises(DomainError, match=f"^{name} expects a (scale|shift)-carrier "):
        WRONG_CARRIER[case]()


def test_pieces_that_collapse_to_one_float():
    # every knot maps to 1.0, so the transported pieces have no width
    with pytest.raises(RangeError):
        exp_function(tent(1e-20, 2e-20, 3e-20, carrier="shift"))
    # adjacent floats near 1e300 share their log
    x = 1e300
    with pytest.raises(RangeError):
        log_function(tent(x, math.nextafter(x, math.inf),
                          math.nextafter(math.nextafter(x, math.inf), math.inf)))


# -- function transport on random functions ----------------------------------------

TOL = 1e-4


def _functions(carrier, lo, hi):
    """Random piecewise-linear functions on `carrier` with knots k/64, lo <= k <= hi,
    and values j/1000, 0 <= j <= 1000."""
    knots = st.lists(st.integers(lo, hi), min_size=3, max_size=8, unique=True).map(sorted)
    return knots.flatmap(lambda ks: st.lists(
        st.integers(0, 1000), min_size=len(ks) - 2, max_size=len(ks) - 2).map(
        lambda js: TestFunction([(k / 64.0, j / 1000.0) for k, j in zip(ks, [0, *js, 0])],
                                carrier)))


def _grid(xs):
    """400 points on every piece between the abscissae xs."""
    return np.concatenate([np.linspace(a, b, 400) for a, b in zip(xs[:-1], xs[1:])])


def _check(f, to, back, chart):
    """f carried by `to` stays within TOL sup|f| of f read through `chart`, the
    map from f's points to the image's, and carried back by `back`, within
    2 TOL sup|f| of f."""
    g = to(f, tol=TOL)
    x = _grid(f.knots_x)
    slack = 1e-12 * f.sup_norm
    assert np.max(np.abs(g.eval(chart(x)) - f.eval(x))) <= TOL * f.sup_norm + slack
    assert np.max(np.abs(back(g, tol=TOL).eval(x) - f.eval(x))) <= 2 * TOL * f.sup_norm + slack


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_functions("scale", 1, 2000))
def test_log_function_property(f):
    _check(f, log_function, exp_function, np.log)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_functions("shift", -400, 400))
def test_exp_function_property(f):
    _check(f, exp_function, log_function, np.exp)


# -- pinned transform outputs -------------------------------------------------------

DIRAC = {"kind": "dirac", "atoms": [[1.0, 1], [0.5, 2]]}
TABLE = {"kind": "table", "entries": [{"atoms": [[1.0, 1]], "prob": 0.4},
                                      {"atoms": [[0.7, 1], [1.3, 2]], "prob": 0.6}]}
ATOMS = {"kind": "random_atoms", "count_probs": [[1, 0.5], [2, 0.5]],
         "location": {"kind": "table", "values": [0.6, 1.1, 1.3], "probs": [0.3, 0.3, 0.4]}}
S_DIRAC = {"kind": "dirac", "atoms": [[0.0, 1], [-0.7, 2]]}
S_TABLE = {"kind": "table", "entries": [{"atoms": [[0.0, 1]], "prob": 0.4},
                                        {"atoms": [[-0.4, 1], [0.3, 2]], "prob": 0.6}]}
S_ATOMS = {"kind": "random_atoms", "count_probs": [[1, 0.5], [2, 0.5]],
           "location": {"kind": "table", "values": [-0.5, 0.1, 0.26], "probs": [0.3, 0.3, 0.4]}}

SPECS = {
    "scdppp/dirac": {"family": "scdppp", "alpha": 1.0, "decoration": DIRAC, "window": 0.05},
    "scdppp/atoms": {"family": "scdppp", "alpha": 0.7, "decoration": ATOMS, "window": 0.05},
    "sscdppp/table/deterministic": {"family": "sscdppp", "alpha": 2.0, "decoration": TABLE,
                                    "window": 0.05,
                                    "scale": {"kind": "deterministic", "value": 3.0}},
    "sscdppp/atoms/lognormal": {"family": "sscdppp", "alpha": 1.5, "decoration": ATOMS,
                                "window": 0.1,
                                "scale": {"kind": "lognormal", "mu": 0.2, "sigma": 0.5}},
    "sscdppp/dirac/table": {"family": "sscdppp", "alpha": 0.7, "decoration": DIRAC,
                            "window": 0.05,
                            "scale": {"kind": "table", "values": [0.5, 2.0, 1.7],
                                      "probs": [0.3, 0.3, 0.4]}},
    "dppp/table": {"family": "dppp", "c": 2.0, "decoration": S_TABLE, "window": -3.0},
    "sdppp/dirac/deterministic": {"family": "sdppp", "c": 0.7, "decoration": S_DIRAC,
                                  "window": -3.0,
                                  "shift": {"kind": "deterministic", "value": 0.7}},
    "sdppp/atoms/normal": {"family": "sdppp", "c": 1.5, "decoration": S_ATOMS, "window": -2.0,
                           "shift": {"kind": "normal", "mu": -0.3, "sigma": 0.8}},
    "sdppp/table/table": {"family": "sdppp", "c": 2.0, "decoration": S_TABLE, "window": -1.5,
                          "shift": {"kind": "table", "values": [-1.0, 0.4, 2.5],
                                    "probs": [0.3, 0.3, 0.4]}},
}

# sha256 prefixes of the `transform` outputs of each spec, and of a sampled
# measure file carried across and back; moving them moves the dictionary's bytes
PINNED_TRANSFORMS = {
    "spec:scdppp/dirac": ["34e1dfe7be0cf4e1"],
    "spec:scdppp/atoms": ["f0a836cd66d328a6"],
    "spec:sscdppp/table/deterministic": ["06a826865d620b51"],
    "spec:sscdppp/atoms/lognormal": ["5f23d36d38cf54ee"],
    "spec:sscdppp/dirac/table": ["a188275624dcdc6d"],
    "spec:dppp/table": ["5e50d7b2f60f07a8"],
    "spec:sdppp/dirac/deterministic": ["e29b26532144c29c"],
    "spec:sdppp/atoms/normal": ["24c2dd99a6a113ec"],
    "spec:sdppp/table/table": ["949a13e4569f9fa3"],
    "measures:sscdppp/atoms/lognormal": ["9f49393f22ea3c64", "ea9a02402d8e093b"],
    "measures:sdppp/atoms/normal": ["9b8f0ceb95f2a2bb", "c11b3fa420e3f27b"],
}


def _run(tmp_path, name, argv, doc):
    cfg = tmp_path / (name + ".json")
    cfg.write_text(json.dumps({"schema": "stablepp/v1", **doc}))
    out = tmp_path / (name + ".out")
    assert main([*argv, "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    return out


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _transform_digests(tmp_path, case):
    kind, name = case.split(":")
    process = SPECS[name]
    there, back = ("log", "exp") if "alpha" in process else ("exp", "log")
    if kind == "spec":
        return [_digest(_run(tmp_path, "t", ["transform"],
                             {"direction": there, "process": process}))]
    sample = _run(tmp_path, "s", ["sample", "--reps", "300"], {"process": process})
    mapped = _run(tmp_path, "t", ["transform"], {"direction": there, "input": str(sample)})
    again = _run(tmp_path, "b", ["transform"], {"direction": back, "input": str(mapped)})
    return [_digest(mapped), _digest(again)]


CASES = [f"spec:{name}" for name in SPECS] + [
    "measures:sscdppp/atoms/lognormal", "measures:sdppp/atoms/normal"]


@pytest.mark.parametrize("case", CASES)
def test_pinned_transform_outputs(tmp_path, case):
    assert _transform_digests(tmp_path, case) == PINNED_TRANSFORMS[case]


def _many_lines() -> str:
    """9600 lines, about 8700 of them measures, so three 4096-line reading chunks,
    with blank lines, empty measures, locations to merge and integer locations."""
    lines = []
    for k in range(9600):
        if k % 11 == 5:
            lines.append("")
        elif k % 7 == 3:
            lines.append('{"atoms": []}')
        else:
            atoms = [[(k % 97 + 1) / 8, k % 5 + 1], [k % 13 + 1, 1], [(k % 97 + 1) / 8, 2]]
            lines.append(json.dumps({"atoms": atoms[:k % 3 + 1]}))
    return "\n".join(lines) + "\n"


A = '{"atoms": [[1.0, 1], [2.5, 3]]}'
B = '{"atoms": [[0.25, 2], [3, 1], [0.25, 1]]}'
E = '{"atoms": []}'
# measure-line files split by every line boundary str.splitlines knows
LINE_INPUTS = {
    "crlf": f"{A}\r\n{B}\r\n{E}\r\n",
    "lone_cr": f"{A}\r{B}\r{E}\r",
    "form_feed": f"{A}\f{B}\n\f{E}\n",
    "separators": f"{A}\x1c{B}\x85{E} {A} {B}\v{E}\x1d{A}\x1e",
    "no_final_newline": f"{A}\n{B}",
    "blank_lines": f"\n\n{A}\n  \n\t\n{B}\n\n{E}\n\n",
    "empty": "",
    "many_lines": _many_lines(),
}
# sha256 prefixes of the log and exp images of each file; the four files that
# hold the same measures have the same images
PINNED_LINE_TRANSFORMS = {
    "crlf": ["4a6f26b28fd4b419", "064da727f9dbd36b"],
    "lone_cr": ["4a6f26b28fd4b419", "064da727f9dbd36b"],
    "form_feed": ["4a6f26b28fd4b419", "064da727f9dbd36b"],
    "separators": ["ca8db826ef180706", "9713e2a0f56b9b2d"],
    "no_final_newline": ["a3c4ac709627b3a2", "be5892e0752f85f5"],
    "blank_lines": ["4a6f26b28fd4b419", "064da727f9dbd36b"],
    "empty": ["e3b0c44298fc1c14", "e3b0c44298fc1c14"],
    "many_lines": ["b40e4cb984b9e1a2", "9781dbcd2b454fdf"],
}


@pytest.mark.parametrize("name", LINE_INPUTS)
def test_pinned_transforms_of_measure_line_files(tmp_path, name):
    src = tmp_path / "in.jsonl"
    with open(src, "w", encoding="utf-8", newline="") as fh:
        fh.write(LINE_INPUTS[name])
    digests = [_digest(_run(tmp_path, d, ["transform"], {"direction": d, "input": str(src)}))
               for d in ("log", "exp")]
    assert digests == PINNED_LINE_TRANSFORMS[name]
