"""Mutated configs end in an exit code, never in a traceback.

Each example takes a valid config and applies one mutation: drop a key, add
an unknown key, or replace a value by a value of another JSON type. Process
configs run through `transform`, estimate configs (process, battery entries,
points) through `estimate --reps 50`. The exit code must be 0, 1 or 2, and
an exit 1 must come with a line starting "error:".
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from stablepp.cli import main

SCALE_PROCESSES = [
    {"family": "scdppp", "alpha": 1.0, "window": 0.05,
     "decoration": {"kind": "dirac", "atoms": [[1.0, 2], [0.5, 1]]}},
    {"family": "sscdppp", "alpha": 1.5, "window": 0.1,
     "decoration": {"kind": "table", "entries": [{"atoms": [[1.0, 1]], "prob": 0.5},
                                                 {"atoms": [[2.0, 1], [0.5, 3]], "prob": 0.5}]},
     "scale": {"kind": "lognormal", "mu": 0.1, "sigma": 0.5}},
    {"family": "sscdppp", "alpha": 0.8, "window": 0.2,
     "decoration": {"kind": "random_atoms", "count_probs": [[1, 0.3], [3, 0.7]],
                    "location": {"kind": "table", "values": [0.5, 2.0], "probs": [0.4, 0.6]}},
     "scale": {"kind": "table", "values": [0.5, 2.0], "probs": [0.5, 0.5]}},
    {"family": "sscdppp", "alpha": 1.0, "window": 0.05,
     "decoration": {"kind": "dirac", "atoms": [[2.0, 1]]},
     "scale": {"kind": "deterministic", "value": 2.0}},
]
SHIFT_PROCESSES = [
    {"family": "dppp", "c": 1.0, "window": -3.0,
     "decoration": {"kind": "dirac", "atoms": [[0.0, 1]]}},
    {"family": "sdppp", "c": 2.0, "window": -2.0,
     "decoration": {"kind": "random_atoms", "count_probs": [[1, 0.5], [2, 0.5]],
                    "location": {"kind": "table", "values": [-1.0, 0.0], "probs": [0.5, 0.5]}},
     "shift": {"kind": "normal", "mu": 0.2, "sigma": 0.5}},
    {"family": "sdppp", "c": 1.0, "window": -3.0,
     "decoration": {"kind": "table", "entries": [{"atoms": [[0.0, 1], [-1.0, 1]], "prob": 0.5},
                                                 {"atoms": [[-0.5, 2]], "prob": 0.5}]},
     "shift": {"kind": "table", "values": [-1.0, 1.0], "probs": [0.5, 0.5]}},
]
# dirac processes keep every prediction cheap
ESTIMATES = [
    {"schema": "stablepp/v1", "process": SCALE_PROCESSES[0], "points": [1.0, 2.0], "battery": [
        {"id": "t", "kind": "tent", "left": 0.5, "peak": 1.0, "right": 2.0, "height": 2.0},
        {"id": "i", "kind": "indicator", "level": 1.0, "edge": 1.0, "outer": 10.0,
         "ramp": 0.01, "symmetric": True},
        {"id": "m", "kind": "indicator", "level": 5.0, "edge": 1.0, "outer": 10.0,
         "ramp": 0.01, "symmetric": True},
        {"id": "k", "kind": "knots", "knots": [[0.5, 0.0], [1.0, 1.0], [2.0, 0.0]]}]},
    {"schema": "stablepp/v1", "process": SHIFT_PROCESSES[0], "points": [0.0, 1.0], "battery": [
        {"id": "g", "kind": "shift_tent", "left": -1.0, "peak": 0.0, "right": 1.0},
        {"id": "s", "kind": "shift_indicator", "level": 1.0, "edge": 0.0, "outer": 3.0,
         "ramp": 0.01},
        {"id": "k", "kind": "shift_knots", "knots": [[-1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]}]},
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=4)


def _json_type(v) -> str:
    return "number" if isinstance(v, (int, float)) and not isinstance(v, bool) else type(v).__name__


def _paths(node, path=()):
    """The path to every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, configs, within=()):
    """One of `configs`, mutated at or below the object at path `within`."""
    doc = copy.deepcopy(draw(st.sampled_from(configs)))
    paths = list(_paths(_at(doc, within), within))
    op = draw(st.sampled_from(["drop", "add", "replace"]))
    if op == "add":
        node = _at(doc, draw(st.sampled_from([within] + [p for p in paths
                                                         if isinstance(_at(doc, p), dict)])))
        node[draw(st.text(min_size=1, max_size=6).filter(lambda k: k not in node))] = \
            draw(JSON_VALUES)
    elif op == "drop":
        path = draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p[:-1]), dict)]))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        parent, old = _at(doc, path[:-1]), _at(doc, path)
        parent[path[-1]] = draw(JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run_fails_closed(workdir, argv, doc):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--config", str(cfg), "--out", str(workdir / "out")])
    assert code in (0, 1, 2)
    if code == 1:
        assert any(line.startswith("error:") for line in err.getvalue().splitlines())
    assert "Traceback" not in err.getvalue()


TRANSFORMS = [{"schema": "stablepp/v1", "direction": direction, "process": process}
              for direction, processes in (("log", SCALE_PROCESSES), ("exp", SHIFT_PROCESSES))
              for process in processes]


@pytest.mark.parametrize("argv, doc", [(["transform"], d) for d in TRANSFORMS]
                         + [(["estimate", "--reps", "50"], d) for d in ESTIMATES])
def test_unmutated_configs_run(workdir, argv, doc):
    cfg = workdir / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert main(argv + ["--config", str(cfg), "--out", str(workdir / "out")]) == 0


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated(TRANSFORMS, within=("process",)))
def test_mutated_process_fails_closed(workdir, doc):
    _run_fails_closed(workdir, ["transform"], doc)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=mutated(ESTIMATES))
def test_mutated_estimate_config_fails_closed(workdir, doc):
    _run_fails_closed(workdir, ["estimate", "--reps", "50"], doc)
