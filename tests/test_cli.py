import concurrent.futures
import contextlib
import functools
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

import stablepp.extraction
import stablepp.sampler
from stablepp import cli
from stablepp.characterization import TestReport
from stablepp.errors import RangeError
from stablepp.cli import main
from stablepp.extraction import ExtractionConfig, extract_decoration
from stablepp.point_measure import MeasureBatch, PointMeasure
from stablepp.sampler import process_spec_from_config

PROC = {
    "family": "scdppp",
    "alpha": 1.0,
    "decoration": {"kind": "dirac", "atoms": [[1.0, 1]]},
    "window": 0.05,
}
SHIFT_PROC = {
    "family": "dppp",
    "c": 1.0,
    "decoration": {"kind": "dirac", "atoms": [[0.0, 1]]},
    "window": -3.0,
}


# a value for every config field a test kind declares
TEST_FIELD_VALUES = {
    "b1": 1.0, "b2": 2.0, "rhs_scale_factor": 1.5, "points": (1.0, 2.0),
    "battery": [{"id": "t", "kind": "tent", "left": 0.5, "peak": 1.0, "right": 2.0}],
}


def config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def proc_config(tmp_path, extra=None, process=PROC, name="cfg.json"):
    doc = {"schema": "stablepp/v1", "process": process}
    if extra:
        doc.update(extra)
    return config(tmp_path, doc, name)


def manifest(out):
    with open(str(out) + ".manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        assert main(["sample", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o.jsonl")]) == 1

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["sample", "--config", str(p),
                     "--out", str(tmp_path / "o.jsonl")]) == 1

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json reads integers with int, which refuses more than 4300 digits
        p = tmp_path / "big.json"
        p.write_text(json.dumps({"schema": "stablepp/v1", "process": PROC})
                     .replace("[[1.0, 1]]", "[[1.0, 1%s]]" % ("0" * 5000)))
        assert main(["sample", "--config", str(p), "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "more than 4300 digits" in err
        assert "Traceback" not in err

    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys):
        p = tmp_path / "deep.json"
        p.write_text('{"schema": "stablepp/v1", "process": %s}'
                     % ("[" * 100_000 + "]" * 100_000))
        assert main(["sample", "--config", str(p), "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config ") and "nests too deeply" in err

    def test_wrong_schema(self, tmp_path):
        cfg = config(tmp_path, {"schema": "stablepp/v0", "process": PROC})
        assert main(["sample", "--config", cfg,
                     "--out", str(tmp_path / "o.jsonl")]) == 1

    def test_unknown_field_named(self, tmp_path, capsys):
        bad = dict(PROC)
        bad["alhpa"] = 1.0
        cfg = proc_config(tmp_path, process=bad)
        assert main(["sample", "--config", cfg,
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert "alhpa" in capsys.readouterr().err

    def test_usage_error(self, tmp_path, capsys):
        assert main(["sample", "--config"]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_level_is_an_option_of_test_only(self, tmp_path, capsys):
        cfg = proc_config(tmp_path)
        for command in (["sample"], ["estimate"], ["extract"], ["transform"]):
            assert main(command + ["--config", cfg, "--out", str(tmp_path / "o"),
                                   "--level", "0.05"]) == 1
            assert "unrecognized arguments: --level" in capsys.readouterr().err
        assert main(["test", "tail", "--config", cfg, "--reps", "2000",
                     "--out", str(tmp_path / "t.json")]) == 0
        assert json.loads((tmp_path / "t.json").read_text())["level"] == 0.0

    def test_reps_is_not_an_option_of_extract_or_transform(self, tmp_path, capsys):
        # extraction's work is set by n_accepted and the threshold; transform draws nothing
        cfg = proc_config(tmp_path)
        for command in (["extract"], ["transform"]):
            assert main(command + ["--config", cfg, "--out", str(tmp_path / "o"),
                                   "--reps", "5"]) == 1
            assert "unrecognized arguments: --reps 5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["support", "tail"])
    def test_level_is_refused_by_the_kinds_that_do_not_read_it(self, tmp_path, capsys, kind):
        cfg = proc_config(tmp_path)
        assert main(["test", kind, "--config", cfg, "--reps", "2000", "--level", "0.05",
                     "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "stability" in err and "maxlaw" in err

    @pytest.mark.parametrize("level", ["nan", "inf", "-1", "0", "1"])
    @pytest.mark.parametrize("kind, extra", [
        ("stability", {"b1": 1.0, "b2": 1.0, "rhs_scale_factor": 1.5}), ("maxlaw", {})])
    def test_level_outside_the_unit_interval_exits_one(self, tmp_path, capsys, kind, extra,
                                                       level):
        # the stability control is rejected at --level 0.01 (exit 2); a level
        # that no p-value can fall below must not turn it into a pass
        cfg = proc_config(tmp_path, extra)
        assert main(["test", kind, "--config", cfg, "--reps", "20000", "--level", level,
                     "--out", str(tmp_path / "t.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "(0, 1)" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "sample" in capsys.readouterr().out

    def test_empty_battery_rejected(self, tmp_path):
        cfg = proc_config(tmp_path, {"battery": []})
        assert main(["estimate", "--config", cfg, "--reps", "100",
                     "--out", str(tmp_path / "e.csv")]) == 1

    def test_non_integer_thread_env(self, tmp_path, capsys, monkeypatch):
        # transform draws nothing, yet refuses a bad thread count like every command
        out = tmp_path / "o.jsonl"
        for command, extra in ((["sample", "--reps", "10"], None),
                               (["transform"], {"direction": "log"})):
            cfg = proc_config(tmp_path, extra)
            monkeypatch.setenv("STABLEPP_THREADS", "abc")
            assert main(command + ["--config", cfg, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "STABLEPP_THREADS" in err
            assert "Traceback" not in err
            monkeypatch.delenv("STABLEPP_THREADS")
            assert main(command + ["--config", cfg, "--out", str(out), "--threads", "0"]) == 1
            assert capsys.readouterr().err == "error: threads must be >= 1\n"
            assert not out.exists()

    @pytest.mark.parametrize("kind", list(cli._test_kinds()))
    @pytest.mark.parametrize("given", [False, True], ids=["defaults", "flags"])
    def test_test_kinds_take_their_config_fields_as_keywords(self, tmp_path, monkeypatch,
                                                             kind, given):
        # every field the kind's row declares reaches its test function by name;
        # n_reps and level only with --reps and --level, so the function's own
        # defaults hold. The recorder keeps the function's signature, as the
        # tracer's wrappers do, so the kinds that take a level still read --level.
        real, required, optional = cli._test_kinds()[kind]
        calls = []

        @functools.wraps(real)
        def record(spec, **kwargs):
            calls.append(kwargs)
            return TestReport(kind, 0.0, 1, 0, ())

        monkeypatch.setattr(cli, real.__name__, record)
        fields = {f: TEST_FIELD_VALUES[f] for f in (*required, *optional)}
        argv = ["test", kind, "--config", proc_config(tmp_path, fields), "--seed", "4",
                "--threads", "2", "--out", str(tmp_path / "r.json")]
        flags = {}
        if given:
            flags["n_reps"], argv = 7, argv + ["--reps", "7"]
            if "level" in inspect.signature(real).parameters:
                flags["level"], argv = 0.05, argv + ["--level", "0.05"]
        assert main(argv) == 0
        (kwargs,) = calls
        if "battery" in fields:
            assert list(kwargs.pop("battery")) == ["t"]
            del fields["battery"]
        assert kwargs == {"seed": 4, "threads": 2, **fields, **flags}

    @pytest.mark.parametrize("command, extra", [
        (["sample"], {"process": dict(PROC, decoration={"kind": "dirac", "atoms": [[1.0]]})}),
        (["sample"], {"process": dict(PROC, decoration={"kind": "dirac", "atoms": ["a"]})}),
        (["sample"], {"process": dict(PROC, decoration={"kind": "dirac", "atoms": [["a", 1]]})}),
        (["sample"], {"process": dict(PROC, decoration={
            "kind": "random_atoms", "count_probs": [[1]],
            "location": {"kind": "uniform", "low": 0.5, "high": 1.0}})}),
        (["sample"], {"process": dict(PROC, family="sscdppp", scale={
            "kind": "table", "values": ["a"], "probs": [1.0]})}),
        (["sample"], {"process": dict(SHIFT_PROC, family="sdppp", shift={
            "kind": "table", "values": ["a"], "probs": [1.0]})}),
        (["sample"], {"process": dict(PROC, family="sscdppp", scale={
            "kind": "table", "values": [1.0], "probs": ["a"]})}),
        (["sample"], {"process": dict(PROC, decoration={
            "kind": "random_atoms", "count_probs": [[1, 1.0]],
            "location": {"kind": "table", "values": ["a"], "probs": [1.0]}})}),
        (["sample"], {"process": dict(PROC, decoration={
            "kind": "table", "entries": [{"atoms": [[1.0, 1]], "prob": "a"}]})}),
        (["sample"], {"process": dict(PROC, decoration={
            "kind": "dirac", "atoms": [[1.0, 1]], "maxmod_bound": "x"})}),
        (["test", "stability"], {"b1": "x", "b2": 1.0}),
        (["test", "stability"], {"b1": 1.0, "b2": "x"}),
        (["test", "stability"], {"b1": 1.0, "b2": 2.0, "rhs_scale_factor": "x"}),
        (["test", "stability"], {"b1": True, "b2": 2.0}),
        (["test", "stability"], {"process": dict(PROC, alpha=2.0), "b1": 1e200, "b2": 1.0}),
        (["test", "maxlaw"], {"censor_mass": "x"}),
        (["test", "tail"], {"k": "abc"}),
        (["estimate"], {"battery": [{"id": "a", "kind": []}]}),
        (["sample"], {"process": dict(PROC, decoration={"kind": "table", "entries": 5})}),
        (["estimate"], {"battery": [{"id": "a", "kind": "indicator", "level": 1.0,
                                     "edge": 1.0, "symmetric": "no"}]}),
        (["estimate"], {"battery": [{"id": "a", "kind": "tent", "left": "0.5",
                                     "peak": 1.0, "right": 2.0}]}),
        (["estimate"], {"battery": [{"id": "a", "kind": "tent", "left": True,
                                     "peak": 1.5, "right": 2.0}]}),
        (["estimate"], {"battery": [{"id": "a", "kind": "knots",
                                     "knots": [[0.5, 0.0], [1.0, "1"], [2.0, 0.0]]}]}),
        (["estimate"], {"battery": [{"id": "a", "kind": "knots",
                                     "knots": [[0.5, 0.0], [1.0, True], [2.0, 0.0]]}]}),
        (["estimate"], {"points": ["0.5"]}),
        (["estimate"], {"points": [True]}),
        (["extract"], {"threshold": "3", "inner_radius": 0.5}),
        (["extract"], {"threshold": 3.0, "inner_radius": 0.5, "n_accepted": 100.7}),
        (["transform"], {"direction": []}),
        (["sample"], {"process": dict(PROC, family="sscdppp", scale={"kind": []})}),
        (["sample"], {"process": dict(PROC, window=10 ** 400)}),
        (["sample"], {"process": dict(PROC, decoration={"kind": "dirac",
                                                        "atoms": [[1.0, 10 ** 400]]})}),
    ], ids=["atom_short", "atom_string", "atom_location", "count_pair_short",
            "scale_law_value", "shift_law_value", "law_prob", "location_value",
            "entry_prob", "maxmod_bound", "b1", "b2", "rhs_scale_factor", "b1_bool",
            "b1_pow_overflow",
            "censor_mass", "k", "function_kind_list", "entries_int", "symmetric_string",
            "left_string", "left_bool", "knot_string", "knot_bool", "point_string",
            "point_bool", "threshold_string", "n_accepted_fraction", "direction_list",
            "law_kind_list", "window_overflow", "multiplicity_overflow"])
    def test_malformed_number_exits_one_with_error_line(self, tmp_path, capsys,
                                                         command, extra):
        cfg = proc_config(tmp_path, extra)
        reps = [] if command[0] in ("extract", "transform") else ["--reps", "100"]
        assert main(command + ["--config", cfg, *reps,
                               "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command, extra, name", [
        (["sample"], {"process": dict(PROC, decoration={
            "kind": "dirac", "atoms": [[1.0, 1]], "maxmod_bound": 1.0})}, "maxmod_bound"),
        (["test", "maxlaw"], {"censor_mass": 1e-6}, "censor_mass"),
        (["test", "tail"], {"k": 100}, "'k'"),
        (["test", "support"], {"y_grid": [1.0, 2.0]}, "y_grid"),
        (["estimate"], {"battery": [{"id": "m", "kind": "maxmod_indicator", "plateau": 5.0}]},
         "maxmod_indicator"),
    ], ids=["maxmod_bound", "censor_mass", "k", "y_grid", "maxmod_indicator"])
    def test_retired_inputs_exit_one_naming_them(self, tmp_path, capsys, command, extra, name):
        # the decoration bound is derived, the censored mass and the Hill k are
        # constants, support reads "points", and the symmetric indicator is
        # "indicator" with "symmetric": true
        cfg = proc_config(tmp_path, extra)
        assert main(command + ["--config", cfg, "--reps", "100",
                               "--out", str(tmp_path / "o.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "Traceback" not in err

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    @pytest.mark.parametrize("location", [
        {"kind": "table", "values": [0.5, math.nan], "probs": [0.5, 0.5]},
        {"kind": "table", "values": [math.nan, 0.5], "probs": [0.5, 0.5]},
        {"kind": "table", "values": [0.5, math.inf], "probs": [0.5, 0.5]},
        {"kind": "uniform", "low": -math.inf, "high": -0.5},
        {"kind": "uniform", "low": 0.5, "high": math.inf},
    ], ids=["table_nan_last", "table_nan_first", "table_inf", "uniform_low_inf",
            "uniform_high_inf"])
    def test_non_finite_location_exits_one_naming_the_location_law(self, tmp_path, capsys,
                                                                   carrier, location):
        base = PROC if carrier == "scale" else SHIFT_PROC
        process = dict(base, decoration={"kind": "random_atoms", "count_probs": [[1, 1.0]],
                                         "location": location})
        cfg = proc_config(tmp_path, process=process)
        assert main(["sample", "--config", cfg, "--reps", "100",
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "location law must be finite" in err

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    @pytest.mark.parametrize("kind", ["dirac", "table"])
    @pytest.mark.parametrize("location, text", [
        (0.0, "atoms at the origin are not allowed on the scale carrier"),
        (math.inf, "atom locations must be finite"),
    ], ids=["origin", "inf"])
    def test_bad_decoration_atom_exits_one_with_the_measure_error(self, tmp_path, capsys,
                                                                  carrier, kind, location,
                                                                  text):
        atoms = [[1.0, 1], [location, 2]]
        decoration = ({"kind": "dirac", "atoms": atoms} if kind == "dirac" else
                      {"kind": "table", "entries": [{"atoms": [[1.0, 1]], "prob": 0.5},
                                                    {"atoms": atoms, "prob": 0.5}]})
        process = dict(PROC if carrier == "scale" else SHIFT_PROC, decoration=decoration)
        code = main(["sample", "--config", proc_config(tmp_path, process=process),
                     "--reps", "10", "--out", str(tmp_path / "o.jsonl")])
        err = capsys.readouterr().err
        if carrier == "shift" and location == 0.0:  # the origin is an ordinary point there
            assert code == 0
            return
        assert code == 1
        assert err == f"error: invalid config.process: {text}\n"

    def test_transform_input_must_be_a_path(self, tmp_path, capsys):
        # an integer is not a path: open() would read that file descriptor, then close it
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b'{"atoms": [[1.0, 1]]}\n')
        os.close(write_fd)
        try:
            cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                    "input": read_fd})
            assert main(["transform", "--config", cfg,
                         "--out", str(tmp_path / "o.jsonl")]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
        finally:
            with contextlib.suppress(OSError):
                os.close(read_fd)

    def test_undecodable_files_exit_one_with_error_line(self, tmp_path, capsys):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"schema": "stablepp/v1", "direction": "log", "x": "\xe9"}')
        assert main(["transform", "--config", str(bad),
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config") and "Traceback" not in err
        src = tmp_path / "in.jsonl"
        src.write_bytes(b'{"atoms": [[1.0, 1]]}\n\xff\xfe\n')
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(src)})
        assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input") and "Traceback" not in err

    def test_undecodable_input_names_its_file_offset(self, tmp_path, capsys):
        # far past the 8 KB a text-mode reader decodes at a time
        src = tmp_path / "in.jsonl"
        src.write_bytes(b'{"atoms": [[1.0, 1]]}\r' * 1000 + b"\xff\n")
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(src)})
        assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o.jsonl")]) == 1
        assert capsys.readouterr().err == ("error: cannot read input: invalid UTF-8 at "
                                           "byte 22000: invalid start byte\n")

    def test_shift_config_for_scale_command_flows_through(self, tmp_path):
        cfg = proc_config(tmp_path, process=SHIFT_PROC)
        out = tmp_path / "o.jsonl"
        assert main(["sample", "--config", cfg, "--reps", "50",
                     "--out", str(out)]) == 0
        m = PointMeasure.from_json_line(out.read_text().splitlines()[0], "shift")
        assert m.n_atoms >= 0


class TestSample:
    def test_lines_and_manifest(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "o.jsonl"
        assert main(["sample", "--config", cfg, "--reps", "200", "--seed", "3",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 200
        for line in lines[:10]:
            PointMeasure.from_json_line(line)
        doc = manifest(out)
        assert doc["schema"] == "stablepp/v1"
        assert doc["command"] == "sample"
        assert doc["master_seed"] == 3
        assert doc["replica_counts"] == 200
        assert doc["status"] == "ok"
        assert "threads" not in doc
        assert not any("time" in k or "clock" in k for k in doc)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "o.jsonl"
        argv = ["sample", "--config", cfg, "--reps", "200", "--seed", "3",
                "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        first_man = (tmp_path / "o.jsonl.manifest.json").read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "o.jsonl.manifest.json").read_bytes() == first_man

    def test_thread_invariance(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "o.jsonl"
        base = ["sample", "--config", cfg, "--reps", "200", "--seed", "3",
                "--out", str(out)]
        assert main(base + ["--threads", "1"]) == 0
        one = out.read_bytes()
        assert main(base + ["--threads", "4"]) == 0
        assert out.read_bytes() == one

    @pytest.mark.parametrize("mult", [2**53 + 1, 2**63 - 1], ids=["2_53_plus_1", "int64_max"])
    def test_multiplicities_are_written_exactly(self, tmp_path, mult):
        # no float copy rounds 2**53 + 1 or overflows casting 2**63 - 1 back to int64
        cfg = proc_config(tmp_path, process=dict(
            PROC, decoration={"kind": "dirac", "atoms": [[1.0, mult]]}))
        out = tmp_path / "o.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sample", "--config", cfg, "--reps", "50", "--seed", "1",
                         "--out", str(out)]) == 0
        atoms = [a for line in out.read_text().splitlines() for a in json.loads(line)["atoms"]]
        assert atoms and {m for _, m in atoms} == {mult}

    @pytest.mark.parametrize("process", [PROC, SHIFT_PROC], ids=["scale", "shift"])
    def test_lines_match_per_replica_reference_at_one_and_two_threads(self, tmp_path,
                                                                        process):
        # 5000 replicas span two sampling blocks
        cfg = proc_config(tmp_path, process=process)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"o{threads}.jsonl"
            assert main(["sample", "--config", cfg, "--reps", "5000", "--seed", "8",
                         "--threads", threads, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        spec = stablepp.sampler.process_spec_from_config(process)
        campaign = stablepp.sampler.run_campaign(stablepp.sampler.ProcessSource(spec),
                                                 8, 5000)
        reference = "".join(
            json.dumps({"atoms": [[float(x), int(m)]
                                  for x, m in campaign.replica_measure(i).atoms()]}) + "\n"
            for i in range(5000))
        assert outs[0].decode() == reference

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_failed_run_leaves_the_out_path_as_it_was(self, tmp_path, capsys, monkeypatch,
                                                       threads):
        # the third of four blocks fails, after the first two were written
        draw = stablepp.sampler.ProcessSource.sample_block

        def failing(self, master_seed, path, size):
            if path[-1] == 2:
                raise RangeError("block 2 fails")
            return draw(self, master_seed, path, size)

        monkeypatch.setattr(stablepp.sampler.ProcessSource, "sample_block", failing)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        out = tmp_path / "o.jsonl"
        out.write_text("earlier output\n")
        assert main(["sample", "--config", proc_config(tmp_path, process=dict(PROC, window=1.0)),
                     "--reps", str(4 * stablepp.sampler.BLOCK_SIZE), "--threads", threads,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: block 2 fails\n"
        assert out.read_text() == "earlier output\n"
        assert not Path(f"{out}.part").exists() and not Path(f"{out}.manifest.json").exists()


class TestThreadBound:
    @pytest.mark.parametrize("cpus,width", [(3, 3), (64, 4)])
    def test_huge_thread_count_is_clamped(self, tmp_path, monkeypatch, cpus, width):
        # 4 blocks of replicas; the pool is min(threads, blocks, cpu count) wide
        widths = []

        class RecordingPool:
            """Stand-in for ThreadPoolExecutor: records its width, runs jobs inline
            and hands back their completed futures."""

            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(stablepp.sampler, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        reps = 3 * stablepp.sampler.BLOCK_SIZE + 1
        cfg = proc_config(tmp_path)
        out = tmp_path / "e.csv"
        argv = ["estimate", "--config", cfg, "--reps", str(reps), "--seed", "2",
                "--out", str(out)]
        assert main(argv + ["--threads", "1000000"]) == 0
        assert widths == [width]
        wide = out.read_bytes()
        assert main(argv + ["--threads", "1"]) == 0
        assert widths == [width]
        assert out.read_bytes() == wide


class TestStreamedMemory:
    """`sample` holds at most 2 x threads blocks and `transform` one batch of
    lines, so what they allocate at their peak on 9 blocks of replicas, 9 x 4096
    measure lines, is at most 1.5 times what they allocate on 3."""

    @pytest.mark.parametrize("command", ["sample", "transform"])
    def test_peak_does_not_grow_with_the_replicas(self, tmp_path, monkeypatch, capsys,
                                                  command):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = proc_config(tmp_path, process=dict(PROC, window=1.0))  # about an atom a replica
        peaks = []
        for blocks in (1, 3, 9):  # the one-block run warms up
            out = str(tmp_path / f"s{blocks}.jsonl")
            argv = ["sample", "--config", cfg, "--reps", str(blocks * stablepp.sampler.BLOCK_SIZE),
                    "--seed", "1", "--threads", "2", "--out", out]
            if command == "transform":
                assert main(argv) == 0
                log = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                        "input": out}, f"log{blocks}.json")
                argv = ["transform", "--config", log, "--out", out + ".log"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[2] <= 1.5 * peaks[1]


class TestRepsBound:
    @pytest.mark.parametrize("reps", [10**30, stablepp.sampler.MAX_REPS + 1],
                             ids=["1e30", "max_plus_one"])
    @pytest.mark.parametrize("command", [["sample"], ["estimate"], ["test", "stability"],
                                         ["test", "maxlaw"], ["test", "support"],
                                         ["test", "tail"]], ids="_".join)
    def test_too_many_replicas_exit_one_before_a_block_is_drawn(
            self, tmp_path, capsys, monkeypatch, command, reps):
        def no_block(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(stablepp.sampler, "_block", no_block)
        cfg = proc_config(tmp_path, {"b1": 1.0, "b2": 1.0} if "stability" in command else None)
        out = tmp_path / "o.out"
        assert main([*command, "--config", cfg, "--reps", str(reps), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: n_reps must be from 1 to {stablepp.sampler.MAX_REPS}\n"
        assert not out.exists()


class TestStatisticsAcrossBlocks:
    """Statistics commands reduce every block in a worker of the real pool; at
    two blocks plus one replica their outputs must not depend on the width."""

    @pytest.mark.parametrize("argv,extra,process", [
        (["estimate"], {}, PROC),
        (["estimate"], {}, SHIFT_PROC),
        (["test", "stability"], {"b1": 1.0, "b2": 2.0}, PROC),
        (["test", "maxlaw"], {}, PROC),
        (["test", "support"], {}, PROC),
        (["test", "tail"], {}, PROC),
    ], ids=["estimate_scale", "estimate_shift", "stability", "maxlaw", "support", "tail"])
    def test_outputs_identical_at_one_and_two_threads(self, tmp_path, monkeypatch, capsys,
                                                        argv, extra, process):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        cfg = proc_config(tmp_path, extra, process=process)
        reps = str(2 * stablepp.sampler.BLOCK_SIZE + 1)
        out = tmp_path / "o"
        results = []
        for threads in ("1", "2"):
            code = main(argv + ["--config", cfg, "--reps", reps, "--seed", "4",
                                "--threads", threads, "--out", str(out)])
            results.append((code, out.read_bytes(),
                            (tmp_path / "o.manifest.json").read_bytes()))
        capsys.readouterr()
        assert results[0][0] in (0, 2)
        assert results[0] == results[1]


class TestEstimate:
    def test_csv_shape(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg, "--reps", "5000", "--seed", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "f_id,point,value,std_error,predicted,predicted_error"
        assert len(lines) == 1 + 5 * 4
        for row in lines[1:]:
            fid, point, value, se, pred, perr = row.split(",")
            assert 0.0 <= float(value) <= 1.0
            assert float(se) >= 0.0
            assert abs(float(value) - float(pred)) <= \
                3.0 * float(se) + float(perr) + 0.05
        doc = manifest(out)
        assert set(doc["battery_ids"]) == {
            "tent_lo", "tent_hi", "step_ln2", "band_sym", "mm_50"}

    def test_custom_battery_and_points(self, tmp_path):
        cfg = proc_config(tmp_path, {
            "battery": [{"id": "t1", "kind": "tent",
                         "left": 0.5, "peak": 1.0, "right": 2.0}],
            "points": [1.0, 2.0]})
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg, "--reps", "2000",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("t1,1.0,") or rows[1].startswith("t1,1,")

    def test_uniform_location_predictions_raise_no_quadrature_warning(self, tmp_path):
        # tier-1 turns IntegrationWarning into an error, so a quadrature that
        # runs out of subdivisions fails this run instead of passing quietly
        process = {"family": "sscdppp", "alpha": 1.0, "window": 0.05,
                   "decoration": {"kind": "random_atoms", "count_probs": [[1, 0.5], [2, 0.5]],
                                  "location": {"kind": "uniform", "low": 0.5, "high": 1.5}},
                   "scale": {"kind": "lognormal", "mu": 0.0, "sigma": 0.5}}
        cfg = proc_config(tmp_path, process=process)
        out = tmp_path / "e.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", cfg, "--reps", "50", "--out", str(out)]) == 0
            assert all(row.split(",")[4] for row in out.read_text().splitlines()[1:])
            # the maxmod law of a random-atom decoration is closed-form too
            for kind in ("maxlaw", "support"):
                report = tmp_path / f"{kind}.json"
                assert main(["test", kind, "--config", cfg, "--reps", "2000", "--seed", "3",
                             "--out", str(report)]) == 0
                assert json.loads(report.read_text())["passed"] is True

    @pytest.mark.parametrize("process, point, battery, error", [
        (PROC, math.inf, "default", "evaluation point y must be finite and > 0"),
        (PROC, -1.0, "default", "evaluation point y must be finite and > 0"),
        (PROC, -1.0, [{"id": "z", "kind": "knots", "knots": [[1.0, 0.0], [2.0, 0.0]]}],
         "evaluation point y must be finite and > 0"),
        (SHIFT_PROC, math.nan, "default", "evaluation point u must be finite"),
    ], ids=["scale_inf", "scale_negative", "scale_all_zero", "shift_nan"])
    def test_bad_point_gives_the_point_error(self, tmp_path, capsys, process, point,
                                             battery, error):
        # the zero function is checked like any other: its point is still a point
        cfg = proc_config(tmp_path, {"battery": battery, "points": [1.0, point]},
                          process=process)
        out = tmp_path / "e.csv"
        assert main(["estimate", "--config", cfg, "--reps", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    def test_rerun_and_threads_identical(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "e.csv"
        base = ["estimate", "--config", cfg, "--reps", "2000", "--seed", "7",
                "--out", str(out)]
        assert main(base + ["--threads", "1"]) == 0
        one = out.read_bytes()
        man = (tmp_path / "e.csv.manifest.json").read_bytes()
        assert main(base + ["--threads", "4"]) == 0
        assert out.read_bytes() == one
        assert (tmp_path / "e.csv.manifest.json").read_bytes() == man


class TestTest:
    def test_stability_pass(self, tmp_path):
        cfg = proc_config(tmp_path, {"b1": 1.0, "b2": 1.0})
        out = tmp_path / "r.json"
        assert main(["test", "stability", "--config", cfg, "--reps", "20000",
                     "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["test_name"] == "stability"
        assert doc["passed"] is True
        assert manifest(out)["status"] == "ok"

    def test_stability_rhs_scale_when_powers_leave_the_normal_range(self, tmp_path, capsys):
        # alpha = 2: b^2 is subnormal at b = 1e-160 and underflows to 0 at 1e-200,
        # so the larger b is factored out of the sum. A global dilation W = 1/b
        # puts about 32 atoms per replica in each side's window.
        out = tmp_path / "r.json"
        argv = ["test", "stability", "--reps", "100", "--out", str(out), "--config"]
        for b, rhs_scale in ((1e-160, 1.4142135623730952e-160),
                             (1e-200, 1.414213562373095e-200)):
            process = dict(PROC, family="sscdppp", alpha=2.0,
                           scale={"kind": "deterministic", "value": 1.0 / b})
            cfg = proc_config(tmp_path, {"process": process, "b1": b, "b2": b})
            assert main(argv + [cfg]) == 0
            doc = json.loads(out.read_text())
            assert doc["params"]["rhs_scale"] == rhs_scale
            assert doc["params"]["mean_count_lhs"] > 10.0
            assert doc["params"]["mean_count_rhs"] > 10.0
        capsys.readouterr()
        # with W = 1 neither side can draw an atom: the comparison has no power
        out.unlink()
        cfg = proc_config(tmp_path, {"process": dict(PROC, alpha=2.0), "b1": 1e-200, "b2": 1e-200})
        assert main(argv + [cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no power" in err
        assert "b1 = 1e-200, b2 = 1e-200, alpha = 2.0" in err
        assert not out.exists()
        # b1^2 overflows; rhs_scale is finite, but b1's side samples on window
        # w / 1e200, where the Poisson mean passes the cap
        cfg = proc_config(tmp_path, {"process": dict(PROC, alpha=2.0), "b1": 1e200, "b2": 1.0})
        assert main(argv + [cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "exceeds the cap" in err

    def test_stability_negative_control_exits_two(self, tmp_path):
        cfg = proc_config(tmp_path, {"b1": 1.0, "b2": 1.0,
                                     "rhs_scale_factor": 1.5})
        out = tmp_path / "r.json"
        assert main(["test", "stability", "--config", cfg, "--reps", "20000",
                     "--seed", "3", "--out", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["passed"] is False
        assert manifest(out)["status"] == "rejected"

    @pytest.mark.parametrize("decoration", [
        {"kind": "dirac", "atoms": [[1.0, 1], [-0.5, 2]]},
        {"kind": "table", "entries": [{"atoms": [[1.0, 1]], "prob": 0.4},
                                      {"atoms": [[1.2, 1], [-0.4, 3]], "prob": 0.6}]},
    ], ids=["dirac", "table"])
    def test_stability_null_passes_when_squared_deviations_underflow(self, tmp_path, decoration):
        # at y = 0.5 the default battery's 17th function leaves exp(-integral)
        # values below 4e-196 on the left side, whose squares underflow to 0;
        # the standard error must come out > 0 rather than declare the sides exact
        process = {"family": "sscdppp", "alpha": 1.5, "decoration": decoration,
                   "scale": {"kind": "deterministic", "value": 1.5}, "window": 0.5}
        cfg = proc_config(tmp_path, {"b1": 1.0, "b2": 2.0}, process=process)
        out = tmp_path / "r.json"
        assert main(["test", "stability", "--config", cfg, "--reps", "3000",
                     "--seed", "7", "--out", str(out)]) == 0
        (sub,) = [s for s in json.loads(out.read_text())["subchecks"]
                  if s["name"] == "laplace_16_y_0.5"]
        assert sub["passed"] and sub["note"] == "" and sub["statistic"] != 0.0

    def test_maxlaw(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "r.json"
        assert main(["test", "maxlaw", "--config", cfg, "--reps", "4000",
                     "--seed", "7", "--out", str(out)]) == 0

    def test_tail(self, tmp_path):
        cfg = proc_config(tmp_path)
        out = tmp_path / "r.json"
        assert main(["test", "tail", "--config", cfg, "--reps", "20000",
                     "--seed", "5", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["test_name"] == "tail_index"
        sub = doc["subchecks"][0]
        assert sub["name"] == "ci_covers_alpha"
        assert abs(sub["statistic"] - 1.0) < 0.3

    @pytest.mark.parametrize("seed", ["3", "7"])
    def test_tail_short_of_samples_exits_one_on_every_seed(self, tmp_path, capsys, seed):
        # about 100 of 100k replicas have an atom above the window 1000, so
        # whether a draw holds 100 would hang on the seed (3 and 7 fall short)
        cfg = proc_config(tmp_path, process=dict(PROC, window=1000.0))
        assert main(["test", "tail", "--config", cfg, "--reps", "100000", "--seed", seed,
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tail estimation needs at least 100 samples")

    @pytest.mark.parametrize("extra, error", [
        ({"points": [1.0, 1.0]}, "two distinct points"),
        ({"battery": [{"id": "z", "kind": "tent", "left": 0.5, "peak": 1.0, "right": 2.0,
                       "height": 0.0}]}, "nonzero function"),
    ], ids=["one_point_twice", "zero_battery"])
    def test_support_refuses_a_vacuous_check(self, tmp_path, capsys, extra, error):
        cfg = proc_config(tmp_path, extra)
        assert main(["test", "support", "--config", cfg, "--reps", "3000",
                     "--out", str(tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and error in err

    def test_support(self, tmp_path):
        cfg = proc_config(tmp_path, {"points": [1.0, 2.0]})
        out = tmp_path / "r.json"
        assert main(["test", "support", "--config", cfg, "--reps", "20000",
                     "--seed", "9", "--out", str(out)]) == 0

    def test_support_excludes_curves_that_meet_no_atom(self, tmp_path):
        # negative atoms only: the one-sided tents f00-f02 never meet one, so
        # their curves are exactly 1 with standard error 0
        process = {"family": "scdppp", "alpha": 2.0, "window": 0.5,
                   "decoration": {"kind": "random_atoms", "count_probs": [[1, 0.5], [2, 0.5]],
                                  "location": {"kind": "table", "values": [-0.6, -1.1, -1.3],
                                               "probs": [0.5, 0.3, 0.2]}}}
        cfg = proc_config(tmp_path, process=process)
        out = tmp_path / "r.json"
        assert main(["test", "support", "--config", cfg, "--reps", "3000",
                     "--seed", "5", "--out", str(out)]) == 0
        checks = {s["name"]: s for s in json.loads(out.read_text())["subchecks"]}
        for fid in ("f00", "f01", "f02"):
            assert checks[f"fit_{fid}"]["note"] == \
                "curve exactly 1 with standard error 0 excluded as trivial"
        assert "curve exactly 1" not in checks["fit_f03"]["note"]
        assert set(json.loads(out.read_text())["params"]["fitted_c"]) == {"f03", "f04"}


class TestExtract:
    def test_success_writes_sidecar(self, tmp_path):
        cfg = proc_config(tmp_path, {"threshold": 20.0, "inner_radius": 0.5,
                                     "n_accepted": 120})
        out = tmp_path / "x.json"
        assert main(["extract", "--config", cfg, "--seed", "17",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_decorations"] == 120
        text = (tmp_path / "x.json.decorations.jsonl").read_text()
        side = text.splitlines()
        assert len(side) == 120
        assert PointMeasure.from_json_line(side[0]).extreme() == 1.0
        # the sidecar is the report's batch of decorations, written as it is
        report = extract_decoration(process_spec_from_config(PROC),
                                    ExtractionConfig(20.0, 0.5, 120), seed=17)
        assert isinstance(report.decorations, MeasureBatch)
        assert text == "".join(report.decorations.json_chunks())
        man = manifest(out)
        assert man["status"] == "ok"
        assert str(tmp_path / "x.json.decorations.jsonl") in man["outputs"]

    def test_decorations_keep_multiplicities_past_2_53(self, tmp_path):
        process = dict(PROC, decoration={"kind": "dirac", "atoms": [[1.0, 2**53 + 1], [0.7, 3]]})
        cfg = proc_config(tmp_path, {"threshold": 100.0, "inner_radius": 0.5,
                                     "n_accepted": 100}, process=process)
        out = tmp_path / "x.json"
        assert main(["extract", "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        side = (tmp_path / "x.json.decorations.jsonl").read_text().splitlines()
        mults = {m for line in side for _, m in json.loads(line)["atoms"]}
        assert 2**53 + 1 in mults and mults <= {2**53 + 1, 3}

    @pytest.mark.parametrize("seed", range(8))
    def test_default_config_succeeds_on_every_seed(self, tmp_path, seed):
        cfg = proc_config(tmp_path, {"threshold": 1000.0, "inner_radius": 0.5})
        out = tmp_path / "x.json"
        assert main(["extract", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["n_decorations"] == 500

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unreachable_threshold_exits_one_before_any_block(self, tmp_path, capsys,
                                                              monkeypatch, seed):
        def no_block(*args):
            raise AssertionError("a block was drawn")
        monkeypatch.setattr(stablepp.sampler, "_block", no_block)
        cfg = proc_config(tmp_path, {"threshold": 2e6, "inner_radius": 0.5})
        out = tmp_path / "x.json"
        assert main(["extract", "--config", cfg, "--seed", str(seed),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: extraction needs 500 samples above the threshold 2e+06")
        assert not out.exists()
        assert not (tmp_path / "x.json.manifest.json").exists()

    def test_max_attempts_is_an_unknown_field(self, tmp_path, capsys):
        cfg = proc_config(tmp_path, {"threshold": 20.0, "inner_radius": 0.5,
                                     "max_attempts": 500_000})
        assert main(["extract", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: config has unknown field(s): ['max_attempts']")

    def test_starvation_exits_two_with_manifest(self, tmp_path, monkeypatch):
        # the residual guard: with the refusal passed and the cap small, a run
        # that runs out of attempts still exits 2 with a starved manifest
        monkeypatch.setattr(stablepp.extraction, "refuse_likely_shortfall",
                            lambda *args: None)
        monkeypatch.setattr(stablepp.extraction, "MAX_REPS", 20_000)
        cfg = proc_config(tmp_path, {"threshold": 1e6, "inner_radius": 0.5,
                                     "n_accepted": 100})
        out = tmp_path / "x.json"
        assert main(["extract", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        man = manifest(out)
        assert man["status"] == "starved"
        assert man["outputs"] == {}


class TestTransform:
    def test_file_roundtrip_byte_identical(self, tmp_path):
        # restoring integer locations of magnitude <= 30 is exact in doubles
        raw = tmp_path / "shift.jsonl"
        raw.write_text(
            '{"atoms": [[-30.0, 1], [-3.0, 2], [0.0, 1], [7.0, 1], [30.0, 1]]}\n'
            '{"atoms": [[-1.0, 3], [2.0, 1]]}\n'
            '{"atoms": []}\n')

        exp_cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "exp",
                                    "input": str(raw)}, "texp.json")
        scale = tmp_path / "scale.jsonl"
        assert main(["transform", "--config", exp_cfg, "--out", str(scale)]) == 0

        log_cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                    "input": str(scale)}, "tlog.json")
        back = tmp_path / "back.jsonl"
        assert main(["transform", "--config", log_cfg, "--out", str(back)]) == 0
        assert back.read_bytes() == raw.read_bytes()

    def test_merged_multiplicity_past_int64_is_named(self, tmp_path, capsys):
        raw = tmp_path / "scale.jsonl"
        raw.write_text('{"atoms": [[2.0, 1]]}\n'
                       '{"atoms": [[1.0, 4611686018427387904], [1, 4611686018427387904]]}\n')
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(raw)})
        out = tmp_path / "shift.jsonl"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: input line 2: multiplicities merged at one location must sum to below 2**63\n")
        assert not out.exists()

    def test_process_mode(self, tmp_path):
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "process": PROC})
        out = tmp_path / "mapped.json"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["process"]["family"] == "dppp"
        assert doc["process"]["c"] == 1.0
        man = manifest(out)
        assert man["direction"] == "log"
        assert man["normalization_shift"] == math.log(1.0) / 1.0

    def test_direction_family_mismatch(self, tmp_path):
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "exp",
                                "process": PROC})
        assert main(["transform", "--config", cfg,
                     "--out", str(tmp_path / "o.json")]) == 1

    def test_malformed_line_names_position(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"atoms": [[1.0, 1]]}\nnot json\n')
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(src)})
        assert main(["transform", "--config", cfg,
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ['[["1.5", 2]]', "[[1.5, 2.7]]", "[[true, true]]",
                                     '[[1.5, "3"]]', "[[1.5, 1%s]]" % ("0" * 5000),
                                     "[[1%s, 1]]" % ("0" * 5000),
                                     "[" * 100_000 + "]" * 100_000],
                             ids=["location_string", "multiplicity_fraction", "booleans",
                                  "multiplicity_string", "multiplicity_digits",
                                  "location_digits", "nesting"])
    def test_malformed_atom_exits_one_naming_first_bad_line(self, tmp_path, capsys, bad):
        src = tmp_path / "in.jsonl"
        # line 4 is the first bad one; line 5 is bad too, in another way
        src.write_text('{"atoms": [[1.0, 1]]}\n\n{"atoms": []}\n'
                       '{"atoms": %s}\n{"atoms": [[0.0, 1]]}\n' % bad)
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(src)})
        out = tmp_path / "o.jsonl"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input line 4: ") and "Traceback" not in err
        assert not out.exists()

    def test_map_failure_names_its_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text('{"atoms": [[1.0, 1]]}\n\n{"atoms": [[-2.0, 1], [3.0, 1]]}\n'
                       '{"atoms": [[-1.0, 1]]}\n')
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(src)})
        assert main(["transform", "--config", cfg,
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: input line 3: log transport")

    @pytest.mark.parametrize("direction, atom", [("log", -2.0), ("exp", 1000.0)])
    @pytest.mark.parametrize("n_lines, map_line, parse_line",
                             [(3, 2, 3), (5000, 10, 4500), (5000, 4500, 4600)],
                             ids=["three_lines", "chunk_one_then_two", "both_in_chunk_two"])
    def test_map_failure_before_a_malformed_line_is_named(
            self, tmp_path, capsys, direction, atom, n_lines, map_line, parse_line):
        # each 4096-line chunk is parsed and mapped before the next is read
        lines = ['{"atoms": [[1.0, 1]]}'] * n_lines
        lines[map_line - 1] = '{"atoms": [[%r, 1]]}' % atom
        lines[parse_line - 1] = "not json"
        src = tmp_path / "in.jsonl"
        src.write_text("\n".join(lines) + "\n")
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": direction,
                                "input": str(src)})
        out = tmp_path / "o.jsonl"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: input line {map_line}: {direction} transport")
        assert not out.exists()

    def test_failed_run_leaves_the_out_path_as_it_was(self, tmp_path, capsys):
        # the bad line is in the second chunk, after the first mapped cleanly
        src = tmp_path / "in.jsonl"
        src.write_text('{"atoms": [[1.0, 1]]}\n' * 4999 + '{"atoms": [[-1.0, 1]]}\n')
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(src)})
        out = tmp_path / "o.jsonl"
        argv = ["transform", "--config", cfg, "--out", str(out)]
        assert main(argv) == 1
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()
        out.write_text("earlier output\n")
        assert main(argv) == 1
        assert out.read_text() == "earlier output\n"
        assert not Path(f"{out}.manifest.json").exists()
        assert capsys.readouterr().err.count("error: input line 5000: log transport") == 2
        assert not Path(f"{out}.part").exists()

    def test_missing_input_is_named(self, tmp_path, capsys):
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": str(tmp_path / "absent.jsonl")})
        out = tmp_path / "o.jsonl"
        assert main(["transform", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read input: ") and "Traceback" not in err
        assert not out.exists() and not Path(f"{out}.part").exists()

    @pytest.mark.parametrize("command", ["sample", "transform"])
    def test_out_path_in_a_missing_directory_is_not_an_input_error(self, tmp_path, capsys,
                                                                   command):
        src = tmp_path / "in.jsonl"
        src.write_text('{"atoms": [[1.0, 1]]}\n')
        cfg = (proc_config(tmp_path) if command == "sample" else
               config(tmp_path, {"schema": "stablepp/v1", "direction": "log", "input": str(src)}))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "absent" / "o.jsonl")]) == 1
        err = capsys.readouterr().err.replace(str(tmp_path), "")
        assert err.startswith("error: ") and "Traceback" not in err and "input" not in err

    def test_both_input_and_process_rejected(self, tmp_path):
        cfg = config(tmp_path, {"schema": "stablepp/v1", "direction": "log",
                                "input": "x.jsonl", "process": PROC})
        assert main(["transform", "--config", cfg,
                     "--out", str(tmp_path / "o.json")]) == 1


# Runs in a fresh interpreter: the test process has scipy loaded, since tests
# use it as a reference.
_COMMANDS_WITHOUT_SCIPY = """
import json, sys
from pathlib import Path
import stablepp.cli

d = Path(sys.argv[1])
dirac = json.loads(sys.argv[2])
uniform = dict(dirac, decoration={"kind": "random_atoms", "count_probs": [[1, 0.5], [2, 0.5]],
                                  "location": {"kind": "uniform", "low": 0.5, "high": 1.5}})

def run(name, argv, doc, reps=None):
    cfg = d / (name + ".json")
    cfg.write_text(json.dumps({"schema": "stablepp/v1", **doc}))
    extra = ["--reps", str(reps)] if reps else []
    rc = stablepp.cli.main([*argv, "--config", str(cfg), "--out", str(d / (name + ".out")),
                            "--seed", "1", *extra])
    assert rc == 0, (name, rc)

run("sample", ["sample"], {"process": uniform}, 20)
run("transform", ["transform"], {"direction": "log", "input": str(d / "sample.out")})
run("estimate", ["estimate"], {"process": uniform}, 200)
run("stability", ["test", "stability"], {"process": dirac, "b1": 1.0, "b2": 2.0}, 2000)
run("maxlaw", ["test", "maxlaw"], {"process": uniform}, 500)
run("support", ["test", "support"], {"process": uniform}, 2000)
run("tail", ["test", "tail"], {"process": dirac}, 2000)
run("extract", ["extract"], {"process": dirac, "threshold": 3.0, "inner_radius": 0.5,
                             "n_accepted": 100})
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""


def test_no_command_imports_scipy(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _COMMANDS_WITHOUT_SCIPY, str(tmp_path),
                           json.dumps(PROC)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the stability report compared maxmods with the two-sample KS test
    report = json.loads((tmp_path / "stability.out").read_text())
    assert report["subchecks"][-1]["name"] == "maxmod_ks"
    assert report["subchecks"][-1]["note"] == ""
