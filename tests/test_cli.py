import contextlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import stablepp.sampler
from stablepp.cli import main
from stablepp.extraction import ExtractionConfig, extract_decoration
from stablepp.point_measure import MeasureBatch, PointMeasure, ShiftPointMeasure
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
        monkeypatch.setenv("STABLEPP_THREADS", "abc")
        cfg = proc_config(tmp_path)
        assert main(["sample", "--config", cfg, "--reps", "10",
                     "--out", str(tmp_path / "o.jsonl")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "STABLEPP_THREADS" in err
        assert "Traceback" not in err

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
        assert main(command + ["--config", cfg, "--reps", "100",
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

    def test_shift_config_for_scale_command_flows_through(self, tmp_path):
        cfg = proc_config(tmp_path, process=SHIFT_PROC)
        out = tmp_path / "o.jsonl"
        assert main(["sample", "--config", cfg, "--reps", "50",
                     "--out", str(out)]) == 0
        m = ShiftPointMeasure.from_json_line(out.read_text().splitlines()[0])
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


class TestThreadBound:
    @pytest.mark.parametrize("cpus,width", [(3, 3), (64, 4)])
    def test_huge_thread_count_is_clamped(self, tmp_path, monkeypatch, cpus, width):
        # 4 blocks of replicas; the pool is min(threads, blocks, cpu count) wide
        widths = []

        class RecordingPool:
            """Stand-in for ThreadPoolExecutor: records its width, runs jobs inline."""

            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

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
                                     "n_accepted": 120, "max_attempts": 40000})
        out = tmp_path / "x.json"
        assert main(["extract", "--config", cfg, "--seed", "17",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_decorations"] == 120
        text = (tmp_path / "x.json.decorations.jsonl").read_text()
        side = text.splitlines()
        assert len(side) == 120
        assert PointMeasure.from_json_line(side[0]).maxmod() == 1.0
        # the sidecar is the report's batch of decorations, written as it is
        report = extract_decoration(process_spec_from_config(PROC),
                                    ExtractionConfig(20.0, 0.5, 120, 40000), seed=17)
        assert isinstance(report.decorations, MeasureBatch)
        assert text == report.decorations.json_lines()
        man = manifest(out)
        assert man["status"] == "ok"
        assert str(tmp_path / "x.json.decorations.jsonl") in man["outputs"]

    def test_starvation_exits_two_with_manifest(self, tmp_path):
        cfg = proc_config(tmp_path, {"threshold": 1e6, "inner_radius": 0.5,
                                     "n_accepted": 100, "max_attempts": 500})
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
                                     '[[1.5, "3"]]'],
                             ids=["location_string", "multiplicity_fraction", "booleans",
                                  "multiplicity_string"])
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
