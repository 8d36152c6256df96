"""Command-line front end.

Subcommands: sample, estimate, test {stability|maxlaw|support|tail}, extract,
transform. Every command reads a fail-closed JSON config (versioned schema
field, unknown keys rejected), writes its outputs through a single writer at
the end, and drops a `<out>.manifest.json` next to each output capturing
everything needed to reproduce the bytes: config echo, spec hashes, master
seed, replica counts, truncation values, tool version, and the output
inventory. Repeated runs with the same config and seed are byte-identical,
regardless of --threads.

Exit codes: 0 success or statistical pass, 1 usage/config/IO error,
2 statistical rejection or acceptance starvation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .characterization import (
    SubCheck,
    TestReport,
    maxmod_law_test,
    scale_unique_support_test,
    stability_test,
    tail_index_estimate,
)
from .errors import ConfigError, StableppError, StarvationError
from .extraction import ExtractionConfig, extract_decoration
from .functionals import (
    battery_estimates,
    default_battery,
    default_u_grid,
    default_y_grid,
    predict_scaled_laplace,
    predict_shift_laplace,
    required_window,
    shift_battery,
)
from .point_measure import (
    MeasureBatch,
    PointMeasure,
    ShiftTestFunction,
    TestFunction,
    indicator_approx,
    maxmod_indicator,
    shift_indicator_approx,
    shift_tent,
    tent,
)
from .sampler import (
    CARRIERS,
    MEAN_CAP,
    ProcessSource,
    config_fields,
    kind_fields,
    maxmod_samples,
    resolve_threads,
    run_campaign,
)
from .transform import exp_transform, log_transform, map_process_spec, normalization_shift

_SCHEMA = "stablepp/v1"
_ROLE_CLI_TAIL = (40,)

_DEFAULT_REPS = {
    "sample": 100,
    "estimate": 100_000,
    "stability": 100_000,
    "maxlaw": 10_000,
    "support": 100_000,
    "tail": 100_000,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; 2 is reserved for statistical rejection."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# -- config plumbing ---------------------------------------------------------------


def _load_config(path: str, required, optional=()) -> tuple:
    """(the raw config, its fields read by `config_fields`); "schema" is always required."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}")
    if not isinstance(doc, dict) or doc.get("schema") != _SCHEMA:
        raise ConfigError(f'the config must be a JSON object declaring "schema": "{_SCHEMA}"')
    return doc, config_fields(doc, "config", ("schema", *required), optional)


# battery function kind -> (required, optional) fields besides "id" and "kind"
_FUNCTION_FIELDS = {
    "tent": (("left", "peak", "right"), ("height",)),
    "shift_tent": (("left", "peak", "right"), ("height",)),
    "indicator": (("level", "edge"), ("outer", "ramp", "symmetric")),
    "maxmod_indicator": (("plateau",), ("edge", "outer", "ramp")),
    "shift_indicator": (("level", "edge", "outer"), ("ramp",)),
    "knots": (("knots",), ()),
    "shift_knots": (("knots",), ()),
}
# carrier -> {battery function kind: constructor taking the kind's fields}
_FUNCTION_MAKERS = {
    "scale": {"tent": tent, "indicator": indicator_approx,
              "maxmod_indicator": maxmod_indicator, "knots": TestFunction},
    "shift": {"shift_tent": shift_tent, "shift_indicator": shift_indicator_approx,
              "shift_knots": ShiftTestFunction},
}


def _carrier_defaults(carrier: str):
    """(battery, points, predictor) of a carrier, built per call from the current bindings."""
    return {"scale": (default_battery, default_y_grid, predict_scaled_laplace),
            "shift": (shift_battery, default_u_grid, predict_shift_laplace)}[carrier]


def _battery(fields: dict, carrier: str) -> dict:
    """The config's battery, or the carrier's default one, as {id: function}."""
    entries = fields.get("battery", "default")
    if entries == "default":
        return _carrier_defaults(carrier)[0]()
    out = {}
    for i, entry in enumerate(entries):
        params = kind_fields(entry, f"config.battery[{i}]", _FUNCTION_FIELDS, required=("id",))
        fid, kind = params.pop("id"), params.pop("kind")
        if kind not in _FUNCTION_MAKERS[carrier]:
            raise ConfigError(f"{fid}: {kind} functions do not apply to a {carrier} family")
        if fid in out:
            raise ConfigError(f"duplicate battery id: {fid}")
        out[fid] = _FUNCTION_MAKERS[carrier][kind](**params)
    return out


def _points(fields: dict, carrier: str, key: str = "points"):
    return fields.get(key, _carrier_defaults(carrier)[1])


# -- output plumbing ---------------------------------------------------------------


def _write_chunks(path: str, chunks) -> int:
    """Write text chunks one after another, return their line count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for text in chunks:
            fh.write(text)
            n += text.count("\n")
    return n


def _write_text(path: str, text: str) -> int:
    """Write text, return its line count."""
    return _write_chunks(path, (text,))


def _write_manifest(out_path: str, command: str, config: dict, *, seed, reps,
                    spec_hashes, outputs: dict, status: str = "ok", extra=None):
    doc = {
        "schema": _SCHEMA,
        "command": command,
        "tool_version": __version__,
        "config": config,
        "master_seed": seed,
        "replica_counts": reps,
        "spec_hashes": spec_hashes,
        "truncation": {"poisson_mean_cap": MEAN_CAP},
        "outputs": outputs,
        "status": status,
    }
    if extra:
        doc.update(extra)
    _write_text(out_path + ".manifest.json",
                json.dumps(doc, sort_keys=True, indent=2) + "\n")


# -- commands ----------------------------------------------------------------------


def cmd_sample(args) -> int:
    doc, fields = _load_config(args.config, ("process",))
    spec = fields["process"]
    reps = args.reps if args.reps is not None else _DEFAULT_REPS["sample"]
    threads = resolve_threads(args.threads)
    campaign = run_campaign(ProcessSource(spec), args.seed, reps, threads)
    n = _write_chunks(args.out, campaign.measures().json_chunks())
    _write_manifest(args.out, "sample", doc, seed=args.seed, reps=reps,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": n}},
                    extra={"window": spec.window, "carrier": spec.carrier})
    return 0


def cmd_estimate(args) -> int:
    doc, fields = _load_config(args.config, ("process",), ("battery", "points"))
    spec = fields["process"]
    functions = _battery(fields, spec.carrier)
    points = _points(fields, spec.carrier)
    reps = args.reps if args.reps is not None else _DEFAULT_REPS["estimate"]
    threads = resolve_threads(args.threads)
    estimates = battery_estimates(spec, functions, points, reps, args.seed,
                                  threads=threads)
    predict = _carrier_defaults(spec.carrier)[2]
    rows = ["f_id,point,value,std_error,predicted,predicted_error"]
    for fid in sorted(functions):
        # one call for all points; tolist gives Python floats, whose repr the CSV uses
        pred = predict(spec, functions[fid], points)
        for p, value, bound in zip(points, pred.value.tolist(), pred.error_bound.tolist()):
            est = estimates[(fid, p)]
            rows.append(f"{fid},{p!r},{est.value!r},{est.std_error!r},{value!r},{bound!r}")
    n = _write_text(args.out, "\n".join(rows) + "\n")
    _write_manifest(args.out, "estimate", doc, seed=args.seed, reps=reps,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": n}},
                    extra={"window": required_window(spec, functions.values(), points),
                           "battery_ids": sorted(functions), "points": points})
    return 0


# test kind -> (required, optional) config fields besides "schema" and "process"
_TEST_FIELDS = {
    "stability": (("b1", "b2"), ("rhs_scale_factor", "battery", "points")),
    "maxlaw": ((), ("censor_mass",)),
    "support": ((), ("battery", "y_grid")),
    "tail": ((), ("k",)),
}


def cmd_test(args) -> int:
    kind = args.kind
    required, optional = _TEST_FIELDS[kind]
    doc, fields = _load_config(args.config, ("process", *required), optional)
    spec = fields["process"]
    level = args.level
    threads = resolve_threads(args.threads)
    reps = args.reps if args.reps is not None else _DEFAULT_REPS[kind]

    if kind == "stability":
        functions = _battery(fields, spec.carrier)
        battery = [(f, y) for f in functions.values() for y in _points(fields, spec.carrier)]
        report = stability_test(
            spec, fields["b1"], fields["b2"], battery=battery,
            n_reps=reps, level=level, seed=args.seed,
            rhs_scale_factor=fields.get("rhs_scale_factor", 1.0), threads=threads)
    elif kind == "maxlaw":
        report = maxmod_law_test(spec, n_reps=reps, seed=args.seed, level=level,
                                 censor_mass=fields.get("censor_mass", 1e-6),
                                 threads=threads)
    elif kind == "support":
        report = scale_unique_support_test(
            spec, battery=list(_battery(fields, spec.carrier).values()),
            y_grid=_points(fields, spec.carrier, "y_grid"), n_reps=reps, seed=args.seed,
            threads=threads)
    else:
        mm = maxmod_samples(spec, reps, args.seed, threads=threads,
                            role=_ROLE_CLI_TAIL)
        positive = mm[mm > 0.0]
        est = tail_index_estimate(positive, fields.get("k"))
        covered = est.covers(spec.alpha)
        sub = SubCheck(
            "ci_covers_alpha",
            "the maxmod upper tail is regularly varying with the spec's index",
            est.alpha_hat, None, covered,
            f"k = {est.k}, 95% half width {est.ci_half_width:.6g}")
        report = TestReport("tail_index", covered, level, reps, args.seed, (sub,),
                            params={"spec": spec.to_config_dict(),
                                    "alpha": spec.alpha,
                                    "n_positive": int(positive.size)})

    text = report.to_json() + "\n"
    _write_text(args.out, text)
    _write_manifest(args.out, f"test {kind}", doc, seed=args.seed, reps=reps,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": 1}},
                    status="ok" if report.passed else "rejected")
    sys.stdout.write(text)
    return 0 if report.passed else 2


def cmd_extract(args) -> int:
    doc, fields = _load_config(args.config, ("process", "threshold", "inner_radius"),
                               ("n_accepted", "max_attempts"))
    spec = fields.pop("process")
    del fields["schema"]
    cfg = ExtractionConfig(**fields)
    threads = resolve_threads(args.threads)
    try:
        report = extract_decoration(spec, cfg, seed=args.seed, threads=threads)
    except StarvationError as e:
        _write_manifest(args.out, "extract", doc, seed=args.seed,
                        reps=cfg.max_attempts, spec_hashes=[spec.spec_hash()],
                        outputs={}, status="starved", extra={"error": str(e)})
        print(f"error: {e}", file=sys.stderr)
        return 2
    sidecar = args.out + ".decorations.jsonl"
    n_rep = _write_text(args.out,
                        json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    n_dec = _write_chunks(sidecar,
                          MeasureBatch.of(report.decorations, PointMeasure).json_chunks())
    _write_manifest(args.out, "extract", doc, seed=args.seed, reps=report.attempts,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": n_rep}, sidecar: {"lines": n_dec}},
                    extra={"window": report.params["window"],
                           "acceptance_rate": report.acceptance_rate})
    return 0


def cmd_transform(args) -> int:
    doc, fields = _load_config(args.config, ("direction",), ("input", "process"))
    direction = fields["direction"]
    if direction not in ("log", "exp"):
        raise ConfigError('direction must be "log" or "exp"')
    source, op = {"log": ("scale", log_transform), "exp": ("shift", exp_transform)}[direction]
    if ("input" in fields) == ("process" in fields):
        raise ConfigError('provide exactly one of "input" (measure lines) or "process"')

    if "input" in fields:
        try:
            with open(fields["input"], "r", encoding="utf-8") as fh:
                raw = fh.read().splitlines()
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read input: {e}")
        try:
            batch = MeasureBatch.from_json_lines(raw, CARRIERS[source].measure)
        except ConfigError as e:
            raise ConfigError(f"input {e}")
        try:
            out = op(batch)
        except StableppError:
            # name the first measure the map fails on
            numbers = [k for k, line in enumerate(raw, 1) if line.strip()]
            for k, m in zip(numbers, batch):
                try:
                    op(m)
                except StableppError as e:
                    raise ConfigError(f"input line {k}: {e}")
            raise
        n = _write_chunks(args.out, out.json_chunks())
        _write_manifest(args.out, "transform", doc, seed=args.seed, reps=n,
                        spec_hashes=[], outputs={args.out: {"lines": n}},
                        extra={"direction": direction})
        return 0

    spec = fields["process"]
    if spec.carrier != source:
        raise ConfigError(f"direction {direction} applies to {source} families")
    mapped = map_process_spec(spec)
    out_doc = {"schema": _SCHEMA, "process": mapped.to_config_dict()}
    _write_text(args.out, json.dumps(out_doc, sort_keys=True, indent=2) + "\n")
    _write_manifest(args.out, "transform", doc, seed=args.seed, reps=0,
                    spec_hashes=[spec.spec_hash(), mapped.spec_hash()],
                    outputs={args.out: {"lines": 1}},
                    extra={"direction": direction,
                           "normalization_shift": normalization_shift(spec.alpha)})
    return 0


# -- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stablepp",
                     description="Simulation and verification of scale- and "
                                 "shift-decorated Poisson point processes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_reps_hint):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--reps", type=int, default=None,
                       help=f"replica count (default {default_reps_hint})")
        p.add_argument("--level", type=float, default=0.01,
                       help="test level (default 0.01)")
        p.add_argument("--threads", type=int, default=None,
                       help="parallel width; default STABLEPP_THREADS or 1; "
                            "outputs are identical across values")

    p = sub.add_parser("sample", help="draw replicas, write point-measure lines")
    common(p, _DEFAULT_REPS["sample"])
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="Laplace-functional battery to CSV")
    common(p, _DEFAULT_REPS["estimate"])
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="statistical verification, JSON report")
    p.add_argument("kind", choices=["stability", "maxlaw", "support", "tail"])
    common(p, "per kind")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("extract", help="conditional decoration extraction")
    common(p, "driven by config")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("transform", help="carry measures or a spec across carriers")
    common(p, "not used")
    p.set_defaults(func=cmd_transform)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    t0 = time.monotonic()
    try:
        code = args.func(args)
    except StarvationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (StableppError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"[stablepp] {args.command} finished in {time.monotonic() - t0:.1f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
