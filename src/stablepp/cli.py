"""Command-line front end.

Subcommands: sample, estimate, test {stability|maxlaw|support|tail}, extract,
transform. Every command reads a fail-closed JSON config (versioned schema
field, unknown keys rejected), writes each output to `<out>.part` as it goes,
renamed onto `<out>` once whole, and drops a `<out>.manifest.json` beside it capturing
everything needed to reproduce the bytes: config echo, spec hashes, master
seed, replica counts, truncation values, tool version, and the output
inventory. Repeated runs with the same config and seed are byte-identical,
regardless of --threads.

Exit codes: 0 success or statistical pass, 1 usage/config/IO error,
2 statistical rejection; an extraction that starves although its analytic
acceptance rate rules that out is one.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
import time
from functools import partial
from itertools import chain

from . import __version__
from .characterization import (
    maxmod_law_test,
    scale_unique_support_test,
    stability_test,
    tail_index_test,
)
from .errors import ConfigError, DomainError, StableppError, StarvationError
from .extraction import ExtractionConfig, extract_decoration
from .functionals import (
    battery_estimates,
    default_battery,
    default_points,
    predict_scaled_laplace,
    predict_shift_laplace,
    required_window,
)
from .point_measure import (
    MeasureBatch,
    TestFunction,
    indicator_approx,
    shift_indicator_approx,
    tent,
)
from .sampler import (
    MAX_REPS,
    MEAN_CAP,
    FlatCampaign,
    ProcessSource,
    _blocks,
    config_fields,
    kind_fields,
    resolve_threads,
)
from .transform import exp_transform, log_transform, map_process_spec, normalization_shift

_SCHEMA = "stablepp/v1"


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
    except ValueError:  # json reads integers with int, which caps their digits
        raise ConfigError(f"config {path} holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to read") from None
    if not isinstance(doc, dict) or doc.get("schema") != _SCHEMA:
        raise ConfigError(f'the config must be a JSON object declaring "schema": "{_SCHEMA}"')
    return doc, config_fields(doc, "config", ("schema", *required), optional)


def _input_lines(fh):
    """The lines of the binary file `fh` as str.splitlines splits its text, read lazily."""
    at = 0
    for raw in fh:
        try:
            yield from raw.decode("utf-8").splitlines()
        except UnicodeDecodeError as e:
            raise UnicodeError(f"invalid UTF-8 at byte {at + e.start}: {e.reason}") from None
        at += len(raw)


def _mapped_input(fh, carrier: str, op):
    """The measure lines of the binary file `fh` on `carrier`, mapped by `op` a
    batch at a time; failing to read or parse them is a ConfigError naming the input."""
    try:
        for batch in MeasureBatch.batches_from_json_lines(_input_lines(fh), carrier, op):
            yield from batch.json_chunks()
    except (OSError, UnicodeError) as e:
        raise ConfigError(f"cannot read input: {e}")
    except ConfigError as e:
        raise ConfigError(f"input {e}")


# battery function kind -> (required, optional) fields besides "id" and "kind"
_FUNCTION_FIELDS = {
    "tent": (("left", "peak", "right"), ("height",)),
    "shift_tent": (("left", "peak", "right"), ("height",)),
    "indicator": (("level", "edge"), ("outer", "ramp", "symmetric")),
    "shift_indicator": (("level", "edge", "outer"), ("ramp",)),
    "knots": (("knots",), ()),
    "shift_knots": (("knots",), ()),
}
# carrier -> {battery function kind: constructor taking the kind's fields}
_FUNCTION_MAKERS = {
    "scale": {"tent": tent, "indicator": indicator_approx, "knots": TestFunction},
    "shift": {"shift_tent": partial(tent, carrier="shift"),
              "shift_indicator": shift_indicator_approx,
              "shift_knots": partial(TestFunction, carrier="shift")},
}


def _battery(fields: dict, carrier: str) -> dict:
    """The config's battery, or the carrier's default one, as {id: function}."""
    entries = fields.get("battery", "default")
    if entries == "default":
        return default_battery(carrier)
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


# -- output plumbing ---------------------------------------------------------------


def _write_chunks(path: str, chunks) -> int:
    """Write text chunks one after another to `<path>.part`, rename it onto `path`
    once all are written (remove it on any failure), return their line count."""
    part, n = path + ".part", 0
    try:
        with open(part, "w", encoding="utf-8") as fh:
            for text in chunks:
                fh.write(text)
                n += text.count("\n")
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise
    return n


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
    _write_chunks(out_path + ".manifest.json", [json.dumps(doc, sort_keys=True, indent=2) + "\n"])


# -- commands ----------------------------------------------------------------------


def cmd_sample(args) -> int:
    doc, fields = _load_config(args.config, ("process",))
    spec = fields["process"]
    blocks = _blocks(ProcessSource(spec), args.seed, args.reps, FlatCampaign.measures,
                     args.threads, ())
    n = _write_chunks(args.out, chain.from_iterable(b.json_chunks() for b in blocks))
    _write_manifest(args.out, "sample", doc, seed=args.seed, reps=args.reps,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": n}},
                    extra={"window": spec.window, "carrier": spec.carrier})
    return 0


def cmd_estimate(args) -> int:
    doc, fields = _load_config(args.config, ("process",), ("battery", "points"))
    spec = fields["process"]
    functions = _battery(fields, spec.carrier)
    points = fields.get("points", default_points(spec.carrier))
    estimates = battery_estimates(spec, functions, points, args.reps, args.seed,
                                  threads=args.threads)
    # looked up per call in the current bindings, which a tracer may rebind
    predict = {"scale": predict_scaled_laplace, "shift": predict_shift_laplace}[spec.carrier]
    rows = ["f_id,point,value,std_error,predicted,predicted_error"]
    for fid in sorted(functions):
        # one call for all points; tolist gives Python floats, whose repr the CSV uses
        pred = predict(spec, functions[fid], points)
        for p, value, bound in zip(points, pred.value.tolist(), pred.error_bound.tolist()):
            est = estimates[(fid, p)]
            rows.append(f"{fid},{p!r},{est.value!r},{est.std_error!r},{value!r},{bound!r}")
    n = _write_chunks(args.out, ["\n".join(rows) + "\n"])
    _write_manifest(args.out, "estimate", doc, seed=args.seed, reps=args.reps,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": n}},
                    extra={"window": required_window(spec, functions.values(), points),
                           "battery_ids": sorted(functions), "points": points})
    return 0


def _test_kinds() -> dict:
    """test kind -> (its test function; its required and optional config fields
    besides "schema" and "process", which the function takes as keywords).

    Built per call from the current bindings, which a tracer may rebind."""
    return {
        "stability": (stability_test, ("b1", "b2"), ("rhs_scale_factor", "battery", "points")),
        "maxlaw": (maxmod_law_test, (), ()),
        "support": (scale_unique_support_test, (), ("battery", "points")),
        "tail": (tail_index_test, (), ()),
    }


def cmd_test(args) -> int:
    kinds = _test_kinds()
    test, required, optional = kinds[args.kind]
    doc, fields = _load_config(args.config, ("process", *required), optional)
    del fields["schema"]
    spec = fields.pop("process")
    if args.level is not None:
        readers = [k for k, (fn, _, _) in kinds.items()
                   if "level" in inspect.signature(fn).parameters]
        if args.kind not in readers:
            raise DomainError(f"--level applies to the {' and '.join(readers)} tests only")
        fields["level"] = args.level
    if args.reps is not None:
        fields["n_reps"] = args.reps
    if "battery" in fields:
        fields["battery"] = _battery(fields, spec.carrier)
    report = test(spec, seed=args.seed, threads=args.threads, **fields)

    text = report.to_json() + "\n"
    _write_chunks(args.out, [text])
    _write_manifest(args.out, f"test {args.kind}", doc, seed=args.seed, reps=report.n_reps,
                    spec_hashes=[spec.spec_hash()],
                    outputs={args.out: {"lines": 1}},
                    status="ok" if report.passed else "rejected")
    sys.stdout.write(text)
    return 0 if report.passed else 2


def cmd_extract(args) -> int:
    doc, fields = _load_config(args.config, ("process", "threshold", "inner_radius"),
                               ("n_accepted",))
    spec = fields.pop("process")
    del fields["schema"]
    cfg = ExtractionConfig(**fields)
    try:
        report = extract_decoration(spec, cfg, seed=args.seed, threads=args.threads)
    except StarvationError as e:
        _write_manifest(args.out, "extract", doc, seed=args.seed,
                        reps=MAX_REPS, spec_hashes=[spec.spec_hash()],
                        outputs={}, status="starved", extra={"error": str(e)})
        print(f"error: {e}", file=sys.stderr)
        return 2
    sidecar = args.out + ".decorations.jsonl"
    n_rep = _write_chunks(args.out, [json.dumps(report.to_json_dict(), sort_keys=True) + "\n"])
    n_dec = _write_chunks(sidecar, report.decorations.json_chunks())
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
            fh = open(fields["input"], "rb")
        except OSError as e:
            raise ConfigError(f"cannot read input: {e}")
        with fh:
            n = _write_chunks(args.out, _mapped_input(fh, source, op))
        _write_manifest(args.out, "transform", doc, seed=args.seed, reps=n,
                        spec_hashes=[], outputs={args.out: {"lines": n}},
                        extra={"direction": direction})
        return 0

    spec = fields["process"]
    if spec.carrier != source:
        raise ConfigError(f"direction {direction} applies to {source} families")
    mapped = map_process_spec(spec)
    out_doc = {"schema": _SCHEMA, "process": mapped.to_config_dict()}
    _write_chunks(args.out, [json.dumps(out_doc, sort_keys=True, indent=2) + "\n"])
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

    def common(p, reps=None):
        """--config, --out, --seed and --threads; --reps where the command has
        a replica count, defaulting to `reps`, or where `reps` is "per kind" to
        the default of the kind's test function."""
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        if reps is not None:
            p.add_argument("--reps", type=int, default=None if reps == "per kind" else reps,
                           help=f"replica count (default {reps})")
        p.add_argument("--threads", type=int, default=None,
                       help="parallel width; default STABLEPP_THREADS or 1; "
                            "outputs are identical across values")

    p = sub.add_parser("sample", help="draw replicas, write point-measure lines")
    common(p, 100)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("estimate", help="Laplace-functional battery to CSV")
    common(p, 100_000)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("test", help="statistical verification, JSON report")
    p.add_argument("kind", choices=list(_test_kinds()))
    common(p, "per kind")
    p.add_argument("--level", type=float, default=None,
                   help="test level in (0, 1) of stability and maxlaw (default 0.01)")
    p.set_defaults(func=cmd_test)

    p = sub.add_parser("extract", help="conditional decoration extraction")
    common(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("transform", help="carry measures or a spec across carriers")
    common(p)
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
        args.threads = resolve_threads(args.threads)
        code = args.func(args)
    except (StableppError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(f"[stablepp] {args.command} finished in {time.monotonic() - t0:.1f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
