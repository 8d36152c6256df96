"""Acceptance gate.

One test per acceptance criterion, each printing a single pass/fail line.
Every tolerance is stated next to the assertion it guards. Run with

    pytest tests/test_acceptance.py -s
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from stablepp.characterization import (
    fit_scale_template,
    scale_unique_support_test,
    stability_test,
    tail_index_estimate,
)
from stablepp.cli import main as cli_main
from stablepp.extraction import ExtractionConfig, extract_decoration, rebuild_process
from stablepp.functionals import (
    ExtremeLaw,
    battery_estimates,
    cf_estimate,
    cf_quadrature,
    default_battery,
    predict_scaled_laplace,
    predict_shift_laplace,
)
from stablepp.point_measure import (
    PointMeasure,
    TestFunction,
    indicator_approx,
    integrate,
    tent,
)
from stablepp.sampler import (
    DecorationSpec,
    GlobalLaw,
    ProcessSource,
    ProcessSpec,
    maxmod_samples,
    run_campaign,
)
from stablepp.transform import exp_function, exp_transform, log_transform, map_process_spec

DIRAC = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {n}: {label}", flush=True)
                raise
            print(f"[PASS] criterion {n}: {label}", flush=True)
        return wrapper
    return deco


@criterion(1, "maxmod of ScDPPP(1, dirac_1) follows the unit Frechet law")
def test_frechet_max_law():
    mm = maxmod_samples(DIRAC, 10_000, 7)
    ks = stats.kstest(mm, lambda x: np.exp(-1.0 / np.asarray(x)))
    assert ks.statistic < 0.02
    assert ks.pvalue > 0.01


@criterion(2, "decoration constant closed forms 0.5 and 0.625")
def test_cf_closed_forms():
    # ln2 step approximant; the ramp and outer cutoff contribute a known bias
    ramp, outer = 1e-7, 1e7
    f = indicator_approx(math.log(2.0), edge=1.0, outer=outer, ramp=ramp)

    single = DecorationSpec.dirac([(1.0, 1)])
    pred = cf_quadrature(1.0, single, f)
    correction = 0.5 * ramp + 0.5 / outer + pred.error_bound
    assert correction < 1e-6
    assert abs(pred.value - 0.5) <= 1e-6 + correction

    double = DecorationSpec.dirac([(1.0, 1), (0.5, 1)])
    pred2 = cf_quadrature(1.0, double, f)
    correction2 = 0.75 * (ramp + ramp / 4.0) + 0.75 / outer + pred2.error_bound
    assert correction2 < 1e-6
    assert abs(pred2.value - 0.625) <= 1e-6 + correction2

    mc = cf_estimate(1.0, single, f, 100_000, seed=5)
    assert abs(mc.value - 0.5) <= 3.0 * mc.std_error


@criterion(3, "scaled Laplace estimates match predictions over battery x grid x laws")
def test_scaled_laplace_agreement():
    laws = {
        "w_one": (DIRAC, 101),
        "w_two": (ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]),
                              0.05, law=GlobalLaw.deterministic(2.0)), 102),
        "w_table": (ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]),
                                0.05,
                                law=GlobalLaw.table([1.0, 2.0], [0.5, 0.5])),
                    103),
    }
    battery = default_battery("scale")
    points = (0.5, 1.0, 2.0, 4.0)
    for spec, seed in laws.values():
        estimates = battery_estimates(spec, battery, points, 100_000, seed)
        assert len(estimates) == len(battery) * len(points)
        for (fid, y), est in estimates.items():
            pred = predict_scaled_laplace(spec, battery[fid], y)
            assert abs(est.value - pred.value) <= \
                3.0 * est.std_error + pred.error_bound


@criterion(4, "stability holds and the 1.5x control is rejected on every seed")
def test_stability():
    report = stability_test(DIRAC, 1.0, 1.0, n_reps=100_000, level=0.01, seed=3)
    assert report.passed

    rejected = 0
    for s in range(20):
        control = stability_test(DIRAC, 1.0, 1.0, n_reps=20_000, level=0.01,
                                 seed=1000 + s, rhs_scale_factor=1.5)
        rejected += 0 if control.passed else 1
    assert rejected / 20 >= 0.99


@criterion(5, "scale-unique support: pure laws fit, the alpha mixture does not")
def test_scale_unique_support():
    for alpha, seed in ((1.0, 9), (2.0, 15)):
        spec = ProcessSpec("scdppp", alpha, DecorationSpec.dirac([(1.0, 1)]), 0.05)
        report = scale_unique_support_test(spec, n_reps=30_000, seed=seed)
        assert report.passed

    # the equal mixture of alpha=1 and alpha=2 maxmod laws is no scale
    # translate of either pure template; its residual floor is analytic
    ys = np.array([0.5, 1.0, 2.0, 4.0])
    mixed = 0.5 * (np.exp(-1.0 / ys) + np.exp(-1.0 / ys ** 2))
    ses = np.full(4, 1.5e-3)
    for alpha in (1.0, 2.0):
        template = ExtremeLaw("scale", alpha, 1.0).cdf
        c_hat, residual, pooled = fit_scale_template(ys, mixed, ses, template)
        assert residual >= 5.0 * pooled


@criterion(6, "Hill estimate within 10 percent of the tail index")
def test_tail_regular_variation():
    for alpha in (1.0, 2.0):
        law = ExtremeLaw("scale", alpha, 1.0)
        hats = []
        for s in range(50):
            x = np.asarray(law.sample(100_000, 500 + s))
            hats.append(tail_index_estimate(x).alpha_hat)
        assert abs(float(np.mean(hats)) / alpha - 1.0) <= 0.10


@criterion(7, "decoration extraction and process rebuild close the loop")
def test_extraction():
    t0 = time.monotonic()
    report = extract_decoration(
        DIRAC, ExtractionConfig(100.0, 0.5, 500), seed=17)
    assert report.pareto_ks < 0.05
    singles = sum(1 for m in report.decorations if m.total_mass == 1)
    assert singles / len(report.decorations) >= 0.95
    assert report.independence_p > 0.01
    rebuilt = rebuild_process(report, n_reps=20_000, seed=41)
    assert rebuilt.passed
    assert time.monotonic() - t0 <= 120.0


@criterion(8, "log/exp transport: exact roundtrip, change of variable, image laws")
def test_transform():
    # integer shift locations restore bit-exactly through exp then log
    t = PointMeasure([float(k) for k in range(-30, 31)],
                     [1 + (k % 3) for k in range(-30, 31)], carrier="shift")
    back = log_transform(exp_transform(t))
    assert back.to_json_line() == t.to_json_line()

    # dilation by t on the scale side is translation by log t underneath
    shift_spec = ProcessSpec("dppp", 1.0,
                             DecorationSpec.dirac([(0.0, 1)], carrier="shift"),
                             -4.0)
    campaign = run_campaign(ProcessSource(shift_spec), 11, 200)
    u = tent(0.5, 1.0, 8.0)
    for tt in (0.5, 1.0, 2.0):
        lt = math.log(tt)
        ut = TestFunction(list(zip(u.knots_x / (1.0 / tt), u.knots_v)))  # x -> u(x / tt)
        for i in range(0, 200, 7):
            T = campaign.replica_measure(i)
            lhs = integrate(exp_transform(T), ut)
            rhs = sum(mult * float(u.eval(math.exp(z - lt)))
                      for z, mult in T.atoms())
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    # image of the unit-Frechet maxmod under log is standard Gumbel
    mm = maxmod_samples(DIRAC, 10_000, 19)
    image_max = np.log(mm[mm > 0.0])
    ks = stats.kstest(image_max, lambda x: np.exp(-np.exp(-np.asarray(x))))
    assert ks.statistic < 0.02

    # shift-Laplace of the image matches the predicted h on a u-grid; the
    # transported function turns the image integral into a scale integral
    g = tent(0.0, 1.0, 2.0, carrier="shift")
    f_img = exp_function(g)
    mapped = map_process_spec(DIRAC)
    camp = run_campaign(ProcessSource(DIRAC), 211, 30_000)
    for uu in (0.0, 1.0, 2.0, 20.0):
        vals = np.exp(-camp.laplace_integrals([(f_img, math.exp(uu))])[0])
        est = float(np.mean(vals))
        se = float(np.std(vals, ddof=1)) / math.sqrt(vals.size)
        pred = predict_shift_laplace(mapped, g, uu)
        # exp(-20) covers the mass the truncated window cannot represent
        assert abs(est - pred.value) <= \
            3.0 * se + pred.error_bound + math.exp(-20.0)


@criterion(9, "every CLI command is byte-identical across reruns and threads")
def test_cli_reproducibility(tmp_path):
    proc = {"family": "scdppp", "alpha": 1.0,
            "decoration": {"kind": "dirac", "atoms": [[1.0, 1]]},
            "window": 0.05}

    def cfg(name, extra=None):
        doc = {"schema": "stablepp/v1", "process": proc}
        if extra:
            doc.update(extra)
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    measures = tmp_path / "in.jsonl"
    measures.write_text('{"atoms": [[1.0, 1], [4.0, 2]]}\n')
    tcfg = tmp_path / "t.json"
    tcfg.write_text(json.dumps({"schema": "stablepp/v1", "direction": "log",
                                "input": str(measures)}))

    commands = {
        "sample": ["sample", "--config", cfg("s.json"), "--reps", "200"],
        "estimate": ["estimate", "--config", cfg("e.json"), "--reps", "2000"],
        "test stability": ["test", "stability",
                           "--config", cfg("ts.json", {"b1": 1.0, "b2": 1.0}),
                           "--reps", "5000"],
        "test maxlaw": ["test", "maxlaw", "--config", cfg("tm.json"),
                        "--reps", "2000"],
        "test support": ["test", "support", "--config", cfg("tu.json"),
                         "--reps", "5000"],
        "test tail": ["test", "tail", "--config", cfg("tt.json"),
                      "--reps", "5000"],
        "extract": ["extract", "--config",
                    cfg("x.json", {"threshold": 20.0, "inner_radius": 0.5,
                                   "n_accepted": 100})],
        "transform": ["transform", "--config", str(tcfg)],
    }
    for label, argv in commands.items():
        out = tmp_path / (label.replace(" ", "_") + ".out")
        man = tmp_path / (label.replace(" ", "_") + ".out.manifest.json")
        runs = []
        for threads in ("1", "1", "4"):
            code = cli_main(argv + ["--seed", "3", "--out", str(out),
                                    "--threads", threads])
            assert code == 0, label
            runs.append((out.read_bytes(), man.read_bytes()))
        assert runs[0] == runs[1], f"{label}: rerun differs"
        assert runs[0] == runs[2], f"{label}: thread count leaks into output"


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-q"]))
