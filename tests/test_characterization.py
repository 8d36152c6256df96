import dataclasses
import json
import math
import re

import numpy as np
import pytest

from stablepp.errors import DomainError
from stablepp.characterization import (
    SubCheck,
    TailIndexEstimate,
    TestReport,
    censor_window,
    fit_scale_template,
    ks_censored,
    maxmod_law_test,
    scale_unique_support_test,
    stability_test,
    tail_index_estimate,
)
from stablepp.functionals import ExtremeLaw, default_battery, extreme_law
from stablepp.point_measure import PointMeasure, tent
from stablepp.rng import ROLE_SCALAR, make_generator
from stablepp.sampler import DecorationSpec, ProcessSpec, ScaleLaw


def dirac_spec(alpha=1.0, window=0.05):
    return ProcessSpec("scdppp", alpha, DecorationSpec.dirac([(1.0, 1)]), window)


class TestReportPlumbing:
    def test_json_round(self):
        sub = SubCheck("a", "nothing happens", 0.5, 0.25, True, "fine")
        report = TestReport("demo", 0.01, 100, 7, (sub,), params={"x": 1})
        doc = json.loads(report.to_json())
        assert doc["test_name"] == "demo"
        assert doc["subchecks"][0]["null_hypothesis"] == "nothing happens"
        assert doc["params"] == {"x": 1}

    def test_json_keys_are_the_fields_and_the_verdict(self):
        report = TestReport("demo", 0.01, 100, 7, (SubCheck("a", "h0", 0.5, 0.25, True),))
        doc = report.to_json_dict()
        assert set(doc) == {f.name for f in dataclasses.fields(TestReport)} | {"passed"}
        assert set(doc["subchecks"][0]) == {f.name for f in dataclasses.fields(SubCheck)}

    @pytest.mark.parametrize("verdicts", [(), (True,), (True, True), (False,),
                                          (True, False), (False, False)])
    def test_passed_iff_every_subcheck_passed(self, verdicts):
        subs = tuple(SubCheck(f"s{i}", "h0", 0.0, None, v) for i, v in enumerate(verdicts))
        report = TestReport("demo", 0.0, 1, 0, subs)
        assert report.passed is all(verdicts)
        assert json.loads(report.to_json())["passed"] is all(verdicts)


class TestCensoredKs:
    def test_window_mass(self):
        law = ExtremeLaw("scale", 1.0, 1.0)
        w = censor_window(law, mass=1e-6)
        assert law.cdf(w) <= 1e-6
        assert law.cdf(w * 4.0) > 1e-6

    def test_accepts_true_law(self):
        law = ExtremeLaw("scale", 1.0, 1.0)
        xs = law.sample(4000, seed=3)
        w = censor_window(law)
        d, p = ks_censored(np.maximum(xs, w), law.cdf, w)
        assert p > 0.01

    def test_rejects_wrong_law(self):
        law = ExtremeLaw("scale", 1.0, 1.0)
        wrong = ExtremeLaw("scale", 1.0, 1.5)
        xs = law.sample(4000, seed=3)
        w = censor_window(law)
        d, p = ks_censored(np.maximum(xs, w), wrong.cdf, w)
        assert p < 1e-6


class TestMaxmodLawTest:
    def test_dirac_unit(self):
        report = maxmod_law_test(dirac_spec(), n_reps=10_000, seed=7)
        assert report.passed
        ks = report.subchecks[0].statistic
        assert ks < 0.02

    def test_two_point_dilation_mixture(self):
        spec = ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05,
                           law=ScaleLaw.table([1.0, 2.0], [0.5, 0.5]))
        report = maxmod_law_test(spec, n_reps=10_000, seed=11)
        assert report.passed
        assert report.subchecks[0].statistic < 0.02
        # the analytic mixture is the average of two Frechet curves
        law = extreme_law(spec)
        y = 1.7
        assert law.cdf(y) == pytest.approx(
            0.5 * (math.exp(-1.0 / y) + math.exp(-2.0 / y)), rel=1e-12)

    def test_two_atom_alpha2(self):
        spec = ProcessSpec("scdppp", 2.0,
                           DecorationSpec.dirac([(1.0, 1), (-0.5, 1)]), 0.05)
        assert extreme_law(spec).kappa == pytest.approx(1.0)
        report = maxmod_law_test(spec, n_reps=10_000, seed=13)
        assert report.passed
        assert report.subchecks[0].statistic < 0.02

    def test_shift_family_rejected(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        with pytest.raises(DomainError):
            maxmod_law_test(spec)


class TestStabilityTest:
    def test_true_process_passes(self):
        report = stability_test(dirac_spec(), 1.0, 1.0, n_reps=20_000, seed=3)
        assert report.passed
        assert report.params["rhs_scale"] == pytest.approx(2.0)
        assert report.params["mean_count_lhs"] > 0

    def test_negative_control_rejects(self):
        report = stability_test(dirac_spec(), 1.0, 1.0, n_reps=20_000, seed=3,
                                rhs_scale_factor=1.5)
        assert not report.passed
        ks = [s for s in report.subchecks if s.name == "maxmod_ks"][0]
        assert not ks.passed
        # analytic KS distance between exp(-2/y) and exp(-3/y) is 4/27
        assert ks.statistic == pytest.approx(4.0 / 27.0, abs=0.02)

    def test_degenerate_small_b2(self):
        report = stability_test(dirac_spec(), 1.0, 1e-6, n_reps=5000, seed=5)
        assert report.passed

    def test_non_scale_family_rejected(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        with pytest.raises(DomainError):
            stability_test(spec, 1.0, 1.0, n_reps=100)

    def test_random_dilation_rejected(self):
        spec = ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05,
                           law=ScaleLaw.table([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(DomainError):
            stability_test(spec, 1.0, 1.0, n_reps=100)

    @pytest.mark.parametrize("b1, b2, w", [(1e200, 1.0, 1e200), (1e-200, 1e-200, 1e-200)])
    def test_dilated_value_outside_the_float_range_names_b_and_w(self, b1, b2, w):
        # S_b N is drawn with the global value b * W; where that product leaves
        # the float range the error names the inputs, not the law's own check
        spec = ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05,
                           law=ScaleLaw.deterministic(w))
        with pytest.raises(DomainError, match=re.escape(f"b1 = {b1!r}, b2 = {b2!r}, W = {w!r}")):
            stability_test(spec, b1, b2, n_reps=100)

    def test_calibration_level(self):
        # under H0 the rejection rate at level 0.01 stays below 0.02
        rejections = 0
        for s in range(100):
            report = stability_test(dirac_spec(), 1.0, 1.0, n_reps=2000, seed=s,
                                    battery=[(tent(0.5, 1.0, 2.0), 1.0),
                                             (tent(2.0, 4.0, 8.0), 2.0)])
            rejections += 0 if report.passed else 1
        assert rejections <= 2


class TestTailIndex:
    def test_frechet_alpha1(self):
        xs = ExtremeLaw("scale", 1.0, 1.0).sample(100_000, seed=3)
        est = tail_index_estimate(xs, k=316)
        assert 0.85 <= est.alpha_hat <= 1.15
        assert est.k == 316

    def test_pareto_alpha2(self):
        rng = make_generator(5, ROLE_SCALAR, 99)
        xs = (1.0 - rng.random(100_000)) ** (-1.0 / 2.0)
        est = tail_index_estimate(xs, k=316)
        assert est.covers(2.0)
        assert est.alpha_hat == pytest.approx(2.0, abs=0.25)

    def test_coverage_over_seeds(self):
        hits = 0
        for s in range(20):
            xs = ExtremeLaw("scale", 1.0, 1.0).sample(100_000, seed=100 + s)
            est = tail_index_estimate(xs, k=316)
            hits += 1 if 0.85 <= est.alpha_hat <= 1.15 else 0
        assert hits >= 18

    def test_default_k(self):
        xs = ExtremeLaw("scale", 1.0, 1.0).sample(10_000, seed=7)
        est = tail_index_estimate(xs)
        assert est.k == 100

    def test_degenerate_inputs(self):
        with pytest.raises(DomainError):
            tail_index_estimate(np.full(1000, 3.0))
        with pytest.raises(DomainError):
            tail_index_estimate(np.linspace(-1.0, 1.0, 1000))
        with pytest.raises(DomainError):
            tail_index_estimate(np.arange(1.0, 1001.0), k=5)
        with pytest.raises(DomainError):
            tail_index_estimate(np.arange(1.0, 201.0), k=300)
        with pytest.raises(DomainError):
            tail_index_estimate(np.arange(1.0, 51.0))


class TestScaleUniqueSupport:
    def test_dirac_passes_with_unit_c(self):
        report = scale_unique_support_test(dirac_spec(), n_reps=30_000, seed=9)
        assert report.passed
        fitted = report.params["fitted_c"]
        mm_key = [k for k in fitted if k == "f04"][0]
        assert fitted[mm_key] == pytest.approx(1.0, abs=0.05)

    def test_fit_invariance_under_function_scaling(self):
        f = default_battery("scale")["mm_50"]
        report = scale_unique_support_test(
            dirac_spec(), battery=[f, f.scaled(2.0)], n_reps=30_000, seed=9)
        fitted = report.params["fitted_c"]
        assert fitted["f01"] / fitted["f00"] == pytest.approx(0.5, abs=0.05)

    def test_alpha_mixture_negative_control(self):
        # the equal mixture of alpha=1 and alpha=2 maxmod laws is not a scale
        # translate of either pure template; the residual floor is analytic
        ys = np.array([0.5, 1.0, 2.0, 4.0])
        mixed = 0.5 * (np.exp(-1.0 / ys) + np.exp(-1.0 / ys ** 2))
        ses = np.full(4, 1.5e-3)
        for alpha in (1.0, 2.0):
            template = ExtremeLaw("scale", alpha, 1.0).cdf
            c_hat, residual, pooled = fit_scale_template(ys, mixed, ses, template)
            assert residual >= 0.03
            assert residual >= 5.0 * pooled

    def test_zero_function_excluded(self):
        from stablepp.point_measure import TestFunction
        z = TestFunction([(1.0, 0.0), (2.0, 0.0)])
        report = scale_unique_support_test(
            dirac_spec(), battery=[z, default_battery("scale")["tent_lo"]],
            n_reps=5000, seed=3)
        trivial = [s for s in report.subchecks if "trivial" in s.note]
        assert len(trivial) == 1
        assert trivial[0].passed
        # the zero function's curve is exactly 1 with standard error 0, the flat rule's case
        assert trivial[0].name == "fit_f00"
        assert trivial[0].note == "curve exactly 1 with standard error 0 excluded as trivial"

    def test_shift_family_rejected(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        with pytest.raises(DomainError):
            scale_unique_support_test(spec)


class TestTemplateFit:
    def test_recovers_known_scale(self):
        law = ExtremeLaw("scale", 1.0, 1.0)
        ys = np.array([0.5, 1.0, 2.0, 4.0])
        c_true = 1.7
        values = law.cdf(ys * c_true)
        c_hat, residual, _ = fit_scale_template(ys, values, np.full(4, 1e-4), law.cdf)
        assert c_hat == pytest.approx(c_true, rel=1e-6)
        assert residual < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(DomainError):
            fit_scale_template([1.0], [0.5], [0.01], ExtremeLaw("scale", 1.0, 1.0).cdf)
