import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stablepp import characterization, extraction, sampler
from stablepp.errors import DomainError, StarvationError
from stablepp.extraction import (
    ExtractionConfig,
    _permutation_p,
    _sorted_quantiles,
    extract_decoration,
    predicted_acceptance,
    rebuild_process,
)
from stablepp.point_measure import MeasureBatch, PointMeasure
from stablepp.sampler import DecorationSpec, ProcessSpec


def dirac_spec(alpha=1.0):
    return ProcessSpec("scdppp", alpha, DecorationSpec.dirac([(1.0, 1)]), 0.05)


@pytest.fixture(scope="module")
def reference_report():
    return extract_decoration(
        dirac_spec(), ExtractionConfig(100.0, 0.5, 500), seed=17)


class TestExtractionConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ExtractionConfig(0.5, 0.5)
        with pytest.raises(DomainError):
            ExtractionConfig(10.0, 1.5)
        with pytest.raises(DomainError):
            ExtractionConfig(10.0, 0.0)
        with pytest.raises(DomainError):
            ExtractionConfig(10.0, 0.5, n_accepted=50)

    def test_config_dict(self):
        cfg = ExtractionConfig(100.0, 0.5)
        assert cfg.to_config_dict() == {
            "threshold": 100.0, "inner_radius": 0.5,
            "n_accepted": 500}


class TestExtractDecoration:
    def test_radial_part_is_pareto(self, reference_report):
        rep = reference_report
        assert len(rep.decorations) == 500
        assert rep.pareto_ks < 0.05
        assert rep.pareto_p > 0.01
        # the radial law has cdf 1 - r^-alpha on [1, inf)
        assert float(rep.radials.min()) > 1.0

    def test_normalized_maxmod_exactly_one(self, reference_report):
        for m in reference_report.decorations:
            assert m.extreme() == 1.0

    def test_mostly_single_atom(self, reference_report):
        # extra atoms above 0.5y arrive at rate (0.5 * 100)^-1, so
        # P(exactly one atom) is about exp(-0.02)
        singles = sum(1 for m in reference_report.decorations
                      if m.total_mass == 1)
        assert singles / 500 >= 0.95

    def test_independence_and_sensitivity(self, reference_report):
        assert reference_report.independence_p > 0.01
        assert reference_report.sensitivity_p > 0.01

    def test_acceptance_rate_matches_analytic(self, reference_report):
        rep = reference_report
        q = predicted_acceptance(dirac_spec(), 100.0)
        assert q == pytest.approx(1.0 - math.exp(-0.01), rel=1e-12)
        se = math.sqrt(q * (1.0 - q) / rep.attempts)
        assert abs(rep.acceptance_rate - q) <= 3.0 * se

    def test_c_max_near_one(self, reference_report):
        # delta_1 decoration: kappa = 1, so the maxmod law is exactly Frechet
        assert reference_report.c_max_hat == pytest.approx(1.0, abs=0.02)

    def test_alpha2_radial(self):
        spec = dirac_spec(alpha=2.0)
        rep = extract_decoration(spec, ExtractionConfig(10.0, 0.5, 500),
                                 seed=19)
        assert rep.pareto_ks < 0.05
        assert rep.pareto_p > 0.01

    def test_unreachable_threshold_refused_before_any_block(self, monkeypatch):
        # 10^8 attempts at threshold 2e6 expect 50 of the 500 samples
        def no_block(*args):
            raise AssertionError("a block was drawn")
        monkeypatch.setattr(sampler, "_block", no_block)
        with pytest.raises(DomainError) as exc:
            extract_decoration(dirac_spec(), ExtractionConfig(2e6, 0.5))
        assert str(exc.value) == (
            "extraction needs 500 samples above the threshold 2e+06: 100000000 attempts "
            "expect 50 and fall short with probability 1")

    @pytest.mark.parametrize("threshold, refused", [(1e4, False), (1e5, False), (2e5, True)])
    def test_refusal_follows_the_binomial_shortfall(self, threshold, refused):
        # P(fewer than 500 of 10^8 attempts accepted) is 0, 4e-69 and 0.49
        p = predicted_acceptance(dirac_spec(), threshold)
        short = characterization._binomial_below(500, sampler.MAX_REPS, p)
        assert (short > sampler.CAP_EPS) == refused
        if refused:
            with pytest.raises(DomainError, match="fall short with probability 0.49"):
                extract_decoration(dirac_spec(), ExtractionConfig(threshold, 0.5))

    def test_starvation_is_the_residual_guard(self, monkeypatch):
        # with the refusal passed and the cap small, running out of attempts
        # still raises StarvationError
        monkeypatch.setattr(extraction, "refuse_likely_shortfall", lambda *args: None)
        monkeypatch.setattr(extraction, "MAX_REPS", 20_000)
        spec = dirac_spec()
        with pytest.raises(StarvationError) as exc:
            extract_decoration(spec, ExtractionConfig(1e6, 0.5, 100), seed=3)
        assert "acceptance" in str(exc.value)
        assert "after 20000 attempts" in str(exc.value)

    def test_thread_invariance(self):
        cfg = ExtractionConfig(50.0, 0.5, 100)
        a = extract_decoration(dirac_spec(), cfg, seed=23, threads=1)
        b = extract_decoration(dirac_spec(), cfg, seed=23, threads=4)
        assert np.array_equal(a.radials, b.radials)
        assert list(a.decorations.json_chunks()) == list(b.decorations.json_chunks())
        assert a.c_max_hat == b.c_max_hat

    @pytest.mark.parametrize("threads", [1, 2])
    def test_decorations_are_the_first_hits_of_the_attempt_batches(self, threads):
        # the reference normalizes each hit replica of each attempt batch on its
        # own, builds one batch of every attempt batch's hits and cuts it to
        # n_accepted measure by measure
        spec = ProcessSpec("scdppp", 1.0, DecorationSpec.table_from_measures(
            [PointMeasure([1.0]), PointMeasure([-0.7, 0.6, 0.9], [1, 2, 1])]), 0.05)
        cfg = ExtractionConfig(100.0, 0.5, 300)
        report = extract_decoration(spec, cfg, seed=29, threads=threads)
        source = sampler.ProcessSource(spec.with_window(cfg.inner_radius * cfg.threshold))
        kept, radials = [], []
        while len(kept) < cfg.n_accepted:
            campaign = sampler.run_campaign(source, 29, extraction._ATTEMPT_BATCH, threads,
                                            role=(extraction._ROLE_EXTRACT, len(radials)))
            mm = campaign.maxmods()
            hits = np.flatnonzero(mm > cfg.threshold)
            for r in hits:
                m = campaign.replica_measure(r)
                x = m.locations / mm[r]
                inside = np.abs(x) > cfg.inner_radius
                kept.append((x[inside], m.multiplicities[inside]))
            radials.append(mm[hits] / cfg.threshold)
        reference = MeasureBatch(
            "scale", np.concatenate([[]] + [x for x, _ in kept]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [w for _, w in kept]),
            np.repeat(np.arange(len(kept)), [x.size for x, _ in kept]), len(kept))
        assert len(radials) >= 2 and len(reference) > cfg.n_accepted
        assert report.params["n_batches"] == len(radials)
        assert len(report.decorations) == cfg.n_accepted
        assert list(report.decorations) == [reference[i] for i in range(cfg.n_accepted)]
        assert any(m.n_atoms > 1 for m in report.decorations)
        assert np.array_equal(report.radials, np.concatenate(radials)[:cfg.n_accepted])

    def test_report_serialization(self, reference_report):
        doc = json.loads(json.dumps(reference_report.to_json_dict()))
        assert doc["n_decorations"] == 500
        assert isinstance(reference_report.decorations, MeasureBatch)
        lines = "".join(reference_report.decorations.json_chunks()).splitlines()
        assert len(lines) == 500
        m = PointMeasure.from_json_line(lines[0])
        assert m.extreme() == 1.0

    def test_threshold_stability(self):
        # conditioning at y and 2y leaves the radial law unchanged
        a = extract_decoration(dirac_spec(),
                               ExtractionConfig(100.0, 0.5, 500), seed=5)
        b = extract_decoration(dirac_spec(),
                               ExtractionConfig(200.0, 0.5, 500), seed=6)
        ks = stats.ks_2samp(a.radials, b.radials, method="asymp")
        assert ks.statistic < 0.05

    def test_independence_calibration(self):
        # under H0 the permutation p at level 0.05 rejects at about 0.05
        cfg = ExtractionConfig(20.0, 0.5, 100)
        rejections = 0
        for s in range(50):
            rep = extract_decoration(dirac_spec(), cfg, seed=1000 + s)
            rejections += 1 if rep.independence_p < 0.05 else 0
        assert 0.01 <= rejections / 50 <= 0.12


# exceedance samples: continuous values, and a few values repeated to make ties
_EXCEEDANCES = st.lists(st.one_of(st.floats(0.05, 1e12), st.sampled_from([0.5, 1.0, 3.25])),
                        min_size=50, max_size=500)


class TestScaleConstantGrid:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_EXCEEDANCES)
    def test_grid_equals_numpy_quantile_bit_for_bit(self, values):
        exc = np.sort(np.array(values))
        levels = np.linspace(0.05, 0.95, 10)
        assert _sorted_quantiles(exc, levels).tobytes() == np.quantile(exc, levels).tobytes()

    def test_extraction_leaves_numpy_ma_unimported(self):
        # np.quantile's first call imports numpy.ma, about 9 ms of every extract
        code = ("import sys\n"
                "from stablepp.extraction import ExtractionConfig, extract_decoration\n"
                "from stablepp.sampler import DecorationSpec, ProcessSpec\n"
                "spec = ProcessSpec('scdppp', 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)\n"
                "extract_decoration(spec, ExtractionConfig(100.0, 0.5, 500), seed=17)\n"
                "assert 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parents[1] / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestExactConditionalForm:
    def test_limits_of_exact_form(self):
        from stablepp.functionals import (default_battery, extreme_law,
                                          predict_scaled_laplace)
        spec = dirac_spec()
        f = default_battery("scale")["mm_50"]
        f_y = extreme_law(spec).cdf(25.0)

        def exact(x):
            pred = predict_scaled_laplace(spec, f, x * 25.0)
            return (pred.value - f_y) / (1.0 - f_y)

        # x = 1: conditioning forces an atom above the threshold and the
        # plateau-50 indicator kills those replicas
        assert abs(exact(1.0)) < 1e-4
        # large x: the affine form rises to 1 like 1 - x^-alpha * c_f / kappa
        assert exact(1e6) == pytest.approx(1.0, abs=1e-5)


class TestRebuild:
    def test_dirac_roundtrip(self, reference_report):
        report = rebuild_process(reference_report, n_reps=20_000, seed=41)
        assert report.passed
        assert all(s.passed for s in report.subchecks)

    def test_two_atom_roundtrip(self):
        spec = ProcessSpec("scdppp", 1.0,
                           DecorationSpec.dirac([(1.0, 1), (0.75, 1)]), 0.05)
        rep = extract_decoration(spec, ExtractionConfig(100.0, 0.5, 500), seed=29)
        rebuilt = rebuild_process(rep, n_reps=20_000, seed=43)
        assert rebuilt.passed

    def test_rebuilt_spec_dilates_each_decoration(self, reference_report, monkeypatch):
        # the batch is dilated in one product, as each measure alone would be
        c, orig = reference_report.c_max_hat, reference_report.spec
        reference = ProcessSpec(
            "scdppp", orig.alpha,
            DecorationSpec.table_from_measures(
                PointMeasure(m.locations * (1.0 / c), m.multiplicities)
                for m in reference_report.decorations),
            orig.window)
        real, specs = extraction.battery_estimates, []

        def recorded(spec, *args, **kwargs):
            specs.append(spec)
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(extraction, "battery_estimates", recorded)
        report = rebuild_process(reference_report, n_reps=1000, seed=5)
        assert specs[1] == reference
        assert specs[1].to_config_dict() == reference.to_config_dict()
        assert report.params["n_decorations"] == 500

    def test_short_report_rejected(self, reference_report):
        decs = reference_report.decorations
        end = decs.offsets[50]
        first_50 = MeasureBatch("scale", decs.locations[:end], decs.multiplicities[:end],
                                decs.index()[:end], 50)
        starved = dataclasses.replace(reference_report, decorations=first_50)
        with pytest.raises(DomainError):
            rebuild_process(starved, n_reps=1000, seed=0)

    def test_bad_c_max_rejected(self, reference_report):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="c_max_hat"):
                rebuild_process(dataclasses.replace(reference_report, c_max_hat=bad),
                                n_reps=1000, seed=0)


def _reference_permutation_p(rng, a, b, n_perm=999):
    """One np.corrcoef call per permutation, drawn in the same order."""
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        return 1.0
    obs = abs(float(np.corrcoef(a, b)[0, 1]))
    hits = 0
    for _ in range(n_perm):
        perm = rng.permutation(b.size)
        hits += abs(float(np.corrcoef(a, b[perm])[0, 1])) >= obs
    return (1 + hits) / (n_perm + 1)


def _pair(kind, seed, n):
    """(a, b): Pareto radials against data of the given kind, some dependent."""
    rng = np.random.default_rng(seed)
    a = (1.0 - rng.random(n)) ** -1.0
    if kind == "counts":  # tied integers, as the independence check sees them
        b = rng.poisson(1.5 + 0.02 * (seed % 3) * np.minimum(a, 50.0)).astype(np.float64) + 1.0
    elif kind == "integrals":
        b = rng.uniform(0.0, 0.8, n) + 0.01 * (seed % 3) * np.log(a)
    else:  # both sides tied integers
        a = np.floor(a)
        b = rng.integers(1, 4, n).astype(np.float64)
    return a, b


def _exact_permutation_p(rng, a, b, n_perm=999):
    """The p-value of integer data in exact integer arithmetic."""
    a, b = [int(x) for x in a], np.asarray(b).astype(np.int64)
    n, sa, sb = len(a), sum(a), int(b.sum())

    def stat(bb):
        return abs(n * sum(x * int(y) for x, y in zip(a, bb)) - sa * sb)

    obs = stat(b)
    hits = sum(stat(b[rng.permutation(n)]) >= obs for _ in range(n_perm))
    return (1 + hits) / (n_perm + 1)


class TestPermutationP:
    @pytest.mark.parametrize("kind", ["counts", "integrals"])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_corrcoef_reference(self, kind, seed):
        a, b = _pair(kind, seed, 300 + 37 * seed)
        got = _permutation_p(np.random.default_rng(seed), a, b)
        ref = _reference_permutation_p(np.random.default_rng(seed), a, b)
        assert got == ref

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_ties_count_as_hits(self, seed):
        # with integers on both sides, different pairings tie exactly; the
        # corrcoef loop rounds some of those ties below the observed value
        a, b = _pair("tied_both", seed, 300 + 37 * seed)
        got = _permutation_p(np.random.default_rng(seed), a, b)
        exact = _exact_permutation_p(np.random.default_rng(seed), a, b)
        assert got == exact
        assert _reference_permutation_p(np.random.default_rng(seed), a, b) <= exact

    def test_random_stream_is_unchanged(self):
        a, b = _pair("counts", 1, 200)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        _permutation_p(rng, a, b)
        _reference_permutation_p(ref_rng, a, b)
        assert rng.random() == ref_rng.random()

    def test_scores_in_several_matrices(self, monkeypatch):
        a, b = _pair("integrals", 2, 500)
        whole = _permutation_p(np.random.default_rng(4), a, b)
        monkeypatch.setattr("stablepp.extraction._PERM_ENTRIES", 7 * 500 + 3)
        assert _permutation_p(np.random.default_rng(4), a, b) == whole

    def test_constant_input_returns_one(self):
        a, b = _pair("counts", 0, 100)
        rng = np.random.default_rng(0)
        assert _permutation_p(rng, a, np.full(100, 2.0)) == 1.0
        assert _permutation_p(rng, np.full(100, 3.0), b) == 1.0
        assert _permutation_p(rng, np.zeros(100), b) == 1.0
        # draws nothing from the stream
        assert rng.random() == np.random.default_rng(0).random()

    def test_constant_up_to_rounding_returns_one(self):
        # an integral that is 0.8 in exact arithmetic, rounded per sample
        a, _ = _pair("counts", 0, 300)
        b = 0.8 + np.random.default_rng(1).integers(-2, 3, 300) * np.spacing(0.8)
        assert np.std(b) > 0.0
        assert _permutation_p(np.random.default_rng(0), a, b) == 1.0
