import math

import numpy as np
import pytest
from scipy import stats

from stablepp import functionals
from stablepp.errors import DomainError, WindowError
from stablepp.functionals import (
    EstimateWithError,
    FrechetMixture,
    GumbelMixture,
    battery_estimates,
    cf_estimate,
    cf_quadrature,
    default_battery,
    default_u_grid,
    default_y_grid,
    estimate_scaled_laplace,
    estimate_shift_laplace,
    frechet_cdf,
    kappa_quadrature,
    max_location_law,
    maxmod_law,
    predict_scaled_laplace,
    predict_shift_laplace,
    psi_decoration_scale,
    psi_decoration_shift,
    required_window,
    shift_battery,
    tent_family_bias_bound,
)
from stablepp.point_measure import (
    PointMeasure,
    ShiftPointMeasure,
    TestFunction,
    indicator_approx,
    maxmod_indicator,
    scale_fn,
    shift_indicator_approx,
    shift_tent,
    tent,
    tent_family,
)
from stablepp.sampler import (
    DecorationSpec,
    FlatCampaign,
    LocationLaw,
    ProcessSource,
    ProcessSpec,
    ScaleLaw,
    ShiftLaw,
    run_campaign,
)

LN2 = math.log(2.0)


def scdppp(alpha=1.0, atoms=((1.0, 1),), window=0.05, scale_law=None):
    family = "sscdppp" if scale_law is not None else "scdppp"
    return ProcessSpec(family, alpha, DecorationSpec.dirac(list(atoms)), window,
                       scale_law=scale_law)


class TestFrechetCdf:
    def test_values(self):
        assert frechet_cdf(1.0, 1.0) == pytest.approx(math.exp(-1.0))
        assert frechet_cdf(2.0, 1e8) == pytest.approx(1.0, abs=1e-8)
        assert frechet_cdf(1.0, 0.1) == pytest.approx(math.exp(-10.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            frechet_cdf(1.0, 0.0)
        with pytest.raises(DomainError):
            frechet_cdf(1.0, -2.0)
        with pytest.raises(DomainError):
            frechet_cdf(0.0, 1.0)


class TestCfQuadrature:
    # ideal steps carry ramp and outer-cutoff corrections: the approximant
    # loses at most level-capped mass on the ramp zones and the m_alpha tail
    # beyond the outer cutoff

    def test_single_atom_oracle(self):
        ramp, outer = 1e-7, 1e7
        f = indicator_approx(LN2, edge=1.0, outer=outer, ramp=ramp)
        pred = cf_quadrature(1.0, DecorationSpec.dirac([(1.0, 1)]), f)
        correction = 0.5 * ramp + 0.5 / outer + pred.error_bound
        assert correction < 1e-6
        assert abs(pred.value - 0.5) <= correction

    def test_two_atom_oracle(self):
        ramp, outer = 1e-7, 1e7
        f = indicator_approx(LN2, edge=1.0, outer=outer, ramp=ramp)
        dec = DecorationSpec.dirac([(1.0, 1), (0.5, 1)])
        pred = cf_quadrature(1.0, dec, f)
        correction = 0.75 * (ramp + ramp / 4.0) + 0.75 / outer + pred.error_bound
        assert correction < 1e-6
        assert abs(pred.value - 0.625) <= correction

    def test_zero_function(self):
        pred = cf_quadrature(1.0, DecorationSpec.dirac([(1.0, 1)]),
                             TestFunction([(1.0, 0.0), (2.0, 0.0)]))
        assert pred.value == 0.0
        assert pred.error_bound == 0.0

    def test_validation(self):
        f = tent(0.5, 1.0, 2.0)
        with pytest.raises(DomainError):
            cf_quadrature(0.0, DecorationSpec.dirac([(1.0, 1)]), f)

    def test_cf_estimate_agrees_with_quadrature(self):
        f = indicator_approx(LN2, edge=1.0, outer=1e7, ramp=1e-7)
        for dec, target in [
            (DecorationSpec.dirac([(1.0, 1)]), 0.5),
            (DecorationSpec.dirac([(1.0, 1), (0.5, 1)]), 0.625),
        ]:
            est = cf_estimate(1.0, dec, f, 20_000, seed=5)
            assert abs(est.value - target) <= 3.0 * est.std_error

    def test_cf_estimate_random_atoms(self):
        dec = DecorationSpec(
            kind="random_atoms", carrier="scale",
            count_values=(1, 2), count_probs=(0.5, 0.5),
            location=LocationLaw(kind="table", values=(0.5, 1.0), probs=(0.5, 0.5)),
        )
        f = tent(0.5, 1.0, 4.0)
        quad = cf_quadrature(1.0, dec, f)
        est = cf_estimate(1.0, dec, f, 40_000, seed=7)
        assert abs(est.value - quad.value) <= 3.0 * est.std_error + quad.error_bound


class TestScaledEstimates:
    def test_maxmod_plateau_oracle(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 3, 20_000)
        f = default_battery()["mm_50"]
        est = estimate_scaled_laplace(campaign, f, 1.0)
        assert abs(est.value - math.exp(-1.0)) <= 3.0 * est.std_error + 1e-5

    def test_step_ln2_oracle(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 3, 20_000)
        f = indicator_approx(LN2, edge=1.0, outer=1e6, ramp=1e-6)
        est = estimate_scaled_laplace(campaign, f, 1.0)
        assert abs(est.value - math.exp(-0.5)) <= 3.0 * est.std_error + 1e-5

    def test_zero_function_exact(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 0, 50)
        est = estimate_scaled_laplace(campaign, TestFunction([(1.0, 0.0), (2.0, 0.0)]), 1.0)
        assert est == EstimateWithError(1.0, 0.0, 50)

    def test_window_violation(self):
        spec = scdppp(window=1.0)
        campaign = run_campaign(ProcessSource(spec), 0, 100)
        with pytest.raises(WindowError) as exc:
            estimate_scaled_laplace(campaign, tent(0.5, 1.0, 2.0), 1.0)
        assert "window" in str(exc.value)

    def test_point_validation(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 0, 100)
        for y in (0.0, -1.0, math.inf):
            with pytest.raises(DomainError):
                estimate_scaled_laplace(campaign, tent(0.5, 1.0, 2.0), y)

    def test_carrier_mismatch(self):
        shift_spec = ProcessSpec("dppp", 1.0,
                                 DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        campaign = run_campaign(ProcessSource(shift_spec), 0, 100)
        with pytest.raises(DomainError):
            estimate_scaled_laplace(campaign, tent(0.5, 1.0, 2.0), 1.0)

    def test_scaling_identity_shared_replicas(self):
        spec = scdppp(window=0.02)
        campaign = run_campaign(ProcessSource(spec), 9, 2000)
        f = tent(0.5, 1.0, 2.0)
        for a in (2.0, 4.0):
            lhs = estimate_scaled_laplace(campaign, f, 1.0)
            rhs = estimate_scaled_laplace(campaign, scale_fn(f, 1.0 / a), 1.0 / a)
            assert abs(lhs.value - rhs.value) <= 1e-12

    def test_monotonicity_replica_by_replica(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 4, 1000)
        f1 = tent(0.5, 1.0, 2.0, height=0.5)
        f2 = tent(0.5, 1.0, 2.0, height=1.0)
        i1 = campaign.laplace_integrals(f1, 1.0)
        i2 = campaign.laplace_integrals(f2, 1.0)
        assert np.all(i1 <= i2)
        assert estimate_scaled_laplace(campaign, f1, 1.0).value >= \
            estimate_scaled_laplace(campaign, f2, 1.0).value

    def test_tent_family_monotone_to_maxmod_law(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 21, 20_000)
        law = maxmod_law(spec)
        y = 1.0
        values = []
        for n in (1, 2, 5, 20, 50):
            f = tent_family(n, outer=1e6)
            values.append(estimate_scaled_laplace(campaign, f, y).value)
        assert all(a >= b - 1e-15 for a, b in zip(values[:-1], values[1:]))
        est = estimate_scaled_laplace(campaign, tent_family(50, outer=1e6), y)
        bias = tent_family_bias_bound(law, 50, y, outer=1e6)
        assert abs(est.value - law.cdf(y)) <= 3.0 * est.std_error + bias


class TestShiftEstimates:
    def test_gumbel_max_oracle(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -4.0)
        campaign = run_campaign(ProcessSource(spec), 3, 20_000)
        g = shift_battery()["gmax_50"]
        est = estimate_shift_laplace(campaign, g, 0.0)
        assert abs(est.value - math.exp(-1.0)) <= 3.0 * est.std_error + 1e-5

    def test_far_right_tends_to_one(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -4.0)
        campaign = run_campaign(ProcessSource(spec), 3, 20_000)
        g = shift_battery()["gmax_50"]
        est = estimate_shift_laplace(campaign, g, 20.0)
        assert abs(est.value - 1.0) <= 3.0 * est.std_error + math.exp(-20.0) + 1e-6

    def test_zero_function_exact(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        campaign = run_campaign(ProcessSource(spec), 0, 30)
        from stablepp.point_measure import ShiftTestFunction
        est = estimate_shift_laplace(campaign, ShiftTestFunction([(0.0, 0.0), (1.0, 0.0)]), 0.0)
        assert est == EstimateWithError(1.0, 0.0, 30)

    def test_cutoff_violation(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -1.0)
        campaign = run_campaign(ProcessSource(spec), 0, 50)
        g = shift_indicator_approx(1.0, edge=0.0, outer=10.0)
        with pytest.raises(WindowError):
            estimate_shift_laplace(campaign, g, -2.0)


class TestPredictions:
    def test_exponent_form_dilation_convention(self):
        # W enters the exponent as W^alpha: doubling W with alpha=1, y=2,
        # c_f ~ 1 gives e^-1
        ramp, outer = 1e-7, 1e7
        f = indicator_approx(50.0, edge=1.0, outer=outer, ramp=ramp)
        spec = scdppp(scale_law=ScaleLaw.deterministic(2.0))
        pred = predict_scaled_laplace(spec, f, 2.0)
        assert pred.value == pytest.approx(math.exp(-1.0), abs=2e-6)

    def test_prediction_matches_estimate(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 13, 20_000)
        f = indicator_approx(LN2, edge=1.0, outer=1e6, ramp=1e-6)
        pred = predict_scaled_laplace(spec, f, 1.0)
        assert pred.value == pytest.approx(math.exp(-0.5), abs=1e-5)
        est = estimate_scaled_laplace(campaign, f, 1.0)
        assert abs(est.value - pred.value) <= 3.0 * est.std_error + pred.error_bound

    def test_zero_cf_predicts_one(self):
        spec = scdppp()
        pred = predict_scaled_laplace(spec, TestFunction([(1.0, 0.0), (2.0, 0.0)]), 0.25)
        assert pred.value == 1.0

    def test_shift_prediction_matches_estimate(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -4.0)
        campaign = run_campaign(ProcessSource(spec), 17, 20_000)
        g = shift_battery()["gtent_lo"]
        for u in (0.0, LN2):
            pred = predict_shift_laplace(spec, g, u)
            est = estimate_shift_laplace(campaign, g, u)
            assert abs(est.value - pred.value) <= 3.0 * est.std_error + pred.error_bound

    def test_family_mismatch(self):
        spec = scdppp()
        with pytest.raises(DomainError):
            predict_shift_laplace(spec, shift_battery()["gtent_lo"], 0.0)
        shift_spec = ProcessSpec("dppp", 1.0,
                                 DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        with pytest.raises(DomainError):
            predict_scaled_laplace(shift_spec, tent(0.5, 1.0, 2.0), 1.0)


# -- reference predictions -----------------------------------------------------
# Predictions against a dense Gauss-Legendre reference written without the
# package's quadrature or its closed form for uniform locations: psi averages
# uniform locations with 64 nodes inside every piece between the knots pulled
# back to the location variable (enough for exp(-50 t) across a ramp), and the
# constant integrates (1 - psi) against the intensity in the log coordinate v
# with 32 nodes on each quarter of every piece between the kinks
# v = log(|knot| / atom modulus) (scale) or knot - atom (shift). On the two
# uniform cases this reference is within 4e-16 of a 40-digit mpmath value.

_LEGGAUSS = {n: np.polynomial.legendre.leggauss(n) for n in (32, 64)}


def _gauss(lo, hi, n):
    """n Gauss-Legendre nodes and weights on each interval [lo, hi], broadcast."""
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    half = 0.5 * (np.asarray(hi, dtype=np.float64)[..., None] - lo)
    x, w = _LEGGAUSS[n]
    return lo + half * (1.0 + x), half * w


REF_CARRIERS = {
    # act(p, a), pull(p, x) = the location a that p carries to x, point(v),
    # intensity(rate, v) in the log coordinate, weight(rate, p), kink(knot, atom)
    "scale": (lambda s, a: s * a, lambda s, x: x / s, np.exp,
              lambda r, v: r * np.exp(-r * v), lambda r, y: y ** -r,
              lambda x, a: np.log(abs(x) / abs(a)) if x != 0.0 else None),
    "shift": (lambda t, a: a + t, lambda t, x: x - t, lambda v: v,
              lambda r, v: np.exp(-r * v), lambda r, u: np.exp(-r * u),
              lambda x, a: x - a),
}


def _reference_psi(carrier, dec, f, p):
    """psi of one decoration copy at every point of the array p."""
    act, pull = REF_CARRIERS[carrier][:2]
    if dec.kind != "random_atoms":
        entries = ((dec.atoms, 1.0),) if dec.kind == "dirac" else dec.entries
        return sum(q * np.exp(-sum(m * f.eval(act(p, a)) for a, m in atoms))
                   for atoms, q in entries)
    loc = dec.location
    if loc.kind == "table":
        one = sum(q * np.exp(-f.eval(act(p, v))) for v, q in zip(loc.values, loc.probs))
    else:
        lo, hi = loc.low, loc.high
        pulled = np.clip(pull(p[:, None], f.knots_x), lo, hi)
        ends = np.full((p.size, 1), lo), np.full((p.size, 1), hi)
        cuts = np.concatenate([ends[0], pulled, ends[1]], axis=1)
        a, w = _gauss(cuts[:, :-1], cuts[:, 1:], 64)
        one = (w * np.exp(-f.eval(act(p[:, None, None], a)))).sum(axis=(1, 2)) / (hi - lo)
    return sum(q * one ** k for k, q in zip(dec.count_values, dec.count_probs))


def _reference_prediction(carrier, spec, f, p):
    _, _, point, intensity, weight, kink = REF_CARRIERS[carrier]
    dec = spec.decoration
    if dec.kind == "random_atoms":
        lo, hi = dec.location.bounds()
        atoms = dec.location.values if dec.location.kind == "table" else (lo, hi)
    else:
        entries = ((dec.atoms, 1.0),) if dec.kind == "dirac" else dec.entries
        atoms = [a for e, _ in entries for a, _ in e]
    kinks = sorted({k for x in f.knots_x for a in atoms if (k := kink(x, a)) is not None})
    cuts = np.concatenate([np.linspace(a, b, 5)[:-1] for a, b in zip(kinks[:-1], kinks[1:])]
                          + [kinks[-1:]])
    v, w = _gauss(cuts[:-1], cuts[1:], 32)
    v, w = v.ravel(), w.ravel()
    integrand = (1.0 - _reference_psi(carrier, dec, f, point(v))) * intensity(spec.alpha, v)
    return math.exp(-weight(spec.alpha, p) * float(np.dot(w, integrand)))


REFERENCE_DECORATIONS = {
    "scale": {
        "dirac": DecorationSpec.dirac([(1.0, 1)]),
        "multi_dirac": DecorationSpec.dirac([(0.5, 1), (-1.0, 2), (1.5, 1)]),
        "table": DecorationSpec.table_from_measures(
            [PointMeasure([1.0]), PointMeasure([-0.7, 1.2])], [0.4, 0.6]),
        "atoms_table": DecorationSpec.random_atoms(
            [(1, 0.3), (2, 0.7)], LocationLaw(kind="table", values=(0.6, 1.1, 1.3),
                                              probs=(0.2, 0.5, 0.3))),
        "atoms_uniform": DecorationSpec.random_atoms(
            [(1, 0.5), (2, 0.5)], LocationLaw(kind="uniform", low=0.5, high=1.5)),
    },
    "shift": {
        "dirac": DecorationSpec.dirac([(0.0, 1)], carrier="shift"),
        "multi_dirac": DecorationSpec.dirac([(-0.5, 1), (0.0, 2), (0.3, 1)], carrier="shift"),
        "table": DecorationSpec.table_from_measures(
            [ShiftPointMeasure([0.0]), ShiftPointMeasure([-0.3, 0.2])], [0.4, 0.6],
            carrier="shift"),
        "atoms_table": DecorationSpec.random_atoms(
            [(1, 0.3), (2, 0.7)], LocationLaw(kind="table", values=(-0.6, 0.1, 0.4),
                                              probs=(0.2, 0.5, 0.3)), carrier="shift"),
        "atoms_uniform": DecorationSpec.random_atoms(
            [(1, 0.5), (3, 0.5)], LocationLaw(kind="uniform", low=-1.0, high=0.0),
            carrier="shift"),
    },
}


@pytest.mark.parametrize("kind", sorted(REFERENCE_DECORATIONS["scale"]))
@pytest.mark.parametrize("carrier", ["scale", "shift"])
def test_predictions_within_bound_of_reference(carrier, kind):
    dec = REFERENCE_DECORATIONS[carrier][kind]
    if carrier == "scale":
        spec = ProcessSpec("scdppp", 1.0, dec, 0.05)
        battery, points, predict = default_battery(), default_y_grid, predict_scaled_laplace
    else:
        spec = ProcessSpec("dppp", 0.6, dec, -3.0)
        battery, points, predict = shift_battery(), default_u_grid, predict_shift_laplace
    for fid, f in battery.items():
        for p in points:
            pred = predict(spec, f, p)
            ref = _reference_prediction(carrier, spec, f, p)
            assert abs(pred.value - ref) <= pred.error_bound, (fid, p, pred, ref)


@pytest.mark.parametrize("carrier", ["scale", "shift"])
def test_uniform_locations_under_a_high_plateau(carrier):
    # a plateau far above exp's overflow exponent (~709): the falling ramps of
    # the closed form for uniform locations must still give a finite psi
    dec = REFERENCE_DECORATIONS[carrier]["atoms_uniform"]
    if carrier == "scale":
        f, spec = maxmod_indicator(1000.0), ProcessSpec("scdppp", 1.0, dec, 0.05)
        points, psi, predict = default_y_grid, psi_decoration_scale, predict_scaled_laplace
        grid = np.array([0.3, 0.8, 1.0, 1.3, 2.5])
    else:
        f = shift_indicator_approx(1000.0, edge=0.0, outer=14.0, ramp=1e-6)
        spec = ProcessSpec("dppp", 0.6, dec, -3.0)
        points, psi, predict = default_u_grid, psi_decoration_shift, predict_shift_laplace
        grid = np.array([-0.5, 0.2, 0.5, 1.0, 2.0])
    ref = _reference_psi(carrier, dec, f, grid)
    got = [psi(dec, f, p) for p in grid]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
    for p in points:
        pred = predict(spec, f, p)
        ref = _reference_prediction(carrier, spec, f, p)
        assert abs(pred.value - ref) <= pred.error_bound, (p, pred, ref)


class TestMixtureLaws:
    def test_frechet_fixed_point(self):
        law = FrechetMixture(1.0, 1.0)
        assert law.cdf(1.0) == pytest.approx(math.exp(-1.0))
        law2 = FrechetMixture(1.0, 1.0, ScaleLaw.deterministic(2.0))
        assert law2.cdf(2.0) == pytest.approx(math.exp(-1.0))

    def test_ppf_roundtrip(self):
        law = FrechetMixture(2.0, 1.5)
        q = np.array([0.05, 0.5, 0.95])
        np.testing.assert_allclose(law.cdf(law.ppf(q)), q, rtol=1e-12)

    def test_ppf_validation(self):
        law = FrechetMixture(1.0, 1.0)
        with pytest.raises(DomainError):
            law.ppf(0.0)
        mixed = FrechetMixture(1.0, 1.0, ScaleLaw.table([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(DomainError):
            mixed.ppf(0.5)

    def test_sample_matches_cdf(self):
        law = FrechetMixture(1.0, 2.0)
        xs = law.sample(4000, seed=11)
        res = stats.kstest(xs, lambda t: law.cdf(t))
        assert res.pvalue > 0.01

    def test_gumbel_fixed_point(self):
        law = GumbelMixture(1.0, 1.0)
        assert law.cdf(0.0) == pytest.approx(math.exp(-1.0))
        q = np.array([0.1, 0.9])
        np.testing.assert_allclose(law.cdf(law.ppf(q)), q, rtol=1e-12)

    def test_maxmod_law_kappa(self):
        assert maxmod_law(scdppp()).kappa == pytest.approx(1.0)
        # both atoms in one decoration: the larger modulus wins
        assert maxmod_law(scdppp(atoms=((1.0, 1), (0.75, 1)))).kappa == pytest.approx(1.0)
        spec = ProcessSpec(
            "scdppp", 2.0,
            DecorationSpec.table_from_measures(
                [PointMeasure.from_atoms([(1.0, 1)]),
                 PointMeasure.from_atoms([(0.75, 1)])],
                probs=[0.5, 0.5]),
            0.05)
        assert maxmod_law(spec).kappa == pytest.approx(0.5 * 1.0 + 0.5 * 0.75 ** 2)

    def test_max_location_law(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        law = max_location_law(spec)
        assert law.kappa == pytest.approx(1.0)
        assert law.cdf(0.0) == pytest.approx(math.exp(-1.0))

    def test_kappa_quadrature_consistency(self):
        # the shift constant of the transported step equals the scale constant
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -4.0)
        g = shift_indicator_approx(LN2, edge=0.0, outer=14.0, ramp=1e-7)
        pred = kappa_quadrature(1.0, spec.decoration, g)
        assert pred.value == pytest.approx(0.5, abs=1e-6)


def _per_point_cdf(law, points):
    """Mixture CDF one point at a time, each through its own expect call."""
    g = law._law()
    if isinstance(law, FrechetMixture):
        def one(t):
            if not t > 0.0:
                return 0.0
            return g.expect(lambda w: np.exp(-(t ** -law.alpha) * w ** law.alpha * law.kappa))
    else:
        def one(t):
            return g.expect(lambda u: np.exp(-np.exp(-law.c * (t - u)) * law.kappa))
    with np.errstate(divide="ignore"):
        return np.array([one(t) for t in points])


MIXTURES = {
    "frechet_deterministic": FrechetMixture(1.0, 1.3),
    "frechet_dilated": FrechetMixture(2.0, 0.7, ScaleLaw.deterministic(1.5)),
    "frechet_table": FrechetMixture(1.5, 0.9, ScaleLaw.table([0.5, 1.0, 3.0], [0.2, 0.5, 0.3])),
    "frechet_lognormal": FrechetMixture(1.0, 1.0, ScaleLaw.lognormal(0.2, 0.5)),
    "gumbel_deterministic": GumbelMixture(1.0, 1.3),
    "gumbel_table": GumbelMixture(1.5, 0.9, ShiftLaw.table([-1.0, 0.5], [0.4, 0.6])),
    "gumbel_normal": GumbelMixture(0.8, 1.1, ShiftLaw.normal(0.3, 0.5)),
}


@pytest.mark.parametrize("points_per_call", [None, 7])
@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_mixture_cdf_matches_per_point_reference(name, points_per_call, monkeypatch):
    if points_per_call:
        monkeypatch.setattr("stablepp.functionals._EXPECT_POINTS", points_per_call)
    law = MIXTURES[name]
    rng = np.random.default_rng(5)
    if isinstance(law, FrechetMixture):
        points = np.concatenate([np.geomspace(1e-3, 1e4, 400), rng.uniform(0.0, 20.0, 400),
                                 [-2.0, -0.0, 0.0, np.inf, 5e-324]])
    else:
        points = np.concatenate([np.linspace(-15.0, 30.0, 400), rng.normal(0.0, 5.0, 400),
                                 [np.inf, -np.inf]])
    with np.errstate(over="ignore"):
        ref = _per_point_cdf(law, points)
        got = law.cdf(points)
        scalars = [law.cdf(float(t)) for t in points[::37]]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-15)
    assert got.shape == points.shape
    assert all(type(v) is float for v in scalars)
    np.testing.assert_allclose(scalars, ref[::37], rtol=0.0, atol=1e-15)
    grid = points[:12].reshape(3, 4)
    with np.errstate(over="ignore"):
        np.testing.assert_array_equal(law.cdf(grid), got[:12].reshape(3, 4))


@pytest.mark.parametrize("law", [FrechetMixture(1.0, 1.3), GumbelMixture(1.0, 1.3)],
                         ids=["frechet", "gumbel"])
def test_mixture_cdf_keeps_nan_points(law):
    assert math.isnan(law.cdf(math.nan))
    got = law.cdf(np.array([[math.nan, 1.0], [2.0, math.nan]]))
    assert np.isnan(got[0, 0]) and np.isnan(got[1, 1])
    assert 0.0 < got[0, 1] < got[1, 0] < 1.0
    if isinstance(law, FrechetMixture):
        assert law.cdf(0.0) == 0.0 and law.cdf(-1.0) == 0.0
        np.testing.assert_array_equal(law.cdf(np.array([-np.inf, -1.0, -0.0, 0.0])), 0.0)


ARRAY_CASES = {
    "scale": (predict_scaled_laplace, default_battery, default_y_grid,
              scdppp(alpha=1.5, atoms=((1.0, 1), (0.5, 2)),
                     scale_law=ScaleLaw.lognormal(0.2, 0.5))),
    "shift": (predict_shift_laplace, shift_battery, default_u_grid,
              ProcessSpec("sdppp", 0.8,
                          DecorationSpec.dirac([(0.0, 1), (-0.5, 1)], carrier="shift"), -4.0,
                          shift_law=ShiftLaw.table([-0.5, 0.4], [0.3, 0.7]))),
}


@pytest.mark.parametrize("carrier", sorted(ARRAY_CASES))
def test_predictions_over_arrays_match_scalar_calls(carrier, monkeypatch):
    predict, battery, grid, spec = ARRAY_CASES[carrier]
    constants = []
    integrate = functionals._constant

    def counting(*args):
        constants.append(args)
        return integrate(*args)

    monkeypatch.setattr(functionals, "_constant", counting)
    for f in battery().values():
        scalars = [predict(spec, f, p) for p in grid]
        assert len(constants) == len(grid)
        assert all(type(s.value) is float and type(s.error_bound) is float for s in scalars)
        for shape in ((len(grid),), (2, len(grid) // 2)):
            constants.clear()
            pred = predict(spec, f, np.reshape(grid, shape))
            assert len(constants) == 1  # one constant per call, whatever the point count
            assert pred.value.shape == pred.error_bound.shape == shape
            np.testing.assert_allclose(pred.value.ravel(), [s.value for s in scalars],
                                       rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(pred.error_bound.ravel(),
                                       [s.error_bound for s in scalars], rtol=1e-15, atol=0.0)
        constants.clear()
    # every point is checked, not only the first
    bad = [grid[0], -1.0] if carrier == "scale" else [grid[0], math.nan]
    with pytest.raises(DomainError):
        predict(spec, next(iter(battery().values())), bad)


class TestBatteryEstimates:
    def test_required_window_refines(self):
        spec = scdppp(window=1.0)
        w = required_window(spec, [tent(0.5, 1.0, 2.0)], [0.5, 1.0])
        assert w == pytest.approx(0.25)
        assert required_window(spec, [], []) == 1.0

    def test_required_window_may_be_coarser_than_spec(self):
        spec = scdppp(window=0.05)
        assert required_window(spec, [tent(0.5, 1.0, 2.0)], [1.0, 2.0]) == 0.5
        assert required_window(spec, default_battery().values(), default_y_grid) > 0.05
        shift = ProcessSpec("dppp", 1.0,
                            DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        assert required_window(shift, [shift_tent(-1.0, 0.0, 1.0)], [0.5]) == -0.5
        # no nonzero function constrains the window: the spec's own is used
        zero = TestFunction([(1.0, 0.0), (2.0, 0.0)])
        assert required_window(spec, [zero], [1.0]) == 0.05
        assert required_window(spec, [tent(0.5, 1.0, 2.0)], []) == 0.05

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    def test_atoms_outside_required_window_add_exactly_zero(self, carrier):
        # a campaign drawn on the spec's window, cut down to the required
        # window, gives bit-identical integrals for every battery pair
        if carrier == "scale":
            spec, battery, points = scdppp(), default_battery(), default_y_grid
            norm = np.abs
        else:
            spec = ProcessSpec("dppp", 1.0,
                               DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
            battery, points, norm = shift_battery(), default_u_grid, np.asarray
        w = required_window(spec, battery.values(), points)
        full = run_campaign(ProcessSource(spec), 11, 5000)
        keep = norm(full.locations) > w
        assert 0 < keep.sum() < keep.size
        cut = FlatCampaign(full.locations[keep], full.replica[keep], full.weights[keep],
                           full.n_reps, full.carrier, w)
        for f in battery.values():
            for p in points:
                assert np.array_equal(cut.laplace_integrals(f, p),
                                      full.laplace_integrals(f, p))

    def test_battery_estimates_shape_and_determinism(self):
        spec = scdppp()
        functions = {"tent_lo": tent(0.5, 1.0, 2.0), "tent_hi": tent(2.0, 4.0, 8.0)}
        points = [1.0, 2.0]
        a = battery_estimates(spec, functions, points, 3000, 7, threads=1)
        b = battery_estimates(spec, functions, points, 3000, 7, threads=4)
        assert set(a) == {(fid, p) for fid in functions for p in points}
        for key in a:
            assert a[key] == b[key]

    def test_default_battery_contents(self):
        battery = default_battery()
        assert set(battery) == {"tent_lo", "tent_hi", "step_ln2", "band_sym", "mm_50"}
        assert len(default_y_grid) == 4
        assert set(shift_battery()) == {"gtent_lo", "gtent_hi", "gstep_ln2", "gmax_50"}
