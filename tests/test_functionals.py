import hashlib
import itertools
import math
import re
import struct

import numpy as np
import pytest
from scipy import integrate, stats

from stablepp import functionals, point_measure
from stablepp.characterization import ks_censored
from stablepp.errors import DomainError, IntegrationWarning, WindowError
from stablepp.extraction import predicted_acceptance
from stablepp.functionals import (
    EstimateWithError,
    ExtremeLaw,
    battery_estimates,
    cf_estimate,
    cf_quadrature,
    default_battery,
    default_points,
    estimate_scaled_laplace,
    extreme_law,
    estimate_shift_laplace,
    kappa_quadrature,
    laplace_battery,
    predict_scaled_laplace,
    predict_shift_laplace,
    psi_decoration_scale,
    psi_decoration_shift,
    required_window,
)
from stablepp.point_measure import (
    MeasureBatch,
    PointMeasure,
    TestFunction,
    indicator_approx,
    shift_indicator_approx,
    tent,
)
from stablepp.sampler import (
    CARRIERS,
    CountLaw,
    DecorationSpec,
    FlatCampaign,
    GlobalLaw,
    LocationLaw,
    ProcessSource,
    ProcessSpec,
    effective_law,
    run_campaign,
)

LN2 = math.log(2.0)


def tent_family(n, outer=1e8):
    """Member n of the plateau family behind ``tent_family_bias_bound``: value n
    for |x| >= 1 + 1/n, a ramp of width 1/n below it, an outer cutoff."""
    return indicator_approx(float(n), edge=1.0, outer=outer, ramp=1.0 / n, symmetric=True)


def tent_family_bias_bound(law: ExtremeLaw, n: int, y: float, outer: float = 1e8) -> float:
    """Bound on |Psi(f_n | y) - P(maxmod <= y)| for the plateau family member n.

    Three contributions: the plateau is n rather than infinity (mass e^-n),
    atoms falling on the ramp (y, y(1 + 1/n)], and atoms beyond the outer
    cutoff y * outer (tail mass kappa-weighted).
    """
    ramp = float(law.cdf(y * (1.0 + 1.0 / n)) - law.cdf(y))
    tail = law.kappa * law._mean_weight(y * outer)
    return math.exp(-float(n)) + ramp + tail


def dilated(f, y: float) -> TestFunction:
    """The scale-carrier function x -> f(y x): its knots move to knot / y."""
    return TestFunction(list(zip(f.knots_x / y, f.knots_v)))


def scdppp(alpha=1.0, atoms=((1.0, 1),), window=0.05, law=None):
    family = "sscdppp" if law is not None else "scdppp"
    return ProcessSpec(family, alpha, DecorationSpec.dirac(list(atoms)), window, law=law)


class TestFrechetCdf:
    def test_values(self):
        # the alpha-Frechet law exp(-x^-alpha) is the mixture with kappa 1 and no scale law
        assert ExtremeLaw("scale", 1.0, 1.0).cdf(1.0) == pytest.approx(math.exp(-1.0))
        assert ExtremeLaw("scale", 2.0, 1.0).cdf(1e8) == pytest.approx(1.0, abs=1e-8)
        assert ExtremeLaw("scale", 1.0, 1.0).cdf(0.1) == pytest.approx(math.exp(-10.0))


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
            count=CountLaw(kind="table", values=(1, 2), probs=(0.5, 0.5)),
            location=LocationLaw(kind="table", values=(0.5, 1.0), probs=(0.5, 0.5)),
        )
        f = tent(0.5, 1.0, 4.0)
        quad = cf_quadrature(1.0, dec, f)
        est = cf_estimate(1.0, dec, f, 40_000, seed=7)
        assert abs(est.value - quad.value) <= 3.0 * est.std_error + quad.error_bound


class TestGaussKronrod:
    def test_gauss_nodes_and_weights_are_leggauss_10(self):
        x, w = np.polynomial.legendre.leggauss(10)
        nodes = np.array(functionals._XGK[1:10:2])
        assert np.allclose(np.sort(np.concatenate([-nodes, nodes])), x, rtol=0.0, atol=2e-16)
        assert np.allclose(np.concatenate([functionals._WG, functionals._WG[::-1]]), w,
                           rtol=0.0, atol=2e-16)

    def test_exact_on_monomials_up_to_degree_31(self):
        a, b = -0.6, 1.3
        for k in range(32):
            value = functionals._qk21(lambda x: x ** k, [(a, b)])[0][0]
            exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            assert value == pytest.approx(exact, rel=5e-15, abs=0.0), k

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    def test_same_constants_and_evaluations_as_quadpack(self, carrier, monkeypatch):
        # scipy's quad is QUADPACK's QAGS: on these smooth pieces it bisects as
        # the package's rule does, so the two agree on every integrand node;
        # the package passes the first rules of all pieces in one call and
        # each bisection step's two halves in another, scipy one node at a time
        def run(with_corners):
            calls = [0]

            def counted(fn, lo, hi, corners):
                def fn_counted(x):
                    calls[0] += np.size(x)
                    return fn(x)
                return with_corners(fn_counted, lo, hi, corners)

            monkeypatch.setattr(functionals, "_quad_with_corners", counted)
            alpha = 1.0 if carrier == "scale" else 0.6
            constant = cf_quadrature if carrier == "scale" else kappa_quadrature
            out = [constant(alpha, dec, f) for dec in REFERENCE_DECORATIONS[carrier].values()
                   for f in default_battery(carrier).values()]
            return out, calls[0]

        def scipy_per_piece(fn, lo, hi, corners):
            cuts = sorted({float(lo), float(hi), *(float(c) for c in corners if lo < c < hi)})
            parts = [integrate.quad(lambda x: float(fn(np.array([x]))[0]), a, b,
                                    limit=functionals._QUAD_LIMIT)
                     for a, b in zip(cuts[:-1], cuts[1:])]
            return sum(v for v, _ in parts), sum(e for _, e in parts)

        ours, n_ours = run(functionals._quad_with_corners)
        ref, n_ref = run(scipy_per_piece)
        assert n_ours == n_ref
        for c, r in zip(ours, ref):
            assert c.value == pytest.approx(r.value, rel=1e-14, abs=0.0)
            assert c.error_bound == pytest.approx(r.error_bound, rel=1e-5, abs=0.0)

    def test_the_subinterval_limit_warns(self):
        with pytest.warns(IntegrationWarning, match="400 subintervals"):
            value, err = functionals._quad_with_corners(lambda x: np.sin(1e9 * x), 0.0, 1.0, ())
        assert math.isfinite(value) and err > functionals._QUAD_TOL


class TestScaledEstimates:
    def test_maxmod_plateau_oracle(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 3, 20_000)
        f = default_battery("scale")["mm_50"]
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
            rhs = estimate_scaled_laplace(campaign, dilated(f, 1.0 / a), 1.0 / a)
            assert abs(lhs.value - rhs.value) <= 1e-12

    def test_monotonicity_replica_by_replica(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 4, 1000)
        f1 = tent(0.5, 1.0, 2.0, height=0.5)
        f2 = tent(0.5, 1.0, 2.0, height=1.0)
        i1, i2 = campaign.laplace_integrals([(f1, 1.0), (f2, 1.0)])
        assert np.all(i1 <= i2)
        assert estimate_scaled_laplace(campaign, f1, 1.0).value >= \
            estimate_scaled_laplace(campaign, f2, 1.0).value

    def test_tent_family_monotone_to_maxmod_law(self):
        spec = scdppp()
        campaign = run_campaign(ProcessSource(spec), 21, 20_000)
        law = extreme_law(spec)
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
        g = default_battery("shift")["gmax_50"]
        est = estimate_shift_laplace(campaign, g, 0.0)
        assert abs(est.value - math.exp(-1.0)) <= 3.0 * est.std_error + 1e-5

    def test_far_right_tends_to_one(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -4.0)
        campaign = run_campaign(ProcessSource(spec), 3, 20_000)
        g = default_battery("shift")["gmax_50"]
        est = estimate_shift_laplace(campaign, g, 20.0)
        assert abs(est.value - 1.0) <= 3.0 * est.std_error + math.exp(-20.0) + 1e-6

    def test_zero_function_exact(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        campaign = run_campaign(ProcessSource(spec), 0, 30)
        zero = TestFunction([(0.0, 0.0), (1.0, 0.0)], carrier="shift")
        est = estimate_shift_laplace(campaign, zero, 0.0)
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
        spec = scdppp(law=GlobalLaw.deterministic(2.0))
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
        g = default_battery("shift")["gtent_lo"]
        for u in (0.0, LN2):
            pred = predict_shift_laplace(spec, g, u)
            est = estimate_shift_laplace(campaign, g, u)
            assert abs(est.value - pred.value) <= 3.0 * est.std_error + pred.error_bound

    def test_family_mismatch(self):
        spec = scdppp()
        with pytest.raises(DomainError):
            predict_shift_laplace(spec, default_battery("shift")["gtent_lo"], 0.0)
        shift_spec = ProcessSpec("dppp", 1.0,
                                 DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        with pytest.raises(DomainError):
            predict_scaled_laplace(shift_spec, tent(0.5, 1.0, 2.0), 1.0)


_SHIFT_SPEC = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
_SCALE_TENT, _SHIFT_TENT = tent(0.5, 1.0, 2.0), tent(-1.0, 0.0, 1.0, carrier="shift")
# name -> (the carrier the call expects, a call with the other carrier's function)
_OTHER_CARRIER_CALLS = {
    "predict_scaled_laplace": ("scale", lambda: predict_scaled_laplace(scdppp(), _SHIFT_TENT, 1.0)),
    "predict_shift_laplace": ("shift", lambda: predict_shift_laplace(_SHIFT_SPEC, _SCALE_TENT, 0.0)),
    "cf_quadrature": ("scale", lambda: cf_quadrature(1.0, scdppp().decoration, _SHIFT_TENT)),
    "cf_estimate": ("scale", lambda: cf_estimate(1.0, scdppp().decoration, _SHIFT_TENT, 10, 0)),
    "kappa_quadrature": ("shift", lambda: kappa_quadrature(1.0, _SHIFT_SPEC.decoration,
                                                           _SCALE_TENT)),
    "estimate_scaled_laplace": ("scale", lambda: estimate_scaled_laplace(
        run_campaign(ProcessSource(scdppp()), 0, 10), _SHIFT_TENT, 1.0)),
    "estimate_shift_laplace": ("shift", lambda: estimate_shift_laplace(
        run_campaign(ProcessSource(_SHIFT_SPEC), 0, 10), _SCALE_TENT, 0.0)),
    "battery_estimates": ("scale", lambda: battery_estimates(
        scdppp(), {"g": _SHIFT_TENT}, (1.0,), 10, 0)),
    "required_window": ("shift", lambda: required_window(_SHIFT_SPEC, [_SCALE_TENT], (0.0,))),
    "psi_decoration_scale": ("scale", lambda: psi_decoration_scale(
        scdppp().decoration, _SHIFT_TENT, 1.0)),
    "psi_decoration_shift": ("shift", lambda: psi_decoration_shift(
        _SHIFT_SPEC.decoration, _SCALE_TENT, 0.0)),
    "integrate": ("scale", lambda: point_measure.integrate(PointMeasure([1.0]), _SHIFT_TENT)),
    "integrate_shift": ("shift", lambda: point_measure.integrate(
        PointMeasure([0.0], carrier="shift"), _SCALE_TENT)),
    "integrals": ("scale", lambda: MeasureBatch("scale", [1.0], [1], [0], 1).integrals(
        _SHIFT_TENT)),
    "integrals_shift": ("shift", lambda: MeasureBatch("shift", [0.0], [1], [0], 1).integrals(
        _SCALE_TENT)),
}


@pytest.mark.parametrize("name", sorted(_OTHER_CARRIER_CALLS))
def test_a_test_function_of_the_other_carrier_is_one_domain_error(name):
    carrier, call = _OTHER_CARRIER_CALLS[name]
    with pytest.raises(DomainError, match=f"^expected a {carrier}-carrier test function$"):
        call()


_SCALE_ZERO = TestFunction([(1.0, 0.0), (2.0, 0.0)])
_SHIFT_ZERO = TestFunction([(1.0, 0.0), (2.0, 0.0)], carrier="shift")
_SHIFT_AT_ONE = DecorationSpec.dirac([(1.0, 1)], carrier="shift")
# name -> (the carrier the call expects, a call with its own carrier's function and
# the other carrier's decoration)
_OTHER_DECORATION_CALLS = {
    "cf_quadrature": ("scale", lambda: cf_quadrature(1.0, _SHIFT_SPEC.decoration, _SCALE_TENT)),
    "cf_quadrature_zero": ("scale", lambda: cf_quadrature(1.0, _SHIFT_SPEC.decoration,
                                                          _SCALE_ZERO)),
    # a shift atom at 0 used to divide by its bound 0, one at 1 to give a number
    "cf_estimate_at_0": ("scale", lambda: cf_estimate(1.0, _SHIFT_SPEC.decoration,
                                                      _SCALE_TENT, 10, 0)),
    "cf_estimate_at_1": ("scale", lambda: cf_estimate(1.0, _SHIFT_AT_ONE, _SCALE_TENT, 10, 0)),
    "cf_estimate_zero": ("scale", lambda: cf_estimate(1.0, _SHIFT_AT_ONE, _SCALE_ZERO, 10, 0)),
    "kappa_quadrature": ("shift", lambda: kappa_quadrature(1.0, scdppp().decoration,
                                                           _SHIFT_TENT)),
    "kappa_quadrature_zero": ("shift", lambda: kappa_quadrature(1.0, scdppp().decoration,
                                                                _SHIFT_ZERO)),
    "psi_decoration_scale": ("scale", lambda: psi_decoration_scale(
        _SHIFT_SPEC.decoration, _SCALE_TENT, 1.0)),
    "psi_decoration_shift": ("shift", lambda: psi_decoration_shift(
        scdppp().decoration, _SHIFT_TENT, 0.0)),
}


@pytest.mark.parametrize("name", sorted(_OTHER_DECORATION_CALLS))
def test_a_decoration_of_the_other_carrier_is_one_domain_error(name):
    carrier, call = _OTHER_DECORATION_CALLS[name]
    with pytest.raises(DomainError, match=f"^expected a {carrier}-carrier decoration$"):
        call()


# -- reference predictions -----------------------------------------------------
# Predictions against a dense Gauss-Legendre reference written without the
# package's quadrature or its closed form for uniform locations: psi averages
# uniform locations with 64 nodes inside every piece between the knots pulled
# back to the location variable (enough for exp(-50 t) across a ramp), and the
# constant integrates (1 - psi) against the intensity in the log coordinate v
# with 32 nodes on each quarter of every piece between the kinks
# v = log(|knot| / atom modulus) (scale) or knot - atom (shift). On the two
# uniform cases this reference is within 4e-16 of a 40-digit mpmath value.

_LEGGAUSS = {n: np.polynomial.legendre.leggauss(n) for n in (32, 40, 64)}


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
    return sum(q * one ** k for k, q in zip(dec.count.values, dec.count.probs))


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
        # a table whose values straddle 0 without holding it
        "atoms_signed_table": DecorationSpec.random_atoms(
            [(1, 0.5), (2, 0.5)], LocationLaw(kind="table", values=(-1.0, 0.5, 2.0),
                                              probs=(0.3, 0.3, 0.4))),
    },
    "shift": {
        "dirac": DecorationSpec.dirac([(0.0, 1)], carrier="shift"),
        "multi_dirac": DecorationSpec.dirac([(-0.5, 1), (0.0, 2), (0.3, 1)], carrier="shift"),
        "table": DecorationSpec.table_from_measures(
            [PointMeasure([0.0], carrier="shift"), PointMeasure([-0.3, 0.2], carrier="shift")],
            [0.4, 0.6]),
        "atoms_table": DecorationSpec.random_atoms(
            [(1, 0.3), (2, 0.7)], LocationLaw(kind="table", values=(-0.6, 0.1, 0.4),
                                              probs=(0.2, 0.5, 0.3)), carrier="shift"),
        "atoms_uniform": DecorationSpec.random_atoms(
            [(1, 0.5), (3, 0.5)], LocationLaw(kind="uniform", low=-1.0, high=0.0),
            carrier="shift"),
        # a table holding 0, which the scale carrier refuses
        "atoms_signed_table": DecorationSpec.random_atoms(
            [(1, 0.5), (2, 0.5)], LocationLaw(kind="table", values=(-1.0, 0.0, 2.0),
                                              probs=(0.3, 0.3, 0.4)), carrier="shift"),
    },
}


# -- batched integrands ----------------------------------------------------------
# The first QK21 rules of a constant's smooth pieces pass their 21 nodes each
# to the integrand in one call, and so do the two halves of a bisection step;
# each node's value must be the one a call with that node alone gives, bit for
# bit.

@pytest.mark.parametrize("kind", sorted(REFERENCE_DECORATIONS["scale"]))
@pytest.mark.parametrize("carrier", ["scale", "shift"])
def test_a_batched_rule_equals_its_one_node_calls_bit_for_bit(carrier, kind, monkeypatch):
    dec = REFERENCE_DECORATIONS[carrier][kind]
    rate = 1.0 if carrier == "scale" else 0.6
    constant = cf_quadrature if carrier == "scale" else kappa_quadrature
    calls = []
    qk21 = functionals._qk21

    def recorded(fn, pieces):
        def once(x):
            out = fn(x)
            calls.append((fn, len(pieces), x.copy(), out.copy()))
            return out
        return qk21(once, pieces)

    monkeypatch.setattr(functionals, "_qk21", recorded)
    for f in default_battery(carrier).values():
        constant(rate, dec, f)
    # the uniform-location extreme moment is integrated by the same rule
    extreme_law(ProcessSpec("scdppp" if carrier == "scale" else "dppp", rate, dec,
                            0.05 if carrier == "scale" else -3.0))
    assert any(k > 1 for _, k, _, _ in calls)
    for fn, k, nodes, batched in calls:
        assert nodes.shape == batched.shape == (21 * k,)
        single = np.concatenate([fn(nodes[i:i + 1]) for i in range(nodes.size)])
        assert batched.tobytes() == single.tobytes()


# The float bits of (value, error_bound) of every reference decoration's
# constant for every default test function, on both carriers at two rates, in
# that order: any change to the nodes, the rule's sums or the bisection order
# moves them.
PREDICTION_DIGEST = "5ea13926a6534595e2704fa870a5cb2772b67601e803c66d4cf553743832d72b"
PREDICTION_RATES = {"scale": (1.0, 1.5), "shift": (0.6, 1.2)}


def test_prediction_bytes_are_pinned(monkeypatch):
    # every rule covers 21 nodes and every bisection step 42 more, so the nodes
    # a constant evaluates count its bisection steps, whatever the calls
    steps = [0]
    with_corners = functionals._quad_with_corners

    def counted(fn, lo, hi, corners):
        nodes = [0]

        def fn_counted(x):
            nodes[0] += np.size(x)
            return fn(x)
        out = with_corners(fn_counted, lo, hi, corners)
        pieces = len({lo, hi, *(c for c in corners if lo < c < hi)}) - 1
        assert nodes[0] % 21 == 0 and (nodes[0] // 21 - pieces) % 2 == 0
        steps[0] += (nodes[0] // 21 - pieces) // 2
        return out

    monkeypatch.setattr(functionals, "_quad_with_corners", counted)
    digest = hashlib.sha256()
    for carrier, constant in (("scale", cf_quadrature), ("shift", kappa_quadrature)):
        for rate in PREDICTION_RATES[carrier]:
            for kind in sorted(REFERENCE_DECORATIONS[carrier]):
                for f in default_battery(carrier).values():
                    pred = constant(rate, REFERENCE_DECORATIONS[carrier][kind], f)
                    digest.update(struct.pack("<dd", pred.value, pred.error_bound))
    assert steps[0] > 0
    assert digest.hexdigest() == PREDICTION_DIGEST


@pytest.mark.parametrize("carrier", ["scale", "shift"])
def test_psi_is_a_float_at_a_float_and_an_array_at_an_array(carrier):
    psi = psi_decoration_scale if carrier == "scale" else psi_decoration_shift
    grid = np.array([[0.4, 0.9, 1.3], [1.9, 2.6, 3.7]])
    for dec in REFERENCE_DECORATIONS[carrier].values():
        for f in default_battery(carrier).values():
            assert type(psi(dec, f, 1.3)) is float
            assert type(psi(dec, f, np.float64(1.3))) is float
            got = psi(dec, f, grid)
            assert type(got) is np.ndarray and got.shape == grid.shape
            assert got.tolist() == [[psi(dec, f, p) for p in row] for row in grid.tolist()]
            assert psi(dec, f, np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("carrier, bad", [
    ("scale", -1.0), ("scale", 0.0), ("scale", math.inf), ("scale", math.nan),
    ("shift", math.inf), ("shift", -math.inf), ("shift", math.nan)])
def test_psi_refuses_a_point_that_is_not_an_evaluation_point(carrier, bad):
    psi = psi_decoration_scale if carrier == "scale" else psi_decoration_shift
    error = f"^{re.escape(CARRIERS[carrier].point_error)}$"
    for dec in REFERENCE_DECORATIONS[carrier].values():
        for f in default_battery(carrier).values():
            with pytest.raises(DomainError, match=error):
                psi(dec, f, bad)
            with pytest.raises(DomainError, match=error):
                psi(dec, f, np.array([[1.0, bad], [2.0, 1.5]]))


@pytest.mark.parametrize("kind", sorted(REFERENCE_DECORATIONS["scale"]))
@pytest.mark.parametrize("carrier", ["scale", "shift"])
def test_predictions_within_bound_of_reference(carrier, kind):
    dec = REFERENCE_DECORATIONS[carrier][kind]
    if carrier == "scale":
        spec = ProcessSpec("scdppp", 1.0, dec, 0.05)
        battery, points = default_battery("scale"), default_points("scale")
        predict = predict_scaled_laplace
    else:
        spec = ProcessSpec("dppp", 0.6, dec, -3.0)
        battery, points = default_battery("shift"), default_points("shift")
        predict = predict_shift_laplace
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
        f, spec = indicator_approx(1000.0, symmetric=True), ProcessSpec("scdppp", 1.0, dec, 0.05)
        points, psi, predict = default_points("scale"), psi_decoration_scale, predict_scaled_laplace
        grid = np.array([0.3, 0.8, 1.0, 1.3, 2.5])
    else:
        f = shift_indicator_approx(1000.0, edge=0.0, outer=14.0, ramp=1e-6)
        spec = ProcessSpec("dppp", 0.6, dec, -3.0)
        points, psi, predict = default_points("shift"), psi_decoration_shift, predict_shift_laplace
        grid = np.array([-0.5, 0.2, 0.5, 1.0, 2.0])
    ref = _reference_psi(carrier, dec, f, grid)
    got = [psi(dec, f, p) for p in grid]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)
    for p in points:
        pred = predict(spec, f, p)
        ref = _reference_prediction(carrier, spec, f, p)
        assert abs(pred.value - ref) <= pred.error_bound, (p, pred, ref)


NEAR_ORIGIN = DecorationSpec.random_atoms(
    [(1, 0.5), (30, 0.5)], LocationLaw(kind="uniform", low=0.001, high=10.0))
KAPPA_CASES = [(carrier, kind) for carrier in ("scale", "shift")
               for kind in sorted(REFERENCE_DECORATIONS[carrier])] + [("scale", "near_origin")]


def _reference_extreme_moment(carrier, rate, dec):
    """E[weight of the largest atom norm] of one copy, computed independently:
    entry maxima, every location tuple of a table law, or Gauss-Legendre on the
    density of the largest of k uniform norms."""
    norm = abs if carrier == "scale" else (lambda x: x)
    top = (lambda m: m ** rate) if carrier == "scale" else (lambda m: np.exp(rate * m))
    if dec.kind != "random_atoms":
        entries = ((dec.atoms, 1.0),) if dec.kind == "dirac" else dec.entries
        return sum(q * top(max(norm(a) for a, _ in atoms)) for atoms, q in entries)
    counts = list(zip(dec.count.values, dec.count.probs))
    loc = dec.location
    if loc.kind == "table":
        return sum(pk * math.prod(loc.probs[i] for i in idx)
                   * top(max(norm(loc.values[i]) for i in idx))
                   for k, pk in counts
                   for idx in itertools.product(range(len(loc.values)), repeat=k))
    a, b = sorted(map(norm, loc.bounds()))
    cuts = np.geomspace(a, b, 401) if a > 0.0 else np.linspace(a, b, 401)
    m, w = _gauss(cuts[:-1], cuts[1:], 40)
    u = (m - a) / (b - a)
    density = sum(pk * k * u ** (k - 1) for k, pk in counts) / (b - a)
    return float(np.sum(w * top(m) * density))


def _monte_carlo_extreme_moment(carrier, rate, dec, n_copies=400_000, chunk=50_000):
    """Mean and standard error of the weight of the largest atom norm over
    n_copies sampled decoration copies."""
    rng = np.random.default_rng(2024)
    tops = []
    for _ in range(n_copies // chunk):
        counts, loc, _ = dec.sample_atoms_block(rng, chunk)
        copy = np.repeat(np.arange(chunk), counts)
        m = np.full(chunk, -np.inf)
        np.maximum.at(m, copy, np.abs(loc) if carrier == "scale" else loc)
        tops.append(m ** rate if carrier == "scale" else np.exp(rate * m))
    tops = np.concatenate(tops)
    return float(tops.mean()), float(tops.std(ddof=1)) / math.sqrt(tops.size)


@pytest.mark.parametrize("carrier,kind", KAPPA_CASES)
def test_extreme_law_kappa_for_every_decoration(carrier, kind):
    dec = NEAR_ORIGIN if kind == "near_origin" else REFERENCE_DECORATIONS[carrier][kind]
    if carrier == "scale":
        rate = 0.5 if kind == "near_origin" else 1.0
        spec = ProcessSpec("scdppp", rate, dec, 0.05)
        law, per_moment = extreme_law(spec), 1.0
        assert predicted_acceptance(spec, 2.0) == pytest.approx(1.0 - law.cdf(2.0), rel=1e-15)
    else:
        rate = 0.6
        spec = ProcessSpec("dppp", rate, dec, -3.0)
        law, per_moment = extreme_law(spec), 1.0 / rate
    assert law.kappa == pytest.approx(
        per_moment * _reference_extreme_moment(carrier, rate, dec), rel=1e-12, abs=0.0)
    mean, se = _monte_carlo_extreme_moment(carrier, rate, dec)
    assert abs(law.kappa - per_moment * mean) <= 3.0 * per_moment * se + 1e-12 * law.kappa


@pytest.mark.parametrize("kind", ["atoms_uniform", "atoms_table"])
def test_max_locations_follow_the_gumbel_mixture(kind):
    spec = ProcessSpec("dppp", 1.0, REFERENCE_DECORATIONS["shift"][kind], -3.0)
    law = extreme_law(spec)
    tops = run_campaign(ProcessSource(spec), 17, 20_000).max_locations()
    _, p = ks_censored(tops, law.cdf, spec.window)
    assert p >= 0.01
    _, p = ks_censored(tops, ExtremeLaw("shift", law.rate, 1.5 * law.kappa).cdf, spec.window)
    assert p < 1e-6


class TestMixtureLaws:
    def test_frechet_fixed_point(self):
        law = ExtremeLaw("scale", 1.0, 1.0)
        assert law.cdf(1.0) == pytest.approx(math.exp(-1.0))
        law2 = ExtremeLaw("scale", 1.0, 1.0, GlobalLaw.deterministic(2.0))
        assert law2.cdf(2.0) == pytest.approx(math.exp(-1.0))

    def test_ppf_roundtrip(self):
        law = ExtremeLaw("scale", 2.0, 1.5)
        q = np.array([0.05, 0.5, 0.95])
        np.testing.assert_allclose(law.cdf(law.ppf(q)), q, rtol=1e-12)

    def test_ppf_validation(self):
        law = ExtremeLaw("scale", 1.0, 1.0)
        with pytest.raises(DomainError):
            law.ppf(0.0)
        mixed = ExtremeLaw("scale", 1.0, 1.0, GlobalLaw.table([1.0, 2.0], [0.5, 0.5]))
        with pytest.raises(DomainError):
            mixed.ppf(0.5)

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    @pytest.mark.parametrize("rate, kappa", [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                             (math.inf, 1.0), (1.0, -1.0), (1.0, math.nan),
                                             (1.0, math.inf)])
    def test_rate_and_kappa_are_validated(self, carrier, rate, kappa):
        what = "kappa" if rate == 1.0 else {"scale": "alpha", "shift": "c"}[carrier]
        with pytest.raises(DomainError, match=f"^{what} must be finite and "):
            ExtremeLaw(carrier, rate, kappa)

    def test_zero_kappa_is_a_law(self):
        assert ExtremeLaw("scale", 1.0, 0.0).cdf(0.5) == 1.0

    def test_shift_cdf_at_minus_infinity(self):
        # -inf has no log coordinate on the shift carrier either: the CDF reads 0
        for law in (ExtremeLaw("shift", 1.0, 1.0),
                    ExtremeLaw("shift", 0.8, 1.1,
                               GlobalLaw(kind="normal", mu=0.3, sigma=0.5, carrier="shift"))):
            assert law.cdf(-math.inf) == 0.0
            np.testing.assert_array_equal(law.cdf(np.array([-math.inf, math.nan])), [0.0, math.nan])

    @pytest.mark.parametrize("make", [
        lambda c: ExtremeLaw(c, 1.0, 1.0), default_battery, default_points,
        lambda c: PointMeasure([1.0], carrier=c), lambda c: PointMeasure.from_json_line(
            '{"atoms": [[1.0, 1]]}', c), lambda c: MeasureBatch(c, [1.0], [1], [0], 1),
        lambda c: TestFunction([(1.0, 0.0), (2.0, 1.0), (3.0, 0.0)], c),
        lambda c: tent(1.0, 2.0, 3.0, carrier=c), lambda c: GlobalLaw.deterministic(1.0, c),
        lambda c: DecorationSpec.dirac([(1.0, 1)], carrier=c)],
        ids=["ExtremeLaw", "default_battery", "default_points", "PointMeasure",
             "from_json_line", "MeasureBatch", "TestFunction", "tent",
             "GlobalLaw", "DecorationSpec"])
    def test_carrier_is_one_of_the_two_names(self, make):
        for carrier in ("log", "Scale", None):
            with pytest.raises(DomainError,
                               match=r"^carrier must be one of \['scale', 'shift'\], not "):
                make(carrier)

    def test_sample_matches_cdf(self):
        law = ExtremeLaw("scale", 1.0, 2.0)
        xs = law.sample(4000, seed=11)
        res = stats.kstest(xs, lambda t: law.cdf(t))
        assert res.pvalue > 0.01

    def test_gumbel_fixed_point(self):
        law = ExtremeLaw("shift", 1.0, 1.0)
        assert law.cdf(0.0) == pytest.approx(math.exp(-1.0))
        q = np.array([0.1, 0.9])
        np.testing.assert_allclose(law.cdf(law.ppf(q)), q, rtol=1e-12)

    def test_maxmod_law_kappa(self):
        assert extreme_law(scdppp()).kappa == pytest.approx(1.0)
        # both atoms in one decoration: the larger modulus wins
        assert extreme_law(scdppp(atoms=((1.0, 1), (0.75, 1)))).kappa == pytest.approx(1.0)
        spec = ProcessSpec(
            "scdppp", 2.0,
            DecorationSpec.table_from_measures(
                [PointMeasure.from_atoms([(1.0, 1)]),
                 PointMeasure.from_atoms([(0.75, 1)])],
                probs=[0.5, 0.5]),
            0.05)
        assert extreme_law(spec).kappa == pytest.approx(0.5 * 1.0 + 0.5 * 0.75 ** 2)

    def test_max_location_law(self):
        spec = ProcessSpec("dppp", 1.0,
                           DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        law = extreme_law(spec)
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
    g = effective_law(law.carrier, law.law)
    if law.carrier == "scale":
        def one(t):
            if not t > 0.0:
                return 0.0
            return g.expect(lambda w: np.exp(-(t ** -law.rate) * w ** law.rate * law.kappa))
    else:
        def one(t):
            return g.expect(lambda u: np.exp(-np.exp(-law.rate * (t - u)) * law.kappa))
    with np.errstate(divide="ignore"):
        return np.array([one(t) for t in points])


MIXTURES = {
    "frechet_deterministic": ExtremeLaw("scale", 1.0, 1.3),
    "frechet_dilated": ExtremeLaw("scale", 2.0, 0.7, GlobalLaw.deterministic(1.5)),
    "frechet_table": ExtremeLaw("scale", 1.5, 0.9,
                                GlobalLaw.table([0.5, 1.0, 3.0], [0.2, 0.5, 0.3])),
    "frechet_lognormal": ExtremeLaw("scale", 1.0, 1.0,
                                    GlobalLaw(kind="lognormal", mu=0.2, sigma=0.5)),
    "gumbel_deterministic": ExtremeLaw("shift", 1.0, 1.3),
    "gumbel_table": ExtremeLaw("shift", 1.5, 0.9,
                               GlobalLaw.table([-1.0, 0.5], [0.4, 0.6], carrier="shift")),
    "gumbel_normal": ExtremeLaw("shift", 0.8, 1.1,
                                GlobalLaw(kind="normal", mu=0.3, sigma=0.5, carrier="shift")),
}


@pytest.mark.parametrize("points_per_call", [None, 7])
@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_mixture_cdf_matches_per_point_reference(name, points_per_call, monkeypatch):
    if points_per_call:
        monkeypatch.setattr("stablepp.functionals._EXPECT_POINTS", points_per_call)
    law = MIXTURES[name]
    rng = np.random.default_rng(5)
    if law.carrier == "scale":
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


@pytest.mark.parametrize("law", [ExtremeLaw("scale", 1.0, 1.3), ExtremeLaw("shift", 1.0, 1.3)],
                         ids=["frechet", "gumbel"])
def test_mixture_cdf_keeps_nan_points(law):
    assert math.isnan(law.cdf(math.nan))
    got = law.cdf(np.array([[math.nan, 1.0], [2.0, math.nan]]))
    assert np.isnan(got[0, 0]) and np.isnan(got[1, 1])
    assert 0.0 < got[0, 1] < got[1, 0] < 1.0
    if law.carrier == "scale":
        assert law.cdf(0.0) == 0.0 and law.cdf(-1.0) == 0.0
        np.testing.assert_array_equal(law.cdf(np.array([-np.inf, -1.0, -0.0, 0.0])), 0.0)


ARRAY_CASES = {
    "scale": (predict_scaled_laplace, "scale", list(np.geomspace(0.25, 8.0, 38)),
              scdppp(alpha=1.5, atoms=((1.0, 1), (0.5, 2)),
                     law=GlobalLaw(kind="lognormal", mu=0.2, sigma=0.5))),
    "shift": (predict_shift_laplace, "shift", list(np.linspace(-3.0, 3.0, 38)),
              ProcessSpec("sdppp", 0.8,
                          DecorationSpec.dirac([(0.0, 1), (-0.5, 1)], carrier="shift"), -4.0,
                          law=GlobalLaw.table([-0.5, 0.4], [0.3, 0.7], carrier="shift"))),
}


@pytest.mark.parametrize("carrier", sorted(ARRAY_CASES))
def test_predictions_over_arrays_match_scalar_calls(carrier, monkeypatch):
    predict, carrier, grid, spec = ARRAY_CASES[carrier]
    constants = []
    integrate = functionals._constant

    def counting(*args):
        constants.append(args)
        return integrate(*args)

    monkeypatch.setattr(functionals, "_constant", counting)
    for f in default_battery(carrier).values():
        scalars = [predict(spec, f, p) for p in grid]
        assert len(constants) == len(grid)
        assert all(type(s.value) is float and type(s.error_bound) is float for s in scalars)
        for shape in ((len(grid),), (2, len(grid) // 2)):
            constants.clear()
            pred = predict(spec, f, np.reshape(grid, shape))
            assert len(constants) == 1  # one constant per call, whatever the point count
            assert pred.value.shape == pred.error_bound.shape == shape
            # exactly: a point's value does not depend on where it sits in the array
            assert pred.value.ravel().tolist() == [s.value for s in scalars]
            assert pred.error_bound.ravel().tolist() == [s.error_bound for s in scalars]
        constants.clear()
    # every point is checked, not only the first
    bad = [grid[0], -1.0] if carrier == "scale" else [grid[0], math.nan]
    with pytest.raises(DomainError):
        predict(spec, next(iter(default_battery(carrier).values())), bad)


class TestBatteryEstimates:
    def test_required_window_refines(self):
        spec = scdppp(window=1.0)
        w = required_window(spec, [tent(0.5, 1.0, 2.0)], [0.5, 1.0])
        assert w == pytest.approx(0.25)
        assert required_window(spec, [], []) == 1.0

    def test_required_window_may_be_coarser_than_spec(self):
        spec = scdppp(window=0.05)
        assert required_window(spec, [tent(0.5, 1.0, 2.0)], [1.0, 2.0]) == 0.5
        battery, points = default_battery("scale").values(), default_points("scale")
        assert required_window(spec, battery, points) > 0.05
        shift = ProcessSpec("dppp", 1.0,
                            DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
        assert required_window(shift, [tent(-1.0, 0.0, 1.0, carrier="shift")], [0.5]) == -0.5
        # no nonzero function constrains the window: the spec's own is used
        zero = TestFunction([(1.0, 0.0), (2.0, 0.0)])
        assert required_window(spec, [zero], [1.0]) == 0.05
        assert required_window(spec, [tent(0.5, 1.0, 2.0)], []) == 0.05

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    def test_atoms_outside_required_window_add_exactly_zero(self, carrier):
        # a campaign drawn on the spec's window, cut down to the required
        # window, gives bit-identical integrals for every battery pair
        if carrier == "scale":
            spec, battery, points = scdppp(), default_battery("scale"), default_points("scale")
            norm = np.abs
        else:
            spec = ProcessSpec("dppp", 1.0,
                               DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
            battery, points, norm = default_battery("shift"), default_points("shift"), np.asarray
        w = required_window(spec, battery.values(), points)
        full = run_campaign(ProcessSource(spec), 11, 5000)
        keep = norm(full.locations) > w
        assert 0 < keep.sum() < keep.size
        cut = FlatCampaign(full.locations[keep], full.replica[keep], full.weights[keep],
                           full.n_reps, full.carrier, w)
        pairs = [(f, p) for f in battery.values() for p in points]
        assert np.array_equal(cut.laplace_integrals(pairs), full.laplace_integrals(pairs))

    def test_battery_estimates_shape_and_determinism(self):
        spec = scdppp()
        functions = {"tent_lo": tent(0.5, 1.0, 2.0), "tent_hi": tent(2.0, 4.0, 8.0)}
        points = [1.0, 2.0]
        a = battery_estimates(spec, functions, points, 3000, 7, threads=1)
        b = battery_estimates(spec, functions, points, 3000, 7, threads=4)
        assert set(a) == {(fid, p) for fid in functions for p in points}
        for key in a:
            assert a[key] == b[key]

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    def test_zero_function_estimate_in_a_battery_is_exact(self, carrier):
        # the zero function is visible nowhere, so the general path reads no atom
        if carrier == "scale":
            spec, f, points = scdppp(), tent(0.5, 1.0, 2.0), [0.5, 2.0]
            zero = TestFunction([(1.0, 0.0), (2.0, 0.0)])
        else:
            spec = ProcessSpec("dppp", 1.0,
                               DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0)
            f, points = tent(-1.0, 0.0, 1.0, carrier="shift"), [0.0, 1.0]
            zero = TestFunction([(0.0, 0.0), (1.0, 0.0)], carrier="shift")
        est = battery_estimates(spec, {"f": f, "zero": zero}, points, 3000, 5)
        for p in points:
            assert est[("zero", p)] == EstimateWithError(1.0, 0.0, 3000)
            assert est[("f", p)].std_error > 0.0

    def test_battery_rows_equal_their_own_rows_bit_for_bit(self):
        # one laplace_integrals call per block computes every pair's row, in
        # order, even where two pairs have the same row (tent_hi at 0.5 is
        # tent_lo at 2)
        battery = default_battery("scale")
        lo, hi = battery["tent_lo"], battery["tent_hi"]
        again, wide = tent(0.5, 1.0, 2.0), tent(1.5, 3.0, 6.0)
        far = TestFunction([(2.0 ** -520, 0.0), (2.0 ** -519, 1.0), (2.0 ** -518, 0.0)])
        far2 = TestFunction([(2.0 ** -521, 0.0), (2.0 ** -520, 1.0), (2.0 ** -519, 0.0)])
        pairs = [(f, p) for f in battery.values() for p in default_points("scale")]
        pairs += [(again, 2.0), (again, 4.0), (lo, 3.0), (wide, 1.0), (far, 1.0), (far2, 2.0)]
        source = ProcessSource(scdppp(window=2.0 ** -521))
        reduce, estimates = laplace_battery(source, pairs)
        block = run_campaign(ProcessSource(scdppp(window=0.25)), 3, 3000)
        calls = []

        class Counted:
            def laplace_integrals(self, pairs):
                calls.append(list(pairs))
                return block.laplace_integrals(pairs)

        rows = reduce(Counted())
        assert rows.shape == (len(pairs), block.n_reps)
        for pair, row in zip(pairs, rows):
            assert row.tobytes() == block.laplace_integrals([pair])[0].tobytes()
        assert calls == [pairs]
        assert np.count_nonzero(rows[pairs.index((hi, 0.5))]) > 0
        assert len(estimates(rows)) == len(pairs)

    def test_default_battery_contents(self):
        battery = default_battery("scale")
        assert set(battery) == {"tent_lo", "tent_hi", "step_ln2", "band_sym", "mm_50"}
        assert len(default_points("scale")) == 4
        assert set(default_battery("shift")) == {"gtent_lo", "gtent_hi", "gstep_ln2", "gmax_50"}
