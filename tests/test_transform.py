import math

import numpy as np
import pytest

from stablepp.errors import DomainError, RangeError
from stablepp.point_measure import (
    PointMeasure,
    TestFunction,
    integrate,
    tent,
)
from stablepp.functionals import (
    default_battery,
    default_points,
    extreme_law,
    predict_scaled_laplace,
    predict_shift_laplace,
    psi_decoration_scale,
    psi_decoration_shift,
)
from stablepp.sampler import (
    CountLaw,
    DecorationSpec,
    GlobalLaw,
    LocationLaw,
    ProcessSource,
    ProcessSpec,
    run_campaign,
)
from stablepp.transform import (
    exp_decoration,
    exp_function,
    exp_transform,
    log_decoration,
    log_function,
    log_transform,
    map_process_spec,
    normalization_shift,
    scale_law_to_shift,
    shift_law_to_scale,
)


class TestNormalizationShift:
    def test_values(self):
        assert normalization_shift(1.0) == 0.0
        assert normalization_shift(2.0) == pytest.approx(math.log(2.0) / 2.0)
        assert normalization_shift(0.5) == pytest.approx(math.log(0.5) / 0.5)

    def test_validation(self):
        for c in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                normalization_shift(c)


class TestMeasureTransforms:
    def test_exp_basics(self):
        t = PointMeasure.from_atoms([(0.0, 1)], "shift")
        assert exp_transform(t) == PointMeasure.from_atoms([(1.0, 1)])
        t = PointMeasure.from_atoms([(math.log(2.0), 1), (-math.log(2.0), 1)], "shift")
        n = exp_transform(t)
        assert n.atoms() == ((0.5, 1), (2.0, 1))

    def test_log_basics(self):
        assert log_transform(PointMeasure.from_atoms([(1.0, 1)])).atoms() == ((0.0, 1),)
        assert log_transform(PointMeasure.from_atoms([(math.e, 1)])).atoms()[0][0] == pytest.approx(1.0)

    def test_log_rejects_negative_atom(self):
        with pytest.raises(DomainError):
            log_transform(PointMeasure.from_atoms([(-1.0, 1)]))

    def test_exp_overflow(self):
        with pytest.raises(RangeError):
            exp_transform(PointMeasure.from_atoms([(1000.0, 1)], "shift"))
        with pytest.raises(RangeError):
            exp_transform(PointMeasure.from_atoms([(-1000.0, 1)], "shift"))

    def test_roundtrip_bit_exact_integer_locations(self):
        t = PointMeasure.from_atoms([(float(k), (abs(k) % 3) + 1) for k in range(-30, 31)], "shift")
        back = log_transform(exp_transform(t))
        assert back == t
        assert back.to_json_line() == t.to_json_line()

    def test_roundtrip_scale_side(self):
        n = PointMeasure.from_atoms([(1.0, 2), (math.e, 1)])
        back = exp_transform(log_transform(n))
        assert back.atoms()[0] == (1.0, 2)
        assert back.atoms()[1][0] == pytest.approx(math.e, rel=1e-15)

    def test_empty_measures(self):
        assert exp_transform(PointMeasure.from_atoms([], "shift")).n_atoms == 0
        assert log_transform(PointMeasure.from_atoms([])).n_atoms == 0

    def test_maxmod_max_correspondence(self):
        spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.1)
        campaign = run_campaign(ProcessSource(spec), 0, 50)
        for i in range(50):
            m = campaign.replica_measure(i)
            if m.n_atoms == 0:
                continue
            assert log_transform(m).extreme() == pytest.approx(
                math.log(m.extreme()), abs=1e-12)


def dilated(f, y: float) -> TestFunction:
    """The scale-carrier function x -> f(y x): its knots move to knot / y."""
    return TestFunction(list(zip(f.knots_x / y, f.knots_v)))


def dense_sup_gap(f, g, to_g):
    """sup |g(to_g(x)) - f(x)| over a dense grid on f's support."""
    xs, _ = f.knots_x, f.knots_v
    grid = []
    for a, b in zip(xs[:-1], xs[1:]):
        grid.append(np.linspace(a, b, 400))
    x = np.concatenate(grid)
    return float(np.max(np.abs(g.eval(to_g(x)) - f.eval(x))))


class TestFunctionTransforms:
    def test_plateau_endpoint_mapping(self):
        u = TestFunction([(0.5, 0.0), (1.0, 1.0), (math.e, 1.0), (2.0 * math.e, 0.0)])
        g = log_function(u)
        assert g.eval(0.0) == pytest.approx(1.0, abs=1e-6)
        assert g.eval(1.0) == pytest.approx(1.0, abs=1e-6)
        assert g.support_bounds == pytest.approx((math.log(0.5), math.log(2.0 * math.e)))

    def test_log_requires_positive_support(self):
        f = tent(-2.0, -1.0, -0.5)
        with pytest.raises(DomainError):
            log_function(f)
        sym = default_battery("scale")["band_sym"]
        with pytest.raises(DomainError):
            log_function(sym)

    def test_battery_roundtrip_within_tolerance(self):
        checked = 0
        for name, f in default_battery("scale").items():
            if float(f.knots_x[0]) <= 0.0:
                continue
            back = exp_function(log_function(f))
            gap = dense_sup_gap(f, back, lambda x: x)
            assert gap <= 1e-6 * f.sup_norm, name
            checked += 1
        assert checked >= 3

    def test_shift_battery_roundtrip_within_tolerance(self):
        for name, g in default_battery("shift").items():
            back = log_function(exp_function(g))
            gap = dense_sup_gap(g, back, lambda x: x)
            assert gap <= 1e-6 * g.sup_norm, name

    def test_transport_matches_composition(self):
        f = tent(0.5, 1.0, 4.0)
        g = log_function(f, tol=1e-7)
        xs = np.linspace(math.log(0.5), math.log(4.0), 3000)
        assert np.max(np.abs(g.eval(xs) - f.eval(np.exp(xs)))) <= 1e-7 * f.sup_norm
        h = tent(-1.0, 0.0, 2.0, carrier="shift")
        u = exp_function(h, tol=1e-7)
        ys = np.exp(np.linspace(-1.0, 2.0, 3000))
        assert np.max(np.abs(u.eval(ys) - h.eval(np.log(ys)))) <= 1e-7 * h.sup_norm

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("f", [tent(0.5, 1.0, 4.0), tent(-1.0, 0.0, 2.0, carrier="shift"),
                                   TestFunction([(1.0, 0.0), (2.0, 0.0)])],
                             ids=["tent", "shift_tent", "zero"])
    def test_a_tolerance_that_is_not_finite_and_positive_is_refused(self, f, tol):
        transport = log_function if f.carrier == "scale" else exp_function
        with pytest.raises(DomainError, match="tolerance must be finite and > 0"):
            transport(f, tol)

    @pytest.mark.parametrize("f", [tent(0.5, 1.0, 4.0), tent(-1.0, 0.0, 2.0, carrier="shift")],
                             ids=["log", "exp"])
    def test_the_knot_count_is_bounded(self, f):
        # tol 1e-13 asks for about 3e6 knots on this tent; the transport stops at
        # the budget instead of making them
        transport = log_function if f.carrier == "scale" else exp_function
        with pytest.raises(RangeError, match="more than 65536 knots"):
            transport(f, 1e-13)
        assert transport(f, 1e-9).knots_x.size <= 65536

    def test_zero_functions(self):
        z = TestFunction([(1.0, 0.0), (2.0, 0.0)])
        assert log_function(z).is_zero
        zs = TestFunction([(0.0, 0.0), (1.0, 0.0)], carrier="shift")
        assert exp_function(zs).is_zero


class TestChangeOfVariable:
    def test_cov_identity_on_sampled_replicas(self):
        # integral of the dilated u against Exp(T) equals the integral of the
        # log-composed translate against T, replica by replica
        spec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -4.0)
        campaign = run_campaign(ProcessSource(spec), 11, 200)
        battery = {k: f for k, f in default_battery("scale").items()}
        for t in (0.5, 1.0, 2.0):
            lt = math.log(t)
            for u in battery.values():
                ut = dilated(u, 1.0 / t)
                for i in range(0, 200, 7):
                    T = campaign.replica_measure(i)
                    lhs = integrate(exp_transform(T), ut)
                    rhs = sum(
                        mult * float(u.eval(math.exp(z - lt)))
                        for z, mult in T.atoms()
                    )
                    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    def test_cov_identity_from_scale_sample(self):
        # same identity entered from the scale side with shared seeds
        spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)
        campaign = run_campaign(ProcessSource(spec), 13, 100)
        u = tent(0.5, 1.0, 8.0)
        for t in (0.5, 1.0, 2.0):
            lt = math.log(t)
            for i in range(0, 100, 11):
                n = campaign.replica_measure(i)
                lhs = integrate(n, dilated(u, 1.0 / t))
                T = log_transform(n)
                rhs = sum(mult * float(u.eval(math.exp(z - lt))) for z, mult in T.atoms())
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


class TestDecorationTransforms:
    def test_dirac(self):
        d = DecorationSpec.dirac([(1.0, 1), (2.0, 2)])
        q = log_decoration(d)
        assert q.carrier == "shift"
        assert q.atoms == ((0.0, 1), (math.log(2.0), 2))
        back = exp_decoration(q)
        assert back.carrier == "scale"
        assert back.atoms[0] == (1.0, 1)
        assert back.atoms[1][0] == pytest.approx(2.0, rel=1e-15)

    def test_table(self):
        d = DecorationSpec.table_from_measures(
            [PointMeasure.from_atoms([(1.0, 1)]), PointMeasure.from_atoms([(4.0, 1)])],
            probs=[0.25, 0.75],
        )
        q = log_decoration(d)
        assert q.kind == "table"
        assert q.entries[0][0] == ((0.0, 1),)
        assert q.entries[1][0][0][0] == pytest.approx(math.log(4.0))

    def test_negative_atom_rejected(self):
        d = DecorationSpec.dirac([(-1.0, 1)])
        with pytest.raises(DomainError):
            log_decoration(d)

    def test_random_atoms_table_location(self):
        d = DecorationSpec(
            kind="random_atoms", carrier="scale",
            count=CountLaw(kind="table", values=(1, 2), probs=(0.5, 0.5)),
            location=LocationLaw(kind="table", values=(1.0, 2.0), probs=(0.5, 0.5)),
        )
        q = log_decoration(d)
        assert q.location.kind == "table"
        assert q.location._table[0][0] == 0.0

    def test_random_atoms_uniform_location_rejected(self):
        d = DecorationSpec(
            kind="random_atoms", carrier="scale",
            count=CountLaw(kind="table", values=(1,), probs=(1.0,)),
            location=LocationLaw(kind="uniform", low=1.0, high=2.0),
        )
        with pytest.raises(DomainError):
            log_decoration(d)

    def test_carrier_mismatch(self):
        d = DecorationSpec.dirac([(1.0, 1)])
        with pytest.raises(DomainError):
            exp_decoration(d)
        with pytest.raises(DomainError):
            log_decoration(log_decoration(DecorationSpec.dirac([(1.0, 1)])))


class TestLawTransforms:
    def test_deterministic_shift_includes_normalization(self):
        law = scale_law_to_shift(GlobalLaw.deterministic(1.0), 2.0)
        assert law.kind == "deterministic"
        assert law.value == pytest.approx(math.log(2.0) / 2.0)
        back = shift_law_to_scale(law, 2.0)
        assert back.value == pytest.approx(1.0, rel=1e-15)

    def test_table_roundtrip(self):
        law = GlobalLaw.table([1.0, 3.0], [0.5, 0.5])
        sh = scale_law_to_shift(law, 1.0)
        assert sh.kind == "table"
        back = shift_law_to_scale(sh, 1.0)
        np.testing.assert_allclose(back.values, [1.0, 3.0], rtol=1e-15)
        np.testing.assert_allclose(back.probs, [0.5, 0.5])

    def test_lognormal_normal_pair(self):
        law = scale_law_to_shift(GlobalLaw(kind="lognormal", mu=0.3, sigma=0.7), 1.0)
        assert law.kind == "normal"
        assert law.mu == pytest.approx(0.3)
        assert law.sigma == pytest.approx(0.7)
        back = shift_law_to_scale(law, 1.0)
        assert back.kind == "lognormal"
        assert back.mu == pytest.approx(0.3)

    def test_overflow_guard(self):
        with pytest.raises(RangeError):
            shift_law_to_scale(GlobalLaw.deterministic(1000.0, carrier="shift"), 1.0)


class TestMapProcessSpec:
    def test_scdppp_maps_to_dppp(self):
        spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05)
        mapped = map_process_spec(spec)
        assert mapped.family == "dppp"
        assert mapped.alpha == 1.0
        assert mapped.decoration.atoms == ((0.0, 1),)
        assert mapped.window == pytest.approx(math.log(0.05))

    def test_sscdppp_maps_to_sdppp(self):
        spec = ProcessSpec("sscdppp", 2.0, DecorationSpec.dirac([(1.0, 1)]), 0.1,
                           law=GlobalLaw.deterministic(3.0))
        mapped = map_process_spec(spec)
        assert mapped.family == "sdppp"
        assert mapped.law.value == pytest.approx(
            math.log(3.0) + math.log(2.0) / 2.0)

    def test_roundtrip_identity_field_by_field(self):
        specs = [
            ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05),
            ProcessSpec("scdppp", 2.0, DecorationSpec.dirac([(1.0, 1), (2.0, 1)]), 0.25),
            ProcessSpec("dppp", 1.5, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -3.0),
            ProcessSpec("sdppp", 1.0, DecorationSpec.dirac([(0.5, 2)], carrier="shift"), -2.0,
                        law=GlobalLaw.deterministic(0.7, carrier="shift")),
        ]
        for spec in specs:
            back = map_process_spec(map_process_spec(spec))
            assert back.family == spec.family
            assert back.alpha == spec.alpha
            assert back.window == pytest.approx(spec.window, rel=1e-12)
            got = back.decoration.atoms
            want = spec.decoration.atoms
            assert len(got) == len(want)
            for (ga, gm), (wa, wm) in zip(got, want):
                assert gm == wm
                assert ga == pytest.approx(wa, rel=1e-12, abs=1e-12)

    def test_canonicalization_to_undecorated_family(self):
        # the identity dilation maps to translation 0 and drops the law
        spec = ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05,
                           law=GlobalLaw.deterministic(1.0))
        mapped = map_process_spec(spec)
        assert mapped.family == "dppp"
        assert mapped.law is None
        back = map_process_spec(mapped)
        assert back.family == "scdppp"

    def test_negative_decoration_rejected(self):
        spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(-1.0, 1), (1.0, 1)]), 0.05)
        with pytest.raises(DomainError):
            map_process_spec(spec)

    def test_window_bookkeeping(self):
        spec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), -2.0)
        mapped = map_process_spec(spec)
        assert mapped.window == pytest.approx(math.exp(-2.0))


class TestDictionaryParity:
    """Closed forms agree across the dictionary: a scale prediction equals the
    shift prediction of the mapped spec at log y, up to function transport."""

    TOL = 1e-6  # twice the 5e-7 transport tolerance at sup norm 1

    SPECS = {
        "scdppp_dirac": ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 0.05),
        "sscdppp_lognormal": ProcessSpec(
            "sscdppp", 1.5, DecorationSpec.dirac([(0.5, 1), (1.0, 1)]), 0.05,
            law=GlobalLaw(kind="lognormal", mu=0.2, sigma=0.5)),
        "sscdppp_table": ProcessSpec(
            "sscdppp", 0.8, DecorationSpec.table_from_measures(
                [PointMeasure([1.0]), PointMeasure([0.7, 1.2])], [0.4, 0.6]), 0.05,
            law=GlobalLaw.table([0.5, 2.0], [0.3, 0.7])),
        "sscdppp_atoms_table": ProcessSpec(
            "sscdppp", 1.2, DecorationSpec.random_atoms(
                [(1, 0.4), (2, 0.6)], LocationLaw(kind="table", values=(0.7, 1.3),
                                                  probs=(0.4, 0.6))), 0.05,
            law=GlobalLaw(kind="lognormal", mu=0.1, sigma=0.4)),
    }
    FUNCTIONS = ("tent_lo", "tent_hi", "step_ln2")

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_predictions(self, name):
        spec = self.SPECS[name]
        mapped = map_process_spec(spec)
        battery = default_battery("scale")
        for fid in self.FUNCTIONS:
            g = log_function(battery[fid])
            # one call per function and carrier over the whole grid
            a = predict_scaled_laplace(spec, battery[fid], default_points("scale"))
            b = predict_shift_laplace(mapped, g, [math.log(y) for y in default_points("scale")])
            for y, av, bv in zip(default_points("scale"), a.value, b.value):
                assert abs(av - bv) <= self.TOL, (fid, y, av, bv)

    @pytest.mark.parametrize("name", ["scdppp_dirac", "sscdppp_lognormal", "sscdppp_table"])
    def test_extreme_laws(self, name):
        # P(maxmod <= y) is the Gumbel mixture of the mapped spec at log y
        spec = self.SPECS[name]
        y = np.geomspace(0.05, 50.0, 41)
        frechet = extreme_law(spec).cdf(y)
        gumbel = extreme_law(map_process_spec(spec)).cdf(np.log(y))
        np.testing.assert_allclose(frechet, gumbel, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_decoration_functionals(self, name):
        dec = self.SPECS[name].decoration
        image = log_decoration(dec)
        battery = default_battery("scale")
        for fid in self.FUNCTIONS:
            g = log_function(battery[fid])
            for s in default_points("scale"):
                a = psi_decoration_scale(dec, battery[fid], s)
                b = psi_decoration_shift(image, g, math.log(s))
                assert abs(a - b) <= self.TOL, (fid, s, a, b)
