import json
import math

import numpy as np
import pytest

from stablepp.errors import ConfigError, DomainError
from stablepp.functionals import default_battery
from stablepp.point_measure import (
    PointMeasure,
    TestFunction,
    indicator_approx,
    integrate,
    shift_indicator_approx,
    tent,
)


def tent_family(n, outer=1e8):
    """Member n of the plateau family behind ``tent_family_bias_bound``: value n
    for |x| >= 1 + 1/n, a ramp of width 1/n below it, an outer cutoff."""
    return indicator_approx(float(n), edge=1.0, outer=outer, ramp=1.0 / n, symmetric=True)


class TestCanonicalForm:
    def test_atoms_sorted_and_merged(self):
        m = PointMeasure([3.0, -1.0, 3.0, 2.0], [1, 2, 4, 1])
        assert m.atoms() == ((-1.0, 2), (2.0, 1), (3.0, 5))
        assert m.n_atoms == 3
        assert m.total_mass == 8

    def test_origin_rejected_on_scale_carrier(self):
        text = "^atoms at the origin are not allowed on the scale carrier$"
        with pytest.raises(DomainError, match=text):
            PointMeasure([0.0])

    def test_origin_allowed_on_shift_carrier(self):
        m = PointMeasure([0.0, -2.0], carrier="shift")
        assert m.atoms() == ((-2.0, 1), (0.0, 1))

    def test_multiplicities_must_be_positive_integers(self):
        with pytest.raises(DomainError):
            PointMeasure([1.0], [0])
        with pytest.raises(DomainError):
            PointMeasure([1.0], [1.5])
        # integral floats are accepted
        assert PointMeasure([1.0], [2.0]).total_mass == 2

    def test_total_mass_is_exact_past_int64(self):
        assert PointMeasure([1.0, 2.0], [2**62, 2**62]).total_mass == 2**63
        assert PointMeasure().total_mass == 0

    @pytest.mark.parametrize("mults", [[True], [2 ** 70], [2 ** 63], [1e30], [math.inf]],
                             ids=["bool", "int_2_70", "uint_2_63", "float_1e30", "inf"])
    def test_multiplicities_are_int64_integers(self, mults):
        # a boolean is not a count, and a count beyond int64 cannot be stored
        with pytest.raises(DomainError, match="int64"):
            PointMeasure([1.0], mults)

    @pytest.mark.parametrize("mults", [[True, 2], [2, np.True_], (1, False), [2 ** 70, 1],
                                       [1, -(2 ** 70)]],
                             ids=["bool_first", "numpy_bool", "tuple_false", "int_2_70",
                                  "int_minus_2_70"])
    def test_a_bad_count_among_good_ones_is_refused(self, mults):
        # numpy turns [True, 2] into int64 (1, 2), and [2**70, 1] into an object array
        with pytest.raises(DomainError, match="int64"):
            PointMeasure([1.0, 2.0], mults)

    @pytest.mark.parametrize("mults", [[2 ** 62, 2 ** 62], [2 ** 63 - 1, 1],
                                       [2 ** 63 - 1] * 3],
                             ids=["wraps_negative", "wraps_to_min", "wraps_positive"])
    def test_merged_multiplicities_stay_in_int64(self, mults):
        # three counts of 2**63 - 1 sum, in int64, to the positive 2**63 - 3
        line = json.dumps({"atoms": [[1.0, m] for m in mults]})
        with pytest.raises(DomainError, match="merged at one location must sum to below 2"):
            PointMeasure([1.0] * len(mults), mults)
        with pytest.raises(ConfigError, match="merged at one location must sum to below 2"):
            PointMeasure.from_json_line(line)

    def test_merged_multiplicity_may_reach_the_int64_maximum(self):
        assert PointMeasure([1.0, 1.0], [2 ** 62, 2 ** 62 - 1]).atoms() == ((1.0, 2 ** 63 - 1),)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            PointMeasure([math.inf])
        with pytest.raises(DomainError):
            PointMeasure([math.nan], carrier="shift")

    def test_immutable(self):
        m = PointMeasure([1.0])
        with pytest.raises(AttributeError):
            m.locations = np.array([2.0])
        with pytest.raises(ValueError):
            m.locations[0] = 2.0

    def test_equality_and_hash(self):
        a = PointMeasure([1.0, 2.0], [1, 3])
        b = PointMeasure([2.0, 1.0, 2.0], [2, 1, 1])
        assert a == b and hash(a) == hash(b)
        assert a != PointMeasure([1.0, 2.0], [1, 2])
        assert a != PointMeasure([1.0, 2.0], [1, 3], carrier="shift")
        # one atom at 1 is a different measure on each carrier
        scale, shift = PointMeasure([1.0]), PointMeasure([1.0], carrier="shift")
        assert scale != shift and hash(scale) != hash(shift)
        assert (scale.carrier, shift.carrier) == ("scale", "shift")

    def test_empty_measure(self):
        m = PointMeasure([])
        assert m.n_atoms == 0
        assert m.extreme() == 0.0
        assert PointMeasure([], carrier="shift").extreme() == -math.inf


class TestMeasureOps:
    def test_maxmod(self):
        assert PointMeasure([-5.0, 3.0]).extreme() == 5.0
        assert PointMeasure([-5.0, 3.0], carrier="shift").extreme() == 3.0

    def test_json_round_trip(self):
        m = PointMeasure([1.5, -2.0], [1, 4])
        line = m.to_json_line()
        assert PointMeasure.from_json_line(line) == m
        doc = json.loads(line)
        assert set(doc) == {"atoms"}

    def test_json_rejects_malformed(self):
        with pytest.raises(ConfigError):
            PointMeasure.from_json_line("{}")
        with pytest.raises(ConfigError):
            PointMeasure.from_json_line('{"atoms": [[1.0, 1]], "extra": 0}')
        with pytest.raises(ConfigError):
            PointMeasure.from_json_line('{"atoms": [[1.0]]}')
        with pytest.raises(ConfigError):
            PointMeasure.from_json_line("not json")


class TestTestFunction:
    def test_knot_validation(self):
        with pytest.raises(DomainError):
            TestFunction([(1.0, 0.0)])
        with pytest.raises(DomainError):
            TestFunction([(1.0, 0.0), (1.0, 0.0)])
        with pytest.raises(DomainError):
            TestFunction([(1.0, 0.5), (2.0, 0.0)])  # must start at 0
        with pytest.raises(DomainError):
            TestFunction([(1.0, 0.0), (2.0, -1.0), (3.0, 0.0)])

    def test_support_may_not_touch_origin(self):
        text = "^test functions on the scale carrier must vanish near the origin$"
        with pytest.raises(DomainError, match=text):
            TestFunction([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(DomainError, match=text):
            TestFunction([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
        # the shift carrier has no origin to avoid
        assert TestFunction([(-1.0, 0.0), (0.0, 1.0), (1.0, 0.0)], "shift").eval(0.0) == 1.0
        # negative-side support is fine if it stays away from 0
        f = TestFunction([(-2.0, 0.0), (-1.5, 1.0), (-1.0, 0.0)])
        assert f.eval(-1.5) == 1.0

    def test_eval_exact_at_knots_and_zero_outside(self):
        f = tent(1.0, 2.0, 4.0, height=0.7)
        assert f.eval(2.0) == 0.7
        assert f.eval(1.0) == 0.0 and f.eval(4.0) == 0.0
        assert f.eval(0.5) == 0.0 and f.eval(5.0) == 0.0
        np.testing.assert_allclose(f.eval(np.array([1.5, 3.0])), [0.35, 0.35])

    def test_eval_vector_shape_and_scalar_type(self):
        f = tent(1.0, 2.0, 3.0)
        out = f.eval(np.array([[1.5, 2.0], [2.5, 9.0]]))
        assert out.shape == (2, 2)
        assert isinstance(f.eval(2.0), float)

    def test_support_bounds_and_sup_norm(self):
        f = tent(0.5, 1.0, 2.0, height=3.0)
        assert f.support_bounds == (0.5, 2.0)
        assert f.sup_norm == 3.0
        assert not f.is_zero

    def test_zero_function(self):
        z = TestFunction([(1.0, 0.0), (2.0, 0.0)])
        assert z.is_zero
        assert z.support_bounds == (math.inf, 0.0)

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    def test_support_bounds_match_a_scan_of_the_pieces(self, carrier):
        rng = np.random.default_rng(3)
        rejected = 0
        for trial in range(3000):
            n = int(rng.integers(2, 9))
            xs = np.unique(rng.integers(-6, 7, n + 3).astype(float) * rng.choice([0.5, 1.0]))
            if xs.size < 2:
                continue
            vs = np.where(rng.random(xs.size) < 0.5, 0.0, rng.random(xs.size))
            if trial % 10 == 0:
                vs[:] = 0.0  # the zero function
            vs[0] = vs[-1] = 0.0
            knots = list(zip(xs.tolist(), vs.tolist()))
            # the pieces where f is not 0, their end points and carrier norms
            live = [(xs[k], xs[k + 1]) for k in range(xs.size - 1) if vs[k] > 0 or vs[k + 1] > 0]
            ends = [x for piece in live for x in piece]
            if carrier == "scale":
                if any(a <= 0.0 <= b for a, b in live):  # a nonzero piece touches 0
                    rejected += 1
                    with pytest.raises(DomainError, match="vanish near the origin"):
                        TestFunction(knots, carrier)
                    continue
                expected = (min(map(abs, ends), default=math.inf), max(map(abs, ends), default=0.0))
            else:
                expected = (min(ends, default=math.inf), max(ends, default=-math.inf))
            f = TestFunction(knots, carrier)
            assert f.support_bounds == expected and f.carrier == carrier
            with pytest.raises(AttributeError):
                setattr(f, "support_bounds", (0.0, 0.0))
        assert (rejected > 500) == (carrier == "scale")

    def test_integrate(self):
        f = tent(1.0, 2.0, 4.0)
        m = PointMeasure([2.0, 3.0, 10.0], [2, 1, 5])
        assert integrate(m, f) == pytest.approx(2 * 1.0 + 0.5)
        assert integrate(PointMeasure([]), f) == 0.0

    def test_integrate_carrier_mismatch(self):
        with pytest.raises(DomainError):
            integrate(PointMeasure([2.0], carrier="shift"), tent(1.0, 2.0, 3.0))
        with pytest.raises(DomainError):
            integrate(PointMeasure([2.0]), tent(1.0, 2.0, 3.0, carrier="shift"))


def _reference_eval(f, x: float) -> float:
    """Per-point piecewise-linear evaluation: knot value on a knot, linear
    interpolation strictly between knots, 0 outside the knot range."""
    xs, vs = f.knots_x.tolist(), f.knots_v.tolist()
    if not xs[0] <= x <= xs[-1]:
        return 0.0
    for k, xk in enumerate(xs):
        if x == xk:
            return vs[k]
        if x < xk:
            x0, x1, v0, v1 = xs[k - 1], xk, vs[k - 1], vs[k]
            return v0 + (v1 - v0) * ((x - x0) / (x1 - x0))
    raise AssertionError("unreachable")


BATTERIES = {**default_battery("scale"), **default_battery("shift")}


@pytest.mark.parametrize("fid", sorted(BATTERIES))
class TestEvalKernel:
    def test_exact_at_knots(self, fid):
        f = BATTERIES[fid]
        out = f.eval(f.knots_x)
        assert np.array_equal(out, f.knots_v)
        assert np.array_equal(out, [_reference_eval(f, x) for x in f.knots_x.tolist()])

    def test_zero_outside_knots_and_at_infinity(self, fid):
        f = BATTERIES[fid]
        lo, hi = f.knots_x[0], f.knots_x[-1]
        xs = np.array([-math.inf, lo - 1.0, np.nextafter(lo, -math.inf),
                       np.nextafter(hi, math.inf), hi + 1.0, math.inf])
        assert np.array_equal(f.eval(xs), np.zeros(xs.size))
        assert f.eval(-math.inf) == 0.0 and f.eval(math.inf) == 0.0

    def test_ramps_within_one_ulp_of_sup_norm(self, fid):
        f = BATTERIES[fid]
        rng = np.random.default_rng(20180213)
        ulp = np.spacing(f.sup_norm)
        ramps = 0
        for x0, x1, v0, v1 in zip(f.knots_x[:-1], f.knots_x[1:],
                                  f.knots_v[:-1], f.knots_v[1:]):
            if v0 == v1:
                continue
            ramps += 1
            qs = rng.uniform(x0, x1, 500)
            ref = np.array([_reference_eval(f, q) for q in qs.tolist()])
            assert np.max(np.abs(f.eval(qs) - ref)) <= ulp
        assert ramps > 0

    def test_scalar_input_returns_float(self, fid):
        f = BATTERIES[fid]
        x = float(f.knots_x[1])
        for q in (x, np.float64(x), np.array(x)):
            out = f.eval(q)
            assert type(out) is float
            assert out == _reference_eval(f, x)


class TestShapedConstructors:
    def test_indicator_approx_plateau(self):
        f = indicator_approx(math.log(2.0), edge=1.0, outer=100.0, ramp=1e-3)
        assert f.sup_norm == math.log(2.0)
        assert f.eval(1.0) == 0.0
        assert f.eval(1.0 + 1e-3) == pytest.approx(math.log(2.0))
        assert f.eval(50.0) == math.log(2.0)
        assert f.eval(-50.0) == 0.0

    def test_symmetric_indicator(self):
        f = indicator_approx(2.0, edge=1.0, outer=100.0, ramp=1e-3, symmetric=True)
        assert f.eval(-50.0) == 2.0 and f.eval(50.0) == 2.0
        assert f.eval(0.5) == 0.0
        assert f.support_bounds == (1.0, 100.0 * (1.0 + 1e-3))

    def test_tent_family_levels_increase(self):
        f2 = tent_family(2)
        f5 = tent_family(5)
        assert f2.sup_norm == 2.0 and f5.sup_norm == 5.0
        # steeper ramp for larger n
        assert f5.eval(1.0 + 1.0 / 5.0) == pytest.approx(5.0)
        assert f2.eval(1.0 + 1.0 / 5.0) < 2.0

    def test_shift_tent_and_indicator(self):
        g = tent(-1.0, 0.0, 2.0, height=2.0, carrier="shift")
        assert g.eval(0.0) == 2.0
        assert g.support_bounds == (-1.0, 2.0)
        h = shift_indicator_approx(1.0, edge=0.0, outer=30.0)
        assert h.eval(10.0) == 1.0 and h.eval(-1.0) == 0.0

    def test_shift_function_rejects_scale_only_args(self):
        with pytest.raises(DomainError):
            TestFunction([(1.0, 0.0), (2.0, 1.0)], carrier="shift")  # must end at 0
