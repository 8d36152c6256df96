import dataclasses
import hashlib
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepp.errors import ConfigError, DomainError, RangeError
from stablepp.functionals import battery_estimates, extreme_law
from stablepp.point_measure import (
    SCALE,
    SHIFT,
    Carrier,
    PointMeasure,
    TestFunction,
    indicator_approx,
    integrate,
    shift_indicator_approx,
    tent,
)
from stablepp.sampler import (
    BLOCK_SIZE,
    CARRIERS,
    READ,
    CountLaw,
    DecorationSpec,
    FlatCampaign,
    GlobalLaw,
    LocationLaw,
    ProcessSource,
    ProcessSpec,
    SuperposeSource,
    campaign_stats,
    maxmod_samples,
    process_spec_from_config,
    resolve_threads,
    run_campaign,
)
from stablepp.rng import ROLE_BLOCK, derive_key
from stablepp.sampler import _block, _blocks, _ragged_gather


def unit_spec(window=1.0, alpha=1.0):
    return ProcessSpec("scdppp", alpha, DecorationSpec.dirac([(1.0, 1)]), window)


def dilated_unit_spec(b, window):
    """S_b of the unit spec: the unit decoration under the global dilation W = b."""
    return ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), window,
                       GlobalLaw.deterministic(b))


class TestLocationLaw:
    def test_uniform(self):
        law = LocationLaw(kind="uniform", low=1.0, high=2.0)
        assert law.bounds() == (1.0, 2.0)
        rng = np.random.default_rng(0)
        x = law.sample(rng, 1000)
        assert np.all((x >= 1.0) & (x <= 2.0))

    def test_table(self):
        law = LocationLaw(kind="table", values=(1.0, 3.0), probs=(0.25, 0.75))
        assert law.bounds() == (1.0, 3.0)
        x = law.sample(np.random.default_rng(1), 4000)
        assert set(np.unique(x)) == {1.0, 3.0}
        assert abs(np.mean(x == 3.0) - 0.75) < 0.03

    def test_validation(self):
        with pytest.raises(DomainError):
            LocationLaw(kind="uniform", low=2.0, high=1.0)
        with pytest.raises(DomainError):
            LocationLaw(kind="table", values=(1.0,), probs=(0.5,))
        with pytest.raises(DomainError):
            LocationLaw(kind="gamma")


# one law of every kind of every law class, keyed by the config field that reads it
LAWS = {
    "location": [LocationLaw(kind="uniform", low=0.5, high=1.5),
                 LocationLaw(kind="table", values=(0.5, 1.5), probs=(0.25, 0.75))],
    "scale": [GlobalLaw.deterministic(2.0), GlobalLaw(kind="lognormal", mu=0.1, sigma=0.5),
              GlobalLaw.table([0.5, 2.0], [0.5, 0.5])],
    "shift": [GlobalLaw.deterministic(-1.0, carrier="shift"),
              GlobalLaw(kind="normal", mu=0.1, sigma=0.5, carrier="shift"),
              GlobalLaw.table([-1.0, 2.0], [0.5, 0.5], carrier="shift")],
}
ALL_KINDS = {kind for laws in LAWS.values() for law in laws for kind in law.kinds}


class TestLawBody:
    @pytest.mark.parametrize("key, law", [(k, law) for k, laws in LAWS.items() for law in laws],
                             ids=lambda v: v if isinstance(v, str) else v.kind)
    def test_config_round_trip(self, key, law):
        assert READ[key](law.to_config_dict(), "x") == law

    def test_every_kind_is_covered(self):
        for laws in LAWS.values():
            assert {law.kind for law in laws} == set(laws[0].kinds)

    @pytest.mark.parametrize("key", sorted(LAWS))
    def test_reader_accepts_exactly_the_class_kinds(self, key):
        kinds = LAWS[key][0].kinds
        for kind in sorted(ALL_KINDS - set(kinds)):
            with pytest.raises(ConfigError, match="must be one of"):
                READ[key]({"kind": kind}, "x")

    def test_count_law_round_trips_through_its_decoration(self):
        dec = DecorationSpec.random_atoms([(1, 0.25), (3, 0.75)], LAWS["location"][0])
        assert dec.count == CountLaw(kind="table", values=(1, 3), probs=(0.25, 0.75))
        assert DecorationSpec(carrier="scale", **READ["decoration"](dec.to_config_dict(), "x")) == dec

    @pytest.mark.parametrize("counts", [[(1.5, 1.0)], [(0, 1.0)], [(1, 0.5), (-2, 0.5)], []])
    def test_counts_are_integers_of_at_least_one(self, counts):
        with pytest.raises(DomainError):
            DecorationSpec.random_atoms(counts, LAWS["location"][0])

    def test_integral_counts_are_kept_as_ints(self):
        dec = DecorationSpec.random_atoms([(2.0, 1.0)], LAWS["location"][0])
        assert dec.to_config_dict()["count_probs"] == [[2, 1.0]]

    @pytest.mark.parametrize("make", [
        lambda: LocationLaw(kind="table", values=(0.5, math.nan), probs=(0.5, 0.5)),
        lambda: LocationLaw(kind="uniform", low=-math.inf, high=0.5),
        lambda: LocationLaw(kind="uniform", low=0.5),
        lambda: GlobalLaw(kind="lognormal", mu=math.nan, sigma=0.5),
        lambda: GlobalLaw(kind="normal", mu=0.0, sigma=math.inf, carrier="shift"),
        lambda: GlobalLaw.deterministic(math.inf, carrier="shift"),
        lambda: CountLaw(kind="table", values=(math.inf,), probs=(1.0,)),
    ])
    def test_every_number_a_kind_reads_is_finite(self, make):
        with pytest.raises(DomainError, match="must be finite"):
            make()


class TestDecorationSpec:
    def test_dirac_bounds_and_moment(self):
        d = DecorationSpec.dirac([(0.5, 1), (-2.0, 3)])
        assert d.bound == 2.0
        assert extreme_law(ProcessSpec("scdppp", 2.0, d, 0.05)).kappa == 4.0

    def test_dirac_rejects_origin_atom_on_scale_carrier(self):
        with pytest.raises(DomainError):
            DecorationSpec.dirac([(0.0, 1)])
        DecorationSpec.dirac([(0.0, 1)], carrier="shift")

    def test_table_moment_is_mixture(self):
        d = DecorationSpec(
            kind="table",
            entries=((((1.0, 1),), 0.5), (((2.0, 1), (0.5, 2)), 0.5)),
        )
        kappa = extreme_law(ProcessSpec("scdppp", 1.0, d, 0.05)).kappa
        assert kappa == pytest.approx(0.5 * 1.0 + 0.5 * 2.0)
        assert d.bound == 2.0

    def test_random_atoms_moment_is_closed_form(self):
        d = DecorationSpec.random_atoms(
            [(1, 0.5), (3, 0.5)], LocationLaw(kind="uniform", low=0.5, high=2.0)
        )
        assert d.bound == 2.0
        # E[max of k uniforms on (0.5, 2)] = 0.5 + 1.5 k / (k + 1)
        kappa = extreme_law(ProcessSpec("scdppp", 1.0, d, 0.05)).kappa
        assert kappa == pytest.approx(0.5 * 1.25 + 0.5 * 1.625, rel=1e-12)

    def test_random_atoms_location_must_avoid_origin_on_scale_carrier(self):
        with pytest.raises(DomainError):
            DecorationSpec.random_atoms(
                [(1, 1.0)], LocationLaw(kind="uniform", low=-1.0, high=1.0)
            )
        DecorationSpec.random_atoms(
            [(1, 1.0)], LocationLaw(kind="uniform", low=-1.0, high=1.0), carrier="shift"
        )

    @pytest.mark.parametrize("law", [
        LocationLaw(kind="table", values=(1e-200, 2e-200), probs=(0.5, 0.5)),
        LocationLaw(kind="uniform", low=-1e-200, high=-1e-201),
        LocationLaw(kind="uniform", low=5e-324, high=1e-323),
        LocationLaw(kind="table", values=(-1.0, 0.5, 2.0), probs=(0.3, 0.3, 0.4)),
        LocationLaw(kind="table", values=(-1e-200, 2e-200), probs=(0.5, 0.5)),
    ])
    def test_a_location_law_near_but_off_the_origin_is_a_scale_law(self, law):
        # the sign of each uniform bound decides, as a product of the bounds
        # underflows to 0; a table is checked value by value, so it may
        # straddle 0 without holding it
        assert DecorationSpec.random_atoms([(1, 1.0)], law).bound == max(map(abs, law.bounds()))

    @pytest.mark.parametrize("law", [
        LocationLaw(kind="uniform", low=0.0, high=1.0),
        LocationLaw(kind="uniform", low=-1.0, high=0.0),
        LocationLaw(kind="uniform", low=-1e-200, high=1e-200),
        LocationLaw(kind="table", values=(-0.0, -1.0), probs=(0.5, 0.5)),
        LocationLaw(kind="table", values=(0.0, 1e-200), probs=(0.5, 0.5)),
        LocationLaw(kind="table", values=(-1.0, 0.0, 2.0), probs=(0.3, 0.3, 0.4)),
    ])
    def test_a_location_law_touching_or_straddling_the_origin_is_refused(self, law):
        with pytest.raises(DomainError) as exc:
            DecorationSpec.random_atoms([(1, 1.0)], law)
        assert str(exc.value) == "location law on the scale carrier must exclude 0"

    def test_bound_is_the_largest_attainable_norm(self):
        assert DecorationSpec.dirac([(3.0, 1), (-4.0, 2)]).bound == 4.0
        assert DecorationSpec.dirac([(-3.0, 1), (-4.0, 2)], carrier="shift").bound == -3.0
        assert DecorationSpec.random_atoms(
            [(1, 1.0)], LocationLaw(kind="uniform", low=-2.5, high=-0.5)).bound == 2.5
        assert DecorationSpec.random_atoms(
            [(1, 1.0)], LocationLaw(kind="table", values=(-1.0, 0.5), probs=(0.5, 0.5)),
            carrier="shift").bound == 0.5
        with pytest.raises(TypeError):
            DecorationSpec.dirac([(3.0, 1)], maxmod_bound=5.0)

    def test_table_from_measures_takes_the_carrier_of_the_measures(self):
        d = DecorationSpec.table_from_measures([PointMeasure([2.0, 3.0], carrier="shift")])
        assert d.carrier == "shift" and d.entries == ((((2.0, 1), (3.0, 1)), 1.0),)
        assert DecorationSpec.table_from_measures([PointMeasure([2.0])]).carrier == "scale"

    def test_table_from_measures_refuses_no_measures_and_mixed_carriers(self):
        with pytest.raises(DomainError, match="table decoration requires entries"):
            DecorationSpec.table_from_measures([])
        # every measure needs its probability, and every probability its measure
        m1, m2 = PointMeasure([1.0]), PointMeasure([2.0])
        for measures, probs in (([m1, m2], [1.0]), ([m1], [0.5, 0.5]), ([], [1.0])):
            with pytest.raises(DomainError, match="one probability per measure"):
                DecorationSpec.table_from_measures(measures, probs)
        with pytest.raises(DomainError, match="one carrier"):
            DecorationSpec.table_from_measures([PointMeasure([1.0]),
                                                PointMeasure([1.0], carrier="shift")])

    def test_sample_atoms_block_dirac(self):
        d = DecorationSpec.dirac([(1.0, 2), (-0.5, 1)])
        counts, locs, w = d.sample_atoms_block(np.random.default_rng(0), 3)
        assert counts == 2 and counts * 3 == locs.size == w.size
        assert locs.tolist() == [1.0, -0.5] * 3
        assert w.tolist() == [2, 1] * 3

    def test_sample_atoms_block_table_counts(self):
        d = DecorationSpec(
            kind="table",
            entries=((((1.0, 1),), 0.5), (((2.0, 1), (0.5, 1)), 0.5)),
        )
        counts, locs, w = d.sample_atoms_block(np.random.default_rng(3), 5000)
        assert counts.shape == (5000,) and counts.sum() == locs.size == w.size
        assert set(counts.tolist()) == {1, 2}
        assert abs(np.mean(counts == 2) - 0.5) < 0.03
        # each copy's atoms are its entry's, in order, copy 0's first
        first = np.cumsum(counts) - counts
        assert locs[first].tolist() == np.where(counts == 2, 2.0, 1.0).tolist()
        assert np.all(locs[first[counts == 2] + 1] == 0.5)

    def test_sample_atoms_block_random(self):
        d = DecorationSpec.random_atoms(
            [(2, 1.0)], LocationLaw(kind="uniform", low=1.0, high=2.0)
        )
        counts, locs, w = d.sample_atoms_block(np.random.default_rng(4), 100)
        assert counts.tolist() == [2] * 100 and counts.sum() == locs.size == w.size
        assert np.all(w == 1)
        assert np.all((locs >= 1.0) & (locs <= 2.0))


def test_ragged_gather_matches_loop():
    starts = np.array([5, 0, 11], dtype=np.int64)
    counts = np.array([2, 3, 1], dtype=np.int64)
    expect = [5, 6, 0, 1, 2, 11]
    assert _ragged_gather(starts, counts).tolist() == expect
    assert _ragged_gather(np.array([7]), np.array([4])).tolist() == [7, 8, 9, 10]


class TestLaws:
    def test_scale_law_validation(self):
        with pytest.raises(DomainError):
            GlobalLaw.deterministic(0.0)
        with pytest.raises(DomainError):
            GlobalLaw.table([1.0, -1.0], [0.5, 0.5])
        with pytest.raises(DomainError):
            GlobalLaw(kind="lognormal", mu=0.0, sigma=0.0)
        with pytest.raises(DomainError):
            GlobalLaw.table([1.0, 2.0], [0.5, 0.6])

    def test_shift_law_allows_any_real_values(self):
        GlobalLaw.deterministic(-3.0, carrier="shift")
        GlobalLaw.table([-1.0, 0.0], [0.5, 0.5], carrier="shift")

    def test_expectations(self):
        assert GlobalLaw.deterministic(2.0).expect(lambda w: w**3) == 8.0
        t = GlobalLaw.table([1.0, 2.0], [0.25, 0.75])
        assert t.expect(lambda w: w) == pytest.approx(1.75)
        ln = GlobalLaw(kind="lognormal", mu=0.3, sigma=0.8)
        # E[W^a] = exp(a*mu + a^2 sigma^2 / 2)
        for a in (1.0, 2.0, -1.5):
            assert ln.expect(lambda w: w**a) == pytest.approx(
                math.exp(a * 0.3 + a * a * 0.64 / 2.0), rel=1e-12
            )
        nm = GlobalLaw(kind="normal", mu=-0.5, sigma=1.2, carrier="shift")
        assert nm.expect(lambda u: np.exp(u)) == pytest.approx(
            math.exp(-0.5 + 1.2**2 / 2.0), rel=1e-12
        )

    def test_deterministic_draw_consumes_no_stream_state(self):
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        GlobalLaw.deterministic(3.0).sample(rng1, 100)
        assert rng1.random() == rng2.random()

    def test_support(self):
        assert GlobalLaw.deterministic(2.0).bounds() == (2.0, 2.0)
        assert GlobalLaw.table([1.0, 4.0], [0.5, 0.5]).bounds() == (1.0, 4.0)
        assert GlobalLaw(kind="lognormal", mu=0.0, sigma=1.0).bounds() == (0.0, math.inf)
        normal = GlobalLaw(kind="normal", mu=0.0, sigma=1.0, carrier="shift")
        assert normal.bounds() == (-math.inf, math.inf)


class TestProcessSpec:
    def test_family_law_consistency(self):
        dec = DecorationSpec.dirac([(1.0, 1)])
        sdec = DecorationSpec.dirac([(0.0, 1)], carrier="shift")
        with pytest.raises(DomainError):
            ProcessSpec("scdppp", 1.0, dec, 1.0, law=GlobalLaw.deterministic(2.0))
        with pytest.raises(DomainError):
            ProcessSpec("sscdppp", 1.0, dec, 1.0)
        with pytest.raises(DomainError):
            ProcessSpec("scdppp", 1.0, sdec, 1.0)
        with pytest.raises(DomainError):
            ProcessSpec("dppp", 1.0, sdec, 0.0, law=GlobalLaw.deterministic(1.0, carrier="shift"))
        with pytest.raises(DomainError):
            ProcessSpec("sdppp", 1.0, sdec, 0.0)
        with pytest.raises(DomainError):  # the law must be the carrier's law class
            ProcessSpec("sscdppp", 1.0, dec, 1.0, law=GlobalLaw.deterministic(2.0, carrier="shift"))
        with pytest.raises(DomainError):
            ProcessSpec("sdppp", 1.0, sdec, 0.0, law=GlobalLaw.deterministic(2.0))
        with pytest.raises(DomainError):
            ProcessSpec("dppp", 1.0, dec, 0.0)
        with pytest.raises(DomainError):
            ProcessSpec("scdppp", 1.0, dec, 0.0)  # scale window must be > 0
        for alpha in (0.0, -1.0, math.inf):  # the tail index / rate is finite and > 0
            with pytest.raises(DomainError):
                ProcessSpec("scdppp", alpha, dec, 1.0)
            with pytest.raises(DomainError):
                ProcessSpec("dppp", alpha, sdec, 0.0)
        ProcessSpec("dppp", 1.0, sdec, -5.0)  # shift cutoff may be negative

    def test_config_round_trip_all_families(self):
        specs = [
            unit_spec(),
            ProcessSpec(
                "sscdppp",
                1.5,
                DecorationSpec(
                    kind="table",
                    entries=((((1.0, 1),), 0.5), (((-2.0, 2),), 0.5)),
                ),
                0.5,
                law=GlobalLaw(kind="lognormal", mu=0.1, sigma=0.7),
            ),
            ProcessSpec(
                "dppp",
                2.0,
                DecorationSpec.random_atoms(
                    [(1, 0.5), (2, 0.5)],
                    LocationLaw(kind="uniform", low=-1.0, high=0.0),
                    carrier="shift",
                ),
                -1.0,
            ),
            ProcessSpec(
                "sdppp",
                1.0,
                DecorationSpec.dirac([(0.0, 1)], carrier="shift"),
                0.0,
                law=GlobalLaw.table([-1.0, 1.0], [0.5, 0.5], carrier="shift"),
            ),
        ]
        for spec in specs:
            doc = spec.to_config_dict()
            assert process_spec_from_config(doc) == spec
            assert len(spec.spec_hash()) == 64

    def test_config_rejects_unknown_and_missing_fields(self):
        doc = unit_spec().to_config_dict()
        bad = dict(doc)
        bad["extra"] = 1
        with pytest.raises(ConfigError):
            process_spec_from_config(bad)
        missing = {k: v for k, v in doc.items() if k != "alpha"}
        with pytest.raises(ConfigError):
            process_spec_from_config(missing)
        with pytest.raises(ConfigError):
            process_spec_from_config({**doc, "c": 1.0})
        wrongdec = dict(doc)
        wrongdec["decoration"] = {"kind": "dirac"}
        with pytest.raises(ConfigError):
            process_spec_from_config(wrongdec)
        with pytest.raises(ConfigError):
            process_spec_from_config({**doc, "family": "ppp"})

    def test_spec_hash_distinguishes(self):
        assert unit_spec().spec_hash() != unit_spec(window=2.0).spec_hash()

    def test_with_window(self):
        s = unit_spec().with_window(0.25)
        assert s.window == 0.25 and s.alpha == 1.0


class TestSingleDraws:
    """The law of one replica, read off campaign replicas."""

    def test_truncated_poisson_law(self):
        # with a unit atom at every dilation point, a replica on window eta is
        # the dilation process restricted to (eta, inf)
        campaign = run_campaign(ProcessSource(unit_spec(window=0.5)), 12, 2000)
        assert np.all(np.abs(campaign.locations) > 0.5)
        counts = campaign.counts().astype(float)
        # count mean is eta^-alpha = 2, sd = sqrt(2)
        assert abs(counts.mean() - 2.0) < 4.0 * math.sqrt(2.0 / 2000.0)

    def test_truncated_poisson_validation(self):
        with pytest.raises(DomainError):
            unit_spec(window=0.0)
        with pytest.raises(RangeError):
            run_campaign(ProcessSource(unit_spec(window=1e-8, alpha=2.0)), 0, 1)

    def test_campaign_replicas_pure_and_windowed(self):
        src = ProcessSource(unit_spec(window=0.5))
        a = run_campaign(src, 31, 9).replica_measure(7)
        b = run_campaign(src, 31, 9).replica_measure(7)
        assert a == b
        assert all(abs(x) > 0.5 for x, _ in a.atoms())
        assert isinstance(a, PointMeasure)
        c = run_campaign(src, 31, 9).replica_measure(8)
        assert a != c or a.n_atoms == 0

    def test_campaign_replicas_shift_carrier(self):
        spec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0)
        m = run_campaign(ProcessSource(spec), 3, 1).replica_measure(0)
        assert isinstance(m, PointMeasure) and m.carrier == "shift"
        assert all(x > 0.0 for x, _ in m.atoms())


class TestCampaigns:
    def test_thread_count_invariance(self):
        spec = unit_spec(window=0.25)
        src = ProcessSource(spec)
        n = BLOCK_SIZE + 17
        c1 = run_campaign(src, 42, n, threads=1)
        c8 = run_campaign(src, 42, n, threads=8)
        np.testing.assert_array_equal(c1.locations, c8.locations)
        np.testing.assert_array_equal(c1.replica, c8.replica)
        np.testing.assert_array_equal(c1.weights, c8.weights)
        assert c1.n_reps == n

    def test_replica_index_is_block_stable(self):
        # replicas within the first block do not depend on the total count
        spec = unit_spec(window=0.25)
        src = ProcessSource(spec)
        small = run_campaign(src, 9, BLOCK_SIZE)
        large = run_campaign(src, 9, BLOCK_SIZE + 100)
        cut = np.searchsorted(large.replica, BLOCK_SIZE)
        np.testing.assert_array_equal(small.locations, large.locations[:cut])

    def test_roles_give_independent_streams(self):
        spec = unit_spec(window=0.25)
        src = ProcessSource(spec)
        a = run_campaign(src, 4, 100, role=(0,))
        b = run_campaign(src, 4, 100, role=(1,))
        assert not (a.locations.size == b.locations.size and np.array_equal(a.locations, b.locations))

    def test_counts_and_replica_measure(self):
        spec = unit_spec(window=0.5)
        camp = run_campaign(ProcessSource(spec), 8, 500)
        counts = camp.counts()
        assert counts.size == 500
        with_mass = np.flatnonzero(counts > 0)
        r = int(with_mass[0])
        m = camp.replica_measure(r)
        assert m.total_mass == counts[r]
        empty = int(np.flatnonzero(counts == 0)[0])
        assert camp.replica_measure(empty).n_atoms == 0

    def test_laplace_integrals_match_measure_loop(self):
        spec = ProcessSpec(
            "scdppp", 1.0, DecorationSpec.dirac([(1.0, 2), (-0.5, 1)]), 0.25
        )
        camp = run_campaign(ProcessSource(spec), 15, 200)
        f = tent(0.5, 1.0, 2.0)
        y = 2.0
        vals = camp.laplace_integrals([(f, y)])[0]
        for r in range(200):
            m = camp.replica_measure(r)
            direct = sum(mult * f.eval(loc / y) for loc, mult in m.atoms())
            assert vals[r] == pytest.approx(direct, abs=1e-12)

    def test_maxmods_and_max_locations(self):
        spec = unit_spec(window=0.5)
        camp = run_campaign(ProcessSource(spec), 21, 300)
        mm = camp.maxmods()
        for r in range(300):
            assert mm[r] == camp.replica_measure(r).extreme()
        sspec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 1.0)
        sc = run_campaign(ProcessSource(sspec), 21, 300)
        ml = sc.max_locations()
        for r in range(300):
            assert ml[r] == sc.replica_measure(r).extreme()

    def test_mean_cap_guards_absurd_windows(self):
        with pytest.raises(RangeError, match=r"exceeds the cap 1e\+06 in 10 of 10 replicas on "
                           r"average under the deterministic scale law \(value 1.0\); window 1e-08 "):
            run_campaign(ProcessSource(unit_spec().with_window(1e-8)), 0, 10)
        sspec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0)
        with pytest.raises(RangeError, match=r"exceeds the cap 1e\+06 in 10 of 10 .*; cutoff -40.0 "):
            run_campaign(ProcessSource(sspec.with_window(-40.0)), 0, 10)
        # the mean e^800 overflows a double
        with pytest.raises(RangeError, match=r"exceeds the cap 1e\+06 in 10 of 10 .*; cutoff -800.0 "):
            run_campaign(ProcessSource(sspec.with_window(-800.0)), 0, 10)

    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf])
    def test_source_window_must_be_finite(self, window):
        # the source's window is a spec's window, checked as one
        sspec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0)
        for spec in (sspec, unit_spec()):
            with pytest.raises(DomainError, match="window must be finite"):
                run_campaign(ProcessSource(spec.with_window(window)), 0, 10)

    def test_block_guards_a_mean_above_the_cap(self):
        # the residual guard behind check_cap, on blocks drawn directly
        key = derive_key(0, ROLE_BLOCK, 0)
        with pytest.raises(RangeError, match=r"mean 1e\+08 exceeds the cap 1e\+06 \(window 1e-08 "):
            _block(SCALE, unit_spec(window=1e-8), key, 10)
        sspec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0)
        with pytest.raises(RangeError, match=r"exceeds the cap 1e\+06 \(cutoff -40.0 "):
            _block(SHIFT, sspec.with_window(-40.0), key, 10)
        with pytest.raises(RangeError, match=r"mean inf exceeds the cap 1e\+06 \(cutoff -800.0 "):
            _block(SHIFT, sspec.with_window(-800.0), key, 10)


# The closed forms each carrier used to spell out by hand, with the
# normalization shift log(c)/c written into the shift carrier's Poisson mean.
_OLD_FORMS = {
    "scale": {
        "block_mean": lambda a, w, window, bound: (bound * w / window) ** a,
        "block_start": lambda a, window, bound, q: (window / bound) * (1.0 - q) ** (-1.0 / a),
        "weight": lambda a, y, w: (y ** -a) * w ** a,
        "quantile": lambda a, kappa, w, L: w * (kappa / L) ** (1.0 / a),
    },
    "shift": {
        "block_mean": lambda c, u, cutoff, bound: np.exp(-c * (cutoff - (u - math.log(c) / c)
                                                               - bound)),
        "block_start": lambda c, cutoff, bound, q: (cutoff - bound) + -np.log1p(-q) / c,
        "weight": lambda c, u, w: np.exp(-c * (u - w)),
        "quantile": lambda c, kappa, w, L: w - np.log(L / kappa) / c,
    },
}


def _carrier_args(carrier, rng, n=2000):
    """Random arguments of every derived method, drawn in v and charted."""
    cr = CARRIERS[carrier]
    rate = float(rng.uniform(0.3, 3.0))
    v = lambda: cr.from_log(rng.uniform(-3.0, 3.0, n))
    q = rng.random(n)
    kappa, level = np.exp(rng.uniform(-2.0, 2.0, n)), np.exp(rng.uniform(-5.0, 3.0, n))
    return {"block_mean": (rate, v(), v(), v()), "block_start": (rate, v(), v(), q),
            "weight": (rate, v(), v()), "quantile": (rate, kappa, v(), level)}


class TestCarrier:
    """The carrier arithmetic is written once, in the log coordinate."""

    @pytest.mark.parametrize("carrier", ["scale", "shift"])
    @pytest.mark.parametrize("method", ["block_mean", "block_start", "weight", "quantile"])
    def test_derived_methods_equal_the_old_closed_forms(self, carrier, method):
        for seed in range(5):
            args = _carrier_args(carrier, np.random.default_rng(seed))[method]
            got = getattr(CARRIERS[carrier], method)(*args)
            want = _OLD_FORMS[carrier][method](*args)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
            if carrier == "shift" and method != "block_mean":
                # where the forms agree in exact arithmetic the float order is kept
                np.testing.assert_array_equal(got, want)

    def test_compose_acts_then_evaluates(self):
        f, g = tent(0.5, 1.0, 2.0), tent(-1.0, 0.0, 1.0, carrier="shift")
        a = np.linspace(-3.0, 3.0, 61)
        np.testing.assert_array_equal(SCALE.compose(f, 1.7)(a), f.eval(1.7 * a))
        np.testing.assert_array_equal(SHIFT.compose(g, 0.4)(a), g.eval(a + 0.4))

    def test_floor_has_log_and_point_error(self):
        assert (SCALE.floor, SHIFT.floor) == (0.0, -math.inf)
        assert type(SCALE.floor) is type(SCALE.identity) is float
        assert SCALE.point_error == "evaluation point y must be finite and > 0"
        assert SHIFT.point_error == "evaluation point u must be finite"
        np.testing.assert_array_equal(SCALE.has_log(np.array([-1.0, 0.0, 1e-300, math.nan])),
                                      [False, False, True, True])
        np.testing.assert_array_equal(SHIFT.has_log(np.array([-math.inf, -1e300, math.nan])),
                                      [False, True, True])
        # the empty replica's extreme is the floor
        camp = FlatCampaign(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0), 2, "shift", 0.0)
        np.testing.assert_array_equal(camp.max_locations(), [SHIFT.floor] * 2)

    def test_carrier_holds_only_the_chart_and_what_differs(self):
        assert len(dataclasses.fields(Carrier)) <= 13
        # objects name their carrier; the carrier names no class of theirs
        assert not [(cr.name, f.name) for cr in CARRIERS.values()
                    for f in dataclasses.fields(Carrier) if isinstance(getattr(cr, f.name), type)]


def _gaussian_cap_specs(sigma):
    """A unit dirac decoration under a Gaussian global law of sd sigma, on each
    carrier: in v both put MEAN_CAP at v_cap = log(MEAN_CAP)."""
    return [ProcessSpec("sscdppp", 1.0, DecorationSpec.dirac([(1.0, 1)]), 1.0,
                        GlobalLaw(kind="lognormal", mu=0.0, sigma=sigma)),
            ProcessSpec("sdppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0,
                        GlobalLaw(kind="normal", mu=0.0, sigma=sigma, carrier="shift"))]


class TestCapRule:
    """A campaign whose replicas would pass MEAN_CAP fails by its spec and replica
    count, before any block is drawn, never by its seed."""

    @pytest.mark.parametrize("spec", _gaussian_cap_specs(4.0), ids=["scale", "shift"])
    def test_gaussian_law_rejected_on_every_seed(self, spec, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block was drawn")
        monkeypatch.setattr(ProcessSource, "sample_block", no_block)
        # n_reps P(v_W > log 1e6) = 2000 * 0.5 erfc(log(1e6) / (4 sqrt 2)) = 0.553
        law = "lognormal scale" if spec.carrier == "scale" else "normal shift"
        for seed in range(8):
            with pytest.raises(RangeError, match=rf"in 0.553 of 2000 replicas on average under "
                                                 rf"the {law} law \(mu 0.0, sigma 4.0\)"):
                run_campaign(ProcessSource(spec), seed, 2000)
        with pytest.raises(RangeError):
            campaign_stats(ProcessSource(spec), 0, 2000, FlatCampaign.counts)
        with pytest.raises(RangeError):
            SuperposeSource(ProcessSource(spec)).check_cap(2000)

    @pytest.mark.parametrize("spec", _gaussian_cap_specs(0.5), ids=["scale", "shift"])
    def test_gaussian_law_far_below_the_cap_passes(self, spec):
        ProcessSource(spec).check_cap(10**12)

    def test_table_law_is_exact(self):
        dec = DecorationSpec.dirac([(1.0, 1)])
        # W = 1e7 puts the mean at 1e7 on window 1; it has probability 1e-3
        spec = ProcessSpec("sscdppp", 1.0, dec, 1.0, GlobalLaw.table([1.0, 1e7], [0.999, 0.001]))
        with pytest.raises(RangeError, match=r"in 0.002 of 2 replicas on average under the table "
                                             r"scale law \(values \[1.0, 10000000.0\], probs"):
            ProcessSource(spec).check_cap(2)
        # a mean exactly at the cap is allowed, as in the block
        at_cap = ProcessSpec("sscdppp", 1.0, dec, 1.0, GlobalLaw.table([1.0, 1e6], [0.5, 0.5]))
        ProcessSource(at_cap).check_cap(10**9)

    def test_n_reps_validation(self):
        with pytest.raises(DomainError):
            run_campaign(ProcessSource(unit_spec()), 0, 0)


class TestSources:
    def test_dilated_process_is_a_process_with_a_dilated_law(self):
        # S_3 N of the unit spec on window 0.5 is the spec with W = 3 on window 1.5,
        # drawn from the same stream
        base = run_campaign(ProcessSource(unit_spec(window=0.5)), 2, 2000)
        camp = run_campaign(ProcessSource(dilated_unit_spec(3.0, 1.5)), 2, 2000)
        assert camp.locations.size > 1000
        assert np.array_equal(camp.replica, base.replica)
        assert np.array_equal(camp.weights, base.weights)
        np.testing.assert_allclose(camp.locations, 3.0 * base.locations, rtol=1e-15, atol=0.0)
        assert np.all(np.abs(camp.locations) > 1.5)

    def test_superpose_requires_common_window(self):
        a = ProcessSource(unit_spec(window=0.5))
        b = ProcessSource(unit_spec(window=1.0))
        with pytest.raises(DomainError):
            SuperposeSource(a, b)
        with pytest.raises(DomainError):  # windows are compared exactly
            SuperposeSource(a, ProcessSource(unit_spec(window=math.nextafter(0.5, 1.0))))
        s = SuperposeSource(a, ProcessSource(unit_spec(window=0.5)))
        camp = run_campaign(s, 3, 1000)
        assert np.all(np.diff(camp.replica) >= 0)

    @pytest.mark.parametrize("superposed", [False, True], ids=["process", "superpose"])
    def test_weights_are_the_exact_int64_multiplicities(self, superposed):
        spec = ProcessSpec("scdppp", 1.0, DecorationSpec.dirac([(1.0, 2**53 + 1), (0.7, 3)]),
                           0.25)
        src = ProcessSource(spec)
        if superposed:
            src = SuperposeSource(src, ProcessSource(spec))
        n = BLOCK_SIZE + 10
        camp = run_campaign(src, 5, n)
        assert camp.weights.dtype == np.int64
        assert set(camp.weights.tolist()) == {2**53 + 1, 3}
        assert campaign_stats(src, 5, n, lambda block: np.full(
            block.n_reps, block.weights.dtype == np.int64)).all()

    def test_superpose_counts_add(self):
        # P(empty) for a superposition of two independent unit specs is e^-2
        src = SuperposeSource(ProcessSource(unit_spec()), ProcessSource(unit_spec()))
        camp = run_campaign(src, 44, 40000)
        p0 = float(np.mean(camp.counts() == 0))
        assert abs(p0 - math.exp(-2.0)) < 0.007


class TestLawAgreement:
    """Monte Carlo agreement with closed forms at fixed seeds."""

    def test_empty_window_probability(self):
        camp = run_campaign(ProcessSource(unit_spec()), 1001, 40000)
        p0 = float(np.mean(camp.counts() == 0))
        assert abs(p0 - math.exp(-1.0)) < 0.008

    def test_maxmod_inverse_is_exponential(self):
        mm = run_campaign(ProcessSource(unit_spec(window=0.2)), 1002, 40000).maxmods()
        # maxmod > 0.2 except for censored mass exp(-5)
        pos = mm[mm > 0.0]
        inv = 1.0 / pos
        # P(inv <= t) = 1 - e^-t on t < 5
        for t in (0.5, 1.0, 2.0):
            emp = float(np.mean(inv <= t))
            assert abs(emp - (1.0 - math.exp(-t))) < 0.009

    def test_random_scale_two_point_mixture(self):
        spec = ProcessSpec(
            "sscdppp",
            1.0,
            DecorationSpec.dirac([(1.0, 1)]),
            0.25,
            law=GlobalLaw.table([1.0, 2.0], [0.5, 0.5]),
        )
        mm = run_campaign(ProcessSource(spec), 1003, 60000).maxmods()
        for y in (1.0, 2.0):
            pred = 0.5 * (math.exp(-1.0 / y) + math.exp(-2.0 / y))
            assert abs(float(np.mean(mm <= y)) - pred) < 0.008

    def test_gumbel_maximum_for_shift_family(self):
        spec = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0)
        ml = run_campaign(ProcessSource(spec), 1004, 60000).max_locations()
        for t in (0.5, 1.5):
            pred = math.exp(-math.exp(-t))
            assert abs(float(np.mean(ml <= t)) - pred) < 0.008

    def test_shift_rate_two(self):
        spec = ProcessSpec("dppp", 2.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 0.0)
        camp = run_campaign(ProcessSource(spec), 1005, 60000)
        # intensity e^-2x has mass 1/2 above 0
        assert abs(float(np.mean(camp.counts() == 0)) - math.exp(-0.5)) < 0.008


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("STABLEPP_THREADS", raising=False)
    assert resolve_threads(None) == 1
    assert resolve_threads(4) == 4
    monkeypatch.setenv("STABLEPP_THREADS", "3")
    assert resolve_threads(None) == 3
    with pytest.raises(DomainError):
        resolve_threads(0)


# -- pinned streams ---------------------------------------------------------------
#
# One spec per carrier x decoration kind x global-law kind. The digests hash the
# bytes of a two-block campaign; a change to them is a change of the random
# streams, which must be deliberate and logged.

def _pinned_decoration(carrier, kind):
    scale = carrier == "scale"
    if kind == "dirac":
        atoms = [(1.0, 1), (-0.5, 2)] if scale else [(0.0, 1), (-0.5, 2)]
        return DecorationSpec.dirac(atoms, carrier=carrier)
    if kind == "table":
        first, second = ((1.0, 1),), ((1.2, 1), (-0.4, 3))
        if not scale:
            first, second = ((0.0, 1),), ((0.3, 1), (-0.9, 3))
        return DecorationSpec(kind="table", carrier=carrier, entries=((first, 0.4), (second, 0.6)))
    if kind == "atoms_uniform":
        loc = LocationLaw(kind="uniform", low=0.5, high=1.5) if scale else \
            LocationLaw(kind="uniform", low=-1.0, high=0.5)
    else:
        values = (-0.6, -1.1, -1.3) if scale else (-0.6, -1.1, 0.3)
        loc = LocationLaw(kind="table", values=values, probs=(0.5, 0.3, 0.2))
    return DecorationSpec.random_atoms([(1, 0.6), (2, 0.4)], loc, carrier=carrier)


def _pinned_spec(carrier, dec_kind, law_kind):
    dec = _pinned_decoration(carrier, dec_kind)
    law = {"none": None,
           "deterministic": GlobalLaw.deterministic(1.5 if carrier == "scale" else 0.4, carrier),
           "gaussian": GlobalLaw(kind=CARRIERS[carrier].gaussian, mu=0.1, sigma=0.5,
                                 carrier=carrier),
           "table": GlobalLaw.table([0.7, 1.3] if carrier == "scale" else [-0.3, 0.6],
                                    [0.3, 0.7], carrier)}[law_kind]
    if carrier == "scale":
        family = "scdppp" if law is None else "sscdppp"
        return ProcessSpec(family, 1.5, dec, 0.5, law=law)
    family = "dppp" if law is None else "sdppp"
    return ProcessSpec(family, 1.2, dec, -1.0, law=law)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else repr(part).encode())
    return h.hexdigest()[:16]


PINNED_STREAMS = {
    "scale/dirac/none": "f298e869d6a2f980",
    "scale/dirac/deterministic": "6152fca5e5b489ac",
    "scale/dirac/gaussian": "0b3b34684f313339",
    "scale/dirac/table": "781c0ed72e7731d0",
    "scale/table/none": "ad8883f288dedf7b",
    "scale/table/deterministic": "5e1c7008f2996981",
    "scale/table/gaussian": "062dbe7945f2c88a",
    "scale/table/table": "606bb759423d20c9",
    "scale/atoms_uniform/none": "c926265e13a2fc5c",
    "scale/atoms_uniform/deterministic": "a60cf6159b190fb2",
    "scale/atoms_uniform/gaussian": "743bb9991c09ed7e",
    "scale/atoms_uniform/table": "d2872a2636cd2228",
    "scale/atoms_table/none": "c46a62449999057d",
    "scale/atoms_table/deterministic": "21cc300b21d9b225",
    "scale/atoms_table/gaussian": "2780c74562c5b247",
    "scale/atoms_table/table": "92914bc857e58692",
    "shift/dirac/none": "3fd59335e241606d",
    "shift/dirac/deterministic": "761e4409d13cb131",
    "shift/dirac/gaussian": "b36248614d1dc604",
    "shift/dirac/table": "18c74fd2bfced7ab",
    "shift/table/none": "62ff4a1d80b32030",
    "shift/table/deterministic": "a95072d736d625be",
    "shift/table/gaussian": "fa81bc7bc50de888",
    "shift/table/table": "e402b548b52b2fea",
    "shift/atoms_uniform/none": "38e16aa7b059ce11",
    "shift/atoms_uniform/deterministic": "d4bba5d54ba402e8",
    "shift/atoms_uniform/gaussian": "28c2ee1bfa139815",
    "shift/atoms_uniform/table": "aea70a5fdea3080b",
    "shift/atoms_table/none": "8142cb074f5580c8",
    "shift/atoms_table/deterministic": "8d39d804f277b17e",
    "shift/atoms_table/gaussian": "9b5c4c407aeaba0e",
    "shift/atoms_table/table": "993f5f02d4e8a355",
}


@pytest.mark.parametrize("case", sorted(PINNED_STREAMS))
def test_pinned_streams(case):
    carrier, dec_kind, law_kind = case.split("/")
    spec = _pinned_spec(carrier, dec_kind, law_kind)
    camp = run_campaign(ProcessSource(spec), 7, BLOCK_SIZE + 300, threads=2)
    assert camp.locations.dtype == np.float64 and camp.weights.dtype == np.int64
    assert camp.replica.dtype == np.int64
    measures = [camp.replica_measure(r) for r in range(4)]
    assert {(type(m), m.carrier) for m in measures} == {(PointMeasure, carrier)}
    assert any(m.n_atoms for m in measures)
    assert _digest(camp.locations, camp.replica,
                   camp.weights.astype(np.float64)) == PINNED_STREAMS[case]


@pytest.mark.parametrize("carrier", ["scale", "shift"])
@pytest.mark.parametrize("kind", ["dirac", "table", "atoms_uniform", "atoms_table"])
def test_sampled_atoms_respect_the_derived_bound(carrier, kind):
    # the truncation of the dilation process is exact only if no atom of a copy
    # has a norm above the bound derived from the decoration law's support
    dec = _pinned_decoration(carrier, kind)
    _, locs, _ = dec.sample_atoms_block(np.random.default_rng(5), 100_000)
    norms = CARRIERS[carrier].norm(locs)
    assert norms.size >= 100_000
    assert float(norms.max()) <= dec.bound + 1e-12 * abs(dec.bound)


# -- statistics reduced inside their blocks ------------------------------------------

_RANDOM_SCALE = DecorationSpec.random_atoms(
    [(1, 0.5), (3, 0.5)], LocationLaw(kind="uniform", low=0.5, high=1.5))
_RANDOM_SHIFT = DecorationSpec.random_atoms(
    [(1, 0.5), (2, 0.5)], LocationLaw(kind="uniform", low=-1.0, high=0.0), carrier="shift")


def _stats_sources():
    # windows where a sizeable share of replicas holds no atom at all
    dirac = ProcessSource(unit_spec(window=0.5))
    sdirac = ProcessSpec("dppp", 1.0, DecorationSpec.dirac([(0.0, 1)], carrier="shift"), 1.0)
    return {
        "scale/dirac": dirac,
        "scale/random_atoms": ProcessSource(ProcessSpec("scdppp", 1.5, _RANDOM_SCALE, 0.8)),
        "shift/dirac": ProcessSource(sdirac),
        "shift/random_atoms": ProcessSource(ProcessSpec("dppp", 1.0, _RANDOM_SHIFT, 0.5)),
        "scaled": ProcessSource(dilated_unit_spec(2.0, 1.0)),
        "superpose": SuperposeSource(ProcessSource(dilated_unit_spec(2.0, 0.8)),
                                     ProcessSource(unit_spec(window=0.8))),
        "superpose_shift": SuperposeSource(
            ProcessSource(sdirac), ProcessSource(ProcessSpec("dppp", 1.0, _RANDOM_SHIFT, 1.0))),
    }


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(_stats_sources()))
def test_campaign_stats_equal_flat_campaign(name, threads, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # threads=2 runs the real pool
    source = _stats_sources()[name]
    n = 2 * BLOCK_SIZE + 300
    flat = run_campaign(source, 13, n, threads=threads, role=(5,))
    assert np.any(flat.counts() == 0)
    if source.carrier == "scale":
        pairs = [(tent(1.0, 1.5, 3.0), 1.0), (tent(-2.0, -1.5, -1.0), 0.7)]
        extreme = FlatCampaign.maxmods
    else:
        pairs = [(tent(1.0, 1.5, 3.0, carrier="shift"), 0.0),
                 (tent(0.0, 1.0, 2.0, carrier="shift"), 1.5)]
        extreme = FlatCampaign.max_locations
    reducers = {
        "extremes": (extreme, extreme(flat)),
        "counts": (FlatCampaign.counts, flat.counts()),
        "laplace": (lambda c: c.laplace_integrals(pairs), flat.laplace_integrals(pairs)),
    }
    for what, (reduce, expected) in reducers.items():
        got = campaign_stats(source, 13, n, reduce, threads=threads, role=(5,))
        assert got.dtype == expected.dtype, what
        assert np.array_equal(got, expected), what


class _CountingSource:
    """Block b is one replica holding one atom at b + 1; later blocks may be
    drawn first. Records every block it draws."""

    carrier, window = "scale", 0.5

    def __init__(self):
        self.drawn = []

    def check_cap(self, n_reps):
        pass

    def sample_block(self, master_seed, path, size):
        b = path[-1]
        time.sleep(0.002 * (2 - b % 3))
        self.drawn.append(b)
        return np.array([b + 1.0]), np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)


def test_blocks_in_flight_are_bounded(monkeypatch):
    # two workers: at most four blocks are drawn ahead of a caller that has
    # taken one, and blocks still arrive in order
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    source = _CountingSource()
    blocks = _blocks(source, 1, 20 * BLOCK_SIZE, lambda block: int(block.locations[0]) - 1,
                     2, ())
    first = next(blocks)
    time.sleep(0.2)  # time enough for the workers to draw every block, were they let
    assert len(source.drawn) <= 4
    assert [first, *blocks] == list(range(20))
    assert sorted(source.drawn) == list(range(20))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_MIB = 2 ** 20


def test_maxmod_samples_memory_does_not_grow_with_atoms():
    # about 20 atoms per replica: a campaign held whole raises the traced peak
    # from about 35 to 140 MiB here; the maxmods themselves grow by 0.75 MiB
    spec = unit_spec(window=0.05)
    small = _traced_peak(lambda: maxmod_samples(spec, 8 * BLOCK_SIZE, 3))
    large = _traced_peak(lambda: maxmod_samples(spec, 32 * BLOCK_SIZE, 3))
    assert large - small < 4 * _MIB


def test_battery_estimates_memory_grows_only_with_its_matrix():
    # the battery needs the spec's own window 0.05, about 20 atoms per replica
    spec = unit_spec(window=0.05)
    battery = {"wide": tent(0.05, 0.5, 1.0), "narrow": tent(0.5, 1.0, 2.0)}
    points = (1.0, 2.0)

    def peak(reps):
        return _traced_peak(lambda: battery_estimates(spec, battery, points, reps, 3))

    matrix_growth = len(battery) * len(points) * 24 * BLOCK_SIZE * 8
    assert peak(32 * BLOCK_SIZE) - peak(8 * BLOCK_SIZE) < matrix_growth + 4 * _MIB


# -- Laplace integrals over the atoms a function can see ----------------------------

LN2 = math.log(2.0)

EDGE_FUNCTIONS = {
    "scale": {
        "step_ln2": indicator_approx(LN2, edge=1.0, outer=1e6, ramp=1e-6),
        "maxmod": indicator_approx(50.0, symmetric=True),
        "band_sym": indicator_approx(1.0, edge=0.7, outer=5.0, ramp=1e-3, symmetric=True),
        "tent": tent(0.5, 1.0, 2.0),
    },
    "shift": {
        "gstep_ln2": shift_indicator_approx(LN2, edge=0.0, outer=14.0, ramp=1e-6),
        "gmax": shift_indicator_approx(50.0, edge=0.0, outer=14.0, ramp=1e-7),
        "gtent_sym": tent(-LN2, 0.0, LN2, carrier="shift"),
        "gtent_hi": tent(LN2, 2 * LN2, 3 * LN2, carrier="shift"),
    },
}
EDGE_POINTS = {"scale": (1.0, 0.5, 3.0, math.e, 0.7), "shift": (0.0, LN2, -1.3, math.pi)}


def _full_integrals(camp, f, p):
    """The per-replica integrals with f evaluated at every atom."""
    vals = f.eval(CARRIERS[camp.carrier].inverse(p, camp.locations))
    return np.bincount(camp.replica, weights=camp.weights * vals, minlength=camp.n_reps)


def _near(x, steps=1):
    """x and the floats up to `steps` steps either side of it."""
    out = [x]
    for direction in (-math.inf, math.inf):
        t = x
        for _ in range(steps):
            t = math.nextafter(t, direction)
            out.append(t)
    return out


def _campaign(carrier, locations, rng, n_reps=5, unit=False):
    """Atoms shuffled into n_reps replicas, with weights 1 to 3, or all 1 if unit."""
    locations = np.asarray(locations, dtype=np.float64)
    rng.shuffle(locations)
    replica = np.sort(rng.integers(0, n_reps, locations.size))
    weights = rng.integers(1, 4, locations.size).astype(np.int64)
    if unit:
        weights[:] = 1
    return FlatCampaign(locations, replica, weights, n_reps, carrier, -math.inf)


@pytest.mark.parametrize("carrier, name",
                         [(c, n) for c, fs in EDGE_FUNCTIONS.items() for n in fs])
def test_laplace_integrals_at_the_support_edges(carrier, name):
    # atoms at p acting on every knot, the support edges among them, on both
    # sides of the origin, and up to two floats either side: the slice must
    # keep every atom where f is not 0, however the division or subtraction rounds
    cr, f = CARRIERS[carrier], EDGE_FUNCTIONS[carrier][name]
    lo, hi = f.support_bounds
    rng = np.random.default_rng(7)
    for p in EDGE_POINTS[carrier]:
        ends = {cr.act(p, e) for e in (lo, hi)} | {cr.act(p, float(k)) for k in f.knots_x}
        if cr is SCALE:
            ends |= {-x for x in ends}
        camp = _campaign(carrier, [t for x in sorted(ends) for t in _near(x, 2)], rng)
        got = camp.laplace_integrals([(f, p)])[0]
        want = _full_integrals(camp, f, p)
        assert np.any(want > 0.0), (name, p)
        assert got.tobytes() == want.tobytes(), (name, p)


@st.composite
def _slice_cases(draw):
    """Several (function, point) pairs on a random carrier and a campaign with
    atoms on and around the knots that the first point carries, others
    anywhere, and weights 1 to 3 or all 1. At the first point: a random
    function, its twin of the same support_bounds, and a function whose
    support reaches past the campaign's least and largest norms; the random
    function again at a second point."""
    carrier = draw(st.sampled_from(["scale", "shift"]))
    cr = CARRIERS[carrier]
    scale = cr is SCALE
    xs = draw(st.lists(st.floats(0.01, 100.0) if scale else st.floats(-20.0, 20.0),
                       min_size=3, max_size=7, unique=True).map(sorted))
    vs = [0.0, *draw(st.lists(st.floats(0.0, 1e3), min_size=len(xs) - 2,
                              max_size=len(xs) - 2)), 0.0]
    knots = list(zip(xs, vs))
    if scale and draw(st.booleans()):
        knots = [(-x, v) for x, v in reversed(knots)] + knots
    f = TestFunction(knots, carrier)
    twin = TestFunction([(x, 2.0 * v) for x, v in knots], carrier)
    assert twin.support_bounds == f.support_bounds
    point = st.floats(0.05, 20.0) if scale else st.floats(-20.0, 20.0)
    p, p2 = draw(point), draw(point)
    atoms = [t for k in f.knots_x for t in _near(cr.act(p, float(k)))]
    atoms += draw(st.lists(st.floats(-3000.0, 3000.0).filter(lambda x: x != 0.0),
                           max_size=30))
    camp = _campaign(carrier, atoms, np.random.default_rng(draw(st.integers(0, 99))),
                     unit=draw(st.booleans()))
    norms = cr.norm(cr.inverse(p, camp.locations))
    least, most = float(norms.min()), float(norms.max())
    if scale:
        ends = (max(least / 2.0, 5e-324), 2.0 * most)
    else:
        ends = (least - 1.0, most + 1.0)
    wide = TestFunction([(ends[0], 0.0), (0.5 * (ends[0] + ends[1]), 1.0), (ends[1], 0.0)],
                        carrier)
    pairs = draw(st.permutations([(f, p), (twin, p), (wide, p), (f, p2)]))
    return pairs, camp


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_slice_cases())
def test_laplace_integrals_equal_the_full_evaluation_property(case):
    pairs, camp = case
    rows = camp.laplace_integrals(pairs)
    assert rows.shape == (len(pairs), camp.n_reps)
    for (f, p), row in zip(pairs, rows):
        assert row.tobytes() == _full_integrals(camp, f, p).tobytes()
