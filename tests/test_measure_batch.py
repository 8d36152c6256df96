"""MeasureBatch: bulk canonical form, the measure-line writer and the strict
parser, checked against a per-measure reference written out here."""
import json

import numpy as np
import pytest

from stablepp.errors import ConfigError, DomainError
from stablepp.point_measure import (
    MeasureBatch,
    PointMeasure,
    integrate,
    tent,
)
from stablepp.sampler import (
    DecorationSpec,
    LocationLaw,
    ProcessSource,
    ProcessSpec,
    SuperposeSource,
    run_campaign,
)
from stablepp.transform import log_transform


def lines_of(batch) -> str:
    """Every measure line of a batch, each ending in a newline."""
    return "".join(batch.json_chunks())


def reference_line(atoms) -> str:
    """The measure line as json writes it, atom by atom."""
    return json.dumps({"atoms": [[float(x), int(m)] for x, m in atoms]})


def reference_canonical(atoms):
    """Atoms sorted by location, equal locations merged. A dict keeps the
    first of two equal keys, so of 0.0 and -0.0 the one given first stays."""
    merged = {}
    for x, m in atoms:
        merged[x] = merged.get(x, 0) + m
    return sorted(merged.items())


def random_batch_atoms(rng, n, carrier):
    """Atoms of n measures, given out of order, with duplicates and empties."""
    pool = rng.choice([-1, 1], 20) * rng.uniform(0.5, 4.0, 20)
    if carrier == "shift":
        pool[:2] = (0.0, -3.0)
    counts = rng.integers(0, 9, n)
    counts[::7] = 0
    index = np.repeat(np.arange(n), counts)
    locs = np.where(rng.random(index.size) < 0.5, rng.choice(pool, index.size),
                    rng.choice([-1, 1], index.size) * rng.uniform(0.1, 10.0, index.size))
    mults = rng.integers(1, 6, index.size)
    order = rng.permutation(index.size)
    return locs[order], mults[order], index[order]


def expected_lines(locs, mults, index, n):
    return "".join(
        reference_line(reference_canonical(zip(locs[index == i].tolist(),
                                               mults[index == i].tolist()))) + "\n"
        for i in range(n))


@pytest.mark.parametrize("carrier", ["scale", "shift"])
class TestWriter:
    def test_matches_reference(self, carrier):
        rng = np.random.default_rng(11)
        locs, mults, index = random_batch_atoms(rng, 300, carrier)
        batch = MeasureBatch(carrier, locs, mults, index, 300)
        assert lines_of(batch) == expected_lines(locs, mults, index, 300)

    def test_measures_match_one_measure_construction(self, carrier):
        rng = np.random.default_rng(12)
        locs, mults, index = random_batch_atoms(rng, 100, carrier)
        batch = MeasureBatch(carrier, locs, mults, index, 100)
        assert len(batch) == 100
        for i, m in enumerate(batch):
            one = PointMeasure(locs[index == i], mults[index == i], carrier)
            assert m == one and type(m) is PointMeasure and m.carrier == carrier
            assert m.to_json_line() == reference_line(one.atoms())

    def test_empty_measures_and_empty_batch(self, carrier):
        batch = MeasureBatch(carrier, [2.0, 1.0], [1, 1], [1, 1], 3)
        assert lines_of(batch) == ('{"atoms": []}\n'
                                      '{"atoms": [[1.0, 1], [2.0, 1]]}\n'
                                      '{"atoms": []}\n')
        assert lines_of(MeasureBatch(carrier, [], [], [], 0)) == ""
        assert PointMeasure(carrier=carrier).to_json_line() == '{"atoms": []}'

    def test_duplicates_merge(self, carrier):
        batch = MeasureBatch(carrier, [3.0, 1.5, 3.0, 1.5, 3.0], [1, 2, 3, 4, 5],
                             [0, 0, 0, 1, 1], 2)
        assert lines_of(batch) == ('{"atoms": [[1.5, 2], [3.0, 4]]}\n'
                                      '{"atoms": [[1.5, 4], [3.0, 5]]}\n')

    def test_merged_multiplicities_stay_in_int64(self, carrier):
        with pytest.raises(DomainError, match="merged at one location must sum to below 2"):
            MeasureBatch(carrier, [3.0, 1.5, 1.5], [1, 2 ** 62, 2 ** 62], [0, 1, 1], 2)

    def test_chunks_hold_whole_measures(self, carrier):
        rng = np.random.default_rng(13)
        n = 900
        index = np.repeat(np.arange(n), 100)  # 90,000 atoms: more than one chunk
        locs = rng.uniform(1.0, 2.0, index.size)
        batch = MeasureBatch(carrier, locs, np.ones(index.size, dtype=np.int64), index, n)
        chunks = list(batch.json_chunks())
        assert len(chunks) > 1 and all(c.endswith("\n") for c in chunks)
        assert sum(c.count("\n") for c in chunks) == n
        assert "".join(chunks) == expected_lines(locs, np.ones_like(index), index, n)

    def test_parse_then_write_gives_the_same_lines(self, carrier):
        rng = np.random.default_rng(14)
        locs, mults, index = random_batch_atoms(rng, 200, carrier)
        text = lines_of(MeasureBatch(carrier, locs, mults, index, 200))
        (again,) = MeasureBatch.batches_from_json_lines(text.splitlines(), carrier)
        assert lines_of(again) == text
        assert [m.to_json_line() for m in again] == text.splitlines()

    def test_parse_makes_lines_canonical(self, carrier):
        lines = ['{"atoms": [[3.0, 1], [1, 2], [3.0, 4]]}', "",
                 '{"atoms": []}', '  ', '{"atoms": [[2.5, 1], [-1.25, 7]]}']
        (batch,) = MeasureBatch.batches_from_json_lines(lines, carrier)
        assert lines_of(batch) == ('{"atoms": [[1.0, 2], [3.0, 5]]}\n'
                                      '{"atoms": []}\n'
                                      '{"atoms": [[-1.25, 7], [2.5, 1]]}\n')


class TestSignedZero:
    """A merge of 0.0 and -0.0 keeps the sign of the atom given first."""

    @pytest.mark.parametrize("given, mults, line", [
        ([0.0, -0.0], [1, 2], '{"atoms": [[0.0, 3]]}'),
        ([-0.0, 0.0], [1, 2], '{"atoms": [[-0.0, 3]]}'),
        ([-0.0, 1.0, 0.0], [1, 1, 2], '{"atoms": [[-0.0, 3], [1.0, 1]]}'),
        ([-0.0], [2], '{"atoms": [[-0.0, 2]]}'),
    ])
    def test_merge_keeps_first_sign(self, given, mults, line):
        assert PointMeasure(given, mults, "shift").to_json_line() == line
        assert reference_line(reference_canonical(zip(given, mults))) == line
        parsed = PointMeasure.from_json_line(reference_line(zip(given, mults)), "shift")
        assert parsed.to_json_line() == line


BAD_ATOMS = {
    "location_string": '[["1.5", 2]]',
    "multiplicity_fraction": "[[1.5, 2.7]]",
    "booleans": "[[true, true]]",
    "multiplicity_string": '[[1.5, "3"]]',
    "multiplicity_integral_float": "[[1.5, 2.0]]",
    "location_bool": "[[false, 1]]",
    "multiplicity_zero": "[[1.5, 0]]",
    "location_infinite": "[[1e400, 1]]",
    "location_nan": "[[NaN, 1]]",
    "location_huge_int": "[[" + "9" * 400 + ", 1]]",
    "multiplicity_huge": "[[1.5, " + "9" * 30 + "]]",
    "pair_short": "[[1.5]]",
    "pair_not_list": '[{"x": 1.5, "m": 1}]',
    "atoms_not_list": '{"x": 1}',
}


class TestParser:
    @pytest.mark.parametrize("atoms", BAD_ATOMS.values(), ids=BAD_ATOMS.keys())
    def test_bad_line_is_named(self, atoms):
        lines = ['{"atoms": [[1.0, 1]]}', '{"atoms": %s}' % atoms, '{"atoms": [[2.0, 1]]}']
        with pytest.raises(ConfigError, match=r"^line 2: "):
            list(MeasureBatch.batches_from_json_lines(lines, "scale"))
        with pytest.raises(ConfigError):
            PointMeasure.from_json_line(lines[1])

    @pytest.mark.parametrize("line", ["not json", "{}", "[]", '{"atoms": [], "x": 1}',
                                      '{"atoms": 5}', "null"])
    def test_bad_document(self, line):
        with pytest.raises(ConfigError, match=r"^line 1: "):
            list(MeasureBatch.batches_from_json_lines([line], "scale"))

    def test_origin_only_on_the_shift_carrier(self):
        with pytest.raises(ConfigError, match="origin"):
            PointMeasure.from_json_line('{"atoms": [[0.0, 1]]}')
        assert PointMeasure.from_json_line('{"atoms": [[0, 1]]}', "shift").atoms() == ((0.0, 1),)

    def test_first_bad_line_wins_whatever_the_check(self):
        good = '{"atoms": [[1.0, 1]]}'
        domain = '{"atoms": [[1.0, 0]]}'
        typed = '{"atoms": [["1.0", 1]]}'
        broken = "{"
        for lines, first in (([good, "", domain, typed, broken], 3),
                             ([good, typed, domain], 2),
                             ([good, broken, domain], 2),
                             ([good] * 5000 + [typed] + [domain], 5001)):
            with pytest.raises(ConfigError, match=rf"^line {first}: "):
                list(MeasureBatch.batches_from_json_lines(lines, "scale"))

    def test_batches_are_read_and_mapped_one_at_a_time(self):
        read = []

        def lines():
            for k in range(10_000):
                read.append(k)
                yield "" if k % 10 == 9 else '{"atoms": [[1.0, 1]]}'

        batches = MeasureBatch.batches_from_json_lines(lines(), "scale", log_transform)
        first = next(batches)
        assert (len(first), first.carrier, len(read)) == (4096, "shift", 4551)
        assert [len(b) for b in batches] == [4096, 808]

    def test_a_map_failure_is_named_by_its_line(self):
        lines = ['{"atoms": [[1.0, 1]]}', "", '{"atoms": [[-1.0, 1]]}', "{"]
        with pytest.raises(ConfigError, match=r"^line 3: log transport"):
            list(MeasureBatch.batches_from_json_lines(lines, "scale", log_transform))
        with pytest.raises(ConfigError, match=r"^line 4: malformed"):
            list(MeasureBatch.batches_from_json_lines(lines, "scale"))

    def test_blank_line_is_not_a_measure(self):
        with pytest.raises(ConfigError):
            PointMeasure.from_json_line("   ")
        assert list(MeasureBatch.batches_from_json_lines(["", " "], "scale")) == []


class TestBatchApi:
    def test_indexing_slicing_and_reductions(self):
        batch = MeasureBatch("scale", [2.0, 0.75, 1.5, -2.0], [1, 2, 3, 4],
                             [0, 0, 2, 2], 3)
        assert batch[0] == PointMeasure([0.75, 2.0], [2, 1])
        assert batch[-1] == PointMeasure([-2.0, 1.5], [4, 3])
        assert batch[1].n_atoms == 0
        with pytest.raises(IndexError):
            batch[3]
        with pytest.raises(TypeError):  # a batch indexes but does not slice
            batch[1:]
        assert batch.total_mass().tolist() == [3, 0, 7]
        f = tent(0.5, 1.0, 2.0)
        expected = [integrate(m, f) for m in batch]
        assert batch.integrals(f).tolist() == pytest.approx(expected, rel=1e-15)
        with pytest.raises(DomainError):
            batch.integrals(tent(0.0, 1.0, 2.0, carrier="shift"))

    def test_total_mass_does_not_wrap(self):
        batch = MeasureBatch("scale", [1.0, 2.0, 3.0], [2**62, 2**62, 5], [0, 0, 2], 3)
        assert batch.total_mass().tolist() == [2.0**63, 0.0, 5.0]

    def test_iteration_keeps_order(self):
        ms = [PointMeasure([1.0]), PointMeasure(), PointMeasure([3.0, -1.0], [2, 1])]
        batch = MeasureBatch("scale", [1.0, 3.0, -1.0], [1, 2, 1], [0, 2, 2], 3)
        assert list(batch) == ms

    def test_relocated_recanonicalizes(self):
        batch = MeasureBatch("scale", [1.0, 2.0, 3.0], [1, 1, 1], [0, 0, 0], 1)
        moved = batch.relocated(np.array([5.0, 5.0, -1.0]), "shift")
        assert list(moved) == [PointMeasure([-1.0, 5.0], [1, 2], "shift")]

    def test_arrays_are_read_only_and_inputs_untouched(self):
        locs = np.array([1.0, 2.0])
        batch = MeasureBatch("scale", locs, [1, 1], [0, 0], 1)
        assert not batch.locations.flags.writeable
        locs[0] = 5.0  # the caller's array stays writeable and is not shared
        assert batch[0] == PointMeasure([1.0, 2.0])



# (locations, multiplicities) that PointMeasure and MeasureBatch both refuse
BAD_ATOMS = {
    "half": ([1.0], [1.5]),
    "bool_first": ([1.0, 2.0], [True, 2]),
    "numpy_bool": ([1.0], [np.True_]),
    "int_2_70": ([1.0], [2 ** 70]),
    "int_minus_2_70": ([1.0], [-(2 ** 70)]),
    "short_mults": ([1.0, 2.0], [1]),
    "two_d_locations": ([[1.0, 2.0]], [[1, 1]]),
}


class TestOneConstructor:
    """A single measure is the one-measure case of a batch: both refuse the
    same atoms with the same message, and the batch checks its index too."""

    @pytest.mark.parametrize("locs, mults", BAD_ATOMS.values(), ids=BAD_ATOMS.keys())
    def test_measure_and_batch_refuse_alike(self, locs, mults):
        with pytest.raises(DomainError) as single:
            PointMeasure(locs, mults)
        with pytest.raises(DomainError) as batch:
            MeasureBatch("scale", locs, mults, np.zeros(np.shape(locs), dtype=int), 1)
        assert str(batch.value) == str(single.value)

    @pytest.mark.parametrize("index, n", [([0, 5], 1), ([0, 1], 1), ([-1, 0], 1),
                                          ([0.0, 0.0], 1), ([True, False], 2), ([0], 1),
                                          ([[0, 0]], 1), ([2 ** 70, 0], 1)],
                             ids=["past_n", "at_n", "negative", "float", "bool", "short",
                                  "two_d", "int_2_70"])
    def test_index_is_integers_in_range(self, index, n):
        with pytest.raises(DomainError, match="measure indices must"):
            MeasureBatch("scale", [1.0, 2.0], [1, 1], index, n)

    def test_integral_floats_and_unsigned_ints_are_read_as_integers(self):
        batch = MeasureBatch("scale", [2.0, 1.0], [3.0, 1.0],
                             np.array([0, 0], dtype=np.uint8), 1)
        assert batch.multiplicities.dtype == np.int64
        assert list(batch) == [PointMeasure([1.0, 2.0], [1, 3])]

def _spec(carrier):
    if carrier == "scale":
        dec = DecorationSpec.random_atoms([(1, 0.3), (2, 0.4), (4, 0.3)],
                                          LocationLaw(kind="uniform", low=0.5, high=1.5))
        return ProcessSpec("scdppp", 1.0, dec, 0.2)
    dec = DecorationSpec.random_atoms([(2, 1.0)],
                                      LocationLaw(kind="table", values=(-1.0, 0.0),
                                                  probs=(0.5, 0.5)),
                                      carrier="shift")
    return ProcessSpec("dppp", 1.0, dec, -2.0)


@pytest.mark.parametrize("carrier", ["scale", "shift"])
def test_campaign_batch_matches_replica_measures(carrier):
    spec = _spec(carrier)
    # a superposition's block atoms are re-sorted by replica
    superposed = SuperposeSource(ProcessSource(spec), ProcessSource(spec))
    for source in (ProcessSource(spec), superposed):
        campaign = run_campaign(source, 3, 5000, threads=2)
        batch = campaign.measures()
        assert len(batch) == 5000
        lines = lines_of(batch).splitlines()
        for r in range(5000):
            m = campaign.replica_measure(r)
            assert batch[r] == m
            assert lines[r] == reference_line(m.atoms())
