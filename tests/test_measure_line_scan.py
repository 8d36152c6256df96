"""The two readers of measure lines: lines as the writer emits them are read
by one numeric scan per batch, every other line by json. On any line both
can read, they must give the same measures, bit for bit, or the same error."""
import os
import re
import struct
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stablepp import point_measure
from stablepp.errors import ConfigError, DomainError
from stablepp.point_measure import MeasureBatch, PointMeasure

CARRIERS = ("scale", "shift")
EDGE_LOCATIONS = ["-0.0", "0.0", "0", "5e-324", "-5e-324", "2.2250738585072014e-308",
                  "1e-400", "-1e-400", "1e400", "-1e400", "1E5", "1e+16", "2.5E-3",
                  "-1.5e+300", "1.7976931348623157e308", "123456789012345678901234567890"]


def _bits_float(bits: int) -> str:
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    return repr(x) if np.isfinite(x) else "1.0"


def _exponent_form(mantissa: int, mark: str, sign: str, exponent: int) -> str:
    return f"{mantissa}.{abs(mantissa) % 1000}{mark}{sign}{exponent}"


# every one of these is inside the writer's grammar
LOCATIONS = st.one_of(
    st.integers(0, 2**64 - 1).map(_bits_float),
    st.integers(-10**30, 10**30).map(str),
    st.sampled_from(EDGE_LOCATIONS),
    st.builds(_exponent_form, st.integers(-999, 999), st.sampled_from("eE"),
              st.sampled_from(["", "+", "-"]), st.integers(0, 400)),
)
MULTIPLICITIES = st.one_of(st.integers(1, 9), st.integers(1, 10**15 - 1))
LINES = st.lists(st.lists(st.tuples(LOCATIONS, MULTIPLICITIES), max_size=6),
                 min_size=1, max_size=8).map(
    lambda measures: ['{"atoms": [%s]}' % ", ".join(f"[{x}, {m}]" for x, m in atoms)
                      for atoms in measures])


def read(reader, lines, carrier):
    """The arrays a reader gives after the shared constructor, or its error."""
    try:
        locs, mults, counts = reader(lines)
        batch = MeasureBatch(carrier, locs, mults,
                             np.repeat(np.arange(len(counts)), counts), len(counts))
    except (ConfigError, DomainError) as exc:
        return type(exc), str(exc)
    return batch.locations.tobytes(), batch.multiplicities.tobytes(), batch.offsets.tobytes()


def parsed(lines, carrier):
    """What batches_from_json_lines gives: the batches' arrays or the error."""
    try:
        batches = list(MeasureBatch.batches_from_json_lines(lines, carrier))
    except ConfigError as exc:
        return str(exc)
    return [(b.locations.tobytes(), b.multiplicities.tobytes(), b.offsets.tobytes())
            for b in batches]


def parsed_by_json(lines, carrier):
    """batches_from_json_lines with the numeric scan turned off."""
    with mock.patch.object(point_measure, "_scanned_atoms", lambda lines: None):
        return parsed(lines, carrier)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(LINES)
def test_scan_and_json_agree_inside_the_grammar(lines):
    assert point_measure._scanned_atoms(lines) is not None
    for carrier in CARRIERS:
        assert (read(point_measure._scanned_atoms, lines, carrier)
                == read(point_measure._decoded_lines, lines, carrier))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(LINES, st.sampled_from(CARRIERS))
def test_batch_reader_gives_what_json_gives_errors_and_all(lines, carrier):
    lines = ["", *lines, '{"atoms": [[1.0, 1]]}']
    assert parsed(lines, carrier) == parsed_by_json(lines, carrier)


OUTSIDE = {
    "multiplicity_of_16_digits": '{"atoms": [[1.5, 1000000000000000]]}',
    "multiplicity_of_19_digits": '{"atoms": [[1.5, 9223372036854775807]]}',
    "no_spaces": '{"atoms":[[2,1]]}',
    "trailing_space": '{"atoms": [[2.0, 1]]} ',
    "leading_space": ' {"atoms": [[2.0, 1]]}',
    "spaces_inside": '{ "atoms" : [ [ 2.0 , 1 ] , [-1 ,3]] }',
    "tab_separated": '{"atoms":\t[[2.0,\t1]]}',
    "integer_minus_zero": '{"atoms": [[-0, 1], [3.0, 1]]}',
    "integer_of_101_digits": '{"atoms": [[' + "9" * 101 + ', 1]]}',
}


@pytest.mark.parametrize("carrier", CARRIERS)
@pytest.mark.parametrize("line", OUTSIDE.values(), ids=OUTSIDE.keys())
def test_lines_just_outside_the_grammar_take_json(line, carrier):
    lines = ['{"atoms": [[3.0, 2]]}', line]
    assert point_measure._scanned_atoms(lines[:1]) is not None
    assert point_measure._scanned_atoms(lines) is None
    assert parsed(lines, carrier) == parsed_by_json(lines, carrier)
    locs, mults, _ = point_measure._decoded_lines(lines[1:])
    canonical = PointMeasure(locs, mults, "shift").to_json_line()
    assert parsed(lines, carrier) == parsed([lines[0], canonical], carrier)


@pytest.mark.parametrize("number", ["01", "1.", ".5", "+1", "1e", "1e+", "1.5.2", "--1",
                                    "Infinity", "NaN", "0x10", "1_0", "١"])
@pytest.mark.parametrize("slot", ["[[%s, 1]]", "[[1.5, %s]]"])
def test_bad_numbers_take_json_and_its_error(number, slot):
    lines = ['{"atoms": [[3.0, 2]]}', '{"atoms": %s}' % (slot % number)]
    assert point_measure._scanned_atoms(lines) is None
    error = parsed(lines, "shift")
    assert error == parsed_by_json(lines, "shift") and error.startswith("line 2: ")


def test_integer_minus_zero_reads_as_positive_zero():
    (batch,) = MeasureBatch.batches_from_json_lines(['{"atoms": [[-0, 1], [-0.0, 2]]}'], "shift")
    assert batch.locations.tolist() == [0.0] and not np.signbit(batch.locations[0])
    assert batch.multiplicities.tolist() == [3]


class TestScanEdges:
    def test_empty_measures_only(self):
        lines = ['{"atoms": []}'] * 5
        locs, mults, counts = point_measure._scanned_atoms(lines)
        assert (locs.size, mults.size, counts) == (0, 0, [0] * 5)
        (batch,) = MeasureBatch.batches_from_json_lines(lines, "scale")
        assert len(batch) == 5 and batch.offsets.tolist() == [0] * 6
        assert "".join(batch.json_chunks()) == '{"atoms": []}\n' * 5

    def test_empty_measures_among_blank_lines(self):
        lines = ["", '{"atoms": []}', "  ", '{"atoms": [[2.0, 3], [5.0, 1]]}', "",
                 '{"atoms": []}', '{"atoms": [[-1.0, 1]]}', ""]
        (batch,) = MeasureBatch.batches_from_json_lines(lines, "scale")
        assert batch.offsets.tolist() == [0, 0, 2, 2, 3]
        assert batch.locations.tolist() == [2.0, 5.0, -1.0]
        assert batch.multiplicities.tolist() == [3, 1, 1]
        assert parsed(lines, "scale") == parsed_by_json(lines, "scale")

    @pytest.mark.parametrize("line", ['{"atoms": [[]]}', '{"atoms": [[ ], [ ]]}',
                                      '{"atoms": [[1.0]]}', '{"atoms": [[1.0, 1], []]}'])
    def test_a_scan_that_disagrees_with_the_count_is_not_trusted(self, monkeypatch, line):
        # were the grammar ever to pass a line it should not, a scan of the
        # wrong size (one of no numbers reads [-1.]) must fall back to json
        monkeypatch.setattr(point_measure, "_CANONICAL_LINE", re.compile(".*"))
        assert point_measure._scanned_atoms([line]) is None
        error = "'atoms' must be a list of [location, multiplicity] pairs"
        with pytest.raises(ConfigError, match=rf"^line 2: {re.escape(error)}$"):
            list(MeasureBatch.batches_from_json_lines(['{"atoms": [[1.0, 1]]}', line], "scale"))

    def test_writer_output_takes_the_scan(self):
        rng = np.random.default_rng(3)
        index = np.repeat(np.arange(50), rng.integers(0, 6, 50))
        locs = rng.standard_normal(index.size) * 10.0 ** rng.integers(-320, 300, index.size)
        mults = rng.integers(1, 10**15, index.size)
        for carrier in CARRIERS:
            batch = MeasureBatch(carrier, np.where(locs == 0, 1.0, locs), mults, index, 50)
            lines = "".join(batch.json_chunks()).splitlines()
            assert point_measure._scanned_atoms(lines) is not None
            (again,) = MeasureBatch.batches_from_json_lines(lines, carrier)
            assert again.locations.tobytes() == batch.locations.tobytes()
            assert again.multiplicities.tobytes() == batch.multiplicities.tobytes()
            assert again.offsets.tobytes() == batch.offsets.tobytes()


def test_writing_lines_does_not_import_numpy_ma():
    # numpy.ma costs about 14 ms to import, and np.unique imports it
    env = dict(os.environ)
    src = str(Path(point_measure.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys; from stablepp.point_measure import MeasureBatch; "
            "b = MeasureBatch('scale', range(1, 80001), [1] * 80000, "
            "[0] * 40000 + [1] * 40000, 3); "
            "assert sum(1 for _ in b.json_chunks()) == 2; "
            "assert 'numpy.ma' not in sys.modules")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
