"""Point measures on the punctured line and the test functions paired with them.

Two carriers appear throughout the package. The scale carrier hosts atoms on
R \\ {0}; its measures are acted on by dilations and its test functions vanish
in a neighbourhood of the origin and beyond a finite radius. The shift carrier
hosts atoms anywhere on R; its measures are acted on by translations and its
test functions have compact support on the line; ``sampler.Carrier`` holds
each carrier's measure class with the rest of what differs between the two.
Both measure classes are canonical on construction: atoms sorted by location,
exactly equal locations merged by summing multiplicities (bit equality, no
tolerance), multiplicities positive integers. ``MeasureBatch`` holds many
measures of one class in flat arrays; it makes atoms canonical and reads and
writes the one-measure-per-line JSON format, for one measure or for many.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import sys

import numpy as np

from .errors import ConfigError, DomainError, RangeError

__all__ = [
    "PointMeasure",
    "ShiftPointMeasure",
    "MeasureBatch",
    "TestFunction",
    "ShiftTestFunction",
    "integrate",
    "tent",
    "indicator_approx",
    "maxmod_indicator",
    "shift_tent",
    "shift_indicator_approx",
]


def _canonical(locs: np.ndarray, mults: np.ndarray, index: np.ndarray, n: int,
               forbid_origin: bool):
    """(locations, multiplicities, offsets) of n measures in canonical form.

    Atom k belongs to measure index[k]. Unless the atoms already come in
    canonical order (measure ascending, locations strictly increasing within
    each), one stable lexsort by (measure, location) orders them and equal
    neighbours merge by summing their multiplicities, which must stay below
    2**63. Because the sort is stable, a merge of the equal locations 0.0 and
    -0.0 keeps the sign of the one given first.
    """
    if not np.isfinite(locs).all():
        raise DomainError("atom locations must be finite")
    if forbid_origin and (locs == 0.0).any():
        raise DomainError("atoms at the origin are not allowed on the scale carrier")
    if (mults < 1).any():
        raise DomainError("multiplicities must be >= 1")
    if ((index[1:] > index[:-1])
            | ((index[1:] == index[:-1]) & (locs[1:] > locs[:-1]))).all():
        locs, mults = locs.copy(), mults.copy()  # already canonical
    else:
        order = np.lexsort((locs, index))
        locs, mults, index = locs[order], mults[order], index[order]
        head = np.ones(locs.size, dtype=bool)
        np.not_equal(locs[1:], locs[:-1], out=head[1:])
        head[1:] |= index[1:] != index[:-1]
        if not head.all():
            starts = np.flatnonzero(head)
            # int64 sums wrap; those of the 32-bit halves do not, and sum to high * 2**32 + low
            high = np.add.reduceat(mults >> 32, starts)
            low = np.add.reduceat(mults & 0xFFFFFFFF, starts)
            if (high + (low >> 32) >= 2**31).any():
                raise DomainError("multiplicities merged at one location must sum to below 2**63")
            locs, mults, index = locs[starts], np.add.reduceat(mults, starts), index[starts]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(index, minlength=n), out=offsets[1:])
    for a in (locs, mults, offsets):
        a.flags.writeable = False
    return locs, mults, offsets


class _BaseMeasure:
    __slots__ = ("locations", "multiplicities")

    _forbid_origin = False

    def __init__(self, locations=(), multiplicities=None):
        """The canonical measure of these atoms, built as the one-measure case
        of a MeasureBatch; multiplicities default to all ones."""
        locs = np.atleast_1d(np.asarray(locations, dtype=np.float64))
        if multiplicities is None:
            multiplicities = np.ones(locs.shape, dtype=np.int64)
        batch = MeasureBatch(type(self), locs, multiplicities,
                             np.zeros(locs.shape, dtype=np.int64), 1)
        object.__setattr__(self, "locations", batch.locations)
        object.__setattr__(self, "multiplicities", batch.multiplicities)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_atoms(cls, atoms):
        """Build from an iterable of (location, multiplicity) pairs."""
        atoms = list(atoms)
        if not atoms:
            return cls()
        locs = [a[0] for a in atoms]
        mults = [a[1] for a in atoms]
        return cls(locs, mults)

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    @property
    def total_mass(self) -> int:
        return sum(self.multiplicities.tolist())

    def atoms(self):
        """Atoms as a tuple of (location, multiplicity) pairs in canonical order."""
        return tuple((float(x), int(m)) for x, m in zip(self.locations, self.multiplicities))

    def relocated(self, locations, measure):
        """A measure of class `measure` with these atoms moved to `locations`."""
        return measure(locations, self.multiplicities)

    def to_json_line(self) -> str:
        """The measure-line text of this measure, without the newline."""
        return _json_text(self.locations, self.multiplicities, [0, self.locations.size])[:-1]

    @classmethod
    def from_json_line(cls, line: str):
        if not line.strip():
            raise ConfigError("a point-measure line must not be blank")
        return MeasureBatch.from_json_lines([line], cls)[0]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self.locations, other.locations) and np.array_equal(
            self.multiplicities, other.multiplicities
        )

    def __hash__(self):
        return hash((type(self).__name__, self.locations.tobytes(), self.multiplicities.tobytes()))

    def __repr__(self):
        inner = ", ".join(f"{x:g}x{m}" for x, m in zip(self.locations, self.multiplicities))
        return f"{type(self).__name__}([{inner}])"


class PointMeasure(_BaseMeasure):
    """Finite counting measure on R \\ {0} (scale carrier)."""

    __slots__ = ()
    _forbid_origin = True

    def maxmod(self) -> float:
        """Largest atom modulus; 0.0 for the empty measure."""
        if not self.locations.size:
            return 0.0
        return float(np.abs(self.locations).max())


class ShiftPointMeasure(_BaseMeasure):
    """Finite counting measure on R (shift carrier); atoms at 0 are fine here."""

    __slots__ = ()
    _forbid_origin = False

    def max_location(self) -> float:
        """Largest atom location; -inf for the empty measure."""
        if not self.locations.size:
            return -math.inf
        return float(self.locations.max())


# -- many measures at once ------------------------------------------------------

_LINE_CHUNK = 4096  # measure lines decoded at a time
_ATOM_CHUNK = 1 << 16  # atoms encoded at a time, in whole measures


def _json_text(locations: np.ndarray, multiplicities: np.ndarray, bounds: list) -> str:
    """Measure lines of the atoms split at the offsets `bounds`, each ending in
    a newline and reading exactly as ``json.dumps({"atoms": [[float(x), int(m)], ...]})``."""
    atoms = [f"[{x!r}, {m}]" for x, m in zip(locations.tolist(), multiplicities.tolist())]
    return "".join(['{"atoms": [' + ", ".join(atoms[s:e]) + "]}\n"
                    for s, e in zip(bounds[:-1], bounds[1:])])


def _decoded_atoms(line: str) -> list:
    """The 'atoms' list of one measure line, its shape not yet checked."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed point-measure line: {exc}") from exc
    except ValueError:  # json reads integers with int, which caps their digits
        raise ConfigError("point-measure line holds an integer of more than "
                          f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise ConfigError("point-measure line nests too deeply to read") from None
    if type(doc) is not dict or doc.keys() != {"atoms"}:
        raise ConfigError("point-measure line must be an object with the single key 'atoms'")
    if type(doc["atoms"]) is not list:
        raise ConfigError("'atoms' must be a list of [location, multiplicity] pairs")
    return doc["atoms"]


class MeasureBatch:
    """Many measures of one carrier class held as one ragged batch.

    Measure i owns the atoms ``offsets[i]:offsets[i + 1]`` of the flat
    ``locations`` and ``multiplicities``, in the canonical form of its class:
    sorted by location, equal locations merged, multiplicities >= 1. The batch
    is the one code path that makes atoms canonical and that reads and writes
    the measure-line format; a single measure is its one-measure case.
    Indexing with an integer gives that measure, with a slice a sub-batch.
    """

    __slots__ = ("measure", "locations", "multiplicities", "offsets")

    def __init__(self, measure: type, locations, multiplicities, index, n: int):
        """Measures 0..n-1 of class `measure`; atom k belongs to measure index[k].

        Locations form a one-dimensional sequence. Multiplicities match them
        one to one and are integers in the int64 range: integral floats are
        read as integers, booleans are refused element by element. Index
        matches them one to one too, with integer entries in [0, n). Any other
        input is a DomainError.
        """
        locs = np.atleast_1d(np.asarray(locations, dtype=np.float64))
        if locs.ndim != 1:
            raise DomainError("atom locations must form a one-dimensional sequence")
        raw = np.atleast_1d(np.asarray(multiplicities))
        if raw.shape != locs.shape:
            raise DomainError("multiplicities must match locations one-to-one")
        # booleans, and Python ints beyond 64 bits (an object array), are refused;
        # numpy reads a bool among ints as 0 or 1, so a sequence is read element by element
        kind = raw.dtype.kind
        has_bool = not isinstance(multiplicities, np.ndarray) and any(
            isinstance(m, (bool, np.bool_))
            for m in np.asarray(multiplicities, dtype=object).ravel())
        if has_bool or kind not in "iuf" or (
                kind != "i" and not np.all((raw == np.round(raw)) & (np.abs(raw) < 2.0 ** 63))):
            raise DomainError("multiplicities must be integers in the int64 range")
        n = int(n)
        idx = np.asarray(index)
        if idx.shape != locs.shape:
            raise DomainError("measure indices must match locations one-to-one")
        if idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= n):
            raise DomainError(f"measure indices must be integers in [0, {n})")
        self.measure = measure
        self.locations, self.multiplicities, self.offsets = _canonical(
            locs, raw.astype(np.int64, copy=False), idx.astype(np.int64, copy=False), n,
            measure._forbid_origin)

    @classmethod
    def _trusted(cls, measure, locations, multiplicities, offsets) -> "MeasureBatch":
        """A batch of atoms already in canonical form, taken as they are."""
        out = object.__new__(cls)
        out.measure = measure
        out.locations, out.multiplicities, out.offsets = locations, multiplicities, offsets
        return out

    @classmethod
    def concatenate(cls, batches, measure: type) -> "MeasureBatch":
        """The measures of several batches of class `measure`, in order."""
        batches = list(batches)
        if any(b.measure is not measure for b in batches):
            raise DomainError(f"every batch must hold {measure.__name__} values")
        starts = np.cumsum([0] + [b.offsets[-1] for b in batches])
        return cls._trusted(
            measure,
            np.concatenate([np.zeros(0)] + [b.locations for b in batches]),
            np.concatenate([np.zeros(0, dtype=np.int64)] + [b.multiplicities for b in batches]),
            np.concatenate([np.zeros(1, dtype=np.int64)]
                           + [b.offsets[1:] + s for b, s in zip(batches, starts)]))

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, key):
        if isinstance(key, slice):
            lo, hi, step = key.indices(len(self))
            if step != 1:
                raise DomainError("a batch slice must have step 1")
            hi = max(hi, lo)
            a, b = self.offsets[lo], self.offsets[hi]
            return MeasureBatch._trusted(self.measure, self.locations[a:b],
                                           self.multiplicities[a:b],
                                           self.offsets[lo:hi + 1] - a)
        i = range(len(self))[key]
        a, b = self.offsets[i], self.offsets[i + 1]
        m = object.__new__(self.measure)
        object.__setattr__(m, "locations", self.locations[a:b])
        object.__setattr__(m, "multiplicities", self.multiplicities[a:b])
        return m

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def index(self) -> np.ndarray:
        """The measure each atom belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def total_mass(self) -> np.ndarray:
        """Sum of multiplicities of each measure: the integral of 1, as floats
        like `integrals`."""
        return np.bincount(self.index(), weights=self.multiplicities, minlength=len(self))

    def integrals(self, f) -> np.ndarray:
        """Integral of f against each measure, as `integrate` computes it for one."""
        if f._measure is not self.measure:
            raise DomainError("measure and test function live on different carriers")
        return np.bincount(self.index(), weights=self.multiplicities * f.eval(self.locations),
                           minlength=len(self))

    def relocated(self, locations, measure: type) -> "MeasureBatch":
        """Measures of class `measure` with every atom moved to `locations`."""
        return MeasureBatch(measure, locations, self.multiplicities, self.index(), len(self))

    def json_chunks(self):
        """The measure lines, one per measure, in pieces of whole measures of
        about 65536 atoms, so only one piece's strings are alive at a time."""
        n = len(self)
        targets = np.arange(_ATOM_CHUNK, self.offsets[-1], _ATOM_CHUNK)
        cuts = np.unique(np.concatenate([[0], np.searchsorted(self.offsets, targets), [n]]))
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            a, b = self.offsets[lo], self.offsets[hi]
            yield _json_text(self.locations[a:b], self.multiplicities[a:b],
                             (self.offsets[lo:hi + 1] - a).tolist())

    def json_lines(self) -> str:
        """Every measure line, each ending in a newline."""
        return "".join(self.json_chunks())

    @classmethod
    def from_json_lines(cls, lines, measure: type) -> "MeasureBatch":
        """Parse measure lines into one batch of measures of class `measure`."""
        return cls.concatenate(cls.batches_from_json_lines(lines, measure), measure)

    @classmethod
    def batches_from_json_lines(cls, lines, measure: type, mapped=lambda batch: batch):
        """Parse measure lines into measures of class `measure`, passed through
        `mapped` in batches of up to 4096 lines, taken from `lines` as needed.

        A line is a JSON object with the single key "atoms", a list of
        [location, multiplicity] pairs: a location is a JSON number (not a
        boolean), finite and, on the scale carrier, nonzero; a multiplicity
        is a JSON integer (not a boolean, not 2.0) from 1 to 2**63 - 1.
        Blank lines carry no measure and are skipped. A batch that fails to
        parse or to map is retried line by line, and a ConfigError names the
        first line that fails either by its 1-based position in `lines`.
        """
        numbered = ((k, line) for k, line in enumerate(lines, 1) if line.strip())
        while chunk := list(itertools.islice(numbered, _LINE_CHUNK)):
            try:
                batch = mapped(cls._from_lines([line for _, line in chunk], measure))
            except (ConfigError, DomainError, RangeError):
                for k, line in chunk:
                    try:
                        mapped(cls._from_lines([line], measure))
                    except (ConfigError, DomainError, RangeError) as exc:
                        raise ConfigError(f"line {k}: {exc}") from exc
                raise
            yield batch

    @classmethod
    def _from_lines(cls, lines, measure: type) -> "MeasureBatch":
        atom_lists = list(map(_decoded_atoms, lines))
        pairs = list(itertools.chain.from_iterable(atom_lists))
        if set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}:
            raise ConfigError("'atoms' must be a list of [location, multiplicity] pairs")
        locs = list(map(operator.itemgetter(0), pairs))
        mults = list(map(operator.itemgetter(1), pairs))
        if set(map(type, locs)) - {float, int}:
            raise ConfigError("atom locations must be numbers")
        if set(map(type, mults)) - {int}:
            raise ConfigError("multiplicities must be integers")
        try:
            locs = np.array(locs, dtype=np.float64)
        except OverflowError:
            raise DomainError("atom locations must be finite") from None
        try:
            mults = np.array(mults, dtype=np.int64)
        except OverflowError:
            raise DomainError("multiplicities must be below 2**63") from None
        counts = list(map(len, atom_lists))
        return cls(measure, locs, mults, np.repeat(np.arange(len(counts)), counts), len(counts))


class _BaseTestFunction:
    """Nonnegative piecewise-linear function of one carrier, whose measure
    class is ``_measure``.

    ``support_bounds`` is (smallest, largest) carrier norm (|x| on the scale
    carrier, x on the shift carrier) over the end points of the pieces where
    f is not 0; (inf, 0) on the scale carrier and (inf, -inf) on the shift
    carrier for the zero function. Where the measure class forbids atoms at
    the origin, so does f: a nonzero piece may not touch 0.
    """

    __slots__ = ("knots_x", "knots_v", "support_bounds")
    __test__ = False  # not a pytest collection target

    def __init__(self, knots):
        pairs = [(float(x), float(v)) for x, v in knots]
        if len(pairs) < 2:
            raise DomainError("a test function needs at least two knots")
        xs = np.array([p[0] for p in pairs], dtype=np.float64)
        vs = np.array([p[1] for p in pairs], dtype=np.float64)
        if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(vs)):
            raise DomainError("knots must be finite")
        if np.any(np.diff(xs) <= 0.0):
            raise DomainError("knot abscissae must be strictly increasing")
        if np.any(vs < 0.0):
            raise DomainError("test functions are nonnegative")
        if vs[0] != 0.0 or vs[-1] != 0.0:
            raise DomainError("the first and last knot values must be 0")
        live = (vs[:-1] > 0.0) | (vs[1:] > 0.0)
        lo, hi = xs[:-1][live], xs[1:][live]
        # `top` is the largest norm when there is no end point (the zero function)
        ends, top = np.concatenate([lo, hi]), -math.inf
        if self._measure._forbid_origin:
            if np.any((lo <= 0.0) & (hi >= 0.0)):
                raise DomainError("test functions on the scale carrier must vanish near the origin")
            ends, top = np.abs(ends), 0.0
        xs.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "knots_x", xs)
        object.__setattr__(self, "knots_v", vs)
        object.__setattr__(self, "support_bounds",
                           (float(ends.min(initial=math.inf)), float(ends.max(initial=top))))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def is_zero(self) -> bool:
        return bool(np.all(self.knots_v == 0.0))

    @property
    def sup_norm(self) -> float:
        return float(self.knots_v.max())

    def eval(self, x):
        """Linear interpolation between knots, 0 outside the knot range.

        Exact at knots: a query equal to a knot abscissa returns the knot value
        bit-for-bit, so integrals of measures whose atoms sit on knots are exact.
        A scalar query returns a float.
        """
        out = np.interp(x, self.knots_x, self.knots_v, left=0.0, right=0.0)
        return float(out) if np.ndim(out) == 0 else out

    __call__ = eval

    def __repr__(self):
        lo, hi = self.knots_x[0], self.knots_x[-1]
        return f"{type(self).__name__}({self.knots_x.size} knots on [{lo:g}, {hi:g}])"


class TestFunction(_BaseTestFunction):
    """Nonnegative piecewise-linear function on the scale carrier.

    It vanishes identically on a neighbourhood of the origin and outside a
    finite radius; ``support_bounds`` is (inner, outer) radius.
    """

    __slots__ = ()
    _measure = PointMeasure

    inner_radius = property(lambda self: self.support_bounds[0])
    outer_radius = property(lambda self: self.support_bounds[1])

    def scaled(self, y: float) -> "TestFunction":
        """The function x -> f(y * x); knots move to knot/y."""
        y = float(y)
        if not (y > 0.0) or not math.isfinite(y):
            raise DomainError("the dilation factor must be finite and > 0")
        return TestFunction([(x / y, v) for x, v in zip(self.knots_x, self.knots_v)])


class ShiftTestFunction(_BaseTestFunction):
    """Nonnegative piecewise-linear function with compact support on R;
    ``support_bounds`` is (support_low, support_high)."""

    __slots__ = ()
    _measure = ShiftPointMeasure

    support_low = property(lambda self: self.support_bounds[0])
    support_high = property(lambda self: self.support_bounds[1])


def integrate(m, f) -> float:
    """Integral of f against the counting measure, sum of mult * f(location)."""
    if f._measure is not type(m):
        raise DomainError("measure and test function live on different carriers")
    if not m.locations.size:
        return 0.0
    return float(np.dot(m.multiplicities.astype(np.float64), f.eval(m.locations)))


# -- shaped constructors ------------------------------------------------------

def tent(left: float, peak: float, right: float, height: float = 1.0) -> TestFunction:
    """Triangle with value `height` at `peak`, zero at `left` and `right`."""
    return TestFunction([(left, 0.0), (peak, height), (right, 0.0)])


def indicator_approx(
    level: float,
    edge: float = 1.0,
    outer: float = 1e8,
    ramp: float = 1e-7,
    symmetric: bool = False,
) -> TestFunction:
    """Continuous approximation to level * 1_{(edge, inf)} with an outer cutoff.

    Rises linearly on (edge, edge*(1+ramp)), holds `level` out to `outer`, and
    returns to zero by outer*(1+ramp). With ``symmetric=True`` the same shape
    is mirrored onto the negative half-line, approximating
    level * 1_{|x| > edge}.

    Parameters
    ----------
    level : plateau value.
    edge : inner support radius, > 0.
    outer : start of the outer down-ramp; the exact indicator has none, so
        `outer` (and the ramp width) quantify the approximation gap.
    ramp : relative ramp width.
    """
    if not (edge > 0.0 and outer > edge * (1.0 + ramp) and ramp > 0.0 and level > 0.0):
        raise DomainError("indicator approximation requires 0 < edge, edge*(1+ramp) < outer, ramp > 0, level > 0")
    right = [(edge, 0.0), (edge * (1.0 + ramp), level), (outer, level), (outer * (1.0 + ramp), 0.0)]
    if not symmetric:
        return TestFunction(right)
    left = [(-x, v) for x, v in reversed(right)]
    return TestFunction(left + right)


def maxmod_indicator(plateau: float, edge: float = 1.0, outer: float = 1e8, ramp: float = 1e-7) -> TestFunction:
    """Two-sided plateau approximating inf * 1_{|x| > edge}.

    Integrating exp(-integral) against this function approximates the
    probability that no atom exceeds modulus `edge`, with bias at most
    e^{-plateau} plus the ramp and outer-cutoff mass.
    """
    return indicator_approx(plateau, edge=edge, outer=outer, ramp=ramp, symmetric=True)


def shift_tent(left: float, peak: float, right: float, height: float = 1.0) -> ShiftTestFunction:
    return ShiftTestFunction([(left, 0.0), (peak, height), (right, 0.0)])


def shift_indicator_approx(level: float, edge: float, outer: float, ramp: float = 1e-6) -> ShiftTestFunction:
    """Continuous approximation to level * 1_{(edge, inf)} on the shift carrier.

    Ramp widths here are absolute (the carrier is additive).
    """
    if not (outer > edge + ramp and ramp > 0.0 and level > 0.0):
        raise DomainError("shift indicator approximation requires edge + ramp < outer, ramp > 0, level > 0")
    return ShiftTestFunction(
        [(edge, 0.0), (edge + ramp, level), (outer, level), (outer + ramp, 0.0)])
