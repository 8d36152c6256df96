"""Point measures on the punctured line and on the line, the test functions
paired with them, and the two carriers both live on.

Two carriers appear throughout the package. The scale carrier hosts atoms on
R \\ {0}; its measures are acted on by dilations and its test functions vanish
in a neighbourhood of the origin and beyond a finite radius. The shift carrier
hosts atoms anywhere on R; its measures are acted on by translations and its
test functions have compact support on the line. ``Carrier`` holds what
differs between the two, and every measure, batch and test function names
its carrier in a ``carrier`` field, "scale" or "shift", as specs and
manifests do. Measures are canonical on construction: atoms sorted by
location, exactly equal locations merged by summing multiplicities (bit
equality, no tolerance), multiplicities positive integers. ``MeasureBatch``
holds many measures of one carrier in flat arrays; it makes atoms canonical
and reads and writes the one-measure-per-line JSON format, for one measure
or for many.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, RangeError

__all__ = [
    "PointMeasure",
    "MeasureBatch",
    "TestFunction",
    "integrate",
    "tent",
    "indicator_approx",
    "shift_indicator_approx",
]


# -- the two coordinate systems ------------------------------------------------

@dataclass(frozen=True)
class Carrier:
    """One coordinate system of the exp/log dictionary: what code written once
    for both worlds needs to know about either. SCALE (atoms on R \\ {0},
    dilations x -> y x) and SHIFT (atoms on R, translations x -> x + u) are the
    only values; configs, manifests and ``carrier`` fields use ``name``.

    The fields are the chart and the facts that differ between the carriers.
    The rest is written once below, in the log coordinate v of a point or norm
    (s = e^v on the scale carrier, t = v on the shift carrier): there the
    dilation process has intensity rho e^{-rate v} dv on both carriers, and a
    point acts on an atom's norm by translating its v. ``act`` and ``inverse``
    run per atom, so they stay in the chart, where the scale carrier multiplies
    instead of taking a log and an exp.
    """

    name: str
    norm: Callable  # the size the decoration bound caps and the window keeps: |x| or x
    families: tuple  # (without, with a global law)
    gaussian: str  # kind name of the global law whose log coordinate is normal
    act: Callable  # (p, a) -> p acting on the atom a: p * a or a + p
    inverse: Callable  # (p, x) -> p's inverse acting on x
    rate_key: str  # config key of the tail index / rate
    point: str  # symbol of an evaluation point
    window_word: str
    to_log: Callable  # point -> v: log or the identity; a float stays a float, arrays map
    from_log: Callable  # v -> point: exp or the identity, likewise
    intensity: Callable  # rate -> rho

    @property
    def other(self) -> str:
        """Name of the dictionary image."""
        return next(name for name in CARRIERS if name != self.name)

    @property
    def identity(self) -> float:
        """The global-law value that acts trivially, at log coordinate 0."""
        return self.from_log(0.0)

    @property
    def floor(self) -> float:
        """The point at log coordinate -inf, 0 (scale) or -inf (shift): the
        extreme norm of a replica without atoms."""
        return self.from_log(-math.inf)

    def has_log(self, p):
        """Where the points p have a log coordinate, nan kept: not p <= floor."""
        return np.logical_not(p <= self.floor)

    def check_point(self, p) -> np.ndarray:
        """p, one point or many, as a float array; a DomainError with ``point_error``
        unless every point is an evaluation point: finite, with a log coordinate."""
        p = np.asarray(p, dtype=np.float64)
        if not np.all(np.isfinite(p) & self.has_log(p)):
            raise DomainError(self.point_error)
        return p

    @property
    def point_error(self) -> str:
        """The error text of a point that is not an evaluation point."""
        bound = f" and > {self.floor:g}" if math.isfinite(self.floor) else ""
        return f"evaluation point {self.point} must be finite{bound}"

    def visible(self, f, p) -> float:
        """The window x -> f(inverse(p, x)) needs: p acting on f's lower support edge."""
        return self.act(p, f.support_bounds[0])

    def compose(self, f, p) -> Callable:
        """The function a -> f(p acting on a)."""
        return lambda a: f.eval(self.act(p, a))

    def tail_mass(self, rate, v):
        """(rho / rate) e^{rate v}: the mass of rho e^{-rate v'} dv' above -v."""
        return np.exp(rate * v) / (rate / self.intensity(rate))

    def block_mean(self, rate, w, window, bound):
        """Poisson mean, given the global value w, of the dilation points p
        with v_p > v_window - v_bound, the only ones that can carry an atom into
        the window. Translating the process by v_w multiplies its intensity by
        e^{rate v_w} and keeps its shape, so w moves the count only and the
        points (``block_start``) do not reference it."""
        return self.tail_mass(rate, self.to_log(bound) + self.to_log(w) - self.to_log(window))

    def block_start(self, rate, window, bound, q):
        """The dilation point at uniform q, by inverse CDF of the points above
        v_window - v_bound: an Exponential(rate) step in v."""
        return self.from_log((self.to_log(window) - self.to_log(bound)) - np.log1p(-q) / rate)

    def weight(self, rate, p, w):
        """The tail weight e^{-rate (v_p - v_w)} at p of the global value w."""
        return np.exp(-rate * (self.to_log(p) - self.to_log(w)))

    def quantile(self, rate, kappa, w, L):
        """The point p with weight(rate, p, w) * kappa = L."""
        return self.from_log(self.to_log(w) - np.log(L / kappa) / rate)


def _chart(scalar: Callable, ufunc: Callable) -> Callable:
    """One chart map: the math function on a Python float, so that scalar code
    keeps its floats and their bits, and the ufunc on everything else."""
    return lambda x: scalar(x) if type(x) is float else ufunc(x)


SCALE = Carrier(
    name="scale", norm=abs, families=("scdppp", "sscdppp"), gaussian="lognormal",
    act=lambda p, a: p * a, inverse=lambda y, x: x / y,
    rate_key="alpha", point="y", window_word="window",
    to_log=_chart(math.log, np.log), from_log=_chart(math.exp, np.exp), intensity=lambda a: a,
)
SHIFT = Carrier(
    name="shift", norm=lambda x: x, families=("dppp", "sdppp"), gaussian="normal",
    act=lambda p, a: a + p, inverse=lambda u, x: x - u,
    rate_key="c", point="u", window_word="cutoff",
    to_log=lambda t: t, from_log=lambda v: v, intensity=lambda c: 1.0,
)
CARRIERS = {"scale": SCALE, "shift": SHIFT}


def _carrier(name) -> Carrier:
    """The Carrier named `name`, a DomainError naming the carriers for anything else."""
    if type(name) is not str or name not in CARRIERS:
        raise DomainError(f"carrier must be one of {sorted(CARRIERS)}, not {name!r}")
    return CARRIERS[name]


# -- measures --------------------------------------------------------------------

def _canonical(locs: np.ndarray, mults: np.ndarray, index: np.ndarray, n: int, cr: Carrier):
    """(locations, multiplicities, offsets) of n measures in canonical form on
    carrier ``cr``, where every atom's norm must have a log coordinate.

    Atom k belongs to measure index[k]. Unless the atoms already come in
    canonical order (measure ascending, locations strictly increasing within
    each), one stable lexsort by (measure, location) orders them and equal
    neighbours merge by summing their multiplicities, which must stay below
    2**63. Because the sort is stable, a merge of the equal locations 0.0 and
    -0.0 keeps the sign of the one given first.
    """
    if not np.isfinite(locs).all():
        raise DomainError("atom locations must be finite")
    if not cr.has_log(cr.norm(locs)).all():
        raise DomainError(f"atoms at the origin are not allowed on the {cr.name} carrier")
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
    __slots__ = ("locations", "multiplicities", "carrier")

    def __init__(self, locations=(), multiplicities=None, carrier: str = "scale"):
        """The canonical measure of these atoms on `carrier`, built as the
        one-measure case of a MeasureBatch; multiplicities default to all ones."""
        locs = np.atleast_1d(np.asarray(locations, dtype=np.float64))
        if multiplicities is None:
            multiplicities = np.ones(locs.shape, dtype=np.int64)
        batch = MeasureBatch(carrier, locs, multiplicities,
                             np.zeros(locs.shape, dtype=np.int64), 1)
        object.__setattr__(self, "locations", batch.locations)
        object.__setattr__(self, "multiplicities", batch.multiplicities)
        object.__setattr__(self, "carrier", batch.carrier)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def from_atoms(cls, atoms, carrier: str = "scale"):
        """Build from an iterable of (location, multiplicity) pairs."""
        atoms = list(atoms)
        return cls([a[0] for a in atoms], [a[1] for a in atoms], carrier)

    @property
    def n_atoms(self) -> int:
        return int(self.locations.size)

    @property
    def total_mass(self) -> int:
        return sum(self.multiplicities.tolist())

    def atoms(self):
        """Atoms as a tuple of (location, multiplicity) pairs in canonical order."""
        return tuple((float(x), int(m)) for x, m in zip(self.locations, self.multiplicities))

    def relocated(self, locations, carrier: str):
        """A measure on `carrier` with these atoms moved to `locations`."""
        return type(self)(locations, self.multiplicities, carrier)

    def to_json_line(self) -> str:
        """The measure-line text of this measure, without the newline."""
        return _json_text(self.locations, self.multiplicities, [0, self.locations.size])[:-1]

    @classmethod
    def from_json_line(cls, line: str, carrier: str = "scale"):
        if not line.strip():
            raise ConfigError("a point-measure line must not be blank")
        return next(MeasureBatch.batches_from_json_lines([line], carrier))[0]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.carrier == other.carrier
                and np.array_equal(self.locations, other.locations)
                and np.array_equal(self.multiplicities, other.multiplicities))

    def __hash__(self):
        return hash((self.carrier, self.locations.tobytes(), self.multiplicities.tobytes()))

    def __repr__(self):
        inner = ", ".join(f"{x:g}x{m}" for x, m in zip(self.locations, self.multiplicities))
        return f"{type(self).__name__}([{inner}], carrier={self.carrier!r})"


class PointMeasure(_BaseMeasure):
    """Finite counting measure on one carrier: on R \\ {0} (``carrier="scale"``)
    or on R (``carrier="shift"``)."""

    __slots__ = ()

    def extreme(self) -> float:
        """Largest atom norm: the largest modulus (scale) or the largest
        location (shift); the carrier's floor, 0 or -inf, for the empty measure."""
        cr = CARRIERS[self.carrier]
        return float(cr.norm(self.locations).max(initial=cr.floor))


# -- many measures at once ------------------------------------------------------

_LINE_CHUNK = 4096  # measure lines decoded at a time
_ATOM_CHUNK = 1 << 16  # atoms encoded at a time, in whole measures


def _json_text(locations: np.ndarray, multiplicities: np.ndarray, bounds: list) -> str:
    """Measure lines of the atoms split at the offsets `bounds`, each ending in
    a newline and reading exactly as ``json.dumps({"atoms": [[float(x), int(m)], ...]})``.

    One %-template for all the lines is applied once to the interleaved
    atoms: %r of a float is its repr, and %d of an int its digits."""
    values = [None] * (2 * locations.size)
    values[0::2] = locations.tolist()
    values[1::2] = multiplicities.tolist()
    template = "".join(['{"atoms": [' + ("[%r, %d], " * (e - s))[:-2] + "]}\n"
                        for s, e in zip(bounds[:-1], bounds[1:])])
    return template % tuple(values)


# The grammar of the lines the writer emits, with locations as JSON numbers.
# Digit runs are bounded, so no integer comes near json's cap on digits, and a
# multiplicity of at most 15 digits is exact as a double. The integer -0 is
# left to json, which reads it as the int 0 and so as 0.0, where the numeric
# scan would read -0.0. Optional parts are written as "(?:...|)", which re
# matches faster than "(?:...)?".
_NUMBER = r"(?:-?[1-9][0-9]{0,99}|0|-0(?=[.eE]))(?:\.[0-9]{1,100}|)(?:[eE][+-]?[0-9]{1,100}|)"
_PAIR = rf"\[{_NUMBER}, [1-9][0-9]{{0,14}}\]"
_CANONICAL_LINE = re.compile(rf'\{{"atoms": \[(?:{_PAIR}(?:, {_PAIR})*|)\]\}}')
_NOT_NUMBERS = str.maketrans(dict.fromkeys('{}[],:"atoms', " "))


def _scanned_atoms(lines: list):
    """(locations, multiplicities, atoms per line) of lines that all match
    the writer's grammar, read by one numeric scan; None for any other lines."""
    if not all(map(_CANONICAL_LINE.fullmatch, lines)):
        return None
    counts = [line.count("[") - 1 for line in lines]
    total = sum(counts)
    if not total:  # a scan of no numbers reads [-1.]
        return np.empty(0), np.empty(0, dtype=np.int64), counts
    values = np.fromstring(" ".join(lines).translate(_NOT_NUMBERS), sep=" ")
    if values.size != 2 * total:
        return None
    return values[0::2], values[1::2].astype(np.int64), counts


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


def _decoded_lines(lines: list):
    """(locations, multiplicities, atoms per line) of any measure lines, read by json."""
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
    return locs, mults, list(map(len, atom_lists))


class MeasureBatch:
    """Many measures of one carrier held as one ragged batch.

    Measure i owns the atoms ``offsets[i]:offsets[i + 1]`` of the flat
    ``locations`` and ``multiplicities``, in canonical form:
    sorted by location, equal locations merged, multiplicities >= 1. The batch
    is the one code path that makes atoms canonical and that reads and writes
    the measure-line format; a single measure is its one-measure case.
    Indexing with an integer gives that measure; a batch is not sliced.
    """

    __slots__ = ("carrier", "locations", "multiplicities", "offsets")

    def __init__(self, carrier: str, locations, multiplicities, index, n: int):
        """Measures 0..n-1 on `carrier`; atom k belongs to measure index[k].

        Locations form a one-dimensional sequence. Multiplicities match them
        one to one and are integers in the int64 range: integral floats are
        read as integers, booleans are refused element by element. Index
        matches them one to one too, with integer entries in [0, n). Any other
        input is a DomainError.
        """
        cr = _carrier(carrier)
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
        self.carrier = cr.name
        self.locations, self.multiplicities, self.offsets = _canonical(
            locs, raw.astype(np.int64, copy=False), idx.astype(np.int64, copy=False), n, cr)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i: int) -> PointMeasure:
        i = range(len(self))[operator.index(i)]
        a, b = self.offsets[i], self.offsets[i + 1]
        return PointMeasure(self.locations[a:b], self.multiplicities[a:b], self.carrier)

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
        if f.carrier != self.carrier:
            raise DomainError(f"expected a {self.carrier}-carrier test function")
        return np.bincount(self.index(), weights=self.multiplicities * f.eval(self.locations),
                           minlength=len(self))

    def relocated(self, locations, carrier: str) -> "MeasureBatch":
        """Measures on `carrier` with every atom moved to `locations`."""
        return MeasureBatch(carrier, locations, self.multiplicities, self.index(), len(self))

    def json_chunks(self):
        """The measure lines, one per measure, in pieces of whole measures of
        about 65536 atoms, so only one piece's strings are alive at a time."""
        n = len(self)
        targets = np.arange(_ATOM_CHUNK, self.offsets[-1], _ATOM_CHUNK)
        cuts = np.concatenate([[0], np.searchsorted(self.offsets, targets), [n]])
        cuts = cuts[np.r_[True, cuts[1:] != cuts[:-1]]]  # np.unique would import numpy.ma
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            a, b = self.offsets[lo], self.offsets[hi]
            yield _json_text(self.locations[a:b], self.multiplicities[a:b],
                             (self.offsets[lo:hi + 1] - a).tolist())

    @classmethod
    def batches_from_json_lines(cls, lines, carrier: str, mapped=lambda batch: batch):
        """Parse measure lines into measures on `carrier`, passed through
        `mapped` in batches of up to 4096 lines, taken from `lines` as needed.

        A line is a JSON object with the single key "atoms", a list of
        [location, multiplicity] pairs: a location is a JSON number (not a
        boolean), finite and, on the scale carrier, nonzero; a multiplicity
        is a JSON integer (not a boolean, not 2.0) from 1 to 2**63 - 1.
        Blank lines carry no measure and are skipped. A batch whose lines all
        read as the writer emits them is read by one numeric scan, any other
        batch by json, to the same measures and errors. A batch that fails to
        parse or to map is retried line by line, and a ConfigError names the
        first line that fails either by its 1-based position in `lines`.
        """
        _carrier(carrier)
        numbered = ((k, line) for k, line in enumerate(lines, 1) if line.strip())
        while chunk := list(itertools.islice(numbered, _LINE_CHUNK)):
            try:
                batch = mapped(cls._from_lines([line for _, line in chunk], carrier))
            except (ConfigError, DomainError, RangeError):
                for k, line in chunk:
                    try:
                        mapped(cls._from_lines([line], carrier))
                    except (ConfigError, DomainError, RangeError) as exc:
                        raise ConfigError(f"line {k}: {exc}") from exc
                raise
            del chunk  # the raw lines go before the caller holds the batch
            yield batch

    @classmethod
    def _from_lines(cls, lines, carrier: str) -> "MeasureBatch":
        scanned = _scanned_atoms(lines)
        locs, mults, counts = scanned if scanned is not None else _decoded_lines(lines)
        return cls(carrier, locs, mults, np.repeat(np.arange(len(counts)), counts), len(counts))


class _BaseTestFunction:
    __slots__ = ("knots_x", "knots_v", "support_bounds", "carrier")
    __test__ = False  # not a pytest collection target

    def __init__(self, knots, carrier: str = "scale"):
        cr = _carrier(carrier)
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
        if np.any((lo <= cr.floor) & (hi >= cr.floor)):
            raise DomainError(
                f"test functions on the {cr.name} carrier must vanish near the origin")
        ends = cr.norm(np.concatenate([lo, hi]))
        xs.flags.writeable = False
        vs.flags.writeable = False
        object.__setattr__(self, "knots_x", xs)
        object.__setattr__(self, "knots_v", vs)
        object.__setattr__(self, "support_bounds",
                           (float(ends.min(initial=math.inf)), float(ends.max(initial=cr.floor))))
        object.__setattr__(self, "carrier", cr.name)

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
    """Nonnegative piecewise-linear function on one carrier, 0 outside its knots.

    On the scale carrier it vanishes on a neighbourhood of the origin (a
    nonzero piece may not touch 0) and outside a finite radius; on the shift
    carrier it has compact support on the line. ``support_bounds`` is the
    (smallest, largest) carrier norm, |x| or x, over the end points of the
    pieces where f is not 0: the (inner, outer) radius on the scale carrier.
    The zero function has (inf, floor): (inf, 0) or (inf, -inf).
    """

    __slots__ = ()


def integrate(m, f) -> float:
    """Integral of f against the counting measure, sum of mult * f(location)."""
    if f.carrier != m.carrier:
        raise DomainError(f"expected a {m.carrier}-carrier test function")
    if not m.locations.size:
        return 0.0
    return float(np.dot(m.multiplicities.astype(np.float64), f.eval(m.locations)))


# -- shaped constructors ------------------------------------------------------

def tent(left: float, peak: float, right: float, height: float = 1.0,
         carrier: str = "scale") -> TestFunction:
    """Triangle on `carrier` with value `height` at `peak`, zero at `left` and `right`."""
    return TestFunction([(left, 0.0), (peak, height), (right, 0.0)], carrier)


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
    level * 1_{|x| > edge}; at a large level this stands for inf * 1_{|x| > edge},
    and the mean of exp(-integral) against it approximates the probability that
    no atom exceeds modulus `edge`, with bias at most e^{-level} plus the ramp
    and outer-cutoff mass.

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


def shift_indicator_approx(level: float, edge: float, outer: float,
                           ramp: float = 1e-6) -> TestFunction:
    """Continuous approximation to level * 1_{(edge, inf)} on the shift carrier.

    Ramp widths here are absolute (the carrier is additive).
    """
    if not (outer > edge + ramp and ramp > 0.0 and level > 0.0):
        raise DomainError("shift indicator approximation requires edge + ramp < outer, ramp > 0, level > 0")
    return TestFunction(
        [(edge, 0.0), (edge + ramp, level), (outer, level), (outer + ramp, 0.0)], "shift")
