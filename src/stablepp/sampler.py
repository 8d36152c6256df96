"""Exact sampling of scale- and shift-decorated Poisson point processes.

The scale-family construction superposes independent decoration copies, each
dilated by a point of a Poisson process on (0, inf) whose intensity has tail
mass x^-alpha. Restricted to a window {|x| > eps}, the infinite series is
sampled exactly: a dilation point lambda can place an atom in the window only
if lambda * bound * scale > eps, with bound the largest atom modulus that the
decoration law's support allows, so truncating the dilation process at
eta = eps / (bound * scale) loses nothing. The truncated process has
Poisson(eta^-alpha) many points, each distributed as eta * X with X a standard
Pareto(alpha) variable (inverse CDF: X = U^{-1/alpha}).

Shift families are the log dictionary image of the same construction: Poisson
positions u0 + Exponential(c) with count Poisson(e^{-c*u0} / c), and decoration
copies translated rather than dilated. In the log coordinate v (s = e^v on the
scale carrier, t = v on the shift carrier) both dilation processes have
intensity rho e^{-rate v} dv, with rho = alpha on the scale side and 1 on the
shift side, so the shift side's tail mass carries the factor rho / rate = 1/c
and its sampled intensity is exactly e^{-c x} dx; the dictionary's
normalization shift (``transform.normalization_shift``) is that factor seen as
a translation.

What differs between the two worlds (point action, chart, intensity, the
name of the Gaussian global law) lives in one ``point_measure.Carrier`` value
per coordinate system, SCALE and SHIFT; measures, test functions, global laws
and decorations name theirs in a ``carrier`` field. The Poisson means,
dilation points, tail weights and quantiles are written once on
``Carrier``, in v, and so is every other piece of code shared
by both worlds, the block sampler included. A block draws from its one Philox
stream in the same order on both carriers: the global law's values, the
Poisson counts, one uniform per dilation point, then the decoration copies.
The carrier supplies only its chart, its point action and the norm that the
decoration bound caps and the window keeps.

Determinism contract: campaigns partition replicas into fixed blocks of
``BLOCK_SIZE`` and give each block its own Philox stream, vectorizing inside
the block. Block boundaries and assembly order never depend on the thread
count, so campaign results are bit-identical for any ``threads`` value.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice

import numpy as np

from .errors import ConfigError, DomainError, RangeError
from .point_measure import CARRIERS, SCALE, SHIFT, Carrier, MeasureBatch, PointMeasure, _carrier
from .rng import ROLE_BLOCK, derive_key

__all__ = [
    "LocationLaw",
    "CountLaw",
    "DecorationSpec",
    "GlobalLaw",
    "ProcessSpec",
    "BLOCK_SIZE",
    "MEAN_CAP",
    "process_spec_from_config",
    "FlatCampaign",
    "ProcessSource",
    "SuperposeSource",
    "run_campaign",
    "campaign_stats",
    "maxmod_samples",
    "resolve_threads",
]

BLOCK_SIZE = 4096

# Hard per-replica cap on the truncated-series Poisson mean. A window that
# implies more work than this is almost certainly a configuration mistake and
# would otherwise exhaust memory.
MEAN_CAP = 1.0e6

MAX_REPS = 10**8  # replicas of one campaign: a float64 each stays under 800 MB

# A campaign is rejected before any block is drawn when it expects more than
# this many replicas whose Poisson mean passes MEAN_CAP, so that whether a run
# fails depends on the spec and the replica count, not on the seed.
CAP_EPS = 1e-9

_HERMGAUSS_N = 96


def _as_prob_vector(probs, count: int, what: str) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.shape != (count,):
        raise DomainError(f"{what} probabilities must match the value count")
    if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
        raise DomainError(f"{what} probabilities must be finite and > 0")
    s = p.sum()
    if abs(s - 1.0) > 1e-9:
        raise DomainError(f"{what} probabilities must sum to 1")
    return p / s


_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(_HERMGAUSS_N)


@dataclass(frozen=True)
class _Law:
    """Law of one random number, the body of every law in a spec.

    A subclass sets the ``name`` its error texts use and its ``kinds`` (kind ->
    the fields it reads), which validation, the config reader,
    ``to_config_dict``, ``sample`` and ``bounds`` follow, and adds at most one
    extra rule, ``_rule``. Every number a kind reads is finite. The Gaussian
    kind draws N(mu, sigma) mapped through ``_coord``.
    """

    kind: str
    value: float | None = None
    low: float | None = None
    high: float | None = None
    mu: float | None = None
    sigma: float | None = None
    values: tuple = ()
    probs: tuple = ()

    _dtype = np.float64  # of the table's values
    _coord = staticmethod(lambda v: v)

    def __post_init__(self):
        if self.kind not in self.kinds:
            raise DomainError(f"unknown {self.name} law kind: {self.kind!r}")
        numbers = [f for f in self.kinds[self.kind] if f != "probs"]
        if self.kind == "table" and not self.values:
            raise DomainError(f"table {self.name} law requires values")
        for f in numbers:
            got = getattr(self, f)
            if any(x is None or not math.isfinite(x) for x in (got if f == "values" else (got,))):
                raise DomainError(f"the {' and '.join(numbers)} of a {self.kind} "
                                  f"{self.name} law must be finite")
        if self.kind == "uniform" and not self.low < self.high:
            raise DomainError(f"uniform {self.name} law requires low < high")
        if "sigma" in numbers and not self.sigma > 0.0:
            raise DomainError(f"{self.kind} {self.name} law requires sigma > 0")
        if self.kind == "table":
            self._table  # validates probs once and caches the arrays
        self._rule()

    def _rule(self):
        """The subclass's extra rule; raise DomainError when it is broken."""

    @cached_property
    def _table(self):
        v = np.asarray(self.values, dtype=self._dtype)
        return v, _as_prob_vector(self.probs, len(self.values), self.name)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws; the deterministic kind consumes no stream state."""
        if self.kind == "deterministic":
            return np.full(n, self.value)
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, n)
        if self.kind == "table":
            v, p = self._table
            return v[rng.choice(v.size, size=n, p=p)]
        return self._coord(rng.normal(self.mu, self.sigma, n))

    def bounds(self) -> tuple:
        """The smallest and largest value the law can take (closure of its support)."""
        if self.kind == "deterministic":
            lo = hi = self.value
        elif self.kind == "uniform":
            lo, hi = self.low, self.high
        elif self.kind == "table":
            v = self._table[0]
            lo, hi = v.min(), v.max()
        else:
            lo, hi = self._coord(-math.inf), self._coord(math.inf)
        return float(lo), float(hi)

    def to_config_dict(self):
        d = {"kind": self.kind}
        for f in self.kinds[self.kind]:
            v = getattr(self, f)
            d[f] = list(v) if isinstance(v, tuple) else v
        return d


class LocationLaw(_Law):
    """Law of one random decoration atom location: "uniform" (low/high) or
    "table"; on the scale carrier no table value may be 0 and the bounds of
    a uniform law must have one sign."""

    name = "location"
    kinds = {"uniform": ("low", "high"), "table": ("values", "probs")}


class CountLaw(_Law):
    """Law of the atom count of one random_atoms decoration copy: a table on
    integers >= 1, drawn as int64."""

    name = "count"
    kinds = {"table": ("values", "probs")}
    _dtype = np.int64

    def _rule(self):
        counts = tuple(int(k) for k in self.values)
        if counts != self.values or min(counts) < 1:
            raise DomainError("count law values must be integers >= 1")
        object.__setattr__(self, "values", counts)


def _count_law(count_probs) -> CountLaw:
    """The CountLaw of (count, probability) pairs."""
    pairs = tuple(count_probs)
    return CountLaw(kind="table", values=tuple(k for k, _ in pairs),
                    probs=tuple(float(p) for _, p in pairs))


def _weighted_sum(weights: np.ndarray, values: np.ndarray):
    """sum_k weights[k] * values[k], added in node order for every column of a
    (k, n) ``values``, so a column's value does not depend on its position."""
    terms = weights.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    return np.cumsum(terms, axis=0)[-1]


def _global_kinds(carrier: str) -> dict:
    """The kinds of a global law on `carrier` and the fields each reads."""
    return {"deterministic": ("value",), _carrier(carrier).gaussian: ("mu", "sigma"),
            "table": ("values", "probs")}


@dataclass(frozen=True)
class GlobalLaw(_Law):
    """Law of the global random dilation W > 0 (``carrier="scale"``) or
    translation U (``carrier="shift"``).

    kinds: "deterministic", "table" and the carrier's Gaussian kind, whose log
    coordinate is N(mu, sigma): "lognormal" (mu/sigma of log W) or "normal".
    The log dictionary carries lognormal(mu, sigma) to normal(mu, sigma) and
    back. Every value has a log coordinate (W > 0 on the scale carrier).
    """

    carrier: str = "scale"

    name = property(lambda self: self.carrier)
    kinds = property(lambda self: _global_kinds(self.carrier))
    _coord = property(lambda self: CARRIERS[self.carrier].from_log)

    @classmethod
    def deterministic(cls, value: float, carrier: str = "scale") -> "GlobalLaw":
        return cls(kind="deterministic", value=float(value), carrier=carrier)

    @classmethod
    def table(cls, values, probs, carrier: str = "scale") -> "GlobalLaw":
        return cls(kind="table", values=tuple(float(v) for v in values),
                   probs=tuple(float(p) for p in probs), carrier=carrier)

    def _rule(self):
        cr = CARRIERS[self.carrier]
        if self.kind != cr.gaussian and not cr.has_log(self.bounds()[0]):
            raise DomainError(f"{cr.name} law values must be > {cr.floor:g}")

    def expect(self, h):
        """E[h(value)] for vectorized h; Gauss-Hermite for the Gaussian kind.

        h maps the law's k nodes, a (k,) array, to k values (the result is a
        float) or to a (k, n) array (the result is n expectations at once).
        """
        if self.kind == "deterministic":
            out = h(np.asarray([self.value]))[0]
        elif self.kind == "table":
            v, p = self._table
            out = _weighted_sum(p, h(v))
        else:
            x = self._coord(self.mu + self.sigma * math.sqrt(2.0) * _GH_NODES)
            out = _weighted_sum(_GH_WEIGHTS, h(x)) / math.sqrt(math.pi)
        return float(out) if np.ndim(out) == 0 else out


def effective_law(carrier: str, law: GlobalLaw | None) -> GlobalLaw:
    """`law`, or the global law on `carrier` that acts trivially when it is None."""
    return GlobalLaw.deterministic(CARRIERS[carrier].identity, carrier) if law is None else law


@dataclass(frozen=True)
class DecorationSpec:
    """Law of one decoration copy.

    kinds
    -----
    "dirac": a single deterministic counting measure.
    "table": a finite mixture of deterministic counting measures.
    "random_atoms": a random number of i.i.d. atoms, their count drawn from
        ``count`` and each location from ``location``, a bounded law (bounded
        away from 0 on the scale carrier).

    ``bound``, the largest norm an atom can carry, is derived from the law's
    support and drives the truncation threshold.
    """

    kind: str
    carrier: str = "scale"
    atoms: tuple = ()
    entries: tuple = ()
    count: CountLaw | None = None
    location: LocationLaw | None = None

    def __post_init__(self):
        _carrier(self.carrier)
        if self.kind == "dirac":
            object.__setattr__(self, "atoms", self._realization(self.atoms))
        elif self.kind == "table":
            if not self.entries:
                raise DomainError("table decoration requires entries")
            ents = tuple((self._realization(atoms), float(prob)) for atoms, prob in self.entries)
            object.__setattr__(self, "entries", ents)
            _as_prob_vector([p for _, p in ents], len(ents), "table entry")
        elif self.kind == "random_atoms":
            for law, cls in ((self.count, CountLaw), (self.location, LocationLaw)):
                if not isinstance(law, cls):
                    raise DomainError(f"random_atoms decoration requires a {cls.name} law")
            cr, loc = CARRIERS[self.carrier], self.location
            if loc.kind == "table":
                valid = cr.has_log(cr.norm(loc._table[0])).all()
            else:
                valid = cr is SHIFT or loc.low > 0.0 or loc.high < 0.0
            if not valid:
                raise DomainError("location law on the scale carrier must exclude 0")
        else:
            raise DomainError(f"unknown decoration kind: {self.kind!r}")

    def _realization(self, atoms) -> tuple:
        """The (location, multiplicity) pairs of one realization, in the given
        order, checked by building them as a measure on the carrier."""
        atoms = tuple(atoms)
        if not PointMeasure.from_atoms(atoms, self.carrier).n_atoms:
            raise DomainError("a decoration realization needs at least one atom")
        return tuple((float(loc), int(mult)) for loc, mult in atoms)

    # -- convenience constructors -------------------------------------------

    @classmethod
    def dirac(cls, atoms, carrier: str = "scale") -> "DecorationSpec":
        return cls(kind="dirac", carrier=carrier, atoms=tuple(atoms))

    @classmethod
    def table_from_measures(cls, measures, probs=None) -> "DecorationSpec":
        """The table decoration drawing measures[i] with probability probs[i]
        (uniform by default), on the carrier the measures share."""
        measures = list(measures)
        if not all(isinstance(m, PointMeasure) for m in measures):
            raise DomainError("table decoration entries must be point measures")
        carriers = {m.carrier for m in measures}
        if len(carriers) > 1:
            raise DomainError("table decoration measures must all live on one carrier")
        if probs is None:
            probs = [1.0 / len(measures)] * len(measures) if measures else []
        probs = list(probs)
        if len(probs) != len(measures):
            raise DomainError(f"table decoration needs one probability per measure: "
                              f"{len(probs)} for {len(measures)}")
        entries = tuple((tuple(m.atoms()), float(p)) for m, p in zip(measures, probs))
        return cls(kind="table", carrier=carriers.pop() if carriers else "scale", entries=entries)

    @classmethod
    def random_atoms(cls, count_probs, location: LocationLaw,
                     carrier: str = "scale") -> "DecorationSpec":
        return cls(kind="random_atoms", carrier=carrier, count=_count_law(count_probs),
                   location=location)

    # -- views shared by every kind --------------------------------------------

    @property
    def _mixture(self) -> tuple:
        """The (atoms, probability) entries of a dirac or table decoration; a
        dirac decoration is the one-entry mixture. Empty for random_atoms."""
        return ((self.atoms, 1.0),) if self.kind == "dirac" else self.entries

    @cached_property
    def _norms(self) -> tuple:
        """The carrier norm (|x| or x) of every atom location a copy can carry.
        A uniform location law contributes its two endpoints, where the norm of
        its locations is extreme, so min and max over this view are a.s. bounds."""
        norm = CARRIERS[self.carrier].norm
        if self.kind != "random_atoms":
            return tuple(norm(a) for atoms, _ in self._mixture for a, _ in atoms)
        if self.location.kind == "table":
            return tuple(map(norm, self.location.values))
        return tuple(map(norm, self.location.bounds()))

    @property
    def bound(self) -> float:
        """A.s. bound on maxmod (scale) or on the largest atom (shift)."""
        return max(self._norms)

    # -- cached sampling tables ----------------------------------------------

    @cached_property
    def _mixture_arrays(self):
        mix = self._mixture
        probs = _as_prob_vector([p for _, p in mix], len(mix), "table entry")
        locs = np.concatenate(
            [np.asarray([a for a, _ in atoms], dtype=np.float64) for atoms, _ in mix])
        w = np.concatenate([np.asarray([m for _, m in atoms], dtype=np.int64) for atoms, _ in mix])
        natoms = np.asarray([len(atoms) for atoms, _ in mix], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(natoms)])
        return probs, locs, w, natoms, offsets

    def sample_atoms_block(self, rng: np.random.Generator, n_copies: int):
        """Atoms for ``n_copies`` i.i.d. decoration realizations.

        Returns (counts, locations, weights): the number of atoms of each
        copy, at least 1, and the flat atoms, copy 0's first. counts is an int
        for dirac, where every copy carries the same atoms, and an int64 array
        of n_copies for table and random_atoms; ``np.repeat(np.arange(n_copies),
        counts)`` is each atom's copy. Weight = multiplicity; repeated sampled
        locations are left unmerged here (merging is a representation concern,
        not a law one).
        """
        if self.kind == "dirac":  # one entry, drawn without touching the stream
            _, locs, w, _, _ = self._mixture_arrays
            return locs.size, np.tile(locs, n_copies), np.tile(w, n_copies)
        if self.kind == "table":
            probs, locs, w, natoms, offsets = self._mixture_arrays
            entry = rng.choice(natoms.size, size=n_copies, p=probs)
            counts = natoms[entry]
            flat = _ragged_gather(offsets[entry], counts)
            return counts, locs[flat], w[flat]
        counts = self.count.sample(rng, n_copies)
        locs = self.location.sample(rng, int(counts.sum()))
        return counts, locs, np.ones(locs.size, dtype=np.int64)

    def to_config_dict(self):
        if self.kind == "dirac":
            return {"kind": "dirac", "atoms": [[a, m] for a, m in self.atoms]}
        if self.kind == "table":
            return {
                "kind": "table",
                "entries": [
                    {"atoms": [[a, m] for a, m in atoms], "prob": p} for atoms, p in self.entries
                ],
            }
        return {
            "kind": "random_atoms",
            "count_probs": [[k, p] for k, p in zip(self.count.values, self.count.probs)],
            "location": self.location.to_config_dict(),
        }


def _ragged_gather(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Indices [s0, s0+1, .., s0+c0-1, s1, ...] for ragged row gathering."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    heads = np.concatenate([[0], np.cumsum(counts)[:-1]])
    out[heads] = starts
    nonfirst = heads[1:]
    out[nonfirst] += 1 - (starts[:-1] + counts[:-1])
    return np.cumsum(out)


@dataclass(frozen=True)
class ProcessSpec:
    """Full description of one process law plus its observation window.

    family: "scdppp" | "sscdppp" (scale carrier, `alpha` is the tail index,
    `window` is the modulus radius eps > 0) or "dppp" | "sdppp" (shift
    carrier, `alpha` is the exponential rate c, `window` is the lower cutoff
    L, any real). `law` is the global dilation or translation, a GlobalLaw on
    the family's carrier, of the decorated family, None for the plain one.
    """

    family: str
    alpha: float
    decoration: DecorationSpec
    window: float
    law: GlobalLaw | None = None

    def __post_init__(self):
        cr = _family_carrier(self.family)
        if cr is None:
            raise DomainError(f"unknown family: {self.family!r}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError("the tail index / rate must be finite and > 0")
        if not math.isfinite(self.window):
            raise DomainError("window must be finite")
        if self.is_scale_family and not self.window > 0.0:
            raise DomainError("scale-family window radius must be > 0")
        if self.decoration.carrier != cr.name:
            raise DomainError(f"{cr.name} families need a {cr.name}-carrier decoration")
        plain, decorated = cr.families
        if self.family == decorated and self.law is None:
            raise DomainError(f"{decorated} requires a {cr.name} law")
        if self.family == plain and self.law is not None:
            raise DomainError(f"{plain} takes no {cr.name} law; use {decorated}")
        if self.law is not None and (not isinstance(self.law, GlobalLaw)
                                     or self.law.carrier != cr.name):
            raise DomainError(f"{cr.name} families take a {cr.name}-carrier GlobalLaw")

    @property
    def is_scale_family(self) -> bool:
        return self.family in SCALE.families

    @property
    def carrier(self) -> str:
        return _family_carrier(self.family).name

    def effective_law(self):
        """The global dilation (scale) or translation (shift) law; the identity when absent."""
        return effective_law(self.carrier, self.law)

    def with_window(self, window: float) -> "ProcessSpec":
        return ProcessSpec(self.family, self.alpha, self.decoration, float(window), self.law)

    def to_config_dict(self):
        cr = _family_carrier(self.family)
        d = {"family": self.family, "decoration": self.decoration.to_config_dict(),
             "window": self.window, cr.rate_key: self.alpha}
        if self.law is not None:
            d[cr.name] = self.law.to_config_dict()
        return d

    def spec_hash(self) -> str:
        doc = json.dumps(self.to_config_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()


# -- config parsing (strict, fail closed) -------------------------------------
#
# `config_fields` reads every config object, from a process to a CLI command
# config. READ is keyed by field name: a name means the same in every object.

def _scalar(types, cast, name: str):
    """Reader of one JSON scalar of `types`; true/false count only as booleans."""
    def read(v, what: str):
        if not isinstance(v, types) or (isinstance(v, bool) and types is not bool):
            raise ConfigError(f"{what} must be {name}")
        try:
            return cast(v)
        except OverflowError:
            raise ConfigError(f"{what} is out of range") from None
    return read


_number = _scalar(numbers.Real, float, "a number")
_integer = _scalar(numbers.Integral, lambda v: int(np.int64(v)), "an integer")
_string = _scalar(str, str, "a string")
_boolean = _scalar(bool, bool, "true or false")
_object = _scalar(dict, dict, "a JSON object")


def _list_of(read):
    """Reader of a non-empty list whose items `read` reads, as a tuple."""
    def read_list(v, what: str):
        if not isinstance(v, (list, tuple)) or not v:
            raise ConfigError(f"{what} must be a non-empty list")
        return tuple(read(x, f"{what}[{i}]") for i, x in enumerate(v))
    return read_list


def _pair_of(first, second):
    """Reader of a two-element list, `first` and `second` reading its items."""
    def read_pair(v, what: str):
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise ConfigError(f"{what} must be a pair")
        return first(v[0], f"{what}[0]"), second(v[1], f"{what}[1]")
    return read_pair


def _id(v, what: str) -> str:
    fid = _string(v, what)
    if not fid or not all(ch.isalnum() or ch in "_.-" for ch in fid):
        raise ConfigError(f"{what} must be made of letters, digits, _ . -")
    return fid


def config_fields(doc, what: str, required=(), optional=()) -> dict:
    """The fields of config object `doc`, each read through READ.

    Rejects a non-object, a missing required field and an unknown field; a
    null value reads as an absent field.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    present = {k: v for k, v in doc.items() if v is not None}
    missing = [k for k in required if k not in present]
    if missing:
        raise ConfigError(f"{what} is missing field(s): {missing}")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{what} has unknown field(s): {unknown}")
    return {k: _read(k, v, f"{what}.{k}") for k, v in present.items()}


def kind_fields(doc, what: str, kinds: dict, key: str = "kind", required=(), optional=()) -> dict:
    """`config_fields` with field lists picked by doc[key]: `kinds` maps each
    allowed value to the (required, optional) fields it adds to the common ones."""
    kind = doc.get(key) if isinstance(doc, dict) else None
    if isinstance(kind, str) and kind in kinds:
        required, optional = (*required, *kinds[kind][0]), (*optional, *kinds[kind][1])
    elif kind is not None:
        raise ConfigError(f"{what}.{key} must be one of {sorted(kinds)}, not {kind!r}")
    return config_fields(doc, what, (key, *required), optional)


def _law(make, kinds: dict):
    """Reader of a config of a law that `make` builds: the fields of its kinds,
    all required."""
    kinds = {kind: (fields, ()) for kind, fields in kinds.items()}
    return lambda doc, what: make(**kind_fields(doc, what, kinds))


_DECORATIONS = {"dirac": (("atoms",), ()), "table": (("entries",), ()),
                "random_atoms": (("count_probs", "location"), ())}
_FAMILIES = {"scdppp": (("alpha",), ()), "sscdppp": (("alpha", "scale"), ()),
             "dppp": (("c",), ()), "sdppp": (("c", "shift"), ())}


def _entry(doc, what: str) -> tuple:
    fields = config_fields(doc, what, ("atoms", "prob"))
    return fields["atoms"], fields["prob"]


def _decoration(doc, what: str) -> dict:
    """The DecorationSpec arguments of a decoration config, all but the carrier."""
    fields = kind_fields(doc, what, _DECORATIONS)
    if "count_probs" in fields:
        fields["count"] = fields.pop("count_probs")
    return fields


def _process(doc, what: str) -> ProcessSpec:
    fields = kind_fields(doc, what, _FAMILIES, key="family", required=("decoration", "window"))
    cr = _family_carrier(fields["family"])
    return ProcessSpec(fields["family"], fields[cr.rate_key],
                       DecorationSpec(carrier=cr.name, **fields["decoration"]), fields["window"],
                       fields.get(cr.name))


READ = {
    **dict.fromkeys(("schema", "family", "kind", "direction", "input"), _string),
    **dict.fromkeys(("alpha", "c", "window", "prob", "low", "high", "value", "mu", "sigma",
                     "left", "peak", "right", "height", "level", "edge", "outer", "ramp",
                     "b1", "b2", "rhs_scale_factor", "threshold", "inner_radius"), _number),
    "n_accepted": _integer,
    **dict.fromkeys(("values", "probs", "points"), _list_of(_number)),
    "atoms": _list_of(_pair_of(_number, _integer)),
    "count_probs": lambda v, what: _count_law(_list_of(_pair_of(_integer, _number))(v, what)),
    "knots": _list_of(_pair_of(_number, _number)),
    "symmetric": _boolean,
    "id": _id,
    "battery": lambda v, what: v if v == "default" else _list_of(_object)(v, what),
    "entries": _list_of(_entry),
    "location": _law(LocationLaw, LocationLaw.kinds),
    **{name: _law(partial(GlobalLaw, carrier=name), _global_kinds(name)) for name in CARRIERS},
    "decoration": _decoration,
    "process": _process,
}


def _read(key: str, value, what: str):
    """READ[key] applied to `value`; the one place where a DomainError raised
    by the object a field builds becomes a ConfigError."""
    try:
        return READ[key](value, what)
    except DomainError as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def process_spec_from_config(doc) -> ProcessSpec:
    """Parse a process config object; unknown fields are rejected."""
    return _read("process", doc, "process")


def _family_carrier(family):
    """The carrier of a process family, None for an unknown family."""
    return next((cr for cr in CARRIERS.values() if family in cr.families), None)


# -- core block sampling -------------------------------------------------------

def _block(cr: Carrier, spec: ProcessSpec, key: np.ndarray, size: int):
    """One vectorized block of replicas, exact on the spec's window {norm(x) > window}.

    One Philox stream, drawn in one order on both carriers: the global law's
    values, the Poisson counts, one uniform per dilation point, the decoration
    copies.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    bound, window = spec.decoration.bound, spec.window
    with np.errstate(over="ignore", divide="ignore"):
        mean = cr.block_mean(spec.alpha, spec.effective_law().sample(rng, size),
                             window, bound)
    top = float(np.max(mean)) if mean.size else 0.0
    # the residual guard behind the campaign's check_cap
    if not math.isfinite(top) or top > MEAN_CAP:
        raise RangeError(
            f"truncated-series Poisson mean {top:.3g} exceeds the cap {MEAN_CAP:.0e} "
            f"({cr.window_word} {window!r} too aggressive for this spec)"
        )
    counts = rng.poisson(mean)
    total = int(counts.sum())
    rep = np.repeat(np.arange(size, dtype=np.int64), counts)
    locs = cr.block_start(spec.alpha, window, bound, rng.random(total))
    n_atoms, dloc, dw = spec.decoration.sample_atoms_block(rng, total)
    if dloc.size != total:  # every copy has an atom, so equal sizes mean one each
        locs, rep = np.repeat(locs, n_atoms), np.repeat(rep, n_atoms)
    locs = cr.act(locs, dloc)  # each point acting on its copy's atoms
    keep = cr.norm(locs) > window
    if not keep.all():
        locs, rep, dw = locs[keep], rep[keep], dw[keep]
    return locs, rep, dw


# -- campaigns -------------------------------------------------------------------

@dataclass(frozen=True)
class FlatCampaign:
    """Replicated samples in flat arrays: one row per atom, replica ascending.

    A whole campaign (``run_campaign``) or one block of it, replicas
    0..size-1 (what a ``campaign_stats`` reducer receives); the per-replica
    statistics below read only the atoms they are given, so a block's
    statistics are the whole campaign's columns for that block.
    ``weights`` holds the atoms' int64 multiplicities. ``window`` records
    the exactness region the campaign was drawn on: the modulus radius
    (scale carrier) or lower cutoff (shift carrier).
    """

    locations: np.ndarray
    replica: np.ndarray
    weights: np.ndarray
    n_reps: int
    carrier: str
    window: float

    def laplace_integrals(self, pairs) -> np.ndarray:
        """Per-replica integrals of the translated/dilated test function of
        each (f, y) pair, one row per pair, in order.

        Scale carrier: integral of x -> f(x / y); shift carrier: integral of
        x -> f(x - y). The pulled-back atoms z = inverse(y, x) and their norms
        are computed once per point, for every function at that point.

        f is evaluated only at the atoms whose z has its norm in
        ``f.support_bounds``, kept in their order, so the cost follows the
        atoms f can see. Every other atom would add an exact 0 to a sum of
        nonnegative terms, so each replica's sum keeps the bits of the sum
        over all of its atoms. The mask is taken on z itself, the coordinate f
        is evaluated in, so no rounding of y acting on a support edge can
        leave an atom where f is not 0 out of the slice.

        The slice is cut once per distinct ``support_bounds`` at a point, for
        every function that shares them, and all-one weights are not
        multiplied in.
        """
        cr = CARRIERS[self.carrier]
        rows = np.empty((len(pairs), self.n_reps))
        at = {}
        for i, (f, y) in enumerate(pairs):
            at.setdefault(y, {}).setdefault(f.support_bounds, []).append(i)
        weights = None if (self.weights == 1).all() else self.weights
        for y, by_support in at.items():
            z = cr.inverse(y, self.locations)
            size = cr.norm(z)
            for (lo, hi), rows_at in by_support.items():
                seen = np.flatnonzero((size >= lo) & (size <= hi))
                zs, rep = z[seen], self.replica[seen]
                w = None if weights is None else weights[seen]
                for i in rows_at:
                    vals = pairs[i][0].eval(zs)
                    if w is not None:
                        vals *= w
                    rows[i] = np.bincount(rep, weights=vals, minlength=self.n_reps)
            del z, size  # one point's arrays at a time
        return rows

    def maxmods(self) -> np.ndarray:
        """Per-replica largest atom modulus (scale carrier); 0 for empty replicas."""
        return self._extremes(SCALE)

    def max_locations(self) -> np.ndarray:
        """Per-replica largest atom (shift carrier); -inf for empty replicas."""
        return self._extremes(SHIFT)

    def _extremes(self, cr: Carrier) -> np.ndarray:
        """Per-replica largest norm of an atom on carrier ``cr``; the norm of the
        empty replica, cr.floor, is 0 (scale) or -inf (shift)."""
        out = np.full(self.n_reps, cr.floor)
        np.maximum.at(out, self.replica, cr.norm(self.locations))
        return out

    def counts(self) -> np.ndarray:
        return np.bincount(self.replica, minlength=self.n_reps)

    def measures(self) -> MeasureBatch:
        """Every replica as one canonical batch of measures."""
        return MeasureBatch(self.carrier, self.locations, self.weights, self.replica, self.n_reps)

    def replica_measure(self, r: int):
        lo = np.searchsorted(self.replica, r, side="left")
        hi = np.searchsorted(self.replica, r, side="right")
        return PointMeasure(self.locations[lo:hi], self.weights[lo:hi], self.carrier)


class ProcessSource:
    """Campaign source drawing replicas of one spec on the spec's window."""

    def __init__(self, spec: ProcessSpec):
        self.spec = spec
        self.carrier = spec.carrier

    window = property(lambda self: self.spec.window)

    def check_cap(self, n_reps: int) -> None:
        """Raise RangeError when n_reps replicas expect more than CAP_EPS block
        means above MEAN_CAP: exact for the finite global laws, the normal tail
        of v_W beyond the v_cap where block_mean = MEAN_CAP for the Gaussian ones."""
        cr, spec, window = CARRIERS[self.carrier], self.spec, self.window
        rate, bound, law = spec.alpha, spec.decoration.bound, spec.effective_law()
        if law.kind == cr.gaussian:
            v_cap = (cr.to_log(window) - cr.to_log(bound)
                     + math.log(MEAN_CAP * (rate / cr.intensity(rate))) / rate)
            p = 0.5 * math.erfc((v_cap - law.mu) / (law.sigma * math.sqrt(2.0)))
        else:
            with np.errstate(over="ignore", divide="ignore"):
                p = law.expect(lambda w: ~(cr.block_mean(rate, w, window, bound) <= MEAN_CAP))
        if n_reps * p > CAP_EPS:
            fields = ", ".join(f"{k} {v}" for k, v in law.to_config_dict().items() if k != "kind")
            raise RangeError(
                f"truncated-series Poisson mean exceeds the cap {MEAN_CAP:.0e} in {n_reps * p:.3g} "
                f"of {n_reps} replicas on average under the {law.kind} {law.name} law ({fields}); "
                f"{cr.window_word} {window!r} is too aggressive for this spec")

    def sample_block(self, master_seed: int, path: tuple, size: int):
        key = derive_key(master_seed, ROLE_BLOCK, *path)
        return _block(CARRIERS[self.carrier], self.spec, key, size)


class SuperposeSource:
    """Independent superposition of sources sharing a carrier and window."""

    def __init__(self, *children):
        if not children:
            raise DomainError("superposition needs at least one source")
        self.children = children
        self.carrier = children[0].carrier
        for ch in children[1:]:
            if ch.carrier != self.carrier:
                raise DomainError("superposed sources must share a carrier")
            if ch.window != children[0].window:
                raise DomainError("superposed sources must share the observation window")
        self.window = children[0].window

    def check_cap(self, n_reps: int) -> None:
        for ch in self.children:
            ch.check_cap(n_reps)

    def sample_block(self, master_seed, path, size):
        """The children's blocks, concatenated and stable-sorted by replica."""
        parts = [ch.sample_block(master_seed, path + (i,), size)
                 for i, ch in enumerate(self.children)]
        locs, rep, w = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(rep, kind="stable")
        return locs[order], rep[order], w[order]


def resolve_threads(threads: int | None) -> int:
    """Explicit value, else the STABLEPP_THREADS env var, else 1."""
    if threads is None:
        raw = os.environ.get("STABLEPP_THREADS", "")
        try:
            threads = int(raw) if raw.strip() else 1
        except ValueError:
            raise DomainError(f"STABLEPP_THREADS must be an integer, got {raw!r}") from None
    threads = int(threads)
    if threads < 1:
        raise DomainError("threads must be >= 1")
    return threads


def _blocks(source, master_seed: int, n_reps: int, fn, threads, role: tuple):
    """Yield ``fn(block)`` for every block of a campaign of ``n_reps`` replicas, in block order.

    Replicas are partitioned into fixed blocks of BLOCK_SIZE; block b uses the
    stream keyed by (master_seed, ROLE_BLOCK, *role, b) and reaches ``fn`` as a
    FlatCampaign of its own replicas 0..size-1, once the source's cap check
    has passed (``ProcessSource.check_cap``). ``fn`` runs in the block's job,
    so at most one block of atoms per worker is alive unless ``fn`` keeps it.
    At most min(threads, blocks, cpu count) worker threads run, with at most
    twice that many blocks submitted and not yet taken by the caller.
    """
    n_reps = int(n_reps)
    if not 1 <= n_reps <= MAX_REPS:
        raise DomainError(f"n_reps must be from 1 to {MAX_REPS}")
    source.check_cap(n_reps)
    n_blocks = (n_reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    def job(b: int):
        size = min(BLOCK_SIZE, n_reps - b * BLOCK_SIZE)
        locs, rep, w = source.sample_block(master_seed, role + (b,), size)
        return fn(FlatCampaign(locs, rep, w, size, source.carrier, source.window))

    workers = min(resolve_threads(threads), n_blocks, os.cpu_count() or 1)
    if workers == 1:
        yield from map(job, range(n_blocks))
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        jobs = (pool.submit(job, b) for b in range(n_blocks))
        window = deque(islice(jobs, 2 * workers))
        while window:
            yield window.popleft().result()
            window.extend(islice(jobs, 1))


def run_campaign(source, master_seed: int, n_reps: int, threads: int | None = 1,
                 role: tuple = ()) -> FlatCampaign:
    """Draw ``n_reps`` replicas from a source into one flat campaign.

    For callers whose product is the atoms themselves (extraction's attempt
    batches); statistics of replicas come from ``campaign_stats``, which
    never holds the campaign's atoms. Block b uses the stream keyed by
    (master_seed, ROLE_BLOCK, *role, b), so results are identical for every
    thread count.
    """
    parts = list(_blocks(source, master_seed, n_reps, lambda block: block, threads, role))
    return FlatCampaign(np.concatenate([p.locations for p in parts]),
                        np.concatenate([p.replica + b * BLOCK_SIZE
                                        for b, p in enumerate(parts)]),
                        np.concatenate([p.weights for p in parts]),
                        int(n_reps), source.carrier, source.window)


def campaign_stats(source, master_seed: int, n_reps: int, reduce: Callable,
                   threads: int | None = 1, role: tuple = ()) -> np.ndarray:
    """Per-replica statistics of the campaign ``run_campaign`` would draw.

    ``reduce`` maps one block, a FlatCampaign of the block's replicas, to an
    array with one column per replica (``block.maxmods()``, say, or a stack of
    rows); the blocks' arrays are concatenated along the last axis, in place
    as they arrive. A block's atoms are dropped as soon as it is reduced, so
    memory holds the statistics plus one block of atoms per worker. Per-replica
    sums and maxima see each replica's atoms in the same order as on the flat
    campaign, so the result equals the flat campaign's statistics bit for bit.
    """
    out = None
    for b, part in enumerate(_blocks(source, master_seed, n_reps, reduce, threads, role)):
        if out is None:
            out = np.empty(part.shape[:-1] + (int(n_reps),), part.dtype)
        out[..., b * BLOCK_SIZE:b * BLOCK_SIZE + part.shape[-1]] = part
    return out


def maxmod_samples(spec: ProcessSpec, n_reps: int, seed: int,
                   threads: int | None = 1, role: tuple = ()) -> np.ndarray:
    """Per-replica maxmod draws of a scale-family spec (0 marks an empty window).

    Reduced block by block (``campaign_stats``): memory does not grow with
    the atoms per replica.
    """
    if not spec.is_scale_family:
        raise DomainError("maxmod sampling applies to scale families")
    return campaign_stats(ProcessSource(spec), seed, n_reps,
                          lambda block: block.maxmods(), threads, role)
