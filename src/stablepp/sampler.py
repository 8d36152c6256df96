"""Exact sampling of scale- and shift-decorated Poisson point processes.

The scale-family construction superposes independent decoration copies, each
dilated by a point of a Poisson process on (0, inf) whose intensity has tail
mass x^-alpha. Restricted to a window {|x| > eps}, the infinite series is
sampled exactly: a dilation point lambda can place an atom in the window only
if lambda * maxmod_bound * scale > eps, so truncating the dilation process at
eta = eps / (maxmod_bound * scale) loses nothing. The truncated process has
Poisson(eta^-alpha) many points, each distributed as eta * X with X a standard
Pareto(alpha) variable (inverse CDF: X = U^{-1/alpha}).

Shift families are the log dictionary image of the same construction: Poisson
positions u0 + Exponential(alpha) with count Poisson(e^{-alpha*u0}), decoration
copies translated rather than dilated, and the deterministic normalization
shift log(alpha)/alpha folded in so that the sampled intensity is exactly
e^{-c x} dx.

What differs between the two worlds (measure class, global law, point action,
visible window, tail weight) lives in one ``Carrier`` value per coordinate
system, SCALE and SHIFT; code shared by both is written once against it. The
two block samplers stay separate: they share almost no line and own different
random streams.

Determinism contract, two documented tiers:

* ``sample_process(spec, SeedSpec(ms, r))`` is a pure function of
  (spec, ms, r): one Philox stream per replica.
* Batch campaigns partition replicas into fixed blocks of ``BLOCK_SIZE`` and
  give each block its own Philox stream, vectorizing inside the block. Block
  boundaries and assembly order never depend on the thread count, so campaign
  results are bit-identical for any ``threads`` value.
"""
from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DecorationBoundError, DomainError, RangeError
from .point_measure import MeasureBatch, PointMeasure, ShiftPointMeasure
from .rng import ROLE_BLOCK, ROLE_MIXTURE, ROLE_REPLICA, ROLE_SCALAR, derive_key, make_generator

__all__ = [
    "StableIntensity",
    "LocationLaw",
    "DecorationSpec",
    "ScaleLaw",
    "ShiftLaw",
    "ProcessSpec",
    "SeedSpec",
    "BLOCK_SIZE",
    "MEAN_CAP",
    "config_fields",
    "kind_fields",
    "sample_truncated_poisson",
    "sample_decoration",
    "sample_process",
    "FlatCampaign",
    "ProcessSource",
    "ScaledSource",
    "SuperposeSource",
    "MixtureSource",
    "run_campaign",
    "maxmod_samples",
    "resolve_threads",
]

BLOCK_SIZE = 4096

# Hard per-replica cap on the truncated-series Poisson mean. A window that
# implies more work than this is almost certainly a configuration mistake and
# would otherwise exhaust memory.
MEAN_CAP = 1.0e6

_HERMGAUSS_N = 96


@dataclass(frozen=True)
class StableIntensity:
    """The dilation intensity on (0, inf) with tail mass x^-alpha."""

    alpha: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise DomainError("alpha must be finite and > 0")

    def tail(self, x):
        """Mass of (x, inf)."""
        return np.asarray(x, dtype=np.float64) ** (-self.alpha)

    def mass(self, a: float, b: float) -> float:
        """Mass of the interval (a, b], 0 < a <= b."""
        if not (0.0 < a <= b):
            raise DomainError("interval must satisfy 0 < a <= b")
        return float(a ** (-self.alpha) - b ** (-self.alpha))

    def density(self, x):
        x = np.asarray(x, dtype=np.float64)
        return self.alpha * x ** (-self.alpha - 1.0)


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
class LocationLaw:
    """Law of a single random decoration atom location.

    kinds: "uniform" (low/high, same sign on the scale carrier) and
    "table" (finite support with probabilities).
    """

    kind: str
    low: float | None = None
    high: float | None = None
    values: tuple = ()
    probs: tuple = ()

    def __post_init__(self):
        if self.kind == "uniform":
            if self.low is None or self.high is None or not (self.low < self.high):
                raise DomainError("uniform location law requires low < high")
        elif self.kind == "table":
            if not self.values:
                raise DomainError("table location law requires values")
            _as_prob_vector(self.probs, len(self.values), "location")
        else:
            raise DomainError(f"unknown location law kind: {self.kind!r}")

    @cached_property
    def _table(self):
        v = np.asarray(self.values, dtype=np.float64)
        return v, _as_prob_vector(self.probs, len(self.values), "location")

    def bounds(self):
        if self.kind == "uniform":
            return float(self.low), float(self.high)
        v = self._table[0]
        return float(v.min()), float(v.max())

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.kind == "uniform":
            return rng.uniform(self.low, self.high, n)
        v, p = self._table
        return v[rng.choice(v.size, size=n, p=p)]

    def to_config_dict(self):
        if self.kind == "uniform":
            return {"kind": "uniform", "low": self.low, "high": self.high}
        return {"kind": "table", "values": list(self.values), "probs": list(self.probs)}


def _atoms_tuple(atoms):
    if not atoms:
        raise DomainError("a decoration realization needs at least one atom")
    return READ["atoms"](atoms, "decoration atoms")


@dataclass(frozen=True)
class DecorationSpec:
    """Law of one decoration copy.

    kinds
    -----
    "dirac": a single deterministic counting measure.
    "table": a finite mixture of deterministic counting measures.
    "random_atoms": a random number of i.i.d. atoms; the count law lives on a
        finite set of positive integers and the location law is bounded (and
        bounded away from 0 on the scale carrier).

    The declared ``maxmod_bound`` (scale) or upper bound (shift) must hold
    almost surely; it drives the truncation threshold and is re-checked on
    every sampled block (violation raises DecorationBoundError).
    """

    kind: str
    carrier: str = "scale"
    atoms: tuple = ()
    entries: tuple = ()
    count_values: tuple = ()
    count_probs: tuple = ()
    location: LocationLaw | None = None
    maxmod_bound: float | None = None

    def __post_init__(self):
        if self.carrier not in ("scale", "shift"):
            raise DomainError(f"unknown carrier: {self.carrier!r}")
        forbid0 = self.carrier == "scale"
        if self.kind == "dirac":
            object.__setattr__(self, "atoms", _atoms_tuple(self.atoms))
            self._check_atoms(self.atoms, forbid0)
        elif self.kind == "table":
            if not self.entries:
                raise DomainError("table decoration requires entries")
            ents = []
            for atoms, prob in self.entries:
                ents.append((_atoms_tuple(atoms), float(prob)))
                self._check_atoms(ents[-1][0], forbid0)
            object.__setattr__(self, "entries", tuple(ents))
            _as_prob_vector([p for _, p in ents], len(ents), "table entry")
        elif self.kind == "random_atoms":
            cv = tuple(int(k) for k in self.count_values)
            if not cv or any(k < 1 for k in cv):
                raise DomainError("count law values must be integers >= 1")
            object.__setattr__(self, "count_values", cv)
            _as_prob_vector(self.count_probs, len(cv), "count")
            if self.location is None:
                raise DomainError("random_atoms decoration requires a location law")
            lo, hi = self.location.bounds()
            if forbid0 and not (lo * hi > 0.0):
                raise DomainError("location law on the scale carrier must exclude 0")
        else:
            raise DomainError(f"unknown decoration kind: {self.kind!r}")
        declared = self.maxmod_bound
        if declared is not None:
            declared = float(declared)
            object.__setattr__(self, "maxmod_bound", declared)
            derived = max(self._norms)
            if declared < derived - 1e-12 * abs(derived):
                raise DomainError(
                    f"declared bound {declared} is below the attainable bound {derived}"
                )

    @staticmethod
    def _check_atoms(atoms, forbid0: bool):
        for loc, mult in atoms:
            if not math.isfinite(loc):
                raise DomainError("decoration atoms must be finite")
            if forbid0 and loc == 0.0:
                raise DomainError("decoration atoms on the scale carrier must avoid 0")
            if mult < 1:
                raise DomainError("multiplicities must be >= 1")

    # -- convenience constructors -------------------------------------------

    @classmethod
    def dirac(cls, atoms, carrier: str = "scale",
              maxmod_bound: float | None = None) -> "DecorationSpec":
        return cls(kind="dirac", carrier=carrier, atoms=tuple(atoms), maxmod_bound=maxmod_bound)

    @classmethod
    def table_from_measures(cls, measures, probs=None, carrier: str = "scale") -> "DecorationSpec":
        measures = list(measures)
        if probs is None:
            probs = [1.0 / len(measures)] * len(measures)
        entries = tuple((tuple(m.atoms()), float(p)) for m, p in zip(measures, probs))
        return cls(kind="table", carrier=carrier, entries=entries)

    @classmethod
    def random_atoms(cls, count_probs, location: LocationLaw, carrier: str = "scale",
                     maxmod_bound: float | None = None) -> "DecorationSpec":
        pairs = [(int(k), float(p)) for k, p in count_probs]
        return cls(
            kind="random_atoms",
            carrier=carrier,
            count_values=tuple(k for k, _ in pairs),
            count_probs=tuple(p for _, p in pairs),
            location=location,
            maxmod_bound=maxmod_bound,
        )

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
        return self.maxmod_bound if self.maxmod_bound is not None else max(self._norms)

    @property
    def min_abs(self) -> float:
        """A.s. lower bound on the smallest atom modulus (scale carrier)."""
        if self.carrier != "scale":
            raise DomainError("min_abs is a scale-carrier notion")
        return min(self._norms)

    def _extreme_moment(self, rate: float) -> float:
        """E[e^{rate v}] for v the log coordinate of the largest atom norm of one
        copy: E[maxmod^alpha] (scale) or E[e^{c max}] (shift); dirac and table kinds."""
        if self.kind == "random_atoms":
            raise DomainError("no closed-form maxmod moment for random-atom decorations")
        cr = CARRIERS[self.carrier]
        probs = np.asarray([p for _, p in self._mixture])
        tops = np.asarray([cr.weight(rate, cr.identity, max(cr.norm(a) for a, _ in atoms))
                           for atoms, _ in self._mixture])
        return float(np.dot(probs / probs.sum(), tops))

    def maxmod_moment(self, alpha: float) -> float:
        """E[maxmod(decoration)^alpha]; closed form for dirac/table kinds."""
        if self.carrier != "scale":
            raise DomainError("maxmod moments are a scale-carrier notion")
        return self._extreme_moment(alpha)

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

    @cached_property
    def _count_arrays(self):
        values = np.asarray(self.count_values, dtype=np.int64)
        probs = _as_prob_vector(self.count_probs, len(values), "count")
        return values, probs

    def sample_atoms_block(self, rng: np.random.Generator, n_copies: int):
        """Atoms for ``n_copies`` i.i.d. decoration realizations.

        Returns (copy_index, locations, weights) flat arrays, copy_index
        ascending. Weight = multiplicity; repeated sampled locations are left
        unmerged here (merging is a representation concern, not a law one).
        """
        if self.kind == "dirac":  # one entry, drawn without touching the stream
            _, locs, w, _, _ = self._mixture_arrays
            copy_idx = np.repeat(np.arange(n_copies, dtype=np.int64), locs.size)
            return copy_idx, np.tile(locs, n_copies), np.tile(w, n_copies)
        if self.kind == "table":
            probs, locs, w, natoms, offsets = self._mixture_arrays
            entry = rng.choice(natoms.size, size=n_copies, p=probs)
            counts = natoms[entry]
            copy_idx = np.repeat(np.arange(n_copies, dtype=np.int64), counts)
            flat = _ragged_gather(offsets[entry], counts)
            return copy_idx, locs[flat], w[flat]
        values, probs = self._count_arrays
        counts = values[rng.choice(values.size, size=n_copies, p=probs)]
        copy_idx = np.repeat(np.arange(n_copies, dtype=np.int64), counts)
        locs = self.location.sample(rng, int(counts.sum()))
        return copy_idx, locs, np.ones(locs.size, dtype=np.int64)

    def to_config_dict(self):
        if self.kind == "dirac":
            d = {"kind": "dirac", "atoms": [[a, m] for a, m in self.atoms]}
        elif self.kind == "table":
            d = {
                "kind": "table",
                "entries": [
                    {"atoms": [[a, m] for a, m in atoms], "prob": p} for atoms, p in self.entries
                ],
            }
        else:
            d = {
                "kind": "random_atoms",
                "count_probs": [[k, p] for k, p in zip(self.count_values, self.count_probs)],
                "location": self.location.to_config_dict(),
            }
        if self.maxmod_bound is not None:
            d["maxmod_bound"] = self.maxmod_bound
        return d


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
class _GlobalLaw:
    """Law of a global random dilation (ScaleLaw) or translation (ShiftLaw).

    The ``gaussian`` kind maps N(mu, sigma) through ``_coord``: exp or the identity.
    """

    kind: str
    value: float | None = None
    mu: float | None = None
    sigma: float | None = None
    values: tuple = ()
    probs: tuple = ()

    _positive = False

    def __post_init__(self):
        if self.kind not in ("deterministic", self.gaussian, "table"):
            raise DomainError(f"unknown law kind: {self.kind!r}")
        if self.kind == "deterministic":
            if self.value is None or not math.isfinite(self.value):
                raise DomainError("deterministic law requires a finite value")
            if self._positive and not self.value > 0.0:
                raise DomainError("scale values must be > 0")
        elif self.kind == "table":
            if not self.values:
                raise DomainError("table law requires values")
            for v in self.values:
                if not math.isfinite(v) or (self._positive and not v > 0.0):
                    raise DomainError("table law values out of range")
            _as_prob_vector(self.probs, len(self.values), "law")
        elif self.mu is None or self.sigma is None or not (self.sigma > 0.0) \
                or not math.isfinite(self.mu):
            raise DomainError(f"{self.kind} law requires finite mu and sigma > 0")

    @classmethod
    def deterministic(cls, value: float):
        return cls(kind="deterministic", value=float(value))

    @classmethod
    def table(cls, values, probs):
        return cls(kind="table", values=tuple(float(v) for v in values),
                   probs=tuple(float(p) for p in probs))

    @cached_property
    def _table(self):
        v = np.asarray(self.values, dtype=np.float64)
        return v, _as_prob_vector(self.probs, len(self.values), "law")

    def sample_block(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n draws; the deterministic kind consumes no stream state."""
        if self.kind == "deterministic":
            return np.full(n, self.value)
        if self.kind == "table":
            v, p = self._table
            return v[rng.choice(v.size, size=n, p=p)]
        return self._coord(rng.normal(self.mu, self.sigma, n))

    def expect(self, h):
        """E[h(value)] for vectorized h; Gauss-Hermite for the Gaussian kind.

        h maps the law's k nodes, a (k,) array, to k values (the result is a
        float) or to a (k, n) array (the result is n expectations at once).
        """
        if self.kind == "deterministic":
            out = h(np.asarray([self.value]))[0]
        elif self.kind == "table":
            v, p = self._table
            out = np.dot(p, h(v))
        else:
            x = self._coord(self.mu + self.sigma * math.sqrt(2.0) * _GH_NODES)
            out = np.dot(_GH_WEIGHTS, h(x)) / math.sqrt(math.pi)
        return float(out) if np.ndim(out) == 0 else out

    def to_config_dict(self):
        if self.kind == "deterministic":
            return {"kind": "deterministic", "value": self.value}
        if self.kind == "table":
            return {"kind": "table", "values": list(self.values), "probs": list(self.probs)}
        return {"kind": self.kind, "mu": self.mu, "sigma": self.sigma}


class ScaleLaw(_GlobalLaw):
    """Law of the global random dilation W > 0.

    kinds: "deterministic", "lognormal" (mu/sigma of log W), "table".
    """

    gaussian = "lognormal"
    _positive = True
    _coord = np.exp

    @classmethod
    def lognormal(cls, mu: float, sigma: float) -> "ScaleLaw":
        return cls(kind="lognormal", mu=float(mu), sigma=float(sigma))

    def support(self):
        if self.kind == "deterministic":
            return self.value, self.value
        if self.kind == "table":
            v = self._table[0]
            return float(v.min()), float(v.max())
        return 0.0, math.inf


class ShiftLaw(_GlobalLaw):
    """Law of the global random translation U.

    kinds: "deterministic", "normal", "table". The log dictionary carries
    ScaleLaw lognormal(mu, sigma) to ShiftLaw normal(mu, sigma) and back.
    """

    gaussian = "normal"
    _coord = staticmethod(lambda u: u)

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "ShiftLaw":
        return cls(kind="normal", mu=float(mu), sigma=float(sigma))


@dataclass(frozen=True)
class ProcessSpec:
    """Full description of one process law plus its observation window.

    family: "scdppp" | "sscdppp" (scale carrier, `alpha` is the tail index,
    `window` is the modulus radius eps > 0) or "dppp" | "sdppp" (shift
    carrier, `alpha` is the exponential rate c, `window` is the lower cutoff
    L, any real).
    """

    family: str
    alpha: float
    decoration: DecorationSpec
    window: float
    scale_law: ScaleLaw | None = None
    shift_law: ShiftLaw | None = None

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
        has_law = getattr(self, f"{cr.name}_law") is not None
        if self.family == decorated and not has_law:
            raise DomainError(f"{decorated} requires a {cr.name} law")
        if self.family == plain and has_law:
            raise DomainError(f"{plain} takes no {cr.name} law; use {decorated}")
        if getattr(self, f"{cr.other}_law") is not None:
            raise DomainError(f"{cr.name} families take no {cr.other} law")

    @property
    def is_scale_family(self) -> bool:
        return self.family in SCALE.families

    @property
    def carrier(self) -> str:
        return _family_carrier(self.family).name

    def effective_law(self):
        """The global dilation (scale) or translation (shift) law; the identity when absent."""
        cr = _family_carrier(self.family)
        law = getattr(self, f"{cr.name}_law")
        return cr.law.deterministic(cr.identity) if law is None else law

    def with_window(self, window: float) -> "ProcessSpec":
        return ProcessSpec(self.family, self.alpha, self.decoration, float(window),
                           self.scale_law, self.shift_law)

    def to_config_dict(self):
        cr = _family_carrier(self.family)
        d = {"family": self.family, "decoration": self.decoration.to_config_dict(),
             "window": self.window, cr.rate_key: self.alpha}
        law = getattr(self, f"{cr.name}_law")
        if law is not None:
            d[cr.name] = law.to_config_dict()
        return d

    def spec_hash(self) -> str:
        doc = json.dumps(self.to_config_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus replica index; the replica stream is a pure function of both."""

    master_seed: int
    replica_index: int = 0

    def __post_init__(self):
        if self.replica_index < 0:
            raise DomainError("replica_index must be >= 0")


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


def _law(cls):
    """Reader of a ScaleLaw or ShiftLaw config."""
    kinds = {"deterministic": (("value",), ()), cls.gaussian: (("mu", "sigma"), ()),
             "table": (("values", "probs"), ())}
    return lambda doc, what: cls(**kind_fields(doc, what, kinds))


_LOCATIONS = {"uniform": (("low", "high"), ()), "table": (("values", "probs"), ())}
_DECORATIONS = {"dirac": (("atoms",), ()), "table": (("entries",), ()),
                "random_atoms": (("count_probs", "location"), ())}
_FAMILIES = {"scdppp": (("alpha",), ()), "sscdppp": (("alpha", "scale"), ()),
             "dppp": (("c",), ()), "sdppp": (("c", "shift"), ())}


def _entry(doc, what: str) -> tuple:
    fields = config_fields(doc, what, ("atoms", "prob"))
    return fields["atoms"], fields["prob"]


def _decoration(doc, what: str) -> dict:
    """The DecorationSpec arguments of a decoration config, all but the carrier."""
    fields = kind_fields(doc, what, _DECORATIONS, optional=("maxmod_bound",))
    pairs = fields.pop("count_probs", ())
    return dict(fields, count_values=tuple(k for k, _ in pairs),
                count_probs=tuple(p for _, p in pairs))


def _process(doc, what: str) -> ProcessSpec:
    fields = kind_fields(doc, what, _FAMILIES, key="family", required=("decoration", "window"))
    cr = _family_carrier(fields["family"])
    return ProcessSpec(fields["family"], fields[cr.rate_key],
                       DecorationSpec(carrier=cr.name, **fields["decoration"]), fields["window"],
                       **{f"{cr.name}_law": fields.get(cr.name)})


READ = {
    **dict.fromkeys(("schema", "family", "kind", "direction", "input"), _string),
    **dict.fromkeys(("alpha", "c", "window", "maxmod_bound", "prob", "low", "high", "value",
                     "mu", "sigma", "left", "peak", "right", "height", "level", "edge", "outer",
                     "ramp", "plateau", "b1", "b2", "rhs_scale_factor", "censor_mass",
                     "threshold", "inner_radius"), _number),
    **dict.fromkeys(("k", "n_accepted", "max_attempts"), _integer),
    **dict.fromkeys(("values", "probs", "points", "y_grid"), _list_of(_number)),
    "atoms": _list_of(_pair_of(_number, _integer)),
    "count_probs": _list_of(_pair_of(_integer, _number)),
    "knots": _list_of(_pair_of(_number, _number)),
    "symmetric": _boolean,
    "id": _id,
    "battery": lambda v, what: v if v == "default" else _list_of(_object)(v, what),
    "entries": _list_of(_entry),
    "location": lambda doc, what: LocationLaw(**kind_fields(doc, what, _LOCATIONS)),
    "scale": _law(ScaleLaw),
    "shift": _law(ShiftLaw),
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


# -- core block sampling -------------------------------------------------------

def _guard_mean(mean: np.ndarray, window) -> None:
    top = float(np.max(mean)) if mean.size else 0.0
    if not math.isfinite(top) or top > MEAN_CAP:
        raise RangeError(
            f"truncated-series Poisson mean {top:.3g} exceeds the cap {MEAN_CAP:.0e} "
            f"(window {window!r} too aggressive for this spec)"
        )


def _scale_block(spec: ProcessSpec, key: np.ndarray, size: int, window: float):
    """One vectorized block of scale-family replicas, exact on {|x| > window}."""
    rng = np.random.Generator(np.random.Philox(key=key))
    law = spec.effective_law()
    w_draw = law.sample_block(rng, size)
    bound = spec.decoration.bound
    # Count mean (eta^-alpha with eta = window / (bound * W)); the W in eta and
    # the global dilation by W cancel in the atom amplitude, which is why the
    # amplitude below does not reference W.
    mean = (bound * w_draw / window) ** spec.alpha
    _guard_mean(mean, window)
    counts = rng.poisson(mean)
    total = int(counts.sum())
    rep_pt = np.repeat(np.arange(size, dtype=np.int64), counts)
    radial = (1.0 - rng.random(total)) ** (-1.0 / spec.alpha)
    amp = (window / bound) * radial
    copy_idx, dloc, dw = spec.decoration.sample_atoms_block(rng, total)
    if dloc.size and float(np.abs(dloc).max()) > bound * (1.0 + 1e-12):
        raise DecorationBoundError(
            "a sampled decoration atom exceeded the declared modulus bound"
        )
    locs = amp[copy_idx] * dloc
    rep = rep_pt[copy_idx]
    keep = np.abs(locs) > window
    return locs[keep], rep[keep], dw[keep]


_LOG_MEAN_CAP = math.log(MEAN_CAP)


def _shift_block(spec: ProcessSpec, key: np.ndarray, size: int, cutoff: float):
    """One vectorized block of shift-family replicas, exact on (cutoff, inf).

    Log-dictionary image of the scale construction; the deterministic
    normalization shift log(c)/c is folded into sigma so the sampled Poisson
    intensity is exactly e^{-c x} dx.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    c = spec.alpha
    u_draw = spec.effective_law().sample_block(rng, size)
    sigma = u_draw - math.log(c) / c
    bound = spec.decoration.bound
    log_mean = -c * (cutoff - sigma - bound)
    if log_mean.size and float(np.max(log_mean)) > _LOG_MEAN_CAP:
        raise RangeError(
            f"truncated-series Poisson mean exp({float(np.max(log_mean)):.3g}) exceeds the cap "
            f"(cutoff {cutoff!r} too aggressive for this spec)"
        )
    mean = np.exp(log_mean)
    counts = rng.poisson(mean)
    total = int(counts.sum())
    rep_pt = np.repeat(np.arange(size, dtype=np.int64), counts)
    # log of a standard Pareto(c) radial, i.e. an Exponential(rate c) excess
    log_radial = -np.log1p(-rng.random(total)) / c
    base = (cutoff - bound) + log_radial
    copy_idx, dloc, dw = spec.decoration.sample_atoms_block(rng, total)
    if dloc.size and float(dloc.max()) > bound + 1e-12 * max(1.0, abs(bound)):
        raise DecorationBoundError(
            "a sampled decoration atom exceeded the declared upper bound"
        )
    locs = base[copy_idx] + dloc
    rep = rep_pt[copy_idx]
    keep = locs > cutoff
    return locs[keep], rep[keep], dw[keep]


# -- the two coordinate systems ------------------------------------------------

@dataclass(frozen=True)
class Carrier:
    """One coordinate system of the exp/log dictionary: what code written once
    for both worlds needs to know about either. SCALE (atoms on R \\ {0},
    dilations x -> y x) and SHIFT (atoms on R, translations x -> x + u) are the
    only values; configs, manifests and ``carrier`` attributes use ``name``.
    """

    name: str
    other: str  # name of the dictionary image
    measure: type
    law: type  # law of the global dilation / translation
    identity: float  # the global-law value that acts trivially
    norm: Callable  # the size the decoration bound caps: |x| or x
    families: tuple  # (without, with a global law)
    block: Callable  # (spec, key, size, window) -> one block of replicas
    rate_key: str  # config key of the tail index / rate
    point: str  # symbol of an evaluation point
    window_word: str
    point_ok: Callable  # p -> whether p is an evaluation point
    point_error: str
    points_error: str
    compose: Callable  # (f, p) -> the function a -> f(p acting on a)
    inverse: Callable  # (p, x) -> p's inverse acting on x
    visible: Callable  # (f, p) -> the window x -> f(inverse(p, x)) needs
    weight: Callable  # (a, p, w) -> tail weight at p of the global value w
    # the log coordinate v of a point or norm: s = e^v (scale) or t = v (shift)
    to_log: Callable  # point -> v
    from_log: Callable  # v -> point
    has_log: Callable  # points -> where they have one: not p <= 0, nan kept (scale); all (shift)
    intensity: Callable  # a -> rho: the dilation process has intensity rho e^{-a v} dv in v
    quantile: Callable  # (a, kappa, w, L) -> the point p with weight(a, p, w) * kappa = L


SCALE = Carrier(
    name="scale", other="shift", measure=PointMeasure, law=ScaleLaw, identity=1.0, norm=abs,
    families=("scdppp", "sscdppp"), block=_scale_block, rate_key="alpha",
    point="y", window_word="window", point_ok=lambda y: y > 0.0 and math.isfinite(y),
    point_error="evaluation point y must be finite and > 0",
    points_error="evaluation points on the scale carrier must be > 0",
    compose=lambda f, s: lambda a: f.eval(s * a), inverse=lambda y, x: x / y,
    visible=lambda f, y: y * f.inner_radius, weight=lambda a, y, w: (y ** -a) * w ** a,
    to_log=math.log, from_log=math.exp, has_log=lambda p: np.logical_not(p <= 0.0),
    intensity=lambda a: a, quantile=lambda a, kappa, w, L: w * (kappa / L) ** (1.0 / a),
)
SHIFT = Carrier(
    name="shift", other="scale", measure=ShiftPointMeasure, law=ShiftLaw, identity=0.0,
    norm=lambda x: x, families=("dppp", "sdppp"), block=_shift_block, rate_key="c",
    point="u", window_word="cutoff", point_ok=math.isfinite,
    point_error="evaluation point u must be finite",
    points_error="evaluation points must be finite",
    compose=lambda g, t: lambda a: g.eval(a + t), inverse=lambda u, x: x - u,
    visible=lambda g, u: u + g.support_low, weight=lambda c, u, w: np.exp(-c * (u - w)),
    to_log=lambda t: t, from_log=lambda v: v,
    has_log=lambda t: np.full(np.shape(t), True), intensity=lambda c: 1.0,
    quantile=lambda c, kappa, w, L: w - np.log(L / kappa) / c,
)
CARRIERS = {"scale": SCALE, "shift": SHIFT}


def _family_carrier(family):
    """The carrier of a process family, None for an unknown family."""
    return next((cr for cr in CARRIERS.values() if family in cr.families), None)


# -- single-draw operations ----------------------------------------------------

def _seed_pair(seed) -> tuple[int, int]:
    if isinstance(seed, SeedSpec):
        return seed.master_seed, seed.replica_index
    return int(seed), 0


def sample_truncated_poisson(alpha: float, eta: float, seed) -> PointMeasure:
    """One draw of the dilation process restricted to (eta, inf).

    The count is Poisson(eta^-alpha) and, given the count, points are i.i.d.
    eta * X with X standard Pareto(alpha).
    """
    intensity = StableIntensity(alpha)
    if not (eta > 0.0 and math.isfinite(eta)):
        raise DomainError("eta must be finite and > 0")
    mean = float(intensity.tail(eta))
    if mean > MEAN_CAP:
        raise RangeError(f"Poisson mean {mean:.3g} exceeds the cap {MEAN_CAP:.0e}")
    master, replica = _seed_pair(seed)
    rng = make_generator(master, ROLE_SCALAR, replica)
    k = int(rng.poisson(mean))
    pts = eta * (1.0 - rng.random(k)) ** (-1.0 / alpha)
    return PointMeasure(pts)


def sample_decoration(dec: DecorationSpec, seed):
    """One decoration realization as a canonical measure."""
    master, replica = _seed_pair(seed)
    rng = make_generator(master, ROLE_SCALAR, replica)
    _, locs, w = dec.sample_atoms_block(rng, 1)
    return CARRIERS[dec.carrier].measure(locs, w)


def sample_process(spec: ProcessSpec, seed: SeedSpec):
    """One replica, restricted to the spec's observation window, exactly in law.

    Pure in (spec, seed.master_seed, seed.replica_index): the replica owns a
    Philox stream keyed by that pair and nothing else.
    """
    if not isinstance(seed, SeedSpec):
        seed = SeedSpec(int(seed), 0)
    key = derive_key(seed.master_seed, ROLE_REPLICA, seed.replica_index)
    locs, _, w = CARRIERS[spec.carrier].block(spec, key, 1, spec.window)
    return CARRIERS[spec.carrier].measure(locs, w)


# -- campaigns -------------------------------------------------------------------

@dataclass(frozen=True)
class FlatCampaign:
    """Replicated samples in flat arrays: one row per atom, replica ascending.

    ``window`` records the exactness region the campaign was drawn on: the
    modulus radius (scale carrier) or lower cutoff (shift carrier).
    """

    locations: np.ndarray
    replica: np.ndarray
    weights: np.ndarray
    n_reps: int
    carrier: str
    window: float

    def laplace_integrals(self, f, y: float) -> np.ndarray:
        """Per-replica integral of the translated/dilated test function.

        Scale carrier: integral of x -> f(x / y); shift carrier: integral of
        x -> f(x - y).
        """
        vals = f.eval(CARRIERS[self.carrier].inverse(y, self.locations))
        return np.bincount(self.replica, weights=self.weights * vals, minlength=self.n_reps)

    def maxmods(self) -> np.ndarray:
        """Per-replica largest atom modulus (scale carrier); 0 for empty replicas."""
        out = np.zeros(self.n_reps)
        np.maximum.at(out, self.replica, np.abs(self.locations))
        return out

    def max_locations(self) -> np.ndarray:
        """Per-replica largest atom (shift carrier); -inf for empty replicas."""
        out = np.full(self.n_reps, -math.inf)
        np.maximum.at(out, self.replica, self.locations)
        return out

    def counts(self) -> np.ndarray:
        return np.bincount(self.replica, minlength=self.n_reps)

    def measures(self) -> MeasureBatch:
        """Every replica as one canonical batch of measures."""
        return MeasureBatch(CARRIERS[self.carrier].measure, self.locations, self.weights,
                            self.replica, self.n_reps)

    def replica_measure(self, r: int):
        lo = np.searchsorted(self.replica, r, side="left")
        hi = np.searchsorted(self.replica, r, side="right")
        return CARRIERS[self.carrier].measure(self.locations[lo:hi],
                                              self.weights[lo:hi].astype(np.int64))


class ProcessSource:
    """Campaign source drawing replicas of one spec, optionally on a finer window."""

    def __init__(self, spec: ProcessSpec, window: float | None = None):
        self.spec = spec
        self.window = spec.window if window is None else float(window)
        if spec.is_scale_family and not self.window > 0.0:
            raise DomainError("scale-family window radius must be > 0")
        self.carrier = spec.carrier

    def sample_block(self, master_seed: int, path: tuple, size: int):
        key = derive_key(master_seed, ROLE_BLOCK, *path)
        return CARRIERS[self.carrier].block(self.spec, key, size, self.window)


class ScaledSource:
    """Dilation of a scale-carrier source by a fixed factor b > 0."""

    def __init__(self, inner, b: float):
        if inner.carrier != "scale":
            raise DomainError("only scale-carrier sources can be dilated")
        if not (b > 0.0 and math.isfinite(b)):
            raise DomainError("dilation factor must be finite and > 0")
        self.inner = inner
        self.b = float(b)
        self.window = inner.window * self.b
        self.carrier = "scale"

    def sample_block(self, master_seed, path, size):
        locs, rep, w = self.inner.sample_block(master_seed, path, size)
        return locs * self.b, rep, w


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
            if not math.isclose(ch.window, children[0].window,
                                rel_tol=1e-9, abs_tol=1e-9):
                raise DomainError("superposed sources must share the observation window")
        # rounding in scaled children can shift windows by ulps; the coarsest
        # declared window is exact for every child
        self.window = max(ch.window for ch in children)

    def sample_block(self, master_seed, path, size):
        parts = [ch.sample_block(master_seed, path + (i,), size) for i, ch in enumerate(self.children)]
        locs = np.concatenate([p[0] for p in parts])
        rep = np.concatenate([p[1] for p in parts])
        w = np.concatenate([p[2] for p in parts])
        order = np.argsort(rep, kind="stable")
        return locs[order], rep[order], w[order]


class MixtureSource:
    """Each replica is drawn from one of several sources, chosen independently."""

    def __init__(self, children, probs):
        children = tuple(children)
        self.probs = _as_prob_vector(probs, len(children), "mixture")
        self.children = children
        self.carrier = children[0].carrier
        for ch in children[1:]:
            if ch.carrier != self.carrier or not math.isclose(
                    ch.window, children[0].window, rel_tol=1e-9, abs_tol=1e-9):
                raise DomainError("mixture components must share carrier and window")
        self.window = max(ch.window for ch in children)

    def sample_block(self, master_seed, path, size):
        pick_rng = np.random.Generator(
            np.random.Philox(key=derive_key(master_seed, ROLE_MIXTURE, *path))
        )
        pick = pick_rng.choice(len(self.children), size=size, p=self.probs)
        locs_parts, rep_parts, w_parts = [], [], []
        for i, ch in enumerate(self.children):
            slots = np.nonzero(pick == i)[0]
            if not slots.size:
                continue
            locs, rep, w = ch.sample_block(master_seed, path + (i,), slots.size)
            locs_parts.append(locs)
            rep_parts.append(slots[rep])
            w_parts.append(w)
        if not locs_parts:
            return (np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        locs = np.concatenate(locs_parts)
        rep = np.concatenate(rep_parts)
        w = np.concatenate(w_parts)
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


def run_campaign(source, master_seed: int, n_reps: int, threads: int | None = 1,
                 role: tuple = ()) -> FlatCampaign:
    """Draw ``n_reps`` replicas from a source into one flat campaign.

    Replicas are partitioned into fixed blocks of BLOCK_SIZE; block b uses the
    stream keyed by (master_seed, ROLE_BLOCK, *role, b). Results are identical
    for every thread count; at most min(threads, blocks, cpu count) worker
    threads run.
    """
    n_reps = int(n_reps)
    if n_reps < 1:
        raise DomainError("n_reps must be >= 1")
    n_blocks = (n_reps + BLOCK_SIZE - 1) // BLOCK_SIZE

    def job(b: int):
        size = min(BLOCK_SIZE, n_reps - b * BLOCK_SIZE)
        return source.sample_block(master_seed, role + (b,), size)

    workers = min(resolve_threads(threads), n_blocks, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(job, range(n_blocks)))
    else:
        parts = [job(b) for b in range(n_blocks)]
    locs = np.concatenate([p[0] for p in parts])
    rep = np.concatenate(
        [p[1] + b * BLOCK_SIZE for b, p in enumerate(parts)]
    ).astype(np.int64)
    w = np.concatenate([p[2] for p in parts]).astype(np.float64)
    return FlatCampaign(locs, rep, w, n_reps, source.carrier, source.window)


def maxmod_samples(spec: ProcessSpec, n_reps: int, seed: int, window: float | None = None,
                   threads: int | None = 1, role: tuple = ()) -> np.ndarray:
    """Per-replica maxmod draws of a scale-family spec (0 marks an empty window)."""
    if not spec.is_scale_family:
        raise DomainError("maxmod sampling applies to scale families")
    campaign = run_campaign(ProcessSource(spec, window), seed, n_reps, threads, role)
    return campaign.maxmods()
