"""The exp/log dictionary between the scale and shift carriers.

``log`` maps (0, inf) to R and carries the dilation-stable world to the
translation-stable one: the dilation intensity with tail x^-alpha has log
image with tail e^{-alpha u}, a positive decoration becomes its coordinatewise
log, a global dilation W becomes a global translation log W, and the window
{x > eps} becomes (log eps, inf). One bookkeeping constant appears: the
shift-family intensity convention is e^{-c x} dx, whose tail carries an extra
1/c, so laws pick up the deterministic normalization shift log(c)/c when
crossing the dictionary (it vanishes at c = 1).

Both directions are one chart change, ``_coord``: a point keeps its log
coordinate v, read and written with the carriers' charts (``Carrier.to_log``,
``from_log``), so a direction names nothing but its source carrier.

Measures and laws map exactly. Piecewise-linear test functions do not (a line
in one chart is a curve in the other), so function transport re-knots
adaptively to a stated sup-norm tolerance, finite and > 0, with at most 65536
knots (a RangeError past that); each piece's worst-case deviation
has a closed form because the composed function is convex or concave between
knots, and the same form serves both directions.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import DomainError, RangeError
from .point_measure import CARRIERS, SCALE, SHIFT, TestFunction
from .sampler import DecorationSpec, GlobalLaw, LocationLaw, ProcessSpec

__all__ = ["exp_transform", "log_transform", "exp_function", "log_function",
           "log_decoration", "exp_decoration", "scale_law_to_shift", "shift_law_to_scale",
           "map_process_spec", "normalization_shift"]

_DEFAULT_TOL = 5e-7
_MAX_DEPTH = 48
_MAX_KNOTS = 1 << 16  # knots of one transported function

# direction -> its source carrier; the target is the other one
_DIRECTIONS = {"log": SCALE, "exp": SHIFT}


def _ends(direction: str, got, name: str, what: str):
    """The (source, target) carriers of `direction`, once `got` names the
    source carrier: the carrier of the input `what` that `name` received."""
    src = _DIRECTIONS[direction]
    if got != src.name:
        raise DomainError(f"{name} expects a {src.name}-carrier {what}")
    return src, CARRIERS[src.other]


def _coord(direction: str, x, what: str, dv: float = 0.0):
    """The points x, read in the source chart of `direction`, in the target
    chart after their log coordinate moves by dv. Every x must have a log
    coordinate and every image must be finite with one. A scalar becomes a
    Python float, so the charts apply math.log / math.exp to it."""
    src = _DIRECTIONS[direction]
    dst = CARRIERS[src.other]
    if np.ndim(x) == 0:
        x = float(x)
    if not np.all(src.has_log(x)):
        raise DomainError(f"{direction} transport requires {what} on ({src.floor:g}, inf)")
    try:
        with np.errstate(over="ignore"):
            y = dst.from_log(src.to_log(x) + dv)
    except OverflowError:
        y = math.inf
    if not np.all(np.isfinite(y) & dst.has_log(y)):
        raise RangeError(f"{direction} transport left the float range")
    return y


def normalization_shift(c: float) -> float:
    """log(c)/c, the translation reconciling tail e^{-cu} with intensity e^{-cx}dx."""
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("the rate must be finite and > 0")
    return math.log(c) / c


# -- measures -------------------------------------------------------------------

def _map_measure(m, direction: str):
    _, dst = _ends(direction, getattr(m, "carrier", None), f"{direction}_transform", "measure")
    return m.relocated(_coord(direction, m.locations, "all atoms"), dst.name)


def log_transform(m):
    """Coordinatewise log of a scale-carrier measure or MeasureBatch; every atom
    must lie on the positive half-line."""
    return _map_measure(m, "log")


def exp_transform(m):
    """Coordinatewise exp of a shift-carrier measure or MeasureBatch; overflow or
    underflow to 0 is an error."""
    return _map_measure(m, "exp")


# -- test functions ---------------------------------------------------------------

def _refine(p0, f0, p1, f1, src: int, tol: float, out: list, depth: int = 0):
    """Append to `out` the knots after p0 that re-knot the piece from p0 to p1.

    Points are (a, b) pairs of scale and shift coordinates, b = log a; f is
    linear in the chart with index src (0 scale, 1 shift) and knots go out in
    the other. Lines in a and in b differ most at a* = (a1 - a0)/(b1 - b0), by
    |f1 - f0| |(a* - a0)/(a1 - a0) - (log a* - b0)/(b1 - b0)| whichever chart is
    the source; a piece that misses tol is bisected at the midpoint of b.
    """
    if len(out) >= _MAX_KNOTS:
        raise RangeError(f"function transport needs more than {_MAX_KNOTS} knots "
                         "at this tolerance")
    (a0, b0), (a1, b1) = p0, p1
    if not (a0 < a1 and b0 < b1):
        raise RangeError("transport maps distinct knots of the function to one float")
    astar = (a1 - a0) / (b1 - b0)
    gap = abs((astar - a0) / (a1 - a0) - (SCALE.to_log(astar) - b0) / (b1 - b0))
    if f0 == f1 or depth >= _MAX_DEPTH or abs(f1 - f0) * gap <= tol:
        out.append((p1[1 - src], f1))
        return
    bm = 0.5 * (b0 + b1)
    pm = (SCALE.from_log(bm), bm)
    w = 0.5 if src else (pm[0] - a0) / (a1 - a0)  # pm's share of the source chart's piece
    fm = (1.0 - w) * f0 + w * f1
    _refine(p0, f0, pm, fm, src, tol, out, depth + 1)
    _refine(pm, fm, p1, f1, src, tol, out, depth + 1)


def _map_function(f, direction: str, tol: float):
    """f transported in `direction`, re-knotted to within tol * sup|f|. Knots
    without a log coordinate lead and f must vanish up to the first with one."""
    src, dst = _ends(direction, f.carrier, f"{direction}_function", "function")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError("the transport tolerance must be finite and > 0")
    if f.is_zero:
        return TestFunction([(dst.identity, 0.0), (dst.identity + 1.0, 0.0)], dst.name)
    xs, vs = f.knots_x, f.knots_v
    first = int(np.count_nonzero(~src.has_log(xs)))
    if np.any(vs[:first + 1] != 0.0):
        raise DomainError(f"{direction} transport requires support in ({src.floor:g}, inf)")
    xs, vs = xs[first:].tolist(), vs[first:].tolist()
    ys = [_coord(direction, x, "function knots") for x in xs]
    i = 0 if src is SCALE else 1  # the source chart's place in (scale, shift) pairs
    pts = list(zip(xs, ys)) if i == 0 else list(zip(ys, xs))
    abs_tol = float(tol) * f.sup_norm
    out = [(ys[0], vs[0])]
    for k in range(len(xs) - 1):
        _refine(pts[k], vs[k], pts[k + 1], vs[k + 1], i, abs_tol, out)
    return TestFunction(out, dst.name)


def exp_function(f: TestFunction, tol: float = _DEFAULT_TOL) -> TestFunction:
    """Transport to the scale carrier: the function y -> f(log y), y > 0.

    tol is relative to the sup norm; the result satisfies
    sup_y |result(y) - f(log y)| <= tol * sup|f|.
    """
    return _map_function(f, "exp", tol)


def log_function(f: TestFunction, tol: float = _DEFAULT_TOL) -> TestFunction:
    """Transport to the shift carrier: the function x -> f(e^x).

    The support of f must lie in (0, inf); two-sided functions have no log
    image. tol is relative to the sup norm.
    """
    return _map_function(f, "log", tol)


# -- decorations and laws ----------------------------------------------------------

def _map_decoration(dec: DecorationSpec, direction: str) -> DecorationSpec:
    _, dst = _ends(direction, dec.carrier, f"{direction}_decoration", "decoration")

    def atoms(pairs):
        return tuple((_coord(direction, loc, "decoration atoms"), mult) for loc, mult in pairs)

    if dec.kind == "dirac":
        return DecorationSpec(kind="dirac", carrier=dst.name, atoms=atoms(dec.atoms))
    if dec.kind == "table":
        entries = tuple((atoms(a), p) for a, p in dec.entries)
        return DecorationSpec(kind="table", carrier=dst.name, entries=entries)
    loc = _map_law(dec.location, LocationLaw, direction, "location values")
    return DecorationSpec(kind="random_atoms", carrier=dst.name, count=dec.count, location=loc)


def log_decoration(dec: DecorationSpec) -> DecorationSpec:
    """Coordinatewise log of a scale-carrier decoration law (positive atoms only)."""
    return _map_decoration(dec, "log")


def exp_decoration(dec: DecorationSpec) -> DecorationSpec:
    """Coordinatewise exp of a shift-carrier decoration law."""
    return _map_decoration(dec, "exp")


def _map_law(law, to, direction: str, what: str, dv: float = 0.0):
    """`law` (a location or global law) carried in `direction` as the law that
    `to` builds, its values' log coordinates and the Gaussian mean moved by dv."""
    if law.kind == "uniform":
        raise DomainError(
            f"uniform location laws have no exact {direction} image; use a table law")
    if law.kind == "deterministic":
        return to(kind="deterministic", value=_coord(direction, law.value, what, dv))
    if law.kind == "table":
        return to(kind="table", values=tuple(_coord(direction, v, what, dv) for v in law.values),
                  probs=tuple(float(p) for p in law.probs))
    gaussian = CARRIERS[_DIRECTIONS[direction].other].gaussian
    return to(kind=gaussian, mu=float(law.mu + dv), sigma=float(law.sigma))


def _map_global_law(law, c: float, direction: str):
    """A global law across the dictionary: the shift chart's value carries the
    normalization shift, so v moves by +log(c)/c into it and by -log(c)/c out."""
    src = _DIRECTIONS[direction]
    _, dst = _ends(direction, getattr(law, "carrier", None), f"{src.name}_law_to_{src.other}",
                   "law")
    adj = normalization_shift(c)
    return _map_law(law, partial(GlobalLaw, carrier=dst.name), direction, "law values",
                    adj if dst is SHIFT else -adj)


def scale_law_to_shift(law: GlobalLaw, c: float) -> GlobalLaw:
    """U = log W + log(c)/c, the translation matching a global dilation W."""
    return _map_global_law(law, c, "log")


def shift_law_to_scale(law: GlobalLaw, c: float) -> GlobalLaw:
    """W = exp(U - log(c)/c), inverse of scale_law_to_shift."""
    return _map_global_law(law, c, "exp")


def map_process_spec(spec: ProcessSpec) -> ProcessSpec:
    """Carry a spec across the dictionary, including its observation window.

    Scale to shift: decorations are logged (so all decoration atoms must be
    positive), the tail index alpha becomes the rate c = alpha, the dilation
    law becomes a translation law with the normalization shift folded in, and
    the window radius eps becomes the cutoff log(eps). Shift to scale is the
    exact inverse. Families canonicalize: a mapped law that is exactly the
    identity (translation 0, dilation 1) drops to the undecorated-global
    family.
    """
    direction = next(d for d, src in _DIRECTIONS.items() if src.name == spec.carrier)
    dec = _map_decoration(spec.decoration, direction)
    law = _map_global_law(spec.effective_law(), spec.alpha, direction)
    window = _coord(direction, spec.window, "the window")
    to = CARRIERS[dec.carrier]
    plain, decorated = to.families
    if law.kind == "deterministic" and law.value == to.identity:
        return ProcessSpec(plain, spec.alpha, dec, window)
    return ProcessSpec(decorated, spec.alpha, dec, window, law)
