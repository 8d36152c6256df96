"""The exp/log dictionary between the scale and shift carriers.

``log`` maps (0, inf) to R and carries the dilation-stable world to the
translation-stable one: the dilation intensity with tail x^-alpha has log
image with tail e^{-alpha u}, a positive decoration becomes its coordinatewise
log, a global dilation W becomes a global translation log W, and the window
{x > eps} becomes (log eps, inf). One bookkeeping constant appears: the
shift-family intensity convention is e^{-c x} dx, whose tail carries an extra
1/c, so laws pick up the deterministic normalization shift log(c)/c when
crossing the dictionary (it vanishes at c = 1).

Measures and laws map exactly. Piecewise-linear test functions do not (a line
in log coordinates is a curve in linear coordinates), so function transport
re-knots adaptively to a stated sup-norm tolerance; each segment's worst-case
deviation has a closed form because the composed function is convex or concave
between knots.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RangeError
from .point_measure import (
    PointMeasure,
    ShiftPointMeasure,
    ShiftTestFunction,
    TestFunction,
)
from .sampler import (
    CARRIERS,
    SCALE,
    SHIFT,
    DecorationSpec,
    LocationLaw,
    ProcessSpec,
    ScaleLaw,
    ShiftLaw,
)

__all__ = [
    "exp_transform",
    "log_transform",
    "exp_function",
    "log_function",
    "log_decoration",
    "exp_decoration",
    "scale_law_to_shift",
    "shift_law_to_scale",
    "map_process_spec",
    "normalization_shift",
]

_DEFAULT_TOL = 5e-7
_MAX_DEPTH = 48


def _exp_checked(x: float) -> float:
    """math.exp raises OverflowError instead of returning inf; unify both exits."""
    try:
        y = math.exp(x)
    except OverflowError:
        raise RangeError("exp transport left the float range")
    if y == 0.0 or math.isinf(y):
        raise RangeError("exp transport left the float range")
    return y


def normalization_shift(c: float) -> float:
    """log(c)/c, the translation reconciling tail e^{-cu} with intensity e^{-cx}dx."""
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("the rate must be finite and > 0")
    return math.log(c) / c


# -- measures -------------------------------------------------------------------

def log_transform(m):
    """Coordinatewise log of a scale-carrier measure or MeasureBatch; every atom
    must lie on the positive half-line."""
    if m.locations.size and float(m.locations.min()) <= 0.0:
        raise DomainError("log transport requires all atoms on (0, inf)")
    out = np.log(m.locations)
    if out.size and not np.all(np.isfinite(out)):
        raise RangeError("log transport left the float range")
    return m.relocated(out, ShiftPointMeasure)


def exp_transform(m):
    """Coordinatewise exp of a shift-carrier measure or MeasureBatch; overflow or
    underflow to 0 is an error."""
    with np.errstate(over="ignore"):
        out = np.exp(m.locations)
    if out.size and (not np.all(np.isfinite(out)) or np.any(out == 0.0)):
        raise RangeError("exp transport left the float range")
    return m.relocated(out, PointMeasure)


# -- test functions ---------------------------------------------------------------

def _refine_exp(x0, v0, x1, v1, tol, out, depth):
    """Knots for y -> f(log y) on [e^x0, e^x1], chord error <= tol.

    f is linear on [x0, x1]; the image h(y) = v0 + s (log y - x0) with
    s = (v1 - v0)/(x1 - x0) is concave (s > 0) or convex (s < 0), so the
    worst chord deviation is at the tangency point y* = (b - a)/(x1 - x0).
    """
    if v0 == v1 or depth >= _MAX_DEPTH:
        out.append((math.exp(x1), v1))
        return
    a, b = math.exp(x0), math.exp(x1)
    s = (v1 - v0) / (x1 - x0)
    ystar = (b - a) / (x1 - x0)
    h = v0 + s * (math.log(ystar) - x0)
    chord = v0 + (v1 - v0) * (ystar - a) / (b - a)
    if abs(h - chord) <= tol:
        out.append((b, v1))
        return
    xm = 0.5 * (x0 + x1)
    vm = 0.5 * (v0 + v1)
    _refine_exp(x0, v0, xm, vm, tol, out, depth + 1)
    _refine_exp(xm, vm, x1, v1, tol, out, depth + 1)


def _refine_log(a, v0, b, v1, tol, out, depth):
    """Knots for x -> f(e^x) on [log a, log b], chord error <= tol."""
    if v0 == v1 or depth >= _MAX_DEPTH:
        out.append((math.log(b), v1))
        return
    la, lb = math.log(a), math.log(b)
    s = (v1 - v0) / (b - a)
    c = (v1 - v0) / (lb - la)
    xstar = math.log(c / s)
    h = v0 + s * (math.exp(xstar) - a)
    chord = v0 + c * (xstar - la)
    if abs(h - chord) <= tol:
        out.append((lb, v1))
        return
    mid = math.sqrt(a * b)
    vm = v0 + s * (mid - a)
    _refine_log(a, v0, mid, vm, tol, out, depth + 1)
    _refine_log(mid, vm, b, v1, tol, out, depth + 1)


def exp_function(f: ShiftTestFunction, tol: float = _DEFAULT_TOL) -> TestFunction:
    """Transport to the scale carrier: the function y -> f(log y), y > 0.

    tol is relative to the sup norm; the result satisfies
    sup_y |result(y) - f(log y)| <= tol * sup|f|.
    """
    if f.is_zero:
        return TestFunction([(1.0, 0.0), (2.0, 0.0)])
    xs, vs = f.knots_x, f.knots_v
    lo, hi = _exp_checked(float(xs[0])), _exp_checked(float(xs[-1]))
    abs_tol = float(tol) * f.sup_norm
    out = [(lo, float(vs[0]))]
    for i in range(xs.size - 1):
        _refine_exp(float(xs[i]), float(vs[i]), float(xs[i + 1]), float(vs[i + 1]),
                    abs_tol, out, 0)
    return TestFunction(out)


def log_function(f: TestFunction, tol: float = _DEFAULT_TOL) -> ShiftTestFunction:
    """Transport to the shift carrier: the function x -> f(e^x).

    The support of f must lie in (0, inf); two-sided functions have no log
    image. tol is relative to the sup norm.
    """
    if f.is_zero:
        return ShiftTestFunction([(0.0, 0.0), (1.0, 0.0)])
    xs, vs = f.knots_x, f.knots_v
    if float(xs[0]) < 0.0 and not np.all(vs[xs <= 0.0] == 0.0):
        raise DomainError("log transport requires support in (0, inf)")
    # drop knots at or left of 0 (function vanishes there), keep one zero knot
    keep = xs > 0.0
    first = int(np.argmax(keep))
    xs, vs = xs[first:], vs[first:]
    if vs[0] != 0.0:
        raise DomainError("log transport requires support in (0, inf)")
    abs_tol = float(tol) * f.sup_norm
    out = [(math.log(float(xs[0])), float(vs[0]))]
    if not math.isfinite(out[0][0]):
        raise RangeError("transported support leaves the float range")
    for i in range(xs.size - 1):
        _refine_log(float(xs[i]), float(vs[i]), float(xs[i + 1]), float(vs[i + 1]),
                    abs_tol, out, 0)
    return ShiftTestFunction(out)


# -- decorations and laws ----------------------------------------------------------

def _log_checked(x: float, what: str) -> float:
    if x <= 0.0:
        raise DomainError(f"log transport requires {what} on (0, inf)")
    return math.log(x)


# direction -> (source carrier, target carrier, checked map of one coordinate)
_DIRECTIONS = {
    "log": (SCALE, SHIFT, _log_checked),
    "exp": (SHIFT, SCALE, lambda x, what: _exp_checked(x)),
}


def _map_decoration(dec: DecorationSpec, direction: str) -> DecorationSpec:
    src, dst, coord = _DIRECTIONS[direction]
    if dec.carrier != src.name:
        raise DomainError(f"{direction}_decoration expects a {src.name}-carrier decoration")

    def atoms(pairs):
        return tuple((coord(loc, "decoration atoms"), mult) for loc, mult in pairs)

    if dec.kind == "dirac":
        return DecorationSpec(kind="dirac", carrier=dst.name, atoms=atoms(dec.atoms))
    if dec.kind == "table":
        entries = tuple((atoms(a), p) for a, p in dec.entries)
        return DecorationSpec(kind="table", carrier=dst.name, entries=entries)
    loc = _map_law(dec.location, LocationLaw, lambda v: coord(v, "location values"), direction)
    return DecorationSpec(kind="random_atoms", carrier=dst.name, count=dec.count, location=loc)


def log_decoration(dec: DecorationSpec) -> DecorationSpec:
    """Coordinatewise log of a scale-carrier decoration law (positive atoms only)."""
    return _map_decoration(dec, "log")


def exp_decoration(dec: DecorationSpec) -> DecorationSpec:
    """Coordinatewise exp of a shift-carrier decoration law."""
    return _map_decoration(dec, "exp")


def _map_law(law, to, point, direction: str, mu_shift: float = 0.0):
    """`law` (a location, scale or shift law) carried in `direction` as a law of
    class `to`: values through `point`, the Gaussian mean moved by mu_shift."""
    if law.kind == "uniform":
        raise DomainError(
            f"uniform location laws have no exact {direction} image; use a table law")
    if law.kind == "deterministic":
        return to(kind="deterministic", value=point(law.value))
    if law.kind == "table":
        return to(kind="table", values=tuple(point(v) for v in law.values),
                  probs=tuple(float(p) for p in law.probs))
    return to(kind=to.gaussian, mu=float(law.mu + mu_shift), sigma=float(law.sigma))


def scale_law_to_shift(law: ScaleLaw, c: float) -> ShiftLaw:
    """U = log W + log(c)/c, the translation matching a global dilation W."""
    adj = normalization_shift(c)
    return _map_law(law, ShiftLaw, lambda w: math.log(w) + adj, "log", adj)


def shift_law_to_scale(law: ShiftLaw, c: float) -> ScaleLaw:
    """W = exp(U - log(c)/c), inverse of scale_law_to_shift."""
    adj = normalization_shift(c)
    return _map_law(law, ScaleLaw, lambda u: _exp_checked(u - adj), "exp", -adj)


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
    if spec.is_scale_family:
        dec = log_decoration(spec.decoration)
        law = scale_law_to_shift(spec.effective_law(), spec.alpha)
        window = math.log(spec.window)
    else:
        dec = exp_decoration(spec.decoration)
        law = shift_law_to_scale(spec.effective_law(), spec.alpha)
        window = _exp_checked(spec.window)
    to = CARRIERS[dec.carrier]
    plain, decorated = to.families
    if law.kind == "deterministic" and law.value == to.identity:
        return ProcessSpec(plain, spec.alpha, dec, window)
    return ProcessSpec(decorated, spec.alpha, dec, window, law)
