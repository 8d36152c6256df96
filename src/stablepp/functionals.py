"""Laplace-functional estimation and its closed-form counterparts.

For a scale-family process and a test function f, the object of interest is

    Psi(f | y) = E[exp(-integral of x -> f(x / y) against the process)],

and its shift-family twin uses x -> f(x - u). Conditioning on the global
dilation W (translation U), the decorated Poisson structure gives

    Psi(f | y) = E_W[exp(-y^-alpha W^alpha c_f)],
    Psi(g | u) = E_U[exp(-e^{-c (u - U)} kappa_g)],

both E[exp(-weight(p, W) * constant)]. Write an evaluation point in its log
coordinate v: s = e^v on the scale carrier, t = v on the shift carrier. The
weight is then e^{-rate (v_p - v_W)} on both carriers (``sampler.Carrier.weight``),
the dilation process has intensity rho e^{-rate v} dv (rho = alpha on the
scale side, 1 on the shift side), and the two constants are one integral:

    c_f     = integral over R of (1 - psi_P(f | e^v)) alpha e^{-alpha v} dv,
    kappa_g = integral over R of (1 - psi_Q(g | t)) e^{-c t} dt,

with psi_P(f | s) = E[exp(-integral of a -> f(s a) against one decoration)]
and psi_Q(g | t) the same for a -> g(a + t). The integrand vanishes unless an
atom norm m of a copy carries a support edge of f into reach, so v is bounded
by the log coordinates of Carrier.inverse(m, edge); it is smooth between the
log coordinates of Carrier.inverse(m, knot).

Setting f to (a ramp approximation of) infinity times the indicator of
{|x| > 1} ({x > 0} on the shift carrier) collapses Psi to the law of the
largest atom modulus (largest atom), for both carriers

    P(extreme <= p) = E_W[exp(-weight(p, W) kappa)],
    kappa = (rho / rate) E[e^{rate v_max}],

with v_max the log coordinate of the largest atom norm M of one decoration:
kappa = E[maxmod^alpha] gives a mixture of Frechet laws, and
kappa = E[e^{c max}] / c a mixture of Gumbels. Every decoration kind has
kappa. Dirac and table decorations give a finite sum over their entries. For
random atoms with count law p_k and one atom's norm law G,
P(M <= m) = sum_k p_k G(m)^k: a finite sum over the distinct norms of a table
location law, and for uniform locations with norms in [a, b]
E[e^{rate v_max}] = e^{rate v_a} + integral from v_a to v_b of
rate e^{rate v} P(v_max > v) dv, by quadrature. Both mixtures are one class,
``ExtremeLaw``, with a carrier field; ``extreme_law(spec)`` builds a spec's.
Every Laplace curve lies in the same family: Psi(f | .) is the CDF of that
extreme law with kappa = c_f (kappa_g on the shift carrier), so a prediction
is the law's ``cdf`` with the constant integrated once per function.

Monte Carlo estimates carry standard errors; quadrature predictions carry
the quadrature's error estimate, so the two can be compared honestly. Each
smooth piece between the kinks is integrated by an adaptive 21-point
Gauss-Kronrod rule (QUADPACK's QK21) whose estimate on a subinterval is
resasc * min(1, (200 |K - G| / resasc)^1.5), K and G the Kronrod and the
embedded 10-point Gauss sums and resasc the rule's integral of
|integrand - mean|, floored at 50 eps times the integral of |integrand|. The
subinterval with the largest estimate is bisected until the summed estimate
is at most 1.49e-8 absolute or relative; a piece that reaches 400
subintervals warns with ``errors.IntegrationWarning``. The estimate is not a
proof; the tests hold every default prediction within it of an independent
Gauss-Legendre reference.
"""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationWarning, WindowError
from .point_measure import (
    ShiftTestFunction,
    TestFunction,
    indicator_approx,
    maxmod_indicator,
    shift_indicator_approx,
    shift_tent,
    tent,
)
from .rng import ROLE_SCALAR, make_generator
from .sampler import (
    CARRIERS,
    SCALE,
    SHIFT,
    DecorationSpec,
    FlatCampaign,
    ProcessSource,
    ProcessSpec,
    ScaleLaw,
    ShiftLaw,
    campaign_stats,
)

__all__ = [
    "EstimateWithError",
    "Prediction",
    "estimate_scaled_laplace",
    "estimate_shift_laplace",
    "battery_estimates",
    "laplace_battery",
    "required_window",
    "psi_decoration_scale",
    "psi_decoration_shift",
    "cf_quadrature",
    "kappa_quadrature",
    "cf_estimate",
    "predict_scaled_laplace",
    "predict_shift_laplace",
    "ExtremeLaw",
    "extreme_law",
    "default_battery",
    "default_points",
    "tent_family_bias_bound",
]


@dataclass(frozen=True)
class EstimateWithError:
    """Monte Carlo estimate with its standard error."""

    value: float
    std_error: float
    n_reps: int


@dataclass(frozen=True)
class Prediction:
    """Deterministic prediction with the quadrature's error bound: floats at one
    point, arrays of the points' shape over an array of points."""

    value: float | np.ndarray
    error_bound: float | np.ndarray


# -- Monte Carlo estimates -------------------------------------------------------

def _mean_with_se(vals: np.ndarray) -> EstimateWithError:
    n = vals.size
    value = float(vals.mean())
    if n < 2:
        return EstimateWithError(value, math.inf, n)
    sd = float(vals.std(ddof=1))
    if sd == 0.0 and vals.min() < vals.max():
        # the squared deviations underflowed; on vals / max|vals| they do not
        top = float(np.max(np.abs(vals)))
        sd = float((vals / top).std(ddof=1)) * top
    return EstimateWithError(value, sd / math.sqrt(n), n)


def _on_carrier(cr, f, dec: DecorationSpec | None = None) -> None:
    """Raise unless the test function f, and the decoration dec when given,
    live on carrier ``cr``."""
    if dec is not None and dec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-carrier decoration")
    if type(f)._measure is not cr.measure:
        raise DomainError(f"expected a {cr.name}-carrier test function")


def _check_rate(cr, rate: float) -> None:
    if not (rate > 0.0 and math.isfinite(rate)):
        raise DomainError(f"{cr.rate_key} must be finite and > 0")


def _checked(cr, campaign, f, p: float) -> None:
    """Raise unless Psi(f | p) on carrier ``cr`` can be estimated from
    ``campaign``, or from any campaign of a source (both carry the carrier and
    the window). The zero function is visible nowhere, so any window serves it."""
    if campaign.carrier != cr.name:
        raise DomainError(f"{cr.name}-carrier estimate on a {cr.other}-carrier campaign")
    _on_carrier(cr, f)
    if not cr.point_ok(p):
        raise DomainError(cr.point_error)
    needed = cr.visible(f, p)
    if needed < campaign.window:
        raise WindowError(
            f"evaluation at {cr.point}={p:g} needs {cr.window_word} <= {needed:g}, "
            f"campaign was drawn on {cr.window_word} {campaign.window:g}"
        )


def _estimate(cr, campaign: FlatCampaign, f, p: float) -> EstimateWithError:
    _checked(cr, campaign, f, p)
    return _mean_with_se(np.exp(-campaign.laplace_integrals(f, p)))


def estimate_scaled_laplace(campaign: FlatCampaign, f: TestFunction, y: float) -> EstimateWithError:
    """Estimate Psi(f | y) from a scale-carrier campaign.

    Raises WindowError when the campaign's window is too coarse for (f, y):
    exactness requires y * inner_radius(f) >= window, else atoms the
    functional can see were never sampled.
    """
    return _estimate(SCALE, campaign, f, y)


def estimate_shift_laplace(campaign: FlatCampaign, g: ShiftTestFunction, u: float) -> EstimateWithError:
    """Estimate Psi(g | u) from a shift-carrier campaign."""
    return _estimate(SHIFT, campaign, g, u)


def required_window(spec: ProcessSpec, functions, points) -> float:
    """Coarsest window adequate for every (function, evaluation point) pair.

    An f at scale point y sees only atoms with |x| >= y * inner_radius(f); a g
    at shift point u sees only atoms with x >= u + support_low(g); the zero
    function, whose lower support edge is inf, sees none. Atoms outside the
    returned window add exactly 0 to every integral, so the window may be
    coarser than the spec's own without changing any estimate's law. Falls
    back to the spec's window when no nonzero function constrains it.
    """
    cr = CARRIERS[spec.carrier]
    needed = math.inf
    for f in functions:
        _on_carrier(cr, f)
        for p in points:
            if not cr.point_ok(p):
                raise DomainError(cr.point_error)
            needed = min(needed, cr.visible(f, p))
    return needed if math.isfinite(needed) else spec.window


def laplace_battery(source, pairs):
    """Check every (f, p) pair against the campaigns ``source`` draws, before
    any is drawn, as the single estimates check theirs.

    Returns (reduce, estimates). ``reduce`` is a ``campaign_stats`` reducer:
    it maps a campaign block to one row of per-replica Laplace integrals for
    each pair. ``estimates`` maps such rows, over a whole campaign or any
    subset of its replicas, to one EstimateWithError per pair, in order. The
    estimates equal those of the flat campaign bit for bit.
    """
    cr = CARRIERS[source.carrier]
    for f, p in pairs:
        _checked(cr, source, f, p)

    def reduce(block) -> np.ndarray:
        rows = [block.laplace_integrals(f, p) for f, p in pairs]
        return np.array(rows, dtype=np.float64).reshape(len(pairs), block.n_reps)

    def estimates(rows: np.ndarray) -> list:
        return [_mean_with_se(np.exp(-row)) for row in rows]

    return reduce, estimates


def battery_estimates(spec: ProcessSpec, functions: dict, points, n_reps: int, seed: int,
                      threads: int | None = 1, role: tuple = ()) -> dict:
    """Estimate Psi for every function in `functions` at every point from one
    campaign drawn on the coarsest window the battery needs, reduced block by
    block to a (pairs x reps) matrix of Laplace integrals.

    Returns {(function_id, point): EstimateWithError}.
    """
    source = ProcessSource(spec, required_window(spec, functions.values(), points))
    keys = [(fid, p) for fid in functions for p in points]
    reduce, estimates = laplace_battery(source, [(functions[fid], p) for fid, p in keys])
    rows = campaign_stats(source, seed, n_reps, reduce, threads, role)
    return dict(zip(keys, estimates(rows)))


# -- decoration one-copy functionals ----------------------------------------------

def _exp_neg_pl_mean(cr, f, p: float, lo: float, hi: float) -> float:
    """Mean of exp(-f(p acting on a)) over a ~ Uniform(lo, hi).

    a -> f(p acting on a) is linear between the knots of f pulled back by p, so
    a piece from a0 to a1 with values v0, v1 contributes the closed form
    (a1 - a0) e^{-m} (1 - e^{-d}) / d with m = min(v0, v1) and d = |v1 - v0|,
    taken through expm1 so that a narrow steep piece does not cancel; the
    exponent is taken at the smaller value so that a steep fall cannot
    overflow. The values at pulled-back knots
    are the knot values: acting on the pulled-back knot can miss the knot by an
    ulp, which on a narrow ramp is a visible error in the value.
    """
    anchor = cr.inverse(p, f.knots_x)
    inside = (anchor > lo) & (anchor < hi)
    fp = cr.compose(f, p)
    cuts = np.concatenate([[lo], anchor[inside], [hi]])
    vals = np.concatenate([[fp(lo)], f.knots_v[inside], [fp(hi)]])
    d = np.abs(np.diff(vals))
    with np.errstate(invalid="ignore"):
        shape = np.where(d == 0.0, 1.0, -np.expm1(-d) / d)
    low = np.minimum(vals[:-1], vals[1:])
    return float(np.dot(np.diff(cuts), np.exp(-low) * shape)) / (hi - lo)


def _psi_decoration(cr, dec: DecorationSpec, f, p: float) -> float:
    _on_carrier(cr, f, dec)
    fp = cr.compose(f, p)
    if dec.kind != "random_atoms":
        total = 0.0
        norm = sum(q for _, q in dec._mixture)
        for atoms, q in dec._mixture:
            total += (q / norm) * math.exp(-sum(m * fp(a) for a, m in atoms))
        return total
    loc = dec.location
    if loc.kind == "table":
        v, q = loc._table
        one = float(np.dot(q, np.exp(-fp(v))))
    else:
        one = _exp_neg_pl_mean(cr, f, p, *loc.bounds())
    values, probs = dec.count._table
    return float(np.dot(probs, one ** values.astype(np.float64)))


def psi_decoration_scale(dec: DecorationSpec, f: TestFunction, s: float) -> float:
    """E[exp(-integral of u -> f(s u) against one decoration)], s > 0."""
    return _psi_decoration(SCALE, dec, f, s)


def psi_decoration_shift(dec: DecorationSpec, g: ShiftTestFunction, t: float) -> float:
    """E[exp(-integral of q -> g(q + t) against one decoration)]."""
    return _psi_decoration(SHIFT, dec, g, t)


# -- quadrature -------------------------------------------------------------------

_QUAD_LIMIT = 400  # subintervals per smooth piece
_QUAD_TOL = 1.49e-8  # absolute and relative tolerance per smooth piece
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's QK21): the nodes
# 0 and +-x_1, ..., +-x_10, x_1 > ... > x_10 > 0, with Kronrod weights (the
# last for 0); +-x_2, +-x_4, ..., +-x_10 are the 10-point Gauss-Legendre
# nodes, with the Gauss weights.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980579850, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)


def _qk21(fn, a: float, b: float) -> tuple[float, float, float]:
    """The Kronrod estimate of the integral of fn over [a, b], QUADPACK's
    error estimate resasc * min(1, (200 |K - G| / resasc)^1.5) raised to the
    roundoff floor 50 eps resabs, and resasc, the rule's integral of
    |fn - mean|; resabs is its integral of |fn|."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(fn(centr))
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    # the Gauss nodes first, then the Kronrod ones, in QUADPACK's order
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        absc = hlgth * _XGK[j]
        f1, f2 = float(fn(centr - absc)), float(fn(centr + absc))
        fv1[j], fv2[j] = f1, f2
        if j % 2:
            resg += _WG[j // 2] * (f1 + f2)
        resk += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc += _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    dhlgth = abs(hlgth)
    resabs *= dhlgth
    resasc *= dhlgth
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * hlgth, err, resasc


def _quad(fn, a: float, b: float) -> tuple[float, float]:
    """Adaptive QK21 on [a, b]: bisect the subinterval with the largest error
    estimate until the summed estimate is at most max(tol, tol |integral|),
    or warn with IntegrationWarning at _QUAD_LIMIT subintervals. As in
    QUADPACK, a first estimate that saturated at resasc is not trusted."""
    val, err, resasc = _qk21(fn, a, b)
    if err == 0.0 or (err <= max(_QUAD_TOL, _QUAD_TOL * abs(val)) and err != resasc):
        return val, err
    pieces = [(a, b, val, err)]
    total, err_sum = val, err
    while True:
        i = max(range(len(pieces)), key=lambda k: pieces[k][3])
        lo, hi, v, e = pieces[i]
        mid = 0.5 * (lo + hi)
        v1, e1, _ = _qk21(fn, lo, mid)
        v2, e2, _ = _qk21(fn, mid, hi)
        pieces[i] = (lo, mid, v1, e1)
        pieces.append((mid, hi, v2, e2))
        total = total + (v1 + v2) - v
        err_sum = err_sum + (e1 + e2) - e
        if err_sum <= max(_QUAD_TOL, _QUAD_TOL * abs(total)):
            break
        if len(pieces) == _QUAD_LIMIT:
            warnings.warn(f"the quadrature on [{a!r}, {b!r}] stopped at {_QUAD_LIMIT} "
                          f"subintervals with error estimate {err_sum:.3g}",
                          IntegrationWarning, stacklevel=3)
            break
    return sum(p[2] for p in pieces), err_sum


def _quad_with_corners(fn, lo: float, hi: float, corners) -> tuple[float, float]:
    # integrate piecewise-smooth segments separately; corners mark kinks
    cuts = [float(c) for c in [lo, *sorted({c for c in corners if lo < c < hi}), hi]]
    total = 0.0
    err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        v, e = _quad(fn, a, b)
        total += v
        err += e
    return total, err


def _constant(cr, psi, rate: float, dec: DecorationSpec, f) -> Prediction:
    """The integral of (1 - psi(dec, f, from_log(v))) rho e^{-rate v} dv over the
    log coordinate v, with the quadrature's error estimate.

    A copy sees f only while some atom norm m carries a support edge of f into
    reach, so v runs from the log coordinate of inverse(bound, lower edge) to
    that of inverse(smallest norm, upper edge); the integrand is smooth between
    the log coordinates of inverse(m, knot).
    """
    _check_rate(cr, rate)
    _on_carrier(cr, f, dec)
    if f.is_zero:
        return Prediction(0.0, 0.0)
    low, high = f.support_bounds
    norms = set(dec._norms)
    lo = cr.to_log(cr.inverse(dec.bound, low))
    hi = cr.to_log(cr.inverse(min(norms), high))
    corners = {cr.to_log(cr.inverse(m, x))
               for x in map(cr.norm, f.knots_x) if cr.has_log(x) for m in norms}
    rho = cr.intensity(rate)

    def integrand(v: float) -> float:
        return (1.0 - psi(dec, f, cr.from_log(v))) * rho * math.exp(-rate * v)

    val, err = _quad_with_corners(integrand, lo, hi, corners)
    return Prediction(val, err)


def cf_quadrature(alpha: float, dec: DecorationSpec, f: TestFunction) -> Prediction:
    """The scale constant c_f by adaptive quadrature, with the quadrature's
    error estimate as its bound.

    c_f = integral over (0, inf) of (1 - psi_P(f | s)) alpha s^{-alpha-1} ds,
    integrated after the substitution s = e^v as the integral over v of
    (1 - psi_P(f | e^v)) alpha e^{-alpha v} dv, on
    [log(inner_radius / bound), log(outer_radius / the smallest atom norm)]
    split at every log(|knot| / atom modulus).
    """
    return _constant(SCALE, psi_decoration_scale, alpha, dec, f)


def kappa_quadrature(c: float, dec: DecorationSpec, g: ShiftTestFunction) -> Prediction:
    """The shift constant kappa_g = integral of (1 - psi_Q(g | t)) e^{-c t} dt,
    on [support_low - bound, support_high - smallest atom] split at every
    knot - atom, with the quadrature's error estimate as its bound."""
    return _constant(SHIFT, psi_decoration_shift, c, dec, g)


def cf_estimate(alpha: float, dec: DecorationSpec, f: TestFunction, n_draws: int,
                seed: int) -> EstimateWithError:
    """Monte Carlo c_f, usable for any decoration kind.

    Importance-samples the dilation coordinate from its own normalized tail on
    [lo, inf) (a Pareto draw) and a fresh decoration copy per draw; the
    estimator lo^{-alpha} * (1 - exp(-integral)) is unbiased for c_f because
    the integrand vanishes below lo = inner_radius / bound.
    """
    _on_carrier(SCALE, f, dec)
    if f.is_zero:
        return EstimateWithError(0.0, 0.0, int(n_draws))
    n_draws = int(n_draws)
    if n_draws < 2:
        raise DomainError("n_draws must be >= 2")
    lo = f.inner_radius / dec.bound
    rng = make_generator(int(seed), ROLE_SCALAR, 0)
    s = lo * (1.0 - rng.random(n_draws)) ** (-1.0 / alpha)
    copy_idx, dloc, dw = dec.sample_atoms_block(rng, n_draws)
    expo = np.bincount(copy_idx, weights=dw * f.eval(s[copy_idx] * dloc), minlength=n_draws)
    vals = lo ** (-alpha) * (1.0 - np.exp(-expo))
    return _mean_with_se(vals)


# -- predictions ------------------------------------------------------------------

def _predict(cr, quadrature, spec: ProcessSpec, f, p) -> Prediction:
    """Psi(f | p) at one point or an array of points: the CDF of the carrier's
    extreme law with kappa set to the constant, integrated once per call."""
    if spec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-family spec")
    points = np.asarray(p, dtype=np.float64)
    if not all(cr.point_ok(x) for x in points.ravel()):
        raise DomainError(cr.point_error)
    const = quadrature(spec.alpha, spec.decoration, f)
    law = ExtremeLaw(cr.name, spec.alpha, const.value, spec.law)
    # d/dc of E exp(-weight c) is bounded by E[weight]
    return Prediction(law.cdf(points), const.error_bound * law._mean_weight(points))


def predict_scaled_laplace(spec: ProcessSpec, f: TestFunction, y) -> Prediction:
    """Closed-form Psi(f | y) = E_W[exp(-y^-alpha W^alpha c_f)] with error bound,
    at one point y or at every point of an array."""
    return _predict(SCALE, cf_quadrature, spec, f, y)


def predict_shift_laplace(spec: ProcessSpec, g: ShiftTestFunction, u) -> Prediction:
    """Closed-form Psi(g | u) = E_U[exp(-e^{-c(u - U)} kappa_g)] with error bound,
    at one point u or at every point of an array."""
    return _predict(SHIFT, kappa_quadrature, spec, g, u)


# -- extreme-value laws -------------------------------------------------------------

_EXPECT_POINTS = 1 << 14  # points per expect call, bounding its (nodes x points) arrays


def _carrier(name: str):
    """The Carrier named `name`, a DomainError for any other string."""
    if name not in CARRIERS:
        raise DomainError(f"carrier must be one of {sorted(CARRIERS)}, not {name!r}")
    return CARRIERS[name]


@dataclass(frozen=True)
class ExtremeLaw:
    """P(extreme <= p) = E_W[exp(-weight(p, W) kappa)] over the global law W
    (the identity when ``law`` is None) on the carrier named ``carrier``: the
    law of the largest atom modulus, a Frechet mixture, on "scale", and of the
    largest atom, a Gumbel mixture, on "shift"; each is a Frechet (Gumbel) law
    when W is constant. ``rate`` is alpha (scale) or c (shift)."""

    carrier: str
    rate: float
    kappa: float
    law: ScaleLaw | ShiftLaw | None = None

    def __post_init__(self):
        _check_rate(_carrier(self.carrier), self.rate)
        if not (self.kappa >= 0.0 and math.isfinite(self.kappa)):
            raise DomainError("kappa must be finite and >= 0")

    @property
    def _cr(self):
        return CARRIERS[self.carrier]

    def _expect(self, p, h):
        """E_W[h(weight(p, W))] at every point of p, many points per `expect`
        call; 0 for points without a log coordinate (p <= 0 on the scale
        carrier), nan for nan points. A float for a scalar p."""
        cr, rate, law = self._cr, self.rate, self._cr.global_law(self.law)
        p = np.asarray(p, dtype=np.float64)
        flat = p.ravel()
        live = cr.has_log(flat)
        x = flat[live]
        out = np.zeros(flat.shape)
        out[live] = np.concatenate([np.zeros(0)] + [
            law.expect(lambda w: h(cr.weight(rate, x[i:i + _EXPECT_POINTS], w[:, None])))
            for i in range(0, x.size, _EXPECT_POINTS)])
        return float(out[0]) if p.ndim == 0 else out.reshape(p.shape)

    def cdf(self, p):
        """The CDF at every point of p (see ``_expect``)."""
        return self._expect(p, lambda weight: np.exp(-weight * self.kappa))

    def _mean_weight(self, p):
        """E_W[weight(p, W)], which bounds the CDF's derivative in kappa."""
        return self._expect(p, lambda weight: weight)

    def ppf(self, q):
        """Quantiles; closed form requires a deterministic global law."""
        law = self._cr.global_law(self.law)
        if law.kind != "deterministic":
            raise DomainError("quantiles are closed-form only for a deterministic global law")
        q = np.asarray(q, dtype=np.float64)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise DomainError("quantile levels must lie in (0, 1)")
        return self._cr.quantile(self.rate, self.kappa, law.value, -np.log(q))

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse CDF (deterministic global law only)."""
        rng = make_generator(int(seed), ROLE_SCALAR, 1)
        return self.ppf(rng.random(int(n)))


def _extreme_moment(cr, rate: float, dec: DecorationSpec) -> float:
    """E[e^{rate v_max}] for one copy of dec: E[maxmod^alpha] (scale) or
    E[e^{c max}] (shift), in the forms of the module docstring. The uniform
    case is integrated by parts in v, where the integrand stays smooth as the
    smallest norm nears the origin."""
    if dec.kind != "random_atoms":
        probs = np.asarray([p for _, p in dec._mixture])
        tops = np.asarray([np.exp(rate * cr.to_log(max(cr.norm(a) for a, _ in atoms)))
                           for atoms, _ in dec._mixture])
        return float(np.dot(probs / probs.sum(), tops))
    k, pk = dec.count._table
    if dec.location.kind == "table":
        v, q = dec.location._table
        m, which = np.unique(cr.norm(v), return_inverse=True)
        below = (np.cumsum(np.bincount(which, weights=q))[:, None] ** k) @ pk
        return float(np.dot(np.exp(rate * cr.to_log(m)), np.diff(below, prepend=0.0)))
    a, b = sorted(map(cr.norm, dec.location.bounds()))

    def integrand(v: float) -> float:
        u = (cr.from_log(v) - a) / (b - a)
        return rate * math.exp(rate * v) * (1.0 - float(np.dot(pk, u ** k)))

    va = cr.to_log(a)
    return math.exp(rate * va) + _quad_with_corners(integrand, va, cr.to_log(b), ())[0]


def extreme_law(spec: ProcessSpec) -> ExtremeLaw:
    """Analytic law of the largest atom modulus (scale carrier) or the largest
    atom (shift carrier) of a process.

    kappa = (rho / rate) E[e^{rate v_max}], the tail mass of rho e^{-rate v} dv
    beyond -v_max: E[maxmod^alpha] on the scale carrier, and E[e^{c M_Q}] / c
    on the shift carrier, with M_Q the largest atom of one decoration; the 1/c
    reflects the e^{-cx} dx intensity convention.
    """
    cr = CARRIERS[spec.carrier]
    rate = spec.alpha
    # the factor rho / rate of Carrier.tail_mass, taken as a division by
    # rate / rho (1 or c), which keeps E exact on the scale side
    kappa = _extreme_moment(cr, rate, spec.decoration) / (rate / cr.intensity(rate))
    return ExtremeLaw(cr.name, rate, kappa, spec.law)


# -- canonical batteries -------------------------------------------------------------

_DEFAULT_POINTS = {"scale": (0.5, 1.0, 2.0, 4.0),
                   "shift": (-math.log(2.0), 0.0, math.log(2.0), math.log(4.0))}


def default_points(carrier: str) -> tuple:
    """The canonical evaluation points: y in (0.5, 1, 2, 4) on the scale
    carrier, their log coordinates u = log y on the shift carrier."""
    return _DEFAULT_POINTS[_carrier(carrier).name]


def default_battery(carrier: str) -> dict:
    """The canonical test functions of a carrier: five on the scale carrier
    covering tents, steps, bands and maxima, four shift counterparts."""
    if _carrier(carrier) is SCALE:
        return {
            "tent_lo": tent(0.5, 1.0, 2.0),
            "tent_hi": tent(2.0, 4.0, 8.0),
            "step_ln2": indicator_approx(math.log(2.0), edge=1.0, outer=1e6, ramp=1e-6),
            "band_sym": indicator_approx(1.0, edge=0.7, outer=5.0, ramp=1e-3, symmetric=True),
            "mm_50": maxmod_indicator(50.0, edge=1.0, outer=1e6, ramp=1e-6),
        }
    return {
        "gtent_lo": shift_tent(-math.log(2.0), 0.0, math.log(2.0)),
        "gtent_hi": shift_tent(math.log(2.0), math.log(4.0), math.log(8.0)),
        "gstep_ln2": shift_indicator_approx(math.log(2.0), edge=0.0, outer=14.0, ramp=1e-6),
        "gmax_50": shift_indicator_approx(50.0, edge=0.0, outer=14.0, ramp=1e-6),
    }


def tent_family_bias_bound(law: ExtremeLaw, n: int, y: float, outer: float = 1e8) -> float:
    """Bound on |Psi(f_n | y) - P(maxmod <= y)| for the plateau family member n.

    Three contributions: the plateau is n rather than infinity (mass e^-n),
    atoms falling on the ramp (y, y(1 + 1/n)], and atoms beyond the outer
    cutoff y * outer (tail mass kappa-weighted).
    """
    ramp = float(law.cdf(y * (1.0 + 1.0 / n)) - law.cdf(y))
    tail = law.kappa * law._mean_weight(y * outer)
    return math.exp(-float(n)) + ramp + tail
