"""Laplace-functional estimation and its closed-form counterparts.

For a scale-family process and a test function f, the object of interest is

    Psi(f | y) = E[exp(-integral of x -> f(x / y) against the process)],

and its shift-family twin uses x -> f(x - u). Conditioning on the global
dilation W (translation U), the decorated Poisson structure gives

    Psi(f | y) = E_W[exp(-y^-alpha W^alpha c_f)],
    Psi(g | u) = E_U[exp(-e^{-c (u - U)} kappa_g)],

both E[exp(-weight(p, W) * constant)] with ``sampler.Carrier.weight``. Write
an evaluation point in its log coordinate v: s = e^v on the scale carrier,
t = v on the shift carrier. The dilation process then has intensity
rho e^{-rate v} dv (rho = alpha on the scale side, 1 on the shift side), and
the two constants are one integral:

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

with v_max the log coordinate of the largest atom norm of one decoration:
kappa = E[maxmod^alpha] gives a mixture of Frechet laws, and
kappa = E[e^{c max}] / c a mixture of Gumbels. Every Laplace curve lies in
the same family: Psi(f | .) is the CDF of that extreme law with kappa = c_f
(kappa_g on the shift carrier), so a prediction is the law's ``cdf`` with the
constant integrated once per function.

Monte Carlo estimates carry standard errors; quadrature predictions carry
error bounds from the quadrature, so the two can be compared honestly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate as _integrate

from .errors import DomainError, WindowError
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
    run_campaign,
)

__all__ = [
    "EstimateWithError",
    "Prediction",
    "frechet_cdf",
    "estimate_scaled_laplace",
    "estimate_shift_laplace",
    "battery_estimates",
    "required_window",
    "psi_decoration_scale",
    "psi_decoration_shift",
    "cf_quadrature",
    "kappa_quadrature",
    "cf_estimate",
    "predict_scaled_laplace",
    "predict_shift_laplace",
    "FrechetMixture",
    "GumbelMixture",
    "maxmod_law",
    "max_location_law",
    "default_battery",
    "shift_battery",
    "default_y_grid",
    "default_u_grid",
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
    """Deterministic prediction with a rigorous error bound: floats at one
    point, arrays of the points' shape over an array of points."""

    value: float | np.ndarray
    error_bound: float | np.ndarray


def frechet_cdf(alpha: float, x: float) -> float:
    """The alpha-Frechet distribution function exp(-x^-alpha), x > 0."""
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be finite and > 0")
    if not x > 0.0:
        raise DomainError("the Frechet law lives on (0, inf)")
    return math.exp(-float(x) ** -alpha)


# -- Monte Carlo estimates -------------------------------------------------------

def _mean_with_se(vals: np.ndarray) -> EstimateWithError:
    n = vals.size
    value = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return EstimateWithError(value, se, n)


def _estimate(cr, campaign: FlatCampaign, f, p: float) -> EstimateWithError:
    if campaign.carrier != cr.name:
        raise DomainError(f"{cr.name}-carrier estimate on a {cr.other}-carrier campaign")
    if not cr.point_ok(p):
        raise DomainError(cr.point_error)
    if f.is_zero:
        return EstimateWithError(1.0, 0.0, campaign.n_reps)
    needed = cr.visible(f, p)
    if needed < campaign.window:
        raise WindowError(
            f"evaluation at {cr.point}={p:g} needs {cr.window_word} <= {needed:g}, "
            f"campaign was drawn on {cr.window_word} {campaign.window:g}"
        )
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

    A nonzero f at scale point y sees only atoms with |x| >= y * inner_radius(f);
    a nonzero g at shift point u sees only atoms with x >= u + support_low(g).
    Atoms outside the returned window add exactly 0 to every integral, so the
    window may be coarser than the spec's own without changing any estimate's
    law. Falls back to the spec's window when no nonzero function constrains it.
    """
    cr = CARRIERS[spec.carrier]
    needed = math.inf
    for f in functions:
        if f.is_zero:
            continue
        for p in points:
            if not cr.point_ok(p):
                raise DomainError(cr.points_error)
            needed = min(needed, cr.visible(f, p))
    return needed if math.isfinite(needed) else spec.window


def battery_estimates(spec: ProcessSpec, functions: dict, points, n_reps: int, seed: int,
                      threads: int | None = 1, role: tuple = ()) -> dict:
    """Estimate Psi for every function in `functions` at every point, sharing
    one campaign drawn on the coarsest window the battery needs.

    Returns {(function_id, point): EstimateWithError}.
    """
    window = required_window(spec, functions.values(), points)
    campaign = run_campaign(ProcessSource(spec, window), seed, n_reps, threads, role)
    out = {}
    # through the public names: the per-layer trace counts calls to them
    estimate = estimate_scaled_laplace if spec.is_scale_family else estimate_shift_laplace
    for fid, f in functions.items():
        for p in points:
            out[(fid, p)] = estimate(campaign, f, p)
    return out


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
    if dec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-carrier decoration")
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
    values, probs = dec._count_arrays
    return float(np.dot(probs, one ** values.astype(np.float64)))


def psi_decoration_scale(dec: DecorationSpec, f: TestFunction, s: float) -> float:
    """E[exp(-integral of u -> f(s u) against one decoration)], s > 0."""
    return _psi_decoration(SCALE, dec, f, s)


def psi_decoration_shift(dec: DecorationSpec, g: ShiftTestFunction, t: float) -> float:
    """E[exp(-integral of q -> g(q + t) against one decoration)]."""
    return _psi_decoration(SHIFT, dec, g, t)


# -- quadrature -------------------------------------------------------------------

_QUAD_LIMIT = 400


def _quad_with_corners(fn, lo: float, hi: float, corners) -> tuple[float, float]:
    # integrate piecewise-smooth segments separately; corners mark kinks
    cuts = [lo] + sorted({c for c in corners if lo < c < hi}) + [hi]
    total = 0.0
    err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b <= a:
            continue
        v, e = _integrate.quad(fn, a, b, limit=_QUAD_LIMIT)
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
    if not (rate > 0.0 and math.isfinite(rate)):
        raise DomainError(f"{cr.rate_key} must be finite and > 0")
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
    [log(inner_radius / bound), log(outer_radius / min_abs)] split at every
    log(|knot| / atom modulus).
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

def _predict(cr, quadrature, mixture, spec: ProcessSpec, f, p) -> Prediction:
    """Psi(f | p) at one point or an array of points: the CDF of the carrier's
    extreme law with kappa set to the constant, integrated once per call."""
    if spec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-family spec")
    points = np.asarray(p, dtype=np.float64)
    if not all(cr.point_ok(x) for x in points.ravel()):
        raise DomainError(cr.point_error)
    const = quadrature(spec.alpha, spec.decoration, f)
    law = mixture(spec.alpha, const.value, getattr(spec, f"{cr.name}_law"))
    # d/dc of E exp(-weight c) is bounded by E[weight]
    return Prediction(law.cdf(points), const.error_bound * law._mean_weight(points))


def predict_scaled_laplace(spec: ProcessSpec, f: TestFunction, y) -> Prediction:
    """Closed-form Psi(f | y) = E_W[exp(-y^-alpha W^alpha c_f)] with error bound,
    at one point y or at every point of an array."""
    return _predict(SCALE, cf_quadrature, FrechetMixture, spec, f, y)


def predict_shift_laplace(spec: ProcessSpec, g: ShiftTestFunction, u) -> Prediction:
    """Closed-form Psi(g | u) = E_U[exp(-e^{-c(u - U)} kappa_g)] with error bound,
    at one point u or at every point of an array."""
    return _predict(SHIFT, kappa_quadrature, GumbelMixture, spec, g, u)


# -- extreme-value laws -------------------------------------------------------------

_EXPECT_POINTS = 1 << 14  # points per expect call, bounding its (nodes x points) arrays


class _ExtremeLaw:
    """P(extreme <= p) = E_W[exp(-weight(p, W) kappa)] over the global law W,
    written once against the carrier ``_cr``. A subclass names its rate field
    by the carrier's rate key and its global-law field ``<carrier>_law``."""

    _cr = None

    def _law(self):
        law = getattr(self, f"{self._cr.name}_law")
        return self._cr.law.deterministic(self._cr.identity) if law is None else law

    def _expect(self, p, h):
        """E_W[h(weight(p, W))] at every point of p, many points per `expect`
        call; 0 for points without a log coordinate (p <= 0 on the scale
        carrier), nan for nan points. A float for a scalar p."""
        cr, rate, law = self._cr, getattr(self, self._cr.rate_key), self._law()
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
        law = self._law()
        if law.kind != "deterministic":
            raise DomainError("quantiles are closed-form only for a deterministic global law")
        q = np.asarray(q, dtype=np.float64)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise DomainError("quantile levels must lie in (0, 1)")
        return self._cr.quantile(getattr(self, self._cr.rate_key), self.kappa, law.value,
                                 -np.log(q))

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse CDF (deterministic global law only)."""
        rng = make_generator(int(seed), ROLE_SCALAR, 1)
        return self.ppf(rng.random(int(n)))


@dataclass(frozen=True)
class FrechetMixture(_ExtremeLaw):
    """P(maxmod <= y) = E_W[exp(-y^-alpha W^alpha kappa)]; Frechet when W is constant."""

    alpha: float
    kappa: float
    scale_law: ScaleLaw | None = None

    _cr = SCALE


@dataclass(frozen=True)
class GumbelMixture(_ExtremeLaw):
    """P(max location <= t) = E_U[exp(-e^{-c(t - U)} kappa)]; Gumbel when U is constant."""

    c: float
    kappa: float
    shift_law: ShiftLaw | None = None

    _cr = SHIFT


def _extreme_law(cr, mixture, spec: ProcessSpec):
    if spec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-family spec")
    rate = spec.alpha
    # kappa = (rho / rate) E[e^{rate v_max}], the tail mass of rho e^{-rate v} dv
    # beyond -v_max; dividing by rate / rho (1 or c) keeps E exact on the scale side
    kappa = spec.decoration._extreme_moment(rate) / (rate / cr.intensity(rate))
    return mixture(rate, kappa, getattr(spec, f"{cr.name}_law"))


def maxmod_law(spec: ProcessSpec) -> FrechetMixture:
    """Analytic law of the largest atom modulus of a scale-family process."""
    return _extreme_law(SCALE, FrechetMixture, spec)


def max_location_law(spec: ProcessSpec) -> GumbelMixture:
    """Analytic law of the largest atom of a shift-family process.

    kappa = E[e^{c M_Q}] / c, with M_Q the largest atom of one decoration; the
    1/c reflects the e^{-cx} dx intensity convention.
    """
    return _extreme_law(SHIFT, GumbelMixture, spec)


# -- canonical batteries -------------------------------------------------------------

default_y_grid = (0.5, 1.0, 2.0, 4.0)
default_u_grid = (-math.log(2.0), 0.0, math.log(2.0), math.log(4.0))


def default_battery() -> dict:
    """Five scale-carrier test functions covering tents, steps, bands and maxima."""
    return {
        "tent_lo": tent(0.5, 1.0, 2.0),
        "tent_hi": tent(2.0, 4.0, 8.0),
        "step_ln2": indicator_approx(math.log(2.0), edge=1.0, outer=1e6, ramp=1e-6),
        "band_sym": indicator_approx(1.0, edge=0.7, outer=5.0, ramp=1e-3, symmetric=True),
        "mm_50": maxmod_indicator(50.0, edge=1.0, outer=1e6, ramp=1e-6),
    }


def shift_battery() -> dict:
    """Shift-carrier counterpart of the default battery."""
    return {
        "gtent_lo": shift_tent(-math.log(2.0), 0.0, math.log(2.0)),
        "gtent_hi": shift_tent(math.log(2.0), math.log(4.0), math.log(8.0)),
        "gstep_ln2": shift_indicator_approx(math.log(2.0), edge=0.0, outer=14.0, ramp=1e-6),
        "gmax_50": shift_indicator_approx(50.0, edge=0.0, outer=14.0, ramp=1e-6),
    }


def tent_family_bias_bound(law: FrechetMixture, n: int, y: float, outer: float = 1e8) -> float:
    """Bound on |Psi(f_n | y) - P(maxmod <= y)| for the plateau family member n.

    Three contributions: the plateau is n rather than infinity (mass e^-n),
    atoms falling on the ramp (y, y(1 + 1/n)], and atoms beyond the outer
    cutoff y * outer (tail mass kappa-weighted).
    """
    ramp = float(law.cdf(y * (1.0 + 1.0 / n)) - law.cdf(y))
    tail = law.kappa * law._mean_weight(y * outer)
    return math.exp(-float(n)) + ramp + tail
