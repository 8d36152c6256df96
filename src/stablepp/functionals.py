"""Laplace-functional estimation and its closed-form counterparts.

For a scale-family process and a test function f, the object of interest is

    Psi(f | y) = E[exp(-integral of x -> f(x / y) against the process)],

and its shift-family twin uses x -> f(x - u). The key identity behind every
prediction here: conditioning on the global dilation W, the decorated Poisson
structure gives

    Psi(f | y) = E_W[exp(-y^-alpha W^alpha c_f)],
    c_f = integral over (0, inf) of (1 - psi_P(f | s)) alpha s^-alpha-1 ds,

where psi_P(f | s) = E[exp(-integral of u -> f(s u) against one decoration)].
Shift families satisfy the same formula in exponential clothing:

    Psi(g | u) = E_U[exp(-e^{-c (u - U)} kappa_g)],
    kappa_g = integral over R of (1 - psi_Q(g | t)) e^{-c t} dt.

Setting f to (a ramp approximation of) infinity times the indicator of
{|x| > 1} collapses Psi to the law of the largest atom modulus, a mixture of
Frechet distributions; on the shift carrier it is a mixture of Gumbels.

Monte Carlo estimates carry standard errors; quadrature predictions carry
rigorous error bounds, so the two can be compared honestly.
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
    """Deterministic prediction with a rigorous error bound."""

    value: float
    error_bound: float


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

def _exp_neg_pl_mean(f, anchor: np.ndarray, lo: float, hi: float) -> float:
    """Mean of exp(-f(a)) over a ~ Uniform(lo, hi) composed with `anchor` map.

    `anchor` is the sorted array of points where f changes slope, already in
    the uniform variable's coordinates. Piecewise linearity makes each piece
    integrable in closed form.
    """
    cuts = np.concatenate([[lo], anchor[(anchor > lo) & (anchor < hi)], [hi]])
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        va, vb = float(f(a)), float(f(b))
        width = b - a
        if va == vb:
            total += width * math.exp(-va)
        else:
            total += width * (math.exp(-va) - math.exp(-vb)) / (vb - va)
    return total / (hi - lo)


def _psi_decoration(cr, dec: DecorationSpec, f, p: float) -> float:
    if dec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-carrier decoration")
    fp = cr.compose(f, p)
    if dec.kind == "dirac":
        return math.exp(-sum(m * fp(a) for a, m in dec.atoms))
    if dec.kind == "table":
        total = 0.0
        norm = sum(q for _, q in dec.entries)
        for atoms, q in dec.entries:
            total += (q / norm) * math.exp(-sum(m * fp(a) for a, m in atoms))
        return total
    loc = dec.location
    if loc.kind == "table":
        v, q = loc._table
        one = float(np.dot(q, np.exp(-fp(v))))
    else:
        lo, hi = loc.bounds()
        one = _exp_neg_pl_mean(fp, cr.inverse(p, f.knots_x), lo, hi)
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


def cf_quadrature(alpha: float, dec: DecorationSpec, f: TestFunction) -> Prediction:
    """The scale constant c_f by adaptive quadrature, with its error bound.

    c_f = integral over (0, inf) of (1 - psi_P(f | s)) alpha s^{-alpha-1} ds;
    the integrand vanishes outside [inner_radius / bound, outer_radius / min_abs].
    """
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise DomainError("alpha must be finite and > 0")
    if f.is_zero:
        return Prediction(0.0, 0.0)
    lo = f.inner_radius / dec.bound
    hi = f.outer_radius / dec.min_abs
    if dec.kind == "dirac":
        mods = {abs(a) for a, _ in dec.atoms}
    elif dec.kind == "table":
        mods = {abs(a) for atoms, _ in dec.entries for a, _ in atoms}
    elif dec.location.kind == "table":
        mods = {abs(v) for v in dec.location.values}
    else:
        blo, bhi = dec.location.bounds()
        mods = {abs(blo), abs(bhi)}
    corners = {
        math.log(x / m) for x in np.abs(f.knots_x) if x > 0.0 for m in mods if m > 0.0
    }

    # substitute s = e^v: the domain shrinks from possibly many decades to a
    # a few units and the tail weight becomes a plain exponential
    def integrand(v: float) -> float:
        return (1.0 - psi_decoration_scale(dec, f, math.exp(v))) * alpha * math.exp(-alpha * v)

    val, err = _quad_with_corners(integrand, math.log(lo), math.log(hi), corners)
    return Prediction(val, err)


def kappa_quadrature(c: float, dec: DecorationSpec, g: ShiftTestFunction) -> Prediction:
    """The shift constant kappa_g = integral of (1 - psi_Q(g | t)) e^{-c t} dt."""
    if not (c > 0.0 and math.isfinite(c)):
        raise DomainError("the rate must be finite and > 0")
    if g.is_zero:
        return Prediction(0.0, 0.0)
    if dec.kind == "dirac":
        amin = min(a for a, _ in dec.atoms)
    elif dec.kind == "table":
        amin = min(min(a for a, _ in atoms) for atoms, _ in dec.entries)
    else:
        amin = dec.location.bounds()[0]
    lo = g.support_low - dec.bound
    hi = g.support_high - amin
    if dec.kind == "dirac":
        locs = {a for a, _ in dec.atoms}
    elif dec.kind == "table":
        locs = {a for atoms, _ in dec.entries for a, _ in atoms}
    elif dec.location.kind == "table":
        locs = set(dec.location.values)
    else:
        locs = set(dec.location.bounds())
    corners = {x - a for x in g.knots_x for a in locs}

    def integrand(t: float) -> float:
        return (1.0 - psi_decoration_shift(dec, g, t)) * math.exp(-c * t)

    val, err = _quad_with_corners(integrand, lo, hi, corners)
    return Prediction(val, err)


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

def _predict(cr, quadrature, spec: ProcessSpec, f, p: float) -> Prediction:
    if spec.carrier != cr.name:
        raise DomainError(f"expected a {cr.name}-family spec")
    if not cr.point_ok(p):
        raise DomainError(cr.point_error)
    const = quadrature(spec.alpha, spec.decoration, f)
    law, a = spec.effective_law(), spec.alpha
    value = law.expect(lambda w: np.exp(-cr.weight(a, p, w) * const.value))
    # d/dc of E exp(-weight c) is bounded by E[weight]
    return Prediction(float(value), const.error_bound * cr.sensitivity(law, a, p))


def predict_scaled_laplace(spec: ProcessSpec, f: TestFunction, y: float) -> Prediction:
    """Closed-form Psi(f | y) = E_W[exp(-y^-alpha W^alpha c_f)] with error bound."""
    return _predict(SCALE, cf_quadrature, spec, f, y)


def predict_shift_laplace(spec: ProcessSpec, g: ShiftTestFunction, u: float) -> Prediction:
    """Closed-form Psi(g | u) = E_U[exp(-e^{-c(u - U)} kappa_g)] with error bound."""
    return _predict(SHIFT, kappa_quadrature, spec, g, u)


# -- extreme-value laws -------------------------------------------------------------

_EXPECT_POINTS = 1 << 14  # points per expect call, bounding its (nodes x points) arrays


def _expect_at(law, points: np.ndarray, h) -> np.ndarray:
    """E[h(value, x)] over `law` at every x in `points`; h maps the law's (k,)
    nodes and m points to a (k, m) array."""
    parts = [law.expect(lambda v: h(v, points[i:i + _EXPECT_POINTS]))
             for i in range(0, points.size, _EXPECT_POINTS)]
    return np.concatenate([np.zeros(0)] + parts)


@dataclass(frozen=True)
class FrechetMixture:
    """P(maxmod <= y) = E_W[exp(-y^-alpha W^alpha kappa)]; Frechet when W is constant."""

    alpha: float
    kappa: float
    scale_law: ScaleLaw | None = None

    def _law(self) -> ScaleLaw:
        return self.scale_law if self.scale_law is not None else ScaleLaw.deterministic(1.0)

    def cdf(self, y):
        """The CDF at every point of y, many points per `expect` call; 0 for y <= 0."""
        y = np.asarray(y, dtype=np.float64)
        flat = y.ravel()
        out = np.zeros(flat.shape)
        pos = flat > 0.0
        out[pos] = _expect_at(
            self._law(), flat[pos],
            lambda w, t: np.exp(-(t ** -self.alpha) * w[:, None] ** self.alpha * self.kappa))
        return float(out[0]) if y.ndim == 0 else out.reshape(y.shape)

    def ppf(self, q):
        """Quantiles; closed form requires a deterministic global dilation."""
        law = self._law()
        if law.kind != "deterministic":
            raise DomainError("quantiles are closed-form only for a deterministic dilation")
        q = np.asarray(q, dtype=np.float64)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise DomainError("quantile levels must lie in (0, 1)")
        return law.value * (self.kappa / -np.log(q)) ** (1.0 / self.alpha)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n i.i.d. draws by inverse CDF (deterministic dilation only)."""
        rng = make_generator(int(seed), ROLE_SCALAR, 1)
        return self.ppf(rng.random(int(n)))


@dataclass(frozen=True)
class GumbelMixture:
    """P(max location <= t) = E_U[exp(-e^{-c(t - U)} kappa)]; Gumbel when U is constant."""

    c: float
    kappa: float
    shift_law: ShiftLaw | None = None

    def _law(self) -> ShiftLaw:
        return self.shift_law if self.shift_law is not None else ShiftLaw.deterministic(0.0)

    def cdf(self, t):
        """The CDF at every point of t, many points per `expect` call."""
        t = np.asarray(t, dtype=np.float64)
        out = _expect_at(self._law(), t.ravel(),
                         lambda u, s: np.exp(-np.exp(-self.c * (s - u[:, None])) * self.kappa))
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def ppf(self, q):
        law = self._law()
        if law.kind != "deterministic":
            raise DomainError("quantiles are closed-form only for a deterministic translation")
        q = np.asarray(q, dtype=np.float64)
        if np.any((q <= 0.0) | (q >= 1.0)):
            raise DomainError("quantile levels must lie in (0, 1)")
        return law.value - np.log(-np.log(q) / self.kappa) / self.c

    def sample(self, n: int, seed: int) -> np.ndarray:
        rng = make_generator(int(seed), ROLE_SCALAR, 1)
        return self.ppf(rng.random(int(n)))


def maxmod_law(spec: ProcessSpec) -> FrechetMixture:
    """Analytic law of the largest atom modulus of a scale-family process."""
    if not spec.is_scale_family:
        raise DomainError("expected a scale-family spec")
    kappa = spec.decoration.maxmod_moment(spec.alpha)
    return FrechetMixture(spec.alpha, kappa, spec.scale_law)


def max_location_law(spec: ProcessSpec) -> GumbelMixture:
    """Analytic law of the largest atom of a shift-family process.

    kappa = E[e^{c M_Q}] / c, with M_Q the largest atom of one decoration; the
    1/c reflects the e^{-cx} dx intensity convention.
    """
    if spec.is_scale_family:
        raise DomainError("expected a shift-family spec")
    c = spec.alpha
    dec = spec.decoration
    if dec.kind == "dirac":
        kappa = math.exp(c * max(a for a, _ in dec.atoms)) / c
    elif dec.kind == "table":
        norm = sum(p for _, p in dec.entries)
        kappa = sum(
            (p / norm) * math.exp(c * max(a for a, _ in atoms)) for atoms, p in dec.entries
        ) / c
    else:
        raise DomainError("no closed-form max law for random-atom decorations")
    return GumbelMixture(c, kappa, spec.shift_law)


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
    mean_walpha = law._law().expect(lambda w: w ** law.alpha)
    tail = law.kappa * mean_walpha * (y * outer) ** -law.alpha
    return math.exp(-float(n)) + ramp + tail
