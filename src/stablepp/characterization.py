"""Statistical verification of the structural laws of the sampled processes.

The tests here check, from simulation output alone, the properties that define
the scale families: strict alpha-stability of the superposition law, the
Frechet-mixture form of the maximum modulus, regular variation of its upper
tail, and the one-parameter scale family traced out by the Laplace functional
over any fixed test function.

Every report is a deterministic function of (inputs, seed). Each sub-check
records the null hypothesis it tests; a report passes iff no sub-check is
rejected after Bonferroni correction over the sub-checks that carry p-values.

The finite-intensity assumption on the observation region is not testable from
finitely many replicas; the sampler enforces a finite Poisson mean on every
window it draws, and reports echo the observed mean count as a diagnostic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, stats

from .errors import DomainError
from .functionals import (
    FrechetMixture,
    battery_estimates,
    default_battery,
    default_y_grid,
    estimate_scaled_laplace,
    maxmod_law,
)
from .sampler import (
    ProcessSource,
    ProcessSpec,
    ScaledSource,
    SuperposeSource,
    maxmod_samples,
    run_campaign,
)

__all__ = [
    "SubCheck",
    "TestReport",
    "TailIndexEstimate",
    "ks_censored",
    "censor_window",
    "stability_test",
    "maxmod_law_test",
    "tail_index_estimate",
    "fit_scale_template",
    "scale_unique_support_test",
]

# distinct sampling roles so campaigns compared against each other never share
# a random stream
_ROLE_STAB_LHS = (10,)
_ROLE_STAB_RHS = (11,)
_ROLE_MAXLAW = (12,)
_ROLE_SUPPORT = (13,)


@dataclass(frozen=True)
class SubCheck:
    """One named hypothesis check inside a report."""

    name: str
    null_hypothesis: str
    statistic: float
    p_value: float | None
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "null_hypothesis": self.null_hypothesis,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "passed": self.passed,
            "note": self.note,
        }


@dataclass(frozen=True)
class TestReport:
    """Outcome of one verification test.

    `params` echoes the configuration the test actually ran with (tolerances,
    derived windows, Bonferroni divisor, spec echo) so the run is reproducible
    from the report alone.
    """

    __test__ = False  # pytest must not collect this as a test class

    test_name: str
    passed: bool
    level: float
    n_reps: int
    seed: int
    subchecks: tuple
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "test_name": self.test_name,
            "passed": self.passed,
            "level": self.level,
            "n_reps": self.n_reps,
            "seed": self.seed,
            "subchecks": [s.to_json_dict() for s in self.subchecks],
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def csv_header() -> str:
        return "test_name,subcheck,statistic,p_value,passed"

    def csv_rows(self):
        rows = []
        for s in self.subchecks:
            p = "" if s.p_value is None else repr(s.p_value)
            rows.append(f"{self.test_name},{s.name},{s.statistic!r},{p},{int(s.passed)}")
        return rows


@dataclass(frozen=True)
class TailIndexEstimate:
    """Hill estimate of the upper-tail regular-variation index."""

    alpha_hat: float
    k: int
    ci_half_width: float
    n_samples: int

    def covers(self, alpha: float) -> bool:
        return abs(self.alpha_hat - alpha) <= self.ci_half_width


# -- censored one-sample KS --------------------------------------------------------


def _bisect(fn, q: float) -> tuple:
    """(lo, hi) around the solution of fn(v) = q, fn increasing on v > 0.

    Brackets from v = 1 by factors of 4, then halves the bracket 200 times;
    fn(lo) <= q throughout.
    """
    hi = 1.0
    while fn(hi) < q:
        hi *= 4.0
        if hi > 1e300:
            raise DomainError(f"the function stays below {q} over the float range")
    lo = hi
    while fn(lo) > q:
        lo /= 4.0
        if lo < 1e-300:
            raise DomainError(f"the function does not fall to {q} toward the origin")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) > q:
            hi = mid
        else:
            lo = mid
    return lo, hi


def censor_window(law: FrechetMixture, mass: float = 1e-6) -> float:
    """Window below which the law leaves at most `mass` probability.

    Bisection on the CDF; the returned w satisfies cdf(w) <= mass.
    """
    if not (0.0 < mass < 1.0):
        raise DomainError("censored mass must lie in (0, 1)")
    return _bisect(law.cdf, mass)[0]


def ks_censored(samples: np.ndarray, cdf, window: float):
    """One-sample KS distance over [window, inf) for samples censored below window.

    Samples at or below the window only contribute their count; their exact
    values are not needed because the empirical CDF is known exactly on the
    comparison region. The returned p-value uses the full-sample KS null
    distribution and is therefore conservative.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n = samples.size
    if n == 0:
        raise DomainError("KS needs at least one sample")
    xs = np.sort(samples[samples > window])
    k0 = n - xs.size
    d = abs(k0 / n - float(cdf(window)))
    if xs.size:
        fx = np.asarray(cdf(xs), dtype=np.float64)
        ranks = k0 + np.arange(xs.size)
        d = max(
            d,
            float(np.max(np.abs((ranks + 1) / n - fx))),
            float(np.max(np.abs(ranks / n - fx))),
        )
    return d, float(stats.kstwo.sf(d, n))


# -- strict stability --------------------------------------------------------------


def _z_subcheck(name: str, h0: str, a, b) -> SubCheck:
    """Two-sample z-test from two EstimateWithError values."""
    se = math.hypot(a.std_error, b.std_error)
    diff = a.value - b.value
    if se == 0.0:
        # both estimates exact; equal means the null is satisfied identically
        return SubCheck(name, h0, 0.0, 1.0 if diff == 0.0 else 0.0, diff == 0.0,
                        "degenerate: zero standard error on both sides")
    z = diff / se
    return SubCheck(name, h0, z, 2.0 * float(stats.norm.sf(abs(z))), True)


def stability_test(
    spec: ProcessSpec,
    b1: float,
    b2: float,
    battery=None,
    n_reps: int = 100_000,
    level: float = 0.01,
    seed: int = 0,
    rhs_scale_factor: float = 1.0,
    threads: int | None = 1,
) -> TestReport:
    """Check S_b1 N1 + S_b2 N2 =d S_(b1^a+b2^a)^(1/a) N by simulation.

    The left side superposes two independently sampled scaled copies of the
    process; the right side scales a single independent copy by the stability
    exponent combination (times `rhs_scale_factor`, which is 1 under the null
    and can be moved off 1 as a deliberate negative control). Both sides are
    compared through the scaled-Laplace battery (two-sample z-tests) and a
    two-sample KS test on maximum moduli, Bonferroni-corrected together.

    `battery` is a sequence of (test function, y) pairs; by default the module
    battery crossed with the default y grid.
    """
    if not spec.is_scale_family:
        raise DomainError("stability is a scale-carrier property")
    law = spec.effective_law()
    if law.kind != "deterministic":
        raise DomainError(
            "stability holds for a deterministic global dilation; "
            "a random dilation mixes the stable laws"
        )
    for b in (b1, b2):
        if not (b > 0.0 and math.isfinite(b)):
            raise DomainError("scaling factors must be finite and > 0")
    if not (rhs_scale_factor > 0.0 and math.isfinite(rhs_scale_factor)):
        raise DomainError("rhs_scale_factor must be finite and > 0")
    if battery is None:
        battery = [(f, y) for f in default_battery().values() for y in default_y_grid]
    pairs = [(f, float(y)) for f, y in battery]
    if not pairs:
        raise DomainError("the battery must contain at least one (function, y) pair")

    alpha = spec.alpha
    b_rhs = (b1 ** alpha + b2 ** alpha) ** (1.0 / alpha) * rhs_scale_factor
    finite = [y * f.inner_radius for f, y in pairs if not f.is_zero]
    if not finite:
        raise DomainError("the battery must contain a nonzero function")
    # a hair finer than the tightest requirement so scaled-window rounding
    # cannot trip the estimate precondition
    w_cmp = min(finite) * (1.0 - 1e-9)

    lhs_src = SuperposeSource(
        ScaledSource(ProcessSource(spec, w_cmp / b1), b1),
        ScaledSource(ProcessSource(spec, w_cmp / b2), b2),
    )
    rhs_src = ScaledSource(ProcessSource(spec, w_cmp / b_rhs), b_rhs)
    lhs = run_campaign(lhs_src, seed, n_reps, threads, role=_ROLE_STAB_LHS)
    rhs = run_campaign(rhs_src, seed, n_reps, threads, role=_ROLE_STAB_RHS)

    checks = []
    for i, (f, y) in enumerate(pairs):
        el = estimate_scaled_laplace(lhs, f, y)
        er = estimate_scaled_laplace(rhs, f, y)
        checks.append(_z_subcheck(
            f"laplace_{i:02d}_y_{y:g}",
            "both sides share the scaled-Laplace value at (f, y)",
            el, er,
        ))

    wb = max(lhs.window, rhs.window)
    mm_l = lhs.maxmods()
    mm_r = rhs.maxmods()
    exc_l = mm_l[mm_l > wb]
    exc_r = mm_r[mm_r > wb]
    if min(exc_l.size, exc_r.size) < 10:
        checks.append(SubCheck(
            "maxmod_ks", "maximum moduli above the window share a law",
            0.0, 1.0, True, "too few exceedances to compare"))
    else:
        ks = stats.ks_2samp(exc_l, exc_r, method="asymp")
        checks.append(SubCheck(
            "maxmod_ks", "maximum moduli above the window share a law",
            float(ks.statistic), float(ks.pvalue), True))

    m = len(checks)
    corrected = []
    for s in checks:
        rejected = s.p_value is not None and s.p_value < level / m
        corrected.append(SubCheck(s.name, s.null_hypothesis, s.statistic,
                                  s.p_value, s.passed and not rejected, s.note))
    passed = all(s.passed for s in corrected)
    return TestReport(
        "stability", passed, level, int(n_reps), int(seed), tuple(corrected),
        params={
            "spec": spec.to_config_dict(),
            "b1": b1, "b2": b2, "rhs_scale": b_rhs,
            "rhs_scale_factor": rhs_scale_factor,
            "window": w_cmp, "maxmod_censor": wb,
            "bonferroni_divisor": m,
            "mean_count_lhs": float(np.mean(lhs.counts())),
            "mean_count_rhs": float(np.mean(rhs.counts())),
        },
    )


# -- maximum-modulus law -----------------------------------------------------------


def maxmod_law_test(
    spec: ProcessSpec,
    n_reps: int = 10_000,
    seed: int = 0,
    level: float = 0.01,
    censor_mass: float = 1e-6,
    threads: int | None = 1,
) -> TestReport:
    """KS test of simulated maximum moduli against the analytic mixture law.

    The sampling window is refined until the analytic law leaves at most
    `censor_mass` probability below it, so censoring cannot move the KS
    distance at the resolution tested.
    """
    law = maxmod_law(spec)
    window = min(censor_window(law, censor_mass), spec.window)
    mm = maxmod_samples(spec, n_reps, seed, window=window, threads=threads,
                        role=_ROLE_MAXLAW)
    d, p = ks_censored(mm, law.cdf, window)
    sub = SubCheck(
        "maxmod_ks",
        "maximum modulus follows the analytic Frechet mixture",
        d, p, p >= level,
    )
    return TestReport(
        "maxmod_law", sub.passed, level, int(n_reps), int(seed), (sub,),
        params={
            "spec": spec.to_config_dict(),
            "kappa": law.kappa,
            "window": window,
            "censor_mass": censor_mass,
            "mean_exceedances": float(np.mean(mm > window)),
        },
    )


# -- tail regular variation --------------------------------------------------------


def tail_index_estimate(maxmod_samples, k: int | None = None) -> TailIndexEstimate:
    """Hill estimator of the tail index on the top-k order statistics.

    k defaults to floor(sqrt(n)). The confidence half-width is the asymptotic
    95% normal width 1.96 * alpha_hat / sqrt(k).
    """
    x = np.asarray(maxmod_samples, dtype=np.float64)
    if x.ndim != 1:
        x = x.ravel()
    n = x.size
    if n < 100:
        raise DomainError("tail estimation needs at least 100 samples")
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("samples must be positive and finite")
    if k is None:
        k = int(math.isqrt(n))
    k = int(k)
    if k < 10:
        raise DomainError("k must be at least 10")
    if k >= n:
        raise DomainError("k must be smaller than the sample count")
    xs = np.sort(x)
    threshold = xs[n - k - 1]
    spacings = np.log(xs[n - k:]) - math.log(threshold)
    mean_spacing = float(np.mean(spacings))
    if mean_spacing <= 0.0:
        raise DomainError("degenerate upper tail: zero log-spacings")
    alpha_hat = 1.0 / mean_spacing
    return TailIndexEstimate(alpha_hat, k, 1.96 * alpha_hat / math.sqrt(k), n)


# -- scale-unique support ----------------------------------------------------------


def _template_inverse(template, q: float) -> float:
    """Solve template(v) = q for v by bisection; template is increasing."""
    lo, hi = _bisect(template, q)
    return 0.5 * (lo + hi)


def fit_scale_template(y_grid, values, std_errors, template):
    """Least-squares fit of the curve (y, value) to template(y * c) over c > 0.

    Returns (c_hat, residual_sup, pooled_se). The objective is summed squared
    deviation on the given grid; the reported residual is in sup norm.
    """
    ys = np.asarray(y_grid, dtype=np.float64)
    vs = np.asarray(values, dtype=np.float64)
    ses = np.asarray(std_errors, dtype=np.float64)
    if ys.size != vs.size or ys.size < 2:
        raise DomainError("the fit needs at least two grid points")

    # anchor the search at the grid point nearest the distribution median,
    # where the template is steepest and the inversion best conditioned
    mid = int(np.argmin(np.abs(vs - 0.5)))
    q = min(max(float(vs[mid]), 1e-9), 1.0 - 1e-9)
    c0 = _template_inverse(template, q) / float(ys[mid])

    def objective(log_c: float) -> float:
        c = math.exp(log_c)
        tv = np.asarray(template(ys * c), dtype=np.float64)
        return float(np.sum((vs - tv) ** 2))

    res = optimize.minimize_scalar(
        objective, bounds=(math.log(c0) - 7.0, math.log(c0) + 7.0),
        method="bounded", options={"xatol": 1e-12},
    )
    c_hat = math.exp(float(res.x))
    fitted = np.asarray(template(ys * c_hat), dtype=np.float64)
    residual_sup = float(np.max(np.abs(vs - fitted)))
    pooled_se = float(np.sqrt(np.mean(ses ** 2)))
    return c_hat, residual_sup, pooled_se


def scale_unique_support_test(
    spec: ProcessSpec,
    battery=None,
    y_grid=None,
    n_reps: int = 100_000,
    seed: int = 0,
    threads: int | None = 1,
) -> TestReport:
    """Check that every test function traces the same scale family of curves.

    For each f in the battery the estimated curve y -> Psi(f || y) is fitted
    to template(y * c) by one-dimensional least squares. The template is the
    analytic maximum-modulus mixture law when the decoration has computable
    moments, and the pure Frechet CDF when the global dilation is
    deterministic. A sub-check passes iff the sup-norm residual stays below 3
    pooled standard errors; identically zero functions are excluded as
    trivial.
    """
    if not spec.is_scale_family:
        raise DomainError("scale-unique support is a scale-carrier property")
    if battery is None:
        battery = list(default_battery().values())
    battery = list(battery)
    if y_grid is None:
        y_grid = default_y_grid
    ys = [float(y) for y in y_grid]
    if len(ys) < 2:
        raise DomainError("the y grid needs at least two points")

    try:
        law = maxmod_law(spec)
        template = law.cdf
        template_name = "analytic maxmod mixture"
    except DomainError:
        if spec.effective_law().kind != "deterministic":
            raise DomainError(
                "no analytic template: the decoration has no computable "
                "moment and the global dilation is random"
            )
        template = FrechetMixture(spec.alpha, 1.0).cdf
        template_name = "frechet"

    functions = {f"f{i:02d}": f for i, f in enumerate(battery)}
    estimates = battery_estimates(spec, functions, ys, n_reps, seed,
                                  threads=threads, role=_ROLE_SUPPORT)

    checks = []
    fitted_cs = {}
    for fid, f in functions.items():
        if f.is_zero:
            checks.append(SubCheck(
                f"fit_{fid}", "curve lies in the template's scale family",
                0.0, None, True, "identically zero function excluded as trivial"))
            continue
        vals = [estimates[(fid, y)].value for y in ys]
        ses = [estimates[(fid, y)].std_error for y in ys]
        c_hat, residual, pooled = fit_scale_template(ys, vals, ses, template)
        fitted_cs[fid] = c_hat
        checks.append(SubCheck(
            f"fit_{fid}", "curve lies in the template's scale family",
            residual, None, residual < 3.0 * pooled,
            f"fitted c = {c_hat:.6g}, pooled se = {pooled:.3g}"))

    passed = all(s.passed for s in checks)
    return TestReport(
        "scale_unique_support", passed, 0.0, int(n_reps), int(seed), tuple(checks),
        params={
            "spec": spec.to_config_dict(),
            "y_grid": ys,
            "template": template_name,
            "fitted_c": fitted_cs,
        },
    )
