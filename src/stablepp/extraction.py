"""Empirical recovery of the scale decoration from samples of the process.

The pipeline: condition the process on a large maximum modulus, divide the
realized modulus out, and what remains is a sample of the scale decoration,
independent of the (Pareto) modulus. The operations here perform that
rejection sampling, test the claimed radial law and the radial/angular
independence, estimate the maximum-modulus scale constant, and close the loop
by rebuilding the process from the extracted decoration samples and checking
it against the original through the Laplace battery.

Everything is a finite-threshold proxy for a weak limit. Tolerances in the
shipped tests come from the closed conditional forms available for
deterministic decorations, not from a general convergence rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import DomainError, StarvationError
from .characterization import SubCheck, TestReport, fit_scale_template
from .functionals import (
    FrechetMixture,
    battery_estimates,
    cf_quadrature,
    default_battery,
    default_y_grid,
    maxmod_law,
    predict_scaled_laplace,
)
from .point_measure import MeasureBatch, PointMeasure, tent
from .rng import ROLE_PERMUTE, make_generator
from .sampler import (
    BLOCK_SIZE,
    DecorationSpec,
    ProcessSource,
    ProcessSpec,
    run_campaign,
)

__all__ = [
    "ExtractionConfig",
    "ExtractionReport",
    "extract_decoration",
    "nstar_functional_check",
    "rebuild_process",
]

_ROLE_EXTRACT = 30
_ROLE_NSTAR = 31
_ROLE_REBUILD_A = 32
_ROLE_REBUILD_B = 33
_ROLE_CMAX = 34

_ATTEMPT_BATCH = 4 * BLOCK_SIZE
_CMAX_FIT_REPS = 100_000
_PERM_ENTRIES = 1 << 20  # bound on the entries of one permutation matrix


@dataclass(frozen=True)
class ExtractionConfig:
    """Parameters of the conditional extraction.

    threshold: modulus level the process is conditioned to exceed (>= 1).
    inner_radius: window of the normalized samples, in (0, 1); the process is
        sampled exactly on {|x| > inner_radius * threshold}.
    n_accepted: accepted-sample target (>= 100).
    max_attempts: cap on total attempted replicas before giving up.
    """

    threshold: float
    inner_radius: float
    n_accepted: int = 500
    max_attempts: int = 500_000

    def __post_init__(self):
        if not (self.threshold >= 1.0 and math.isfinite(self.threshold)):
            raise DomainError("the threshold must be finite and >= 1")
        if not (0.0 < self.inner_radius < 1.0):
            raise DomainError("the inner radius must lie in (0, 1)")
        if int(self.n_accepted) < 100:
            raise DomainError("at least 100 accepted samples are required")
        if int(self.max_attempts) < int(self.n_accepted):
            raise DomainError("max_attempts must be at least n_accepted")

    def to_config_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "inner_radius": self.inner_radius,
            "n_accepted": int(self.n_accepted),
            "max_attempts": int(self.max_attempts),
        }


@dataclass(frozen=True)
class ExtractionReport:
    """Everything the extraction produced, reproducible from (spec, config, seed).

    decorations hold the normalized accepted samples; each has maximum modulus
    exactly 1 because its atoms are divided by the realized modulus. radials
    are the corresponding modulus/threshold ratios.
    """

    spec: ProcessSpec
    config: ExtractionConfig
    seed: int
    decorations: tuple
    radials: np.ndarray
    pareto_ks: float
    pareto_p: float
    independence_p: float
    sensitivity_p: float
    c_max_hat: float
    attempts: int
    acceptance_rate: float
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_config_dict(),
            "config": self.config.to_config_dict(),
            "seed": self.seed,
            "n_decorations": len(self.decorations),
            "radials": [float(r) for r in self.radials],
            "pareto_ks": self.pareto_ks,
            "pareto_p": self.pareto_p,
            "independence_p": self.independence_p,
            "sensitivity_p": self.sensitivity_p,
            "c_max_hat": self.c_max_hat,
            "attempts": self.attempts,
            "acceptance_rate": self.acceptance_rate,
            "params": self.params,
        }

    def decoration_lines(self):
        """Decoration samples in the point-measure line format."""
        return MeasureBatch.of(self.decorations, PointMeasure).json_lines().splitlines()


def predicted_acceptance(spec: ProcessSpec, threshold: float) -> float:
    """Analytic P(maxmod > threshold) when the decoration moment is computable."""
    return 1.0 - float(maxmod_law(spec).cdf(threshold))


def _permutation_p(rng, a: np.ndarray, b: np.ndarray, n_perm: int = 999) -> float:
    """Two-sided permutation p-value for |Pearson correlation| of a against b.

    The n_perm permutations of b are drawn one at a time from rng and scored
    together as a (permutations x n) matrix. A permutation's score is the dot
    product of centred a with the permuted centred b: the norms of both stay
    the same under permutation, so scores order permutations as |r| does. A
    score within 1e-12 (in units of r) of the observed one counts as a tie,
    and ties count as hits, so the p-value does not hang on rounding.

    Degenerate inputs carry no dependence evidence and return 1.0 by
    convention: either side constant, or constant up to rounding (a spread
    within 1e-12 of its largest magnitude, as when an integral that is
    constant in exact arithmetic is rounded differently per sample).
    """
    if any(np.ptp(x) <= 1e-12 * np.max(np.abs(x)) for x in (a, b)):
        return 1.0
    ac, bc = a - a.mean(), b - b.mean()
    floor = abs(float(ac @ bc)) - 1e-12 * math.sqrt(float(ac @ ac) * float(bc @ bc))
    rows = max(1, _PERM_ENTRIES // b.size)  # permutations scored at a time
    hits = 0
    for done in range(0, n_perm, rows):
        perms = np.array([rng.permutation(b.size) for _ in range(min(rows, n_perm - done))])
        hits += int(np.count_nonzero(np.abs(bc[perms] @ ac) >= floor))
    return (1 + hits) / (n_perm + 1)


def _normalized(campaign, mm: np.ndarray, hit: np.ndarray, inner_radius: float) -> MeasureBatch:
    """The replicas `hit` of a campaign, each divided by its maximum modulus
    `mm` and restricted to {|x| > inner_radius}."""
    accepted = np.zeros(campaign.n_reps, dtype=bool)
    accepted[hit] = True
    rows = accepted[campaign.replica]
    rep = campaign.replica[rows]
    normalized = campaign.locations[rows] / mm[rep]
    keep = np.abs(normalized) > inner_radius
    return MeasureBatch(PointMeasure, normalized[keep], campaign.weights[rows][keep],
                        np.searchsorted(hit, rep[keep]), hit.size)


def _fit_c_max(spec: ProcessSpec, window: float, censored_frac: float,
               seed: int, threads) -> tuple:
    """Fit the empirical maxmod CDF to exp(-(c*v)^-alpha) over c.

    The extraction window sits far in the upper tail, where the CDF carries
    little information about the scale constant. A dedicated campaign is
    drawn instead, on a window placed near the bulk of the law using the
    censored fraction observed at the extraction window; the grid is taken
    from exceedance quantiles, where the censored empirical CDF is exact.
    """
    alpha = spec.alpha
    if censored_frac >= 0.4:
        # Frechet-form extrapolation: -log F(w) scales like w^-alpha, so this
        # window leaves roughly 35% of the law censored
        ratio = math.log(max(censored_frac, 1e-12)) / math.log(0.35)
        w_fit = max(window * ratio ** (1.0 / alpha), 1e-3 * window)
    else:
        w_fit = window
    campaign = run_campaign(ProcessSource(spec, w_fit), seed, _CMAX_FIT_REPS,
                            threads, role=(_ROLE_CMAX,))
    mm = campaign.maxmods()
    n = mm.size
    exc = np.sort(mm[mm > w_fit])
    if exc.size < 50:
        raise DomainError("too few exceedances to estimate the scale constant")
    grid = np.quantile(exc, np.linspace(0.05, 0.95, 10))
    k0 = n - exc.size
    fhat = (k0 + np.searchsorted(exc, grid, side="right")) / n
    se = np.sqrt(np.maximum(fhat * (1.0 - fhat), 1e-12) / n)

    c_hat, _, _ = fit_scale_template(grid, fhat, se, FrechetMixture(alpha, 1.0).cdf)
    return c_hat, w_fit


def extract_decoration(
    spec: ProcessSpec,
    config: ExtractionConfig,
    seed: int = 0,
    threads: int | None = 1,
) -> ExtractionReport:
    """Rejection-sample the process until enough replicas exceed the threshold,
    then normalize each accepted replica by its realized maximum modulus.

    Attempts run in fixed-size batches with a deterministic accept order
    (replica index within the batch sequence), so the report depends only on
    (spec, config, seed). Raises StarvationError when max_attempts replicas
    are exhausted first; the message carries the analytic acceptance rate when
    the decoration moment is computable, as a diagnostic for a threshold set
    too high.
    """
    if not spec.is_scale_family:
        raise DomainError("extraction runs on the scale carrier; transform first")
    y = config.threshold
    window = config.inner_radius * y
    src = ProcessSource(spec, window)

    accepted = []
    accepted_r = []
    all_maxmods = []
    attempted = 0
    batch_idx = 0
    n_found = 0
    target = int(config.n_accepted)
    while attempted < int(config.max_attempts):
        batch = min(_ATTEMPT_BATCH, int(config.max_attempts) - attempted)
        campaign = run_campaign(src, seed, batch, threads,
                                role=(_ROLE_EXTRACT, batch_idx))
        mm = campaign.maxmods()
        all_maxmods.append(mm)
        hit = np.flatnonzero(mm > y)
        accepted.append(_normalized(campaign, mm, hit, config.inner_radius))
        accepted_r.append(mm[hit] / y)
        n_found += hit.size
        attempted += batch
        batch_idx += 1
        if n_found >= target:
            break

    if n_found < target:
        try:
            rate = predicted_acceptance(spec, y)
            hint = f"; analytic acceptance rate is {rate:.3g}"
        except DomainError:
            hint = ""
        raise StarvationError(
            f"only {n_found} of {target} samples accepted after "
            f"{attempted} attempts{hint}"
        )

    decorations = MeasureBatch.concatenate(accepted, PointMeasure)[:target]
    radials = np.concatenate(accepted_r)[:target]
    maxmods = np.concatenate(all_maxmods)
    censored_frac = float(np.mean(maxmods <= window))

    ks = stats.kstest(radials, lambda u: 1.0 - np.asarray(u, float) ** -spec.alpha)
    counts = decorations.total_mass().astype(np.float64)
    f_sens = tent(config.inner_radius, 0.5 * (1.0 + config.inner_radius), 1.0)
    tents = decorations.integrals(f_sens)
    rng = make_generator(int(seed), ROLE_PERMUTE, _ROLE_EXTRACT)
    independence_p = _permutation_p(rng, radials, counts)
    sensitivity_p = _permutation_p(rng, radials, tents)

    c_max_hat, w_fit = _fit_c_max(spec, window, censored_frac, seed, threads)

    return ExtractionReport(
        spec=spec,
        config=config,
        seed=int(seed),
        decorations=tuple(decorations),
        radials=radials,
        pareto_ks=float(ks.statistic),
        pareto_p=float(ks.pvalue),
        independence_p=float(independence_p),
        sensitivity_p=float(sensitivity_p),
        c_max_hat=float(c_max_hat),
        attempts=attempted,
        acceptance_rate=n_found / attempted,
        params={"window": window, "n_batches": batch_idx, "c_max_fit_window": w_fit},
    )


# -- conditional functional above a high threshold ---------------------------------


def _affine_fit(alpha: float, xs: np.ndarray, values: np.ndarray, ses: np.ndarray):
    """Least squares of values ~ 1 - x^-alpha * beta; returns (beta, se, sup dev)."""
    a = xs ** -alpha
    denom = float(np.sum(a * a))
    beta = float(np.sum(a * (1.0 - values))) / denom
    beta_se = math.sqrt(float(np.sum(a * a * ses ** 2))) / denom
    dev = float(np.max(np.abs(values - (1.0 - a * beta))))
    return beta, beta_se, dev


def nstar_functional_check(
    spec: ProcessSpec,
    y_grid=(25.0, 100.0),
    battery=None,
    n_reps: int = 200_000,
    seed: int = 0,
    x_grid=(1.0, 2.0, 4.0),
    threads: int | None = 1,
) -> TestReport:
    """Check the affine form of the conditional scaled-Laplace functional.

    For each threshold y the process is conditioned on a maximum modulus above
    y and dilated by 1/y. The conditional Laplace value at x then has the
    exact finite-threshold form (Psi(f || x y) - F(y)) / (1 - F(y)) with F the
    maxmod CDF, which converges as y grows to 1 - x^-alpha * (c_f / kappa).
    Sub-checks compare the empirical values to the exact form at every (y, x),
    and the fitted affine coefficient at the largest y to the quadrature
    prediction. Battery functions must be supported in {|x| > 1}.
    """
    if not spec.is_scale_family:
        raise DomainError("the conditional functional lives on the scale carrier")
    ys = sorted(float(v) for v in y_grid)
    xs = np.asarray(sorted(float(v) for v in x_grid), dtype=np.float64)
    if not ys or xs.size < 2:
        raise DomainError("need at least one threshold and two evaluation points")
    if xs[0] < 1.0:
        raise DomainError("evaluation points must be >= 1")
    if battery is None:
        battery = [default_battery()["mm_50"]]
    for f in battery:
        if f.is_zero or f.inner_radius < 1.0:
            raise DomainError("battery supports must lie in {|x| > 1}")

    law = maxmod_law(spec)
    alpha = spec.alpha
    checks = []
    analytic_dev = {}
    beta_fit = {}
    beta_exact_limit = {}
    for yi, y in enumerate(ys):
        campaign = run_campaign(ProcessSource(spec, y), seed, n_reps, threads,
                                role=(_ROLE_NSTAR, yi))
        mm = campaign.maxmods()
        cond = mm > y
        n_acc = int(np.count_nonzero(cond))
        f_y = float(law.cdf(y))
        for fi, f in enumerate(battery):
            emp_vals, emp_ses, exact_vals = [], [], []
            pred = predict_scaled_laplace(spec, f, xs * y)
            for x, value, bound in zip(xs, pred.value.tolist(), pred.error_bound.tolist()):
                v = np.exp(-campaign.laplace_integrals(f, float(x) * y))[cond]
                emp = float(np.mean(v))
                se = float(np.std(v, ddof=1)) / math.sqrt(n_acc)
                exact = (value - f_y) / (1.0 - f_y)
                # the sample se cannot resolve mass the replicas never saw;
                # the Bernoulli bound at the hypothesized mean can
                se = max(se, math.sqrt(max(exact * (1.0 - exact), 0.0) / n_acc))
                tol = 3.0 * se + bound / (1.0 - f_y)
                emp_vals.append(emp)
                emp_ses.append(se)
                exact_vals.append(exact)
                checks.append(SubCheck(
                    f"cond_f{fi}_y{y:g}_x{x:g}",
                    "conditional Laplace value matches the exact finite-threshold form",
                    emp - exact, None, abs(emp - exact) <= tol,
                    f"tolerance {tol:.3g}, {n_acc} accepted"))
            emp_vals = np.asarray(emp_vals)
            emp_ses = np.asarray(emp_ses)
            exact_vals = np.asarray(exact_vals)
            b_emp, b_se, dev_emp = _affine_fit(alpha, xs, emp_vals, emp_ses)
            b_ex, _, dev_ex = _affine_fit(alpha, xs, exact_vals, np.zeros_like(xs))
            analytic_dev[(fi, y)] = dev_ex
            checks.append(SubCheck(
                f"affine_f{fi}_y{y:g}",
                "conditional values follow an affine form in x^-alpha",
                dev_emp, None, dev_emp <= dev_ex + 3.0 * float(np.max(emp_ses)),
                f"analytic deviation {dev_ex:.3g}"))
            if y == ys[-1]:
                beta_fit[fi] = (b_emp, b_se)
                beta_exact_limit[fi] = (b_ex, dev_ex)

    # limit coefficient: Psi(f||v) = E exp(-v^-a W^a c_f), so the affine
    # coefficient converges to c_f / kappa
    for fi, f in enumerate(battery):
        c_f = cf_quadrature(alpha, spec.decoration, f).value
        beta_inf = c_f / law.kappa
        b_emp, b_se = beta_fit[fi]
        b_ex, dev_ex = beta_exact_limit[fi]
        gap = abs(b_ex - beta_inf)
        checks.append(SubCheck(
            f"beta_f{fi}",
            "fitted affine coefficient matches the quadrature prediction",
            b_emp - beta_inf, None,
            abs(b_emp - beta_inf) <= 3.0 * b_se + gap,
            f"beta {b_emp:.4f}, limit {beta_inf:.4f}, finite-threshold gap {gap:.3g}"))

    passed = all(s.passed for s in checks)
    return TestReport(
        "nstar_functional", passed, 0.0, int(n_reps), int(seed), tuple(checks),
        params={
            "spec": spec.to_config_dict(),
            "y_grid": ys,
            "x_grid": [float(x) for x in xs],
            "analytic_affine_deviation": {f"f{k[0]}_y{k[1]:g}": v
                                          for k, v in analytic_dev.items()},
        },
    )


# -- closing the loop --------------------------------------------------------------


def rebuild_process(
    report: ExtractionReport,
    alpha: float,
    c_max_hat: float,
    n_reps: int = 20_000,
    seed: int = 0,
    battery=None,
    points=None,
    threads: int | None = 1,
) -> TestReport:
    """Rebuild the process from extracted decorations and compare batteries.

    The rebuilt process is scale-decorated with the empirical law over the
    extracted samples, each dilated by 1 / c_max_hat. Its scaled-Laplace
    battery is compared to the original spec's battery; a sub-check passes
    when the estimates agree within 3 pooled standard errors. The replica
    count should stay moderate: extraction contamination (threshold censoring
    and extra small atoms) is a fixed bias, and arbitrarily tight standard
    errors would resolve it.
    """
    if len(report.decorations) < 100:
        raise DomainError("the report must contain at least 100 decoration samples")
    if not (c_max_hat > 0.0 and math.isfinite(c_max_hat)):
        raise DomainError("c_max_hat must be finite and > 0")
    orig = report.spec
    if orig.effective_law().kind != "deterministic":
        raise DomainError(
            "rebuilding applies to a deterministic global dilation; a random "
            "dilation is not recoverable from decoration samples alone"
        )
    scaled = [m.scale(1.0 / c_max_hat) for m in report.decorations]
    rebuilt = ProcessSpec(
        "scdppp", float(alpha),
        DecorationSpec.table_from_measures(scaled),
        orig.window,
    )
    if battery is None:
        battery = default_battery()
    if points is None:
        points = default_y_grid
    est_a = battery_estimates(orig, battery, points, n_reps, seed,
                              threads=threads, role=(_ROLE_REBUILD_A,))
    est_b = battery_estimates(rebuilt, battery, points, n_reps, seed,
                              threads=threads, role=(_ROLE_REBUILD_B,))
    checks = []
    for (fid, p), ea in sorted(est_a.items()):
        eb = est_b[(fid, p)]
        pooled = math.hypot(ea.std_error, eb.std_error)
        diff = ea.value - eb.value
        checks.append(SubCheck(
            f"battery_{fid}_y_{p:g}",
            "rebuilt process shares the scaled-Laplace value at (f, y)",
            diff, None, abs(diff) <= 3.0 * pooled,
            f"pooled se {pooled:.3g}"))
    passed = all(s.passed for s in checks)
    return TestReport(
        "rebuild", passed, 0.0, int(n_reps), int(seed), tuple(checks),
        params={
            "original": orig.to_config_dict(),
            "c_max_hat": c_max_hat,
            "n_decorations": len(report.decorations),
        },
    )
