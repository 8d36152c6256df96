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

from .errors import DomainError, StarvationError
from .characterization import (SubCheck, TestReport, censor_window, fit_scale_template,
                               ks_censored, refuse_likely_shortfall)
from .functionals import (
    ExtremeLaw,
    battery_estimates,
    default_battery,
    default_points,
    extreme_law,
)
from .point_measure import MeasureBatch, tent
from .rng import ROLE_PERMUTE, make_generator
from .sampler import (
    BLOCK_SIZE,
    MAX_REPS,
    DecorationSpec,
    ProcessSource,
    ProcessSpec,
    maxmod_samples,
    run_campaign,
)

__all__ = [
    "ExtractionConfig",
    "ExtractionReport",
    "extract_decoration",
    "predicted_acceptance",
    "rebuild_process",
]

_ROLE_EXTRACT = 30
_ROLE_REBUILD_A = 32
_ROLE_REBUILD_B = 33
_ROLE_CMAX = 34

_ATTEMPT_BATCH = 4 * BLOCK_SIZE
_CMAX_FIT_REPS = 100_000
_N_PERM = 999  # permutations behind one permutation p-value
_PERM_ENTRIES = 1 << 20  # bound on the entries of one permutation matrix


@dataclass(frozen=True)
class ExtractionConfig:
    """Parameters of the conditional extraction.

    threshold: modulus level the process is conditioned to exceed (>= 1).
    inner_radius: window of the normalized samples, in (0, 1); the process is
        sampled exactly on {|x| > inner_radius * threshold}.
    n_accepted: accepted-sample target (>= 100).
    """

    threshold: float
    inner_radius: float
    n_accepted: int = 500

    def __post_init__(self):
        if not (self.threshold >= 1.0 and math.isfinite(self.threshold)):
            raise DomainError("the threshold must be finite and >= 1")
        if not (0.0 < self.inner_radius < 1.0):
            raise DomainError("the inner radius must lie in (0, 1)")
        if int(self.n_accepted) < 100:
            raise DomainError("at least 100 accepted samples are required")

    def to_config_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "inner_radius": self.inner_radius,
            "n_accepted": int(self.n_accepted),
        }


@dataclass(frozen=True)
class ExtractionReport:
    """Everything the extraction produced, reproducible from (spec, config, seed).

    decorations hold the normalized accepted samples, one measure each; each
    has maximum modulus exactly 1 because its atoms are divided by the
    realized modulus. radials are the corresponding modulus/threshold ratios.
    """

    spec: ProcessSpec
    config: ExtractionConfig
    seed: int
    decorations: MeasureBatch
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


def predicted_acceptance(spec: ProcessSpec, threshold: float) -> float:
    """Analytic P(extreme > threshold) from ``extreme_law``: the largest atom
    modulus of a scale-family spec, the largest atom of a shift-family one."""
    return 1.0 - float(extreme_law(spec).cdf(threshold))


def _permutation_p(rng, a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided permutation p-value for |Pearson correlation| of a against b.

    The _N_PERM permutations of centred b are the rows of (permutations x n)
    matrices of up to _PERM_ENTRIES entries, each drawn by one `rng.permuted`
    call and scored at once; every row takes the same shuffle draws whatever
    it holds. A permutation's score is the dot product of centred a with the
    permuted centred b: the norms of both stay the same under permutation,
    so scores order permutations as |r| does. A score within 1e-12 (in units
    of r) of the observed one counts as a tie, and ties count as hits, so the
    p-value does not hang on rounding.

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
    for done in range(0, _N_PERM, rows):
        shape = (min(rows, _N_PERM - done), b.size)
        perms = rng.permuted(np.broadcast_to(bc, shape), axis=1)
        hits += int(np.count_nonzero(np.abs(perms @ ac) >= floor))
    return (1 + hits) / (_N_PERM + 1)


def _normalized(campaign, mm: np.ndarray, hit: np.ndarray, inner_radius: float) -> tuple:
    """(locations, multiplicities, hit index) of the atoms of the replicas
    `hit` of a campaign, each divided by its maximum modulus `mm` and
    restricted to {|x| > inner_radius}; hit index k marks replica hit[k]."""
    accepted = np.zeros(campaign.n_reps, dtype=bool)
    accepted[hit] = True
    rows = accepted[campaign.replica]
    rep = campaign.replica[rows]
    normalized = campaign.locations[rows] / mm[rep]
    keep = np.abs(normalized) > inner_radius
    return normalized[keep], campaign.weights[rows][keep], np.searchsorted(hit, rep[keep])


def _sorted_quantiles(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(x, q) of a sorted x at levels q in [0, 1], read off x with
    the arithmetic of numpy's default (linear) method, bit for bit: the
    virtual index (n - 1) q splits into a floor i and a fraction g, and the
    value is x[i] + (x[i+1] - x[i]) g, taken from x[i+1] when g >= 0.5.
    np.quantile itself partitions through np.unique, whose first call imports
    numpy.ma."""
    virtual = (x.size - 1) * q
    below = np.floor(virtual)
    gamma = virtual - below
    i = below.astype(np.intp)
    lo, hi = x[i], x[np.minimum(i + 1, x.size - 1)]
    diff = hi - lo
    return np.where(gamma >= 0.5, hi - diff * (1 - gamma), lo + diff * gamma)


def _fit_c_max(spec: ProcessSpec, seed: int, threads) -> tuple:
    """Fit the empirical maxmod CDF to exp(-(c*v)^-alpha) over c.

    The extraction window sits far in the upper tail, where the CDF carries
    little information about the scale constant. A dedicated campaign is
    drawn instead, on the window below which the analytic maxmod law leaves
    35% of its mass; the grid is taken from exceedance quantiles, where the
    censored empirical CDF is exact.
    """
    alpha = spec.alpha
    w_fit = censor_window(extreme_law(spec), 0.35)
    mm = maxmod_samples(spec.with_window(w_fit), _CMAX_FIT_REPS, seed, threads=threads,
                        role=(_ROLE_CMAX,))
    n = mm.size
    exc = np.sort(mm[mm > w_fit])
    if exc.size < 50:
        raise DomainError("too few exceedances to estimate the scale constant")
    grid = _sorted_quantiles(exc, np.linspace(0.05, 0.95, 10))
    k0 = n - exc.size
    fhat = (k0 + np.searchsorted(exc, grid, side="right")) / n
    se = np.sqrt(np.maximum(fhat * (1.0 - fhat), 1e-12) / n)

    c_hat, _, _ = fit_scale_template(grid, fhat, se, ExtremeLaw("scale", alpha, 1.0).cdf)
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
    (spec, config, seed). At most MAX_REPS attempts are made: a config that
    they would leave short of n_accepted with probability above CAP_EPS is a
    DomainError before any block is drawn, so a StarvationError means that
    the draws disagree with the analytic acceptance rate.
    """
    if not spec.is_scale_family:
        raise DomainError("extraction runs on the scale carrier; transform first")
    y = config.threshold
    window = config.inner_radius * y
    target = int(config.n_accepted)
    p = predicted_acceptance(spec, y)
    refuse_likely_shortfall(target, MAX_REPS, p, lambda short: (
        f"extraction needs {target} samples above the threshold {y:g}: {MAX_REPS} "
        f"attempts expect {MAX_REPS * p:.3g} and fall short with probability {short:.3g}"))
    src = ProcessSource(spec.with_window(window))

    accepted = []
    accepted_r = []
    attempted = 0
    batch_idx = 0
    n_found = 0
    while n_found < target and attempted < MAX_REPS:
        batch = min(_ATTEMPT_BATCH, MAX_REPS - attempted)
        campaign = run_campaign(src, seed, batch, threads,
                                role=(_ROLE_EXTRACT, batch_idx))
        mm = campaign.maxmods()
        hit = np.flatnonzero(mm > y)
        locs, mults, index = _normalized(campaign, mm, hit, config.inner_radius)
        accepted.append((locs, mults, index + n_found))
        accepted_r.append(mm[hit] / y)
        n_found += hit.size
        attempted += batch
        batch_idx += 1

    if n_found < target:
        raise StarvationError(
            f"only {n_found} of {target} samples accepted after {attempted} "
            f"attempts; analytic acceptance rate is {p:.3g}"
        )

    locs, mults, index = (np.concatenate(column) for column in zip(*accepted))
    first = index < target
    decorations = MeasureBatch("scale", locs[first], mults[first], index[first], target)
    radials = np.concatenate(accepted_r)[:target]

    # every radial exceeds 1, where the Pareto CDF is 0, so no sample is censored
    pareto_ks, pareto_p = ks_censored(radials, lambda u: 1.0 - u ** -spec.alpha, 1.0)
    counts = decorations.total_mass()
    f_sens = tent(config.inner_radius, 0.5 * (1.0 + config.inner_radius), 1.0)
    tents = decorations.integrals(f_sens)
    rng = make_generator(int(seed), ROLE_PERMUTE, _ROLE_EXTRACT)
    independence_p = _permutation_p(rng, radials, counts)
    sensitivity_p = _permutation_p(rng, radials, tents)

    c_max_hat, w_fit = _fit_c_max(spec, seed, threads)

    return ExtractionReport(
        spec=spec,
        config=config,
        seed=int(seed),
        decorations=decorations,
        radials=radials,
        pareto_ks=pareto_ks,
        pareto_p=pareto_p,
        independence_p=float(independence_p),
        sensitivity_p=float(sensitivity_p),
        c_max_hat=float(c_max_hat),
        attempts=attempted,
        acceptance_rate=n_found / attempted,
        params={"window": window, "n_batches": batch_idx, "c_max_fit_window": w_fit},
    )


# -- closing the loop --------------------------------------------------------------


def rebuild_process(
    report: ExtractionReport,
    n_reps: int = 20_000,
    seed: int = 0,
    threads: int | None = 1,
) -> TestReport:
    """Rebuild the process from extracted decorations and compare batteries.

    The rebuilt process has the index of report.spec and is scale-decorated
    with the empirical law over the extracted samples, each dilated by
    1 / report.c_max_hat. Its default scaled-Laplace battery is compared to the
    original spec's battery; a sub-check passes when the estimates agree
    within 3 pooled standard errors. The replica count should stay moderate:
    extraction contamination (threshold censoring and extra small atoms) is a
    fixed bias, and arbitrarily tight standard errors would resolve it.
    """
    if len(report.decorations) < 100:
        raise DomainError("the report must contain at least 100 decoration samples")
    c_max_hat = report.c_max_hat
    if not (c_max_hat > 0.0 and math.isfinite(c_max_hat)):
        raise DomainError("c_max_hat must be finite and > 0")
    orig = report.spec
    if orig.effective_law().kind != "deterministic":
        raise DomainError(
            "rebuilding applies to a deterministic global dilation; a random "
            "dilation is not recoverable from decoration samples alone"
        )
    decs = report.decorations
    scaled = decs.relocated(decs.locations * (1.0 / c_max_hat), "scale")
    rebuilt = ProcessSpec(
        "scdppp", orig.alpha,
        DecorationSpec.table_from_measures(scaled),
        orig.window,
    )
    battery = default_battery("scale")
    points = default_points("scale")
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
    return TestReport(
        "rebuild", 0.0, int(n_reps), int(seed), tuple(checks),
        params={
            "original": orig.to_config_dict(),
            "c_max_hat": c_max_hat,
            "n_decorations": len(report.decorations),
        },
    )
