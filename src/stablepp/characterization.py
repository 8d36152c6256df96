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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import DomainError
from .functionals import (
    ExtremeLaw,
    battery_estimates,
    default_battery,
    default_points,
    extreme_law,
    laplace_battery,
)
from .sampler import (
    SCALE,
    ProcessSource,
    ProcessSpec,
    ScaleLaw,
    SuperposeSource,
    campaign_stats,
    maxmod_samples,
)

__all__ = [
    "SubCheck",
    "TestReport",
    "TailIndexEstimate",
    "kolmogorov_sf",
    "ks_censored",
    "censor_window",
    "stability_test",
    "maxmod_law_test",
    "tail_index_estimate",
    "tail_index_test",
    "fit_scale_template",
    "scale_unique_support_test",
]

# distinct sampling roles so campaigns compared against each other never share
# a random stream
_ROLE_STAB_LHS = (10,)
_ROLE_STAB_RHS = (11,)
_ROLE_MAXLAW = (12,)
_ROLE_SUPPORT = (13,)
_ROLE_TAIL = (40,)

# at most this much of the analytic maxmod law lies below the maxlaw test's window
_CENSOR_MASS = 1e-6


@dataclass(frozen=True)
class SubCheck:
    """One named hypothesis check inside a report."""

    name: str
    null_hypothesis: str
    statistic: float
    p_value: float | None
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class TestReport:
    """Outcome of one verification test.

    `params` echoes the configuration the test actually ran with (tolerances,
    derived windows, Bonferroni divisor, spec echo) so the run is reproducible
    from the report alone.
    """

    __test__ = False  # pytest must not collect this as a test class

    test_name: str
    level: float
    n_reps: int
    seed: int
    subchecks: tuple
    params: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every sub-check passed."""
        return all(s.passed for s in self.subchecks)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@dataclass(frozen=True)
class TailIndexEstimate:
    """Hill estimate of the upper-tail regular-variation index."""

    alpha_hat: float
    k: int
    ci_half_width: float
    n_samples: int

    def covers(self, alpha: float) -> bool:
        return abs(self.alpha_hat - alpha) <= self.ci_half_width


# -- the Kolmogorov distribution ---------------------------------------------------
#
# P(D_n >= d) for the two-sided one-sample KS statistic D_n, by the dispatch
# of Simard & L'Ecuyer, "Computing the two-sided Kolmogorov-Smirnov
# distribution" (JSS 2011): Ruben-Gambino's closed forms at the edges,
# Durbin's matrix in the form of Marsaglia, Tsang & Wang (JSS 2003) and
# Pomeranz's recursion for small n d^2, the Pelz-Good expansion for large n,
# and, where the one-sided events D_n^+ >= d and D_n^- >= d (almost) never
# meet, twice the one-sided tail summed exactly (Birnbaum & Tingey 1951).

_RESCALE = 2.0 ** 128  # the matrix and recursion methods rescale by this factor
_SMIRNOV_BLOCK = 1 << 16  # terms of the one-sided sum per numpy pass
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# Bernoulli-number coefficients B_2j / (2j (2j - 1)), j = 8 down to 1, of
# Stirling's series for log k! in powers of 1 / k^2
_STIRLING = (-2.955065359477124183e-2, 6.4102564102564102564e-3,
             -1.9175269175269175269e-3, 8.4175084175084175084e-4,
             -5.952380952380952381e-4, 7.9365079365079365079e-4,
             -2.7777777777777777778e-3, 8.3333333333333333333e-2)
# log k! - log(sqrt(2 pi k) (k / e)^k) for k = 0, ..., 15 (k = 0 unused)
_STIRLERR_SMALL = np.array([0.0] + [math.log(math.factorial(k)) - (k + 0.5) * math.log(k) + k
                                    - _LOG_SQRT_2PI for k in range(1, 16)])


def _clip_prob(p: float) -> float:
    return min(max(float(p), 0.0), 1.0)


def _stirlerr(k):
    """log k! - log(sqrt(2 pi k) (k / e)^k) for integers k >= 1: a table up to
    15, Stirling's series beyond. Its absolute error stays near 1e-14, where a
    log-gamma difference at k = 10^6 is off by about 1e-9."""
    k = np.asarray(k, dtype=np.float64)
    big = np.maximum(k, 16.0)
    series = np.polyval(_STIRLING, 1.0 / big ** 2) / big
    return np.where(k > 15, series, _STIRLERR_SMALL[np.minimum(k, 15).astype(np.int64)])


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x / m) + m - x for x, m > 0, by its series in (x - m) / (x + m)
    where the closed form would cancel (Loader 2000)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        v = (x - m) / (x + m)
        near = np.abs(v) < 0.1
        out = np.where(near, 0.0, x * np.log(x / m) + m - x)
    # sum over j >= 0 of 2 x v^(2j+1) / (2j + 1) - (x - m) v, from the
    # smallest term; |v| < 0.1 makes 9 terms exact to rounding
    vn, v2 = v[near], v[near] ** 2
    tail = np.zeros(vn.shape)
    for j in range(9, 0, -1):
        tail = (tail + 1.0 / (2 * j + 1)) * v2
    out[near] = (x[near] - m[near]) * vn + 2.0 * x[near] * vn * tail
    return out


def _smirnov_sf(n: int, d: float) -> float:
    """P(D_n^+ >= d), 0 < d < 1, by the Birnbaum-Tingey sum

        d sum over j = 0, ..., floor(n (1 - d)) of
        C(n, j) (1 - d - j / n)^(n - j) (d + j / n)^(j - 1).

    Term j is (nd / (nd + j)) times the binomial(n, d + j / n) probability of
    j, taken in Loader's saddle-point form (stirlerr and bd0), which keeps
    each term's log within about 1e-14 where a log-gamma difference of size
    n log n loses 1e-9 at n = 10^6. The terms
    are summed in blocks of _SMIRNOV_BLOCK, so memory stays bounded in n."""
    nd = n * d
    total = math.exp(n * math.log1p(-d))  # j = 0: (1 - d)^n
    for start in range(1, math.floor(n - nd) + 1, _SMIRNOV_BLOCK):
        j = np.arange(start, min(start + _SMIRNOV_BLOCK, n), dtype=np.float64)
        m1 = nd + j  # n (d + j / n)
        m2 = (n - j) - nd  # n (1 - d - j / n)
        live = m2 > 0.0
        j, m1, m2 = j[live], m1[live], m2[live]
        log_pmf = (_stirlerr(n) - _stirlerr(j) - _stirlerr(n - j) - _bd0(j, m1)
                   - _bd0(n - j, m2) + 0.5 * np.log(n / (2.0 * math.pi * j * (n - j))))
        total += float(np.sum(nd / m1 * np.exp(log_pmf)))
    return total


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) by Durbin's matrix: with nd = k - h, 0 <= h < 1, the (k, k)
    entry of H^n times n! / n^n, H of order 2k - 1, powered by squaring and
    rescaled by 2^128 as it grows (Marsaglia, Tsang & Wang 2003)."""
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    v = 1.0 - h ** np.arange(1, m + 1)
    w = np.empty(m)
    fac = 1.0
    for j in range(1, m + 1):
        w[j - 1] = fac  # 1 / (j - 1)!
        fac /= j
        v[j - 1] *= fac
    v[-1] = (1.0 + (max(2.0 * h - 1.0, 0.0) ** m - 2.0 * h ** m)) * fac
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]

    power, expo, h_expo, e = np.eye(m), 0, 0, n
    while e > 0:
        if e % 2:
            power = power @ H
            expo += h_expo
        H = H @ H
        h_expo *= 2
        if abs(H[k - 1, k - 1]) > _RESCALE:
            H /= _RESCALE
            h_expo += 128
        e //= 2
    p = float(power[k - 1, k - 1])
    for i in range(1, n + 1):  # times n! / n^n
        p = i * p / n
        if abs(p) < 1.0 / _RESCALE:
            p *= _RESCALE
            expo -= 128
    return _clip_prob(math.ldexp(p, expo))


def _pomeranz_bounds(i: int, n: int, ll: int, ceilf: int, roundf: int) -> tuple:
    """The first and last live entries of row i of Pomeranz's recursion."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        half, odd = divmod(i + 1, 2)
        if not odd:
            if half == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = half - 1 - ll - roundf - 1, half + ll - 1 + ceilf - 1
        else:
            j1, j2 = half - 1 - ll - 1, half + ll + roundf - 1
    return max(j1 + 2, 0), min(j2, n)


def _pomeranz_cdf(n: int, d: float) -> float:
    """P(D_n <= d) by Pomeranz's recursion (CACM 1974): 2n + 1 rows, each the
    convolution of the last with unnormalized Poisson weights, times n!."""
    t = n * d
    ll = math.floor(t)
    f = t - ll
    g = min(f, 1.0 - f)
    ceilf = 1 if f > 0 else 0
    roundf = 1 if f > 0.5 else 0
    npwrs = 2 * (ll + 1)
    powers = []
    for step in (g / n, 2.0 * g / n, (1.0 - 2.0 * g) / n):
        arr = np.empty(npwrs)  # step^m / m!
        arr[0] = 1.0
        for m in range(1, npwrs):
            arr[m] = arr[m - 1] * step / m
        powers.append(arr)
    gpower, twogpower, onem2gpower = powers
    expo = 0
    v0, v1 = np.zeros(npwrs), np.zeros(npwrs)
    v1[0] = 1.0
    s0 = s1 = 0  # where each row starts
    j1, j2 = _pomeranz_bounds(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        k1 = j1
        v0, v1 = v1, v0
        s0, s1 = s1, s0
        v1.fill(0.0)
        j1, j2 = _pomeranz_bounds(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = twogpower if i % 2 else onem2gpower
        width = j2 - k1 + 1
        if width > 0:
            conv = np.convolve(v0[k1 - s0:k1 - s0 + width], pwrs[:width])
            v1[:j2 - j1 + 1] = conv[j1 - k1:j2 - k1 + 1]
            if 0.0 < np.max(v1) < 1.0 / _RESCALE:
                v1 *= _RESCALE
                expo -= 128
            s1 = s0 + j1 - k1
    ans = float(v1[n - s1])
    for m in range(1, n + 1):  # times n!
        if abs(ans) > _RESCALE:
            ans /= _RESCALE
            expo += 128
        ans *= m
    return _clip_prob(math.ldexp(ans, expo))


def _pelz_good_cdf(n: int, d: float) -> float:
    """P(D_n <= d) by the Pelz-Good expansion (JRSS B 1976): the Li-Chien and
    Korolyuk series K0(z) + K1(z) / sqrt(n) + K2(z) / n + K3(z) / n^1.5 at
    z = d sqrt(n), each term recast by the Jacobi theta identity for small z."""
    z = math.sqrt(n) * d
    z2, z3, z4, z6 = z ** 2, z ** 3, z ** 4, z ** 6
    pi2, pi4, pi6 = math.pi ** 2, math.pi ** 4, math.pi ** 6
    qlog = -pi2 / 8 / z2
    if qlog < -708:
        return 0.0
    q = math.exp(qlog)
    k1a, k1b = -z2, pi2 / 4
    k2a, k2b, k2c = 6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * pi2 / 4, pi4 * (1 - 2 * z2) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z ** 8
    terms = np.zeros(4)
    maxk = math.ceil(16 * z / math.pi)
    for k in range(maxk, 0, -1):  # Horner in q^(8k) over the odd m = 2k - 1
        m = 2 * k - 1
        m2, m4, m6 = m ** 2, m ** 4, m ** 6
        terms *= q ** (8 * k)
        terms += (1.0, k1a + k1b * m2, k2a + k2b * m2 + k2c * m4,
                  k3a + k3b * m2 + k3c * m4 + k3d * m6)
    terms *= q
    terms *= _SQRT_2PI
    terms /= (z, 6 * z4, 72 * z ** 7, 6480 * z ** 10)
    # the sums over all k >= 1 in K2 and K3
    q = math.exp(-pi2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ks2 = ks ** 2
    sqrt3z = math.sqrt(3.0) * z
    kspi = math.pi * ks
    qk = q ** ks2
    terms[2] += np.sum(ks2 * qk) * (pi2 * _SQRT_2PI / (-36 * z3))
    terms[3] += np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ks2 * qk) * (pi2 * _SQRT_2PI / (216 * z6))
    terms /= np.power(float(n), np.arange(4) / 2.0)
    return sum(terms.tolist())


def kolmogorov_sf(d: float, n: int) -> float:
    """P(D_n >= d) for the two-sided one-sample KS statistic D_n of n >= 1
    samples from a continuous law.

    Follows the dispatch of Simard & L'Ecuyer (JSS 2011) on t = nd:
    Ruben-Gambino's closed forms for t <= 1 and t >= n - 1; twice the
    one-sided tail for d >= 1/2, where the two one-sided events cannot
    both occur; for n <= 140, Durbin's matrix up to n d^2 = 0.754693,
    Pomeranz's recursion up to 4 and the one-sided tail beyond; for larger n,
    the one-sided tail from n d^2 = 2.2 (0 from 370), Durbin's matrix while
    n <= 10^5 and n d^1.5 <= 1.4, and the Pelz-Good expansion otherwise.
    """
    n = int(n)
    if n < 1:
        raise DomainError(f"the Kolmogorov distribution needs n >= 1, not {n}")
    if math.isnan(d):
        return math.nan
    if d >= 1.0:
        return 0.0
    if d <= 0.0:
        return 1.0
    t = n * d
    if t <= 1.0:
        if t <= 0.5:
            return 1.0
        # P(D_n < d) = n! / n^n (2t - 1)^n
        if n <= 140:
            cdf = float(np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1)))
        else:
            log_ratio = math.log(n) / 2 - n + _LOG_SQRT_2PI + float(_stirlerr(n))  # log(n! / n^n)
            cdf = math.exp(log_ratio + n * math.log(2 * t - 1))
        return _clip_prob(1.0 - cdf)
    if t >= n - 1:
        return _clip_prob(2.0 * (1.0 - d) ** n)
    if d >= 0.5:
        return _clip_prob(2.0 * _smirnov_sf(n, d))
    nd2 = t * d
    if n <= 140:
        if nd2 <= 0.754693:
            return _clip_prob(1.0 - _durbin_cdf(n, d))
        if nd2 <= 4.0:
            return _clip_prob(1.0 - _pomeranz_cdf(n, d))
        return _clip_prob(2.0 * _smirnov_sf(n, d))
    if nd2 >= 370.0:
        return 0.0
    if nd2 >= 2.2:
        return _clip_prob(2.0 * _smirnov_sf(n, d))
    if n <= 100_000 and n * d ** 1.5 <= 1.4:
        return _clip_prob(1.0 - _durbin_cdf(n, d))
    return _clip_prob(1.0 - _pelz_good_cdf(n, d))


# -- censored one-sample KS --------------------------------------------------------


def _bisect(fn, q: float) -> tuple:
    """(lo, hi) around the solution of fn(v) = q, fn increasing on v > 0.

    Brackets from v = 1 by factors of 4, then halves the bracket up to 200
    times, stopping once lo and hi are adjacent floats (a further halving
    would change neither); fn(lo) <= q throughout.
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
        if not lo < mid < hi:
            break
        if fn(mid) > q:
            hi = mid
        else:
            lo = mid
    return lo, hi


def censor_window(law: ExtremeLaw, mass: float = _CENSOR_MASS) -> float:
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
    return d, kolmogorov_sf(d, n)


# -- strict stability --------------------------------------------------------------


def _check_level(level: float):
    if not 0.0 < level < 1.0:
        raise DomainError(f"the test level must lie in (0, 1), not {level!r}")


def _z_subcheck(name: str, h0: str, a, b) -> SubCheck:
    """Two-sample z-test from two EstimateWithError values."""
    se = math.hypot(a.std_error, b.std_error)
    diff = a.value - b.value
    if se == 0.0:
        # both estimates exact; equal means the null is satisfied identically
        return SubCheck(name, h0, 0.0, 1.0 if diff == 0.0 else 0.0, diff == 0.0,
                        "degenerate: zero standard error on both sides")
    z = diff / se
    return SubCheck(name, h0, z, math.erfc(abs(z) / math.sqrt(2.0)), True)


def _two_sample_ks(a: np.ndarray, b: np.ndarray) -> tuple:
    """The two-sample KS distance of a and b, the largest gap between their
    empirical CDFs over the pooled sample, and its p-value from Smirnov's
    asymptotic: the one-sample law at n = round(n1 n2 / (n1 + n2))."""
    a, b = np.sort(a), np.sort(b)
    pooled = np.concatenate([a, b])
    gaps = (np.searchsorted(a, pooled, side="right") / a.size
            - np.searchsorted(b, pooled, side="right") / b.size)
    d = float(np.max(np.abs(gaps)))
    m, n = sorted([float(a.size), float(b.size)], reverse=True)
    return d, kolmogorov_sf(d, round(m * n / (m + n)))


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
    _check_level(level)
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
        battery = [(f, y) for f in default_battery("scale").values()
                   for y in default_points("scale")]
    pairs = [(f, float(y)) for f, y in battery]
    if not pairs:
        raise DomainError("the battery must contain at least one (function, y) pair")

    alpha = spec.alpha
    top = max(b1, b2)
    b_rhs = top * ((b1 / top) ** alpha + (b2 / top) ** alpha) ** (1.0 / alpha)
    b_rhs *= rhs_scale_factor
    if not 0.0 < b_rhs < math.inf:
        raise DomainError(f"(b1^alpha + b2^alpha)^(1/alpha) * rhs_scale_factor leaves "
                          f"the float range at b1 = {b1!r}, b2 = {b2!r}, alpha = {alpha!r}")
    if not all(SCALE.point_ok(y) for _, y in pairs):
        raise DomainError(SCALE.point_error)
    window = min(SCALE.visible(f, y) for f, y in pairs)
    if window == math.inf:
        raise DomainError("the battery must contain a nonzero function")

    # S_b N is the process whose deterministic global dilation W is b * W
    w = law.value
    dilations = ((b1 * w, b2 * w), (b_rhs * w,))
    if not all(0.0 < d < math.inf for ds in dilations for d in ds):
        raise DomainError(f"a dilated global value b * W leaves the float range at b1 = {b1!r}, "
                          f"b2 = {b2!r}, W = {w!r} (right side b = {b_rhs!r})")

    def dilated(d: float) -> ProcessSource:
        return ProcessSource(ProcessSpec(SCALE.families[1], alpha, spec.decoration, window,
                                         ScaleLaw.deterministic(d)))

    # per side, n_reps times the Poisson mean of the dilation points that can
    # reach the window; an overflow reads inf
    with np.errstate(over="ignore"):
        reach = [n_reps * sum(SCALE.block_mean(alpha, d, window, spec.decoration.bound)
                              for d in ds)
                 for ds in dilations]
    if max(reach) < 1.0:
        raise DomainError(
            f"the comparison has no power at b1 = {b1!r}, b2 = {b2!r}, alpha = {alpha!r}: "
            f"neither side expects an atom in the window over {n_reps} replicas")
    lhs_src = SuperposeSource(*map(dilated, dilations[0]))
    rhs_src = dilated(dilations[1][0])

    def side(src, role):
        # one pass: the battery's Laplace rows, then maxmods, then counts; only
        # the estimates, the maxmods and the mean count outlive it
        reduce, estimates = laplace_battery(src, pairs)
        rows = campaign_stats(
            src, seed, n_reps,
            lambda block: np.vstack([reduce(block), block.maxmods(), block.counts()]),
            threads, role)
        return estimates(rows[:-2]), rows[-2].copy(), float(np.mean(rows[-1]))

    est_l, mm_l, mean_count_l = side(lhs_src, _ROLE_STAB_LHS)
    est_r, mm_r, mean_count_r = side(rhs_src, _ROLE_STAB_RHS)

    checks = []
    for i, ((f, y), el, er) in enumerate(zip(pairs, est_l, est_r)):
        checks.append(_z_subcheck(
            f"laplace_{i:02d}_y_{y:g}",
            "both sides share the scaled-Laplace value at (f, y)",
            el, er,
        ))

    exc_l = mm_l[mm_l > window]
    exc_r = mm_r[mm_r > window]
    if min(exc_l.size, exc_r.size) < 10:
        checks.append(SubCheck(
            "maxmod_ks", "maximum moduli above the window share a law",
            0.0, 1.0, True, "too few exceedances to compare"))
    else:
        d, p = _two_sample_ks(exc_l, exc_r)
        checks.append(SubCheck(
            "maxmod_ks", "maximum moduli above the window share a law", d, p, True))

    m = len(checks)
    corrected = [replace(s, passed=s.passed and not (s.p_value is not None
                                                     and s.p_value < level / m))
                 for s in checks]
    return TestReport(
        "stability", level, int(n_reps), int(seed), tuple(corrected),
        params={
            "spec": spec.to_config_dict(),
            "b1": b1, "b2": b2, "rhs_scale": b_rhs,
            "rhs_scale_factor": rhs_scale_factor,
            "window": window, "maxmod_censor": window,
            "bonferroni_divisor": m,
            "mean_count_lhs": mean_count_l,
            "mean_count_rhs": mean_count_r,
        },
    )


# -- maximum-modulus law -----------------------------------------------------------


def maxmod_law_test(
    spec: ProcessSpec,
    n_reps: int = 10_000,
    seed: int = 0,
    level: float = 0.01,
    threads: int | None = 1,
) -> TestReport:
    """KS test of simulated maximum moduli against the analytic mixture law.

    The sampling window is refined until the analytic law leaves at most
    1e-6 probability below it, so censoring cannot move the KS distance at
    the resolution tested.
    """
    _check_level(level)
    if not spec.is_scale_family:
        raise DomainError("expected a scale-family spec")
    law = extreme_law(spec)
    window = min(censor_window(law), spec.window)
    mm = maxmod_samples(spec, n_reps, seed, window=window, threads=threads,
                        role=_ROLE_MAXLAW)
    d, p = ks_censored(mm, law.cdf, window)
    sub = SubCheck(
        "maxmod_ks",
        "maximum modulus follows the analytic Frechet mixture",
        d, p, p >= level,
    )
    return TestReport(
        "maxmod_law", level, int(n_reps), int(seed), (sub,),
        params={
            "spec": spec.to_config_dict(),
            "kappa": law.kappa,
            "window": window,
            "censor_mass": _CENSOR_MASS,
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


def tail_index_test(spec: ProcessSpec, n_reps: int = 100_000, seed: int = 0,
                    threads: int | None = 1) -> TestReport:
    """Check that the maxmod upper tail is regularly varying with the spec's index:
    passes iff the 95% interval of the Hill estimate on the top floor(sqrt(n))
    of the n positive maxmods covers alpha. It has no level; its report says 0.0."""
    mm = maxmod_samples(spec, n_reps, seed, threads=threads, role=_ROLE_TAIL)
    positive = mm[mm > 0.0]
    est = tail_index_estimate(positive)
    sub = SubCheck(
        "ci_covers_alpha", "the maxmod upper tail is regularly varying with the spec's index",
        est.alpha_hat, None, est.covers(spec.alpha),
        f"k = {est.k}, 95% half width {est.ci_half_width:.6g}")
    return TestReport("tail_index", 0.0, int(n_reps), int(seed), (sub,),
                      params={"spec": spec.to_config_dict(), "alpha": spec.alpha,
                              "n_positive": int(positive.size)})


# -- scale-unique support ----------------------------------------------------------


def _template_inverse(template, q: float) -> float:
    """Solve template(v) = q for v by bisection; template is increasing."""
    lo, hi = _bisect(template, q)
    return 0.5 * (lo + hi)


def _bounded_minimum(fn, a: float, b: float, xatol: float, maxfun: int = 500) -> float:
    """A minimizer of fn on [a, b] by Brent's bounded method (Brent 1973,
    ch. 5): parabolic steps where the parabola through the three best points
    is acceptable, golden sections otherwise, until the bracket around the best
    point x is within 2 (sqrt(2.2e-16) |x| + xatol / 3) of x, or after
    `maxfun` evaluations. It is step for step the bounded Brent iteration of
    the common numerical libraries, so a given fn gives their x."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = fn(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabolic step
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = fn(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf


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

    c_hat = math.exp(_bounded_minimum(objective, math.log(c0) - 7.0, math.log(c0) + 7.0, 1e-12))
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
    analytic maximum-modulus mixture law, which every decoration kind has: its
    Laplace curves are that law's CDF with kappa replaced by c_f, so the fitted
    c estimates (kappa / c_f)^(1/alpha). A sub-check passes iff the sup-norm
    residual stays below 3 pooled standard errors. A function whose curve is
    exactly 1 with standard error 0 at every y (it met no atom, as the zero
    function never does) is excluded as trivial.
    """
    if not spec.is_scale_family:
        raise DomainError("scale-unique support is a scale-carrier property")
    if battery is None:
        battery = list(default_battery("scale").values())
    battery = list(battery)
    if y_grid is None:
        y_grid = default_points("scale")
    ys = [float(y) for y in y_grid]
    if len(ys) < 2:
        raise DomainError("the y grid needs at least two points")

    template = extreme_law(spec).cdf
    functions = {f"f{i:02d}": f for i, f in enumerate(battery)}
    estimates = battery_estimates(spec, functions, ys, n_reps, seed,
                                  threads=threads, role=_ROLE_SUPPORT)

    checks = []
    fitted_cs = {}
    for fid, f in functions.items():
        vals = [estimates[(fid, y)].value for y in ys]
        ses = [estimates[(fid, y)].std_error for y in ys]
        if all(v == 1.0 for v in vals) and not any(ses):  # f met no atom, or f = 0
            checks.append(SubCheck(
                f"fit_{fid}", "curve lies in the template's scale family",
                0.0, None, True, "curve exactly 1 with standard error 0 excluded as trivial"))
            continue
        c_hat, residual, pooled = fit_scale_template(ys, vals, ses, template)
        fitted_cs[fid] = c_hat
        checks.append(SubCheck(
            f"fit_{fid}", "curve lies in the template's scale family",
            residual, None, residual < 3.0 * pooled,
            f"fitted c = {c_hat:.6g}, pooled se = {pooled:.3g}"))

    return TestReport(
        "scale_unique_support", 0.0, int(n_reps), int(seed), tuple(checks),
        params={
            "spec": spec.to_config_dict(),
            "y_grid": ys,
            "template": "analytic maxmod mixture",
            "fitted_c": fitted_cs,
        },
    )
