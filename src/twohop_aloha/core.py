"""Domain types, distributions, special functions and the Monte Carlo driver.

Everything downstream (analytic series, semi-analytic superposition evaluation,
Monte Carlo engines) builds on the primitives defined here.  All functions
are pure; samplers take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

# Default tail mass at which the two-class Poisson sums are truncated (an
# absolute error bound; the single-service series bound theirs relatively).
TAIL_MASS_DEFAULT = 1e-12

# Recursion order cap for aux_h; factorial-like growth makes larger orders
# numerically useless in double precision anyway.
AUX_H_MAX_ORDER = 64


class OrderLimitError(ValueError):
    """Requested auxiliary-function order exceeds the configured maximum."""


#: Ideal NCS-to-CS interference tolerance (no budget): a count of surviving
#: NCS copies is always within it.
INFINITE_K = math.inf


# ============================================================================
#  Receiver model and inter-service resource allocation
# ============================================================================


class Receiver:
    """BS receiver model tags."""

    COLLISION = "collision"
    SUPERPOSITION = "superposition"

    ALL = (COLLISION, SUPERPOSITION)


@dataclass(frozen=True)
class NonOrthogonal:
    """Both service classes contend over the full frame."""


@dataclass(frozen=True)
class Tdma:
    """Orthogonal inter-service split: share ``alpha`` of slots for CS."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"tdma alpha must be in [0, 1], got {self.alpha}")


NON_ORTHOGONAL = NonOrthogonal()

Allocation = NonOrthogonal | Tdma


# ============================================================================
#  Channel parameter bundles
# ============================================================================


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValueError(f"{name} must be a probability in [0, 1], got {value}")


@dataclass(frozen=True)
class ErasureParams:
    """Access (eps1) and backhaul (eps2) erasure probabilities."""

    eps1: float
    eps2: float

    def __post_init__(self):
        _check_prob("eps1", self.eps1)
        _check_prob("eps2", self.eps2)


@dataclass(frozen=True)
class FadingParams:
    """Rayleigh-fading link gains, device/AP powers and rates.

    Mean channel gains ``alpha2`` (access) and ``beta2`` (backhaul) are the
    variances of the circularly-symmetric complex Gaussian coefficients.
    Noise power is fixed to one, so powers are effectively SNRs.  Rates are
    in bit/s/Hz; a packet decodes when SINR >= 2**rate - 1.
    """

    alpha2: float
    beta2: float
    P_c: float = 10.0
    P_cbar: float = 4.0
    P_c_ap: float = 10.0
    P_cbar_ap: float = 4.0
    r_c: float = 1.0
    r_cbar: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, vars(self).values())):
            raise ValueError("fading gains, powers and rates must be finite")
        if self.alpha2 <= 0 or self.beta2 <= 0:
            raise ValueError("mean channel gains alpha2, beta2 must be > 0")
        if self.P_cbar < 0 or self.P_c < self.P_cbar:
            raise ValueError("device powers must satisfy P_c >= P_cbar >= 0")
        if self.P_c_ap < 0 or self.P_cbar_ap < 0:
            raise ValueError("AP relay powers must be >= 0")
        if self.r_c <= 0 or self.r_cbar <= 0:
            raise ValueError("transmission rates must be > 0")
        if max(self.r_c, self.r_cbar) >= 1024:
            raise ValueError("transmission rates must be below 1024: 2**rate - 1 overflows")
        # A received power is its mean times a chi-square factor below 2**8 in
        # numpy's Gaussian sampler; sums over a slot's messages and coherent
        # sums over APs stay many orders of magnitude below the float limit.
        if max(self.alpha2 * self.P_c, self.beta2 * max(self.P_c_ap, self.P_cbar_ap)) > 1e150:
            raise ValueError("mean received powers alpha2 * P_c and beta2 * P_ap must be "
                             "at most 1e150, or the drawn powers can overflow")


# ============================================================================
#  Scenario configuration
# ============================================================================


def _is_integer(value) -> bool:
    """A Python or numpy integer; not a bool, nor any other subclass of int."""
    return type(value) is int or isinstance(value, np.integer)


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one two-hop grant-free scenario.

    Traffic: the number of active CS (NCS) devices per frame is Poisson with
    mean ``gamma_c * G`` (``(1 - gamma_c) * G``); devices pick a slot
    uniformly, so by Poisson thinning the per-slot loads are
    ``gamma_c * G / T`` and ``(1 - gamma_c) * G / T`` under non-orthogonal
    allocation.  Under ``Tdma(alpha)`` each class contends only over its own
    share of slots, so its per-slot load divides by ``alpha * T`` (CS) or
    ``(1 - alpha) * T`` (NCS) instead.
    """

    L: int
    T: int
    G: float
    gamma_c: float
    channel: ErasureParams | FadingParams
    K: int | float = INFINITE_K
    receiver: str = Receiver.COLLISION
    allocation: Allocation = NON_ORTHOGONAL

    def __post_init__(self):
        if not (_is_integer(self.L) and self.L >= 1):
            raise ValueError(f"L must be an integer >= 1, got {self.L!r}")
        if not (_is_integer(self.T) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, got {self.T!r}")
        if not 0 <= self.G < math.inf:
            raise ValueError(f"G must be finite and >= 0, got {self.G}")
        _check_prob("gamma_c", self.gamma_c)
        if self.K != INFINITE_K and not (_is_integer(self.K) and self.K >= 0):
            raise ValueError(f"K must be a non-negative integer or INFINITE_K, got {self.K!r}")
        if self.receiver not in Receiver.ALL:
            raise ValueError(f"unknown receiver model {self.receiver!r}")
        if not isinstance(self.allocation, (NonOrthogonal, Tdma)):
            raise ValueError(f"unknown allocation scheme {self.allocation!r}")
        if not isinstance(self.channel, (ErasureParams, FadingParams)):
            raise ValueError("channel must be ErasureParams or FadingParams")

    # -- channel accessors ---------------------------------------------------

    @property
    def erasure(self) -> ErasureParams:
        if not isinstance(self.channel, ErasureParams):
            raise ValueError("scenario does not use the erasure channel model")
        return self.channel

    @property
    def fading(self) -> FadingParams:
        if not isinstance(self.channel, FadingParams):
            raise ValueError("scenario does not use the fading channel model")
        return self.channel

    # -- per-slot loads (non-orthogonal semantics) ----------------------------

    @property
    def cs_slot_load(self) -> float:
        return self.gamma_c * self.G / self.T

    @property
    def ncs_slot_load(self) -> float:
        return (1.0 - self.gamma_c) * self.G / self.T

    def tdma_shares(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """``((alpha, g_c), (1 - alpha, g_n))`` under ``Tdma(alpha)``.

        Each class's slot share and its per-slot load over that share; a
        class without slots gets load 0.
        """
        alpha = self.allocation.alpha
        g_c = self.gamma_c * self.G / (alpha * self.T) if alpha > 0 else 0.0
        g_n = (1.0 - self.gamma_c) * self.G / ((1.0 - alpha) * self.T) if alpha < 1 else 0.0
        return (alpha, g_c), (1.0 - alpha, g_n)

    def replace(self, **changes) -> "ScenarioConfig":
        """A copy with ``changes``, checked like a fresh construction."""
        new = object.__new__(type(self))
        fields = new.__dict__  # filled in field order, it keeps the instances' shared keys
        fields.update(vars(self), **changes)
        if len(fields) > len(vars(self)):
            raise TypeError(f"no ScenarioConfig field {min(changes.keys() - vars(self).keys())!r}")
        new.__post_init__()
        return new


# ============================================================================
#  Result containers
# ============================================================================


@dataclass(frozen=True)
class ServiceMetrics:
    """Per-class throughput [packet/slot] and packet success rate."""

    R_c: float
    R_cbar: float
    Gamma_c: float
    Gamma_cbar: float

    _TOL = 1e-9

    def __post_init__(self):
        tol, r_c, r_n, p_c, p_n = self._TOL, self.R_c, self.R_cbar, self.Gamma_c, self.Gamma_cbar
        if r_c != r_c or r_n != r_n or p_c != p_c or p_n != p_n:  # only NaN differs from itself
            raise ValueError(f"metrics must not be NaN, got {self}")
        if r_c < -tol or r_n < -tol:
            raise ValueError("throughputs must be non-negative")
        if r_c + r_n > 1.0 + tol:
            raise ValueError("R_c + R_cbar cannot exceed one packet per slot")
        if not -tol <= p_c <= 1.0 + tol:
            raise ValueError(f"Gamma_c must be in [0, 1], got {p_c}")
        if not -tol <= p_n <= 1.0 + tol:
            raise ValueError(f"Gamma_cbar must be in [0, 1], got {p_n}")


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimate with its standard error and provenance.

    ``std_error`` is the sample standard deviation divided by sqrt(n);
    identical (config, seed, sample count) inputs reproduce the mean
    bit for bit.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")
        if self.n_samples < 0:
            raise ValueError("n_samples must be >= 0")


def bernoulli_estimate(successes: int, trials: int, seed: int) -> SimEstimate:
    """SimEstimate for a count of successes out of i.i.d. binary trials."""
    if trials <= 0:
        return SimEstimate(mean=0.0, std_error=0.0, n_samples=0, seed=seed)
    p = successes / trials
    if trials > 1:
        se = math.sqrt(p * (1.0 - p) / (trials - 1))
    else:
        se = 0.0
    return SimEstimate(mean=p, std_error=se, n_samples=trials, seed=seed)


@dataclass(frozen=True)
class SimulatedMetrics:
    """Quadruple of Monte Carlo estimates mirroring ServiceMetrics."""

    R_c: SimEstimate
    R_cbar: SimEstimate
    Gamma_c: SimEstimate
    Gamma_cbar: SimEstimate
    flags: tuple[str, ...] = field(default=())


def metrics_from_tallies(tallies, n_slots: int, seed: int, flags=()) -> SimulatedMetrics:
    """A slot engine's tallies as estimates: throughput is BS decodes of a
    class (``cs_slots``, ``ncs_slots``) per slot, PSR is tagged successes
    (``cs_tag_succ``, ``ncs_tag_succ``) per trial (``cs_trials``, ``ncs_trials``).
    """
    return SimulatedMetrics(
        R_c=bernoulli_estimate(tallies["cs_slots"], n_slots, seed),
        R_cbar=bernoulli_estimate(tallies["ncs_slots"], n_slots, seed),
        Gamma_c=bernoulli_estimate(tallies["cs_tag_succ"], tallies["cs_trials"], seed),
        Gamma_cbar=bernoulli_estimate(tallies["ncs_tag_succ"], tallies["ncs_trials"], seed),
        flags=tuple(flags),
    )


# ============================================================================
#  Poisson machinery: log-factorials, pmf, upper tail and truncation
# ============================================================================

# Cephes' lgam, the code behind scipy.special.gammaln, at integer arguments:
# the log of the exact factorial below 12 and Stirling's series above, with
# these constants (the shorter series from lgam(1000) on)
_LOG_SMALL_FACTORIALS = np.array([math.log(math.factorial(n)) for n in range(12)])
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
             7.93650340457716943945e-4, -2.77777777730099687205e-3,
             8.33333333333331927722e-2)
_STIRLING_SHORT = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
                   0.0833333333333333333333)

# Counts per memoized page of log-factorials
_LOG_FACTORIAL_PAGE = 4096
# Loads from which the Poisson tail is an asymptotic expansion, not a pmf sum
_TAIL_EXPANSION_LOAD = 1e4
# Stirling's coefficients g_0..g_3 of Gamma*(a) ~ sum g_k a**-k (DLMF 5.11.3)
_GAMMA_STAR = (Fraction(1), Fraction(1, 12), Fraction(1, 288), Fraction(-139, 51840))
# Taylor order in eta of Temme's c_0; it covers |eta| <= 0.5 to below 1e-16,
# and from _TAIL_EXPANSION_LOAD on every tail neither 0 nor 1 has |eta| < 0.5
_TEMME_ORDER = 20


def _horner(coefficients, x):
    """The polynomial with ``coefficients`` (highest power first) at ``x``."""
    total = coefficients[0]
    for c in coefficients[1:]:
        total = total * x + c
    return total


def log_factorial(n) -> np.ndarray:
    """log(n!) elementwise over an array of counts, bit for bit Cephes'
    ``lgam(n + 1)`` (what ``scipy.special.gammaln`` runs).

    Every logarithm is ``math.log``, the C library's, as in Cephes; numpy's
    vectorized log differs from it in the last bit on some arguments.
    Counts that fall in one or two pages of ``_LOG_FACTORIAL_PAGE`` are
    read from those pages, which are memoized.
    """
    n = np.asarray(n)
    last = int(n.max(initial=0)) // _LOG_FACTORIAL_PAGE
    if last == 0:
        # the first page's bits without copying it: about 5 us less a call,
        # of some 440 calls in the figures benchmark's two regions
        return _log_factorial_page(0)[n]
    first = int(n.min()) // _LOG_FACTORIAL_PAGE
    if last - first > 1:
        return _log_factorial(n)
    pages = [_log_factorial_page(k) for k in range(first, last + 1)]
    return np.concatenate(pages)[n - first * _LOG_FACTORIAL_PAGE]


@functools.lru_cache(maxsize=64)
def _log_factorial_page(k: int) -> np.ndarray:
    page = _log_factorial(np.arange(k * _LOG_FACTORIAL_PAGE, (k + 1) * _LOG_FACTORIAL_PAGE))
    page.flags.writeable = False
    return page


def _log_factorial(n: np.ndarray) -> np.ndarray:
    x = n + 1.0
    q = (x - 0.5) * _c_log(x) - x + _LOG_SQRT_2PI
    p = 1.0 / (x * x)
    series = _horner(_STIRLING_SHORT, p)
    if x.min() < 1000.0:  # the longer series, below lgam(1000)
        series = np.where(x >= 1000.0, series, _horner(_STIRLING, p))
    q = np.where(x > 1e8, q, q + series / x)
    return np.where(n < 12, _LOG_SMALL_FACTORIALS[np.minimum(n, 11)], q)


def poisson_pmf(n: np.ndarray, lam):
    """P(N = n) for N ~ Poisson(lam): exp(n log(lam) - lam - log(n!)).

    Over the counts ``n`` for one load, or as one row per load of an array.
    The bits are those of the same expression in SciPy, ``xlogy(n, lam) -
    lam - gammaln(n + 1)``: n log(lam) is 0 at n = 0 and takes the C
    library's log of each load, and log(n!) is ``log_factorial``.
    """
    if np.ndim(lam) == 0 and lam > 0.0:
        # the same bits without the masks that 0 log(0) needs: about 3 us
        # less a call, of some 440 calls in the figures benchmark's regions
        return np.exp(n * math.log(lam) - lam - log_factorial(n))
    loads = np.asarray(lam, dtype=float)[..., None]
    return _poisson_pmf(n, loads, _c_log(loads))


def _poisson_pmf(n: np.ndarray, loads: np.ndarray, log_loads: np.ndarray) -> np.ndarray:
    """``poisson_pmf`` at a column of loads whose ``_c_log`` is given."""
    n_log = np.multiply(n, log_loads, out=np.zeros(loads.shape[:-1] + n.shape), where=n > 0)
    return np.exp(n_log - loads - log_factorial(n))


def _c_log(x: np.ndarray) -> np.ndarray:
    """The C library's log elementwise (``math.log``), -inf at 0."""
    logs = [math.log(v) if v > 0.0 else -math.inf for v in x.ravel().tolist()]
    return np.array(logs).reshape(x.shape)


def _half_eta_squared(mu: float) -> float:
    """mu - log(1 + mu) for mu > -1, without cancellation near 0.

    Near 0 it is mu v - 2 (v**3/3 + v**5/5 + ...) with v = mu / (2 + mu),
    as log(1 + mu) = 2 atanh(v) and mu - 2 v = mu v.
    """
    if abs(mu) >= 0.5:
        return mu - math.log1p(mu)
    v = mu / (2.0 + mu)
    power, total = v, mu * v
    for j in range(3, 200, 2):
        power *= v * v
        term = 2.0 * power / j
        total -= term
        if abs(term) <= 2**-60 * total:
            break
    return total


@functools.cache
def _temme_coefficients() -> tuple:
    """Taylor coefficients in eta of Temme's c_0(eta) .. c_3(eta), highest
    power first (DLMF 8.12.9-10).

    With mu = lambda - 1 = sum a_m eta**m, eta (1 + mu) = mu mu' gives each
    a_m from the lower ones; then c_0 = 1/mu - 1/eta and, for k >= 1,
    c_k = c_{k-1}'/eta + (-1)**k g_k / mu, all in exact fractions.
    """
    order = _TEMME_ORDER
    a = [Fraction(0), Fraction(1)]
    for m in range(2, order + 3):
        a.append((a[m - 1] - sum(j * a[m + 1 - j] * a[j] for j in range(2, m))) / (m + 1))
    # 1/mu = (1/eta) sum r_n eta**n, so c_0 = sum r_{n+1} eta**n
    r = [Fraction(1)]
    for n in range(1, order + 2):
        r.append(-sum(a[j + 1] * r[n - j] for j in range(1, n + 1)))
    d = [r[1:]]
    for k in range(1, len(_GAMMA_STAR)):
        d.append([(n + 2) * d[-1][n + 2] + (-1) ** k * _GAMMA_STAR[k] * d[0][n]
                  for n in range(len(d[-1]) - 2)])
    return tuple(tuple(float(c) for c in reversed(row)) for row in d)


def _large_load_tail(lam: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(lam) at a large lam: P(a, lam), the
    regularized lower incomplete gamma function, at a = n + 1.

    Temme's uniform expansion to a**-3 (DLMF 8.12.3 and 8.12.8), which holds
    uniformly in lam / a; a tail within exp(-745) of 0 or 1 is 0 or 1.
    """
    a = n + 1.0
    mu = (lam - a) / a
    half = _half_eta_squared(mu)  # eta**2 / 2
    if a * half > 745.0:
        return 1.0 if mu > 0 else 0.0
    eta = math.copysign(math.sqrt(2.0 * half), mu)
    series = sum(_horner(c, eta) / a**k for k, c in enumerate(_temme_coefficients()))
    rest = math.exp(-a * half) / math.sqrt(2.0 * math.pi * a) * series
    return 0.5 * math.erfc(-eta * math.sqrt(0.5 * a)) - rest


def _poisson_tail(lam: float):
    """The function n -> P(N > n) for N ~ Poisson(lam), lam > 0, n >= 0.

    From ``_TAIL_EXPANSION_LOAD`` on it is ``_large_load_tail``.  Below, the
    pmf is summed from the far end, from lam + 40 sqrt(lam) + 200, where it
    is below the smallest normal float.
    """
    if lam >= _TAIL_EXPANSION_LOAD:
        return functools.partial(_large_load_tail, lam)
    pmf = poisson_pmf(np.arange(int(lam + 40.0 * math.sqrt(lam)) + 200), lam)
    tails = np.cumsum(pmf[:0:-1])[::-1]  # tails[j] = P(N > j)
    return lambda j: float(tails[j]) if j < tails.size else 0.0


@functools.lru_cache(maxsize=4096)
def poisson_tail_cutoff(lam: float, delta: float) -> int:
    """Smallest n with P(Poisson(lam) > n) < delta.

    The tail is ``_poisson_tail``.  Probes forward from the mean in strides
    of about 0.1*sqrt(lam), then bisects the last stride, so even lam = 5e11
    takes about a hundred probes.  Memoized: the evaluators ask for the same
    few rates many times.
    """
    if lam < 0 or math.isnan(lam) or math.isinf(lam):
        raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
    if lam > 2.0**53:  # floats skip counts there, and the search stalls
        raise ValueError(f"Poisson rate {lam:g} is above 2**53, where floats skip counts")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if lam == 0.0:
        return 0
    tail = _poisson_tail(lam)
    step = max(1, int(0.1 * math.sqrt(lam)) if lam > 100 else 1)
    # The tail at n = -1 is 1 >= delta, so lo = -1 always qualifies.
    lo, hi = -1, int(lam)
    while tail(hi) >= delta:
        lo, hi = hi, hi + step
    # The answer lies in (lo, hi]: bisect to the smallest qualifying n.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) < delta:
            hi = mid
        else:
            lo = mid
    return hi


def poisson_weights(lam: float):
    """Support 0..n_max and pmf values covering all but ``TAIL_MASS_DEFAULT``."""
    n = np.arange(poisson_tail_cutoff(lam, TAIL_MASS_DEFAULT) + 1)
    return n, poisson_pmf(n, lam)


# ============================================================================
#  Special functions
# ============================================================================


# Only the test oracle calls aux_h; kept here as perfbench/spans.py wraps core.aux_h by name.
def aux_h(m: int, x: float) -> float:
    """Auxiliary series H_m(x) = sum_n x**n * n**m / n!.

    Evaluated through the exact recursion H_0 = exp(x),
    H_m = x * sum_{l<m} C(m-1, l) H_l, memoizing the row of lower orders.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    if m > AUX_H_MAX_ORDER:
        raise OrderLimitError(
            f"aux_h order {m} exceeds the supported maximum {AUX_H_MAX_ORDER}"
        )
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"x must be finite, got {x}")
    row = [math.exp(x)]
    for order in range(1, m + 1):
        acc = 0.0
        for l in range(order):
            acc += math.comb(order - 1, l) * row[l]
        row.append(x * acc)
    return row[m]


def gamma_k_tolerance_array(x, eps: float, k) -> np.ndarray:
    """Probability that at most ``k`` of ``x`` transmissions survive erasure.

    Elementwise over an integer array of counts ``x``: 1 where x <= k (or k
    is infinite), otherwise the Binomial(x, 1-eps) CDF evaluated at k.
    """
    x = np.asarray(x)
    if np.any(x < 0):
        raise ValueError(f"counts must be >= 0, got min {x.min()}")
    _check_prob("eps", eps)
    if k == INFINITE_K:  # the row below takes int(k)
        return np.ones(x.shape)
    if k < 0:
        raise ValueError(f"k must be >= 0 (or INFINITE_K), got {k}")
    n = 1 << int(x.max(initial=0)).bit_length()
    return _tolerance_row(n, float(eps), int(k))[x]


# counts per _binomial_cdf call while a tolerance row is built
_ROW_BLOCK = 2**16


@functools.lru_cache(maxsize=64)
def _tolerance_row(n: int, eps: float, k: int) -> np.ndarray:
    """Read-only tolerance row at the counts 0..n; indexing it copies.

    The counts above ``k`` take ``_binomial_cdf``, ``_ROW_BLOCK`` at a time.
    Memoized: a row costs far more to build than to index."""
    row = np.ones(n + 1)
    for lo in range(k + 1, n + 1, _ROW_BLOCK):
        x = np.arange(lo, min(lo + _ROW_BLOCK, n + 1))
        row[x] = _binomial_cdf(k, x, eps)
    row.flags.writeable = False
    return row


def _binomial_cdf(k: int, x: np.ndarray, eps: float) -> np.ndarray:
    """P(at most ``k`` of ``x`` transmissions survive erasure), at counts x > k.

    The Binomial(x, p) CDF at k, with p = 1 - eps and q = 1 - p in floats,
    by ``_summed_cdf``.
    """
    p = 1.0 - eps
    q = 1.0 - p  # exact, so p + q = 1
    if q == 0.0 or p == 0.0:
        return np.full(x.shape, 1.0 if p == 0.0 else 0.0)
    return _summed_cdf(k, x, p, q)


def _summed_cdf(k: int, x: np.ndarray, p: float, q: float) -> np.ndarray:
    """The Binomial(x, p) CDF at k, summed from its largest term outwards:
    where k lies below the mean, the terms C(x, i) p**i q**(x-i) for i = k,
    k-1, ...; elsewhere one minus those for i = k+1, k+2, ...  Each term
    comes from the one before by their ratio, until the terms no longer
    count; the first is ``_binomial_term``.
    """
    out = np.empty(x.shape)
    below = k < x * p
    xs, i = x[below], k
    if xs.size:
        term, total = _binomial_term(xs, i, p, q), np.zeros(xs.shape)
        while _add_terms(total, term) and i > 0:
            term *= (i * q) / ((xs - i + 1) * p)
            i -= 1
        out[below] = total
    xs, i = x[~below], k + 1
    if xs.size:
        term, total = _binomial_term(xs, i, p, q), np.zeros(xs.shape)
        while _add_terms(total, term):  # a term is 0 from i = x on
            term *= ((xs - i) * p) / ((i + 1) * q)
            i += 1
        out[~below] = 1.0 - total
    return out


def _add_terms(total: np.ndarray, term: np.ndarray) -> bool:
    """Add each term that still counts to its sum, in place; whether any did.

    A term that no longer counts is zeroed, so its sum takes no more terms:
    each sum stops at its own term, whatever the others in the array."""
    term[term <= 2**-64 * total] = 0.0
    total += term
    return bool(term.any())


def _binomial_term(x: np.ndarray, j: int, p: float, q: float) -> np.ndarray:
    """C(x, j) p**j q**(x - j) elementwise over counts x >= j (not empty).

    The factors are kept as mantissas and binary exponents, so none of them
    under- or overflows before the product is scaled back.  The j
    consecutive counts x - j + 1 .. x are multiplied in blocks of 2**s
    counts, one for each bit s of j, each block built by doubling; so a
    term takes about 2 log2(j) roundings, over log2(j) passes.
    """
    lo = int(x.min()) - j + 1
    m, e = np.frexp(np.arange(lo, int(x.max()) + 1, dtype=float))  # blocks of 1
    c, c_exp = np.ones(x.shape), np.zeros(x.shape, dtype=np.int64)
    start, size, bits = x - j + 1 - lo, 1, j
    while bits:
        if bits & 1:
            c, de = np.frexp(c * m[start])
            c_exp += e[start] + de
            start = start + size
        bits >>= 1
        if bits:
            m, de = np.frexp(m[:-size] * m[size:])
            e = e[:-size] + e[size:] + de
            size *= 2
    f = math.factorial(j)
    f_exp = f.bit_length()
    p_m, p_exp = _scaled_power(p, j)
    q_m, q_exp = _scaled_power(q, x - j)
    return np.ldexp(c / (f / (1 << f_exp)) * p_m * q_m, c_exp - f_exp + p_exp + q_exp)


def _scaled_power(base: float, e):
    """``(m, s)`` with base**e = m * 2**s, 1/4 <= m <= 1, for 0 < base <= 1
    and integer powers ``e`` up to about 1e6 (an array or a number).

    The mantissa of ``base`` is raised in runs whose powers stay normal
    floats, and the binary exponents are summed as integers.
    """
    m, s = math.frexp(base)
    run = int(min(1000.0 / -math.log2(m), 2.0**62))  # m**run >= 2**-1000
    m_run, s_run = math.frexp(m**run)
    runs, rest = np.divmod(e, run)
    m1, e1 = np.frexp(m_run**runs)
    m2, e2 = np.frexp(m**rest)
    return m1 * m2, s * e + s_run * runs + e1 + e2


# ============================================================================
#  Chunked Monte Carlo driver
# ============================================================================


# Expected draws per simulation chunk, and the most one frame or slot may need
CHUNK_DRAWS = 6_000_000
MAX_ITEM_DRAWS = 2**26


def chunk_items(draws_per_item: float, cap: int) -> int:
    """Items (frames or slots) per chunk: as many as ``CHUNK_DRAWS`` expected
    draws allow, from 1 to ``cap``.

    An item whose expected draws exceed ``MAX_ITEM_DRAWS`` is refused with a
    ValueError, before any draw, as a chunk holds at least one item whole.
    """
    if draws_per_item > MAX_ITEM_DRAWS:
        raise ValueError(
            f"one simulated frame or slot needs about {draws_per_item:.3g} expected "
            f"draws, more than the {MAX_ITEM_DRAWS} one chunk may hold"
        )
    return int(min(cap, max(1, CHUNK_DRAWS // max(1.0, draws_per_item))))


def _run_chunk_task(task) -> dict:
    chunk_fn, spec, size, seed, chunk_index = task
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    )
    return chunk_fn(spec, size, rng)


def run_chunked(chunk_fn, spec, n_items: int, chunk: int, seed: int, workers: int = 1) -> dict:
    """Tallies of ``chunk_fn`` over ``n_items`` items, summed over fixed-size chunks.

    Chunk i holds ``chunk`` items (the last one the remainder) and draws
    from its own substream ``SeedSequence(entropy=seed, spawn_key=(i,))``;
    ``chunk_fn(spec, size, rng)`` must be a picklable module-level function
    returning a dict of tallies.  Chunks are merged in index order, so the
    totals do not depend on ``workers``.  The pool holds ``min(workers,
    chunks, os.cpu_count())`` processes, and none when that is 1.  A budget
    below one item is refused.
    """
    if n_items < 1:
        raise ValueError(f"a simulation budget must be >= 1, got {n_items}")
    tasks = [
        (chunk_fn, spec, min(chunk, n_items - lo), seed, idx)
        for idx, lo in enumerate(range(0, n_items, chunk))
    ]
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # one-worker runs skip the import
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_chunk_task, tasks, chunksize=1))
    else:
        partials = [_run_chunk_task(t) for t in tasks]
    totals: dict = {}
    for part in partials:
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
    return totals
