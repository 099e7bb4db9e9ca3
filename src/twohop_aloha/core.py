"""Domain types, distributions, special functions and the Monte Carlo driver.

Everything downstream (analytic series, semi-analytic superposition evaluation,
Monte Carlo engines) builds on the primitives defined here.  All functions
are pure; samplers take an explicit ``numpy.random.Generator``.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

# The ufunc that SciPy's binom.cdf calls (binom_gen._cdf in SciPy's
# _discrete_distns.py); the public special.bdtr and special.betaincc give
# other bits in the tails, so the private name is used.
from scipy.special._ufuncs import _binom_cdf

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


# ============================================================================
#  Scenario configuration
# ============================================================================


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
        if self.L < 1:
            raise ValueError(f"L must be >= 1, got {self.L}")
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not 0 <= self.G < math.inf:
            raise ValueError(f"G must be finite and >= 0, got {self.G}")
        _check_prob("gamma_c", self.gamma_c)
        if self.K != INFINITE_K and not (isinstance(self.K, (int, np.integer)) and self.K >= 0):
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
        return type(self)(**{**vars(self), **changes})


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
        if any(math.isnan(v) for v in vars(self).values()):
            raise ValueError(f"metrics must not be NaN, got {self}")
        if self.R_c < -self._TOL or self.R_cbar < -self._TOL:
            raise ValueError("throughputs must be non-negative")
        if self.R_c + self.R_cbar > 1.0 + self._TOL:
            raise ValueError("R_c + R_cbar cannot exceed one packet per slot")
        for name in ("Gamma_c", "Gamma_cbar"):
            v = getattr(self, name)
            if not -self._TOL <= v <= 1.0 + self._TOL:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


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


# ============================================================================
#  Poisson machinery
# ============================================================================


@functools.lru_cache(maxsize=4096)
def poisson_tail_cutoff(lam: float, delta: float) -> int:
    """Smallest n with P(Poisson(lam) > n) < delta.

    The tail is ``special.pdtrc``, the ufunc behind SciPy's ``poisson.sf``.
    Probes forward from the mean in strides of about 0.1*sqrt(lam), then
    bisects the last stride, so even lam = 5e11 takes about a hundred calls.
    Memoized: the evaluators ask for the same few rates many times.
    """
    if lam < 0 or math.isnan(lam) or math.isinf(lam):
        raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if lam == 0.0:
        return 0
    step = max(1, int(0.1 * math.sqrt(lam)) if lam > 100 else 1)
    # The tail at n = -1 is 1 >= delta, so lo = -1 always qualifies.
    lo, hi = -1, int(lam)
    while special.pdtrc(hi, lam) >= delta:
        lo, hi = hi, hi + step
    # The answer lies in (lo, hi]: bisect to the smallest qualifying n.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if special.pdtrc(mid, lam) < delta:
            hi = mid
        else:
            lo = mid
    return hi


def poisson_weights(lam: float):
    """Support 0..n_max and pmf values covering all but ``TAIL_MASS_DEFAULT``."""
    n_max = poisson_tail_cutoff(lam, TAIL_MASS_DEFAULT)
    n = np.arange(n_max + 1)
    if lam == 0.0:
        w = np.zeros(n_max + 1)
        w[0] = 1.0
        return n, w
    w = np.exp(n * math.log(lam) - lam - special.gammaln(n + 1))
    return n, w


def normalized_poisson_weights(lam: float):
    """Support 1..n_max and weights of a Poisson conditioned on N >= 1."""
    if lam <= 0:
        raise ValueError("normalized Poisson requires a positive rate")
    n_max = max(1, poisson_tail_cutoff(lam, TAIL_MASS_DEFAULT))
    n = np.arange(1, n_max + 1)
    w = np.exp(n * math.log(lam) - lam - special.gammaln(n + 1))
    return n, w / (-math.expm1(-lam))


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


@functools.lru_cache(maxsize=64)
def _tolerance_row(n: int, eps: float, k: int) -> np.ndarray:
    """Read-only tolerance row at the counts 0..n; indexing it copies.

    The counts above ``k`` take ``_binom_cdf``, the ufunc behind SciPy's
    ``binom.cdf``.  Memoized: a row costs about 0.1 us per count to build,
    some 50 times what indexing it costs."""
    row = np.ones(n + 1)
    row[k + 1:] = _binom_cdf(k, np.arange(k + 1, n + 1), 1.0 - eps)
    row.flags.writeable = False
    return row


# ============================================================================
#  Sampling
# ============================================================================


def multinomial_sample(
    rng: np.random.Generator, trials: int, probs, size: int | None = None
) -> np.ndarray:
    """Draw cell counts for ``trials`` placements with the given cell probs.

    With ``size`` set, returns that many independent draws as rows.
    """
    p = np.asarray(probs, dtype=float)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a non-empty 1-D vector")
    if np.any(p < 0):
        raise ValueError("probs must be non-negative")
    if abs(p.sum() - 1.0) > 1e-12:
        raise ValueError(f"probs must sum to 1 within 1e-12, got sum {p.sum()!r}")
    return rng.multinomial(trials, p / p.sum(), size=size)


# ============================================================================
#  Chunked Monte Carlo driver
# ============================================================================


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
    totals do not depend on ``workers``.
    """
    tasks = [
        (chunk_fn, spec, min(chunk, n_items - lo), seed, idx)
        for idx, lo in enumerate(range(0, n_items, chunk))
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(_run_chunk_task, tasks, chunksize=1))
    else:
        partials = [_run_chunk_task(t) for t in tasks]
    totals: dict = {}
    for part in partials:
        for key, value in part.items():
            totals[key] = totals.get(key, 0) + value
    return totals
