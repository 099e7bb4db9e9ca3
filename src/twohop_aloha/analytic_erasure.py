"""Closed-form throughput and packet success rate under erasure channels.

Collision receiver model, two service classes (CS / NCS), finite or ideal
NCS-to-CS interference tolerance K, non-orthogonal sharing or inter-service
TDMA.  Every closed form has a direct truncated-series counterpart used as a
mutual-consistency oracle; the Monte Carlo engine in ``sim_erasure`` is the
independent oracle for both.

Notation used throughout the internals: per-slot loads ``g_c`` and ``g_n``
for the two classes, erasure probabilities ``e1`` (access) and ``e2``
(backhaul), composite delivery factor ``beta = (1 - e1) * (1 - e2)``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .core import (
    AUX_H_MAX_ORDER,
    INFINITE_K,
    TAIL_MASS_DEFAULT,
    ErasureParams,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
    Tolerance,
    aux_h,
    gamma_k_tolerance_array,
    is_infinite,
    normalized_poisson_weights,
    poisson_tail_cutoff,
    poisson_weights,
    regularized_gamma_q,
)

# Below this access-erasure probability the closed forms (which carry powers
# of 1/eps1) are evaluated through the direct series instead; the limits
# exist but the printed expressions are 0/0.
EPS1_CLOSED_FORM_MIN = 1e-6


def _beta(e1: float, e2: float) -> float:
    return (1.0 - e1) * (1.0 - e2)


# ============================================================================
#  Conditional access probabilities
# ============================================================================


def p_access_cs(n_c: int, eps1: float) -> float:
    """P(an AP decodes one CS packet | n_c CS transmissions in the slot)."""
    if n_c < 0:
        raise ValueError(f"n_c must be >= 0, got {n_c}")
    if n_c == 0:
        return 0.0
    return n_c * (1.0 - eps1) * eps1 ** (n_c - 1)


def p_access_ncs(n_c: int, n_cbar: int, eps1: float) -> float:
    """P(an AP decodes one NCS packet | n_c CS and n_cbar NCS transmissions).

    Requires the one surviving NCS arrival plus erasure of every CS arrival.
    """
    if n_c < 0 or n_cbar < 0:
        raise ValueError("transmission counts must be >= 0")
    if n_cbar == 0:
        return 0.0
    return n_cbar * (1.0 - eps1) * eps1 ** (n_cbar - 1) * eps1**n_c


def _p_cs_array(n: np.ndarray, e1: float) -> np.ndarray:
    """Vectorized p_access_cs with the 0**0 = 1 convention."""
    powers = e1 ** np.maximum(n - 1, 0)
    return np.where(n == 0, 0.0, n * (1.0 - e1) * powers)


# ============================================================================
#  Single service (ideal tolerance): throughput and PSR
# ============================================================================


def _cs_throughput_series(L, e1, e2, g_c):
    n, w = poisson_weights(g_c)
    q = _p_cs_array(n, e1) * (1.0 - e2)
    return float(np.sum(w * L * q * (1.0 - q) ** (L - 1)))


def _cs_throughput_closed(L, e1, e2, g_c):
    beta = _beta(e1, e2)
    total = 0.0
    for l in range(L):
        term = (
            (-1.0) ** l
            * L
            * math.comb(L - 1, l)
            * (beta / e1) ** (l + 1)
            * math.exp(-g_c)
            * aux_h(l + 1, g_c * e1 ** (l + 1))
        )
        total += term
    return total


def _cs_psr_series(L, e1, e2, g_c):
    n, w = normalized_poisson_weights(g_c)
    p_u = (1.0 - e1) * e1 ** (n - 1)
    q = n * p_u * (1.0 - e2)
    return float(np.sum(w * L * p_u * (1.0 - e2) * (1.0 - q) ** (L - 1)))


def _expm1_or_aux(order: int, x: float) -> float:
    """sum_{n>=1} x**n n**order / n!  (aux_h minus the n = 0 term)."""
    if order == 0:
        return math.expm1(x)
    return aux_h(order, x)


def _cs_psr_closed(L, e1, e2, g_c):
    beta = _beta(e1, e2)
    norm = 1.0 / -math.expm1(-g_c)
    total = 0.0
    for l in range(L):
        total += (
            math.comb(L - 1, l)
            * (-beta) ** l
            / e1 ** (l + 1)
            * _expm1_or_aux(l, g_c * e1 ** (l + 1))
        )
    return L * beta * norm * math.exp(-g_c) * total


# ============================================================================
#  NCS metrics, ideal tolerance
# ============================================================================


def _ncs_throughput_series(L, e1, e2, g_c, g_n, k: Tolerance):
    """Mean NCS deliveries per slot; covers both ideal and finite K."""
    nc, wc = poisson_weights(g_c)
    nn, wn = poisson_weights(g_n)
    NC = nc[:, None]
    NN = nn[None, :]
    q_cs = _p_cs_array(nc, e1)[:, None] * gamma_k_tolerance_array(NN, e1, k) * (1.0 - e2)
    q_ncs = _p_cs_array(nn, e1)[None, :] * e1**NC * (1.0 - e2)
    val = L * q_ncs * (1.0 - q_cs - q_ncs) ** (L - 1)
    return float(wc @ val @ wn)


def _ncs_throughput_inf_closed(L, e1, e2, g_c, g_n):
    beta = _beta(e1, e2)
    total = 0.0
    for i in range(L):
        for k in range(i + 1):
            total += (
                (-1.0) ** i
                * math.comb(L - 1, i)
                * math.comb(i, k)
                * (beta / e1) ** (i + 1)
                * math.exp(-(g_c + g_n))
                * aux_h(i - k, g_c * e1 ** (i + 1))
                * aux_h(k + 1, g_n * e1 ** (k + 1))
            )
    return L * total


def _ncs_psr_series(L, e1, e2, g_c, g_n, k: Tolerance):
    """PSR of a tagged NCS device; covers ideal and finite K.

    The CS interference budget at each AP is charged only with what that AP
    actually receives, which is what the slot-level simulation measures.
    """
    nc, wc = poisson_weights(g_c)
    nn, wn = normalized_poisson_weights(g_n)
    NC = nc[:, None]
    NN = nn[None, :]
    if is_infinite(k):
        tol = np.ones(NN.shape)
    else:
        tol = gamma_k_tolerance_array(NN, e1, k)
    p_u = (1.0 - e1) * e1 ** (NN - 1) * e1**NC
    q = (1.0 - e2) * (_p_cs_array(nc, e1)[:, None] * tol + NN * p_u)
    val = L * p_u * (1.0 - e2) * (1.0 - q) ** (L - 1)
    return float(wc @ val @ wn)


def _ncs_psr_inf_closed(L, e1, e2, g_c, g_n):
    beta = _beta(e1, e2)
    norm = 1.0 / -math.expm1(-g_n)
    total = 0.0
    for l in range(L):
        inner = 0.0
        for m in range(l + 1):
            term_cs = math.exp(-g_c) * aux_h(m, g_c * e1 ** (l + 1))
            term_ncs = math.exp(-g_n) * _expm1_or_aux(l - m, g_n * e1 ** (l - m + 1))
            inner += math.comb(l, m) * term_cs * term_ncs
        total += math.comb(L - 1, l) * (-beta) ** l / e1 ** (l + 1) * inner
    return L * beta * norm * total


# ============================================================================
#  NCS metrics, finite tolerance (closed form)
# ============================================================================


def _poly_series_cutoff(x: float, order: int) -> int:
    """Safe truncation index for sums of x**n n**order / n! terms."""
    base = poisson_tail_cutoff(max(x, 1.0), min(TAIL_MASS_DEFAULT, 1e-15))
    return base + 5 * (order + 1) + 25


def _xi1(K, k, g_n, e1):
    """Head of the tolerance-weighted series: n inside the free region."""
    x = g_n * e1 ** (k + 1)
    total = 0.0
    term = 1.0  # x**n / n!, updated iteratively
    for n in range(1, K + 1):
        term *= x / n
        total += term * n ** (k + 1)
    return total


def _xi2(K, k, j, g_n, e1):
    """Tail of the tolerance-weighted series, with the budget CDF factor."""
    x = g_n * e1 ** (k + 1)
    if x == 0.0:
        return 0.0
    n_max = _poly_series_cutoff(g_n, k + 1)
    n = np.arange(K + 1, n_max + 1)
    log_terms = n * math.log(x) - special.gammaln(n + 1) + (k + 1) * np.log(n)
    tol = gamma_k_tolerance_array(n, e1, K)
    return float(np.sum(np.exp(log_terms) * tol**j))


def _ncs_throughput_k_closed(L, e1, e2, g_c, g_n, K):
    beta = _beta(e1, e2)
    total = 0.0
    for i in range(L):
        for k in range(i + 1):
            xi = _xi1(K, k, g_n, e1) + _xi2(K, k, i - k, g_n, e1)
            total += (
                (-1.0) ** i
                * math.comb(L - 1, i)
                * math.comb(i, k)
                * (beta / e1) ** (i + 1)
                * math.exp(-(g_c + g_n))
                * aux_h(i - k, g_c * e1 ** (i + 1))
                * xi
            )
    return L * total


# ============================================================================
#  CS metrics, finite tolerance
# ============================================================================


def _cs_throughput_k_series(L, e1, e2, g_c, g_n, K: int):
    """Exact finite-K CS throughput via the trinomial delivery expansion.

    One AP must deliver the CS packet, at most min(K, L-1) APs may deliver
    NCS packets, and the remaining APs must stay silent.  For K >= L - 1 the
    inner sum collapses to the single-service binomial form.
    """
    nc, wc = poisson_weights(g_c)
    nn, wn = poisson_weights(g_n)
    NC = nc[:, None]
    NN = nn[None, :]
    psi = _p_cs_array(nc, e1)[:, None] * gamma_k_tolerance_array(NN, e1, K) * (1.0 - e2)
    qn = _p_cs_array(nn, e1)[None, :] * e1**NC * (1.0 - e2)
    rest = np.clip(1.0 - psi - qn, 0.0, 1.0)
    val = np.zeros(psi.shape)
    for i in range(min(K, L - 1) + 1):
        val += math.comb(L - 1, i) * qn**i * rest ** (L - 1 - i)
    val *= L * psi
    return float(wc @ val @ wn)


def _xi_poisson_tail(K, l, g_n, e1):
    """sum_{n > K} Poisson(g_n) pmf(n) * gamma_K(n, e1)**(l+1)."""
    if g_n == 0.0:
        return 0.0
    n_max = max(poisson_tail_cutoff(g_n, TAIL_MASS_DEFAULT), K + 1)
    n = np.arange(K + 1, n_max + 1)
    pmf = np.exp(n * math.log(g_n) - g_n - special.gammaln(n + 1))
    tol = gamma_k_tolerance_array(n, e1, K)
    return float(np.sum(pmf * tol ** (l + 1)))


def _cs_throughput_k_closed(L, e1, e2, g_c, g_n, K):
    """Closed finite-K CS throughput; valid for L <= K + 1 only."""
    if L > K + 1:
        raise ValueError("closed finite-K CS throughput requires L <= K + 1")
    beta = _beta(e1, e2)
    q_head = regularized_gamma_q(K + 1, g_n)
    total = 0.0
    for l in range(L):
        factor = q_head + _xi_poisson_tail(K, l, g_n, e1)
        total += (
            (-1.0) ** l
            * L
            * math.comb(L - 1, l)
            * (beta / e1) ** (l + 1)
            * math.exp(-g_c)
            * aux_h(l + 1, g_c * e1 ** (l + 1))
            * factor
        )
    return total


def _cs_psr_k_series(L, e1, e2, g_c, g_n, K: int):
    """Exact finite-K CS PSR for a tagged device.

    The delivery pattern of the other L-1 APs is trinomial (CS delivery, NCS
    delivery, silence are mutually exclusive per AP).
    """
    npr, wpr = normalized_poisson_weights(g_c)
    nn, wn = poisson_weights(g_n)
    NP = npr[:, None]
    NN = nn[None, :]
    tol = gamma_k_tolerance_array(NN, e1, K)
    p_u = (1.0 - e1) * e1 ** (NP - 1) * tol
    psi = NP * p_u * (1.0 - e2)
    phi = np.where(NN == 0, 0.0, NN * (1.0 - e1) * e1**NP * e1 ** np.maximum(NN - 1, 0) * (1.0 - e2))
    imax = min(K, L - 1)
    rest = np.clip(1.0 - psi - phi, 0.0, 1.0)
    block = np.zeros(psi.shape)
    for i in range(imax + 1):
        block += math.comb(L - 1, i) * phi**i * rest ** (L - 1 - i)
    val = L * p_u * (1.0 - e2) * block
    return float(wpr @ val @ wn)


# ============================================================================
#  Benchmark uplink bound
# ============================================================================


def _benchmark_series(L, e1, g_c):
    n, w = poisson_weights(g_c)
    p = _p_cs_array(n, e1)
    return float(np.sum(w * (1.0 - (1.0 - p) ** L)))


def _benchmark_closed(L, e1, g_c):
    total = 0.0
    for l in range(L + 1):
        total += (
            (-1.0) ** l
            * math.comb(L, l)
            * ((1.0 - e1) / e1) ** l
            * math.exp(-g_c)
            * aux_h(l, g_c * e1**l)
        )
    return 1.0 - total


# ============================================================================
#  Closed-form / series dispatch
# ============================================================================


def _dispatch(closed_fn, series_fn, L, e1):
    """Prefer the closed form; fall back to the series when the closed form
    is singular (e1 ~ 0), exceeds the recursion order cap, or loses finiteness."""
    if e1 < EPS1_CLOSED_FORM_MIN or L > AUX_H_MAX_ORDER:
        return series_fn()
    value = closed_fn()
    if not math.isfinite(value):
        return series_fn()
    return value


# ============================================================================
#  Public per-class operations (scenario-level)
# ============================================================================


def throughput_cs_single(cfg: ScenarioConfig) -> float:
    """CS throughput with no NCS interference (single-service semantics)."""
    e = cfg.erasure
    g_c = cfg.cs_slot_load
    return _dispatch(
        lambda: _cs_throughput_closed(cfg.L, e.eps1, e.eps2, g_c),
        lambda: _cs_throughput_series(cfg.L, e.eps1, e.eps2, g_c),
        cfg.L,
        e.eps1,
    )


def psr_cs_single(cfg: ScenarioConfig) -> float:
    """Single-service CS packet success rate for a tagged active device."""
    e = cfg.erasure
    g_c = cfg.cs_slot_load
    if g_c <= 0:
        raise ValueError("CS packet success rate requires a positive CS load")
    return _dispatch(
        lambda: _cs_psr_closed(cfg.L, e.eps1, e.eps2, g_c),
        lambda: _cs_psr_series(cfg.L, e.eps1, e.eps2, g_c),
        cfg.L,
        e.eps1,
    )


def throughput_ncs_ideal_k(cfg: ScenarioConfig) -> float:
    """NCS throughput under ideal CS interference tolerance."""
    e = cfg.erasure
    g_c, g_n = cfg.cs_slot_load, cfg.ncs_slot_load
    return _dispatch(
        lambda: _ncs_throughput_inf_closed(cfg.L, e.eps1, e.eps2, g_c, g_n),
        lambda: _ncs_throughput_series(cfg.L, e.eps1, e.eps2, g_c, g_n, INFINITE_K),
        cfg.L,
        e.eps1,
    )


def psr_ncs_ideal_k(cfg: ScenarioConfig) -> float:
    """NCS packet success rate under ideal CS interference tolerance."""
    e = cfg.erasure
    g_c, g_n = cfg.cs_slot_load, cfg.ncs_slot_load
    if g_n <= 0:
        raise ValueError("NCS packet success rate requires a positive NCS load")
    return _dispatch(
        lambda: _ncs_psr_inf_closed(cfg.L, e.eps1, e.eps2, g_c, g_n),
        lambda: _ncs_psr_series(cfg.L, e.eps1, e.eps2, g_c, g_n, INFINITE_K),
        cfg.L,
        e.eps1,
    )


def throughput_ncs_finite_k(cfg: ScenarioConfig) -> float:
    """NCS throughput under finite tolerance K (series primary path)."""
    e = cfg.erasure
    if is_infinite(cfg.K):
        raise ValueError("finite-K operation called with infinite tolerance")
    return _ncs_throughput_series(
        cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, cfg.K
    )


def psr_ncs_finite_k(cfg: ScenarioConfig) -> float:
    """NCS packet success rate under finite tolerance K."""
    e = cfg.erasure
    if is_infinite(cfg.K):
        raise ValueError("finite-K operation called with infinite tolerance")
    if cfg.ncs_slot_load <= 0:
        raise ValueError("NCS packet success rate requires a positive NCS load")
    return _ncs_psr_series(
        cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, cfg.K
    )


def throughput_cs_finite_k(cfg: ScenarioConfig) -> float:
    """CS throughput under finite tolerance K (series primary path)."""
    e = cfg.erasure
    if is_infinite(cfg.K):
        raise ValueError("finite-K operation called with infinite tolerance")
    return _cs_throughput_k_series(
        cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, cfg.K
    )


def psr_cs_finite_k(cfg: ScenarioConfig) -> float:
    """CS packet success rate under finite tolerance K."""
    e = cfg.erasure
    if is_infinite(cfg.K):
        raise ValueError("finite-K operation called with infinite tolerance")
    if cfg.cs_slot_load <= 0:
        raise ValueError("CS packet success rate requires a positive CS load")
    return _cs_psr_k_series(
        cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, cfg.K
    )


def benchmark_bound(cfg: ScenarioConfig) -> float:
    """Per-slot probability that at least one AP decodes a CS packet.

    Upper-bounds the end-to-end single-service throughput (it ignores the
    backhaul); it is the exact uplink success probability, not just a bound.
    """
    e = cfg.erasure
    g_c = cfg.cs_slot_load
    return _dispatch(
        lambda: _benchmark_closed(cfg.L, e.eps1, g_c),
        lambda: _benchmark_series(cfg.L, e.eps1, g_c),
        cfg.L,
        e.eps1,
    )


# ============================================================================
#  Scenario evaluation (collision receiver)
# ============================================================================


def _single_service_pair(L, e1, e2, load):
    """(throughput, PSR) of an isolated class at the given per-slot load."""
    if load <= 0:
        return 0.0, 0.0
    cfg = ScenarioConfig(
        L=L, T=1, G=load, gamma_c=1.0, channel=ErasureParams(e1, e2)
    )
    return throughput_cs_single(cfg), psr_cs_single(cfg)


def _evaluate_tdma(cfg: ScenarioConfig) -> ServiceMetrics:
    e = cfg.erasure
    (share_c, g_c), (share_n, g_n) = cfg.tdma_shares()
    r_c, p_c = _single_service_pair(cfg.L, e.eps1, e.eps2, g_c)
    r_n, p_n = _single_service_pair(cfg.L, e.eps1, e.eps2, g_n)
    return ServiceMetrics(
        R_c=share_c * r_c, R_cbar=share_n * r_n, Gamma_c=p_c, Gamma_cbar=p_n
    )


def evaluate_erasure(cfg: ScenarioConfig) -> ServiceMetrics:
    """All four class metrics for a collision-receiver erasure scenario.

    A class with zero offered load gets zero throughput and, by convention,
    zero packet success rate (there is no active device to condition on).
    """
    if cfg.receiver != Receiver.COLLISION:
        raise ValueError(
            "evaluate_erasure handles the collision receiver; use the "
            "superposition module for the superposition receiver"
        )
    cfg.erasure  # raises for fading scenarios
    if isinstance(cfg.allocation, Tdma):
        return _evaluate_tdma(cfg)

    g_c, g_n = cfg.cs_slot_load, cfg.ncs_slot_load
    ideal = is_infinite(cfg.K)

    if g_c > 0:
        r_c = throughput_cs_single(cfg) if ideal else throughput_cs_finite_k(cfg)
        p_c = psr_cs_single(cfg) if ideal else psr_cs_finite_k(cfg)
    else:
        r_c, p_c = 0.0, 0.0
    if g_n > 0:
        r_n = throughput_ncs_ideal_k(cfg) if ideal else throughput_ncs_finite_k(cfg)
        p_n = psr_ncs_ideal_k(cfg) if ideal else psr_ncs_finite_k(cfg)
    else:
        r_n, p_n = 0.0, 0.0
    return ServiceMetrics(R_c=r_c, R_cbar=r_n, Gamma_c=p_c, Gamma_cbar=p_n)
