"""Literal closed forms of the erasure-channel metrics, kept as test oracles.

The package evaluates every metric as a Poisson series: the single-service
ones (throughput, PSR, the uplink benchmark bound), the NCS metrics at
K = inf as a nested series and every finite-K metric as a two-class series.
The closed forms below are the printed expressions those series must agree
with: alternating sums over ``aux_h``, powers of ``1 / eps1`` and, at finite
K, the tolerance-weighted tails ``_xi1``, ``_xi2`` and ``_xi_poisson_tail``.
They cancel catastrophically as L grows, so they are only compared on small
L (criterion 01 and the unit tests).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from twohop_aloha.core import (
    TAIL_MASS_DEFAULT,
    aux_h,
    gamma_k_tolerance_array,
    poisson_tail_cutoff,
)


def _beta(e1: float, e2: float) -> float:
    """Composite delivery factor: survive the access and the backhaul erasure."""
    return (1.0 - e1) * (1.0 - e2)


def _expm1_or_aux(order: int, x: float) -> float:
    """sum_{n>=1} x**n n**order / n!  (aux_h minus the n = 0 term)."""
    if order == 0:
        return math.expm1(x)
    return aux_h(order, x)


def regularized_gamma_q(k_plus_1: int, x: float) -> float:
    """Q(K+1, x) = P(Poisson(x) <= K), the regularized upper gamma function."""
    if k_plus_1 < 1:
        raise ValueError(f"first argument must be a positive integer, got {k_plus_1}")
    if x < 0 or math.isnan(x) or math.isinf(x):
        raise ValueError(f"x must be finite and >= 0, got {x}")
    return float(special.gammaincc(k_plus_1, x))


# ============================================================================
#  Single service (ideal tolerance)
# ============================================================================


def cs_throughput_closed(L, e1, e2, g_c):
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


def cs_psr_closed(L, e1, e2, g_c):
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


def benchmark_closed(L, e1, g_c):
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
#  NCS metrics, ideal tolerance
# ============================================================================


def ncs_throughput_inf_closed(L, e1, e2, g_c, g_n):
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


def ncs_psr_inf_closed(L, e1, e2, g_c, g_n):
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
#  NCS throughput, finite tolerance
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


def ncs_throughput_k_closed(L, e1, e2, g_c, g_n, K):
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
#  CS throughput, finite tolerance
# ============================================================================


def _xi_poisson_tail(K, l, g_n, e1):
    """sum_{n > K} Poisson(g_n) pmf(n) * gamma_K(n, e1)**(l+1)."""
    if g_n == 0.0:
        return 0.0
    n_max = max(poisson_tail_cutoff(g_n, TAIL_MASS_DEFAULT), K + 1)
    n = np.arange(K + 1, n_max + 1)
    pmf = np.exp(n * math.log(g_n) - g_n - special.gammaln(n + 1))
    tol = gamma_k_tolerance_array(n, e1, K)
    return float(np.sum(pmf * tol ** (l + 1)))


def cs_throughput_k_closed(L, e1, e2, g_c, g_n, K):
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
