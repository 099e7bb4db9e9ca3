"""Throughput and packet success rate under erasure channels.

Collision receiver model, two service classes (CS / NCS), finite or ideal
NCS-to-CS interference tolerance K, non-orthogonal sharing or inter-service
TDMA.

* A class that contends alone -- either class under TDMA, and CS at K = inf
  -- is a single-service Poisson expectation.  Its throughput and PSR, and
  the uplink benchmark bound, are series with a relative truncation error of
  1e-12 (``poisson_expectation``), batched over loads.
* The NCS metrics at K = inf keep closed forms for L <= 64 (``_dispatch``),
  with the two-class series as fallback; every finite-K metric is a
  two-class series, truncated at an absolute Poisson tail mass.
* The literal closed forms of the single-service and finite-K metrics are
  the test oracle ``tests/closed_form_oracle.py``; ``sim_erasure`` is the
  independent Monte Carlo oracle.

Notation used throughout the internals: per-slot loads ``g_c`` and ``g_n``
for the two classes, erasure probabilities ``e1`` (access) and ``e2``
(backhaul), composite delivery factor ``beta = (1 - e1) * (1 - e2)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import special

from .core import (
    AUX_H_MAX_ORDER,
    INFINITE_K,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
    Tolerance,
    aux_h,
    gamma_k_tolerance_array,
    is_infinite,
    normalized_poisson_weights,
    poisson_weights,
)

# Below this access-erasure probability the closed forms (which carry powers
# of 1/eps1) are evaluated through the direct series instead; the limits
# exist but the printed expressions are 0/0.
EPS1_CLOSED_FORM_MIN = 1e-6

# poisson_expectation works on blocks of this many loads and this many
# support points at a time, which bounds its memory whatever the loads.
_BLOCK_LOADS = 256
_BLOCK_TERMS = 64
_REL_TRUNCATION = 1e-12


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
#  Single-service Poisson expectations
# ============================================================================


def poisson_expectation(f, loads) -> np.ndarray:
    """E[f_j(N)] for N ~ Poisson(load), for every row j of ``f`` and every load.

    ``f(n)`` maps an integer support array ``n`` to an array of shape
    ``(rows, n.size)`` with values in [0, 1]; the result has shape
    ``(rows, len(loads))``.  Each sum runs from n = 0 and stops at the first
    n >= load where the bound P(n+1) / (1 - load / (n+2)) on the Poisson
    tail beyond n is at most 1e-12 times the partial sum, so, as f <= 1,
    every value carries a relative truncation error of at most 1e-12.
    """
    uniq, inverse = np.unique(np.asarray(loads, dtype=float), return_inverse=True)
    blocks = [
        _expectation_block(f, uniq[lo : lo + _BLOCK_LOADS])
        for lo in range(0, uniq.size, _BLOCK_LOADS)
    ]
    return np.concatenate(blocks, axis=1)[:, inverse]


def _expectation_block(f, lam: np.ndarray) -> np.ndarray:
    g = lam[:, None]
    total, value, done = 0.0, 0.0, False
    for lo in itertools.count(0, _BLOCK_TERMS):
        n = np.arange(lo, lo + _BLOCK_TERMS + 1)
        pmf = np.exp(special.xlogy(n, g) - g - special.gammaln(n + 1.0))
        partial = total + np.cumsum(pmf[:, None, :-1] * f(n[:-1]), axis=2)
        slack = (1.0 - g / (n[:-1] + 2.0))[:, None, :]
        stop = (n[:-1] >= g)[:, None, :] & (pmf[:, None, 1:] <= _REL_TRUNCATION * slack * partial)
        first = np.take_along_axis(partial, stop.argmax(axis=2)[..., None], axis=2)[..., 0]
        value = np.where(done, value, first)
        done = done | stop.any(axis=2)
        if np.all(done):
            return value.T
        total = partial[..., -1:]


def isolated_class_metrics(L: int, e1: float, e2: float, loads) -> tuple[np.ndarray, np.ndarray]:
    """Throughput and PSR of a class that contends alone, at each per-slot load.

    Given n transmissions in a slot, an AP relays the tagged packet with
    probability p_u and some packet with probability q = n * p_u; the BS
    decodes when exactly one AP relays.  A zero load gets zero PSR by
    convention.
    """
    loads = np.asarray(loads, dtype=float)

    def f(n):
        p_u = np.where(n == 0, 0.0, (1.0 - e1) * e1 ** np.maximum(n - 1, 0)) * (1.0 - e2)
        tagged = L * p_u * (1.0 - n * p_u) ** (L - 1)
        return np.stack([n * tagged, tagged])

    throughput, tagged = poisson_expectation(f, loads)
    active = -np.expm1(-loads)
    psr = np.divide(tagged, active, out=np.zeros(loads.shape), where=active > 0)
    return throughput, psr


# ============================================================================
#  NCS metrics, ideal tolerance
# ============================================================================


def _expm1_or_aux(order: int, x: float) -> float:
    """sum_{n>=1} x**n n**order / n!  (aux_h minus the n = 0 term)."""
    if order == 0:
        return math.expm1(x)
    return aux_h(order, x)


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
#  Closed-form / series dispatch
# ============================================================================


def _dispatch(closed_fn, series_fn, L, e1):
    """Prefer the closed form; fall back to the series when the closed form
    is singular (e1 ~ 0), exceeds the recursion order cap, overflows, or
    loses finiteness."""
    if e1 < EPS1_CLOSED_FORM_MIN or L > AUX_H_MAX_ORDER:
        return series_fn()
    try:
        value = closed_fn()
    except OverflowError:
        return series_fn()
    if not math.isfinite(value):
        return series_fn()
    return value


# ============================================================================
#  Public per-class operations (scenario-level)
# ============================================================================


def throughput_cs_single(cfg: ScenarioConfig) -> float:
    """CS throughput with no NCS interference (single-service semantics)."""
    e = cfg.erasure
    return float(isolated_class_metrics(cfg.L, e.eps1, e.eps2, [cfg.cs_slot_load])[0][0])


def psr_cs_single(cfg: ScenarioConfig) -> float:
    """Single-service CS packet success rate for a tagged active device."""
    e = cfg.erasure
    if cfg.cs_slot_load <= 0:
        raise ValueError("CS packet success rate requires a positive CS load")
    return float(isolated_class_metrics(cfg.L, e.eps1, e.eps2, [cfg.cs_slot_load])[1][0])


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
    L, e1 = cfg.L, cfg.erasure.eps1

    def f(n):
        with np.errstate(divide="ignore"):  # log1p(-1) when e1 = 0 and n = 1
            return -np.expm1(L * np.log1p(-_p_cs_array(n, e1)))[None, :]

    return float(poisson_expectation(f, [cfg.cs_slot_load])[0, 0])


# ============================================================================
#  Scenario evaluation (collision receiver)
# ============================================================================


def _group(cfg: ScenarioConfig) -> tuple:
    return cfg.L, cfg.erasure.eps1, cfg.erasure.eps2


def _isolated_loads(cfg: ScenarioConfig) -> tuple[float, ...]:
    """Per-slot loads of the classes of ``cfg`` that contend alone."""
    if isinstance(cfg.allocation, Tdma):
        (_, g_c), (_, g_n) = cfg.tdma_shares()
        return g_c, g_n
    return (cfg.cs_slot_load,) if is_infinite(cfg.K) else ()


def _evaluate_one(cfg: ScenarioConfig, isolated: dict) -> ServiceMetrics:
    def alone(load):
        return isolated[(*_group(cfg), load)]

    if isinstance(cfg.allocation, Tdma):
        (share_c, g_c), (share_n, g_n) = cfg.tdma_shares()
        (r_c, p_c), (r_n, p_n) = alone(g_c), alone(g_n)
        return ServiceMetrics(
            R_c=share_c * r_c, R_cbar=share_n * r_n, Gamma_c=p_c, Gamma_cbar=p_n
        )

    g_c, g_n = cfg.cs_slot_load, cfg.ncs_slot_load
    ideal = is_infinite(cfg.K)
    if ideal:
        r_c, p_c = alone(g_c)
    elif g_c > 0:
        r_c, p_c = throughput_cs_finite_k(cfg), psr_cs_finite_k(cfg)
    else:
        r_c, p_c = 0.0, 0.0
    if g_n > 0:
        r_n = throughput_ncs_ideal_k(cfg) if ideal else throughput_ncs_finite_k(cfg)
        p_n = psr_ncs_ideal_k(cfg) if ideal else psr_ncs_finite_k(cfg)
    else:
        r_n, p_n = 0.0, 0.0
    return ServiceMetrics(R_c=r_c, R_cbar=r_n, Gamma_c=p_c, Gamma_cbar=p_n)


def evaluate_erasure_batch(cfgs) -> list[ServiceMetrics]:
    """``evaluate_erasure`` of every scenario in ``cfgs``, in order.

    The loads of all classes that contend alone are evaluated together, one
    ``isolated_class_metrics`` call per (L, eps1, eps2).
    """
    cfgs = list(cfgs)
    loads: dict = {}
    for cfg in cfgs:
        if cfg.receiver != Receiver.COLLISION:
            raise ValueError(
                "evaluate_erasure handles the collision receiver; use the "
                "superposition module for the superposition receiver"
            )
        loads.setdefault(_group(cfg), []).extend(_isolated_loads(cfg))
    isolated = {}
    for key, group in loads.items():
        if group:
            for load, r, p in zip(group, *isolated_class_metrics(*key, group)):
                isolated[(*key, load)] = (float(r), float(p))
    return [_evaluate_one(cfg, isolated) for cfg in cfgs]


def evaluate_erasure(cfg: ScenarioConfig) -> ServiceMetrics:
    """All four class metrics for a collision-receiver erasure scenario.

    A class with zero offered load gets zero throughput and, by convention,
    zero packet success rate (there is no active device to condition on).
    """
    return evaluate_erasure_batch([cfg])[0]
