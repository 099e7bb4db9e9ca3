"""Throughput and packet success rate under erasure channels.

Collision receiver model, two service classes (CS / NCS), finite or ideal
NCS-to-CS interference tolerance K, non-orthogonal sharing or inter-service
TDMA.

* A class that contends alone -- either class under TDMA, and CS at K = inf
  -- is a single-service Poisson expectation.  Its throughput and PSR, and
  the uplink benchmark bound, are series with a relative truncation error of
  1e-12 (``poisson_expectation``), batched over loads.
* The NCS metrics at K = inf nest that expectation: an outer sum over the CS
  count around the isolated-class sum over the NCS count, to the same
  relative error.  Every finite-K metric is a two-class series, truncated at
  an absolute Poisson tail mass.  A two-class evaluation whose Poisson
  supports span more than ``MAX_TWO_CLASS_CELLS`` cells is refused.
* The literal closed forms of the metrics are the test oracle
  ``tests/closed_form_oracle.py``; ``sim_erasure`` is the independent Monte
  Carlo oracle.

Notation used throughout the internals: per-slot loads ``g_c`` and ``g_n``
for the two classes, erasure probabilities ``e1`` (access) and ``e2``
(backhaul).
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import special

from .core import (
    TAIL_MASS_DEFAULT,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
    gamma_k_tolerance_array,
    is_infinite,
    normalized_poisson_weights,
    poisson_tail_cutoff,
    poisson_weights,
)

# Largest product of the two classes' Poisson supports that one two-class
# evaluation may span; beyond it the work (and, for the dense finite-K
# series, the memory) is refused rather than attempted.
MAX_TWO_CLASS_CELLS = 2**26

# poisson_expectation works on blocks of this many loads and this many
# support points at a time, which bounds its memory whatever the loads.
_BLOCK_LOADS = 256
_BLOCK_TERMS = 64
_REL_TRUNCATION = 1e-12


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
#  Poisson expectations: a class alone, and NCS under ideal tolerance
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


def _class_terms(L: int, e1: float, e2: float, n, survive=1.0, busy=0.0) -> np.ndarray:
    """The rows (n * tagged, tagged) of a class's metrics at each count in ``n``.

    Given n transmissions of the class in a slot, an AP relays the tagged
    packet with probability p_u and some packet of the class with
    probability n * p_u; the BS decodes when exactly one AP relays.
    ``survive`` scales p_u (the other class's arrivals at the AP must be
    erased too) and ``busy`` is the probability that the AP relays a packet
    of the other class; both may be columns, one row per count of it.
    """
    p_u = survive * np.where(n == 0, 0.0, (1.0 - e1) * e1 ** np.maximum(n - 1, 0)) * (1.0 - e2)
    tagged = L * p_u * (1.0 - busy - n * p_u) ** (L - 1)
    return np.stack([n * tagged, tagged])


def _per_active(tagged, loads) -> np.ndarray:
    """PSR from the tagged-success expectation; zero at zero load."""
    active = -np.expm1(-np.asarray(loads, dtype=float))
    return np.divide(tagged, active, out=np.zeros(active.shape), where=active > 0)


def isolated_class_metrics(L: int, e1: float, e2: float, loads) -> tuple[np.ndarray, np.ndarray]:
    """Throughput and PSR of a class that contends alone, at each per-slot load.

    A zero load gets zero PSR by convention.
    """
    throughput, tagged = poisson_expectation(lambda n: _class_terms(L, e1, e2, n), loads)
    return throughput, _per_active(tagged, loads)


def _check_two_class_work(g_c: float, g_n: float) -> None:
    cells = math.prod(poisson_tail_cutoff(g, TAIL_MASS_DEFAULT) + 1 for g in (g_c, g_n))
    if cells > MAX_TWO_CLASS_CELLS:
        raise ValueError(
            f"per-slot loads g_c={g_c:g}, g_n={g_n:g} span {cells:.3g} cells of "
            f"Poisson support, over the two-class limit of {MAX_TWO_CLASS_CELLS}"
        )


def _ncs_ideal_k(L: int, e1: float, e2: float, g_c: float, g_n: float) -> tuple[float, float]:
    """NCS (throughput, PSR) under ideal tolerance, as a nested expectation.

    The outer sum runs over the CS count n_c and the inner one over the NCS
    count.  Given n_c, the inner terms are the isolated class's, with each
    NCS arrival also needing every CS arrival at its AP erased (e1**n_c)
    and each AP busy with a CS delivery with probability p_cs(n_c)(1 - e2).
    Both sums carry the relative truncation error of ``poisson_expectation``.
    """
    _check_two_class_work(g_c, g_n)

    def outer(n_c):
        survive = (e1**n_c)[:, None]
        busy = (_p_cs_array(n_c, e1) * (1.0 - e2))[:, None]
        inner = poisson_expectation(
            lambda n: _class_terms(L, e1, e2, n, survive, busy).reshape(-1, n.size), [g_n]
        )
        return inner.reshape(2, n_c.size)

    [throughput], [tagged] = poisson_expectation(outer, [g_c])
    return float(throughput), float(_per_active(tagged, g_n))


# ============================================================================
#  NCS metrics, finite tolerance
# ============================================================================


def _ncs_throughput_series(L, e1, e2, g_c, g_n, k: int):
    """Mean NCS deliveries per slot under finite K."""
    _check_two_class_work(g_c, g_n)
    nc, wc = poisson_weights(g_c)
    nn, wn = poisson_weights(g_n)
    NC = nc[:, None]
    NN = nn[None, :]
    q_cs = _p_cs_array(nc, e1)[:, None] * gamma_k_tolerance_array(NN, e1, k) * (1.0 - e2)
    q_ncs = _p_cs_array(nn, e1)[None, :] * e1**NC * (1.0 - e2)
    val = L * q_ncs * (1.0 - q_cs - q_ncs) ** (L - 1)
    return float(wc @ val @ wn)


def _ncs_psr_series(L, e1, e2, g_c, g_n, k: int):
    """PSR of a tagged NCS device under finite K.

    The CS interference budget at each AP is charged only with what that AP
    actually receives, which is what the slot-level simulation measures.
    """
    _check_two_class_work(g_c, g_n)
    nc, wc = poisson_weights(g_c)
    nn, wn = normalized_poisson_weights(g_n)
    NC = nc[:, None]
    NN = nn[None, :]
    tol = gamma_k_tolerance_array(NN, e1, k)
    p_u = (1.0 - e1) * e1 ** (NN - 1) * e1**NC
    q = (1.0 - e2) * (_p_cs_array(nc, e1)[:, None] * tol + NN * p_u)
    val = L * p_u * (1.0 - e2) * (1.0 - q) ** (L - 1)
    return float(wc @ val @ wn)


# ============================================================================
#  CS metrics, finite tolerance
# ============================================================================


def _cs_throughput_k_series(L, e1, e2, g_c, g_n, K: int):
    """Exact finite-K CS throughput via the trinomial delivery expansion.

    One AP must deliver the CS packet, at most min(K, L-1) APs may deliver
    NCS packets, and the remaining APs must stay silent.  For K >= L - 1 the
    inner sum collapses to the single-service binomial form.
    """
    _check_two_class_work(g_c, g_n)
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
    _check_two_class_work(g_c, g_n)
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
#  Public per-class operations (scenario-level)
# ============================================================================


def _group(cfg: ScenarioConfig) -> tuple:
    return cfg.L, cfg.erasure.eps1, cfg.erasure.eps2


def _two_class_args(cfg: ScenarioConfig) -> tuple:
    return (*_group(cfg), cfg.cs_slot_load, cfg.ncs_slot_load)


def _finite_k_args(cfg: ScenarioConfig) -> tuple:
    if is_infinite(cfg.K):
        raise ValueError("finite-K operation called with infinite tolerance")
    return (*_two_class_args(cfg), cfg.K)


def throughput_cs_single(cfg: ScenarioConfig) -> float:
    """CS throughput with no NCS interference (single-service semantics)."""
    return float(isolated_class_metrics(*_group(cfg), [cfg.cs_slot_load])[0][0])


def psr_cs_single(cfg: ScenarioConfig) -> float:
    """Single-service CS packet success rate for a tagged active device."""
    if cfg.cs_slot_load <= 0:
        raise ValueError("CS packet success rate requires a positive CS load")
    return float(isolated_class_metrics(*_group(cfg), [cfg.cs_slot_load])[1][0])


def throughput_ncs_ideal_k(cfg: ScenarioConfig) -> float:
    """NCS throughput under ideal CS interference tolerance."""
    return _ncs_ideal_k(*_two_class_args(cfg))[0]


def psr_ncs_ideal_k(cfg: ScenarioConfig) -> float:
    """NCS packet success rate under ideal CS interference tolerance."""
    if cfg.ncs_slot_load <= 0:
        raise ValueError("NCS packet success rate requires a positive NCS load")
    return _ncs_ideal_k(*_two_class_args(cfg))[1]


def throughput_ncs_finite_k(cfg: ScenarioConfig) -> float:
    """NCS throughput under finite tolerance K."""
    return _ncs_throughput_series(*_finite_k_args(cfg))


def psr_ncs_finite_k(cfg: ScenarioConfig) -> float:
    """NCS packet success rate under finite tolerance K."""
    args = _finite_k_args(cfg)
    if cfg.ncs_slot_load <= 0:
        raise ValueError("NCS packet success rate requires a positive NCS load")
    return _ncs_psr_series(*args)


def throughput_cs_finite_k(cfg: ScenarioConfig) -> float:
    """CS throughput under finite tolerance K."""
    return _cs_throughput_k_series(*_finite_k_args(cfg))


def psr_cs_finite_k(cfg: ScenarioConfig) -> float:
    """CS packet success rate under finite tolerance K."""
    args = _finite_k_args(cfg)
    if cfg.cs_slot_load <= 0:
        raise ValueError("CS packet success rate requires a positive CS load")
    return _cs_psr_k_series(*args)


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
    if is_infinite(cfg.K):
        r_c, p_c = alone(g_c)
        r_n, p_n = _ncs_ideal_k(*_two_class_args(cfg)) if g_n > 0 else (0.0, 0.0)
    else:
        r_c, p_c = (throughput_cs_finite_k(cfg), psr_cs_finite_k(cfg)) if g_c > 0 else (0.0, 0.0)
        r_n, p_n = (throughput_ncs_finite_k(cfg), psr_ncs_finite_k(cfg)) if g_n > 0 else (0.0, 0.0)
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
