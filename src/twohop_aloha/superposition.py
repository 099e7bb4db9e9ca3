"""BS decoding under the superposition receiver.

Copies of the same message relayed by several APs combine constructively at
the BS; only distinct-message interference destroys.  Evaluation keeps the
per-slot message-index bookkeeping explicit: conditioned on the per-slot
transmission counts, the vector of per-message AP copy counts is multinomial
over (silent, one cell per CS message, one cell per NCS message).

Two estimators for the inner expectation over AP allocations.  Both offer
``throughput(L, n_c, n_n, e1, e2, ap_budget, bs_budget)``, the (CS, NCS)
decode probabilities at fixed per-slot transmission counts, and
``tagged(L, n_c, n_n, e1, e2, ap_budget, bs_budget, tagged_cs)``, the
decode probability of a tagged CS (or NCS) message.  The tolerance K enters
only through two rows of ``gamma_k_tolerance_array`` built once per
parameter set: ``ap_budget[n]``, the AP budget at eps1 with n NCS arrivals
(a list of floats), and ``bs_budget[m]``, the BS budget at eps2 with m NCS
copies (an array over 0..L):

* ``ExactEnum`` -- exact expectation as Python floats; its ``seed`` is
  None.  Message cells within a class are exchangeable, so the expectation
  marginalizes onto (copies of a distinguished message, other same-class
  copies, other-class copies), which equals exhaustive enumeration of the
  multinomial outcomes at polynomial cost (the equality is pinned against
  a literal enumerator in ``tests/test_superposition.py``).  The
  enumeration feasibility budget C(L + cells - 1, cells - 1) <= limit is
  still enforced; exceeding it raises ``CapacityError`` rather than
  silently degrading.
* ``ConditionedMC`` -- samples allocations per (n_c, n_cbar) pair from
  dedicated substreams of the master seed and returns the per-allocation
  values, from which standard errors are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    SimEstimate,
    SimulatedMetrics,
    Tdma,
    Tolerance,
    gamma_k_tolerance_array,
    multinomial_sample,
    normalized_poisson_weights,
    poisson_weights,
)
from .analytic_erasure import p_access_cs, p_access_ncs


class CapacityError(RuntimeError):
    """Allocation-enumeration budget exceeded; choose the MC estimator."""


# ============================================================================
#  Allocation bookkeeping
# ============================================================================


def ap_allocation_probs(
    n_c: int, n_cbar: int, eps1: float, budget: float = 1.0
) -> np.ndarray:
    """Multinomial cell probabilities (silent, CS cells, NCS cells).

    A CS cell carries the AP-level tolerance ``budget``, the probability
    that at most K of the ``n_cbar`` NCS arrivals survive (1 for an infinite
    K).  Classes with zero transmissions contribute no cells; the vector
    always sums to one.
    """
    if n_c < 0 or n_cbar < 0:
        raise ValueError("transmission counts must be >= 0")
    p_c = p_access_cs(n_c, eps1) * budget
    p_n = p_access_ncs(n_c, n_cbar, eps1)
    probs = [1.0 - p_c - p_n]
    if n_c > 0:
        probs.extend([p_c / n_c] * n_c)
    if n_cbar > 0:
        probs.extend([p_n / n_cbar] * n_cbar)
    return np.array(probs)


def _budgeted_cs_access(n_c: int, n_cbar: int, eps1: float, ap_budget) -> float:
    """AP-level CS decode probability including the tolerance budget.

    The three-state AP rule is receiver-independent: a CS decode needs
    exactly one unerased CS arrival *and* at most k unerased NCS arrivals.
    The budget factor ``ap_budget[n_cbar]`` is 1 whenever n_cbar <= k, so it
    only bites under heavy NCS traffic with finite k.
    """
    return p_access_cs(n_c, eps1) * ap_budget[n_cbar]


def _check_budget(L: int, n_c: int, n_cbar: int, limit: int) -> None:
    cells = 1 + n_c + n_cbar
    size = math.comb(L + cells - 1, cells - 1)
    if size > limit:
        raise CapacityError(
            f"allocation enumeration needs {size} outcomes for "
            f"(n_c={n_c}, n_cbar={n_cbar}, L={L}), over the limit {limit}; "
            "use the ConditionedMC estimator"
        )


# ============================================================================
#  Exact inner expectations (marginalized over exchangeable cells)
# ============================================================================


def _class_pair_pmf(L: int, p_a: float, p_b: float) -> np.ndarray:
    """Joint pmf of (#APs holding class A, #APs holding class B)."""
    rest = max(1.0 - p_a - p_b, 0.0)
    out = np.zeros((L + 1, L + 1))
    for a in range(L + 1):
        for b in range(L + 1 - a):
            out[a, b] = (
                math.comb(L, a)
                * math.comb(L - a, b)
                * p_a**a
                * p_b**b
                * rest ** (L - a - b)
            )
    return out


def _combine_kernel(L: int, n_msgs: int, eps2: float) -> np.ndarray:
    """kernel[a] = E[sum over class messages of (1 - e2**M_m) e2**(a - M_m)]
    when a copies of the class split uniformly over n_msgs messages."""
    out = np.zeros(L + 1)
    if n_msgs == 0:
        return out
    p1 = 1.0 / n_msgs
    for a in range(L + 1):
        acc = 0.0
        for j in range(1, a + 1):
            acc += (
                math.comb(a, j)
                * p1**j
                * (1.0 - p1) ** (a - j)
                * (1.0 - eps2**j)
                * eps2 ** (a - j)
            )
        out[a] = n_msgs * acc
    return out


def _exact_inner_throughput(L, n_c, n_n, e1, e2, ap_budget, bs_budget):
    """(E[CS decode], E[NCS decode]) over allocations at fixed slot counts."""
    p_c = _budgeted_cs_access(n_c, n_n, e1, ap_budget)
    p_n = p_access_ncs(n_c, n_n, e1)
    pair = _class_pair_pmf(L, p_c, p_n)  # indices [CS copies, NCS copies]
    e2_pow = e2 ** np.arange(L + 1).astype(float)
    q_cs = float(_combine_kernel(L, n_c, e2) @ pair @ bs_budget)
    q_ncs = float(e2_pow @ pair @ _combine_kernel(L, n_n, e2))
    return q_cs, q_ncs


def _exact_inner_psr(L, n_tag, n_other, e1, e2, ap_budget, bs_budget, tagged_cs: bool):
    """E[tagged-message decode probability] over allocations.

    ``n_tag`` is the tagged class count (>= 1), ``n_other`` the other class.
    The allocation collapses to four exchangeability classes: tagged copies
    j, other same-class copies ao, other-class copies b, silence.
    """
    if tagged_cs:
        p_tagcls = _budgeted_cs_access(n_tag, n_other, e1, ap_budget)
        p_other = p_access_ncs(n_tag, n_other, e1)
    else:
        p_tagcls = p_access_ncs(n_other, n_tag, e1)
        p_other = _budgeted_cs_access(n_other, n_tag, e1, ap_budget)
    bs = bs_budget.tolist()
    t = p_tagcls / n_tag
    o = p_tagcls - t
    rest = max(1.0 - p_tagcls - p_other, 0.0)
    total = 0.0
    for j in range(1, L + 1):
        w_j = math.comb(L, j) * t**j * (1.0 - e2**j)
        for ao in range(L - j + 1):
            w_jo = w_j * math.comb(L - j, ao) * o**ao * e2**ao
            for b in range(L - j - ao + 1):
                w = (
                    w_jo
                    * math.comb(L - j - ao, b)
                    * p_other**b
                    * rest ** (L - j - ao - b)
                )
                if tagged_cs:
                    total += w * bs[b]
                else:
                    total += w * e2**b
    return total


# ============================================================================
#  Per-allocation decode probabilities (MC inner expectations)
# ============================================================================


def _mc_throughput_values(draws: np.ndarray, n_c: int, e2: float, bs_budget: np.ndarray):
    """(CS, NCS) BS decode probabilities of each allocation row.

    A row holds per-slot message-copy counts at the APs: column 0 counts
    silent APs, columns 1..n_c the CS messages and the rest the NCS
    messages.  A CS decode needs some CS message to get at least one copy
    through unerased, every copy of every other CS message erased, and at
    most k NCS copies (counted individually across APs) surviving, which
    ``bs_budget`` gives by the row's NCS copy count.  An
    NCS decode needs every CS copy and every copy of any other NCS message
    erased.
    """
    cs = draws[:, 1 : 1 + n_c]
    ncs = draws[:, 1 + n_c :]
    s_cs = cs.sum(axis=1)
    s_ncs = ncs.sum(axis=1)
    q_cs = bs_budget[s_ncs] * ((1.0 - e2**cs) * e2 ** (s_cs[:, None] - cs)).sum(axis=1)
    q_ncs = (e2 ** s_cs.astype(float)) * (
        (1.0 - e2**ncs) * e2 ** (s_ncs[:, None] - ncs)
    ).sum(axis=1)
    return q_cs, q_ncs


def _mc_tagged_values(
    draws: np.ndarray, n_c: int, e2: float, bs_budget: np.ndarray, tagged_cs: bool
):
    """The same decode events restricted to the first message of the tagged
    class (PSR conditioning), per allocation row."""
    cs = draws[:, 1 : 1 + n_c]
    ncs = draws[:, 1 + n_c :]
    s_cs = cs.sum(axis=1)
    s_ncs = ncs.sum(axis=1)
    if tagged_cs:
        m1 = draws[:, 1]
        return bs_budget[s_ncs] * (1.0 - e2**m1) * e2 ** (s_cs - m1)
    m1 = draws[:, 1 + n_c]
    return (e2 ** s_cs.astype(float)) * (1.0 - e2**m1) * e2 ** (s_ncs - m1)


class _McAccumulator:
    """Weighted mean and propagated standard error over (n_c, n_cbar) pairs
    of exact values (Python floats) or arrays of Monte Carlo samples."""

    def __init__(self):
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def add(self, weight: float, values: float | np.ndarray):
        if isinstance(values, float):
            self.mean += weight * values
            return
        self.mean += weight * float(values.mean())
        if values.size > 1:
            self.var += weight**2 * float(values.var(ddof=1)) / values.size
        self.n += values.size

    def estimate(self, seed: int, scale: float) -> SimEstimate:
        """The estimate of ``scale`` times the accumulated mean."""
        return SimEstimate(self.mean * scale, math.sqrt(self.var) * scale, self.n, seed)


def _pair_rng(seed: int, purpose: int, n_c: int, n_n: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(purpose, n_c, n_n))
    )


# ============================================================================
#  Estimators
# ============================================================================


@dataclass(frozen=True)
class ExactEnum:
    """Exact inner expectation, with an enumeration feasibility budget."""

    limit: int = 200_000
    seed = None

    def throughput(self, L, n_c, n_n, e1, e2, ap_budget, bs_budget):
        _check_budget(L, n_c, n_n, self.limit)
        return _exact_inner_throughput(L, n_c, n_n, e1, e2, ap_budget, bs_budget)

    def tagged(self, L, n_c, n_n, e1, e2, ap_budget, bs_budget, tagged_cs: bool):
        _check_budget(L, n_c, n_n, self.limit)
        n_tag, n_other = (n_c, n_n) if tagged_cs else (n_n, n_c)
        return _exact_inner_psr(L, n_tag, n_other, e1, e2, ap_budget, bs_budget, tagged_cs)


@dataclass(frozen=True)
class ConditionedMC:
    """Monte Carlo over allocations, conditioned per (n_c, n_cbar) pair."""

    n_alloc_samples: int = 1000
    seed: int = 0

    def _draws(self, purpose: int, L, n_c, n_n, e1, ap_budget) -> np.ndarray:
        rng = _pair_rng(self.seed, purpose, n_c, n_n)
        probs = ap_allocation_probs(n_c, n_n, e1, ap_budget[n_n])
        return multinomial_sample(rng, L, probs, size=self.n_alloc_samples)

    def throughput(self, L, n_c, n_n, e1, e2, ap_budget, bs_budget):
        draws = self._draws(0, L, n_c, n_n, e1, ap_budget)
        return _mc_throughput_values(draws, n_c, e2, bs_budget)

    def tagged(self, L, n_c, n_n, e1, e2, ap_budget, bs_budget, tagged_cs: bool):
        draws = self._draws(1 if tagged_cs else 2, L, n_c, n_n, e1, ap_budget)
        return _mc_tagged_values(draws, n_c, e2, bs_budget, tagged_cs)


# ============================================================================
#  Scenario evaluation
# ============================================================================


def _weighted_pairs(ns_a, ws_a, ns_b, ws_b):
    """Yield (a, b, weight) over the product of two weighted supports."""
    for i, a in enumerate(ns_a):
        for j, b in enumerate(ns_b):
            yield int(a), int(b), float(ws_a[i] * ws_b[j])


def _metric_grid(L, e1, e2, g_c, g_n, k: Tolerance, estimator):
    """Accumulators of all four metrics for one non-orthogonal parameter set.

    A class with no load keeps an empty (zero) packet-success accumulator.
    The two tolerance rows are built here, once per parameter set, over
    every NCS count and copy count the estimator can ask for.
    """
    r_c, r_n, p_c, p_n = (_McAccumulator() for _ in range(4))
    cs, ncs = poisson_weights(g_c), poisson_weights(g_n)
    tag_cs = normalized_poisson_weights(g_c) if g_c > 0 else None
    tag_ncs = normalized_poisson_weights(g_n) if g_n > 0 else None
    n_max = int(ncs[0][-1] if tag_ncs is None else max(ncs[0][-1], tag_ncs[0][-1]))
    ap_budget = gamma_k_tolerance_array(np.arange(n_max + 1), e1, k).tolist()
    bs_budget = gamma_k_tolerance_array(np.arange(L + 1), e2, k)
    for n_c, n_n, w in _weighted_pairs(*cs, *ncs):
        q_cs, q_ncs = estimator.throughput(L, n_c, n_n, e1, e2, ap_budget, bs_budget)
        r_c.add(w, q_cs)
        r_n.add(w, q_ncs)
    for tagged_cs, tag, other, acc in ((True, tag_cs, ncs, p_c), (False, tag_ncs, cs, p_n)):
        if tag is not None:
            for n_tag, n_other, w in _weighted_pairs(*tag, *other):
                n_cs, n_ncs = (n_tag, n_other) if tagged_cs else (n_other, n_tag)
                q = estimator.tagged(L, n_cs, n_ncs, e1, e2, ap_budget, bs_budget, tagged_cs)
                acc.add(w, q)
    return r_c, r_n, p_c, p_n


def evaluate_superposition(
    cfg: ScenarioConfig, estimator: ExactEnum | ConditionedMC = ExactEnum()
):
    """Class metrics for a superposition-receiver erasure scenario.

    Returns ``ServiceMetrics`` under ``ExactEnum`` and ``SimulatedMetrics``
    (with standard errors) under ``ConditionedMC``.  TDMA is evaluated per
    class over its slot share with the other class silenced, with class
    throughput scaled by the share.
    """
    e = cfg.erasure
    if cfg.receiver != Receiver.SUPERPOSITION:
        raise ValueError("evaluate_superposition requires the superposition receiver")
    if isinstance(cfg.allocation, Tdma):
        (share_c, g_c), (share_n, g_n) = cfg.tdma_shares()
        r_c, _, p_c, _ = _metric_grid(cfg.L, e.eps1, e.eps2, g_c, 0.0, cfg.K, estimator)
        _, r_n, _, p_n = _metric_grid(cfg.L, e.eps1, e.eps2, 0.0, g_n, cfg.K, estimator)
    else:
        share_c = share_n = 1.0
        r_c, r_n, p_c, p_n = _metric_grid(
            cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, cfg.K, estimator
        )
    scaled = ((r_c, share_c), (r_n, share_n), (p_c, 1.0), (p_n, 1.0))
    if estimator.seed is None:
        return ServiceMetrics(*(acc.mean * s for acc, s in scaled))
    return SimulatedMetrics(*(acc.estimate(estimator.seed, s) for acc, s in scaled))
