"""BS decoding under the superposition receiver.

Copies of the same message relayed by several APs combine constructively at
the BS; only distinct-message interference destroys.  Conditioned on the
per-slot transmission counts (n_c, n_cbar), the vector of per-message AP
copy counts is multinomial over (silent, one cell per CS message, one cell
per NCS message).  The tolerance K enters only through two rows of
``gamma_k_tolerance_array``: the AP budget at eps1 of n NCS arrivals, and
the BS budget at eps2 with m NCS copies.

``analytic_erasure.evaluate_erasure_batch`` plans these scenarios too and
hands the grids ((g_c, g_n), K) of each (L, eps1, eps2) to one
``metrics(L, e1, e2, grids)`` call of an estimator of the expectation over
AP allocations, which gives each grid's (R_c, R_cbar, Gamma_c, Gamma_cbar):

* ``ExactEnum`` -- exact, as floats; its ``seed`` is None.  Message cells
  within a class are exchangeable, so the multinomial sum collapses to a
  difference of powers per (n_c, n_cbar): the cell kernel
  ``_tagged_decode``, which ``analytic_erasure._two_class_metrics`` runs
  elementwise over the cells of every grid, at a cost of about L grid
  passes.  It equals exhaustive enumeration of the allocations (pinned
  against a literal enumerator in ``tests/test_superposition.py``).
* ``ConditionedMC`` -- samples allocations per (n_c, n_cbar) pair, pair by
  pair, from dedicated substreams of the master seed and keeps the
  per-allocation values, from which standard errors are reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_ITEM_DRAWS,
    Receiver,
    ScenarioConfig,
    SimEstimate,
    gamma_k_tolerance_array,
    multinomial_sample,
    poisson_weights,
)
from .analytic_erasure import _class_support, _p_cs_array, _two_class_metrics
from .analytic_erasure import evaluate_erasure_batch


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
    p_c = _p_cs_array(n_c, eps1) * budget
    p_n = _p_cs_array(n_cbar, eps1) * eps1**n_c
    probs = [1.0 - p_c - p_n]
    if n_c > 0:
        probs.extend([p_c / n_c] * n_c)
    if n_cbar > 0:
        probs.extend([p_n / n_cbar] * n_cbar)
    return np.array(probs)


# ============================================================================
#  Exact expectation (one array kernel over the Poisson support grids)
# ============================================================================


def _log_power_gap(s: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(log s, log1p(-d / s))`` for 0 <= d <= s, elementwise.

    Then s**m - (s - d)**m = exp(m log s) * -expm1(m log1p(-d / s)) with
    no cancellation, also where s - d is 0 (the second log is -inf) or
    where s is 0 (both vanish).
    """
    ratio = np.divide(d, s, out=np.zeros(s.shape), where=s > 0)
    with np.errstate(divide="ignore"):
        return np.log(s), np.log1p(-ratio)


def _tagged_decode(L, e1, e2, n_c, n_n, ap_budget, bs_rows, row):
    """BS decode probabilities of a tagged CS and a tagged NCS message.

    Both are elementwise over the cells (``n_c``, ``n_n``) of per-slot
    transmission counts; ``ap_budget`` is each cell's AP budget (at its NCS
    count) and ``bs_rows[row, b]`` each cell's BS budget with b NCS copies
    at the BS (``row``: one per cell, or one for all).  Each AP
    independently relays the tagged message of a class with probability t
    (p = n t for the class), and is silent with probability
    rest = 1 - p_c - p_n.  The tagged message decodes when some copy of it
    survives the backhaul and every copy of every other message of its
    class is erased; a CS decode also needs the BS budget of its b NCS
    copies, while an NCS decode needs every CS copy erased.  Summing the
    multinomial over the copy counts leaves differences of powers: with
    B = rest + p_c e2 and d = t_c (1 - e2), the CS probability is
    sum_b C(L, b) p_n**b budget_b ((B + d)**(L-b) - B**(L-b)); the NCS
    one is (B' + d')**L - B'**L with B' = rest + (p_c + p_n) e2 and
    d' = t_n (1 - e2).  The binomial weights are taken in logs, so no
    factor overflows at large L.
    """
    p_c = _p_cs_array(n_c, e1) * ap_budget
    p_n = _p_cs_array(n_n, e1) * e1**n_c
    t_c, t_n = p_c / np.maximum(n_c, 1), p_n / np.maximum(n_n, 1)
    rest = np.maximum(1.0 - p_c - p_n, 0.0)
    d_c, d_n = t_c * (1.0 - e2), t_n * (1.0 - e2)
    log_s, log_gap = _log_power_gap(rest + p_c * e2 + d_c, d_c)
    with np.errstate(divide="ignore"):
        log_p = np.log(p_n)
    cs = np.zeros(log_s.shape)
    for b in range(L):  # b = L leaves no AP for the tagged message
        m = L - b
        log_w = math.log(math.comb(L, b)) + (b * log_p if b else 0.0) + m * log_s
        cs += bs_rows[row, b] * np.exp(log_w) * -np.expm1(m * log_gap)
    log_s, log_gap = _log_power_gap(rest + (p_c + p_n) * e2 + d_n, d_n)
    ncs = np.exp(L * log_s) * -np.expm1(L * log_gap)
    return cs, ncs


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
    of arrays of Monte Carlo samples."""

    def __init__(self):
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def add(self, weight: float, values: np.ndarray):
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


def _weighted_pairs(ns_a, ws_a, ns_b, ws_b):
    """Yield (a, b, weight) over the product of two weighted supports."""
    for i, a in enumerate(ns_a):
        for j, b in enumerate(ns_b):
            yield int(a), int(b), float(ws_a[i] * ws_b[j])


# ============================================================================
#  Estimators
# ============================================================================


@dataclass(frozen=True)
class ExactEnum:
    """Exact expectation over AP allocations, summed over the Poisson grid."""

    seed = None

    def metrics(self, L, e1, e2, grids) -> list[tuple[float, ...]]:
        ks = sorted({k for _, k in grids})
        bs_rows = np.array([gamma_k_tolerance_array(np.arange(L + 1), e2, k) for k in ks])

        def kernel(n_c, n_n, ap_budget, k):  # each cell's row of bs_rows is its K's
            row = np.searchsorted(ks, k)
            return _tagged_decode(L, e1, e2, n_c, n_n, ap_budget, bs_rows, row)

        return _two_class_metrics(e1, grids, kernel)


@dataclass(frozen=True)
class ConditionedMC:
    """Monte Carlo over allocations, conditioned per (n_c, n_cbar) pair.

    Samples whose draw at the supports' largest counts would hold more than
    ``MAX_ITEM_DRAWS`` counts are refused with a ValueError before any draw.
    """

    n_alloc_samples: int = 1000
    seed: int = 0

    def _draws(self, purpose: int, L, n_c, n_n, e1, ap_budget) -> np.ndarray:
        rng = _pair_rng(self.seed, purpose, n_c, n_n)
        probs = ap_allocation_probs(n_c, n_n, e1, ap_budget[n_n])
        return multinomial_sample(rng, L, probs, size=self.n_alloc_samples)

    def metrics(self, L, e1, e2, grids) -> list[tuple[_McAccumulator, ...]]:
        sides = [(_class_support(g_c), _class_support(g_n)) for (g_c, g_n), _ in grids]
        cells = 1 + max(int(c[0][-1] + n[0][-1]) for c, n in sides)
        if self.n_alloc_samples * cells > MAX_ITEM_DRAWS:
            raise ValueError(
                f"mc_samples = {self.n_alloc_samples} allocations of {cells} cells need "
                f"{self.n_alloc_samples * cells:.3g} counts, more than the "
                f"{MAX_ITEM_DRAWS} one draw may hold"
            )
        return [self._grid(L, e1, e2, *pair, k, *side) for (pair, k), side in zip(grids, sides)]

    def _grid(self, L, e1, e2, g_c, g_n, k, sup_c, sup_n) -> tuple[_McAccumulator, ...]:
        r_c, r_n, p_c, p_n = (_McAccumulator() for _ in range(4))
        cs, ncs = poisson_weights(g_c), poisson_weights(g_n)
        # Tolerance rows over every NCS count and copy count a pair asks for.
        ap_budget = gamma_k_tolerance_array(np.arange(sup_n[0][-1] + 1), e1, k).tolist()
        bs_budget = gamma_k_tolerance_array(np.arange(L + 1), e2, k)
        for n_c, n_n, w in _weighted_pairs(*cs, *ncs):
            draws = self._draws(0, L, n_c, n_n, e1, ap_budget)
            q_cs, q_ncs = _mc_throughput_values(draws, n_c, e2, bs_budget)
            r_c.add(w, q_cs)
            r_n.add(w, q_ncs)
        tagged = ((True, sup_c, ncs, p_c), (False, sup_n, cs, p_n))
        for tagged_cs, (n, _, w_tag), other, acc in tagged:
            # a tagged class has counts from 1 on, and none at zero load
            for n_tag, n_other, w in _weighted_pairs(n[1:], w_tag[1:], *other):
                n_c, n_n = (n_tag, n_other) if tagged_cs else (n_other, n_tag)
                draws = self._draws(1 if tagged_cs else 2, L, n_c, n_n, e1, ap_budget)
                acc.add(w, _mc_tagged_values(draws, n_c, e2, bs_budget, tagged_cs))
        return r_c, r_n, p_c, p_n


# ============================================================================
#  Scenario evaluation
# ============================================================================


def evaluate_superposition(
    cfg: ScenarioConfig, estimator: ExactEnum | ConditionedMC = ExactEnum()
):
    """The metrics of one superposition-receiver scenario under ``estimator``,
    as ``analytic_erasure.evaluate_erasure_batch`` gives them: ``ServiceMetrics``
    under ``ExactEnum``, ``SimulatedMetrics`` (with standard errors) under
    ``ConditionedMC``."""
    if cfg.receiver != Receiver.SUPERPOSITION:
        raise ValueError("evaluate_superposition requires the superposition receiver")
    return evaluate_erasure_batch([cfg], estimator)[0]
