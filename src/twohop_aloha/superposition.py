"""Monte Carlo over AP allocations under the superposition receiver.

Copies of the same message relayed by several APs combine constructively at
the BS; only distinct-message interference destroys.  Conditioned on the
per-slot transmission counts (n_c, n_cbar), the vector of per-message AP
copy counts is multinomial over (silent, one cell per CS message, one cell
per NCS message).  The tolerance K enters only through two rows of
``gamma_k_tolerance_array``: the AP budget at eps1 of n NCS arrivals, and
the BS budget at eps2 with m NCS copies.

``analytic_erasure`` sums the allocations exactly (its
``_superposition_kernel``).  ``ConditionedMC`` samples them instead, pair by
pair, from dedicated substreams of the master seed, and keeps the
per-allocation values, from which standard errors are reported:
``analytic_erasure.evaluate_erasure_batch`` hands the grids ((g_c, g_n), K)
of each (L, eps1, eps2) to one ``check`` and then one ``metrics`` call.
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
    poisson_weights,
)
from .analytic_erasure import _class_support, _p_cs_array, evaluate_erasure_batch


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
#  Per-allocation decode probabilities (MC inner expectations)
# ============================================================================


def _copy_counts(draws: np.ndarray, n_c: int):
    """The CS and NCS columns of allocation rows and their row sums, taken
    as integer products with ones: exact, and quicker than axis-1 sums."""
    cs, ncs = draws[:, 1 : 1 + n_c], draws[:, 1 + n_c :]
    return cs, ncs, cs @ np.ones(n_c, np.int64), ncs @ np.ones(ncs.shape[1], np.int64)


def _mc_throughput_values(draws: np.ndarray, n_c: int, pw, miss, bs_budget: np.ndarray):
    """(CS, NCS) BS decode probabilities of each allocation row.

    A row holds per-slot message-copy counts at the APs: column 0 counts
    silent APs, columns 1..n_c the CS messages and the rest the NCS
    messages.  A CS decode needs some CS message to get at least one copy
    through unerased, every copy of every other CS message erased, and at
    most k NCS copies (counted individually across APs) surviving, which
    ``bs_budget`` gives by the row's NCS copy count.  An
    NCS decode needs every CS copy and every copy of any other NCS message
    erased.  ``pw[j]`` is e2**j and ``miss[j]`` 1 - e2**j, by copy count j.
    """
    cs, ncs, s_cs, s_ncs = _copy_counts(draws, n_c)
    q_cs = bs_budget[s_ncs] * (miss[cs] * pw[s_cs[:, None] - cs]).sum(axis=1)
    q_ncs = pw[s_cs] * (miss[ncs] * pw[s_ncs[:, None] - ncs]).sum(axis=1)
    return q_cs, q_ncs


def _mc_tagged_values(
    draws: np.ndarray, n_c: int, pw, miss, bs_budget: np.ndarray, tagged_cs: bool
):
    """The same decode events restricted to the first message of the tagged
    class (PSR conditioning), per allocation row."""
    _, _, s_cs, s_ncs = _copy_counts(draws, n_c)
    m1 = draws[:, 1 if tagged_cs else 1 + n_c]  # the copies of the tagged message
    if tagged_cs:
        return bs_budget[s_ncs] * miss[m1] * pw[s_cs - m1]
    return pw[s_cs] * miss[m1] * pw[s_ncs - m1]


class _McAccumulator:
    """Weighted mean and propagated standard error over (n_c, n_cbar) pairs
    of arrays of Monte Carlo samples."""

    def __init__(self):
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def add(self, weight: float, values: np.ndarray):
        mean = values.sum() / values.size  # values.mean(), whose sum var() would redo
        self.mean += weight * float(mean)
        if values.size > 1:
            dev = values - mean  # (dev * dev).sum() / (size - 1) is values.var(ddof=1)
            self.var += weight**2 * float((dev * dev).sum() / (values.size - 1)) / values.size
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
class ConditionedMC:
    """Monte Carlo over allocations, conditioned per (n_c, n_cbar) pair.

    ``check`` refuses, with a ValueError, grids whose draw at the supports'
    largest counts would hold more than ``MAX_ITEM_DRAWS`` counts; the
    planner calls it for every group before any draw.
    """

    n_alloc_samples: int = 1000
    seed: int = 0

    def _draws(self, purpose: int, L, n_c, n_n, e1, ap_budget) -> np.ndarray:
        rng = _pair_rng(self.seed, purpose, n_c, n_n)
        probs = ap_allocation_probs(n_c, n_n, e1, ap_budget[n_n])
        return rng.multinomial(L, probs / probs.sum(), size=self.n_alloc_samples)

    def check(self, grids) -> None:
        cells = 1 + max(int(_class_support(g_c)[0][-1] + _class_support(g_n)[0][-1])
                        for (g_c, g_n), _ in grids)
        if self.n_alloc_samples * cells > MAX_ITEM_DRAWS:
            raise ValueError(
                f"mc_samples = {self.n_alloc_samples} allocations of {cells} cells need "
                f"{self.n_alloc_samples * cells:.3g} counts, more than the "
                f"{MAX_ITEM_DRAWS} one draw may hold"
            )

    def metrics(self, L, e1, e2, grids) -> list[tuple[_McAccumulator, ...]]:
        sides = [(_class_support(g_c), _class_support(g_n)) for (g_c, g_n), _ in grids]
        return [self._grid(L, e1, e2, *pair, k, *side) for (pair, k), side in zip(grids, sides)]

    def _grid(self, L, e1, e2, g_c, g_n, k, sup_c, sup_n) -> tuple[_McAccumulator, ...]:
        r_c, r_n, p_c, p_n = (_McAccumulator() for _ in range(4))
        cs, ncs = poisson_weights(g_c), poisson_weights(g_n)
        # Tolerance rows over every NCS count and copy count a pair asks for.
        ap_budget = gamma_k_tolerance_array(np.arange(sup_n[0][-1] + 1), e1, k).tolist()
        bs_budget = gamma_k_tolerance_array(np.arange(L + 1), e2, k)
        pw = e2 ** np.arange(L + 1)  # every exponent below is a copy count in [0, L]
        miss = 1.0 - pw
        for n_c, n_n, w in _weighted_pairs(*cs, *ncs):
            draws = self._draws(0, L, n_c, n_n, e1, ap_budget)
            q_cs, q_ncs = _mc_throughput_values(draws, n_c, pw, miss, bs_budget)
            r_c.add(w, q_cs)
            r_n.add(w, q_ncs)
        tagged = ((True, sup_c, ncs, p_c), (False, sup_n, cs, p_n))
        for tagged_cs, (n, _, w_tag), other, acc in tagged:
            # a tagged class has counts from 1 on, and none at zero load
            for n_tag, n_other, w in _weighted_pairs(n[1:], w_tag[1:], *other):
                n_c, n_n = (n_tag, n_other) if tagged_cs else (n_other, n_tag)
                draws = self._draws(1 if tagged_cs else 2, L, n_c, n_n, e1, ap_budget)
                acc.add(w, _mc_tagged_values(draws, n_c, pw, miss, bs_budget, tagged_cs))
        return r_c, r_n, p_c, p_n


# ============================================================================
#  Scenario evaluation
# ============================================================================


def evaluate_superposition(cfg: ScenarioConfig, estimator: ConditionedMC | None = None):
    """The metrics of one superposition-receiver scenario, as
    ``analytic_erasure.evaluate_erasure_batch`` gives them: exact
    ``ServiceMetrics``, or ``SimulatedMetrics`` (with standard errors) under
    a ``ConditionedMC`` ``estimator``."""
    if cfg.receiver != Receiver.SUPERPOSITION:
        raise ValueError("evaluate_superposition requires the superposition receiver")
    return evaluate_erasure_batch([cfg], estimator)[0]
