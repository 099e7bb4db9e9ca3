"""Throughput and packet success rate under erasure channels.

Two service classes (CS / NCS), finite or ideal NCS-to-CS interference
tolerance K, non-orthogonal sharing or inter-service TDMA, under either BS
receiver.  ``evaluate_erasure_batch`` plans every deterministic evaluation:

* A collision-receiver class that contends alone -- either class under
  TDMA, and CS at K = inf -- and the uplink benchmark bound are Poisson
  series with a relative truncation error of 1e-12
  (``poisson_expectation``), batched over loads.  The NCS metrics at
  K = inf nest it in an outer sum over the CS count.
* Every other scenario is one grid ((g_c, g_n), K) or two, whose four
  metrics ``_two_class_metrics`` sums from a receiver's cell kernel over
  the Poisson supports of both classes, truncated at an absolute tail mass:
  ``_collision_kernel``, or ``_superposition_kernel``, which sums the
  multinomial AP allocations of the superposition receiver in closed form
  (``superposition.ConditionedMC`` samples them instead).
* Supports beyond ``MAX_TWO_CLASS_CELLS`` cells and a CS tolerance sum
  whose binomial coefficients pass the floats are refused.
* The literal closed forms of the metrics are the test oracle
  ``tests/closed_form_oracle.py``; ``sim_erasure`` is the independent Monte
  Carlo oracle.

Notation used throughout the internals: per-slot loads ``g_c`` and ``g_n``
for the two classes, erasure probabilities ``e1`` (access) and ``e2``
(backhaul).
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys

import numpy as np

from .core import (
    INFINITE_K,
    TAIL_MASS_DEFAULT,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    SimulatedMetrics,
    Tdma,
    _c_log,
    _poisson_pmf,
    gamma_k_tolerance_array,
    poisson_pmf,
    poisson_tail_cutoff,
    poisson_weights,
)

# Most cells of Poisson support that one evaluation may span: the product of
# the two classes' supports, or one support for a class that contends alone.
# Beyond it the work (and the dense finite-K series' memory) is refused.
MAX_TWO_CLASS_CELLS = 2**26

# poisson_expectation works on blocks of this many loads and this many
# support points at a time, which bounds its memory whatever the loads.
_BLOCK_LOADS = 256
_BLOCK_TERMS = 64
_REL_TRUNCATION = 1e-12

# _reduce_grids's cells per block (bounding temporaries) and per run (memory)
_BLOCK_CELLS = 2**13
_RUN_CELLS = 2**16


# ============================================================================
#  Conditional access probabilities
# ============================================================================


def _p_cs_array(n: np.ndarray, e1: float) -> np.ndarray:
    """P(an AP decodes one of n arrivals of a class), elementwise:
    n (1 - e1) e1**(n - 1), and 0 at n = 0 (the 0**0 = 1 convention)."""
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
    every value carries a relative truncation error of at most 1e-12.  A
    partial sum that is negative or not finite raises a ValueError, and so,
    before any work, does a largest load whose Poisson support spans more
    than ``MAX_TWO_CLASS_CELLS`` terms.
    """
    uniq, inverse = np.unique(np.asarray(loads, dtype=float), return_inverse=True)
    _check_work(float(uniq[-1]))
    blocks = [
        _expectation_block(f, uniq[lo : lo + _BLOCK_LOADS])
        for lo in range(0, uniq.size, _BLOCK_LOADS)
    ]
    return np.concatenate(blocks, axis=1)[:, inverse]


def _expectation_block(f, lam: np.ndarray) -> np.ndarray:
    g = lam[:, None]
    total, value, done = 0.0, 0.0, False
    # Below min(lam) - 40 sqrt(min(lam)) every pmf underflows to exactly 0
    # and no sum can stop, so the blocks start at the last block boundary
    # there: the partial sums, and so every bit, stay those from n = 0.
    low = float(lam.min())
    start = int(max(0.0, low - 40.0 * math.sqrt(low)) // _BLOCK_TERMS) * _BLOCK_TERMS
    log_g = _c_log(g)
    for lo in itertools.count(start, _BLOCK_TERMS):
        n = np.arange(lo, lo + _BLOCK_TERMS + 1)
        pmf = _poisson_pmf(n, g, log_g)
        partial = total + np.cumsum(pmf[:, None, :-1] * f(n[:-1]), axis=2)
        if not (partial.min() >= 0.0 and partial.max() < np.inf):  # NaN fails both
            raise ValueError("Poisson partial sum is negative or not finite: f must lie in [0, 1]")
        total = partial[..., -1:]
        if n[-2] < low:  # below every load no sum can stop
            continue
        slack = (1.0 - g / (n[:-1] + 2.0))[:, None, :]
        stop = (n[:-1] >= g)[:, None, :] & (pmf[:, None, 1:] <= _REL_TRUNCATION * slack * partial)
        first = np.take_along_axis(partial, stop.argmax(axis=2)[..., None], axis=2)[..., 0]
        value = np.where(done, value, first)
        done = done | stop.any(axis=2)
        if np.all(done):
            return value.T


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


def _check_work(*loads: float) -> None:
    """Refuse a lone load, or a pair, whose Poisson supports span more than
    ``MAX_TWO_CLASS_CELLS`` cells together."""
    cells = math.prod(poisson_tail_cutoff(g, TAIL_MASS_DEFAULT) + 1 for g in loads)
    if cells > MAX_TWO_CLASS_CELLS and len(loads) == 1:
        raise ValueError(f"per-slot load {loads[0]:g} spans {cells:.3g} terms of Poisson "
                         f"support, over the limit of {MAX_TWO_CLASS_CELLS}")
    if cells > MAX_TWO_CLASS_CELLS:
        raise ValueError(f"per-slot loads g_c={loads[0]:g}, g_n={loads[1]:g} span {cells:.3g} "
                         "cells of Poisson support, over the two-class limit of "
                         f"{MAX_TWO_CLASS_CELLS}")


def _ncs_ideal_k(L: int, e1: float, e2: float, g_c: float, g_n: float) -> tuple[float, float]:
    """NCS (throughput, PSR) under ideal tolerance, as a nested expectation.

    The outer sum runs over the CS count n_c and the inner one over the NCS
    count.  Given n_c, the inner terms are the isolated class's, with each
    NCS arrival also needing every CS arrival at its AP erased (e1**n_c)
    and each AP busy with a CS delivery with probability p_cs(n_c)(1 - e2).
    Both sums carry the relative truncation error of ``poisson_expectation``.
    The planner refuses loads whose two supports span too many cells.
    """

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
#  Two-class grids
# ============================================================================


def _reduce_grids(shapes, width, cells, reduce) -> list:
    """``reduce(i, values)`` for each grid i of (rows, cols) = ``shapes[i]``.

    ``cells(row, col, grid)`` gives the ``width`` values of cells elementwise,
    ``_BLOCK_CELLS`` at a time, and ``values`` is a C-contiguous (width, rows,
    cols) view of grid i's.  The grids lie row-major in a flat array, each
    from a multiple of 8 cells (64 bytes) like a fresh array; consecutive
    grids share one while they fit ``_RUN_CELLS`` (a larger grid is alone),
    and a run is reduced before the next is built.
    """
    sizes = [rows * cols for rows, cols in shapes]
    ends = [0, *itertools.accumulate(-(-size // 8) * 8 for size in sizes)]
    # per grid: its first cell, its final cell's offset (padding repeats it), its row length
    begin, final, cols = np.array([ends[:-1], [s - 1 for s in sizes], [c for _, c in shapes]])
    out, first = [], 0
    while first < len(shapes):  # the run of grids first..last-1, at least one
        last = bisect.bisect_right(ends, ends[first] + _RUN_CELLS, lo=first + 2) - 1
        base, end = ends[first], ends[last]
        flat = np.empty((width, end - base))
        for lo in range(base, end, _BLOCK_CELLS):
            cell = np.arange(lo, min(lo + _BLOCK_CELLS, end))
            grid = begin.searchsorted(cell, side="right") - 1
            row_col = np.divmod(np.minimum(cell - begin[grid], final[grid]), cols[grid])
            flat[:, lo - base : lo - base + cell.size] = cells(*row_col, grid)
        for i in range(first, last):
            at = ends[i] - base
            out.append(reduce(i, flat[:, at : at + sizes[i]].reshape(width, *shapes[i])))
        del flat
        first = last
    return out


def _tolerance_sum(L: int, k, q, rest) -> np.ndarray:
    """P(at most K of the other L-1 APs relay an NCS packet and the rest none).

    Each AP relays an NCS packet with probability ``q`` and nothing with
    probability ``rest``, trinomially; ``k`` is each cell's K (-1: no term).
    A cell pays for its own K + 1 terms only: the cells are taken in order
    of decreasing K, so term i runs over those with K >= i.
    """
    order = np.argsort(-k, kind="stable")
    k, q, rest = k[order], q[order], rest[order]
    counts = np.searchsorted(-k, -np.arange(min(k[0], L - 1) + 1), side="right")
    total = np.zeros(q.shape)
    for i, m in enumerate(counts.tolist()):
        total[:m] += math.comb(L - 1, i) * q[:m] ** i * rest[:m] ** (L - 1 - i)
    out = np.empty(total.shape)
    out[order] = total
    return out


def _class_support(g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A class's counts 0..n_max with its Poisson weights and its tagged weights.

    The tagged weights condition on N >= 1 (zero at N = 0, and everywhere
    at zero load); both weight vectors are zero-padded to the one support.
    """
    n, w = poisson_weights(g)
    if g == 0:
        return n, w, np.zeros(n.size)
    pmf = w
    if n.size == 1:  # a cut at count 0 still tags count 1
        n, w, pmf = np.arange(2), np.append(w, 0.0), poisson_pmf(np.arange(2), g)
    tagged = np.zeros(n.size)  # count 0 untagged; 1 / P(N >= 1) overflows at a subnormal g
    tagged[1:] = pmf[1:] / -math.expm1(-g)
    return n, w, tagged


def _two_class_metrics(e1, grids, kernel) -> list[tuple[float, float, float, float]]:
    """(R_c, R_cbar, Gamma_c, Gamma_cbar) of each grid ((g_c, g_n), K) in ``grids``.

    A grid spans the padded supports of its two loads (``_class_support``,
    each load's built once).  ``kernel(n_c, n_n, budget, k)`` gives,
    elementwise over the cells, the probabilities that a tagged CS and a
    tagged NCS message decode; ``budget`` is the AP tolerance at eps1 of
    the cell's n_n NCS arrivals (one row per K) and ``k`` its grid's K.  A
    class delivers n times its tagged probability and its PSR weighs the
    tagged one given N >= 1, so a class without load gets zeros.
    """
    supports = {g: _class_support(g) for g in {g for pair, _ in grids for g in pair}}
    sides = [(supports[g_c], supports[g_n]) for (g_c, g_n), _ in grids]
    shapes = [(c[0].size, n[0].size) for c, n in sides]
    ks = list(dict.fromkeys(k for _, k in grids))
    counts = np.arange(max(cols for _, cols in shapes))
    budget = np.array([gamma_k_tolerance_array(counts, e1, k) for k in ks])
    rows = np.array([ks.index(k) for _, k in grids])  # each grid's row of budget
    k_of = np.array([k for _, k in grids], dtype=float)

    def cells(n_c, n_n, x):
        return kernel(n_c, n_n, budget[rows[x], n_n], k_of[x])

    def reduce(i, values):
        ((n_c, w_c, tag_c), (n_n, w_n, tag_n)), (cs, ncs) = sides[i], values
        return (
            float(w_c @ (n_c[:, None] * cs) @ w_n),
            float(w_c @ (ncs * n_n) @ w_n),
            float(tag_c @ cs @ w_n),
            float(w_c @ ncs @ tag_n),
        )

    return _reduce_grids(shapes, 2, cells, reduce)


def _collision_kernel(L, e1, e2):
    """The collision receiver's cell kernel for ``_two_class_metrics``.

    Given (n_c, n_n), an AP relays the tagged CS packet with probability
    p_u (the other arrivals erased, the CS interference budget charged only
    with what that AP actually receives, as in the slot-level simulation),
    some NCS packet with probability q_n, and nothing with probability rest.
    A CS delivery needs one AP to relay it, at most K of the others an NCS
    packet and the rest nothing; an NCS delivery needs the others all
    silent.  Where n_c = 0 the cell's K is -1, so a grid without CS load
    forms no binomial.  The planner refuses what cannot be done.
    """

    def kernel(n_c, n_n, budget, k):
        p_u = (1.0 - e1) * e1 ** np.maximum(n_c - 1, 0) * budget * (1.0 - e2)
        q_n = _p_cs_array(n_n, e1) * e1**n_c * (1.0 - e2)
        rest = np.clip(1.0 - n_c * p_u - q_n, 0.0, 1.0)
        cs = L * p_u * _tolerance_sum(L, np.where(n_c == 0, -1.0, k), q_n, rest)
        head_n = (1.0 - e1) * e1 ** np.maximum(n_n - 1, 0) * e1**n_c * (1.0 - e2)
        return cs, L * head_n * rest ** (L - 1)

    return kernel


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


def _superposition_kernel(L, e1, e2, grids):
    """The superposition receiver's cell kernel for ``_two_class_metrics``.

    Copies of one message relayed by several APs combine at the BS, so
    conditioned on (n_c, n_n) the per-message copy counts are multinomial
    over the APs; message cells within a class are exchangeable, and the
    sum over the allocations collapses to ``_tagged_decode``, at a cost of
    about L grid passes.  It equals exhaustive enumeration of the
    allocations (pinned against a literal enumerator in
    ``tests/test_superposition.py``).  Each cell reads the BS tolerance
    row at eps2 of its own grid's K, one row per K of ``grids``.
    """
    ks = sorted({k for _, k in grids})
    bs_rows = np.array([gamma_k_tolerance_array(np.arange(L + 1), e2, k) for k in ks])

    def kernel(n_c, n_n, ap_budget, k):
        return _tagged_decode(L, e1, e2, n_c, n_n, ap_budget, bs_rows, np.searchsorted(ks, k))

    return kernel


# ============================================================================
#  Benchmark uplink bound
# ============================================================================


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
#  Scenario evaluation
# ============================================================================


def evaluate_erasure_batch(cfgs, estimator=None) -> list:
    """The class metrics of every erasure scenario in ``cfgs``, in order.

    Under the collision receiver, the loads of the classes that contend
    alone go to one ``isolated_class_metrics`` call per (L, eps1, eps2), and
    NCS at K = inf to ``_ncs_ideal_k`` once per distinct pair.  Every other
    scenario is one grid ((g_c, g_n), K), or under TDMA two, each with the
    other class's load at 0 and its throughput scaled by the slot share.
    The distinct grids of each (receiver, L, eps1, eps2) go to one call:
    ``_two_class_metrics`` with the receiver's kernel, or under the
    superposition receiver ``estimator.metrics`` when an ``estimator``
    (a ``superposition.ConditionedMC``) is given.  Every scenario is
    checked, in order, and then every group's draw size by
    ``estimator.check``, before any work.  Returns ``SimulatedMetrics`` for
    a superposition scenario under an estimator, else ``ServiceMetrics``:
    a collision scenario under an estimator still returns ``ServiceMetrics``.
    """
    # Values lie in flat lists, each class's R with its Gamma right after it.
    alone: dict = {}  # (L, eps1, eps2) -> (the loads of classes alone, their values)
    ideal: dict = {}  # (L, eps1, eps2, g_c, g_n) -> where its NCS values are in ideal_values
    ideal_values: list = []
    groups: dict = {}  # (receiver, L, eps1, eps2) -> ({grid: its position}, values)
    largest = 0.0  # the largest lone load checked; a support grows with the load
    plans = []  # per scenario: where each class's values are, and the slot shares
    for cfg in cfgs:
        e, K, receiver = cfg.erasure, cfg.K, cfg.receiver
        key = (cfg.L, e.eps1, e.eps2)
        tdma = isinstance(cfg.allocation, Tdma)
        if tdma:
            (share_c, g_c), (share_n, g_n) = cfg.tdma_shares()
        else:
            share_c, share_n, g_c, g_n = 1.0, 1.0, cfg.cs_slot_load, cfg.ncs_slot_load
        if receiver == Receiver.COLLISION and (tdma or K == INFINITE_K):
            loads, values = alone.setdefault(key, ([], []))
            for g in (g_c, g_n) if tdma else (g_c,):
                if g > largest:
                    _check_work(g)
                    largest = g
                loads.append(g)
            at = 2 * len(loads) - 2  # the last load's
            if tdma:
                plans.append((values, at - 2, values, at, share_c, share_n))
                continue
            pair = (*key, g_c, g_n)
            if pair not in ideal:
                _check_work(g_c, g_n)
                ideal[pair] = 2 * len(ideal)
            plans.append((values, at, ideal_values, ideal[pair], 1.0, 1.0))
            continue
        grids, values = groups.setdefault((receiver, *key), ({}, []))
        at = []
        for grid in (((g_c, 0.0), K), ((0.0, g_n), K)) if tdma else (((g_c, g_n), K),):
            if grid not in grids:
                _check_work(*grid[0])
                if (receiver == Receiver.COLLISION and g_c > 0
                        and math.comb(cfg.L - 1, min(K, (cfg.L - 1) // 2)) > sys.float_info.max):
                    raise ValueError(f"L={cfg.L}, K={K}: a binomial coefficient of the CS "
                                     "tolerance sum overflows a float")
                grids[grid] = len(grids)
            at.append(grids[grid])
        plans.append((values, 4 * at[0], values, 4 * at[-1] + 2, share_c, share_n))
    for (receiver, *_), (grids, _) in groups.items():
        if estimator is not None and receiver == Receiver.SUPERPOSITION:
            estimator.check(list(grids))
    for key, (loads, values) in alone.items():
        values += np.stack(isolated_class_metrics(*key, loads), axis=1).ravel().tolist()
        loads.clear()  # freed before the outputs are built
    for pair in ideal:  # in the order of their positions
        ideal_values += _ncs_ideal_k(*pair) if pair[-1] > 0 else (0.0, 0.0)
    for (receiver, L, e1, e2), (grids, values) in groups.items():
        grids = list(grids)
        if receiver == Receiver.COLLISION:
            metrics = _two_class_metrics(e1, grids, _collision_kernel(L, e1, e2))
        elif estimator is not None:
            metrics = estimator.metrics(L, e1, e2, grids)
        else:
            metrics = _two_class_metrics(e1, grids, _superposition_kernel(L, e1, e2, grids))
        for r_c, r_n, p_c, p_n in metrics:
            values += (r_c, p_c, r_n, p_n)
    out = []
    for cs, i, ncs, j, share_c, share_n in plans:
        r_c, p_c, r_n, p_n = cs[i], cs[i + 1], ncs[j], ncs[j + 1]
        if isinstance(r_c, float):
            out.append(ServiceMetrics(r_c * share_c, r_n * share_n, p_c, p_n))
        else:  # the estimator's accumulators
            seed = estimator.seed
            out.append(SimulatedMetrics(r_c.estimate(seed, share_c), r_n.estimate(seed, share_n),
                                        p_c.estimate(seed, 1.0), p_n.estimate(seed, 1.0)))
    return out


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
    return evaluate_erasure_batch([cfg])[0]
