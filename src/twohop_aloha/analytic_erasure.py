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
  relative error.
* All four metrics under a finite K come from ``_finite_k_metrics``, the
  collision receiver's cell kernel run by the two-class driver
  ``_two_class_metrics``: dense series over the Poisson supports of both
  classes, truncated at an absolute tail mass, on grids laid out by
  ``_reduce_grids``.  The exact superposition estimator runs its own kernel
  through the same driver.  ``evaluate_erasure_batch`` calls
  ``_finite_k_metrics`` once per (L, eps1, eps2), for every (g_c, g_n)
  pair at its own K values.  A K whose CS tolerance sum needs a binomial
  coefficient beyond the floats is refused.
* A two-class evaluation whose Poisson supports span more than
  ``MAX_TWO_CLASS_CELLS`` cells is refused, as is a lone class's support.
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
from scipy import special

from .core import (
    INFINITE_K,
    TAIL_MASS_DEFAULT,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
    gamma_k_tolerance_array,
    normalized_poisson_weights,
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
    every value carries a relative truncation error of at most 1e-12.  A
    partial sum that is negative or not finite raises a ValueError, and so,
    before any work, does a largest load whose Poisson support spans more
    than ``MAX_TWO_CLASS_CELLS`` terms.
    """
    uniq, inverse = np.unique(np.asarray(loads, dtype=float), return_inverse=True)
    terms = poisson_tail_cutoff(float(uniq[-1]), TAIL_MASS_DEFAULT) + 1
    if terms > MAX_TWO_CLASS_CELLS:
        raise ValueError(
            f"per-slot load {uniq[-1]:g} spans {terms:.3g} terms of Poisson support, "
            f"over the limit of {MAX_TWO_CLASS_CELLS}"
        )
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
    for lo in itertools.count(start, _BLOCK_TERMS):
        n = np.arange(lo, lo + _BLOCK_TERMS + 1)
        pmf = np.exp(special.xlogy(n, g) - g - special.gammaln(n + 1.0))
        partial = total + np.cumsum(pmf[:, None, :-1] * f(n[:-1]), axis=2)
        if not np.all((partial >= 0.0) & (partial < np.inf)):
            raise ValueError("Poisson partial sum is negative or not finite: f must lie in [0, 1]")
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
#  Both classes under finite tolerance
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
    """
    total = np.zeros(q.shape)
    for i in range(min(int(k.max()), L - 1) + 1):
        total += np.where(i <= k, math.comb(L - 1, i) * q**i * rest ** (L - 1 - i), 0.0)
    return total


def _class_support(g: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A class's counts 0..n_max with its Poisson weights and its tagged weights.

    The tagged weights condition on N >= 1 (zero at N = 0, and everywhere
    at zero load); both weight vectors are zero-padded to the one support.
    """
    n, w = poisson_weights(g)
    if g == 0:
        return n, w, np.zeros(n.size)
    n_tag, w_tag = normalized_poisson_weights(g)
    size = int(n_tag[-1]) + 1
    padded, tagged = np.zeros(size), np.zeros(size)
    padded[: w.size], tagged[1:] = w, w_tag
    return np.arange(size), padded, tagged


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


def _finite_k_metrics(L, e1, e2, pairs) -> dict:
    """{(g_c, g_n): {K: the four metrics}} for each pair of per-slot loads in
    ``pairs``, a mapping to its finite K values, at those K only.

    Two-class series over the Poisson supports of both classes, truncated at
    an absolute tail mass, through ``_two_class_metrics``.  Given (n_c, n_n),
    an AP relays the tagged CS packet with probability p_u (the other
    arrivals erased, the CS interference budget charged only with what that
    AP actually receives, as in the slot-level simulation), some NCS packet
    with probability q_n, and nothing with probability rest.  A CS delivery
    needs one AP to relay it, at most K of the others an NCS packet and the
    rest nothing; an NCS delivery needs the others all silent.  Where
    n_c = 0 the cell's K is -1, so a pair without CS load forms no binomial.
    The caller refuses what cannot be done.
    """

    def kernel(n_c, n_n, budget, k):
        p_u = (1.0 - e1) * e1 ** np.maximum(n_c - 1, 0) * budget * (1.0 - e2)
        q_n = _p_cs_array(n_n, e1) * e1**n_c * (1.0 - e2)
        rest = np.clip(1.0 - n_c * p_u - q_n, 0.0, 1.0)
        cs = L * p_u * _tolerance_sum(L, np.where(n_c == 0, -1.0, k), q_n, rest)
        head_n = (1.0 - e1) * e1 ** np.maximum(n_n - 1, 0) * e1**n_c * (1.0 - e2)
        return cs, L * head_n * rest ** (L - 1)

    grids = [(pair, k) for pair, ks in pairs.items() for k in ks]
    values = dict(zip(grids, _two_class_metrics(e1, grids, kernel)))
    return {pair: {k: ServiceMetrics(*values[pair, k]) for k in ks} for pair, ks in pairs.items()}


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
#  Scenario evaluation (collision receiver)
# ============================================================================


def evaluate_erasure_batch(cfgs) -> list[ServiceMetrics]:
    """``evaluate_erasure`` of every scenario in ``cfgs``, in order.

    The loads of all classes that contend alone are evaluated together, one
    ``isolated_class_metrics`` call per (L, eps1, eps2).  The finite-K
    non-orthogonal scenarios are checked pair by pair in order, then go to
    one ``_finite_k_metrics`` call per (L, eps1, eps2) with all their K.
    """
    alone: dict = {}  # (L, eps1, eps2) -> the loads of classes that contend alone
    tolerances: dict = {}  # (L, eps1, eps2, g_c, g_n) -> its finite K values
    plans = []  # per scenario: its path, its group and where its values are
    for cfg in cfgs:
        if cfg.receiver != Receiver.COLLISION:
            raise ValueError(
                "evaluate_erasure handles the collision receiver; use the "
                "superposition module for the superposition receiver"
            )
        e, g_c, g_n = cfg.erasure, cfg.cs_slot_load, cfg.ncs_slot_load
        key = (cfg.L, e.eps1, e.eps2)
        if isinstance(cfg.allocation, Tdma):
            (share_c, g_c), (share_n, g_n) = cfg.tdma_shares()
            plans.append(("tdma", key, len(alone.setdefault(key, [])), share_c, share_n))
            alone[key] += (g_c, g_n)
        elif cfg.K == INFINITE_K:
            plans.append(("ideal", key, len(alone.setdefault(key, [])), g_c, g_n))
            alone[key].append(g_c)
        else:
            tolerances.setdefault((*key, g_c, g_n), set()).add(cfg.K)
            plans.append(("finite", key, (g_c, g_n), cfg.K))
    isolated = {
        key: [values.tolist() for values in isolated_class_metrics(*key, loads)]
        for key, loads in alone.items()
    }
    groups: dict = {}  # (L, eps1, eps2) -> {(g_c, g_n): its finite K values}
    for (L, e1, e2, g_c, g_n), ks in tolerances.items():  # refused in this order
        _check_two_class_work(g_c, g_n)
        if g_c > 0 and math.comb(L - 1, min(max(ks), (L - 1) // 2)) > sys.float_info.max:
            raise ValueError(f"L={L}, K={max(ks)}: a binomial coefficient of the CS "
                             "tolerance sum overflows a float")
        groups.setdefault((L, e1, e2), {})[g_c, g_n] = ks
    finite = {key: _finite_k_metrics(*key, pairs) for key, pairs in groups.items()}
    out = []
    for path, key, *where in plans:
        if path == "finite":  # where is the pair of loads and K
            out.append(finite[key][where[0]][where[1]])
            continue
        (tput, psr), (at, a, b) = isolated[key], where
        if path == "tdma":  # a, b are the slot shares
            out.append(ServiceMetrics(a * tput[at], b * tput[at + 1], psr[at], psr[at + 1]))
        else:  # a, b are the per-slot loads
            r_n, p_n = _ncs_ideal_k(*key, a, b) if b > 0 else (0.0, 0.0)
            out.append(ServiceMetrics(tput[at], r_n, psr[at], p_n))
    return out


def evaluate_erasure(cfg: ScenarioConfig) -> ServiceMetrics:
    """All four class metrics for a collision-receiver erasure scenario.

    A class with zero offered load gets zero throughput and, by convention,
    zero packet success rate (there is no active device to condition on).
    """
    return evaluate_erasure_batch([cfg])[0]
