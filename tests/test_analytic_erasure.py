import itertools
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import twohop_aloha.analytic_erasure as ae
import twohop_aloha.superposition as sp
import closed_form_oracle as oracle
from twohop_aloha.core import (
    INFINITE_K,
    ErasureParams,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
    poisson_pmf,
    poisson_tail_cutoff,
    poisson_weights,
)


def erasure_cfg(L=3, T=1, G=2.0, gamma_c=1.0, e1=0.5, e2=0.5, K=INFINITE_K, **kw):
    return ScenarioConfig(
        L=L, T=T, G=G, gamma_c=gamma_c, channel=ErasureParams(e1, e2), K=K, **kw
    )


# ---------------------------------------------------------------------------
# Conditional access probabilities
# ---------------------------------------------------------------------------


def p_access_cs(n_c, eps1):
    return float(ae._p_cs_array(n_c, eps1))


def p_access_ncs(n_c, n_cbar, eps1):
    # one surviving NCS arrival, and every CS arrival erased
    return float(ae._p_cs_array(n_cbar, eps1) * eps1**n_c)


def test_p_access_cs_examples():
    assert p_access_cs(1, 0.5) == 0.5
    assert p_access_cs(0, 0.3) == 0.0
    assert p_access_cs(2, 0.5) == pytest.approx(0.5)
    assert p_access_cs(1, 0.0) == 1.0  # 0**0 = 1 convention


def test_p_access_ncs_examples():
    assert p_access_ncs(0, 1, 0.5) == 0.5
    assert p_access_ncs(1, 1, 0.5) == pytest.approx(0.25)
    assert p_access_ncs(5, 2, 1.0) == 0.0
    assert p_access_ncs(3, 0, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Single service
# ---------------------------------------------------------------------------


def test_throughput_cs_single_examples():
    sa, no_access, no_backhaul, half = (m.R_c for m in ae.evaluate_erasure_batch([
        erasure_cfg(L=1, G=1.0, e1=0.0, e2=0.0),
        erasure_cfg(e1=1.0),
        erasure_cfg(e2=1.0),
        erasure_cfg(L=1, G=1.0, e1=0.5, e2=0.0),
    ]))
    assert sa == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert no_access == 0.0 and no_backhaul == 0.0
    assert half == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)


def test_reference_series_matches_closed_form_on_grid():
    for L, e1, e2, g in itertools.product(
        (1, 2, 5), (0.1, 0.5, 0.9), (0.1, 0.9), (0.25, 2.0)
    ):
        closed = oracle.cs_throughput_closed(L, e1, e2, g)
        [series], _ = ae.isolated_class_metrics(L, e1, e2, [g])
        assert closed == pytest.approx(series, rel=1e-9, abs=1e-14)


def test_reference_series_zero_load():
    tput, psr = ae.isolated_class_metrics(3, 0.5, 0.5, [0.0, 0.0])
    assert tput.tolist() == [0.0, 0.0] and psr.tolist() == [0.0, 0.0]


# float.hex of (throughput, PSR) of a class alone at L=3, eps=(0.999, 0.5),
# recorded with every Poisson sum taken from n = 0.
_HIGH_LOAD_PINS = {
    1e3: ("0x1.784e55102ce72p-2", "0x1.81b9255b89149p-12"),
    1e4: ("0x1.64e04d5f0eef3p-11", "0x1.24a53ef820e3cp-24"),
    1e5: ("0x1.f1c346c815bf0p-138", "0x1.468a5591be16ep-154"),
    6.3e5: ("0x1.fb28be96f632bp-900", "0x1.a67b60a485085p-919"),
    7e5: ("0x1.1bfada7e72b1dp-1000", "0x1.a9d1663ef651dp-1020"),
}


@pytest.mark.parametrize("loads", [[1e3], [1e4], [1e5], [7e5], [6.3e5, 7e5]])
def test_high_load_series_keep_their_bits(loads):
    # the sums skip the terms below the loads whose pmf is exactly 0
    tput, psr = ae.isolated_class_metrics(3, 0.999, 0.5, loads)
    got = [(float(t).hex(), float(p).hex()) for t, p in zip(tput, psr)]
    assert got == [_HIGH_LOAD_PINS[g] for g in loads]


# per-slot loads of the benchmark's workloads: the figures regions' classes
# alone and their non-orthogonal pairs, and validate's
_BENCH_LOADS = sorted({g * s for g in (0.0, 0.1, 0.5, 0.9, 1.0) for s in (2.0, 140.0)}
                      | {f * g for f in (0.1, 0.9) for g in (0.25, 1.0, 2.0, 4.0)})


@pytest.mark.parametrize("loads,window", [
    (_BENCH_LOADS, None),
    (list(np.geomspace(1e3, 7e5, 24)), None),
    (list(np.exp(np.random.default_rng(5).uniform(math.log(1e-3), math.log(7e5), 1000))), 65),
], ids=["benchmark", "high", "random"])
def test_poisson_pmf_keeps_the_scipy_bits(loads, window):
    # the pmf _expectation_block sums, over the counts its blocks visit for
    # each load (from 40 standard deviations below it; or a block of counts
    # at the load), is SciPy's xlogy/gammaln expression bit for bit
    for g in loads:
        lo = int(max(0.0, g - 40.0 * math.sqrt(g)) if window is None else g)
        n = np.arange(lo, int(g + 20.0 * math.sqrt(g)) + 64 if window is None else lo + window)
        want = np.exp(special.xlogy(n, g) - g - special.gammaln(n + 1.0))
        assert poisson_pmf(n, np.array([g])).tobytes() == want[None].tobytes(), g


class _CountedPowers(np.ndarray):
    """An array that counts the elements it raises to a power."""

    elements = 0

    def __pow__(self, exponent):
        _CountedPowers.elements += self.size
        return np.asarray(self) ** exponent


def test_tolerance_sum_pays_each_cell_its_own_terms():
    # cells of K = 2 and K = 600 in one block (and -1, no term): each cell
    # sums its own K + 1 terms, the same bits as in a block of its K alone
    ks = np.array([2, 600, -1, 2, 600, 2] * 5, dtype=float)
    rng = np.random.default_rng(3)
    q = rng.uniform(0.0, 0.01, ks.size)
    rest = 1.0 - q - rng.uniform(0.0, 0.5, ks.size)
    _CountedPowers.elements = 0
    mixed = ae._tolerance_sum(1030, ks, q.view(_CountedPowers), rest)
    assert _CountedPowers.elements == np.sum(ks + 1)
    for k in (2, 600, -1):
        at = ks == k
        assert mixed[at].tobytes() == ae._tolerance_sum(1030, ks[at], q[at], rest[at]).tobytes()
    assert np.all(mixed[ks == -1] == 0.0)


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_poisson_expectation_refuses_values_outside_unit_interval():
    # such an f once made the sum spin forever; a subprocess with a timeout
    # turns a regression into a failure rather than a hung suite
    script = textwrap.dedent("""
        import numpy as np
        from twohop_aloha.analytic_erasure import poisson_expectation
        refused = 0
        for value in (-0.5, np.nan, np.inf):
            try:
                poisson_expectation(lambda n: np.full((1, n.size), value), [2.0])
            except ValueError:
                refused += 1
        raise SystemExit(refused)
    """)
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr


def test_poisson_expectation_refuses_values_outside_unit_interval_below_every_load():
    # at loads of 500 and 700 the first block of terms, the counts 0..63,
    # lies below both loads: no sum can stop there and the stop test is
    # skipped, but the range check is not.  f is out of range on those
    # counts only, and the negative partial sums turn positive after them.
    script = textwrap.dedent("""
        import numpy as np
        from twohop_aloha.analytic_erasure import poisson_expectation
        refused = 0
        for value in (-0.5, np.nan, np.inf):
            try:
                poisson_expectation(lambda n: np.where(n < 64, value, 0.5)[None, :],
                                    [500.0, 700.0])
            except ValueError:
                refused += 1
        raise SystemExit(refused)
    """)
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr


@settings(max_examples=40, deadline=None)
@given(small=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=4, unique=True),
       large=st.lists(st.floats(100.0, 2000.0), min_size=4, max_size=8, unique=True))
def test_poisson_expectation_of_mixed_loads_keeps_each_loads_bits(small, large):
    # In blocks of 4 loads, the block of the smallest loads (one below 60)
    # runs the stop test on every block of terms, and the next one (every
    # load at least 100) skips it on the terms 0..63, which lie below all
    # of its loads.  Every value keeps the bits of its load alone.
    loads = small + large
    f = lambda n: ae._class_terms(3, 0.5, 0.5, n)  # noqa: E731
    with mock.patch.object(ae, "_BLOCK_LOADS", 4):
        mixed = ae.poisson_expectation(f, loads)
    for j, g in enumerate(loads):
        assert mixed[:, j].tobytes() == ae.poisson_expectation(f, [g])[:, 0].tobytes(), g


def test_poisson_expectation_of_zero_is_zero():
    zero = ae.poisson_expectation(lambda n: np.zeros((1, n.size)), [0.0, 2.0, 50.0])
    assert zero.tolist() == [[0.0, 0.0, 0.0]]


def test_a_subnormal_cs_load_evaluates_without_a_warning():
    # the count-0 pmf over P(N >= 1) overflowed at gamma_c = 1e-320, and
    # under warnings as errors the README scenario's eval was a traceback
    readme = dict(L=3, T=8, G=16.0, channel=ErasureParams(0.5, 0.5), K=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny = ae.evaluate_erasure(ScenarioConfig(gamma_c=1e-320, **readme))
    small = ae.evaluate_erasure(ScenarioConfig(gamma_c=1e-12, **readme))
    assert tiny.Gamma_c == pytest.approx(small.Gamma_c, rel=1e-9, abs=0.0)


def test_psr_cs_single_limits():
    one, two, erased, idle = (m.Gamma_c for m in ae.evaluate_erasure_batch([
        erasure_cfg(L=1, G=1e-9),
        erasure_cfg(L=2, G=1e-9),
        erasure_cfg(e1=1.0, G=1.0),
        erasure_cfg(G=0.0),
    ]))
    assert one == pytest.approx(0.25, abs=1e-6)
    assert two == pytest.approx(0.375, abs=1e-6)
    assert erased == 0.0
    assert idle == 0.0  # no active device: zero by convention


def test_ncs_ideal_k_continuous_at_small_eps1():
    # no threshold in eps1: the series is continuous down to eps1 = 0
    lo, _ = ae._ncs_ideal_k(3, 9e-7, 0.5, 1.0, 1.0)
    hi, _ = ae._ncs_ideal_k(3, 2e-6, 0.5, 1.0, 1.0)
    assert lo == pytest.approx(hi, rel=1e-3)
    assert ae._ncs_ideal_k(3, 0.0, 0.5, 1.0, 1.0)[1] > 0.0
    assert ae.evaluate_erasure(erasure_cfg(L=3, G=2.0, e1=0.0)).Gamma_c > 0.0


# ---------------------------------------------------------------------------
# NCS metrics, ideal tolerance
# ---------------------------------------------------------------------------


def test_ncs_reduces_to_single_service_without_cs_traffic():
    # no CS interference: the outer sum over the CS count is its n_c = 0
    # term, which is the single-service sum with the loads swapped, to the bit
    cfg = erasure_cfg(L=3, G=2.0, gamma_c=0.0, e1=0.4, e2=0.6)
    swapped = erasure_cfg(L=3, G=2.0, gamma_c=1.0, e1=0.4, e2=0.6)
    m, alone = ae.evaluate_erasure(cfg), ae.evaluate_erasure(swapped)
    assert (m.R_cbar, m.Gamma_cbar) == (alone.R_c, alone.Gamma_c)


def test_ncs_ideal_trivial_zeros():
    assert ae.evaluate_erasure(erasure_cfg(gamma_c=0.5, e1=1.0)).R_cbar == 0.0
    assert ae.evaluate_erasure(erasure_cfg(gamma_c=0.5, e2=1.0)).Gamma_cbar == 0.0


def test_psr_ncs_ideal_single_user_limit():
    cfg = erasure_cfg(L=1, G=2e-9, gamma_c=0.5)
    assert ae.evaluate_erasure(cfg).Gamma_cbar == pytest.approx(0.25, abs=1e-6)
    # no active NCS device: zero by convention
    assert ae.evaluate_erasure(erasure_cfg(gamma_c=1.0)).Gamma_cbar == 0.0


# ---------------------------------------------------------------------------
# Finite tolerance
# ---------------------------------------------------------------------------


def test_finite_k_requires_finite_k(monkeypatch):
    # only non-orthogonal scenarios at a finite K reach the finite-K evaluator
    def refuse(*args):
        raise AssertionError("finite-K evaluator called")

    monkeypatch.setattr(ae, "_two_class_metrics", refuse)
    ae.evaluate_erasure(erasure_cfg(gamma_c=0.5, K=INFINITE_K))
    ae.evaluate_erasure(erasure_cfg(T=2, gamma_c=0.5, K=1, allocation=Tdma(alpha=0.5)))
    with pytest.raises(AssertionError):
        ae.evaluate_erasure(erasure_cfg(gamma_c=0.5, K=1))


def test_finite_k_saturates_to_ideal():
    cfg = erasure_cfg(L=3, G=4.0, gamma_c=0.5, K=60)
    finite, ideal = ae.evaluate_erasure(cfg), ae.evaluate_erasure(cfg.replace(K=INFINITE_K))
    assert finite.R_cbar == pytest.approx(ideal.R_cbar, rel=1e-8)
    assert finite.Gamma_cbar == pytest.approx(ideal.Gamma_cbar, rel=1e-8)
    assert finite.R_c == pytest.approx(ideal.R_c, rel=1e-9)
    assert finite.Gamma_c == pytest.approx(ideal.Gamma_c, rel=1e-8)


def test_cs_metrics_nondecreasing_in_k():
    base = erasure_cfg(L=3, G=4.0, gamma_c=0.5)
    ms = ae.evaluate_erasure_batch([base.replace(K=k) for k in (0, 1, 2, 3, 5, 8, 15, 40)])
    tputs, psrs = [m.R_c for m in ms], [m.Gamma_c for m in ms]
    assert all(b >= a - 1e-12 for a, b in zip(tputs, tputs[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(psrs, psrs[1:]))
    ideal = ae.evaluate_erasure(base)
    assert tputs[-1] <= ideal.R_c + 1e-12
    assert psrs[-1] <= ideal.Gamma_c + 1e-12


def test_cs_throughput_finite_k_branches_agree_at_boundary():
    # L = K + 1: the trinomial series collapses to the closed binomial form
    cfg = erasure_cfg(L=3, T=2, G=8.0, gamma_c=0.5, K=2)
    e = cfg.erasure
    closed = oracle.cs_throughput_k_closed(
        cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, 2
    )
    series = ae.evaluate_erasure(cfg).R_c
    assert closed == pytest.approx(series, rel=1e-8)
    with pytest.raises(ValueError):
        oracle.cs_throughput_k_closed(4, 0.5, 0.5, 2.0, 2.0, 2)  # L > K + 1


def test_finite_k_trivial_cases():
    cs_only, ncs_only, no_access, no_backhaul = ae.evaluate_erasure_batch([
        erasure_cfg(gamma_c=1.0, K=2),
        erasure_cfg(gamma_c=0.0, K=2),
        erasure_cfg(gamma_c=0.5, e1=1.0, K=2),
        erasure_cfg(gamma_c=0.5, e2=1.0, K=2),
    ])
    assert cs_only.R_cbar == 0.0
    assert ncs_only.R_c == 0.0
    assert no_access.Gamma_cbar == 0.0
    assert no_backhaul.Gamma_c == 0.0


def test_psr_finite_k_single_user_limits():
    m = ae.evaluate_erasure(erasure_cfg(L=1, G=2e-9, gamma_c=0.5, K=0))
    assert m.Gamma_c == pytest.approx(0.25, abs=1e-6)
    assert m.Gamma_cbar == pytest.approx(0.25, abs=1e-6)


def test_finite_k_refuses_binomials_beyond_floats():
    # C(1099, 549) exceeds the largest float; C(1029, 514) does not
    cfg = erasure_cfg(L=1100, G=0.5, gamma_c=0.5, K=600)
    with pytest.raises(ValueError, match="L=1100, K=600"):
        ae.evaluate_erasure(cfg)
    for m in ae.evaluate_erasure_batch([cfg.replace(K=2), cfg.replace(L=1030, K=600)]):
        assert 0.0 < m.R_c < 1e-10 and 0.0 < m.Gamma_c < 1e-10
    # without CS load the tolerance sum is never needed
    assert ae.evaluate_erasure(cfg.replace(gamma_c=0.0)).R_cbar > 0.0


@pytest.mark.parametrize("ks", [(2,), (0, 1, 2, 5)])
def test_finite_k_memory_per_cell(ks):
    # per-slot loads of 200 per class: 308 x 308 cells of Poisson support
    cfg = erasure_cfg(L=3, T=1, G=400.0, gamma_c=0.5)
    args = (0.5, [((cfg.cs_slot_load, cfg.ncs_slot_load), k) for k in ks],
            ae._collision_kernel(3, 0.5, 0.5))
    cells = poisson_weights(cfg.cs_slot_load)[0].size * poisson_weights(cfg.ncs_slot_load)[0].size
    assert cells == 94_864
    ae._two_class_metrics(*args)  # fills the memoized Poisson cutoffs and tolerance rows
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        ae._two_class_metrics(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 56 * cells, f"{peak / cells:.1f} B per cell"


# ---------------------------------------------------------------------------
# Benchmark uplink bound
# ---------------------------------------------------------------------------


def test_benchmark_reduces_to_sa_with_erasures_at_l1():
    cfg = erasure_cfg(L=1, G=1.0, e1=0.0)
    assert ae.benchmark_bound(cfg) == pytest.approx(math.exp(-1.0), abs=1e-12)
    cfg2 = erasure_cfg(L=1, G=2.0, e1=0.3)
    expected = 2.0 * 0.7 * math.exp(-2.0 * 0.7)
    assert ae.benchmark_bound(cfg2) == pytest.approx(expected, rel=1e-10)


def test_benchmark_trivial_and_dominance():
    assert ae.benchmark_bound(erasure_cfg(e1=1.0)) == 0.0
    for L, e1, g in itertools.product((1, 2, 5), (0.1, 0.5, 0.9), (0.5, 2.0, 4.0)):
        cfg = erasure_cfg(L=L, G=g, e1=e1, e2=0.0)
        assert ae.benchmark_bound(cfg) >= ae.evaluate_erasure(cfg).R_c - 1e-12


def test_benchmark_bound_at_l64():
    # the closed form cancelled to -5.23 here; 40-digit mpmath sum of the series
    cfg = erasure_cfg(L=64, G=0.5, e1=0.1, e2=0.1)
    assert ae.benchmark_bound(cfg) == pytest.approx(0.38985561297332234871, rel=1e-12)


# ---------------------------------------------------------------------------
# Single-service series against 40-digit mpmath
# ---------------------------------------------------------------------------


def mpmath_isolated_class(L, e1, e2, loads):
    """(throughput, PSR, benchmark bound) at each load, summed at 40 digits.

    The sums run to load + 20 sqrt(load) + 60, where what is left of the
    Poisson tail lies far below the least normal double.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e1, e2 = mp.mpf(e1), mp.mpf(e2)
        n_max = max(int(g + 20 * math.sqrt(g) + 60) for g in loads)
        terms = [None]  # per n >= 1: (throughput, tagged PSR, benchmark) terms
        power = mp.mpf(1)  # e1 ** (n - 1)
        for n in range(1, n_max + 1):
            p = n * (1 - e1) * power
            q = p * (1 - e2)
            rest = (1 - q) ** (L - 1)
            terms.append((
                L * q * rest,
                L * (1 - e1) * power * (1 - e2) * rest,
                -mp.expm1(L * mp.log1p(-p)),
            ))
            power *= e1
        out = []
        for g in loads:
            lam = mp.mpf(g)
            pmf = mp.exp(-lam)
            sums = [mp.mpf(0)] * 3
            for n in range(1, int(g + 20 * math.sqrt(g) + 60) + 1):
                pmf = pmf * lam / n
                sums = [s + pmf * t for s, t in zip(sums, terms[n])]
            out.append((sums[0], sums[1] / -mp.expm1(-lam), sums[2]))
        return out


@pytest.mark.parametrize("L", [1, 3, 10, 40, 64, 200])
def test_isolated_class_series_match_mpmath(L):
    loads = (1e-8, 1e-3, 0.25, 2.0, 16.0, 150.0, 1000.0)
    for e1, e2 in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9), (0.3, 0.6)):
        tput, psr = ae.isolated_class_metrics(L, e1, e2, loads)
        bench = [ae.benchmark_bound(erasure_cfg(L=L, G=g, e1=e1, e2=e2)) for g in loads]
        reference = mpmath_isolated_class(L, e1, e2, loads)
        for g, got, want in zip(loads, zip(tput, psr, bench), reference):
            for metric, x, ref in zip(("throughput", "PSR", "benchmark"), got, want):
                where = f"{metric} at L={L}, eps=({e1}, {e2}), load={g}: {x} vs {ref}"
                if ref < 1e-290:  # below the normal doubles
                    assert x < 1e-280, where
                else:
                    assert abs(x - ref) <= 1e-12 * ref, where


def mpmath_ncs_ideal_k(L, e1, e2, pairs):
    """NCS (throughput, PSR) at K = inf for each (g_c, g_n), summed at 40 digits.

    The plain two-class double sum.  Each Poisson sum stops where the bound
    on its tail falls below 1e-45, far below 1e-12 of every value tested.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e1, e2 = mp.mpf(e1), mp.mpf(e2)

        def weights(g):
            lam, pmf, out = mp.mpf(g), mp.exp(-mp.mpf(g)), []
            while True:
                out.append(pmf)
                n = len(out)
                pmf = pmf * lam / n
                if n > g and pmf / (1 - lam / (n + 1)) < mp.mpf(10) ** -45:
                    return out

        wcs, wns = [weights(g) for g, _ in pairs], [weights(g) for _, g in pairs]
        size = max(map(len, wcs + wns))
        # p_u of an NCS arrival among n NCS and n_c CS arrivals, at k = n - 1 + n_c
        p_u = [(1 - e1) * (1 - e2) * e1**k for k in range(2 * size)]
        rows = {}  # n_c -> tagged success at n = 1, 2, ...

        def row(n_c, length):
            if len(rows.get(n_c, ())) < length:
                busy = n_c * p_u[max(n_c - 1, 0)]
                rows[n_c] = [
                    L * p_u[n - 1 + n_c] * (1 - busy - n * p_u[n - 1 + n_c]) ** (L - 1)
                    for n in range(1, length + 1)
                ]
            return rows[n_c][:length]

        out = []
        for wc, wn, (_, g_n) in zip(wcs, wns, pairs):
            per_n = [n * w for n, w in enumerate(wn)][1:]
            tput = mp.fsum(w * mp.fdot(per_n, row(n_c, len(wn) - 1)) for n_c, w in enumerate(wc))
            tagged = mp.fsum(w * mp.fdot(wn[1:], row(n_c, len(wn) - 1)) for n_c, w in enumerate(wc))
            out.append((tput, tagged / -mp.expm1(-mp.mpf(g_n))))
        return out


@pytest.mark.parametrize("L", [1, 3, 10, 40, 64, 200])
def test_ncs_ideal_k_matches_mpmath(L):
    pairs = ((1e-6, 1e-6), (1e-6, 2.0), (2.0, 1e-6), (0.3, 0.05), (1.0, 1.0), (4.0, 20.0))
    for e1, e2 in ((0.1, 0.1), (0.5, 0.5), (0.9, 0.1), (0.1, 0.9), (0.3, 0.6)):
        reference = mpmath_ncs_ideal_k(L, e1, e2, pairs)
        for (g_c, g_n), want in zip(pairs, reference):
            got = ae._ncs_ideal_k(L, e1, e2, g_c, g_n)
            for metric, x, ref in zip(("throughput", "PSR"), got, want):
                where = f"NCS {metric} at L={L}, eps=({e1}, {e2}), loads=({g_c}, {g_n})"
                assert abs(x - ref) <= 1e-12 * ref, f"{where}: {x} vs {ref}"


def mpmath_finite_k(L, e1, e2, k, pairs, tail=1e-12):
    """(R_c, R_cbar, Gamma_c, Gamma_cbar) at a finite K for each (g_c, g_n),
    summed at 40 digits over the evaluator's supports, or past them.

    The counts run to ``poisson_tail_cutoff(g, tail)``, the tagged ones
    from N = 1 with weights conditioned on N >= 1.  Given (n_c, n_n), an AP
    relays the tagged CS packet when its arrival survives, every other CS
    arrival is erased, at most K NCS arrivals survive and the backhaul
    holds; it relays some NCS packet when exactly one NCS arrival and no CS
    arrival survive and the backhaul holds.  A tagged CS packet gets through
    when one AP relays it, at most K others relay an NCS packet and the
    rest nothing; a tagged NCS packet when one AP relays it and the others
    nothing.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        e1, e2 = mp.mpf(e1), mp.mpf(e2)
        cut = {g: poisson_tail_cutoff(g, tail) for pair in pairs for g in pair}
        size = max(max(cut.values()), 1) + 1
        budget = [mp.fsum(mp.binomial(n, j) * (1 - e1) ** j * e1 ** (n - j)
                          for j in range(min(k, n) + 1)) for n in range(size)]
        cs, ncs = {}, {}
        for n_c, n_n in itertools.product(range(size), repeat=2):
            p_u = (1 - e1) * e1 ** (n_c - 1) * budget[n_n] * (1 - e2) if n_c else mp.mpf(0)
            head = (1 - e1) * e1 ** (n_n - 1) * e1**n_c * (1 - e2) if n_n else mp.mpf(0)
            rest = 1 - n_c * p_u - n_n * head
            cs[n_c, n_n] = L * p_u * mp.fsum(
                mp.binomial(L - 1, i) * (n_n * head) ** i * rest ** (L - 1 - i)
                for i in range(min(k, L - 1) + 1)
            )
            ncs[n_c, n_n] = L * head * rest ** (L - 1)

        def weights(g):  # {n: P(N = n)} and {n: P(N = n | N >= 1)}
            lam = mp.mpf(g)
            pmf = [mp.exp(-lam) * lam**n / mp.factorial(n) for n in range(max(cut[g], 1) + 1)]
            return dict(enumerate(pmf[: cut[g] + 1])), {
                n: pmf[n] / -mp.expm1(-lam) for n in range(1, len(pmf))}

        def expectation(side_c, side_n, f):
            return mp.fsum(a * b * f(c, n) for c, a in side_c.items() for n, b in side_n.items())

        out = []
        for g_c, g_n in pairs:
            (w_c, tag_c), (w_n, tag_n) = weights(g_c), weights(g_n)
            out.append((
                expectation(w_c, w_n, lambda c, n: c * cs[c, n]),
                expectation(w_c, w_n, lambda c, n: n * ncs[c, n]),
                expectation(tag_c, w_n, lambda c, n: cs[c, n]),
                expectation(w_c, tag_n, lambda c, n: ncs[c, n]),
            ))
        return out


@pytest.mark.parametrize("L", [1, 3, 5, 64])
def test_finite_k_matches_mpmath(L):
    loads = ((0.5, 1.5), (2.0, 2.0), (3.0, 0.25))  # (g_c, g_n) per slot
    for (e1, e2), k in itertools.product(((0.5, 0.5), (0.1, 0.9), (0.9, 0.1)), (0, 2)):
        cfgs = [erasure_cfg(L=L, G=g_c + g_n, gamma_c=g_c / (g_c + g_n), e1=e1, e2=e2, K=k)
                for g_c, g_n in loads]
        pairs = [(c.cs_slot_load, c.ncs_slot_load) for c in cfgs]
        reference = mpmath_finite_k(L, e1, e2, k, pairs)
        for pair, m, want in zip(pairs, ae.evaluate_erasure_batch(cfgs), reference):
            got = (m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar)
            for metric, x, ref in zip(("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"), got, want):
                where = f"{metric} at L={L}, eps=({e1}, {e2}), K={k}, loads={pair}"
                assert abs(x - ref) <= 1e-14 * ref, f"{where}: {x} vs {ref}"


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the finite-K driver cuts each Poisson sum at an absolute "
    "tail mass of 1e-12 (2 counts here), where rest**(L-1) grows with the NCS count",
)
def test_finite_k_matches_mpmath_summed_past_the_cut():
    # 8 counts carry all but 1e-40 of each class's mass; the evaluator's 2
    # counts put all four metrics 4.6-6.8% off
    cfg = erasure_cfg(L=64, G=2e-4, gamma_c=0.5, e1=0.1, e2=0.1, K=2)
    pair = (cfg.cs_slot_load, cfg.ncs_slot_load)
    assert pair == (1e-4, 1e-4) and poisson_tail_cutoff(1e-4, 1e-40) == 8
    [want] = mpmath_finite_k(64, 0.1, 0.1, 2, [pair], tail=1e-40)
    m = ae.evaluate_erasure(cfg)
    for x, ref in zip((m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar), want):
        assert abs(x - ref) <= 1e-12 * ref, f"{x} vs {ref}"


# ---------------------------------------------------------------------------
# Asymptotics in the number of APs
# ---------------------------------------------------------------------------


def test_large_l_throughput_and_psr_vanish():
    scan = [ae.isolated_class_metrics(L, 0.5, 0.5, [2.0]) for L in range(1, 51)]
    [tput], [psr] = ae.isolated_class_metrics(200, 0.5, 0.5, [2.0])
    assert tput < 1e-2
    assert psr < 1e-2
    assert tput < max(t for [t], _ in scan)
    assert psr < max(p for _, [p] in scan)


# ---------------------------------------------------------------------------
# Scenario evaluation
# ---------------------------------------------------------------------------


def test_evaluate_erasure_dispatch():
    m = ae.evaluate_erasure(erasure_cfg(gamma_c=1.0))
    assert m.R_cbar == 0.0 and m.Gamma_cbar == 0.0
    assert m.R_c == pytest.approx(ae.isolated_class_metrics(3, 0.5, 0.5, [2.0])[0][0])
    with pytest.raises(ValueError):
        ae.evaluate_erasure(erasure_cfg(receiver=Receiver.SUPERPOSITION))
    z = ae.evaluate_erasure(erasure_cfg(G=0.0, gamma_c=0.5))
    assert z == ae.evaluate_erasure(erasure_cfg(G=0.0, gamma_c=0.5))
    assert (z.R_c, z.R_cbar, z.Gamma_c, z.Gamma_cbar) == (0.0, 0.0, 0.0, 0.0)


def test_evaluate_erasure_finite_k_uses_finite_forms():
    cfg = erasure_cfg(L=3, G=4.0, gamma_c=0.5, K=1)
    [metrics] = ae._two_class_metrics(0.5, [((2.0, 2.0), 1)], ae._collision_kernel(3, 0.5, 0.5))
    assert ae.evaluate_erasure(cfg) == ServiceMetrics(*metrics)


def test_batch_equals_single_evaluations():
    base = erasure_cfg(L=3, G=2.0, gamma_c=0.5)
    other = erasure_cfg(L=2, T=2, G=6.0, gamma_c=0.25, e1=0.3, e2=0.6)
    cfgs = [base.replace(K=k) for k in (0, 1, 2, 5, 2)]  # a validate group, K repeated
    cfgs += [base, other.replace(K=3), other.replace(K=0)]  # K = inf, a second group
    cfgs += [other.replace(K=1, allocation=Tdma(alpha=a)) for a in (0.0, 0.3, 1.0)]
    cfgs += [base.replace(gamma_c=g, K=2) for g in (0.0, 1.0)]
    assert ae.evaluate_erasure_batch(cfgs) == [ae.evaluate_erasure(c) for c in cfgs]


def _finite_k_batch():
    """Several load pairs per (L, eps1, eps2), each with its own K values:
    some shared with another pair and some not, zero loads on either class
    and on both, and a pair at a K near the float limit of the binomials."""
    cfgs = []
    eps = [(0.0, 0.5), (0.5, 0.5), (1.0, 0.0), (0.5, 1.0), (0.0, 0.0), (1.0, 1.0)]
    for i, L in enumerate((1, 2, 3, 5, 64)):
        for e1, e2 in eps[i % 3 : i % 3 + 4]:
            base = erasure_cfg(L=L, T=2, G=3.0, e1=e1, e2=e2)
            for gamma_c, ks in ((0.5, (0, 2)), (0.0, (2, 5)), (1.0, (1,)), (0.25, (2,)),
                                (0.5, (2, 7)), (0.25, (3, 0))):
                cfgs += [base.replace(gamma_c=gamma_c, K=k) for k in ks]
            cfgs.append(base.replace(G=0.0, K=1))
    near = erasure_cfg(L=1030, G=0.5, gamma_c=0.5)  # C(1029, 514) is still a float
    return cfgs + [near.replace(K=600), near.replace(G=0.3, K=2), near.replace(K=2)]


def test_finite_k_batch_equals_batches_of_one():
    cfgs = _finite_k_batch()
    assert [repr(m) for m in ae.evaluate_erasure_batch(cfgs)] == [
        repr(ae.evaluate_erasure(c)) for c in cfgs
    ]


def test_finite_k_batch_does_not_depend_on_the_run_budget_or_block_size(monkeypatch):
    # runs and blocks of 7 cells split every grid and straddle grid boundaries
    cfgs = _finite_k_batch()
    expected = [repr(m) for m in ae.evaluate_erasure_batch(cfgs)]
    monkeypatch.setattr(ae, "_RUN_CELLS", 7)
    monkeypatch.setattr(ae, "_BLOCK_CELLS", 7)
    assert [repr(m) for m in ae.evaluate_erasure_batch(cfgs)] == expected


def test_finite_k_batch_refuses_its_first_refused_pair():
    # the two refused scenarios lie in different (L, eps1, eps2) groups, the
    # later one in the group of the first scenario
    ok = erasure_cfg(L=3, G=2.0, gamma_c=0.5, K=2)
    overflow = erasure_cfg(L=1100, G=0.5, gamma_c=0.5, K=600)
    too_big = erasure_cfg(L=3, G=2e4, gamma_c=0.5, K=1)
    with pytest.raises(ValueError, match="L=1100, K=600"):
        ae.evaluate_erasure_batch([ok, overflow, ok.replace(K=1), too_big])
    with pytest.raises(ValueError, match="two-class limit"):
        ae.evaluate_erasure_batch([ok, too_big, ok.replace(K=1), overflow])


@pytest.mark.parametrize("path", ["collision_tdma", "collision_k_inf", "collision_finite_k",
                                  "superposition_exact", "superposition_mc"])
def test_a_refused_last_scenario_is_refused_before_any_work(monkeypatch, path):
    # every scenario of a batch is checked, in order, before any evaluation:
    # a lone class at a per-slot load of 2e8, or two classes at 1e4 each
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the last scenario was checked")

    for name in ("isolated_class_metrics", "_ncs_ideal_k", "_two_class_metrics"):
        monkeypatch.setattr(ae, name, no_work)
    monkeypatch.setattr(sp.ConditionedMC, "_draws", no_work)
    tdma = path == "collision_tdma"
    receiver = Receiver.SUPERPOSITION if "superposition" in path else Receiver.COLLISION
    ok = erasure_cfg(G=2.0, gamma_c=0.5, K=INFINITE_K if path == "collision_k_inf" else 2,
                     receiver=receiver, **({"allocation": Tdma(alpha=0.5)} if tdma else {}))
    estimator = sp.ConditionedMC(n_alloc_samples=10) if path == "superposition_mc" else None
    batch = [ok, ok.replace(gamma_c=0.25), ok.replace(G=2e8 if tdma else 2e4)]
    with pytest.raises(ValueError, match="terms of Poisson support" if tdma else "two-class limit"):
        ae.evaluate_erasure_batch(batch, estimator)


def test_an_oversized_mc_group_is_refused_before_any_group_draws(monkeypatch):
    # the draw size of every superposition group is checked before the first
    # group draws: here the second group's largest pair overflows the bound
    def no_draw(*args, **kwargs):
        raise AssertionError("a group drew before every group's draw size was checked")

    monkeypatch.setattr(sp.ConditionedMC, "_draws", no_draw)
    small = erasure_cfg(L=3, G=0.2, gamma_c=0.5, K=2, receiver=Receiver.SUPERPOSITION)
    with pytest.raises(ValueError, match="allocations of .* cells need .* one draw may hold"):
        ae.evaluate_erasure_batch([small, small.replace(L=4, G=600.0)],
                                  sp.ConditionedMC(n_alloc_samples=100_000))


def test_region_makes_one_finite_k_evaluation_per_group(monkeypatch):
    # the 71 non-orthogonal points of the README region share (L, eps1, eps2)
    from twohop_aloha import cli

    calls = []
    evaluate = ae._two_class_metrics

    def counted(e1, grids, kernel):
        calls.append(len(grids))
        return evaluate(e1, grids, kernel)

    monkeypatch.setattr(ae, "_two_class_metrics", counted)
    grid = tuple(i / 70 for i in range(71))
    base = erasure_cfg(T=8, G=16.0, K=2)
    cli.compute_region(base, grid, grid, ("non_orthogonal",), cli.AnalyticBackend())
    assert calls == [71]


def test_finite_k_evaluation_makes_one_grid_pass(monkeypatch):
    # all four metrics of every pair at each of its K, zero loads included
    passes = []
    reduce_grids = ae._reduce_grids

    def counted(shapes, *args):
        passes.append(len(shapes))
        return reduce_grids(shapes, *args)

    monkeypatch.setattr(ae, "_reduce_grids", counted)
    grids = [((2.0, 2.0), 1), ((2.0, 2.0), 2), ((0.0, 1.0), 2), ((1.0, 0.0), 0), ((0.5, 3.0), 5)]
    ae._two_class_metrics(0.5, grids, ae._collision_kernel(3, 0.5, 0.5))
    assert passes == [5]


def test_each_load_support_is_built_once_per_call(monkeypatch):
    # every distinct per-slot load of a batch, as g_c or as g_n, once; a
    # second identical batch builds them again (no cache outlives a call)
    built = []
    weights = ae.poisson_weights

    def counted(g):
        built.append(g)
        return weights(g)

    monkeypatch.setattr(ae, "poisson_weights", counted)
    cfgs = [erasure_cfg(T=8, G=16.0, gamma_c=i / 10, K=k) for i in range(11) for k in (1, 2)]
    loads = {g for c in cfgs for g in (c.cs_slot_load, c.ncs_slot_load)}
    for _ in range(2):
        built.clear()
        ae.evaluate_erasure_batch(cfgs)
        assert sorted(built) == sorted(loads)


def test_finite_k_batch_memory_is_that_of_its_largest_grid():
    # 20 pairs at per-slot loads (200 + 0.01 i, 200), 94,864 cells or more each
    cfgs = [erasure_cfg(L=3, G=400.0 + 0.01 * i, gamma_c=(200.0 + 0.01 * i) / (400.0 + 0.01 * i),
                        K=2) for i in range(20)]
    peaks = []
    for batch in (cfgs[:1], cfgs):
        ae.evaluate_erasure_batch(batch)  # fills the memoized Poisson cutoffs and tolerance rows
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            ae.evaluate_erasure_batch(batch)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_evaluate_tdma_degenerate_alpha():
    cfg = erasure_cfg(T=4, G=8.0, gamma_c=1.0, allocation=Tdma(alpha=1.0))
    full = ae.evaluate_erasure(erasure_cfg(T=4, G=8.0, gamma_c=1.0))
    m = ae.evaluate_erasure(cfg)
    assert m.R_c == pytest.approx(full.R_c, rel=1e-12)
    assert m.Gamma_c == pytest.approx(full.Gamma_c, rel=1e-12)
    assert m.R_cbar == 0.0 and m.Gamma_cbar == 0.0
    # excluded class gets zeros without raising
    m0 = ae.evaluate_erasure(
        erasure_cfg(T=4, G=8.0, gamma_c=0.5, allocation=Tdma(alpha=0.0))
    )
    assert m0.R_c == 0.0 and m0.Gamma_c == 0.0
    assert m0.R_cbar > 0.0


def test_evaluate_tdma_splits_loads():
    cfg = erasure_cfg(T=4, G=8.0, gamma_c=0.5, allocation=Tdma(alpha=0.5))
    m = ae.evaluate_erasure(cfg)
    # both classes see per-slot load (0.5 * 8) / (0.5 * 4) = 2 on their share
    [single], _ = ae.isolated_class_metrics(3, 0.5, 0.5, [2.0])
    assert m.R_c == pytest.approx(0.5 * single, rel=1e-12)
    assert m.R_cbar == pytest.approx(0.5 * single, rel=1e-12)
    assert m.Gamma_c == pytest.approx(m.Gamma_cbar, rel=1e-12)


def test_scheme_comparison_fig6_config():
    # non-orthogonal favors CS; TDMA favors NCS (analytic collision model)
    for T in (4, 8):
        no = ae.evaluate_erasure(erasure_cfg(T=T, G=15.0, gamma_c=0.5))
        td = ae.evaluate_erasure(
            erasure_cfg(T=T, G=15.0, gamma_c=0.5, allocation=Tdma(alpha=0.5))
        )
        assert no.R_c >= td.R_c
        assert no.Gamma_c >= td.Gamma_c
        assert td.R_cbar >= no.R_cbar
        assert td.Gamma_cbar >= no.Gamma_cbar


# ---------------------------------------------------------------------------
# Small-load limits
# ---------------------------------------------------------------------------


def test_throughputs_vanish_with_load():
    tiny = erasure_cfg(G=1e-9, gamma_c=0.5, K=1)
    for m in ae.evaluate_erasure_batch([tiny, tiny.replace(K=INFINITE_K)]):
        assert m.R_c < 1e-8
        assert m.R_cbar < 1e-8
