import itertools
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twohop_aloha.analytic_erasure as ae
import twohop_aloha.sim_erasure as se
import twohop_aloha.superposition as sp
from twohop_aloha.core import (
    INFINITE_K,
    ErasureParams,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
    gamma_k_tolerance_array,
)


def sup_cfg(L=3, T=1, G=2.0, gamma_c=0.5, e1=0.5, e2=0.5, K=INFINITE_K, **kw):
    return ScenarioConfig(
        L=L, T=T, G=G, gamma_c=gamma_c, channel=ErasureParams(e1, e2), K=K,
        receiver=Receiver.SUPERPOSITION, **kw
    )


# ---------------------------------------------------------------------------
# Allocation probabilities and decode probabilities
# ---------------------------------------------------------------------------


def test_ap_allocation_probs_examples():
    assert sp.ap_allocation_probs(0, 0, 0.3).tolist() == [1.0]
    assert sp.ap_allocation_probs(1, 0, 0.5).tolist() == [0.5, 0.5]
    # entry 0 counts silent APs, then CS cells, then NCS cells
    probs = sp.ap_allocation_probs(1, 1, 0.5)
    assert probs == pytest.approx([0.25, 0.5, 0.25])


@pytest.mark.parametrize("n_c,n_n,e1", [(0, 0, 0.2), (3, 2, 0.5), (5, 0, 0.9), (0, 4, 0.1)])
def test_ap_allocation_probs_sum_to_one(n_c, n_n, e1):
    probs = sp.ap_allocation_probs(n_c, n_n, e1)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= 0.0)
    assert len(probs) == 1 + (n_c > 0) * n_c + (n_n > 0) * n_n


def _budgets(L, n_n, e1, e2, k):
    """The AP tolerance row over NCS counts 0..n_n and the BS row over 0..L."""
    ap = gamma_k_tolerance_array(np.arange(n_n + 1), e1, k).tolist()
    return ap, gamma_k_tolerance_array(np.arange(L + 1), e2, k)


def _decode_probs(m_counts, n_c, e2, k=INFINITE_K):
    """(CS, NCS) decode probabilities of one allocation by the per-row rule."""
    bs = gamma_k_tolerance_array(np.arange(sum(m_counts) + 1), e2, k)
    q_cs, q_ncs = sp._mc_throughput_values(np.array([m_counts]), n_c, e2, bs)
    return float(q_cs[0]), float(q_ncs[0])


def test_bs_decode_prob_cs_examples():
    both = (0, 2)  # L=2 APs, both hold the lone CS message
    assert _decode_probs(both, 1, 0.5)[0] == pytest.approx(0.75)
    silent = (3, 0)
    assert _decode_probs(silent, 1, 0.5)[0] == 0.0
    assert _decode_probs(both, 1, 1.0)[0] == 0.0


def test_bs_decode_prob_cs_matches_explicit_binomial_sum():
    # the per-message (1 - e2**M) factor equals the explicit sum over the
    # number of unerased copies
    m = (1, 3, 2, 1)  # n_c = 2, n_cbar = 1, L = 7
    e2, K = 0.6, 2
    expected = 0.0
    s_cs, s_ncs = m[1] + m[2], m[3]
    for idx in (1, 2):
        for j in range(1, m[idx] + 1):
            expected += (
                float(gamma_k_tolerance_array(s_ncs, e2, K))
                * math.comb(m[idx], j)
                * (1 - e2) ** j
                * e2 ** ((s_cs - m[idx]) + m[idx] - j)
            )
    assert _decode_probs(m, 2, e2, K)[0] == pytest.approx(expected, rel=1e-12)


def test_bs_decode_prob_ncs_examples():
    # single NCS message held by 2 of 3 APs
    assert _decode_probs((1, 2), 0, 0.5)[1] == pytest.approx(0.75)
    # any CS copy present with e2 = 0 blocks NCS decoding
    assert _decode_probs((0, 1, 2), 1, 0.0)[1] == 0.0  # n_c = 1 (one copy), n_cbar = 1
    assert _decode_probs((3,), 0, 0.5)[1] == 0.0


def test_decode_probs_are_disjoint_events():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n_c, n_n = rng.integers(0, 4), rng.integers(0, 4)
        L = int(rng.integers(1, 6))
        e1, e2 = rng.random(), rng.random()
        probs = sp.ap_allocation_probs(int(n_c), int(n_n), e1)
        counts = rng.multinomial(L, probs)
        k = int(rng.integers(0, 4))
        assert sum(_decode_probs(counts, int(n_c), e2, k)) <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# Exact marginalization vs literal enumeration
# ---------------------------------------------------------------------------


def enumerate_allocations(n_aps: int, n_cells: int):
    """Yield (composition, multinomial coefficient) over all allocations.

    Exhaustive stars-and-bars enumeration; the probability weight of a
    composition under cell probabilities p is coef * prod(p**counts).
    The literal oracle for the marginalized exact computation.
    """
    for bars in combinations(range(n_aps + n_cells - 1), n_cells - 1):
        counts = []
        prev = -1
        for b in bars:
            counts.append(b - prev - 1)
            prev = b
        counts.append(n_aps + n_cells - 2 - prev)
        coef = math.factorial(n_aps)
        for c in counts:
            coef //= math.factorial(c)
        yield tuple(counts), coef


def _enumerated(n_aps, probs):
    """Every allocation as a row, with its multinomial probability."""
    rows, w = [], []
    for counts, coef in enumerate_allocations(n_aps, len(probs)):
        rows.append(counts)
        w.append(coef * float(np.prod(probs ** np.array(counts))))
    return np.array(rows), np.array(w)


def test_enumerated_weights_sum_to_one():
    for n_aps, n_cells in ((3, 4), (5, 3), (2, 6)):
        _, w = _enumerated(n_aps, np.full(n_cells, 1.0 / n_cells))
        assert w.sum() == pytest.approx(1.0, abs=1e-10)


def _kernel(L, n_c, n_n, e1, e2, k):
    """The exact kernel's (tagged CS, tagged NCS) decode probabilities at one pair."""
    ap, bs = _budgets(L, n_n, e1, e2, k)
    counts = np.array([n_c]), np.array([n_n])
    cs, ncs = sp._tagged_decode(L, e1, e2, *counts, np.array([ap[n_n]]), bs[None], 0)
    return float(cs[0]), float(ncs[0])


def p_access_cs(n_c: int, eps1: float) -> float:
    """P(an AP decodes one CS packet | n_c CS transmissions in the slot)."""
    if n_c == 0:
        return 0.0
    return n_c * (1.0 - eps1) * eps1 ** (n_c - 1)


def p_access_ncs(n_c: int, n_cbar: int, eps1: float) -> float:
    """P(an AP decodes one NCS packet | n_c CS and n_cbar NCS transmissions):
    the one surviving NCS arrival plus erasure of every CS arrival."""
    if n_cbar == 0:
        return 0.0
    return n_cbar * (1.0 - eps1) * eps1 ** (n_cbar - 1) * eps1**n_c


def _cell_probs(n_c, n_n, e1, budget):
    """Multinomial cell probabilities (silent, CS cells, NCS cells) of one AP,
    from the scalar access probabilities; a CS cell carries the AP budget."""
    p_c, p_n = p_access_cs(n_c, e1) * budget, p_access_ncs(n_c, n_n, e1)
    return np.array([1.0 - p_c - p_n] + [p_c / max(n_c, 1)] * n_c + [p_n / max(n_n, 1)] * n_n)


def _literal(L, n_c, n_n, e1, e2, k):
    """(CS, NCS) throughputs and tagged terms by enumerating every allocation;
    a tagged term of a class with no message is None."""
    ap, bs = _budgets(L, n_n, e1, e2, k)
    rows, w = _enumerated(L, _cell_probs(n_c, n_n, e1, ap[n_n]))
    r_cs, r_ncs = (w @ q for q in sp._mc_throughput_values(rows, n_c, e2, bs))
    tag_cs = w @ sp._mc_tagged_values(rows, n_c, e2, bs, True) if n_c else None
    tag_ncs = w @ sp._mc_tagged_values(rows, n_c, e2, bs, False) if n_n else None
    return r_cs, r_ncs, tag_cs, tag_ncs


def _assert_kernel_is_literal(L, n_c, n_n, e1, e2, k, abs_tol=1e-12):
    tag_cs, tag_ncs = _kernel(L, n_c, n_n, e1, e2, k)
    lit_r_cs, lit_r_ncs, lit_cs, lit_ncs = _literal(L, n_c, n_n, e1, e2, k)
    # a class delivers n times its tagged-message probability
    assert n_c * tag_cs == pytest.approx(lit_r_cs, abs=abs_tol)
    assert n_n * tag_ncs == pytest.approx(lit_r_ncs, abs=abs_tol)
    if lit_cs is not None:
        assert tag_cs == pytest.approx(lit_cs, abs=abs_tol)
    if lit_ncs is not None:
        assert tag_ncs == pytest.approx(lit_ncs, abs=abs_tol)


@pytest.mark.parametrize("n_c,n_n", [(2, 3), (1, 0), (0, 2), (3, 3)])
def test_marginalized_inner_equals_literal_enumeration(n_c, n_n):
    _assert_kernel_is_literal(3, n_c, n_n, 0.4, 0.5, 1)


@pytest.mark.parametrize("n_tag,n_oth,tagged_cs", [(2, 3, True), (1, 0, True), (3, 2, False), (1, 1, False)])
def test_marginalized_psr_equals_literal_enumeration(n_tag, n_oth, tagged_cs):
    n_c, n_n = (n_tag, n_oth) if tagged_cs else (n_oth, n_tag)
    _assert_kernel_is_literal(4, n_c, n_n, 0.3, 0.6, 1)


@given(
    L=st.integers(1, 5),
    n_c=st.integers(0, 4),
    n_n=st.integers(0, 4),
    e1=st.floats(0.0, 1.0),
    e2=st.floats(0.0, 1.0),
    k=st.sampled_from([0, 1, 2, 3, INFINITE_K]),
)
@settings(max_examples=300, deadline=None)
def test_kernel_equals_literal_enumeration(L, n_c, n_n, e1, e2, k):
    _assert_kernel_is_literal(L, n_c, n_n, e1, e2, k)


def test_kernel_has_no_cancellation_near_full_access_erasure():
    # e1 = 1 - 1e-9 leaves d ~ 1e-11 against B ~ 1: the plain difference of
    # powers (B + d)**m - B**m loses about 1e-7 of its value here
    L, e1, e2 = 3, 1.0 - 1e-9, 0.99
    for n_c, n_n, k in ((1, 1, 2), (2, 3, 1), (4, 2, INFINITE_K)):
        tag_cs, tag_ncs = _kernel(L, n_c, n_n, e1, e2, k)
        _, _, lit_cs, lit_ncs = _literal(L, n_c, n_n, e1, e2, k)
        assert tag_cs == pytest.approx(lit_cs, rel=1e-12, abs=0)
        assert tag_ncs == pytest.approx(lit_ncs, rel=1e-12, abs=0)
    # (R_c, R_cbar, Gamma_c, Gamma_cbar) at T = 1, G = 2, gamma_c = 0.5 from
    # per-pair sums of positive terms, which have no difference of powers
    pinned = {
        2: (2.9999999120497525e-11, 2.999999908989752e-11,
            2.9999999133410377e-11, 2.999999910281037e-11),
        INFINITE_K: (2.9999999120497525e-11, 2.999999908989752e-11,
                     2.9999999133410377e-11, 2.999999910281037e-11),
    }
    for k, values in pinned.items():
        m = sp.evaluate_superposition(sup_cfg(L=L, e1=e1, e2=e2, K=k))
        got = (m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar)
        assert got == pytest.approx(values, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Scenario evaluation
# ---------------------------------------------------------------------------


def test_requires_superposition_receiver():
    with pytest.raises(ValueError):
        sp.evaluate_superposition(sup_cfg().replace(receiver=Receiver.COLLISION))


def test_all_backhaul_erased_gives_zeros():
    m = sp.evaluate_superposition(sup_cfg(e2=1.0))
    assert (m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar) == (0.0, 0.0, 0.0, 0.0)


def test_l1_coincides_with_collision_model():
    cfg = sup_cfg(L=1, T=2, G=4.0, gamma_c=0.5, e1=0.4, e2=0.3, K=1)
    m = sp.evaluate_superposition(cfg)
    coll = ae.evaluate_erasure(cfg.replace(receiver=Receiver.COLLISION))
    for name in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
        assert getattr(m, name) == pytest.approx(getattr(coll, name), abs=1e-8)


def test_superposition_dominates_collision():
    cfg = sup_cfg(L=3, T=2, G=8.0, gamma_c=0.5, K=2)
    m = sp.evaluate_superposition(cfg)
    coll = ae.evaluate_erasure(cfg.replace(receiver=Receiver.COLLISION))
    assert m.R_c >= coll.R_c - 1e-12
    assert m.R_cbar >= coll.R_cbar - 1e-12
    assert m.Gamma_c >= coll.Gamma_c - 1e-12
    assert m.Gamma_cbar >= coll.Gamma_cbar - 1e-12


def test_exact_and_mc_estimators_agree():
    cfg = sup_cfg(L=3, T=2, G=8.0, gamma_c=0.5, K=2)
    exact = sp.evaluate_superposition(cfg)
    mc = sp.evaluate_superposition(cfg, sp.ConditionedMC(n_alloc_samples=1500, seed=42))
    for name in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
        est = getattr(mc, name)
        gap = abs(est.mean - getattr(exact, name))
        assert gap <= 4.0 * max(est.std_error, 1e-9)
    # MC is reproducible for a fixed seed
    mc2 = sp.evaluate_superposition(cfg, sp.ConditionedMC(n_alloc_samples=1500, seed=42))
    assert mc == mc2


@pytest.mark.parametrize("L,G,gamma_c,e1,e2", [
    (1, 1.0, 0.5, 0.3, 0.5),
    (3, 2.0, 0.5, 0.5, 0.5),
    (5, 4.0, 0.1, 0.9, 0.1),
    (3, 0.5, 0.9, 0.1, 0.9),
])
def test_exact_evaluator_matches_the_slot_simulator(L, G, gamma_c, e1, e2):
    # at T = 1 the simulator tags the estimand the exact evaluator computes
    cfg = sup_cfg(L=L, T=1, G=G, gamma_c=gamma_c, e1=e1, e2=e2)
    ks = (0, 2, INFINITE_K)
    sim = se.simulate_multi_k(cfg, ks, 1_000_000, seed=7)
    for k in ks:
        exact = sp.evaluate_superposition(cfg.replace(K=k))
        for name in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
            est = getattr(sim[k], name)
            z = (est.mean - getattr(exact, name)) / max(est.std_error, 1e-12)
            assert abs(z) <= 4.0, f"{name} at K={k}: z = {z:.2f}"


@pytest.mark.parametrize("L", [5, 8, 20])
def test_many_aps_are_answered_and_match_mc(L):
    # the README load with more APs than enumerating the allocations affords
    cfg = sup_cfg(L=L, T=8, G=16.0, K=2)
    exact = sp.evaluate_superposition(cfg)
    mc = sp.evaluate_superposition(cfg, sp.ConditionedMC(n_alloc_samples=2000, seed=L))
    for name in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
        est = getattr(mc, name)
        assert abs(est.mean - getattr(exact, name)) <= 4.0 * est.std_error, name


def test_l1100_is_finite():
    # float binomial coefficients overflow from L = 1030 on
    m = sp.evaluate_superposition(sup_cfg(L=1100, T=8, G=16.0, K=2))
    values = (m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar)
    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values), values


def test_capacity_error_never_silently_degrades(monkeypatch):
    # both estimators refuse a grid beyond 2**26 support cells, before any
    # work; a TDMA class grid spans one class's support only
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    for module in (sp, ae):
        monkeypatch.setattr(module, "poisson_weights", no_work)
        monkeypatch.setattr(module, "gamma_k_tolerance_array", no_work)
    for cfg in (sup_cfg(L=5, T=1, G=2e4, K=2),
                sup_cfg(L=5, T=1, G=2e8, K=2, allocation=Tdma(alpha=0.5))):
        for estimator in (sp.ExactEnum(), sp.ConditionedMC(n_alloc_samples=10)):
            with pytest.raises(ValueError, match="two-class limit"):
                sp.evaluate_superposition(cfg, estimator)


def test_zero_load_class_metrics():
    m = sp.evaluate_superposition(sup_cfg(gamma_c=1.0, G=2.0))
    assert m.R_cbar == 0.0 and m.Gamma_cbar == 0.0
    assert m.R_c > 0.0


def test_tdma_evaluation():
    cfg = sup_cfg(T=4, G=8.0, gamma_c=0.5, allocation=Tdma(alpha=0.5))
    m = sp.evaluate_superposition(cfg)
    assert isinstance(m, ServiceMetrics)
    # per-share load 2.0 for both classes: symmetric metrics
    assert m.R_c == pytest.approx(m.R_cbar, rel=1e-10)
    assert m.Gamma_c == pytest.approx(m.Gamma_cbar, rel=1e-10)
    degenerate = sp.evaluate_superposition(
        sup_cfg(T=4, G=8.0, gamma_c=0.5, allocation=Tdma(alpha=1.0))
    )
    assert degenerate.R_cbar == 0.0 and degenerate.Gamma_cbar == 0.0


@pytest.mark.parametrize("allocation", [None, Tdma(alpha=0.5)])
def test_exact_evaluation_builds_tolerance_rows_once(monkeypatch, allocation):
    # README scenario: every tolerance value comes from at most two rows per
    # class grid, never from a binomial-CDF call per (n_c, n_cbar) pair or term
    from twohop_aloha import core

    calls = {"rows": 0, "cdf": 0}
    rows, cdf = sp.gamma_k_tolerance_array, core._binomial_cdf

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    core._tolerance_row.cache_clear()
    for module in (sp, ae):
        monkeypatch.setattr(module, "gamma_k_tolerance_array", counted("rows", rows))
    monkeypatch.setattr(core, "_binomial_cdf", counted("cdf", cdf))
    extra = {} if allocation is None else {"allocation": allocation}
    m = sp.evaluate_superposition(sup_cfg(T=8, G=16.0, K=2, **extra))
    assert m.R_c > 0.0 and m.R_cbar > 0.0
    assert 1 <= calls["rows"] <= 4
    assert calls["cdf"] <= calls["rows"]
    assert calls["cdf"] >= 1  # the rows were built here, not read from the cache


# ---------------------------------------------------------------------------
# Batched evaluation
# ---------------------------------------------------------------------------


def _mixed_scenarios(receiver, Ls=(1, 2, 3, 5, 64)):
    """Scenarios over L, K, allocation and gamma_c, cycling through access and
    backhaul erasures that include 0 and 1; the first three come again last."""
    eps = [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5), (0.0, 1.0), (1.0, 0.0), (0.3, 0.7)]
    allocations = [None, Tdma(alpha=0.0), Tdma(alpha=0.3), Tdma(alpha=1.0)]
    cfgs = []
    for i, (L, k, alloc, g) in enumerate(
        itertools.product(Ls, (0, 1, 2, INFINITE_K), allocations, (0.0, 0.5, 1.0))
    ):
        e1, e2 = eps[i % len(eps)]
        extra = {} if alloc is None else {"allocation": alloc}
        cfgs.append(ScenarioConfig(
            L=L, T=2, G=3.0, gamma_c=g, channel=ErasureParams(e1, e2), K=k,
            receiver=receiver, **extra,
        ))
    return cfgs + cfgs[:3]


@pytest.mark.parametrize("backend", ["analytic", "exact", "mc"])
def test_batch_equals_one_scenario_evaluation(backend):
    if backend == "analytic":
        cfgs = _mixed_scenarios(Receiver.COLLISION)
        batch, one = ae.evaluate_erasure_batch, ae.evaluate_erasure
    else:
        estimator = sp.ExactEnum() if backend == "exact" else sp.ConditionedMC(20, seed=5)
        Ls = (1, 3) if backend == "mc" else (1, 2, 3, 5, 64)
        cfgs = _mixed_scenarios(Receiver.SUPERPOSITION, Ls)
        def batch(cfgs):
            return ae.evaluate_erasure_batch(cfgs, estimator)
        def one(cfg):
            return sp.evaluate_superposition(cfg, estimator)
    assert [repr(m) for m in batch(cfgs)] == [repr(one(c)) for c in cfgs]


def test_exact_batch_does_not_depend_on_the_block_size(monkeypatch):
    # blocks of 7 cells split every grid and straddle grid boundaries
    cfgs = _mixed_scenarios(Receiver.SUPERPOSITION, (1, 3, 64))
    expected = [repr(m) for m in ae.evaluate_erasure_batch(cfgs)]
    monkeypatch.setattr(ae, "_BLOCK_CELLS", 7)
    assert [repr(m) for m in ae.evaluate_erasure_batch(cfgs)] == expected


def test_region_makes_one_kernel_call_per_group_and_block(monkeypatch):
    # the 11 x 11 README region: every class grid of its one (L, eps1, eps2)
    # group goes through the kernel together, block by block
    from twohop_aloha import cli

    calls = []
    kernel = sp._tagged_decode

    def counted(L, e1, e2, n_c, n_n, ap_budget, bs_rows, row):
        calls.append(n_c.size)
        return kernel(L, e1, e2, n_c, n_n, ap_budget, bs_rows, row)

    monkeypatch.setattr(sp, "_tagged_decode", counted)
    base = sup_cfg(T=8, G=16.0, K=2)
    grid = tuple(i / 10 for i in range(11))
    cli.compute_region(base, grid, grid, ("non_orthogonal", "tdma"), cli.AnalyticBackend(Receiver.SUPERPOSITION))
    loads = {(base.replace(gamma_c=g).cs_slot_load, base.replace(gamma_c=g).ncs_slot_load)
             for g in grid}
    for g, a in itertools.product(grid, grid):
        (_, g_c), (_, g_n) = base.replace(gamma_c=g, allocation=Tdma(alpha=a)).tdma_shares()
        loads |= {(g_c, 0.0), (0.0, g_n)}
    # each grid starts on a whole 8 cells (64 bytes)
    cells = sum(-(-ae._class_support(g_c)[0].size * ae._class_support(g_n)[0].size // 8) * 8
                for g_c, g_n in loads)
    assert len(calls) == math.ceil(cells / ae._BLOCK_CELLS)
    assert sum(calls) == cells
    assert all(size == ae._BLOCK_CELLS for size in calls[:-1])


def test_exact_memory_per_cell():
    # per-slot loads of 200 per class: 308 x 308 cells of Poisson support
    cfg = sup_cfg(L=3, T=1, G=400.0, gamma_c=0.5, K=2)
    cells = math.prod(ae._class_support(g)[0].size for g in (cfg.cs_slot_load, cfg.ncs_slot_load))
    assert cells == 94_864
    sp.evaluate_superposition(cfg)  # fills the memoized Poisson cutoffs and tolerance rows
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        sp.evaluate_superposition(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 48 * cells, f"{peak / cells:.1f} B per cell"


def test_exact_batch_does_not_depend_on_the_run_budget(monkeypatch):
    # runs of 7 cells put every grid on a run of its own
    cfgs = _mixed_scenarios(Receiver.SUPERPOSITION, (1, 3, 64))
    expected = [repr(m) for m in ae.evaluate_erasure_batch(cfgs)]
    monkeypatch.setattr(ae, "_RUN_CELLS", 7)
    monkeypatch.setattr(ae, "_BLOCK_CELLS", 7)
    assert [repr(m) for m in ae.evaluate_erasure_batch(cfgs)] == expected


def test_each_load_support_is_built_once_per_call(monkeypatch):
    # the README region's distinct loads, among its non-orthogonal and TDMA
    # class grids, once per batch; a second identical batch builds them again
    built = []
    weights = ae.poisson_weights

    def counted(g):
        built.append(g)
        return weights(g)

    monkeypatch.setattr(ae, "poisson_weights", counted)
    base = sup_cfg(T=8, G=16.0, K=2)
    grid = tuple(i / 10 for i in range(11))
    cfgs = [base.replace(gamma_c=g) for g in grid]
    cfgs += [base.replace(gamma_c=g, allocation=Tdma(alpha=a)) for g in grid for a in grid]
    loads = {0.0} | {g for c in cfgs[:11] for g in (c.cs_slot_load, c.ncs_slot_load)}
    for c in cfgs[11:]:
        loads |= {g for _, g in c.tdma_shares()}
    for _ in range(2):
        built.clear()
        ae.evaluate_erasure_batch(cfgs)
        assert sorted(built) == sorted(loads)


def test_exact_batch_memory_is_that_of_its_largest_grid():
    # 20 pairs at per-slot loads (200 + 0.01 i, 200), 94,864 cells or more
    # each; the whole batch on one flat array peaked at 11 times one pair
    cfgs = [sup_cfg(L=3, G=400.0 + 0.01 * i, gamma_c=(200.0 + 0.01 * i) / (400.0 + 0.01 * i),
                    K=2) for i in range(20)]
    peaks = []
    for batch in (cfgs[:1], cfgs):
        ae.evaluate_erasure_batch(batch)  # fills the memoized cutoffs and tolerance rows
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            ae.evaluate_erasure_batch(batch)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks
