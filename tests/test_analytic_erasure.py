import itertools
import math

import pytest

import twohop_aloha.analytic_erasure as ae
from twohop_aloha.core import (
    INFINITE_K,
    ErasureParams,
    Receiver,
    ScenarioConfig,
    Tdma,
)


def erasure_cfg(L=3, T=1, G=2.0, gamma_c=1.0, e1=0.5, e2=0.5, K=INFINITE_K, **kw):
    return ScenarioConfig(
        L=L, T=T, G=G, gamma_c=gamma_c, channel=ErasureParams(e1, e2), K=K, **kw
    )


# ---------------------------------------------------------------------------
# Conditional access probabilities
# ---------------------------------------------------------------------------


def test_p_access_cs_examples():
    assert ae.p_access_cs(1, 0.5) == 0.5
    assert ae.p_access_cs(0, 0.3) == 0.0
    assert ae.p_access_cs(2, 0.5) == pytest.approx(0.5)
    assert ae.p_access_cs(1, 0.0) == 1.0  # 0**0 = 1 convention


def test_p_access_ncs_examples():
    assert ae.p_access_ncs(0, 1, 0.5) == 0.5
    assert ae.p_access_ncs(1, 1, 0.5) == pytest.approx(0.25)
    assert ae.p_access_ncs(5, 2, 1.0) == 0.0
    assert ae.p_access_ncs(3, 0, 0.5) == 0.0


# ---------------------------------------------------------------------------
# Single service
# ---------------------------------------------------------------------------


def test_throughput_cs_single_examples():
    assert ae.throughput_cs_single(
        erasure_cfg(L=1, G=1.0, e1=0.0, e2=0.0)
    ) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert ae.throughput_cs_single(erasure_cfg(e1=1.0)) == 0.0
    assert ae.throughput_cs_single(erasure_cfg(e2=1.0)) == 0.0
    assert ae.throughput_cs_single(
        erasure_cfg(L=1, G=1.0, e1=0.5, e2=0.0)
    ) == pytest.approx(0.5 * math.exp(-0.5), rel=1e-12)


def test_reference_series_matches_closed_form_on_grid():
    for L, e1, e2, g in itertools.product(
        (1, 2, 5), (0.1, 0.5, 0.9), (0.1, 0.9), (0.25, 2.0)
    ):
        closed = ae.throughput_cs_single(erasure_cfg(L=L, G=g, e1=e1, e2=e2))
        series = ae._cs_throughput_series(L, e1, e2, g)
        assert closed == pytest.approx(series, rel=1e-9, abs=1e-14)


def test_reference_series_zero_load():
    assert ae._cs_throughput_series(3, 0.5, 0.5, 0.0) == 0.0


def test_psr_cs_single_limits():
    assert ae.psr_cs_single(erasure_cfg(L=1, G=1e-9)) == pytest.approx(0.25, abs=1e-6)
    assert ae.psr_cs_single(erasure_cfg(L=2, G=1e-9)) == pytest.approx(0.375, abs=1e-6)
    assert ae.psr_cs_single(erasure_cfg(e1=1.0, G=1.0)) == 0.0
    with pytest.raises(ValueError):
        ae.psr_cs_single(erasure_cfg(G=0.0))


def test_small_eps1_falls_back_to_series():
    # continuity across the closed-form/series dispatch threshold
    lo = ae.throughput_cs_single(erasure_cfg(L=3, G=2.0, e1=9e-7))
    hi = ae.throughput_cs_single(erasure_cfg(L=3, G=2.0, e1=2e-6))
    assert lo == pytest.approx(hi, rel=1e-3)
    assert ae.psr_cs_single(erasure_cfg(L=3, G=2.0, e1=0.0)) > 0.0


# ---------------------------------------------------------------------------
# NCS metrics, ideal tolerance
# ---------------------------------------------------------------------------


def test_ncs_reduces_to_single_service_without_cs_traffic():
    # no CS interference: NCS formulas equal the single-service ones with
    # the loads swapped
    cfg = erasure_cfg(L=3, G=2.0, gamma_c=0.0, e1=0.4, e2=0.6)
    swapped = erasure_cfg(L=3, G=2.0, gamma_c=1.0, e1=0.4, e2=0.6)
    assert ae.throughput_ncs_ideal_k(cfg) == pytest.approx(
        ae.throughput_cs_single(swapped), rel=1e-10
    )
    assert ae.psr_ncs_ideal_k(cfg) == pytest.approx(
        ae.psr_cs_single(swapped), rel=1e-10
    )


def test_ncs_ideal_trivial_zeros():
    assert ae.throughput_ncs_ideal_k(erasure_cfg(gamma_c=0.5, e1=1.0)) == 0.0
    assert ae.psr_ncs_ideal_k(erasure_cfg(gamma_c=0.5, e2=1.0)) == 0.0


def test_psr_ncs_ideal_single_user_limit():
    cfg = erasure_cfg(L=1, G=2e-9, gamma_c=0.5)
    assert ae.psr_ncs_ideal_k(cfg) == pytest.approx(0.25, abs=1e-6)
    with pytest.raises(ValueError):
        ae.psr_ncs_ideal_k(erasure_cfg(gamma_c=1.0))


# ---------------------------------------------------------------------------
# Finite tolerance
# ---------------------------------------------------------------------------


def test_finite_k_requires_finite_k():
    for fn in (
        ae.throughput_ncs_finite_k,
        ae.psr_ncs_finite_k,
        ae.throughput_cs_finite_k,
        ae.psr_cs_finite_k,
    ):
        with pytest.raises(ValueError):
            fn(erasure_cfg(gamma_c=0.5, K=INFINITE_K))


def test_finite_k_saturates_to_ideal():
    cfg = erasure_cfg(L=3, G=4.0, gamma_c=0.5, K=60)
    assert ae.throughput_ncs_finite_k(cfg) == pytest.approx(
        ae.throughput_ncs_ideal_k(cfg), rel=1e-8
    )
    assert ae.psr_ncs_finite_k(cfg) == pytest.approx(
        ae.psr_ncs_ideal_k(cfg), rel=1e-8
    )
    assert ae.throughput_cs_finite_k(cfg) == pytest.approx(
        ae.throughput_cs_single(cfg), rel=1e-9
    )
    assert ae.psr_cs_finite_k(cfg) == pytest.approx(ae.psr_cs_single(cfg), rel=1e-8)


def test_cs_metrics_nondecreasing_in_k():
    base = erasure_cfg(L=3, G=4.0, gamma_c=0.5)
    tputs, psrs = [], []
    for k in (0, 1, 2, 3, 5, 8, 15, 40):
        cfg = base.replace(K=k)
        tputs.append(ae.throughput_cs_finite_k(cfg))
        psrs.append(ae.psr_cs_finite_k(cfg))
    assert all(b >= a - 1e-12 for a, b in zip(tputs, tputs[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(psrs, psrs[1:]))
    assert tputs[-1] <= ae.throughput_cs_single(base) + 1e-12
    assert psrs[-1] <= ae.psr_cs_single(base) + 1e-12


def test_cs_throughput_finite_k_branches_agree_at_boundary():
    # L = K + 1: the trinomial series collapses to the closed binomial form
    cfg = erasure_cfg(L=3, T=2, G=8.0, gamma_c=0.5, K=2)
    e = cfg.erasure
    closed = ae._cs_throughput_k_closed(
        cfg.L, e.eps1, e.eps2, cfg.cs_slot_load, cfg.ncs_slot_load, 2
    )
    series = ae.throughput_cs_finite_k(cfg)
    assert closed == pytest.approx(series, rel=1e-8)
    with pytest.raises(ValueError):
        ae._cs_throughput_k_closed(4, 0.5, 0.5, 2.0, 2.0, 2)  # L > K + 1


def test_finite_k_trivial_cases():
    assert ae.throughput_ncs_finite_k(erasure_cfg(gamma_c=1.0, K=2)) == 0.0
    assert ae.throughput_cs_finite_k(erasure_cfg(gamma_c=0.0, K=2)) == 0.0
    assert ae.psr_ncs_finite_k(erasure_cfg(gamma_c=0.5, e1=1.0, K=2)) == 0.0
    assert ae.psr_cs_finite_k(erasure_cfg(gamma_c=0.5, e2=1.0, K=2)) == 0.0


def test_psr_finite_k_single_user_limits():
    cfg = erasure_cfg(L=1, G=2e-9, gamma_c=0.5, K=0)
    assert ae.psr_cs_finite_k(cfg) == pytest.approx(0.25, abs=1e-6)
    assert ae.psr_ncs_finite_k(cfg) == pytest.approx(0.25, abs=1e-6)


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
        assert ae.benchmark_bound(cfg) >= ae.throughput_cs_single(cfg) - 1e-12


# ---------------------------------------------------------------------------
# Asymptotics in the number of APs
# ---------------------------------------------------------------------------


def test_large_l_throughput_and_psr_vanish():
    base = dict(G=2.0, e1=0.5, e2=0.5)
    scan_tput = [ae.throughput_cs_single(erasure_cfg(L=L, **base)) for L in range(1, 51)]
    scan_psr = [ae.psr_cs_single(erasure_cfg(L=L, **base)) for L in range(1, 51)]
    big = erasure_cfg(L=200, **base)
    assert ae.throughput_cs_single(big) < 1e-2
    assert ae.psr_cs_single(big) < 1e-2
    assert ae.throughput_cs_single(big) < max(scan_tput)
    assert ae.psr_cs_single(big) < max(scan_psr)


# ---------------------------------------------------------------------------
# Scenario evaluation
# ---------------------------------------------------------------------------


def test_evaluate_erasure_dispatch():
    m = ae.evaluate_erasure(erasure_cfg(gamma_c=1.0))
    assert m.R_cbar == 0.0 and m.Gamma_cbar == 0.0
    assert m.R_c == pytest.approx(ae.throughput_cs_single(erasure_cfg(gamma_c=1.0)))
    with pytest.raises(ValueError):
        ae.evaluate_erasure(erasure_cfg(receiver=Receiver.SUPERPOSITION))
    z = ae.evaluate_erasure(erasure_cfg(G=0.0, gamma_c=0.5))
    assert z == ae.evaluate_erasure(erasure_cfg(G=0.0, gamma_c=0.5))
    assert (z.R_c, z.R_cbar, z.Gamma_c, z.Gamma_cbar) == (0.0, 0.0, 0.0, 0.0)


def test_evaluate_erasure_finite_k_uses_finite_forms():
    cfg = erasure_cfg(L=3, G=4.0, gamma_c=0.5, K=1)
    m = ae.evaluate_erasure(cfg)
    assert m.R_c == pytest.approx(ae.throughput_cs_finite_k(cfg))
    assert m.R_cbar == pytest.approx(ae.throughput_ncs_finite_k(cfg))
    assert m.Gamma_c == pytest.approx(ae.psr_cs_finite_k(cfg))
    assert m.Gamma_cbar == pytest.approx(ae.psr_ncs_finite_k(cfg))


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
    single = ae.throughput_cs_single(erasure_cfg(G=2.0))
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
    assert ae.throughput_cs_finite_k(tiny) < 1e-8
    assert ae.throughput_ncs_finite_k(tiny) < 1e-8
    assert ae.throughput_cs_single(tiny) < 1e-8
    assert ae.throughput_ncs_ideal_k(tiny) < 1e-8
