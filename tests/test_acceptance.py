"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines live).

Criterion 4's erasure-benefit clause is implemented verbatim and expected to
fail: at the stated load G=8 the effect provably does not exist (see the
companion test at the higher load where it does).
"""

import itertools
import math
import time

import numpy as np
import pytest

import closed_form_oracle as oracle
import erasure_oracles
import twohop_aloha.analytic_erasure as ae
import twohop_aloha.sim_erasure as se
import twohop_aloha.sim_fading as sf
import twohop_aloha.superposition as sp
from twohop_aloha import cli
from twohop_aloha.core import (
    INFINITE_K,
    ErasureParams,
    FadingParams,
    Receiver,
    ScenarioConfig,
    Tdma,
)

SEED = cli.DEFAULT_SEED


def report(label: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {label} {'PASS' if ok else 'FAIL'}"
          f"{': ' + detail if detail else ''}")


def ecfg(L, T, G, gamma_c, e1, e2, K=INFINITE_K, **kw):
    return ScenarioConfig(
        L=L, T=T, G=G, gamma_c=gamma_c, channel=ErasureParams(e1, e2), K=K, **kw
    )


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else abs(a - b)


# ---------------------------------------------------------------------------
# 1. Closed forms vs direct truncated series
# ---------------------------------------------------------------------------


def test_criterion_01_closed_forms_match_series():
    t0 = time.perf_counter()
    Ls, eps, loads, gammas, ks = (1, 2, 3, 5), (0.1, 0.5, 0.9), (0.25, 1.0, 2.0, 4.0), (0.1, 0.5, 0.9), (0, 1, 2, 5)
    worst, n_checks = 0.0, 0
    for L, e1, e2, g in itertools.product(Ls, eps, eps, loads):
        [series_tput], [series_psr] = ae.isolated_class_metrics(L, e1, e2, [g])
        worst = max(worst, rel_err(oracle.cs_throughput_closed(L, e1, e2, g), series_tput))
        worst = max(worst, rel_err(oracle.cs_psr_closed(L, e1, e2, g), series_psr))
        n_checks += 2
        for gamma in gammas:
            gc, gn = gamma * g, (1.0 - gamma) * g
            ncs_tput, ncs_psr = ae._ncs_ideal_k(L, e1, e2, gc, gn)
            worst = max(worst, rel_err(
                oracle.ncs_throughput_inf_closed(L, e1, e2, gc, gn), ncs_tput))
            worst = max(worst, rel_err(
                oracle.ncs_psr_inf_closed(L, e1, e2, gc, gn), ncs_psr))
            n_checks += 2
            grids = [((gc, gn), K) for K in ks]
            finite = ae._two_class_metrics(e1, grids, ae._collision_kernel(L, e1, e2))
            for K, (r_c, r_n, _, _) in zip(ks, finite):
                worst = max(worst, rel_err(
                    oracle.ncs_throughput_k_closed(L, e1, e2, gc, gn, K), r_n))
                n_checks += 1
                if L <= K + 1:
                    worst = max(worst, rel_err(
                        oracle.cs_throughput_k_closed(L, e1, e2, gc, gn, K), r_c))
                    n_checks += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0 and n_checks >= 400
    report("01 closed-vs-series", ok,
           f"{n_checks} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert n_checks >= 400
    assert worst <= 1e-8
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 2. Analytic-vs-simulation oracle (full default grid)
# ---------------------------------------------------------------------------


def test_criterion_02_validate_default_grid():
    t0 = time.perf_counter()
    rep = cli.validate(seed=SEED, target_se=0.002)
    elapsed = time.perf_counter() - t0
    max_se = max(c.std_error for c in rep.cells if not c.status.startswith("error"))
    ok = rep.passed and elapsed < 600.0 and max_se <= 0.002
    report("02 validate-oracle", ok,
           f"{len(rep.cells)} cells, max |z|={rep.max_abs_z:.2f}, "
           f"max SE={max_se:.4f}, {elapsed/60:.1f} min")
    assert rep.passed
    assert max_se <= 0.002
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 3. Frame-size trade-off (throughput unimodal, PSR monotone)
# ---------------------------------------------------------------------------


def test_criterion_03_frame_size_tradeoff():
    t0 = time.perf_counter()
    ts = range(1, 65)
    tput, psr = [], []
    for T in ts:
        m = ae.evaluate_erasure(ecfg(L=3, T=T, G=16.0, gamma_c=1.0, e1=0.5, e2=0.5))
        tput.append(m.R_c)
        psr.append(m.Gamma_c)
    elapsed = time.perf_counter() - t0
    psr_monotone = all(b >= a - 1e-12 for a, b in zip(psr, psr[1:]))
    m = int(np.argmax(tput))
    unimodal = (
        0 < m < len(tput) - 1
        and all(b > a for a, b in zip(tput[: m + 1], tput[1 : m + 1]))
        and all(b < a for a, b in zip(tput[m:], tput[m + 1 :]))
    )
    ok = psr_monotone and unimodal and elapsed < 1.0
    report("03 frame-size-tradeoff", ok,
           f"max at T={m + 1}, {elapsed*1000:.0f} ms")
    assert psr_monotone
    assert unimodal
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 4. Service-mix trade-off and the erasure-benefit clause
# ---------------------------------------------------------------------------

_GAMMA_GRID = [i / 100 for i in range(1, 100)]


def _ncs_curve(G, eps):
    cfgs = [ecfg(L=3, T=4, G=G, gamma_c=g, e1=eps, e2=eps) for g in _GAMMA_GRID]
    return [m.R_cbar for m in ae.evaluate_erasure_batch(cfgs)]


def test_criterion_04_ncs_throughput_decreasing():
    t0 = time.perf_counter()
    curves = {eps: _ncs_curve(8.0, eps) for eps in (0.4, 0.7)}
    elapsed = time.perf_counter() - t0
    monotone = all(
        all(b < a for a, b in zip(c, c[1:])) for c in curves.values()
    )
    ok = monotone and elapsed < 1.0
    report("04 service-mix-monotonicity", ok, f"{elapsed*1000:.0f} ms")
    assert monotone
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: at G=8 (per-slot load 2) the eps=0.4 NCS "
    "throughput dominates eps=0.7 at every gamma_c; the source text uses "
    "G=30 for this effect (see the companion test and the decisions ledger)",
)
def test_criterion_04_erasure_benefit_as_stated():
    v4, v7 = _ncs_curve(8.0, 0.4), _ncs_curve(8.0, 0.7)
    crossing = any(b > a for a, b in zip(v4, v7))
    report("04 erasure-benefit(G=8)", crossing,
           "no gamma_c with eps=0.7 NCS throughput above eps=0.4 at G=8")
    assert crossing


def test_criterion_04_erasure_benefit_companion_load():
    v4, v7 = _ncs_curve(30.0, 0.4), _ncs_curve(30.0, 0.7)
    crossing = any(b > a for a, b in zip(v4, v7))
    report("04 erasure-benefit(G=30 companion)", crossing)
    assert crossing


# ---------------------------------------------------------------------------
# 5. Throughput-region dominance and realization-level event inclusion
# ---------------------------------------------------------------------------


def _region_points(receiver, K, gammas):
    pts = []
    for g in gammas:
        cfg = ecfg(L=3, T=2, G=8.0, gamma_c=float(g), e1=0.5, e2=0.5, K=K,
                   receiver=receiver)
        if receiver == Receiver.COLLISION:
            m = ae.evaluate_erasure(cfg)
            pts.append((m.R_c, m.R_cbar))
        else:
            m = sp.evaluate_superposition(cfg)
            pts.append((m.R_c, m.R_cbar))
    return pts


def _contains(outer, inner, tol=1e-9):
    return all(
        any(o[0] >= i[0] - tol and o[1] >= i[1] - tol for o in outer) for i in inner
    )


def test_criterion_05_region_dominance_and_coupling():
    t0 = time.perf_counter()
    inner_grid = np.linspace(0.0, 1.0, 21)
    outer_grid = np.linspace(0.0, 1.0, 201)  # containment against the dense curve
    ok_parts = {}
    for K in (2, INFINITE_K):
        coll = _region_points(Receiver.COLLISION, K, inner_grid)
        sup = _region_points(Receiver.SUPERPOSITION, K, outer_grid)
        ok_parts[f"sup>coll(K={cli.fmt_value(K)})"] = _contains(sup, coll)
    for receiver in (Receiver.COLLISION, Receiver.SUPERPOSITION):
        inner = _region_points(receiver, 2, inner_grid)
        outer = _region_points(receiver, INFINITE_K, outer_grid)
        ok_parts[f"Kinf>K2({receiver})"] = _contains(outer, inner)
    violations = 0
    for K in (2, INFINITE_K):
        violations += erasure_oracles.coupled_compare(
            ecfg(L=3, T=2, G=8.0, gamma_c=0.5, e1=0.5, e2=0.5, K=K), 100_000, SEED
        )
    elapsed = time.perf_counter() - t0
    ok = all(ok_parts.values()) and violations == 0 and elapsed < 120.0
    report("05 region-dominance", ok,
           f"{ok_parts}, coupled violations={violations}, {elapsed:.0f}s")
    assert all(ok_parts.values()), ok_parts
    assert violations == 0
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6. Non-orthogonal vs TDMA across frame sizes
# ---------------------------------------------------------------------------


def test_criterion_06_scheme_comparison():
    t0 = time.perf_counter()
    frames = 60_000
    ok = True
    details = []
    for T in (2, 4, 8, 16):
        base = ecfg(L=3, T=T, G=15.0, gamma_c=0.5, e1=0.5, e2=0.5,
                    receiver=Receiver.SUPERPOSITION)
        no = se.simulate(base, frames, SEED)
        td = se.simulate(base.replace(allocation=Tdma(alpha=0.5)), frames, SEED)
        for metric, hi, lo in (
            ("R_c", no.R_c, td.R_c),
            ("Gamma_c", no.Gamma_c, td.Gamma_c),
            ("R_cbar", td.R_cbar, no.R_cbar),
            ("Gamma_cbar", td.Gamma_cbar, no.Gamma_cbar),
        ):
            slack = 3.0 * math.hypot(hi.std_error, lo.std_error)
            good = hi.mean >= lo.mean - slack
            ok = ok and good
            if not good:
                details.append(f"T={T} {metric}: {hi.mean:.4f} < {lo.mean:.4f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 180.0
    report("06 scheme-comparison", ok,
           f"T in (2,4,8,16), {elapsed:.0f}s" + ("; " + "; ".join(details) if details else ""))
    assert not details, details
    assert elapsed < 180.0


# ---------------------------------------------------------------------------
# 7. Tolerance saturation
# ---------------------------------------------------------------------------


def test_criterion_07_tolerance_saturation():
    t0 = time.perf_counter()
    worst = 0.0
    for L, e1, e2, gamma in ((3, 0.5, 0.5, 0.5), (2, 0.3, 0.7, 0.25), (5, 0.5, 0.1, 0.5)):
        cfg = ecfg(L=L, T=1, G=8.0, gamma_c=gamma, e1=e1, e2=e2, K=60)
        finite, ideal = ae.evaluate_erasure_batch([cfg, cfg.replace(K=INFINITE_K)])
        worst = max(worst, rel_err(finite.R_cbar, ideal.R_cbar))
        worst = max(worst, rel_err(finite.Gamma_cbar, ideal.Gamma_cbar))
        # the closed-form tolerance factor saturates to 1, so the finite-K CS
        # metrics equal the single-service forms
        worst = max(worst, rel_err(finite.R_c, ideal.R_c))
        worst = max(worst, rel_err(finite.Gamma_c, ideal.Gamma_c))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report("07 tolerance-saturation", ok, f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 8. Vanishing metrics for many APs
# ---------------------------------------------------------------------------


def test_criterion_08_many_ap_asymptotics():
    t0 = time.perf_counter()
    base = dict(T=1, G=2.0, gamma_c=1.0, e1=0.5, e2=0.5)
    scan = ae.evaluate_erasure_batch(ecfg(L=L, **base) for L in range(1, 51))
    scan_t, scan_p = [m.R_c for m in scan], [m.Gamma_c for m in scan]
    big = ae.evaluate_erasure(ecfg(L=200, **base))
    t200, p200 = big.R_c, big.Gamma_c
    elapsed = time.perf_counter() - t0
    ok = t200 < 1e-2 and p200 < 1e-2 and t200 < max(scan_t) and p200 < max(scan_p)
    ok = ok and elapsed < 5.0
    report("08 many-ap-asymptotics", ok,
           f"R(200)={t200:.2e}, PSR(200)={p200:.2e}, {elapsed:.1f}s")
    assert t200 < 1e-2 and p200 < 1e-2
    assert t200 < max(scan_t) and p200 < max(scan_p)
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 9. Fading decode-probability oracles
# ---------------------------------------------------------------------------


def test_criterion_09_fading_oracles():
    t0 = time.perf_counter()
    fp = FadingParams(alpha2=1.0, beta2=1.0, P_c=10.0, P_cbar=4.0,
                      P_c_ap=10.0, P_cbar_ap=4.0, r_c=1.0, r_cbar=1.0)
    n = 1_000_000
    rng = np.random.default_rng(SEED)

    def gains(shape, var):
        return math.sqrt(var / 2.0) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )

    checks = []
    p = float((sf.ap_decode(gains((n, 1, 1), fp.alpha2), 1, fp)[:, 0] == 1).mean())
    exp_p = math.exp(-1.0 / (fp.alpha2 * fp.P_c))
    checks.append(("ap-single", p, exp_p))
    p = float((sf.bs_decode(np.array([1]), gains((n, 1), fp.beta2), 1, fp) == 1).mean())
    exp_p = math.exp(-1.0 / (fp.beta2 * fp.P_c_ap))
    checks.append(("bs-one-copy", p, exp_p))
    p = float((sf.bs_decode(np.array([1, 1]), gains((n, 2), fp.beta2), 1, fp) == 1).mean())
    exp_p = math.exp(-1.0 / (2.0 * fp.beta2 * fp.P_c_ap))
    checks.append(("bs-two-copies", p, exp_p))
    elapsed = time.perf_counter() - t0

    zs = {
        name: (est - truth) / math.sqrt(truth * (1 - truth) / n)
        for name, est, truth in checks
    }
    ok = all(abs(z) <= 3.0 for z in zs.values()) and elapsed < 60.0
    report("09 fading-oracles", ok,
           ", ".join(f"{k} z={v:+.2f}" for k, v in zs.items()) + f", {elapsed:.0f}s")
    assert all(abs(z) <= 3.0 for z in zs.values()), zs
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 10. Fading channel-strength and AP-count trends
# ---------------------------------------------------------------------------


def test_criterion_10_fading_trends():
    t0 = time.perf_counter()
    slots = 40_000
    ok = True
    details = []
    for gamma in (0.2, 0.5, 0.8):
        res = {}
        for a2 in (0.5, 1.5):
            cfg = ScenarioConfig(
                L=3, T=4, G=20.0, gamma_c=gamma,
                channel=FadingParams(alpha2=a2, beta2=a2, P_c=10.0, P_cbar=4.0,
                                     P_c_ap=10.0, P_cbar_ap=4.0),
            )
            res[a2] = sf.estimate_fading_metrics(cfg, slots, SEED)
        for met in ("R_c", "R_cbar"):
            hi, lo = getattr(res[1.5], met), getattr(res[0.5], met)
            slack = 3.0 * math.hypot(hi.std_error, lo.std_error)
            good = hi.mean >= lo.mean - slack
            ok = ok and good
            if not good:
                details.append(f"gamma={gamma} {met}")
    res_l = {}
    for L in (1, 4):
        cfg = ScenarioConfig(
            L=L, T=4, G=10.0, gamma_c=0.5,
            channel=FadingParams(alpha2=1.5, beta2=0.3, P_c=10.0, P_cbar=9.0,
                                 P_c_ap=10.0, P_cbar_ap=9.0),
        )
        res_l[L] = sf.estimate_fading_metrics(cfg, slots, SEED)
    gap = res_l[4].R_c.mean - res_l[1].R_c.mean
    slack = 3.0 * math.hypot(res_l[4].R_c.std_error, res_l[1].R_c.std_error)
    l_trend = gap > slack  # strictly larger at 3 sigma
    ok = ok and l_trend
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report("10 fading-trends", ok,
           f"L-trend gap={gap:.4f} (3sigma={slack:.4f}), {elapsed:.0f}s"
           + ("; " + "; ".join(details) if details else ""))
    assert not details, details
    assert l_trend
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 11. Uplink benchmark exactness
# ---------------------------------------------------------------------------


def test_criterion_11_benchmark_bound():
    t0 = time.perf_counter()
    cfg = ecfg(L=3, T=1, G=2.0, gamma_c=1.0, e1=0.5, e2=0.5)
    bound = ae.benchmark_bound(cfg)
    est = erasure_oracles.simulate_uplink_decode(cfg, 300_000, SEED)
    z = (est.mean - bound) / est.std_error
    elapsed = time.perf_counter() - t0
    ok = bound >= est.mean - 3.0 * est.std_error and abs(z) <= 3.0 and elapsed < 60.0
    report("11 benchmark-bound", ok,
           f"bound={bound:.5f}, sim={est.mean:.5f}, z={z:+.2f}, {elapsed:.0f}s")
    assert bound >= est.mean - 3.0 * est.std_error
    assert abs(z) <= 3.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 12. Seeded determinism, including worker counts
# ---------------------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    base = ecfg(L=3, T=2, G=6.0, gamma_c=0.5, e1=0.5, e2=0.5, K=1)
    for name, workers in (("a.csv", 1), ("b.csv", 3)):
        backend = cli.SimBackend(frames=20_000, seed=SEED, workers=workers)
        rows = cli.run_sweep(base, "gamma_c", (0.3, 0.6), backend)
        cli.write_csv(str(tmp_path / name), ["gamma_c"], rows)
    same_csv = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    fcfg = ScenarioConfig(L=2, T=2, G=4.0, gamma_c=0.5,
                          channel=FadingParams(alpha2=1.0, beta2=1.0))
    same_fading = (
        sf.estimate_fading_metrics(fcfg, 20_000, SEED)
        == sf.estimate_fading_metrics(fcfg, 20_000, SEED, workers=2)
    )
    elapsed = time.perf_counter() - t0
    ok = same_csv and same_fading and elapsed < 60.0
    report("12 determinism", ok, f"{elapsed:.0f}s")
    assert same_csv
    assert same_fading
    assert elapsed < 60.0
