import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import erasure_oracles as oracles
import twohop_aloha.analytic_erasure as ae
import twohop_aloha.sim_erasure as se
from twohop_aloha import core
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


def z_gap(estimate, value):
    return (estimate.mean - value) / max(estimate.std_error, 1e-12)


def test_all_erased_gives_exact_zeros():
    m = se.simulate(erasure_cfg(e1=1.0, gamma_c=0.5), 2000, seed=1)
    assert m.R_c.mean == 0.0 and m.R_cbar.mean == 0.0
    assert m.Gamma_c.mean == 0.0 and m.Gamma_cbar.mean == 0.0


def test_lone_packet_on_perfect_channels_always_succeeds():
    cfg = erasure_cfg(L=1, T=1, G=1e-4, gamma_c=1.0, e1=0.0, e2=0.0)
    m = se.simulate(cfg, 300_000, seed=2)
    assert m.Gamma_c.n_samples > 0
    assert m.Gamma_c.mean == 1.0  # no interference is even possible


def test_requires_positive_frame_budget():
    with pytest.raises(ValueError):
        se.simulate(erasure_cfg(), 0, seed=1)


@pytest.mark.parametrize("allocation", [Tdma(alpha=0.0), Tdma(alpha=1.0), Tdma(alpha=0.5)])
def test_simulate_is_simulate_multi_k_at_the_scenario_k(allocation):
    cfg = erasure_cfg(T=4, G=3.0, gamma_c=0.5, K=1, allocation=allocation)
    assert se.simulate(cfg, 3_000, seed=4) == se.simulate_multi_k(cfg, (0, 1), 3_000, seed=4)[1]


def test_determinism_bit_identical_and_worker_independent():
    cfg = erasure_cfg(T=2, G=4.0, gamma_c=0.5, K=1)
    a = se.simulate(cfg, 50_000, seed=9)
    b = se.simulate(cfg, 50_000, seed=9)
    c = se.simulate(cfg, 50_000, seed=9, workers=3)
    assert a == b == c
    d = se.simulate(cfg, 50_000, seed=10)
    assert d != a


def test_throughputs_sum_below_one_packet_per_slot():
    m = se.simulate(erasure_cfg(G=8.0, gamma_c=0.5, e1=0.1, e2=0.1), 30_000, seed=3)
    assert m.R_c.mean + m.R_cbar.mean <= 1.0


def test_matches_analytic_single_service():
    # throughput is T-independent; the tagged PSR conditioning matches the
    # analytic normalized-Poisson form at T = 1
    cfg = erasure_cfg(L=3, T=1, G=2.0)
    m = se.simulate(cfg, 200_000, seed=4)
    an = ae.evaluate_erasure(cfg)
    assert abs(z_gap(m.R_c, an.R_c)) < 4.0
    assert abs(z_gap(m.Gamma_c, an.Gamma_c)) < 4.0


def test_matches_analytic_finite_k_quadruple():
    cfg = erasure_cfg(L=3, T=1, G=4.0, gamma_c=0.5, K=1)
    m = se.simulate(cfg, 250_000, seed=5)
    an = ae.evaluate_erasure(cfg)
    assert abs(z_gap(m.R_c, an.R_c)) < 4.0
    assert abs(z_gap(m.R_cbar, an.R_cbar)) < 4.0
    assert abs(z_gap(m.Gamma_c, an.Gamma_c)) < 4.0
    assert abs(z_gap(m.Gamma_cbar, an.Gamma_cbar)) < 4.0


def test_throughput_unaffected_by_frame_size():
    # same per-slot loads, different T: throughputs agree within MC error,
    # and the frame-structured run matches the closed form directly
    m1 = se.simulate(erasure_cfg(T=1, G=2.0), 120_000, seed=6)
    cfg8 = erasure_cfg(T=8, G=16.0)
    m8 = se.simulate(cfg8, 15_000, seed=7)
    gap = m1.R_c.mean - m8.R_c.mean
    sigma = math.hypot(m1.R_c.std_error, m8.R_c.std_error)
    assert abs(gap) < 4.0 * sigma
    assert abs(z_gap(m8.R_c, ae.evaluate_erasure(cfg8).R_c)) < 4.0


def test_matches_analytic_heterogeneous_throughputs_at_frame_level():
    # mixed-traffic configs with frame structure: NCS throughput under ideal
    # and finite tolerance against the closed/series forms
    cfg_inf = erasure_cfg(L=3, T=4, G=8.0, gamma_c=0.5, e1=0.4, e2=0.4)
    m = se.simulate(cfg_inf, 60_000, seed=19)
    assert abs(z_gap(m.R_cbar, ae.evaluate_erasure(cfg_inf).R_cbar)) < 4.0
    cfg_k = erasure_cfg(L=3, T=2, G=8.0, gamma_c=0.5, K=2)
    m2 = se.simulate(cfg_k, 100_000, seed=20)
    an = ae.evaluate_erasure(cfg_k)
    assert abs(z_gap(m2.R_cbar, an.R_cbar)) < 4.0
    assert abs(z_gap(m2.R_c, an.R_c)) < 4.0


def test_multi_k_shares_realization():
    cfg = erasure_cfg(T=1, G=4.0, gamma_c=0.5, K=1)
    multi = se.simulate_multi_k(cfg, [0, 1, INFINITE_K], 40_000, seed=8)
    single = se.simulate(cfg, 40_000, seed=8)
    assert multi[1] == single
    # CS decodes can only grow with K on a fixed realization
    assert multi[0].R_c.mean <= multi[1].R_c.mean <= multi[INFINITE_K].R_c.mean


def test_coupled_compare_no_violations():
    assert oracles.coupled_compare(erasure_cfg(T=2, G=4.0, gamma_c=0.5, K=2), 30_000, seed=11) == 0
    assert oracles.coupled_compare(erasure_cfg(e2=1.0, gamma_c=0.5), 5_000, seed=11) == 0
    assert oracles.coupled_compare(erasure_cfg(L=1, gamma_c=0.5, K=0), 30_000, seed=12) == 0


def test_coupled_decodes_nest_on_one_realization():
    # a coupled count of 0 also holds for a chunk that decodes nothing, so
    # check the decodes themselves on one realization
    cfg = erasure_cfg(T=2, G=4.0, gamma_c=0.5, e1=0.3, e2=0.6, K=2)
    frames = se._draw_frames(cfg, 2_000, np.random.default_rng(5))
    coll = oracles._decode(frames, Receiver.COLLISION, 2)
    sup = oracles._decode(frames, Receiver.SUPERPOSITION, 2)
    for c_ok, c_id, s_ok, s_id in ((*coll[:2], *sup[:2]), (*coll[2:], *sup[2:])):
        assert not np.any(c_ok & ~s_ok)
        assert np.array_equal(c_id[c_ok], s_id[c_ok])
        assert s_ok.sum() > c_ok.sum() > 0


def test_l1_receivers_coincide():
    cfg = erasure_cfg(L=1, T=1, G=3.0, gamma_c=0.5, K=1)
    coll = se.simulate(cfg, 50_000, seed=13)
    sup = se.simulate(cfg.replace(receiver=Receiver.SUPERPOSITION), 50_000, seed=13)
    assert coll.R_c == sup.R_c and coll.R_cbar == sup.R_cbar
    assert coll.Gamma_c == sup.Gamma_c and coll.Gamma_cbar == sup.Gamma_cbar


def test_tdma_alpha_one_matches_single_service():
    td = se.simulate(
        erasure_cfg(T=4, G=8.0, gamma_c=1.0, allocation=Tdma(alpha=1.0)), 40_000, seed=14
    )
    no = se.simulate(erasure_cfg(T=4, G=8.0, gamma_c=1.0), 40_000, seed=14)
    assert td.R_c == no.R_c  # identical realization and dynamics
    assert td.Gamma_c == no.Gamma_c


def test_tdma_matches_analytic_throughput():
    cfg = erasure_cfg(T=4, G=8.0, gamma_c=0.5, allocation=Tdma(alpha=0.5))
    m = se.simulate(cfg, 120_000, seed=15)
    an = ae.evaluate_erasure(cfg)
    assert abs(z_gap(m.R_c, an.R_c)) < 4.0
    assert abs(z_gap(m.R_cbar, an.R_cbar)) < 4.0


def test_tdma_zero_slot_class_flagged():
    for alpha, cls in ((0.05, "cs"), (1.0, "ncs")):
        cfg = erasure_cfg(T=4, G=8.0, gamma_c=0.5, allocation=Tdma(alpha=alpha))
        m = se.simulate(cfg, 2_000, seed=16)
        assert f"{cls}-class-has-zero-slots" in m.flags
        r, psr = (m.R_c, m.Gamma_c) if cls == "cs" else (m.R_cbar, m.Gamma_cbar)
        assert r.mean == 0.0 and psr.mean == 0.0
        assert psr.n_samples > 0  # active devices are still scored (as failures)


def test_tagged_psr_consistent_with_all_device_average():
    cfg = erasure_cfg(L=2, T=2, G=3.0, gamma_c=0.5, K=1)
    m = se.simulate(cfg, 150_000, seed=17)
    cs_all, ncs_all = oracles.simulate_per_device_psr(cfg, 150_000, seed=17)
    for tagged, alldev in ((m.Gamma_c, cs_all), (m.Gamma_cbar, ncs_all)):
        sigma = math.hypot(tagged.std_error, alldev.std_error)
        assert abs(tagged.mean - alldev.mean) < 4.0 * sigma


def test_uplink_decode_probability_matches_benchmark():
    cfg = erasure_cfg(L=3, T=1, G=2.0)
    est = oracles.simulate_uplink_decode(cfg, 200_000, seed=18)
    assert abs(z_gap(est, ae.benchmark_bound(cfg))) < 4.0


# ---------------------------------------------------------------------------
# Decode rules of the engine on fixed single-cell realizations
# ---------------------------------------------------------------------------


def _outcome(cs_ok, cs_id, ncs_ok, ncs_id):
    """('cs'|'ncs', packet index) of a decode, or None."""
    assert not (cs_ok and ncs_ok)
    if cs_ok:
        return ("cs", int(cs_id) - 1)
    if ncs_ok:
        return ("ncs", int(ncs_id) - 1)
    return None


def _decode_cell(cs, ncs, bh, K, receiver=Receiver.COLLISION):
    """Per-AP and BS outcomes of the engine's decoders on one cell.

    ``cs`` and ``ncs`` hold one row per packet and one column per AP (1 =
    the copy survived the access erasure); ``bh`` the per-AP backhaul
    outcomes.  Packet i of a class carries the engine identity i + 1.
    """
    L = len(bh)

    def class_counts(rows):
        arrivals = np.array(rows, dtype=bool).reshape(len(rows), L)
        per_ap = [np.flatnonzero(a).astype(np.int32) for a in arrivals.T]
        counts, ids = se._class_counts(1, np.zeros(len(rows), dtype=np.int32), per_ap)
        return SimpleNamespace(counts=counts, ids=ids)

    c, n = class_counts(cs), class_counts(ncs)
    cs_dec, ncs_dec = se._ap_decode(c.counts, n.counts)
    cs_dec &= n.counts <= K
    ap = [_outcome(cs_dec[l, 0], c.ids[l, 0], ncs_dec[l, 0], n.ids[l, 0]) for l in range(L)]
    backhaul = np.array([bh], dtype=bool).T  # (AP, cell)
    bs = oracles._decode((c, n, backhaul), receiver, K)
    return ap, _outcome(*(x[0] for x in bs))


def _bs(cs, ncs, bh, K, receiver):
    return _decode_cell(cs, ncs, bh, K, receiver)[1]


def test_ap_three_state_rule():
    # two APs; CS packet 0 arrives only at AP 0, both NCS packets at AP 1
    ap, _ = _decode_cell(cs=[[1, 0]], ncs=[[0, 1], [0, 1]], bh=[1, 1], K=INFINITE_K)
    assert ap == [("cs", 0), None]
    # a lone NCS arrival decodes only when no CS copy is present: two
    # collided CS arrivals decode nothing themselves yet still jam the NCS
    ap, _ = _decode_cell(cs=[[1, 0], [1, 0]], ncs=[[1, 1]], bh=[1, 1], K=INFINITE_K)
    assert ap == [None, ("ncs", 0)]
    # the K budget suppresses the CS decode, and never helps NCS
    slot3 = dict(cs=[[1, 1]], ncs=[[1, 0], [1, 0]], bh=[1, 1])
    assert _decode_cell(**slot3, K=INFINITE_K)[0] == [("cs", 0), ("cs", 0)]
    assert _decode_cell(**slot3, K=1)[0] == [None, ("cs", 0)]


def test_bs_rules_on_fixed_realizations():
    coll, sup = Receiver.COLLISION, Receiver.SUPERPOSITION
    # both APs decode and forward the same CS packet
    dup = dict(cs=[[1, 1]], ncs=[], bh=[1, 1], K=INFINITE_K)
    assert _bs(**dup, receiver=coll) is None  # copies collide
    assert _bs(**dup, receiver=sup) == ("cs", 0)
    # one copy erased on the backhaul: both receivers decode
    one = dict(cs=[[1, 1]], ncs=[], bh=[1, 0], K=INFINITE_K)
    assert _bs(**one, receiver=coll) == ("cs", 0)
    assert _bs(**one, receiver=sup) == ("cs", 0)
    # CS delivery plus one NCS delivery: CS wins iff the budget allows it
    mixed = dict(cs=[[1, 0]], ncs=[[0, 1]], bh=[1, 1])
    assert _bs(**mixed, K=INFINITE_K, receiver=coll) == ("cs", 0)
    assert _bs(**mixed, K=0, receiver=coll) is None
    # an NCS delivery alone succeeds under both rules
    lone = dict(cs=[], ncs=[[0, 1]], bh=[1, 1], K=INFINITE_K)
    assert _bs(**lone, receiver=coll) == ("ncs", 0)
    assert _bs(**lone, receiver=sup) == ("ncs", 0)
    # distinct packets of one class, each delivered by its own AP, collide
    # under both rules
    for clash in (dict(cs=[[1, 0], [0, 1]], ncs=[]), dict(cs=[], ncs=[[1, 0], [0, 1]])):
        assert _bs(**clash, bh=[1, 1], K=INFINITE_K, receiver=coll) is None
        assert _bs(**clash, bh=[1, 1], K=INFINITE_K, receiver=sup) is None


# ---------------------------------------------------------------------------
# Occupied-cell decoding against the dense per-cell count and decode
# ---------------------------------------------------------------------------


def _dense_frames(cfg, F, rng):
    """Reference draws with one row per (frame, slot) cell, busy or not.

    Makes the engine's draws in the engine's order, from its own reading of
    the scenario's loads and slot split.  Returns, per class,
    ``(n_dev, counts, idsum, tag_cell, tag_id)``, then the backhaul mask.
    """
    L, T, e = cfg.L, cfg.T, cfg.erasure
    if isinstance(cfg.allocation, Tdma):
        cs_T = int(np.floor(cfg.allocation.alpha * T + 0.5))
        ncs_T = T - cs_T
    else:
        cs_T = ncs_T = T
    ncs_base = T - ncs_T if ncs_T > 0 else 0
    n_c = rng.poisson(cfg.gamma_c * cfg.G, F).astype(np.int64)
    n_n = rng.poisson((1.0 - cfg.gamma_c) * cfg.G, F).astype(np.int64)
    frame_c = np.repeat(np.arange(F, dtype=np.int64), n_c)
    frame_n = np.repeat(np.arange(F, dtype=np.int64), n_n)
    slot_c = rng.integers(0, cs_T, size=frame_c.size) if cs_T > 0 else np.zeros_like(frame_c)
    slot_n = rng.integers(0, ncs_T, size=frame_n.size) if ncs_T > 0 else np.zeros_like(frame_n)
    arr_c = rng.random((frame_c.size, L)) >= e.eps1
    arr_n = rng.random((frame_n.size, L)) >= e.eps1
    backhaul = rng.random((F * T, L)) >= e.eps2
    u_c, u_n = rng.random(F), rng.random(F)
    arr_c &= cs_T > 0
    arr_n &= ncs_T > 0

    def draws(n_dev, cell, arrivals, u):
        counts = np.zeros((F * T, L), dtype=np.int64)
        idsum = np.zeros((F * T, L), dtype=np.int64)
        for i, (c, arrived) in enumerate(zip(cell, arrivals)):
            counts[c] += arrived
            idsum[c] += arrived * (i + 1)
        pick = np.minimum((u * n_dev).astype(np.int64), np.maximum(n_dev - 1, 0))
        tag = np.where(n_dev >= 1, np.cumsum(n_dev) - n_dev + pick, 0)
        tag_cell = cell[tag] if cell.size else np.zeros(F, np.int64)
        return n_dev, counts, idsum, tag_cell, tag + 1

    cs = draws(n_c, frame_c * T + slot_c, arr_c, u_c)
    ncs = draws(n_n, frame_n * T + ncs_base + slot_n, arr_n, u_n)
    return cs, ncs, backhaul


def _dense_ap_decode(counts_c, counts_n, K):
    within_budget = True if K is INFINITE_K else counts_n <= K
    return (counts_c == 1) & within_budget, (counts_n == 1) & (counts_c == 0)


def _dense_bs_decode(receiver, K, del_c, idsum_c, del_n, idsum_n):
    """Per-cell BS decodes from (cell, AP) deliveries and identity sums."""
    big = np.int64(2**62)
    ndc = del_c.sum(axis=1)
    ndn = del_n.sum(axis=1)
    within_budget = True if K is INFINITE_K else ndn <= K
    if receiver == Receiver.COLLISION:
        cs_ok = (ndc == 1) & within_budget
        cs_id = np.where(cs_ok, (idsum_c * del_c).sum(axis=1), 0)
        ncs_ok = (ndn == 1) & (ndc == 0)
        ncs_id = np.where(ncs_ok, (idsum_n * del_n).sum(axis=1), 0)
        return cs_ok, cs_id, ncs_ok, ncs_id
    mx_c = np.max(np.where(del_c, idsum_c, 0), axis=1)
    mn_c = np.min(np.where(del_c, idsum_c, big), axis=1)
    cs_ok = (ndc >= 1) & (mx_c == mn_c) & within_budget
    cs_id = np.where(cs_ok, mx_c, 0)
    mx_n = np.max(np.where(del_n, idsum_n, 0), axis=1)
    mn_n = np.min(np.where(del_n, idsum_n, big), axis=1)
    ncs_ok = (ndn >= 1) & (mx_n == mn_n) & (ndc == 0)
    ncs_id = np.where(ncs_ok, mx_n, 0)
    return cs_ok, cs_id, ncs_ok, ncs_id


def _dense_chunk(job, F, rng):
    """Reference tallies: the chunk's draws decoded on every cell.

    The decoders reduce (cell, AP) arrays of counts and identity sums along
    the AP axis, a layout and an algorithm the engine does not share.
    """
    cfg, k_values = job
    cs, ncs, backhaul = _dense_frames(cfg, F, rng)
    out = {"cs_trials": int(np.sum(cs[0] >= 1)), "ncs_trials": int(np.sum(ncs[0] >= 1))}
    for ki, K in enumerate(k_values):
        cs_dec, ncs_dec = _dense_ap_decode(cs[1], ncs[1], K)
        cs_ok, cs_id, ncs_ok, ncs_id = _dense_bs_decode(
            cfg.receiver, K, cs_dec & backhaul, cs[2], ncs_dec & backhaul, ncs[2]
        )
        out[(ki, "cs_slots")] = int(cs_ok.sum())
        out[(ki, "ncs_slots")] = int(ncs_ok.sum())
        for name, (n_dev, _, _, tag_cell, tag_id), dec_id in (
            ("cs_tag_succ", cs, cs_id),
            ("ncs_tag_succ", ncs, ncs_id),
        ):
            out[(ki, name)] = int(np.sum((n_dev >= 1) & (dec_id[tag_cell] == tag_id)))
    return out


_VALIDATE_KS = (0, 1, 2, 5, INFINITE_K)

_DENSE_CASES = [
    *(
        dict(L=L, T=T, G=1.5 * T, gamma_c=0.4, receiver=r)
        for L in (1, 5)
        for T in (1, 4)
        for r in (Receiver.COLLISION, Receiver.SUPERPOSITION)
    ),
    dict(L=3, T=2, G=3.0, gamma_c=0.5, e1=1.0),  # no cell is occupied
    dict(L=3, T=2, G=3.0, gamma_c=0.0),
    dict(L=3, T=2, G=3.0, gamma_c=1.0, receiver=Receiver.SUPERPOSITION),
    dict(L=3, T=4, G=6.0, gamma_c=0.5, allocation=Tdma(alpha=0.0)),
    dict(L=3, T=4, G=6.0, gamma_c=0.5, allocation=Tdma(alpha=1.0)),
    dict(L=3, T=1, G=40.0, gamma_c=0.5, e1=0.1),  # every cell is occupied
    # long runs of idle frames, whose tags must score nothing
    dict(L=1, T=1, G=0.05, gamma_c=0.5, e1=0.0),
    # the validate regime: most cells hold no unerased arrival
    *(
        dict(L=5, T=1, G=0.25, gamma_c=0.1, e1=0.9, receiver=r, ks=_VALIDATE_KS)
        for r in (Receiver.COLLISION, Receiver.SUPERPOSITION)
    ),
    # the cells' and each class's uniforms span two blocks
    dict(L=3, T=8, G=12.0, gamma_c=0.5, receiver=Receiver.SUPERPOSITION, ks=_VALIDATE_KS),
]


@pytest.mark.parametrize("case", _DENSE_CASES)
def test_occupied_cell_chunk_matches_dense_decode(case):
    case = dict(case)
    ks = case.pop("ks", (0, 2, INFINITE_K))
    cfg = erasure_cfg(**{"e1": 0.5, "e2": 0.4, **case})
    F = 1500
    for seed in (31, 32):
        want = _dense_chunk((cfg, ks), F, np.random.default_rng(seed))
        got = se._run_chunk((cfg, ks), F, np.random.default_rng(seed))
        assert got == want and list(got) == list(want)
        assert all(type(v) is int for v in got.values())
    rows = se._draw_frames(cfg, F, np.random.default_rng(31))[2].shape[1]
    if case.get("e1") == 1.0:
        assert rows == 0 and want["cs_trials"] > 0
    elif case["G"] == 40.0:
        assert rows == F * cfg.T
    else:
        assert 0 < rows < F * cfg.T
        assert want[(2, "cs_tag_succ")] + want[(2, "ncs_tag_succ")] > 0
    if case["G"] == 12.0:
        cs, ncs, _ = _dense_frames(cfg, F, np.random.default_rng(31))
        assert min(F * cfg.T, cs[0].sum(), ncs[0].sum()) > se._UNIFORM_ROWS


def test_decode_runs_only_on_occupied_cells(monkeypatch):
    # validate regime: most cells hold no unerased arrival, and the
    # decode must not see them; the AP rule runs once per chunk, the BS
    # rule once for the NCS class and once per K for the CS class
    cfg = erasure_cfg(L=5, T=1, G=0.25, gamma_c=0.1, e1=0.9)
    ks = (0, 1, 2, 5)
    F = 20_000
    seen = {"ap": [], "bs": []}
    ap_decode, bs_class = se._ap_decode, se._bs_class

    def ap_counted(counts_c, counts_n):
        seen["ap"].append((counts_c.shape, counts_n.shape))
        return ap_decode(counts_c, counts_n)

    def bs_counted(receiver, dels, ids):
        seen["bs"].append((dels.shape, ids.shape))
        return bs_class(receiver, dels, ids)

    monkeypatch.setattr(se, "_ap_decode", ap_counted)
    monkeypatch.setattr(se, "_bs_class", bs_counted)
    se._run_chunk((cfg, ks), F, np.random.default_rng(33))
    cs, ncs, _ = _dense_frames(cfg, F, np.random.default_rng(33))
    occupied = int(np.count_nonzero(cs[1].any(axis=1) | ncs[1].any(axis=1)))
    assert 0 < occupied < F * cfg.T // 2
    shape = (cfg.L, occupied)
    assert seen["ap"] == [(shape, shape)]
    assert seen["bs"] == [(shape, shape)] * (1 + len(ks))


@pytest.mark.parametrize("L, T", list(itertools.product((1, 2, 3, 5, 8), (1, 3, 8))))
def test_compact_chunk_matches_the_flat_code_chunk(L, T):
    # every class mix and erasure pair, both receivers, under non-orthogonal
    # sharing and TDMA with zero-slot classes, K in {0, 1, 2, inf} on one
    # realization
    ks = (0, 1, 2, INFINITE_K)
    grid = itertools.product(
        ({}, *({"allocation": Tdma(alpha=a)} for a in (0.0, 0.3, 1.0))),
        (0.0, 0.4, 1.0),
        (0.0, 0.5, 1.0),
        (0.0, 0.5, 1.0),
        (Receiver.COLLISION, Receiver.SUPERPOSITION),
    )
    for seed, (allocation, gamma_c, e1, e2, receiver) in enumerate(grid):
        cfg = erasure_cfg(
            L=L, T=T, G=1.5 * T, gamma_c=gamma_c, e1=e1, e2=e2, receiver=receiver, **allocation
        )
        want = oracles.flat_code_chunk((cfg, ks), 64, np.random.default_rng(seed))
        got = se._run_chunk((cfg, ks), 64, np.random.default_rng(seed))
        assert got == want and list(got) == list(want)
        assert all(type(v) is int for v in got.values())


@pytest.mark.parametrize(
    "case, devices_span_blocks",
    [
        (dict(L=3, T=3, G=4.5, gamma_c=0.4), True),
        (dict(L=2, T=8, G=2.0, gamma_c=0.4, allocation=Tdma(alpha=0.3),
              receiver=Receiver.SUPERPOSITION), True),
        (dict(L=5, T=1, G=0.25, gamma_c=0.1, e1=0.9), False),  # the validate regime
    ],
)
def test_compact_chunk_matches_the_flat_code_chunk_over_several_blocks(case, devices_span_blocks):
    # the frames (tagging uniforms) and the cells (backhaul) span more than
    # one block, and so do each class's devices (access erasures) where said
    cfg = erasure_cfg(**{"e1": 0.5, "e2": 0.4, **case})
    ks = (0, 1, 2, INFINITE_K)
    F = 3 * se._UNIFORM_ROWS + 11
    want = oracles.flat_code_chunk((cfg, ks), F, np.random.default_rng(51))
    got = se._run_chunk((cfg, ks), F, np.random.default_rng(51))
    assert got == want and list(got) == list(want)
    assert got[(3, "cs_tag_succ")] > 0 and got[(3, "ncs_tag_succ")] > 0
    cs, ncs, _ = se._draw_frames(cfg, F, np.random.default_rng(51))
    devices = min(cs.row.size, ncs.row.size)
    assert (devices > se._UNIFORM_ROWS) == devices_span_blocks


@pytest.mark.parametrize("L", [1, 3])
def test_uniform_blocks_equal_one_draw(L):
    B = se._UNIFORM_ROWS
    for n in (0, 1, B - 1, B, B + 1, 3 * B + 7):
        one, blocked = np.random.default_rng(n), np.random.default_rng(n)
        want = one.random((n, L))
        starts, blocks = [], []
        for start, block in se._uniform_blocks(blocked, n, L):
            starts.append(start)
            blocks.append(block.copy())
        got = np.concatenate(blocks) if blocks else np.zeros((0, L))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert starts == list(range(0, n, B))
        assert blocked.bit_generator.state == one.bit_generator.state


def test_busy_uniforms_equal_one_draw_at_the_busy_frames():
    # the tagging uniforms are drawn in blocks and kept only where a frame
    # is busy, with the values and the end state of one rng.random(F)
    B = se._UNIFORM_ROWS
    for F in (1, B - 1, B, B + 1, 3 * B + 7):
        for busy in (
            np.zeros(0, dtype=np.int64),  # no busy frame
            np.arange(F),  # every frame busy
            np.flatnonzero(np.random.default_rng(F).random(F) < 0.3),
            np.array([0, F - 1]),
        ):
            one, blocked = np.random.default_rng(F), np.random.default_rng(F)
            want = one.random(F)[busy]
            got = se._busy_uniforms(blocked, F, busy)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            assert blocked.bit_generator.state == one.bit_generator.state


def test_one_slot_draw_consumes_no_randomness():
    # a class with one slot draws no slot choice: numpy's integers(0, 1)
    # returns zeros without advancing the generator, so skipping it keeps
    # every stream (the dense reference above still makes the call)
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    assert not rng.integers(0, 1, size=1000).any()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize(
    "T, G, flat_code_peak",
    [(8, 16.0, 86.6e6), (1, 2e5, 68.4e6)],
)
def test_erasure_chunk_memory_stays_below_the_flat_code_chunk(T, G, flat_code_peak):
    # One chunk at the benchmark's points scenario (83,333 frames) and one at
    # a high load (9 frames of about 2e5 devices), both at L = 3.  With int64
    # dev * L + ap arrival codes, an (AP * rows) bin array and F-long counts
    # and tagging uniforms, the chunk peaked at 86.6 MB and 68.4 MB under
    # tracemalloc (Python 3.11, numpy 2.4), 12.7 B per expected draw at the
    # high load.  Int32 indices, per-AP device lists and busy-frame counts
    # and tags peaked at 53.4 MB and 27.0 MB, 5.0 B per expected draw.  The
    # benchmark's frame budget is a whole number of the points chunk.
    cfg = erasure_cfg(L=3, T=T, G=G, gamma_c=0.5, e1=0.5, e2=0.5, K=2)
    assert se._chunk_frames(cfg) == {8: 83_333, 1: 9}[T]
    tracemalloc.start()
    try:
        se._run_chunk((cfg, (2,)), se._chunk_frames(cfg), np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < flat_code_peak


def test_a_chunk_at_a_high_load_stays_within_the_draw_budget():
    # G = 1e6 needs about 3e6 draws a frame; a floor of 256 frames a chunk
    # made it 7.7e8 draws (about 9.7 GB at 12.6 B a draw)
    cfg = erasure_cfg(L=3, T=1, G=1e6, gamma_c=0.5, e1=0.5, e2=0.5, K=2)
    per_frame = cfg.G * cfg.L + cfg.T * cfg.L
    assert se._chunk_frames(cfg) == 1
    assert se._chunk_frames(cfg) * per_frame <= core.CHUNK_DRAWS


def test_a_frame_over_the_draw_bound_is_refused_before_any_draw(monkeypatch):
    def never(*args):
        raise AssertionError("a frame was drawn")

    monkeypatch.setattr(se, "_draw_frames", never)
    cfg = erasure_cfg(L=3, T=1, G=1e9, gamma_c=0.5, e1=0.5, e2=0.5, K=2)
    with pytest.raises(ValueError, match="expected draws"):
        se.simulate_multi_k(cfg, (0, 2), 1, seed=1)
