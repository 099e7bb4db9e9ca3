import math
import tracemalloc

import numpy as np
import pytest

import twohop_aloha.sim_fading as sf
from twohop_aloha.core import FadingParams, ScenarioConfig, Tdma


def fading_cfg(L=3, T=4, G=20.0, gamma_c=0.5, allocation=None, **fp):
    params = dict(alpha2=1.0, beta2=1.0, P_c=10.0, P_cbar=4.0, P_c_ap=10.0,
                  P_cbar_ap=4.0, r_c=1.0, r_cbar=1.0)
    params.update(fp)
    kw = {"allocation": allocation} if allocation is not None else {}
    return ScenarioConfig(L=L, T=T, G=G, gamma_c=gamma_c, channel=FadingParams(**params), **kw)


def rayleigh_gain(rng, shape, variance):
    scale = math.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# AP decoding
# ---------------------------------------------------------------------------


def test_ap_decode_no_messages():
    fp = fading_cfg().fading
    out = sf.ap_decode(np.zeros((3, 0)), n_c=0, fading=fp)
    assert out.tolist() == [0, 0, 0]


def test_ap_decode_zero_power_never_decodes():
    fp = FadingParams(alpha2=1.0, beta2=1.0, P_c=0.0, P_cbar=0.0)
    rng = np.random.default_rng(1)
    h = rayleigh_gain(rng, (500, 2, 3), 1.0)
    assert np.all(sf.ap_decode(h, n_c=1, fading=fp) == 0)


def test_ap_decode_single_cs_matches_rayleigh_tail():
    # P(|h|^2 P >= 2**r - 1) = exp(-(2**r - 1) / (alpha2 P))
    fp = fading_cfg().fading
    rng = np.random.default_rng(2)
    n = 200_000
    h = rayleigh_gain(rng, (n, 1, 1), fp.alpha2)
    dec = sf.ap_decode(h, n_c=1, fading=fp)
    p = float((dec[:, 0] == 1).mean())
    expected = math.exp(-1.0 / (fp.alpha2 * fp.P_c))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p - expected) < 4.0 * sigma


def test_ap_decode_rate_threshold_uses_class_rate():
    # an NCS-class message must clear 2**r_cbar - 1 instead of the CS rate
    fp = FadingParams(alpha2=1.0, beta2=1.0, P_c=10.0, P_cbar=10.0, r_c=1.0, r_cbar=3.0)
    rng = np.random.default_rng(3)
    n = 100_000
    h = rayleigh_gain(rng, (n, 1, 1), fp.alpha2)
    p_ncs = float((sf.ap_decode(h, n_c=0, fading=fp)[:, 0] == 1).mean())
    expected = math.exp(-(2.0**3 - 1.0) / (fp.alpha2 * fp.P_cbar))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p_ncs - expected) < 4.0 * sigma


def test_ap_decode_monotone_in_power():
    # raising P_c cannot hurt the single-CS no-interferer decode probability;
    # oracle comparison on the closed form plus a sampled check
    thr = 1.0
    probs = [math.exp(-thr / (1.0 * p)) for p in (2.0, 5.0, 10.0, 20.0)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    rng = np.random.default_rng(4)
    h = rayleigh_gain(rng, (100_000, 1, 1), 1.0)
    lo = (sf.ap_decode(h, 1, FadingParams(1.0, 1.0, P_c=2.0, P_cbar=1.0))[:, 0] == 1).mean()
    hi = (sf.ap_decode(h, 1, FadingParams(1.0, 1.0, P_c=20.0, P_cbar=1.0))[:, 0] == 1).mean()
    assert hi > lo


# ---------------------------------------------------------------------------
# BS decoding
# ---------------------------------------------------------------------------


def test_bs_decode_nothing_decoded():
    fp = fading_cfg().fading
    out = sf.bs_decode(np.array([0, 0, 0]), np.zeros((5, 3), dtype=complex), 1, fp)
    assert np.all(out == 0)


def test_bs_decode_single_copy_matches_rayleigh_tail():
    fp = fading_cfg().fading
    rng = np.random.default_rng(5)
    n = 200_000
    g = rayleigh_gain(rng, (n, 1), fp.beta2)
    win = sf.bs_decode(np.array([1]), g, n_c=1, fading=fp)
    p = float((win == 1).mean())
    expected = math.exp(-1.0 / (fp.beta2 * fp.P_c_ap))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p - expected) < 4.0 * sigma


def test_bs_decode_two_copies_combine_coherently():
    # |g1 + g2|^2 is exponential with mean 2 beta2
    fp = fading_cfg().fading
    rng = np.random.default_rng(6)
    n = 200_000
    g = rayleigh_gain(rng, (n, 2), fp.beta2)
    win = sf.bs_decode(np.array([1, 1]), g, n_c=1, fading=fp)
    p = float((win == 1).mean())
    expected = math.exp(-1.0 / (2.0 * fp.beta2 * fp.P_c_ap))
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(p - expected) < 4.0 * sigma


# ---------------------------------------------------------------------------
# Full metric estimation
# ---------------------------------------------------------------------------


def test_estimate_requires_positive_slots_and_fading_params():
    with pytest.raises(ValueError):
        sf.estimate_fading_metrics(fading_cfg(), 0, seed=1)
    from twohop_aloha.core import ErasureParams

    erasure = ScenarioConfig(L=1, T=1, G=1.0, gamma_c=1.0, channel=ErasureParams(0.5, 0.5))
    with pytest.raises(ValueError):
        sf.estimate_fading_metrics(erasure, 100, seed=1)
    with pytest.raises(ValueError):
        sf.estimate_fading_metrics(fading_cfg(allocation=Tdma(alpha=0.5)), 100, seed=1)


def test_vanishing_access_gain_kills_all_metrics():
    cfg = fading_cfg(alpha2=1e-9)
    m = sf.estimate_fading_metrics(cfg, 4000, seed=7)
    assert m.R_c.mean == 0.0 and m.R_cbar.mean == 0.0
    assert m.Gamma_c.mean == 0.0 and m.Gamma_cbar.mean == 0.0


def test_class_symmetry_under_identical_parameters():
    cfg = fading_cfg(P_c=6.0, P_cbar=6.0, P_c_ap=6.0, P_cbar_ap=6.0)
    m = sf.estimate_fading_metrics(cfg, 40_000, seed=8)
    for a, b in ((m.R_c, m.R_cbar), (m.Gamma_c, m.Gamma_cbar)):
        sigma = math.hypot(a.std_error, b.std_error)
        assert abs(a.mean - b.mean) < 4.0 * sigma


def test_at_most_one_bs_success_per_slot():
    m = sf.estimate_fading_metrics(fading_cfg(), 20_000, seed=9)
    assert m.R_c.mean + m.R_cbar.mean <= 1.0


def test_determinism_and_worker_independence():
    cfg = fading_cfg(G=8.0)
    a = sf.estimate_fading_metrics(cfg, 20_000, seed=10)
    b = sf.estimate_fading_metrics(cfg, 20_000, seed=10)
    c = sf.estimate_fading_metrics(cfg, 20_000, seed=10, workers=3)
    assert a == b == c


def test_fading_slot_realization():
    rng = np.random.default_rng(11)
    fp = fading_cfg().fading
    n_c, n_cbar, L = 3, 2, 4
    decoded = sf.ap_decode(rayleigh_gain(rng, (L, n_c + n_cbar), fp.alpha2), n_c, fp)
    assert decoded.shape == (L,)
    assert np.all((decoded >= 0) & (decoded <= n_c + n_cbar))
    winner = int(sf.bs_decode(decoded, rayleigh_gain(rng, (L,), fp.beta2), n_c, fp))
    assert winner == 0 or winner in set(decoded[decoded > 0].tolist())


# ---------------------------------------------------------------------------
# Batched decoding against one decode call per slot
# ---------------------------------------------------------------------------


def _per_slot_chunk(cfg, S, rng):
    """Reference tallies: the chunk's draws, decoded one slot at a time."""
    L, fading = cfg.L, cfg.fading
    n_c = rng.poisson(cfg.gamma_c * cfg.G / cfg.T, S).astype(np.int64)
    n_n = rng.poisson((1.0 - cfg.gamma_c) * cfg.G / cfg.T, S).astype(np.int64)
    n_tot = n_c + n_n
    h = sf._complex_normal(rng, (int(n_tot.sum()), L), fading.alpha2)
    g = sf._complex_normal(rng, (S, L), fading.beta2)

    starts = np.concatenate(([0], np.cumsum(n_tot)))
    tallies = {
        "cs_slots": 0,
        "ncs_slots": 0,
        "cs_tag_succ": 0,
        "cs_trials": 0,
        "ncs_tag_succ": 0,
        "ncs_trials": 0,
    }
    for s in range(S):
        nc, nn = int(n_c[s]), int(n_n[s])
        tallies["cs_trials"] += nc >= 1
        tallies["ncs_trials"] += nn >= 1
        if nc + nn == 0:
            continue
        slot_gains = h[starts[s] : starts[s + 1]].T  # (L, M), CS messages first
        decoded = sf.ap_decode(slot_gains, nc, fading)
        winner = int(sf.bs_decode(decoded, g[s], nc, fading))
        if winner == 0:
            continue
        if winner <= nc:
            tallies["cs_slots"] += 1
            tallies["cs_tag_succ"] += winner == 1
        else:
            tallies["ncs_slots"] += 1
            tallies["ncs_tag_succ"] += winner == nc + 1
    return tallies


@pytest.mark.parametrize(
    "lam_c, lam_n, L, fp",
    [
        (0.0, 2.0, 3, {}),  # NCS-only slots: message 1 is the tagged NCS one
        (2.0, 0.0, 3, {}),
        (0.5, 1.0, 3, {}),
        (5.0, 5.0, 6, {}),  # M >= 8 messages in many slots
        (1.0, 1.0, 1, {}),
        (1.5, 1.5, 3, {"P_c_ap": 0.0, "P_cbar_ap": 0.0}),
        (1.5, 1.5, 4, {"P_cbar_ap": 0.0, "alpha2": 3.0}),
    ],
)
def test_batched_chunk_matches_per_slot_loop(lam_c, lam_n, L, fp):
    cfg = fading_cfg(L=L, T=1, G=lam_c + lam_n, gamma_c=lam_c / (lam_c + lam_n), **fp)
    for seed in (21, 22):
        want = _per_slot_chunk(cfg, 1500, np.random.default_rng(seed))
        got = sf._run_fading_chunk(cfg, 1500, np.random.default_rng(seed))
        assert got == want and list(got) == list(want)
        assert all(type(v) is int for v in got.values())
    if lam_c == 0.0:
        assert want["ncs_tag_succ"] > 0 and want["cs_tag_succ"] == 0
    if lam_c == 5.0:
        rng = np.random.default_rng(21)
        assert (rng.poisson(lam_c, 1500) + rng.poisson(lam_n, 1500)).max() >= 8


def _pair_chunk(cfg, S, rng):
    """Reference tallies: the chunk's draws decoded one (n_c, n_cbar) pair at
    a time, with an int ``n_c`` and each pair's complex access gains."""
    L, fading = cfg.L, cfg.fading
    n_c = rng.poisson(cfg.cs_slot_load, S).astype(np.int64)
    n_n = rng.poisson(cfg.ncs_slot_load, S).astype(np.int64)
    n_tot = n_c + n_n
    h = sf._complex_normal(rng, (int(n_tot.sum()), L), fading.alpha2)
    g = sf._complex_normal(rng, (S, L), fading.beta2)

    starts = np.cumsum(n_tot) - n_tot
    key = n_c * (int(n_n.max()) + 1) + n_n
    order = np.argsort(key)
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    winner = np.zeros(S, dtype=np.int64)
    for idx in groups:
        nc, m = int(n_c[idx[0]]), int(n_tot[idx[0]])
        gains = h[starts[idx][:, None] + np.arange(m)].transpose(0, 2, 1)
        decoded = sf.ap_decode(gains, nc, fading)
        winner[idx] = sf.bs_decode(decoded, g[idx], nc, fading)

    cs_won = (winner >= 1) & (winner <= n_c)
    return {
        "cs_slots": int(cs_won.sum()),
        "ncs_slots": int((winner > n_c).sum()),
        "cs_tag_succ": int((cs_won & (winner == 1)).sum()),
        "cs_trials": int((n_c >= 1).sum()),
        "ncs_tag_succ": int((winner == n_c + 1).sum()),
        "ncs_trials": int((n_n >= 1).sum()),
    }


@pytest.mark.parametrize(
    "case",
    [
        dict(L=1, T=1, G=3.0, gamma_c=0.5),
        dict(L=3, T=1, G=4.0, gamma_c=0.0),
        dict(L=3, T=1, G=4.0, gamma_c=1.0),
        dict(L=3, T=8, G=16.0, gamma_c=0.5),  # the points scenario's slot load
        dict(L=1, T=1, G=2.0, gamma_c=0.3, r_c=0.5, r_cbar=0.25),
        # rates below 1 and M >= 8 in many slots: up to five distinct relays
        dict(L=5, T=1, G=10.0, gamma_c=0.3, r_c=0.5, r_cbar=0.25),
        dict(L=4, T=1, G=6.0, gamma_c=0.5, r_c=0.2, r_cbar=0.8, P_cbar_ap=0.0),
        dict(L=3, T=1, G=3.0, gamma_c=0.7, r_c=0.1, r_cbar=2.0, alpha2=3.0),
    ],
)
def test_message_count_groups_match_the_pair_loop(case):
    cfg = fading_cfg(**case)
    for seed in (41, 42):
        want = _pair_chunk(cfg, 1500, np.random.default_rng(seed))
        got = sf._run_fading_chunk(cfg, 1500, np.random.default_rng(seed))
        assert got == want and list(got) == list(want)
        assert want["cs_slots"] + want["ncs_slots"] > 0
    rng = np.random.default_rng(41)
    n_c, n_n = rng.poisson(cfg.cs_slot_load, 1500), rng.poisson(cfg.ncs_slot_load, 1500)
    if 0.0 < cfg.gamma_c < 1.0:
        # some message count holds several class splits
        assert len(set(zip(n_c, n_n))) > len(set(n_c + n_n))


@pytest.mark.parametrize(
    "L, T, G, pair_loop_peak",
    [(3, 8, 16.0, 4.81e6), (3, 1, 2e4, 189.97e6)],
)
def test_fading_chunk_memory_stays_below_the_pair_loop(L, T, G, pair_loop_peak):
    # One chunk at the benchmark's points scenario (16,384 slots of about 2
    # messages) and one at a high load (99 slots of about 20,000).  Decoding
    # each (n_c, n_cbar) pair's complex gains, drawn as scale * (re + 1j * im),
    # peaked at 4.81 MB and 189.98 MB under tracemalloc (Python 3.11, numpy
    # 2.4); at the high load the draws set the peak.  Grouping by message
    # count with squared gains peaked at 4.53 MB, and filling the complex
    # draws in place at 142.4 MB.
    cfg = ScenarioConfig(L=L, T=T, G=G, gamma_c=0.5, channel=FadingParams(1.0, 1.0))
    tracemalloc.start()
    try:
        sf._run_fading_chunk(cfg, sf._chunk_slots(cfg), np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= pair_loop_peak


def test_bs_decode_rows_match_row_by_row_calls():
    fp = fading_cfg(L=3).fading
    rng = np.random.default_rng(12)
    rows = np.array([
        [0, 3, 3],  # lower-index messages absent
        [3, 0, 0],
        [1, 1, 1],  # all copies of one message
        [2, 1, 2],
        [0, 0, 0],
        [4, 2, 1],
        [1, 2, 3],
    ])
    rows = np.concatenate([rows, rng.integers(0, 5, (200, 3))])
    g = rayleigh_gain(rng, (len(rows), 3), fp.beta2)
    for n_c in (0, 1, 2, 4):
        batched = sf.bs_decode(rows, g, n_c, fp)
        single = [int(sf.bs_decode(r, gs, n_c, fp)) for r, gs in zip(rows, g)]
        assert batched.shape == (len(rows),)
        assert batched.tolist() == single
        assert batched[4] == 0


def test_winner_weighs_the_other_messages_without_cancelling():
    # 1 + (1e40 + 1e20) - 1e40 cancelled to 0, so message 1 decoded at an
    # SINR of 1e20, far below 2**80 - 1; a lone message at 1e17 divided by 0
    assert sf._winner(np.array([1e40, 1e20]), 2, FadingParams(1.0, 1.0, r_c=80.0)) == 0
    assert sf._winner(np.array([1e17]), 1, FadingParams(1.0, 1.0)) == 1


def test_bs_decode_never_picks_an_absent_message():
    # no relay power for CS copies and a threshold of 0 (2**1e-20 - 1 == 0):
    # every candidate scores SINR 0, so an unmasked argmax would pick the
    # absent message 1 over the relayed message 2
    fp = FadingParams(alpha2=1.0, beta2=1.0, P_c_ap=0.0, r_c=1e-20)
    assert 2.0**fp.r_c - 1.0 == 0.0
    g = rayleigh_gain(np.random.default_rng(13), (4, 3), fp.beta2)
    rows = np.array([[0, 2, 2], [2, 0, 0], [0, 0, 2], [0, 2, 0]])
    assert sf.bs_decode(rows, g, 2, fp).tolist() == [2, 2, 2, 2]
    assert [int(sf.bs_decode(r, gs, 2, fp)) for r, gs in zip(rows, g)] == [2, 2, 2, 2]


def test_fading_chunks_follow_the_draw_budget():
    # 16,384 slots a chunk up to about 366 draws a slot, fewer above
    def cfg(G):
        return ScenarioConfig(L=3, T=1, G=G, gamma_c=0.5, channel=FadingParams(1.0, 1.0))

    assert sf._chunk_slots(cfg(2.0)) == 16_384
    assert sf._chunk_slots(cfg(200.0)) == 6_000_000 // 603
    assert sf._chunk_slots(cfg(1e6)) == 1


def test_a_slot_over_the_draw_bound_is_refused_before_any_draw(monkeypatch):
    def never(*args):
        raise AssertionError("a slot was drawn")

    monkeypatch.setattr(sf, "_run_fading_chunk", never)
    cfg = ScenarioConfig(L=3, T=1, G=1e9, gamma_c=0.5, channel=FadingParams(1.0, 1.0))
    with pytest.raises(ValueError, match="expected draws"):
        sf.estimate_fading_metrics(cfg, 1, seed=1)
