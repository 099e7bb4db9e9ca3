import math

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
