import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from twohop_aloha.core import (
    INFINITE_K,
    TAIL_MASS_DEFAULT,
    ErasureParams,
    FadingParams,
    OrderLimitError,
    ScenarioConfig,
    ServiceMetrics,
    SimEstimate,
    Tdma,
    aux_h,
    bernoulli_estimate,
    gamma_k_tolerance_array,
    multinomial_sample,
    normalized_poisson_weights,
    poisson_tail_cutoff,
    poisson_weights,
)

from closed_form_oracle import regularized_gamma_q


# ---------------------------------------------------------------------------
# Poisson pmf and truncation
# ---------------------------------------------------------------------------


def poisson_pmf(k: int, lam: float) -> float:
    """P(N = k) for N ~ Poisson(lam), evaluated in log space."""
    if lam < 0 or math.isnan(lam) or math.isinf(lam):
        raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
    if k < 0:
        return 0.0
    if lam == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def brute_poisson_pmf(k, lam):
    """Independent oracle: direct power/factorial evaluation."""
    return lam**k * math.exp(-lam) / math.factorial(k)


def test_poisson_pmf_examples():
    assert poisson_pmf(0, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert poisson_pmf(2, 0.0) == 0.0
    # frozen from the direct oracle (brute_poisson_pmf(3, 2.5))
    assert poisson_pmf(3, 2.5) == pytest.approx(0.2137630172497364, abs=1e-12)


@pytest.mark.parametrize("k,lam", [(0, 0.5), (5, 2.0), (40, 10.0), (120, 100.0)])
def test_poisson_pmf_matches_oracle(k, lam):
    assert poisson_pmf(k, lam) == pytest.approx(brute_poisson_pmf(k, lam), rel=1e-12)


def test_poisson_pmf_domain():
    with pytest.raises(ValueError):
        poisson_pmf(1, -0.5)
    with pytest.raises(ValueError):
        poisson_pmf(1, math.inf)
    assert poisson_pmf(-1, 1.0) == 0.0


def test_poisson_tail_cutoff_examples():
    assert poisson_tail_cutoff(0.0, 1e-12) == 0
    # P(N>0) = 1 - e^-1 ~ 0.632 >= 0.5; P(N>1) = 1 - 2e^-1 ~ 0.264 < 0.5
    assert poisson_tail_cutoff(1.0, 0.5) == 1


@pytest.mark.parametrize("lam,delta", [(0.3, 1e-6), (2.0, 1e-12), (20.0, 1e-9)])
def test_poisson_tail_cutoff_defining_property(lam, delta):
    n_max = poisson_tail_cutoff(lam, delta)
    head = sum(poisson_pmf(k, lam) for k in range(n_max + 1))
    assert head >= 1.0 - delta
    if n_max > 0:
        head_short = sum(poisson_pmf(k, lam) for k in range(n_max))
        assert head_short < 1.0 - delta


def linear_walk_tail_cutoff(lam, delta):
    """The cutoff search as first written: scipy.stats survival function,
    forward strides from the mean, then a walk back one n at a time."""
    if lam == 0.0:
        return 0
    # Start near the mean and extend until the survival function drops.
    n = max(int(lam), 0)
    while stats.poisson.sf(n, lam) >= delta:
        n += max(1, int(0.1 * math.sqrt(lam)) if lam > 100 else 1)
    # Walk back to the smallest qualifying n.
    while n > 0 and stats.poisson.sf(n - 1, lam) < delta:
        n -= 1
    return n


@pytest.mark.parametrize("delta", [1e-15, 1e-12, 1e-6, 0.5])
@pytest.mark.parametrize(
    "lam", [0.0, 1e-300, 1e-8, 0.25, 1.0, 16.0, 99.9, 100.1, 1e4, 7e5, 5e11]
)
def test_poisson_tail_cutoff_bisection_matches_linear_walk(lam, delta):
    poisson_tail_cutoff.cache_clear()
    assert poisson_tail_cutoff(lam, delta) == linear_walk_tail_cutoff(lam, delta)


@pytest.mark.parametrize("lam", [0.25, 16.0, 99.9, 100.1, 1e4, 7e5])
def test_poisson_tail_cutoff_below_the_mean_matches_linear_walk(lam):
    # a tail mass this large is crossed below int(lam), with no forward stride
    poisson_tail_cutoff.cache_clear()
    assert poisson_tail_cutoff(lam, 0.999) == linear_walk_tail_cutoff(lam, 0.999)


def test_poisson_tail_cutoff_calls_at_huge_rate(monkeypatch):
    # walking back one n at a time took up to 70,710 tail evaluations here
    from twohop_aloha import core

    calls = 0
    pdtrc = core.special.pdtrc

    def counted(*args):
        nonlocal calls
        calls += 1
        return pdtrc(*args)

    monkeypatch.setattr(core.special, "pdtrc", counted)
    poisson_tail_cutoff.cache_clear()
    poisson_tail_cutoff(5e11, TAIL_MASS_DEFAULT)
    assert 0 < calls <= 200


def test_poisson_pmf_sums_to_one_over_cutoff_support():
    for lam in (0.1, 1.0, 4.0, 25.0):
        n, w = poisson_weights(lam)
        assert n[-1] == poisson_tail_cutoff(lam, 1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-11)


def test_normalized_poisson_weights():
    n, w = normalized_poisson_weights(2.0)
    assert n[0] == 1
    assert w.sum() == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError):
        normalized_poisson_weights(0.0)


# ---------------------------------------------------------------------------
# Regularized gamma (the finite-K closed-form oracle's helper)
# ---------------------------------------------------------------------------


def test_regularized_gamma_q_examples():
    assert regularized_gamma_q(1, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert regularized_gamma_q(5, 0.0) == 1.0
    assert regularized_gamma_q(2, 1.0) == pytest.approx(2.0 * math.exp(-1.0), abs=1e-9)


@pytest.mark.parametrize("k", [0, 1, 3, 10])
@pytest.mark.parametrize("x", [0.1, 1.0, 4.0, 12.0])
def test_regularized_gamma_q_is_poisson_cdf(k, x):
    # tail truncated at 1e-15: Q(K+1, x) + P(N > K) = 1
    tail = sum(poisson_pmf(n, x) for n in range(k + 1, poisson_tail_cutoff(x, 1e-15) + 1))
    assert regularized_gamma_q(k + 1, x) + tail == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Auxiliary series H_m
# ---------------------------------------------------------------------------


def brute_aux_series(m, x, tail=1e-14):
    """Oracle: direct series sum of x**n n**m / n! with controlled tail."""
    total = 0.0
    term = 1.0  # x**n / n!
    n = 0
    while True:
        total += term * n**m
        n += 1
        term *= x / n
        if n > max(10, 3 * x + 5 * m) and term * n**m < tail * max(total, 1.0):
            break
    return total


def test_aux_h_examples():
    assert aux_h(0, 0.0) == 1.0
    assert aux_h(1, 1.0) == pytest.approx(math.e, rel=1e-12)  # x * e**x at x=1
    assert aux_h(2, 1.0) == pytest.approx(brute_aux_series(2, 1.0), rel=1e-12)
    assert aux_h(2, 1.0) == pytest.approx(5.43656365691809, rel=1e-10)


@pytest.mark.parametrize("m", range(9))
@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_aux_h_matches_series(m, x):
    assert abs(aux_h(m, x) - brute_aux_series(m, x)) <= 1e-10 * max(aux_h(m, x), 1e-300)


def test_aux_h_order_cap():
    with pytest.raises(OrderLimitError):
        aux_h(65, 1.0)


# ---------------------------------------------------------------------------
# Interference tolerance probability
# ---------------------------------------------------------------------------


def brute_gamma_k(x, eps, k):
    return sum(
        math.comb(x, i) * (1 - eps) ** i * eps ** (x - i) for i in range(min(k, x) + 1)
    )


def gamma_k(x, eps, k):
    """The tolerance at one count, through the array function."""
    return float(gamma_k_tolerance_array(x, eps, k))


def test_gamma_k_examples():
    assert gamma_k(2, 0.5, 3) == 1.0
    assert gamma_k(2, 0.5, INFINITE_K) == 1.0
    assert gamma_k(2, 0.5, 0) == pytest.approx(0.25, abs=1e-12)
    assert gamma_k(1, 0.0, 0) == 0.0


@given(
    x=st.integers(min_value=0, max_value=50),
    eps=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]),
)
@settings(max_examples=60, deadline=None)
def test_gamma_k_monotone_in_k_and_saturates(x, eps):
    values = [gamma_k(x, eps, k) for k in range(x + 2)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # k >= x
    for k in (0, 1, x):
        assert gamma_k(x, eps, k) == pytest.approx(
            brute_gamma_k(x, eps, k), abs=1e-10
        )


def test_gamma_k_array_matches_scalar():
    # a row of counts holds exactly the values of one count at a time
    xs = np.arange(0, 12)
    arr = gamma_k_tolerance_array(xs, 0.4, 2)
    for x, v in zip(xs, arr):
        assert v == gamma_k(int(x), 0.4, 2)
        assert v == pytest.approx(brute_gamma_k(int(x), 0.4, 2), abs=1e-12)
    assert np.all(gamma_k_tolerance_array(xs, 0.4, INFINITE_K) == 1.0)


@given(
    x=st.lists(st.integers(min_value=0, max_value=1100), min_size=1, max_size=24),
    rows=st.sampled_from([1, 2, 4]),
    eps=st.one_of(
        st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]), st.floats(min_value=0.0, max_value=1.0)
    ),
    k=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_gamma_k_memoized_rows_are_bit_identical(x, rows, eps, k):
    # unsorted counts, padded with k (at or below the budget) into 1 to 4 rows
    x = np.array(x + [k] * (-len(x) % rows)).reshape(rows, -1)
    want = np.where(x <= k, 1.0, stats.binom.cdf(k, x, 1.0 - eps))
    got = gamma_k_tolerance_array(x, eps, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # a caller's in-place write stays with the caller
    got[...] = -1.0
    assert gamma_k_tolerance_array(x, eps, k).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "x,eps,k",
    [
        ([0, 3, -1], 0.5, 1),
        (-2, 0.5, INFINITE_K),
        ([0, 1, 2], 0.5, -2),
        ([0, 1, 2], -0.1, 1),
        ([0, 1, 2], 1.5, INFINITE_K),
        ([0, 1, 2], math.nan, 0),
    ],
)
def test_gamma_k_array_rejects_bad_inputs(x, eps, k):
    with pytest.raises(ValueError):
        gamma_k_tolerance_array(x, eps, k)


# ---------------------------------------------------------------------------
# Multinomial sampling
# ---------------------------------------------------------------------------


def test_multinomial_trivial_cases():
    rng = np.random.default_rng(0)
    assert multinomial_sample(rng, 5, [1.0]).tolist() == [5]
    assert multinomial_sample(rng, 0, [0.5, 0.5]).tolist() == [0, 0]


def test_multinomial_rejects_bad_probs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        multinomial_sample(rng, 3, [0.5, 0.6])
    with pytest.raises(ValueError):
        multinomial_sample(rng, 3, [0.7, -0.3, 0.6])
    with pytest.raises(ValueError):
        multinomial_sample(rng, 3, [])


def test_multinomial_cell_means():
    rng = np.random.default_rng(1234)
    trials, probs, n = 7, np.array([0.2, 0.3, 0.5]), 100_000
    draws = multinomial_sample(rng, trials, probs, size=n)
    assert np.all(draws.sum(axis=1) == trials)
    for i, p in enumerate(probs):
        mean = draws[:, i].mean()
        sigma = math.sqrt(trials * p * (1 - p) / n)
        assert abs(mean - trials * p) < 4.0 * sigma


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


def test_erasure_params_range_checked():
    ErasureParams(0.0, 1.0)
    with pytest.raises(ValueError):
        ErasureParams(-0.1, 0.5)
    with pytest.raises(ValueError):
        ErasureParams(0.5, 1.2)


def test_fading_params_power_ordering():
    FadingParams(alpha2=1.0, beta2=1.0, P_c=10.0, P_cbar=4.0)
    with pytest.raises(ValueError):
        FadingParams(alpha2=1.0, beta2=1.0, P_c=4.0, P_cbar=10.0)
    with pytest.raises(ValueError):
        FadingParams(alpha2=0.0, beta2=1.0)
    FadingParams(alpha2=1.0, beta2=1.0, P_cbar=0.0)
    for name in ("alpha2", "beta2", "P_c", "P_cbar", "P_c_ap", "P_cbar_ap", "r_c", "r_cbar"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                FadingParams(**{"alpha2": 1.0, "beta2": 1.0, name: bad})


def test_scenario_config_validation():
    ch = ErasureParams(0.5, 0.5)
    cfg = ScenarioConfig(L=3, T=8, G=16.0, gamma_c=1.0, channel=ch)
    assert cfg.cs_slot_load == pytest.approx(2.0)
    assert cfg.ncs_slot_load == 0.0
    with pytest.raises(ValueError):
        ScenarioConfig(L=0, T=1, G=1.0, gamma_c=0.5, channel=ch)
    with pytest.raises(ValueError):
        ScenarioConfig(L=1, T=0, G=1.0, gamma_c=0.5, channel=ch)
    with pytest.raises(ValueError):
        ScenarioConfig(L=1, T=1, G=-1.0, gamma_c=0.5, channel=ch)
    with pytest.raises(ValueError):
        ScenarioConfig(L=1, T=1, G=1.0, gamma_c=1.5, channel=ch)
    with pytest.raises(ValueError):
        ScenarioConfig(L=1, T=1, G=1.0, gamma_c=0.5, channel=ch, K=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(L=1, T=1, G=1.0, gamma_c=0.5, channel=ch, receiver="other")
    with pytest.raises(ValueError):
        Tdma(alpha=1.5)
    with pytest.raises(ValueError):
        cfg.fading  # erasure-channel scenario has no fading params


def test_service_metrics_invariants():
    ServiceMetrics(R_c=0.4, R_cbar=0.3, Gamma_c=0.5, Gamma_cbar=0.1)
    with pytest.raises(ValueError):
        ServiceMetrics(R_c=0.7, R_cbar=0.5, Gamma_c=0.5, Gamma_cbar=0.1)
    with pytest.raises(ValueError):
        ServiceMetrics(R_c=-0.1, R_cbar=0.0, Gamma_c=0.0, Gamma_cbar=0.0)
    with pytest.raises(ValueError):
        ServiceMetrics(R_c=0.1, R_cbar=0.0, Gamma_c=1.2, Gamma_cbar=0.0)
    for field in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
        values = {"R_c": 0.1, "R_cbar": 0.1, "Gamma_c": 0.1, "Gamma_cbar": 0.1}
        with pytest.raises(ValueError, match="NaN"):
            ServiceMetrics(**{**values, field: math.nan})


def test_sim_estimate_and_bernoulli():
    est = bernoulli_estimate(25, 100, seed=7)
    assert est.mean == 0.25
    assert est.std_error == pytest.approx(math.sqrt(0.25 * 0.75 / 99))
    assert est.n_samples == 100 and est.seed == 7
    empty = bernoulli_estimate(0, 0, seed=7)
    assert empty.mean == 0.0 and empty.n_samples == 0
    with pytest.raises(ValueError):
        SimEstimate(mean=0.5, std_error=-1.0, n_samples=1, seed=0)
