import decimal
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from twohop_aloha import core
from twohop_aloha.analytic_erasure import _class_support
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
    log_factorial,
    multinomial_sample,
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


@pytest.mark.parametrize(
    "lam,delta",
    [
        (lam, delta)
        for lam in (0.0, 1e-300, 1e-8, 0.25, 1.0, 16.0, 99.9, 100.1, 1e4, 7e5)
        for delta in (1e-15, 1e-12, 1e-6, 0.5)
    ]
    # above about 1e6 SciPy's tail, and so the walk's cutoff, falls short of
    # the exact one away from the mean
    + [(5e11, 0.5)],
)
def test_poisson_tail_cutoff_bisection_matches_linear_walk(lam, delta):
    poisson_tail_cutoff.cache_clear()
    assert poisson_tail_cutoff(lam, delta) == linear_walk_tail_cutoff(lam, delta)


def poisson_sf_mp(lam, n, digits=40):
    """P(N > n) for N ~ Poisson(lam) as 1 - Q(n + 1, lam), in ``digits`` digits."""
    with mpmath.workdps(digits):
        return 1 - mpmath.gammainc(n + 1, lam, mpmath.inf, regularized=True)


@pytest.mark.parametrize("lam,want", [(3.3e7, 33_040_418), (5e11, 500_004_974_139)])
def test_poisson_tail_cutoff_is_exact_at_high_loads(lam, want):
    # the smallest n with P(N > n) < 1e-12 (the 40-digit tails at n and n - 1
    # are 9.995e-13 and 1.0008e-12 at 3.3e7, 9.99998e-13 and 1.000008e-12
    # at 5e11), where the walk on SciPy's tail stops 65 and 409,549 short
    poisson_tail_cutoff.cache_clear()
    n = poisson_tail_cutoff(lam, 1e-12)
    assert n == want
    assert poisson_sf_mp(lam, n) < 1e-12 <= poisson_sf_mp(lam, n - 1)


@pytest.mark.parametrize("lam", [0.25, 16.0, 99.9, 100.1, 1e4, 7e5])
def test_poisson_tail_cutoff_below_the_mean_matches_linear_walk(lam):
    # a tail mass this large is crossed below int(lam), with no forward stride
    poisson_tail_cutoff.cache_clear()
    assert poisson_tail_cutoff(lam, 0.999) == linear_walk_tail_cutoff(lam, 0.999)


def test_poisson_tail_cutoff_refuses_a_rate_beyond_the_float_counts(monkeypatch):
    # above 2**53 floats skip counts: from about 1e42 the search's stride
    # no longer moves it, and from 5.6e102 the tail expansion overflows
    def never(*args):
        raise AssertionError("the tail was searched")

    monkeypatch.setattr(core, "_poisson_tail", never)
    poisson_tail_cutoff.cache_clear()
    for lam in (2.0**60, 1e50, 1e308):
        with pytest.raises(ValueError, match=r"Poisson rate .* is above 2\*\*53"):
            poisson_tail_cutoff(lam, 1e-12)


def test_poisson_tail_cutoff_calls_at_huge_rate(monkeypatch):
    # walking back one n at a time took up to 70,710 tail evaluations here
    from twohop_aloha import core

    calls = 0
    tail = core._large_load_tail

    def counted(*args):
        nonlocal calls
        calls += 1
        return tail(*args)

    monkeypatch.setattr(core, "_large_load_tail", counted)
    poisson_tail_cutoff.cache_clear()
    poisson_tail_cutoff(5e11, TAIL_MASS_DEFAULT)
    assert 0 < calls <= 200


def test_log_factorial_is_gammaln_bit_for_bit():
    rng = np.random.default_rng(20261019)
    sampled = np.exp(rng.uniform(math.log(2e5), math.log(1e12), 20_000)).astype(np.int64)
    for n in (np.arange(200_001), sampled):
        assert log_factorial(n).tobytes() == special.gammaln(n + 1).tobytes()


@pytest.mark.parametrize(
    "lam,z",
    [
        (lam, z)
        for lam in (1e4, 3e5, 7e5, 1e6, 3.3e7)
        for z in (-3.0, -0.5, 0.0, 2.0, 4.0, 4.6, 5.0, 6.0, 7.0, 8.0, 10.0, 15.0)
    ],
)
def test_large_load_tail_matches_high_precision_sums(lam, z):
    # from 4.5 standard deviations above the mean on, a power series capped
    # at 2,000 terms stops short at the higher loads; the tails reach 1e-51,
    # so 1 - Q takes 100 digits
    n = int(lam + z * math.sqrt(lam))
    want = float(poisson_sf_mp(lam, n, digits=100))
    assert abs(core._large_load_tail(lam, n) - want) <= 1e-13 * want


def test_poisson_pmf_sums_to_one_over_cutoff_support():
    for lam in (0.1, 1.0, 4.0, 25.0):
        n, w = poisson_weights(lam)
        assert n[-1] == poisson_tail_cutoff(lam, 1e-12)
        assert w.sum() == pytest.approx(1.0, abs=1e-11)


def test_normalized_poisson_weights():
    # a class's tagged weights: the Poisson pmf conditioned on N >= 1
    n, w, tagged = _class_support(2.0)
    assert n[-1] == poisson_tail_cutoff(2.0, TAIL_MASS_DEFAULT)
    assert tagged[0] == 0.0
    assert tagged.sum() == pytest.approx(1.0, abs=1e-11)
    assert tagged[1:].tolist() == (w[1:] / -math.expm1(-2.0)).tolist()
    # a cut at count 0 still tags count 1; zero load tags nothing
    n, w, tagged = _class_support(1e-14)
    assert n.tolist() == [0, 1] and w[1] == 0.0 and tagged[1] == pytest.approx(1.0)
    assert [a.tolist() for a in _class_support(0.0)] == [[0], [1.0], [0.0]]


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
    # the memoized row holds the bits of a row built for these counts alone
    want = np.ones(x.shape)
    want[x > k] = core._binomial_cdf(k, x[x > k], eps)
    got = gamma_k_tolerance_array(x, eps, k)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    scipy_cdf = np.where(x <= k, 1.0, stats.binom.cdf(k, x, 1.0 - eps))
    assert np.all(np.abs(got - scipy_cdf) <= 1e-14)
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


def test_tolerance_rows_match_high_precision_sums():
    # P(Bin(x, p) <= k) at p = 1.0 - eps, by the recursion
    # F(x+1, k) = q F(x, k) + p F(x, k-1) in 60-digit decimal arithmetic,
    # against every row value that is at least 1e-280 (SciPy flushes some
    # near 1e-260 to 0)
    tiny = decimal.Decimal("1e-280")
    for eps in (0.1, 0.5, 0.9, 0.97, 0.999):
        with decimal.localcontext(decimal.Context(prec=60)):
            p = decimal.Decimal(1.0 - eps)
            q = 1 - p
            cdf, exact = [decimal.Decimal(1)] * 41, []  # at x = 0, k = 0..40
            for _ in range(1100):
                cdf = [q * cdf[0]] + [q * now + p * below for now, below in zip(cdf[1:], cdf)]
                exact.append([float(v) if v >= tiny else np.nan for v in cdf])
        exact = np.array(exact)
        for k in range(41):
            got = gamma_k_tolerance_array(np.arange(1, 1101), eps, k)
            want = exact[:, k]
            keep = ~np.isnan(want)
            assert np.all(np.abs(got[keep] - want[keep]) <= 1e-14 * want[keep]), (eps, k)


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


def test_fading_params_refuse_mean_powers_whose_draws_can_overflow():
    # alpha2 = 1e308 overflowed the drawn powers; the bound is 1e150 on each
    # mean received power, access and backhaul
    FadingParams(alpha2=1e149, beta2=1e149, P_cbar_ap=10.0)
    for fields in ({"alpha2": 1.1e149}, {"beta2": 1.1e149}, {"P_cbar_ap": 11.0, "beta2": 1e149}):
        with pytest.raises(ValueError, match="at most 1e150"):
            FadingParams(**{"alpha2": 1.0, "beta2": 1.0, **fields})


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


@pytest.mark.parametrize("field,value", [
    ("L", 2.5), ("L", 2.0), ("L", True), ("T", 2.5), ("T", 8.0), ("T", True),
    ("K", 2.5), ("K", True), ("K", False),
])
def test_scenario_config_refuses_non_integer_counts(field, value):
    counts = {"L": 3, "T": 8, "K": 2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be"):
        ScenarioConfig(G=1.0, gamma_c=0.5, channel=ErasureParams(0.5, 0.5), **counts)


def test_scenario_config_takes_numpy_integers():
    cfg = ScenarioConfig(L=np.int64(3), T=np.int32(8), G=1.0, gamma_c=0.5,
                         channel=ErasureParams(0.5, 0.5), K=np.int64(2))
    assert (cfg.L, cfg.T, cfg.K) == (3, 8, 2)


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


def test_metrics_from_tallies_divides_by_slots_and_by_trials():
    tallies = {"cs_slots": 30, "ncs_slots": 10, "cs_tag_succ": 6, "ncs_tag_succ": 0,
               "cs_trials": 8, "ncs_trials": 0}
    m = core.metrics_from_tallies(tallies, 100, seed=3, flags=["f"])
    assert m == core.SimulatedMetrics(
        R_c=bernoulli_estimate(30, 100, 3),
        R_cbar=bernoulli_estimate(10, 100, 3),
        Gamma_c=bernoulli_estimate(6, 8, 3),
        Gamma_cbar=bernoulli_estimate(0, 0, 3),
        flags=("f",),
    )


@pytest.mark.parametrize("budget", [0, -5])
def test_run_chunked_refuses_an_empty_budget(budget):
    def chunk(spec, size, rng):
        raise AssertionError("a chunk ran")

    with pytest.raises(ValueError):
        core.run_chunked(chunk, None, budget, 16, seed=1)


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that records its size and runs
    every task in this process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


def _count_chunk(spec, size, rng):
    return {"items": size, "draw": int(rng.integers(1 << 30))}


@pytest.mark.parametrize(
    "workers,chunks,cores,pool",
    [(64, 2, 8, 2), (64, 100, 4, 4), (3, 100, 64, 3), (64, 1, 8, None), (2, 4, 1, None)],
)
def test_run_chunked_pool_holds_at_most_one_process_per_chunk_and_core(
    monkeypatch, workers, chunks, cores, pool
):
    monkeypatch.setattr(core, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(core.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    got = core.run_chunked(_count_chunk, None, 16 * chunks, 16, seed=5, workers=workers)
    assert _InlinePool.sizes == ([] if pool is None else [pool])
    assert got == core.run_chunked(_count_chunk, None, 16 * chunks, 16, seed=5)
    assert got["items"] == 16 * chunks


def test_chunk_items_refuses_an_item_over_the_draw_bound():
    assert core.chunk_items(core.MAX_ITEM_DRAWS, 131072) == 1
    with pytest.raises(ValueError, match="expected draws"):
        core.chunk_items(core.MAX_ITEM_DRAWS + 1.0, 131072)
