"""Exact outputs of both Monte Carlo engines and both evaluators.

Chunk sizes, per-chunk substreams, draw order and tally merging together
decide every digit of a simulated estimate, and the CLI promises
byte-identical CSVs at a fixed seed.  The collision-receiver and
superposition evaluators are pinned too, under both allocations and both
superposition estimators: the benchmark byte-gates superposition Monte
Carlo only for non-orthogonal sharing.  A change to any of them shows up
here as an inequality; re-record the values only for a deliberate change
of the random streams or of the evaluated expressions.
"""

import pytest

import erasure_oracles as oracles
import twohop_aloha.analytic_erasure as ae
import twohop_aloha.sim_erasure as se
import twohop_aloha.sim_fading as sf
import twohop_aloha.superposition as sp
from twohop_aloha.core import (
    INFINITE_K,
    ErasureParams,
    FadingParams,
    Receiver,
    ScenarioConfig,
    SimEstimate,
    Tdma,
)


def _est(e: SimEstimate) -> tuple:
    return (e.mean, e.std_error, e.n_samples, e.seed)


def _metrics(m) -> tuple:
    return tuple(_est(e) for e in (m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar)) + (m.flags,)


def _service(m) -> tuple:
    return (m.R_c, m.R_cbar, m.Gamma_c, m.Gamma_cbar)


def _erasure(L=3, T=2, G=4.0, gamma_c=0.5, e1=0.3, e2=0.6, K=1, **kw):
    return ScenarioConfig(
        L=L, T=T, G=G, gamma_c=gamma_c, channel=ErasureParams(e1, e2), K=K, **kw
    )


# L=8, T=16, G=40 gives 13,392-frame chunks: 30,000 frames span three.
_MULTI_CHUNK = _erasure(L=8, T=16, G=40.0, gamma_c=0.3, e1=0.4, e2=0.3, K=2)
_TDMA = _erasure(L=2, T=3, G=3.0, gamma_c=0.4, e1=0.2, e2=0.4, allocation=Tdma(alpha=0.5))
# Load on both classes, one of which has no slots.
_TDMA_ALL_CS = _erasure(T=4, G=8.0, allocation=Tdma(alpha=1.0))
_TDMA_ALL_NCS = _erasure(T=4, G=8.0, allocation=Tdma(alpha=0.0))
_MULTI_K = _erasure(T=1, G=2.0, receiver=Receiver.SUPERPOSITION)
# A validate grid point: most cells hold no unerased arrival.
_VALIDATE_REGIME = _erasure(L=5, T=1, G=0.25, gamma_c=0.1, e1=0.9, e2=0.5)
# L=5, T=8, G=16 gives 50,000-frame chunks: 60,000 frames span two.
_MULTI_K_SUP_TWO_CHUNKS = _erasure(L=5, T=8, G=16.0, receiver=Receiver.SUPERPOSITION)
# 20,000 slots span two 16,384-slot chunks.
_FADING = ScenarioConfig(
    L=3, T=1, G=1.5, gamma_c=0.5, channel=FadingParams(alpha2=1.0, beta2=2.0)
)
_SUP = _erasure(receiver=Receiver.SUPERPOSITION)
_SUP_TDMA = _erasure(T=3, receiver=Receiver.SUPERPOSITION, allocation=Tdma(alpha=0.3))

CASES = {
    "simulate_non_orthogonal": lambda: _metrics(se.simulate(_erasure(), 20_000, 11)),
    "simulate_multi_chunk_w1": lambda: _metrics(se.simulate(_MULTI_CHUNK, 30_000, 21)),
    "simulate_multi_chunk_w2": lambda: _metrics(
        se.simulate(_MULTI_CHUNK, 30_000, 21, workers=2)
    ),
    "simulate_tdma": lambda: _metrics(se.simulate(_TDMA, 20_000, 12)),
    "simulate_tdma_alpha_0": lambda: _metrics(se.simulate(_TDMA_ALL_NCS, 20_000, 22)),
    "simulate_tdma_alpha_1": lambda: _metrics(se.simulate(_TDMA_ALL_CS, 20_000, 23)),
    "simulate_multi_k": lambda: tuple(
        (str(k), _metrics(m))
        for k, m in se.simulate_multi_k(_MULTI_K, (0, 2, INFINITE_K), 20_000, 13).items()
    ),
    "simulate_multi_k_validate_regime": lambda: tuple(
        (str(k), _metrics(m))
        for k, m in se.simulate_multi_k(_VALIDATE_REGIME, (0, 1, 2, 5), 40_000, 24).items()
    ),
    "simulate_multi_k_superposition_two_chunks": lambda: tuple(
        (str(k), _metrics(m))
        for k, m in se.simulate_multi_k(
            _MULTI_K_SUP_TWO_CHUNKS, (0, 1, 2, 5, INFINITE_K), 60_000, 26
        ).items()
    ),
    "simulate_multi_k_all_erased": lambda: tuple(
        (str(k), _metrics(m))
        for k, m in se.simulate_multi_k(_erasure(e1=1.0), (0, 2, INFINITE_K), 5_000, 25).items()
    ),
    "coupled_compare": lambda: oracles.coupled_compare(_erasure(L=4), 20_000, 14),
    "simulate_uplink_decode": lambda: _est(
        oracles.simulate_uplink_decode(_erasure(), 20_000, 15)
    ),
    "simulate_per_device_psr": lambda: tuple(
        _est(e) for e in oracles.simulate_per_device_psr(_erasure(T=3, G=6.0), 20_000, 16)
    ),
    "fading_w1": lambda: _metrics(sf.estimate_fading_metrics(_FADING, 20_000, 17)),
    "fading_w2": lambda: _metrics(sf.estimate_fading_metrics(_FADING, 20_000, 17, workers=2)),
    "erasure_non_orthogonal_k_inf": lambda: _service(ae.evaluate_erasure(_erasure(K=INFINITE_K))),
    "erasure_non_orthogonal_k2": lambda: _service(ae.evaluate_erasure(_erasure(K=2))),
    "erasure_tdma_alpha_0": lambda: _service(
        ae.evaluate_erasure(_erasure(T=3, allocation=Tdma(alpha=0.0)))
    ),
    "erasure_tdma_alpha_0.3": lambda: _service(
        ae.evaluate_erasure(_erasure(T=3, allocation=Tdma(alpha=0.3)))
    ),
    "erasure_tdma_alpha_1": lambda: _service(
        ae.evaluate_erasure(_erasure(T=3, allocation=Tdma(alpha=1.0)))
    ),
    "superposition_exact": lambda: _service(sp.evaluate_superposition(_SUP)),
    "superposition_exact_tdma": lambda: _service(sp.evaluate_superposition(_SUP_TDMA)),
    "superposition_mc": lambda: _metrics(
        sp.evaluate_superposition(_SUP, sp.ConditionedMC(n_alloc_samples=200, seed=18))
    ),
    "superposition_mc_tdma": lambda: _metrics(
        sp.evaluate_superposition(_SUP_TDMA, sp.ConditionedMC(n_alloc_samples=200, seed=18))
    ),
}

EXPECTED = {"coupled_compare": 0,
 "erasure_non_orthogonal_k2": (0.23245962153035446,
                               0.11210514797720499,
                               0.30456476018054246,
                               0.1474715016809587),
 "erasure_non_orthogonal_k_inf": (0.2376673485692308,
                                  0.1118067043636909,
                                  0.3110026413271322,
                                  0.14732180423884872),
 "erasure_tdma_alpha_0": (0.0, 0.19414553876226978, 0.0, 0.3507754501347143),
 "erasure_tdma_alpha_0.3": (0.07436981797012117,
                            0.1631252719565178,
                            0.187364741828647,
                            0.3165508659483618),
 "erasure_tdma_alpha_1": (0.19414553876226978, 0.0, 0.3507754501347143, 0.0),
 "fading_w1": ((0.4616, 0.0035251799024542327, 20000, 17),
               (0.26535, 0.0031220916462865707, 20000, 17),
               (0.7146643945848717, 0.004393958748118345, 10563, 17),
               (0.4127719962157048, 0.004788963675674952, 10570, 17),
               ()),
 "fading_w2": ((0.4616, 0.0035251799024542327, 20000, 17),
               (0.26535, 0.0031220916462865707, 20000, 17),
               (0.7146643945848717, 0.004393958748118345, 10563, 17),
               (0.4127719962157048, 0.004788963675674952, 10570, 17),
               ()),
 "simulate_multi_chunk_w1": ((0.07450208333333333, 0.0003790109567502406, 480000, 21),
                             (0.07685416666666667, 0.00038445782045535296, 480000, 21),
                             (0.0993366445548185, 0.0017269900655261551, 29999, 21),
                             (0.042833333333333334, 0.0011690452736562538, 30000, 21),
                             ()),
 "simulate_multi_chunk_w2": ((0.07450208333333333, 0.0003790109567502406, 480000, 21),
                             (0.07685416666666667, 0.00038445782045535296, 480000, 21),
                             (0.0993366445548185, 0.0017269900655261551, 29999, 21),
                             (0.042833333333333334, 0.0011690452736562538, 30000, 21),
                             ()),
 "simulate_multi_k": (("0",
                       ((0.15815, 0.002580166998100492, 20000, 13),
                        (0.16055, 0.0025959626010579016, 20000, 13),
                        (0.21762317917694818, 0.003681553943828657, 12563, 13),
                        (0.21735347623190698, 0.003668244140848829, 12643, 13),
                        ())),
                      ("2",
                       ((0.2994, 0.0032385963665330798, 20000, 13),
                        (0.14485, 0.0024887212703872813, 20000, 13),
                        (0.40889914829260526, 0.004386412808153181, 12563, 13),
                        (0.19655145139602942, 0.003534347682135608, 12643, 13),
                        ())),
                      ("inf",
                       ((0.3081, 0.0032648510628546486, 20000, 13),
                        (0.1446, 0.0024869361154967627, 20000, 13),
                        (0.42060017511740827, 0.004404478657091536, 12563, 13),
                        (0.19647235624456222, 0.003533810403614965, 12643, 13),
                        ()))),
 "simulate_multi_k_all_erased": (("0",
                                 ((0.0, 0.0, 10000, 25),
                                  (0.0, 0.0, 10000, 25),
                                  (0.0, 0.0, 4309, 25),
                                  (0.0, 0.0, 4348, 25),
                                  ())),
                                ("2",
                                 ((0.0, 0.0, 10000, 25),
                                  (0.0, 0.0, 10000, 25),
                                  (0.0, 0.0, 4309, 25),
                                  (0.0, 0.0, 4348, 25),
                                  ())),
                                ("inf",
                                 ((0.0, 0.0, 10000, 25),
                                  (0.0, 0.0, 10000, 25),
                                  (0.0, 0.0, 4309, 25),
                                  (0.0, 0.0, 4348, 25),
                                  ()))),
 "simulate_multi_k_superposition_two_chunks": (("0",
                                                ((0.20842708333333335, 0.0005862763462211585, 480000, 26),
                                                 (0.209775, 0.0005876680517249566, 480000, 26),
                                                 (0.22757056871800857, 0.0017119800718747023, 59977, 26),
                                                 (0.22707642026979707, 0.001710752855164431, 59971, 26),
                                                 ())),
                                               ("1",
                                                ((0.35088125, 0.0006888457630143018, 480000, 26),
                                                 (0.17924583333333333, 0.0005536189104803018, 480000, 26),
                                                 (0.38414725644830516, 0.0019860883285825917, 59977, 26),
                                                 (0.1934935218689033, 0.001613132794626988, 59971, 26),
                                                 ())),
                                               ("2",
                                                ((0.3954729166666667, 0.0007057422022858313, 480000, 26),
                                                 (0.17369583333333333, 0.0005468201445406941, 480000, 26),
                                                 (0.4327158744185271, 0.0020230796444805233, 59977, 26),
                                                 (0.1880408864284404, 0.001595607984462606, 59971, 26),
                                                 ())),
                                               ("5",
                                                ((0.4055125, 0.0007086851301564923, 480000, 26),
                                                 (0.17313333333333333, 0.0005461197984971195, 480000, 26),
                                                 (0.44385347716624707, 0.002028736661538751, 59977, 26),
                                                 (0.18764069300161745, 0.0015943019229437863, 59971, 26),
                                                 ())),
                                               ("inf",
                                                ((0.40553333333333336, 0.0007086909163081718, 480000, 26),
                                                 (0.17313333333333333, 0.0005461197984971195, 480000, 26),
                                                 (0.4438868232822582, 0.0020287520443005415, 59977, 26),
                                                 (0.18764069300161745, 0.0015943019229437863, 59971, 26),
                                                 ()))),
 "simulate_multi_k_validate_regime": (("0",
                                      ((0.0042, 0.0003233598831647967, 40000, 24),
                                       (0.0433, 0.0010176706939580376, 40000, 24),
                                       (0.17803837953091683, 0.01249720203242274, 938, 24),
                                       (0.2015075376884422, 0.004496264031714856, 7960, 24),
                                       ())),
                                     ("1",
                                      ((0.004525, 0.00033558296257873304, 40000, 24),
                                       (0.0433, 0.0010176706939580376, 40000, 24),
                                       (0.1908315565031983, 0.012837331896865178, 938, 24),
                                       (0.2015075376884422, 0.004496264031714856, 7960, 24),
                                       ())),
                                     ("2",
                                      ((0.004525, 0.00033558296257873304, 40000, 24),
                                       (0.0433, 0.0010176706939580376, 40000, 24),
                                       (0.1908315565031983, 0.012837331896865178, 938, 24),
                                       (0.2015075376884422, 0.004496264031714856, 7960, 24),
                                       ())),
                                     ("5",
                                      ((0.004525, 0.00033558296257873304, 40000, 24),
                                       (0.0433, 0.0010176706939580376, 40000, 24),
                                       (0.1908315565031983, 0.012837331896865178, 938, 24),
                                       (0.2015075376884422, 0.004496264031714856, 7960, 24),
                                       ()))),
 "simulate_non_orthogonal": ((0.207375, 0.0020271576082224623, 40000, 11),
                             (0.116825, 0.0016060782893625668, 40000, 11),
                             (0.2618510158013544, 0.0033448569351293028, 17277, 11),
                             (0.14487960545401798, 0.0026811691594947553, 17235, 11),
                             ()),
 "simulate_per_device_psr": ((0.2510649007890061, 0.0022207608153911565, 19029, 16),
                             (0.1359708820891475, 0.0017690245609273505, 19025, 16)),
 "simulate_tdma": ((0.1312, 0.0013783351056477731, 60000, 12),
                   (0.08315, 0.0011272189089559365, 60000, 12),
                   (0.3974772450369096, 0.004143092487606843, 13953, 12),
                   (0.23402221956755465, 0.003272245918726327, 16742, 12),
                   ()),
 "simulate_tdma_alpha_0": ((0.0, 0.0, 80000, 22),
                           (0.237525, 0.0015046143120382546, 80000, 22),
                           (0.0, 0.0, 19662, 22),
                           (0.2766758213813447, 0.00319043053821744, 19662, 22),
                           ("cs-class-has-zero-slots",)),
 "simulate_tdma_alpha_1": ((0.236225, 0.0015017698087904426, 80000, 23),
                           (0.0, 0.0, 80000, 23),
                           (0.2779191692965489, 0.003196142564267221, 19646, 23),
                           (0.0, 0.0, 19619, 23),
                           ("ncs-class-has-zero-slots",)),
 "simulate_uplink_decode": (0.481425, 0.0024983054802469244, 40000, 15),
 "superposition_exact": (0.27071496189086386,
                         0.1455069733707074,
                         0.3675825146611996,
                         0.19582048623097922),
 "superposition_exact_tdma": (0.0914529068071047,
                              0.21700240691967523,
                              0.2449108107091235,
                              0.4363495450775778),
 "superposition_mc": ((0.27578643470912106, 0.002992561694824768, 45000, 18),
                      (0.14294993995433858, 0.0026206701975356604, 45000, 18),
                      (0.357747760007771, 0.004784849077600639, 42000, 18),
                      (0.19303702494860017, 0.004167024257958975, 42000, 18),
                      ()),
 "superposition_mc_tdma": ((0.09427541533349058, 0.0017169506423406848, 4000, 18),
                           (0.2166897165359804, 0.003764644841303743, 3000, 18),
                           (0.22349601175988787, 0.005799202874664288, 3800, 18),
                           (0.43481925948346967, 0.009574254248353398, 2800, 18),
                           ())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_engine_output_is_pinned(name):
    assert CASES[name]() == EXPECTED[name]


_ERASURE_PINS = {
    "erasure_non_orthogonal_k_inf": _erasure(K=INFINITE_K),
    "erasure_non_orthogonal_k2": _erasure(K=2),
    "erasure_tdma_alpha_0": _erasure(T=3, allocation=Tdma(alpha=0.0)),
    "erasure_tdma_alpha_0.3": _erasure(T=3, allocation=Tdma(alpha=0.3)),
    "erasure_tdma_alpha_1": _erasure(T=3, allocation=Tdma(alpha=1.0)),
}


def test_batches_reproduce_the_pins():
    # one batch per backend, a scenario repeated, gives every evaluator pin
    names = list(_ERASURE_PINS) + ["erasure_tdma_alpha_0.3"]
    got = ae.evaluate_erasure_batch([_ERASURE_PINS[n] for n in names])
    assert [_service(m) for m in got] == [EXPECTED[n] for n in names]
    cfgs = [_SUP, _SUP_TDMA, _SUP]
    for estimator, summary, names in (
        (None, _service, ("superposition_exact", "superposition_exact_tdma")),
        (sp.ConditionedMC(n_alloc_samples=200, seed=18), _metrics,
         ("superposition_mc", "superposition_mc_tdma")),
    ):
        got = ae.evaluate_erasure_batch(cfgs, estimator)
        assert [summary(m) for m in got] == [EXPECTED[n] for n in (*names, names[0])]
