"""Identities between the evaluator paths, held at 1e-12 relative.

Where two paths of the planner must give the same numbers, each checks the
other without a high-precision oracle.  Values below 1e-300 are held to
that absolute floor instead.
"""

import itertools
import math

import pytest

from twohop_aloha.analytic_erasure import evaluate_erasure_batch
from twohop_aloha.core import INFINITE_K, ErasureParams, Receiver, ScenarioConfig

_METRICS = ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar")


def _gaps(cfgs, ours, theirs) -> list:
    """``(cfg, metric, ours, theirs)`` of each value the two paths give apart."""
    return [
        (cfg, m, getattr(a, m), getattr(b, m))
        for cfg, a, b in zip(cfgs, ours, theirs)
        for m in _METRICS
        if not math.isclose(getattr(a, m), getattr(b, m), rel_tol=1e-12, abs_tol=1e-300)
    ]


@pytest.mark.parametrize("K", [0, 2, pytest.param(INFINITE_K, marks=pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: at K = inf the collision side sums a relative-truncation "
    "series and the superposition side cuts its grid at an absolute tail mass; they "
    "differ by up to 4.0e-9 (R_c at G = 1e-3, gamma_c = 0.1, eps = (0.9, 0.2))",
))])
def test_with_one_ap_the_two_receivers_agree(K):
    # one AP forwards at most one copy of each message, so the superposition
    # receiver has no copies to combine and decodes as the collision receiver
    cfgs = [
        ScenarioConfig(L=1, T=1, G=G, gamma_c=gamma_c, channel=ErasureParams(eps1, eps2), K=K)
        for G, gamma_c, eps1, eps2 in itertools.product(
            (1e-3, 0.5, 3.0, 20.0), (0.1, 0.4, 0.9), (0.0, 0.3, 0.9, 1.0), (0.0, 0.2, 1.0))
    ]
    collision = evaluate_erasure_batch(cfgs)
    superposed = evaluate_erasure_batch([c.replace(receiver=Receiver.SUPERPOSITION) for c in cfgs])
    assert _gaps(cfgs, collision, superposed) == []
