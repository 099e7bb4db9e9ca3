"""Two-hop grant-free slotted-ALOHA performance toolkit.

Analytic (Poisson series) and Monte Carlo throughput / packet-success-rate
evaluation for critical and non-critical services sharing a grant-free
device -> APs -> BS channel, under erasure and Rayleigh-fading links.
"""

from .core import (
    INFINITE_K,
    NON_ORTHOGONAL,
    ErasureParams,
    FadingParams,
    NonOrthogonal,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    SimEstimate,
    SimulatedMetrics,
    Tdma,
)
from .analytic_erasure import benchmark_bound, evaluate_erasure
from .superposition import ConditionedMC, evaluate_superposition
from .sim_erasure import simulate
from .sim_fading import estimate_fading_metrics

__all__ = [
    "INFINITE_K",
    "NON_ORTHOGONAL",
    "ErasureParams",
    "FadingParams",
    "NonOrthogonal",
    "Receiver",
    "ScenarioConfig",
    "ServiceMetrics",
    "SimEstimate",
    "SimulatedMetrics",
    "Tdma",
    "benchmark_bound",
    "evaluate_erasure",
    "ConditionedMC",
    "evaluate_superposition",
    "simulate",
    "estimate_fading_metrics",
]
