"""Slot-level estimators that only tests use, built on the erasure engine.

Each estimator draws its frames with ``sim_erasure._draw_frames`` on the
engine's own chunks and substreams, so at a given seed it sees exactly the
realization that ``simulate`` sees, and decodes it with the engine's
``_ap_decode`` and ``_decodes``.
"""

from __future__ import annotations

import math

import numpy as np

from twohop_aloha.core import (
    Receiver,
    ScenarioConfig,
    SimEstimate,
    bernoulli_estimate,
    run_chunked,
)
from twohop_aloha.sim_erasure import (
    _ID_NONE,
    _ap_decode,
    _chunk_frames,
    _decodes,
    _draw_frames,
)


def _decode(frames, receiver: str, K):
    """Per-row BS decodes ``(cs_ok, cs_id, ncs_ok, ncs_id)`` of drawn frames."""
    ((cs_id, ncs_id),) = _decodes(frames, receiver, (K,))
    return cs_id != _ID_NONE, cs_id, ncs_id != _ID_NONE, ncs_id


def _uplink_chunk(cfg, F, rng) -> dict:
    cs, ncs, _ = _draw_frames(cfg, F, rng)
    cs_dec, _ = _ap_decode(cs.counts, ncs.counts)
    cs_dec &= ncs.counts <= cfg.K
    return {"succ": int(cs_dec.any(axis=0).sum())}


def simulate_uplink_decode(
    cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1
) -> SimEstimate:
    """P(at least one AP decodes a CS packet in a slot), estimated per slot."""
    tallies = run_chunked(_uplink_chunk, cfg, n_frames, _chunk_frames(cfg), seed, workers)
    return bernoulli_estimate(tallies["succ"], n_frames * cfg.T, seed)


def _device_psr_chunk(cfg, F, rng) -> dict:
    frames = _draw_frames(cfg, F, rng)
    _, cs_id, _, ncs_id = _decode(frames, cfg.receiver, cfg.K)
    out = {}
    for tag, draws, dec_id in (("cs", frames[0], cs_id), ("ncs", frames[1], ncs_id)):
        ids = np.arange(1, draws.row.size + 1, dtype=np.int64)
        # a device in an empty cell maps to the sentinel row, which decodes nothing
        succ = (np.append(dec_id, _ID_NONE)[draws.row] == ids).astype(np.int64)
        frame = np.repeat(np.arange(F), draws.n_dev)
        per_frame = np.bincount(frame, weights=succ, minlength=F)
        active = draws.n_dev >= 1
        frac = per_frame[active] / draws.n_dev[active]
        out[(tag, "trials")] = int(active.sum())
        out[(tag, "sum")] = float(frac.sum())
        out[(tag, "sumsq")] = float((frac**2).sum())
    return out


def simulate_per_device_psr(
    cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1
) -> tuple[SimEstimate, SimEstimate]:
    """All-active-device PSR (consistency oracle for the tagging estimator).

    Every active device of a frame is scored and averaged within the frame;
    frames are then averaged equally, the estimand the one-tagged-device
    estimator samples without bias.
    """
    tallies = run_chunked(_device_psr_chunk, cfg, n_frames, _chunk_frames(cfg), seed, workers)

    def estimate(tag: str) -> SimEstimate:
        n = tallies[(tag, "trials")]
        if n == 0:
            return SimEstimate(mean=0.0, std_error=0.0, n_samples=0, seed=seed)
        mean = tallies[(tag, "sum")] / n
        var = max(tallies[(tag, "sumsq")] / n - mean**2, 0.0)
        se = math.sqrt(var / (n - 1)) if n > 1 else 0.0
        return SimEstimate(mean=mean, std_error=se, n_samples=n, seed=seed)

    return estimate("cs"), estimate("ncs")


def _coupled_chunk(cfg, F, rng) -> dict:
    frames = _draw_frames(cfg, F, rng)
    coll = _decode(frames, Receiver.COLLISION, cfg.K)
    sup = _decode(frames, Receiver.SUPERPOSITION, cfg.K)
    return {"violations": int(np.sum(coll[0] & ~sup[0]) + np.sum(coll[2] & ~sup[2]))}


def coupled_compare(cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1) -> int:
    """Count slots where the collision receiver succeeds but superposition fails.

    Both BS rules are evaluated on identical realizations; by success-event
    inclusion the count must be zero.
    """
    tallies = run_chunked(_coupled_chunk, cfg, n_frames, _chunk_frames(cfg), seed, workers)
    return tallies["violations"]
