"""Monte Carlo engine for the Rayleigh-fading two-hop model.

Per slot: Poisson traffic for both classes, i.i.d. circularly-symmetric
complex Gaussian access gains per (AP, message) and backhaul gains per AP.
Each AP attempts only the max-SINR message and decodes it when the SINR
clears the Shannon threshold 2**rate - 1 of that message's class; APs
holding the same message add coherently at the BS, which again attempts
only the max-SINR message.  Throughput counts BS decodes per class per
slot; the packet success rate conditions on at least one active device of
the class and tracks the class's first message.

Within a chunk, the slots that share message counts (n_c, n_cbar) are
decoded together, one ``ap_decode`` and one ``bs_decode`` call per pair.

Determinism mirrors ``sim_erasure``: fixed-size slot chunks with per-chunk
substreams and integer tallies, so results do not depend on worker count.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FadingParams,
    NonOrthogonal,
    ScenarioConfig,
    SimulatedMetrics,
    chunk_items,
    metrics_from_tallies,
    run_chunked,
)


# ============================================================================
#  Decode rules
# ============================================================================


def _winner(rx: np.ndarray, n_c: int, fading: FadingParams, present=None) -> np.ndarray:
    """Index (1-based, 0 = none) of the max-SINR message over the last axis
    of the received powers ``rx`` when its SINR clears its class's threshold
    2**rate - 1.  At a fixed total, SINR grows with the received power, so
    that message is the strongest one; ties go to the lowest index, and
    where ``present`` is False a message never wins.  The test is
    rx >= threshold * (1 + the sum of the other messages), which takes no
    difference of large powers.
    """
    score = rx if present is None else np.where(present, rx, -1.0)
    best = np.argmax(score, axis=-1)[..., None]  # first occurrence wins ties
    others = np.where(np.arange(rx.shape[-1]) == best, 0.0, rx).sum(axis=-1)
    msg = best[..., 0] + 1  # messages are 1-based, CS first
    threshold = np.where(msg <= n_c, 2.0**fading.r_c - 1.0, 2.0**fading.r_cbar - 1.0)
    ok = np.take_along_axis(score, best, axis=-1)[..., 0] >= threshold * (1.0 + others)
    return np.where(ok, msg, 0)


def ap_decode(gains: np.ndarray, n_c: int, fading: FadingParams) -> np.ndarray:
    """Decoded message index per AP (0 = none) from access gains.

    ``gains`` has shape (..., L, M) with M = n_c + n_cbar messages, CS
    first.  Each AP considers only its max-SINR message (ties go to the
    lowest index, a probability-zero event under continuous fading) and
    decodes when SINR >= 2**rate - 1 for that message's class.
    """
    gains = np.asarray(gains)
    m_total = gains.shape[-1]
    if m_total == 0:
        return np.zeros(gains.shape[:-1], dtype=np.int64)
    power = np.where(np.arange(1, m_total + 1) <= n_c, fading.P_c, fading.P_cbar)
    return _winner(np.abs(gains) ** 2 * power, n_c, fading)


def bs_decode(
    decoded: np.ndarray, g: np.ndarray, n_c: int, fading: FadingParams
) -> np.ndarray:
    """Decoded message index at the BS (0 = none).

    ``decoded`` holds the per-AP message indices from ``ap_decode``, shape
    (L,) for the whole batch or (..., L) with one row per slot; ``g`` the
    backhaul gains, shape (..., L).  APs relaying the same message combine
    coherently.  A message no AP relayed adds no interference and never
    wins; ties go to the lowest index.
    """
    decoded = np.asarray(decoded)
    g = np.asarray(g)
    # candidates 1..max (at least one, so _winner's argmax is defined)
    msgs = np.arange(1, max(int(decoded.max(initial=0)), 1) + 1)
    masks = decoded[..., None, :] == msgs[:, None]  # (..., n_msgs, L)
    coherent = np.where(masks, g[..., None, :], 0).sum(axis=-1)
    rx = np.abs(coherent) ** 2 * np.where(msgs <= n_c, fading.P_c_ap, fading.P_cbar_ap)
    return _winner(rx, n_c, fading, present=masks.any(axis=-1))


# ============================================================================
#  Slot-level engine
# ============================================================================


def _chunk_slots(cfg: ScenarioConfig) -> int:
    """Fixed chunk size derived from the workload, never from worker count:
    ``chunk_items`` of a slot's access gains and backhaul gains."""
    return chunk_items((cfg.cs_slot_load + cfg.ncs_slot_load + 1.0) * cfg.L, 16384)


def _complex_normal(rng, shape, variance) -> np.ndarray:
    scale = math.sqrt(variance / 2.0)
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return scale * (re + 1j * im)


def _run_fading_chunk(cfg: ScenarioConfig, S: int, rng: np.random.Generator) -> dict:
    L, fading = cfg.L, cfg.fading
    # Fixed draw order: counts, access gains, backhaul gains.
    n_c = rng.poisson(cfg.cs_slot_load, S).astype(np.int64)
    n_n = rng.poisson(cfg.ncs_slot_load, S).astype(np.int64)
    n_tot = n_c + n_n
    h = _complex_normal(rng, (int(n_tot.sum()), L), fading.alpha2)
    g = _complex_normal(rng, (S, L), fading.beta2)

    # One decode per distinct (n_c, n_cbar) pair over all slots that share it.
    starts = np.cumsum(n_tot) - n_tot
    key = n_c * (int(n_n.max()) + 1) + n_n
    order = np.argsort(key)
    groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1)
    winner = np.zeros(S, dtype=np.int64)
    for idx in groups:
        nc, m = int(n_c[idx[0]]), int(n_tot[idx[0]])
        # (B, L, M), CS messages first; each slot keeps the layout of h[a:b].T
        gains = h[starts[idx][:, None] + np.arange(m)].transpose(0, 2, 1)
        decoded = ap_decode(gains, nc, fading)
        winner[idx] = bs_decode(decoded, g[idx], nc, fading)

    cs_won = (winner >= 1) & (winner <= n_c)
    return {
        "cs_slots": int(cs_won.sum()),
        "ncs_slots": int((winner > n_c).sum()),
        # with n_c == 0, message 1 is the tagged NCS message
        "cs_tag_succ": int((cs_won & (winner == 1)).sum()),
        "cs_trials": int((n_c >= 1).sum()),
        "ncs_tag_succ": int((winner == n_c + 1).sum()),
        "ncs_trials": int((n_n >= 1).sum()),
    }


def estimate_fading_metrics(
    cfg: ScenarioConfig, n_slots: int, seed: int, workers: int = 1
) -> SimulatedMetrics:
    """Throughput and PSR estimates for a fading scenario.

    PSR conditions on slots with at least one active device of the class
    and scores its first message, matching the analytic conditioning.
    """
    if not isinstance(cfg.allocation, NonOrthogonal):
        raise ValueError("fading simulation supports non-orthogonal allocation only")
    totals = run_chunked(_run_fading_chunk, cfg, n_slots, _chunk_slots(cfg), seed, workers)
    return metrics_from_tallies(totals, n_slots, seed)
