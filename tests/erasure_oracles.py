"""Slot-level estimators that only tests use, built on the erasure engine.

Each estimator draws its frames with ``sim_erasure._draw_frames`` on the
engine's own chunks and substreams, so at a given seed it sees exactly the
realization that ``simulate`` sees, and decodes it with the engine's
``_ap_decode`` and ``_decodes``.  ``flat_code_chunk`` is the engine's chunk
as it stood before its state was made compact, kept as a reference.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

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
    _frame_loads,
    _slot_split,
    _uniform_blocks,
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
        busy = np.repeat(np.arange(draws.n_busy.size), draws.n_busy)
        frac = np.bincount(busy, weights=succ, minlength=draws.n_busy.size) / draws.n_busy
        out[(tag, "trials")] = draws.n_busy.size
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


def _flat_arrivals(rng, n_dev: int, L: int, eps1: float, n_slots: int):
    """Unerased access arrivals as ``dev * L + ap`` codes in device order."""
    hits = [np.flatnonzero(b >= eps1) + s * L for s, b in _uniform_blocks(rng, n_dev, L)]
    return np.concatenate(hits) if hits and n_slots else np.zeros(0, np.intp)


def _flat_class(rows: int, L: int, n_dev, busy, row, flat, u):
    """One class's counts, identities and tags from its flat arrival codes,
    with (AP * rows + row) bins and every frame's tagging uniform ``u``."""
    dev = flat // L
    bins = (flat - dev * L) * rows + row[dev]
    counts = np.bincount(bins, minlength=L * rows).reshape(L, rows)
    ids = np.zeros(L * rows, dtype=np.int32)
    ids[bins] = dev + 1
    n_busy = n_dev[busy]
    pick = np.minimum((u[busy] * n_busy).astype(np.int64), n_busy - 1)
    tag = np.cumsum(n_busy) - n_busy + pick
    tag_row = row[tag]
    seen = tag_row < rows
    return SimpleNamespace(
        trials=int(np.count_nonzero(n_dev)), counts=counts, ids=ids.reshape(L, rows),
        tag_row=tag_row[seen], tag_id=tag[seen] + 1,
    )


def flat_code_chunk(job, F: int, rng: np.random.Generator) -> dict:
    """Reference tallies of ``sim_erasure._run_chunk``: the same draws kept
    as int64 ``dev * L + ap`` arrival codes, an (AP * rows) bin array and
    whole F-long counts and tagging uniforms, decoded by the engine's
    ``_decodes``."""
    cfg, k_values = job
    L, T = cfg.L, cfg.T
    eps1, eps2 = cfg.erasure.eps1, cfg.erasure.eps2
    lam_c, lam_n = _frame_loads(cfg)
    cs_T, ncs_T = _slot_split(cfg)
    ncs_base = T - ncs_T if ncs_T > 0 else 0
    n_c = rng.poisson(lam_c, F)
    n_n = rng.poisson(lam_n, F)
    busy_c, busy_n = np.flatnonzero(n_c > 0), np.flatnonzero(n_n > 0)
    cell_c = np.repeat(busy_c, n_c[busy_c]) * T
    cell_n = np.repeat(busy_n, n_n[busy_n]) * T + ncs_base
    if cs_T > 1:
        cell_c = cell_c + rng.integers(0, cs_T, size=cell_c.size)
    if ncs_T > 1:
        cell_n = cell_n + rng.integers(0, ncs_T, size=cell_n.size)
    flat_c = _flat_arrivals(rng, cell_c.size, L, eps1, cs_T)
    flat_n = _flat_arrivals(rng, cell_n.size, L, eps1, ncs_T)

    occupied = np.zeros(F * T, dtype=bool)
    occupied[cell_c[flat_c // L]] = True
    occupied[cell_n[flat_n // L]] = True
    cells = np.flatnonzero(occupied)
    rows = cells.size
    row = np.full(F * T, rows, dtype=np.intp)
    row[cells] = np.arange(rows)
    backhaul = np.empty((L, rows), dtype=bool)
    for start, block in _uniform_blocks(rng, F * T, L):
        lo, hi = np.searchsorted(cells, (start, start + len(block)))
        backhaul[:, lo:hi] = (block[cells[lo:hi] - start] >= eps2).T
    u_c = rng.random(F)
    u_n = rng.random(F)
    cs = _flat_class(rows, L, n_c, busy_c, row[cell_c], flat_c, u_c)
    ncs = _flat_class(rows, L, n_n, busy_n, row[cell_n], flat_n, u_n)

    out = {"cs_trials": cs.trials, "ncs_trials": ncs.trials}
    for ki, (cs_id, ncs_id) in enumerate(_decodes((cs, ncs, backhaul), cfg.receiver, k_values)):
        out[(ki, "cs_slots")] = int(np.count_nonzero(cs_id))
        out[(ki, "ncs_slots")] = int(np.count_nonzero(ncs_id))
        for name, draws, dec_id in (("cs", cs, cs_id), ("ncs", ncs, ncs_id)):
            hit = dec_id[draws.tag_row] == draws.tag_id
            out[(ki, f"{name}_tag_succ")] = int(np.count_nonzero(hit))
    return out
