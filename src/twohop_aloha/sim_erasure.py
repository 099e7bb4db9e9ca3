"""Slot-level Monte Carlo simulation of the two-hop protocol (erasure links).

Independent oracle for the analytic module: frames of T slots, Poisson
device activation, uniform slot choice, i.i.d. access/backhaul erasures,
the three-state AP rule, and the scenario's BS receiver rule (collision or
superposition).  Each chunk of frames is drawn once (``_draw_frames``) and
decoded for every tolerance K asked for, so ``simulate_multi_k`` compares K
values slot by slot; what does not depend on K is decoded once per chunk.
Counting and decoding run on the chunk's occupied cells only, those with
at least one unerased arrival, in (AP, occupied cell) arrays: the BS rule
loops over L contiguous rows.  The chunk's state is compact: int32
indices, arrivals as one device list per AP, and only the busy frames'
counts and tags, about 5 B per expected draw at high loads.  The uplink
and all-device PSR estimators and the comparison of both receivers on one
realization, which only tests use, live in ``tests/erasure_oracles.py``
and draw through the same code.

Determinism contract: results are a pure function of (config, n_frames,
seed).  Frames are processed in fixed-size chunks, each driven by its own
substream derived from the master seed, and all tallies are integers, so
the estimates are bit-identical regardless of how chunks are distributed
over workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Receiver,
    ScenarioConfig,
    SimulatedMetrics,
    Tdma,
    chunk_items,
    metrics_from_tallies,
    run_chunked,
)

_ID_NONE = 0  # BS/AP "decoded nothing" marker; device ids start at 1


# ============================================================================
#  What a chunk reads from the scenario
# ============================================================================


def _frame_loads(cfg: ScenarioConfig) -> tuple[float, float]:
    """Mean CS and NCS devices per frame."""
    return cfg.gamma_c * cfg.G, (1.0 - cfg.gamma_c) * cfg.G


def _slot_split(cfg: ScenarioConfig) -> tuple[int, int]:
    """Slots of a frame open to the CS and to the NCS class: all T to both
    under non-orthogonal sharing; under ``Tdma(alpha)`` the first
    ``floor(alpha * T + 0.5)`` to CS and the rest to NCS.
    """
    if isinstance(cfg.allocation, Tdma):
        cs_T = math.floor(cfg.allocation.alpha * cfg.T + 0.5)
        return cs_T, cfg.T - cs_T
    return cfg.T, cfg.T


def _chunk_frames(cfg: ScenarioConfig) -> int:
    """Fixed chunk size derived from the workload, never from worker count:
    ``chunk_items`` of a frame's device-AP and backhaul draws."""
    lam_c, lam_n = _frame_loads(cfg)
    return chunk_items((lam_c + lam_n) * cfg.L + cfg.T * cfg.L, 131072)


_UNIFORM_ROWS = 1 << 13  # rows of one block of blocked uniform draws


def _uniform_blocks(rng: np.random.Generator, n: int, L: int):
    """``rng.random((n, L))`` as ``(first_row, block)`` pairs of at most
    ``_UNIFORM_ROWS`` rows, each valid until the next is drawn into the one
    buffer.  Each value takes one 64-bit output, so the values and the
    generator state afterwards are those of the one large draw.
    """
    buf = np.empty((min(n, _UNIFORM_ROWS), L))
    for start in range(0, n, _UNIFORM_ROWS):
        block = buf[: min(_UNIFORM_ROWS, n - start)]
        rng.random(out=block)
        yield start, block


def _arrivals(rng: np.random.Generator, n_dev: int, L: int, eps1: float, n_slots: int):
    """Unerased access arrivals as one sorted int32 device list per AP; none
    for a class without slots, whose active devices never transmit."""
    eps1 = eps1 if n_slots else np.inf
    hits = [[np.zeros(0, np.int32)] for _ in range(L)]
    for start, b in _uniform_blocks(rng, n_dev, L):
        at = np.flatnonzero(b.T >= eps1).astype(np.int32)  # ap * len(b) + device
        cut = np.searchsorted(at, np.arange(L + 1) * len(b))
        for ap in range(L):
            hits[ap].append(at[cut[ap] : cut[ap + 1]] + (start - ap * len(b)))
    return [np.concatenate(h) for h in hits]


def _class_counts(rows: int, dev_row, arrivals):
    """Per-(AP, row) counts and identities of the per-AP device lists
    ``arrivals``; ``dev_row`` gives each device's row.

    Device i carries the identity i + 1.  An AP decodes only a sole
    arrival, so where arrivals collide the stored identity is any of theirs.
    """
    counts = np.empty((len(arrivals), rows), dtype=np.int32)
    ids = np.zeros((len(arrivals), rows), dtype=np.int32)
    for ap, dev in enumerate(arrivals):
        r = dev_row[dev]
        counts[ap] = np.bincount(r, minlength=rows)
        ids[ap, r] = dev + 1
    return counts, ids


def _ap_decode(counts_c, counts_n):
    """(AP, row) decodes under the three-state AP rule, before the K budget:
    an AP decodes a CS packet iff exactly one CS copy arrives and at most K
    NCS copies do; an NCS packet iff exactly one NCS copy and no CS copy
    arrive; otherwise it stays silent.
    """
    return counts_c == 1, (counts_n == 1) & (counts_c == 0)


def _bs_class(receiver: str, dels, ids):
    """Per-row deliveries ``dels`` of one class and the identity the BS
    decodes (``_ID_NONE`` for none): the collision receiver needs exactly one
    delivery, the superposition receiver at least one, all of one message.
    """
    n = np.zeros(dels.shape[1], dtype=np.min_scalar_type(len(dels)))
    got = np.zeros(dels.shape[1], dtype=ids.dtype)  # largest delivered identity
    clash = np.zeros(dels.shape[1], dtype=bool)
    for d, v in zip(dels, ids):  # the L contiguous AP rows
        n += d
        if receiver == Receiver.SUPERPOSITION:
            clash |= d & (got != _ID_NONE) & (got != v)
        np.maximum(got, v * d, out=got)
    if receiver == Receiver.COLLISION:
        clash = n != 1
    return n, np.where(clash, _ID_NONE, got)


@dataclass(frozen=True)
class _ClassDraws:
    """One class's devices in a chunk of frames and what reaches the APs.

    Only the occupied cells, those with at least one unerased arrival of
    either class, get a row; the rows follow the cells' order, and every
    empty cell maps to the sentinel row, one past the last.  Device i of
    the chunk carries the identity i + 1; each busy frame, one with at
    least one active device, tags one of them uniformly.  Indices are
    int32, and nothing F-long outlives the draws.
    """

    n_busy: np.ndarray  # active devices of each busy frame, in frame order
    row: np.ndarray  # row of each device's (frame, slot) cell
    counts: np.ndarray  # unerased arrivals per (AP, row)
    ids: np.ndarray  # identity of a sole arrival per (AP, row)
    tag_row: np.ndarray  # row of each tagged device that sits in an occupied cell
    tag_id: np.ndarray  # identity of each of those devices


def _class_draws(n_busy, row, counts, ids, u) -> _ClassDraws:
    pick = np.minimum((u * n_busy).astype(np.int32), n_busy - 1)
    tag = np.cumsum(n_busy, dtype=np.int32) - n_busy + pick
    tag_row = row[tag]
    # A tagged device in an empty cell (the sentinel row) fails for every
    # K, so only those in occupied cells are looked up.
    seen = tag_row < counts.shape[1]
    return _ClassDraws(n_busy, row, counts, ids, tag_row[seen], tag[seen] + 1)


def _cells(rng: np.random.Generator, n_busy, busy, T: int, first: int, n_slots: int):
    """Each device's (frame, slot) cell; a class with one slot or none sits in ``first``."""
    cell = np.repeat((busy * T + first).astype(np.int32), n_busy)
    return cell + rng.integers(0, n_slots, size=cell.size, dtype=np.int32) if n_slots > 1 else cell


def _busy_uniforms(rng: np.random.Generator, F: int, busy):
    """``rng.random(F)[busy]`` for the sorted frames ``busy``, drawn in
    ``_uniform_blocks`` blocks: the stream does not depend on the load."""
    u = np.empty(busy.size)
    for start, block in _uniform_blocks(rng, F, 1):
        lo, hi = np.searchsorted(busy, (start, start + len(block)))
        u[lo:hi] = block[busy[lo:hi] - start, 0]
    return u


def _draw_frames(cfg: ScenarioConfig, F: int, rng: np.random.Generator):
    """F frames as ``(cs, ncs, backhaul)``: the two classes' ``_ClassDraws``
    and the backhaul successes per (AP, row), none of which depends on K
    or on the BS receiver.
    """
    L, T = cfg.L, cfg.T
    eps1, eps2 = cfg.erasure.eps1, cfg.erasure.eps2
    lam_c, lam_n = _frame_loads(cfg)
    cs_T, ncs_T = _slot_split(cfg)
    # NCS slots follow the CS ones.  A class without slots is silenced
    # below; its devices sit in slot 0 so every cell index stays in range.
    ncs_base = T - ncs_T if ncs_T > 0 else 0

    # Fixed draw order: counts, slot choices, access erasures, backhaul
    # erasures, tagging uniforms.  Cells, devices and rows fit in int32: a
    # chunk holds at most max(CHUNK_DRAWS, MAX_ITEM_DRAWS) = 2**26 expected
    # draws, so F * T and the devices stay far below 2**31.
    n_c = rng.poisson(lam_c, F)
    n_n = rng.poisson(lam_n, F)
    busy_c, busy_n = np.flatnonzero(n_c > 0), np.flatnonzero(n_n > 0)
    n_c, n_n = n_c[busy_c].astype(np.int32), n_n[busy_n].astype(np.int32)
    cell_c = _cells(rng, n_c, busy_c, T, 0, cs_T)
    cell_n = _cells(rng, n_n, busy_n, T, ncs_base, ncs_T)
    arr_c = _arrivals(rng, cell_c.size, L, eps1, cs_T)
    arr_n = _arrivals(rng, cell_n.size, L, eps1, ncs_T)

    occupied = np.zeros(F * T, dtype=bool)
    for cell, arr in ((cell_c, arr_c), (cell_n, arr_n)):
        for dev in arr:
            occupied[cell[dev]] = True
    cells = np.flatnonzero(occupied)
    rows = cells.size
    row = np.full(F * T, rows, dtype=np.int32)  # empty cells: the sentinel row
    row[cells] = np.arange(rows, dtype=np.int32)
    row_c, row_n = row[cell_c], row[cell_n]
    del occupied, row, cell_c, cell_n  # freed before the counts allocate

    # The backhaul is drawn for every cell and kept for the occupied ones;
    # np.take gathers rows faster than fancy indexing does.
    backhaul = np.empty((L, rows), dtype=bool)
    for start, block in _uniform_blocks(rng, F * T, L):
        lo, hi = np.searchsorted(cells, (start, start + len(block)))
        backhaul[:, lo:hi] = (np.take(block, cells[lo:hi] - start, axis=0) >= eps2).T
    del cells
    u_c = _busy_uniforms(rng, F, busy_c)
    u_n = _busy_uniforms(rng, F, busy_n)

    cs = _class_draws(n_c, row_c, *_class_counts(rows, row_c, arr_c), u_c)
    del arr_c
    ncs = _class_draws(n_n, row_n, *_class_counts(rows, row_n, arr_n), u_n)
    return cs, ncs, backhaul


def _decodes(frames, receiver: str, k_values):
    """Per-row BS identities ``(cs_id, ncs_id)`` of drawn frames, one pair
    per K.  A CS decode also needs at most K NCS deliveries, an NCS decode
    none of the CS class; what does not depend on K is decoded once.
    """
    cs, ncs, backhaul = frames
    cs_dec, ncs_dec = _ap_decode(cs.counts, ncs.counts)
    cs_dec &= backhaul
    n_ncs, ncs_id = _bs_class(receiver, ncs_dec & backhaul, ncs.ids)
    for K in k_values:
        n_cs, cs_id = _bs_class(receiver, cs_dec & (ncs.counts <= K), cs.ids)
        yield np.where(n_ncs <= K, cs_id, _ID_NONE), np.where(n_cs == 0, ncs_id, _ID_NONE)


def _tagged_successes(draws: _ClassDraws, dec_id) -> int:
    return int(np.count_nonzero(dec_id[draws.tag_row] == draws.tag_id))


def _run_chunk(job, F: int, rng: np.random.Generator) -> dict:
    cfg, k_values = job
    frames = _draw_frames(cfg, F, rng)
    cs, ncs, _ = frames
    out = {"cs_trials": cs.n_busy.size, "ncs_trials": ncs.n_busy.size}
    for ki, (cs_id, ncs_id) in enumerate(_decodes(frames, cfg.receiver, k_values)):
        out[(ki, "cs_slots")] = int(np.count_nonzero(cs_id))
        out[(ki, "ncs_slots")] = int(np.count_nonzero(ncs_id))
        out[(ki, "cs_tag_succ")] = _tagged_successes(cs, cs_id)
        out[(ki, "ncs_tag_succ")] = _tagged_successes(ncs, ncs_id)
    return out


# ============================================================================
#  Public simulation operations
# ============================================================================


def simulate(cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1) -> SimulatedMetrics:
    """Frame-level Monte Carlo metrics under either allocation:
    ``simulate_multi_k`` at the scenario's one K.

    Throughput estimates count BS decodes per slot; packet success rates
    tag one uniformly chosen active device per class per frame.  Under
    ``Tdma(alpha)`` the CS class contends over the first
    ``floor(alpha * T + 0.5)`` slots of each frame and the NCS class over
    the rest.
    """
    return simulate_multi_k(cfg, (cfg.K,), n_frames, seed, workers)[cfg.K]


def simulate_multi_k(
    cfg: ScenarioConfig,
    k_values,
    n_frames: int,
    seed: int,
    workers: int = 1,
) -> dict:
    """Metrics for several tolerance values on one shared realization.

    The traffic and erasure draws do not depend on K, so evaluating many K
    values per realization is both cheaper and variance-coupled.  Returns
    {K: SimulatedMetrics}.
    """
    tallies = run_chunked(_run_chunk, (cfg, k_values), n_frames, _chunk_frames(cfg), seed, workers)
    lam_c, lam_n = _frame_loads(cfg)
    cs_T, ncs_T = _slot_split(cfg)
    flags = []
    if cs_T == 0 and lam_c > 0:
        flags.append("cs-class-has-zero-slots")
    if ncs_T == 0 and lam_n > 0:
        flags.append("ncs-class-has-zero-slots")
    per_k = ("cs_slots", "ncs_slots", "cs_tag_succ", "ncs_tag_succ")
    return {
        k: metrics_from_tallies(
            tallies | {name: tallies[(ki, name)] for name in per_k},
            n_frames * cfg.T, seed, flags,
        )
        for ki, k in enumerate(k_values)
    }
