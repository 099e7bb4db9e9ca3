"""Slot-level Monte Carlo simulation of the two-hop protocol (erasure links).

Independent oracle for the analytic module: frames of T slots, Poisson
device activation, uniform slot choice, i.i.d. access/backhaul erasures,
the three-state AP rule, and the scenario's BS receiver rule (collision or
superposition).  Each chunk of frames is drawn once (``_draw_frames``) and
decoded for every tolerance K asked for, so ``simulate_multi_k`` compares K
values slot by slot; what does not depend on K is decoded once per chunk.
Counting and decoding run on the chunk's occupied cells only, those with
at least one unerased arrival, in (AP, occupied cell) arrays: the BS rule
loops over L contiguous rows.  An AP decodes only a sole arrival, so each
(AP, cell) keeps one arrival's identity, read only where it is alone.  The
uplink and all-device PSR estimators and the comparison of both receivers
on one realization, which only tests use, live in
``tests/erasure_oracles.py`` and draw through the same code.

Determinism contract: results are a pure function of (config, n_frames,
seed).  Frames are processed in fixed-size chunks, each driven by its own
substream derived from the master seed, and all tallies are integers, so
the estimates are bit-identical regardless of how chunks are distributed
over workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Receiver,
    ScenarioConfig,
    SimulatedMetrics,
    Tdma,
    bernoulli_estimate,
    run_chunked,
)

_ID_NONE = 0  # BS/AP "decoded nothing" marker; device ids start at 1


# ============================================================================
#  Engine specification and tally plumbing
# ============================================================================


@dataclass(frozen=True)
class _EngineSpec:
    """Picklable bundle of everything one simulation chunk needs."""

    L: int
    T: int
    eps1: float
    eps2: float
    lam_c: float  # CS devices per frame
    lam_n: float  # NCS devices per frame
    cs_slots: int | None  # TDMA partition size; None = non-orthogonal
    k_values: tuple
    receiver: str


def _chunk_frames(spec: _EngineSpec) -> int:
    """Fixed chunk size derived from the workload, never from worker count."""
    per_frame = max(1.0, (spec.lam_c + spec.lam_n) * spec.L + spec.T * spec.L)
    return int(min(131072, max(256, 6_000_000 // per_frame)))


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
    """Unerased access arrivals as ``dev * L + ap`` in device order; none for
    a class without slots, whose active devices never transmit."""
    hits = [np.flatnonzero(b >= eps1) + s * L for s, b in _uniform_blocks(rng, n_dev, L)]
    return np.concatenate(hits) if hits and n_slots else np.zeros(0, np.intp)


def _class_counts(rows: int, L: int, dev_row, flat):
    """Per-(AP, row) counts and identities of the arrivals ``flat``.

    ``dev_row`` gives each device's row; device i carries the identity
    i + 1.  Where arrivals collide the stored identity is any of theirs:
    it is read only where an arrival is alone.
    """
    dev = flat // L
    bins = (flat - dev * L) * rows + dev_row[dev]  # ap * rows + row
    counts = np.bincount(bins, minlength=L * rows).reshape(L, rows)
    ids = np.zeros(L * rows, dtype=np.int32)  # a chunk holds far fewer than 2**31 devices
    dev += 1
    ids[bins] = dev
    return counts, ids.reshape(L, rows)


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
    the chunk carries the identity i + 1; each frame with at least one
    active device tags one of them uniformly.
    """

    n_dev: np.ndarray  # active devices per frame
    row: np.ndarray  # row of each device's (frame, slot) cell
    counts: np.ndarray  # unerased arrivals per (AP, row)
    ids: np.ndarray  # identity of a sole arrival per (AP, row)
    tag_row: np.ndarray  # row of each tagged device that sits in an occupied cell
    tag_id: np.ndarray  # identity of each of those devices


def _class_draws(n_dev, busy, row, counts, ids, u) -> _ClassDraws:
    # The tagging uniform is drawn for every frame, busy or not, so the
    # stream does not depend on the load; only the busy frames tag.
    n_busy = n_dev[busy]
    pick = np.minimum((u[busy] * n_busy).astype(np.int64), n_busy - 1)
    tag = np.cumsum(n_busy) - n_busy + pick
    tag_row = row[tag]
    # A tagged device in an empty cell (the sentinel row) fails for every
    # K, so only those in occupied cells are looked up.
    seen = tag_row < counts.shape[1]
    return _ClassDraws(n_dev, row, counts, ids, tag_row[seen], tag[seen] + 1)


def _cells(rng: np.random.Generator, n_dev, busy, T: int, first: int, n_slots: int):
    """Each device's (frame, slot) cell; a class with one slot or none sits in ``first``."""
    cell = np.repeat(busy, n_dev[busy]) * T + first
    return cell + rng.integers(0, n_slots, size=cell.size) if n_slots > 1 else cell


def _draw_frames(spec: _EngineSpec, F: int, rng: np.random.Generator):
    """F frames as ``(cs, ncs, backhaul)``: the two classes' ``_ClassDraws``
    and the backhaul successes per (AP, row), none of which depends on K
    or on the BS receiver.
    """
    L, T = spec.L, spec.T
    cs_T = spec.cs_slots if spec.cs_slots is not None else T
    ncs_T = (T - spec.cs_slots) if spec.cs_slots is not None else T
    # NCS slots follow the CS ones.  A class without slots is silenced
    # below; its devices sit in slot 0 so every cell index stays in range.
    ncs_base = T - ncs_T if ncs_T > 0 else 0

    # Fixed draw order: counts, slot choices, access erasures, backhaul
    # erasures, tagging uniforms.
    n_c = rng.poisson(spec.lam_c, F)
    n_n = rng.poisson(spec.lam_n, F)
    busy_c, busy_n = np.flatnonzero(n_c > 0), np.flatnonzero(n_n > 0)
    cell_c = _cells(rng, n_c, busy_c, T, 0, cs_T)
    cell_n = _cells(rng, n_n, busy_n, T, ncs_base, ncs_T)
    flat_c = _arrivals(rng, cell_c.size, L, spec.eps1, cs_T)
    flat_n = _arrivals(rng, cell_n.size, L, spec.eps1, ncs_T)

    occupied = np.zeros(F * T, dtype=bool)
    occupied[cell_c[flat_c // L]] = True
    occupied[cell_n[flat_n // L]] = True
    cells = np.flatnonzero(occupied)
    rows = cells.size
    row = np.full(F * T, rows, dtype=np.intp)  # empty cells: the sentinel row
    row[cells] = np.arange(rows)
    row_c, row_n = row[cell_c], row[cell_n]
    del occupied, row, cell_c, cell_n  # freed before the counts allocate

    # The backhaul is drawn for every cell and kept for the occupied ones;
    # np.take gathers rows faster than fancy indexing does.
    backhaul = np.empty((L, rows), dtype=bool)
    for start, block in _uniform_blocks(rng, F * T, L):
        lo, hi = np.searchsorted(cells, (start, start + len(block)))
        backhaul[:, lo:hi] = (np.take(block, cells[lo:hi] - start, axis=0) >= spec.eps2).T
    u_c = rng.random(F)
    u_n = rng.random(F)

    cs = _class_draws(n_c, busy_c, row_c, *_class_counts(rows, L, row_c, flat_c), u_c)
    del flat_c
    ncs = _class_draws(n_n, busy_n, row_n, *_class_counts(rows, L, row_n, flat_n), u_n)
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


def _run_chunk(spec: _EngineSpec, F: int, rng: np.random.Generator) -> dict:
    frames = _draw_frames(spec, F, rng)
    cs, ncs, _ = frames
    out = {"cs_trials": int(np.count_nonzero(cs.n_dev))}
    out["ncs_trials"] = int(np.count_nonzero(ncs.n_dev))
    for ki, (cs_id, ncs_id) in enumerate(_decodes(frames, spec.receiver, spec.k_values)):
        out[(ki, "cs_slots")] = int(np.count_nonzero(cs_id))
        out[(ki, "ncs_slots")] = int(np.count_nonzero(ncs_id))
        out[(ki, "cs_tag_succ")] = _tagged_successes(cs, cs_id)
        out[(ki, "ncs_tag_succ")] = _tagged_successes(ncs, ncs_id)
    return out


def _run_engine(chunk_fn, spec: _EngineSpec, n_frames: int, seed: int, workers: int) -> dict:
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    return run_chunked(chunk_fn, spec, n_frames, _chunk_frames(spec), seed, workers)


# ============================================================================
#  Public simulation operations
# ============================================================================


def _spec_from_config(cfg: ScenarioConfig, k_values) -> _EngineSpec:
    e = cfg.erasure
    if isinstance(cfg.allocation, Tdma):
        cs_slots = int(np.floor(cfg.allocation.alpha * cfg.T + 0.5))
    else:
        cs_slots = None
    return _EngineSpec(
        L=cfg.L,
        T=cfg.T,
        eps1=e.eps1,
        eps2=e.eps2,
        lam_c=cfg.gamma_c * cfg.G,
        lam_n=(1.0 - cfg.gamma_c) * cfg.G,
        cs_slots=cs_slots,
        k_values=tuple(k_values),
        receiver=cfg.receiver,
    )


def _metrics_from_tallies(
    tallies: dict, spec: _EngineSpec, n_frames: int, seed: int, ki: int
) -> SimulatedMetrics:
    n_slots = n_frames * spec.T
    flags = []
    if spec.cs_slots == 0 and spec.lam_c > 0:
        flags.append("cs-class-has-zero-slots")
    if spec.cs_slots is not None and spec.cs_slots == spec.T and spec.lam_n > 0:
        flags.append("ncs-class-has-zero-slots")
    return SimulatedMetrics(
        R_c=bernoulli_estimate(tallies[(ki, "cs_slots")], n_slots, seed),
        R_cbar=bernoulli_estimate(tallies[(ki, "ncs_slots")], n_slots, seed),
        Gamma_c=bernoulli_estimate(tallies[(ki, "cs_tag_succ")], tallies["cs_trials"], seed),
        Gamma_cbar=bernoulli_estimate(tallies[(ki, "ncs_tag_succ")], tallies["ncs_trials"], seed),
        flags=tuple(flags),
    )


def simulate(cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1) -> SimulatedMetrics:
    """Frame-level Monte Carlo metrics under either allocation.

    Throughput estimates count BS decodes per slot; packet success rates
    tag one uniformly chosen active device per class per frame.  Under
    ``Tdma(alpha)`` the CS class contends over the first
    ``floor(alpha * T + 0.5)`` slots of each frame and the NCS class over
    the rest.
    """
    spec = _spec_from_config(cfg, (cfg.K,))
    tallies = _run_engine(_run_chunk, spec, n_frames, seed, workers)
    return _metrics_from_tallies(tallies, spec, n_frames, seed, 0)


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
    spec = _spec_from_config(cfg, k_values)
    tallies = _run_engine(_run_chunk, spec, n_frames, seed, workers)
    return {
        k: _metrics_from_tallies(tallies, spec, n_frames, seed, ki)
        for ki, k in enumerate(k_values)
    }
