"""Slot-level Monte Carlo simulation of the two-hop protocol (erasure links).

Independent oracle for the analytic module: frames of T slots, Poisson
device activation, uniform slot choice, i.i.d. access/backhaul erasures,
the three-state AP rule, and the scenario's BS receiver rule (collision or
superposition).  Each chunk of frames is drawn once (``_draw_frames``) and
decoded for every tolerance K asked for, so ``simulate_multi_k`` compares K
values slot by slot; ``coupled_compare`` decodes one realization with both
receivers.  Counting and decoding run on the chunk's occupied cells only,
those with at least one unerased arrival: an empty cell decodes nothing,
so at low loads most of a chunk is never decoded.  The uplink and
all-device PSR estimators, which only tests use, live in
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
    Tolerance,
    bernoulli_estimate,
    is_infinite,
    run_chunked,
)

_ID_NONE = 0  # BS/AP "decoded nothing" marker; device ids start at 1
_BIG = np.int64(2**62)


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


def _class_counts(rows: int, L: int, dev_row, flat):
    """Per-(row, AP) unerased-arrival counts and decoded-identity sums.

    ``flat`` lists the unerased arrivals in device order as ``dev * L + ap``
    and ``dev_row`` gives each device's row; device i carries the identity
    i + 1.  Each bin sums its identities in device order.
    """
    dev = flat // L
    bins = flat + (dev_row[dev] - dev) * L  # row * L + ap
    counts = np.bincount(bins, minlength=rows * L).reshape(rows, L)
    idsum = np.bincount(bins, weights=dev + 1.0, minlength=rows * L).astype(np.int64)
    return counts, idsum.reshape(rows, L)


def _ap_decode(counts_c, counts_n, K: Tolerance):
    """Per-(cell, AP) CS and NCS decodes under the three-state AP rule.

    An AP decodes a CS packet iff exactly one CS copy arrives and at most K
    NCS copies do; an NCS packet iff exactly one NCS copy and no CS copy
    arrive; otherwise it stays silent.
    """
    within_budget = True if is_infinite(K) else counts_n <= K
    cs_dec = (counts_c == 1) & within_budget
    ncs_dec = (counts_n == 1) & (counts_c == 0)
    return cs_dec, ncs_dec


def _bs_decode(receiver: str, K: Tolerance, del_c, idsum_c, del_n, idsum_n):
    """Per-cell BS decodes ``(cs_ok, cs_id, ncs_ok, ncs_id)`` from AP deliveries.

    ``del_*`` marks the (cell, AP) decodes that survived the backhaul and
    ``idsum_*`` holds the decoded identities.  The collision receiver needs
    exactly one delivery of the class; the superposition receiver needs at
    least one, all of the same message.  A CS decode also needs at most K
    NCS deliveries, an NCS decode none of the CS class.
    """
    ndc = del_c.sum(axis=1)
    ndn = del_n.sum(axis=1)
    within_budget = True if is_infinite(K) else ndn <= K
    if receiver == Receiver.COLLISION:
        cs_ok = (ndc == 1) & within_budget
        cs_id = np.where(cs_ok, (idsum_c * del_c).sum(axis=1), _ID_NONE)
        ncs_ok = (ndn == 1) & (ndc == 0)
        ncs_id = np.where(ncs_ok, (idsum_n * del_n).sum(axis=1), _ID_NONE)
        return cs_ok, cs_id, ncs_ok, ncs_id
    mx_c = np.max(np.where(del_c, idsum_c, 0), axis=1)
    mn_c = np.min(np.where(del_c, idsum_c, _BIG), axis=1)
    cs_ok = (ndc >= 1) & (mx_c == mn_c) & within_budget
    cs_id = np.where(cs_ok, mx_c, _ID_NONE)
    mx_n = np.max(np.where(del_n, idsum_n, 0), axis=1)
    mn_n = np.min(np.where(del_n, idsum_n, _BIG), axis=1)
    ncs_ok = (ndn >= 1) & (mx_n == mn_n) & (ndc == 0)
    ncs_id = np.where(ncs_ok, mx_n, _ID_NONE)
    return cs_ok, cs_id, ncs_ok, ncs_id


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
    frame: np.ndarray  # frame of each device
    row: np.ndarray  # row of each device's (frame, slot) cell
    counts: np.ndarray  # unerased arrivals per (row, AP)
    idsum: np.ndarray  # sum of their identities per (row, AP)
    tag_row: np.ndarray  # row of each tagged device that sits in an occupied cell
    tag_id: np.ndarray  # identity of each of those devices


def _class_draws(n_dev, frame, row, counts, idsum, u) -> _ClassDraws:
    # The tagging uniform is drawn for every frame, busy or not, so the
    # stream does not depend on the load.
    pick = np.minimum((u * n_dev).astype(np.int64), np.maximum(n_dev - 1, 0))
    tag = (np.cumsum(n_dev) - n_dev + pick)[n_dev >= 1]
    tag_row = row[tag]
    # A tagged device in an empty cell (the sentinel row) fails for every
    # K, so only those in occupied cells are looked up.
    seen = tag_row < counts.shape[0]
    return _ClassDraws(n_dev, frame, row, counts, idsum, tag_row[seen], tag[seen] + 1)


def _draw_frames(spec: _EngineSpec, F: int, rng: np.random.Generator):
    """F frames as ``(cs, ncs, backhaul)``: the two classes' ``_ClassDraws``
    and the backhaul successes per (row, AP), none of which depends on K
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
    n_c = rng.poisson(spec.lam_c, F).astype(np.int64)
    n_n = rng.poisson(spec.lam_n, F).astype(np.int64)
    frame_c = np.repeat(np.arange(F, dtype=np.int64), n_c)
    frame_n = np.repeat(np.arange(F, dtype=np.int64), n_n)
    D_c, D_n = frame_c.size, frame_n.size
    slot_c = rng.integers(0, cs_T, size=D_c) if cs_T > 0 else np.zeros(D_c, np.int64)
    slot_n = rng.integers(0, ncs_T, size=D_n) if ncs_T > 0 else np.zeros(D_n, np.int64)
    arr_c = rng.random((D_c, L)) >= spec.eps1
    arr_n = rng.random((D_n, L)) >= spec.eps1
    if cs_T == 0:
        arr_c &= False  # active devices with no slots never transmit
    if ncs_T == 0:
        arr_n &= False

    cell_c = frame_c * T + slot_c
    cell_n = frame_n * T + ncs_base + slot_n
    # Unerased arrivals as dev * L + ap, in device order.
    flat_c, flat_n = np.flatnonzero(arr_c), np.flatnonzero(arr_n)
    occupied = np.zeros(F * T, dtype=bool)
    occupied[cell_c[flat_c // L]] = True
    occupied[cell_n[flat_n // L]] = True
    cells = np.flatnonzero(occupied)
    rows = cells.size
    row = np.full(F * T, rows, dtype=np.int64)  # empty cells: the sentinel row
    row[cells] = np.arange(rows)
    row_c, row_n = row[cell_c], row[cell_n]

    # The backhaul is drawn for every cell and kept for the occupied ones;
    # np.take gathers rows faster than fancy indexing does.
    backhaul = np.take(rng.random((F * T, L)) >= spec.eps2, cells, axis=0)
    u_c = rng.random(F)
    u_n = rng.random(F)

    cs = _class_draws(n_c, frame_c, row_c, *_class_counts(rows, L, row_c, flat_c), u_c)
    ncs = _class_draws(n_n, frame_n, row_n, *_class_counts(rows, L, row_n, flat_n), u_n)
    return cs, ncs, backhaul


def _decode(frames, receiver: str, K: Tolerance):
    """Per-row BS decodes ``(cs_ok, cs_id, ncs_ok, ncs_id)`` of drawn frames."""
    cs, ncs, backhaul = frames
    cs_dec, ncs_dec = _ap_decode(cs.counts, ncs.counts, K)
    return _bs_decode(receiver, K, cs_dec & backhaul, cs.idsum, ncs_dec & backhaul, ncs.idsum)


def _tagged_successes(draws: _ClassDraws, dec_id) -> int:
    return int(np.count_nonzero(dec_id[draws.tag_row] == draws.tag_id))


def _run_chunk(spec: _EngineSpec, F: int, rng: np.random.Generator) -> dict:
    frames = _draw_frames(spec, F, rng)
    cs, ncs, _ = frames
    out = {"cs_trials": int(np.sum(cs.n_dev >= 1)), "ncs_trials": int(np.sum(ncs.n_dev >= 1))}
    for ki, K in enumerate(spec.k_values):
        cs_ok, cs_id, ncs_ok, ncs_id = _decode(frames, spec.receiver, K)
        out[(ki, "cs_slots")] = int(cs_ok.sum())
        out[(ki, "ncs_slots")] = int(ncs_ok.sum())
        out[(ki, "cs_tag_succ")] = _tagged_successes(cs, cs_id)
        out[(ki, "ncs_tag_succ")] = _tagged_successes(ncs, ncs_id)
    return out


def _coupled_chunk(spec: _EngineSpec, F: int, rng: np.random.Generator) -> dict:
    frames = _draw_frames(spec, F, rng)
    (K,) = spec.k_values
    coll = _decode(frames, Receiver.COLLISION, K)
    sup = _decode(frames, Receiver.SUPERPOSITION, K)
    return {"violations": int(np.sum(coll[0] & ~sup[0]) + np.sum(coll[2] & ~sup[2]))}


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


def coupled_compare(cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1) -> int:
    """Count slots where the collision receiver succeeds but superposition fails.

    Both BS rules are evaluated on identical realizations; by success-event
    inclusion the count must be zero.
    """
    spec = _spec_from_config(cfg, (cfg.K,))
    return _run_engine(_coupled_chunk, spec, n_frames, seed, workers)["violations"]


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
