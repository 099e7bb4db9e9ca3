"""Slot-level Monte Carlo simulation of the two-hop protocol (erasure links).

Independent oracle for the analytic module: frames of T slots, Poisson
device activation, uniform slot choice, i.i.d. access/backhaul erasures,
the three-state AP rule, and either BS receiver rule (collision or
superposition), optionally evaluated on a *shared* realization so that
receiver models and tolerance values can be compared slot by slot.

Determinism contract: results are a pure function of (config, n_frames,
seed).  Frames are processed in fixed-size chunks, each driven by its own
substream derived from the master seed, and all tallies are integers, so
the estimates are bit-identical regardless of how chunks are distributed
over workers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Receiver,
    ScenarioConfig,
    SimEstimate,
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
    receivers: tuple
    collect_uplink: bool = False
    collect_device_psr: bool = False


def _chunk_frames(spec: _EngineSpec) -> int:
    """Fixed chunk size derived from the workload, never from worker count."""
    per_frame = max(1.0, (spec.lam_c + spec.lam_n) * spec.L + spec.T * spec.L)
    return int(min(131072, max(256, 6_000_000 // per_frame)))


def _class_counts(cells, L, cell_id, arrivals, ids):
    """Per-(cell, AP) unerased-arrival counts and decoded-identity sums."""
    counts = np.zeros((cells, L), dtype=np.int64)
    idsum = np.zeros((cells, L), dtype=np.int64)
    for l in range(L):
        m = arrivals[:, l]
        sel = cell_id[m]
        counts[:, l] = np.bincount(sel, minlength=cells)
        idsum[:, l] = np.bincount(sel, weights=ids[m], minlength=cells).astype(np.int64)
    return counts, idsum


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


def _run_chunk(spec: _EngineSpec, F: int, rng: np.random.Generator) -> dict:
    L, T = spec.L, spec.T
    cells = F * T

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
    backhaul = rng.random((cells, L)) >= spec.eps2
    u_c = rng.random(F)
    u_n = rng.random(F)

    if cs_T == 0:
        arr_c &= False  # active devices with no slots never transmit
    if ncs_T == 0:
        arr_n &= False

    cell_c = frame_c * T + slot_c
    cell_n = frame_n * T + ncs_base + slot_n
    ids_c = np.arange(1, D_c + 1, dtype=np.int64)
    ids_n = np.arange(1, D_n + 1, dtype=np.int64)

    counts_c, idsum_c = _class_counts(cells, L, cell_c, arr_c, ids_c)
    counts_n, idsum_n = _class_counts(cells, L, cell_n, arr_n, ids_n)

    # Tagged active device per class per frame (uniform among that frame's
    # devices); the draw is load-independent for stream stability.
    act_c = n_c >= 1
    act_n = n_n >= 1
    off_c = np.concatenate(([0], np.cumsum(n_c)[:-1]))
    off_n = np.concatenate(([0], np.cumsum(n_n)[:-1]))
    tag_c = off_c + np.minimum((u_c * n_c).astype(np.int64), np.maximum(n_c - 1, 0))
    tag_n = off_n + np.minimum((u_n * n_n).astype(np.int64), np.maximum(n_n - 1, 0))
    tag_c = np.where(act_c, tag_c, 0)
    tag_n = np.where(act_n, tag_n, 0)
    tcell_c = np.where(
        act_c & (D_c > 0), np.arange(F) * T + (slot_c[tag_c] if D_c else 0), 0
    )
    tcell_n = np.where(
        act_n & (D_n > 0), np.arange(F) * T + ncs_base + (slot_n[tag_n] if D_n else 0), 0
    )
    tid_c = tag_c + 1
    tid_n = tag_n + 1

    out: dict = {}
    for ki, K in enumerate(spec.k_values):
        cs_dec, ncs_dec = _ap_decode(counts_c, counts_n, K)

        if spec.collect_uplink:
            out[(ki, "uplink", "succ")] = int(cs_dec.any(axis=1).sum())

        del_c = cs_dec & backhaul
        del_n = ncs_dec & backhaul

        results = {}
        for receiver in spec.receivers:
            cs_ok, cs_id, ncs_ok, ncs_id = _bs_decode(receiver, K, del_c, idsum_c, del_n, idsum_n)
            results[receiver] = (cs_ok, cs_id, ncs_ok, ncs_id)

            out[(ki, receiver, "cs_slots")] = int(cs_ok.sum())
            out[(ki, receiver, "ncs_slots")] = int(ncs_ok.sum())
            out[(ki, receiver, "cs_tag_succ")] = int(
                np.sum(act_c & (cs_id[tcell_c] == tid_c))
            )
            out[(ki, receiver, "ncs_tag_succ")] = int(
                np.sum(act_n & (ncs_id[tcell_n] == tid_n))
            )
            if spec.collect_device_psr:
                # within-frame mean over all active devices; the tagged
                # estimator is an unbiased one-draw sample of this mean
                for tag, cell, ids, frame, n_dev in (
                    ("cs", cell_c, ids_c, frame_c, n_c),
                    ("ncs", cell_n, ids_n, frame_n, n_n),
                ):
                    dec_id = cs_id if tag == "cs" else ncs_id
                    succ = (dec_id[cell] == ids).astype(np.int64)
                    per_frame = np.bincount(frame, weights=succ, minlength=F)
                    active = n_dev >= 1
                    frac = per_frame[active] / n_dev[active]
                    out[(ki, receiver, f"{tag}_frame_mean_sum")] = float(frac.sum())
                    out[(ki, receiver, f"{tag}_frame_mean_sumsq")] = float(
                        (frac**2).sum()
                    )

        if len(spec.receivers) == 2:
            coll = results[Receiver.COLLISION]
            sup = results[Receiver.SUPERPOSITION]
            out[(ki, "coupled", "violations")] = int(
                np.sum(coll[0] & ~sup[0]) + np.sum(coll[2] & ~sup[2])
            )

    out[("meta", "cs_trials")] = int(act_c.sum())
    out[("meta", "ncs_trials")] = int(act_n.sum())
    return out


def _run_engine(spec: _EngineSpec, n_frames: int, seed: int, workers: int) -> dict:
    if n_frames < 1:
        raise ValueError(f"n_frames must be >= 1, got {n_frames}")
    return run_chunked(_run_chunk, spec, n_frames, _chunk_frames(spec), seed, workers)


# ============================================================================
#  Public simulation operations
# ============================================================================


def _spec_from_config(cfg: ScenarioConfig, receivers, **extra) -> _EngineSpec:
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
        k_values=(cfg.K,),
        receivers=tuple(receivers),
        **extra,
    )


def _metrics_from_tallies(
    tallies: dict, spec: _EngineSpec, n_frames: int, seed: int, ki: int, receiver: str
) -> SimulatedMetrics:
    n_slots = n_frames * spec.T
    flags = []
    if spec.cs_slots == 0 and spec.lam_c > 0:
        flags.append("cs-class-has-zero-slots")
    if spec.cs_slots is not None and spec.cs_slots == spec.T and spec.lam_n > 0:
        flags.append("ncs-class-has-zero-slots")
    return SimulatedMetrics(
        R_c=bernoulli_estimate(tallies[(ki, receiver, "cs_slots")], n_slots, seed),
        R_cbar=bernoulli_estimate(tallies[(ki, receiver, "ncs_slots")], n_slots, seed),
        Gamma_c=bernoulli_estimate(
            tallies[(ki, receiver, "cs_tag_succ")], tallies[("meta", "cs_trials")], seed
        ),
        Gamma_cbar=bernoulli_estimate(
            tallies[(ki, receiver, "ncs_tag_succ")], tallies[("meta", "ncs_trials")], seed
        ),
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
    spec = _spec_from_config(cfg, (cfg.receiver,))
    tallies = _run_engine(spec, n_frames, seed, workers)
    return _metrics_from_tallies(tallies, spec, n_frames, seed, 0, cfg.receiver)


def coupled_compare(cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1) -> int:
    """Count slots where the collision receiver succeeds but superposition fails.

    Both BS rules are evaluated on identical realizations; by success-event
    inclusion the count must be zero.
    """
    spec = _spec_from_config(cfg, (Receiver.COLLISION, Receiver.SUPERPOSITION))
    tallies = _run_engine(spec, n_frames, seed, workers)
    return tallies[(0, "coupled", "violations")]


def simulate_uplink_decode(
    cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1
) -> SimEstimate:
    """P(at least one AP decodes a CS packet in a slot), estimated per slot."""
    spec = _spec_from_config(cfg, (cfg.receiver,), collect_uplink=True)
    tallies = _run_engine(spec, n_frames, seed, workers)
    return bernoulli_estimate(tallies[(0, "uplink", "succ")], n_frames * cfg.T, seed)


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
    spec = _spec_from_config(cfg, (cfg.receiver,))
    spec = dataclasses.replace(spec, k_values=tuple(k_values))
    tallies = _run_engine(spec, n_frames, seed, workers)
    return {
        k: _metrics_from_tallies(tallies, spec, n_frames, seed, ki, cfg.receiver)
        for ki, k in enumerate(k_values)
    }


def simulate_per_device_psr(
    cfg: ScenarioConfig, n_frames: int, seed: int, workers: int = 1
) -> tuple[SimEstimate, SimEstimate]:
    """All-active-device PSR (consistency oracle for the tagging estimator).

    Every active device of a frame is scored and averaged within the frame;
    frames are then averaged equally, the estimand the one-tagged-device
    estimator samples without bias.
    """
    spec = _spec_from_config(cfg, (cfg.receiver,), collect_device_psr=True)
    tallies = _run_engine(spec, n_frames, seed, workers)

    def estimate(tag: str, trials_key: str) -> SimEstimate:
        n = tallies[("meta", trials_key)]
        if n == 0:
            return SimEstimate(mean=0.0, std_error=0.0, n_samples=0, seed=seed)
        s1 = tallies[(0, cfg.receiver, f"{tag}_frame_mean_sum")]
        s2 = tallies[(0, cfg.receiver, f"{tag}_frame_mean_sumsq")]
        mean = s1 / n
        var = max(s2 / n - mean**2, 0.0)
        se = math.sqrt(var / (n - 1)) if n > 1 else 0.0
        return SimEstimate(mean=mean, std_error=se, n_samples=n, seed=seed)

    return estimate("cs", "cs_trials"), estimate("ncs", "ncs_trials")
