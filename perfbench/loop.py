"""One workload process: a closed-loop caller that issues its batch back to back.

Run by ``run.py`` in a fresh interpreter per workload::

    python3 perfbench/loop.py --workload points --seed 7 --seconds 10 \
        --trace 0 --workdir .perfbench_out/points

It repeats the workload's command batch until ``--seconds`` have passed
(at least ``MIN_BATCHES`` times), times the calibration kernel around
every command, checks every batch's outputs, and prints one JSON record
of per-batch timings and calibrations as its last line of output.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import dataclass

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import calib  # noqa: E402
import gate  # noqa: E402
import spans as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_BATCHES = 3


@dataclass
class CommandResult:
    label: str
    exit_code: int | None
    wall_s: float
    child_cpu_s: float
    error: str = ""


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def calibrate_on(cpus: list[int]) -> list[float]:
    """Calibration time of each of ``cpus``, timed while pinned to it; the
    process is left pinned to ``cpus``."""
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(calib.calibrate())
    os.sched_setaffinity(0, set(cpus))
    return times


def run_batch(workload: Workload, workdir: str, seed: int, cli,
              cpus: list[int]) -> tuple[list[CommandResult], list[list[float]]]:
    """Issue the workload's commands once, through ``cli.main``, on ``cpus``.

    The calibration kernel is timed before every command and after the
    last, so each command lies between two calibrations.
    """
    results, calibrations = [], []
    for cmd in workload.commands:
        calibrations.append(calibrate_on(cpus))
        argv = cmd.argv(workdir, seed)
        error = ""
        cpu0 = _children_cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed command, not a stopped run
            code, error = None, traceback.format_exc()
        wall = time.perf_counter() - t0
        results.append(CommandResult(cmd.label, code, wall, _children_cpu_s() - cpu0, error))
    calibrations.append(calibrate_on(cpus))
    return results, calibrations


def check_batch(workload: Workload, workdir: str, seed: int,
                results: list[CommandResult]) -> dict:
    """Command label -> failure messages; a command with any message failed."""
    failures = {}
    for cmd, r in zip(workload.commands, results):
        if r.exit_code not in cmd.exit_codes:
            failures[r.label] = [f"{r.label}: exit code {r.exit_code} {r.error}".rstrip()]
        else:
            path = os.path.join(workdir, r.label + ".csv")
            failures[r.label] = gate.check_command(r.label, path, seed)
    return failures


def layer_record(spans: list, wall_s: float) -> dict:
    """Per-layer numbers of one traced batch."""
    stats = tracing.function_stats(spans)

    def get(fn: str, key: str):
        return stats.get(fn, {}).get(key, 0)

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ev = "analytic_erasure.evaluate_erasure"
    sup = "superposition.evaluate_superposition"
    mk = "sim_erasure.simulate_multi_k"
    sim = "sim_erasure.simulate"
    fad = "sim_fading.estimate_fading_metrics"
    rec = {
        "cli.self_s": tracing.layer_self_s(spans, "cli"),
        "cli.pareto_filter.busy_s": get("cli.pareto_filter", "busy_s"),
        "cli.pareto_filter.points_in": get("cli.pareto_filter", "points_in"),
        "cli.write_csv.busy_s": get("cli.write_csv", "busy_s"),
        "cli.csv_bytes": get("cli.write_csv", "bytes"),
    }
    for fn in (ev, sup):
        for key in ("calls", "busy_s", "self_s"):
            rec[f"{fn}.{key}"] = get(fn, key)
    rec[f"{ev}.us_per_call"] = ratio(get(ev, "busy_s"), get(ev, "calls"), 1e6)
    rec[f"{sup}.ms_per_call"] = ratio(get(sup, "busy_s"), get(sup, "calls"), 1e3)
    for fn in ("poisson_tail_cutoff", "poisson_weights", "aux_h", "gamma_k_tolerance_array"):
        for key in ("calls", "busy_s"):
            rec[f"core.{fn}.{key}"] = get("core." + fn, key)
    for key in ("calls", "frames", "busy_s"):
        rec[f"{mk}.{key}"] = get(mk, key)
    rec[f"{mk}.frames_per_s"] = ratio(get(mk, "frames"), get(mk, "busy_s"))
    rec[f"{sim}.frames"] = get(sim, "frames")
    rec[f"{sim}.busy_s"] = get(sim, "busy_s")
    rec["sim_erasure.trials_per_frame"] = ratio(
        get(mk, "trials") + get(sim, "trials"), get(mk, "frames") + get(sim, "frames")
    )
    rec[f"{fad}.slots"] = get(fad, "slots")
    rec[f"{fad}.busy_s"] = get(fad, "busy_s")
    rec["sim_fading.trials_per_slot"] = ratio(get(fad, "trials"), get(fad, "slots"))
    rec["trace.unaccounted_s"] = tracing.unaccounted_s(spans, wall_s)
    return rec


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)

    from twohop_aloha import cli

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    batches, spans, messages = [], [], []
    start = time.perf_counter()
    # The vCPUs of a shared machine drift in speed independently, over
    # seconds to tens of seconds.  A workload without a process pool alternates
    # its batches between them, so a run averages that drift rather than
    # sampling one vCPU; the pool's workers already span all of them.
    cpus = sorted(os.sched_getaffinity(0))
    alternate = all(c.workers == 1 for c in workload.commands)
    while len(batches) < MIN_BATCHES or time.perf_counter() - start < args.seconds:
        batch_cpus = [cpus[len(batches) % len(cpus)]] if alternate else cpus
        results, calib_s = run_batch(workload, args.workdir, args.seed, cli, batch_cpus)
        failures = check_batch(workload, args.workdir, args.seed, results)
        pool = [(r, c.workers) for r, c in zip(results, workload.commands) if c.workers > 1]
        batch = {
            "wall_s": sum(r.wall_s for r in results),
            "commands": {r.label: r.wall_s for r in results},
            "exit_codes": {r.label: r.exit_code for r in results},
            "calib_s": calib_s,
            "attempted": len(results),
            "failed": sum(1 for msgs in failures.values() if msgs),
            "pool_child_cpu_s": sum(r.child_cpu_s for r, _ in pool),
            "pool_capacity_s": sum(w * r.wall_s for r, w in pool),
        }
        if tracer is not None:
            batch_spans = tracer.take()
            batch["layers"] = layer_record(batch_spans, batch["wall_s"])
            spans.extend(batch_spans)
        batches.append(batch)
        for msgs in failures.values():
            messages.extend(msgs[: 20 - len(messages)])
    if tracer is not None:
        tracing.write_spans(spans, os.path.join(args.workdir, "spans.jsonl.gz"))
    print(json.dumps({
        "batches": batches,
        "failures": messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
