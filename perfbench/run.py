"""End-to-end benchmark of the ``twohop-aloha`` CLI.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is used from ``src/``
as is.  Each workload runs in a fresh interpreter (``loop.py``) as one
closed-loop caller.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it spends half of ``--seconds`` untraced and
half traced and reports the per-layer metrics, including the tracing
overhead.  The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with provenance and every batch, goes to
``.perfbench_out/<workload>-seed<seed>-trace<0|1>/result.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from calib import REFERENCE_S, calibrate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: fresh-interpreter imports timed per run, on alternating vCPUs; setup_s
#: is the median of their scaled times
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "scaled_wall_s": "s",
    "scaled_work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.pareto_filter.busy_s": "s",
    "cli.pareto_filter.points_in": "count",
    "cli.write_csv.busy_s": "s",
    "cli.csv_bytes": "bytes",
    "analytic_erasure.evaluate_erasure.calls": "count",
    "analytic_erasure.evaluate_erasure.busy_s": "s",
    "analytic_erasure.evaluate_erasure.self_s": "s",
    "analytic_erasure.evaluate_erasure.us_per_call": "us",
    "core.poisson_tail_cutoff.calls": "count",
    "core.poisson_tail_cutoff.busy_s": "s",
    "core.poisson_weights.calls": "count",
    "core.poisson_weights.busy_s": "s",
    "core.aux_h.calls": "count",
    "core.aux_h.busy_s": "s",
    "core.gamma_k_tolerance_array.calls": "count",
    "core.gamma_k_tolerance_array.busy_s": "s",
    "superposition.evaluate_superposition.calls": "count",
    "superposition.evaluate_superposition.busy_s": "s",
    "superposition.evaluate_superposition.self_s": "s",
    "superposition.evaluate_superposition.ms_per_call": "ms",
    "sim_erasure.simulate_multi_k.calls": "count",
    "sim_erasure.simulate_multi_k.frames": "count",
    "sim_erasure.simulate_multi_k.busy_s": "s",
    "sim_erasure.simulate_multi_k.frames_per_s": "1/s",
    "sim_erasure.simulate.frames": "count",
    "sim_erasure.simulate.busy_s": "s",
    "sim_erasure.trials_per_frame": "ratio",
    "sim_fading.estimate_fading_metrics.slots": "count",
    "sim_fading.estimate_fading_metrics.busy_s": "s",
    "sim_fading.trials_per_slot": "ratio",
    "pool.child_cpu_s": "s",
    "pool.efficiency": "ratio",
    "pool.worker_peak_rss_mb": "MB",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed command)."""


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def setup_seconds(cpu: int) -> tuple[float, float]:
    """Wall time for a fresh interpreter on vCPU ``cpu`` to import
    ``twohop_aloha.cli``: unscaled, and scaled like a command by the
    calibrations just before and just after it."""
    os.sched_setaffinity(0, {cpu})  # the interpreter inherits the pinning
    before = calibrate()
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import twohop_aloha.cli"],
                          cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"importing twohop_aloha.cli failed ({proc.returncode})")
    return elapsed, elapsed * REFERENCE_S / ((before + calibrate()) / 2)


def run_loop(workload: str, seed: int, seconds: float, traced: bool, workdir: str) -> dict:
    """Run one fresh workload process and return its JSON record."""
    cmd = [sys.executable, os.path.join(HERE, "loop.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced)),
           "--workdir", workdir]
    # Its own process group, so that a timeout also ends its pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: float) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "sizes": WORKLOADS[workload].sizes,
    }


def scaled_wall_s(batch: dict) -> float:
    """The batch's wall time at the calibration kernel's reference speed.

    Each command's wall time is scaled by ``REFERENCE_S`` over the mean of
    the calibrations just before and just after it.
    """
    cal = [sum(c) / len(c) for c in batch["calib_s"]]
    return sum(wall * REFERENCE_S / ((cal[i] + cal[i + 1]) / 2)
               for i, wall in enumerate(batch["commands"].values()))


def end_to_end(workload: str, record: dict, setup: list[tuple[float, float]]) -> dict:
    scaled = statistics.median(scaled_wall_s(b) for b in record["batches"])
    return {
        "setup_s": statistics.median(s for _, s in setup),
        "scaled_wall_s": scaled,
        "scaled_work_per_s": WORKLOADS[workload].work / scaled,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict) -> dict:
    def med(batches, key):
        return statistics.median(key(b) for b in batches)

    metrics = {
        name: med(traced["batches"], lambda b: b["layers"][name])
        for name in PER_LAYER
        if not name.startswith(("pool.", "trace.overhead"))
    }
    metrics["pool.child_cpu_s"] = med(plain["batches"], lambda b: b["pool_child_cpu_s"])
    metrics["pool.efficiency"] = med(
        plain["batches"],
        lambda b: b["pool_child_cpu_s"] / b["pool_capacity_s"] if b["pool_capacity_s"] else 0.0,
    )
    metrics["pool.worker_peak_rss_mb"] = plain["worker_peak_rss_mb"]
    metrics["trace.overhead_s"] = (med(traced["batches"], lambda b: b["wall_s"])
                                   - med(plain["batches"], lambda b: b["wall_s"]))
    return {name: metrics[name] for name in PER_LAYER}


def workload_figures(workload: str, record: dict, failed: int, attempted: int) -> dict:
    """Unbounded figures: the unscaled wall time and rate, the median
    calibration, the workload's own rates, validate's verdict and the fail
    ratio."""
    batches = record["batches"]
    wall = statistics.median(b["wall_s"] for b in batches)
    out = {
        "wall_s": (wall, "s"),
        "work_per_s": (WORKLOADS[workload].work / wall, "1/s"),
        "calib_s": (statistics.median(t for b in batches for c in b["calib_s"] for t in c), "s"),
    }
    for name, (work, label) in WORKLOADS[workload].rates.items():
        key = (lambda b: b["wall_s"]) if label is None else (lambda b, l=label: b["commands"][l])
        out[name] = (work / statistics.median(key(b) for b in batches), "1/s")
    verdicts = [code == 0 for b in batches for label, code in b["exit_codes"].items()
                if label.startswith("validate")]
    if verdicts:
        out["validate_pass_ratio"] = (sum(verdicts) / len(verdicts), "ratio")
    out["fail_ratio"] = (failed / attempted, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "twohop_aloha", "cli.py")):
        print(f"no twohop_aloha package under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(workdir, exist_ok=True)

    try:
        if args.trace:
            half = args.seconds / 2
            plain = run_loop(args.workload, args.seed, half, False, workdir)
            traced = run_loop(args.workload, args.seed, half, True, workdir)
            records = [plain, traced]
            metrics = per_layer(plain, traced)
            units = PER_LAYER
        else:
            cpus = sorted(os.sched_getaffinity(0))
            setup = [setup_seconds(cpus[i % len(cpus)]) for i in range(SETUP_REPEATS)]
            os.sched_setaffinity(0, set(cpus))
            plain = run_loop(args.workload, args.seed, args.seconds, False, workdir)
            records = [plain]
            metrics = end_to_end(args.workload, plain, setup)
            units = END_TO_END
    except (HarnessError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 1

    batches = [b for r in records for b in r["batches"]]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    failures = [m for r in records for m in r["failures"]]
    prov = provenance(args.workload, args.seed, args.seconds)
    extra = workload_figures(args.workload, plain, failed, attempted)
    if not args.trace:
        extra["setup_unscaled_s"] = (statistics.median(s for s, _ in setup), "s")

    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "extra": extra,
                   "records": records}, fh, indent=1)
    print("provenance: " + json.dumps(prov))
    walls = [b["wall_s"] for b in plain["batches"]]
    q1, _, q3 = statistics.quantiles(walls, n=4)
    print(f"untraced batches: {len(walls)}, wall_s quartiles {q1:.4f}..{q3:.4f} s")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} = {value:.6g} {unit}")
    for message in failures:
        print(f"FAILED {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
