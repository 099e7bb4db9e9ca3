"""Regenerate the output gate's stored references in ``reference/``.

    python3 perfbench/make_reference.py

Runs every workload batch once at the default seed and stores its outputs,
plus the exact values the stochastic outputs are checked against.  Run it
only when a change to the program is meant to change its outputs.
"""

from __future__ import annotations

import os
import shutil
import sys

import loop
from gate import REFERENCE, sha256
from workloads import DEFAULT_SEED, HERE, WORKLOADS, scenario_path


def main() -> int:
    from twohop_aloha import cli

    workdir = os.path.join(os.path.dirname(HERE), ".perfbench_out", "reference")
    os.makedirs(workdir, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    digests = []
    for workload in WORKLOADS.values():
        results, _ = loop.run_batch(workload, workdir, DEFAULT_SEED, cli, cpus)
        for cmd, result in zip(workload.commands, results):
            if result.exit_code not in cmd.exit_codes:
                print(f"{result.label} failed: {result.error}", file=sys.stderr)
                return 1
            out = os.path.join(workdir, result.label + ".csv")
            if result.label.startswith("validate"):
                digests.append(f"{sha256(out)}  {result.label}.csv\n")
            else:
                shutil.copyfile(out, os.path.join(REFERENCE, result.label + ".csv"))
    with open(os.path.join(REFERENCE, "validate.sha256"), "w") as fh:
        fh.writelines(digests)
    for name, scenario in (("eval_analytic", "scenario.ini"), ("eval_exact", "superposition.ini")):
        out = os.path.join(REFERENCE, name + ".csv")
        if cli.main(["eval", "--config", scenario_path(scenario), "--out", out]) != 0:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
