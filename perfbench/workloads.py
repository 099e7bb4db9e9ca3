"""The benchmark's workloads: batches of ``twohop-aloha`` CLI commands.

Every workload is issued by one closed-loop caller that runs its batch back
to back.  The scenario files live in ``scenarios/``; every command writes
its CSV into the run's work directory under the command's label.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SCENARIOS = os.path.join(HERE, "scenarios")

#: The CLI's default seed (0xC0FFEE); stochastic outputs at this seed are
#: compared byte for byte with the stored references.
DEFAULT_SEED = 12648430


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIOS, name)


@dataclass(frozen=True)
class Command:
    label: str
    args: tuple
    seeded: bool = False
    workers: int = 1
    #: exit codes of a command that ran; its outputs are then checked
    exit_codes: tuple = (0,)

    def argv(self, workdir: str, seed: int) -> list[str]:
        argv = list(self.args) + ["--out", os.path.join(workdir, self.label + ".csv")]
        if self.seeded:
            argv += ["--seed", str(seed)]
        if self.workers > 1:
            argv += ["--workers", str(self.workers)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    #: units of work in one batch, for ``work_per_s``
    work: int
    #: the workload's own rates: metric -> (units of work, command label or
    #: None for the whole batch)
    rates: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)


# Both budgets are whole numbers of the engines' chunks (83,333 frames at
# this scenario; 16,384 slots), split evenly over the pool's two workers.
SIM_FRAMES = 4 * 83_333
SIM_T = 8
FADING_SLOTS = 4 * 16_384
#: workers for the stochastic commands of ``points``: the core count of the
#: 2-core machine the baselines were taken on
POOL_WORKERS = 2

# 71x71 analytic grid: 71 non-orthogonal + 71*71 TDMA evaluations; 11x11
# superposition grid likewise.
_FIGURE_EVALS = (71 + 71 * 71) + (11 + 11 * 11)
_VALIDATE_CELLS = 4 * (4 * 2 * 1 * 4 * 2 * 4)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="figures",
            commands=(
                Command("region_analytic",
                        ("region", "--config", scenario_path("scenario.ini"))),
                Command("region_superposition",
                        ("region", "--config", scenario_path("superposition.ini"))),
            ),
            work=_FIGURE_EVALS,
            rates={"evals_per_s": (_FIGURE_EVALS, None)},
            sizes={"region_analytic_grid": "71x71", "region_superposition_grid": "11x11",
                   "evaluations": _FIGURE_EVALS},
        ),
        Workload(
            name="validate",
            # The slice runs as two commands, one per access erasure, so that
            # the calibrations around each command are about 2 s apart.
            commands=tuple(
                Command(f"validate_{half}",
                        ("validate", "--config", scenario_path(f"validate_{half}.ini"),
                         "--target-se", "0.01", "--workers", "1"),
                        seeded=True, exit_codes=(0, 4))
                for half in ("lo", "hi")
            ),
            work=_VALIDATE_CELLS,
            rates={"cells_per_s": (_VALIDATE_CELLS, None)},
            sizes={"configs": _VALIDATE_CELLS // 4, "cells": _VALIDATE_CELLS,
                   "target_se": 0.01},
        ),
        Workload(
            name="points",
            commands=(
                Command("fading",
                        ("fading", "--config", scenario_path("fading.ini"),
                         "--slots", str(FADING_SLOTS)),
                        seeded=True, workers=POOL_WORKERS),
                Command("sim",
                        ("sim", "--config", scenario_path("scenario.ini"),
                         "--frames", str(SIM_FRAMES)),
                        seeded=True, workers=POOL_WORKERS),
                Command("eval_mc",
                        ("eval", "--config", scenario_path("superposition_mc.ini")),
                        seeded=True),
            ),
            work=SIM_FRAMES * SIM_T + FADING_SLOTS,
            rates={"frames_per_s": (SIM_FRAMES, "sim"),
                   "slots_per_s": (FADING_SLOTS, "fading")},
            sizes={"sim_frames": SIM_FRAMES, "sim_T": SIM_T, "fading_slots": FADING_SLOTS,
                   "mc_samples": 1000, "workers": POOL_WORKERS},
        ),
    )
}
