"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gate  # noqa: E402
import loop  # noqa: E402
import run  # noqa: E402
from spans import Span, function_stats, layer_self_s, self_times, unaccounted_s  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _span(id, parent, name, start, end):
    return Span(id, parent, 1, name, start, end)


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, None, "cli.main", 0.0, 10.0),
        _span(2, 1, "analytic_erasure.evaluate_erasure", 1.0, 4.0),
        _span(3, 1, "superposition.evaluate_superposition", 3.0, 6.0),
        _span(4, 2, "core.aux_h", 2.0, 3.0),
    ]
    assert self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_busy_time_counts_reentrant_calls_once():
    spans = [_span(1, None, "core.aux_h", 0.0, 5.0), _span(2, 1, "core.aux_h", 1.0, 2.0)]
    stats = function_stats(spans)["core.aux_h"]
    assert stats == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}


def test_cli_self_time_and_child_layers_account_for_wall_time():
    spans = [
        _span(1, None, "cli.main", 0.0, 10.0),
        _span(2, 1, "analytic_erasure.evaluate_erasure", 1.0, 4.0),
        _span(3, 2, "core.poisson_tail_cutoff", 2.0, 3.0),
        _span(4, 1, "cli.pareto_filter", 5.0, 7.0),
    ]
    assert layer_self_s(spans, "cli") == 7.0
    assert unaccounted_s(spans, 10.5) == 0.5


def test_install_traces_names_imported_into_other_modules():
    script = (
        "import sys; sys.path.insert(0, 'perfbench'); sys.path.insert(0, 'src')\n"
        "from twohop_aloha import analytic_erasure, core, cli\n"
        "import spans\n"
        "t = spans.Tracer(); t.install()\n"
        "assert analytic_erasure.poisson_tail_cutoff is core.poisson_tail_cutoff\n"
        "cli.main(['eval', '--config', 'perfbench/scenarios/scenario.ini'])\n"
        "by_id = {s.id: s for s in t.spans}\n"
        "print(sorted({(s.name, by_id[s.parent].name if s.parent else None)"
        " for s in t.spans}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    pairs = set(map(tuple, ast.literal_eval(out.strip().splitlines()[-1])))
    assert ("cli.main", None) in pairs
    assert ("analytic_erasure.evaluate_erasure", "cli.main") in pairs
    assert ("core.poisson_tail_cutoff", "analytic_erasure.evaluate_erasure") in pairs


def _perturb_value(path, row, col):
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-7))
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def test_gate_rejects_one_perturbed_value(tmp_path):
    for label in ("region_analytic", "sim"):
        path = tmp_path / f"{label}.csv"
        shutil.copyfile(os.path.join(gate.REFERENCE, f"{label}.csv"), path)
        assert gate.check_command(label, str(path), DEFAULT_SEED) == []
        _perturb_value(path, 1, 3)
        assert gate.check_command(label, str(path), DEFAULT_SEED) != []


def test_gate_rejects_estimate_far_from_its_reference(tmp_path):
    path = tmp_path / "fading.csv"
    shutil.copyfile(os.path.join(gate.REFERENCE, "fading.csv"), path)
    text = path.read_text().replace(f",{DEFAULT_SEED}", ",7")
    path.write_text(text)
    assert gate.check_command("fading", str(path), 7) == []
    header, row = text.splitlines()
    cells = row.split(",")
    cells[0] = repr(float(cells[0]) + 10 * float(cells[4]))
    path.write_text(header + "\n" + ",".join(cells) + "\n")
    failures = gate.check_command("fading", str(path), 7)
    assert len(failures) == 1 and "R_c" in failures[0]


def _outputs(workload, workdir, seed):
    from twohop_aloha import cli

    os.makedirs(workdir, exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    results, calibrations = loop.run_batch(WORKLOADS[workload], str(workdir), seed, cli, cpus)
    assert len(calibrations) == len(results) + 1
    assert all(len(c) == len(cpus) and min(c) > 0 for c in calibrations)
    assert all(msgs == [] for msgs in loop.check_batch(WORKLOADS[workload], str(workdir), seed, results).values())
    out = {}
    for r in results:
        with open(os.path.join(workdir, r.label + ".csv"), "rb") as fh:
            out[r.label] = fh.read()
    return out


def test_seed_changes_points_outputs_but_not_figures_outputs(tmp_path):
    assert _outputs("figures", tmp_path / "f1", 1) == _outputs("figures", tmp_path / "f2", 2)
    p1, p2 = _outputs("points", tmp_path / "p1", 1), _outputs("points", tmp_path / "p2", 2)
    assert all(p1[label] != p2[label] for label in p1)


def test_scaled_wall_time_uses_the_calibrations_around_each_command():
    # one calibration per vCPU the batch ran on, before each command and after the last
    batch = {"commands": {"a": 2.0, "b": 1.0}, "calib_s": [[1.0], [3.0], [1.0]]}
    ref = run.REFERENCE_S
    assert run.scaled_wall_s(batch) == 2.0 * ref / 2.0 + 1.0 * ref / 2.0
    # a vCPU twice as slow doubles wall and calibration times alike
    slow = {"commands": {"a": 4.0, "b": 2.0}, "calib_s": [[2.0], [6.0], [2.0]]}
    assert run.scaled_wall_s(slow) == run.scaled_wall_s(batch)
    # the vCPUs of a pooled batch are averaged
    pooled = {"commands": {"a": 2.0}, "calib_s": [[1.0, 3.0], [2.0, 2.0]]}
    assert run.scaled_wall_s(pooled) == 2.0 * ref / 2.0


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
