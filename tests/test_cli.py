import dataclasses
import importlib.util
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twohop_aloha.cli as cli
from twohop_aloha.core import (
    INFINITE_K,
    ErasureParams,
    FadingParams,
    Receiver,
    ScenarioConfig,
    ServiceMetrics,
    Tdma,
)


BASE_INI = textwrap.dedent(
    """
    [meta]
    schema_version = 1

    [scenario]
    L = 3
    T = 8
    G = 16.0
    gamma_c = 1.0
    K = inf
    receiver = collision
    allocation = non_orthogonal

    [erasure]
    eps1 = 0.5
    eps2 = 0.5
    """
)


def write_ini(tmp_path, body, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Scenario file parsing
# ---------------------------------------------------------------------------


def test_scenario_round_trip(tmp_path):
    parser = cli.load_config_file(write_ini(tmp_path, BASE_INI))
    cfg = cli.scenario_from_config(parser)
    assert cfg.L == 3 and cfg.T == 8 and cfg.G == 16.0
    assert cfg.K is INFINITE_K
    assert cfg.receiver == Receiver.COLLISION


def test_scenario_tdma_and_finite_k(tmp_path):
    body = BASE_INI.replace("allocation = non_orthogonal",
                            "allocation = tdma\nalpha = 0.25").replace("K = inf", "K = 2")
    cfg = cli.scenario_from_config(cli.load_config_file(write_ini(tmp_path, body)))
    assert cfg.K == 2
    assert isinstance(cfg.allocation, Tdma) and cfg.allocation.alpha == 0.25


def test_scenario_fading_section(tmp_path):
    body = BASE_INI.replace(
        "[erasure]\neps1 = 0.5\neps2 = 0.5",
        "[fading]\nalpha2 = 1.5\nbeta2 = 0.3\np_c = 10\np_cbar = 9\np_c_ap = 10\np_cbar_ap = 9",
    )
    cfg = cli.scenario_from_config(cli.load_config_file(write_ini(tmp_path, body)))
    assert isinstance(cfg.channel, FadingParams)
    assert cfg.fading.beta2 == 0.3 and cfg.fading.P_cbar == 9.0


def test_fading_section_defaults_are_fading_params_defaults(tmp_path):
    body = BASE_INI.replace("[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1.5\nbeta2 = 0.3")
    cfg = cli.scenario_from_config(cli.load_config_file(write_ini(tmp_path, body)))
    assert cfg.channel == FadingParams(1.5, 0.3)


@pytest.mark.parametrize("name,value", [
    ("P_c", 12.0), ("P_cbar", 3.0), ("P_c_ap", 7.0), ("P_cbar_ap", 2.0), ("r_c", 2.0),
    ("r_cbar", 0.5),
])
def test_fading_section_key_overrides_its_default(tmp_path, name, value):
    body = BASE_INI.replace("[erasure]\neps1 = 0.5\neps2 = 0.5",
                            f"[fading]\nalpha2 = 1.5\nbeta2 = 0.3\n{name.lower()} = {value}")
    cfg = cli.scenario_from_config(cli.load_config_file(write_ini(tmp_path, body)))
    assert cfg.channel == FadingParams(1.5, 0.3, **{name: value})


@pytest.mark.parametrize(
    "mutator",
    [
        lambda s: s.replace("schema_version = 1", "schema_version = 99"),
        lambda s: s.replace("[meta]\nschema_version = 1", "[meta]"),
        lambda s: s.replace("K = inf", "K = -3"),
        lambda s: s.replace("gamma_c = 1.0", "gamma_c = 1.7"),
        lambda s: s.replace("L = 3", "L = 0"),
        lambda s: s + "\n[fading]\nalpha2 = 1\nbeta2 = 1\n",  # both channels
        lambda s: s.replace("receiver = collision", "receiver = magic"),
        lambda s: s.replace("eps1 = 0.5", "eps1 = 1.5"),
        lambda s: s.replace("allocation = non_orthogonal", "allocation = tdma\nalpha = 1.5"),
    ],
)
def test_bad_scenario_files_raise_config_error(tmp_path, mutator):
    path = write_ini(tmp_path, mutator(BASE_INI))
    with pytest.raises(cli.ConfigError):
        cli.scenario_from_config(cli.load_config_file(path))


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def sweep_ini(extra):
    return BASE_INI + textwrap.dedent(extra)


def test_run_sweep_analytic_fig2(tmp_path):
    path = write_ini(
        tmp_path,
        sweep_ini(
            """
            [sweep]
            parameter = T
            values = 1 2 4 8 16
            backend = analytic
            """
        ),
    )
    out = str(tmp_path / "sweep.csv")
    rc = cli.main(["sweep", "--config", path, "--out", out])
    assert rc == cli.EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "T,R_c,R_cbar,Gamma_c,Gamma_cbar"
    assert len(lines) == 6
    psr = [float(l.split(",")[3]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(psr, psr[1:]))  # PSR non-decreasing in T


def test_sweep_csv_is_byte_stable(tmp_path):
    body = sweep_ini(
        """
        [sweep]
        parameter = gamma_c
        values = 0.2 0.5 0.8
        backend = sim

        [sim]
        frames = 5000
        seed = 12648430
        """
    ).replace("gamma_c = 1.0", "gamma_c = 0.5")
    path = write_ini(tmp_path, body)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cli.main(["sweep", "--config", path, "--out", out1]) == cli.EXIT_OK
    assert cli.main(["sweep", "--config", path, "--out", out2]) == cli.EXIT_OK
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    header = Path(out1).read_text().splitlines()[0]
    assert header.endswith("R_c_se,R_cbar_se,Gamma_c_se,Gamma_cbar_se,seed")


def test_sweep_empty_values_errors_and_writes_nothing(tmp_path):
    path = write_ini(tmp_path, sweep_ini("\n[sweep]\nparameter = T\nvalues =\n"))
    out = str(tmp_path / "never.csv")
    rc = cli.main(["sweep", "--config", path, "--out", out])
    assert rc == cli.EXIT_CONFIG
    assert not os.path.exists(out)


def test_sweep_invalid_domain_value_writes_nothing(tmp_path):
    path = write_ini(
        tmp_path,
        sweep_ini("\n[sweep]\nparameter = eps1\nvalues = 0.1 0.5 1.5\n"),
    )
    out = str(tmp_path / "never.csv")
    rc = cli.main(["sweep", "--config", path, "--out", out])
    assert rc == cli.EXIT_CONFIG
    assert not os.path.exists(out)


def test_sweep_unknown_parameter(tmp_path):
    path = write_ini(tmp_path, sweep_ini("\n[sweep]\nparameter = bogus\nvalues = 1\n"))
    assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "x.csv")]) == cli.EXIT_CONFIG


def test_sweep_k_values_and_inf(tmp_path):
    body = sweep_ini(
        """
        [sweep]
        parameter = K
        values = 0 2 inf
        backend = analytic
        """
    ).replace("gamma_c = 1.0", "gamma_c = 0.5")
    path = write_ini(tmp_path, body)
    out = str(tmp_path / "k.csv")
    assert cli.main(["sweep", "--config", path, "--out", out]) == cli.EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[1].startswith("0,") and lines[3].startswith("inf,")
    r_c = [float(l.split(",")[1]) for l in lines[1:]]
    assert r_c[0] <= r_c[1] <= r_c[2]  # CS throughput grows with tolerance


def test_sweep_k_requires_erasure_channel(tmp_path):
    # the fading engine has no tolerance K: every row would be the same
    body = sweep_ini(
        """
        [sweep]
        parameter = K
        values = 0 1 inf
        backend = fading

        [sim]
        slots = 200
        """
    ).replace("[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1.0\nbeta2 = 1.0")
    path = write_ini(tmp_path, body)
    out = str(tmp_path / "never.csv")
    assert cli.main(["sweep", "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert not os.path.exists(out)


# ---------------------------------------------------------------------------
# eval / sim / fading commands
# ---------------------------------------------------------------------------


def test_eval_superposition_uses_exact_estimator(tmp_path, capsys):
    body = BASE_INI.replace("receiver = collision", "receiver = superposition")
    body = body.replace("gamma_c = 1.0", "gamma_c = 0.5").replace("G = 16.0", "G = 8.0")
    path = write_ini(tmp_path, body)
    rc = cli.main(["eval", "--config", path])
    assert rc == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("R_c = ")


# The README scenario under the superposition receiver.
SUPERPOSITION_INI = (
    BASE_INI.replace("receiver = collision", "receiver = superposition")
    .replace("gamma_c = 1.0", "gamma_c = 0.5")
    .replace("K = inf", "K = 2")
)


def test_eval_capacity_error_exit_code(tmp_path, capsys):
    # loads whose two Poisson supports span more than 2**26 cells are
    # refused by both estimators before any work
    body = SUPERPOSITION_INI.replace("T = 8", "T = 1").replace("G = 16.0", "G = 2e4")
    for estimator in ("exact", "mc"):
        path = write_ini(tmp_path, body + f"\n[superposition]\nestimator = {estimator}\n")
        t0 = time.perf_counter()
        assert cli.main(["eval", "--config", path]) == cli.EXIT_CAPACITY
        assert time.perf_counter() - t0 < 10.0
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and "two-class limit" in err


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_commands_load_no_scipy_module(tmp_path):
    # a cold CLI start pays for every module it imports; SciPy is a test
    # oracle only, so no command may load any of it
    collision = write_ini(tmp_path, BASE_INI.replace("K = inf", "K = 2"), "collision.ini")
    exact = write_ini(tmp_path, SUPERPOSITION_INI + "\n[superposition]\nestimator = exact\n",
                      "exact.ini")
    region = write_ini(tmp_path, BASE_INI.replace("K = inf", "K = 2")
                       + "\n[region]\ngamma_count = 3\nalpha_count = 3\n", "region.ini")
    fading = write_ini(tmp_path, BASE_INI.replace(
        "[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1.0\nbeta2 = 1.0"
    ), "fading.ini")
    grid = write_ini(tmp_path, "[meta]\nschema_version = 1\n\n[validate]\nl = 2\neps1 = 0.5\n"
                     "eps2 = 0.5\nload = 0.25\ngamma_c = 0.5\nk = 1\n", "validate.ini")
    runs = [
        ["eval", "--config", collision],
        ["eval", "--config", exact],
        ["region", "--config", region, "--out", str(tmp_path / "region.csv")],
        ["sim", "--config", collision, "--frames", "2000"],
        ["fading", "--config", fading, "--slots", "2000"],
        ["validate", "--config", grid, "--target-se", "0.05"],
    ]
    script = textwrap.dedent(f"""
        import sys
        import twohop_aloha.cli as cli
        for argv in {runs!r}:
            assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_VALIDATION), argv
        print(" ".join(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == ""


_OVER_THE_LIMIT = [
    ("gamma_count = 100000000\nalpha_count = 3", "400000000 scenarios in the region"),
    ("gamma_count = 3\nalpha_count = 100000000", "300000003 scenarios in the region"),
    ("gamma_values = " + " ".join(["0.5"] * 1100) + "\nalpha_count = 1000",
     "1101100 scenarios in the region"),
    ("schemes = non_orthogonal\ngamma_count = 3\nalpha_count = 1000000000",
     "1000000000 alpha values"),
]


def test_region_over_the_scenario_limit_is_config_error(tmp_path):
    # the region's size and each axis are checked from their counts and
    # lists before any grid is built: a 1e8-point axis once ran for minutes
    # before any check, and an axis no scheme uses is built all the same
    # (the 71 x 71 benchmark region still answers, in the bytes test below).
    # One interpreter runs every grid, under one timeout.
    runs = [["region", "--config", write_ini(tmp_path, BASE_INI + f"\n[region]\n{grid}\n",
                                             f"region{i}.ini"),
             "--out", str(tmp_path / f"region{i}.csv")]
            for i, (grid, _) in enumerate(_OVER_THE_LIMIT)]
    script = f"import twohop_aloha.cli as cli; print([cli.main(argv) for argv in {runs!r}])"
    pythonpath = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=pythonpath),
                          timeout=20, capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == str([cli.EXIT_CONFIG] * len(runs)), proc.stderr
    errors = proc.stderr.splitlines()
    assert len(errors) == len(runs)
    for line, (_, refused), argv in zip(errors, _OVER_THE_LIMIT, runs):
        assert line.startswith("config error: ") and refused in line
        assert str(cli.MAX_REGION_SCENARIOS) in line
        assert not os.path.exists(argv[-1])


@pytest.mark.parametrize("command", ["eval", "region"])
def test_retired_superposition_key_is_config_error(tmp_path, capsys, command):
    # the exact estimator has no enumeration budget any more; its old key
    # is refused by name instead of being ignored
    body = SUPERPOSITION_INI + "\n[superposition]\nestimator = exact\nenum_limit = 5\n"
    path = write_ini(tmp_path, body + "\n[region]\nbackend = superposition\n")
    out = str(tmp_path / "region.csv")
    assert cli.main([command, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    assert "'enum_limit'" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_superposition_many_aps(tmp_path, capsys):
    # L = 1100 overflows float binomial coefficients; the kernel takes logs
    path = write_ini(tmp_path, SUPERPOSITION_INI.replace("L = 3", "L = 1100"))
    assert cli.main(["eval", "--config", path]) == cli.EXIT_OK
    values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert all(0.0 <= float(v) <= 1.0 for v in values.values()), values


@pytest.mark.parametrize("command,flags", [
    ("eval", ["--backend", "fading"]),
    ("eval", ["--frames", "5"]),
    ("eval", ["--slots", "3"]),
    ("eval", ["--workers", "9"]),
    ("sim", ["--slots", "3"]),
    ("sim", ["--backend", "fading"]),
    ("fading", ["--frames", "5"]),
    ("validate", ["--backend", "sim"]),
    ("validate", ["--frames", "5"]),
    ("region", ["--target-se", "0.1"]),
])
def test_each_command_takes_only_the_flags_it_reads(tmp_path, command, flags):
    path = write_ini(tmp_path, BASE_INI)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", path, *flags])
    assert exc.value.code == cli.EXIT_CONFIG


def test_eval_numerical_failure_exit_code(tmp_path, monkeypatch, capsys):
    def broken(*args):
        raise ValueError("deliberately broken")

    monkeypatch.setattr(cli.analytic_erasure, "evaluate_erasure_batch", broken)
    path = write_ini(tmp_path, BASE_INI)
    assert cli.main(["eval", "--config", path]) == cli.EXIT_CAPACITY
    assert capsys.readouterr().err.startswith("numerical error: ")


def test_eval_l64_matches_mpmath(tmp_path, capsys):
    # the L = 64 closed forms cancelled to R_c = -10.2; the series is right
    body = BASE_INI.replace("L = 3", "L = 64").replace("T = 8", "T = 1")
    body = body.replace("G = 16.0", "G = 0.5").replace("eps1 = 0.5", "eps1 = 0.1")
    body = body.replace("eps2 = 0.5", "eps2 = 0.1")
    path = write_ini(tmp_path, body)
    assert cli.main(["eval", "--config", path]) == cli.EXIT_OK
    values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    # 40-digit mpmath sums of the same series
    assert float(values["R_c"]) == pytest.approx(0.0044542886442777328552, rel=1e-8)
    assert float(values["Gamma_c"]) == pytest.approx(0.0037204668766009676969, rel=1e-8)
    # the NCS closed forms at K = inf cancelled here; 40-digit mpmath
    # two-class sums of (R_cbar, Gamma_cbar)
    ncs = {
        40: (6.2681033823852882957e-6, 0.00012627515966464570245),
        50: (4.4675386152562974812e-7, 8.9232394190102750933e-6),
        64: (1.0947051652306310017e-8, 2.07883050214062549e-7),
    }
    for L, (r_cbar, gamma_cbar) in ncs.items():
        body = BASE_INI.replace("L = 3", f"L = {L}").replace("T = 8", "T = 1")
        body = body.replace("G = 16.0", "G = 0.1").replace("gamma_c = 1.0", "gamma_c = 0.5")
        path = write_ini(tmp_path, body)
        assert cli.main(["eval", "--config", path]) == cli.EXIT_OK
        values = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert float(values["R_cbar"]) == pytest.approx(r_cbar, rel=1e-8), L
        assert float(values["Gamma_cbar"]) == pytest.approx(gamma_cbar, rel=1e-8), L


@pytest.mark.parametrize("G, gamma_c", [("790.0", "1.0"), ("1600.0", "0.5")])
def test_eval_large_load_does_not_overflow(tmp_path, capsys, G, gamma_c):
    # exp(g) overflows in the closed forms; the series take over
    body = BASE_INI.replace("L = 3", "L = 1").replace("T = 8", "T = 1")
    body = body.replace("G = 16.0", f"G = {G}").replace("gamma_c = 1.0", f"gamma_c = {gamma_c}")
    body = body.replace("eps1 = 0.5", "eps1 = 0.9")
    path = write_ini(tmp_path, body)
    assert cli.main(["eval", "--config", path]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("R_c = ")


@pytest.mark.parametrize("K", ["2", "inf"])
def test_eval_two_class_work_bound_is_numerical_error(tmp_path, capsys, K):
    # the dense finite-K grid would ask for terabytes, the nested K = inf sum
    # for hours; both are refused before any work
    body = BASE_INI.replace("T = 8", "T = 1").replace("G = 16.0", "G = 1e6")
    body = body.replace("gamma_c = 1.0", "gamma_c = 0.5").replace("K = inf", f"K = {K}")
    path = write_ini(tmp_path, body)
    t0 = time.perf_counter()
    assert cli.main(["eval", "--config", path]) == cli.EXIT_CAPACITY
    assert time.perf_counter() - t0 < 10.0
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "two-class limit" in err
    assert "Traceback" not in err


def test_eval_isolated_series_work_bound_is_numerical_error(tmp_path):
    # CS at K = inf contends alone at a per-slot load of 5e11: its series
    # would run for hours, so it is refused before any work
    body = BASE_INI.replace("T = 8", "T = 1").replace("G = 16.0", "G = 1e12")
    path = write_ini(tmp_path, body.replace("gamma_c = 1.0", "gamma_c = 0.5"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "twohop_aloha.cli", "eval", "--config", path],
                          env=env, timeout=300, capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_CAPACITY, proc.stderr
    assert proc.stderr.startswith("numerical error: ")
    assert "terms of Poisson support" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command,G,K", [
    ("eval", "1e60", "2"), ("eval", "1e60", "inf"), ("sweep", "1e308", "2"),
])
def test_a_load_beyond_the_float_counts_is_numerical_error(tmp_path, command, G, K):
    # above a per-slot load of 2**53 the tail search stalled (1e60) or its
    # expansion overflowed (1e308); the load is refused before any search
    body = BASE_INI.replace("gamma_c = 1.0", "gamma_c = 0.5").replace("K = inf", f"K = {K}")
    if command == "sweep":
        body += f"\n[sweep]\nparameter = G\nvalues = {G}\nbackend = analytic\n"
    path = write_ini(tmp_path, body.replace("G = 16.0", f"G = {G}"))
    out = str(tmp_path / "never.csv")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "twohop_aloha.cli", command, "--config", path, "--out", out],
        env=env, timeout=60, capture_output=True, text=True,
    )
    assert proc.returncode == cli.EXIT_CAPACITY, proc.stderr
    assert proc.stderr.startswith("numerical error: ") and "above 2**53" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def _address_space_cap():
    # set in the child before it runs: a missing refusal fails with a
    # MemoryError instead of exhausting the machine's memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("backend,budget", [("sim", "frames"), ("fading", "slots")])
def test_sweep_simulators_refuse_a_load_over_the_draw_bound(tmp_path, backend, budget):
    # one frame (slot) at G = 1e9 needs about 3e9 draws: the simulators
    # refuse it as the series do, before any draw
    body = BASE_INI.replace("T = 8", "T = 1").replace("G = 16.0", "G = 1e9")
    if backend == "fading":
        body = body.replace("[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1\nbeta2 = 1")
    body += f"\n[sweep]\nparameter = gamma_c\nvalues = 0.5\nbackend = {backend}\n"
    path = write_ini(tmp_path, body + f"\n[sim]\n{budget} = 1\n")
    out = str(tmp_path / "never.csv")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "twohop_aloha.cli", "sweep", "--config", path, "--out", out],
        env=env, timeout=120, capture_output=True, text=True, preexec_fn=_address_space_cap,
    )
    assert proc.returncode == cli.EXIT_CAPACITY, proc.stderr
    assert proc.stderr.startswith("numerical error: ") and "expected draws" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not os.path.exists(out)


def test_region_tdma_high_load_still_answers():
    # the 71 x 71 TDMA grid at G = 1e4 reaches a CS load of 7e5 per slot,
    # under the series' work bound: the values are those it always had
    base = ScenarioConfig(L=3, T=1, G=1e4, gamma_c=0.5, channel=ErasureParams(0.999, 0.5))
    rows = cli.compute_region(base, (1.0,), (1 / 70,), ("tdma",), cli.AnalyticBackend())
    assert rows == [("tdma", 1.0, 1 / 70, 1.4789514829565166e-303, 0.0)]


@pytest.mark.parametrize("name", ["scenario", "superposition"])
def test_region_bytes_match_the_benchmark_references(tmp_path, name):
    # the figures workload's two regions, read from the benchmark's own
    # scenario files, must keep the bytes of its stored references
    bench = os.path.join(os.path.dirname(_SRC), "perfbench")
    reference = "analytic" if name == "scenario" else name
    out = str(tmp_path / "region.csv")
    config = os.path.join(bench, "scenarios", f"{name}.ini")
    assert cli.main(["region", "--config", config, "--out", out]) == cli.EXIT_OK
    with open(out, "rb") as got, open(
        os.path.join(bench, "reference", f"region_{reference}.csv"), "rb"
    ) as want:
        assert got.read() == want.read()


@pytest.mark.parametrize("label, args", [
    ("fading", ("fading", "fading.ini", "--slots", "65536", "--workers", "2")),
    ("sim", ("sim", "scenario.ini", "--frames", "333332", "--workers", "2")),
    ("eval_mc", ("eval", "superposition_mc.ini")),
])
def test_points_bytes_match_the_benchmark_references(tmp_path, label, args):
    # the points workload's three commands, with its arguments, its scenario
    # files and the default seed, must keep the bytes of its stored references
    bench = os.path.join(os.path.dirname(_SRC), "perfbench")
    command, scenario, *rest = args
    out = str(tmp_path / f"{label}.csv")
    config = os.path.join(bench, "scenarios", scenario)
    assert cli.main([command, "--config", config, *rest, "--out", out]) == cli.EXIT_OK
    with open(out, "rb") as got, open(
        os.path.join(bench, "reference", f"{label}.csv"), "rb"
    ) as want:
        assert got.read() == want.read()


def test_eval_tolerance_sum_beyond_floats_is_numerical_error(tmp_path, capsys):
    # C(1099, 549) does not fit in a float: K = 600 at L = 1100 is refused
    # (it used to die with an OverflowError traceback), while K = 2 at the
    # same load answers with the bytes it always had
    body = BASE_INI.replace("L = 3", "L = 1100").replace("T = 8", "T = 1")
    body = body.replace("G = 16.0", "G = 0.5").replace("gamma_c = 1.0", "gamma_c = 0.5")
    path = write_ini(tmp_path, body.replace("K = inf", "K = 600"))
    assert cli.main(["eval", "--config", path]) == cli.EXIT_CAPACITY
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "L=1100, K=600" in err
    assert "Traceback" not in err
    path = write_ini(tmp_path, body.replace("K = inf", "K = 2"))
    assert cli.main(["eval", "--config", path]) == cli.EXIT_OK
    assert capsys.readouterr().out == (
        "R_c = 5.01535922e-15\nR_cbar = 3.92732077e-15\n"
        "Gamma_c = 2.52992252e-15\nGamma_cbar = 2.11339071e-15\n"
    )


def test_sim_command_writes_csv_with_seed(tmp_path):
    path = write_ini(tmp_path, BASE_INI + "\n[sim]\nframes = 2000\n")
    out = str(tmp_path / "sim.csv")
    rc = cli.main(["sim", "--config", path, "--out", out, "--seed", "7"])
    assert rc == cli.EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0].endswith("seed")
    assert lines[1].endswith(",7")


def test_sim_zero_budget_is_config_error(tmp_path):
    path = write_ini(tmp_path, BASE_INI)
    assert cli.main(["sim", "--config", path, "--frames", "0"]) == cli.EXIT_CONFIG
    assert cli.main(["sim", "--config", path]) == cli.EXIT_CONFIG
    # a flag that is given wins over [sim], and is checked like it
    path = write_ini(tmp_path, BASE_INI + "\n[sim]\nframes = 2000\nslots = 2000\n")
    for flags in (["--frames", "0"], ["--workers", "0"], ["--workers", "-2"]):
        assert cli.main(["sim", "--config", path, *flags]) == cli.EXIT_CONFIG
    fading = BASE_INI.replace(
        "[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1.0\nbeta2 = 1.0"
    )
    path = write_ini(tmp_path, fading + "\n[sim]\nslots = 2000\n")
    assert cli.main(["fading", "--config", path, "--slots", "0"]) == cli.EXIT_CONFIG
    for section in ("frames = 0", "frames = 100\nworkers = 0"):
        path = write_ini(tmp_path, BASE_INI + "\n[sim]\n" + section + "\n")
        assert cli.main(["sim", "--config", path]) == cli.EXIT_CONFIG
    assert cli.main(["validate", "--workers", "0"]) == cli.EXIT_CONFIG


def test_fading_command(tmp_path, capsys):
    body = BASE_INI.replace(
        "[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1.0\nbeta2 = 1.0"
    )
    path = write_ini(tmp_path, body)
    rc = cli.main(["fading", "--config", path, "--slots", "2000", "--seed", "3"])
    assert rc == cli.EXIT_OK
    assert "seed = 3" in capsys.readouterr().out


def test_non_finite_fading_value_is_config_error(tmp_path):
    body = BASE_INI.replace(
        "[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = nan\nbeta2 = 1.0"
    )
    path = write_ini(tmp_path, body)
    assert cli.main(["fading", "--config", path, "--slots", "100"]) == cli.EXIT_CONFIG


def test_validate_l_must_be_whole_numbers(tmp_path):
    for bad in ("inf", "2.5"):
        path = write_ini(tmp_path, BASE_INI + f"\n[validate]\nl = {bad}\n")
        assert cli.main(["validate", "--config", path]) == cli.EXIT_CONFIG
    path = write_ini(tmp_path, BASE_INI + "\n[validate]\nl = 2.0\n")
    grid = cli.default_validation_grid(cli.load_config_file(path)["validate"])
    assert grid and all(cfg.L == 2 for cfg in grid)


def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["eval", "--config", str(tmp_path / "nope.ini")]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


def test_region_single_point_is_the_frontier(tmp_path):
    body = BASE_INI.replace("gamma_c = 1.0", "gamma_c = 0.5") + textwrap.dedent(
        """
        [region]
        gamma_values = 0.4
        alpha_values = 0.5
        backend = analytic
        schemes = non_orthogonal
        """
    )
    path = write_ini(tmp_path, body)
    out = str(tmp_path / "region.csv")
    assert cli.main(["region", "--config", path, "--out", out]) == cli.EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("non_orthogonal,0.4,")


def test_region_output_is_minimal_and_covers_endpoints(tmp_path):
    base = ScenarioConfig(
        L=3, T=2, G=8.0, gamma_c=0.5, channel=ErasureParams(0.5, 0.5), K=2
    )
    gammas = tuple(i / 10 for i in range(11))
    rows = cli.compute_region(
        base, gammas, (0.0, 0.5, 1.0), ("non_orthogonal", "tdma"), cli.AnalyticBackend()
    )
    assert 0.0 in gammas and 1.0 in gammas  # boundary coverage
    for scheme in ("non_orthogonal", "tdma"):
        pts = [(r[-2], r[-1]) for r in rows if r[0] == scheme]
        assert pts
        for p in pts:
            dominated = any(
                q[0] >= p[0] and q[1] >= p[1] and q != p for q in pts
            )
            assert not dominated


def quadratic_pareto_filter(points):
    """The literal all-pairs dominance filter, kept as the oracle."""
    kept = []
    seen = set()
    for p in points:
        key = (p[-2], p[-1])
        if key in seen:
            continue
        dominated = any(
            q[-2] >= p[-2] and q[-1] >= p[-1] and (q[-2] > p[-2] or q[-1] > p[-1])
            for q in points
        )
        if not dominated:
            kept.append(p)
            seen.add(key)
    return kept


# A few shared values force ties in either coordinate, duplicates and
# +-0.0; arbitrary floats (infinities and NaN included) cover the rest.
_COORD = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_POINTS = st.lists(
    st.tuples(st.just("tdma"), st.integers(0, 9), _COORD, _COORD), max_size=40
)


@given(points=_POINTS)
@example(points=[])
@example(points=[("tdma", 0, 0.5, 0.5)])
@example(points=[("tdma", 0, 0.0, 1.0), ("tdma", 1, -0.0, 1.0), ("tdma", 2, 0.0, 1.0)])
@example(points=[("tdma", 0, math.nan, 2.0), ("tdma", 1, 1.0, 1.0), ("tdma", 2, 1.0, math.nan)])
@settings(max_examples=400, deadline=None)
def test_pareto_filter_matches_quadratic_oracle(points):
    # same kept tuples, same order, same representative of each duplicate;
    # a NaN coordinate is refused
    if any(math.isnan(x) for p in points for x in p[-2:]):
        with pytest.raises(ValueError, match="NaN"):
            cli.pareto_filter(points)
        return
    got = cli.pareto_filter(points)
    want = quadratic_pareto_filter(points)
    assert [id(p) for p in got] == [id(p) for p in want]


def test_pareto_filter_refuses_nan():
    low, high = ("b", 1, 0.0, 0.0), ("c", 2, 1.0, 1.0)
    for nan_pt in (("a", 0, math.nan, 5.0), ("a", 0, 5.0, math.nan)):
        with pytest.raises(ValueError, match="NaN"):
            cli.pareto_filter([low, nan_pt, high])


def test_region_rejects_bad_grid(tmp_path):
    for grid in ("gamma_values = 0.2 1.4", "gamma_count = 1", "alpha_count = 1"):
        path = write_ini(tmp_path, BASE_INI + "\n[region]\n" + grid + "\n")
        out = str(tmp_path / "r.csv")
        assert cli.main(["region", "--config", path, "--out", out]) == cli.EXIT_CONFIG


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def small_grid():
    return cli.default_validation_grid(
        {"L": (2,), "eps1": (0.5,), "eps2": (0.5,), "load": (2.0,),
         "gamma_c": (0.5,), "K": (1,)}
    )


def test_validate_small_grid_passes():
    report = cli.validate(small_grid(), target_se=0.005, seed=123)
    assert report.passed
    assert all(c.std_error <= 0.005 for c in report.cells)
    header, rows = cli.validation_rows(report)
    assert len(rows) == 4
    assert "PASS" in cli.render_validation_summary(report)


def test_validate_negative_control_fails(monkeypatch):
    real_batch = cli.analytic_erasure.evaluate_erasure_batch

    def corrupted(cfgs):
        return [
            ServiceMetrics(
                R_c=m.R_c * 1.10 + 0.01, R_cbar=m.R_cbar, Gamma_c=m.Gamma_c,
                Gamma_cbar=m.Gamma_cbar,
            )
            for m in real_batch(cfgs)
        ]

    monkeypatch.setattr(cli.analytic_erasure, "evaluate_erasure_batch", corrupted)
    report = cli.validate(small_grid(), target_se=0.005, seed=123)
    assert not report.passed
    assert any(c.status == "fail" for c in report.cells)
    assert "FAIL" in cli.render_validation_summary(report)


def test_validate_surfaces_per_cell_errors(monkeypatch):
    def broken(*args):
        raise RuntimeError("deliberately broken")

    # a group's K values are evaluated in one call: if it raises, every
    # config of the group becomes error cells
    two_k = cli.default_validation_grid(
        {"L": (2,), "eps1": (0.5,), "eps2": (0.5,), "load": (2.0,),
         "gamma_c": (0.5,), "K": (1, 2)}
    )
    with monkeypatch.context() as patch:
        patch.setattr(cli.analytic_erasure, "evaluate_erasure_batch", broken)
        report = cli.validate(two_k, target_se=0.005, seed=1)
    assert not report.passed
    assert report.n_errors == 8
    assert {c.status for c in report.cells} == {"error: deliberately broken"}
    monkeypatch.setattr(cli.sim_erasure, "simulate_multi_k", broken)
    report = cli.validate(small_grid(), target_se=0.005, seed=1)
    assert not report.passed
    assert report.n_errors == 4


def test_max_abs_z_is_taken_over_the_scored_cells(monkeypatch):
    # an error cell's z is NaN; ahead of a scored cell it made max |z| NaN
    def broken(*args):
        raise RuntimeError("deliberately broken")

    monkeypatch.setattr(cli.sim_erasure, "simulate_multi_k", broken)
    report = cli.validate(small_grid(), target_se=0.005, seed=1)
    error = report.cells[0]
    ok = dataclasses.replace(error, analytic=0.5, simulated=0.52, std_error=0.01, z=2.0,
                             status="ok")
    report = dataclasses.replace(report, cells=(error, ok))
    assert report.max_abs_z == 2.0
    assert "max |z| = 2.000," in cli.render_validation_summary(report)


def test_validate_groups_configs_by_receiver():
    # a superposition config beside a collision config of the same parameters
    # was scored against the collision simulation
    [collision] = cli.default_validation_grid(
        {"L": (3,), "eps1": (0.5,), "eps2": (0.5,), "load": (2.0,),
         "gamma_c": (0.5,), "K": (1,)}
    )
    superposition = collision.replace(receiver=Receiver.SUPERPOSITION)
    alone = cli.validate([superposition], target_se=0.01, seed=3)
    both = cli.validate([collision, superposition], target_se=0.01, seed=3)
    assert both.passed
    assert ([c.simulated for c in both.cells if c.cfg == superposition]
            == [c.simulated for c in alone.cells])


def test_validate_refuses_a_fading_config_before_any_work(monkeypatch):
    def never(*args):
        raise AssertionError("simulation ran")

    monkeypatch.setattr(cli.sim_erasure, "simulate_multi_k", never)
    fading = small_grid()[0].replace(channel=FadingParams(alpha2=1.0, beta2=1.0))
    with pytest.raises(ValueError, match="does not use the erasure channel"):
        cli.validate(small_grid() + [fading], target_se=0.005)


def test_validation_summary_counts_match_the_csv(monkeypatch):
    real_sim = cli.sim_erasure.simulate_multi_k
    real_batch = cli.analytic_erasure.evaluate_erasure_batch

    def broken_at_l3(cfg, *args):
        if cfg.L == 3:
            raise RuntimeError("deliberately broken")
        return real_sim(cfg, *args)

    def corrupted(cfgs):  # R_c off by far more than its noise: fail cells
        return [dataclasses.replace(m, R_c=m.R_c * 1.10 + 0.01) for m in real_batch(cfgs)]

    monkeypatch.setattr(cli.sim_erasure, "simulate_multi_k", broken_at_l3)
    monkeypatch.setattr(cli.analytic_erasure, "evaluate_erasure_batch", corrupted)
    grid = cli.default_validation_grid(
        {"L": (2, 3), "eps1": (0.5,), "eps2": (0.5,), "load": (2.0,),
         "gamma_c": (0.5,), "K": (1, 2)}
    )
    report = cli.validate(grid, target_se=0.005, seed=1)
    header, rows = cli.validation_rows(report)
    statuses = [row[header.index("status")] for row in rows]
    want = [statuses.count(s) for s in ("ok", "warn", "fail")]
    want.append(sum(s.startswith("error") for s in statuses))
    assert sum(want) == len(rows) == 16
    assert want[2] > 0 and want[3] == 8  # the corrupted R_c fails; the L = 3 group raised
    summary = cli.render_validation_summary(report)
    got = re.search(r"\(ok (\d+), warn (\d+), fail (\d+), errors (\d+)\)", summary).groups()
    assert list(map(int, got)) == want
    assert report.n_errors == want[3] and not report.passed


def test_validate_rejects_bad_budget():
    with pytest.raises(ValueError):
        cli.validate(small_grid(), target_se=0.0)
    with pytest.raises(ValueError):
        cli.validate([], target_se=0.005)


def test_validate_cli_exit_code_on_failure(tmp_path, monkeypatch, capsys):
    real_validate = cli.validate

    def fake_validate(grid, target_se, seed, workers):
        return real_validate(small_grid(), target_se=0.005, seed=1)

    monkeypatch.setattr(cli, "validate", fake_validate)
    monkeypatch.setattr(cli.analytic_erasure, "evaluate_erasure_batch",
                        lambda cfgs: [ServiceMetrics(0.9, 0.0, 0.9, 0.9) for _ in cfgs])
    out = str(tmp_path / "report.csv")
    rc = cli.main(["validate", "--out", out])
    assert rc == cli.EXIT_VALIDATION
    assert os.path.exists(out)
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["eval", "region", "validate"])
@pytest.mark.parametrize("parent", ["missing", "a_file"])
def test_out_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys, command, parent):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    path = write_ini(tmp_path, BASE_INI + "\n[region]\ngamma_values = 0.5\nalpha_values = 0.5\n")
    (tmp_path / "a_file").write_text("")
    for module, name in ((cli, "load_config_file"), (cli.analytic_erasure, "evaluate_erasure_batch"),
                         (cli.sim_erasure, "simulate_multi_k")):
        monkeypatch.setattr(module, name, no_work)
    argv = [command, "--out", str(tmp_path / parent / "x.csv")]
    if command != "validate":
        argv += ["--config", path]
    assert cli.main(argv) == cli.EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: --out directory {tmp_path / parent} is not a writable directory\n"


@pytest.mark.parametrize("command", ["eval", "region"])
@pytest.mark.parametrize("slash", ["", "/"])
def test_out_naming_a_directory_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                           command, slash):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    path = write_ini(tmp_path, BASE_INI + "\n[region]\ngamma_values = 0.5\nalpha_values = 0.5\n")
    for module, name in ((cli, "load_config_file"), (cli.analytic_erasure, "evaluate_erasure_batch")):
        monkeypatch.setattr(module, name, no_work)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = str(out_dir) + slash
    assert cli.main([command, "--config", path, "--out", out]) == cli.EXIT_CONFIG
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err == f"config error: --out {out} names a directory, not a file\n"
    assert list(out_dir.iterdir()) == []


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def test_float_rendering_contract():
    assert cli.fmt_value(0.330325726) == "0.330325726"
    assert cli.fmt_value(1.0 / 3.0) == "0.333333333"
    assert cli.fmt_value(INFINITE_K) == "inf"
    assert cli.fmt_value(7) == "7"
    assert cli.fmt_value(1e-12) == "1e-12"


# ---------------------------------------------------------------------------
# Every command's sweeps and refusals, through cli.main
# ---------------------------------------------------------------------------


FADING_INI = BASE_INI.replace(
    "[erasure]\neps1 = 0.5\neps2 = 0.5", "[fading]\nalpha2 = 1.0\nbeta2 = 1.0"
)
TDMA_INI = BASE_INI.replace(
    "allocation = non_orthogonal", "allocation = tdma\nalpha = 0.5"
).replace("gamma_c = 1.0", "gamma_c = 0.5")


def run_cli(capsys, argv):
    """Exit code, stdout and stderr of one in-process run, which never shows a traceback."""
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    return rc, out, err


@pytest.mark.parametrize("target_se", ["1e-200", "1e-160", "1e300"])
def test_validate_budget_at_extreme_target_se(tmp_path, capsys, monkeypatch, target_se):
    # 0.25 / target_se**2 divided by zero at 1e-200 and overflowed at 1e-160
    # and 1e300; a tiny target gets the frame cap, a huge one one trial
    frames = []
    real = cli.sim_erasure.simulate_multi_k

    def spy(cfg, ks, n_frames, *args):
        frames.append(n_frames)
        return real(cfg, ks, n_frames, *args)

    monkeypatch.setattr(cli, "_VALIDATE_MAX_FRAMES", 3000)
    monkeypatch.setattr(cli.sim_erasure, "simulate_multi_k", spy)
    path = write_ini(tmp_path, "[meta]\nschema_version = 1\n\n[validate]\nl = 2\neps1 = 0.5\n"
                     "eps2 = 0.5\nload = 0.25\ngamma_c = 0.5\nk = 1\n")
    rc, out, err = run_cli(capsys, ["validate", "--config", path, "--target-se", target_se])
    assert rc in (cli.EXIT_OK, cli.EXIT_VALIDATION) and err == ""
    p_min = -math.expm1(-0.125)  # each class's chance of a device at load 0.125
    assert frames == [3000 if float(target_se) < 1 else math.ceil(1.05 / p_min) + 500]


def spy_scenarios(monkeypatch, module, name):
    """Record the scenarios that reach ``module.name``, which still runs."""
    seen = []
    real = getattr(module, name)

    def spy(cfgs, *args):
        seen.extend(cfgs if isinstance(cfgs, list) else [cfgs])
        return real(cfgs, *args)

    monkeypatch.setattr(module, name, spy)
    return seen


@pytest.mark.parametrize("body,parameter,values,field", [
    (BASE_INI, "L", "1 2 4", lambda c: c.L),
    (BASE_INI, "G", "2.5 8", lambda c: c.G),
    (TDMA_INI, "alpha", "0.25 0.75", lambda c: c.allocation.alpha),
    (FADING_INI, "alpha2", "0.5 2", lambda c: c.fading.alpha2),
    (FADING_INI, "beta2", "0.5 2", lambda c: c.fading.beta2),
])
def test_sweep_sets_the_swept_field(tmp_path, capsys, monkeypatch, body, parameter, values,
                                    field):
    fading = body is FADING_INI
    seen = spy_scenarios(monkeypatch, *(
        (cli.sim_fading, "estimate_fading_metrics") if fading
        else (cli.analytic_erasure, "evaluate_erasure_batch")
    ))
    backend = "fading\n[sim]\nslots = 500" if fading else "analytic"
    path = write_ini(tmp_path, body + f"\n[sweep]\nparameter = {parameter}\n"
                     f"values = {values}\nbackend = {backend}\n")
    out = str(tmp_path / "sweep.csv")
    rc, stdout, err = run_cli(capsys, ["sweep", "--config", path, "--out", out])
    assert (rc, err) == (cli.EXIT_OK, "")
    assert stdout == f"wrote {out} ({len(values.split())} rows)\n"
    want = [float(v) for v in values.split()]
    assert [field(cfg) for cfg in seen] == want
    rows = Path(out).read_text().splitlines()
    assert rows[0].startswith(parameter + ",")
    assert [float(row.split(",")[0]) for row in rows[1:]] == want


def sweep_body(body, parameter, values="1", backend="analytic"):
    return body + f"\n[sweep]\nparameter = {parameter}\nvalues = {values}\nbackend = {backend}\n"


SUPERPOSITION_RECEIVER = BASE_INI.replace("receiver = collision", "receiver = superposition")
_REGION = "\n[region]\ngamma_values = 0.5\nalpha_values = 0.5\n"

# (command, scenario file, extra flags, stderr) of runs that are refused
_REFUSALS = {
    "alpha_without_tdma": ("sweep", sweep_body(BASE_INI, "alpha", "0.5"), [],
                           "sweeping alpha requires the tdma allocation"),
    "alpha2_on_erasure": ("sweep", sweep_body(BASE_INI, "alpha2"), [],
                          "sweeping alpha2 requires the fading channel"),
    "eps1_on_fading": ("sweep", sweep_body(FADING_INI, "eps1", "0.5", "fading"),
                       ["--slots", "100"],
                       "sweeping eps1 requires the erasure channel"),
    "unknown_parameter": ("sweep", sweep_body(BASE_INI, "rho"), [],
                          "unknown sweep parameter 'rho'; choose from "
                          f"{cli.SWEEPABLE}"),
    "k_not_a_number": ("eval", BASE_INI.replace("K = inf", "K = two"), [],
                       "K must be a non-negative integer or 'inf', got 'two'"),
    "missing_key": ("eval", BASE_INI.replace("G = 16.0\n", ""), [],
                    "missing required key 'g' in section [scenario]"),
    "empty_float_list": ("sweep", sweep_body(BASE_INI, "G", ""), [], "empty value list"),
    "missing_scenario": ("eval", BASE_INI.replace("[scenario]", "[setting]"), [],
                         "config must contain a [scenario] section"),
    "unknown_allocation": ("eval", BASE_INI.replace("allocation = non_orthogonal",
                                                    "allocation = fdma"), [],
                           "unknown allocation 'fdma'"),
    "analytic_with_superposition": ("sweep", sweep_body(SUPERPOSITION_RECEIVER, "G"), [],
                                    "analytic backend requires the erasure channel and "
                                    "collision receiver"),
    "sim_with_fading": ("sim", FADING_INI, ["--frames", "100"],
                        "sim backend requires the erasure channel"),
    "fading_with_erasure": ("fading", BASE_INI, ["--slots", "100"],
                            "fading backend requires fading channel parameters"),
    "fading_with_tdma": ("fading", FADING_INI.replace(
        "allocation = non_orthogonal", "allocation = tdma\nalpha = 0.5"), ["--slots", "100"],
        "fading backend supports non-orthogonal allocation only"),
    "superposition_with_collision": ("region", BASE_INI + _REGION, ["--backend", "superposition"],
                                     "superposition backend requires the erasure channel and "
                                     "superposition receiver"),
    "mc_samples_zero": ("eval", SUPERPOSITION_RECEIVER + "\n[superposition]\nestimator = mc\n"
                        "mc_samples = 0\n", [], "mc_samples must be >= 1, got 0"),
    "unknown_estimator": ("eval", SUPERPOSITION_RECEIVER
                          + "\n[superposition]\nestimator = magic\n", [],
                          "unknown superposition estimator 'magic'"),
    "unknown_backend": ("sweep", sweep_body(BASE_INI, "G"), ["--backend", "foo"],
                        "unknown backend 'foo'"),
    "sweep_without_section": ("sweep", BASE_INI, [], "sweep command needs a [sweep] section"),
    "region_without_section": ("region", BASE_INI, [],
                               "region command needs a [region] section"),
    "sweep_without_out": ("sweep", sweep_body(BASE_INI, "G"), None, "sweep requires --out"),
    "region_without_out": ("region", BASE_INI + _REGION, None, "region requires --out"),
    "unknown_scheme": ("region", BASE_INI + _REGION + "schemes = fdma\n", [],
                       "unknown scheme 'fdma' in region spec"),
    "no_frames_budget": ("sim", BASE_INI, [], "no frames budget: give --frames or [sim] frames"),
    "zero_frames_flag": ("sim", BASE_INI, ["--frames", "0"], "frames must be >= 1, got 0"),
    "zero_frames_in_sim": ("sim", BASE_INI + "\n[sim]\nframes = 0\n", [],
                           "frames must be >= 1, got 0"),
    "negative_seed": ("sim", BASE_INI + "\n[sim]\nframes = 100\nseed = -1\n", [],
                      "seed must be >= 0, got -1"),
    "zero_workers": ("sim", BASE_INI, ["--frames", "100", "--workers", "0"],
                     "workers must be >= 1, got 0"),
    "one_gamma_step": ("region", BASE_INI + "\n[region]\ngamma_count = 1\nalpha_count = 3\n", [],
                       "gamma_count must be >= 2, got 1; use gamma_values for a single point"),
    "fractional_l": ("eval", BASE_INI.replace("L = 3", "L = 2.5"), [],
                     "bad value for 'l' in [scenario]: '2.5'"),
    "future_schema": ("eval", BASE_INI.replace("schema_version = 1", "schema_version = 99"), [],
                      "unsupported schema_version 99 (expected 1)"),
    "no_schema_version": ("eval", BASE_INI.replace("[meta]\nschema_version = 1", "[meta]"), [],
                          "config must carry [meta] schema_version"),
    "both_channels": ("eval", BASE_INI + "\n[fading]\nalpha2 = 1\nbeta2 = 1\n", [],
                      "config must contain exactly one of [erasure] or [fading]"),
    # each of these exited 0: alpha gave the non-orthogonal numbers, and the
    # count beside its axis's values and mc_samples under exact were never read
    "alpha_without_tdma_allocation": (
        "eval", BASE_INI.replace("allocation = non_orthogonal", "alpha = 0.3"), [],
        "alpha is the tdma slot share: give it with allocation = tdma only"),
    "gamma_values_and_count": ("region", BASE_INI + _REGION + "gamma_count = 3\n", [],
                               "[region] takes gamma_values or gamma_count, not both"),
    "alpha_values_and_count": ("region", BASE_INI + _REGION + "alpha_count = 3\n", [],
                               "[region] takes alpha_values or alpha_count, not both"),
    "one_gamma_step_beside_values": ("region", BASE_INI + _REGION + "gamma_count = 1\n", [],
                                     "gamma_count must be >= 2, got 1; use gamma_values for "
                                     "a single point"),
    "mc_samples_not_a_number_under_exact": (
        "eval", SUPERPOSITION_RECEIVER + "\n[superposition]\nestimator = exact\n"
        "mc_samples = abc\n", [], "bad value for 'mc_samples' in [superposition]: 'abc'"),
    # one list rule, and one message for an empty list, whatever the key
    "empty_whole_number_list": ("sweep", sweep_body(BASE_INI, "T", ""), [], "empty value list"),
    "empty_k_list": ("sweep", sweep_body(BASE_INI, "K", ","), [], "empty value list"),
    "empty_validate_list": ("validate", "[meta]\nschema_version = 1\n\n[validate]\nk =\n", [],
                            "empty value list"),
    # every section the file holds is checked, whichever command reads it
    "bad_sweep_section_under_eval": ("eval", sweep_body(BASE_INI, "rho"), [],
                                     "unknown sweep parameter 'rho'; choose from "
                                     f"{cli.SWEEPABLE}"),
    "bad_region_section_under_sim": ("sim", BASE_INI + _REGION + "schemes = fdma\n",
                                     ["--frames", "100"], "unknown scheme 'fdma' in region spec"),
    "bad_scenario_under_validate": ("validate", BASE_INI.replace("T = 8", "T = eight"), [],
                                    "bad value for 't' in [scenario]: 'eight'"),
    # one spelling per value: the README's
    "k_infinite": ("eval", BASE_INI.replace("K = inf", "K = infinite"), [],
                   "K must be a non-negative integer or 'inf', got 'infinite'"),
    "k_infinity": ("eval", BASE_INI.replace("K = inf", "K = infinity"), [],
                   "K must be a non-negative integer or 'inf', got 'infinity'"),
    "allocation_nonorthogonal": ("eval", BASE_INI.replace("allocation = non_orthogonal",
                                                          "allocation = nonorthogonal"), [],
                                 "unknown allocation 'nonorthogonal'"),
    "allocation_noma": ("eval", BASE_INI.replace("allocation = non_orthogonal",
                                                 "allocation = noma"), [],
                        "unknown allocation 'noma'"),
}


# (command, scenario file, flags, exit code, stderr, draw that must not run)
# of runs that used to end in a traceback after, or instead of, drawing
_REFUSALS_BEFORE_ANY_DRAW = {
    "fading_rate_beyond_the_floats": (
        "fading", FADING_INI.replace("beta2 = 1.0", "beta2 = 1.0\nr_c = 2000"),
        ["--slots", "100"], cli.EXIT_CONFIG,
        "config error: transmission rates must be below 1024: 2**rate - 1 overflows\n",
        (cli.sim_fading, "_run_fading_chunk")),
    "fading_power_beyond_the_floats": (
        "fading", FADING_INI.replace("alpha2 = 1.0", "alpha2 = 1e308"),
        ["--slots", "100"], cli.EXIT_CONFIG,
        "config error: mean received powers alpha2 * P_c and beta2 * P_ap must be at most "
        "1e150, or the drawn powers can overflow\n",
        (cli.sim_fading, "_run_fading_chunk")),
    "mc_samples_over_the_draw_bound": (
        "eval", SUPERPOSITION_INI + "\n[superposition]\nestimator = mc\n"
        "mc_samples = 100000000000\n", [], cli.EXIT_CAPACITY,
        "numerical error: mc_samples = 100000000000 allocations of 29 cells need 2.9e+12 "
        "counts, more than the 67108864 one draw may hold\n",
        (cli.superposition.ConditionedMC, "_draws")),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS_BEFORE_ANY_DRAW))
def test_refusal_comes_before_any_draw(tmp_path, capsys, monkeypatch, case):
    command, body, flags, code, message, (module, draw) = _REFUSALS_BEFORE_ANY_DRAW[case]

    def never(*args, **kwargs):
        raise AssertionError(f"{draw} ran")

    monkeypatch.setattr(module, draw, never)
    path = write_ini(tmp_path, body)
    out = str(tmp_path / "never.csv")
    rc, stdout, err = run_cli(capsys, [command, "--config", path, "--out", out] + flags)
    assert (rc, stdout, err) == (code, "", message)
    assert not os.path.exists(out)


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_refusal_is_a_config_error(tmp_path, capsys, case):
    command, body, flags, message = _REFUSALS[case]
    path = write_ini(tmp_path, body)
    out = str(tmp_path / "never.csv")
    argv = [command, "--config", path] + (["--out", out] + flags if flags is not None else [])
    rc, stdout, err = run_cli(capsys, argv)
    assert (rc, stdout) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: {message}\n"
    assert not os.path.exists(out)


# A run of each command, eval's under each receiver, and a value out of the
# range of each [sim] key
_FLAGGED_RUNS = {
    "eval_collision": ("eval", BASE_INI),
    "eval_superposition": ("eval", SUPERPOSITION_RECEIVER),
    "sim": ("sim", BASE_INI),
    "fading": ("fading", FADING_INI),
    "sweep": ("sweep", sweep_body(BASE_INI, "G")),
    "region": ("region", BASE_INI + _REGION),
    "validate": ("validate", "[meta]\nschema_version = 1\n"),
}
_OUT_OF_RANGE = {"frames": "0", "slots": "0", "seed": "-1", "workers": "0"}


@pytest.mark.parametrize("case", sorted(_FLAGGED_RUNS))
def test_every_flag_is_checked_like_its_sim_key(tmp_path, capsys, case):
    # eval --seed -1 under the collision receiver exited 0, and a --frames or
    # --slots that the backend did not read went unchecked
    assert {command for command, _ in _FLAGGED_RUNS.values()} == set(cli._COMMANDS)
    command, body = _FLAGGED_RUNS[case]
    path = write_ini(tmp_path, body)
    keys = set(cli._COMMANDS[command][1].split()) & set(cli._TABLE["sim"])
    assert "seed" in keys
    for key in sorted(keys):
        value = _OUT_OF_RANGE[key]
        with pytest.raises(cli.ConfigError) as in_sim:
            cli.load_config_file(write_ini(tmp_path, f"{body}\n[sim]\n{key} = {value}\n",
                                           "sim.ini"))
        out = tmp_path / "never.csv"
        argv = [command, "--config", path, "--out", str(out), f"--{key}", value]
        assert run_cli(capsys, argv) == (cli.EXIT_CONFIG, "", f"config error: {in_sim.value}\n")
        assert not out.exists()


def test_sweep_values_are_typed_at_load(tmp_path, capsys):
    # eval does not read [sweep], but the file's [sweep] values are checked
    # by the type of its parameter when the file is loaded
    path = write_ini(tmp_path, sweep_body(BASE_INI, "L", "1 x"))
    refused = run_cli(capsys, ["sweep", "--config", path, "--out", str(tmp_path / "s.csv")])
    assert refused == (cli.EXIT_CONFIG, "",
                       "config error: bad value for 'values' in [sweep]: '1 x'\n")
    assert run_cli(capsys, ["eval", "--config", path]) == refused


# (command, scenario file with one misspelled key, extra flags, the key, its section)
_MISSPELLED_KEYS = {
    "DEFAULT": ("eval", "[DEFAULT]\nseed = 5\n\n" + BASE_INI, [], "seed", "DEFAULT"),
    "meta": ("eval", BASE_INI.replace("schema_version = 1", "schema_version = 1\nschema = 1"),
             [], "schema", "meta"),
    "scenario": ("eval", BASE_INI.replace("receiver = collision", "reciever = superposition"),
                 [], "reciever", "scenario"),
    "erasure": ("eval", BASE_INI.replace("eps2 = 0.5", "eps2 = 0.5\neps3 = 1"), [],
                "eps3", "erasure"),
    "fading": ("fading", FADING_INI.replace("beta2 = 1.0", "beta2 = 1.0\nbeta_2 = 1.0"),
               ["--slots", "100"], "beta_2", "fading"),
    "sim": ("sim", BASE_INI + "\n[sim]\nframes = 100\nframe = 100\n", [], "frame", "sim"),
    "superposition": ("eval", SUPERPOSITION_RECEIVER + "\n[superposition]\nestimater = mc\n",
                      [], "estimater", "superposition"),
    "sweep": ("sweep", sweep_body(BASE_INI, "G") + "valeus = 1 2\n", [], "valeus", "sweep"),
    "region": ("region", BASE_INI + _REGION + "scheme = tdma\n", [], "scheme", "region"),
    "validate": ("validate", "[meta]\nschema_version = 1\n\n[validate]\nl = 2\nepsilon1 = 0.5\n",
                 [], "epsilon1", "validate"),
}


@pytest.mark.parametrize("case", sorted(_MISSPELLED_KEYS))
def test_a_key_its_section_does_not_read_is_a_config_error(tmp_path, capsys, case):
    # such keys were ignored: reciever = superposition gave the collision
    # receiver's numbers with exit 0
    command, body, flags, key, section = _MISSPELLED_KEYS[case]
    path = write_ini(tmp_path, body)
    out = str(tmp_path / "never.csv")
    rc, stdout, err = run_cli(capsys, [command, "--config", path, "--out", out] + flags)
    assert (rc, stdout) == (cli.EXIT_CONFIG, "")
    assert err == f"config error: unknown key '{key}' in [{section}]\n"
    assert not os.path.exists(out)


_BENCH = os.path.join(os.path.dirname(_SRC), "perfbench")


def _benchmark_commands():
    """The benchmark's commands, read from its ``workloads.py`` as it stands."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(_BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [c for w in module.WORKLOADS.values() for c in w.commands]


def _read_inputs(argv):
    """A command's inputs as ``cli._run`` reads them, and the backend's check
    of the scenario; nothing is evaluated."""
    args = cli._build_parser().parse_args(argv)
    inputs = cli._inputs(args)
    if args.command != "validate":
        cfg, backend, *_ = inputs
        backend.check(cfg)


def test_every_benchmark_input_passes_its_commands_readers(tmp_path):
    # the refusal of unknown keys must never refuse a benchmark input
    commands = _benchmark_commands()
    used = set()
    for command in commands:
        argv = command.argv(str(tmp_path), cli.DEFAULT_SEED)
        used.add(os.path.basename(argv[argv.index("--config") + 1]))
        _read_inputs(argv)
    assert used == set(os.listdir(os.path.join(_BENCH, "scenarios")))


def _readme_grammar_block() -> str:
    section = (Path(_SRC).parent / "README.md").read_text(encoding="utf-8")
    return re.search(r"```ini\n(.*?)```", section.split("### Scenario file grammar", 1)[1],
                     re.DOTALL).group(1)


def test_the_readme_grammar_passes_every_commands_readers(tmp_path):
    block = _readme_grammar_block()
    erasure = write_ini(tmp_path, block, "erasure.ini")
    out = str(tmp_path / "never.csv")
    for command in ("eval", "sim", "sweep", "region", "validate"):
        _read_inputs([command, "--config", erasure, "--out", out])
    # the fading alternative, uncommented in place of [erasure]
    head, rest = block.split("\n[erasure]\n")
    fading = re.sub(r"^# ", "", rest[rest.index("# [fading]"):rest.index("\n[sim]")], flags=re.M)
    fading = head + "\n" + fading + rest[rest.index("\n[sim]"):]
    _read_inputs(["fading", "--config", write_ini(tmp_path, fading, "fading.ini"),
                  "--out", out])
    assert not os.path.exists(out)


def test_malformed_ini_is_a_config_error(tmp_path, capsys):
    path = write_ini(tmp_path, BASE_INI.replace("[erasure]", "[erasure"))
    rc, stdout, err = run_cli(capsys, ["eval", "--config", path])
    assert (rc, stdout) == (cli.EXIT_CONFIG, "")
    assert err.startswith(f"config error: malformed config file {path}: ")


def _grammar_keys(block: str) -> dict:
    """Each section of a README grammar block and its keys, those shown as
    commented-out alternatives included."""
    keys, section = {}, None
    for line in block.splitlines():
        line = re.sub(r"^# (?=\[\w+\]|\w+ = )", "", line)
        if match := re.match(r"\[(\w+)\]", line):
            section = keys.setdefault(match[1], set())
        elif match := re.match(r"(\w+) = ", line):
            section.add(match[1].lower())
    return keys


def test_the_readme_grammar_names_every_key_of_the_table_and_no_other():
    table = {name: set(keys) for name, keys in cli._TABLE.items() if name != "DEFAULT"}
    assert _grammar_keys(_readme_grammar_block()) == table


def test_the_readme_names_each_commands_flags_and_no_other():
    section = (Path(_SRC).parent / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1]
    listed = section.split("Each command takes only the flags it reads", 1)[1].split("\n\n")[1]
    readme = {command: set(re.findall(r"`--([\w-]+)`", flags))
              for command, flags in re.findall(r"^- `(\w+)`: (.*)$", listed, re.M)}
    assert readme == {command: {"config", *flags.split()}
                      for command, (_, flags) in cli._COMMANDS.items()}


@pytest.mark.parametrize("separator", [" ", ", ", ",", "\t"])
def test_every_list_value_splits_at_commas_and_whitespace(tmp_path, capsys, separator):
    grid = (f"l = 1{separator}2\neps1 = 0.5\neps2 = 0.5\nload = 1{separator}2\n"
            f"gamma_c = 0.5\nk = 0{separator}inf\n")
    path = write_ini(tmp_path, "[meta]\nschema_version = 1\n\n[validate]\n" + grid)
    assert cli.load_config_file(path)["validate"] == {
        "l": (1.0, 2.0), "eps1": (0.5,), "eps2": (0.5,), "load": (1.0, 2.0), "gamma_c": (0.5,),
        "k": (0, INFINITE_K)}
    for parameter, values in (("T", "1 2"), ("K", "0 inf"), ("G", "2.5 8")):
        csv = []
        for i, text in enumerate((values, values.replace(" ", separator))):
            csv.append(tmp_path / f"sweep{i}.csv")
            argv = ["sweep", "--config", write_ini(tmp_path, sweep_body(BASE_INI, parameter, text)),
                    "--out", str(csv[i])]
            assert run_cli(capsys, argv)[0] == cli.EXIT_OK
        assert csv[0].read_bytes() == csv[1].read_bytes()


def test_validate_k_values_include_inf(tmp_path, capsys):
    grid = "l = 2\neps1 = 0.5\neps2 = 0.5\nload = 2\ngamma_c = 0.5\nk = 0 inf\n"
    path = write_ini(tmp_path, BASE_INI + "\n[validate]\n" + grid)
    out = str(tmp_path / "report.csv")
    rc, stdout, err = run_cli(capsys, ["validate", "--config", path, "--out", out,
                                       "--target-se", "0.02", "--seed", "5"])
    assert (rc, err) == (cli.EXIT_OK, "")
    assert stdout.startswith("validation cells: 8 (ok 8, warn 0, fail 0, errors 0)\n")
    rows = [row.split(",") for row in Path(out).read_text().splitlines()]
    assert rows[0][6] == "K"
    assert [row[6] for row in rows[1:]] == ["0"] * 4 + ["inf"] * 4


def test_sim_prints_the_zero_slot_flag(tmp_path, capsys):
    body = TDMA_INI.replace("alpha = 0.5", "alpha = 1.0")
    path = write_ini(tmp_path, body)
    rc, stdout, err = run_cli(capsys, ["sim", "--config", path, "--frames", "500",
                                       "--seed", "9"])
    assert (rc, err) == (cli.EXIT_OK, "")
    lines = stdout.splitlines()
    assert [line.split(" = ")[0] for line in lines] == [*cli._METRICS, "flags", "seed"]
    assert lines[-2:] == ["flags = ncs-class-has-zero-slots", "seed = 9"]
    assert lines[1] == "R_cbar = 0 +- 0"
