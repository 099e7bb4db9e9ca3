"""Command-line front end: scenario files, sweeps, regions, validation.

Scenario files are flat key-value INI text with typed sections and a
``schema_version`` key (grammar documented in the README).  All commands
write CSV only; output is byte-stable for fixed inputs (floats rendered
with 9 significant digits, rows in sweep order, LF line endings) and files
are written atomically so failed runs never leave partial output behind.

Exit codes: 0 success, 2 configuration error, 3 numerical error (a refused
work size among them), 4 validation failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from . import analytic_erasure, sim_erasure, sim_fading, superposition
from .core import (
    INFINITE_K,
    NON_ORTHOGONAL,
    ErasureParams,
    FadingParams,
    Receiver,
    ScenarioConfig,
    Tdma,
)

#: Fixed default seed (0xC0FFEE); echoed into every stochastic output.
DEFAULT_SEED = 0xC0FFEE

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VALIDATION = 4

# The four class metrics, in the order of every CSV column and printed line.
_METRICS = ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar")


class ConfigError(ValueError):
    """Scenario/spec file violates the documented grammar or domains."""


# ============================================================================
#  Scenario file parsing
# ============================================================================


def _parse_tolerance(text: str):
    token = text.strip().lower()
    if token in ("inf", "infinite", "infinity"):
        return INFINITE_K
    try:
        value = int(token)
    except ValueError as exc:
        raise ConfigError(f"K must be a non-negative integer or 'inf', got {text!r}") from exc
    if value < 0:
        raise ConfigError(f"K must be >= 0, got {value}")
    return value


def _get(section, key, conv, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key '{key}' in section [{section.name}]")
        return default
    raw = section[key]
    try:
        return conv(raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{key}' in [{section.name}]: {raw!r}") from exc


def _float_list(text: str) -> list[float]:
    items = text.replace(",", " ").split()
    if not items:
        raise ConfigError("empty value list")
    return [float(x) for x in items]


def _construct(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a violated domain reported as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# The keys each section may hold; any other is refused, not ignored, and a
# section not named here is not read.  configparser copies [DEFAULT]'s keys
# into every section, so it may hold none.
_SECTION_KEYS = {
    "DEFAULT": set(),
    "meta": {"schema_version"},
    "scenario": {"l", "t", "g", "gamma_c", "k", "receiver", "allocation", "alpha"},
    "erasure": {"eps1", "eps2"},
    "fading": {f.name.lower() for f in dataclasses.fields(FadingParams)},
    "sim": {"frames", "slots", "seed", "workers"},
    "superposition": {"estimator", "mc_samples"},
    "sweep": {"parameter", "values", "backend"},
    "region": {"gamma_values", "gamma_count", "alpha_values", "alpha_count", "schemes", "backend"},
    "validate": {"l", "eps1", "eps2", "load", "gamma_c", "k"},
}


def load_config_file(path: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if "meta" not in parser or "schema_version" not in parser["meta"]:
        raise ConfigError("config must carry [meta] schema_version")
    version = _get(parser["meta"], "schema_version", int, required=True)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    for name in (parser.default_section, *parser.sections()):
        for key in parser[name] if name in _SECTION_KEYS else ():
            if key not in _SECTION_KEYS[name]:
                raise ConfigError(f"unknown key '{key}' in [{name}]")
    return parser


def scenario_from_config(parser: configparser.ConfigParser) -> ScenarioConfig:
    if "scenario" not in parser:
        raise ConfigError("config must contain a [scenario] section")
    sc = parser["scenario"]
    has_erasure = "erasure" in parser
    has_fading = "fading" in parser
    if has_erasure == has_fading:
        raise ConfigError("config must contain exactly one of [erasure] or [fading]")
    if has_erasure:
        es = parser["erasure"]
        channel = _construct(
            ErasureParams,
            eps1=_get(es, "eps1", float, required=True),
            eps2=_get(es, "eps2", float, required=True),
        )
    else:
        fs = parser["fading"]
        # each key the section holds, and each that FadingParams gives no default
        channel = _construct(FadingParams, **{
            f.name: _get(fs, f.name.lower(), float, required=True)
            for f in dataclasses.fields(FadingParams)
            if f.name.lower() in fs or f.default is dataclasses.MISSING
        })

    allocation_name = _get(sc, "allocation", str, default="non_orthogonal").strip().lower()
    if allocation_name in ("non_orthogonal", "nonorthogonal", "noma"):
        allocation = NON_ORTHOGONAL
    elif allocation_name == "tdma":
        alpha = _get(sc, "alpha", float, required=True)
        allocation = _construct(Tdma, alpha=alpha)
    else:
        raise ConfigError(f"unknown allocation {allocation_name!r}")

    receiver = _get(sc, "receiver", str, default=Receiver.COLLISION).strip().lower()
    if receiver not in Receiver.ALL:
        raise ConfigError(f"unknown receiver {receiver!r}")

    return _construct(
        ScenarioConfig,
        L=_get(sc, "l", int, required=True),
        T=_get(sc, "t", int, required=True),
        G=_get(sc, "g", float, required=True),
        gamma_c=_get(sc, "gamma_c", float, required=True),
        channel=channel,
        K=_get(sc, "k", _parse_tolerance, default=INFINITE_K),
        receiver=receiver,
        allocation=allocation,
    )


# ============================================================================
#  Evaluation backends
# ============================================================================


# Every backend offers the same three members: ``check(cfg)`` raises a
# ConfigError for a scenario it cannot evaluate, ``evaluate(cfgs)`` returns
# one ServiceMetrics or SimulatedMetrics per scenario of a list, in order,
# and ``seed`` is the master seed echoed into stochastic output, or None
# exactly for a backend that returns ServiceMetrics.


@dataclass(frozen=True)
class AnalyticBackend:
    """The deterministic planner for one BS receiver: ``analytic`` in the
    config under the collision receiver, ``superposition`` under the other,
    whose grids ``estimator`` samples when it is given."""

    receiver: str = Receiver.COLLISION
    estimator: superposition.ConditionedMC | None = None

    @property
    def seed(self):
        return None if self.estimator is None else self.estimator.seed

    def check(self, cfg: ScenarioConfig) -> None:
        if not isinstance(cfg.channel, ErasureParams) or cfg.receiver != self.receiver:
            name = "analytic" if self.receiver == Receiver.COLLISION else "superposition"
            raise ConfigError(
                f"{name} backend requires the erasure channel and {self.receiver} receiver"
            )

    def evaluate(self, cfgs: list[ScenarioConfig]) -> list:
        return analytic_erasure.evaluate_erasure_batch(cfgs, self.estimator)


@dataclass(frozen=True)
class SimBackend:
    frames: int
    seed: int = DEFAULT_SEED
    workers: int = 1

    def check(self, cfg: ScenarioConfig) -> None:
        if not isinstance(cfg.channel, ErasureParams):
            raise ConfigError("sim backend requires the erasure channel")

    def evaluate(self, cfgs: list[ScenarioConfig]) -> list:
        return [sim_erasure.simulate(cfg, self.frames, self.seed, self.workers) for cfg in cfgs]


@dataclass(frozen=True)
class FadingBackend:
    slots: int
    seed: int = DEFAULT_SEED
    workers: int = 1

    def check(self, cfg: ScenarioConfig) -> None:
        if isinstance(cfg.channel, ErasureParams):
            raise ConfigError("fading backend requires fading channel parameters")
        if isinstance(cfg.allocation, Tdma):
            raise ConfigError("fading backend supports non-orthogonal allocation only")

    def evaluate(self, cfgs: list[ScenarioConfig]) -> list:
        return [
            sim_fading.estimate_fading_metrics(cfg, self.slots, self.seed, self.workers)
            for cfg in cfgs
        ]


Backend = AnalyticBackend | SimBackend | FadingBackend


def _count_setting(args, sim_sec, key: str, default: int | None = None, minimum: int = 1) -> int:
    """``--key`` when given, else ``[sim] key``, else ``default``; must be >= ``minimum``."""
    flag = getattr(args, key, None)
    value = flag if flag is not None else _get(sim_sec, key, int, default)
    if value is None:
        raise ConfigError(f"no {key} budget: give --{key} or [sim] {key}")
    if value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def backend_from_config(parser, name: str, args) -> Backend:
    """Build a backend from the config sections plus CLI overrides."""
    sim_sec = parser["sim"] if "sim" in parser else {}
    sup_sec = parser["superposition"] if "superposition" in parser else {}
    seed = _count_setting(args, sim_sec, "seed", DEFAULT_SEED, minimum=0)
    workers = _count_setting(args, sim_sec, "workers", 1)
    if name == "analytic":
        return AnalyticBackend()
    if name == "sim":
        frames = _count_setting(args, sim_sec, "frames")
        return SimBackend(frames=frames, seed=seed, workers=workers)
    if name == "fading":
        slots = _count_setting(args, sim_sec, "slots")
        return FadingBackend(slots=slots, seed=seed, workers=workers)
    if name == "superposition":
        kind = str(sup_sec.get("estimator", "exact")).strip().lower()
        if kind == "exact":
            return AnalyticBackend(Receiver.SUPERPOSITION)
        if kind == "mc":
            samples = _get(sup_sec, "mc_samples", int, 1000)
            if samples < 1:
                raise ConfigError(f"mc_samples must be >= 1, got {samples}")
            mc = superposition.ConditionedMC(n_alloc_samples=samples, seed=seed)
            return AnalyticBackend(Receiver.SUPERPOSITION, mc)
        raise ConfigError(f"unknown superposition estimator {kind!r}")
    raise ConfigError(f"unknown backend {name!r}")


# ============================================================================
#  CSV rendering (byte-stable)
# ============================================================================


def fmt_value(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.9g}"


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Atomic CSV write: full content is staged, then renamed into place."""
    text = "\n".join(
        [",".join(header)] + [",".join(fmt_value(v) for v in row) for row in rows]
    ) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _metric_header(seed) -> list[str]:
    header = list(_METRICS)
    if seed is not None:
        header += [name + "_se" for name in _METRICS] + ["seed"]
    return header


def _metric_row(result, seed) -> list:
    """Metric means; a stochastic backend's ``seed`` adds std errors and the seed."""
    values = [getattr(result, name) for name in _METRICS]
    if seed is None:
        return values
    return [e.mean for e in values] + [e.std_error for e in values] + [seed]


def _evaluate(backend: Backend, cfgs: list[ScenarioConfig]) -> list:
    """Every scenario checked before any work, then all of them in one call."""
    for cfg in cfgs:
        backend.check(cfg)
    return backend.evaluate(cfgs)


def _command_section(parser, command: str):
    if command not in parser:
        raise ConfigError(f"{command} command needs a [{command}] section")
    return parser[command]


def _section_backend(parser, sec, command: str, args) -> Backend:
    """``--backend``, else the section's ``backend``, else analytic; ``--out`` is required."""
    name = args.backend or _get(sec, "backend", str, default="analytic").strip()
    backend = backend_from_config(parser, name, args)
    if not args.out:
        raise ConfigError(f"{command} requires --out")
    return backend


# ============================================================================
#  Parameter sweeps
# ============================================================================


def _whole_or_inf(k):
    return k if k == INFINITE_K else int(k)


# Each sweepable parameter: the converter of its values, and the channel or
# allocation type the base scenario needs for it (None: any scenario).
_SWEEP = {
    "gamma_c": (float, None),
    "T": (int, None),
    "L": (int, None),
    "eps1": (float, ErasureParams),
    "eps2": (float, ErasureParams),
    "alpha": (float, Tdma),
    "alpha2": (float, FadingParams),
    "beta2": (float, FadingParams),
    "K": (_whole_or_inf, ErasureParams),
    "G": (float, None),
}
SWEEPABLE = tuple(_SWEEP)
_REQUIREMENT = {
    ErasureParams: "the erasure channel",
    FadingParams: "the fading channel",
    Tdma: "the tdma allocation",
}


def _apply_parameter(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    if name not in _SWEEP:
        raise ConfigError(f"unknown sweep parameter {name!r}; choose from {SWEEPABLE}")
    convert, needs = _SWEEP[name]
    if needs and not (isinstance(cfg.channel, needs) or isinstance(cfg.allocation, needs)):
        raise ConfigError(f"sweeping {name} requires {_REQUIREMENT[needs]}")
    try:
        converted = convert(value)
        if name == "alpha":
            return cfg.replace(allocation=Tdma(alpha=converted))
        if name in vars(cfg):
            return cfg.replace(**{name: converted})
        return cfg.replace(channel=dataclasses.replace(cfg.channel, **{name: converted}))
    except ValueError as exc:
        raise ConfigError(f"invalid value {value!r} for parameter {name}: {exc}") from exc


def _sweep_from_config(parser, args) -> tuple[str, tuple, Backend]:
    """``(parameter, values, backend)`` of the ``[sweep]`` section."""
    sec = _command_section(parser, "sweep")
    parameter = _get(sec, "parameter", str, required=True).strip()
    if parameter not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {SWEEPABLE}")
    if _SWEEP[parameter][0] is float:
        values = tuple(_get(sec, "values", _float_list, required=True))
    else:  # whole numbers, or K: split at whitespace only
        token = _parse_tolerance if parameter == "K" else int
        values = _get(sec, "values", lambda text: tuple(map(token, text.split())), required=True)
    if not values:
        raise ConfigError("sweep value list is empty")
    return parameter, values, _section_backend(parser, sec, "sweep", args)


def run_sweep(base: ScenarioConfig, parameter: str, values, backend: Backend) -> list[list]:
    """One row per swept value: the value, then the metric columns."""
    cfgs = [_apply_parameter(base, parameter, value) for value in values]
    return [
        [value] + _metric_row(result, backend.seed)
        for value, result in zip(values, _evaluate(backend, cfgs))
    ]


# ============================================================================
#  Throughput regions
# ============================================================================


# Most scenarios one region may evaluate
MAX_REGION_SCENARIOS = 2**20


def _region_grid(sec, name: str) -> tuple[int, object]:
    """``(size, values)``: ``{name}_values`` as listed, else ``{name}_count``
    even steps over [0, 1] as a generator, so nothing is built before the
    region's size is checked."""
    if f"{name}_values" in sec:
        values = _get(sec, f"{name}_values", _float_list)
        return len(values), values
    count = _get(sec, f"{name}_count", int, default=21)
    if count < 2:
        raise ConfigError(
            f"{name}_count must be >= 2, got {count}; "
            f"use {name}_values for a single point"
        )
    return count, (i / (count - 1) for i in range(count))


def _region_from_config(parser, args) -> tuple[tuple, tuple, tuple, Backend]:
    """``(gammas, alphas, schemes, backend)`` of the ``[region]`` section."""
    sec = _command_section(parser, "region")
    (n_gammas, gammas), (n_alphas, alphas) = _region_grid(sec, "gamma"), _region_grid(sec, "alpha")
    schemes = tuple(_get(sec, "schemes", str, default="non_orthogonal tdma").split())
    for s in schemes:
        if s not in ("non_orthogonal", "tdma"):
            raise ConfigError(f"unknown scheme {s!r} in region spec")
    size = n_gammas * ("non_orthogonal" in schemes) + n_gammas * n_alphas * ("tdma" in schemes)
    # both axes are built, whether or not a scheme uses them
    for count, what in ((size, "scenarios in the region"), (n_gammas, "gamma values"),
                        (n_alphas, "alpha values")):
        if count > MAX_REGION_SCENARIOS:
            raise ConfigError(f"{count} {what}, over the limit of {MAX_REGION_SCENARIOS}")
    gammas, alphas = tuple(gammas), tuple(alphas)
    if any(not 0 <= v <= 1 for v in gammas) or any(not 0 <= v <= 1 for v in alphas):
        raise ConfigError("region grid values must lie in [0, 1]")
    return gammas, alphas, schemes, _section_backend(parser, sec, "region", args)


def pareto_filter(points: list[tuple]) -> list[tuple]:
    """Drop points dominated by another point (both coordinates <=, one <).

    Sort-based 2-D maxima (Kung, Luccio & Preparata, JACM 1975): sweeping
    the points by decreasing R_c, ties by decreasing R_cbar and then in
    input order, a point is kept iff its R_cbar exceeds that of every point
    swept before it.  Kept points come in input order, the first occurrence
    of each (R_c, R_cbar) only.  A NaN coordinate, which dominance cannot
    order, is refused with a ValueError.
    """
    if any(math.isnan(p[-2]) or math.isnan(p[-1]) for p in points):
        raise ValueError("throughput region points must not be NaN")
    ranked = sorted(range(len(points)), key=lambda i: (-points[i][-2], -points[i][-1]))
    kept = []
    best = None  # largest R_cbar swept so far
    for i in ranked:
        if best is None or points[i][-1] > best:
            kept.append(i)
            best = points[i][-1]
    return [points[i] for i in sorted(kept)]


def compute_region(base: ScenarioConfig, gammas, alphas, schemes, backend: Backend) -> list[tuple]:
    """Pareto-nondominated (R_c, R_cbar) frontier per allocation scheme."""
    cfgs = []  # the non-orthogonal scenarios first
    if "non_orthogonal" in schemes:
        cfgs += [base.replace(gamma_c=g, allocation=NON_ORTHOGONAL) for g in gammas]
    if "tdma" in schemes:
        tdma = [Tdma(alpha=a) for a in alphas]
        cfgs += [base.replace(gamma_c=g, allocation=alloc) for g in gammas for alloc in tdma]
    points = [(result.R_c, result.R_cbar) for result in _evaluate(backend, cfgs)]
    if backend.seed is not None:  # a stochastic backend's estimates: their means
        points = [(r_c.mean, r_n.mean) for r_c, r_n in points]
    n = len(gammas) if "non_orthogonal" in schemes else 0
    rows = pareto_filter([("non_orthogonal", cfg.gamma_c, "", r_c, r_n)
                          for cfg, (r_c, r_n) in zip(cfgs[:n], points)])
    return rows + pareto_filter([("tdma", cfg.gamma_c, cfg.allocation.alpha, r_c, r_n)
                                 for cfg, (r_c, r_n) in zip(cfgs[n:], points[n:])])


# ============================================================================
#  Analytic-vs-simulation validation
# ============================================================================

# Frame budget cap per group of validation configs.
_VALIDATE_MAX_FRAMES = 4_000_000

_VALIDATE_DEFAULTS = {
    "L": (1, 2, 3, 5),
    "eps1": (0.1, 0.5, 0.9),
    "eps2": (0.1, 0.5, 0.9),
    "load": (0.25, 1.0, 2.0, 4.0),
    "gamma_c": (0.1, 0.5, 0.9),
    "K": (0, 1, 2, 5),
}


@dataclass(frozen=True)
class ValidationCell:
    cfg: ScenarioConfig
    metric: str
    analytic: float
    simulated: float
    std_error: float
    z: float
    status: str  # ok | warn | fail | error


@dataclass(frozen=True)
class ValidationReport:
    cells: tuple
    passed: bool
    seed: int
    target_se: float
    n_errors: int

    @property
    def max_abs_z(self) -> float:
        zs = [abs(c.z) for c in self.cells if c.status != "error"]
        return max(zs) if zs else 0.0


def default_validation_grid(overrides: dict | None = None) -> list[ScenarioConfig]:
    """Collision-model grid over (L, eps1, eps2, per-slot load, gamma_c, K).

    Instantiated at T = 1, where the frame-tagged PSR estimator's
    conditioning coincides exactly with the analytic normalized-Poisson
    conditioning.
    """
    grid = dict(_VALIDATE_DEFAULTS)
    if overrides:
        grid.update(overrides)
    return [
        ScenarioConfig(L=int(L), T=1, G=float(load), gamma_c=float(gc),
                       channel=ErasureParams(float(e1), float(e2)), K=_whole_or_inf(k))
        for L, e1, e2, load, gc, k in itertools.product(*(grid[a] for a in _VALIDATE_DEFAULTS))
    ]


def _error_cells(cfg: ScenarioConfig, exc: Exception) -> list[ValidationCell]:
    """The cells of a config whose evaluation raised ``exc``, one per metric."""
    nan = math.nan
    return [ValidationCell(cfg, m, nan, nan, nan, nan, f"error: {exc}") for m in _METRICS]


def _z_score(analytic: float, estimate) -> tuple[float, float, float]:
    se = estimate.std_error
    diff = estimate.mean - analytic
    if se == 0.0:
        z = 0.0 if abs(diff) <= 1e-12 else math.inf
    else:
        z = diff / se
    return estimate.mean, se, z


def validate(
    grid=None,
    target_se: float = 0.002,
    seed: int = DEFAULT_SEED,
    workers: int = 1,
) -> ValidationReport:
    """Analytic-vs-simulation oracle over a config grid.

    Groups configs that differ only in K onto one shared realization, and
    evaluates each group's analytic metrics in one ``evaluate_erasure_batch``
    call, which puts the group's finite K values on one Poisson grid.  If
    either the simulation or the evaluation of a group raises, every config
    of the group becomes error cells and the run continues.  The frame
    budget per group targets ``target_se`` on the scarcest metric (PSR
    trials of the rarer class).  Pass/fail: |z| <= 3 on at least 99% of
    scored cells and no |z| > 5 (and no per-cell backend errors).
    """
    if not target_se > 0:
        raise ConfigError("target_se must be positive")
    if grid is None:
        grid = default_validation_grid()
    if not grid:
        raise ConfigError("validation grid is empty")

    groups: dict = {}
    for cfg in grid:
        e = cfg.erasure
        key = (cfg.L, cfg.T, cfg.G, cfg.gamma_c, e.eps1, e.eps2, cfg.allocation)
        groups.setdefault(key, []).append(cfg)

    # A target below sqrt(0.25 / cap) gives every group the cap, and one above
    # 1 a single trial; clamped to that range, every budget stays as it was
    # and 0.25 / se**2 stays a finite, nonzero float.
    se = min(max(target_se, math.sqrt(0.25 / _VALIDATE_MAX_FRAMES)), 1.0)
    trials_target = int(math.ceil(0.25 / se**2))
    cells = []
    for key, cfgs in groups.items():
        base = cfgs[0]
        active = [
            1.0 - math.exp(-base.gamma_c * base.G),
            1.0 - math.exp(-(1.0 - base.gamma_c) * base.G),
        ]
        p_min = min(p for p in active if p > 0) if any(p > 0 for p in active) else 1.0
        n_frames = min(_VALIDATE_MAX_FRAMES, int(math.ceil(1.05 * trials_target / p_min)) + 500)
        k_values = [c.K for c in cfgs]
        try:
            sim_by_k = sim_erasure.simulate_multi_k(base, k_values, n_frames, seed, workers)
            analytic = analytic_erasure.evaluate_erasure_batch(cfgs)
        except Exception as exc:  # surfaced per-cell, run continues
            cells += [cell for cfg in cfgs for cell in _error_cells(cfg, exc)]
            continue
        for cfg, ana in zip(cfgs, analytic):
            sim = sim_by_k[cfg.K]
            for metric in _METRICS:
                mean, se, z = _z_score(getattr(ana, metric), getattr(sim, metric))
                if abs(z) <= 3.0:
                    status = "ok"
                elif abs(z) <= 5.0:
                    status = "warn"
                else:
                    status = "fail"
                cells.append(
                    ValidationCell(cfg, metric, getattr(ana, metric), mean, se, z, status)
                )

    scored = [c for c in cells if not c.status.startswith("error")]
    n_errors = len(cells) - len(scored)
    n_ok = sum(1 for c in scored if c.status == "ok")
    n_fail = sum(1 for c in scored if c.status == "fail")
    passed = (
        n_errors == 0
        and len(scored) > 0
        and n_ok / len(scored) >= 0.99
        and n_fail == 0
    )
    return ValidationReport(
        cells=tuple(cells), passed=passed, seed=seed, target_se=target_se,
        n_errors=n_errors,
    )


def validation_rows(report: ValidationReport) -> tuple[list[str], list[list]]:
    header = [
        "L", "T", "G", "eps1", "eps2", "gamma_c", "K", "metric",
        "analytic", "simulated", "std_error", "z", "status", "seed",
    ]
    rows = []
    for c in report.cells:
        e = c.cfg.erasure
        rows.append([
            c.cfg.L, c.cfg.T, c.cfg.G, e.eps1, e.eps2, c.cfg.gamma_c,
            c.cfg.K, c.metric, c.analytic, c.simulated, c.std_error,
            c.z, c.status, report.seed,
        ])
    return header, rows


def render_validation_summary(report: ValidationReport) -> str:
    scored = [c for c in report.cells if not c.status.startswith("error")]
    n_ok = sum(1 for c in scored if c.status == "ok")
    n_warn = sum(1 for c in scored if c.status == "warn")
    n_fail = sum(1 for c in scored if c.status == "fail")
    lines = [
        f"validation cells: {len(report.cells)} "
        f"(ok {n_ok}, warn {n_warn}, fail {n_fail}, errors {report.n_errors})",
        f"max |z| = {report.max_abs_z:.3f}, target std error = "
        f"{fmt_value(report.target_se)}, seed = {report.seed}",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]
    for c in report.cells:
        if c.status in ("warn", "fail") or c.status.startswith("error"):
            e = c.cfg.erasure
            lines.append(
                f"  [{c.status}] L={c.cfg.L} G={fmt_value(c.cfg.G)} "
                f"eps=({e.eps1},{e.eps2}) gamma_c={c.cfg.gamma_c} "
                f"K={fmt_value(c.cfg.K)} {c.metric}: "
                f"analytic={fmt_value(c.analytic)} sim={fmt_value(c.simulated)} "
                f"z={fmt_value(c.z)}"
            )
    return "\n".join(lines)


def _validate_grid_from_config(parser) -> list[ScenarioConfig]:
    if parser is None or "validate" not in parser:
        return default_validation_grid()
    sec = parser["validate"]
    overrides = {}
    for key in ("L", "eps1", "eps2", "load", "gamma_c"):
        if key.lower() in sec:
            values = _get(sec, key.lower(), _float_list)
            if key == "L" and not all(v.is_integer() for v in values):
                raise ConfigError(f"[validate] l must list whole numbers, got {sec['l']!r}")
            overrides[key] = tuple(int(v) if key == "L" else v for v in values)
    if "k" in sec:
        overrides["K"] = tuple(_parse_tolerance(v) for v in sec["k"].split())
    return _construct(default_validation_grid, overrides)


# ============================================================================
#  Command-line interface
# ============================================================================


_FLAGS = {
    "out": dict(help="output CSV path"),
    "seed": dict(type=int, help="master RNG seed"),
    "frames": dict(type=int, help="simulated frames"),
    "slots": dict(type=int, help="simulated slots"),
    "backend": dict(help="evaluation backend"),
    "workers": dict(type=int, help="worker processes, at most one per chunk and CPU core"),
    "target-se": dict(type=float, default=0.002, help="target std error per cell"),
}

# Each command takes only the flags it reads; any other is a usage error.
_COMMANDS = {
    "eval": ("analytic / exact metrics for one scenario", "out seed"),
    "sim": ("erasure-channel Monte Carlo for one scenario", "out seed frames workers"),
    "fading": ("fading-channel Monte Carlo for one scenario", "out seed slots workers"),
    "sweep": ("parameter sweep to CSV", "out seed frames slots backend workers"),
    "region": ("throughput-region frontier to CSV", "out seed frames slots backend workers"),
    "validate": ("analytic-vs-simulation oracle report", "out seed workers target-se"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twohop-aloha",
        description="Two-hop grant-free slotted-ALOHA performance toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=name != "validate", help="scenario file (INI)")
        for flag in flags.split():
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def _metrics_lines(row: list, flags=()) -> list[str]:
    """The printed form of a ``_metric_row``: each mean, with its std error
    when the row has them, then the flags and the seed."""
    n = len(_METRICS)
    if len(row) == n:
        return [f"{name} = {fmt_value(v)}" for name, v in zip(_METRICS, row)]
    lines = [
        f"{name} = {fmt_value(mean)} +- {fmt_value(se)}"
        for name, mean, se in zip(_METRICS, row, row[n:])
    ]
    if flags:
        lines.append("flags = " + ",".join(flags))
    return lines + [f"seed = {row[-1]}"]


def _point_backend(parser, cfg: ScenarioConfig, args) -> Backend:
    """``eval`` picks its backend by receiver; ``sim`` and ``fading`` are their own."""
    if args.command == "eval" and cfg.receiver == Receiver.COLLISION:
        return AnalyticBackend()  # ignores [sim]
    name = "superposition" if args.command == "eval" else args.command
    return backend_from_config(parser, name, args)


def _run(args) -> int:
    """Read a command's scenarios, evaluate them on one backend, render the rows."""
    out_dir = os.path.dirname(os.path.abspath(args.out or "."))  # checked before any work
    if args.out and not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out directory {out_dir} is not a writable directory")
    if args.out and (os.path.isdir(args.out) or not os.path.basename(args.out)):
        raise ConfigError(f"--out {args.out} names a directory, not a file")
    if args.command == "validate":
        parser = load_config_file(args.config) if args.config else None
        report = validate(
            _validate_grid_from_config(parser),
            target_se=args.target_se,
            seed=_count_setting(args, {}, "seed", DEFAULT_SEED, minimum=0),
            workers=_count_setting(args, {}, "workers", 1),
        )
        print(render_validation_summary(report))
        if args.out:
            write_csv(args.out, *validation_rows(report))
        return EXIT_OK if report.passed else EXIT_VALIDATION

    parser = load_config_file(args.config)
    cfg = scenario_from_config(parser)
    if args.command == "sweep":
        parameter, values, backend = _sweep_from_config(parser, args)
        header = [parameter] + _metric_header(backend.seed)
        rows = run_sweep(cfg, parameter, values, backend)
        wrote = f"{len(rows)} rows"
    elif args.command == "region":
        *grids, backend = _region_from_config(parser, args)
        header = ["scheme", "gamma_c", "alpha", "R_c", "R_cbar"]
        rows = compute_region(cfg, *grids, backend)
        wrote = f"{len(rows)} frontier points"
    else:
        backend = _point_backend(parser, cfg, args)
        [result] = _evaluate(backend, [cfg])
        header, rows = _metric_header(backend.seed), [_metric_row(result, backend.seed)]
        print("\n".join(_metrics_lines(rows[0], getattr(result, "flags", ()))))
        wrote = None
    if args.out:
        write_csv(args.out, header, rows)
    if wrote:
        print(f"wrote {args.out} ({wrote})")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # every config fault raised ConfigError above
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
