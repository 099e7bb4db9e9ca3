"""Command-line front end: scenario files, sweeps, regions, validation.

Scenario files are flat key-value INI text with typed sections and a
``schema_version`` key (grammar documented in the README).  All commands
write CSV only; output is byte-stable for fixed inputs (floats rendered
with 9 significant digits, rows in sweep order, LF line endings) and files
are written atomically so failed runs never leave partial output behind.

Exit codes: 0 success, 2 configuration error, 3 numerical-capacity or other
numerical error, 4 validation failure.
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
    ServiceMetrics,
    Tdma,
    is_infinite,
)
from .superposition import CapacityError, ConditionedMC, ExactEnum

#: Fixed default seed (0xC0FFEE); echoed into every stochastic output.
DEFAULT_SEED = 0xC0FFEE

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3
EXIT_VALIDATION = 4


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
        channel = _construct(
            FadingParams,
            alpha2=_get(fs, "alpha2", float, required=True),
            beta2=_get(fs, "beta2", float, required=True),
            P_c=_get(fs, "p_c", float, default=10.0),
            P_cbar=_get(fs, "p_cbar", float, default=4.0),
            P_c_ap=_get(fs, "p_c_ap", float, default=10.0),
            P_cbar_ap=_get(fs, "p_cbar_ap", float, default=4.0),
            r_c=_get(fs, "r_c", float, default=1.0),
            r_cbar=_get(fs, "r_cbar", float, default=1.0),
        )

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
# and ``seed`` is the master seed echoed into stochastic output, or None for
# a deterministic backend.


@dataclass(frozen=True)
class AnalyticBackend:
    seed = None

    def check(self, cfg: ScenarioConfig) -> None:
        if not isinstance(cfg.channel, ErasureParams) or cfg.receiver != Receiver.COLLISION:
            raise ConfigError(
                "analytic backend requires the erasure channel and collision receiver"
            )

    def evaluate(self, cfgs: list[ScenarioConfig]) -> list:
        return analytic_erasure.evaluate_erasure_batch(cfgs)


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


@dataclass(frozen=True)
class SuperpositionBackend:
    estimator: ExactEnum | ConditionedMC = ExactEnum()

    @property
    def seed(self):
        return self.estimator.seed

    def check(self, cfg: ScenarioConfig) -> None:
        if not isinstance(cfg.channel, ErasureParams) or cfg.receiver != Receiver.SUPERPOSITION:
            raise ConfigError(
                "superposition backend requires the erasure channel and "
                "superposition receiver"
            )

    def evaluate(self, cfgs: list[ScenarioConfig]) -> list:
        return [superposition.evaluate_superposition(cfg, self.estimator) for cfg in cfgs]


Backend = AnalyticBackend | SimBackend | FadingBackend | SuperpositionBackend


def _count_setting(args, sim_sec, key: str, default: int | None = None, minimum: int = 1) -> int:
    """``--key`` when given, else ``[sim] key``, else ``default``; must be >= ``minimum``."""
    flag = getattr(args, key)
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
            limit = _get(sup_sec, "enum_limit", int, 200_000)
            return SuperpositionBackend(estimator=ExactEnum(limit=limit))
        if kind == "mc":
            samples = _get(sup_sec, "mc_samples", int, 1000)
            if samples < 1:
                raise ConfigError(f"mc_samples must be >= 1, got {samples}")
            return SuperpositionBackend(
                estimator=ConditionedMC(n_alloc_samples=samples, seed=seed)
            )
        raise ConfigError(f"unknown superposition estimator {kind!r}")
    raise ConfigError(f"unknown backend {name!r}")


# ============================================================================
#  CSV rendering (byte-stable)
# ============================================================================


def fmt_value(x) -> str:
    if is_infinite(x):
        return "inf"
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(int(x))
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
    header = ["R_c", "R_cbar", "Gamma_c", "Gamma_cbar"]
    if seed is not None:
        header += ["R_c_se", "R_cbar_se", "Gamma_c_se", "Gamma_cbar_se", "seed"]
    return header


def _metric_row(result, seed=None) -> list:
    """Metric means; a stochastic backend's ``seed`` adds std errors and the seed."""
    if isinstance(result, ServiceMetrics):
        row = [result.R_c, result.R_cbar, result.Gamma_c, result.Gamma_cbar]
        if seed is not None:  # exact result on a stochastic path
            row += [0.0, 0.0, 0.0, 0.0]
    else:
        row = [
            result.R_c.mean,
            result.R_cbar.mean,
            result.Gamma_c.mean,
            result.Gamma_cbar.mean,
            result.R_c.std_error,
            result.R_cbar.std_error,
            result.Gamma_c.std_error,
            result.Gamma_cbar.std_error,
        ]
    if seed is not None:
        row.append(seed)
    return row


# ============================================================================
#  Parameter sweeps
# ============================================================================

SWEEPABLE = ("gamma_c", "T", "L", "eps1", "eps2", "alpha", "alpha2", "beta2", "K", "G")


@dataclass(frozen=True)
class SweepSpec:
    base: ScenarioConfig
    parameter: str
    values: tuple
    backend: Backend
    out_path: str


def _apply_parameter(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    try:
        if name == "gamma_c":
            return cfg.replace(gamma_c=float(value))
        if name == "T":
            return cfg.replace(T=int(value))
        if name == "L":
            return cfg.replace(L=int(value))
        if name == "G":
            return cfg.replace(G=float(value))
        if name == "K":
            if not isinstance(cfg.channel, ErasureParams):
                raise ConfigError("sweeping K requires the erasure channel")
            return cfg.replace(K=value if is_infinite(value) else int(value))
        if name in ("eps1", "eps2"):
            if not isinstance(cfg.channel, ErasureParams):
                raise ConfigError(f"sweeping {name} requires the erasure channel")
            return cfg.replace(
                channel=dataclasses.replace(cfg.channel, **{name: float(value)})
            )
        if name in ("alpha2", "beta2"):
            if not isinstance(cfg.channel, FadingParams):
                raise ConfigError(f"sweeping {name} requires the fading channel")
            return cfg.replace(
                channel=dataclasses.replace(cfg.channel, **{name: float(value)})
            )
        if name == "alpha":
            if not isinstance(cfg.allocation, Tdma):
                raise ConfigError("sweeping alpha requires the tdma allocation")
            return cfg.replace(allocation=Tdma(alpha=float(value)))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"invalid value {value!r} for parameter {name}: {exc}") from exc
    raise ConfigError(f"unknown sweep parameter {name!r}; choose from {SWEEPABLE}")


def sweep_spec_from_config(parser, base: ScenarioConfig, args) -> SweepSpec:
    if "sweep" not in parser:
        raise ConfigError("sweep command needs a [sweep] section")
    sec = parser["sweep"]
    parameter = _get(sec, "parameter", str, required=True).strip()
    if parameter not in SWEEPABLE:
        raise ConfigError(f"unknown sweep parameter {parameter!r}; choose from {SWEEPABLE}")
    raw_values = _get(sec, "values", str, required=True)
    if parameter == "K":
        values = tuple(_parse_tolerance(v) for v in raw_values.split())
    elif parameter in ("T", "L"):
        values = _get(sec, "values", lambda text: tuple(int(v) for v in text.split()))
    else:
        values = tuple(_get(sec, "values", _float_list))
    if not values:
        raise ConfigError("sweep value list is empty")
    backend_name = args.backend or _get(sec, "backend", str, default="analytic").strip()
    backend = backend_from_config(parser, backend_name, args)
    if not args.out:
        raise ConfigError("sweep requires --out")
    return SweepSpec(
        base=base, parameter=parameter, values=values, backend=backend, out_path=args.out
    )


def run_sweep(spec: SweepSpec) -> list[list]:
    """Evaluate every swept point; returns rows and writes the CSV."""
    backend = spec.backend
    cfgs = [_apply_parameter(spec.base, spec.parameter, value) for value in spec.values]
    for cfg in cfgs:
        backend.check(cfg)
    rows = [
        [value] + _metric_row(result, backend.seed)
        for value, result in zip(spec.values, backend.evaluate(cfgs))
    ]
    write_csv(spec.out_path, [spec.parameter] + _metric_header(backend.seed), rows)
    return rows


# ============================================================================
#  Throughput regions
# ============================================================================


@dataclass(frozen=True)
class RegionSpec:
    base: ScenarioConfig
    gamma_grid: tuple
    alpha_grid: tuple
    backend: Backend
    schemes: tuple = ("non_orthogonal", "tdma")
    out_path: str = ""


def _region_grid(sec, name: str) -> tuple:
    """``{name}_values`` as listed, else ``{name}_count`` even steps over [0, 1]."""
    if f"{name}_values" in sec:
        return tuple(_get(sec, f"{name}_values", _float_list))
    count = _get(sec, f"{name}_count", int, default=21)
    if count < 2:
        raise ConfigError(
            f"{name}_count must be >= 2, got {count}; "
            f"use {name}_values for a single point"
        )
    return tuple(i / (count - 1) for i in range(count))


def region_spec_from_config(parser, base: ScenarioConfig, args) -> RegionSpec:
    if "region" not in parser:
        raise ConfigError("region command needs a [region] section")
    sec = parser["region"]
    gammas = _region_grid(sec, "gamma")
    alphas = _region_grid(sec, "alpha")
    if not gammas or not alphas:
        raise ConfigError("region grids must be non-empty")
    if any(not 0 <= v <= 1 for v in gammas) or any(not 0 <= v <= 1 for v in alphas):
        raise ConfigError("region grid values must lie in [0, 1]")
    schemes = tuple(
        _get(sec, "schemes", str, default="non_orthogonal tdma").split()
    )
    for s in schemes:
        if s not in ("non_orthogonal", "tdma"):
            raise ConfigError(f"unknown scheme {s!r} in region spec")
    backend_name = args.backend or _get(sec, "backend", str, default="analytic").strip()
    backend = backend_from_config(parser, backend_name, args)
    if not args.out:
        raise ConfigError("region requires --out")
    return RegionSpec(
        base=base, gamma_grid=gammas, alpha_grid=alphas, backend=backend,
        schemes=schemes, out_path=args.out,
    )


def pareto_filter(points: list[tuple]) -> list[tuple]:
    """Drop points dominated by another point (both coordinates <=, one <).

    Sort-based 2-D maxima (Kung, Luccio & Preparata, JACM 1975): sweeping
    R_c from the top in groups of equal R_c, a point is dominated iff some
    point of strictly larger R_c reaches its R_cbar or a point of its own
    group exceeds it.  Kept points come in input order, the first occurrence
    of each (R_c, R_cbar) only.  A NaN coordinate, which dominance cannot
    order, is refused with a ValueError.
    """
    if any(math.isnan(p[-2]) or math.isnan(p[-1]) for p in points):
        raise ValueError("throughput region points must not be NaN")
    ranked = sorted(range(len(points)), key=lambda i: points[i][-2], reverse=True)
    dominated = set()
    best_above = None  # largest R_cbar over the groups swept so far
    for _, group in itertools.groupby(ranked, key=lambda i: points[i][-2]):
        group = list(group)
        top = max(points[i][-1] for i in group)
        for i in group:
            y = points[i][-1]
            if y < top or (best_above is not None and y <= best_above):
                dominated.add(i)
        best_above = top if best_above is None else max(best_above, top)
    kept = []
    seen = set()
    for i, p in enumerate(points):
        key = (p[-2], p[-1])
        if i not in dominated and key not in seen:
            kept.append(p)
            seen.add(key)
    return kept


def compute_region(spec: RegionSpec) -> list[list]:
    """Pareto-nondominated (R_c, R_cbar) frontier per allocation scheme."""
    grid = []  # (scheme, gamma_c, alpha, allocation)
    if "non_orthogonal" in spec.schemes:
        grid += [("non_orthogonal", g, "", NON_ORTHOGONAL) for g in spec.gamma_grid]
    if "tdma" in spec.schemes:
        grid += [("tdma", g, a, Tdma(alpha=a)) for g in spec.gamma_grid for a in spec.alpha_grid]
    cfgs = [spec.base.replace(gamma_c=g, allocation=alloc) for _, g, _, alloc in grid]
    for cfg in cfgs:
        spec.backend.check(cfg)
    results = spec.backend.evaluate(cfgs)
    rows = []
    for scheme in ("non_orthogonal", "tdma"):
        rows += pareto_filter([
            (s, g, a, *_metric_row(result)[:2])
            for (s, g, a, _), result in zip(grid, results)
            if s == scheme
        ])
    if spec.out_path:
        write_csv(spec.out_path, ["scheme", "gamma_c", "alpha", "R_c", "R_cbar"], rows)
    return rows


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
    configs = []
    for L in grid["L"]:
        for e1 in grid["eps1"]:
            for e2 in grid["eps2"]:
                for load in grid["load"]:
                    for gc in grid["gamma_c"]:
                        for k in grid["K"]:
                            configs.append(
                                ScenarioConfig(
                                    L=int(L),
                                    T=1,
                                    G=float(load),
                                    gamma_c=float(gc),
                                    channel=ErasureParams(float(e1), float(e2)),
                                    K=k if is_infinite(k) else int(k),
                                )
                            )
    return configs


_METRICS = ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar")


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
    analytic_fn=None,
) -> ValidationReport:
    """Analytic-vs-simulation oracle over a config grid.

    Groups configs that differ only in K onto one shared realization.  The
    frame budget per group targets ``target_se`` on the scarcest metric
    (PSR trials of the rarer class).  Pass/fail: |z| <= 3 on at least 99%
    of scored cells and no |z| > 5 (and no per-cell backend errors).
    """
    if not target_se > 0:
        raise ConfigError("target_se must be positive")
    if analytic_fn is None:
        analytic_fn = analytic_erasure.evaluate_erasure
    if grid is None:
        grid = default_validation_grid()
    if not grid:
        raise ConfigError("validation grid is empty")

    groups: dict = {}
    for cfg in grid:
        e = cfg.erasure
        key = (cfg.L, cfg.T, cfg.G, cfg.gamma_c, e.eps1, e.eps2, cfg.allocation)
        groups.setdefault(key, []).append(cfg)

    trials_target = int(math.ceil(0.25 / target_se**2))
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
        except Exception as exc:  # surfaced per-cell, run continues
            cells += [cell for cfg in cfgs for cell in _error_cells(cfg, exc)]
            continue
        for cfg in cfgs:
            sim = sim_by_k[cfg.K]
            try:
                ana = analytic_fn(cfg)
            except Exception as exc:
                cells += _error_cells(cfg, exc)
                continue
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
        rows.append(
            [
                c.cfg.L, c.cfg.T, c.cfg.G, e.eps1, e.eps2, c.cfg.gamma_c,
                c.cfg.K, c.metric, c.analytic, c.simulated, c.std_error,
                c.z, c.status, report.seed,
            ]
        )
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twohop-aloha",
        description="Two-hop grant-free slotted-ALOHA performance toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        p.add_argument("--config", required=needs_config, help="scenario file (INI)")
        p.add_argument("--out", help="output CSV path")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--frames", type=int, default=None, help="simulated frames")
        p.add_argument("--slots", type=int, default=None, help="simulated slots")
        p.add_argument("--backend", default=None, help="evaluation backend")
        p.add_argument("--workers", type=int, default=None, help="parallel workers")

    for name, help_text in [
        ("eval", "analytic / exact metrics for one scenario"),
        ("sim", "erasure-channel Monte Carlo for one scenario"),
        ("fading", "fading-channel Monte Carlo for one scenario"),
        ("sweep", "parameter sweep to CSV"),
        ("region", "throughput-region frontier to CSV"),
    ]:
        add_common(sub.add_parser(name, help=help_text))
    p_val = sub.add_parser("validate", help="analytic-vs-simulation oracle report")
    add_common(p_val, needs_config=False)
    p_val.add_argument("--target-se", type=float, default=0.002)
    return parser


def _metrics_lines(result, seed=None) -> list[str]:
    lines = []
    if isinstance(result, ServiceMetrics):
        for name in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
            lines.append(f"{name} = {fmt_value(getattr(result, name))}")
    else:
        for name in ("R_c", "R_cbar", "Gamma_c", "Gamma_cbar"):
            est = getattr(result, name)
            lines.append(
                f"{name} = {fmt_value(est.mean)} +- {fmt_value(est.std_error)}"
            )
        if result.flags:
            lines.append("flags = " + ",".join(result.flags))
        if seed is not None:
            lines.append(f"seed = {seed}")
    return lines


def _cmd_point(args, backend_name: str) -> int:
    parser = load_config_file(args.config)
    cfg = scenario_from_config(parser)
    if backend_name == "eval":
        if cfg.receiver == Receiver.SUPERPOSITION:
            backend = backend_from_config(parser, "superposition", args)
        else:
            backend = AnalyticBackend()
    else:
        backend = backend_from_config(parser, backend_name, args)
    backend.check(cfg)
    [result] = backend.evaluate([cfg])
    for line in _metrics_lines(result, backend.seed):
        print(line)
    if args.out:
        write_csv(args.out, _metric_header(backend.seed), [_metric_row(result, backend.seed)])
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return _cmd_point(args, "eval")
        if args.command == "sim":
            return _cmd_point(args, "sim")
        if args.command == "fading":
            return _cmd_point(args, "fading")
        if args.command == "sweep":
            parser = load_config_file(args.config)
            cfg = scenario_from_config(parser)
            spec = sweep_spec_from_config(parser, cfg, args)
            run_sweep(spec)
            print(f"wrote {spec.out_path} ({len(spec.values)} rows)")
            return EXIT_OK
        if args.command == "region":
            parser = load_config_file(args.config)
            cfg = scenario_from_config(parser)
            spec = region_spec_from_config(parser, cfg, args)
            rows = compute_region(spec)
            print(f"wrote {spec.out_path} ({len(rows)} frontier points)")
            return EXIT_OK
        if args.command == "validate":
            parser = load_config_file(args.config) if args.config else None
            grid = _validate_grid_from_config(parser)
            report = validate(
                grid,
                target_se=args.target_se,
                seed=_count_setting(args, {}, "seed", DEFAULT_SEED, minimum=0),
                workers=_count_setting(args, {}, "workers", 1),
            )
            print(render_validation_summary(report))
            if args.out:
                header, rows = validation_rows(report)
                write_csv(args.out, header, rows)
            return EXIT_OK if report.passed else EXIT_VALIDATION
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as exc:  # every config fault raised ConfigError above
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
