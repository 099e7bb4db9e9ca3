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
from collections import Counter
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
    if token == "inf":
        return INFINITE_K
    try:
        value = int(token)
    except ValueError as exc:
        raise ConfigError(f"K must be a non-negative integer or 'inf', got {text!r}") from exc
    if value < 0:
        raise ConfigError(f"K must be >= 0, got {value}")
    return value


class _Refused(ValueError):
    """A value its key's check refuses: the message, the value, its text."""


def _checked(convert, ok, message: str):
    """Converter: ``convert``, then ``ok`` of the value; ``message`` reports a
    refused value, formatted with the ``key``, the ``value`` and its ``text``."""
    def checked(text):
        value = convert(text)
        if not ok(value):
            raise _Refused(message, value, text)
        return value
    return checked


def _at_least(minimum: int, hint: str = ""):
    return _checked(int, lambda value: value >= minimum,
                    f"{{key}} must be >= {minimum}, got {{value}}{hint}")


def _choice(message: str, choices):
    return _checked(lambda text: text.strip().lower(), lambda token: token in choices, message)


def _values(convert):
    """The one rule of every list value: items split at commas and whitespace,
    each converted, and at least one of them."""
    return _checked(lambda text: tuple(map(convert, text.replace(",", " ").split())), bool,
                    "empty value list")


_unit = _checked(float, lambda value: 0 <= value <= 1, "region grid values must lie in [0, 1]")


# Each sweepable parameter: the converter of its [sweep] values, the channel
# or allocation type the base scenario needs for it (None: any), and that
# need as its refusal names it.
_SWEEP = {
    "gamma_c": (float, None, None),
    "T": (int, None, None),
    "L": (int, None, None),
    "eps1": (float, ErasureParams, "the erasure channel"),
    "eps2": (float, ErasureParams, "the erasure channel"),
    "alpha": (float, Tdma, "the tdma allocation"),
    "alpha2": (float, FadingParams, "the fading channel"),
    "beta2": (float, FadingParams, "the fading channel"),
    "K": (_parse_tolerance, ErasureParams, "the erasure channel"),
    "G": (float, None, None),
}
SWEEPABLE = tuple(_SWEEP)

_REQUIRED = object()

# Each key each section may hold: its converter, which also checks its
# domain, and its default, or _REQUIRED.  Any other key is refused, not
# ignored; a section not named here is not read, and [DEFAULT], whose keys
# configparser copies into every section, may hold none.  A rule that joins
# two keys or sections is left to the reader of the section.
_TABLE = {
    "DEFAULT": {},
    "meta": {"schema_version": (int, _REQUIRED)},  # the version is checked first
    "scenario": {
        "l": (int, _REQUIRED),
        "t": (int, _REQUIRED),
        "g": (float, _REQUIRED),
        "gamma_c": (float, _REQUIRED),
        "k": (_parse_tolerance, INFINITE_K),
        "receiver": (_choice("unknown receiver {value!r}", Receiver.ALL), Receiver.COLLISION),
        "allocation": (_choice("unknown allocation {value!r}", ("non_orthogonal", "tdma")),
                       "non_orthogonal"),
        "alpha": (float, None),  # given exactly when allocation = tdma
    },
    "erasure": {"eps1": (float, _REQUIRED), "eps2": (float, _REQUIRED)},
    "fading": {  # FadingParams' fields in order, each required or at its default
        f.name.lower(): (float, _REQUIRED if f.default is dataclasses.MISSING else f.default)
        for f in dataclasses.fields(FadingParams)
    },
    "sim": {
        "frames": (_at_least(1), None),
        "slots": (_at_least(1), None),
        "seed": (_at_least(0), DEFAULT_SEED),
        "workers": (_at_least(1), 1),
    },
    "superposition": {
        "estimator": (_choice("unknown superposition estimator {value!r}", ("exact", "mc")),
                      "exact"),
        "mc_samples": (_at_least(1), 1000),
    },
    "sweep": {
        "parameter": (_checked(str.strip, lambda name: name in _SWEEP,
                               f"unknown sweep parameter {{value!r}}; choose from {SWEEPABLE}"),
                      _REQUIRED),
        "values": (str, _REQUIRED),  # a list of the parameter's type, converted at load
        "backend": (str.strip, "analytic"),
    },
    "region": {  # an axis takes its values or its count; 21 steps if neither
        "gamma_values": (_values(_unit), None),
        "gamma_count": (_at_least(2, "; use gamma_values for a single point"), None),
        "alpha_values": (_values(_unit), None),
        "alpha_count": (_at_least(2, "; use alpha_values for a single point"), None),
        "schemes": (_values(_choice("unknown scheme {value!r} in region spec",
                                    ("non_orthogonal", "tdma"))),
                    ("non_orthogonal", "tdma")),
        "backend": (str.strip, "analytic"),
    },
    "validate": {  # the axes of the validation grid, each at its default
        "l": (_checked(_values(float), lambda ls: all(v.is_integer() for v in ls),
                       "[validate] {key} must list whole numbers, got {text!r}"),
              (1, 2, 3, 5)),
        "eps1": (_values(float), (0.1, 0.5, 0.9)),
        "eps2": (_values(float), (0.1, 0.5, 0.9)),
        "load": (_values(float), (0.25, 1.0, 2.0, 4.0)),
        "gamma_c": (_values(float), (0.1, 0.5, 0.9)),
        "k": (_values(_parse_tolerance), (0, 1, 2, 5)),
    },
}


def _convert(section: str, key: str, raw, convert=None):
    """``raw`` through ``convert``, by default the table's converter of the
    key; a value it cannot read, or refuses, is reported with the key."""
    try:
        return (convert or _TABLE[section][key][0])(raw)
    except _Refused as exc:
        message, value, text = exc.args
        raise ConfigError(message.format(key=key, value=value, text=text)) from exc
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{key}' in [{section}]: {raw!r}") from exc


def _section(name: str, raw) -> dict:
    """Section ``name`` of a scenario file: each key it holds converted, each
    other key at its default."""
    keys = _TABLE[name]
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown key '{key}' in [{name}]")
    for key, (_, default) in keys.items():
        if default is _REQUIRED and key not in raw:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")
    return {key: _convert(name, key, raw[key]) if key in raw else default
            for key, (_, default) in keys.items()}


class _Sections(dict):
    """A scenario file's converted sections by name; a section the file does
    not hold reads as its defaults."""

    def __missing__(self, name: str) -> dict:
        return _section(name, {})


def _construct(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a violated domain reported as a ConfigError."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config_file(path: str) -> _Sections:
    """Every section of the file that the grammar names, each checked whole."""
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
    # the version first: a file of another version may hold other keys
    version = _convert("meta", "schema_version", parser["meta"]["schema_version"])
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version} (expected {SCHEMA_VERSION})")
    config = _Sections((name, _section(name, parser[name]))
                       for name in (parser.default_section, *parser.sections()) if name in _TABLE)
    if "sweep" in config:  # its values are typed by its parameter
        sweep = config["sweep"]
        convert = _values(_SWEEP[sweep["parameter"]][0])
        sweep["values"] = _convert("sweep", "values", sweep["values"], convert)
    return config


def scenario_from_config(config: _Sections) -> ScenarioConfig:
    if "scenario" not in config:
        raise ConfigError("config must contain a [scenario] section")
    if ("erasure" in config) == ("fading" in config):
        raise ConfigError("config must contain exactly one of [erasure] or [fading]")
    sc = config["scenario"]
    tdma = sc["allocation"] == "tdma"
    if tdma and sc["alpha"] is None:
        raise ConfigError("missing required key 'alpha' in section [scenario]")
    if not tdma and sc["alpha"] is not None:
        raise ConfigError("alpha is the tdma slot share: give it with allocation = tdma only")
    if "erasure" in config:
        channel = _construct(ErasureParams, **config["erasure"])
    else:
        channel = _construct(FadingParams, *config["fading"].values())
    return _construct(
        ScenarioConfig, L=sc["l"], T=sc["t"], G=sc["g"], gamma_c=sc["gamma_c"],
        channel=channel, K=sc["k"], receiver=sc["receiver"],
        allocation=_construct(Tdma, alpha=sc["alpha"]) if tdma else NON_ORTHOGONAL,
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
    seed: int
    workers: int

    def check(self, cfg: ScenarioConfig) -> None:
        if not isinstance(cfg.channel, ErasureParams):
            raise ConfigError("sim backend requires the erasure channel")

    def evaluate(self, cfgs: list[ScenarioConfig]) -> list:
        return [sim_erasure.simulate(cfg, self.frames, self.seed, self.workers) for cfg in cfgs]


@dataclass(frozen=True)
class FadingBackend:
    slots: int
    seed: int
    workers: int

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


def backend_from_config(config: _Sections, name: str) -> Backend:
    """The backend ``name``, built from the config sections."""
    sim = config["sim"]
    if name == "analytic":
        return AnalyticBackend()
    if name in ("sim", "fading"):
        budget = "frames" if name == "sim" else "slots"
        if sim[budget] is None:
            raise ConfigError(f"no {budget} budget: give --{budget} or [sim] {budget}")
        engine = SimBackend if name == "sim" else FadingBackend
        return engine(sim[budget], sim["seed"], sim["workers"])
    if name == "superposition":
        if config["superposition"]["estimator"] == "exact":
            return AnalyticBackend(Receiver.SUPERPOSITION)
        mc = superposition.ConditionedMC(config["superposition"]["mc_samples"], sim["seed"])
        return AnalyticBackend(Receiver.SUPERPOSITION, mc)
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


# ============================================================================
#  Parameter sweeps
# ============================================================================


def _apply_parameter(cfg: ScenarioConfig, name: str, value) -> ScenarioConfig:
    _, needs, requirement = _SWEEP[_convert("sweep", "parameter", name)]
    if needs and not (isinstance(cfg.channel, needs) or isinstance(cfg.allocation, needs)):
        raise ConfigError(f"sweeping {name} requires {requirement}")
    try:
        if name == "alpha":
            return cfg.replace(allocation=Tdma(alpha=value))
        if name in vars(cfg):
            return cfg.replace(**{name: value})
        return cfg.replace(channel=dataclasses.replace(cfg.channel, **{name: value}))
    except ValueError as exc:
        raise ConfigError(f"invalid value {value!r} for parameter {name}: {exc}") from exc


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


def _region_grid(sec: dict, name: str) -> tuple[int, object]:
    """``(size, values)``: ``{name}_values`` as listed, else ``{name}_count``
    even steps over [0, 1], 21 if neither is given, as a generator, so
    nothing is built before the region's size is checked."""
    values, count = sec[f"{name}_values"], sec[f"{name}_count"]
    if values is not None and count is not None:
        raise ConfigError(f"[region] takes {name}_values or {name}_count, not both")
    if values is not None:
        return len(values), values
    count = count or 21
    return count, (i / (count - 1) for i in range(count))


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

_SCORED = ("ok", "warn", "fail")  # a scored cell's status, by |z|


@dataclass(frozen=True)
class ValidationCell:
    cfg: ScenarioConfig
    metric: str
    analytic: float
    simulated: float
    std_error: float
    z: float
    status: str  # one of _SCORED, or error: <message>


@dataclass(frozen=True)
class ValidationReport:
    cells: tuple
    seed: int
    target_se: float

    def counts(self) -> Counter:
        """The number of cells of each scored status, and of error cells under ``errors``."""
        return Counter(c.status if c.status in _SCORED else "errors" for c in self.cells)

    @property
    def n_errors(self) -> int:
        return self.counts()["errors"]

    @property
    def max_abs_z(self) -> float:
        return max((abs(c.z) for c in self.cells if c.status in _SCORED), default=0.0)

    @property
    def passed(self) -> bool:
        """|z| <= 3 on at least 99% of the scored cells, no |z| > 5, no error
        cell, and at least one scored cell."""
        n, n_cells = self.counts(), len(self.cells)  # with no error cell, every cell is scored
        return n["errors"] == 0 and n_cells > 0 and n["ok"] / n_cells >= 0.99 and n["fail"] == 0


def default_validation_grid(overrides: dict | None = None) -> list[ScenarioConfig]:
    """Collision-model grid over (L, eps1, eps2, per-slot load, gamma_c, K):
    the ``[validate]`` defaults, with the axes ``overrides`` names, any case.

    Instantiated at T = 1, where the frame-tagged PSR estimator's
    conditioning coincides exactly with the analytic normalized-Poisson
    conditioning.
    """
    grid = _section("validate", {})
    grid.update((name.lower(), values) for name, values in (overrides or {}).items())
    return [
        ScenarioConfig(L=int(L), T=1, G=float(load), gamma_c=float(gc),
                       channel=ErasureParams(float(e1), float(e2)), K=k)
        for L, e1, e2, load, gc, k in itertools.product(*grid.values())
    ]


def _scored_cell(cfg: ScenarioConfig, metric: str, analytic: float, estimate) -> ValidationCell:
    """The cell of ``estimate``: its z-score against ``analytic`` and its status by |z|."""
    se = estimate.std_error
    diff = estimate.mean - analytic
    if se == 0.0:
        z = 0.0 if abs(diff) <= 1e-12 else math.inf
    else:
        z = diff / se
    if abs(z) <= 3.0:
        status = "ok"
    elif abs(z) <= 5.0:
        status = "warn"
    else:
        status = "fail"
    return ValidationCell(cfg, metric, analytic, estimate.mean, se, z, status)


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
    trials of the rarer class).  ``ValidationReport.passed`` is the verdict.
    """
    if not target_se > 0:
        raise ConfigError("target_se must be positive")
    if grid is None:
        grid = default_validation_grid()
    if not grid:
        raise ConfigError("validation grid is empty")

    groups: dict = {}
    for cfg in grid:
        cfg.erasure  # a fading config is refused before any work
        groups.setdefault(cfg.replace(K=INFINITE_K), []).append(cfg)

    # A target below sqrt(0.25 / cap) gives every group the cap, and one above
    # 1 a single trial; clamped to that range, every budget stays as it was
    # and 0.25 / se**2 stays a finite, nonzero float.
    se = min(max(target_se, math.sqrt(0.25 / _VALIDATE_MAX_FRAMES)), 1.0)
    trials_target = int(math.ceil(0.25 / se**2))
    cells = []
    for base, cfgs in groups.items():
        active = [
            1.0 - math.exp(-base.gamma_c * base.G),
            1.0 - math.exp(-(1.0 - base.gamma_c) * base.G),
        ]
        p_min = min((p for p in active if p > 0), default=1.0)
        n_frames = min(_VALIDATE_MAX_FRAMES, int(math.ceil(1.05 * trials_target / p_min)) + 500)
        k_values = [c.K for c in cfgs]
        try:
            sim_by_k = sim_erasure.simulate_multi_k(base, k_values, n_frames, seed, workers)
            analytic = analytic_erasure.evaluate_erasure_batch(cfgs)
        except Exception as exc:  # surfaced per-cell, run continues
            nan = math.nan
            cells += [ValidationCell(cfg, m, nan, nan, nan, nan, f"error: {exc}")
                      for cfg in cfgs for m in _METRICS]
            continue
        for cfg, ana in zip(cfgs, analytic):
            sim = sim_by_k[cfg.K]
            cells += [_scored_cell(cfg, m, getattr(ana, m), getattr(sim, m)) for m in _METRICS]
    return ValidationReport(cells=tuple(cells), seed=seed, target_se=target_se)


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
    n = report.counts()
    counts = ", ".join(f"{status} {n[status]}" for status in (*_SCORED, "errors"))
    lines = [
        f"validation cells: {len(report.cells)} ({counts})",
        f"max |z| = {report.max_abs_z:.3f}, target std error = "
        f"{fmt_value(report.target_se)}, seed = {report.seed}",
        f"result: {'PASS' if report.passed else 'FAIL'}",
    ]
    for c in report.cells:
        if c.status != "ok":
            e = c.cfg.erasure
            lines.append(
                f"  [{c.status}] L={c.cfg.L} G={fmt_value(c.cfg.G)} "
                f"eps=({e.eps1},{e.eps2}) gamma_c={c.cfg.gamma_c} "
                f"K={fmt_value(c.cfg.K)} {c.metric}: "
                f"analytic={fmt_value(c.analytic)} sim={fmt_value(c.simulated)} "
                f"z={fmt_value(c.z)}"
            )
    return "\n".join(lines)


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


def _inputs(args) -> tuple:
    """Every input of a command, read and checked before any evaluation:
    ``(grid, seed, workers)`` for ``validate``, else ``(cfg, backend)``, then
    the parameter and values of a sweep or the gammas, alphas and schemes of
    a region."""
    out_dir = os.path.dirname(os.path.abspath(args.out or "."))  # checked before any work
    if args.out and not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK | os.X_OK)):
        raise ConfigError(f"--out directory {out_dir} is not a writable directory")
    if args.out and (os.path.isdir(args.out) or not os.path.basename(args.out)):
        raise ConfigError(f"--out {args.out} names a directory, not a file")
    config = load_config_file(args.config) if args.config else _Sections()
    # each flag given replaces its [sim] key, checked like it; validate reads
    # no [sim] from its file
    sim = config["sim"] = _section("sim", {}) if args.command == "validate" else config["sim"]
    for key in sim:
        if getattr(args, key, None) is not None:
            sim[key] = _convert("sim", key, getattr(args, key))
    if args.command == "validate":
        return _construct(default_validation_grid, config["validate"]), sim["seed"], sim["workers"]
    cfg = scenario_from_config(config)
    if args.command == "eval":  # the backend of the scenario's receiver
        name = "analytic" if cfg.receiver == Receiver.COLLISION else "superposition"
        return cfg, backend_from_config(config, name)
    if args.command in ("sim", "fading"):
        return cfg, backend_from_config(config, args.command)
    if args.command not in config:
        raise ConfigError(f"{args.command} command needs a [{args.command}] section")
    sec = config[args.command]
    backend = backend_from_config(config, args.backend or sec["backend"])
    if not args.out:
        raise ConfigError(f"{args.command} requires --out")
    if args.command == "sweep":
        return cfg, backend, sec["parameter"], sec["values"]
    (n_gammas, gammas), (n_alphas, alphas) = _region_grid(sec, "gamma"), _region_grid(sec, "alpha")
    schemes = sec["schemes"]
    size = n_gammas * ("non_orthogonal" in schemes) + n_gammas * n_alphas * ("tdma" in schemes)
    # both axes are built, whether or not a scheme uses them
    for count, what in ((size, "scenarios in the region"), (n_gammas, "gamma values"),
                        (n_alphas, "alpha values")):
        if count > MAX_REGION_SCENARIOS:
            raise ConfigError(f"{count} {what}, over the limit of {MAX_REGION_SCENARIOS}")
    return cfg, backend, tuple(gammas), tuple(alphas), schemes


def _run(args) -> int:
    """Evaluate a command's inputs on one backend and render the rows."""
    if args.command == "validate":
        grid, seed, workers = _inputs(args)
        report = validate(grid, target_se=args.target_se, seed=seed, workers=workers)
        print(render_validation_summary(report))
        if args.out:
            write_csv(args.out, *validation_rows(report))
        return EXIT_OK if report.passed else EXIT_VALIDATION

    cfg, backend, *inputs = _inputs(args)
    if args.command == "sweep":
        header = [inputs[0]] + _metric_header(backend.seed)  # the parameter's column first
        rows = run_sweep(cfg, *inputs, backend)
        wrote = f"{len(rows)} rows"
    elif args.command == "region":
        header = ["scheme", "gamma_c", "alpha", "R_c", "R_cbar"]
        rows = compute_region(cfg, *inputs, backend)
        wrote = f"{len(rows)} frontier points"
    else:
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
