"""Experiment orchestration: strict JSON configs, deterministic sampling, CSV artifacts.

Every run is a pure function of (config, seed) at the byte level: sampling uses
the stream of a counter-based generator (Philox-4x64-10) keyed by the seed,
computed with numpy core so that ``numpy.random`` is never imported, and
normal quantiles from ``statistics.NormalDist.inv_cdf``; sums run in fixed
order, and floats are written with 17 significant digits. The
manifest written next to the results echoes the config and records the code
version, the wall clock, the wall time of each stage, the fixed-point counts of
``mfg_vs_brs`` and ``nash_vs_brs`` (iterations, accepted and rejected Anderson
steps, restarts; for the Nash sweep also the controls it starts from) and the
process (Python and numpy versions, usable CPUs, peak resident memory); it is
the only artifact that may differ between identical runs.

CLI:  ``mfglab run <config.json> [--out DIR] [--seed S] [--jobs K]``
(``--jobs`` runs at most as many threads as there are particle stacks and usable CPUs);
exit codes: 0 success, 2 validation failure, 3 solver failure. Every exit
after the config file is read writes ``manifest.json``, a validation failure
included.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np

from . import __version__ as _version
from ._anderson import FixedPoint, FixedPointParams
from ._philox import philox_uniforms
from .controller import (
    DEFAULT_BLOW_UP_BOUND,
    _best_reply,
    _march_stack,
    integrate_brs,
    mpc_step_exact,
    mpc_step_taylor,
)
from .errors import CFLError, ConfigError, DivergenceError, NumericalError
from .grids import (
    _MAX_POINTS, DensityGrid, DensityTrajectory, SpaceGrid, grid_for_support, normalized_density, step_count,
    time_grid,
)
from .kinetic import cfl_time_step, solve_kinetic
from .measures import w1
from .mfg import (
    PICARD,
    ValueGrid,
    feedback_controls_best_reply,
    feedback_controls_from_value,
    mfg_fixed_point,
    proposition2_gap,
    total_running_cost,
)
from .model import (
    ControlProfile,
    ModelSpec,
    ParticleEnsemble,
    _batches,
    _pair_eval,
    _row_entries,
    bounded_confidence_model,
    consensus_model,
    polynomial_model,
)
from .nash import SWEEP, nash_sweep, value

EXPERIMENTS = ("particle_vs_kinetic", "mpc_vs_brs", "mfg_vs_brs", "prop2_gap", "nash_vs_brs")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    model_kind: str
    model_params: dict
    alpha_kind: str
    alpha_params: dict
    horizon: float
    seed: int
    n_seeds: int
    initial: dict
    dt: float | None = None
    dt_list: tuple[float, ...] | None = None
    n_particles: int | None = None
    n_particles_list: tuple[int, ...] | None = None
    grid_cells: int | None = None
    grid_bounds: tuple[float, float] | None = None
    solver_tolerance: float | None = None  # None: each solver's own default, as for the next two
    solver_damping: float | None = None
    solver_max_iterations: int | None = None
    output: str | None = None


@dataclass
class RunResult:
    exit_code: int
    artifacts: list[Path]
    message: str


# ---------------------------------------------------------------------------
# configuration parsing: one field table read by two readers (collects every validation error)


def _finite(v) -> bool:
    """Whether a parsed JSON value is a finite number: not a bool (``true`` would pass as 1), nor beyond the floats."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max  # NaN fails too


def _coefficient_table(table) -> list[list[float]] | None:
    """A number, a list of numbers or a list of equal-length rows as a 2D table of floats; None if not one."""
    if not isinstance(table, list):
        table = [table]
    rows = table if table and all(isinstance(row, list) for row in table) else [table]
    if not rows[0] or any(len(row) != len(rows[0]) for row in rows) or not all(_finite(v) for r in rows for v in r):
        return None
    return [[float(v) for v in row] for row in rows]


# Kinds: each reads a JSON value, or returns None when the value is not of the kind.
def _number(v):
    return float(v) if _finite(v) else None


def _integer(v):
    return v if isinstance(v, int) and _finite(v) else None


def _string(v):
    return v if isinstance(v, str) else None


def _list_of(kind):
    """A nonempty list of distinct entries of ``kind``: a repeated N or dt would run, and write its rows, twice."""
    def read(v):
        items = [kind(x) for x in v] if isinstance(v, list) and v else [None]
        return None if None in items or len(set(items)) < len(items) else tuple(items)
    return read


def _count(low: int):
    """Kind, bound and requirement of a size numpy can allocate: an integer in [low, _MAX_POINTS]."""
    return _integer, lambda v: low <= v <= _MAX_POINTS, f"an integer in [{low}, {_MAX_POINTS}]"


_MAX_CELLS = 100_000  # particle_vs_kinetic runs, one per (n, seed)
_POSITIVE = (_number, lambda v: v > 0, "a positive finite number")
_FINITE = (_number, None, "a finite number")

# Field table: (name, kind, bound, requirement, default, required). A JSON null
# counts as absent; a list kind applies its bound to every entry.
_TOP = (
    ("experiment", _string, lambda v: v in EXPERIMENTS, f"one of {EXPERIMENTS}", None, True),
    ("horizon", *_POSITIVE, None, True),
    ("dt", *_POSITIVE, None, False),
    ("dt_list", _list_of(_number), lambda v: v > 0, "a nonempty list of distinct positive finite numbers", None,
     False),
    ("seed", _integer, lambda v: v >= 0, "a nonnegative integer", 0, False),
    ("n_seeds", *_count(1), 1, False),
    ("n_particles", *_count(2), None, False),
    ("n_particles_list", _list_of(_integer), _count(2)[1],
     f"a nonempty list of distinct integers in [2, {_MAX_POINTS}]", None, False),
    ("output", _string, None, "a string path", None, False),
)
_GRID = (("cells", *_count(8), None, False), ("x_min", *_FINITE, None, False), ("x_max", *_FINITE, None, False))
_SOLVER = (
    ("tolerance", *_POSITIVE, None, False),
    ("damping", _number, lambda v: 0 < v <= 1, "a number in (0, 1]", None, False),
    ("max_iterations", _integer, lambda v: v >= 1, "a positive integer", None, False),
)
_TABLE = (_coefficient_table, None, "a nonempty table of finite numbers", None, True)
# Kind-selected blocks: the block's "kind" picks its fields.
_MODELS = {
    "consensus": (),
    "bounded_confidence": (("radius", *_POSITIVE, None, True),),
    "polynomial": (("drift_coeffs", *_TABLE), ("cost_coeffs", *_TABLE)),
}
_ALPHAS = {
    "constant": (("value", *_POSITIVE, None, True),),
    "affine": (("intercept", *_FINITE, None, True), ("slope", *_FINITE, 0.0, False)),
}
_INITIALS = {
    "uniform": (("a", *_FINITE, None, True), ("b", *_FINITE, None, True)),
    "gaussian": (("mu", *_FINITE, None, True), ("sigma", *_POSITIVE, None, True),
                 ("lo", *_FINITE, None, True), ("hi", *_FINITE, None, True)),
    "two_bump": (("mu1", *_FINITE, None, True), ("sigma1", *_POSITIVE, None, True),
                 ("mu2", *_FINITE, None, True), ("sigma2", *_POSITIVE, None, True),
                 ("lo", *_FINITE, None, True), ("hi", *_FINITE, None, True)),
}
# A model block may carry the fields of any model kind; only its own kind's are read.
_MODEL_KEYS = ("kind", "alpha", *{f[0] for fields in _MODELS.values() for f in fields})
_REQUIRES = {
    "particle_vs_kinetic": ("dt", "n_particles_list", "grid.cells"),
    "mpc_vs_brs": ("dt_list", "n_particles"),
    "mfg_vs_brs": ("dt", "grid.cells"),
    "prop2_gap": ("dt_list", "grid.cells"),
    "nash_vs_brs": ("dt", "n_particles"),
}


def _read_block(block, path: str, fields: tuple, errors: list[str], known=()) -> dict:
    """The fields of one config object, defaults filled in; keys outside ``fields`` and ``known`` are reported.

    A field that fails its kind or bound is reported as ``<path> must be <requirement>, got <value>`` and reads as None.
    """
    block = {} if block is None else block
    if not isinstance(block, dict):
        errors.append(f"{path} must be an object, got {block!r}")
        return {f[0]: None for f in fields}
    for key in sorted(set(block) - {f[0] for f in fields} - set(known)):
        errors.append(f"{path}: unknown key {key!r}" if path else f"unknown key {key!r}")
    out = {}
    for name, kind, bound, requirement, default, required in fields:
        raw = block.get(name)
        value = default if raw is None else kind(raw)
        entries = value if isinstance(value, tuple) else (value,)
        missing = raw is None and required
        invalid = raw is not None and (value is None or bound is not None and not all(map(bound, entries)))
        if missing or invalid:
            errors.append(f"{path + '.' if path else ''}{name} must be {requirement}, got {raw!r}")
            value = None
        out[name] = value
    return out


def _read_kind(block, path: str, kinds: dict, errors: list[str], known=("kind",)) -> tuple[str | None, dict]:
    """A block whose ``kind`` picks its fields from ``kinds``: (kind, values); the kind is None after any problem."""
    if not isinstance(block, dict):
        errors.append(f"{path} must be an object, got {block!r}")
        return None, {}
    kind, before = block.get("kind"), len(errors)
    if not (isinstance(kind, str) and kind in kinds):
        errors.append(f"{path}.kind must be one of {tuple(kinds)}, got {kind!r}")
        return None, {}
    values = _read_block(block, path, kinds[kind], errors, known)
    return (kind if len(errors) == before else None), values


def _json_value(text: str | bytes):
    """The JSON value of a config's text, or of its file's bytes in UTF-8; ConfigError if it is not JSON.

    Besides malformed JSON, that covers bytes that are not UTF-8, nesting deeper than the recursion
    limit and an integer literal longer than Python's limit on digits.
    """
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ConfigError([f"malformed JSON: {exc}"]) from None


def parse_config(text: str | bytes) -> ExperimentConfig:
    """Parse and validate a JSON experiment config, text or UTF-8 bytes; raises ConfigError with all problems."""
    errors: list[str] = []
    raw = _json_value(text)
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    top = _read_block(raw, "", _TOP, errors, known=("model", "grid", "initial", "solver"))
    model = raw.get("model")
    model_kind, model_params = _read_kind(model, "model", _MODELS, errors, known=_MODEL_KEYS)
    alpha = model.get("alpha") if isinstance(model, dict) else None
    alpha_kind, alpha_params = _read_kind(
        {"kind": "constant", "value": 1.0} if alpha is None else alpha, "model.alpha", _ALPHAS, errors)
    grid_block = raw.get("grid")
    grid = _read_block(grid_block, "grid", _GRID, errors)
    initial_kind, initial = _read_kind(raw.get("initial"), "initial", _INITIALS, errors)
    solver = _read_block(raw.get("solver"), "solver", _SOLVER, errors)

    # cross-field rules
    experiment, horizon, dt, seed = top["experiment"], top["horizon"], top["dt"], top["seed"]
    given = {**raw, "grid.cells": grid_block.get("cells") if isinstance(grid_block, dict) else None}
    for name in _REQUIRES.get(experiment, ()):
        if given.get(name) is None:  # a field given but invalid is already reported
            errors.append(f"experiment {experiment!r} requires {name}")
    if seed is not None and top["n_seeds"] is not None and seed + top["n_seeds"] - 1 >= 2**128:  # Philox keys
        errors.append(f"seed + n_seeds - 1 must be less than 2**128, got {seed + top['n_seeds'] - 1}")
    if experiment == "particle_vs_kinetic" and top["n_particles_list"] and top["n_seeds"] is not None:
        cells = len(top["n_particles_list"]) * top["n_seeds"]  # each cell is one run, listed before the first
        if cells > _MAX_CELLS:
            errors.append(f"len(n_particles_list) * n_seeds must be at most {_MAX_CELLS}, got {cells}")
    if alpha_kind == "affine" and horizon is not None:
        a, b = alpha_params["intercept"], alpha_params["slope"]
        if not min(a, a + b * horizon) > 0:  # affine: the smallest value on [0, horizon] sits at an end point
            errors.append(f"model.alpha affine must stay positive on [0, {horizon}], "
                          f"got alpha(0) = {a} and alpha({horizon}) = {a + b * horizon}")
    if horizon is not None and dt is not None:
        try:
            step_count(horizon, dt)
        except (ValueError, OverflowError) as exc:
            errors.append(str(exc))
    x_min, x_max = grid["x_min"], grid["x_max"]
    grid_bounds = None
    if isinstance(grid_block, dict) and (grid_block.get("x_min") is None) != (grid_block.get("x_max") is None):
        errors.append("grid.x_min and grid.x_max must be given together")
    elif x_min is not None and x_max is not None:
        grid_bounds = (x_min, x_max)
        if not x_min < x_max:
            errors.append(f"grid.x_min must be less than grid.x_max, got {x_min} and {x_max}")
    if initial_kind is not None:
        initial = {"kind": initial_kind, **initial}
        lo, hi = _support_of(initial)
        if not lo < hi:
            errors.append(f"initial support [{lo}, {hi}] is empty")
        elif grid_bounds is not None and (lo < grid_bounds[0] or hi > grid_bounds[1]):
            errors.append(f"grid bounds {list(grid_bounds)} do not cover the initial support [{lo}, {hi}]")

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        **top, model_kind=model_kind, model_params=model_params, alpha_kind=alpha_kind, alpha_params=alpha_params,
        initial=initial, grid_cells=grid["cells"], grid_bounds=grid_bounds,
        **{f"solver_{name}": value for name, value in solver.items()},
    )


# ---------------------------------------------------------------------------
# deterministic sampling (counter-based generator, fixed float mapping)


@np.errstate(all="ignore")  # samples a float cannot hold are reported below
def sample_initial(seed: int, n: int, distribution: dict) -> ParticleEnsemble:
    """Draw n sorted initial positions from the named distribution.

    The uniforms are the stream of ``Generator(Philox(key=seed)).random``,
    computed in numpy by ``_philox``: the same (seed, n) gives identical
    uniforms on every platform and parallel cells need no stream-splitting
    discipline. A two-bump draw takes 2n uniforms, the picks first.
    Truncated-normal positions map those uniforms through the normal CDF
    (``math.erfc``) and its inverse, ``statistics.NormalDist.inv_cdf``.
    Raises ``ConfigError`` naming ``initial`` when a sample is not finite.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got {n}")
    kind = distribution.get("kind")
    if kind == "uniform":
        a, b = distribution["a"], distribution["b"]
        xs = a + (b - a) * philox_uniforms(seed, n)
    elif kind == "gaussian":
        xs = _truncated_normal(philox_uniforms(seed, n), distribution["mu"], distribution["sigma"],
                               distribution["lo"], distribution["hi"])
    elif kind == "two_bump":
        picks, us = np.split(philox_uniforms(seed, 2 * n), 2)
        lo, hi = distribution["lo"], distribution["hi"]
        first = _truncated_normal(us, distribution["mu1"], distribution["sigma1"], lo, hi)
        second = _truncated_normal(us, distribution["mu2"], distribution["sigma2"], lo, hi)
        xs = np.where(picks < 0.5, first, second)
    else:
        raise ValueError(f"unsupported distribution {kind!r}")
    if not np.all(np.isfinite(xs)):
        raise ConfigError([f"initial {kind} distribution gives non-finite samples"])
    return ParticleEnsemble(np.sort(xs))


def _truncated_normal(u: np.ndarray, mu: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    """Inverse-CDF sampling of a normal truncated to [lo, hi].

    Round-off in the CDF round trip can step just past a bound, so samples are clipped to [lo, hi].
    When the two CDF values are equal in floats, [lo, hi] has no mass to sample and every sample is NaN.
    """
    c_lo = _ndtr((lo - mu) / sigma)
    c_hi = _ndtr((hi - mu) / sigma)
    if not c_lo < c_hi:
        return np.full(u.shape, np.nan)
    return np.clip(mu + sigma * _ndtri(c_lo + u * (c_hi - c_lo)), lo, hi)


def _ndtr(z: float) -> float:
    """Standard normal CDF of a scalar."""
    return 0.5 * math.erfc(-z / math.sqrt(2))


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of a 1D array, entry by entry ``statistics.NormalDist().inv_cdf``.

    0 and 1 map to -inf and +inf, anything else outside (0, 1), NaN included, to NaN.
    """
    quantile = NormalDist().inv_cdf
    edges = {0.0: -math.inf, 1.0: math.inf}
    levels = np.asarray(p, dtype=float).tolist()
    return np.array([quantile(q) if 0.0 < q < 1.0 else edges.get(q, math.nan) for q in levels], dtype=float)


def _support_of(distribution: dict) -> tuple[float, float]:
    if distribution["kind"] == "uniform":
        return distribution["a"], distribution["b"]
    return distribution["lo"], distribution["hi"]


@np.errstate(all="ignore")  # a pdf that leaves the floats fails the density checks instead
def density_of(distribution: dict, grid: SpaceGrid) -> DensityGrid:
    """Project the named distribution to cell averages (pdf at centers, renormalized).

    Raises ``ConfigError`` naming ``initial`` when the projection has no finite, positive mass.
    """
    x = grid.centers()
    kind = distribution["kind"]
    if kind == "uniform":
        a, b = distribution["a"], distribution["b"]
        pdf = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
    elif kind == "gaussian":
        pdf = _truncated_pdf(x, distribution["mu"], distribution["sigma"],
                             distribution["lo"], distribution["hi"])
    elif kind == "two_bump":
        lo, hi = distribution["lo"], distribution["hi"]
        pdf = 0.5 * (_truncated_pdf(x, distribution["mu1"], distribution["sigma1"], lo, hi)
                     + _truncated_pdf(x, distribution["mu2"], distribution["sigma2"], lo, hi))
    else:
        raise ValueError(f"unsupported distribution {kind!r}")
    try:
        return normalized_density(grid, pdf)
    except ValueError as exc:
        raise ConfigError([f"initial {kind} distribution on the grid cells: {exc}"]) from None


def _truncated_pdf(x: np.ndarray, mu: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    z = (x - mu) / sigma
    norm = _ndtr((hi - mu) / sigma) - _ndtr((lo - mu) / sigma)
    pdf = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi) * norm)
    return np.where((x >= lo) & (x <= hi), pdf, 0.0)


# ---------------------------------------------------------------------------
# model construction and CSV emission


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    """The configured interaction model; raises ``ValueError`` when its kernels fail the construction checks."""
    p = cfg.alpha_params  # a constant is a float, which the model constructors wrap
    alpha = p["value"] if cfg.alpha_kind == "constant" else lambda t: p["intercept"] + p["slope"] * t
    if cfg.model_kind == "consensus":
        return consensus_model(alpha)
    if cfg.model_kind == "bounded_confidence":
        return bounded_confidence_model(cfg.model_params["radius"], alpha)
    return polynomial_model(cfg.model_params["drift_coeffs"], cfg.model_params["cost_coeffs"], alpha)


def build_grid(cfg: ExperimentConfig) -> SpaceGrid:
    if cfg.grid_bounds is not None:
        return SpaceGrid(cfg.grid_bounds[0], cfg.grid_bounds[1], cfg.grid_cells)
    lo, hi = _support_of(cfg.initial)
    return grid_for_support(lo, hi, cfg.grid_cells)


def _fmt(v) -> str:
    if type(v) is float:  # the bulk of every file, so tested first
        return f"{v:.17g}"
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> Path:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")
    return path


def _write_keyed_csv(path: Path, header: list[str], times: np.ndarray, keys: list[str], values: np.ndarray) -> Path:
    """Rows (t, key, value), one per time and key; ``values[l, k]`` belongs to times[l] and keys[k].

    The bytes of ``write_csv`` on those rows: each time is formatted once per
    slice and each key once per file, and a slice is written by one
    %-template, since '%.17g' % v == f'{v:.17g}' for every float.
    """
    parts = ["", *(f",{key},%.17g\n" for key in keys)]  # joined by a time, a template for one slice
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for t, row in zip(times.tolist(), values.tolist()):
            fh.write(_fmt(t).join(parts) % tuple(row))
    return path


def write_grid_path_csv(path: Path, header: list[str], values: DensityTrajectory | ValueGrid) -> Path:
    """Rows (t, x, value), one per time and cell center, of a density path or a value grid."""
    centers = [_fmt(x) for x in values.grid.centers().tolist()]
    return _write_keyed_csv(path, header, values.times, centers, values.data)


def write_controls_csv(path: Path, controls: ControlProfile) -> Path:
    """Rows (t, i, u), one per step and player."""
    players = [str(i) for i in range(controls.values.shape[1])]
    return _write_keyed_csv(path, ["t", "i", "u"], controls.times[:-1], players, controls.values)


def write_adjoints_csv(path: Path, times: np.ndarray, costates: np.ndarray) -> Path:
    """Rows (t, i, j, phi), one per time and costate phi^i_j = costates[l, i, j], as ``solve_adjoint`` gives them."""
    pairs = [f"{i},{j}" for i in range(costates.shape[1]) for j in range(costates.shape[2])]
    return _write_keyed_csv(path, ["t", "i", "j", "phi"], times, pairs, costates.reshape(len(times), -1))


# ---------------------------------------------------------------------------
# experiment drivers


def run_experiment(cfg: ExperimentConfig, out_dir: Path | str | None = None, jobs: int = 1) -> RunResult:
    """Execute the configured experiment, writing CSV artifacts plus a manifest.

    Solver failures (divergence, CFL violation, non-convergence) produce exit
    code 3 with the failing stage named; validation failures found while
    running (``ConfigError``, e.g. a nonpositive control weight, or a model
    whose kernels fail the construction checks, or inputs too large to
    allocate or to count, such as a time grid of 10^15 steps) produce exit
    code 2. Both are reported, not raised, and every exit writes the manifest.
    """
    start = time.monotonic()
    stages = _Stages()
    out = Path(out_dir) if out_dir is not None else Path(cfg.output or "results")
    out.mkdir(parents=True, exist_ok=True)
    driver = {
        "particle_vs_kinetic": _run_particle_vs_kinetic,
        "mpc_vs_brs": _run_mpc_vs_brs,
        "mfg_vs_brs": _run_mfg_vs_brs,
        "prop2_gap": _run_prop2_gap,
        "nash_vs_brs": _run_nash_vs_brs,
    }[cfg.experiment]
    try:
        try:
            model = build_model(cfg)
        except ValueError as exc:
            raise ConfigError([f"model: {exc}"]) from None
        _spot_check_kernels(cfg, model)
        stages.lap("model")
        artifacts, message = driver(cfg, model, out, jobs, stages)
        code = EXIT_OK
    except ConfigError as exc:
        artifacts, message = [], f"validation failed: {exc}"
        code = EXIT_CONFIG
    except (OverflowError, MemoryError) as exc:
        artifacts, message = [], f"validation failed: inputs too large ({type(exc).__name__}: {exc})"
        code = EXIT_CONFIG
    except (DivergenceError, CFLError, NumericalError) as exc:
        artifacts, message = [], f"stage {cfg.experiment!r} failed: {exc}"
        code = EXIT_SOLVER
    artifacts.append(_write_manifest(out, dataclasses.asdict(cfg), code, message, start, stages.seconds,
                                     stages.counts))
    return RunResult(code, artifacts, message)


class _Stages:
    """Wall time of the finished stages of one run, in seconds by stage name, and its solver's counts."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int | str] = {}
        self._last = time.monotonic()

    def lap(self, name: str) -> None:
        """Book the time since the previous lap, or since the start, to stage ``name``."""
        now = time.monotonic()
        self.seconds[name] = self.seconds.get(name, 0.0) + (now - self._last)
        self._last = now


def _write_manifest(out: Path, config, code: int, message: str, start: float, stage_seconds=None,
                    counts=None) -> Path:
    """Write ``manifest.json``: the config as validated (or as given, when it failed), exit code and message.

    It also records the wall time of each finished stage (``stage_seconds``, empty when the config
    failed validation before the run), the solver's ``counts`` as top-level keys, and the process: the Python and
    numpy versions, the usable CPUs and the peak resident memory so far.
    """
    manifest = {
        "config": config,
        "version": _version,
        "wall_clock_seconds": time.monotonic() - start,
        "stage_seconds": stage_seconds or {},
        "exit_code": code,
        "message": message,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cpu_count": _usable_cpus(),
        "peak_rss_mb": _peak_rss_mb(),
        **(counts or {}),
    }
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _peak_rss_mb() -> float | None:
    """The peak resident set of this process so far, MiB: ``VmHWM`` of ``/proc/self/status``; None without it."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    return None


@np.errstate(all="ignore")  # a domain or kernel value a float cannot hold is reported below
def _spot_check_kernels(cfg: ExperimentConfig, model: ModelSpec) -> None:
    """Sample the drift kernel on the experiment domain: bounded and nonnegative."""
    lo, hi = _support_of(cfg.initial)
    pts = np.linspace(lo, hi, 17)
    vals = _pair_eval(model.drift.value, pts, pts)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(["drift kernel produced non-finite values on the experiment domain"])
    if np.min(vals) < 0:
        raise ConfigError([f"drift kernel is negative on the experiment domain (min {np.min(vals):.3e})"])


def _run_particle_vs_kinetic(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int, stages: _Stages):
    grid = build_grid(cfg)
    m0 = density_of(cfg.initial, grid)
    dt_kin = cfl_time_step(model, m0, cfg.horizon)
    kinetic_final = solve_kinetic(model, m0, cfg.horizon, dt_kin).final
    _, times = time_grid(cfg.horizon, cfg.dt)

    # the seeds of each N run as stacks of at most _BATCH_ENTRIES working entries, one seed at least
    seeds = range(cfg.seed, cfg.seed + cfg.n_seeds)
    stacks = []
    for n in cfg.n_particles_list:
        stacks += [(n, seeds[a:b]) for a, b in _batches(len(seeds), _row_entries(model, n))]

    def run_stack(stack):
        # only the current state is kept: memory does not grow with the step or seed count
        n, stack_seeds = stack
        start = np.stack([sample_initial(seed, n, cfg.initial).positions for seed in stack_seeds])
        _, final = _march_stack(start, map(float, times[:-1]), cfg.dt, _best_reply(model, "taylor", cfg.dt),
                                DEFAULT_BLOW_UP_BOUND, where=lambda row: f"N={n}, seed={stack_seeds[row]}: ")
        return [(n, seed, w1(ParticleEnsemble(x), kinetic_final)) for seed, x in zip(stack_seeds, final)]

    workers = min(jobs, len(stacks), _usable_cpus())
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # only runs with --jobs > 1 pay for the import

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [cell for cells in pool.map(run_stack, stacks) for cell in cells]
    else:
        results = [cell for stack in stacks for cell in run_stack(stack)]
    results.sort(key=lambda r: (r[0], r[1]))  # ascending N and seed, whatever the order of n_particles_list
    summary = []
    for n in sorted(cfg.n_particles_list):
        vals = [r[2] for r in results if r[0] == n]
        summary.append((n, float(np.mean(vals))))
    stages.lap("solve")
    artifacts = [write_csv(out / "cells.csv", ["n", "seed", "w1"], results),
                 write_csv(out / "summary.csv", ["n", "w1_mean"], summary)]
    stages.lap("write")
    return artifacts, f"{len(results)} cells against the kinetic solution (dt_kinetic={dt_kin:.6g})"


def _run_mpc_vs_brs(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int, stages: _Stages):
    start = sample_initial(cfg.seed, cfg.n_particles, cfg.initial)
    rows = []
    for dt in cfg.dt_list:
        exact, _ = mpc_step_exact(model, start, 0.0, dt)
        taylor, _ = mpc_step_taylor(model, start, 0.0, dt)
        rows.append((dt, float(np.max(np.abs(exact - taylor)))))
    stages.lap("solve")
    artifacts = [write_csv(out / "gaps.csv", ["dt", "gap_exact_taylor"], rows)]
    stages.lap("write")
    return artifacts, f"{len(rows)} step sizes compared"


def _solver_params(cfg: ExperimentConfig, default: FixedPointParams) -> FixedPointParams:
    """The solver's params from the config's solver block; a field left unset keeps the solver's ``default``."""
    given = {"max_iterations": cfg.solver_max_iterations, "tolerance": cfg.solver_tolerance,
             "theta": cfg.solver_damping}
    return dataclasses.replace(default, **{name: value for name, value in given.items() if value is not None})


def _counts(result: FixedPoint) -> dict[str, int]:
    """A fixed-point result's counts, for the manifest."""
    return {"iterations": result.iterations, "accelerated_steps": result.accelerated_steps,
            "rejected_steps": result.rejected_steps, "restarts": result.restarts}


def _run_mfg_vs_brs(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int, stages: _Stages):
    m0 = density_of(cfg.initial, build_grid(cfg))
    result = mfg_fixed_point(model, m0, cfg.horizon, cfg.dt, _solver_params(cfg, PICARD))
    stages.counts = _counts(result)
    result.require("coupled fixed point")
    stages.lap("fixed_point")
    kin = solve_kinetic(model, m0, cfg.horizon, cfg.dt)
    stages.lap("best_reply")
    dist = w1(result.densities.final, kin.final)
    cost_game = total_running_cost(model, result.densities, feedback_controls_from_value(model, result.value))
    cost_myopic = total_running_cost(model, kin, feedback_controls_best_reply(model, kin))
    stages.lap("costs")
    artifacts = [
        write_grid_path_csv(out / "value.csv", ["t", "x", "v"], result.value),
        write_grid_path_csv(out / "density_mfg.csv", ["t", "x_center", "m"], result.densities),
        write_grid_path_csv(out / "density_brs.csv", ["t", "x_center", "m"], kin),
        write_csv(out / "convergence.csv", ["iteration", "residual"],
                  list(enumerate(result.residual_history, start=1))),
        write_csv(out / "summary.csv", ["metric", "value"], [
            ("w1_final", dist),
            ("cost_game", cost_game),
            ("cost_best_reply", cost_myopic),
            ("residual", result.residual),
            ("iterations", result.iterations),
            ("converged", result.converged),
        ]),
    ]
    stages.lap("write")
    return artifacts, f"fixed point in {result.summary()}, W1(final) = {dist:.3e}"


def _run_prop2_gap(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int, stages: _Stages):
    m0 = density_of(cfg.initial, build_grid(cfg))
    params = _solver_params(cfg, PICARD)
    rows = [(dt, proposition2_gap(model, m0, dt, params)) for dt in cfg.dt_list]
    stages.lap("solve")
    artifacts = [write_csv(out / "gaps.csv", ["dt", "gap"], rows)]
    stages.lap("write")
    return artifacts, f"{len(rows)} window sizes"


def _run_nash_vs_brs(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int, stages: _Stages):
    start = sample_initial(cfg.seed, cfg.n_particles, cfg.initial)
    result = nash_sweep(model, start, cfg.horizon, cfg.dt, _solver_params(cfg, SWEEP))
    stages.counts = {**_counts(result), "sweep_initialization": "zero controls"}
    result.require("sweep")
    brs_trajectory, brs_profile = integrate_brs(model, start, cfg.horizon, cfg.dt)
    u_game = result.controls.values[0]
    u_myopic = brs_profile.values[0]
    # both trajectories are bit for bit what ``simulate_state`` gives under their controls
    v_game = value(model, result.trajectory, result.controls)
    v_myopic = value(model, brs_trajectory, brs_profile)
    rows = list(zip(range(cfg.n_particles), u_game, u_myopic, np.abs(u_game - u_myopic), v_game, v_myopic))
    stages.lap("solve")
    artifacts = [
        write_csv(out / "particles.csv",
                  ["i", "u_nash", "u_brs", "abs_gap", "v_nash", "v_brs"], rows),
        write_controls_csv(out / "controls.csv", result.controls),
        write_adjoints_csv(out / "adjoints.csv", result.controls.times, result.costates),
        write_csv(out / "summary.csv", ["metric", "value"], [
            ("max_abs_gap", max(r[3] for r in rows)),
            ("residual", result.residual),
            ("iterations", result.iterations),
            ("converged", result.converged),
        ]),
    ]
    stages.lap("write")
    return artifacts, f"sweep converged in {result.summary()}"


# ---------------------------------------------------------------------------
# command line


def _raw_json(text: bytes):
    """The config as given, for the manifest of a config that failed validation; None if it is not JSON."""
    try:
        return _json_value(text)
    except ConfigError:
        return None


def _output_of(raw) -> Path:
    """Where a run of this raw config writes without ``--out``: its ``output`` string, else ``results``."""
    output = raw.get("output") if isinstance(raw, dict) else None
    return Path(output if isinstance(output, str) and output else "results")


def main(argv=None) -> int:
    import argparse  # the command line alone needs it

    parser = argparse.ArgumentParser(prog="mfglab", description="Deterministic experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one experiment from a JSON config")
    run_parser.add_argument("config", type=Path, help="path to the JSON configuration")
    run_parser.add_argument("--out", type=Path, default=None, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="threads for particle_vs_kinetic stacks, at most one per stack and usable CPU")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_bytes()
    except OSError as exc:
        print(f"error: cannot read config: {exc}")
        return EXIT_CONFIG
    start = time.monotonic()
    raw = _raw_json(text)
    if args.seed is not None and isinstance(raw, dict):
        raw["seed"] = args.seed  # validated with the rest of the config
        text = json.dumps(raw)
    try:
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            for problem in exc.errors:
                print(f"config error: {problem}")
            _write_manifest(args.out or _output_of(raw), raw, EXIT_CONFIG, f"validation failed: {exc}", start)
            return EXIT_CONFIG
        result = run_experiment(cfg, out_dir=args.out, jobs=max(1, args.jobs))
    except OSError as exc:  # the output directory cannot be written
        print(f"error: cannot write the output: {exc}")
        return EXIT_CONFIG
    print(result.message)
    for path in result.artifacts:
        print(f"wrote {path}")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
