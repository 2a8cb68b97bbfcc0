"""Experiment orchestration: strict JSON configs, deterministic sampling, CSV artifacts.

Every run is a pure function of (config, seed) at the byte level: sampling uses
a counter-based generator (Philox) keyed by the seed, sums run in fixed order,
and floats are written with 17 significant digits. The manifest written next
to the results echoes the config and records the code version and wall clock
(the manifest is the only artifact that may differ between identical runs).

CLI:  ``mfglab run <config.json> [--out DIR] [--seed S] [--jobs K]``
exit codes: 0 success, 2 validation failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

from . import __version__ as _version
from .controller import (
    brs_control,
    integrate_brs,
    mpc_step_exact,
    mpc_step_taylor,
)
from .errors import CFLError, ConfigError, DivergenceError, NumericalError
from .grids import DensityGrid, DensityTrajectory, SpaceGrid, grid_for_support, normalized_density
from .kinetic import cfl_time_step, solve_kinetic
from .measures import empirical, w1
from .mfg import (
    PicardParams,
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
    bounded_confidence_model,
    consensus_model,
    polynomial_model,
)
from .nash import AdjointField, SweepParams, nash_sweep, value

EXPERIMENTS = ("particle_vs_kinetic", "mpc_vs_brs", "mfg_vs_brs", "prop2_gap", "nash_vs_brs")
MODEL_KINDS = ("consensus", "bounded_confidence", "polynomial")
DISTRIBUTIONS = ("uniform", "gaussian", "two_bump")

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
    solver_tolerance: float = 1e-8
    solver_damping: float = 0.5
    solver_max_iterations: int | None = None
    output: str | None = None

    def echo(self) -> dict:
        """JSON-ready view of the validated configuration."""
        out = dataclasses.asdict(self)
        out["dt_list"] = list(self.dt_list) if self.dt_list else None
        out["n_particles_list"] = list(self.n_particles_list) if self.n_particles_list else None
        out["grid_bounds"] = list(self.grid_bounds) if self.grid_bounds else None
        return out


@dataclass
class RunResult:
    exit_code: int
    artifacts: list[Path]
    message: str


# ---------------------------------------------------------------------------
# configuration parsing (collects every validation error)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON experiment config; raises ConfigError with all problems."""
    errors: list[str] = []
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"malformed JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigError(["top level must be a JSON object"])

    known = {
        "experiment", "model", "horizon", "dt", "dt_list", "n_particles",
        "n_particles_list", "n_seeds", "seed", "grid", "initial", "solver", "output",
    }
    for key in sorted(set(raw) - known):
        errors.append(f"unknown key {key!r}")

    experiment = raw.get("experiment")
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")

    model_kind, model_params, alpha_kind, alpha_params = _parse_model(raw.get("model"), errors)
    horizon = _positive_number(raw, "horizon", errors, required=True)
    seed = _nonneg_int(raw, "seed", errors, default=0)
    n_seeds = _positive_int(raw, "n_seeds", errors, default=1)
    dt = _positive_number(raw, "dt", errors, required=False)
    dt_list = _positive_list(raw, "dt_list", errors)
    n_particles = _particle_count(raw.get("n_particles"), "n_particles", errors)
    n_particles_list = None
    if "n_particles_list" in raw:
        vals = raw["n_particles_list"]
        if not isinstance(vals, list) or not vals:
            errors.append("n_particles_list must be a nonempty list")
        else:
            parsed = [_particle_count(v, "n_particles_list entry", errors) for v in vals]
            if all(v is not None for v in parsed):
                n_particles_list = tuple(parsed)

    grid_cells, grid_bounds = _parse_grid(raw.get("grid"), errors)
    initial = _parse_initial(raw.get("initial"), errors)
    tol, damping, max_iter = _parse_solver(raw.get("solver"), errors)

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append("output must be a string path")

    _require_experiment_fields(
        experiment, errors,
        dt=dt, dt_list=dt_list, n_particles=n_particles,
        n_particles_list=n_particles_list, grid_cells=grid_cells,
    )

    if alpha_kind == "affine" and horizon is not None:
        a, b = alpha_params["intercept"], alpha_params["slope"]
        # affine: the smallest value on [0, horizon] sits at an end point
        if not min(a, a + b * horizon) > 0:
            errors.append(
                f"model.alpha affine must stay positive on [0, {horizon}], "
                f"got alpha(0) = {a} and alpha({horizon}) = {a + b * horizon}"
            )

    if grid_bounds is not None and initial:
        lo, hi = _support_of(initial)
        if lo < grid_bounds[0] or hi > grid_bounds[1]:
            errors.append(
                f"grid bounds {list(grid_bounds)} do not cover the initial support [{lo}, {hi}]"
            )

    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(
        experiment=experiment,
        model_kind=model_kind,
        model_params=model_params,
        alpha_kind=alpha_kind,
        alpha_params=alpha_params,
        horizon=horizon,
        seed=seed,
        n_seeds=n_seeds,
        initial=initial,
        dt=dt,
        dt_list=dt_list,
        n_particles=n_particles,
        n_particles_list=n_particles_list,
        grid_cells=grid_cells,
        grid_bounds=grid_bounds,
        solver_tolerance=tol,
        solver_damping=damping,
        solver_max_iterations=max_iter,
        output=output,
    )


def _parse_model(block, errors: list[str]):
    if not isinstance(block, dict):
        errors.append("model block is required and must be an object")
        return "consensus", {}, "constant", {"value": 1.0}
    known = {"kind", "alpha", "radius", "drift_coeffs", "cost_coeffs"}
    for key in sorted(set(block) - known):
        errors.append(f"model: unknown key {key!r}")
    kind = block.get("kind")
    params: dict = {}
    if kind not in MODEL_KINDS:
        errors.append(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
        kind = "consensus"
    elif kind == "bounded_confidence":
        radius = block.get("radius")
        if not isinstance(radius, (int, float)) or not radius > 0:
            errors.append("model.radius must be a positive number for bounded_confidence")
        else:
            params["radius"] = float(radius)
    elif kind == "polynomial":
        for name in ("drift_coeffs", "cost_coeffs"):
            table = block.get(name)
            try:
                arr = np.asarray(table, dtype=float)
                if arr.ndim > 2 or arr.size == 0:
                    raise ValueError
                params[name] = np.atleast_2d(arr).tolist()
            except (ValueError, TypeError):
                errors.append(f"model.{name} must be a nonempty numeric coefficient table")
    alpha = block.get("alpha", {"kind": "constant", "value": 1.0})
    alpha_kind, alpha_params = _parse_alpha(alpha, errors)
    return kind, params, alpha_kind, alpha_params


def _parse_alpha(block, errors: list[str]):
    if not isinstance(block, dict):
        errors.append("model.alpha must be an object")
        return "constant", {"value": 1.0}
    kind = block.get("kind")
    if kind == "constant":
        for key in sorted(set(block) - {"kind", "value"}):
            errors.append(f"model.alpha: unknown key {key!r}")
        v = block.get("value")
        if not isinstance(v, (int, float)) or not v > 0:
            errors.append("model.alpha.value must be a positive number")
            return "constant", {"value": 1.0}
        return "constant", {"value": float(v)}
    if kind == "affine":
        for key in sorted(set(block) - {"kind", "intercept", "slope"}):
            errors.append(f"model.alpha: unknown key {key!r}")
        a = block.get("intercept")
        b = block.get("slope", 0.0)
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            errors.append("model.alpha affine needs numeric intercept and slope")
            return "constant", {"value": 1.0}
        return "affine", {"intercept": float(a), "slope": float(b)}
    errors.append(f"model.alpha.kind must be 'constant' or 'affine', got {kind!r}")
    return "constant", {"value": 1.0}


def _parse_grid(block, errors: list[str]):
    if block is None:
        return None, None
    if not isinstance(block, dict):
        errors.append("grid must be an object")
        return None, None
    for key in sorted(set(block) - {"cells", "x_min", "x_max"}):
        errors.append(f"grid: unknown key {key!r}")
    cells = block.get("cells")
    if not isinstance(cells, int) or cells < 8:
        errors.append("grid.cells must be an integer >= 8")
        cells = None
    bounds = None
    if ("x_min" in block) != ("x_max" in block):
        errors.append("grid.x_min and grid.x_max must be given together")
    elif "x_min" in block:
        lo, hi = block["x_min"], block["x_max"]
        if not isinstance(lo, (int, float)) or not isinstance(hi, (int, float)) or not lo < hi:
            errors.append("grid bounds must satisfy x_min < x_max")
        else:
            bounds = (float(lo), float(hi))
    return cells, bounds


def _parse_initial(block, errors: list[str]):
    if not isinstance(block, dict):
        errors.append("initial block is required and must be an object")
        return {"kind": "uniform", "a": 0.0, "b": 1.0}
    kind = block.get("kind")
    fields = {
        "uniform": ("a", "b"),
        "gaussian": ("mu", "sigma", "lo", "hi"),
        "two_bump": ("mu1", "sigma1", "mu2", "sigma2", "lo", "hi"),
    }
    if kind not in fields:
        errors.append(f"initial.kind must be one of {DISTRIBUTIONS}, got {kind!r}")
        return {"kind": "uniform", "a": 0.0, "b": 1.0}
    wanted = fields[kind]
    for key in sorted(set(block) - {"kind", *wanted}):
        errors.append(f"initial: unknown key {key!r}")
    out = {"kind": kind}
    for name in wanted:
        v = block.get(name)
        if not isinstance(v, (int, float)):
            errors.append(f"initial.{name} must be a number")
            return {"kind": "uniform", "a": 0.0, "b": 1.0}
        out[name] = float(v)
    lo, hi = _support_of(out)
    if not lo < hi:
        errors.append(f"initial support [{lo}, {hi}] is empty")
    if kind in ("gaussian", "two_bump"):
        for name in wanted:
            if name.startswith("sigma") and not out[name] > 0:
                errors.append(f"initial.{name} must be positive")
    return out


def _parse_solver(block, errors: list[str]):
    tol, damping, max_iter = 1e-8, 0.5, None
    if block is None:
        return tol, damping, max_iter
    if not isinstance(block, dict):
        errors.append("solver must be an object")
        return tol, damping, max_iter
    for key in sorted(set(block) - {"tolerance", "damping", "max_iterations"}):
        errors.append(f"solver: unknown key {key!r}")
    if "tolerance" in block:
        v = block["tolerance"]
        if not isinstance(v, (int, float)) or not v > 0:
            errors.append("solver.tolerance must be positive")
        else:
            tol = float(v)
    if "damping" in block:
        v = block["damping"]
        if not isinstance(v, (int, float)) or not 0 < v <= 1:
            errors.append("solver.damping must lie in (0, 1]")
        else:
            damping = float(v)
    if "max_iterations" in block:
        v = block["max_iterations"]
        if not isinstance(v, int) or v < 1:
            errors.append("solver.max_iterations must be a positive integer")
        else:
            max_iter = v
    return tol, damping, max_iter


def _require_experiment_fields(experiment, errors, *, dt, dt_list, n_particles, n_particles_list, grid_cells):
    if experiment is None:
        return
    need = {
        "particle_vs_kinetic": ("dt", "n_particles_list", "grid_cells"),
        "mpc_vs_brs": ("dt_list", "n_particles"),
        "mfg_vs_brs": ("dt", "grid_cells"),
        "prop2_gap": ("dt_list", "grid_cells"),
        "nash_vs_brs": ("dt", "n_particles"),
    }.get(experiment, ())
    have = {"dt": dt, "dt_list": dt_list, "n_particles": n_particles,
            "n_particles_list": n_particles_list, "grid_cells": grid_cells}
    for name in need:
        if have[name] is None:
            field = "grid.cells" if name == "grid_cells" else name
            errors.append(f"experiment {experiment!r} requires {field}")


def _positive_number(raw, key, errors, required):
    v = raw.get(key)
    if v is None:
        if required:
            errors.append(f"{key} is required")
        return None
    if not isinstance(v, (int, float)) or not v > 0:
        errors.append(f"{key} must be a positive number, got {v!r}")
        return None
    return float(v)


def _positive_list(raw, key, errors):
    if key not in raw:
        return None
    vals = raw[key]
    if not isinstance(vals, list) or not vals:
        errors.append(f"{key} must be a nonempty list")
        return None
    out = []
    for v in vals:
        if not isinstance(v, (int, float)) or not v > 0:
            errors.append(f"{key} entries must be positive numbers, got {v!r}")
            return None
        out.append(float(v))
    return tuple(out)


def _nonneg_int(raw, key, errors, default):
    v = raw.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        errors.append(f"{key} must be a nonnegative integer, got {v!r}")
        return default
    return v


def _positive_int(raw, key, errors, default):
    v = raw.get(key, default)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        errors.append(f"{key} must be a positive integer, got {v!r}")
        return default
    return v


def _particle_count(v, label, errors):
    if v is None:
        return None
    if not isinstance(v, int) or isinstance(v, bool) or v < 2:
        errors.append(f"{label} must be an integer >= 2, got {v!r}")
        return None
    return v


# ---------------------------------------------------------------------------
# deterministic sampling (counter-based generator, fixed float mapping)


def sample_initial(seed: int, n: int, distribution: dict) -> ParticleEnsemble:
    """Draw n sorted initial positions from the named distribution.

    The stream comes from a Philox counter-based generator keyed by the seed,
    so the same (seed, n, distribution) gives identical positions on every
    platform and parallel cells need no stream-splitting discipline.
    """
    if n < 1:
        raise ValueError(f"need at least one particle, got {n}")
    kind = distribution.get("kind")
    rng = np.random.Generator(np.random.Philox(key=seed))
    if kind == "uniform":
        a, b = distribution["a"], distribution["b"]
        xs = a + (b - a) * rng.random(n)
    elif kind == "gaussian":
        xs = _truncated_normal(rng.random(n), distribution["mu"], distribution["sigma"],
                               distribution["lo"], distribution["hi"])
    elif kind == "two_bump":
        picks = rng.random(n)
        us = rng.random(n)
        lo, hi = distribution["lo"], distribution["hi"]
        first = _truncated_normal(us, distribution["mu1"], distribution["sigma1"], lo, hi)
        second = _truncated_normal(us, distribution["mu2"], distribution["sigma2"], lo, hi)
        xs = np.where(picks < 0.5, first, second)
    else:
        raise ValueError(f"unsupported distribution {kind!r}")
    return ParticleEnsemble(np.sort(xs), time=0.0)


def _truncated_normal(u: np.ndarray, mu: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    """Inverse-CDF sampling of a normal truncated to [lo, hi]."""
    c_lo = ndtr((lo - mu) / sigma)
    c_hi = ndtr((hi - mu) / sigma)
    return mu + sigma * ndtri(c_lo + u * (c_hi - c_lo))


def _support_of(distribution: dict) -> tuple[float, float]:
    if distribution["kind"] == "uniform":
        return distribution["a"], distribution["b"]
    return distribution["lo"], distribution["hi"]


def density_of(distribution: dict, grid: SpaceGrid) -> DensityGrid:
    """Project the named distribution to cell averages (pdf at centers, renormalized)."""
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
    return normalized_density(grid, pdf)


def _truncated_pdf(x: np.ndarray, mu: float, sigma: float, lo: float, hi: float) -> np.ndarray:
    z = (x - mu) / sigma
    norm = ndtr((hi - mu) / sigma) - ndtr((lo - mu) / sigma)
    pdf = np.exp(-0.5 * z * z) / (sigma * np.sqrt(2.0 * np.pi) * norm)
    return np.where((x >= lo) & (x <= hi), pdf, 0.0)


# ---------------------------------------------------------------------------
# model construction and CSV emission


def build_model(cfg: ExperimentConfig) -> ModelSpec:
    """The configured interaction model; raises ``ValueError`` when its kernels fail the construction checks."""
    alpha = _build_alpha(cfg.alpha_kind, cfg.alpha_params)
    if cfg.model_kind == "consensus":
        return consensus_model(alpha)
    if cfg.model_kind == "bounded_confidence":
        return bounded_confidence_model(cfg.model_params["radius"], alpha)
    return polynomial_model(
        np.asarray(cfg.model_params["drift_coeffs"], dtype=float),
        np.asarray(cfg.model_params["cost_coeffs"], dtype=float),
        alpha,
    )


def _build_alpha(kind: str, params: dict):
    if kind == "constant":
        v = params["value"]
        return lambda t: v
    a, b = params["intercept"], params["slope"]
    return lambda t: a + b * t


def build_grid(cfg: ExperimentConfig) -> SpaceGrid:
    if cfg.grid_bounds is not None:
        return SpaceGrid(cfg.grid_bounds[0], cfg.grid_bounds[1], cfg.grid_cells)
    lo, hi = _support_of(cfg.initial)
    return grid_for_support(lo, hi, cfg.grid_cells)


def _fmt(v) -> str:
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
            fh.write(",".join(_fmt(v) for v in row) + "\n")
    return path


def write_grid_path_csv(path: Path, header: list[str], values: DensityTrajectory | ValueGrid) -> Path:
    """Rows (t, x, value), one per time and cell center, of a density path or a value grid."""
    centers = values.grid.centers()
    rows = (
        (t, centers[k], values.data[step, k])
        for step, t in enumerate(values.times)
        for k in range(values.grid.cells)
    )
    return write_csv(path, header, rows)


def write_controls_csv(path: Path, controls: ControlProfile) -> Path:
    rows = [
        (controls.time_grid[step], i, controls.values[i, step])
        for step in range(controls.n_steps)
        for i in range(controls.values.shape[0])
    ]
    return write_csv(path, ["t", "i", "u"], rows)


def write_adjoints_csv(path: Path, adjoints: AdjointField) -> Path:
    n = adjoints.values.shape[0]
    rows = [
        (adjoints.time_grid[step], i, j, adjoints.values[i, j, step])
        for step in range(adjoints.time_grid.size)
        for i in range(n)
        for j in range(n)
    ]
    return write_csv(path, ["t", "i", "j", "phi"], rows)


# ---------------------------------------------------------------------------
# experiment drivers


def run_experiment(cfg: ExperimentConfig, out_dir: Path | str | None = None, jobs: int = 1) -> RunResult:
    """Execute the configured experiment, writing CSV artifacts plus a manifest.

    Solver failures (divergence, CFL violation, non-convergence) produce exit
    code 3 with the failing stage named; validation failures found while
    running (``ConfigError``, e.g. a nonpositive control weight, or a model
    whose kernels fail the construction checks) produce exit code 2. Both are
    reported, not raised, and every exit writes the manifest.
    """
    start = time.monotonic()
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
        artifacts, message = driver(cfg, model, out, jobs)
        code = EXIT_OK
    except ConfigError as exc:
        artifacts, message = [], f"validation failed: {exc}"
        code = EXIT_CONFIG
    except (DivergenceError, CFLError, NumericalError) as exc:
        artifacts, message = [], f"stage {cfg.experiment!r} failed: {exc}"
        code = EXIT_SOLVER
    manifest = {
        "config": cfg.echo(),
        "version": _version,
        "wall_clock_seconds": time.monotonic() - start,
        "exit_code": code,
        "message": message,
        "sweep_initialization": "zero controls",
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    artifacts.append(manifest_path)
    return RunResult(code, artifacts, message)


def _spot_check_kernels(cfg: ExperimentConfig, model: ModelSpec) -> None:
    """Sample the drift kernel on the experiment domain: bounded and nonnegative."""
    lo, hi = _support_of(cfg.initial)
    pts = np.linspace(lo, hi, 17)
    vals = np.asarray(model.drift_kernel(
        np.broadcast_to(pts[:, None], (17, 17)), np.broadcast_to(pts[None, :], (17, 17))
    ), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ConfigError(["drift kernel produced non-finite values on the experiment domain"])
    if np.min(vals) < 0:
        raise ConfigError([f"drift kernel is negative on the experiment domain (min {np.min(vals):.3e})"])


def _run_particle_vs_kinetic(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int):
    grid = build_grid(cfg)
    m0 = density_of(cfg.initial, grid)
    dt_kin = cfl_time_step(model, m0, cfg.horizon)
    kinetic_final = solve_kinetic(model, m0, cfg.horizon, dt_kin).final

    cells = [(n, cfg.seed + k) for n in cfg.n_particles_list for k in range(cfg.n_seeds)]

    def run_cell(cell):
        n, cell_seed = cell
        start = sample_initial(cell_seed, n, cfg.initial)
        trajectory, _ = integrate_brs(model, start, cfg.horizon, cfg.dt, scheme="taylor")
        dist = w1(empirical(trajectory.ensemble(len(trajectory) - 1)), kinetic_final)
        return n, cell_seed, dist

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_cell, cells))
    else:
        results = [run_cell(cell) for cell in cells]
    results.sort(key=lambda r: (r[0], r[1]))

    artifacts = [write_csv(out / "cells.csv", ["n", "seed", "w1"], results)]
    summary = []
    for n in cfg.n_particles_list:
        vals = [r[2] for r in results if r[0] == n]
        summary.append((n, float(np.mean(vals))))
    artifacts.append(write_csv(out / "summary.csv", ["n", "w1_mean"], summary))
    return artifacts, f"{len(cells)} cells against the kinetic solution (dt_kinetic={dt_kin:.6g})"


def _run_mpc_vs_brs(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int):
    start = sample_initial(cfg.seed, cfg.n_particles, cfg.initial)
    rows = []
    for dt in cfg.dt_list:
        exact, _ = mpc_step_exact(model, start, 0.0, dt)
        taylor, _ = mpc_step_taylor(model, start, 0.0, dt)
        myopic = brs_control(model, start, 0.0)
        rows.append((
            dt,
            float(np.max(np.abs(exact - taylor))),
            float(np.max(np.abs(taylor - myopic))),
        ))
    artifacts = [write_csv(out / "gaps.csv", ["dt", "gap_exact_taylor", "gap_taylor_brs"], rows)]
    return artifacts, f"{len(rows)} step sizes compared"


def _picard_params(cfg: ExperimentConfig) -> PicardParams:
    return PicardParams(
        max_iterations=cfg.solver_max_iterations or 200,
        tolerance=cfg.solver_tolerance,
        damping=cfg.solver_damping,
    )


def _run_mfg_vs_brs(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int):
    m0 = density_of(cfg.initial, build_grid(cfg))
    result = mfg_fixed_point(model, m0, cfg.horizon, cfg.dt, _picard_params(cfg))
    if not result.converged:
        raise NumericalError(
            f"coupled fixed point did not converge (residual {result.residual:.3e} "
            f"after {result.iterations} iterations)"
        )
    kin = solve_kinetic(model, m0, cfg.horizon, cfg.dt)
    dist = w1(result.densities.final, kin.final)
    cost_game = total_running_cost(model, result.densities, feedback_controls_from_value(model, result.value))
    cost_myopic = total_running_cost(model, kin, feedback_controls_best_reply(model, kin))
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
    return artifacts, f"fixed point in {result.iterations} iterations, W1(final) = {dist:.3e}"


def _run_prop2_gap(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int):
    m0 = density_of(cfg.initial, build_grid(cfg))
    params = _picard_params(cfg)
    rows = [(dt, proposition2_gap(model, m0, dt, params)) for dt in cfg.dt_list]
    artifacts = [write_csv(out / "gaps.csv", ["dt", "gap"], rows)]
    return artifacts, f"{len(rows)} window sizes"


def _run_nash_vs_brs(cfg: ExperimentConfig, model: ModelSpec, out: Path, jobs: int):
    start = sample_initial(cfg.seed, cfg.n_particles, cfg.initial)
    params = SweepParams(
        max_iterations=cfg.solver_max_iterations or 500,
        tolerance=cfg.solver_tolerance,
        relaxation=cfg.solver_damping,
    )
    result = nash_sweep(model, start, cfg.horizon, cfg.dt, params)
    if not result.converged:
        raise NumericalError(
            f"sweep did not converge (residual {result.residual:.3e} "
            f"after {result.iterations} iterations)"
        )
    _, brs_profile = integrate_brs(model, start, cfg.horizon, cfg.dt, scheme="taylor")
    u_game = result.controls.values[:, 0]
    u_myopic = brs_profile.values[:, 0]
    v_game, v_myopic = value(model, start, result.controls), value(model, start, brs_profile)
    rows = list(zip(range(cfg.n_particles), u_game, u_myopic, np.abs(u_game - u_myopic), v_game, v_myopic))
    artifacts = [
        write_csv(out / "particles.csv",
                  ["i", "u_nash", "u_brs", "abs_gap", "v_nash", "v_brs"], rows),
        write_controls_csv(out / "controls.csv", result.controls),
        write_adjoints_csv(out / "adjoints.csv", result.adjoints),
        write_csv(out / "summary.csv", ["metric", "value"], [
            ("max_abs_gap", max(r[3] for r in rows)),
            ("residual", result.residual),
            ("iterations", result.iterations),
            ("converged", result.converged),
        ]),
    ]
    return artifacts, f"sweep converged in {result.iterations} iterations"


# ---------------------------------------------------------------------------
# command line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mfglab", description="Deterministic experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run one experiment from a JSON config")
    run_parser.add_argument("config", type=Path, help="path to the JSON configuration")
    run_parser.add_argument("--out", type=Path, default=None, help="output directory")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--jobs", type=int, default=1, help="parallel experiment cells")
    args = parser.parse_args(argv)

    try:
        text = args.config.read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}")
        return EXIT_CONFIG
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for problem in exc.errors:
            print(f"config error: {problem}")
        return EXIT_CONFIG
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    result = run_experiment(cfg, out_dir=args.out, jobs=max(1, args.jobs))
    print(result.message)
    for path in result.artifacts:
        print(f"wrote {path}")
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
