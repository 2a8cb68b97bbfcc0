"""Benchmark workloads: generated configs, pinned reference values and the correctness gate.

A workload is a function of (name, seed, size) that returns an mfglab JSON
config; the program under test sees only that config. ``check`` inspects the
artifacts of one run and returns the problems it found, an empty list for a
correct run.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("particles", "game_system", "nash")
DEFAULT_SEED = 0

DEFAULT_TOLERANCE = 1e-8  # the harness default for both fixed-point solvers
# Pinned fixed-point outputs may move by this many solver tolerances. A fixed
# point stopped at residual <= tol with contraction q lies within
# tol * q / (1 - q) of its limit, so two correct solvers that stop on either
# side may differ by about 2 tol / (1 - q); 100 tol covers q up to 0.98.
FIXED_POINT_TOLERANCES = 100
# particle_vs_kinetic has no iterative solver: explicit Euler steps and a
# finite-volume march. Reordered sums change its output only by round-off.
ROUND_OFF_RTOL = 1e-9
MASS_TOL = 1e-12

_BUMP = {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74}
_TWO_BUMP = {"kind": "two_bump", "mu1": 0.35, "sigma1": 0.06, "mu2": 0.65, "sigma2": 0.06,
             "lo": 0.15, "hi": 0.85}
_ALPHA = {"kind": "constant", "value": 1.0}

# Sizes per workload; "tiny" exists for the smoke test and has no pinned values.
_SIZES = {
    "particles": {
        "full": {"n_particles_list": [32, 1024], "n_seeds": 2, "horizon": 0.25, "cells": 256},
        "tiny": {"n_particles_list": [16, 256], "n_seeds": 2, "horizon": 0.05, "cells": 32},
    },
    "game_system": {
        "full": {"cells": 64, "dt": 1 / 160, "horizon": 0.5},
        "tiny": {"cells": 16, "dt": 1 / 40, "horizon": 0.1},
    },
    "nash": {
        "full": {"n_particles": 8, "dt": 0.02, "horizon": 0.5},
        "tiny": {"n_particles": 3, "dt": 0.05, "horizon": 0.1},
    },
}

# summary.csv values of the full-size workloads at DEFAULT_SEED, measured at
# the commit that introduced the benchmark. game_system does not depend on the
# seed, so its values hold for every seed.
PINNED = {
    "particles": {"32": 0.01783631957794888, "1024": 0.0025633463634296958},
    "game_system": {"w1_final": 0.042637995752979746, "cost_game": 0.0115768994897428,
                    "cost_best_reply": 0.012596278784387474},
    "nash": {"max_abs_gap": 0.19375072149288802},
}


def config(name: str, seed: int, size: str = "full") -> dict:
    """The JSON config of one workload run; ``seed`` is written into it."""
    s = _SIZES[name][size]
    if name == "particles":
        return {
            "experiment": "particle_vs_kinetic",
            "model": {"kind": "consensus", "alpha": _ALPHA},
            "horizon": s["horizon"],
            "dt": 1 / 200,
            "n_particles_list": s["n_particles_list"],
            "n_seeds": s["n_seeds"],
            "seed": seed,
            "grid": {"cells": s["cells"]},
            "initial": _BUMP,
        }
    if name == "game_system":
        # the initial density is a deterministic projection: the seed is
        # recorded in the config but reaches no input of this experiment
        return {
            "experiment": "mfg_vs_brs",
            "model": {"kind": "bounded_confidence", "radius": 0.15, "alpha": _ALPHA},
            "horizon": s["horizon"],
            "dt": s["dt"],
            "seed": seed,
            "grid": {"cells": s["cells"]},
            "initial": _TWO_BUMP,
        }
    if name == "nash":
        return {
            "experiment": "nash_vs_brs",
            "model": {"kind": "bounded_confidence", "radius": 0.5, "alpha": _ALPHA},
            "horizon": s["horizon"],
            "dt": s["dt"],
            "n_particles": s["n_particles"],
            "seed": seed,
            # Narrower than the inner edge 0.475 of the smoothing band, so no
            # pair starts in the band. On uniform(0, 1) the sweep count ranged
            # from 23 to 56 over 63 seeds, and run_s with it. The tolerance
            # puts the count for 57 of 60 seeds on the same integer.
            "initial": {"kind": "uniform", "a": 0.0, "b": 0.45},
            "solver": {"tolerance": 1.5e-8},
        }
    raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")


def check(name: str, cfg: dict, out_dir: Path, exit_code: int, size: str = "full") -> list[str]:
    """Problems found in the artifacts of one run; empty when the run is correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    out_dir = Path(out_dir)
    try:
        summary = _read_summary(out_dir / "summary.csv")
        if name == "particles":
            problems = _check_particles(cfg, out_dir, summary)
        elif name == "game_system":
            problems = _check_fixed_point(cfg, summary) + _check_game_system(cfg, out_dir)
        else:
            problems = _check_fixed_point(cfg, summary) + _check_nash(cfg, out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    if size == "full" and (name == "game_system" or cfg["seed"] == DEFAULT_SEED):
        problems += _check_pinned(name, cfg, summary)
    return problems


def _read_summary(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {key: float(value) for key, value in rows[1:]}


def _check_particles(cfg: dict, out_dir: Path, summary: dict[str, float]) -> list[str]:
    problems = []
    sizes = cfg["n_particles_list"]
    if sorted(summary) != sorted(str(n) for n in sizes):
        return [f"summary.csv rows {sorted(summary)} do not match N = {sizes}"]
    means = [summary[str(n)] for n in sizes]
    if not all(math.isfinite(m) and m > 0 for m in means):
        problems.append(f"W1 means {means} are not finite and positive")
    if not all(a > b for a, b in zip(means, means[1:])):
        problems.append(f"W1 means {means} do not decrease with N = {sizes}")
    with open(out_dir / "cells.csv", newline="") as fh:
        cells = sum(1 for _ in fh) - 1
    if cells != len(sizes) * cfg["n_seeds"]:
        problems.append(f"cells.csv has {cells} rows, expected {len(sizes) * cfg['n_seeds']}")
    return problems


def _tolerance(cfg: dict) -> float:
    return cfg.get("solver", {}).get("tolerance", DEFAULT_TOLERANCE)


def _check_fixed_point(cfg: dict, summary: dict[str, float]) -> list[str]:
    problems = []
    if summary["converged"] != 1:
        problems.append(f"converged = {summary['converged']:g}, expected 1")
    if not summary["residual"] <= _tolerance(cfg):
        problems.append(f"residual {summary['residual']:.3e} > tolerance {_tolerance(cfg):g}")
    return problems


def _check_game_system(cfg: dict, out_dir: Path) -> list[str]:
    problems = []
    n_times = round(cfg["horizon"] / cfg["dt"]) + 1
    cells = cfg["grid"]["cells"]
    for file in ("density_mfg.csv", "density_brs.csv"):
        data = np.loadtxt(out_dir / file, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (n_times * cells, 3):
            problems.append(f"{file} has shape {data.shape}, expected ({n_times * cells}, 3)")
            continue
        centers = data[:cells, 1]
        dx = (centers[-1] - centers[0]) / (cells - 1)
        m = data[:, 2].reshape(n_times, cells)
        defect = float(np.max(np.abs(np.sum(m, axis=1) * dx - 1.0)))
        if not defect <= MASS_TOL:
            problems.append(f"{file}: a density row misses mass 1 by {defect:.3e} > {MASS_TOL:g}")
        if np.min(m) < 0.0:
            problems.append(f"{file}: negative density {np.min(m):.3e}")
    return problems


def _check_nash(cfg: dict, out_dir: Path) -> list[str]:
    with open(out_dir / "particles.csv", newline="") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != cfg["n_particles"]:
        return [f"particles.csv has {rows} rows, expected {cfg['n_particles']}"]
    return []


def _check_pinned(name: str, cfg: dict, summary: dict[str, float]) -> list[str]:
    problems = []
    for key, want in PINNED[name].items():
        got = summary.get(key)
        if name == "particles":
            tol = ROUND_OFF_RTOL * abs(want)
        else:
            tol = FIXED_POINT_TOLERANCES * _tolerance(cfg)
        if got is None or not abs(got - want) <= tol:
            problems.append(f"summary {key} = {got!r} differs from pinned {want!r} by more than {tol:.1e}")
    return problems
