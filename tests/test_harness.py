import concurrent.futures
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfglab import ConfigError, DivergenceError, parse_config, run_experiment, sample_initial
from mfglab import cfl_time_step, integrate_brs, solve_kinetic, w1
from mfglab import harness
from mfglab.grids import SpaceGrid
from mfglab.harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    _ndtr,
    _ndtri,
    _truncated_normal,
    density_of,
    main,
)
from mfglab.mfg import PICARD
from mfglab.model import _BATCH_ENTRIES
from mfglab.nash import SWEEP

# config files that are not JSON text, each with a word its error names: bytes that are not UTF-8,
# nesting deeper than the recursion limit and an integer literal longer than the digit limit
NOT_JSON = {
    "not-utf8": (b'{"experiment": "caf\xe9"}', "utf-8"),
    "deep-nesting": (b"[" * 200000, "recursion"),
    "long-integer": (b'{"seed": ' + b"1" * 5000 + b"}", "digits"),
}

MINIMAL_NASH = {
    "experiment": "nash_vs_brs",
    "model": {"kind": "consensus"},
    "horizon": 0.5,
    "dt": 0.0125,
    "n_particles": 3,
    "initial": {"kind": "uniform", "a": -1.0, "b": 1.0},
}


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL_NASH))
        assert cfg.seed == 0
        assert cfg.solver_damping is None  # each solver keeps its own default
        assert cfg.solver_tolerance is None and cfg.solver_max_iterations is None
        assert cfg.alpha_kind == "constant" and cfg.alpha_params["value"] == 1.0

    def test_zero_dt_names_the_field(self):
        bad = dict(MINIMAL_NASH, dt=0)
        with pytest.raises(ConfigError, match="dt"):
            parse_config(json.dumps(bad))

    def test_unknown_key_rejected_with_name(self):
        bad = dict(MINIMAL_NASH, diffusion=0.1)
        with pytest.raises(ConfigError, match="diffusion"):
            parse_config(json.dumps(bad))

    def test_all_errors_reported_at_once(self):
        bad = dict(MINIMAL_NASH, dt=-1, horizon=0, typo=1)
        bad["model"] = {"kind": "warp"}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        text = "\n".join(err.value.errors)
        assert len(err.value.errors) >= 4
        for needle in ("dt", "horizon", "typo", "model.kind"):
            assert needle in text

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_config("{not json")

    @pytest.mark.parametrize("name", sorted(NOT_JSON))
    def test_text_that_is_not_json_is_malformed(self, name):
        data, needle = NOT_JSON[name]
        with pytest.raises(ConfigError, match=f"^malformed JSON: .*{needle}"):
            parse_config(data)

    def test_experiment_specific_requirements(self):
        cfg = {
            "experiment": "prop2_gap",
            "model": {"kind": "consensus"},
            "horizon": 0.5,
            "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
        }
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(cfg))
        text = "\n".join(err.value.errors)
        assert "dt_list" in text and "grid.cells" in text

    @pytest.mark.parametrize("experiment, field, given, message", [
        ("mpc_vs_brs", "dt_list", [0.05, 0.05],
         "dt_list must be a nonempty list of distinct positive finite numbers, got [0.05, 0.05]"),
        ("nash_vs_brs", "dt", 0, "dt must be a positive finite number, got 0"),
    ])
    def test_invalid_required_field_is_reported_once(self, experiment, field, given, message):
        # a field given but invalid is not also missing; an absent one is
        raw = {"experiment": experiment, "model": {"kind": "consensus"}, "horizon": 0.5, "n_particles": 3,
               "initial": {"kind": "uniform", "a": 0.0, "b": 1.0}, field: given}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(raw))
        assert err.value.errors == [message]
        missing = {key: value for key, value in raw.items() if key != field}
        for config in (missing, dict(raw, **{field: None})):  # a JSON null counts as absent
            with pytest.raises(ConfigError) as err:
                parse_config(json.dumps(config))
            assert err.value.errors == [f"experiment {experiment!r} requires {field}"]

    def test_grid_bounds_must_cover_initial_support(self):
        bad = dict(MINIMAL_NASH)
        bad["experiment"] = "prop2_gap"
        bad.pop("dt")
        bad.pop("n_particles")
        bad["dt_list"] = [0.1]
        bad["grid"] = {"cells": 64, "x_min": 2.0, "x_max": 3.0}
        with pytest.raises(ConfigError, match="cover the initial support"):
            parse_config(json.dumps(bad))

    def test_nested_unknown_keys(self):
        bad = dict(MINIMAL_NASH)
        bad["model"] = {"kind": "consensus", "viscosity": 1.0}
        bad["initial"] = {"kind": "uniform", "a": 0.0, "b": 1.0, "skew": 2}
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(bad))
        text = "\n".join(err.value.errors)
        assert "viscosity" in text and "skew" in text

    def test_affine_alpha_must_stay_positive_on_horizon(self):
        falling = {"kind": "affine", "intercept": 1.0, "slope": -2.0}  # alpha(0.5) = 0
        for raw in (ALPHA_MPC, ALPHA_PARTICLES):
            bad = dict(raw, model=dict(raw["model"], alpha=falling))
            with pytest.raises(ConfigError, match="model.alpha affine must stay positive"):
                parse_config(json.dumps(bad))
        ok = dict(ALPHA_MPC, model={"kind": "consensus", "alpha": falling}, horizon=0.25, dt_list=[0.25])
        assert parse_config(json.dumps(ok)).alpha_kind == "affine"


INF, NAN = float("inf"), float("nan")
# every numeric field present; each is checked for finiteness and bools
ALL_NUMBERS = dict(
    MINIMAL_NASH,
    dt_list=[0.1, 0.05],
    grid={"cells": 16, "x_min": -2.0, "x_max": 2.0},
    solver={"tolerance": 1e-8, "damping": 0.5, "max_iterations": 10},
    model={"kind": "consensus", "alpha": {"kind": "constant", "value": 1.0}},
)
NUMERIC_FIELDS = [
    (ALL_NUMBERS, ("horizon",), "horizon"),
    (ALL_NUMBERS, ("dt",), "dt"),
    (ALL_NUMBERS, ("dt_list", 1), "dt_list"),
    (ALL_NUMBERS, ("grid", "x_min"), "grid.x_min"),
    (ALL_NUMBERS, ("grid", "x_max"), "grid.x_max"),
    (ALL_NUMBERS, ("initial", "a"), "initial.a"),
    (ALL_NUMBERS, ("initial", "b"), "initial.b"),
    (ALL_NUMBERS, ("model", "alpha", "value"), "model.alpha.value"),
    (ALL_NUMBERS, ("solver", "tolerance"), "solver.tolerance"),
    (ALL_NUMBERS, ("solver", "damping"), "solver.damping"),
    (ALL_NUMBERS, ("solver", "max_iterations"), "solver.max_iterations"),
    (dict(ALL_NUMBERS, model={"kind": "bounded_confidence", "radius": 0.5}), ("model", "radius"), "model.radius"),
    (dict(ALL_NUMBERS, model={"kind": "consensus", "alpha": {"kind": "affine", "intercept": 1.0, "slope": 0.5}}),
     ("model", "alpha", "intercept"), "model.alpha.intercept"),
    (dict(ALL_NUMBERS, model={"kind": "consensus", "alpha": {"kind": "affine", "intercept": 1.0, "slope": 0.5}}),
     ("model", "alpha", "slope"), "model.alpha.slope"),
    (dict(ALL_NUMBERS, model={"kind": "polynomial", "drift_coeffs": [[1.0, 0.2]], "cost_coeffs": [[0.0]]}),
     ("model", "drift_coeffs", 0, 1), "model.drift_coeffs"),
    (dict(ALL_NUMBERS, model={"kind": "polynomial", "drift_coeffs": [[1.0]], "cost_coeffs": [0.0, 0.5]}),
     ("model", "cost_coeffs", 1), "model.cost_coeffs"),
    (dict(ALL_NUMBERS, model={"kind": "polynomial", "drift_coeffs": 1.0, "cost_coeffs": [[0.0]]}),
     ("model", "drift_coeffs"), "model.drift_coeffs"),
]


def _mutated(raw, path, value):
    """A deep copy of ``raw`` with the entry at ``path`` replaced by ``value``."""
    out = json.loads(json.dumps(raw))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestNumericFields:
    @pytest.mark.parametrize("base, path, needle", NUMERIC_FIELDS, ids=[n for _, _, n in NUMERIC_FIELDS])
    def test_bools_and_non_finite_numbers_rejected(self, base, path, needle):
        parse_config(json.dumps(base))
        for value in (INF, -INF, NAN, True, False, 10**400):
            with pytest.raises(ConfigError, match=needle):
                parse_config(json.dumps(_mutated(base, path, value)))

    def test_coefficient_tables_parse_to_float_rows(self):
        for table, want in (([[1, 0.2]], [[1.0, 0.2]]), ([1, 2], [[1.0, 2.0]]), (3, [[3.0]]),
                            ([[1], [2]], [[1.0], [2.0]])):
            raw = dict(ALL_NUMBERS, model={"kind": "polynomial", "drift_coeffs": table, "cost_coeffs": [[0.0]]})
            assert parse_config(json.dumps(raw)).model_params["drift_coeffs"] == want
        for table in ([], [[]], [[1.0], [1.0, 2.0]], [[[1.0]]], [[1.0], 2.0], ["1.0"], None):
            raw = dict(ALL_NUMBERS, model={"kind": "polynomial", "drift_coeffs": table, "cost_coeffs": [[0.0]]})
            with pytest.raises(ConfigError, match="model.drift_coeffs must be a nonempty table of finite numbers"):
                parse_config(json.dumps(raw))


# horizon 1 with alpha falling from 1 to -1 on it; used unvalidated in the run tests
ALPHA_MPC = {
    "experiment": "mpc_vs_brs",
    "model": {"kind": "consensus"},
    "horizon": 1.0,
    "dt_list": [0.1, 0.5, 0.75],
    "n_particles": 4,
    "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
}
ALPHA_PARTICLES = {
    "experiment": "particle_vs_kinetic",
    # a flat cost keeps the velocity bounded as alpha falls, so the march reaches alpha <= 0
    "model": {"kind": "polynomial", "drift_coeffs": [[1.0]], "cost_coeffs": [[0.0]]},
    "horizon": 1.0,
    "dt": 0.01,
    "n_particles_list": [8],
    "grid": {"cells": 32},
    "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
}


TWO_BUMP = {"kind": "two_bump", "mu1": 0.25, "sigma1": 0.1, "mu2": 0.75, "sigma2": 0.1, "lo": 0.0, "hi": 1.0}


class TestSampleInitial:
    @pytest.mark.parametrize("distribution", [
        {"kind": "uniform", "a": -1.0, "b": 2.0},
        {"kind": "gaussian", "mu": 0.5, "sigma": 0.2, "lo": 0.0, "hi": 1.0},
        TWO_BUMP,
    ], ids=lambda d: d["kind"])
    def test_positions_come_from_the_numpy_philox_stream(self, distribution):
        # the uniforms of Generator(Philox(key=seed)).random; a two-bump sample draws its picks, then its positions
        seed, n, d = 2**70 + 3, 257, distribution
        rng = np.random.Generator(np.random.Philox(key=seed))
        if d["kind"] == "uniform":
            want = d["a"] + (d["b"] - d["a"]) * rng.random(n)
        elif d["kind"] == "gaussian":
            want = _truncated_normal(rng.random(n), d["mu"], d["sigma"], d["lo"], d["hi"])
        else:
            picks, us = rng.random(n), rng.random(n)
            want = np.where(picks < 0.5, _truncated_normal(us, d["mu1"], d["sigma1"], d["lo"], d["hi"]),
                            _truncated_normal(us, d["mu2"], d["sigma2"], d["lo"], d["hi"]))
        assert sample_initial(seed, n, d).positions.tobytes() == np.sort(want).tobytes()

    def test_deterministic_for_fixed_seed(self):
        d = {"kind": "uniform", "a": 0.0, "b": 1.0}
        a = sample_initial(42, 100, d)
        b = sample_initial(42, 100, d)
        assert np.array_equal(a.positions, b.positions)
        c = sample_initial(43, 100, d)
        assert not np.array_equal(a.positions, c.positions)

    def test_sorted_output(self):
        d = {"kind": "gaussian", "mu": 0.0, "sigma": 1.0, "lo": -3.0, "hi": 3.0}
        xs = sample_initial(7, 50, d).positions
        assert np.all(np.diff(xs) >= 0)

    def test_uniform_mean_within_clt_bound(self):
        d = {"kind": "uniform", "a": 0.0, "b": 1.0}
        xs = sample_initial(5, 10_000, d).positions
        assert abs(xs.mean() - 0.5) <= 0.02

    def test_two_bump_is_bimodal(self):
        d = {"kind": "two_bump", "mu1": -1.0, "sigma1": 0.2, "mu2": 1.0, "sigma2": 0.2,
             "lo": -2.0, "hi": 2.0}
        xs = sample_initial(9, 4000, d).positions
        hist, edges = np.histogram(xs, bins=40, range=(-2.0, 2.0))
        centers = 0.5 * (edges[:-1] + edges[1:])
        left_peak = hist[np.abs(centers + 1.0) < 0.3].max()
        right_peak = hist[np.abs(centers - 1.0) < 0.3].max()
        middle = hist[np.abs(centers) < 0.3].max()
        assert left_peak > 3 * middle and right_peak > 3 * middle

    def test_unsupported_distribution(self):
        with pytest.raises(ValueError, match="unsupported"):
            sample_initial(1, 10, {"kind": "cauchy"})

    def test_truncation_respected(self):
        d = {"kind": "gaussian", "mu": 0.5, "sigma": 5.0, "lo": 0.0, "hi": 1.0}
        xs = sample_initial(3, 500, d).positions
        assert xs.min() >= 0.0 and xs.max() <= 1.0


# the edges of the standard library's rational branches (|p - 0.5| = 0.425), the centre, deep tails, an even grid
# and both decades toward 0 and 1
QUANTILE_GRID = np.unique(np.concatenate([
    [1e-300, 1e-16, 0.075, 0.5, 0.925, 1 - 1e-16],
    np.linspace(0.0, 1.0, 10_001)[1:-1],
    10.0 ** -np.arange(1, 301),
    1.0 - 10.0 ** -np.arange(1, 17),
]))


class TestNormalHelpers:
    """The normal CDF (``math.erfc``) and quantile (``statistics.NormalDist.inv_cdf``) behind truncated-normal
    sampling."""

    def test_quantile_equals_the_standard_library(self):
        ref = np.array([NormalDist().inv_cdf(p) for p in QUANTILE_GRID])
        assert np.array_equal(_ndtri(QUANTILE_GRID), ref)

    def test_quantile_on_random_levels(self):
        p = np.random.Generator(np.random.Philox(key=0)).random(20_000)
        ref = np.array([NormalDist().inv_cdf(v) for v in p])
        assert np.array_equal(_ndtri(p), ref)

    def test_quantile_of_zero_and_one_is_infinite(self):
        assert np.array_equal(_ndtri(np.array([0.0, 1.0])), [-np.inf, np.inf])
        assert np.all(np.isnan(_ndtri(np.array([-0.5, 1.5, np.nan]))))

    def test_cdf_matches_the_standard_library(self):
        for z in np.linspace(-40.0, 40.0, 4001):
            assert abs(_ndtr(float(z)) - NormalDist().cdf(float(z))) <= 2.0**-52

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(mu=st.floats(-1e3, 1e3), sigma=st.floats(1e-6, 1e3), lo=st.floats(-1e3, 1e3), width=st.floats(1e-9, 1e3),
           u=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=8))
    def test_truncated_normal_stays_in_its_support(self, mu, sigma, lo, width, u):
        hi = lo + width
        xs = _truncated_normal(np.array(u), mu, sigma, lo, hi)
        if _ndtr((lo - mu) / sigma) < _ndtr((hi - mu) / sigma):
            assert np.all((lo <= xs) & (xs <= hi))
        else:  # no mass a float resolves: sample_initial reports the NaNs
            assert np.all(np.isnan(xs))


# A fresh interpreter with numpy.random blocked: imports mfglab, runs each config file named on its command line,
# prints the scipy modules loaded.
IMPORT_PROBE = """
import sys
import numpy  # NumPy 1.x imports numpy.random itself; NumPy 2 only on first use
sys.modules["numpy.random"] = None  # any import of numpy.random by mfglab fails loudly
import mfglab
loaded = lambda: sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded() == [], loaded()
cli_only = [m for m in ("concurrent.futures", "argparse") if m in sys.modules]
assert cli_only == [], cli_only
for path in sys.argv[1:]:
    with open(path) as fh:
        result = mfglab.run_experiment(mfglab.parse_config(fh.read()), path + ".out")
    assert result.exit_code == 0, result.message
print(loaded())
"""


class TestImports:
    def test_import_and_runs_load_no_scipy(self, tmp_path):
        # importing mfglab loads neither scipy nor the modules only --jobs and the CLI use, and a run of every
        # initial kind (gaussian particles, two-bump particles, uniform Nash players) works without numpy.random
        configs = {name: HOSTILE_BASES[name] for name in ("particle_vs_kinetic", "mfg_vs_brs", "nash_vs_brs")}
        configs["two_bump"] = dict(HOSTILE_BASES["particle_vs_kinetic"], initial=TWO_BUMP)
        paths = []
        for name, raw in configs.items():
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(raw))
        src = str(Path(harness.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", IMPORT_PROBE, *map(str, paths)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


class TestDensityOf:
    def test_normalized(self):
        grid = SpaceGrid(-2.0, 2.0, 64)
        for dist in (
            {"kind": "uniform", "a": -1.0, "b": 1.0},
            {"kind": "gaussian", "mu": 0.0, "sigma": 0.5, "lo": -2.0, "hi": 2.0},
            {"kind": "two_bump", "mu1": -1.0, "sigma1": 0.2, "mu2": 1.0, "sigma2": 0.2,
             "lo": -2.0, "hi": 2.0},
        ):
            d = density_of(dist, grid)
            assert abs(d.mass - 1.0) <= 1e-12


class TestRunExperiment:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(json.dumps(dict(MINIMAL_NASH, seed=11)))
        r1 = run_experiment(cfg, out_dir=tmp_path / "a")
        r2 = run_experiment(cfg, out_dir=tmp_path / "b")
        assert r1.exit_code == EXIT_OK and r2.exit_code == EXIT_OK
        for name in ("particles.csv", "summary.csv", "controls.csv", "adjoints.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_huge_cost_kernel_gives_a_finite_cost(self, tmp_path):
        # phi(x, y) = 1e308 y: each cell's running cost overflows once summed unweighted, the integral does not
        raw = {"experiment": "mfg_vs_brs", "model": {"kind": "polynomial", "drift_coeffs": [[1.0, 0.1]],
                                                     "cost_coeffs": [[0.0, 1e308]]},
               "horizon": 0.5, "dt": 0.05, "grid": {"cells": 16}, "initial": {"kind": "uniform", "a": 0.0, "b": 1.0}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
        summary = dict(line.split(",") for line in (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:])
        value = np.loadtxt(tmp_path / "out" / "value.csv", delimiter=",", skiprows=1)[:, 2].reshape(11, 16)
        assert np.all(value == value[:, :1])  # H(x, m) = 1e308 * mean(m) does not depend on x: both controls vanish
        for name, file in (("cost_game", "density_mfg.csv"), ("cost_best_reply", "density_brs.csv")):
            t, x, m = np.loadtxt(tmp_path / "out" / file, delimiter=",", skiprows=1).T
            dx = x[1] - x[0]
            # sum over steps l < L of dt * H_l * mass_l, in units of 1e308 and without rounding in the sums
            slices = [(m[k:k + 16], x[k:k + 16]) for k in range(0, 10 * 16, 16)]
            want = 1e308 * math.fsum(0.05 * math.fsum(ml * xl * dx) * math.fsum(ml * dx) for ml, xl in slices)
            got = float(summary[name])
            assert math.isfinite(got) and abs(got - want) <= 1e-12 * want

    def test_manifest_written(self, tmp_path):
        cfg = parse_config(json.dumps(MINIMAL_NASH))
        run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "nash_vs_brs"
        assert "version" in manifest and "wall_clock_seconds" in manifest
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["cpu_count"] == harness._usable_cpus() >= 1
        if Path("/proc/self/status").exists():
            assert 1.0 < manifest["peak_rss_mb"] < 1e6
        else:
            assert manifest["peak_rss_mb"] is None

    def test_manifest_stage_seconds(self, tmp_path):
        # every driver books its model, solve and write stages; mfg_vs_brs books its solve as three
        for name, raw in HOSTILE_BASES.items():
            out = tmp_path / name.replace("/", "_")
            assert run_experiment(parse_config(json.dumps(raw)), out_dir=out).exit_code == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            stages = manifest["stage_seconds"]
            solve = {"fixed_point", "best_reply", "costs"} if raw["experiment"] == "mfg_vs_brs" else {"solve"}
            assert set(stages) == {"model", "write"} | solve
            assert all(seconds >= 0.0 for seconds in stages.values())
            assert sum(stages.values()) <= manifest["wall_clock_seconds"]

    def test_manifest_fixed_point_counts(self, tmp_path):
        # the two fixed-point experiments record iterations, Anderson steps and restarts, the others none
        names = ("iterations", "accelerated_steps", "rejected_steps", "restarts")
        for name, raw in HOSTILE_BASES.items():
            out = tmp_path / name.replace("/", "_")
            assert run_experiment(parse_config(json.dumps(raw)), out_dir=out).exit_code == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            if raw["experiment"] not in ("mfg_vs_brs", "nash_vs_brs"):
                assert not set(names) & set(manifest), name
                continue
            summary = dict(line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:])
            iterations, accepted, rejected, restarts = (manifest[key] for key in names)
            assert iterations == int(summary["iterations"]) >= 1
            assert accepted >= 0 and rejected >= 0 and accepted + rejected < iterations
            assert restarts == 0 and "restart" not in manifest["message"]
        # a run that stops at its budget records the counts with exit 3
        raw = dict(HOSTILE_BASES["mfg_vs_brs"], solver={"max_iterations": 1})
        assert run_experiment(parse_config(json.dumps(raw)), out_dir=tmp_path / "budget").exit_code == EXIT_SOLVER
        manifest = json.loads((tmp_path / "budget" / "manifest.json").read_text())
        assert [manifest[key] for key in names] == [1, 0, 0, 0]
        # bounded confidence r 0.1 at seed 1 converges after one growth restart, and the message says so
        raw = {"experiment": "nash_vs_brs", "model": {"kind": "bounded_confidence", "radius": 0.1}, "horizon": 1.0,
               "dt": 0.02, "n_particles": 8, "seed": 1, "initial": {"kind": "uniform", "a": 0.0, "b": 1.0}}
        result = run_experiment(parse_config(json.dumps(raw)), out_dir=tmp_path / "restart")
        manifest = json.loads((tmp_path / "restart" / "manifest.json").read_text())
        assert result.exit_code == EXIT_OK and [manifest[key] for key in names] == [48, 32, 0, 1]
        assert result.message == "sweep converged in 48 iterations (32 Anderson steps accepted, 0 rejected, 1 restart)"

    def test_manifest_records_the_sweep_start_for_nash_runs_only(self, tmp_path, capsys):
        # the Nash sweep starts from zero controls, and its manifest says so whether it converges or
        # stops at a budget of one sweep; no other experiment runs a sweep, nor does a refused config
        for name, raw in HOSTILE_BASES.items():
            for budget in (None, 1):
                out = tmp_path / f"{name.replace('/', '_')}-{budget}"
                cfg = parse_config(json.dumps(dict(raw, solver={**raw.get("solver", {}), "max_iterations": budget})))
                code = run_experiment(cfg, out_dir=out).exit_code
                manifest = json.loads((out / "manifest.json").read_text())
                nash = raw["experiment"] == "nash_vs_brs"
                assert manifest.get("sweep_initialization") == ("zero controls" if nash else None), (name, budget)
                assert "sweep_initialization" in manifest or not nash
                if nash:
                    assert code == (EXIT_OK if budget is None else EXIT_SOLVER)
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(dict(HOSTILE_BASES["nash_vs_brs"], dt=0)))
        assert main(["run", str(path), "--out", str(tmp_path / "refused")]) == EXIT_CONFIG
        assert "sweep_initialization" not in json.loads((tmp_path / "refused" / "manifest.json").read_text())

    def test_manifest_peak_memory_null_without_proc_status(self, tmp_path, monkeypatch):
        def no_proc(path, *args, **kwargs):
            raise FileNotFoundError(path)

        monkeypatch.setattr(harness, "open", no_proc, raising=False)
        path = harness._write_manifest(tmp_path, None, EXIT_OK, "", 0.0)
        assert json.loads(path.read_text())["peak_rss_mb"] is None
        assert json.loads(path.read_text())["stage_seconds"] == {}

    def test_particle_cells_parallel_matches_sequential(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)  # a pool on any runner
        raw = {
            "experiment": "particle_vs_kinetic",
            "model": {"kind": "consensus"},
            "horizon": 0.25,
            "dt": 0.005,
            "n_particles_list": [32, 64],
            "n_seeds": 2,
            "grid": {"cells": 64},
            "initial": {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74},
        }
        cfg = parse_config(json.dumps(raw))
        run_experiment(cfg, out_dir=tmp_path / "seq", jobs=1)
        run_experiment(cfg, out_dir=tmp_path / "par", jobs=3)
        for name in ("cells.csv", "summary.csv"):
            assert (tmp_path / "seq" / name).read_bytes() == (tmp_path / "par" / name).read_bytes()
        rows = (tmp_path / "seq" / "summary.csv").read_text().strip().splitlines()
        assert rows[0] == "n,w1_mean" and len(rows) == 3

    def test_unsorted_particle_list_writes_both_files_in_ascending_n(self, tmp_path):
        # cells.csv is sorted by (n, seed), and summary.csv follows it rather than the order of the config
        base = dict(HOSTILE_BASES["particle_vs_kinetic"], n_seeds=2)
        for order in ([8, 4], [4, 8]):
            cfg = parse_config(json.dumps(dict(base, n_particles_list=order)))
            assert run_experiment(cfg, out_dir=tmp_path / str(order[0])).exit_code == EXIT_OK
        cells = (tmp_path / "8" / "cells.csv").read_text().splitlines()
        summary = (tmp_path / "8" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[:2] for row in cells[1:]] == [["4", "0"], ["4", "1"], ["8", "0"], ["8", "1"]]
        assert [row.split(",")[0] for row in summary[1:]] == ["4", "8"]
        for name in ("cells.csv", "summary.csv"):
            assert (tmp_path / "8" / name).read_bytes() == (tmp_path / "4" / name).read_bytes()

    def test_mpc_gaps_file_has_one_gap_column(self, tmp_path):
        # the Taylor step's control is brs_control's bit for bit, so only the exact step leaves a gap
        cfg = parse_config(json.dumps(HOSTILE_BASES["mpc_vs_brs"]))
        assert run_experiment(cfg, out_dir=tmp_path).exit_code == EXIT_OK
        lines = (tmp_path / "gaps.csv").read_text().splitlines()
        assert lines[0] == "dt,gap_exact_taylor"
        assert [len(line.split(",")) for line in lines] == [2, 2, 2]

    def test_solver_failure_exit_code(self, tmp_path):
        raw = {
            "experiment": "mfg_vs_brs",
            "model": {"kind": "consensus"},
            "horizon": 0.25,
            "dt": 0.05,  # violates the CFL bound on this grid
            "grid": {"cells": 128},
            "initial": {"kind": "gaussian", "mu": 0.5, "sigma": 0.12, "lo": 0.26, "hi": 0.74},
        }
        cfg = parse_config(json.dumps(raw))
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.exit_code == EXIT_SOLVER
        assert "failed" in result.message

    @pytest.mark.parametrize("raw", [ALPHA_MPC, ALPHA_PARTICLES], ids=["mpc_vs_brs", "particle_vs_kinetic"])
    def test_nonpositive_alpha_during_run_exit_two_with_manifest(self, tmp_path, raw):
        # bypasses parse_config, as a programmatic caller can
        cfg = dataclasses.replace(parse_config(json.dumps(raw)), alpha_kind="affine",
                                  alpha_params={"intercept": 1.0, "slope": -2.0})
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.exit_code == EXIT_CONFIG
        assert "alpha" in result.message
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG
        assert manifest["config"]["alpha_params"] == {"intercept": 1.0, "slope": -2.0}

    def test_kernel_spot_check_failure_exit_two_with_manifest(self, tmp_path):
        raw = dict(ALPHA_PARTICLES, model={"kind": "polynomial", "drift_coeffs": [[-1.0]], "cost_coeffs": [[0.0]]})
        result = run_experiment(parse_config(json.dumps(raw)), out_dir=tmp_path)
        assert result.exit_code == EXIT_CONFIG
        assert "negative" in result.message
        assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == EXIT_CONFIG


    def test_model_construction_failure_exit_two_with_manifest(self, tmp_path, capsys):
        # the cost table overflows at the sample points, so building the model raises
        huge = [[0.0, 0.0, 1e308], [0.0, -1e308, 0.0], [1e308, 0.0, 0.0]]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(ALPHA_MPC, model={
            "kind": "polynomial", "drift_coeffs": [[1.0]], "cost_coeffs": huge})))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "cost.table" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and "model" in manifest["message"]

    def test_nash_divergence_exit_three_with_manifest(self, tmp_path):
        # undamped sweeps whose residual grows until the budget ends; the sweep reports, the harness fails the stage
        raw = dict(MINIMAL_NASH, model={"kind": "bounded_confidence", "radius": 0.1}, horizon=2.0,
                   dt=0.02, n_particles=8, initial={"kind": "uniform", "a": 0.0, "b": 1.0},
                   solver={"damping": 1.0, "max_iterations": 5})
        result = run_experiment(parse_config(json.dumps(raw)), out_dir=tmp_path)
        assert result.exit_code == EXIT_SOLVER
        assert "did not converge" in result.message
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_SOLVER
        assert list(manifest["stage_seconds"]) == ["model"]  # the stages that finished

    def test_unset_damping_keeps_each_solver_default(self, tmp_path):
        # Picard defaults to theta 1, the Nash sweep to 0.5; a set solver.damping reaches both, and so
        # does a set budget, while an unset one keeps each solver's own
        raw = dict(MINIMAL_NASH, model={"kind": "bounded_confidence", "radius": 0.1}, horizon=1.0,
                   dt=0.02, n_particles=8, initial={"kind": "uniform", "a": 0.0, "b": 1.0})
        unset = parse_config(json.dumps(raw))
        assert harness._solver_params(unset, PICARD) == PICARD
        assert harness._solver_params(unset, SWEEP) == SWEEP
        budget = parse_config(json.dumps(dict(raw, solver={"max_iterations": 7})))
        assert harness._solver_params(budget, PICARD) == dataclasses.replace(PICARD, max_iterations=7)
        assert harness._solver_params(budget, SWEEP) == dataclasses.replace(SWEEP, max_iterations=7)
        assert run_experiment(parse_config(json.dumps(raw)), out_dir=tmp_path / "default").exit_code == EXIT_OK
        for damping in (0.5, 1.0):
            cfg = parse_config(json.dumps(dict(raw, solver={"damping": damping})))
            assert harness._solver_params(cfg, PICARD).theta == damping
            assert run_experiment(cfg, out_dir=tmp_path / str(damping)).exit_code == EXIT_OK
        manifests = [json.loads((tmp_path / name / "manifest.json").read_text()) for name in ("default", "0.5", "1.0")]
        counts = [(manifest["iterations"], manifest["restarts"]) for manifest in manifests]
        assert counts == [(23, 0), (23, 0), (39, 1)]  # undamped, the residual grows and the sweep restarts once
        assert manifests[0]["config"]["solver_damping"] is None


class TestCli:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL_NASH))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "4"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "particles.csv").exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 4

    def test_invalid_config_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # without --out or output the manifest goes to ./results
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_NASH, dt=0)))
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert "dt" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and "dt must be" in manifest["message"]
        assert manifest["config"]["dt"] == 0
        assert manifest["stage_seconds"] == {}

    @pytest.mark.parametrize("name, field, entries, requirement", [
        ("particle_vs_kinetic", "n_particles_list", [8, 4, 8], "distinct integers in [2, 1152921504606846975]"),
        ("mpc_vs_brs", "dt_list", [0.05, 0.05], "distinct positive finite numbers"),
        ("prop2_gap", "dt_list", [0.1, 0.05, 0.1, 0.05], "distinct positive finite numbers"),
    ])
    def test_repeated_list_entry_exit_two_with_manifest(self, tmp_path, capsys, name, field, entries, requirement):
        # a repeated N or dt would be integrated twice and its rows written twice
        raw = dict(HOSTILE_BASES[name], n_seeds=2, output=str(tmp_path / "out"), **{field: entries})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        message = f"{field} must be a nonempty list of {requirement}, got {entries!r}"
        assert message in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and message in manifest["message"]
        assert sorted(path.name for path in (tmp_path / "out").iterdir()) == ["manifest.json"]
        raw[field] = sorted(set(entries))
        assert getattr(parse_config(json.dumps(raw)), field) == tuple(sorted(set(entries)))

    @pytest.mark.parametrize("path, value", [
        (("horizon",), INF), (("horizon",), True), (("initial", "a"), -INF), (("initial", "b"), INF),
        (("solver", "max_iterations"), True), (("dt",), NAN),
    ], ids=["horizon-inf", "horizon-true", "initial-a-inf", "initial-b-inf", "max-iterations-true", "dt-nan"])
    def test_non_finite_or_bool_exit_two_with_manifest(self, tmp_path, capsys, path, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_mutated(dict(ALL_NUMBERS, output=str(tmp_path / "out")), path, value)))
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        field = ".".join(path)
        assert field in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and field in manifest["message"]

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("name", sorted(NOT_JSON))
    def test_config_that_is_not_json_exit_two_with_manifest(self, tmp_path, capsys, name):
        data, needle = NOT_JSON[name]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(data)
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "3"]) == EXIT_CONFIG
        printed = capsys.readouterr().out
        assert printed.startswith("config error: malformed JSON: ") and needle in printed
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and manifest["config"] is None
        assert "malformed JSON" in manifest["message"] and needle in manifest["message"]

    @pytest.mark.parametrize("horizon, dt, needle", [
        (1.0, 0.3, "does not divide the horizon"),
        (1e300, 1e-10, "non-finite number of steps"),
    ], ids=["not-dividing", "step-count-overflows"])
    def test_time_grid_refused_at_parse_exit_two_with_manifest(self, tmp_path, capsys, horizon, dt, needle):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_NASH, horizon=horizon, dt=dt)))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert needle in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and needle in manifest["message"]

    def test_time_grid_too_large_to_allocate_exit_two_with_manifest(self, tmp_path, capsys):
        # dt divides the horizon, but 10^15 + 1 grid times take 7 PiB, more than a
        # process can map, so numpy raises MemoryError before touching memory
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_NASH, horizon=1e6, dt=1e-9)))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "MemoryError" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and "too large" in manifest["message"]


class TestCsvWriters:
    def test_seventeen_digit_floats(self, tmp_path):
        from mfglab.harness import write_csv

        path = write_csv(tmp_path / "x.csv", ["a"], [(1.0 / 3.0,)])
        assert path.read_text().splitlines()[1] == "0.33333333333333331"

    def test_exact_bytes(self, tmp_path):
        # every value type the experiments write, pinned byte for byte
        from mfglab.grids import DensityTrajectory
        from mfglab.harness import write_csv, write_grid_path_csv

        rows = [(True, np.bool_(False), 7, np.int64(-3)), (0.1, np.float64(1e-300), -0.0, np.float64(2.5))]
        path = write_csv(tmp_path / "a.csv", ["a", "b", "c", "d"], rows)
        assert path.read_bytes() == b"a,b,c,d\n1,0,7,-3\n0.10000000000000001,1e-300,-0,2.5\n"
        data = np.array([[0.1, -0.0, 1e-300, 2.0, 1.0 / 3.0, 0.0, 1e20, 5e-324], [0.0] * 8])
        path = write_grid_path_csv(
            tmp_path / "b.csv", ["t", "x", "m"], DensityTrajectory(SpaceGrid(0.0, 1.0, 8), [0.0, 0.1], data)
        )
        assert path.read_bytes() == (
            b"t,x,m\n"
            b"0,0.0625,0.10000000000000001\n"
            b"0,0.1875,-0\n"
            b"0,0.3125,1e-300\n"
            b"0,0.4375,2\n"
            b"0,0.5625,0.33333333333333331\n"
            b"0,0.6875,0\n"
            b"0,0.8125,1e+20\n"
            b"0,0.9375,4.9406564584124654e-324\n"
            b"0.10000000000000001,0.0625,0\n"
            b"0.10000000000000001,0.1875,0\n"
            b"0.10000000000000001,0.3125,0\n"
            b"0.10000000000000001,0.4375,0\n"
            b"0.10000000000000001,0.5625,0\n"
            b"0.10000000000000001,0.6875,0\n"
            b"0.10000000000000001,0.8125,0\n"
            b"0.10000000000000001,0.9375,0\n"
        )


# Any finite float, with the signed zero, the smallest subnormal and the largest floats always in reach.
CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308])


def _floats(data, shape):
    size = int(np.prod(shape))
    return np.array(data.draw(st.lists(CSV_FLOATS, min_size=size, max_size=size)), dtype=float).reshape(shape)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.sampled_from([1, 2, 3]), cells=st.sampled_from([8, 9, 13]), steps=st.integers(1, 4), data=st.data())
def test_keyed_writers_equal_write_csv_of_the_row_tuples(n, cells, steps, data):
    """The keyed writers write the bytes of ``write_csv`` on the (time, key..., value) tuples, one per row."""
    from mfglab import ControlProfile, DensityTrajectory
    from mfglab.harness import write_adjoints_csv, write_controls_csv, write_csv, write_grid_path_csv

    grid = SpaceGrid(*sorted(data.draw(st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2, unique=True))),
                     cells)
    path = DensityTrajectory(grid, _floats(data, (steps + 1,)), _floats(data, (steps + 1, cells)))
    times = [0.0, *sorted(data.draw(st.lists(st.floats(5e-324, 1.7976931348623157e308), min_size=steps,
                                             max_size=steps, unique=True)))]
    controls = ControlProfile(_floats(data, (steps, n)), times)
    costates = _floats(data, (steps + 1, n, n))
    cases = [
        (lambda out: write_grid_path_csv(out, ["t", "x", "m"], path), ["t", "x", "m"],
         [(t, x, path.data[step, k]) for step, t in enumerate(path.times) for k, x in enumerate(grid.centers())]),
        (lambda out: write_controls_csv(out, controls), ["t", "i", "u"],
         [(controls.times[step], i, controls.values[step, i]) for step in range(steps) for i in range(n)]),
        (lambda out: write_adjoints_csv(out, controls.times, costates), ["t", "i", "j", "phi"],
         [(controls.times[step], i, j, costates[step, i, j])
          for step in range(steps + 1) for i in range(n) for j in range(n)]),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for writer, header, rows in cases:
            got = writer(Path(tmp) / "got.csv").read_bytes()
            assert got == write_csv(Path(tmp) / "want.csv", header, rows).read_bytes()


# Tiny valid configs, at least one per experiment; every value in each is replaced in turn by every
# entry of the pool, and each run must end in a documented exit code without a numpy RuntimeWarning.
HOSTILE_BASES = {
    "particle_vs_kinetic": {
        "experiment": "particle_vs_kinetic",
        "model": {"kind": "consensus", "alpha": {"kind": "constant", "value": 1.0}},
        "horizon": 0.1, "dt": 0.05, "n_particles_list": [4, 8], "grid": {"cells": 16},
        "initial": {"kind": "gaussian", "mu": 0.5, "sigma": 0.2, "lo": 0.0, "hi": 1.0},
    },
    "mpc_vs_brs": {
        "experiment": "mpc_vs_brs",
        "model": {"kind": "polynomial", "drift_coeffs": [[1.0]], "cost_coeffs": [[0.0, 0.0, 0.5], [0.0, -1.0, 0.0]]},
        "horizon": 0.1, "dt_list": [0.05, 0.1], "n_particles": 4,
        "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
    },
    "mfg_vs_brs": {
        "experiment": "mfg_vs_brs",
        "model": {"kind": "bounded_confidence", "radius": 0.5,
                  "alpha": {"kind": "affine", "intercept": 1.0, "slope": 0.5}},
        "horizon": 0.1, "dt": 0.05, "grid": {"cells": 16, "x_min": -0.5, "x_max": 1.5},
        "initial": {"kind": "two_bump", "mu1": 0.3, "sigma1": 0.1, "mu2": 0.7, "sigma2": 0.1, "lo": 0.0, "hi": 1.0},
        "solver": {"tolerance": 1e-8, "damping": 0.5, "max_iterations": 50},
    },
    # the structured (moment) quadrature on the grid
    "mfg_vs_brs/polynomial": {
        "experiment": "mfg_vs_brs",
        "model": {"kind": "polynomial", "drift_coeffs": [[1.0, 0.1]], "cost_coeffs": [[0.0, 0.5]]},
        "horizon": 0.1, "dt": 0.05, "grid": {"cells": 16}, "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
    },
    "prop2_gap": {
        "experiment": "prop2_gap", "model": {"kind": "consensus"}, "horizon": 0.1, "dt_list": [0.05],
        "grid": {"cells": 16, "x_min": -1.0, "x_max": 2.0}, "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
    },
    "nash_vs_brs": {
        "experiment": "nash_vs_brs", "model": {"kind": "consensus"}, "horizon": 0.1, "dt": 0.05, "n_particles": 3,
        "initial": {"kind": "uniform", "a": -1.0, "b": 1.0}, "solver": {"max_iterations": 100},
    },
}
HOSTILE_POOL = [0, -1, 1, 2, 2**64, 2**128, 1e308, -1e308, 1e-308, INF, NAN, True, "x", [], {}, None,
                [0.1, -1], [[1.0], [2.0, 3.0]]]
# (base name, path, value, exit code, text of the manifest message)
HOSTILE_NAMED = [
    ("particle_vs_kinetic", ("experiment",), [], EXIT_CONFIG, "experiment must be one of"),
    ("mpc_vs_brs", ("experiment",), {}, EXIT_CONFIG, "experiment must be one of"),
    ("nash_vs_brs", ("initial", "kind"), [0.1, -1], EXIT_CONFIG, "initial.kind must be one of"),
    ("prop2_gap", ("initial", "kind"), {}, EXIT_CONFIG, "initial.kind must be one of"),
    # an initial distribution with no mass on the cells, or with non-finite samples
    ("mfg_vs_brs", ("initial", "mu1"), -1, EXIT_CONFIG, "initial two_bump"),
    ("particle_vs_kinetic", ("initial", "mu"), 1e308, EXIT_CONFIG, "initial gaussian"),
    ("particle_vs_kinetic", ("initial", "mu"), -1e308, EXIT_CONFIG, "initial gaussian"),
    ("particle_vs_kinetic", ("initial", "sigma"), 1e-308, EXIT_CONFIG, "initial gaussian"),
    ("particle_vs_kinetic", ("initial", "sigma"), 1e308, EXIT_CONFIG, "initial gaussian"),
    ("particle_vs_kinetic", ("initial", "sigma"), 2**64, EXIT_CONFIG, "initial gaussian"),
    ("prop2_gap", ("initial", "b"), 1e-308, EXIT_CONFIG, "initial uniform"),
    # sizes numpy cannot describe
    ("nash_vs_brs", ("horizon",), 2**64, EXIT_CONFIG, "more than a time grid"),
    ("mfg_vs_brs", ("dt",), 1e-308, EXIT_CONFIG, "more than a time grid"),
    ("particle_vs_kinetic", ("model", "alpha", "value"), 1e-308, EXIT_CONFIG, "more than a time grid"),
    ("mfg_vs_brs", ("grid", "cells"), 2**64, EXIT_CONFIG, "grid.cells must be an integer in [8, "),
    ("particle_vs_kinetic", ("n_particles_list", 1), 2**64, EXIT_CONFIG, "n_particles_list must be"),
    ("mpc_vs_brs", ("n_particles",), 2**64, EXIT_CONFIG, "n_particles must be an integer in [2, "),
    ("nash_vs_brs", ("n_seeds",), 2**64, EXIT_CONFIG, "n_seeds must be an integer in [1, "),
    ("particle_vs_kinetic", ("n_seeds",), 2**64, EXIT_CONFIG, "n_seeds must be an integer in [1, "),
    ("nash_vs_brs", ("seed",), 2**128, EXIT_CONFIG, "seed + n_seeds - 1 must be less than 2**128"),
    # an Euler step that overflows is a divergence
    ("mpc_vs_brs", ("model", "drift_coeffs", 0, 0), 1e308, EXIT_SOLVER, "explicit Euler step"),
    ("nash_vs_brs", ("initial", "a"), -1e308, EXIT_SOLVER, "explicit Euler step"),
    # still accepted
    ("nash_vs_brs", ("output",), None, EXIT_OK, "sweep converged"),
    ("mpc_vs_brs", ("seed",), 2**64, EXIT_OK, "step sizes compared"),
    # positions up to 1e308: the cost slopes -(sum_{j != i} x_j) / 3 and the steps stay finite, as the
    # exact compiled operator computes them (a table shifted in floats overflowed to nan here)
    ("mpc_vs_brs", ("initial", "b"), 1e308, EXIT_OK, "step sizes compared"),
    ("nash_vs_brs", ("solver", "max_iterations"), 2**64, EXIT_OK, "sweep converged"),
]


def _leaf_paths(node, path=()):
    """Paths of every value in a config: scalars, lists and list entries; objects are walked into."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
        return
    yield path
    if isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))


@pytest.fixture(scope="module")
def hostile_runs(tmp_path_factory):
    """``mfglab run`` on each base config (path None) and on every single-value mutation of it.

    Maps (base name, path, JSON of the value) to (exit code, manifest, escaped exception); a numpy
    ``RuntimeWarning`` is raised, so it escapes.
    """
    runs = {}
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        mp.chdir(tmp_path_factory.mktemp("hostile"))  # a refused output falls back to ./results
        for name, base in HOSTILE_BASES.items():
            base = dict(base, seed=0, n_seeds=1, output="out")
            cases = [(None, None)] + [(path, value) for path in _leaf_paths(base) for value in HOSTILE_POOL]
            for path, value in cases:
                raw = base if path is None else _mutated(base, path, value)
                Path("cfg.json").write_text(json.dumps(raw))
                output = raw["output"] if isinstance(raw["output"], str) else "results"
                manifest_path = Path(output) / "manifest.json"
                manifest_path.unlink(missing_ok=True)
                try:
                    code, escaped = main(["run", "cfg.json"]), None
                except Exception as exc:  # noqa: BLE001 - any exception breaks the exit contract
                    code, escaped = None, exc
                manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
                runs[name, path, json.dumps(value)] = (code, manifest, escaped)
    return runs


def _huge_drift(bound: float, experiment: str = "particle_vs_kinetic") -> dict:
    """A particle_vs_kinetic (one N, of 4) or prop2_gap config with drift P = 1e300 on [-bound, bound]: the grid
    and the initial support."""
    sizes = {"n_particles_list": [4]} if experiment == "particle_vs_kinetic" else {}
    return dict(HOSTILE_BASES[experiment], **sizes,
                model={"kind": "polynomial", "drift_coeffs": [[1e300]], "cost_coeffs": [[0.0]]},
                grid={"cells": 16, "x_min": -bound, "x_max": bound},
                initial={"kind": "uniform", "a": -bound, "b": bound})


def _long_horizon(experiment: str, **fields) -> dict:
    """A consensus config over the horizon 10^4 in 7 steps, from uniform(0, 1)."""
    return dict(experiment=experiment, model={"kind": "consensus"}, horizon=10000.0, dt=1428.5714285714287,
                initial={"kind": "uniform", "a": 0.0, "b": 1.0}, **fields)


class TestHostileValues:
    def test_every_value_ends_in_a_documented_exit_with_manifest(self, hostile_runs):
        assert len(hostile_runs) == len(HOSTILE_BASES) + len(HOSTILE_POOL) * sum(
            len(list(_leaf_paths(dict(base, seed=0, n_seeds=1, output="out")))) for base in HOSTILE_BASES.values())
        escapes = [
            (key, code, escaped) for key, (code, manifest, escaped) in hostile_runs.items()
            if escaped is not None or code not in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER)
            or manifest is None or manifest["exit_code"] != code
        ]
        assert escapes == []

    def test_base_configs_exit_zero(self, hostile_runs):
        for name in HOSTILE_BASES:
            assert hostile_runs[name, None, "null"][0] == EXIT_OK

    @pytest.mark.parametrize("name, path, value, code, needle", HOSTILE_NAMED,
                             ids=[f"{e}-{'.'.join(map(str, p))}={json.dumps(v)}" for e, p, v, _, _ in HOSTILE_NAMED])
    def test_named_case(self, hostile_runs, name, path, value, code, needle):
        got, manifest, _ = hostile_runs[name, path, json.dumps(value)]
        assert got == code and needle in manifest["message"]

    @pytest.mark.parametrize("raw, code, needle", [
        # the bounded-confidence window slope, about 1.5 / (0.05 radius), overflows
        (dict(HOSTILE_BASES["nash_vs_brs"], model={"kind": "bounded_confidence", "radius": 1e-308}),
         EXIT_CONFIG, "window slope"),
        # the moment quadrature overflows: in its power sums, and in the cost integral
        (_mutated(HOSTILE_BASES["mfg_vs_brs/polynomial"], ("initial", "b"), 1e308), EXIT_SOLVER, "CFL violated"),
        (_mutated(HOSTILE_BASES["mfg_vs_brs/polynomial"], ("model", "cost_coeffs"), [[0.0, 1e308]]),
         EXIT_OK, "fixed point"),
        (_mutated(HOSTILE_BASES["mfg_vs_brs/polynomial"], ("model", "cost_coeffs"), [[-1e308, 0.5]]),
         EXIT_OK, "fixed point"),
        # the initial face speed of the kinetic time step, or of the window's, is NaN (moment quadrature) or inf
        (_huge_drift(1e300), EXIT_SOLVER, "initial face speed max |c| is nan"),
        (_huge_drift(1e10), EXIT_SOLVER, "initial face speed max |c| is inf"),
        (_huge_drift(1e300, "prop2_gap"), EXIT_SOLVER, "initial face speed max |c| is nan"),
        (_huge_drift(1e10, "prop2_gap"), EXIT_SOLVER, "initial face speed max |c| is inf"),
        # 7 steps of dt = 10^4 / 7 reach the solver: the time grid's steps differ by 1.1e-12, within the
        # slack of 1e-12 relative to the horizon that ``step_count`` grants
        (_long_horizon("mfg_vs_brs", grid={"cells": 16}), EXIT_SOLVER, "density march, step 0: CFL violated"),
        (_long_horizon("nash_vs_brs", n_particles=3), EXIT_SOLVER, "|x| reached 3.492e+08 > bound"),
        # the width b - a of the spot-check points and of the samples overflows
        (dict(HOSTILE_BASES["nash_vs_brs"], initial={"kind": "uniform", "a": -1.7e308, "b": 1.7e308}),
         EXIT_CONFIG, "initial uniform distribution gives non-finite samples"),
        # the drift kernel 1 + 1e300 y overflows at the spot-check points
        (dict(HOSTILE_BASES["particle_vs_kinetic"], n_particles_list=[4],
              model={"kind": "polynomial", "drift_coeffs": [[1.0, 1e300]], "cost_coeffs": [[0.0]]},
              initial={"kind": "uniform", "a": -1e10, "b": 1e10}),
         EXIT_CONFIG, "drift kernel produced non-finite values on the experiment domain"),
    ], ids=["radius=1e-308", "initial.b=1e308", "cost_coeffs=1e308", "cost_coeffs=-1e308",
            "speed=nan", "speed=inf", "speed=nan-prop2", "speed=inf-prop2", "horizon=1e4-mfg", "horizon=1e4-nash",
            "initial.width=inf", "spot-check=inf"])
    def test_overflow_ends_in_a_documented_exit_without_runtime_warning(self, tmp_path, raw, code, needle):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == code
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == code and needle in manifest["message"]

    def test_particle_cell_count_refused_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # one cell over the limit, so a missing bound fails at the first cell rather than filling memory
        def no_cell(*args):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(harness, "sample_initial", no_cell)
        cfg_path = tmp_path / "cfg.json"
        base = dict(HOSTILE_BASES["particle_vs_kinetic"], n_particles_list=[4])
        cfg_path.write_text(json.dumps(dict(base, n_seeds=100_001)))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        needle = "len(n_particles_list) * n_seeds must be at most 100000, got 100001"
        assert needle in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and needle in manifest["message"]
        with pytest.raises(ConfigError, match=r"n_seeds must be at most 100000, got 2199023255552"):
            parse_config(json.dumps(dict(HOSTILE_BASES["particle_vs_kinetic"], n_seeds=2**40)))
        parse_config(json.dumps(dict(base, n_seeds=100_000)))

    def test_step_count_beyond_the_time_grid_limit_exit_two(self, tmp_path, capsys):
        # dt divides the horizon, but 2e18 steps exceed the points numpy can describe
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_NASH, horizon=1e6, dt=5e-13)))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "more than a time grid" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and "more than a time grid" in manifest["message"]

    def test_seed_option_is_validated(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL_NASH))
        assert main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and manifest["config"]["seed"] == -1

    @pytest.mark.parametrize("raw", [MINIMAL_NASH, dict(MINIMAL_NASH, dt=0)], ids=["valid", "refused"])
    def test_unwritable_output_exit_two(self, tmp_path, capsys, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(raw, output="/dev/null/x")))
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert "error: cannot write the output" in capsys.readouterr().out


README = Path(__file__).resolve().parents[1] / "README.md"


def _table_fields():
    """(path, requirement) of every entry of the config field table."""
    fields = [(name, req) for name, _, _, req, _, _ in harness._TOP]
    fields += [(f"grid.{name}", req) for name, _, _, req, _, _ in harness._GRID]
    fields += [(f"solver.{name}", req) for name, _, _, req, _, _ in harness._SOLVER]
    for prefix, kinds in (("model", harness._MODELS), ("model.alpha", harness._ALPHAS),
                          ("initial", harness._INITIALS)):
        fields.append((f"{prefix}.kind", f"one of {tuple(kinds)}"))
        fields += [(f"{prefix}.{f[0]}", f[3]) for entries in kinds.values() for f in entries]
    return fields


class TestReadme:
    def test_config_reference_lists_every_table_field(self):
        rows = [line for line in README.read_text().splitlines() if line.startswith("| `")]
        for path, requirement in _table_fields():
            row = [line for line in rows if line.startswith(f"| `{path}` |")]
            assert len(row) == 1, path
            assert requirement in row[0], path

    def test_json_blocks_parse(self):
        blocks = README.read_text().split("```json\n")[1:]
        assert blocks
        for block in blocks:
            json.loads(block.split("```")[0])


BOUNDED_PARTICLES = {
    "experiment": "particle_vs_kinetic",
    "model": {"kind": "bounded_confidence", "radius": 0.15},
    "horizon": 0.1,
    "dt": 0.01,
    # N = 150 fills 2**16 pair entries with 2 seeds, so its 3 seeds run as stacks of 2 and 1
    "n_particles_list": [8, 150],
    "n_seeds": 3,
    "seed": 5,
    "grid": {"cells": 32},
    "initial": {"kind": "uniform", "a": 0.0, "b": 1.0},
}


class TestParticleStacks:
    """particle_vs_kinetic integrates the seeds of each N as bounded stacks, with the bytes of per-cell runs."""

    def test_dense_model_cells_equal_per_cell_runs_for_any_job_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)  # a pool on any runner
        cfg = parse_config(json.dumps(BOUNDED_PARTICLES))
        model = harness.build_model(cfg)
        assert model.drift.table is None and model.cost.table is None
        assert _BATCH_ENTRIES // harness._row_entries(model, 150) == 2
        m0 = density_of(cfg.initial, harness.build_grid(cfg))
        final = solve_kinetic(model, m0, cfg.horizon, cfl_time_step(model, m0, cfg.horizon)).final
        rows = []
        for n in cfg.n_particles_list:
            for seed in range(cfg.seed, cfg.seed + cfg.n_seeds):
                trajectory, _ = integrate_brs(model, sample_initial(seed, n, cfg.initial), cfg.horizon, cfg.dt)
                rows.append((n, seed, w1(trajectory.ensemble(len(trajectory) - 1), final)))
        want = harness.write_csv(tmp_path / "reference.csv", ["n", "seed", "w1"], rows).read_bytes()
        for jobs in (1, 3):
            assert run_experiment(cfg, out_dir=tmp_path / str(jobs), jobs=jobs).exit_code == EXIT_OK
            assert (tmp_path / str(jobs) / "cells.csv").read_bytes() == want
        assert (tmp_path / "1" / "summary.csv").read_bytes() == (tmp_path / "3" / "summary.csv").read_bytes()

    # BOUNDED_PARTICLES runs as 3 stacks: N = 8 with its 3 seeds, N = 150 with 2 seeds and with 1
    @pytest.mark.parametrize("jobs, cpus, pool", [(10**6, 64, 3), (10**6, 2, 2), (2, 64, 2), (10**6, 1, None),
                                                  (1, 64, None)])
    def test_pool_capped_by_stacks_and_usable_cpus(self, tmp_path, monkeypatch, jobs, cpus, pool):
        sizes = []

        class SerialExecutor:  # records its size and maps in this thread, so no thread starts
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialExecutor)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        cfg = parse_config(json.dumps(BOUNDED_PARTICLES))
        assert run_experiment(cfg, out_dir=tmp_path, jobs=jobs).exit_code == EXIT_OK
        assert sizes == ([] if pool is None else [pool])

    def test_usable_cpus_falls_back_to_the_machine_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert harness._usable_cpus() == 2
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert harness._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1

    def test_diverging_seed_named_with_its_step_and_time(self, tmp_path):
        # u = x^3 under phi(x, y) = -x^4 / 4 blows up at t = 1 / (2 x0^2): seeds whose largest x0 exceeds 0.5
        # pass the bound within the horizon, the others do not
        raw = dict(BOUNDED_PARTICLES, model={"kind": "polynomial", "drift_coeffs": [[0.0]],
                                             "cost_coeffs": [[0.0], [0.0], [0.0], [0.0], [-0.25]]},
                   horizon=2.0, n_particles_list=[2], n_seeds=6, seed=0)
        cfg = parse_config(json.dumps(raw))
        model = harness.build_model(cfg)
        failures = []
        for seed in range(cfg.n_seeds):
            try:
                integrate_brs(model, sample_initial(seed, 2, cfg.initial), cfg.horizon, cfg.dt)
            except DivergenceError as err:
                failures.append((int(str(err).split("at step ")[1].split()[0]), seed, str(err)))
        assert 0 < len(failures) < cfg.n_seeds
        _, seed, message = min(failures)
        result = run_experiment(cfg, out_dir=tmp_path)
        assert result.exit_code == EXIT_SOLVER
        assert result.message == f"stage 'particle_vs_kinetic' failed: N=2, seed={seed}: {message}"
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_SOLVER and manifest["message"] == result.message

    def test_peak_memory_does_not_grow_with_the_seed_count(self, tmp_path):
        # N = 128 fills a stack with 4 seeds; 16 seeds run as 4 such stacks, one after the other
        raw = dict(BOUNDED_PARTICLES, horizon=0.02, n_particles_list=[128])
        peaks = {}
        for n_seeds in (4, 16):
            cfg = parse_config(json.dumps(dict(raw, n_seeds=n_seeds)))
            tracemalloc.start()
            try:
                assert run_experiment(cfg, out_dir=tmp_path / str(n_seeds)).exit_code == EXIT_OK
                peaks[n_seeds] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] <= 1.02 * peaks[4]
