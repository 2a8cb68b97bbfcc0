import dataclasses
import json

import numpy as np
import pytest

from mfglab import ConfigError, parse_config, run_experiment, sample_initial
from mfglab.grids import SpaceGrid
from mfglab.harness import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    density_of,
    main,
)

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
        assert cfg.solver_damping == 0.5
        assert cfg.solver_tolerance == 1e-8
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


class TestSampleInitial:
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

    def test_manifest_written(self, tmp_path):
        cfg = parse_config(json.dumps(MINIMAL_NASH))
        run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["experiment"] == "nash_vs_brs"
        assert "version" in manifest and "wall_clock_seconds" in manifest

    def test_particle_cells_parallel_matches_sequential(self, tmp_path):
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
        assert "cost_poly" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["exit_code"] == EXIT_CONFIG and "model" in manifest["message"]

    def test_nash_divergence_exit_three_with_manifest(self, tmp_path):
        # undamped sweeps diverge after the first; the sweep reports, the harness fails the stage
        raw = dict(MINIMAL_NASH, model={"kind": "bounded_confidence", "radius": 0.1}, horizon=2.0,
                   dt=0.02, n_particles=8, initial={"kind": "uniform", "a": 0.0, "b": 1.0},
                   solver={"damping": 1.0})
        result = run_experiment(parse_config(json.dumps(raw)), out_dir=tmp_path)
        assert result.exit_code == EXIT_SOLVER
        assert "did not converge" in result.message
        assert json.loads((tmp_path / "manifest.json").read_text())["exit_code"] == EXIT_SOLVER


class TestCli:
    def test_run_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(MINIMAL_NASH))
        code = main(["run", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "4"])
        assert code == EXIT_OK
        assert (tmp_path / "out" / "particles.csv").exists()
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 4

    def test_invalid_config_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL_NASH, dt=0)))
        assert main(["run", str(cfg_path)]) == EXIT_CONFIG
        assert "dt" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG


class TestCsvWriters:
    def test_seventeen_digit_floats(self, tmp_path):
        from mfglab.harness import write_csv

        path = write_csv(tmp_path / "x.csv", ["a"], [(1.0 / 3.0,)])
        assert path.read_text().splitlines()[1] == "0.33333333333333331"
