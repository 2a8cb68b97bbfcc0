import warnings

import numpy as np
import pytest

from mfglab import (
    CFLError,
    DensityGrid,
    SpaceGrid,
    consensus_model,
    grid_for_support,
    histogram,
    moments,
    normalized_density,
    polynomial_model,
    solve_kinetic,
    step_upwind,
    velocity_field,
)
from mfglab import kinetic
from mfglab.kinetic import cfl_time_step
from mfglab.mfg import ValueGrid, fp_forward
from mfglab.model import ModelSpec, PairKernel


def bump_density(grid, center, width):
    x = grid.centers()
    return normalized_density(grid, np.exp(-((x - center) / width) ** 2))


class TestVelocityField:
    def test_consensus_identity(self):
        # c(x) = 2 (mu - x) when the weight is 1: drift and cost slope contribute equally
        m = consensus_model()
        grid = SpaceGrid(-1.0, 2.0, 240)
        dens = bump_density(grid, 0.5, 0.2)
        _, mu, _ = moments(dens)
        faces = grid.faces()
        c = velocity_field(m, dens, 0.0)
        assert np.allclose(c, 2.0 * (mu - faces), atol=1e-9)

    def test_zero_kernels(self):
        m = polynomial_model([[0.0]], [[0.0]])
        grid = SpaceGrid(0.0, 1.0, 64)
        dens = normalized_density(grid, np.ones(64))
        assert np.all(velocity_field(m, dens, 0.0) == 0.0)

    def test_odd_about_center_for_symmetric_density(self):
        m = consensus_model()
        grid = SpaceGrid(-1.0, 1.0, 128)
        dens = bump_density(grid, 0.0, 0.3)
        c = velocity_field(m, dens, 0.0)
        assert np.allclose(c, -c[::-1], atol=1e-12)


class TestStepUpwind:
    def test_zero_velocity_identity(self):
        grid = SpaceGrid(0.0, 1.0, 32)
        dens = normalized_density(grid, 1.0 + grid.centers())
        out = step_upwind(dens, np.zeros(33), 0.01)
        assert out.cell_averages.tobytes() == dens.cell_averages.tobytes()

    def test_mass_conserved_exactly(self):
        grid = SpaceGrid(0.0, 1.0, 64)
        dens = bump_density(grid, 0.4, 0.1)
        faces = np.sin(7.0 * grid.faces())
        out = step_upwind(dens, faces, 0.9 * grid.dx / 1.0)
        assert abs(out.mass - 1.0) <= 1e-14

    def test_transports_bump_one_cell(self):
        # constant c moves mass downstream; compare against the exact translation
        errs = []
        for cells in (64, 128, 256, 512):
            grid = SpaceGrid(0.0, 1.0, cells)
            dens = bump_density(grid, 0.3, 0.05)
            speed = 1.0
            dt = 0.5 * grid.dx / speed
            steps = int(round(0.2 / dt))
            cur = dens
            for _ in range(steps):
                cur = step_upwind(cur, np.full(cells + 1, speed), dt)
            shift = steps * dt * speed
            exact = np.interp(grid.centers() - shift, grid.centers(), dens.cell_averages, left=0.0, right=0.0)
            errs.append(np.sum(np.abs(cur.cell_averages - exact)) * grid.dx)
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= errs[0] / 4.0  # clear decay towards 0 under refinement

    def test_cfl_violation_names_face(self):
        grid = SpaceGrid(0.0, 1.0, 32)
        dens = normalized_density(grid, np.ones(32))
        faces = np.zeros(33)
        faces[7] = 5.0
        with pytest.raises(CFLError, match="face 7"):
            step_upwind(dens, faces, grid.dx)

    def test_nan_velocity_fails_the_cfl_check(self):
        # an overflowed velocity field is a solver failure, not a density that fails its checks
        grid = SpaceGrid(0.0, 1.0, 32)
        dens = normalized_density(grid, np.ones(32))
        faces = np.zeros(33)
        faces[7] = np.nan
        with pytest.raises(CFLError, match="face 7"):
            step_upwind(dens, faces, grid.dx)

    def test_positivity_preserved(self):
        # smooth sign-changing field: outflow Courants at the crossings stay small
        rng = np.random.Generator(np.random.Philox(key=6))
        grid = SpaceGrid(0.0, 1.0, 64)
        dens = normalized_density(grid, rng.random(64))
        faces = np.sin(2.0 * np.pi * grid.faces())
        dt = 0.9 * grid.dx / np.max(np.abs(faces))
        cur = dens
        for _ in range(30):
            cur = step_upwind(cur, faces, dt)
        assert cur.cell_averages.min() >= 0.0


class TestSolveKinetic:
    def setup_method(self):
        self.model = consensus_model()
        self.grid = grid_for_support(0.2, 0.8, 256)
        self.m0 = bump_density(self.grid, 0.5, 0.1)
        self.horizon = 0.5
        self.dt = cfl_time_step(self.model, self.m0, self.horizon)

    def test_mean_conserved_to_first_order(self):
        path = solve_kinetic(self.model, self.m0, self.horizon, self.dt)
        _, mean0, _ = moments(path.density(0))
        _, mean_t, _ = moments(path.final)
        drift = abs(mean_t - mean0)
        assert drift <= self.grid.dx + self.dt

    def test_variance_decays_monotonically(self):
        path = solve_kinetic(self.model, self.m0, self.horizon, self.dt)
        variances = np.array([moments(path.density(k))[2] for k in range(len(path))])
        assert np.all(np.diff(variances) < 0.0)
        # continuum rate for this model is -4 Var; first-order scheme tracks it loosely
        ratio = variances[-1] / variances[0]
        assert abs(ratio - np.exp(-2.0)) <= 0.05

    def test_symmetry_preserved(self):
        path = solve_kinetic(self.model, self.m0, self.horizon, self.dt)
        final = path.final.cell_averages
        assert np.max(np.abs(final - final[::-1])) <= 1e-12

    def test_mass_and_positivity_along_run(self):
        path = solve_kinetic(self.model, self.m0, self.horizon, self.dt)
        masses = np.sum(path.data, axis=1) * self.grid.dx
        assert np.max(np.abs(masses - 1.0)) <= 1e-12
        assert path.data.min() >= 0.0

    def test_mid_run_cfl_failure_reports_step(self):
        with pytest.raises(CFLError, match="step 0"):
            solve_kinetic(self.model, self.m0, self.horizon, 0.05)

    def test_zero_speed_takes_the_horizon_in_one_step(self):
        grid = SpaceGrid(0.0, 1.0, 64)
        dens = normalized_density(grid, np.ones(64))
        assert cfl_time_step(polynomial_model([[0.0]], [[0.0]]), dens, 0.7) == 0.7

    def test_dt_must_divide_horizon(self):
        with pytest.raises(ValueError, match="divide"):
            solve_kinetic(self.model, self.m0, self.horizon, 0.5 / 100.5)


class TestCharacteristics:
    def test_frozen_field_matches_push_forward(self):
        # freeze c(x) = 2(mu - x); characteristics are exact:
        # X(t; x) = mu + (x - mu) e^{-2t}, density m(t, y) = m0(mu + (y-mu)e^{2t}) e^{2t}
        errs = []
        horizon = 0.2
        for cells in (128, 256, 512):
            grid = SpaceGrid(0.0, 1.0, cells)
            x = grid.centers()
            sigma = 0.08
            m0_vals = np.exp(-(((x - 0.5) / sigma) ** 2) / 2)
            dens = normalized_density(grid, m0_vals)
            model = consensus_model()
            faces = velocity_field(model, dens, 0.0)
            dt = 0.45 * grid.dx / np.max(np.abs(faces))
            steps = int(round(horizon / dt))
            dt = horizon / steps
            cur = dens
            for _ in range(steps):
                cur = step_upwind(cur, faces, dt)
            _, mu, _ = moments(dens)
            stretch = np.exp(2.0 * horizon)
            pulled_back = mu + (x - mu) * stretch
            exact = np.interp(pulled_back, x, dens.cell_averages, left=0.0, right=0.0) * stretch
            exact = exact / (np.sum(exact) * grid.dx)
            errs.append(np.sum(np.abs(cur.cell_averages - exact)) * grid.dx)
        assert errs[0] > errs[1] > errs[2]
        assert 1.4 <= errs[0] / errs[1] <= 3.0
        assert 1.4 <= errs[1] / errs[2] <= 3.0


class TestHistogram:
    def test_mass_per_particle(self):
        grid = SpaceGrid(0.0, 1.0, 10)
        d = histogram(np.array([0.05, 0.05, 0.95]), grid)
        assert d.cell_averages[0] == pytest.approx(2.0 / (3 * grid.dx))
        assert d.cell_averages[-1] == pytest.approx(1.0 / (3 * grid.dx))

    def test_outside_domain_rejected(self):
        grid = SpaceGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="outside"):
            histogram(np.array([1.5]), grid)
        for bad in (np.nan, np.inf, -np.inf):  # NaN used to be counted in cell 0
            with pytest.raises(ValueError, match="non-finite"):
                histogram(np.array([0.5, bad]), grid)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="8"):
            SpaceGrid(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="domain"):
            SpaceGrid(1.0, 0.0, 32)


class TestDensityGridStructure:
    def test_density_trajectory_accessors(self):
        grid = SpaceGrid(0.0, 1.0, 16)
        model = polynomial_model([[0.0]], [[0.0]])
        dens = normalized_density(grid, np.ones(16))
        path = solve_kinetic(model, dens, 0.1, 0.05)
        assert len(path) == 3
        assert isinstance(path.final, DensityGrid)
        assert path.density(0).cell_averages.tobytes() == dens.cell_averages.tobytes()


class TestMarchRowChecks:
    """The march's CFL and row tests raise, keep and clip as the per-step ``_upwind`` and ``DensityGrid`` checks do."""

    grid = SpaceGrid(0.0, 1.0, 16)
    model = polynomial_model([[0.0]], [[0.0]])  # F = 0 and alpha = 1: the face velocity is minus the value slope
    dt = 1.0 / 32  # dt / dx = 0.5

    def march(self, velocities):
        m0 = normalized_density(self.grid, np.ones(self.grid.cells))
        times = self.dt * np.arange(len(velocities) + 1)
        return kinetic._march(self.model, m0, times, self.dt, -np.array(velocities, dtype=float))

    def test_round_off_negative_clipped_like_density_grid(self):
        # cell 5 empties through both faces: 1 - 0.5 (1 + 1 + 2^-51) = -2^-52
        c = np.zeros(self.grid.cells + 1)
        c[5], c[6] = -1.0, 1.0 + 2.0**-51
        raw = kinetic._upwind(self.grid, np.ones(self.grid.cells), c, self.dt)
        assert -1e-15 < raw[5] < 0.0
        data = self.march([c])
        want = DensityGrid(self.grid, raw)
        assert data[1].tobytes() == want.cell_averages.tobytes()
        assert data[1][5] == 0.0 and want.clipped_mass > 0.0

    @pytest.mark.parametrize("bad", ["nan", "too_large"])
    def test_cfl_failure_names_step_and_face(self, bad):
        c = np.zeros(self.grid.cells + 1)
        if bad == "nan":
            c[9] = np.nan
        else:
            c[3], c[11] = -40.0, 40.0  # equal Courant numbers: the first face is named
        with pytest.raises(CFLError) as err:
            self.march([np.zeros(self.grid.cells + 1), c])
        courant = self.dt * np.abs(c) / self.grid.dx
        face = int(np.argmax(courant))
        assert (err.value.step, err.value.face) == (1, face) and face == (9 if bad == "nan" else 3)
        assert str(err.value) == (f"step 1: CFL violated: dt*|c|/dx = {courant[face]:.4f} > {kinetic.CFL_NUMBER} "
                                  f"at face {face} (x = {self.grid.faces()[face]:.6g})")

    def test_overflowed_dense_velocity_fails_the_cfl_check_without_a_warning(self):
        # P = 1e308 on a domain of width 4: the cell terms P (y - x) beyond |y - x| = 1.8 are
        # infinite, so the dense drift is inf at the end faces and nan between them
        grid = SpaceGrid(0.0, 4.0, 16)
        zero = lambda x, y: np.float64(0.0)  # noqa: E731
        model = ModelSpec(PairKernel(lambda x, y: np.float64(1e308), zero, zero), PairKernel(zero, zero, zero),
                          lambda t: 1.0)
        m0 = normalized_density(grid, np.ones(grid.cells))
        dt = 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = velocity_field(model, m0, 0.0)
            with pytest.raises(CFLError) as err:
                solve_kinetic(model, m0, 2 * dt, dt)
        assert np.isinf(c[0]) and np.isnan(c[8])
        courant = dt * np.abs(c) / grid.dx
        face = int(np.argmax(courant))
        assert (err.value.step, err.value.face) == (0, face)
        assert str(err.value) == (f"step 0: CFL violated: dt*|c|/dx = {courant[face]:.4f} > {kinetic.CFL_NUMBER} "
                                  f"at face {face} (x = {grid.faces()[face]:.6g})")

    def test_nonpositive_dt_refused_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(kinetic, "_upwind", no_step)
        m0 = normalized_density(self.grid, np.ones(self.grid.cells))
        with pytest.raises(ValueError, match="dt must be positive, got 0.0"):
            step_upwind(m0, np.zeros(self.grid.cells + 1), 0.0)
        # times that decrease give the density march a negative step
        value = ValueGrid(self.grid, self.dt * np.arange(4, -1, -1), np.zeros((5, self.grid.cells)))
        with pytest.raises(ValueError, match=f"dt must be positive, got {-self.dt}"):
            fp_forward(self.model, value, m0)

    @pytest.mark.parametrize("defect", ["mass", "negative", "nan", "inf"])
    def test_rejected_rows_raise_the_density_grid_error(self, monkeypatch, defect):
        row = np.ones(self.grid.cells)
        if defect == "mass":
            row *= 1.0 + 1e-10
        elif defect == "negative":
            row[3], row[4] = -1e-9, 1.0 + 1e-9
        else:
            row[7] = np.nan if defect == "nan" else np.inf
        with pytest.raises(ValueError) as want:
            DensityGrid(self.grid, row.copy())
        monkeypatch.setattr(kinetic, "_upwind", lambda grid, values, face_velocity, dt: row.copy())
        with pytest.raises(ValueError) as got:
            self.march([np.zeros(self.grid.cells + 1)])
        assert str(got.value) == str(want.value)
