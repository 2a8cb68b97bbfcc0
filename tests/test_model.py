import dataclasses

import numpy as np
import pytest

from mfglab import (
    ConfigError,
    ParticleEnsemble,
    bounded_confidence_model,
    consensus_model,
    cost,
    cost_grad_vector,
    drift,
    mean_field_cost,
    mean_field_cost_grad,
    mean_field_drift,
    polynomial_model,
)
from mfglab.grids import DensityGrid, SpaceGrid, histogram, normalized_density
from mfglab.model import ModelSpec, alpha_at, cost_gradient_full, drift_jacobian


def ensemble(*xs):
    return ParticleEnsemble(np.array(xs, dtype=float))


class TestDrift:
    def test_two_particles(self):
        m = consensus_model()
        assert np.allclose(drift(m, ensemble(0.0, 1.0)), [0.5, -0.5])

    def test_equal_positions_give_zero(self):
        m = bounded_confidence_model(radius=0.5)
        out = drift(m, ensemble(*([0.3] * 5)))
        assert np.all(out == 0.0)

    def test_three_particles_mean_reversion(self):
        m = consensus_model()
        assert np.allclose(drift(m, ensemble(-1.0, 0.0, 1.0)), [1.0, 0.0, -1.0])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="at least one particle"):
            ensemble()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ensemble(0.0, np.nan)


class TestCost:
    def test_pair(self):
        m = consensus_model()
        assert cost(m, ensemble(0.0, 1.0))[0] == 0.5

    def test_diagonal_vanishes(self):
        m = consensus_model()
        assert cost(m, ensemble(*([0.7] * 4)))[2] == 0.0

    def test_three_particles(self):
        m = consensus_model()
        assert cost(m, ensemble(0.0, 1.0, 2.0))[1] == 0.5

    def test_single_particle_is_domain_error(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="two particles"):
            cost(m, ensemble(0.0))


class TestCostGrad:
    def test_pair(self):
        m = consensus_model()
        assert cost_grad_vector(m, ensemble(0.0, 1.0))[0] == -1.0

    def test_symmetry_center_cancels(self):
        m = consensus_model()
        assert cost_grad_vector(m, ensemble(0.0, 1.0, 2.0))[1] == 0.0

    def test_matches_finite_differences(self):
        # relative error <= 1e-6 with central differences of step 1e-6
        models = [
            consensus_model(),
            polynomial_model([[1.0]], [[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]]),
        ]
        rng = np.random.Generator(np.random.Philox(key=11))
        for m in models:
            x = rng.normal(size=5)
            for i in range(5):
                step = 1e-6
                hi = x.copy()
                hi[i] += step
                lo = x.copy()
                lo[i] -= step
                fd = (cost(m, ParticleEnsemble(hi))[i] - cost(m, ParticleEnsemble(lo))[i]) / (2 * step)
                got = cost_grad_vector(m, ParticleEnsemble(x))[i]
                assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))


class TestPermutationSymmetry:
    def test_cost_and_drift_invariant_under_peer_permutation(self):
        # sorted-peer evaluation is the reference; shuffles agree to 1e-13
        rng = np.random.Generator(np.random.Philox(key=2))
        m = bounded_confidence_model(radius=0.8)
        x = rng.normal(size=7)
        peers = np.delete(x, 3)
        ref_cost = cost(m, ParticleEnsemble(np.concatenate([[x[3]], np.sort(peers)])))[0]
        ref_drift = drift(m, ParticleEnsemble(np.concatenate([[x[3]], np.sort(peers)])))[0]
        for _ in range(10):
            shuffled = np.concatenate([[x[3]], peers[rng.permutation(6)]])
            assert cost(m, ParticleEnsemble(shuffled))[0] == pytest.approx(ref_cost, abs=1e-13)
            assert drift(m, ParticleEnsemble(shuffled))[0] == pytest.approx(ref_drift, abs=1e-13)


class TestMeanField:
    def grid_density(self, lo, hi, cells, pdf):
        grid = SpaceGrid(lo, hi, cells)
        return normalized_density(grid, pdf(grid.centers()))

    def test_symmetric_density_gives_mean_reversion(self):
        m = consensus_model()
        dens = self.grid_density(-1.0, 2.0, 300, lambda x: np.exp(-8 * (x - 0.5) ** 2))
        for x in (-0.3, 0.2, 1.4):
            assert mean_field_drift(m, x, dens) == pytest.approx(0.5 - x, abs=1e-9)

    def test_zero_kernel(self):
        m = polynomial_model([[0.0]], [[0.0]])
        dens = self.grid_density(0.0, 1.0, 64, lambda x: np.ones_like(x))
        assert mean_field_drift(m, 0.3, dens) == 0.0
        assert mean_field_cost_grad(m, 0.3, dens) == 0.0

    def test_cost_grad_moment_identity(self):
        m = consensus_model()
        dens = self.grid_density(-2.0, 2.0, 400, lambda x: np.exp(-3 * (x + 0.25) ** 2))
        mu = float(np.sum(dens.grid.centers() * dens.cell_averages) * dens.grid.dx)
        for x in (-1.0, 0.0, 0.8):
            assert mean_field_cost_grad(m, x, dens) == pytest.approx(x - mu, abs=1e-12)
        assert mean_field_cost_grad(m, mu, dens) == pytest.approx(0.0, abs=1e-12)

    def test_mean_field_cost_constant_kernel(self):
        m = polynomial_model([[1.0]], [[2.5]])
        dens = self.grid_density(0.0, 1.0, 64, lambda x: 1 + x)
        assert mean_field_cost(m, 0.4, dens) == pytest.approx(2.5, abs=1e-12)

    def test_histogram_drift_refines_to_particle_drift(self):
        # projection error is first order in the cell width
        rng = np.random.Generator(np.random.Philox(key=9))
        n = 40
        xs = 0.2 + 0.6 * rng.random(n)
        m = consensus_model()
        exact = drift(m, ParticleEnsemble(xs))
        errs = []
        for cells in (64, 256, 1024):
            grid = SpaceGrid(0.0, 1.0, cells)
            dens = histogram(xs, grid)
            approx = np.array([mean_field_drift(m, x, dens) for x in xs])
            errs.append(np.max(np.abs(approx - exact)))
            assert errs[-1] <= grid.dx
        assert errs[2] < errs[0]


class TestCatalogue:
    def test_bounded_confidence_values(self):
        m = bounded_confidence_model(radius=0.5)
        p = m.drift_kernel
        assert float(p(np.array(0.0), np.array(0.2))) == 1.0
        assert float(p(np.array(0.0), np.array(0.6))) == 0.0
        band = float(p(np.array(0.0), np.array(0.49)))
        assert 0.0 < band < 1.0

    def test_bounded_confidence_analytic_jacobian_matches_fd(self):
        m = bounded_confidence_model(radius=0.5)
        rng = np.random.Generator(np.random.Philox(key=21))
        x = 0.5 * rng.normal(size=5)
        jac = drift_jacobian(m, ParticleEnsemble(x))
        step = 1e-6
        for j in range(5):
            hi = x.copy()
            hi[j] += step
            lo = x.copy()
            lo[j] -= step
            fd = (drift(m, ParticleEnsemble(hi)) - drift(m, ParticleEnsemble(lo))) / (2 * step)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-7

    def test_polynomial_derivative_tables(self):
        m = polynomial_model([[1.0, 0.5]], [[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
        x, y = np.array(0.7), np.array(-0.3)
        step = 1e-6
        fd_dx = (m.cost_kernel(x + step, y) - m.cost_kernel(x - step, y)) / (2 * step)
        fd_dy = (m.cost_kernel(x, y + step) - m.cost_kernel(x, y - step)) / (2 * step)
        assert float(m.cost_kernel_dx(x, y)) == pytest.approx(float(fd_dx), abs=1e-8)
        assert float(m.cost_kernel_dy(x, y)) == pytest.approx(float(fd_dy), abs=1e-8)

    def test_alpha_positivity_enforced(self):
        m = consensus_model(alpha=lambda t: 1.0 - 2.0 * t)
        assert alpha_at(m, 0.0) == 1.0
        with pytest.raises(ConfigError, match="positive"):
            alpha_at(m, 0.75)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="radius"):
            bounded_confidence_model(radius=0.0)
        with pytest.raises(ValueError, match="coefficient table"):
            polynomial_model(np.zeros((1, 1, 1)), [[0.0]])


class TestConstructionChecks:
    def test_inconsistent_derivative_rejected_at_construction(self):
        # cost_kernel_dx with the wrong sign: its control would maximize the step cost
        with pytest.raises(ValueError, match="cost_kernel_dx does not match"):
            ModelSpec(
                drift_kernel=lambda x, y: np.float64(1.0),
                cost_kernel=lambda x, y: 0.5 * (x - y) ** 2,
                cost_kernel_dx=lambda x, y: y - x,
                alpha=lambda t: 1.0,
                drift_kernel_dx=lambda x, y: np.float64(0.0),
                drift_kernel_dy=lambda x, y: np.float64(0.0),
                cost_kernel_dy=lambda x, y: y - x,
            )
        # at radius 0.56 the sample distance 0.55 lies inside the smoothing band
        m = bounded_confidence_model(radius=0.56)
        with pytest.raises(ValueError, match="drift_kernel_dx does not match"):
            dataclasses.replace(m, drift_kernel_dx=lambda x, y: 2.0 * m.drift_kernel_dx(x, y))
        with pytest.raises(ValueError, match="drift_kernel_dy does not match"):
            dataclasses.replace(m, drift_kernel_dy=lambda x, y: -m.drift_kernel_dy(x, y))
        with pytest.raises(ValueError, match="cost_kernel_dy does not match"):
            dataclasses.replace(m, cost_kernel_dy=m.cost_kernel_dx)

    @pytest.mark.parametrize("radius", [0.55, 0.55 / 0.95, 1.1])
    def test_band_edge_on_a_sample_distance_is_accepted(self, radius):
        # a sample distance on an edge of the C1 window's band, where central
        # differences miss the analytic derivative by up to 2e-3
        m = bounded_confidence_model(radius=radius)
        assert m.drift_poly is None


class TestAdjointInputs:
    def test_cost_gradient_full_matches_fd(self):
        m = consensus_model()
        rng = np.random.Generator(np.random.Philox(key=3))
        x = rng.normal(size=4)
        i = 1
        grad = cost_gradient_full(m, ParticleEnsemble(x))[i]
        for j in range(4):
            step = 1e-6
            hi = x.copy()
            hi[j] += step
            lo = x.copy()
            lo[j] -= step
            fd = (cost(m, ParticleEnsemble(hi))[i] - cost(m, ParticleEnsemble(lo))[i]) / (2 * step)
            assert grad[j] == pytest.approx(fd, abs=1e-8)

    def test_drift_jacobian_matches_fd(self):
        m = consensus_model()
        rng = np.random.Generator(np.random.Philox(key=4))
        x = rng.normal(size=4)
        jac = drift_jacobian(m, ParticleEnsemble(x))
        for j in range(4):
            step = 1e-6
            hi = x.copy()
            hi[j] += step
            lo = x.copy()
            lo[j] -= step
            fd = (drift(m, ParticleEnsemble(hi)) - drift(m, ParticleEnsemble(lo))) / (2 * step)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-8


class TestDensityGrid:
    def test_mass_validation(self):
        grid = SpaceGrid(0.0, 1.0, 16)
        with pytest.raises(ValueError, match="mass"):
            DensityGrid(grid, np.full(16, 2.0))

    def test_negative_rejected(self):
        grid = SpaceGrid(0.0, 1.0, 16)
        values = np.full(16, 1.0)
        values[3] = -1e-3
        with pytest.raises(ValueError, match="negative"):
            DensityGrid(grid, values)

    def test_roundoff_negatives_clipped(self):
        grid = SpaceGrid(0.0, 1.0, 16)
        values = np.full(16, 1.0)
        values[3] = -1e-16
        values = values / (np.sum(values) / 16)
        d = DensityGrid(grid, values)
        assert d.cell_averages.min() >= 0.0


def _dense(model):
    """The same kernels without their coefficient tables: the pairwise and mesh path."""
    return dataclasses.replace(model, drift_poly=None, cost_poly=None)


def _random_polynomial_model(rng):
    """Drift and cost tables of total degree <= 3 with standard normal coefficients."""
    a, b = np.indices((4, 4))
    low_degree = (a + b <= 3).astype(float)
    return polynomial_model(rng.normal(size=(4, 4)) * low_degree, rng.normal(size=(4, 4)) * low_degree)


class TestStructuredPath:
    @pytest.mark.parametrize("shift", [0.0, 1e3])
    @pytest.mark.parametrize("kind", ["consensus", "polynomial"])
    def test_moments_match_dense_path(self, kind, shift):
        rng = np.random.Generator(np.random.Philox(key=31))
        for _ in range(5):
            n = int(rng.integers(2, 60))
            model = consensus_model() if kind == "consensus" else _random_polynomial_model(rng)
            assert model.drift_poly is not None and model.cost_poly is not None
            dense = _dense(model)
            x = ParticleEnsemble(rng.random(n) + shift)
            grid = SpaceGrid(shift, shift + 1.0, int(rng.integers(8, 80)))
            dens = normalized_density(grid, rng.random(grid.cells))
            cases = [
                (drift(model, x), drift(dense, x)),
                (cost_grad_vector(model, x), cost_grad_vector(dense, x)),
                (mean_field_drift(model, grid.faces(), dens), mean_field_drift(dense, grid.faces(), dens)),
                (mean_field_cost_grad(model, grid.faces(), dens), mean_field_cost_grad(dense, grid.faces(), dens)),
                (mean_field_cost(model, grid.centers(), dens), mean_field_cost(dense, grid.centers(), dens)),
            ]
            for got, want in cases:
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_scalar_point_gives_float(self):
        m = consensus_model()
        grid = SpaceGrid(0.0, 1.0, 16)
        dens = normalized_density(grid, np.ones(16))
        assert isinstance(mean_field_drift(m, 0.25, dens), float)
        assert mean_field_drift(m, 0.25, dens) == pytest.approx(0.25, abs=1e-15)

    def test_stale_table_rejected_at_construction(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="drift_poly does not reproduce drift_kernel"):
            dataclasses.replace(m, drift_kernel=lambda x, y: 1.0 + 0.1 * x)
        with pytest.raises(ValueError, match="cost_poly does not reproduce cost_kernel_dx"):
            dataclasses.replace(m, cost_kernel_dx=lambda x, y: 2.0 * (x - y))
        with pytest.raises(ValueError, match="cost_poly does not reproduce cost_kernel "):
            dataclasses.replace(m, cost_poly=[[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]])

    def test_equivalent_kernels_keep_the_table(self):
        # wrapping a kernel (as a call counter does) leaves the model on the structured path
        m = consensus_model()
        wrapped = dataclasses.replace(m, drift_kernel=lambda x, y: m.drift_kernel(x, y))
        assert np.array_equal(wrapped.drift_poly, m.drift_poly)
        assert bounded_confidence_model(radius=0.5).drift_poly is None
