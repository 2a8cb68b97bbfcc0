import dataclasses
import itertools
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mfglab import (
    ConfigError,
    ControlProfile,
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
from mfglab.grids import (TIME_TOL, DensityGrid, DensityTrajectory, SpaceGrid, _checked_rows, histogram,
                          normalized_density)
from mfglab.mfg import fp_forward, hjb_backward, mfg_fixed_point
from mfglab.model import (
    ModelSpec,
    PairKernel,
    _at_centre,
    _cell_sums,
    _contract,
    _particle_velocity,
    _power_sums,
    _quadrature,
    alpha_at,
    cost_gradient_full,
    drift_jacobian,
)


def positions(*xs):
    return np.array(xs, dtype=float)


class TestDrift:
    def test_two_particles(self):
        m = consensus_model()
        assert np.allclose(drift(m, positions(0.0, 1.0)), [0.5, -0.5])

    def test_equal_positions_give_zero(self):
        m = bounded_confidence_model(radius=0.5)
        out = drift(m, positions(*([0.3] * 5)))
        assert np.all(out == 0.0)

    def test_three_particles_mean_reversion(self):
        m = consensus_model()
        assert np.allclose(drift(m, positions(-1.0, 0.0, 1.0)), [1.0, 0.0, -1.0])

    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="at least one particle"):
            ParticleEnsemble(np.array([]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            ParticleEnsemble(np.array([0.0, np.nan]))


class TestCost:
    def test_pair(self):
        m = consensus_model()
        assert cost(m, positions(0.0, 1.0))[0] == 0.5

    def test_diagonal_vanishes(self):
        m = consensus_model()
        assert cost(m, positions(*([0.7] * 4)))[2] == 0.0

    def test_three_particles(self):
        m = consensus_model()
        assert cost(m, positions(0.0, 1.0, 2.0))[1] == 0.5

    def test_single_particle_is_domain_error(self):
        m = consensus_model()
        with pytest.raises(ValueError, match="two particles"):
            cost(m, positions(0.0))


class TestCostGrad:
    def test_pair(self):
        m = consensus_model()
        assert cost_grad_vector(m, positions(0.0, 1.0))[0] == -1.0

    def test_symmetry_center_cancels(self):
        m = consensus_model()
        assert cost_grad_vector(m, positions(0.0, 1.0, 2.0))[1] == 0.0

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
                fd = (cost(m, hi)[i] - cost(m, lo)[i]) / (2 * step)
                got = cost_grad_vector(m, x)[i]
                assert abs(got - fd) <= 1e-6 * max(1.0, abs(fd))


class TestPermutationSymmetry:
    def test_cost_and_drift_invariant_under_peer_permutation(self):
        # sorted-peer evaluation is the reference; shuffles agree to 1e-13
        rng = np.random.Generator(np.random.Philox(key=2))
        m = bounded_confidence_model(radius=0.8)
        x = rng.normal(size=7)
        peers = np.delete(x, 3)
        ref_cost = cost(m, np.concatenate([[x[3]], np.sort(peers)]))[0]
        ref_drift = drift(m, np.concatenate([[x[3]], np.sort(peers)]))[0]
        for _ in range(10):
            shuffled = np.concatenate([[x[3]], peers[rng.permutation(6)]])
            assert cost(m, shuffled)[0] == pytest.approx(ref_cost, abs=1e-13)
            assert drift(m, shuffled)[0] == pytest.approx(ref_drift, abs=1e-13)


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
        exact = drift(m, xs)
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
        p = m.drift.value
        assert float(p(np.array(0.0), np.array(0.2))) == 1.0
        assert float(p(np.array(0.0), np.array(0.6))) == 0.0
        band = float(p(np.array(0.0), np.array(0.49)))
        assert 0.0 < band < 1.0

    def test_bounded_confidence_analytic_jacobian_matches_fd(self):
        m = bounded_confidence_model(radius=0.5)
        rng = np.random.Generator(np.random.Philox(key=21))
        x = 0.5 * rng.normal(size=5)
        jac = drift_jacobian(m, x)
        step = 1e-6
        for j in range(5):
            hi = x.copy()
            hi[j] += step
            lo = x.copy()
            lo[j] -= step
            fd = (drift(m, hi) - drift(m, lo)) / (2 * step)
            assert np.max(np.abs(jac[:, j] - fd)) <= 1e-7

    def test_polynomial_derivative_tables(self):
        m = polynomial_model([[1.0, 0.5]], [[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
        x, y = np.array(0.7), np.array(-0.3)
        step = 1e-6
        fd_dx = (m.cost.value(x + step, y) - m.cost.value(x - step, y)) / (2 * step)
        fd_dy = (m.cost.value(x, y + step) - m.cost.value(x, y - step)) / (2 * step)
        assert float(m.cost.dx(x, y)) == pytest.approx(float(fd_dx), abs=1e-8)
        assert float(m.cost.dy(x, y)) == pytest.approx(float(fd_dy), abs=1e-8)

    def test_alpha_positivity_enforced(self):
        m = consensus_model(alpha=lambda t: 1.0 - 2.0 * t)
        assert alpha_at(m, 0.0) == 1.0
        with pytest.raises(ConfigError, match="positive"):
            alpha_at(m, 0.75)
        # an array of times gives every weight, each checked
        times = np.array([0.0, 0.1, 0.25])
        assert alpha_at(m, times).tobytes() == np.array([alpha_at(m, float(t)) for t in times]).tobytes()
        with pytest.raises(ConfigError, match=r"alpha\(0.75\)"):
            alpha_at(m, np.array([0.0, 0.75, 0.25]))

    def test_model_validation(self):
        with pytest.raises(ValueError, match="radius"):
            bounded_confidence_model(radius=0.0)
        for radius in (1e-308, 5e-324):  # the steepest slope, 1.5 / (0.05 radius), is not a float
            with pytest.raises(ValueError, match="window slope"):
                bounded_confidence_model(radius=radius)

    def test_window_slope_finite_for_the_smallest_radii(self):
        m = bounded_confidence_model(radius=1e-300)
        x = np.array([0.0, 0.0, 0.0, 0.0])
        y = np.array([0.0, 0.5e-300, 0.975e-300, 1.0])  # inside, inside, in the band, far
        slope = m.drift.dx(x, y)
        assert np.all(np.isfinite(slope)) and slope[2] > 1e300 and slope[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="coefficient table"):
            polynomial_model(np.zeros((1, 1, 1)), [[0.0]])

    @pytest.mark.parametrize("radius", [0.15, 0.5, 1e-300])
    def test_window_matches_the_clip_formula_bit_for_bit(self, radius):
        # the window clips by np.minimum(np.maximum(...)), which skips np.clip's Python-level wrapper
        eps = 0.05 * radius
        inner = radius - eps

        def clipped(x, y):
            theta = np.clip(radius - np.abs(x - y), 0.0, eps) / eps
            return theta * theta * (3.0 - 2.0 * theta)

        window = bounded_confidence_model(radius=radius).drift.value
        g = np.random.Generator(np.random.Philox(key=37))
        x, y = radius * g.uniform(-2.0, 2.0, (2, 64))
        mesh_x, mesh_y = x[:, None], y[None, :]
        assert window(mesh_x, mesh_y).tobytes() == clipped(mesh_x, mesh_y).tobytes()
        # pairs at r = radius, at both band edges and one float to either side, in both orders; NaN and inf
        edges = np.array([radius, inner])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        x = np.concatenate([np.zeros(12), [np.nan, 0.0, np.inf, 0.0]])
        y = np.concatenate([edges, -edges, [0.0, np.nan, 0.0, -np.inf]])
        values = window(x, y)
        assert values.tobytes() == clipped(x, y).tobytes()
        assert values[[0, 4]].tolist() == [0.0, 0.0] and 0.0 < values[2] < 1.0 and values[3] == 1.0
        assert np.isnan(values[12:14]).all() and values[14:].tolist() == [0.0, 0.0]


class TestPairKernel:
    def test_table_becomes_a_read_only_2d_float_copy(self):
        coeffs = np.array([1, 2])
        kernel = PairKernel.polynomial(coeffs)
        coeffs[0] = 5
        assert kernel.table.shape == (1, 2) and kernel.table.dtype == float
        assert kernel.table.tolist() == [[1.0, 2.0]] and not kernel.table.flags.writeable
        assert PairKernel.polynomial(3.0).table.tolist() == [[3.0]]
        assert PairKernel(kernel.value, kernel.dx, kernel.dy).table is None

    @pytest.mark.parametrize("table", [[], [[]], np.zeros((1, 1, 1))])
    def test_empty_or_not_2d_table_rejected(self, table):
        with pytest.raises(ValueError, match="nonempty 2D"):
            PairKernel(_ones, _ones, _ones, table=table)
        with pytest.raises(ValueError, match="nonempty 2D"):
            PairKernel.polynomial(table)

    def test_table_not_part_of_equality(self):
        kernel = PairKernel.polynomial([[1.0, 0.5]])
        same = dataclasses.replace(kernel, table=None)
        assert same == kernel and hash(same) == hash(kernel)


def _ones(x, y):
    return np.float64(1.0)


class TestConstructionChecks:
    def test_inconsistent_derivative_rejected_at_construction(self):
        # cost.dx with the wrong sign: its control would maximize the step cost
        with pytest.raises(ValueError, match="cost.dx does not match central differences of cost.value"):
            ModelSpec(
                drift=PairKernel(lambda x, y: np.float64(1.0), lambda x, y: np.float64(0.0),
                                 lambda x, y: np.float64(0.0)),
                cost=PairKernel(lambda x, y: 0.5 * (x - y) ** 2, lambda x, y: y - x, lambda x, y: y - x),
                alpha=lambda t: 1.0,
            )
        # at radius 0.56 the sample distance 0.55 lies inside the smoothing band
        m = bounded_confidence_model(radius=0.56)
        with pytest.raises(ValueError, match="drift.dx does not match"):
            dataclasses.replace(m, drift=dataclasses.replace(m.drift, dx=lambda x, y: 2.0 * m.drift.dx(x, y)))
        with pytest.raises(ValueError, match="drift.dy does not match"):
            dataclasses.replace(m, drift=dataclasses.replace(m.drift, dy=lambda x, y: -m.drift.dy(x, y)))
        with pytest.raises(ValueError, match="cost.dy does not match"):
            dataclasses.replace(m, cost=dataclasses.replace(m.cost, dy=m.cost.dx))

    def test_non_finite_kernel_rejected_at_construction(self):
        # wrong derivatives of log|x - y|, infinite on the diagonal of the sample
        # mesh: an infinite scale would let them pass the central-difference check
        with pytest.raises(ValueError, match="cost.dx is not finite"):
            dataclasses.replace(
                consensus_model(),
                cost=PairKernel(lambda x, y: np.log(np.abs(x - y)), lambda x, y: 7.0 / (x - y),
                                lambda x, y: 3.0 / (x - y)),
            )

    @pytest.mark.parametrize("radius", [0.55, 0.55 / 0.95, 1.1])
    def test_band_edge_on_a_sample_distance_is_accepted(self, radius):
        # a sample distance on an edge of the C1 window's band, where central
        # differences miss the analytic derivative by up to 2e-3
        m = bounded_confidence_model(radius=radius)
        assert m.drift.table is None


class TestAdjointInputs:
    def test_cost_gradient_full_matches_fd(self):
        m = consensus_model()
        rng = np.random.Generator(np.random.Philox(key=3))
        x = rng.normal(size=4)
        i = 1
        grad = cost_gradient_full(m, x)[i]
        for j in range(4):
            step = 1e-6
            hi = x.copy()
            hi[j] += step
            lo = x.copy()
            lo[j] -= step
            fd = (cost(m, hi)[i] - cost(m, lo)[i]) / (2 * step)
            assert grad[j] == pytest.approx(fd, abs=1e-8)

    def test_drift_jacobian_matches_fd(self):
        m = consensus_model()
        rng = np.random.Generator(np.random.Philox(key=4))
        x = rng.normal(size=4)
        jac = drift_jacobian(m, x)
        for j in range(4):
            step = 1e-6
            hi = x.copy()
            hi[j] += step
            lo = x.copy()
            lo[j] -= step
            fd = (drift(m, hi) - drift(m, lo)) / (2 * step)
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


class TestControlProfile:
    """Controls are time first: values[l, i] for 4 steps of 3 players on t = 0, 0.25, ..., 1."""

    TIMES = np.linspace(0.0, 1.0, 5)

    def test_time_first_values(self):
        profile = ControlProfile(np.zeros((4, 3)), self.TIMES + 0.5 * TIME_TOL)
        assert profile.n_steps == 4 and profile.dt == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("values, times, needle", [
        (np.zeros((0, 3)), TIMES[:1], "at least two points"),
        (np.full((4, 3), np.inf), TIMES, "non-finite control value"),
        (np.zeros((4, 3)), TIMES[[0, 2, 1, 3, 4]], "strictly increasing"),
        (np.zeros((4, 3)), TIMES + 2.0 * TIME_TOL, "must start at 0"),
        (np.zeros((3, 4)), TIMES, r"values must have shape \(4, N\), got \(3, 4\)"),  # player-major
        (np.zeros(4), TIMES, r"values must have shape \(4, N\), got \(4,\)"),
    ], ids=["one-time", "non-finite", "not-increasing", "late-start", "player-major", "one-dimensional"])
    def test_refusals(self, values, times, needle):
        with pytest.raises(ValueError, match=needle):
            ControlProfile(values, times)


def _dense(model):
    """The same kernels without their coefficient tables: the pairwise and mesh path."""
    return dataclasses.replace(model, drift=dataclasses.replace(model.drift, table=None),
                               cost=dataclasses.replace(model.cost, table=None))


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
            assert model.drift.table is not None and model.cost.table is not None
            dense = _dense(model)
            grid = SpaceGrid(shift, shift + 1.0, int(rng.integers(8, 80)))
            dens = normalized_density(grid, rng.random(grid.cells))
            cases = [
                (mean_field_drift(model, grid.faces(), dens), mean_field_drift(dense, grid.faces(), dens)),
                (mean_field_cost_grad(model, grid.faces(), dens), mean_field_cost_grad(dense, grid.faces(), dens)),
                (mean_field_cost(model, grid.centers(), dens), mean_field_cost(dense, grid.centers(), dens)),
            ]
            for x in (rng.random(n) + shift, rng.random((int(rng.integers(1, 7)), n)) + shift):
                cases += [(drift(model, x), drift(dense, x)), (cost_grad_vector(model, x), cost_grad_vector(dense, x))]
                cases += zip(_particle_velocity(model, x), (drift(dense, x), cost_grad_vector(dense, x)))
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
        with pytest.raises(ValueError, match="drift.table does not reproduce drift.value"):
            dataclasses.replace(m, drift=dataclasses.replace(m.drift, value=lambda x, y: 1.0 + 0.1 * x))
        with pytest.raises(ValueError, match="cost.table does not reproduce cost.dx"):
            dataclasses.replace(m, cost=dataclasses.replace(m.cost, dx=lambda x, y: 2.0 * (x - y)))
        with pytest.raises(ValueError, match="cost.table does not reproduce cost.value "):
            dataclasses.replace(
                m, cost=dataclasses.replace(m.cost, table=[[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_equivalent_kernels_keep_the_table(self):
        # wrapping a kernel (as a call counter does) leaves the model on the structured path
        m = consensus_model()
        wrapped = dataclasses.replace(m, drift=dataclasses.replace(m.drift, value=lambda x, y: m.drift.value(x, y)))
        assert np.array_equal(wrapped.drift.table, m.drift.table)
        assert bounded_confidence_model(radius=0.5).drift.table is None


class TestCompiledOperators:
    """Each table quantity compiles once into exact coefficients of the centre c and the offsets u, v."""

    @pytest.mark.parametrize("table", [[[0.0, 0.0, 1.0], [0.0, -2.0, 0.0], [1.0, 0.0, 0.0]],
                                       [[0.0, 0.0, 0.0, -0.25], [0.0, 0.0, 0.75, 0.0], [0.0, -0.75, 0.0, 0.0],
                                        [0.25, 0.0, 0.0, 0.0]]])
    def test_translation_invariant_tables_are_centre_free(self, table):
        # (x - y)^2 and (x - y)^3 / 4 as drift and cost
        for model in (consensus_model(), polynomial_model(table, table)):
            for operator in model._operators.values():
                assert operator.coeffs.shape[0] == 1

    def test_consensus_operators_are_exact_and_have_no_self_pair(self):
        particles = consensus_model()._operators["particles"]
        assert particles.quantities == ("drift", "cost_grad")
        assert particles.coeffs.shape[-1] == particles.powers == 2  # d_x phi(x, x) = 0: no self-pair column
        # P(x, y)(y - x) = v - u and d_x phi = u - v
        assert particles.coeffs.tolist() == [[[[0.0, 1.0], [-1.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]]]]

    def test_centre_dependent_table_keeps_its_centre_powers(self):
        model = _cubic_model()
        particles, grid = model._operators["particles"], model._operators["grid"]
        assert particles.coeffs.shape[0] == grid.coeffs.shape[0] == 3
        assert grid.quantities == ("drift", "cost_grad", "cost")
        # the cubic cost's slope does not vanish on the diagonal: one column past the power sums
        assert particles.coeffs.shape[-1] == particles.powers + 1
        # P = 1 + 0.2 x + 0.3 y about c: 1 + 0.5 c + 0.2 u + 0.3 v; the drift's v coefficient is that at u = 0
        assert particles.coeffs[:2, 0, 0, 1].tolist() == [1.0, 0.5]

    def test_coefficients_past_the_floats_rejected_at_construction(self):
        # 4e307 x^4 and its derivatives are finite on the samples, but its expansion about c has 6 * 4e307 c^2 u^2
        quartic = [[0.0, 0.0]] * 4 + [[4e307, 0.0]]
        with pytest.raises(ValueError, match="drift.table overflows: a coefficient of its expansion"):
            polynomial_model(quartic, [[0.0]])
        with pytest.raises(ValueError, match="cost.table overflows: a coefficient of its expansion"):
            polynomial_model([[1.0]], quartic)

    def test_dense_kernels_compile_nothing(self):
        assert bounded_confidence_model(radius=0.5)._operators == {}
        assert list(_mixed_model()._operators) == ["particles", "grid"]
        assert _mixed_model()._operators["grid"].quantities == ("drift",)


MEAN_FIELD = (mean_field_drift, mean_field_cost, mean_field_cost_grad)


def _bump_density(grid):
    return normalized_density(grid, np.exp(-20.0 * (grid.centers() - 0.45) ** 2))


def _uncached(kernel, xs, m, weight_shift):
    """The midpoint quadrature evaluated from scratch, in the same operations as the model."""
    centers = m.grid.centers()
    vals = np.asarray(kernel(xs[:, None], centers[None, :]), dtype=float)
    if weight_shift:
        vals = vals * (centers[None, :] - xs[:, None])
    return np.add.accumulate(vals * (m.cell_averages[None, :] * m.grid.dx), axis=1)[:, -1]


class TestDenseQuadrature:
    """Dense kernel matrices: evaluated afresh by every call, and once per point set by every march."""

    grid = SpaceGrid(0.0, 1.0, 64)

    def test_grid_points_bitwise_equal_from_scratch(self):
        # one model on two grids, the faces of one bitwise the centers of the
        # other: each grid integrates against its own cells
        model = bounded_confidence_model(radius=0.15)
        for grid in (self.grid, SpaceGrid(-1 / 128, 1 + 1 / 128, 65)):
            dens = _bump_density(grid)
            for xs in (grid.centers(), grid.faces()):
                want = [
                    _uncached(model.drift.value, xs, dens, True),
                    _uncached(model.cost.value, xs, dens, False),
                    _uncached(model.cost.dx, xs, dens, False),
                ]
                for fn, ref in zip(MEAN_FIELD, want):
                    first = fn(model, xs, dens)
                    assert _same_bits(first, ref)
                    assert _same_bits(fn(model, xs.copy(), dens), first)
                    assert _same_bits(fn(bounded_confidence_model(radius=0.15), xs, dens), first)

    def test_scalar_and_off_grid_points(self):
        model = bounded_confidence_model(radius=0.15)
        dens = _bump_density(self.grid)
        shifted = self.grid.faces() + 1e-3
        for fn in MEAN_FIELD:
            assert isinstance(fn(model, 0.3, dens), float)
            assert np.array_equal(fn(model, shifted, dens), fn(model, shifted, dens))

    def test_replace_keeps_equality_and_takes_the_new_drift(self):
        model = bounded_confidence_model(radius=0.15)
        dens = _bump_density(self.grid)
        centers = self.grid.centers()
        assert model == dataclasses.replace(model) and hash(model) == hash(dataclasses.replace(model))
        other = bounded_confidence_model(radius=0.3)
        replaced = dataclasses.replace(model, drift=other.drift)
        got = mean_field_drift(replaced, centers, dens)
        assert _same_bits(got, mean_field_drift(other, centers, dens))
        assert not np.array_equal(got, mean_field_drift(model, centers, dens))

    def test_concurrent_calls_agree(self):
        # threads sharing one model see the same results as one thread
        dens = _bump_density(self.grid)
        points = (self.grid.centers(), self.grid.faces())
        reference = bounded_confidence_model(radius=0.15)
        want = [fn(reference, xs, dens) for xs in points for fn in MEAN_FIELD]
        model = bounded_confidence_model(radius=0.15)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: [fn(model, xs, dens) for xs in points for fn in MEAN_FIELD])
                           for _ in range(16)]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            assert all(_same_bits(g, w) for g, w in zip(got, want))

    def test_one_matrix_per_role_grid_and_point_set(self):
        # a value and a density march evaluate each kernel once per point set,
        # however many steps they take
        evals = {}

        def counted(name, kernel):
            def kernel_counted(x, y):
                evals[name] = evals.get(name, 0) + np.broadcast(x, y).size
                return kernel(x, y)
            return kernel_counted

        base = bounded_confidence_model(radius=0.15)
        model = dataclasses.replace(
            base,
            drift=dataclasses.replace(base.drift, value=counted("drift.value", base.drift.value)),
            cost=dataclasses.replace(base.cost, value=counted("cost.value", base.cost.value),
                                     dx=counted("cost.dx", base.cost.dx)),
        )
        evals.clear()  # forget the construction-time checks
        m0 = _bump_density(self.grid)
        times = 0.002 * np.arange(11)
        path = DensityTrajectory(self.grid, times, np.tile(m0.cell_averages, (times.size, 1)))
        fp_forward(model, hjb_backward(model, path), m0)
        cells = self.grid.cells
        assert evals == {"drift.value": cells * cells + (cells + 1) * cells, "cost.value": cells * cells}
        # the Picard loop: one density march from the start, then one value and one density march per
        # iteration; no Anderson candidate refused, so none evaluated twice
        evals.clear()
        result = mfg_fixed_point(model, m0, 0.5, 0.005)
        assert result.converged and result.rejected_steps == 0 and result.restarts == 0
        assert result.iterations == 5 and result.accelerated_steps == 3
        marches = result.iterations
        assert evals == {"drift.value": marches * cells * cells + (marches + 1) * (cells + 1) * cells,
                         "cost.value": marches * cells * cells}


def _mixed(rng, shape):
    """Normal draws over 300 decades with subnormals, signed zeros and tiny values mixed in."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-150, 150, size=shape)
    pick = rng.random(shape)
    a[pick < 0.05] = 5e-324 * rng.integers(-5, 6, size=shape)[pick < 0.05]
    a[(pick >= 0.05) & (pick < 0.1)] = 0.0
    a[(pick >= 0.1) & (pick < 0.15)] = -0.0
    a[(pick >= 0.15) & (pick < 0.3)] *= 1e-20
    return a


def _ascending(terms):
    """Reference: column sums of (M, Q) terms, strictly in ascending row order."""
    return np.add.accumulate(terms.T, axis=1)[:, -1]


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReductionOrder:
    """Pins the numpy einsum loop that the cell-major quadrature relies on.

    A numpy build whose einsum fuses the multiply and the add (FMA in its
    baseline, as on aarch64) rounds once where the reference rounds twice and fails here.
    """

    def test_einsum_adds_rows_in_order(self):
        # "lk,kq->lq" with Q >= 2 adds w[l, k] * vals[k, :] into each output row
        # one cell at a time, from +0.0: bit for bit the ascending sums, except
        # that an all-negative-zero sum comes back +0.0, which _cell_sums repairs
        rng = np.random.Generator(np.random.Philox(key=41))
        negative_zeros = 0
        for _ in range(300):
            m, q = int(rng.integers(1, 301)), int(rng.integers(2, 301))
            vals = _mixed(rng, (m, q))
            vals[:, rng.integers(q)] = -0.0  # all -0.0 products in the rows without a -0.0 weight
            weights = np.abs(_mixed(rng, (int(rng.integers(1, 6)), m)))
            weights[rng.random(weights.shape) < 0.05 / m] = -0.0
            raw, got = np.einsum("lk,kq->lq", weights, vals), _cell_sums(vals, weights)
            for row, cells, w in zip(raw, got, weights):
                want = _ascending(vals * w[:, None])
                nonzero = want != 0.0
                negative_zeros += int(np.count_nonzero(np.signbit(want[~nonzero])))
                assert _same_bits(row[nonzero], want[nonzero])
                assert _same_bits(cells, want)
        assert negative_zeros > 0

    def test_cell_sums_match_ascending_sums(self):
        rng = np.random.Generator(np.random.Philox(key=43))
        for _ in range(60):
            m, q = int(rng.integers(1, 120)), int(rng.integers(1, 120))
            vals = _mixed(rng, (m, q))
            weights = np.abs(_mixed(rng, (int(rng.integers(1, 5)), m)))
            got = _cell_sums(vals, weights)
            for row, w in zip(got, weights):
                assert _same_bits(row, _ascending(vals * w[:, None]))

    def test_single_point_is_summed_pairwise_by_numpy(self):
        # the measured exception: with Q = 1 the reduced axis is contiguous and
        # einsum, like np.add.reduce, sums it in partial sums, so the bits move
        # (102 of these 300 shapes on numpy 2.4); _cell_sums sums a single
        # point as the first of two equal columns
        rng = np.random.Generator(np.random.Philox(key=47))
        moved = 0
        for _ in range(300):
            a = _mixed(rng, (int(rng.integers(1, 301)), 1))
            ones = np.ones((1, a.shape[0]))
            moved += not _same_bits(np.einsum("lk,kq->lq", ones, a), _ascending(a)[None, :])
            assert _same_bits(_cell_sums(a, ones), _ascending(a)[None, :])
        assert moved > 0

    def test_all_negative_zero_column_keeps_its_sign(self):
        # einsum starts every sum from +0.0 and returns +0.0 here; a -0.0 weight
        # makes a -0.0 product of a +0.0 value, and a +0.0 weight a +0.0 product of -0.0
        vals = np.array([[-0.0, 1.0, 0.0], [-0.0, 2.0, 0.0], [-0.0, -0.0, 0.0]])
        for weights in (np.ones((1, 3)), np.ones((3, 3)), np.array([[1.0, -0.0, 2.0], [-0.0, -0.0, -0.0]])):
            for row, w in zip(_cell_sums(vals, weights), weights):
                want = _ascending(vals * w[:, None])
                assert _same_bits(row, want)
                assert np.signbit(row[0]) == (not np.any(np.signbit(w))) and np.signbit(row[2]) == np.all(np.signbit(w))
            for column in range(3):
                assert _same_bits(_cell_sums(vals[:, column:column + 1], weights)[:, 0],
                                  _cell_sums(vals, weights)[:, column])


def _cubic_model():
    """A polynomial model whose cost has cubic terms: the structured path."""
    return polynomial_model(
        [[1.0, 0.3], [0.2, 0.0]],
        [[0.0, 0.0, 0.5, 0.2], [0.0, -1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [-0.2, 0.0, 0.0, 0.0]],
    )


def _random_path(grid, slices, seed):
    """Unit-mass rows with empty cells, one row with a round-off negative that densities clip."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = rng.random((slices, grid.cells)) * (rng.random((slices, grid.cells)) > 0.3)
    rows[:, grid.cells // 2] += 0.1
    rows[1, 0] = 0.0
    rows /= rows.sum(axis=1, keepdims=True) * grid.dx
    rows[1, 0] = -1e-17
    return DensityTrajectory(grid, 0.01 * np.arange(slices), rows)


class TestPathQuadrature:
    grid = SpaceGrid(0.0, 1.0, 48)

    @pytest.mark.parametrize("kind", ["dense", "structured"])
    def test_path_rows_equal_slice_calls(self, kind):
        model = bounded_confidence_model(radius=0.15) if kind == "dense" else _cubic_model()
        assert (model.cost.table is None) == (kind == "dense")
        path = _random_path(self.grid, 7, seed=53)
        assert path.density(1).clipped_mass > 0.0
        points = (self.grid.centers(), self.grid.faces(), self.grid.faces() + 1e-3, 0.3)
        for fn in MEAN_FIELD:
            for x in points:
                got = fn(model, x, path)
                assert got.shape == (len(path),) + np.shape(x)
                for step in range(len(path)):
                    assert _same_bits(got[step], np.asarray(fn(model, x, path.density(step))))

    def test_scalar_point_matches_ascending_sum(self):
        # one query point takes the cell-by-cell accumulator, not the pairwise reduction
        model = bounded_confidence_model(radius=0.5)
        dens = _bump_density(self.grid)
        for x in (0.3, np.array([0.3])):
            got = np.atleast_1d(mean_field_cost(model, x, dens))
            assert _same_bits(got, _uncached(model.cost.value, np.atleast_1d(x), dens, False))

    def test_path_rows_clipped_like_densities(self):
        path = _random_path(self.grid, 4, seed=57)
        rows = _checked_rows(self.grid, path.data)
        assert rows[1, 0] == 0.0 and path.data[1, 0] < 0.0
        for step in range(len(path)):
            assert _same_bits(rows[step], path.density(step).cell_averages)

    def test_invalid_path_rows_rejected_like_densities(self):
        model = bounded_confidence_model(radius=0.15)
        for bad, message in ((np.nan, "non-finite"), (-1e-9, "negative cell average"), (5.0, "density mass")):
            path = _random_path(self.grid, 3, seed=59)
            path.data[2, 3] = bad
            with pytest.raises(ValueError, match=message):
                DensityGrid(self.grid, path.data[2])
            for fn in MEAN_FIELD:
                with pytest.raises(ValueError, match=message):
                    fn(model, self.grid.centers(), path)


def _mixed_model():
    """A drift with a coefficient table beside a dense cost: centred power sums and a pair mesh in one model."""
    return ModelSpec(PairKernel.polynomial([[1.0, 0.3], [0.2, 0.0]]), bounded_confidence_model(0.3).cost, lambda t: 1.0)


STACK_MODELS = {
    "consensus": consensus_model,
    "bounded_confidence": lambda: bounded_confidence_model(radius=0.15),
    "cubic": _cubic_model,
    "mixed": _mixed_model,
}


class TestStackedAdjointInputs:
    """An (S, N) stack of states gives, bit for bit, every particle function of each row alone."""

    FUNCTIONS = (drift, cost, cost_grad_vector, cost_gradient_full, drift_jacobian)
    # Drift kernels of two result shapes that ``_pair_eval`` must copy out to the full mesh:
    # consensus returns a scalar, and P(x, y) = 1 + x^2 / 4 depends on x only, so it returns (..., N, 1).
    MODELS = {
        "column_kernel": ModelSpec(
            drift=PairKernel(lambda x, y: 1.0 + 0.25 * x * x, lambda x, y: 0.5 * x, lambda x, y: np.float64(0.0)),
            cost=PairKernel(lambda x, y: 0.5 * (x - y) ** 2, lambda x, y: x - y, lambda x, y: y - x),
            alpha=lambda t: 1.0,
        ),
        **{name: make() for name, make in STACK_MODELS.items()},
    }

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(MODELS)),
        states=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(2, 12)),
                      elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)),
    )
    def test_stack_matches_per_ensemble_calls(self, name, states):
        m = self.MODELS[name]
        n = states.shape[-1]
        for fn in self.FUNCTIONS:
            stacked = fn(m, states)
            assert stacked.shape == states.shape + ((n,) if fn in (cost_gradient_full, drift_jacobian) else ())
            for row, got in zip(states, stacked):
                assert _same_bits(got, fn(m, row.copy()))


class TestStackedParticleVelocity:
    """One evaluation of an (S, N) stack gives, bit for bit, ``drift`` and ``cost_grad_vector`` of each row."""

    @pytest.mark.parametrize("name", sorted(STACK_MODELS))
    def test_rows_equal_public_calls(self, name):
        model = STACK_MODELS[name]()
        rng = np.random.Generator(np.random.Philox(key=71))
        for shape in ((1, 2), (3, 7), (5, 40)):
            states = rng.normal(size=shape) * 0.6 + rng.normal()
            drifts, slopes = _particle_velocity(model, states)
            assert drifts.shape == slopes.shape == shape
            for row, f, s in zip(states, drifts, slopes):
                assert _same_bits(f, drift(model, row.copy()))
                assert _same_bits(s, cost_grad_vector(model, row.copy()))
            one_drift, one_slopes = _particle_velocity(model, states[0])
            assert _same_bits(one_drift, drifts[0]) and _same_bits(one_slopes, slopes[0])

    def test_single_particle_rejected(self):
        with pytest.raises(ValueError, match="at least two particles"):
            _particle_velocity(consensus_model(), np.zeros((3, 1)))

    @pytest.mark.parametrize("table", [[[1.0]], [[1.0, 0.3], [0.2, 0.0]], [[0.5, -1.0, 0.25], [2.0, 0.0, 0.0]]])
    def test_operator_of_an_array_of_centres(self, table):
        model = polynomial_model(table, [[0.0, 0.0, 0.2], [0.3, 0.0, 0.0], [0.0, 0.1, 0.0]])
        coeffs = model._operators["particles"].coeffs
        centres = np.array([-1.5, 0.0, 0.37, 2e3])
        stacked = np.broadcast_to(_at_centre(coeffs, centres), (centres.size, *coeffs.shape[1:]))
        for centre, got in zip(centres, stacked):
            assert _same_bits(np.ascontiguousarray(got), _at_centre(coeffs, float(centre)))


class TestSharedQuadrature:
    """Several quantities from one ``_quadrature`` pass equal, bit for bit, their separate mean-field calls."""

    grid = SpaceGrid(-0.2, 1.1, 40)
    PUBLIC = {"drift": mean_field_drift, "cost_grad": mean_field_cost_grad, "cost": mean_field_cost}

    @pytest.mark.parametrize("name", ["bounded_confidence", "cubic", "consensus", "mixed"])
    @pytest.mark.parametrize("quantities", [("drift", "cost_grad"), ("drift", "cost", "cost_grad"), ("cost",),
                                            ("drift", "cost")])
    def test_one_pass_equals_separate_calls(self, name, quantities):
        model = STACK_MODELS[name]()
        path = _random_path(self.grid, 5, seed=61)
        weights = _checked_rows(self.grid, path.data) * self.grid.dx
        for xs in (self.grid.faces(), self.grid.centers(), self.grid.faces() + 1e-3):
            evaluate = _quadrature(model, quantities, xs, self.grid)
            for rows in (weights[2:3], weights):
                got = evaluate(rows)
                assert len(got) == len(quantities)
                for quantity, sums in zip(quantities, got):
                    if rows.shape[0] == 1:
                        want = self.PUBLIC[quantity](model, xs, path.density(2))[None]
                    else:
                        want = self.PUBLIC[quantity](model, xs, path)
                    assert _same_bits(np.ascontiguousarray(sums), want)

    @pytest.mark.parametrize("name", ["consensus", "cubic"])
    def test_trimmed_rows_equal_the_padded_operator(self, name):
        # a subset of the table quantities takes only the u powers and moments of its own rows; the rows
        # padded to the shape of all three, as the "grid" operator stores them, give the same bits
        model = consensus_model() if name == "consensus" else polynomial_model(  # the CI's cubic model
            [[1.0, 0.3], [0.2, 0.0]],
            [[0.0, 0.0, 0.5, 0.2], [0.0, -1.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [-0.2, 0.0, 0.0, 0.0]])
        operator = model._operators["grid"]
        weights = _checked_rows(self.grid, _random_path(self.grid, 5, seed=62).data) * self.grid.dx
        centre = 0.5 * (self.grid.x_min + self.grid.x_max)
        padded_sums = _power_sums(self.grid.centers() - centre, weights, operator.powers - 1)
        for xs in (self.grid.faces(), self.grid.centers(), self.grid.faces() + 1e-3):
            for size in (1, 2, 3):
                for quantities in itertools.permutations(operator.quantities, size):
                    picks = [operator.quantities.index(quantity) for quantity in quantities]
                    padded = _contract(_at_centre(operator.coeffs, centre)[picks], padded_sums, xs - centre)
                    for k, sums in enumerate(_quadrature(model, quantities, xs, self.grid)(weights)):
                        assert _same_bits(np.ascontiguousarray(sums), np.ascontiguousarray(padded[:, k]))

    def test_dense_overflow_gives_inf_without_a_warning(self):
        # finite cell terms whose sum exceeds the floats: the sum is inf and numpy does not warn
        model = ModelSpec(PairKernel(_zero_kernel, _zero_kernel, _zero_kernel),
                          PairKernel(lambda x, y: np.float64(1e308), _zero_kernel, _zero_kernel), lambda t: 1.0)
        xs = self.grid.centers()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drift_part, cost_part = _quadrature(model, ("drift", "cost"), xs, self.grid)(np.ones((2, self.grid.cells)))
        assert _same_bits(cost_part, np.full((2, xs.size), np.inf))
        assert _same_bits(drift_part, np.zeros((2, xs.size)))


def _zero_kernel(x, y):
    return np.float64(0.0)
