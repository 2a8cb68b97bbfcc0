import numpy as np
import pytest

from mfglab import (
    DensityGrid,
    ParticleEnsemble,
    SpaceGrid,
    histogram,
    moments,
    normalized_density,
    w1,
    w1_sorted_atoms,
)
from mfglab.measures import _PiecewiseCdf


def rng(key=0):
    return np.random.Generator(np.random.Philox(key=key))


class TestEmpirical:
    """A ``ParticleEnsemble`` as a measure: weight 1/N on each position, sorted where it is read."""

    def test_duplicates_kept(self):
        cdf = _PiecewiseCdf.of(ParticleEnsemble(np.array([1.0, 1.0])))
        assert np.array_equal(cdf.points, [1.0, 1.0])
        assert np.array_equal(cdf.left, [0.0, 0.0]) and np.array_equal(cdf.right, [1.0, 1.0])

    def test_sorted(self):
        unsorted = ParticleEnsemble(np.array([3.0, 1.0, 2.0]))
        ordered = ParticleEnsemble(np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(_PiecewiseCdf.of(unsorted).points, [1.0, 2.0, 3.0])
        assert w1(unsorted, ordered) == 0.0 and w1_sorted_atoms(unsorted, ordered) == 0.0
        assert moments(unsorted) == moments(ordered)
        assert np.array_equal(unsorted.positions, [3.0, 1.0, 2.0])  # read, never reordered in place

    def test_leave_one_out_size(self):
        x = np.array([0.1, 0.5, 0.9])
        e = ParticleEnsemble(np.delete(x, 1))
        assert e.n == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_atom_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            ParticleEnsemble(np.array([0.5, bad]))


class TestW1:
    def test_identical_inputs(self):
        e = ParticleEnsemble(np.array([0.2, 0.8]))
        assert w1(e, e) == 0.0

    def test_point_masses(self):
        assert w1(ParticleEnsemble(np.array([0.0])), ParticleEnsemble(np.array([1.0]))) == 1.0

    def test_sorted_matching(self):
        a = ParticleEnsemble(np.array([0.0, 1.0]))
        b = ParticleEnsemble(np.array([0.5, 0.5]))
        assert w1(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_order_statistics_identity(self):
        g = rng(7)
        worst = 0.0
        for _ in range(100):
            n = int(g.integers(1, 50))
            a = ParticleEnsemble(g.normal(size=n))
            b = ParticleEnsemble(g.normal(size=n))
            worst = max(worst, abs(w1(a, b) - w1_sorted_atoms(a, b)))
        assert worst <= 1e-12

    def test_metric_axioms_on_random_triples(self):
        g = rng(13)
        grid = SpaceGrid(-3.0, 3.0, 64)
        for _ in range(25):
            a = ParticleEnsemble(g.normal(size=int(g.integers(1, 20))))
            b = ParticleEnsemble(g.normal(size=int(g.integers(1, 20))))
            c = normalized_density(grid, np.exp(-((grid.centers() - g.normal()) ** 2)))
            dab, dba = w1(a, b), w1(b, a)
            assert dab == dba  # symmetry, exactly
            assert w1(a, a) == 0.0
            dac, dcb = w1(a, c), w1(c, b)
            assert dab <= dac + dcb + 1e-12  # triangle inequality

    def test_grid_vs_empirical_projection_bound(self):
        g = rng(3)
        grid = SpaceGrid(0.0, 1.0, 128)
        for _ in range(20):
            xs = g.random(40)
            assert w1(ParticleEnsemble(xs), histogram(xs, grid)) <= grid.dx + 1e-15

    def test_unnormalized_density_rejected(self):
        grid = SpaceGrid(0.0, 1.0, 16)
        bad = DensityGrid.__new__(DensityGrid)
        bad.grid = grid
        bad.cell_averages = np.full(16, 0.5)
        bad.clipped_mass = 0.0
        with pytest.raises(ValueError, match="mass"):
            w1(bad, ParticleEnsemble(np.array([0.5])))

    def test_density_vs_density_shifted_uniform(self):
        # uniform on [0,1] vs uniform on [0.25, 1.25]: transport distance is the shift
        grid = SpaceGrid(-0.5, 2.0, 1000)
        x = grid.centers()
        a = normalized_density(grid, ((x >= 0.0) & (x < 1.0)).astype(float))
        b = normalized_density(grid, ((x >= 0.25) & (x < 1.25)).astype(float))
        assert w1(a, b) == pytest.approx(0.25, abs=1e-12)


def w1_with_unique(a, b) -> float:
    """``w1`` as written with ``np.unique`` for the merged breakpoints: the reference for its bits."""
    fa, fb = _PiecewiseCdf.of(a), _PiecewiseCdf.of(b)
    points = np.unique(np.concatenate([fa.points, fb.points]))
    if points.size == 1:
        return 0.0
    starts, ends = points[:-1], points[1:]
    c = fa.eval(starts, "right") - fb.eval(starts, "right")
    d = fa.eval(ends, "left") - fb.eval(ends, "left")
    length = ends - starts
    trapezoid = 0.5 * (np.abs(c) + np.abs(d)) * length
    denom = np.abs(c) + np.abs(d)
    with np.errstate(invalid="ignore", divide="ignore"):
        crossing = np.where(denom > 0, 0.5 * length * (c * c + d * d) / denom, 0.0)
    return float(np.sum(np.where(c * d >= 0.0, trapezoid, crossing)))


class TestW1TiedAtoms:
    """Ties within one measure and across both: the merged breakpoints keep the bits of ``np.unique``."""

    @pytest.mark.parametrize("xs, ys", [
        ([0.5, 0.5, 0.5], [0.5, 0.5]),
        ([0.0, 0.25, 0.25, 1.0], [0.25, 0.5, 0.5, 1.0, 1.0]),
        ([-0.0, 0.0, 0.1], [0.0, 0.1, 0.1, 0.3]),
        ([0.2] * 7 + [0.9], [0.2, 0.9] * 4),
    ])
    def test_bitwise_equal_to_unique(self, xs, ys):
        a, b = ParticleEnsemble(np.array(xs)), ParticleEnsemble(np.array(ys))
        for first, second in ((a, b), (b, a), (a, a)):
            assert w1(first, second) == w1_with_unique(first, second)

    def test_random_ties_and_grid_faces(self):
        gen = rng(3)
        grid = SpaceGrid(0.0, 1.0, 16)
        density = normalized_density(grid, np.ones(16))
        for _ in range(50):
            # atoms on a coarse lattice tie with each other and with the grid's faces
            a = ParticleEnsemble(gen.integers(0, 9, size=gen.integers(1, 12)) / 8.0)
            b = ParticleEnsemble(gen.integers(0, 17, size=gen.integers(1, 12)) / 16.0)
            for first, second in ((a, b), (a, density), (density, b)):
                assert w1(first, second) == w1_with_unique(first, second)


class TestMoments:
    def test_point_mass(self):
        mass, mean, var = moments(ParticleEnsemble(np.array([2.5])))
        assert (mass, mean, var) == (1.0, 2.5, 0.0)

    def test_symmetric_grid_density(self):
        grid = SpaceGrid(-1.0, 3.0, 256)
        d = normalized_density(grid, np.exp(-4 * (grid.centers() - 1.0) ** 2))
        mass, mean, _ = moments(d)
        assert mass == pytest.approx(1.0, abs=1e-13)
        assert mean == pytest.approx(1.0, abs=1e-13)

    def test_uniform_variance(self):
        grid = SpaceGrid(0.0, 1.0, 8)
        d = normalized_density(grid, np.ones(8))
        _, mean, var = moments(d)
        assert mean == pytest.approx(0.5, abs=1e-13)
        # cell-center spread 1/12 - dx^2/12 plus the intra-cell variance dx^2/12
        assert abs(var - 1.0 / 12.0) <= 1e-15
