"""Spatial grids, cell-averaged densities and uniform time grids.

A ``SpaceGrid`` covers ``[x_min, x_max]`` with ``cells`` uniform cells.
Densities are stored as cell averages, so a probability density satisfies
``sum(cell_averages) * dx == 1``. Every solver marches on the time grid
``t_l = l * dt`` of ``time_grid`` and reads its step back with ``uniform_dt``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-12
NEGATIVE_TOL = 1e-15
TIME_TOL = 1e-12  # slack for dt dividing the horizon and for uniform steps
_MAX_POINTS = np.iinfo(np.intp).max // 8  # the most float64 entries numpy can describe in one array


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform 1D grid: cell k covers [x_min + k*dx, x_min + (k+1)*dx)."""

    x_min: float
    x_max: float
    cells: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ValueError(f"empty domain: x_min={self.x_min} >= x_max={self.x_max}")
        if self.cells < 8:
            raise ValueError(f"grid needs at least 8 cells, got {self.cells}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.cells

    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.cells) + 0.5) * self.dx

    def faces(self) -> np.ndarray:
        return self.x_min + np.arange(self.cells + 1) * self.dx


def grid_for_support(lo: float, hi: float, cells: int) -> SpaceGrid:
    """Grid covering [lo, hi] plus a margin of 25% of the support width (12.5% per side)."""
    width = hi - lo
    if width <= 0:
        raise ValueError(f"empty support [{lo}, {hi}]")
    return SpaceGrid(lo - 0.125 * width, hi + 0.125 * width, cells)


@dataclass
class DensityGrid:
    """Cell-averaged probability density on a SpaceGrid.

    Tiny negative averages (round-off from conservative updates) are clipped to
    zero on construction; the removed mass is kept in ``clipped_mass``.
    """

    grid: SpaceGrid
    cell_averages: np.ndarray
    clipped_mass: float = field(default=0.0, compare=False)

    def __post_init__(self):
        values = np.asarray(self.cell_averages, dtype=float)
        if values.shape != (self.grid.cells,):
            raise ValueError(f"expected {self.grid.cells} cell averages, got shape {values.shape}")
        checked = _checked_rows(self.grid, values)
        if checked is not values:
            self.clipped_mass = float(-np.sum(values[values < 0.0]) * self.grid.dx)
        self.cell_averages = checked

    @property
    def mass(self) -> float:
        return float(np.sum(self.cell_averages) * self.grid.dx)


def _checked_rows(grid: SpaceGrid, values: np.ndarray) -> np.ndarray:
    """Cell averages of one density, or a stack of them (one per row), as ``DensityGrid`` holds them.

    Raises ``ValueError`` for a non-finite entry, an entry below
    ``-NEGATIVE_TOL`` or a row whose mass is off 1 by more than ``MASS_TOL``.
    Round-off negatives are clipped to zero in a copy; without them
    ``values`` itself is returned.
    """
    if values.size == 0:
        return values
    if not np.isfinite(values).all():
        raise ValueError("non-finite cell average")
    worst = values.min()
    if worst < -NEGATIVE_TOL:
        raise ValueError(f"negative cell average {worst:.3e} below round-off tolerance")
    if worst < 0.0:
        values = values.clip(min=0.0)
    masses = values.sum(axis=-1) * grid.dx
    off = abs(masses - 1.0) > MASS_TOL
    if off.any():
        mass = float(np.extract(off, masses)[0])
        raise ValueError(f"density mass {mass!r} deviates from 1 by more than {MASS_TOL}")
    return values


def normalized_density(grid: SpaceGrid, values: np.ndarray) -> DensityGrid:
    """Rescale nonnegative cell values to unit mass."""
    values = np.asarray(values, dtype=float)
    mass = np.sum(values) * grid.dx
    if not mass > 0.0:
        raise ValueError("cannot normalize a density with nonpositive mass")
    return DensityGrid(grid, values / mass)


def histogram(positions: np.ndarray, grid: SpaceGrid) -> DensityGrid:
    """Project particle positions to a DensityGrid, mass 1/N per particle into its cell."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 1 or positions.size == 0:
        raise ValueError("positions must be a nonempty 1D array")
    if not np.all(np.isfinite(positions)):
        raise ValueError("non-finite particle position")
    if positions.min() < grid.x_min or positions.max() > grid.x_max:
        raise ValueError("particle outside the grid domain")
    idx = np.floor((positions - grid.x_min) / grid.dx).astype(int)
    idx = idx.clip(0, grid.cells - 1)  # x == x_max lands in the last cell
    counts = np.bincount(idx, minlength=grid.cells).astype(float)
    return DensityGrid(grid, counts / (positions.size * grid.dx))


@dataclass
class DensityTrajectory:
    """Density snapshots m(t_l, .) on a shared grid; data row l is the slice at times[l]."""

    grid: SpaceGrid
    times: np.ndarray
    data: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (self.times.size, self.grid.cells):
            raise ValueError(
                f"data shape {self.data.shape} does not match {self.times.size} times x {self.grid.cells} cells"
            )

    def __len__(self) -> int:
        return self.times.size

    def density(self, step: int) -> DensityGrid:
        return DensityGrid(self.grid, self.data[step].copy())

    @property
    def final(self) -> DensityGrid:
        return self.density(len(self) - 1)


def step_count(horizon: float, dt: float) -> int:
    """Number of steps dt in the horizon; raises ``ValueError`` unless dt divides it to 1e-12.

    Raises ``OverflowError`` when the time grid would have more than ``_MAX_POINTS`` points.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ValueError(f"dt={dt} gives a non-finite number of steps in the horizon {horizon}")
    n_steps = int(round(steps))
    if n_steps >= _MAX_POINTS:
        raise OverflowError(f"dt={dt} gives {steps:.6g} steps in the horizon {horizon}, "
                            f"more than a time grid of {_MAX_POINTS} points holds")
    if n_steps < 1 or abs(n_steps * dt - horizon) > TIME_TOL * max(1.0, horizon):
        raise ValueError(f"dt={dt} does not divide the horizon {horizon}")
    return n_steps


def time_grid(horizon: float, dt: float) -> tuple[int, np.ndarray]:
    """Uniform grid t_l = l*dt reaching the horizon; dt must divide it to 1e-12."""
    n_steps = step_count(horizon, dt)
    return n_steps, dt * np.arange(n_steps + 1)


def uniform_dt(times: np.ndarray) -> float:
    """The step of a uniform time grid; raises unless all steps agree to 1e-12 times max(1, |last time|).

    The slack scales with the last time as ``step_count``'s does with the horizon, so
    every grid that ``time_grid`` builds is accepted, however long.
    """
    steps = np.diff(times)
    if steps.size == 0:
        raise ValueError("time grid needs at least two points")
    if np.max(np.abs(steps - steps[0])) > TIME_TOL * max(1.0, abs(times[-1])):
        raise ValueError("time grid is not uniform")
    return float(steps[0])
