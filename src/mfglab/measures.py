"""The 1D Wasserstein-1 distance and moment diagnostics of particle ensembles and densities.

In one dimension the Wasserstein-1 distance equals the L1 distance between
cumulative distribution functions. Both supported representations (a
``ParticleEnsemble``, read as weight 1/N on each position, and cell-averaged
densities) have CDFs that are linear or constant between breakpoints, so the
integral is evaluated exactly on the merged breakpoint set and no tolerance
enters the convergence experiments through the metric.
"""

from __future__ import annotations

import numpy as np

from .grids import MASS_TOL, DensityGrid
from .model import ParticleEnsemble


class _PiecewiseCdf:
    """CDF described by breakpoints with one-sided values F(p-) and F(p+).

    Between breakpoints the CDF is linear (flat for atomic measures); outside
    the breakpoints it is 0 on the left and 1 on the right.
    """

    def __init__(self, points: np.ndarray, left: np.ndarray, right: np.ndarray):
        self.points = points
        self.left = left
        self.right = right

    @classmethod
    def of(cls, measure) -> "_PiecewiseCdf":
        if isinstance(measure, ParticleEnsemble):
            pts = np.sort(measure.positions)
            left = np.searchsorted(pts, pts, side="left") / measure.n
            right = np.searchsorted(pts, pts, side="right") / measure.n
            return cls(pts, left, right)
        if isinstance(measure, DensityGrid):
            if abs(measure.mass - 1.0) > MASS_TOL:
                raise ValueError(f"density mass {measure.mass!r} is not 1")
            faces = measure.grid.faces()
            cum = np.concatenate([[0.0], np.cumsum(measure.cell_averages) * measure.grid.dx])
            return cls(faces, cum, cum)
        raise TypeError(f"unsupported measure type {type(measure).__name__}")

    def eval(self, x: np.ndarray, side: str) -> np.ndarray:
        """One-sided CDF values F(x+) (side='right') or F(x-) (side='left')."""
        idx = np.searchsorted(self.points, x, side=side)
        out = np.zeros(x.size)
        out[idx == self.points.size] = 1.0
        interior = (idx > 0) & (idx < self.points.size)
        k = idx[interior]
        x0, x1 = self.points[k - 1], self.points[k]
        f0, f1 = self.right[k - 1], self.left[k]
        frac = (x[interior] - x0) / (x1 - x0)
        out[interior] = f0 + frac * (f1 - f0)
        return out


def w1(a, b) -> float:
    """Wasserstein-1 distance: exact L1 distance between the two CDFs.

    Accepts any mix of ``ParticleEnsemble`` and ``DensityGrid``. On each
    interval of the merged breakpoint set the CDF difference is linear, so its
    absolute integral is a trapezoid, split in two where the sign changes.
    """
    fa = _PiecewiseCdf.of(a)
    fb = _PiecewiseCdf.of(b)
    points = np.sort(np.concatenate([fa.points, fb.points]))
    points = points[np.concatenate([[True], points[1:] != points[:-1]])]  # np.unique without its numpy.ma import
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


def w1_sorted_atoms(a: ParticleEnsemble, b: ParticleEnsemble) -> float:
    """Order-statistics form for equal-size ensembles: mean |x_(k) - y_(k)|."""
    if a.n != b.n:
        raise ValueError("order-statistics identity needs equal atom counts")
    return float(np.mean(np.abs(np.sort(a.positions) - np.sort(b.positions))))


def moments(measure) -> tuple[float, float, float]:
    """(mass, mean, variance) computed exactly on the representation.

    A density is constant on each cell, so its variance is the spread of the
    cell centers plus the intra-cell variance dx^2 / 12.
    """
    if isinstance(measure, ParticleEnsemble):
        atoms = np.sort(measure.positions)  # the sums run in ascending order
        mean = float(np.mean(atoms))
        var = float(np.mean((atoms - mean) ** 2))
        return 1.0, mean, var
    if isinstance(measure, DensityGrid):
        centers = measure.grid.centers()
        weights = measure.cell_averages * measure.grid.dx
        mass = float(np.sum(weights))
        mean = float(np.sum(centers * weights) / mass)
        var = float(np.sum((centers - mean) ** 2 * weights) / mass) + measure.grid.dx**2 / 12.0
        return mass, mean, var
    raise TypeError(f"unsupported measure type {type(measure).__name__}")
