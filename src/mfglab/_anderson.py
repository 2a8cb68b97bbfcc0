"""Safeguarded Anderson mixing, and ``solve``, the one fixed-point loop that uses it.

``mfg_fixed_point`` and ``nash_sweep`` hand ``solve`` a map that gives the
image g(x) = (1 - theta) x + theta P(x), a residual of x and a payload, what
the evaluation computed on the way, and ``FixedPointParams`` of their own:
``mfg.PICARD`` and ``nash.SWEEP`` hold each solver's defaults. ``solve``
returns the iterate it stopped on with that iterate's payload, so the
caller's result, a ``FixedPoint``, describes one evaluated path. Anderson
mixing of type II (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) keeps the
last ``MEMORY`` differences of the residuals f = g(x) - x and of the images
g, and proposes

    x+ = g - dG gamma,   gamma = argmin_gamma || f - dF gamma ||_2.

The least-squares problem is solved by modified Gram-Schmidt on the
difference rows, newest first, and back substitution; at most ``MEMORY``
rows make a LAPACK call not worth its import and memory. Safeguards:

- Conditioning: a difference whose Gram-Schmidt pivot would raise
  max|R_ii| / min|R_ii| above ``CONDITION_CAP`` is dropped, together with
  every older one.
- Mixing restart: the history is cleared whenever the residual grows; that
  step is the image g itself.
- Rejection: a mixed candidate that the caller refuses, or whose evaluation
  diverges, is replaced by the image behind it, the plain iteration's step
  (Zhang, O'Donoghue & Boyd, arXiv:1808.03971).
- Growth restart: after ``GROWTH_LIMIT`` growths in a row, ``solve`` goes
  back to the lowest-residual iterate with theta halved and no history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DivergenceError, NumericalError

MEMORY = 5
CONDITION_CAP = 1e6
GROWTH_LIMIT = 5  # the iteration restarts once its residual has grown on this many evaluations in a row


class Anderson:
    """Mixing state of one fixed-point loop."""

    def __init__(self):
        self._df: list[np.ndarray] = []  # residual differences, newest first
        self._dg: list[np.ndarray] = []  # image differences, same order
        self._f = None  # residual and image of the previous step, flat
        self._g = None
        self._residual = math.inf

    @property
    def depth(self) -> int:
        """Number of stored differences."""
        return len(self._df)

    def mix(self, x: np.ndarray, g: np.ndarray, residual: float) -> np.ndarray:
        """Next iterate from the iterate x, its image g and the caller's residual of x.

        Returns g itself when there is nothing to mix: on the first step, after
        a restart, or when every stored difference was dropped.
        """
        f = (g - x).ravel()
        flat_g = g.ravel()
        if residual > self._residual:
            self._df, self._dg = [], []
        elif self._f is not None:
            self._df = [f - self._f, *self._df[:MEMORY - 1]]
            self._dg = [flat_g - self._g, *self._dg[:MEMORY - 1]]
        self._f, self._g, self._residual = f, flat_g, residual
        gamma = self._coefficients(f)
        if gamma is None:
            return g
        candidate = flat_g.copy()
        for weight, dg in zip(gamma, self._dg):
            candidate -= weight * dg
        return candidate.reshape(g.shape)

    def _coefficients(self, f: np.ndarray) -> np.ndarray | None:
        """gamma for the well-conditioned newest rows; drops the rest from the history."""
        q: list[np.ndarray] = []  # Gram-Schmidt basis of the kept rows of _df
        r = np.zeros((self.depth, self.depth))
        for j, df in enumerate(self._df):
            row = df.copy()
            for i in range(j):
                r[i, j] = np.dot(q[i], row)
                row -= r[i, j] * q[i]
            pivot = math.sqrt(np.dot(row, row))
            pivots = np.diagonal(r)[:j]
            if pivot == 0.0 or (j and max(pivots.max(), pivot) > CONDITION_CAP * min(pivots.min(), pivot)):
                break
            r[j, j] = pivot
            row /= pivot
            q.append(row)
        kept = len(q)
        del self._df[kept:], self._dg[kept:]
        if kept == 0:
            return None
        rhs = np.array([np.dot(q[i], f) for i in range(kept)])
        gamma = np.empty(kept)
        for i in range(kept - 1, -1, -1):
            gamma[i] = (rhs[i] - np.dot(r[i, i + 1 : kept], gamma[i + 1 :])) / r[i, i]
        return gamma


@dataclass(frozen=True)
class FixedPointParams:
    """Budget, stopping tolerance and mixing weight theta in (0, 1] of one fixed-point loop."""

    max_iterations: int
    tolerance: float
    theta: float

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if not 0 < self.theta <= 1:
            raise ValueError("theta must lie in (0, 1]")


@dataclass
class FixedPoint:
    """How ``solve`` ended; ``MFGResult`` and ``NashResult`` add what the iterate they stopped on carries."""

    residual: float
    converged: bool
    iterations: int
    residual_history: np.ndarray
    accelerated_steps: int  # mixed candidates used
    rejected_steps: int  # mixed candidates refused
    restarts: int

    def require(self, solver: str) -> None:
        """Raise ``NumericalError`` naming ``solver`` unless the iteration converged."""
        if not self.converged:
            raise NumericalError(f"{solver} did not converge (residual {self.residual:.3e} "
                                 f"after {self.iterations} iterations)")

    def summary(self) -> str:
        """The iteration count with the Anderson steps and any restarts, for a run message."""
        restarts = f", {self.restarts} restart{'s' * (self.restarts > 1)}" if self.restarts else ""
        return (f"{self.iterations} iterations ({self.accelerated_steps} Anderson steps accepted, "
                f"{self.rejected_steps} rejected{restarts})")


def solve(step: Callable[[np.ndarray, float], tuple[np.ndarray, float, Any]], x: np.ndarray,
          params: FixedPointParams, admit: Callable[[np.ndarray], np.ndarray | None] = lambda x: x
          ) -> tuple[tuple[np.ndarray, Any], FixedPoint]:
    """Anderson-mixed iteration of ``step(x, theta) -> (image, residual, payload)`` from x.

    Returns the last evaluated iterate with its payload, and how the iteration
    ended; the images stay inside, for the mixing and the fallback. Stops once
    the residual is at most ``params.tolerance`` or after
    ``params.max_iterations`` evaluations, and starts at theta =
    ``params.theta``. The next iterate is the Anderson mix of the images, passed
    through ``admit``; a candidate that ``admit`` refuses (returns None), or
    whose evaluation raises ``DivergenceError`` or ``NumericalError``, is
    replaced by the image behind it. Such an error from the evaluation of an
    image ends the iteration unconverged; from the first evaluation it
    propagates. Once the residual has grown on ``GROWTH_LIMIT`` evaluations in
    a row, the iteration restarts from the lowest-residual iterate with theta
    halved and an empty mixing history, in the same budget.
    """
    theta = params.theta
    mixer = Anderson()
    history: list[float] = []
    accepted = rejected = restarts = growing = 0
    pending = None  # the image behind the mixed candidate x
    while True:
        try:
            image, residual, payload = step(x, theta)
        except (DivergenceError, NumericalError):
            if not history:
                raise
            if pending is None:
                break
            x, pending, rejected = pending, None, rejected + 1
            continue
        accepted, pending = accepted + (pending is not None), None
        growing = growing + 1 if history and residual > history[-1] else 0
        if not history or residual < min(history):
            best = x
        history.append(residual)
        last = x, payload
        if residual <= params.tolerance or len(history) == params.max_iterations:
            break
        if growing == GROWTH_LIMIT:
            x, theta, mixer, growing, restarts = best, 0.5 * theta, Anderson(), 0, restarts + 1
            continue
        x = mixer.mix(x, image, residual)
        if x is not image:
            x, pending = admit(x), image
            if x is None:
                x, pending, rejected = image, None, rejected + 1
    return last, FixedPoint(history[-1], history[-1] <= params.tolerance, len(history), np.asarray(history), accepted,
                            rejected, restarts)
