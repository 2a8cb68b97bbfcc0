"""Safeguarded Anderson mixing, and ``solve``, the one fixed-point loop that uses it.

``mfg_fixed_point`` and ``nash_sweep`` hand ``solve`` a map that gives the
image g(x) = (1 - theta) x + theta P(x), a residual of x and a payload, what
the evaluation computed on the way, with a mixing weight theta in (0, 1] of
their own. ``solve`` returns the iterate it stopped on with that iterate's
payload, so the caller's result describes one evaluated path. Anderson
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
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import DivergenceError, NumericalError

MEMORY = 5
CONDITION_CAP = 1e6
GROWTH_LIMIT = 5  # the iteration restarts once its residual has grown on this many evaluations in a row


class Anderson:
    """Mixing state of one fixed-point loop on arrays of a fixed shape."""

    def __init__(self, size: int):
        self._df = np.empty((MEMORY, size))  # residual differences, newest in row 0
        self._dg = np.empty((MEMORY, size))  # image differences, same order
        self._q = np.empty((MEMORY, size))  # Gram-Schmidt basis of the kept rows of _df
        self._count = 0
        self._f = None  # residual and image of the previous step, flat
        self._g = None
        self._residual = math.inf

    @property
    def depth(self) -> int:
        """Number of stored differences."""
        return self._count

    def mix(self, x: np.ndarray, g: np.ndarray, residual: float) -> np.ndarray:
        """Next iterate from the iterate x, its image g and the caller's residual of x.

        Returns g itself when there is nothing to mix: on the first step, after
        a restart, or when every stored difference was dropped.
        """
        f = (g - x).ravel()
        flat_g = g.ravel()
        if residual > self._residual:
            self._count = 0
        elif self._f is not None:
            self._push(f - self._f, flat_g - self._g)
        self._f, self._g, self._residual = f, flat_g, residual
        gamma = self._coefficients(f)
        if gamma is None:
            return g
        candidate = flat_g.copy()
        for i, weight in enumerate(gamma):
            candidate -= weight * self._dg[i]
        return candidate.reshape(g.shape)

    def _push(self, df: np.ndarray, dg: np.ndarray) -> None:
        kept = min(self._count, MEMORY - 1)
        self._df[1 : kept + 1] = self._df[:kept]
        self._dg[1 : kept + 1] = self._dg[:kept]
        self._df[0] = df
        self._dg[0] = dg
        self._count = kept + 1

    def _coefficients(self, f: np.ndarray) -> np.ndarray | None:
        """gamma for the well-conditioned newest rows; drops the rest from the history."""
        q = self._q
        r = np.zeros((self._count, self._count))
        kept = 0
        for j in range(self._count):
            row = q[j]
            row[:] = self._df[j]
            for i in range(j):
                r[i, j] = np.dot(q[i], row)
                row -= r[i, j] * q[i]
            pivot = math.sqrt(np.dot(row, row))
            pivots = np.diagonal(r)[:j]
            if pivot == 0.0 or (j and max(pivots.max(), pivot) > CONDITION_CAP * min(pivots.min(), pivot)):
                break
            r[j, j] = pivot
            row /= pivot
            kept = j + 1
        self._count = kept
        if kept == 0:
            return None
        rhs = np.array([np.dot(q[i], f) for i in range(kept)])
        gamma = np.empty(kept)
        for i in range(kept - 1, -1, -1):
            gamma[i] = (rhs[i] - np.dot(r[i, i + 1 : kept], gamma[i + 1 :])) / r[i, i]
        return gamma


class FixedPoint(NamedTuple):
    """How ``solve`` ended, field for field the tail of ``MFGResult`` and ``NashResult``."""

    residual: float
    converged: bool
    iterations: int
    residual_history: np.ndarray
    accelerated_steps: int  # mixed candidates used
    rejected_steps: int  # mixed candidates refused
    restarts: int


def solve(step: Callable[[np.ndarray, float], tuple[np.ndarray, float, Any]], x: np.ndarray, theta: float,
          max_iterations: int, tolerance: float, admit: Callable[[np.ndarray], np.ndarray | None] = lambda x: x
          ) -> tuple[tuple[np.ndarray, Any], FixedPoint]:
    """Anderson-mixed iteration of ``step(x, theta) -> (image, residual, payload)`` from x.

    Returns the last evaluated iterate with its payload, and how the iteration
    ended; the images stay inside, for the mixing and the fallback. Stops once
    the residual is at most ``tolerance`` or after ``max_iterations``
    evaluations. The next iterate is the Anderson mix of the images, passed
    through ``admit``; a candidate that ``admit`` refuses (returns None), or
    whose evaluation raises ``DivergenceError`` or ``NumericalError``, is
    replaced by the image behind it. Such an error from the evaluation of an
    image ends the iteration unconverged; from the first evaluation it
    propagates. Once the residual has grown on ``GROWTH_LIMIT`` evaluations in
    a row, the iteration restarts from the lowest-residual iterate with theta
    halved and an empty mixing history, in the same budget.
    """
    mixer = Anderson(x.size)
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
        if residual <= tolerance or len(history) == max_iterations:
            break
        if growing == GROWTH_LIMIT:
            x, theta, mixer, growing, restarts = best, 0.5 * theta, Anderson(x.size), 0, restarts + 1
            continue
        x = mixer.mix(x, image, residual)
        if x is not image:
            x, pending = admit(x), image
            if x is None:
                x, pending, rejected = image, None, rejected + 1
    return last, FixedPoint(history[-1], history[-1] <= tolerance, len(history), np.asarray(history), accepted,
                            rejected, restarts)
