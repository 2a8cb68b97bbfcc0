"""Safeguarded Anderson mixing for the two fixed-point loops.

``mfg_fixed_point`` and ``nash_sweep`` iterate a map
g(x) = (1 - theta) x + theta P(x) with a mixing weight theta in (0, 1] of
their own (the Picard loop defaults to 1, so that g is the plain image P(x);
the Nash sweep to 0.5). Anderson mixing of type II (Walker & Ni, SIAM J.
Numer. Anal. 49, 2011) keeps the last ``MEMORY`` differences of the
residuals f = g(x) - x and of the images g, and proposes

    x+ = g - dG gamma,   gamma = argmin_gamma || f - dF gamma ||_2.

The least-squares problem is solved by modified Gram-Schmidt on the
difference rows, newest first, and back substitution; at most ``MEMORY``
rows make a LAPACK call not worth its import and memory. Safeguards:

- Conditioning: a difference whose Gram-Schmidt pivot would raise
  max|R_ii| / min|R_ii| above ``CONDITION_CAP`` is dropped, together with
  every older one.
- Restart: the history is cleared whenever the caller's residual grows; that
  step is the image g itself.
- Rejection: the caller may refuse a mixed candidate (``reject``) and
  continue from g instead.
"""

from __future__ import annotations

import math

import numpy as np

MEMORY = 5
CONDITION_CAP = 1e6


class Anderson:
    """Mixing state of one fixed-point loop on arrays of a fixed shape.

    ``accepted`` counts the mixed candidates handed out and not rejected,
    ``rejected`` the ones the caller refused.
    """

    def __init__(self, size: int):
        self._df = np.empty((MEMORY, size))  # residual differences, newest in row 0
        self._dg = np.empty((MEMORY, size))  # image differences, same order
        self._q = np.empty((MEMORY, size))  # Gram-Schmidt basis of the kept rows of _df
        self._count = 0
        self._f = None  # residual and image of the previous step, flat
        self._g = None
        self._residual = math.inf
        self._pending = None  # the image g behind the last mixed candidate
        self.accepted = 0
        self.rejected = 0

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
        self._pending = None
        gamma = self._coefficients(f)
        if gamma is None:
            return g
        candidate = flat_g.copy()
        for i, weight in enumerate(gamma):
            candidate -= weight * self._dg[i]
        self._pending = g
        self.accepted += 1
        return candidate.reshape(g.shape)

    def reject(self) -> np.ndarray | None:
        """Refuse the last mixed candidate: its image g, or None when nothing is pending."""
        g, self._pending = self._pending, None
        if g is not None:
            self.accepted -= 1
            self.rejected += 1
        return g

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
