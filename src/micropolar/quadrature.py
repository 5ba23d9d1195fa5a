"""Time-integral quadrature for diagnostic ledgers.

The run ledgers integrate smooth decaying quantities sampled at every step.
Plain trapezoid carries an O(h^2) bias that would swamp the 1e-8 energy-ledger
tolerances, so the driver uses the Euler-Maclaurin end correction

    int f = trapezoid - h^2/12 * (f'(b) - f'(a)) + O(h^4),

with the end slopes taken from one-sided finite-difference stencils on the
sampled values themselves.
"""

from __future__ import annotations

import numpy as np

_FORWARD_STENCILS = {
    2: (-1.0, 1.0),
    3: (-1.5, 2.0, -0.5),
    4: (-11.0 / 6.0, 3.0, -1.5, 1.0 / 3.0),
    5: (-25.0 / 12.0, 4.0, -3.0, 4.0 / 3.0, -0.25),
}


def one_sided_slope(values, h: float, backward: bool = False) -> float:
    """One-sided derivative estimate at the first (or last) sample."""
    values = np.asarray(values, dtype=float)
    m = min(len(values), 5)
    if m < 2:
        return 0.0
    coeffs = _FORWARD_STENCILS[m]
    window = values[-m:][::-1] if backward else values[:m]
    slope = sum(c * v for c, v in zip(coeffs, window)) / h
    return -slope if backward else slope


class RunningIntegral:
    """Incrementally accumulated corrected trapezoid over per-step samples."""

    def __init__(self, h: float):
        self.h = h
        self._trap = 0.0
        self._first: list[float] = []
        self._last: list[float] = []
        self._prev: float | None = None
        self.count = 0

    def push(self, value: float) -> None:
        value = float(value)
        if self._prev is not None:
            self._trap += 0.5 * self.h * (self._prev + value)
        self._prev = value
        if len(self._first) < 5:
            self._first.append(value)
        self._last.append(value)
        if len(self._last) > 5:
            self._last.pop(0)
        self.count += 1

    @property
    def value(self) -> float:
        if self.count < 2:
            return 0.0
        fa = one_sided_slope(self._first, self.h)
        fb = one_sided_slope(self._last, self.h, backward=True)
        return self._trap - self.h * self.h / 12.0 * (fb - fa)
