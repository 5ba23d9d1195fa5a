"""Component-summed Lebesgue norms of vector fields.

L2-type norms are evaluated spectrally (Parseval under the 1/n^3 forward
normalization gives ||f||_2^2 = L^3 sum_k |f_hat|^2) on the 2/3-rule band,
where Grid.mode_sum counts each kz > 0 entry for its mirror too; Linf reads
the physical samples.  Gradient norms use the band's derivative wavenumbers,
so they agree exactly with the derivative operators.
"""

from __future__ import annotations

import numpy as np

from .fields import RealVectorField, SpectralVectorField
from .grid import Grid


def _weighted_l2(f: SpectralVectorField, weight: np.ndarray | float = 1.0) -> float:
    """sqrt(L^3 sum_k weight(k) |f_hat(k)|^2) with the square summed over the
    three components."""
    g = f.grid
    return float(np.sqrt(g.volume * g.mode_sum(weight * np.abs(f.data) ** 2)))


def l2(f: SpectralVectorField) -> float:
    """||f||_2 with the square summed over the three components."""
    return _weighted_l2(f)


def l2_grad(f: SpectralVectorField) -> float:
    """||Df||_2: all nine first derivatives, component-summed."""
    return _weighted_l2(f, f.grid.band.k_sq)


def l2_grad2(f: SpectralVectorField) -> float:
    """||D^2 f||_2: all 27 second derivatives (weight |k|^4)."""
    return _weighted_l2(f, f.grid.band.k_sq ** 2)


def l2_div(f: SpectralVectorField) -> float:
    """||div f||_2."""
    g = f.grid
    return float(np.sqrt(g.volume * g.mode_sum(np.abs(g.k_dot(f.data)) ** 2)))


def linf(f: RealVectorField) -> float:
    """max over components of the pointwise sup norm."""
    return float(max(f.data.max(), -f.data.min()))  # no |data| temporary


def inner(f: SpectralVectorField, h: SpectralVectorField) -> float:
    """Grid L2 inner product <f, h> = L^3 Re sum_k conj(f_hat) h_hat."""
    return float(f.grid.volume * f.grid.mode_sum(np.conj(f.data) * h.data).real)


def spectral_l2_sq(data: np.ndarray, grid: Grid) -> float:
    """L^3 sum |data|^2 for raw band coefficients."""
    return float(grid.volume * grid.mode_sum(np.abs(data) ** 2))
