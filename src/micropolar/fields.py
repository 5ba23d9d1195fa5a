"""Field value types and the Fourier transforms connecting them.

Convention: the forward transform carries the 1/n^3 factor, the inverse none,
so a unit sine mode has two coefficients of modulus 1/2 and the grid L2 norm
satisfies ||f||_2^2 = L^3 * sum_k |f_hat(k)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as _fft

from .grid import Grid

DIV_FREE_RTOL = 1e-12


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosities: mu (kinematic), gamma (spin), chi (vortex coupling)."""

    mu: float
    gamma: float
    chi: float = 0.0

    def __post_init__(self) -> None:
        if not self.mu > 0.0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not self.gamma > 0.0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.chi < 0.0:
            raise ValueError(f"chi must be non-negative, got {self.chi}")


def _check_finite(data: np.ndarray, what: str) -> None:
    if not np.isfinite(data).all():
        raise ValueError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class RealVectorField:
    """Three real components sampled on the grid, shape (3, n, n, n)."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self) -> None:
        expected = (3,) + self.grid.shape
        if self.data.shape != expected:
            raise ValueError(f"expected shape {expected}, got {self.data.shape}")
        _check_finite(self.data, "RealVectorField")


@dataclass(frozen=True)
class SpectralVectorField:
    """Three complex coefficient blocks indexed by the wavenumber lattice."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self) -> None:
        expected = (3,) + self.grid.shape
        if self.data.shape != expected:
            raise ValueError(f"expected shape {expected}, got {self.data.shape}")
        _check_finite(self.data, "SpectralVectorField")

    def copy(self) -> "SpectralVectorField":
        return SpectralVectorField(self.grid, self.data.copy())


@dataclass(frozen=True)
class ScalarField:
    """One real scalar sampled on the grid (pressure, div(w) diagnostics)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"expected shape {self.grid.shape}, got {self.values.shape}"
            )
        _check_finite(self.values, "ScalarField")


def forward_transform(values: np.ndarray) -> np.ndarray:
    """Forward DFT with 1/n^3 normalization; accepts (..., n, n, n)."""
    n3 = values.shape[-1] * values.shape[-2] * values.shape[-3]
    axes = tuple(range(values.ndim - 3, values.ndim))
    return _fft.fftn(values, axes=axes, workers=1) / n3


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse DFT without normalization (real part); accepts (..., n, n, n)."""
    n3 = coeffs.shape[-1] * coeffs.shape[-2] * coeffs.shape[-3]
    axes = tuple(range(coeffs.ndim - 3, coeffs.ndim))
    return _fft.ifftn(coeffs, axes=axes, workers=1).real * n3


def forward_half(values: np.ndarray) -> np.ndarray:
    """Real-to-complex forward_transform onto the half lattice kz = 0..n/2."""
    axes = tuple(range(values.ndim - 3, values.ndim))
    return _fft.rfftn(values, axes=axes, workers=1, norm="forward")


def inverse_half(coeffs: np.ndarray) -> np.ndarray:
    """Physical samples of half-lattice coefficients (inverse of forward_half)."""
    axes = tuple(range(coeffs.ndim - 3, coeffs.ndim))
    return _fft.irfftn(coeffs, axes=axes, workers=1, norm="forward")


def fold_half(data: np.ndarray) -> np.ndarray:
    """The half lattice (..., n, n, n//2+1) of full coefficients, as a view."""
    return data[..., : data.shape[-1] // 2 + 1]


def expand_half(half: np.ndarray) -> np.ndarray:
    """Full coefficients (..., n, n, n) from the half lattice by f(-k) = conj f(k).

    The kz = 0 and kz = n/2 planes hold both k and -k; they are replaced by
    their Hermitian part, so the result is exactly Hermitian.
    """
    n = half.shape[-2]
    h = n // 2 + 1
    neg = (-np.arange(n)) % n  # index of -k along an axis
    full = np.empty(half.shape[:-1] + (n,), dtype=half.dtype)
    full[..., 1 : h - 1] = half[..., 1 : h - 1]
    full[..., h:] = np.conj(half[..., neg[:, None], neg, h - 2 : 0 : -1])
    for kz in (0, h - 1):
        plane = half[..., kz]
        full[..., kz] = 0.5 * (plane + np.conj(plane[..., neg[:, None], neg]))
    return full


def to_spectral(f: RealVectorField) -> SpectralVectorField:
    """Transform a physical vector field to its Fourier coefficients."""
    return SpectralVectorField(f.grid, forward_transform(f.data))


def to_real(g: SpectralVectorField) -> RealVectorField:
    """Transform Fourier coefficients back to physical samples."""
    return RealVectorField(g.grid, inverse_transform(g.data))


def zero_spectral(grid: Grid) -> SpectralVectorField:
    return SpectralVectorField(grid, np.zeros((3,) + grid.shape, dtype=np.complex128))


def divergence_defect(u: SpectralVectorField) -> float:
    """||div u||_2 / ||Du||_2 (0 when the field has no gradient energy)."""
    g = u.grid
    grad_sq = float(np.sum(g.deriv_k_sq * np.abs(u.data) ** 2).real)
    if grad_sq == 0.0:
        return 0.0
    div_sq = float(np.sum(np.abs(g.k_dot(u.data)) ** 2))
    return np.sqrt(div_sq / grad_sq)


@dataclass(frozen=True)
class SimState:
    """Velocity/micro-rotation pair (u, w) at time t, in spectral form."""

    t: float
    u: SpectralVectorField
    w: SpectralVectorField

    def __post_init__(self) -> None:
        if self.t < 0.0:
            raise ValueError(f"t must be non-negative, got {self.t}")
        if self.u.grid is not self.w.grid and self.u.grid != self.w.grid:
            raise ValueError("u and w live on different grids")
        defect = divergence_defect(self.u)
        if defect > DIV_FREE_RTOL:
            raise ValueError(
                f"u is not divergence-free: ||div u||/||Du|| = {defect:.3e}"
            )

    @property
    def grid(self) -> Grid:
        return self.u.grid
