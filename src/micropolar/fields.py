"""Field value types and the Fourier transforms connecting them.

Convention: the forward transform carries the 1/n^3 factor, the inverse none,
so a unit sine mode has two coefficients of modulus 1/2 and the grid L2 norm
satisfies ||f||_2^2 = L^3 * sum_k |f_hat(k)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Grid

DIV_FREE_RTOL = 1e-12
BAND_RTOL = 1e-12  # round-trip error of samples the band represents, of their max


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
    """Three complex coefficient blocks on the 2/3-rule band (3, 2K+1, 2K+1,
    K+1) (Grid.band), the one spectral layout."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self) -> None:
        band = (3,) + self.grid.band.shape
        if self.data.shape != band:
            hint = ""
            if self.data.shape == (3,) + self.grid.shape:
                hint = " (a full-lattice array goes to the band by fold_band)"
            raise ValueError(f"expected shape {band}, got {self.data.shape}{hint}")
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
    """Forward DFT with 1/n^3 normalization onto the full lattice; accepts
    (..., n, n, n).  Only the heat-kernel fits over sub-grid bumps need the
    modes beyond the band."""
    n3 = values.shape[-1] * values.shape[-2] * values.shape[-3]
    axes = tuple(range(values.ndim - 3, values.ndim))
    out = values.astype(np.complex128)  # transformed in place: no temporaries
    np.fft.fftn(out, axes=axes, out=out)
    out /= n3
    return out


def inverse_transform(coeffs: np.ndarray) -> np.ndarray:
    """Inverse DFT without normalization (real part) of full-lattice
    coefficients (..., n, n, n), as forward_transform."""
    n3 = coeffs.shape[-1] * coeffs.shape[-2] * coeffs.shape[-3]
    axes = tuple(range(coeffs.ndim - 3, coeffs.ndim))
    full = np.fft.ifftn(coeffs, axes=axes, out=np.empty(coeffs.shape, np.complex128))
    return full.real * n3


class BandScratch:
    """The pruning buffers of forward_band / inverse_band, for up to `fields`
    fields at a time.

    Every pass transforms the contiguous last axis; the copies between passes
    gather the band rows and move the next axis last.  The z and y passes go
    over slabs of `x_slab` x indices at a time, so only the x pass holds a whole
    field.  The inverse pads a buffer's lines with zeros between the band rows
    and transforms it in place.

    half          (x, y, kz)  rfft along z; its first K+1 columns feed irfft
    lines         (x, kz, y)  lines along y
    band_lines    (ky, kz, x) lines along x
    """

    # an allocating transform batches as many fields as fit in this many
    # bytes, and a single field larger than this goes in x slabs that fit:
    # small grids save calls, large ones keep buffers small
    BATCH_BYTES = 1 << 20

    def __init__(self, grid: Grid, fields: int = 1):
        n, k = grid.n_per_axis, grid.band.cutoff
        self.fields = fields
        per_x = _bytes_per_x(n, k)
        fits = fields > 1 or n * per_x <= self.BATCH_BYTES
        self.x_slab = slab = n if fits else max(1, self.BATCH_BYTES // per_x)
        self.half = np.empty((fields, slab, n, n // 2 + 1), dtype=np.complex128)
        self.lines = np.empty((fields, slab, k + 1, n), dtype=np.complex128)
        self.band_lines = np.empty((fields, 2 * k + 1, k + 1, n), dtype=np.complex128)

    @classmethod
    def batched(cls, grid: Grid, count: int) -> "BandScratch":
        n, k = grid.n_per_axis, grid.band.cutoff
        field_bytes = n * _bytes_per_x(n, k) + 16 * (2 * k + 1) * (k + 1) * n
        return cls(grid, max(1, min(count, cls.BATCH_BYTES // field_bytes)))


def _bytes_per_x(n: int, k: int) -> int:
    """Bytes of half and lines per x index of one field."""
    return 16 * n * (n // 2 + 1 + k + 1)


def _forward(values, out, grid, s: BandScratch) -> None:
    """out (m, kx, ky, kz) = forward_band of m <= s.fields fields (m, x, y, z)."""
    n, k, m = grid.n_per_axis, grid.band.cutoff, len(values)
    band_lines = s.band_lines[:m]
    for x in range(0, n, s.x_slab):
        slab = slice(x, min(x + s.x_slab, n))
        width = slab.stop - x
        half, lines = s.half[:m, :width], s.lines[:m, :width]
        np.fft.rfft(values[:, slab], axis=-1, out=half)
        np.copyto(lines, half[..., : k + 1].transpose(0, 1, 3, 2))
        np.fft.fft(lines, axis=-1, out=lines)
        band_lines[:, : k + 1, :, slab] = lines[..., : k + 1].transpose(0, 3, 2, 1)
        band_lines[:, k + 1 :, :, slab] = lines[..., n - k :].transpose(0, 3, 2, 1)
    np.fft.fft(band_lines, axis=-1, out=band_lines)
    scale = 1.0 / n**3
    np.multiply(band_lines[..., : k + 1].transpose(0, 3, 1, 2), scale, out=out[:, : k + 1])
    np.multiply(band_lines[..., n - k :].transpose(0, 3, 1, 2), scale, out=out[:, k + 1 :])


def _inverse(coeffs, out, grid, s: BandScratch) -> None:
    """out (m, x, y, z) = inverse_band of m <= s.fields fields (m, kx, ky, kz)."""
    n, k, m = grid.n_per_axis, grid.band.cutoff, len(coeffs)
    band_lines = s.band_lines[:m]
    band_lines[..., : k + 1] = coeffs[:, : k + 1].transpose(0, 2, 3, 1)
    band_lines[..., k + 1 : n - k] = 0.0
    band_lines[..., n - k :] = coeffs[:, k + 1 :].transpose(0, 2, 3, 1)
    np.fft.ifft(band_lines, axis=-1, norm="forward", out=band_lines)
    for x in range(0, n, s.x_slab):
        slab = slice(x, min(x + s.x_slab, n))
        width = slab.stop - x
        lines = s.lines[:m, :width]
        lines[..., : k + 1] = band_lines[:, : k + 1, :, slab].transpose(0, 3, 2, 1)
        lines[..., k + 1 : n - k] = 0.0
        lines[..., n - k :] = band_lines[:, k + 1 :, :, slab].transpose(0, 3, 2, 1)
        np.fft.ifft(lines, axis=-1, norm="forward", out=lines)
        half = s.half[:m, :width, :, : k + 1]
        np.copyto(half, lines.transpose(0, 1, 3, 2))
        np.fft.irfft(half, n=n, axis=-1, norm="forward", out=out[:, slab])


def _by_fields(step, data, out, grid, scratch) -> None:
    """step over the fields of data (..., 3-D) into C-contiguous out, in
    batches of scratch.fields (BandScratch.batched when scratch is None)."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    data = data.reshape((-1,) + data.shape[-3:])
    out = out.reshape((-1,) + out.shape[-3:])
    scratch = scratch or BandScratch.batched(grid, len(data))
    for start in range(0, len(data), scratch.fields):
        batch = slice(start, start + scratch.fields)
        step(data[batch], out[batch], grid, scratch)


def forward_band(
    values: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    scratch: BandScratch | None = None,
) -> np.ndarray:
    """forward_transform of real samples (..., n, n, n), pruned to the band:
    rfft along z, fft along y, fft along x, each keeping only the band's
    lines.  Writes into out (C-contiguous) and reuses scratch when given."""
    if out is None:
        out = np.empty(values.shape[:-3] + grid.band.shape, dtype=np.complex128)
    _by_fields(_forward, values, out, grid, scratch)
    return out


def inverse_band(
    coeffs: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    scratch: BandScratch | None = None,
) -> np.ndarray:
    """Physical samples (..., n, n, n) of band coefficients: forward_band
    mirrored, zero-padding each axis before its transform.  out and scratch
    as for forward_band."""
    if out is None:
        out = np.empty(coeffs.shape[:-3] + grid.shape)
    _by_fields(_inverse, coeffs, out, grid, scratch)
    return out


def fold_band(data: np.ndarray, grid: Grid) -> np.ndarray:
    """The band (..., 2K+1, 2K+1, K+1) of full coefficients (..., n, n, n), as a
    copy; ValueError if data is nonzero outside the 2/3 band.  The one
    full -> band conversion: full-lattice arrays (checkpoints) enter here."""
    k, rows = grid.band.cutoff, grid.band.rows
    out = slice(k + 1, grid.n_per_axis - k)  # slabs read in place, no copy
    if data[..., out].any() or data[..., out, :].any() or data[..., out, :, :].any():
        raise ValueError("coefficients outside the 2/3 band")
    return np.ascontiguousarray(data[..., rows[:, None], rows, : k + 1])


def _mirror_rows(grid: Grid) -> np.ndarray:
    k = grid.band.cutoff
    return (-np.arange(2 * k + 1)) % (2 * k + 1)  # band row of -k


def hermitian_plane(band: np.ndarray, grid: Grid) -> np.ndarray:
    """The Hermitian part of the band's kz = 0 plane, which holds both k and
    -k: f(k) and conj f(-k) averaged, so the result is exactly Hermitian."""
    neg = _mirror_rows(grid)
    plane = band[..., 0]
    return 0.5 * (plane + np.conj(plane[..., neg[:, None], neg]))


def expand_band(band: np.ndarray, grid: Grid) -> np.ndarray:
    """Full coefficients (..., n, n, n) of the band, by f(-k) = conj f(k),
    with the kz = 0 plane replaced by its Hermitian part (hermitian_plane)."""
    n, k, rows = grid.n_per_axis, grid.band.cutoff, grid.band.rows
    neg = _mirror_rows(grid)
    full = np.zeros(band.shape[:-3] + (n, n, n), dtype=band.dtype)
    xy = (Ellipsis, rows[:, None], rows)
    full[xy + (slice(1, k + 1),)] = band[..., 1:]
    full[xy + (slice(n - k, n),)] = np.conj(band[..., neg[:, None], neg, k:0:-1])
    full[xy + (0,)] = hermitian_plane(band, grid)
    return full


def band_coefficients(values: np.ndarray, grid: Grid) -> np.ndarray:
    """forward_band of samples (..., n, n, n) that the band represents:
    ValueError when the coefficients do not give the samples back (content
    off the 2/3 band), so nothing is truncated silently."""
    coeffs = forward_band(values, grid)
    error = np.abs(inverse_band(coeffs, grid) - values).max()
    scale = np.abs(values).max()
    if error > BAND_RTOL * scale:
        raise ValueError(
            f"samples have content off the 2/3 band (round trip error "
            f"{error / scale:.3e} of their max)"
        )
    return coeffs


def to_spectral(f: RealVectorField) -> SpectralVectorField:
    """Band coefficients of a physical vector field; ValueError if the field
    has content off the band."""
    return SpectralVectorField(f.grid, band_coefficients(f.data, f.grid))


def to_real(g: SpectralVectorField) -> RealVectorField:
    """Transform band coefficients back to physical samples."""
    return RealVectorField(g.grid, inverse_band(g.data, g.grid))


def zero_spectral(grid: Grid) -> SpectralVectorField:
    return SpectralVectorField(
        grid, np.zeros((3,) + grid.band.shape, dtype=np.complex128)
    )


def divergence_defect(u: SpectralVectorField) -> float:
    """||div u||_2 / ||Du||_2 (0 if Du = 0)."""
    g = u.grid
    sq = np.abs(u.data)
    np.square(sq, out=sq)
    sq *= g.band.k_sq
    grad_sq = float(g.mode_sum(sq))
    div_sq = float(g.mode_sum(np.abs(g.k_dot(u.data)) ** 2))
    return np.sqrt(div_sq / grad_sq) if grad_sq > 0.0 else 0.0


@dataclass(frozen=True)
class SimState:
    """Velocity/micro-rotation pair (u, w) at time t on the 2/3-rule band.

    The fields check their layout and finiteness; the state checks that u is
    solenoidal.
    """

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
