"""Field value types and the band transforms connecting them.

Convention: the forward transform carries the 1/n^3 factor, the inverse none,
so a unit sine mode has two coefficients of modulus 1/2 and the grid L2 norm
satisfies ||f||_2^2 = L^3 * sum_k |f_hat(k)|^2.
"""

from __future__ import annotations

import math
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


# forward_band / inverse_band go as real block-matrix products (Grid.band's
# dft_rows, dft_z and idft_z) for n <= MATMUL_MAX_N and as pocketfft passes
# above.  Each pass is one real GEMM, re/im an axis next to the contracted
# one: a product of short lines beats the FFT, and each pass keeps only 2K+1
# of its n outputs (K+1 along z).  On a 2-core x86 host with one BLAS thread
# they beat pocketfft's passes 1.5x at n = 40 and 48, yet go no higher than
# 32: their rounding grows with n (a pass sums 2n terms; against a long-double
# DFT, 8e-16 of the max at n = 32, 1.1e-15 at n = 64), and above 32 OpenBLAS
# threads them, which stalls whenever another process holds the cores.
MATMUL_MAX_N = 32


class BandScratch:
    """The buffers of forward_band / inverse_band for one field at a time, on
    the path that n selects (MATMUL_MAX_N); both directions share them.

    Products (n <= MATMUL_MAX_N), one real GEMM per pass, re/im kept as an
    axis of length 2 next to the contracted one (Band.dft_rows):

    z_lines   (x, y, 2, kz)    the forward z pass's output (samples times
                               Band.dft_z); the inverse y pass's output,
                               which times Band.idft_z gives the samples
    y_lines   (x, 2, ky, kz)   the forward y pass's output (dft_rows times
                               each x's (y, 2) rows); the inverse x
                               pass's output
    x_lines   (2, kx, ky, kz)  the forward x pass's output (dft_rows times
                               the (x, 2) rows), interleaved into the
                               complex band by one copy; the inverse
                               de-interleaves the band into it

    FFTs (n > MATMUL_MAX_N): every pass transforms the contiguous last axis;
    the copies between passes gather the band rows and move the next axis
    last.  The z and y passes go over slabs of `x_slab` x indices at a time,
    so only the x pass holds a whole field.  The inverse pads a buffer's lines
    with zeros between the band rows and transforms it in place.

    half          (x, y, kz)  rfft along z; its first K+1 columns feed irfft
    lines         (x, kz, y)  lines along y
    band_lines    (ky, kz, x) lines along x

    A field's bits do not depend on the other fields of a call: every field
    goes through the same passes alone.
    """

    # on the pocketfft path a field whose half and lines take more bytes than
    # this goes in x slabs that fit: large grids keep their buffers small
    SLAB_BYTES = 1 << 20

    def __init__(self, grid: Grid):
        n, (m, _, h) = grid.n_per_axis, grid.band.shape
        self.by_matmul = n <= MATMUL_MAX_N
        if self.by_matmul:
            self.z_lines = np.empty((n, n, 2, h))
            self.y_lines = np.empty((n, 2, m, h))
            self.x_lines = np.empty((2, m, m, h))
            return
        per_x = 16 * n * (n // 2 + 1 + h)
        fits = n * per_x <= self.SLAB_BYTES
        self.x_slab = slab = n if fits else max(1, self.SLAB_BYTES // per_x)
        self.half = np.empty((slab, n, n // 2 + 1), dtype=np.complex128)
        self.lines = np.empty((slab, h, n), dtype=np.complex128)
        self.band_lines = np.empty((m, h, n), dtype=np.complex128)


def _forward_matmul(values, out, grid, s: BandScratch) -> None:
    """out (kx, ky, kz) = forward_band of one field's samples (x, y, z)."""
    n, band, (m, _, h) = grid.n_per_axis, grid.band, grid.band.shape
    z_lines, y_lines, x_lines = s.z_lines, s.y_lines, s.x_lines
    np.matmul(values.reshape(n * n, n), band.dft_z, out=z_lines.reshape(n * n, 2 * h))
    np.matmul(band.dft_rows, z_lines.reshape(n, 2 * n, h), out=y_lines.reshape(n, 2 * m, h))
    np.matmul(band.dft_rows, y_lines.reshape(2 * n, -1), out=x_lines.reshape(2 * m, -1))
    np.copyto(_real(out).reshape(-1, 2).T, x_lines.reshape(2, -1))  # interleave
    # f(-k) = conj f(k) on kz = 0, exact on the pocketfft path, holds here to
    # rounding only: BLAS treats rows k and -k of a product apart
    out[..., 0] = hermitian_plane(out, grid)


def _inverse_matmul(coeffs, out, grid, s: BandScratch) -> None:
    """out (x, y, z) = inverse_band of one field's coefficients (kx, ky, kz)."""
    n, band, (m, _, h) = grid.n_per_axis, grid.band, grid.band.shape
    z_lines, y_lines, x_lines = s.z_lines, s.y_lines, s.x_lines
    rows = band.dft_rows.T  # the block of c + i s
    np.copyto(x_lines.reshape(2, -1), _real(np.ascontiguousarray(coeffs)).reshape(-1, 2).T)
    np.matmul(rows, x_lines.reshape(2 * m, -1), out=y_lines.reshape(2 * n, -1))
    np.matmul(rows, y_lines.reshape(n, 2 * m, h), out=z_lines.reshape(n, 2 * n, h))
    np.matmul(z_lines.reshape(n * n, 2 * h), band.idft_z, out=out.reshape(n * n, n))


def _real(a: np.ndarray) -> np.ndarray:
    """Complex a (..., c) as reals (..., 2c), Re and Im interleaved."""
    return a.view(np.float64)


def _forward_fft(values, out, grid, s: BandScratch) -> None:
    """out (kx, ky, kz) = forward_band of one field's samples (x, y, z)."""
    n, k = grid.n_per_axis, grid.band.cutoff
    band_lines = s.band_lines
    for x in range(0, n, s.x_slab):
        slab = slice(x, min(x + s.x_slab, n))
        width = slab.stop - x
        half, lines = s.half[:width], s.lines[:width]
        np.fft.rfft(values[slab], axis=-1, out=half)
        np.copyto(lines, half[..., : k + 1].transpose(0, 2, 1))
        np.fft.fft(lines, axis=-1, out=lines)
        band_lines[: k + 1, :, slab] = lines[..., : k + 1].transpose(2, 1, 0)
        band_lines[k + 1 :, :, slab] = lines[..., n - k :].transpose(2, 1, 0)
    np.fft.fft(band_lines, axis=-1, out=band_lines)
    scale = 1.0 / n**3
    np.multiply(band_lines[..., : k + 1].transpose(2, 0, 1), scale, out=out[: k + 1])
    np.multiply(band_lines[..., n - k :].transpose(2, 0, 1), scale, out=out[k + 1 :])


def _inverse_fft(coeffs, out, grid, s: BandScratch) -> None:
    """out (x, y, z) = inverse_band of one field's coefficients (kx, ky, kz)."""
    n, k = grid.n_per_axis, grid.band.cutoff
    band_lines = s.band_lines
    band_lines[..., : k + 1] = coeffs[: k + 1].transpose(1, 2, 0)
    band_lines[..., k + 1 : n - k] = 0.0
    band_lines[..., n - k :] = coeffs[k + 1 :].transpose(1, 2, 0)
    np.fft.ifft(band_lines, axis=-1, norm="forward", out=band_lines)
    for x in range(0, n, s.x_slab):
        slab = slice(x, min(x + s.x_slab, n))
        width = slab.stop - x
        lines = s.lines[:width]
        lines[..., : k + 1] = band_lines[: k + 1, :, slab].transpose(2, 1, 0)
        lines[..., k + 1 : n - k] = 0.0
        lines[..., n - k :] = band_lines[k + 1 :, :, slab].transpose(2, 1, 0)
        np.fft.ifft(lines, axis=-1, norm="forward", out=lines)
        half = s.half[:width, :, : k + 1]
        np.copyto(half, lines.transpose(0, 2, 1))
        np.fft.irfft(half, n=n, axis=-1, norm="forward", out=out[slab])


def _by_fields(steps, data, out, grid, scratch) -> None:
    """The step of the scratch's path, of steps (pocketfft, matmul), field by
    field over data (..., 3-D) into C-contiguous out, through one scratch (a
    fresh one when None)."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    scratch = scratch or BandScratch(grid)
    step = steps[scratch.by_matmul]
    fields = data.reshape((-1,) + data.shape[-3:])
    for field, into in zip(fields, out.reshape((-1,) + out.shape[-3:])):
        step(field, into, grid, scratch)


def forward_band(
    values: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    scratch: BandScratch | None = None,
) -> np.ndarray:
    """The forward DFT (1/n^3 normalization) of real samples (..., n, n, n),
    pruned to the band: one pass per axis (BandScratch), each keeping only
    the band's lines.
    Writes into out (C-contiguous) and reuses scratch when given."""
    if out is None:
        out = np.empty(values.shape[:-3] + grid.band.shape, dtype=np.complex128)
    _by_fields((_forward_fft, _forward_matmul), values, out, grid, scratch)
    return out


def inverse_band(
    coeffs: np.ndarray,
    grid: Grid,
    out: np.ndarray | None = None,
    scratch: BandScratch | None = None,
) -> np.ndarray:
    """Physical samples (..., n, n, n) of band coefficients: forward_band
    mirrored (the pocketfft passes zero-pad each axis before its transform).
    out and scratch as for forward_band."""
    if out is None:
        out = np.empty(coeffs.shape[:-3] + grid.shape)
    _by_fields((_inverse_fft, _inverse_matmul), coeffs, out, grid, scratch)
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


def hermitian_plane(band: np.ndarray, grid: Grid) -> np.ndarray:
    """The Hermitian part of the band's kz = 0 plane, which holds both k and
    -k: f(k) and conj f(-k) averaged, so the result is exactly Hermitian."""
    neg = grid.band.mirror
    plane = band[..., 0]
    return 0.5 * (plane + np.conj(plane[..., neg[:, None], neg]))


def expand_band(band: np.ndarray, grid: Grid) -> np.ndarray:
    """Full coefficients (..., n, n, n) of the band, by f(-k) = conj f(k),
    with the kz = 0 plane replaced by its Hermitian part (hermitian_plane)."""
    n, k, rows = grid.n_per_axis, grid.band.cutoff, grid.band.rows
    neg = grid.band.mirror
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
    scratch = BandScratch(grid)
    coeffs = forward_band(values, grid, scratch=scratch)
    # one field at a time, the error in place in the inverse's buffer
    back, error = np.empty(grid.shape), 0.0
    fields = zip(coeffs.reshape((-1,) + grid.band.shape), values.reshape((-1,) + grid.shape))
    for coeff, value in fields:
        np.subtract(inverse_band(coeff, grid, back, scratch), value, out=back)
        error = max(error, back.max(), -back.min())
    scale = max(values.max(), -values.min())
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
    """||div u||_2 / ||Du||_2 (0 if Du = 0), both of u scaled by a power of
    two near 1/max|u_hat|: exact, and no square of a finite field overflows."""
    g = u.grid
    sq = np.abs(u.data)
    peak = sq.max()
    if peak == 0.0:
        return 0.0
    scale = 2.0 ** -math.frexp(peak)[1]
    sq *= scale
    np.square(sq, out=sq)
    sq *= g.band.k_sq
    grad_sq = float(g.mode_sum(sq))
    div = np.abs(g.k_dot(u.data))
    div *= scale
    div_sq = float(g.mode_sum(np.square(div, out=div)))
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
        if not 0.0 <= self.t < math.inf:  # NaN too
            raise ValueError(f"t must be finite and non-negative, got {self.t}")
        if self.u.grid is not self.w.grid and self.u.grid != self.w.grid:
            raise ValueError("u and w live on different grids")
        defect = divergence_defect(self.u)
        if not defect <= DIV_FREE_RTOL:  # NaN too
            raise ValueError(
                f"u is not divergence-free: ||div u||/||Du|| = {defect:.3e}"
            )

    @property
    def grid(self) -> Grid:
        return self.u.grid
