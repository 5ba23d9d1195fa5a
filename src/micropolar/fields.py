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


# forward_band / inverse_band go as DFT matrix products (Grid.band's matrices)
# for n <= MATMUL_MAX_N and as pocketfft passes above.  A product of short
# lines beats the FFT, and each pass keeps only 2K+1 of its n outputs (K+1
# along z): on a 2-core x86 host the products were faster at every even n
# from 16 to 52, and to 62 with the default BLAS threads.  Their rounding
# grows with n (a pass sums n terms): at n = 48 they missed numpy's real 3-D
# FFT by more than 1e-15 of the max on about one input in 100.
MATMUL_MAX_N = 32


class BandScratch:
    """The pruning buffers of forward_band / inverse_band, for up to `fields`
    fields at a time, on the path that n selects (MATMUL_MAX_N).

    Products (n <= MATMUL_MAX_N), all of them real: the z pass multiplies
    each field's real samples by Band.dft_z, which leaves complex (x, y, kz)
    lines; the x pass multiplies Band.cos_rows and sin_rows into the
    (x, y kz) view, and the y pass into the (kx, y, kz) lines, broadcast over
    the fields and kx, which lands in the band layout.  The inverse runs the
    mirror products, ending in Band.idft_z.  No pass copies or transposes.
    Every product covers one field, so a batch gives each field the bits it
    gets alone: a product's rounding depends on its shape.

    half_lines    (x, y, kz)   the z pass's output, the inverse's x output
    row_lines     (kx, y, kz)  the x pass's output, the inverse's y output
    sin_lines     (kx, y, kz)  the sin products of the x and y passes

    FFTs (n > MATMUL_MAX_N): every pass transforms the contiguous last axis;
    the copies between passes gather the band rows and move the next axis
    last.  The z and y passes go over slabs of `x_slab` x indices at a time,
    so only the x pass holds a whole field.  The inverse pads a buffer's lines
    with zeros between the band rows and transforms it in place.

    half          (x, y, kz)  rfft along z; its first K+1 columns feed irfft
    lines         (x, kz, y)  lines along y
    band_lines    (ky, kz, x) lines along x
    """

    # an allocating transform batches as many fields as the pocketfft
    # buffers of that many fit in this many bytes, and on that path a single
    # field larger than this goes in x slabs that fit: small grids save
    # calls, large ones keep buffers small
    BATCH_BYTES = 1 << 20

    def __init__(self, grid: Grid, fields: int = 1):
        n, k = grid.n_per_axis, grid.band.cutoff
        self.by_matmul = n <= MATMUL_MAX_N
        self.fields = fields
        if self.by_matmul:
            self.half_lines = np.empty((fields, n, n, k + 1), dtype=np.complex128)
            self.row_lines = np.empty((fields, 2 * k + 1, n, k + 1), dtype=np.complex128)
            self.sin_lines = np.empty_like(self.row_lines)
            return
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
    """Bytes of half and lines per x index of one field (FFT path)."""
    return 16 * n * (n // 2 + 1 + k + 1)


def _forward_matmul(values, out, grid, s: BandScratch) -> None:
    """out (m, kx, ky, kz) = forward_band of m <= s.fields fields (m, x, y, z)."""
    n, band, m = grid.n_per_axis, grid.band, len(values)
    half, rows = s.half_lines[:m], s.row_lines[:m]
    for field, lines in zip(values, half):
        np.matmul(field.reshape(n * n, n), band.dft_z, out=_real(lines).reshape(n * n, -1))
    cos, sin = band.cos_rows, band.sin_rows
    _dft_product(cos, sin, half.reshape(m, n, -1), rows.reshape(m, len(cos), -1), s.sin_lines, True)
    _dft_product(cos, sin, rows, out, s.sin_lines, True)
    out /= n**3
    # f(-k) = conj f(k) on kz = 0, exact on the pocketfft path, holds here to
    # rounding only: BLAS treats rows k and -k of a product apart
    out[..., 0] = hermitian_plane(out, grid)


def _inverse_matmul(coeffs, out, grid, s: BandScratch) -> None:
    """out (m, x, y, z) = inverse_band of m <= s.fields fields (m, kx, ky, kz)."""
    n, band, m = grid.n_per_axis, grid.band, len(coeffs)
    half, rows = s.half_lines[:m], s.row_lines[:m]
    cos, sin = band.cos_rows.T, band.sin_rows.T
    _dft_product(cos, sin, coeffs, rows, s.sin_lines, False)
    # out, written last, holds the x pass's sin product
    _dft_product(cos, sin, rows.reshape(m, len(band.rows), -1), half.reshape(m, n, -1), out, False)
    for lines, field in zip(half, out):
        np.matmul(_real(lines).reshape(n * n, -1), band.idft_z, out=field.reshape(n * n, n))


def _dft_product(cos, sin, lines, out, spare, conj: bool) -> None:
    """out (..., a, c) = (cos - i sin) @ lines (..., b, c) if conj, else
    (cos + i sin) @ lines, broadcast over the leading axes, as two real
    products, the sin one in the spare buffer.  Complex products here
    would round more (at n=32 the y pass missed a long-double DFT by 7.6e-16
    of the max, against 3.9e-16), and OpenBLAS threads them, which stalls
    whenever another process holds the cores; it runs the real ones on one
    thread."""
    real, lines = _real(out), _real(np.ascontiguousarray(lines))
    np.matmul(cos, lines, out=real)
    sin_part = spare.reshape(-1).view(np.float64)[: real.size].reshape(real.shape)
    np.matmul(sin, lines, out=sin_part)
    re, im = real[..., 0::2], real[..., 1::2]
    if conj:  # -i (a + i b) = b - i a
        re += sin_part[..., 1::2]
        im -= sin_part[..., 0::2]
    else:
        re -= sin_part[..., 1::2]
        im += sin_part[..., 0::2]


def _real(a: np.ndarray) -> np.ndarray:
    """Complex a (..., c) as reals (..., 2c), Re and Im interleaved."""
    return a.view(np.float64)


def _forward_fft(values, out, grid, s: BandScratch) -> None:
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


def _inverse_fft(coeffs, out, grid, s: BandScratch) -> None:
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


def _by_fields(steps, data, out, grid, scratch) -> None:
    """The step of the scratch's path, of steps (pocketfft, matmul), over the
    fields of data (..., 3-D) into C-contiguous out, in batches of
    scratch.fields (BandScratch.batched when scratch is None)."""
    if not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    data = data.reshape((-1,) + data.shape[-3:])
    out = out.reshape((-1,) + out.shape[-3:])
    scratch = scratch or BandScratch.batched(grid, len(data))
    step = steps[scratch.by_matmul]
    for start in range(0, len(data), scratch.fields):
        batch = slice(start, start + scratch.fields)
        step(data[batch], out[batch], grid, scratch)


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
