"""Periodic-box geometry, the Fourier wavenumber lattice and the 2/3-rule band."""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


def axis_wavenumbers(n: int, box_length: float) -> np.ndarray:
    """Return the 1D wavenumber lattice (2*pi/L) * {0, 1, ..., n/2, -n/2+1, ..., -1}.

    The Nyquist index is stored as +n/2; derivative operators zero it separately.
    """
    m = np.arange(n)
    m = np.where(m > n // 2, m - n, m)
    return (2.0 * np.pi / box_length) * m.astype(np.float64)


class Band:
    """The coefficients the 2/3 rule keeps with kz >= 0, shape (2K+1, 2K+1, K+1):
    the one layout of every spectral field.

    f(-k) = conj f(k) gives the rest.  K (cutoff) = (n-1)//3 is the largest
    index kept, |k_axis| < n/3: a product of two band fields reaches 2K, whose
    alias 2K - n lies outside the band for every n, and there is no Nyquist
    plane.  Axes are in FFT order: 0..K then n-K..n-1 on x and y (rows), 0..K
    on z; mirror maps each row to the row of its negative.  dkx, dky, dkz (dk
    together) are the derivative wavenumbers on the band, k_sq their sum of
    squares (the Laplacian's symbol, and |k|^2: no Nyquist mode) and
    inv_k_sq its inverse with 0 at k = 0 (Leray / Poisson kernel); weight is
    the multiplicity of a kz index, 1 on kz = 0 and 2 elsewhere.

    The real block matrices of the pruned transforms (fields.forward_band on
    grids up to fields.MATMUL_MAX_N), built on first use, with
    c + i s = exp(2 pi i k x / n).  Re/im is an axis of its own, so c - i s
    is the 2x2 block [[c, s], [-s, c]] acting on (re, im):
    dft_rows  (2(2K+1), 2n), rows (re/im, k) for the rows k, columns
              (x, re/im): the forward x and y passes; its transpose, the
              block of c + i s, the inverse ones
    dft_z     (n, 2(K+1)), columns c / n^3 then -s / n^3 for kz = 0..K: real
              lines times it are the re and im blocks of K+1 coefficients,
              with the forward's 1/n^3
    idft_z    (2(K+1), n), rows weight c then -weight s: the real samples of
              kz >= 0 lines with their mirrors, as irfft (Im on kz = 0 drops
              out, its s being 0)
    """

    def __init__(self, grid: "Grid"):
        n = self.n = grid.n_per_axis
        k = self.cutoff = (n - 1) // 3
        rows = self.rows = np.r_[0 : k + 1, n - k : n]
        self.mirror = (-np.arange(2 * k + 1)) % (2 * k + 1)
        self.dkx, self.dky = grid.dkx[rows], grid.dky[:, rows]
        self.dkz = grid.dkz[..., : k + 1]
        self.shape = (2 * k + 1, 2 * k + 1, k + 1)
        self.k_sq = _sum_of_squares(self.dkx, self.dky, self.dkz)
        self.inv_k_sq = np.zeros_like(self.k_sq)
        np.divide(1.0, self.k_sq, out=self.inv_k_sq, where=self.k_sq > 0.0)
        self.weight = np.where(np.arange(k + 1) == 0, 1.0, 2.0)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    @property
    def dk(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.dkx, self.dky, self.dkz

    @functools.cached_property
    def dft_rows(self) -> np.ndarray:
        cos, sin = _cos_sin(self.rows, self.n)
        block = np.stack([np.stack([cos, sin], -1), np.stack([-sin, cos], -1)])
        return _frozen(block.reshape(2 * len(self.rows), 2 * self.n))

    @functools.cached_property
    def dft_z(self) -> np.ndarray:
        cos, sin = _cos_sin(np.arange(self.cutoff + 1), self.n)
        return _frozen(np.ascontiguousarray(np.concatenate([cos, -sin]).T / self.n**3))

    @functools.cached_property
    def idft_z(self) -> np.ndarray:
        cos, sin = _cos_sin(np.arange(self.cutoff + 1), self.n)
        return _frozen(np.concatenate([cos, -sin]) * np.tile(self.weight, 2)[:, None])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _cos_sin(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi r x / n for r in rows, x = 0..n-1, within an ulp:
    the index product is reduced mod n and the angle to its octant, as
    (pi/4) j / n with 0 <= j <= n; the symmetries of cos and sin give the
    rest, so angles on the axes come out exact."""
    eighths = 8 * (np.outer(rows, np.arange(n)) % n)  # angle = (pi/4) eighths / n
    octant, j = np.divmod(eighths, n)
    j = np.where(octant % 2 == 1, n - j, j)  # odd octants count back from the next
    angle = (np.pi / 4.0) * (j / n)
    cos, sin = np.cos(angle), np.sin(angle)
    swap = (octant + 1) % 4 >= 2  # octants 1, 2, 5 and 6 count from the y axis
    cos, sin = np.where(swap, sin, cos), np.where(swap, cos, sin)
    cos[(octant + 2) % 8 >= 4] *= -1.0  # octants 2 to 5
    sin[octant >= 4] *= -1.0
    return cos, sin


def _sum_of_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return x**2 + y**2 + z**2


_LOG_MAX = math.log(sys.float_info.max)


def log_k_max(n: int, box_length: float) -> float:
    """log of sqrt(3) pi n / L, a bound of |k| on the grid's lattice."""
    return math.log(math.sqrt(3.0) * math.pi) + math.log(n) - math.log(box_length)


@dataclass(frozen=True, eq=True)
class Grid:
    """Cubic periodic box with n_per_axis points per axis and period box_length.

    Derived spectral arrays are shared by every operator; none is a full
    (n, n, n) lattice:

    k1              1D lattice, Nyquist stored as +n/2
    dk1             1D lattice with the Nyquist entry zeroed (derivative symbol)
    dkx, dky, dkz   dk1 broadcastable along x, y, z: shapes (n,1,1), (1,n,1),
                    (1,1,n)
    band            the symbols on the 2/3-rule band (Band), which every
                    spectral field and operator uses
    """

    n_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        n, length = self.n_per_axis, self.box_length
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_per_axis must be an even integer >= 4, got {n}")
        k = (n - 1) // 3  # a field's band holds 3 (2K+1)^2 (K+1) complex128
        if 48 * (2 * k + 1) ** 2 * (k + 1) > np.iinfo(np.intp).max:
            raise ValueError(
                "n_per_axis is too large: a field's band has more bytes than "
                "an array can index"
            )
        if not length > 0.0:
            raise ValueError(f"box_length must be positive, got {length}")
        # the norms sum |k|^4 |f_hat|^2, up to |k|^4 / L^3 for a unit field,
        # and scale by L^3: both must stay finite at the largest |k| of the box
        if 4.0 * log_k_max(n, length) - 3.0 * math.log(length) >= _LOG_MAX:
            raise ValueError(
                f"box_length {length!r} is too small: |k|^4 / L^3 at the "
                f"largest wavenumber overflows"
            )
        if 3.0 * math.log(length) >= _LOG_MAX:
            raise ValueError(f"box_length {length!r} is too large: L^3 overflows")

        k1 = axis_wavenumbers(n, length)
        dk1 = k1.copy()
        dk1[n // 2] = 0.0

        set_ = object.__setattr__
        set_(self, "k1", k1)
        set_(self, "dk1", dk1)
        set_(self, "dkx", dk1.reshape(n, 1, 1))
        set_(self, "dky", dk1.reshape(1, n, 1))
        set_(self, "dkz", dk1.reshape(1, 1, n))
        for name in ("k1", "dk1", "dkx", "dky", "dkz"):
            getattr(self, name).setflags(write=False)
        set_(self, "band", Band(self))

    @property
    def spacing(self) -> float:
        """Grid spacing L/n."""
        return self.box_length / self.n_per_axis

    @property
    def volume(self) -> float:
        """Box volume L^3."""
        return self.box_length**3

    @property
    def cell_volume(self) -> float:
        """Quadrature weight (L/n)^3 of one grid cell."""
        return (self.box_length / self.n_per_axis) ** 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_per_axis,) * 3

    def mode_sum(self, values: np.ndarray) -> float | complex:
        """sum_k values(k) over every mode of a band array: a kz > 0 entry
        also stands for its mirror -k, so it counts twice."""
        return np.sum(self.band.weight * values)

    def k_dot(self, data: np.ndarray) -> np.ndarray:
        """k . f_hat of band coefficients (derivative wavenumbers), summed
        x, y, z."""
        band = self.band
        out = band.dkx * data[0]
        out += band.dky * data[1]
        out += band.dkz * data[2]
        return out


def make_grid(n: int, box_length: float) -> Grid:
    """Build a Grid, rejecting odd or too-small n and non-positive box length."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    return Grid(int(n), float(box_length))
