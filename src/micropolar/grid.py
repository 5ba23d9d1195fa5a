"""Periodic-box geometry and the Fourier wavenumber lattice."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def axis_wavenumbers(n: int, box_length: float) -> np.ndarray:
    """Return the 1D wavenumber lattice (2*pi/L) * {0, 1, ..., n/2, -n/2+1, ..., -1}.

    The Nyquist index is stored as +n/2; derivative operators zero it separately.
    """
    m = np.arange(n)
    m = np.where(m > n // 2, m - n, m)
    return (2.0 * np.pi / box_length) * m.astype(np.float64)


class Band:
    """The coefficients the 2/3 rule keeps with kz >= 0, shape (2K+1, 2K+1, K+1).

    f(-k) = conj f(k) gives the rest.  K (cutoff) = (n-1)//3 is the largest
    index kept, |k_axis| < n/3: a product of two band fields reaches 2K, whose
    alias 2K - n lies outside the band for every n, and there is no Nyquist
    plane.  Axes are in FFT order: 0..K then n-K..n-1 on x and y (rows), 0..K
    on z; index picks the band out of a full (n, n, n) array.  dkx, dky, dkz,
    k_sq, deriv_k_sq and inv_deriv_k_sq are the Grid symbols on the band, built
    from the 1-D lattices by the Grid's own float operations, so they equal its
    full arrays' gather bitwise (k_sq is deriv_k_sq: no Nyquist mode); weight
    is the multiplicity of a kz index, 1 on kz = 0 and 2 elsewhere.
    """

    def __init__(self, grid: "Grid"):
        n = grid.n_per_axis
        k = self.cutoff = (n - 1) // 3
        rows = self.rows = np.r_[0 : k + 1, n - k : n]
        self.index = np.ix_(rows, rows, np.arange(k + 1))
        self.dkx, self.dky = grid.dkx[rows], grid.dky[:, rows]
        self.dkz = grid.dkz[..., : k + 1]
        self.shape = (2 * k + 1, 2 * k + 1, k + 1)
        self.deriv_k_sq = _sum_of_squares(self.dkx, self.dky, self.dkz)
        self.k_sq = self.deriv_k_sq
        self.inv_deriv_k_sq = _inverse_or_zero(self.deriv_k_sq)
        self.weight = np.where(np.arange(k + 1) == 0, 1.0, 2.0)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def _sum_of_squares(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return x**2 + y**2 + z**2


def _inverse_or_zero(values: np.ndarray) -> np.ndarray:
    """1/values where values > 0, zero elsewhere."""
    inv = np.zeros_like(values)
    np.divide(1.0, values, out=inv, where=values > 0.0)
    return inv


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=True)
class Grid:
    """Cubic periodic box with n_per_axis points per axis and period box_length.

    Derived spectral arrays are shared by every operator.  The 1-D lattices
    and the band are built with the grid; the full-lattice (n, n, n) arrays
    are built on first use (a run on the band never builds them):

    k1              1D lattice, Nyquist stored as +n/2
    kx, ky, kz      broadcastable axis wavenumbers, shapes (n,1,1), (1,n,1), (1,1,n)
    k_sq            |k|^2 including the Nyquist mode (used by heat propagators)
    dk1             1D lattice with the Nyquist entry zeroed (derivative symbol)
    dkx, dky, dkz   broadcastable derivative wavenumbers
    deriv_k_sq      sum of dk_j^2 (Laplacian built from first derivatives)
    inv_deriv_k_sq  1/deriv_k_sq with zeros where deriv_k_sq is 0
                    (Leray / Poisson kernel, consistent with the derivatives)
    dealias_mask    True where every |k_axis| < (n/3)*(2*pi/L): the band's rows
    off_nyquist     True off every Nyquist plane (k_axis = n/2 on some axis)
    band            these symbols on the compact 2/3-rule band (Band); operators
                    pick the full or the band ones by the data's shape (lattice)
    """

    n_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        n, length = self.n_per_axis, self.box_length
        if n < 4 or n % 2 != 0:
            raise ValueError(f"n_per_axis must be an even integer >= 4, got {n}")
        if not length > 0.0:
            raise ValueError(f"box_length must be positive, got {length}")
        if not np.isfinite(2.0 * np.pi / length):
            raise ValueError(
                f"box_length {length!r} is too small: 2*pi/L is not finite"
            )

        k1 = axis_wavenumbers(n, length)
        dk1 = k1.copy()
        dk1[n // 2] = 0.0

        set_ = object.__setattr__
        set_(self, "k1", k1)
        set_(self, "dk1", dk1)
        set_(self, "kx", k1.reshape(n, 1, 1))
        set_(self, "ky", k1.reshape(1, n, 1))
        set_(self, "kz", k1.reshape(1, 1, n))
        set_(self, "dkx", dk1.reshape(n, 1, 1))
        set_(self, "dky", dk1.reshape(1, n, 1))
        set_(self, "dkz", dk1.reshape(1, 1, n))
        for name in ("k1", "dk1", "kx", "ky", "kz", "dkx", "dky", "dkz"):
            getattr(self, name).setflags(write=False)
        set_(self, "band", Band(self))

    @cached_property
    def k_sq(self) -> np.ndarray:
        return _read_only(_sum_of_squares(self.kx, self.ky, self.kz))

    @cached_property
    def deriv_k_sq(self) -> np.ndarray:
        return _read_only(_sum_of_squares(self.dkx, self.dky, self.dkz))

    @cached_property
    def inv_deriv_k_sq(self) -> np.ndarray:
        return _read_only(_inverse_or_zero(self.deriv_k_sq))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        return _read_only(self._product_mask(self.band.rows))

    @cached_property
    def off_nyquist(self) -> np.ndarray:
        n = self.n_per_axis
        return _read_only(self._product_mask(np.arange(n) != n // 2))

    def _product_mask(self, keep: np.ndarray) -> np.ndarray:
        """The (n, n, n) mask true where every axis index is kept by keep (a
        1-D boolean mask or index array)."""
        n = self.n_per_axis
        keep1 = np.zeros(n, dtype=bool)
        keep1[keep] = True
        return keep1.reshape(n, 1, 1) & keep1.reshape(1, n, 1) & keep1.reshape(1, 1, n)

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

    def lattice(self, data: np.ndarray) -> "Grid | Band":
        """The holder of the symbols matching data: the band or the full grid."""
        return self.band if data.shape[-3:] == self.band.shape else self

    def mode_sum(self, values: np.ndarray) -> float | complex:
        """sum_k values(k) over every mode of a full or band array: on the band
        a kz > 0 entry also stands for its mirror -k, so it counts twice."""
        if self.lattice(values) is self.band:
            return np.sum(self.band.weight * values)
        return np.sum(values)

    def k_dot(self, data: np.ndarray) -> np.ndarray:
        """k . f_hat of a full or band coefficient array (derivative
        wavenumbers), summed x, y, z."""
        s = self.lattice(data)
        out = s.dkx * data[0]
        out += s.dky * data[1]
        out += s.dkz * data[2]
        return out


def make_grid(n: int, box_length: float) -> Grid:
    """Build a Grid, rejecting odd or too-small n and non-positive box length."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    return Grid(int(n), float(box_length))
