"""Periodic-box geometry and the Fourier wavenumber lattice."""

from __future__ import annotations

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
    """The coefficients the 2/3 rule keeps with kz >= 0, shape (2K+1, 2K+1, K+1).

    f(-k) = conj f(k) gives the rest.  K (cutoff) = n//3 is the largest
    index kept, so there is no Nyquist plane.  Axes are in FFT order:
    0..K then n-K..n-1 on x and y (rows), 0..K on z; index picks the band out
    of a full (n, n, n) array.  dkx, dky, dkz, k_sq, deriv_k_sq and
    inv_deriv_k_sq are the Grid symbols on the band (k_sq equals deriv_k_sq
    there); weight is the multiplicity of a kz index, 1 on kz = 0 and 2
    elsewhere.
    """

    def __init__(self, grid: "Grid"):
        n = grid.n_per_axis
        k = self.cutoff = int(np.count_nonzero(grid.dealias_mask[:, 0, 0])) // 2
        rows = self.rows = np.r_[0 : k + 1, n - k : n]
        cube = self.index = np.ix_(rows, rows, np.arange(k + 1))
        self.dkx, self.dky = grid.dkx[rows], grid.dky[:, rows]
        self.dkz = grid.dkz[..., : k + 1]
        self.shape = (2 * k + 1, 2 * k + 1, k + 1)
        self.k_sq = grid.k_sq[cube]
        self.deriv_k_sq = grid.deriv_k_sq[cube]
        self.inv_deriv_k_sq = grid.inv_deriv_k_sq[cube]
        self.weight = np.where(np.arange(k + 1) == 0, 1.0, 2.0)
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


@dataclass(frozen=True, eq=True)
class Grid:
    """Cubic periodic box with n_per_axis points per axis and period box_length.

    Derived spectral arrays are precomputed once and shared by every operator:

    k1              1D lattice, Nyquist stored as +n/2
    kx, ky, kz      broadcastable axis wavenumbers, shapes (n,1,1), (1,n,1), (1,1,n)
    k_sq            |k|^2 including the Nyquist mode (used by heat propagators)
    dk1             1D lattice with the Nyquist entry zeroed (derivative symbol)
    dkx, dky, dkz   broadcastable derivative wavenumbers
    deriv_k_sq      sum of dk_j^2 (Laplacian built from first derivatives)
    inv_deriv_k_sq  1/deriv_k_sq with zeros where deriv_k_sq is 0
                    (Leray / Poisson kernel, consistent with the derivatives)
    dealias_mask    True where every |k_axis| <= (n/3)*(2*pi/L)
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
        set_(self, "k_sq", self.kx**2 + self.ky**2 + self.kz**2)
        set_(self, "deriv_k_sq", self.dkx**2 + self.dky**2 + self.dkz**2)

        dsq = self.deriv_k_sq
        inv = np.zeros_like(dsq)
        np.divide(1.0, dsq, out=inv, where=dsq > 0.0)
        set_(self, "inv_deriv_k_sq", inv)

        cut = (n / 3.0) * (2.0 * np.pi / length)
        keep1 = np.abs(k1) <= cut + 1e-12
        set_(
            self,
            "dealias_mask",
            keep1.reshape(n, 1, 1) & keep1.reshape(1, n, 1) & keep1.reshape(1, 1, n),
        )

        for name in (
            "k1", "dk1", "kx", "ky", "kz", "dkx", "dky", "dkz",
            "k_sq", "deriv_k_sq", "inv_deriv_k_sq", "dealias_mask",
        ):
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
        wavenumbers)."""
        s = self.lattice(data)
        return s.dkx * data[0] + s.dky * data[1] + s.dkz * data[2]


def make_grid(n: int, box_length: float) -> Grid:
    """Build a Grid, rejecting odd or too-small n and non-positive box length."""
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"n must be an integer, got {type(n).__name__}")
    return Grid(int(n), float(box_length))
