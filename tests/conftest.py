"""Shared fixtures and field builders for the test suite."""

from __future__ import annotations

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from micropolar import fields
from micropolar.fields import (
    RealVectorField,
    SpectralVectorField,
    expand_band,
)
from micropolar.grid import Grid, make_grid
from micropolar.operators import random_band_limited
from micropolar.operators import single_mode as single_mode_field  # noqa: F401 (shared builder)


band_n = st.sampled_from(range(4, 65, 2))  # both sides of fields.MATMUL_MAX_N
seeds = st.integers(0, 2**32 - 1)
paths = st.sampled_from(["selected", "pocketfft"])


@contextmanager
def transform_path(path):
    """forward_band / inverse_band on the path n selects ("selected"), or on
    one path for every n: "pocketfft", or "products", the matrix products
    that n <= fields.MATMUL_MAX_N selects."""
    saved = fields.MATMUL_MAX_N
    fields.MATMUL_MAX_N = {"selected": saved, "pocketfft": 0, "products": sys.maxsize}[path]
    try:
        yield
    finally:
        fields.MATMUL_MAX_N = saved


@pytest.fixture(scope="session")
def grid8() -> Grid:
    return make_grid(8, 2.0 * np.pi)


@pytest.fixture(scope="session")
def grid16() -> Grid:
    return make_grid(16, 2.0 * np.pi)


def random_real_field(grid: Grid, seed: int) -> RealVectorField:
    rng = np.random.default_rng(seed)
    return RealVectorField(grid, rng.standard_normal((3,) + grid.shape))


def random_spectral_field(
    grid: Grid, seed: int, solenoidal: bool = False
) -> SpectralVectorField:
    """Mean-zero random band field (solenoidal on request)."""
    rng = np.random.default_rng(seed)
    return random_band_limited(grid, rng, solenoidal=solenoidal)


def band_gather(full: np.ndarray, grid: Grid) -> np.ndarray:
    """The band entries of full-lattice coefficients (..., n, n, n): the 2/3
    rule's truncation, with no test of what it drops."""
    rows, k = grid.band.rows, grid.band.cutoff
    return full[..., rows[:, None], rows, : k + 1]


def advective_oracle(v: SpectralVectorField, f: SpectralVectorField) -> np.ndarray:
    """(v . grad) f in advective form, sum_j v_j D_j f, on the band: the
    product formed on the full lattice with numpy's FFTs, then truncated by
    the 2/3 rule.

    This checks operators.advect_hat's flux form i div(v (x) f), which it
    equals to rounding for solenoidal v.
    """
    grid = v.grid
    n3 = grid.n_per_axis**3
    v_full, f_full = (expand_band(x.data, grid) for x in (v, f))
    v_phys = np.fft.ifftn(v_full, axes=(1, 2, 3)).real * n3
    adv = np.zeros((3,) + grid.shape)
    for j, dk in enumerate((grid.dkx, grid.dky, grid.dkz)):
        df = np.fft.ifftn(1j * dk * f_full, axes=(1, 2, 3)).real * n3
        df *= v_phys[j]
        adv += df
    return band_gather(np.fft.fftn(adv, axes=(1, 2, 3)) / n3, grid)
