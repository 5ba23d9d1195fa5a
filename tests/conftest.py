"""Shared fixtures and field builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from micropolar.fields import (
    RealVectorField,
    SpectralVectorField,
    expand_band,
    forward_transform,
    inverse_transform,
)
from micropolar.grid import Grid, make_grid
from micropolar.operators import random_band_limited
from micropolar.operators import single_mode as single_mode_field  # noqa: F401 (shared builder)


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
    """Dealiased, mean-zero random field (solenoidal on request), on the
    full lattice."""
    rng = np.random.default_rng(seed)
    band = random_band_limited(grid, rng, solenoidal=solenoidal).data
    return SpectralVectorField(grid, expand_band(band, grid))


def advective_oracle(v: SpectralVectorField, f: SpectralVectorField) -> np.ndarray:
    """(v . grad) f in advective form, sum_j v_j D_j f: full-lattice
    coefficients, dealiased by the 2/3 rule (fold_band gives the band).

    Band fields are expanded first.  This checks operators.advect_hat's
    flux form i div(v (x) f), which it equals to rounding for solenoidal v.
    """
    grid = v.grid
    v_full, f_full = (
        d if d.shape[-3:] == grid.shape else expand_band(d, grid)
        for d in (v.data, f.data)
    )
    v_phys = inverse_transform(v_full)
    adv = np.zeros((3,) + grid.shape)
    for j, dk in enumerate((grid.dkx, grid.dky, grid.dkz)):
        df = inverse_transform(1j * dk * f_full)
        df *= v_phys[j]
        adv += df
    result = forward_transform(adv)
    result *= grid.dealias_mask
    return result
