"""Shared fixtures and field builders for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from micropolar.fields import RealVectorField, SpectralVectorField, expand_band
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
