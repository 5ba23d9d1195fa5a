"""Grid lattice, transforms, Parseval, and the brute-force DFT oracle."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.fft import rfftn

from micropolar.fields import (
    BandScratch,
    RealVectorField,
    SimState,
    SpectralVectorField,
    expand_band,
    fold_band,
    forward_band,
    inverse_band,
    to_real,
    to_spectral,
)
from micropolar.grid import make_grid
from micropolar.norms import l2, l2_grad, lr_phys

from conftest import random_real_field, random_spectral_field, single_mode_field


# ---------------------------------------------------------------------------
# make_grid


def test_lattice_n4():
    grid = make_grid(4, 2.0 * np.pi)
    assert sorted(grid.k1.tolist()) == [-1.0, 0.0, 1.0, 2.0]


def test_lattice_n8_smallest_mode():
    grid = make_grid(8, 1.0)
    nonzero = np.abs(grid.k1[np.abs(grid.k1) > 0])
    assert np.isclose(nonzero.min(), 2.0 * np.pi)


def test_lattice_n6_scaled():
    # Oracle: integer lattice {-2, ..., 3} scaled by 2*pi/(4*pi) = 1/2.
    grid = make_grid(6, 4.0 * np.pi)
    assert sorted(grid.k1.tolist()) == [-1.0, -0.5, 0.0, 0.5, 1.0, 1.5]


@pytest.mark.parametrize("n,L", [(3, 1.0), (2, 1.0), (0, 1.0), (8, 0.0), (8, -2.0)])
def test_make_grid_rejects(n, L):
    with pytest.raises(ValueError):
        make_grid(n, L)


def test_dealias_mask_n8():
    grid = make_grid(8, 2.0 * np.pi)
    kept = sorted(grid.k1[np.where(grid.dealias_mask[:, 0, 0])[0]].tolist())
    assert kept == [-2.0, -1.0, 0.0, 1.0, 2.0]


# ---------------------------------------------------------------------------
# transforms


def test_zero_roundtrip(grid8):
    f = RealVectorField(grid8, np.zeros((3,) + grid8.shape))
    spec = to_spectral(f)
    assert np.all(spec.data == 0.0)


def test_single_sine_coefficients():
    grid = make_grid(8, 4.0)
    x = np.arange(8) * grid.spacing
    data = np.zeros((3,) + grid.shape)
    data[0] = np.sin(2.0 * np.pi * x / 4.0)[:, None, None]
    spec = to_spectral(RealVectorField(grid, data))
    mags = np.abs(spec.data)
    nonzero = np.argwhere(mags > 1e-14)
    assert len(nonzero) == 2
    for comp, i, j, k in nonzero:
        assert comp == 0 and (i, j, k) in {(1, 0, 0), (7, 0, 0)}
        assert np.isclose(mags[comp, i, j, k], 0.5)


def brute_force_dft(values: np.ndarray) -> np.ndarray:
    """O(n^6) direct DFT with the forward 1/n^3 normalization."""
    n = values.shape[0]
    out = np.zeros((n, n, n), dtype=np.complex128)
    idx = np.arange(n)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                phase = np.exp(
                    -2j
                    * np.pi
                    * (
                        a * idx[:, None, None]
                        + b * idx[None, :, None]
                        + c * idx[None, None, :]
                    )
                    / n
                )
                out[a, b, c] = np.sum(values * phase) / n**3
    return out


def test_matches_brute_force_dft():
    grid = make_grid(4, 2.0 * np.pi)
    f = random_real_field(grid, seed=7)
    spec = to_spectral(f)
    for comp in range(3):
        oracle = brute_force_dft(f.data[comp])
        assert np.abs(spec.data[comp] - oracle).max() < 1e-12


@pytest.mark.parametrize("n", [4, 8, 16])
def test_roundtrip_ensemble(n):
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(123 + n)
    worst = 0.0
    for _ in range(1000):
        data = rng.standard_normal((3,) + grid.shape)
        back = to_real(to_spectral(RealVectorField(grid, data))).data
        worst = max(worst, np.abs(back - data).max() / np.abs(data).max())
    assert worst <= 1e-13


@pytest.mark.parametrize("n", [4, 8, 16])
def test_parseval(n):
    grid = make_grid(n, 5.0)
    f = random_real_field(grid, seed=n)
    phys_sq = grid.cell_volume * np.sum(f.data**2)
    spec_sq = l2(to_spectral(f)) ** 2
    assert abs(phys_sq - spec_sq) <= 1e-12 * phys_sq


def test_hermitian_symmetry(grid8):
    spec = to_spectral(random_real_field(grid8, seed=3))
    n = grid8.n_per_axis
    idx = (-np.arange(n)) % n
    mirrored = spec.data[:, idx][:, :, idx][:, :, :, idx]
    assert np.abs(spec.data - np.conj(mirrored)).max() < 1e-14


# ---------------------------------------------------------------------------
# compact 2/3-rule band


def band_rows(n):
    """FFT-order indices 0..K, n-K..n-1 of the 2/3 rule, K = (n-1)//3."""
    k = (n - 1) // 3
    return np.r_[0 : k + 1, n - k : n]


@pytest.mark.parametrize("n", [8, 16, 18])  # 18: 3 divides n, K = 5 < n/3
def test_forward_band_matches_rfftn_and_mask(n):
    grid = make_grid(n, 2.0 * np.pi)
    k, rows = (n - 1) // 3, band_rows(n)
    mask = grid.dealias_mask[..., : n // 2 + 1]
    assert np.count_nonzero(mask) == (2 * k + 1) ** 2 * (k + 1)
    assert mask[np.ix_(rows, rows, np.arange(k + 1))].all()
    f = random_real_field(grid, seed=11)
    want = rfftn(f.data, axes=(1, 2, 3), norm="forward") * mask
    got = forward_band(f.data, grid)
    assert got.shape == (3, 2 * k + 1, 2 * k + 1, k + 1)
    want_band = want[:, rows][:, :, rows][..., : k + 1]
    assert np.abs(got - want_band).max() <= 1e-15 * np.abs(want_band).max()


@pytest.mark.parametrize("n", [4, 8, 12, 16, 18, 32])
def test_band_symbols_are_the_full_lattice_gather(n):
    """Band builds its symbols from the 1-D lattices; they equal the gather of
    the Grid's full-lattice arrays bit for bit, and the band is the mask."""
    grid = make_grid(n, 3.0)
    band = grid.band
    assert band.cutoff == (n - 1) // 3 and 3 * band.cutoff < n
    for name in ("k_sq", "deriv_k_sq", "inv_deriv_k_sq"):
        got, want = getattr(band, name), getattr(grid, name)[band.index]
        assert got.shape == band.shape and got.tobytes() == want.tobytes()
    assert np.count_nonzero(grid.dealias_mask) == (2 * band.cutoff + 1) ** 3
    assert grid.dealias_mask[band.index].all()


def test_full_lattice_symbols_are_built_on_first_use():
    grid = make_grid(8, 2.0 * np.pi)
    lazy = ("k_sq", "deriv_k_sq", "inv_deriv_k_sq", "dealias_mask", "off_nyquist")
    assert not set(lazy) & set(vars(grid))
    assert grid.k_sq is grid.k_sq and not grid.k_sq.flags.writeable
    assert grid == make_grid(8, 2.0 * np.pi)  # equality ignores the cache
    assert np.array_equal(grid.off_nyquist[:, 0, 0], np.arange(8) != 4)


@pytest.mark.parametrize("n", [8, 16, 18])
def test_band_transform_round_trip(n):
    grid = make_grid(n, 2.0 * np.pi)
    f = to_real(random_spectral_field(grid, seed=13)).data
    back = inverse_band(forward_band(f, grid), grid)
    assert np.abs(back - f).max() <= 1e-13 * np.abs(f).max()


@pytest.mark.parametrize("n", [8, 16, 18])  # 18: 1/n^3 is not a power of two
def test_band_transforms_into_buffers_match_allocating_path(n):
    """Caller buffers and one scratch reused across fields and directions give
    the allocating path's bits: the zero padding is rewritten every call."""
    grid = make_grid(n, 2.0 * np.pi)
    scratch = BandScratch(grid)
    for seed in (15, 16):
        values = random_real_field(grid, seed=seed).data
        coeffs = forward_band(values, grid)
        out = np.full_like(coeffs, np.nan)
        assert forward_band(values, grid, out, scratch) is out
        assert np.array_equal(out, coeffs)
        back = np.full_like(values, np.nan)
        assert inverse_band(coeffs, grid, back, scratch) is back
        assert np.array_equal(back, inverse_band(coeffs, grid))


@pytest.mark.parametrize("n", [8, 18])
def test_fold_expand_round_trip(n):
    grid = make_grid(n, 2.0 * np.pi)
    spec = random_spectral_field(grid, seed=14).data
    band = fold_band(spec, grid)
    rows = band_rows(n)
    assert np.array_equal(band, spec[:, rows][:, :, rows][..., : (n - 1) // 3 + 1])
    full = expand_band(band, grid)
    assert np.abs(full - spec).max() <= 1e-15 * np.abs(spec).max()
    neg = (-np.arange(n)) % n
    assert np.array_equal(full[:, neg][:, :, neg][:, :, :, neg], np.conj(full))
    assert np.array_equal(expand_band(fold_band(full, grid), grid), full)
    assert np.array_equal(fold_band(expand_band(band, grid), grid)[..., 1:], band[..., 1:])


@pytest.mark.parametrize("index", [(0, 0, 3), (0, 3, 0), (3, 0, 0), (5, 5, 5)])
def test_check_band_rejects_out_of_band(grid8, index):
    data = np.zeros((3,) + grid8.shape, dtype=np.complex128)
    data[(1,) + index] = 1e-300
    with pytest.raises(ValueError, match="outside the 2/3 band"):
        fold_band(data, grid8)


@pytest.mark.parametrize("n", [8, 16])
def test_band_weight_sums(n):
    grid = make_grid(n, 2.0 * np.pi)
    f = random_spectral_field(grid, seed=12)
    band = fold_band(f.data, grid)
    weight = grid.band.weight
    assert weight.shape == (n // 3 + 1,)
    sq = np.abs(band) ** 2
    l2_sq = grid.volume * np.sum(weight * sq)
    grad_sq = grid.volume * np.sum(weight * grid.band.deriv_k_sq * sq)
    assert l2_sq == pytest.approx(l2(f) ** 2, rel=1e-13)
    assert grad_sq == pytest.approx(l2_grad(f) ** 2, rel=1e-13)


# ---------------------------------------------------------------------------
# field validation


def test_rejects_nan(grid8):
    data = np.zeros((3,) + grid8.shape)
    data[0, 0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        RealVectorField(grid8, data)


def test_rejects_wrong_shape(grid8):
    with pytest.raises(ValueError, match="shape"):
        SpectralVectorField(grid8, np.zeros((3, 4, 4, 4), dtype=np.complex128))


def test_sim_state_divergence_guard(grid8):
    u = random_spectral_field(grid8, seed=5, solenoidal=True)
    w = random_spectral_field(grid8, seed=6)
    SimState(0.0, u, w)  # fine
    with pytest.raises(ValueError, match="divergence"):
        SimState(0.0, w, u)


def test_lr_phys_matches_closed_form(grid8):
    data = np.zeros((3,) + grid8.shape)
    x = np.arange(8) * grid8.spacing
    data[0] = np.sin(x)[:, None, None]
    f = RealVectorField(grid8, data)
    # L1 is defined by cell quadrature; the exact 8-point sum of |sin| is
    # (pi/4)(2 + 2 sqrt 2) per axis period, times (2 pi)^2 for the others.
    exact_l1 = (np.pi / 4.0) * (2.0 + 2.0 * np.sqrt(2.0)) * (2.0 * np.pi) ** 2
    assert np.isclose(lr_phys(f, 1.0), exact_l1, rtol=1e-12)
    # sin^2 is band-limited, so the quadrature is exact for L2.
    assert np.isclose(
        lr_phys(f, 2.0), np.sqrt(np.pi * (2.0 * np.pi) ** 2), rtol=1e-12
    )
    # and the continuum L1 value 4 (2 pi)^2 is recovered under refinement
    n = 128
    grid = make_grid(n, 2.0 * np.pi)
    data = np.zeros((3,) + grid.shape)
    data[0] = np.sin(np.arange(n) * grid.spacing)[:, None, None]
    assert np.isclose(
        lr_phys(RealVectorField(grid, data), 1.0),
        4.0 * (2.0 * np.pi) ** 2,
        rtol=1e-3,
    )


def test_single_mode_builder_matches_sine(grid8):
    f = single_mode_field(grid8, component=1, axis=0, index=2, amplitude=0.7)
    x = np.arange(8) * grid8.spacing
    expected = 0.7 * np.sin(2.0 * x)[:, None, None]
    assert np.abs(to_real(f).data[1] - expected).max() < 1e-13
