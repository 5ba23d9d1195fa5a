"""Grid lattice, transforms, Parseval, and the brute-force DFT oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.fft import fftn

from micropolar.fields import (
    BandScratch,
    RealVectorField,
    SimState,
    SpectralVectorField,
    band_coefficients,
    expand_band,
    fold_band,
    forward_band,
    hermitian_plane,
    inverse_band,
    to_real,
    to_spectral,
)
from micropolar.grid import make_grid
from micropolar.norms import l2, l2_grad
from micropolar.operators import random_band_limited

from conftest import (
    band_gather,
    band_n,
    paths,
    random_real_field,
    random_spectral_field,
    seeds,
    single_mode_field,
    transform_path,
)

even_n = st.sampled_from(range(4, 41, 2))


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
    # the band's rows are the 2/3 rule's kept wavenumbers, |k_axis| < n/3
    grid = make_grid(8, 2.0 * np.pi)
    kept = sorted(grid.k1[grid.band.rows].tolist())
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
    for comp, i, j, k in nonzero:  # band rows 0..2, then k = -2, -1
        assert comp == 0 and (i, j, k) in {(1, 0, 0), (4, 0, 0)}
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
    # forward_band is the DFT's band
    grid = make_grid(4, 2.0 * np.pi)
    f = random_real_field(grid, seed=7)
    band = forward_band(f.data, grid)
    for comp in range(3):
        oracle = brute_force_dft(f.data[comp])
        assert np.abs(band[comp] - band_gather(oracle, grid)).max() < 1e-12


@pytest.mark.parametrize("n", [4, 8, 16])
def test_roundtrip_ensemble(n):
    # band-limited fields through to_spectral / to_real
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(123 + n)
    worst_band = 0.0
    for _ in range(1000):
        data = to_real(random_band_limited(grid, rng)).data
        back = to_real(to_spectral(RealVectorField(grid, data))).data
        worst_band = max(worst_band, np.abs(back - data).max() / np.abs(data).max())
    assert worst_band <= 1e-13


@pytest.mark.parametrize("n", [4, 8, 16])
def test_parseval(n):
    grid = make_grid(n, 5.0)
    f = to_real(random_spectral_field(grid, seed=n))
    phys_sq = grid.cell_volume * np.sum(f.data**2)
    spec_sq = l2(to_spectral(f)) ** 2
    assert abs(phys_sq - spec_sq) <= 1e-12 * phys_sq


def test_hermitian_symmetry(grid8):
    # real samples: f(-k) = conj f(k) on the band's kz = 0 plane, which
    # holds both k and -k
    values = random_real_field(grid8, seed=3).data
    plane = forward_band(values, grid8)[..., 0]
    m = 2 * grid8.band.cutoff + 1
    idx = (-np.arange(m)) % m
    mirrored = plane[:, idx][:, :, idx]
    assert np.abs(plane - np.conj(mirrored)).max() < 1e-14


def test_to_spectral_refuses_samples_off_the_band(grid8):
    noise = random_real_field(grid8, seed=4)
    with pytest.raises(ValueError, match="off the 2/3 band"):
        to_spectral(noise)
    f = random_spectral_field(grid8, seed=4)
    back = to_spectral(to_real(f)).data
    assert np.abs(back - f.data).max() <= 1e-15 * np.abs(f.data).max()


def test_spectral_field_refuses_the_full_lattice(grid8):
    full = expand_band(random_spectral_field(grid8, seed=5).data, grid8)
    with pytest.raises(ValueError, match="fold_band"):
        SpectralVectorField(grid8, full)


# ---------------------------------------------------------------------------
# compact 2/3-rule band


def band_rows(n):
    """FFT-order indices 0..K, n-K..n-1 of the 2/3 rule, K = (n-1)//3."""
    k = (n - 1) // 3
    return np.r_[0 : k + 1, n - k : n]


def long_double_band_dft(values, rows, k):
    """The band (rows, rows, 0..K) of the forward DFT (1/n^3) of real samples
    (3, n, n, n), pruned and in long double: each index product is reduced
    mod n and pi is taken in long double, so the oracle's own rounding stays
    far below that of a float64 FFT (2.5-5e-16 of the max)."""
    n = values.shape[-1]
    two_pi = 2.0 * np.arccos(np.longdouble(-1.0))

    def dft(out_rows):
        angle = two_pi * (np.outer(out_rows, np.arange(n)) % n) / n
        return np.cos(angle) - 1j * np.sin(angle)  # (rows, n), clongdouble

    out = values.astype(np.clongdouble)
    out = np.einsum("cxyz,kz->cxyk", out, dft(np.arange(k + 1)) / n)
    out = np.einsum("cxyk,jy->cxjk", out, dft(rows) / n)
    return np.einsum("cxjk,ix->cijk", out, dft(rows) / n)


def check_forward_band_matches_rfftn(n, seed):
    """forward_band is the band of the real DFT (numpy's rfftn): the rows
    with |k_axis| < n/3 (K = (n-1)//3, also where 3 divides n), kz = 0..K;
    inverse_band takes it back to the samples of the band part.  The oracle
    is a long-double pruned DFT, so the 1e-15 bound measures forward_band's
    rounding alone."""
    grid = make_grid(n, 2.0 * np.pi)
    k, rows = (n - 1) // 3, band_rows(n)
    assert np.array_equal(rows, grid.band.rows) and 3 * k < n <= 3 * (k + 1)
    values = np.random.default_rng(seed).standard_normal((3,) + grid.shape)
    want = long_double_band_dft(values, rows, k)
    got = forward_band(values, grid)
    assert got.shape == (3, 2 * k + 1, 2 * k + 1, k + 1)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
    again = forward_band(inverse_band(got, grid), grid)  # of the band part
    assert np.abs(again - got).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("n", [8, 16, 18])
def test_forward_band_matches_rfftn_and_mask(n):
    check_forward_band_matches_rfftn(n, seed=11)


@settings(max_examples=30, deadline=None)
@given(n=band_n, seed=seeds, path=paths)
@example(n=24, seed=874113681, path="selected")  # missed rfftn by 1.01e-15
def test_forward_band_matches_rfftn_sweep(n, seed, path):
    with transform_path(path):
        check_forward_band_matches_rfftn(n, seed)


@pytest.mark.parametrize("n", [4, 8, 12, 16, 18, 32])
def test_band_symbols_are_the_full_lattice_gather(n):
    """Band builds its symbols from the 1-D lattices; they equal the gather of
    full-lattice symbols built here bit for bit."""
    grid = make_grid(n, 3.0)
    band = grid.band
    assert band.cutoff == (n - 1) // 3 and 3 * band.cutoff < n
    full_k_sq = grid.dkx**2 + grid.dky**2 + grid.dkz**2
    full_inv = np.zeros_like(full_k_sq)
    np.divide(1.0, full_k_sq, out=full_inv, where=full_k_sq > 0.0)
    pairs = ((band.k_sq, full_k_sq), (band.inv_k_sq, full_inv))
    for got, full in pairs:
        want = band_gather(full, grid)
        assert got.shape == band.shape and got.tobytes() == want.tobytes()
    kept = np.abs(grid.k1) < (n / 3) * 2.0 * np.pi / grid.box_length
    assert np.count_nonzero(kept) == 2 * band.cutoff + 1


def test_grid_holds_no_full_lattice_array():
    """A Grid holds no (n, n, n) array, and none of the full-lattice symbols
    it once built; the heat fits work from the 1-D lattice k1."""
    grid = make_grid(8, 2.0 * np.pi)
    for held in (vars(grid), vars(grid.band)):
        arrays = [v for v in held.values() if isinstance(v, np.ndarray)]
        assert arrays and all(v.size < 8**3 for v in arrays)
    gone = (
        "k_sq", "off_nyquist", "deriv_k_sq", "inv_deriv_k_sq", "dealias_mask",
        "lattice", "kx", "ky", "kz",
    )
    assert not any(hasattr(grid, name) for name in gone)


def check_band_transform_round_trip(n, seed):
    grid = make_grid(n, 2.0 * np.pi)
    f = to_real(random_spectral_field(grid, seed=seed)).data
    back = inverse_band(forward_band(f, grid), grid)
    assert np.abs(back - f).max() <= 1e-13 * np.abs(f).max()


@pytest.mark.parametrize("n", [8, 16, 18])
def test_band_transform_round_trip(n):
    check_band_transform_round_trip(n, seed=13)


@settings(max_examples=30, deadline=None)
@given(n=band_n, seed=seeds, path=paths)
def test_band_transform_round_trip_sweep(n, seed, path):
    with transform_path(path):
        check_band_transform_round_trip(n, seed)


def check_transforms_into_buffers(n, seeds):
    """Caller buffers and one scratch reused across fields and directions give
    the allocating path's bits: the zero padding is rewritten every call."""
    grid = make_grid(n, 2.0 * np.pi)
    scratch = BandScratch(grid)
    for seed in seeds:
        values = random_real_field(grid, seed=seed).data
        coeffs = forward_band(values, grid)
        out = np.full_like(coeffs, np.nan)
        assert forward_band(values, grid, out, scratch) is out
        assert np.array_equal(out, coeffs)
        back = np.full_like(values, np.nan)
        assert inverse_band(coeffs, grid, back, scratch) is back
        assert np.array_equal(back, inverse_band(coeffs, grid))


@pytest.mark.parametrize("n", [8, 16, 18])  # 18: 1/n^3 is not a power of two
def test_band_transforms_into_buffers_match_allocating_path(n):
    check_transforms_into_buffers(n, seeds=(15, 16))


@settings(max_examples=30, deadline=None)
@given(n=band_n, seed=seeds, path=paths)
def test_band_transforms_into_buffers_sweep(n, seed, path):
    with transform_path(path):
        check_transforms_into_buffers(n, seeds=(seed, seed + 1))


def test_band_coefficients_working_set():
    """Traced peak of to_spectral's check that the band gives the samples
    back, at n=32, in (3, n, n, n) sample arrays: the band, one scratch and
    one component's inverse, which takes the error in place: about 1.2.  The
    whole inverse, the difference and its abs read 2.3."""
    import tracemalloc

    grid = make_grid(32, 2.0 * np.pi)
    values = to_real(random_spectral_field(grid, seed=17)).data
    band_coefficients(values, grid)  # first-call setup out of the trace
    tracemalloc.start()
    try:
        band_coefficients(values, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * values.nbytes


def check_fold_expand_round_trip(n, seed):
    """expand_band gives the full-lattice DFT of the band's samples (numpy's
    fftn here), exactly Hermitian; fold_band is its band gather, and the pair
    round-trips, the kz = 0 plane becoming its Hermitian part."""
    grid = make_grid(n, 2.0 * np.pi)
    band = random_band_limited(grid, np.random.default_rng(seed)).data
    full = expand_band(band, grid)
    oracle = fftn(inverse_band(band, grid), axes=(1, 2, 3), norm="forward")
    assert np.abs(full - oracle).max() <= 1e-14 * np.abs(oracle).max()
    neg = (-np.arange(n)) % n
    assert np.array_equal(full[:, neg][:, :, neg][:, :, :, neg], np.conj(full))
    folded = fold_band(full, grid)
    assert np.array_equal(folded, band_gather(full, grid))
    assert np.array_equal(folded[..., 1:], band[..., 1:])
    assert np.array_equal(folded[..., 0], hermitian_plane(band, grid))
    assert np.array_equal(expand_band(folded, grid), full)


@pytest.mark.parametrize("n", [8, 18])
def test_fold_expand_round_trip(n):
    check_fold_expand_round_trip(n, seed=14)


@settings(max_examples=30, deadline=None)
@given(n=even_n, seed=seeds)
def test_fold_expand_round_trip_sweep(n, seed):
    check_fold_expand_round_trip(n, seed)


@settings(max_examples=30, deadline=None)
@given(n=even_n, seed=seeds)
def test_hermitian_plane_is_idempotent(n, seed):
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    shape = (3,) + grid.band.shape
    band = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    once = band.copy()
    once[..., 0] = hermitian_plane(band, grid)
    assert np.array_equal(hermitian_plane(once, grid), once[..., 0])


@settings(max_examples=30, deadline=None)
@given(n=band_n, seed=seeds, count=st.integers(1, 6), path=paths)
def test_multi_field_call_is_bitwise_one_field(n, seed, count, path):
    """forward_band / inverse_band of several fields in one call, on either
    path, give every field bit for bit what it gets alone, through its own
    scratch or a fresh one: no field's bits depend on the others."""
    with transform_path(path):
        check_multi_field_call(n, seed, count)


def check_multi_field_call(n, seed, count):
    grid = make_grid(n, 2.0 * np.pi)
    values = np.random.default_rng(seed).standard_normal((count,) + grid.shape)
    one = BandScratch(grid)
    coeffs = forward_band(values, grid)
    back = inverse_band(coeffs, grid)
    for field, coeff, sample in zip(values, coeffs, back):
        assert np.array_equal(forward_band(field, grid, scratch=one), coeff)
        assert np.array_equal(inverse_band(coeff, grid, scratch=one), sample)


@pytest.mark.parametrize("index", [(0, 0, 3), (0, 3, 0), (3, 0, 0), (5, 5, 5)])
def test_check_band_rejects_out_of_band(grid8, index):
    data = np.zeros((3,) + grid8.shape, dtype=np.complex128)
    data[(1,) + index] = 1e-300
    with pytest.raises(ValueError, match="outside the 2/3 band"):
        fold_band(data, grid8)


@pytest.mark.parametrize("n", [8, 16])
def test_band_weight_sums(n):
    grid = make_grid(n, 2.0 * np.pi)
    # the band's weighted sums are the full lattice's sums
    f = random_spectral_field(grid, seed=12)
    assert grid.band.weight.shape == (n // 3 + 1,)
    sq = np.abs(expand_band(f.data, grid)) ** 2
    l2_sq = grid.volume * np.sum(sq)
    grad_sq = grid.volume * np.sum((grid.dkx**2 + grid.dky**2 + grid.dkz**2) * sq)
    assert l2(f) ** 2 == pytest.approx(l2_sq, rel=1e-13)
    assert l2_grad(f) ** 2 == pytest.approx(grad_sq, rel=1e-13)


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
    # |u_hat|^2 overflows at 1e200, but the defect is scale free: taken of
    # the unscaled squares it was NaN, and NaN passed the bound
    huge_u, huge_w = (SpectralVectorField(grid8, 1e200 * f.data) for f in (u, w))
    SimState(0.0, huge_u, w)
    with pytest.raises(ValueError, match="divergence"):
        SimState(0.0, huge_w, u)


def test_single_mode_builder_matches_sine(grid8):
    x = np.arange(8) * grid8.spacing
    for axis in range(3):
        f = single_mode_field(grid8, component=1, axis=axis, index=2, amplitude=0.7)
        shape = [-1 if a == axis else 1 for a in range(3)]
        expected = 0.7 * np.sin(2.0 * x).reshape(shape)
        assert np.abs(to_real(f).data[1] - expected).max() < 1e-13
    with pytest.raises(ValueError, match="outside the 2/3 band"):
        single_mode_field(grid8, component=1, axis=0, index=3)
