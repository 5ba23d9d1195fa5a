"""Operator identities, projection, dealiasing, advection, and GN ratios."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropolar.fields import (
    RealVectorField,
    ScalarField,
    SpectralVectorField,
    expand_band,
    fold_band,
    forward_band,
    inverse_band,
    to_real,
)
from micropolar.grid import make_grid
from micropolar.norms import inner, l2
from micropolar.operators import (
    CALIBRATED_C_INFTY,
    LEVI_CIVITA,
    advect,
    advect_hat,
    calibration_ensemble,
    curl,
    derivative,
    divergence,
    epsilon_cross_integral,
    gn_ratio_grad,
    gn_ratio_infty,
    grad_div,
    gradient,
    laplacian,
    leray_project,
    random_band_limited,
)

from conftest import (
    advective_oracle,
    band_gather,
    band_n,
    paths,
    random_spectral_field,
    seeds,
    single_mode_field,
    transform_path,
)


def hermitian_defect(data, grid):
    """|f(k) - conj f(-k)| on the band's kz = 0 plane, which holds both."""
    m = 2 * grid.band.cutoff + 1
    idx = (-np.arange(m)) % m
    plane = data[..., 0]
    return np.abs(plane - np.conj(plane[:, idx][:, :, idx])).max()


def band_limited_noise(grid, rng):
    """The band part of a white-noise scalar sample."""
    return inverse_band(forward_band(rng.standard_normal(grid.shape), grid), grid)


def test_linear_operators_preserve_hermitian_symmetry(grid8):
    f = random_spectral_field(grid8, seed=77)
    assert hermitian_defect(f.data, grid8) < 1e-14
    ops = [
        lambda g: derivative(g, 0),
        lambda g: derivative(g, 2),
        curl,
        laplacian,
        grad_div,
        leray_project,
    ]
    for op in ops:
        out = op(f)
        scale = max(np.abs(out.data).max(), 1e-300)
        assert hermitian_defect(out.data, grid8) <= 1e-13 * scale


def test_levi_civita_entries():
    for perm, sign in [
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((1, 0, 2), -1), ((2, 1, 0), -1),
    ]:
        assert LEVI_CIVITA[perm] == sign
    assert np.count_nonzero(LEVI_CIVITA) == 6


# ---------------------------------------------------------------------------
# derivative


def test_derivative_of_constant(grid8):
    data = np.zeros((3,) + grid8.band.shape, dtype=np.complex128)
    data[:, 0, 0, 0] = 2.5
    d = derivative(SpectralVectorField(grid8, data), 0)
    assert np.all(d.data == 0.0)


def test_derivative_sin_is_cos(grid8):
    f = single_mode_field(grid8, component=0, axis=0)
    d = to_real(derivative(f, 0))
    x = np.arange(8) * grid8.spacing
    assert np.abs(d.data[0] - np.cos(x)[:, None, None]).max() < 1e-13


def test_derivative_matches_finite_differences():
    # Band-limited random field from a 4^3 grid, resampled on finer grids;
    # centered differences converge at O(h^2), so the error ratio between
    # successive refinements approaches 4 (Richardson trend).
    coarse = make_grid(4, 2.0 * np.pi)
    f4 = random_spectral_field(coarse, seed=11)
    errors = []
    for n in (16, 32, 64):
        fine = make_grid(n, 2.0 * np.pi)
        data = np.zeros((3,) + fine.band.shape, dtype=np.complex128)
        # embed the band of n=4, {-1, 0, 1} (kz 0 and 1), in the fine band
        rows = np.array([0, 1, 2 * fine.band.cutoff])
        data[:, rows[:, None], rows, :2] = f4.data
        fld = SpectralVectorField(fine, data)
        exact = to_real(derivative(fld, 0)).data
        phys = to_real(fld).data
        h = fine.spacing
        fd = (np.roll(phys, -1, axis=1) - np.roll(phys, 1, axis=1)) / (2.0 * h)
        errors.append(np.abs(fd - exact).max())
    ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    assert all(3.4 < r < 4.6 for r in ratios)


# ---------------------------------------------------------------------------
# vector-calculus identities


def test_curl_of_gradient_vanishes(grid8):
    rng = np.random.default_rng(0)
    p = ScalarField(grid8, band_limited_noise(grid8, rng))
    residual = curl(gradient(p))
    assert np.abs(residual.data).max() < 1e-13


def test_divergence_of_curl_vanishes(grid8):
    f = random_spectral_field(grid8, seed=1)
    assert np.abs(divergence(curl(f)).values).max() < 1e-13


def test_curl_hand_example(grid8):
    f = single_mode_field(grid8, component=1, axis=0)  # (0, sin x, 0)
    c = to_real(curl(f))
    x = np.arange(8) * grid8.spacing
    assert np.abs(c.data[2] - np.cos(x)[:, None, None]).max() < 1e-13
    assert np.abs(c.data[:2]).max() < 1e-13


def test_vector_identity_100_fields(grid8):
    for seed in range(100):
        f = random_spectral_field(grid8, seed=1000 + seed)
        lhs = grad_div(f).data - curl(curl(f)).data
        rhs = laplacian(f).data
        scale = max(np.abs(rhs).max(), 1e-30)
        assert np.abs(lhs - rhs).max() <= 1e-12 * scale


def check_operator_identities(n, seed):
    """curl grad = 0, div curl = 0, grad div - curl curl = Laplacian, and
    the Leray projection is idempotent and self-adjoint, on random band
    fields, each residual against the scale of its terms."""
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    grad = gradient(ScalarField(grid, band_limited_noise(grid, rng)))
    assert np.abs(curl(grad).data).max() <= 1e-13 * np.abs(grad.data).max()
    f, g = (random_band_limited(grid, rng) for _ in range(2))
    curl_f = curl(f)
    div_curl = divergence(curl_f).values
    assert np.abs(div_curl).max() <= 1e-13 * np.abs(to_real(curl_f).data).max()
    lhs = grad_div(f).data - curl(curl_f).data
    rhs = laplacian(f).data
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()
    pf = leray_project(f)
    assert np.abs(leray_project(pf).data - pf.data).max() <= 1e-12 * np.abs(pf.data).max()
    lhs, rhs = inner(pf, g), inner(f, leray_project(g))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=30, deadline=None)
@given(n=band_n, seed=seeds, path=paths)
def test_operator_identities_sweep(n, seed, path):
    """The identities above, drawn over even n in 4..64 on both transform
    paths (the n=8 tests above check them on fixed fields)."""
    with transform_path(path):
        check_operator_identities(n, seed)


# ---------------------------------------------------------------------------
# Leray projection


def test_gradient_refuses_samples_off_the_band(grid8):
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="off the 2/3 band"):
        gradient(ScalarField(grid8, rng.standard_normal(grid8.shape)))


def test_leray_kills_gradients(grid8):
    rng = np.random.default_rng(2)
    p = ScalarField(grid8, band_limited_noise(grid8, rng))
    projected = leray_project(gradient(p))
    assert np.abs(projected.data).max() < 1e-13


def test_leray_fixes_solenoidal(grid8):
    f = random_spectral_field(grid8, seed=3, solenoidal=True)
    g = leray_project(f)
    assert np.abs(g.data - f.data).max() < 1e-13 * np.abs(f.data).max()


def test_leray_single_modes(grid8):
    # (sin y, 0, 0) is solenoidal: unchanged.  (sin x, 0, 0) is a gradient
    # mode along its own wavevector: projected to zero.
    f_perp = single_mode_field(grid8, component=0, axis=1)
    f_par = single_mode_field(grid8, component=0, axis=0)
    assert np.abs(leray_project(f_perp).data - f_perp.data).max() < 1e-14
    assert np.abs(leray_project(f_par).data).max() < 1e-14


def test_leray_idempotent_self_adjoint(grid8):
    for seed in range(20):
        f = random_spectral_field(grid8, seed=200 + seed)
        g = random_spectral_field(grid8, seed=300 + seed)
        pf = leray_project(f)
        scale = np.abs(pf.data).max()
        assert np.abs(leray_project(pf).data - pf.data).max() <= 1e-12 * scale
        lhs = inner(pf, g)
        rhs = inner(f, leray_project(g))
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


def test_leray_output_divergence(grid8):
    from micropolar.fields import divergence_defect

    f = random_spectral_field(grid8, seed=4)
    assert divergence_defect(leray_project(f)) <= 1e-12


@pytest.mark.parametrize("n", [8, 18])
def test_divergence_defect_matches_full_lattice_norms(n):
    # summed on the band, weighted for the kz < 0 half it does not hold
    from micropolar.fields import divergence_defect
    from micropolar.norms import l2_div, l2_grad

    f = random_spectral_field(make_grid(n, 2.0 * np.pi), seed=5)
    assert divergence_defect(f) == pytest.approx(l2_div(f) / l2_grad(f), rel=1e-13)


# ---------------------------------------------------------------------------
# dealiasing: the 2/3 rule is the band itself (forward_band keeps its modes)


def test_dealias_preserves_inner_band(grid8):
    f = random_spectral_field(grid8, seed=5)  # already band-limited
    again = forward_band(inverse_band(f.data, grid8), grid8)
    assert np.abs(again - f.data).max() <= 1e-15 * np.abs(f.data).max()


def test_dealias_idempotent(grid8):
    # the band of complex noise, made the band of a real field by
    # fold_band o expand_band, is a projection
    rng = np.random.default_rng(6)
    for _ in range(100):
        raw = rng.standard_normal((3,) + grid8.shape) + 1j * rng.standard_normal(
            (3,) + grid8.shape
        )
        once = fold_band(expand_band(band_gather(raw, grid8), grid8), grid8)
        twice = fold_band(expand_band(once, grid8), grid8)
        assert np.array_equal(once, twice)


def test_dealias_retained_modes_n8():
    # samples holding every x wavenumber: the band keeps |k| <= 2 of 0..4
    grid = make_grid(8, 2.0 * np.pi)
    x = np.arange(8) * grid.spacing
    values = np.zeros((3,) + grid.shape)
    values[0] = sum(np.cos(m * x) for m in range(5))[:, None, None]
    kept = np.abs(forward_band(values, grid)[0, :, 0, 0]) > 1e-12
    retained = sorted(int(round(k)) for k in grid.k1[grid.band.rows[kept]])
    assert retained == [-2, -1, 0, 1, 2]


# ---------------------------------------------------------------------------
# advection


def test_advect_zero_cases(grid8):
    v = random_spectral_field(grid8, seed=7, solenoidal=True)
    zero = SpectralVectorField(
        grid8, np.zeros((3,) + grid8.band.shape, dtype=np.complex128)
    )
    const = np.zeros((3,) + grid8.band.shape, dtype=np.complex128)
    const[:, 0, 0, 0] = 3.0
    assert np.abs(advect(zero, v).data).max() == 0.0
    assert np.abs(advect(v, SpectralVectorField(grid8, const)).data).max() < 1e-15


def test_advect_skew_symmetry(grid8):
    rng = np.random.default_rng(400)
    for _ in range(10):
        v = random_band_limited(grid8, rng, solenoidal=True)
        f = random_band_limited(grid8, rng)
        val = inner(advect(v, f), f)
        scale = l2(v) * l2(f) ** 2
        assert abs(val) <= 1e-11 * scale


def test_advect_is_advect_hat(grid8):
    v = random_spectral_field(grid8, seed=10, solenoidal=True)
    f = random_spectral_field(grid8, seed=11)
    assert np.array_equal(advect(v, f).data, advect_hat(v.data, f.data, grid8))
    assert np.array_equal(advect(v, v).data, advect_hat(v.data, v.data, grid8))


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(range(4, 41, 2)), seed=st.integers(0, 2**32 - 1))
def test_advect_hat_properties_on_every_n(n, seed):
    """On random band fields, u solenoidal: <advect_hat(u, f), f> = 0, the
    flux kernel equals the advective-form oracle, and the six-product path
    (f is u) equals the nine-product one."""
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    u = random_band_limited(grid, rng, solenoidal=True)
    f = random_band_limited(grid, rng)
    got = advect_hat(u.data, f.data, grid)
    term = SpectralVectorField(grid, got)
    assert abs(inner(term, f)) <= 1e-14 * l2(term) * l2(f)
    want = advective_oracle(u, f)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    six = advect_hat(u.data, u.data, grid)
    nine = advect_hat(u.data, u.data.copy(), grid)
    assert np.abs(six - nine).max() <= 1e-13 * np.abs(nine).max()


def convolution_advection_oracle(v: np.ndarray, f: np.ndarray, grid):
    """Direct convolution sum for (v . grad) f of full-lattice coefficients,
    truncated to the grid lattice.

    [(v . grad) f]_i^(k) = sum_j sum_{p+q=k} v_j^(p) * (i q_j) f_i^(q),
    with p + q = k meant without aliasing (images beyond the lattice dropped,
    which matches the dealiased pseudo-spectral product on the retained band).
    """
    n = grid.n_per_axis
    shift = n // 2 - 1
    # index arithmetic on integer lattice coordinates in [-n/2+1, n/2]
    ints = np.rint(grid.k1 / (2.0 * np.pi / grid.box_length)).astype(int)
    out = np.zeros((3,) + grid.shape, dtype=np.complex128)
    dk = [grid.dkx, grid.dky, grid.dkz]
    for j in range(3):
        grad_f = 1j * dk[j] * f  # (3, n, n, n), component i
        for pa in range(n):
            for pb in range(n):
                for pc in range(n):
                    vp = v[j, pa, pb, pc]
                    if vp == 0.0:
                        continue
                    # k = p + q: shift the grad_f block by the integer vector p
                    pvec = (ints[pa], ints[pb], ints[pc])
                    out += vp * np.roll(
                        grad_f, shift=pvec, axis=(1, 2, 3)
                    ) * _no_wrap_mask(ints, pvec)
    return out


def _no_wrap_mask(ints: np.ndarray, pvec) -> np.ndarray:
    """Mask selecting k = p + q combinations that stay on the lattice."""
    lo, hi = ints.min(), ints.max()
    masks = []
    for p in pvec:
        k_ok = (ints - p >= lo) & (ints - p <= hi)
        masks.append(k_ok)
    return (
        masks[0][:, None, None] & masks[1][None, :, None] & masks[2][None, None, :]
    )


def test_advect_matches_convolution_oracle():
    grid = make_grid(4, 2.0 * np.pi)
    v = random_spectral_field(grid, seed=8, solenoidal=True)
    f = random_spectral_field(grid, seed=9)
    fast = advect(v, f)
    full_v, full_f = (expand_band(x.data, grid) for x in (v, f))
    oracle = band_gather(convolution_advection_oracle(full_v, full_f, grid), grid)
    scale = max(np.abs(oracle).max(), 1e-30)
    assert np.abs(fast.data - oracle).max() <= 1e-12 * scale


# ---------------------------------------------------------------------------
# epsilon cross integral


def test_cross_integral_matches_operator_composition(grid8):
    # Oracle: sum_l <D_l w, D_l curl u> assembled from derivative and curl.
    u = random_spectral_field(grid8, seed=21, solenoidal=True)
    w = random_spectral_field(grid8, seed=22)
    oracle = sum(
        inner(derivative(w, axis), derivative(curl(u), axis)) for axis in range(3)
    )
    val = epsilon_cross_integral(w, u)
    assert abs(val - oracle) <= 1e-10 * max(abs(oracle), 1.0)
    # Oracle: the eps_{ijk} contraction written out against LEVI_CIVITA,
    # L^3 sum_k |k|^2 k_j Re[i conj(w_i) u_k], summed on the full lattice.
    kvec = np.stack(np.broadcast_arrays(grid8.dkx, grid8.dky, grid8.dkz))
    full_w, full_u = (expand_band(x.data, grid8) for x in (w, u))
    weighted = np.conj(full_w) * np.sum(kvec**2, axis=0)
    contraction = np.einsum("ijk,jabc,iabc,kabc->", LEVI_CIVITA, kvec, weighted, full_u)
    explicit = -grid8.volume * contraction.imag
    assert abs(val - explicit) <= 1e-13 * abs(explicit)


def test_cross_integral_vanishes_without_either_field(grid8):
    u = random_spectral_field(grid8, seed=23, solenoidal=True)
    zero = SpectralVectorField(
        grid8, np.zeros((3,) + grid8.band.shape, dtype=np.complex128)
    )
    assert epsilon_cross_integral(zero, u) == 0.0
    assert epsilon_cross_integral(u, zero) == 0.0


# ---------------------------------------------------------------------------
# GN ratios


def test_gn_infty_scaling_invariance(grid8):
    f = to_real(random_spectral_field(grid8, seed=31))
    base = gn_ratio_infty(f)
    for lam in (0.1, -3.0, 1e6):
        scaled = RealVectorField(grid8, lam * f.data)
        assert np.isclose(gn_ratio_infty(scaled), base, rtol=1e-12)


def test_gn_infty_single_mode_value():
    # Analytic oracle: u = (sin x, 0, 0) on [0, 2pi]^3 has ||u||_inf = 1 and
    # ||u||_2 = ||D^2 u||_2 = sqrt(4 pi^3), so the ratio is (4 pi^3)^(-1/2).
    grid = make_grid(16, 2.0 * np.pi)
    f = to_real(single_mode_field(grid, component=0, axis=0))
    assert np.isclose(gn_ratio_infty(f), (4.0 * np.pi**3) ** -0.5, rtol=1e-12)


@pytest.mark.parametrize("seed", [6, 33, 90])
def test_gn_infty_refinement_stability(seed):
    # The sup-norm sampling error scales like (k dx)^2, so the band must sit
    # well inside the grid for the ratio to be grid-converged.
    coarse = make_grid(32, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    envelope = (np.sqrt(coarse.band.k_sq) <= 2.0).astype(float)
    f = random_band_limited(coarse, rng, envelope=envelope)
    r_coarse = gn_ratio_infty(to_real(f))
    fine = make_grid(64, 2.0 * np.pi)
    # the coarse band's wavenumbers placed in the fine band
    kc, kf = coarse.band.cutoff, fine.band.cutoff
    rows = np.r_[0 : kc + 1, 2 * kf + 1 - kc : 2 * kf + 1]
    embedded = np.zeros((3,) + fine.band.shape, dtype=np.complex128)
    embedded[:, rows[:, None], rows, : kc + 1] = f.data
    r_fine = gn_ratio_infty(to_real(SpectralVectorField(fine, embedded)))
    assert abs(r_fine - r_coarse) <= 0.02 * r_coarse


def test_gn_grad_single_mode_equality(grid8):
    f = to_real(single_mode_field(grid8, component=0, axis=1))
    assert np.isclose(gn_ratio_grad(f), 1.0, rtol=1e-13)


def test_gn_grad_two_shells_strict(grid8):
    f1 = single_mode_field(grid8, component=0, axis=1, index=1)
    f2 = single_mode_field(grid8, component=0, axis=1, index=2)
    f = RealVectorField(grid8, to_real(f1).data + to_real(f2).data)
    assert gn_ratio_grad(f) < 1.0 - 1e-3


def test_gn_grad_ensemble_bound(grid8):
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        f = to_real(random_band_limited(grid8, rng))
        worst = max(worst, gn_ratio_grad(f))
    assert worst <= 1.0 + 1e-12


def test_gn_zero_field_errors(grid8):
    zero = RealVectorField(grid8, np.zeros((3,) + grid8.shape))
    with pytest.raises(ValueError):
        gn_ratio_infty(zero)
    with pytest.raises(ValueError):
        gn_ratio_grad(zero)


def test_c_infty_regression():
    # Frozen at calibration time from the seeded ensemble; a smaller seeded
    # subsample must stay below it and within reach of it.
    worst = max(gn_ratio_infty(f) for f in calibration_ensemble(count=100))
    assert worst <= CALIBRATED_C_INFTY + 1e-12
    assert worst >= 0.25 * CALIBRATED_C_INFTY
