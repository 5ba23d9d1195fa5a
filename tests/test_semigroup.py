"""Heat propagator, decay-slope fits, and Duhamel reconstructions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropolar.dynamics import InitialCondition, StepperConfig, evolve, make_initial
from micropolar.fields import (
    PhysicalParams,
    RealVectorField,
    SimState,
    to_spectral,
    zero_spectral,
)
from micropolar.grid import make_grid
from micropolar.norms import l2, l2_grad
from micropolar.operators import curl, derivative, leray_project
from micropolar.semigroup import (
    L2_GRAD_SMOOTHING_CONSTANT,
    DuhamelLedger,
    SemigroupQuery,
    SeparableField,
    bump_ensemble,
    decay_exponent,
    default_bump_widths,
    default_ensemble,
    discrete_l1_smoothing_constant,
    duhamel_reconstruct_w,
    duhamel_terms,
    fit_heat_decay,
    gaussian_bump,
    heat_apply,
    heat_l2_norms,
    periodization_window,
)

from conftest import random_spectral_field, single_mode_field


# ---------------------------------------------------------------------------
# heat_apply


def test_heat_tau_zero_identity(grid8):
    f = random_spectral_field(grid8, seed=1)
    out = heat_apply(f, nu=0.3, tau=0.0)
    assert np.array_equal(out.data, f.data)


def test_heat_single_mode(grid8):
    f = single_mode_field(grid8, component=0, axis=2, index=2)
    out = heat_apply(f, nu=0.25, tau=0.8)
    assert np.allclose(out.data, np.exp(-0.25 * 4.0 * 0.8) * f.data, rtol=1e-14)


def test_heat_rejects_bad_args(grid8):
    f = random_spectral_field(grid8, seed=2)
    with pytest.raises(ValueError):
        heat_apply(f, nu=0.3, tau=-0.1)
    with pytest.raises(ValueError):
        heat_apply(f, nu=0.0, tau=0.1)


def test_heat_semigroup_property(grid8):
    f = random_spectral_field(grid8, seed=3)
    ab = heat_apply(heat_apply(f, 0.4, 0.13), 0.4, 0.27)
    direct = heat_apply(f, 0.4, 0.4)
    assert np.abs(ab.data - direct.data).max() <= 1e-14 * np.abs(f.data).max()


def test_heat_norm_monotone(grid8):
    f = random_spectral_field(grid8, seed=4)
    norms = [l2(heat_apply(f, 0.5, tau)) for tau in np.linspace(0.0, 0.4, 9)]
    assert all(b <= a * (1.0 + 1e-14) for a, b in zip(norms, norms[1:]))


def test_heat_commutes_with_operators(grid8):
    f = random_spectral_field(grid8, seed=5)
    scale = np.abs(f.data).max()
    for op in (leray_project, curl, lambda g: derivative(g, 1)):
        a = op(heat_apply(f, 0.3, 0.2))
        b = heat_apply(op(f), 0.3, 0.2)
        assert np.abs(a.data - b.data).max() <= 1e-13 * scale


def test_heat_gaussian_closed_form():
    # ||e^{nu Lap tau} f||_2 for an isotropic Gaussian of width s is
    # sqrt(3) pi^{3/4} s^3 (s^2 + 2 nu tau)^{-3/4} on R^3 (3 components).
    # The bump has modes beyond the band: its norms are full-lattice shell sums.
    grid = make_grid(32, 2.0 * np.pi)
    sigma = 1.5 * grid.spacing
    centers = np.full((3, 3), grid.box_length / 2.0)
    f = gaussian_bump(grid, sigma, centers)
    nu = 0.7
    win = periodization_window(grid, nu)
    taus = np.linspace(win / 50.0, win, 8)
    measured = heat_l2_norms(f, nu, taus)
    for tau, value in zip(taus, measured):
        exact = (
            math.sqrt(3.0)
            * np.pi**0.75
            * sigma**3
            * (sigma**2 + 2.0 * nu * tau) ** -0.75
        )
        assert abs(value - exact) <= 1e-6 * exact


def lattice_samples(f: SeparableField) -> np.ndarray:
    """The (3, n, n, n) samples of a separable field, the product of its 1-D
    factors' samples."""
    g = f.samples()
    return np.einsum("ci,cj,ck->cijk", g[:, 0], g[:, 1], g[:, 2])


def test_heat_l2_norms_match_the_band_on_band_fields(grid8):
    # the 1-D sums of the bump fits against the band's heat propagator and
    # norms, on a separable field that lives on the band
    n = grid8.n_per_axis
    noise = np.random.default_rng(6).standard_normal((3, 3, n))
    coeffs = np.fft.fft(noise, norm="forward")
    off_band = np.ones(n, dtype=bool)
    off_band[grid8.band.rows] = False
    coeffs[..., off_band] = 0.0
    f = SeparableField(grid8, coeffs)
    spec = to_spectral(RealVectorField(grid8, lattice_samples(f)))
    taus = np.array([0.0, 0.1, 0.7])
    for alpha in ((0, 0, 0), (1, 0, 0)):
        got = heat_l2_norms(f, 0.3, taus, alpha)
        heated = [heat_apply(spec, 0.3, tau) for tau in taus]
        if alpha[0]:
            heated = [derivative(h, 0) for h in heated]
        assert np.allclose(got, [l2(h) for h in heated], rtol=1e-13, atol=0.0)


def full_lattice_oracle(f: SeparableField, nu: float, taus, alpha):
    """The bump fits' quantities on the full (n, n, n) lattice, by numpy's
    3-D FFTs: samples by ifftn of the (3, n, n, n) coefficients, heat norms
    from the fftn of the samples, L1 and L2 by quadrature of the samples,
    and the smoothing constant's lattice sum over every mode."""
    grid = f.grid
    c = f.coeffs
    full = np.einsum("ci,cj,ck->cijk", c[:, 0], c[:, 1], c[:, 2])
    samples = np.fft.ifftn(full, axes=(1, 2, 3), norm="forward").real
    f_hat = np.fft.fftn(samples, axes=(1, 2, 3), norm="forward")
    k, dk = grid.k1, grid.dk1
    k_sq = k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2
    weight = (
        dk[:, None, None] ** (2 * alpha[0])
        * dk[None, :, None] ** (2 * alpha[1])
        * dk[None, None, :] ** (2 * alpha[2])
    )
    power = weight * np.sum(np.abs(f_hat) ** 2, axis=0)
    damp = [np.exp(-2.0 * nu * tau * k_sq) for tau in taus]
    heat = [np.sqrt(grid.volume * np.sum(power * d)) for d in damp]
    l1 = grid.cell_volume * np.sum(np.abs(samples))
    l2_norm = np.sqrt(grid.cell_volume * np.sum(samples**2))
    k1 = max((nu * t) ** 0.75 * np.sqrt(np.sum(d) / grid.volume) for t, d in zip(taus, damp))
    return samples, np.array(heat), l1, l2_norm, k1


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(range(8, 49, 2)),
    seed=st.integers(0, 2**32 - 1),
    rung=st.integers(0, 10**6),
    alpha=st.tuples(*(st.integers(0, 2),) * 3),
)
def test_separable_bump_matches_full_lattice_oracle(n, seed, rung, alpha):
    """Samples, heat norms, L1 and L2 norms and the smoothing constant from
    the bump's 1-D factors agree with the full lattice at 1e-13."""
    grid = make_grid(n, 2.0 * np.pi)
    widths = default_bump_widths(grid)
    rng = np.random.default_rng(seed)
    nu = 0.7
    centers = grid.box_length * rng.random((3, 3))
    f = gaussian_bump(grid, widths[rung % len(widths)], centers)
    taus = periodization_window(grid, nu) * rng.random(4)
    samples, heat, l1, l2_norm, k1 = full_lattice_oracle(f, nu, taus, alpha)
    assert np.abs(lattice_samples(f) - samples).max() <= 1e-13 * np.abs(samples).max()
    assert np.allclose(heat_l2_norms(f, nu, taus, alpha), heat, rtol=1e-13, atol=0.0)
    assert f.lr_norm(1.0) == pytest.approx(l1, rel=1e-13)
    assert f.lr_norm(2.0) == pytest.approx(l2_norm, rel=1e-13)
    assert discrete_l1_smoothing_constant(grid, nu, taus) == pytest.approx(k1, rel=1e-13)


def test_bump_lr_norm_matches_closed_form():
    # a well-resolved positive bump (s = 4h, images e^{-64} apart) keeps the
    # integrals of the whole-space Gaussian A e^{-|x|^2 / 2 s^2}:
    # ||f||_1 = 3 A (2 pi s^2)^{3/2} and ||f||_2^2 = 3 A^2 (pi s^2)^{3/2}
    grid = make_grid(64, 2.0 * np.pi)
    s, amplitude = 4.0 * grid.spacing, 1.7
    f = gaussian_bump(grid, s, np.full((3, 3), 1.3), amplitude)
    l1 = 3.0 * amplitude * (2.0 * np.pi * s**2) ** 1.5
    assert f.lr_norm(1.0) == pytest.approx(l1, rel=1e-12)
    l2_sq = 3.0 * amplitude**2 * (np.pi * s**2) ** 1.5
    assert f.lr_norm(2.0) ** 2 == pytest.approx(l2_sq, rel=1e-12)
    # sin(x) in one component.  At n=8 the L1 quadrature is the 8-point sum
    # of |sin|, (pi/4)(2 + 2 sqrt 2) per period, times (2 pi)^2 for the other
    # axes; at n=128 it nears the continuum value 4 (2 pi)^2.  sin^2 is
    # band-limited, so the quadrature is exact for L2.
    sum_8 = (np.pi / 4.0) * (2.0 + 2.0 * np.sqrt(2.0))
    for n, per_period, rtol in ((8, sum_8, 1e-12), (128, 4.0, 1e-3)):
        coeffs = np.zeros((3, 3, n), dtype=complex)
        coeffs[0, 0, [1, -1]] = -0.5j, 0.5j
        coeffs[0, 1:, 0] = 1.0
        sine = SeparableField(make_grid(n, 2.0 * np.pi), coeffs)
        assert sine.lr_norm(1.0) == pytest.approx(per_period * (2.0 * np.pi) ** 2, rel=rtol)
        assert sine.lr_norm(2.0) == pytest.approx(np.sqrt(np.pi) * 2.0 * np.pi, rel=1e-12)
    with pytest.raises(ValueError, match="r must be"):
        f.lr_norm(0.5)


def test_heat_fit_builds_no_lattice_array():
    """The fits hold each bump by its 1-D factors: building the default
    ensemble at n=32 and fitting it (r=2, alpha=(1,1,0)) peaks below one
    (n, n, n) float64 array.  Full-lattice bumps took (3, n, n, n) arrays."""
    import tracemalloc

    grid = make_grid(32, 2.0 * np.pi)
    window = periodization_window(grid, 0.7)
    query = SemigroupQuery(nu=0.7, tau=window, alpha=(1, 1, 0), r=2.0)
    fit_heat_decay(query, default_ensemble(query, grid))  # first-call setup untraced
    tracemalloc.start()
    try:
        fit_heat_decay(query, default_ensemble(query, grid))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 32**3


# ---------------------------------------------------------------------------
# decay_exponent


@pytest.mark.parametrize(
    "n,r,m,expected",
    [
        (3, 1.0, 0, -0.75),
        (3, 2.0, 1, -0.5),
        (3, 2.0, 0, 0.0),
        (3, 1.0, 1, -1.25),
        (3, 1.0, 2, -1.75),
        (3, 2.0, 2, -1.0),
        (1, 1.0, 0, -0.25),
    ],
)
def test_decay_exponent_values(n, r, m, expected):
    assert decay_exponent(n, r, m) == pytest.approx(expected, abs=1e-15)


def test_semigroup_query_validation():
    SemigroupQuery(nu=0.5, tau=1.0, alpha=(0, 1, 0), r=1.5)
    with pytest.raises(ValueError):
        SemigroupQuery(nu=0.0, tau=1.0, alpha=(0, 0, 0), r=1.0)
    with pytest.raises(ValueError):
        SemigroupQuery(nu=0.5, tau=-1.0, alpha=(0, 0, 0), r=1.0)
    with pytest.raises(ValueError):
        SemigroupQuery(nu=0.5, tau=1.0, alpha=(0, 0, 0), r=2.5)
    with pytest.raises(ValueError):
        SemigroupQuery(nu=0.5, tau=1.0, alpha=(0, -1, 0), r=1.0)


def test_decay_exponent_rejects():
    with pytest.raises(ValueError):
        decay_exponent(3, 0.5, 0)
    with pytest.raises(ValueError):
        decay_exponent(3, 2.5, 0)
    with pytest.raises(ValueError):
        decay_exponent(0, 1.0, 0)
    with pytest.raises(ValueError):
        decay_exponent(3, 1.0, -1)


# ---------------------------------------------------------------------------
# decay-slope fits


@pytest.mark.parametrize("r", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [(0, 0, 0), (1, 0, 0), (1, 1, 0)])
def test_smoothing_slopes(r, alpha):
    grid = make_grid(32, 2.0 * np.pi)
    nu = 0.7
    query = SemigroupQuery(nu=nu, tau=periodization_window(grid, nu), alpha=alpha, r=r)
    fit = fit_heat_decay(query, default_ensemble(query, grid))
    assert abs(fit.slope - fit.expected_slope) <= 0.05
    assert fit.expected_slope == decay_exponent(3, r, sum(alpha))
    assert fit.k_envelope > 0.0


def test_smoothing_slope_r2_m0_upper_envelope():
    grid = make_grid(32, 2.0 * np.pi)
    query = SemigroupQuery(nu=0.7, tau=0.2, alpha=(0, 0, 0), r=2.0)
    fit = fit_heat_decay(query, default_ensemble(query, grid))
    # L2 norms never increase: envelope slope is ~0 from below
    assert -0.05 <= fit.slope <= 1e-9
    assert fit.k_envelope <= 1.0 + 1e-12


def test_fit_rejects_out_of_window():
    grid = make_grid(16, 2.0 * np.pi)
    query = SemigroupQuery(nu=0.7, tau=1.0, alpha=(0, 0, 0), r=1.0)
    ensemble = bump_ensemble(grid)
    win = periodization_window(grid, 0.7)
    with pytest.raises(ValueError, match="window"):
        fit_heat_decay(query, ensemble, taus=np.array([win / 2.0, 2.0 * win]))
    with pytest.raises(ValueError):
        fit_heat_decay(query, [])


def test_default_sweep_rejects_tiny_box():
    # A sweep with upper end below the truncation guard must be refused.
    grid = make_grid(8, 2.0 * np.pi)
    nu = 0.7
    query = SemigroupQuery(nu=nu, tau=1e-4, alpha=(0, 0, 0), r=1.0)
    from micropolar.semigroup import default_tau_sweep

    with pytest.raises(ValueError, match="empty tau sweep"):
        default_tau_sweep(query, grid)


# ---------------------------------------------------------------------------
# Duhamel reconstruction


@pytest.fixture(scope="module")
def nonlinear_trajectories():
    """Fine-cadence trajectories for chi = 0 and chi = 0.5 (n=16 box)."""
    grid = make_grid(16, 8.0 * np.pi)
    out = {}
    for chi in (0.0, 0.5):
        p = PhysicalParams(mu=0.3, gamma=0.3, chi=chi)
        ic = InitialCondition("random_solenoidal", 1.0, 3.0, seed=11)
        state = make_initial(ic, grid)
        cfg = StepperConfig(dt=0.01, t_end=2.5)
        traj = []
        for j, st, _ in evolve(state, p, cfg):
            if st.t >= 0.5 - 1e-12 and j % 4 == 0:
                traj.append(st)
        out[chi] = (p, traj)
    return out


def test_duhamel_exact_for_linear_single_mode(grid8):
    p = PhysicalParams(mu=0.3, gamma=0.25, chi=0.0)
    w0 = single_mode_field(grid8, component=1, axis=0, index=1)
    zeros = zero_spectral(grid8)
    traj = []
    for i, t in enumerate(np.linspace(0.0, 1.0, 6)):
        traj.append(SimState(t, zeros, heat_apply(w0, p.gamma, t)))
    rec = duhamel_reconstruct_w(traj, p)
    assert rec.residuals.max() <= 1e-12


@pytest.mark.parametrize("chi", [0.0, 0.5])
def test_duhamel_residual_and_convergence(nonlinear_trajectories, chi):
    p, traj = nonlinear_trajectories[chi]
    fine = duhamel_reconstruct_w(traj, p)
    coarse = duhamel_reconstruct_w(traj[::2], p)
    assert fine.residuals[-1] <= 1e-4
    ratio = coarse.residuals[-1] / fine.residuals[-1]
    assert 3.0 <= ratio <= 5.5


def test_duhamel_z_form_agrees(nonlinear_trajectories):
    p, traj = nonlinear_trajectories[0.5]
    direct = duhamel_reconstruct_w(traj[::2], p, form="w")
    substituted = duhamel_reconstruct_w(traj[::2], p, form="z")
    assert np.allclose(direct.residuals, substituted.residuals, rtol=1e-8)


def test_duhamel_rejects_unordered(grid8, nonlinear_trajectories):
    p, traj = nonlinear_trajectories[0.0]
    with pytest.raises(ValueError, match="time-ordered"):
        duhamel_reconstruct_w([traj[1], traj[0]], p)
    with pytest.raises(ValueError, match="form"):
        duhamel_reconstruct_w(traj, p, form="q")


# ---------------------------------------------------------------------------
# Duhamel term ledger


def test_terms_zero_trajectory(grid8):
    zeros = zero_spectral(grid8)
    p = PhysicalParams(mu=0.3, gamma=0.3, chi=0.2)
    traj = [SimState(t, zeros, zeros) for t in (1.0, 1.5, 2.0)]
    ledger = duhamel_terms(traj, p)
    for arr in (ledger.term_i, ledger.term_ii, ledger.term_iii, ledger.term_iv):
        assert np.all(arr == 0.0)
    assert ledger.gamma_quarter == pytest.approx(math.gamma(0.25))
    assert ledger.sqrt_pi == pytest.approx(math.sqrt(math.pi))


def test_terms_without_numpy_trapezoid(grid8, monkeypatch):
    # numpy < 2.0 has no np.trapezoid; the ledger must not need it.
    monkeypatch.delattr(np, "trapezoid", raising=False)
    p = PhysicalParams(mu=0.3, gamma=0.3, chi=0.2)
    u = random_spectral_field(grid8, seed=5, solenoidal=True)
    w = random_spectral_field(grid8, seed=6)
    ledger = duhamel_terms([SimState(t, u, w) for t in (1.0, 1.5, 2.0)], p)
    assert isinstance(ledger, DuhamelLedger)
    assert np.all(np.isfinite(ledger.term_ii)) and np.all(ledger.term_ii > 0.0)


def test_terms_match_direct_propagation(nonlinear_trajectories):
    # Oracle: propagate every forcing field with heat_apply, take its L2 norm
    # node by node, and sum the trapezoid rule in s for each output time.
    from micropolar.operators import advect, grad_div

    p, traj = nonlinear_trajectories[0.5]
    traj = traj[::8]
    ledger = duhamel_terms(traj, p, weighted=False)
    forcings = {
        "term_ii": lambda st: advect(st.u, st.w),
        "term_iii": lambda st: grad_div(st.w),
        "term_iv": lambda st: curl(st.u),
    }
    for j, t in enumerate(ledger.times, start=1):
        s = np.array([st.t for st in traj[: j + 1]])
        for name, forcing in forcings.items():
            vals = np.array(
                [
                    np.exp(-2.0 * p.chi * (t - si))
                    * l2(heat_apply(forcing(st), p.gamma, t - si))
                    for si, st in zip(s, traj)
                ]
            )
            expected = np.sum(np.diff(s) * (vals[1:] + vals[:-1]) / 2.0)
            if name == "term_iv":
                expected *= p.chi
            got = getattr(ledger, name)[j - 1]
            assert got == pytest.approx(expected, rel=1e-12)


def test_term_i_damped_decay(nonlinear_trajectories):
    p, traj = nonlinear_trajectories[0.5]
    ledger = duhamel_terms(traj[::4], p)
    w0 = l2(traj[0].w)
    bound = (
        np.sqrt(ledger.times)
        * np.exp(-2.0 * p.chi * (ledger.times - ledger.t0))
        * w0
    )
    assert np.all(ledger.term_i <= bound * (1.0 + 1e-12))


def test_term_bounds_with_paper_constants(nonlinear_trajectories):
    # II <= 2^{5/4} K1 ||(u,w)(t0)|| eps gamma^{-3/4}
    #       (e^{-chi t} t^{1/4} + (2 chi)^{-1/4} Gamma(1/4))
    # III <= 2 K2 eps gamma^{-1/2} (e^{-chi t} t^{1/2} + (2 chi)^{-1/2} sqrt(pi))
    # with K1 the rigorous grid L1->L2 smoothing constant, K2 = (2e)^{-1/2},
    # and eps = sup_s sqrt(s) ||Dw(s)|| measured on the run.
    p, traj = nonlinear_trajectories[0.5]
    ledger = duhamel_terms(traj[::2], p)
    grid = traj[0].grid
    chi, gamma = p.chi, p.gamma
    e0 = np.sqrt(l2(traj[0].u) ** 2 + l2(traj[0].w) ** 2)
    eps = max(np.sqrt(st.t) * l2_grad(st.w) for st in traj[1:])
    taus = ledger.times - ledger.t0
    k1 = discrete_l1_smoothing_constant(grid, gamma, taus[taus > 0.0])
    k2 = L2_GRAD_SMOOTHING_CONSTANT
    bound_ii = (
        2.0**1.25
        * k1
        * e0
        * eps
        * gamma**-0.75
        * (
            np.exp(-chi * ledger.times) * ledger.times**0.25
            + (2.0 * chi) ** -0.25 * ledger.gamma_quarter
        )
    )
    bound_iii = (
        2.0
        * k2
        * eps
        * gamma**-0.5
        * (
            np.exp(-chi * ledger.times) * np.sqrt(ledger.times)
            + (2.0 * chi) ** -0.5 * ledger.sqrt_pi
        )
    )
    assert np.all(ledger.term_ii <= bound_ii)
    assert np.all(ledger.term_iii <= bound_iii)


def test_ledger_validation():
    with pytest.raises(ValueError, match="increasing"):
        DuhamelLedger(
            t0=0.0,
            times=np.array([1.0, 1.0]),
            term_i=np.zeros(2),
            term_ii=np.zeros(2),
            term_iii=np.zeros(2),
            term_iv=np.zeros(2),
            weighted=True,
        )
    with pytest.raises(ValueError, match="non-negative"):
        DuhamelLedger(
            t0=0.0,
            times=np.array([1.0, 2.0]),
            term_i=np.array([0.0, -1.0]),
            term_ii=np.zeros(2),
            term_iii=np.zeros(2),
            term_iv=np.zeros(2),
            weighted=True,
        )
