"""Heat propagator, decay-slope fits, and Duhamel reconstructions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from micropolar.dynamics import InitialCondition, StepperConfig, evolve, make_initial
from micropolar.fields import PhysicalParams, SimState, zero_spectral
from micropolar.grid import make_grid
from micropolar.norms import l2, l2_grad
from micropolar.operators import curl, derivative, leray_project
from micropolar.semigroup import (
    L2_GRAD_SMOOTHING_CONSTANT,
    DuhamelLedger,
    SemigroupQuery,
    bump_ensemble,
    decay_exponent,
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


def test_heat_l2_norms_match_the_band_on_band_fields(grid8):
    # the full-lattice shell sums of the bump fits against the band's heat
    # propagator and norms, on a field that lives on the band
    from micropolar.fields import to_real, to_spectral

    f = to_real(random_spectral_field(grid8, seed=6))
    spec = to_spectral(f)
    taus = np.array([0.0, 0.1, 0.7])
    for alpha in ((0, 0, 0), (1, 0, 0)):
        got = heat_l2_norms(f, 0.3, taus, alpha)
        heated = [heat_apply(spec, 0.3, tau) for tau in taus]
        if alpha[0]:
            heated = [derivative(h, 0) for h in heated]
        assert np.allclose(got, [l2(h) for h in heated], rtol=1e-13, atol=0.0)


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
