"""Diagnostics records, energy ledgers, t0 detection, decay trends."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from micropolar.checkpoint import write_checkpoint
from micropolar.diagnostics import RunAccumulator, detect_t0, fit_decay
from micropolar.dynamics import (
    InitialCondition,
    Stepper,
    StepperConfig,
    evolve,
    make_initial,
)
from micropolar.fields import PhysicalParams, SimState
from micropolar.fields import zero_spectral as zero_field
from micropolar.grid import make_grid
from micropolar.norms import l2_grad, l2_grad2
from micropolar.operators import epsilon_cross_integral
from micropolar.quadrature import RunningIntegral
from micropolar.semigroup import heat_apply

from conftest import random_spectral_field, single_mode_field


PARAMS = PhysicalParams(mu=0.3, gamma=0.25, chi=0.2)


def random_state(grid, seed, t=0.0):
    u = random_spectral_field(grid, seed, solenoidal=True)
    w = random_spectral_field(grid, seed + 999)
    return SimState(t, u, w)


def ledger_series(states, p, dt):
    """One accumulator record per state; the states are dt apart."""
    acc = RunAccumulator(p, dt)
    series = []
    for state in states:
        acc.push(state)
        series.append(acc.record(state))
    return series


def record_of(state, p):
    return ledger_series([state], p, dt=1.0)[0]


# ---------------------------------------------------------------------------
# records and the energy ledger


# ---------------------------------------------------------------------------
# the end-corrected trapezoid


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(2, 200),
    coeffs=st.lists(st.integers(-10**6, 10**6).map(lambda c: c / 10**6), min_size=4, max_size=4),
    h=st.floats(1e-3, 10.0),
)
def test_running_integral_exact_on_cubics(m, coeffs, h):
    """The trapezoid with one-sided end slopes integrates a polynomial of
    degree <= min(3, m - 1) exactly: f(t) = sum c_k x^k, x = t / (h (m-1)),
    sampled at m uniform points of spacing h, to 1e-12 of h (m-1) max|f|
    (measured over 20000 random draws: 1.2e-15 at most)."""
    coeffs = coeffs[: min(3, m - 1) + 1]
    samples = np.polynomial.polynomial.polyval(np.arange(m) / (m - 1), coeffs)
    integral = RunningIntegral(h)
    for value in samples:
        integral.push(value)
    span = h * (m - 1)
    exact = span * sum(c / (k + 1) for k, c in enumerate(coeffs))
    assert integral.count == m
    assert abs(integral.value - exact) <= 1e-12 * span * np.abs(samples).max()


def test_running_integral_needs_two_samples():
    integral = RunningIntegral(0.1)
    assert integral.value == 0.0
    integral.push(3.0)
    assert integral.value == 0.0


def test_zero_state_record(grid8):
    state = SimState(0.0, zero_field(grid8), zero_field(grid8))
    rec = record_of(state, PARAMS)
    for name in (
        "l2_u", "l2_w", "l2_pair", "l2_du", "l2_dw", "l2_dpair",
        "l2_d2pair", "l2_divw", "linf_pair", "cross_term",
        "energy_ledger_lhs", "energy_ledger_rhs",
    ):
        assert getattr(rec, name) == 0.0


def test_pair_composition_exact(grid8):
    for seed in range(5):
        rec = record_of(random_state(grid8, 100 + seed), PARAMS)
        assert rec.l2_pair**2 == pytest.approx(
            rec.l2_u**2 + rec.l2_w**2, rel=1e-14
        )
        assert rec.l2_dpair**2 == pytest.approx(
            rec.l2_du**2 + rec.l2_dw**2, rel=1e-14
        )


def test_single_mode_ledger_closed_form(grid8):
    # u a single solenoidal mode, w = 0, chi = 0: the exact solution decays
    # by the heat factor, the ledger gap is pure quadrature error, O(h^4)
    # for the end-corrected trapezoid.
    p = PhysicalParams(mu=0.3, gamma=0.25, chi=0.0)
    u0 = single_mode_field(grid8, component=1, axis=0, index=1)
    zeros = zero_field(grid8)

    def ledger_gap(h):
        states = [
            SimState(t, heat_apply(u0, p.mu, t), zeros)
            for t in np.arange(0.0, 2.0 + h / 2, h)
        ]
        rec = ledger_series(states, p, h)[-1]
        return abs(rec.energy_ledger_lhs - rec.energy_ledger_rhs) / (
            rec.energy_ledger_rhs
        )

    gap_h, gap_h2 = ledger_gap(0.05), ledger_gap(0.025)
    assert gap_h / gap_h2 == pytest.approx(16.0, rel=0.15)
    assert gap_h2 < 1e-9


def test_record_rejects_non_monotone(grid8):
    state = random_state(grid8, 7)
    acc = RunAccumulator(PARAMS, dt=0.1)
    acc.push(state)
    with pytest.raises(ValueError, match="non-monotone"):
        acc.push(state)


def test_record_rejects_state_not_pushed_last(grid8):
    # record() reuses the norms push() computed, so it only takes that state
    first, second = random_state(grid8, 7), random_state(grid8, 8, t=0.1)
    acc = RunAccumulator(PARAMS, dt=0.1)
    with pytest.raises(ValueError, match="pushed last"):
        acc.record(first)
    acc.push(first)
    acc.push(second)
    with pytest.raises(ValueError, match="pushed last"):
        acc.record(first)
    assert acc.record(second).t == 0.1


def test_energy_inequality_on_nonlinear_run():
    # chi = 0 is the tight case: the inequality is an equality up to stepping
    # and quadrature error, which the accumulator keeps below 1e-8.
    grid = make_grid(16, 8.0 * np.pi)
    p = PhysicalParams(mu=0.4, gamma=0.4, chi=0.0)
    state = make_initial(
        InitialCondition("random_solenoidal", 1.0, 2.0, seed=21), grid
    )
    acc = RunAccumulator(p, dt=0.02)
    acc.push(state)
    cfg = StepperConfig(dt=0.02, t_end=3.0)
    worst = -np.inf
    for j, state, _ in evolve(state, p, cfg):
        acc.push(state)
        if j % 10 == 0:
            rec = acc.record(state)
            worst = max(
                worst,
                (rec.energy_ledger_lhs - rec.energy_ledger_rhs)
                / rec.energy_ledger_rhs,
            )
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# gradient-energy estimate ingredients


def test_push_record_checkpoint_working_set(tmp_path):
    """Traced peak of one push / record / checkpoint cycle at n=32, in band
    vectors (3, 2K+1, 2K+1, K+1) complex: 3.0 (3.6 with the pocketfft
    scratch), the sup norms' one sample buffer and one transform scratch;
    whole (3, n, n, n) sample arrays and a fresh scratch per field
    read 7.2.  Below the step's own
    transients, so a CSV row is never the run's peak."""
    import tracemalloc

    grid = make_grid(32, 2.0 * np.pi)
    state = make_initial(InitialCondition("random_solenoidal", 4.0, 1.0, seed=5), grid)
    acc = RunAccumulator(PARAMS, dt=0.01)
    path = tmp_path / "checkpoint.bin"
    acc.push(state)
    acc.record(state)
    write_checkpoint(state, PARAMS, path)  # first-call setup out of the trace
    later = SimState(0.01, state.u, state.w)
    tracemalloc.start()
    try:
        acc.push(later)
        acc.record(later)
        write_checkpoint(later, PARAMS, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    band_vector = 3 * np.prod(grid.band.shape) * 16
    assert peak <= 4.0 * band_vector


def test_cross_term_needs_both_fields(grid8):
    u = random_spectral_field(grid8, 31, solenoidal=True)
    w = random_spectral_field(grid8, 32)
    assert epsilon_cross_integral(zero_field(grid8), u) == 0.0
    assert epsilon_cross_integral(w, zero_field(grid8)) == 0.0


def test_cross_term_young_bound(grid8):
    # |cross| <= 4 chi ||Dw|| ||D^2 u|| <= 2 chi (||Dw||^2 + ||D^2 u||^2)
    # for solenoidal u (then ||D curl u|| = ||D^2 u||).
    for seed in range(10):
        state = random_state(grid8, 900 + seed)
        cross = 4.0 * PARAMS.chi * epsilon_cross_integral(state.w, state.u)
        bound = 2.0 * PARAMS.chi * (l2_grad(state.w) ** 2 + l2_grad2(state.u) ** 2)
        assert cross <= bound * (1.0 + 1e-12)


def test_gradient_energy_identity(grid8):
    # d/dt ||(Du,Dw)||^2 = -2<u_t, Lap u> - 2<w_t, Lap w> must equal the
    # assembled estimate ingredients:
    #   -2(mu+chi)||D2u||^2 - 2 gamma ||D2w||^2 - 2||D div w||^2
    #   - 4 chi ||Dw||^2 + NL + cross
    # with NL the advective production and cross the Levi-Civita integral.
    # This pins the sign and normalization of the cross term.
    from micropolar import dynamics
    from micropolar.norms import inner, l2
    from micropolar.operators import advect, grad_div, laplacian

    for seed in range(5):
        state = random_state(grid8, 1200 + seed)
        u, w = state.u, state.w
        lap_u, lap_w = laplacian(u), laplacian(w)
        u_t, w_t = dynamics.rhs(state, PARAMS)
        lhs = -2.0 * inner(u_t, lap_u) - 2.0 * inner(w_t, lap_w)
        nl = 2.0 * inner(advect(u, u), lap_u) + 2.0 * inner(advect(u, w), lap_w)
        rhs = (
            -2.0 * (PARAMS.mu + PARAMS.chi) * l2_grad2(u) ** 2
            - 2.0 * PARAMS.gamma * l2_grad2(w) ** 2
            - 2.0 * l2(grad_div(w)) ** 2
            - 4.0 * PARAMS.chi * l2_grad(w) ** 2
            + nl
            + 4.0 * PARAMS.chi * epsilon_cross_integral(w, u)
        )
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1.0)


def test_advective_production_under_majorant(grid8):
    # |2<(u.grad)u, Lap u> + 2<(u.grad)w, Lap w>|
    #   <= 4 ||(u,w)||_inf ||(Du,Dw)|| ||(D2u,D2w)||
    from micropolar.norms import inner
    from micropolar.operators import advect, laplacian

    for seed in range(10):
        state = random_state(grid8, 1300 + seed)
        u, w = state.u, state.w
        nl = abs(
            2.0 * inner(advect(u, u), laplacian(u))
            + 2.0 * inner(advect(u, w), laplacian(w))
        )
        rec = record_of(state, PARAMS)
        bound = 4.0 * rec.linf_pair * rec.l2_dpair * rec.l2_d2pair
        assert nl <= bound * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# detect_t0


def heat_decay_states(p, u0, w0, times):
    return [
        SimState(t, heat_apply(u0, p.mu, t), heat_apply(w0, p.gamma, t))
        for t in times
    ]


def heat_decay_series(p, u0, w0, times):
    states = heat_decay_states(p, u0, w0, times)
    return ledger_series(states, p, dt=times[1] - times[0])


def test_detect_t0_linear_run_first_sample(grid8):
    # Low-amplitude pure decay: the smallness condition holds immediately.
    p = PhysicalParams(mu=0.5, gamma=0.5, chi=0.0)
    u0 = single_mode_field(grid8, 1, 0, 1, amplitude=0.01)
    w0 = single_mode_field(grid8, 0, 1, 1, amplitude=0.01)
    series = heat_decay_series(p, u0, w0, np.linspace(0.0, 2.0, 11))
    fit = detect_t0(series, p)
    assert fit.found and fit.t0_detected == 0.0
    assert fit.monotone_after_t0


def test_detect_t0_interior_for_large_data(grid8):
    # Larger data: the condition fails at t = 0 and trips once the gradient
    # norm has decayed.
    p = PhysicalParams(mu=0.5, gamma=0.5, chi=0.0)
    u0 = single_mode_field(grid8, 1, 0, 1, amplitude=1.2)
    w0 = single_mode_field(grid8, 0, 1, 1, amplitude=1.2)
    series = heat_decay_series(p, u0, w0, np.linspace(0.0, 8.0, 81))
    fit = detect_t0(series, p)
    assert fit.found
    assert 0.0 < fit.t0_detected < 8.0
    assert fit.monotone_after_t0


def test_detect_t0_not_found(grid8):
    p = PhysicalParams(mu=0.01, gamma=0.01, chi=0.0)
    u0 = single_mode_field(grid8, 1, 0, 1, amplitude=50.0)
    w0 = single_mode_field(grid8, 0, 1, 1, amplitude=50.0)
    series = heat_decay_series(p, u0, w0, np.linspace(0.0, 0.5, 6))
    fit = detect_t0(series, p)
    assert not fit.found
    assert fit.t0_detected is None and fit.window is None


def test_detect_t0_flags_injected_bump(grid8):
    p = PhysicalParams(mu=0.5, gamma=0.5, chi=0.0)
    u0 = single_mode_field(grid8, 1, 0, 1, amplitude=0.01)
    w0 = single_mode_field(grid8, 0, 1, 1, amplitude=0.01)
    times = np.linspace(0.0, 2.0, 11)
    states = heat_decay_states(p, u0, w0, times[:5])
    # norms jump back to the t=0 level
    spiked = SimState(times[5], states[0].u, states[0].w)
    bumped = ledger_series(states + [spiked], p, dt=times[1] - times[0])
    fit = detect_t0(bumped, p)
    assert fit.found
    assert not fit.monotone_after_t0


def test_detect_t0_rejects_unordered(grid8):
    p = PhysicalParams(mu=0.5, gamma=0.5, chi=0.0)
    u0 = single_mode_field(grid8, 1, 0, 1, amplitude=0.01)
    series = heat_decay_series(p, u0, u0, [0.0, 1.0])
    with pytest.raises(ValueError, match="time-ordered"):
        detect_t0(series[::-1], p)
    with pytest.raises(ValueError, match="empty"):
        detect_t0([], p)


# ---------------------------------------------------------------------------
# fit_decay


def test_fit_decay_zero_data(grid8):
    p = PhysicalParams(mu=0.5, gamma=0.5, chi=0.0)
    zeros = zero_field(grid8)
    times = np.linspace(0.0, 1.0, 5)
    series = ledger_series(
        [SimState(t, zeros, zeros) for t in times], p, dt=times[1] - times[0]
    )
    fit = fit_decay(series, (0.0, 1.0))
    assert np.all(fit.w_scaled_trend == 0.0)
    assert np.all(fit.t_weighted_grad_sq == 0.0)
    assert fit.slope_pair is None and fit.w_exp_rate is None


def test_fit_decay_frozen_u_rate(grid8):
    # u frozen at zero, chi > 0: fitted exponential rate of ||w|| >= 2 chi.
    chi = 0.4
    p = PhysicalParams(mu=0.3, gamma=0.3, chi=chi)
    w0 = random_spectral_field(grid8, seed=55)
    zeros = zero_field(grid8)
    states = [SimState(0.0, zeros, w0)]
    dt = 0.05
    # with u held at 0, w follows the stepper's exact linear w propagator
    stepper = Stepper(grid8, p, StepperConfig(dt=dt, t_end=2.0))
    for j in range(1, 41):
        states.append(SimState(j * dt, zeros, stepper.propagate_w(states[-1].w)))
    series = ledger_series(states, p, dt)
    fit = fit_decay(series, (0.0, 2.0))
    assert fit.w_exp_rate >= 2.0 * chi * (1.0 - 1e-3)
    assert fit.pair_strictly_decreasing


def test_fit_decay_window_validation(grid8):
    p = PhysicalParams(mu=0.5, gamma=0.5, chi=0.0)
    u0 = single_mode_field(grid8, 1, 0, 1, amplitude=0.1)
    series = heat_decay_series(p, u0, u0, np.linspace(0.0, 1.0, 5))
    with pytest.raises(ValueError, match="window"):
        fit_decay(series, (5.0, 6.0))


@pytest.fixture(scope="module")
def chi_pair_runs():
    """Identical-seed runs at chi = 0 and chi = 0.5, per-step accumulation."""
    grid = make_grid(16, 8.0 * np.pi)
    out = {}
    for chi in (0.0, 0.5):
        p = PhysicalParams(mu=0.5, gamma=0.25, chi=chi)
        state = make_initial(
            InitialCondition("random_solenoidal", 1.0, 1.0, seed=77), grid
        )
        cfg = StepperConfig(dt=0.025, t_end=10.0)
        acc = RunAccumulator(p, dt=cfg.dt)
        acc.push(state)
        series = [acc.record(state)]
        for j, state, _ in evolve(state, p, cfg):
            acc.push(state)
            if j % 8 == 0:
                series.append(acc.record(state))
        out[chi] = series
    return out


def test_chi_speeds_up_w_decay(chi_pair_runs):
    base = chi_pair_runs[0.0][-1]
    damped = chi_pair_runs[0.5][-1]
    scaled_base = np.sqrt(base.t) * base.l2_w
    scaled_damped = np.sqrt(damped.t) * damped.l2_w
    assert scaled_damped * 10.0 <= scaled_base


def test_pair_norm_decreases_globally(chi_pair_runs):
    for series in chi_pair_runs.values():
        pair = [rec.l2_pair for rec in series]
        assert all(b < a for a, b in zip(pair, pair[1:]))
        fit = fit_decay(series, (series[0].t, series[-1].t))
        assert fit.pair_strictly_decreasing


def test_energy_inequality_holds_in_runs(chi_pair_runs):
    for series in chi_pair_runs.values():
        for rec in series[1:]:
            assert rec.energy_ledger_lhs <= rec.energy_ledger_rhs * (1.0 + 1e-8)


def test_energy_inequality_between_every_pair(chi_pair_runs):
    # The inequality holds from any earlier output time, not just the start:
    # restart the ledger at an interior t0 using the cumulative integrals.
    for chi, series in chi_pair_runs.items():
        mu, gamma = 0.5, 0.25  # the fixture's viscosities
        for i, start in enumerate(series):
            for rec in series[i + 1 :]:
                lhs = (
                    rec.l2_pair**2
                    + 2.0 * mu * (rec.int_du_sq - start.int_du_sq)
                    + 2.0 * gamma * (rec.int_dw_sq - start.int_dw_sq)
                    + 2.0 * (rec.int_divw_sq - start.int_divw_sq)
                    + 2.0 * chi * (rec.int_w_sq - start.int_w_sq)
                )
                assert lhs <= start.l2_pair**2 * (1.0 + 1e-8)
