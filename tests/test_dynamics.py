"""RHS contracts, stepper exactness and convergence, ICs, pressure."""

from __future__ import annotations

import numpy as np
import pytest

from micropolar.dynamics import (
    CflError,
    InitialCondition,
    Stepper,
    StepperConfig,
    _explicit_hats,
    energy_power,
    evolve,
    make_initial,
    recover_pressure,
    rhs,
)
from micropolar.fields import (
    PhysicalParams,
    SimState,
    SpectralVectorField,
    expand_band,
    fold_band,
)
from micropolar.fields import zero_spectral as zero_field
from micropolar.grid import make_grid
from micropolar.norms import inner, l2, l2_div, l2_grad
from micropolar.operators import curl, leray_hat, leray_project
from micropolar.quadrature import RunningIntegral

from conftest import advective_oracle, random_spectral_field, single_mode_field


PARAMS = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)


def random_state(grid, seed, t=0.0, scale=1.0):
    u = random_spectral_field(grid, seed, solenoidal=True)
    w = random_spectral_field(grid, seed + 7777)
    return SimState(
        t,
        SpectralVectorField(grid, scale * u.data),
        SpectralVectorField(grid, scale * w.data),
    )


# ---------------------------------------------------------------------------
# right-hand sides


def test_rhs_zero_state(grid8):
    state = SimState(0.0, zero_field(grid8), zero_field(grid8))
    assert np.abs(rhs(state, PARAMS)[0].data).max() == 0.0
    assert np.abs(rhs(state, PARAMS)[1].data).max() == 0.0


def test_rhs_u_single_mode_pure_diffusion(grid8):
    # Single solenoidal mode: self-advection cancels, so with chi=0 the rhs
    # is -mu |k|^2 u.
    p = PhysicalParams(mu=0.4, gamma=0.3, chi=0.0)
    u = single_mode_field(grid8, component=1, axis=0, index=2, amplitude=1.3)
    state = SimState(0.0, u, zero_field(grid8))
    out = rhs(state, p)[0]
    expected = -p.mu * 4.0 * state.u.data
    assert np.abs(out.data - expected).max() < 1e-13


def test_rhs_u_energy_identity(grid8):
    for seed in range(5):
        state = random_state(grid8, seed=600 + seed)
        val = inner(rhs(state, PARAMS)[0], state.u)
        expected = -(PARAMS.mu + PARAMS.chi) * l2_grad(state.u) ** 2 + (
            PARAMS.chi * inner(curl(state.w), state.u)
        )
        scale = max(abs(expected), 1.0)
        assert abs(val - expected) <= 1e-10 * scale


def test_rhs_w_gradient_mode(grid8):
    # w = grad(sin x) carries both gamma*Lap and grad(div): total
    # -(gamma+1)|k|^2 w - 2 chi w.
    k = 2.0
    phi_mode = single_mode_field(grid8, component=0, axis=0, index=2)
    # turn (sin 2x, 0, 0) into the gradient field (2 cos 2x, 0, 0)
    from micropolar.operators import derivative

    w = derivative(phi_mode, 0)
    state = SimState(0.0, zero_field(grid8), w)
    out = rhs(state, PARAMS)[1]
    expected = (-(PARAMS.gamma + 1.0) * k**2 - 2.0 * PARAMS.chi) * state.w.data
    assert np.abs(out.data - expected).max() < 1e-13


def test_rhs_w_solenoidal_mode(grid8):
    k = 1.0
    w = single_mode_field(grid8, component=1, axis=0, index=1)
    state = SimState(0.0, zero_field(grid8), w)
    out = rhs(state, PARAMS)[1]
    expected = (-PARAMS.gamma * k**2 - 2.0 * PARAMS.chi) * state.w.data
    assert np.abs(out.data - expected).max() < 1e-13


def test_rhs_w_energy_identity(grid8):
    for seed in range(5):
        state = random_state(grid8, seed=700 + seed)
        val = inner(rhs(state, PARAMS)[1], state.w)
        expected = (
            -PARAMS.gamma * l2_grad(state.w) ** 2
            - l2_div(state.w) ** 2
            - 2.0 * PARAMS.chi * l2(state.w) ** 2
            + PARAMS.chi * inner(curl(state.u), state.w)
        )
        scale = max(abs(expected), 1.0)
        assert abs(val - expected) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# stepper


def test_step_zero_stays_zero(grid8):
    state = SimState(0.0, zero_field(grid8), zero_field(grid8))
    out = Stepper(grid8, PARAMS, StepperConfig(dt=0.1, t_end=1.0)).step(state)
    assert np.abs(out.u.data).max() == 0.0
    assert np.abs(out.w.data).max() == 0.0
    assert out.t == pytest.approx(0.1)


@pytest.mark.parametrize("dt", [0.5, 0.05, 0.005])
def test_step_linear_exactness(grid8, dt):
    # chi=0, u=0, solenoidal single-mode w: exact solution e^{-gamma k^2 t} w0.
    p = PhysicalParams(mu=0.4, gamma=0.3, chi=0.0)
    state = SimState(0.0, zero_field(grid8), single_mode_field(grid8, 1, 0, index=2))
    w0 = state.w
    cfg = StepperConfig(dt=dt, t_end=10 * dt)
    for _, state, _ in evolve(state, p, cfg):
        pass
    decay = np.exp(-p.gamma * 4.0 * state.t)
    assert np.abs(state.w.data - decay * w0.data).max() <= 1e-10 * decay


@pytest.mark.parametrize("dt", [0.4, 0.02])
def test_step_linear_exactness_curl_free(grid8, dt):
    # Curl-free single-mode w feels gamma*Lap + grad(div) + 2 chi together:
    # exact decay e^{-((gamma+1)k^2 + 2 chi) t}, and with u0 = 0 the curl
    # coupling never excites u.
    p = PhysicalParams(mu=0.4, gamma=0.3, chi=0.25)
    from micropolar.operators import derivative

    w0 = derivative(single_mode_field(grid8, component=0, axis=0, index=2), 0)
    state = SimState(0.0, zero_field(grid8), w0)
    w0 = state.w
    cfg = StepperConfig(dt=dt, t_end=8 * dt)
    for _, state, _ in evolve(state, p, cfg):
        pass
    decay = np.exp(-((p.gamma + 1.0) * 4.0 + 2.0 * p.chi) * state.t)
    assert np.abs(state.w.data - decay * w0.data).max() <= 1e-10 * max(
        decay * np.abs(w0.data).max(), 1e-300
    )
    assert np.abs(state.u.data).max() == 0.0


def test_step_fourth_order_convergence():
    # Self-convergence against a dt/8 reference on a Taylor-Green start.
    grid = make_grid(16, 2.0 * np.pi)
    ic = InitialCondition("taylor_green_like", peak_wavenumber=1.0, amplitude=2.0)
    state0 = make_initial(ic, grid)
    p = PhysicalParams(mu=0.05, gamma=0.05, chi=0.1)
    t_end = 0.4

    def advance(dt):
        cfg = StepperConfig(dt=dt, t_end=t_end)
        cur = state0
        for _, cur, _ in evolve(cur, p, cfg):
            pass
        return cur

    ref = advance(0.4 / 64.0)
    errs = []
    for dt in (0.4 / 8.0, 0.4 / 16.0):
        out = advance(dt)
        errs.append(
            np.abs(out.u.data - ref.u.data).max()
            + np.abs(out.w.data - ref.w.data).max()
        )
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_step_preserves_divergence_and_mean(grid16):
    state = random_state(grid16, seed=42, scale=0.05)
    cfg = StepperConfig(dt=0.02, t_end=0.2)
    worst = 0.0
    for _, state, _ in evolve(state, PARAMS, cfg):
        du = l2_grad(state.u)
        if du > 0:
            worst = max(worst, l2_div(state.u) / du)
        assert np.abs(state.u.data[:, 0, 0, 0]).max() == 0.0
        assert np.abs(state.w.data[:, 0, 0, 0]).max() == 0.0
    assert worst <= 1e-10


def test_cfl_violation_raises(grid8):
    state = random_state(grid8, seed=43, scale=50.0)
    cfg = StepperConfig(dt=1.0, t_end=2.0, cfl_safety=0.5)
    with pytest.raises(CflError):
        Stepper(grid8, PARAMS, cfg).step(state)


@pytest.mark.parametrize("fraction, passes", [(0.99, True), (1.01, False)])
def test_cfl_number_is_vmax_dt_over_h(grid8, fraction, passes):
    """The CFL number is max|u| dt / h: a shear mode sin(2y) of amplitude 3
    peaks at 3 on grid points (y = h), and dt puts the number just below or
    just above cfl_safety."""
    amplitude, safety = 3.0, 0.5
    u = single_mode_field(grid8, component=0, axis=1, index=2, amplitude=amplitude)
    state = SimState(0.0, u, zero_field(grid8))
    dt = fraction * safety * grid8.spacing / amplitude
    stepper = Stepper(grid8, PARAMS, StepperConfig(dt=dt, t_end=1.0, cfl_safety=safety))
    if passes:
        stepper.step(state)
        assert stepper.last_vmax == pytest.approx(amplitude, rel=1e-14)
    else:
        with pytest.raises(CflError, match="CFL number 0.505 exceeds"):
            stepper.step(state)


def test_overflow_detected_as_divergence(grid8):
    # Fields near the float ceiling overflow in the quadratic terms while a
    # tiny dt keeps the CFL gate quiet; the stepper must flag the blow-up.
    from micropolar.dynamics import SimulationDiverged

    with np.errstate(over="ignore", invalid="ignore"):
        state = random_state(grid8, seed=47, scale=1e200)
        cfg = StepperConfig(dt=1e-250, t_end=2e-250)
        with pytest.raises(SimulationDiverged, match="non-finite"):
            Stepper(grid8, PARAMS, cfg).step(state)


def test_invalid_step_output_raises(grid8, monkeypatch):
    # Without the Leray projection the step's u is not solenoidal; the
    # SimState built from the output must refuse it.
    import micropolar.dynamics
    from micropolar.dynamics import SimulationDiverged

    monkeypatch.setattr(
        micropolar.dynamics, "leray_hat", lambda data, grid, out=None: data
    )
    state = random_state(grid8, seed=46, scale=0.5)
    stepper = Stepper(grid8, PARAMS, StepperConfig(dt=0.05, t_end=1.0))
    with pytest.raises(SimulationDiverged, match="not divergence-free") as info:
        stepper.step(state)
    assert info.value.t == state.t and info.value.step == -1


def test_divergence_reports_step_index(grid8):
    # The overflow state above, driven through evolve: the abort names step 1.
    from micropolar.dynamics import SimulationDiverged

    with np.errstate(over="ignore", invalid="ignore"):
        state = random_state(grid8, seed=47, scale=1e200)
        cfg = StepperConfig(dt=1e-250, t_end=2e-250)
        with pytest.raises(SimulationDiverged) as info:
            for _ in evolve(state, PARAMS, cfg):
                pass
    assert info.value.step == 1


def test_discrete_energy_balance_fourth_order(grid16):
    # |Delta E - int 2<rhs, y> dt| along the computed trajectory, with the
    # power integrated by end-corrected trapezoid, should fall ~16x per
    # halving of dt.
    state0 = random_state(grid16, seed=44, scale=0.1)
    e0 = l2(state0.u) ** 2 + l2(state0.w) ** 2
    t_end = 0.2
    residuals = []
    for dt in (0.02, 0.01, 0.005):
        cfg = StepperConfig(dt=dt, t_end=t_end)
        power = RunningIntegral(dt)
        cur = state0
        for _, cur, stepper in evolve(cur, PARAMS, cfg):
            power.push(stepper.last_power)
        power.push(energy_power(cur, PARAMS))
        e_end = l2(cur.u) ** 2 + l2(cur.w) ** 2
        residuals.append(abs(e_end - e0 - power.value) / e0)
    assert residuals[0] / residuals[1] > 8.0
    assert residuals[1] / residuals[2] > 8.0


def test_w_damping_bound_with_frozen_u(grid8):
    # With u frozen at zero and chi > 0, ||w(t)|| <= e^{-2 chi (t-s)} ||w(s)||.
    # With u held at 0, w follows the stepper's exact linear w propagator.
    p = PhysicalParams(mu=0.4, gamma=0.3, chi=0.35)
    w0 = random_spectral_field(grid8, seed=45)
    state = SimState(0.0, zero_field(grid8), w0)
    dt = 0.05
    stepper = Stepper(grid8, p, StepperConfig(dt=dt, t_end=1.0))
    prev_t, prev_norm = 0.0, l2(state.w)
    for j in range(1, 21):
        state = SimState(j * dt, state.u, stepper.propagate_w(state.w))
        norm = l2(state.w)
        bound = np.exp(-2.0 * p.chi * (state.t - prev_t)) * prev_norm
        assert norm <= bound * (1.0 + 1e-9)
        prev_t, prev_norm = state.t, norm


# ---------------------------------------------------------------------------
# band stepper against full-lattice oracles


def full_lattice_rhs(state, p):
    """(u_t, w_t) in advective form on the full lattice, (3, n, n, n), with
    the derivative symbols built here from the Grid's axis wavenumbers."""
    g = state.grid
    dk = np.stack(np.broadcast_arrays(g.dkx, g.dky, g.dkz))
    k_sq = np.sum(dk**2, axis=0)
    inv_k_sq = np.divide(1.0, k_sq, out=np.zeros_like(k_sq), where=k_sq > 0.0)
    u, w = (expand_band(f.data, g) for f in (state.u, state.w))

    def curl_full(f):
        return 1j * np.cross(dk, f, axis=0)

    def grad_div_full(f):
        return -dk * np.sum(dk * f, axis=0)

    adv_u, adv_w = (
        expand_band(advective_oracle(state.u, f), g) for f in (state.u, state.w)
    )
    n_u = -adv_u + p.chi * curl_full(w)
    u_t = n_u - dk * np.sum(dk * n_u, axis=0) * inv_k_sq  # Leray projection
    u_t -= (p.mu + p.chi) * k_sq * u
    w_t = -adv_w + p.chi * curl_full(u) - p.gamma * k_sq * w + grad_div_full(w)
    w_t -= 2.0 * p.chi * w
    return u_t, w_t


@pytest.mark.parametrize("n", [8, 16])
def test_rhs_matches_full_lattice_oracle(n):
    grid = make_grid(n, 2.0 * np.pi)
    p = PhysicalParams(mu=0.4, gamma=0.3, chi=0.7)
    for seed in range(3):
        state = random_state(grid, seed=800 + seed)
        for got, want in zip(rhs(state, p), full_lattice_rhs(state, p)):
            got = expand_band(got.data, grid)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n", [12, 14, 16, 18, 24])
def test_explicit_term_skew_and_flux_form_on_every_n(n):
    """K = (n-1)//3 keeps every alias of a band product off the band, also
    where 3 divides n (12, 18, 24; K = n//3 aliased the edge modes there):
    with chi = 0, <N_u, u> = <N_w, w> = 0 and the flux form equals the
    advective form (the conftest oracle)."""
    grid = make_grid(n, 2.0 * np.pi)
    for seed in range(3):
        state = random_state(grid, seed=900 + seed)
        u, w = state.u.data, state.w.data
        n_u, n_w = _explicit_hats(u, w, grid, 0.0)
        for term, field in ((n_u, state.u), (n_w, state.w)):
            term = SpectralVectorField(grid, term)
            assert abs(inner(term, field)) <= 1e-14 * l2(term) * l2(field)
        want_u = -leray_hat(advective_oracle(state.u, state.u), grid)
        want_w = -advective_oracle(state.u, state.w)
        want_w[:, 0, 0, 0] = 0.0
        for got, want in ((n_u, want_u), (n_w, want_w)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def assert_stored_on_band(state):
    """Band-shaped fields whose kz = 0 plane (holding k and -k) is exactly
    Hermitian; kz > 0 stands for its mirror by construction."""
    band = state.grid.band
    neg = (-np.arange(2 * band.cutoff + 1)) % (2 * band.cutoff + 1)
    for field in (state.u, state.w):
        assert field.data.shape == (3,) + band.shape
        plane = field.data[..., 0]
        assert np.array_equal(plane[:, neg][:, :, neg], np.conj(plane))


def test_step_output_exactly_hermitian(grid16):
    state = random_state(grid16, seed=48, scale=0.1)
    out = Stepper(grid16, PARAMS, StepperConfig(dt=0.02, t_end=1.0)).step(state)
    assert_stored_on_band(out)


def test_step_power_matches_energy_power(grid16):
    state = random_state(grid16, seed=49, scale=0.1)
    stepper = Stepper(grid16, PARAMS, StepperConfig(dt=0.02, t_end=1.0))
    stepper.step(state)
    assert stepper.last_power == pytest.approx(energy_power(state, PARAMS), rel=1e-13)
    u_t, w_t = full_lattice_rhs(state, PARAMS)
    u, w = (expand_band(f.data, grid16) for f in (state.u, state.w))
    full = 2.0 * grid16.volume * np.sum(np.conj(u) * u_t + np.conj(w) * w_t).real
    assert stepper.last_power == pytest.approx(full, rel=1e-13)


def test_step_working_set():
    """Traced peak of building a Stepper and taking one n=32 step, in
    (3, n, n, n) float64 fields: 5.9 (6.1 on the pocketfft path).  The
    stepper holds its workspace (u samples, one w component, one product,
    the band transforms' scratch) and six band vectors (the running stage sum and two stage terms); the step
    adds the stage state, which becomes the result.  Holding the transformed
    products and fresh arrays for every stage term read 7.8, full-lattice
    storage 11.6."""
    import tracemalloc

    grid = make_grid(32, 2.0 * np.pi)
    state = make_initial(InitialCondition("random_solenoidal", 4.0, 1.0, seed=5), grid)
    config = StepperConfig(dt=0.01, t_end=1.0)
    Stepper(grid, PARAMS, config).step(state)  # first-call setup out of the trace
    tracemalloc.start()
    try:
        Stepper(grid, PARAMS, config).step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.6 * 3 * 32**3 * 8


@pytest.mark.parametrize("entry", ["state", "propagate_w"])
def test_rejects_out_of_band_state(grid8, entry):
    # K = (8-1)//3 = 2: a mode of index 3 lies outside the 2/3 band.  rhs and
    # step take only a SimState, so SimState and propagate_w are the entry
    # points; both take band fields only, and no band field holds the mode:
    # single_mode refuses it, fold_band refuses a full-lattice array with it,
    # and a SpectralVectorField refuses the full-lattice array itself
    full = np.zeros((3,) + grid8.shape, dtype=np.complex128)
    full[1, 3, 0, 0], full[1, 5, 0, 0] = -0.05j, 0.05j
    zero = zero_field(grid8)
    stepper = Stepper(grid8, PARAMS, StepperConfig(dt=0.01, t_end=1.0))
    consumers = {
        "state": [lambda f: SimState(0.0, f, zero), lambda f: SimState(0.0, zero, f)],
        "propagate_w": [stepper.propagate_w],
    }
    for consume in consumers[entry]:
        with pytest.raises(ValueError, match="outside the 2/3 band"):
            consume(single_mode_field(grid8, component=1, axis=0, index=3))
        with pytest.raises(ValueError, match="outside the 2/3 band"):
            consume(SpectralVectorField(grid8, fold_band(full, grid8)))
        with pytest.raises(ValueError, match="fold_band"):
            consume(SpectralVectorField(grid8, full))


# ---------------------------------------------------------------------------
# pressure recovery


def test_pressure_zero_cases(grid8):
    state = SimState(0.0, zero_field(grid8), zero_field(grid8))
    assert np.abs(recover_pressure(state).values).max() == 0.0
    u = single_mode_field(grid8, component=1, axis=0)
    state = SimState(0.0, u, zero_field(grid8))
    assert np.abs(recover_pressure(state).values).max() < 1e-13


def test_pressure_helmholtz_consistency(grid8):
    # grad P must equal P_h[N] - N for N = (u.grad)u (taking divergence of
    # the momentum equation with -Lap P = div N).
    from micropolar.operators import gradient

    state = random_state(grid8, seed=46)
    n_field = SpectralVectorField(grid8, advective_oracle(state.u, state.u))
    p_field = recover_pressure(state)
    grad_p = gradient(p_field)
    residual = grad_p.data - (leray_project(n_field).data - n_field.data)
    scale = max(np.abs(n_field.data).max(), 1e-30)
    assert np.abs(residual).max() <= 1e-11 * scale


# ---------------------------------------------------------------------------
# initial conditions


def test_make_initial_zero_amplitude(grid16):
    ic = InitialCondition("single_mode", peak_wavenumber=1.0, amplitude=0.0)
    state = make_initial(ic, grid16)
    assert np.abs(state.u.data).max() == 0.0
    assert np.abs(state.w.data).max() == 0.0


def test_make_initial_deterministic(grid16):
    ic = InitialCondition("random_solenoidal", 2.0, 1.5, seed=99)
    a = make_initial(ic, grid16)
    b = make_initial(ic, grid16)
    assert np.array_equal(a.u.data, b.u.data)
    assert np.array_equal(a.w.data, b.w.data)


def test_make_initial_amplitude_linearity(grid16):
    base = make_initial(InitialCondition("random_solenoidal", 2.0, 1.0, 7), grid16)
    scaled = make_initial(InitialCondition("random_solenoidal", 2.0, 3.5, 7), grid16)
    assert np.allclose(scaled.u.data, 3.5 * base.u.data, rtol=1e-12, atol=0)
    assert np.isclose(l2(scaled.u), 3.5, rtol=1e-12)
    assert np.isclose(l2(scaled.w), 3.5, rtol=1e-12)


def test_make_initial_solenoidal_and_band_limited(grid16):
    for kind in InitialCondition.KINDS:
        state = make_initial(InitialCondition(kind, 2.0, 1.0, 3), grid16)
        du = l2_grad(state.u)
        assert l2_div(state.u) <= 1e-12 * max(du, 1e-30)
        assert_stored_on_band(state)  # the band holds nothing outside it


def test_make_initial_peak_validation(grid16):
    with pytest.raises(ValueError, match="dealiased band"):
        make_initial(InitialCondition("single_mode", 100.0, 1.0), grid16)
    with pytest.raises(ValueError, match="dealiased band"):
        make_initial(InitialCondition("single_mode", -1.0, 1.0), grid16)
    with pytest.raises(ValueError, match="kind"):
        InitialCondition("vortex_sheet", 1.0, 1.0)
