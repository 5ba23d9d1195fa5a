"""Named verification suites behind `micropolar verify <suite>`.

Each suite returns a list of CheckResult rows; a suite passes when every row
does.  The suites are deterministic (fixed seeds) and sized to finish in
about a minute each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import DiagnosticsRecord, RunAccumulator, fit_decay
from .dynamics import (
    InitialCondition,
    Stepper,
    StepperConfig,
    energy_power,
    evolve,
    make_initial,
)
from .fields import (
    PhysicalParams,
    RealVectorField,
    ScalarField,
    SimState,
    SpectralVectorField,
    expand_band,
    fold_band,
    forward_band,
    inverse_band,
    to_real,
    to_spectral,
    zero_spectral,
)
from .grid import make_grid
from .norms import inner, l2, l2_div, l2_grad
from .operators import (
    CALIBRATED_C_INFTY,
    advect,
    calibration_ensemble,
    curl,
    gn_ratio_grad,
    gn_ratio_infty,
    grad_div,
    gradient,
    laplacian,
    leray_project,
    random_band_limited,
    single_mode,
)
from .quadrature import RunningIntegral
from .semigroup import (
    L2_GRAD_SMOOTHING_CONSTANT,
    SemigroupQuery,
    default_ensemble,
    discrete_l1_smoothing_constant,
    duhamel_reconstruct_w,
    duhamel_terms,
    fit_heat_decay,
    gaussian_bump,
    heat_l2_norms,
    periodization_window,
)

SUITES = ("ops", "lemma1", "lemma2", "duhamel", "energy")


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    tolerance: float
    passed: bool
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  ({self.note})" if self.note else ""
        return (
            f"{status}  {self.name}: measured {self.measured:.3e}, "
            f"tolerance {self.tolerance:.3e}{note}"
        )


def _check(name: str, measured: float, tolerance: float, note: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        measured=float(measured),
        tolerance=float(tolerance),
        passed=bool(measured <= tolerance),
        note=note,
    )


# ---------------------------------------------------------------------------
# ops


def suite_ops() -> list[CheckResult]:
    grid = make_grid(16, 2.0 * np.pi)
    results = []

    worst_identity = 0.0
    worst_curl_grad = 0.0
    worst_div_curl = 0.0
    worst_leray_idem = 0.0
    worst_leray_adj = 0.0
    worst_leray_div = 0.0
    rng = np.random.default_rng(314159)
    for _ in range(100):
        f = random_band_limited(grid, rng)
        scale = np.abs(f.data).max()
        lhs = grad_div(f).data - curl(curl(f)).data
        worst_identity = max(
            worst_identity, np.abs(lhs - laplacian(f).data).max() / scale
        )
        noise = rng.standard_normal(grid.shape)  # its band part: p is band-limited
        p = ScalarField(grid, inverse_band(forward_band(noise, grid), grid))
        gp = gradient(p)
        worst_curl_grad = max(
            worst_curl_grad,
            np.abs(curl(gp).data).max() / max(np.abs(gp.data).max(), 1e-300),
        )
        div_curl = np.abs(grid.k_dot(curl(f).data)).max()
        worst_div_curl = max(worst_div_curl, div_curl / scale)
        pf = leray_project(f)
        worst_leray_idem = max(
            worst_leray_idem,
            np.abs(leray_project(pf).data - pf.data).max()
            / max(np.abs(pf.data).max(), 1e-300),
        )
        g = random_band_limited(grid, rng)
        a = inner(pf, g)
        b = inner(f, leray_project(g))
        worst_leray_adj = max(
            worst_leray_adj, abs(a - b) / max(abs(a), abs(b), 1.0)
        )
        du = l2_grad(pf)
        if du > 0.0:
            worst_leray_div = max(worst_leray_div, l2_div(pf) / du)

    results.append(_check("vector identity grad(div)-curl(curl)=Lap", worst_identity, 1e-12))
    results.append(_check("curl of gradient vanishes", worst_curl_grad, 1e-12))
    results.append(_check("divergence of curl vanishes", worst_div_curl, 1e-12))
    results.append(_check("Leray projection idempotent", worst_leray_idem, 1e-12))
    results.append(_check("Leray projection self-adjoint", worst_leray_adj, 1e-12))
    results.append(_check("Leray output divergence-free", worst_leray_div, 1e-12))

    # transforms: round trip and Parseval
    worst_round = 0.0
    worst_parseval = 0.0
    rng = np.random.default_rng(2718)
    for _ in range(100):
        data = to_real(random_band_limited(grid, rng)).data
        spec = to_spectral(RealVectorField(grid, data))
        worst_round = max(
            worst_round,
            np.abs(to_real(spec).data - data).max() / np.abs(data).max(),
        )
        phys_sq = grid.cell_volume * float(np.sum(data**2))
        worst_parseval = max(
            worst_parseval, abs(phys_sq - l2(spec) ** 2) / phys_sq
        )
    results.append(_check("transform round trip", worst_round, 1e-13))
    results.append(_check("Parseval identity", worst_parseval, 1e-12))

    # dealias idempotence (the band of complex noise, made the band of a real
    # field by fold_band o expand_band) and advection skew-symmetry
    worst_skew = 0.0
    worst_idem = 0.0
    rng = np.random.default_rng(1618)
    rows, kz = grid.band.rows, slice(0, grid.band.cutoff + 1)
    for _ in range(50):
        raw = rng.standard_normal((3,) + grid.shape) + 1j * rng.standard_normal(
            (3,) + grid.shape
        )
        once = fold_band(expand_band(raw[:, rows[:, None], rows, kz], grid), grid)
        twice = fold_band(expand_band(once, grid), grid)
        worst_idem = max(
            worst_idem,
            np.abs(twice - once).max() / max(np.abs(once).max(), 1e-300),
        )
        v = random_band_limited(grid, rng, solenoidal=True)
        h = random_band_limited(grid, rng)
        skew = abs(inner(advect(v, h), h)) / (l2(v) * l2(h) ** 2)
        worst_skew = max(worst_skew, skew)
    results.append(_check("dealias idempotent", worst_idem, 1e-15))
    results.append(_check("advection skew-symmetry", worst_skew, 1e-11))

    # GN gradient ratio over 1000 fields
    worst_ratio = 0.0
    rng = np.random.default_rng(999)
    small = make_grid(8, 2.0 * np.pi)
    for _ in range(1000):
        f = to_real(random_band_limited(small, rng))
        worst_ratio = max(worst_ratio, gn_ratio_grad(f))
    results.append(
        _check("interpolation ratio ||Du||/(||u|| ||D2u||)^(1/2)", worst_ratio, 1.0 + 1e-12)
    )
    return results


# ---------------------------------------------------------------------------
# lemma1 (interpolation inequalities)


def suite_lemma1() -> list[CheckResult]:
    results = []
    grid = make_grid(16, 2.0 * np.pi)

    single = to_real(single_mode(grid, 0, 1))
    results.append(
        _check(
            "single-mode gradient ratio = 1",
            abs(gn_ratio_grad(single) - 1.0),
            1e-12,
        )
    )

    worst = 0.0
    rng = np.random.default_rng(4242)
    small = make_grid(8, 2.0 * np.pi)
    for _ in range(1000):
        f = to_real(random_band_limited(small, rng))
        worst = max(worst, gn_ratio_grad(f))
    results.append(_check("gradient ratio <= 1 on 1000 fields", worst, 1.0 + 1e-12))

    base = to_real(random_band_limited(small, np.random.default_rng(5)))
    r0 = gn_ratio_infty(base)
    drift = max(
        abs(gn_ratio_infty(RealVectorField(small, lam * base.data)) - r0) / r0
        for lam in (0.25, -4.0, 1e5)
    )
    results.append(_check("sup-norm ratio scale invariance", drift, 1e-12))

    # same band-limited field resampled on the doubled grid; the band must be
    # well resolved (sup sampling error scales like (k dx)^2)
    coarse = make_grid(32, 2.0 * np.pi)
    envelope = (np.sqrt(coarse.band.k_sq) <= 2.0).astype(float)
    spec = random_band_limited(coarse, np.random.default_rng(6), envelope=envelope)
    r_coarse = gn_ratio_infty(to_real(spec))
    fine = make_grid(2 * coarse.n_per_axis, coarse.box_length)
    kc, kf = coarse.band.cutoff, fine.band.cutoff
    rows = np.r_[0 : kc + 1, 2 * kf + 1 - kc : 2 * kf + 1]  # coarse k in the fine band
    embedded = np.zeros((3,) + fine.band.shape, dtype=np.complex128)
    embedded[:, rows[:, None], rows, : kc + 1] = spec.data
    r_fine = gn_ratio_infty(to_real(SpectralVectorField(fine, embedded)))
    results.append(
        _check(
            "sup-norm ratio stability under refinement",
            abs(r_fine - r_coarse) / r_coarse,
            0.02,
        )
    )

    sample_max = max(gn_ratio_infty(f) for f in calibration_ensemble(count=100))
    results.append(
        _check(
            "sup-norm ratio within frozen calibration",
            sample_max,
            CALIBRATED_C_INFTY + 1e-12,
            note=f"C_infty={CALIBRATED_C_INFTY}",
        )
    )
    results.append(
        _check(
            "calibration subsample reaches >= 25% of frozen constant",
            0.25 * CALIBRATED_C_INFTY - sample_max,
            0.0,
            note=f"subsample max={sample_max:.4g}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# lemma2 (heat-kernel smoothing decay)


def suite_lemma2() -> list[CheckResult]:
    results = []
    grid = make_grid(32, 2.0 * np.pi)
    nu = 0.7
    window = periodization_window(grid, nu)
    for r in (1.0, 2.0):
        for alpha in ((0, 0, 0), (1, 0, 0), (1, 1, 0)):
            query = SemigroupQuery(nu=nu, tau=window, alpha=alpha, r=r)
            fit = fit_heat_decay(query, default_ensemble(query, grid))
            results.append(
                _check(
                    f"decay slope r={r:g} m={sum(alpha)}",
                    abs(fit.slope - fit.expected_slope),
                    0.05,
                    note=f"slope={fit.slope:+.4f} expected={fit.expected_slope:+.4f} "
                    f"K={fit.k_envelope:.4g}",
                )
            )

    sigma = 1.5 * grid.spacing
    centers = np.full((3, 3), grid.box_length / 2.0)
    bump = gaussian_bump(grid, sigma, centers)
    taus = np.linspace(window / 50.0, window, 8)
    measured = heat_l2_norms(bump, nu, taus)
    exact = (
        math.sqrt(3.0) * np.pi**0.75 * sigma**3 * (sigma**2 + 2.0 * nu * taus) ** -0.75
    )
    worst = np.max(np.abs(measured - exact) / exact)
    results.append(_check("Gaussian closed-form norm match", worst, 1e-6))
    return results


# ---------------------------------------------------------------------------
# duhamel


def suite_duhamel() -> list[CheckResult]:
    results = []
    grid = make_grid(32, 16.0 * np.pi)
    dt = 0.02
    for chi in (0.0, 0.5):
        p = PhysicalParams(mu=0.6, gamma=0.3, chi=chi)
        state = make_initial(
            InitialCondition("random_solenoidal", 0.75, 1.0, seed=13), grid
        )
        traj = []
        cfg = StepperConfig(dt=dt, t_end=3.0)
        for j, state, _ in evolve(state, p, cfg):
            if state.t >= 1.0 - 1e-12 and j % 2 == 0:
                traj.append(state)
        fine = duhamel_reconstruct_w(traj, p)
        coarse = duhamel_reconstruct_w(traj[::2], p)
        results.append(
            _check(
                f"reconstruction residual (chi={chi:g})",
                fine.residuals[-1],
                1e-4,
            )
        )
        ratio = coarse.residuals[-1] / fine.residuals[-1]
        results.append(
            _check(
                f"halved-sampling residual ratio in [3, 5.5] (chi={chi:g})",
                abs(ratio - 4.25), 1.25,
                note=f"ratio={ratio:.2f}",
            )
        )
        if chi > 0.0:
            z_form = duhamel_reconstruct_w(traj[::2], p, form="z")
            results.append(
                _check(
                    "z-substitution reconstruction agrees",
                    np.abs(z_form.residuals - coarse.residuals).max()
                    / coarse.residuals.max(),
                    1e-8,
                )
            )
            ledger = duhamel_terms(traj[::2], p)
            e0 = math.hypot(l2(traj[0].u), l2(traj[0].w))
            eps = max(math.sqrt(s.t) * l2_grad(s.w) for s in traj[1:])
            taus = ledger.times - ledger.t0
            k1 = discrete_l1_smoothing_constant(grid, p.gamma, taus[taus > 0.0])
            bound_ii = (
                2.0**1.25
                * k1
                * e0
                * eps
                * p.gamma**-0.75
                * (
                    np.exp(-chi * ledger.times) * ledger.times**0.25
                    + (2.0 * chi) ** -0.25 * ledger.gamma_quarter
                )
            )
            bound_iii = (
                2.0
                * L2_GRAD_SMOOTHING_CONSTANT
                * eps
                * p.gamma**-0.5
                * (
                    np.exp(-chi * ledger.times) * np.sqrt(ledger.times)
                    + (2.0 * chi) ** -0.5 * ledger.sqrt_pi
                )
            )
            results.append(
                _check(
                    "advection term under Gamma(1/4) bound",
                    float(np.max(ledger.term_ii / bound_ii)),
                    1.0,
                )
            )
            results.append(
                _check(
                    "grad-div term under sqrt(pi) bound",
                    float(np.max(ledger.term_iii / bound_iii)),
                    1.0,
                )
            )
    return results


# ---------------------------------------------------------------------------
# energy


def balance_residuals(
    state0: SimState, p: PhysicalParams, dt: float, t_end: float
) -> list[float]:
    """Relative energy-balance residuals |E(t_end) - E(0) - int P dt| / E(0).

    One run each at dt, dt/2 and dt/4 from state0; the stepper's power is
    integrated with the end-corrected trapezoid rule, so the residual falls
    by about 16 per halving.
    """
    e0 = l2(state0.u) ** 2 + l2(state0.w) ** 2
    residuals = []
    for divisor in (1, 2, 4):
        h = dt / divisor
        power = RunningIntegral(h)
        cur = state0
        for _, cur, stepper in evolve(cur, p, StepperConfig(dt=h, t_end=t_end)):
            power.push(stepper.last_power)
        power.push(energy_power(cur, p))
        e_end = l2(cur.u) ** 2 + l2(cur.w) ** 2
        residuals.append(abs(e_end - e0 - power.value) / e0)
    return residuals


def frozen_u_series(
    w0: SpectralVectorField, p: PhysicalParams, dt: float, t_end: float
) -> list[DiagnosticsRecord]:
    """Records of the state (0, w) at t = j*dt up to t_end, starting from w0.

    u is held at 0 by construction (a full step would not keep it there:
    chi curl w drives u), so w follows its linear equation, advanced by the
    stepper's exact propagator, and ||w|| decays at a rate of at least 2 chi.
    """
    grid = w0.grid
    stepper = Stepper(grid, p, StepperConfig(dt=dt, t_end=t_end))
    acc = RunAccumulator(p, dt)
    state = SimState(0.0, zero_spectral(grid), w0)
    series = []
    for j in range(round(t_end / dt) + 1):
        if j:
            state = SimState(j * dt, state.u, stepper.propagate_w(state.w))
        acc.push(state)
        series.append(acc.record(state))
    return series


_ENERGY_CONFIG = """
# 16^3 smoke box for the end-to-end energy ledger
grid.n = 16
grid.L = 25.132741228718345   # 8*pi
params.mu = 0.6
params.gamma = 0.3
params.chi = {chi}
ic.kind = random_solenoidal
ic.peak = 1.0
ic.amplitude = 1.0
ic.seed = 21
stepper.dt = 0.02
stepper.t_end = 4.0
output.cadence = 10
output.dir = {out_dir}
"""


def suite_energy() -> list[CheckResult]:
    import tempfile
    from pathlib import Path

    from .config import parse_config_text
    from .runio import execute_run

    results = []
    grid = make_grid(16, 8.0 * np.pi)

    with tempfile.TemporaryDirectory() as tmp:
        for chi in (0.0, 0.1, 0.5):
            config = parse_config_text(
                _ENERGY_CONFIG.format(chi=chi, out_dir=Path(tmp) / f"chi{chi:g}")
            )
            run = execute_run(config)
            worst_slack = max(
                (r.energy_ledger_lhs - r.energy_ledger_rhs) / r.energy_ledger_rhs
                for r in run.records[1:]
            )
            results.append(
                _check(f"energy inequality slack (chi={chi:g})", worst_slack, 1e-8)
            )
            u = run.final_state.u
            worst_div = l2_div(u) / l2_grad(u)
            results.append(
                _check(
                    f"divergence-free preservation (chi={chi:g})", worst_div, 1e-10
                )
            )

    # balance residual convergence dt -> dt/2 -> dt/4
    p = PhysicalParams(mu=0.6, gamma=0.3, chi=0.1)
    state0 = make_initial(
        InitialCondition("random_solenoidal", 1.0, 1.0, seed=33), grid
    )
    residuals = balance_residuals(state0, p, dt=0.02, t_end=1.2)
    results.append(_check("balance residual at reference dt", residuals[0], 1e-8))
    results.append(_check("balance residual at dt/4", residuals[2], 1e-10))
    ratio = residuals[0] / residuals[1]
    results.append(
        _check(
            "fourth-order balance ratio in [12, 20]",
            abs(ratio - 16.0),
            4.0,
            note=f"ratio={ratio:.1f}",
        )
    )

    # frozen-u damping and fitted exponential rate
    chi = 0.4
    p = PhysicalParams(mu=0.3, gamma=0.3, chi=chi)
    w0 = random_band_limited(grid, np.random.default_rng(7))
    series = frozen_u_series(w0, p, dt=0.05, t_end=2.0)
    worst_bound = 0.0
    for prev, rec in zip(series, series[1:]):
        bound = math.exp(-2.0 * chi * (rec.t - prev.t)) * prev.l2_w
        worst_bound = max(worst_bound, rec.l2_w / bound - 1.0)
    results.append(
        _check("frozen-u micro-rotation damping bound", worst_bound, 1e-9)
    )
    fit = fit_decay(series, (0.0, 2.0))
    results.append(
        _check(
            "frozen-u exponential rate >= 2 chi",
            2.0 * chi * (1.0 - 1e-3) - fit.w_exp_rate,
            0.0,
            note=f"rate={fit.w_exp_rate:.4f} 2chi={2*chi}",
        )
    )
    return results


def run_suite(name: str) -> list[CheckResult]:
    if name == "ops":
        return suite_ops()
    if name == "lemma1":
        return suite_lemma1()
    if name == "lemma2":
        return suite_lemma2()
    if name == "duhamel":
        return suite_duhamel()
    if name == "energy":
        return suite_energy()
    raise KeyError(name)
