"""Right-hand side, time stepping, pressure recovery, initial conditions.

The stepper is an integrating-factor RK4: every linear term is integrated
exactly per mode and the advection / curl-coupling terms are explicit.  The
micro-rotation linear symbol gamma*|k|^2 + k (x) k + 2*chi is diagonalized by
splitting each mode into its curl-free part (along k) and its solenoidal
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    PhysicalParams,
    ScalarField,
    SimState,
    SpectralVectorField,
    forward_band,
    hermitian_plane,
    inverse_band,
    zero_spectral,
)
from .grid import Grid
from .norms import spectral_l2_sq
from .operators import (
    AdvectionWorkspace,
    advect_hat,
    curl_hat,
    divergence_hat,
    leray_hat,
    random_band_limited,
    single_mode,
)


class CflError(RuntimeError):
    """Advective CFL cap exceeded."""


class SimulationDiverged(RuntimeError):
    """A step gave an invalid (e.g. non-finite) state; carries the last good time.

    step is the index of the failing step within evolve (-1 when the
    stepper is driven directly).
    """

    def __init__(self, message: str, t: float, step: int):
        super().__init__(message)
        self.t = t
        self.step = step


@dataclass(frozen=True)
class StepperConfig:
    """Time-stepping controls.

    dt          step size
    t_end       stop time (the run takes ceil((t_end - t0)/dt) steps)
    cfl_safety  cap on max|u| * dt / dx, in (0, 1]
    """

    dt: float
    t_end: float
    cfl_safety: float = 0.5

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.t_end > 0.0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(
                f"cfl_safety must lie in (0, 1], got {self.cfl_safety}"
            )


@dataclass(frozen=True)
class InitialCondition:
    """Initial (u, w) specification.

    kind             one of taylor_green_like, random_solenoidal, single_mode
    peak_wavenumber  spectrum peak (physical units, 1/length)
    amplitude        L2 norm of each generated field (sine peak amplitude for
                     single_mode)
    seed             RNG seed for random_solenoidal
    """

    kind: str
    peak_wavenumber: float
    amplitude: float
    seed: int = 0

    KINDS = ("taylor_green_like", "random_solenoidal", "single_mode")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown initial condition kind {self.kind!r}")


# ---------------------------------------------------------------------------
# right-hand side y_t = N(y) + L y for the pair y = (u, w)


def _explicit_hats(
    u_data: np.ndarray,
    w_data: np.ndarray,
    grid: Grid,
    chi: float,
    work: AdvectionWorkspace | None = None,
    u_phys: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Explicitly-integrated terms N(y) on the band.

    Returns (N_u, N_w) with N_u = -P (u.grad)u + chi curl w and
    N_w = -(u.grad)w + chi curl u, the advection from advect_hat.  work (a
    fresh one if None) holds the buffers; u_phys optionally carries the
    physical velocity samples; out (arrays other than u_data and w_data)
    receives (N_u, N_w) when given.
    """
    work = work or AdvectionWorkspace(grid)
    if u_phys is None:
        u_phys = inverse_band(u_data, grid, work.v_phys, work.scratch)
    n_u, n_w = (None, None) if out is None else out
    n_w = advect_hat(u_data, w_data, grid, work, u_phys, n_w)
    n_u = advect_hat(u_data, u_data, grid, work, u_phys, n_u)
    for term, coupled in ((n_u, w_data), (n_w, u_data)):
        np.negative(term, out=term)
        if chi != 0.0:
            curl = curl_hat(coupled, grid)
            term += np.multiply(chi, curl, out=curl)
            del curl  # freed before the next one is built
    return leray_hat(n_u, grid, out=n_u), n_w


def _linear_components(
    u_data: np.ndarray, w_data: np.ndarray, grid: Grid, p: PhysicalParams
):
    """L y one component at a time: yields the c-th components of
    (mu+chi) Lap u and of gamma Lap w + grad(div w) - 2 chi w, c = 0, 1, 2."""
    band = grid.band
    coef_u = -(p.mu + p.chi) * band.k_sq
    coef_w = -p.gamma * band.k_sq
    div = divergence_hat(w_data, grid)
    for component, dk in enumerate(band.dk):
        l_w = coef_w * w_data[component]
        l_w += 1j * dk * div
        l_w -= 2.0 * p.chi * w_data[component]
        yield coef_u * u_data[component], l_w


def _power(
    u_data: np.ndarray,
    w_data: np.ndarray,
    n_u: np.ndarray,
    n_w: np.ndarray,
    grid: Grid,
    p: PhysicalParams,
) -> float:
    """Pair-energy production 2<y, N(y) + L y> of band y, N(y)."""
    # elementwise, not np.vdot: a threaded BLAS dot can stall for milliseconds
    flow = np.empty(u_data.shape)
    linear = _linear_components(u_data, w_data, grid, p)
    for component, (l_u, l_w) in enumerate(linear):
        l_u += n_u[component]
        l_w += n_w[component]
        np.multiply(np.conj(u_data[component]), l_u, out=l_u)
        l_u += np.multiply(np.conj(w_data[component]), l_w, out=l_w)
        flow[component] = l_u.real
    return 2.0 * grid.volume * float(grid.mode_sum(flow))


def rhs(
    state: SimState, p: PhysicalParams
) -> tuple[SpectralVectorField, SpectralVectorField]:
    """(u_t, w_t) = N(y) + L y: the full right-hand side of both equations,
    on the band."""
    g, u0, w0 = state.grid, state.u.data, state.w.data
    n_u, n_w = _explicit_hats(u0, w0, g, p.chi)
    for component, (l_u, l_w) in enumerate(_linear_components(u0, w0, g, p)):
        n_u[component] += l_u
        n_w[component] += l_w
    return SpectralVectorField(g, n_u), SpectralVectorField(g, n_w)


def energy_power(state: SimState, p: PhysicalParams) -> float:
    """Instantaneous pair-energy production 2<u_t, u> + 2<w_t, w>."""
    g, u0, w0 = state.grid, state.u.data, state.w.data
    n_u, n_w = _explicit_hats(u0, w0, g, p.chi)
    return _power(u0, w0, n_u, n_w, g, p)


def recover_pressure(state: SimState) -> ScalarField:
    """Solve -Lap P = div((u.grad)u) mode-wise; P is mean-zero.

    The curl coupling is divergence-free and contributes nothing, so the
    result does not depend on the physical parameters.
    """
    g = state.grid
    n_hat = advect_hat(state.u.data, state.u.data, g)
    p_hat = divergence_hat(n_hat, g) * g.band.inv_k_sq
    return ScalarField(g, inverse_band(p_hat, g))


# ---------------------------------------------------------------------------
# integrating-factor RK4


class Stepper:
    """Advances a SimState by a fixed dt with precomputed propagators.

    States live on the 2/3-rule band (Grid.band), and so does every stage of
    a step; the step makes the kz = 0 plane of its result exactly Hermitian
    and hands it to a SimState that checks it.  propagate_w advances a bare
    band w with u held at 0, where it is linear.  The workspace that every
    stage reuses and the step's band buffers (the running sum of the stage
    terms and two stage terms) are allocated here, once; each step allocates
    the stage state, which becomes its result.
    """

    def __init__(self, grid: Grid, params: PhysicalParams, config: StepperConfig):
        self.grid = grid
        self.params = params
        self.config = config
        self.last_power = 0.0  # 2<y, N(y) + L y> at the step start
        self.last_vmax = 0.0
        self._work = AdvectionWorkspace(grid)
        self._pair = (2, 3) + grid.band.shape
        self._sum = np.empty(self._pair, complex)
        self._terms = np.empty((2,) + self._pair, complex)
        dt = config.dt
        dsq = grid.band.k_sq
        self._eu_half = np.exp(-(params.mu + params.chi) * dsq * (dt / 2.0))
        self._eu_full = self._eu_half**2
        gamma, chi = params.gamma, params.chi
        self._ew_half = np.exp(-(gamma * dsq + 2.0 * chi) * (dt / 2.0))
        self._ew_full = self._ew_half**2
        # extra decay of the curl-free (along-k) part: factor exp(-dsq * tau)
        self._bw_half = np.expm1(-dsq * (dt / 2.0))
        self._bw_full = np.expm1(-dsq * dt)

    def _apply_w(
        self, data: np.ndarray, half: bool, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Exact linear w propagator over dt/2 or dt, on band data; into out
        when given, which may be data itself."""
        factor = self.grid.k_dot(data)
        factor *= self.grid.band.inv_k_sq
        b = self._bw_half if half else self._bw_full
        e = self._ew_half if half else self._ew_full
        out = np.empty_like(data) if out is None else out
        for component, dk in enumerate(self.grid.band.dk):
            along = b * dk * factor
            along += data[component]
            np.multiply(e, along, out=out[component])
        return out

    def propagate_w(self, w: SpectralVectorField) -> SpectralVectorField:
        """w after one dt with u held at 0: the exact linear w propagator."""
        return SpectralVectorField(self.grid, self._apply_w(w.data, half=False))

    def _check_cfl(self, u_phys: np.ndarray) -> None:
        vmax = float(max(u_phys.max(), -u_phys.min()))  # max|u|, no |u| array
        self.last_vmax = vmax
        if vmax == 0.0:
            return  # no advective constraint; linear terms are exact
        number = vmax * self.config.dt / self.grid.spacing
        if number > self.config.cfl_safety:
            raise CflError(
                f"CFL number {number:.3f} exceeds cfl_safety "
                f"{self.config.cfl_safety} (max|u|={vmax:.3e})"
            )

    def step(self, state: SimState, t_next: float | None = None) -> SimState:
        g, dt, chi = self.grid, self.config.dt, self.params.chi
        half = dt / 2.0
        eu_half, eu_full, apply_w = self._eu_half, self._eu_full, self._apply_w
        u0, w0 = state.u.data, state.w.data
        # y_next = E y0 + dt/6 (E N1 + 2 E_half (N2 + N3) + N4), E_half and E
        # the linear propagators over dt/2 and dt (apply_w for w), evaluated
        # in the stepper's buffers: the running sum takes each stage term as
        # soon as the later stages are done with it, and E y0 is recomputed
        # where it is needed.  Every value comes from the same operations in
        # the same order as the plain expressions, so the result is theirs
        # bit for bit.
        work = self._work
        (yu, yw), (su, sw) = np.empty(self._pair, complex), self._sum
        (au, aw), (bu, bw) = self._terms
        u_phys = inverse_band(u0, g, work.v_phys, work.scratch)
        self._check_cfl(u_phys)
        _explicit_hats(u0, w0, g, chi, work, u_phys, out=(su, sw))  # N1
        self.last_power = _power(u0, w0, su, sw, g, self.params)

        # y2 = (E_half (u0 + dt/2 N1u), E_half^w (w0 + dt/2 N1w))
        np.multiply(half, su, out=yu)
        yu += u0
        leray_hat(np.multiply(eu_half, yu, out=yu), g, out=yu)
        np.multiply(half, sw, out=yw)
        yw += w0
        apply_w(yw, True, out=yw)
        np.multiply(eu_full, su, out=su)  # sum = E N1
        apply_w(sw, False, out=sw)
        _explicit_hats(yu, yw, g, chi, work, out=(au, aw))  # N2

        # y3 = (E_half u0 + dt/2 N2u, E_half^w w0 + dt/2 N2w)
        np.multiply(eu_half, u0, out=yu)
        yu += np.multiply(half, au, out=bu)
        leray_hat(yu, g, out=yu)
        apply_w(w0, True, out=yw)
        yw += np.multiply(half, aw, out=bw)
        _explicit_hats(yu, yw, g, chi, work, out=(bu, bw))  # N3

        # sum += 2 E_half (N2 + N3); y4 = (E u0 + dt E_half N3u,
        # E^w w0 + dt E_half^w N3w)
        au += bu
        su += np.multiply(2.0 * eu_half, au, out=au)
        aw += bw
        sw += np.multiply(2.0, apply_w(aw, True, out=aw), out=aw)
        np.multiply(eu_full, u0, out=yu)
        yu += np.multiply(dt * eu_half, bu, out=au)
        leray_hat(yu, g, out=yu)
        apply_w(w0, False, out=yw)
        yw += np.multiply(dt, apply_w(bw, True, out=aw), out=aw)
        _explicit_hats(yu, yw, g, chi, work, out=(au, aw))  # N4

        # y_next = E y0 + dt/6 (sum + N4), in the stage state's buffers
        su += au
        u_next = np.multiply(eu_full, u0, out=yu)
        u_next += np.multiply(dt / 6.0, su, out=su)
        leray_hat(u_next, g, out=u_next)
        sw += aw
        w_next = apply_w(w0, False, out=yw)
        w_next += np.multiply(dt / 6.0, sw, out=sw)

        w_next[:, 0, 0, 0] = 0.0
        u_next[..., 0] = hermitian_plane(u_next, g)
        w_next[..., 0] = hermitian_plane(w_next, g)
        try:
            return SimState(
                state.t + dt if t_next is None else t_next,
                SpectralVectorField(g, u_next),
                SpectralVectorField(g, w_next),
            )
        except ValueError as exc:
            message = f"invalid fields after step at t={state.t:.6g}: {exc}"
            raise SimulationDiverged(message, t=state.t, step=-1) from exc


def evolve(state: SimState, p: PhysicalParams, cfg: StepperConfig):
    """Yield (step_index, state, stepper) for every step up to t_end.

    The Stepper, and with it the workspace, is built by this call rather than
    at the first step, so a working set too large to allocate fails here.
    Time stamps are pinned to t0 + j*dt to avoid accumulation drift; the run
    covers ceil((t_end - t0)/dt) steps.
    """
    return _steps(Stepper(state.grid, p, cfg), state)


def _steps(stepper: Stepper, state: SimState):
    cfg = stepper.config
    n_steps = int(np.ceil((cfg.t_end - state.t) / cfg.dt - 1e-9))
    t0 = state.t
    current = state
    for j in range(1, n_steps + 1):
        try:
            current = stepper.step(current, t_next=t0 + j * cfg.dt)
        except SimulationDiverged as exc:
            exc.step = j
            raise
        yield j, current, stepper


# ---------------------------------------------------------------------------
# initial conditions


def make_initial(ic: InitialCondition, grid: Grid) -> SimState:
    """Deterministic initial state on the band; u is solenoidal, both fields
    mean-zero."""
    k_min = 2.0 * np.pi / grid.box_length
    k_cut = grid.band.cutoff * k_min
    if not 0.0 < ic.peak_wavenumber <= k_cut:
        raise ValueError(
            f"peak wavenumber {ic.peak_wavenumber:.4g} outside the dealiased "
            f"band (0, {k_cut:.4g}]"
        )

    if ic.amplitude == 0.0:
        return SimState(0.0, zero_spectral(grid), zero_spectral(grid))

    if ic.kind == "single_mode":
        m = max(1, int(round(ic.peak_wavenumber / k_min)))
        return SimState(
            0.0,
            single_mode(grid, component=1, axis=0, index=m, amplitude=ic.amplitude),
            single_mode(grid, component=0, axis=0, index=m, amplitude=ic.amplitude),
        )

    if ic.kind == "taylor_green_like":
        m = max(1, int(round(ic.peak_wavenumber / k_min)))
        kappa = m * k_min
        n = grid.n_per_axis
        x = (np.arange(n) * grid.spacing).reshape(n, 1, 1)
        y = (np.arange(n) * grid.spacing).reshape(1, n, 1)
        z = (np.arange(n) * grid.spacing).reshape(1, 1, n)
        u_phys = np.zeros((3,) + grid.shape)
        u_phys[0] = np.sin(kappa * x) * np.cos(kappa * y) * np.cos(kappa * z)
        u_phys[1] = -np.cos(kappa * x) * np.sin(kappa * y) * np.cos(kappa * z)
        w_phys = np.zeros((3,) + grid.shape)
        w_phys[0] = np.cos(kappa * x) * np.sin(kappa * y) * np.sin(kappa * z)
        w_phys[1] = np.sin(kappa * x) * np.cos(kappa * y) * np.sin(kappa * z)
        u_hat = leray_hat(forward_band(u_phys, grid), grid)
        w_hat = forward_band(w_phys, grid)
        w_hat[:, 0, 0, 0] = 0.0
    else:
        # random_solenoidal; the envelope width peak/4 keeps the box-scale
        # modes strongly suppressed (they decay too slowly to be useful at
        # desk scale)
        rng = np.random.default_rng(ic.seed)
        k_abs = np.sqrt(grid.band.k_sq)
        sigma = ic.peak_wavenumber / 4.0
        envelope = np.exp(-((k_abs - ic.peak_wavenumber) ** 2) / (2.0 * sigma**2))
        u_hat = random_band_limited(grid, rng, solenoidal=True, envelope=envelope).data
        w_hat = random_band_limited(grid, rng, solenoidal=False, envelope=envelope).data
    for data in (u_hat, w_hat):  # an exactly Hermitian kz = 0 plane, as after a step
        data[..., 0] = hermitian_plane(data, grid)
        data *= ic.amplitude / np.sqrt(spectral_l2_sq(data, grid))
    return SimState(
        0.0, SpectralVectorField(grid, u_hat), SpectralVectorField(grid, w_hat)
    )
