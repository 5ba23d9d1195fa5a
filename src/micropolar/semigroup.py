"""Heat semigroup, smoothing-decay verification, Duhamel reconstructions.

The smoothing estimate ||D^a e^{nu Lap tau} f||_2 <= K ||f||_r (nu tau)^p with
p = -(n/2)(1/r - 1/2) - |a|/2 is checked empirically: over an ensemble of
Gaussian bumps with geometrically graded widths, the max of the ratio
||D^a e^{nu Lap tau} f|| / ||f||_r at each tau traces the operator-norm decay
(the bump of width ~ sqrt(nu tau) is the near-extremal datum), and a log-log
regression of that envelope recovers the exponent.  A single fixed datum
cannot: its own width fixes the observed rate.

All tau sweeps stay inside the periodization window 4 nu tau <= (L/8)^2,
inside which the box evolution matches the whole-space one far below the
test tolerances.

A sub-grid bump has modes beyond the 2/3 band, so it is no
SpectralVectorField.  It is separable, each component a product of three
1-D Gaussians, so it is held by the full-lattice coefficients of its 1-D
factors (SeparableField), and every quantity the fits take (its heat norms,
its L^r norm, the lattice sum of the smoothing constant) is a product of
1-D sums: no (n, n, n) array is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import PhysicalParams, SimState, SpectralVectorField
from .grid import Grid
from .norms import spectral_l2_sq
from .operators import advect_hat, curl_hat, grad_div_hat


def heat_apply(f: SpectralVectorField, nu: float, tau: float) -> SpectralVectorField:
    """Multiply every coefficient by e^{-nu |k|^2 tau}."""
    if nu <= 0.0:
        raise ValueError(f"nu must be positive, got {nu}")
    if tau < 0.0:
        raise ValueError(f"tau must be non-negative, got {tau}")
    if tau == 0.0:
        return f.copy()
    return SpectralVectorField(f.grid, f.data * np.exp(-nu * tau * f.grid.band.k_sq))


def decay_exponent(n: int, r: float, m: int) -> float:
    """Smoothing exponent -(n/2)(1/r - 1/2) - m/2 of L^r data, m derivatives."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 1.0 <= r <= 2.0:
        raise ValueError(f"r must lie in [1, 2], got {r}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    return -(n / 2.0) * (1.0 / r - 0.5) - m / 2.0


@dataclass(frozen=True)
class SemigroupQuery:
    """One smoothing-decay question: diffusivity, max elapsed time, D^alpha, r."""

    nu: float
    tau: float
    alpha: tuple[int, int, int]
    r: float

    def __post_init__(self) -> None:
        if not self.nu > 0.0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not 1.0 <= self.r <= 2.0:
            raise ValueError(f"r must lie in [1, 2], got {self.r}")
        if len(self.alpha) != 3 or any(a < 0 for a in self.alpha):
            raise ValueError("alpha must be a 3-tuple of non-negative ints")

    @property
    def order(self) -> int:
        return int(sum(self.alpha))


def periodization_window(grid: Grid, nu: float) -> float:
    """Largest tau with 4 nu tau <= (L/8)^2."""
    return (grid.box_length / 8.0) ** 2 / (4.0 * nu)


# ---------------------------------------------------------------------------
# Gaussian bump ensembles


@dataclass(frozen=True)
class SeparableField:
    """A real vector field whose every component is a product of three 1-D
    functions, f_c(x) = prod_a g_{c,a}(x_a), held by the coefficients of its
    factors: coeffs (3 components, 3 axes, n) over the 1-D lattice Grid.k1,
    so f_c's coefficient at k is prod_a coeffs[c, a, k_a].  Each factor's
    coefficients are Hermitian (those at -k the conjugates of those at k,
    the Nyquist entry zero), so the samples are real."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        expected = (3, 3, self.grid.n_per_axis)
        if self.coeffs.shape != expected:
            raise ValueError(f"expected shape {expected}, got {self.coeffs.shape}")

    def samples(self) -> np.ndarray:
        """The factors' samples g_{c,a}(x_a), (3, 3, n): the unnormalized
        inverse DFT of each factor, whose imaginary part is rounding."""
        return np.fft.ifft(self.coeffs, axis=-1, norm="forward").real

    def lr_norm(self, r: float) -> float:
        """||f||_r by cell-volume-weighted quadrature, 1 <= r < inf:
        (h^3 sum_c prod_a sum_{x_a} |g_{c,a}(x_a)|^r)^{1/r}."""
        if not 1.0 <= r < np.inf:
            raise ValueError(f"r must be in [1, inf), got {r}")
        axis_sums = np.sum(np.abs(self.samples()) ** r, axis=-1)
        total = np.sum(np.prod(axis_sums, axis=1))
        return float((self.grid.cell_volume * total) ** (1.0 / r))


def gaussian_bump(
    grid: Grid, width: float, centers: np.ndarray, amplitude: float = 1.0
) -> SeparableField:
    """Periodized Gaussian bump of the given width in each component.

    Built spectrally from the exact coefficients of the periodization,
    (A (2 pi s^2)^{3/2} / L^3) e^{-s^2|k|^2/2} e^{-i k.c}, so sub-grid widths
    degrade gracefully into band-limited spikes.  They factor over the axes:
    component c's factor on axis a is e^{-s^2 k_a^2/2} e^{-i k_a c_a}, and the
    prefactor goes on the x factor.  Nyquist entries are zeroed to keep the
    field real.
    """
    k = grid.k1
    coeffs = np.exp(-0.5 * width**2 * k**2) * np.exp(-1j * k * centers[..., None])
    coeffs[..., grid.n_per_axis // 2] = 0.0
    coeffs[:, 0] *= amplitude * (2.0 * np.pi * width**2) ** 1.5 / grid.volume
    return SeparableField(grid, coeffs)


def default_bump_widths(grid: Grid) -> np.ndarray:
    """Geometric width ladder from a sub-grid spike to L/7."""
    lo = 0.15 * grid.spacing
    hi = grid.box_length / 7.0
    count = max(2, int(np.ceil(np.log(hi / lo) / np.log(np.sqrt(2.0)))) + 1)
    return lo * (hi / lo) ** (np.arange(count) / (count - 1))


def bump_ensemble(grid: Grid, widths=None) -> list[SeparableField]:
    """Deterministic Gaussian-bump ensemble spanning the width ladder."""
    if widths is None:
        widths = default_bump_widths(grid)
    ensemble = []
    length = grid.box_length
    for j, width in enumerate(widths):
        centers = length * (
            (0.31 + 0.41 * j + 0.29 * np.arange(9).reshape(3, 3)) % 1.0
        )
        ensemble.append(gaussian_bump(grid, width, centers))
    return ensemble


def default_ensemble(query: SemigroupQuery, grid: Grid) -> list[SeparableField]:
    """Ensemble matched to the Lebesgue exponent of the query.

    At r = 1 the extremal datum is a point mass, so a single near-spike bump
    traces the decay at every tau; mixing in wider bumps would let their flat
    low-tau segments (with lattice-inflated L1 norms) distort the envelope.
    For r > 1 the full width ladder is required: the bump of width
    ~ sqrt(nu tau) is the near-extremal datum at each tau.
    """
    widths = default_bump_widths(grid)
    if query.r <= 1.1:
        widths = widths[:1]
    return bump_ensemble(grid, widths)


# ---------------------------------------------------------------------------
# decay-slope fit


@dataclass(frozen=True)
class HeatDecayFit:
    """Result of the smoothing-decay regression."""

    slope: float
    prefactor: float          # e^{intercept} of the log-log fit
    expected_slope: float
    k_envelope: float         # max over the sweep of ratio * (nu tau)^{-expected}
    taus: np.ndarray = field(repr=False)
    envelope: np.ndarray = field(repr=False)


def default_tau_sweep(
    query: SemigroupQuery, grid: Grid, points: int = 12
) -> np.ndarray:
    """Geometric tau sweep tuned to where the envelope is a clean power law.

    Guards: spectral truncation of the spike member at the small-tau end,
    lattice discreteness and the periodization window at the large-tau end,
    and for r = 2, m = 0 the saturation width of the widest bump.
    """
    nu = query.nu
    k_min = 2.0 * np.pi / grid.box_length
    k_trunc = (grid.n_per_axis / 2.0 - 1.0) * k_min
    widths = default_bump_widths(grid)
    win = periodization_window(grid, nu)

    tau_lo = 7.0 / (nu * k_trunc**2)
    tau_hi = min(win, 0.15 / (nu * k_min**2), query.tau)
    if query.r > 1.75 and query.order == 0:
        tau_hi = min(win, widths[-1] ** 2 / (40.0 * nu), query.tau)
        tau_lo = tau_hi / 25.0
    elif query.r > 1.75 and query.order >= 1:
        tau_hi = min(
            tau_hi, query.order * widths[-1] ** 2 / (6.0 * nu)
        )
    if tau_hi <= tau_lo:
        raise ValueError(
            "empty tau sweep: box too small for the requested query"
        )
    return tau_lo * (tau_hi / tau_lo) ** (np.arange(points) / (points - 1))


def heat_l2_norms(
    f: SeparableField, nu: float, taus, alpha: tuple[int, int, int] = (0, 0, 0)
) -> np.ndarray:
    """||D^alpha e^{nu Lap tau} f||_2 for each tau, from the 1-D factors:
    sqrt(L^3 sum_c prod_a sum_{k_a} dk_a^{2 alpha_a} e^{-2 nu tau k_a^2}
    |g_{c,a}(k_a)|^2), a sub-grid bump's modes beyond the band included."""
    grid, taus = f.grid, np.asarray(taus, dtype=float)
    power = np.abs(f.coeffs) ** 2 * grid.dk1 ** (2 * np.array(alpha))[:, None]
    damp = np.exp(-2.0 * nu * np.multiply.outer(taus, grid.k1**2))  # (tau, k)
    axis_sums = np.einsum("tk,cak->tca", damp, power)
    return np.sqrt(grid.volume * np.sum(np.prod(axis_sums, axis=2), axis=1))


def fit_heat_decay(
    query: SemigroupQuery,
    ensemble: list[SeparableField],
    taus: np.ndarray | None = None,
) -> HeatDecayFit:
    """Fit the decay rate of max_f ||D^a e^{nu Lap tau} f||_2 / ||f||_r.

    The fitted slope should match decay_exponent(3, r, |alpha|) and the
    fitted prefactor is the empirical smoothing constant of this grid.
    """
    if not ensemble:
        raise ValueError("ensemble must not be empty")
    grid = ensemble[0].grid
    if taus is None:
        taus = default_tau_sweep(query, grid)
    taus = np.asarray(taus, dtype=float)
    if taus.size < 2 or np.any(taus <= 0.0):
        raise ValueError("need at least two positive sweep times")
    win = periodization_window(grid, query.nu)
    if taus.max() > win * (1.0 + 1e-12):
        raise ValueError(
            f"sweep exceeds the validity window 4 nu tau <= (L/8)^2 "
            f"(max tau {taus.max():.4g} > {win:.4g})"
        )

    envelope = np.max(
        [
            heat_l2_norms(f, query.nu, taus, query.alpha) / f.lr_norm(query.r)
            for f in ensemble
        ],
        axis=0,
    )

    expected = decay_exponent(3, query.r, query.order)
    log_nt = np.log(query.nu * taus)
    slope, intercept = np.polyfit(log_nt, np.log(envelope), 1)
    k_env = float(np.max(envelope * (query.nu * taus) ** (-expected)))
    return HeatDecayFit(
        slope=float(slope),
        prefactor=float(np.exp(intercept)),
        expected_slope=expected,
        k_envelope=k_env,
        taus=taus,
        envelope=envelope,
    )


def discrete_l1_smoothing_constant(grid: Grid, nu: float, taus) -> float:
    """Rigorous grid bound: ||e^{nu Lap tau} g||_2 <= K ||g||_1 (nu tau)^{-3/4}.

    From |g_hat(k)| <= ||g||_1 / L^3 and summing the heat multiplier over the
    lattice: K(tau) = (nu tau)^{3/4} (sum_k e^{-2 nu tau |k|^2} / L^3)^{1/2},
    the lattice sum (sum_{k1} e^{-2 nu tau k1^2})^3, Nyquist mode included;
    returns the max over the given tau values.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    k_sq, best = grid.k1**2, 0.0
    for tau in taus:
        lattice_sum = float(np.sum(np.exp(-2.0 * nu * tau * k_sq))) ** 3
        best = max(best, (nu * tau) ** 0.75 * np.sqrt(lattice_sum / grid.volume))
    return best


#: Continuum bound sup_k |k| e^{-nu tau |k|^2} = (2 e nu tau)^{-1/2}, valid on
#: the lattice as well: ||D e^{nu Lap tau} g||_2 <= K (nu tau)^{-1/2} ||g||_2.
L2_GRAD_SMOOTHING_CONSTANT = (2.0 * math.e) ** -0.5


# ---------------------------------------------------------------------------
# Duhamel reconstruction of the micro-rotation field


@dataclass(frozen=True)
class DuhamelReconstruction:
    """Relative reconstruction residuals per output time."""

    times: np.ndarray
    residuals: np.ndarray
    form: str


def _forcings(state: SimState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The w equation's forcings (u.grad)w, grad(div w) and curl u on the band."""
    g, u, w = state.grid, state.u.data, state.w.data
    return advect_hat(u, w, g), grad_div_hat(w, g), curl_hat(u, g)


def _forcing_hat(state: SimState, p: PhysicalParams) -> np.ndarray:
    """-(u.grad)w + chi curl u + grad(div w), as raw band coefficients.

    The stepper's explicit w term plus the grad-div part of its linear term.
    """
    advection, grad_div, curl = _forcings(state)
    return -advection + p.chi * curl + grad_div


def duhamel_reconstruct_w(
    trajectory, p: PhysicalParams, form: str = "w"
) -> DuhamelReconstruction:
    """Rebuild w(t) from w(t0) plus the propagated forcing integral.

    form="w" accumulates e^{-2 chi (t-s)} e^{gamma Lap (t-s)} F(s) directly;
    form="z" integrates the substituted variable z = e^{2 chi t} w with a pure
    heat propagator and rescales at the end.  Both are composite trapezoid in
    s with exact per-panel propagators, so the residual is O(h^2) in the
    sample spacing.
    """
    if form not in ("w", "z"):
        raise ValueError(f"form must be 'w' or 'z', got {form!r}")
    it = iter(trajectory)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("trajectory is empty") from None

    grid = first.grid
    gamma, chi = p.gamma, p.chi
    t_prev = first.t
    accum = np.zeros_like(first.w.data)  # states, and so all of this, are band
    f_prev = _forcing_hat(first, p)
    if form == "z":
        f_prev = f_prev * np.exp(2.0 * chi * first.t)
    head = first.w.data.copy()  # propagated initial data
    if form == "z":
        head = head * np.exp(2.0 * chi * first.t)
    t0 = first.t

    times, residuals = [], []
    for state in it:
        dt_s = state.t - t_prev
        if dt_s <= 0.0:
            raise ValueError("trajectory is not time-ordered")
        heat = np.exp(-gamma * dt_s * grid.band.k_sq)
        if form == "w":
            heat = heat * np.exp(-2.0 * chi * dt_s)
        f_cur = _forcing_hat(state, p)
        if form == "z":
            f_cur = f_cur * np.exp(2.0 * chi * state.t)
        head *= heat
        accum = heat * accum + (0.5 * dt_s) * (heat * f_prev + f_cur)
        recon = head + accum
        if form == "z":
            recon = recon * np.exp(-2.0 * chi * state.t)
        diff_sq = spectral_l2_sq(recon - state.w.data, grid)
        ref_sq = spectral_l2_sq(state.w.data, grid)
        times.append(state.t)
        residuals.append(np.sqrt(diff_sq / ref_sq) if ref_sq > 0 else 0.0)
        t_prev = state.t
        f_prev = f_cur

    return DuhamelReconstruction(
        times=np.array(times), residuals=np.array(residuals), form=form
    )


# ---------------------------------------------------------------------------
# Duhamel term ledger


@dataclass(frozen=True)
class DuhamelLedger:
    """L2 magnitudes of the four mild-solution pieces per output time.

    term_i:   propagated initial micro-rotation
    term_ii:  advection forcing integral
    term_iii: grad(div) forcing integral
    term_iv:  chi curl(u) forcing integral
    weighted: whether the sqrt(t) weight of the damped variant was applied
    """

    t0: float
    times: np.ndarray
    term_i: np.ndarray
    term_ii: np.ndarray
    term_iii: np.ndarray
    term_iv: np.ndarray
    weighted: bool
    gamma_quarter: float = math.gamma(0.25)
    sqrt_pi: float = math.sqrt(math.pi)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        for name in ("term_i", "term_ii", "term_iii", "term_iv"):
            if np.any(getattr(self, name) < 0.0):
                raise ValueError(f"{name} must be non-negative")


def duhamel_terms(
    trajectory, p: PhysicalParams, weighted: bool | None = None
) -> DuhamelLedger:
    """Evaluate the four mild-solution magnitudes along a trajectory.

    The forcing norms are collapsed onto integer |k|^2 shells once per
    sample; each output time then propagates every earlier node with one
    (nodes, shells) matrix of heat damping factors.
    """
    states = list(trajectory)
    if len(states) < 2:
        raise ValueError("need at least two trajectory samples")
    p_chi = p.chi
    if weighted is None:
        weighted = p_chi > 0.0
    grid = states[0].grid
    k_min_sq = (2.0 * np.pi / grid.box_length) ** 2

    svals = np.array([s.t for s in states])
    if np.any(np.diff(svals) <= 0.0):
        raise ValueError("trajectory is not time-ordered")
    t0 = svals[0]

    band = grid.band
    shell = np.rint(band.k_sq / k_min_sq).astype(np.int64).ravel()  # |k/k_min|^2

    def shells_of(data: np.ndarray) -> np.ndarray:
        # a kz > 0 entry counts for its mirror too
        weighted_sq = band.weight * np.sum(np.abs(data) ** 2, axis=0)
        return np.bincount(shell, weights=weighted_sq.ravel()) * grid.volume

    w0_shells = shells_of(states[0].w.data)
    # (sample, forcing, shell) for the advection, grad-div and curl forcings
    forcing_shells = np.array([[shells_of(f) for f in _forcings(s)] for s in states])
    q_idx = np.arange(len(w0_shells))

    rows = []
    for j in range(1, len(states)):
        t = svals[j]
        wgt = np.sqrt(t) if weighted else 1.0
        tau = t - svals[: j + 1]
        damp = np.exp(-2.0 * p.gamma * tau[:, None] * k_min_sq * q_idx)
        chi_damp = np.exp(-2.0 * p_chi * tau)
        term_i = wgt * chi_damp[0] * np.sqrt(np.dot(w0_shells, damp[0]))
        integrand = chi_damp[:, None] * np.sqrt(
            np.einsum("iq,ifq->if", damp, forcing_shells[: j + 1])
        )
        steps = np.diff(svals[: j + 1])[:, None]
        trapezoid = np.sum(steps * (integrand[1:] + integrand[:-1]) / 2.0, axis=0)
        rows.append((t, term_i, *(wgt * trapezoid)))
    times, t1, t2, t3, t4 = np.array(rows).T
    t4 = t4 * p_chi

    return DuhamelLedger(
        t0=t0,
        times=times,
        term_i=t1,
        term_ii=t2,
        term_iii=t3,
        term_iv=t4,
        weighted=weighted,
    )
