"""Differential and projection operators in Fourier space.

The linear operators act mode-wise on the 2/3-rule band (Grid.band), the
one spectral layout.  First derivatives multiply by i*k; composite operators
(Laplacian, grad(div)) are built from the same derivative symbols so that
operator identities hold exactly.

advect_hat is the one advection kernel, i div(v (x) f) on the band: the
stepper, the Duhamel forcing, pressure recovery and the verifier call it.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    BandScratch,
    RealVectorField,
    ScalarField,
    SpectralVectorField,
    band_coefficients,
    forward_band,
    inverse_band,
    to_spectral,
)
from .grid import Grid
from .norms import l2, l2_grad, l2_grad2, linf

# Rank-3 alternating symbol eps_{ijk}.
LEVI_CIVITA = np.zeros((3, 3, 3))
LEVI_CIVITA[0, 1, 2] = LEVI_CIVITA[1, 2, 0] = LEVI_CIVITA[2, 0, 1] = 1.0
LEVI_CIVITA[0, 2, 1] = LEVI_CIVITA[2, 1, 0] = LEVI_CIVITA[1, 0, 2] = -1.0
LEVI_CIVITA.setflags(write=False)

# Sup-norm interpolation constant ||u||_inf <= C ||u||_2^{1/4} ||D^2 u||_2^{3/4},
# calibrated as the max ratio over the seeded ensemble of calibration_ensemble()
# (1000 band-limited fields at n=32, L=2*pi); regression-tested by the lemma1
# verification suite.  Recalibrate with calibrate_c_infty() if the generator
# changes.
CALIBRATED_C_INFTY = 0.11261643628557787


def derivative(f: SpectralVectorField, axis: int) -> SpectralVectorField:
    """d/dx_axis applied to every component (axis 0 is x)."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    return SpectralVectorField(f.grid, 1j * f.grid.band.dk[axis] * f.data)


def divergence_hat(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral divergence i k . f_hat of band coefficients."""
    return 1j * grid.k_dot(data)


def divergence(f: SpectralVectorField) -> ScalarField:
    """div f as a physical scalar field."""
    return ScalarField(f.grid, inverse_band(divergence_hat(f.data, f.grid), f.grid))


def _i_k(scalar: np.ndarray, grid: Grid) -> np.ndarray:
    """The vector i k s of band scalar coefficients s."""
    out = np.empty((3,) + scalar.shape, dtype=np.complex128)
    for component, dk in enumerate(grid.band.dk):
        out[component] = 1j * dk * scalar
    return out


def gradient(p: ScalarField) -> SpectralVectorField:
    """Spectral gradient of a physical scalar field; ValueError if the field
    has content off the band."""
    return SpectralVectorField(p.grid, _i_k(band_coefficients(p.values, p.grid), p.grid))


def curl_hat(data: np.ndarray, grid: Grid) -> np.ndarray:
    """Spectral curl i k x f_hat of band coefficients."""
    kx, ky, kz = grid.band.dk
    out = np.empty_like(data)
    out[0] = 1j * (ky * data[2] - kz * data[1])
    out[1] = 1j * (kz * data[0] - kx * data[2])
    out[2] = 1j * (kx * data[1] - ky * data[0])
    return out


def curl(f: SpectralVectorField) -> SpectralVectorField:
    """(curl f)_i = sum_{jk} eps_{ijk} D_j f_k."""
    return SpectralVectorField(f.grid, curl_hat(f.data, f.grid))


def laplacian(f: SpectralVectorField) -> SpectralVectorField:
    """Componentwise Laplacian, symbol -|k|^2 (derivative wavenumbers)."""
    return SpectralVectorField(f.grid, -f.grid.band.k_sq * f.data)


def grad_div_hat(data: np.ndarray, grid: Grid) -> np.ndarray:
    """grad(div f) of band coefficients."""
    return _i_k(divergence_hat(data, grid), grid)


def grad_div(f: SpectralVectorField) -> SpectralVectorField:
    """grad(div f), symbol -k (k . f_hat)."""
    return SpectralVectorField(f.grid, grad_div_hat(f.data, f.grid))


def leray_hat(
    data: np.ndarray, grid: Grid, out: np.ndarray | None = None
) -> np.ndarray:
    """Project raw coefficients onto divergence-free fields; k=0 mode to 0.

    Uses the derivative wavenumbers, so the kernel is exactly the span of the
    implemented gradient operator.  Writes into out when given, which may be
    data itself.
    """
    factor = grid.k_dot(data)
    factor *= grid.band.inv_k_sq
    out = np.empty_like(data) if out is None else out
    for component, dk in enumerate(grid.band.dk):
        np.subtract(data[component], dk * factor, out=out[component])
    out[:, 0, 0, 0] = 0.0
    return out


def leray_project(f: SpectralVectorField) -> SpectralVectorField:
    """Helmholtz-Leray projection f_hat -> f_hat - k (k.f_hat)/|k|^2."""
    return SpectralVectorField(f.grid, leray_hat(f.data, f.grid))


# the six products v_i v_j with i <= j and their (row, axis) terms in
# div(v (x) v): dk_j v_i v_j in row i and dk_i v_i v_j in row j.  In this order
# every row receives its x, y, z terms in turn, as Grid.k_dot adds them
_VV_PAIRS = tuple(zip(*np.triu_indices(3)))
_VV_TERMS = tuple({(i, j), (j, i)} for i, j in _VV_PAIRS)


class AdvectionWorkspace:
    """The buffers advect_hat reuses: the physical v samples, one physical f
    component, the product being transformed, the band transforms' scratch,
    their band output and one band component for a term being added."""

    def __init__(self, grid: Grid):
        band = grid.band.shape
        self.scratch = BandScratch(grid)
        self.v_phys = np.empty((3,) + grid.shape)
        self.f_phys = np.empty(grid.shape)
        self.product = np.empty(grid.shape)
        self.hat = np.empty(band, dtype=np.complex128)
        self.term = np.empty(band, dtype=np.complex128)


def _flux_divergence(products, terms, div, grid: Grid, work: AdvectionWorkspace):
    """div[row] = sum over the (row, axis) terms of the products (a, b) of
    dk_axis F(a * b), F = forward_band: each transformed product is added into
    its rows at once, each row's terms in x, y, z order (x sets the row)."""
    dks = grid.band.dk
    for (a, b), rows in zip(products, terms):
        hat = forward_band(np.multiply(a, b, out=work.product), grid, work.hat, work.scratch)
        for row, axis in rows:
            if axis == 0:
                np.multiply(dks[0], hat, out=div[row])
            else:
                div[row] += np.multiply(dks[axis], hat, out=work.term)


def advect_hat(
    v_data: np.ndarray,
    f_data: np.ndarray,
    grid: Grid,
    work: AdvectionWorkspace | None = None,
    v_phys: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """i div(v (x) f) of band v, f on the band, mean mode 0: (v . grad) f in
    flux form for solenoidal v.  Band products reach twice the cutoff, whose
    aliases lie off the band, so the pseudo-spectral products are exact there.

    f_data is v_data takes the six products v_i v_j, other f the nine v_j f_i.
    work (a fresh one if None) holds the buffers; v_phys optionally carries
    the physical v samples; out (not v_data or f_data) receives the result.
    """
    work = work or AdvectionWorkspace(grid)
    if v_phys is None:
        v_phys = inverse_band(v_data, grid, work.v_phys, work.scratch)
    div = np.empty_like(f_data) if out is None else out
    if f_data is v_data:
        products = [(v_phys[i], v_phys[j]) for i, j in _VV_PAIRS]
        _flux_divergence(products, _VV_TERMS, div, grid, work)
    else:
        for i in range(3):  # column i of the flux v (x) f is v f_i
            f_i = inverse_band(f_data[i], grid, work.f_phys, work.scratch)
            products = [(v_j, f_i) for v_j in v_phys]
            _flux_divergence(products, [{(i, j)} for j in range(3)], div, grid, work)
    np.multiply(1j, div, out=div)
    div[:, 0, 0, 0] = 0.0
    return div


def advect(v: SpectralVectorField, f: SpectralVectorField) -> SpectralVectorField:
    """(v . grad) f, by advect_hat."""
    return SpectralVectorField(v.grid, advect_hat(v.data, f.data, v.grid))


def epsilon_cross_integral(w: SpectralVectorField, u: SpectralVectorField) -> float:
    """sum_{ijkl} eps_{ijk} int D_l w_i D_l D_j u_k dx, evaluated spectrally.

    Parseval turns each term into L^3 sum_k k_l^2 k_j Re[i conj(w_i) u_k];
    the eps contraction over (j, k) is the spectral curl, so the integral is
    L^3 sum_k |k|^2 Re[conj(w_hat) . (i k x u_hat)].
    """
    g = w.grid
    # elementwise, not np.vdot: a threaded BLAS dot can stall for milliseconds
    flow = np.conj(g.band.k_sq * w.data) * curl_hat(u.data, g)
    return float(g.volume * g.mode_sum(flow.real))


def _require_nonzero_mean_free(u: RealVectorField, u_hat: np.ndarray) -> None:
    scale = np.abs(u_hat).max()
    if scale == 0.0:
        raise ValueError("ratio undefined for the zero field")
    if np.abs(u_hat[:, 0, 0, 0]).max() > 1e-12 * scale:
        raise ValueError("field must be mean-zero")


def gn_ratio_infty(u: RealVectorField) -> float:
    """||u||_inf / (||u||_2^{1/4} ||D^2 u||_2^{3/4}) for a mean-zero field."""
    spec = to_spectral(u)
    _require_nonzero_mean_free(u, spec.data)
    return linf(u) / (l2(spec) ** 0.25 * l2_grad2(spec) ** 0.75)


def gn_ratio_grad(u: RealVectorField) -> float:
    """||Du||_2 / (||u||_2^{1/2} ||D^2 u||_2^{1/2}); Cauchy-Schwarz gives <= 1."""
    spec = to_spectral(u)
    _require_nonzero_mean_free(u, spec.data)
    return l2_grad(spec) / np.sqrt(l2(spec) * l2_grad2(spec))


def single_mode(
    grid: Grid, component: int, axis: int, index: int = 1, amplitude: float = 1.0
) -> SpectralVectorField:
    """amplitude * sin(index * (2 pi / L) * x_axis) in one component, for
    0 < index <= K (the band's cutoff).  Along z the band holds only the
    +index coefficient; -index is its mirror."""
    k = grid.band.cutoff
    if not 0 < index <= k:
        raise ValueError(f"mode index {index} outside the 2/3 band (1..{k})")
    data = np.zeros((3,) + grid.band.shape, dtype=np.complex128)
    pos = [0, 0, 0]
    pos[axis] = index
    data[(component,) + tuple(pos)] = -0.5j * amplitude
    if axis != 2:
        neg = [0, 0, 0]
        neg[axis] = 2 * k + 1 - index
        data[(component,) + tuple(neg)] = 0.5j * amplitude
    return SpectralVectorField(grid, data)


def random_band_limited(
    grid: Grid,
    rng: np.random.Generator,
    solenoidal: bool = False,
    envelope: np.ndarray | None = None,
) -> SpectralVectorField:
    """Mean-zero random field on the 2/3 band: forward_band of white noise.

    envelope, if given (on the band), multiplies the flat white-noise
    spectrum (any real radial profile keeps the Hermitian symmetry of the
    noise).
    """
    data = np.empty((3,) + grid.band.shape, dtype=np.complex128)
    scratch, noise = BandScratch(grid), np.empty(grid.shape)
    for component in data:
        forward_band(rng.standard_normal(out=noise), grid, component, scratch)
    if envelope is not None:
        data *= envelope
    data[:, 0, 0, 0] = 0.0
    if solenoidal:
        data = leray_hat(data, grid)
    return SpectralVectorField(grid, data)


def calibration_ensemble(count: int = 1000, n: int = 32, seed: int = 20240917):
    """Yield the seeded band-limited fields used to calibrate C_infty.

    Each draw carries a Gaussian radial shell exp(-(|k|-c)^2 / (2s^2)) with a
    random center and width, so the ensemble spans broadband noise through
    near-single-shell fields (the near-extremal cases for the sup-norm ratio).
    """
    from .grid import make_grid

    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)
    k_abs = np.sqrt(grid.band.k_sq)
    k_cut = (n / 3.0) * (2.0 * np.pi / grid.box_length)
    for _ in range(count):
        center = rng.uniform(1.0, 0.8 * k_cut)
        width = center * 10.0 ** rng.uniform(-1.5, 0.3)
        envelope = np.exp(-((k_abs - center) ** 2) / (2.0 * width**2))
        spec = random_band_limited(grid, rng, envelope=envelope)
        yield RealVectorField(grid, inverse_band(spec.data, grid))


def calibrate_c_infty(count: int = 1000, n: int = 32, seed: int = 20240917) -> float:
    """Max sup-norm interpolation ratio over the calibration ensemble."""
    return max(gn_ratio_infty(f) for f in calibration_ensemble(count, n, seed))
