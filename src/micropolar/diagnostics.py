"""Norm records, the energy ledger, monotonicity detection, and decay fits.

RunAccumulator is the pair-energy ledger: it samples the dissipation
integrands at every step, integrates them with the end-corrected trapezoid
rule from quadrature.py, and assembles a DiagnosticsRecord carrying every
tracked norm at output times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import BandScratch, PhysicalParams, SimState, inverse_band
from .norms import l2, l2_div, l2_grad, l2_grad2
from .operators import CALIBRATED_C_INFTY, epsilon_cross_integral
from .quadrature import RunningIntegral


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of tracked norms and ledger terms at time t.

    The pair norms satisfy l2_pair^2 = l2_u^2 + l2_w^2 by construction, and
    the ledger sides read
        lhs = ||(u,w)(t)||^2 + 2 mu int ||Du||^2 + 2 gamma int ||Dw||^2
              + 2 int ||div w||^2 + 2 chi int ||w||^2
        rhs = ||(u,w)(t0)||^2
    with all integrals taken from the accumulator's first sample.
    """

    t: float
    l2_u: float
    l2_w: float
    l2_pair: float
    l2_du: float
    l2_dw: float
    l2_dpair: float
    l2_d2pair: float
    l2_divw: float
    linf_pair: float
    cross_term: float
    energy_ledger_lhs: float
    energy_ledger_rhs: float
    int_du_sq: float = 0.0
    int_dw_sq: float = 0.0
    int_divw_sq: float = 0.0
    int_w_sq: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "l2_u", "l2_w", "l2_pair", "l2_du", "l2_dw", "l2_dpair",
            "l2_d2pair", "l2_divw", "linf_pair",
        ):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name} must be a finite non-negative real")
        if abs(self.l2_pair**2 - self.l2_u**2 - self.l2_w**2) > 1e-12 * max(
            self.l2_pair**2, 1e-300
        ):
            raise ValueError("pair norm does not compose from l2_u, l2_w")


# ---------------------------------------------------------------------------
# t0 detection and decay fits


@dataclass(frozen=True)
class DecayFit:
    """Detected transient onset and finite-horizon decay trends."""

    t0_detected: float | None
    window: tuple[float, float] | None
    monotone_after_t0: bool
    slope_pair: float | None = None
    w_scaled_trend: np.ndarray | None = None
    pair_strictly_decreasing: bool | None = None
    t_weighted_grad_sq: np.ndarray | None = None
    grad_argmax_in_first_half: bool | None = None
    w_exp_rate: float | None = None

    @property
    def found(self) -> bool:
        return self.t0_detected is not None


MONOTONE_RTOL = 1e-9


def _check_ordered(series) -> list[DiagnosticsRecord]:
    series = list(series)
    if not series:
        raise ValueError("series is empty")
    times = [rec.t for rec in series]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("series is not time-ordered")
    return series


def _non_increasing(dpair: np.ndarray) -> bool:
    """No relative increase of ||(Du,Dw)|| beyond MONOTONE_RTOL between
    consecutive samples."""
    return bool(np.all(dpair[1:] <= dpair[:-1] * (1.0 + MONOTONE_RTOL)))


def detect_t0(series, p: PhysicalParams) -> DecayFit:
    """Earliest time where the gradient-smallness condition holds.

    The condition is c^2 ||(u,w)(0)|| ||(Du,Dw)(t)|| < min(mu, gamma)^2 with
    the calibrated sup-norm constant CALIBRATED_C_INFTY standing in for c.
    Returns a DecayFit with t0_detected None when no sample qualifies (not an
    error), and scans ||(Du,Dw)|| for relative increases beyond 1e-9 after
    the detected onset.
    """
    series = _check_ordered(series)
    initial_pair = series[0].l2_pair
    threshold = min(p.mu, p.gamma) ** 2
    for i, rec in enumerate(series):
        if CALIBRATED_C_INFTY**2 * initial_pair * rec.l2_dpair < threshold:
            dpair = np.array([later.l2_dpair for later in series[i:]])
            return DecayFit(
                t0_detected=rec.t,
                window=(rec.t, series[-1].t),
                monotone_after_t0=_non_increasing(dpair),
            )
    return DecayFit(t0_detected=None, window=None, monotone_after_t0=False)


def fit_decay(series, fit_window: tuple[float, float]) -> DecayFit:
    """Finite-horizon decay trends over the records inside fit_window."""
    series = _check_ordered(series)
    t_lo, t_hi = fit_window
    window = [rec for rec in series if t_lo - 1e-12 <= rec.t <= t_hi + 1e-12]
    if not window:
        raise ValueError(f"no records inside window [{t_lo}, {t_hi}]")

    times = np.array([rec.t for rec in window])
    pair = np.array([rec.l2_pair for rec in window])
    dpair = np.array([rec.l2_dpair for rec in window])
    l2_w = np.array([rec.l2_w for rec in window])

    strictly_decreasing = bool(np.all(np.diff(pair) < 0.0))

    positive = (times > 0.0) & (pair > 0.0)
    slope_pair = None
    if positive.sum() >= 2:
        slope_pair = float(
            np.polyfit(np.log(times[positive]), np.log(pair[positive]), 1)[0]
        )

    t_grad_sq = times * dpair**2
    half = 0.5 * (t_lo + t_hi)
    argmax_first_half = bool(times[int(np.argmax(t_grad_sq))] <= half)

    w_exp_rate = None
    if np.all(l2_w > 0.0) and len(times) >= 2:
        w_exp_rate = float(-np.polyfit(times, np.log(l2_w), 1)[0])

    return DecayFit(
        t0_detected=t_lo,
        window=(t_lo, t_hi),
        monotone_after_t0=_non_increasing(dpair),
        slope_pair=slope_pair,
        w_scaled_trend=np.sqrt(times) * l2_w,
        pair_strictly_decreasing=strictly_decreasing,
        t_weighted_grad_sq=t_grad_sq,
        grad_argmax_in_first_half=argmax_first_half,
        w_exp_rate=w_exp_rate,
    )


# ---------------------------------------------------------------------------
# per-step accumulation for the run driver


def _sup_norms(fields, grid) -> list[float]:
    """max over components and points of |f| for each band field, one
    component at a time through one sample buffer and one scratch."""
    samples, scratch = np.empty(grid.shape), BandScratch(grid)
    sups = []
    for data in fields:
        sup = 0.0
        for component in data:
            x = inverse_band(component, grid, samples, scratch)
            sup = max(sup, float(x.max()), float(-x.min()))
        sups.append(sup)
    return sups


class RunAccumulator:
    """Per-step ledger accumulation with end-corrected trapezoid integrals.

    push() samples the four dissipation integrands, cheap spectral sums, at
    every step of spacing dt; record() assembles a full record (with the
    transforms behind the sup norm and the cross term) at output times only,
    for the state pushed last, reusing the norms push() computed for it.
    """

    def __init__(self, p: PhysicalParams, dt: float):
        self.params = p
        self._du = RunningIntegral(dt)
        self._dw = RunningIntegral(dt)
        self._divw = RunningIntegral(dt)
        self._w = RunningIntegral(dt)
        self.initial_pair_sq: float | None = None
        self._state: SimState | None = None
        self._norms: tuple[float, float, float, float] | None = None

    def push(self, state: SimState) -> None:
        if self._state is not None and state.t <= self._state.t:
            raise ValueError(
                f"non-monotone time stamps: {state.t} after {self._state.t}"
            )
        u, w = state.u, state.w
        l2_w, du, dw, divw = l2(w), l2_grad(u), l2_grad(w), l2_div(w)
        self._du.push(du**2)
        self._dw.push(dw**2)
        self._divw.push(divw**2)
        self._w.push(l2_w**2)
        if self.initial_pair_sq is None:
            self.initial_pair_sq = l2(u) ** 2 + l2_w**2
        self._state, self._norms = state, (l2_w, du, dw, divw)

    def record(self, state: SimState) -> DiagnosticsRecord:
        if state is not self._state:
            raise ValueError("record() takes the state pushed last")
        p = self.params
        u, w, g = state.u, state.w, state.grid
        l2_u = l2(u)
        l2_w, l2_du, l2_dw, l2_divw = self._norms
        d2u, d2w = l2_grad2(u), l2_grad2(w)
        linf_u, linf_w = _sup_norms((u.data, w.data), g)
        l2_pair = float(np.hypot(l2_u, l2_w))
        int_du_sq, int_dw_sq = self._du.value, self._dw.value
        int_divw_sq, int_w_sq = self._divw.value, self._w.value
        lhs = (
            l2_pair**2
            + 2.0 * p.mu * int_du_sq
            + 2.0 * p.gamma * int_dw_sq
            + 2.0 * int_divw_sq
            + 2.0 * p.chi * int_w_sq
        )
        return DiagnosticsRecord(
            t=state.t,
            l2_u=l2_u,
            l2_w=l2_w,
            l2_pair=l2_pair,
            l2_du=l2_du,
            l2_dw=l2_dw,
            l2_dpair=float(np.hypot(l2_du, l2_dw)),
            l2_d2pair=float(np.hypot(d2u, d2w)),
            l2_divw=l2_divw,
            linf_pair=float(np.hypot(linf_u, linf_w)),
            cross_term=4.0 * p.chi * epsilon_cross_integral(w, u),
            energy_ledger_lhs=lhs,
            energy_ledger_rhs=self.initial_pair_sq,
            int_du_sq=int_du_sq,
            int_dw_sq=int_dw_sq,
            int_divw_sq=int_divw_sq,
            int_w_sq=int_w_sq,
        )
