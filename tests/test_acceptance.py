"""Acceptance gate: the seven criteria at their stated tolerances.

Each test prints one PASS/FAIL line for its criterion (run with -s to see
them stream).  The bundled desk-scale configs (n=32, L=16*pi,
chi in {0, 0.1, 0.5}) are run once per session and shared.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from micropolar.checkpoint import read_checkpoint, write_checkpoint
from micropolar.cli import main
from micropolar.config import parse_config
from micropolar.diagnostics import detect_t0, fit_decay
from micropolar.dynamics import make_initial
from micropolar.runio import execute_run
from micropolar.verify import (
    balance_residuals,
    frozen_u_series,
    suite_duhamel,
    suite_lemma2,
    suite_ops,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CHI_NAMES = {0.0: "chi00", 0.1: "chi01", 0.5: "chi05"}


def _criterion(name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  {name}{suffix}")
    assert passed, f"{name}{suffix}"


def _load_config(chi: float, out_dir: Path):
    config = parse_config(CONFIG_DIR / f"{CHI_NAMES[chi]}.cfg")
    output = dataclasses.replace(config.output, directory=out_dir)
    return dataclasses.replace(config, output=output)


@pytest.fixture(scope="session")
def bundled(tmp_path_factory):
    """Run the three bundled configs once; reused across criteria."""
    root = tmp_path_factory.mktemp("bundled")
    results = {}
    for chi in (0.0, 0.1, 0.5):
        config = _load_config(chi, root / CHI_NAMES[chi])
        results[chi] = (config, execute_run(config))
    return results


def test_criterion_1_operator_identities():
    checks = suite_ops()
    failed = [c.name for c in checks if not c.passed]
    worst = max(c.measured / c.tolerance for c in checks)
    _criterion(
        "criterion 1: operator identities and gradient interpolation bound",
        not failed,
        f"worst measured/tolerance = {worst:.2e}; failed: {failed or 'none'}",
    )


def test_criterion_2_energy_inequality(bundled):
    worst_slack = -np.inf
    for chi, (config, result) in bundled.items():
        for rec in result.records[1:]:
            slack = (
                rec.energy_ledger_lhs - rec.energy_ledger_rhs
            ) / rec.energy_ledger_rhs
            worst_slack = max(worst_slack, slack)
    ineq_ok = worst_slack <= 1e-8

    # balance residual convergence on the bundled chi=0.1 setup
    config, _ = bundled[0.1]
    state0 = make_initial(config.ic, config.grid)
    residuals = balance_residuals(
        state0, config.params, dt=config.stepper.dt, t_end=1.2
    )
    ratio = residuals[0] / residuals[1]
    balance_ok = (
        residuals[0] <= 1e-8 and residuals[2] <= 1e-10 and 12.0 <= ratio <= 20.0
    )
    _criterion(
        "criterion 2: energy inequality and balance residual",
        ineq_ok and balance_ok,
        f"max slack={worst_slack:.2e}; residuals dt,dt/2,dt/4="
        f"{residuals[0]:.2e},{residuals[1]:.2e},{residuals[2]:.2e}; "
        f"halving ratio={ratio:.1f}",
    )


def test_criterion_3_smoothing_decay_slopes():
    checks = suite_lemma2()
    failed = [c.name for c in checks if not c.passed]
    slopes = "; ".join(c.note for c in checks if c.note)
    _criterion(
        "criterion 3: heat-kernel smoothing slopes and Gaussian closed form",
        not failed,
        f"failed: {failed or 'none'}",
    )


def test_criterion_4_duhamel_reconstruction():
    checks = suite_duhamel()
    failed = [c.name for c in checks if not c.passed]
    _criterion(
        "criterion 4: Duhamel reconstruction and term bounds",
        not failed,
        f"failed: {failed or 'none'}",
    )


def test_criterion_5_gradient_monotonicity(bundled):
    details = []
    ok = True
    for chi, (config, result) in bundled.items():
        det = detect_t0(result.records, config.params)
        if not det.found:
            ok = False
            details.append(f"chi={chi:g}: no t0")
            continue
        fit = fit_decay(result.records, det.window)
        run_ok = det.monotone_after_t0 and fit.grad_argmax_in_first_half
        ok = ok and run_ok
        details.append(
            f"chi={chi:g}: t0={det.t0_detected:g} monotone={det.monotone_after_t0} "
            f"argmax_first_half={fit.grad_argmax_in_first_half}"
        )
    _criterion(
        "criterion 5: gradient-norm monotonicity after detected t0",
        ok,
        "; ".join(details),
    )


def test_criterion_6_decay_surrogates(bundled):
    ok = True
    details = []
    for chi, (config, result) in bundled.items():
        pair = [rec.l2_pair for rec in result.records]
        decreasing = all(b < a for a, b in zip(pair, pair[1:]))
        ok = ok and decreasing
        if not decreasing:
            details.append(f"chi={chi:g}: pair norm not strictly decreasing")

    last0 = bundled[0.0][1].records[-1]
    last5 = bundled[0.5][1].records[-1]
    scaled0 = math.sqrt(last0.t) * last0.l2_w
    scaled5 = math.sqrt(last5.t) * last5.l2_w
    separation = scaled0 / scaled5
    ok = ok and separation >= 10.0
    details.append(f"sqrt(t)||w|| separation = {separation:.1f}x (need >= 10)")

    # frozen-u linear test at the bundled scale
    config, _ = bundled[0.5]
    chi = config.params.chi
    w0 = make_initial(config.ic, config.grid).w
    series = frozen_u_series(w0, config.params, dt=0.05, t_end=2.0)
    fit = fit_decay(series, (0.0, 2.0))
    rate_ok = fit.w_exp_rate >= 2.0 * chi * (1.0 - 1e-3)
    ok = ok and rate_ok
    details.append(f"frozen-u rate {fit.w_exp_rate:.4f} vs 2chi={2 * chi:g}")

    _criterion("criterion 6: decay surrogates", ok, "; ".join(details))


def test_criterion_7_determinism_and_io(bundled, tmp_path):
    config, result = bundled[0.1]
    rerun_config = dataclasses.replace(
        config,
        output=dataclasses.replace(config.output, directory=tmp_path / "rerun"),
    )
    rerun = execute_run(rerun_config)
    csv_identical = (
        result.csv_path.read_bytes() == rerun.csv_path.read_bytes()
    )

    state, params = read_checkpoint(result.checkpoint_path)
    copy_path = tmp_path / "copy.bin"
    write_checkpoint(state, params, copy_path)
    ckpt_ok = copy_path.read_bytes() == result.checkpoint_path.read_bytes()

    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("grid.n = 8\nparams.nu = 1.0\n")
    code_config = main(["run", str(bad_cfg)])
    code_suite = main(["verify", "no_such_suite"])
    abort_cfg = tmp_path / "abort.cfg"
    abort_cfg.write_text(
        f"""
grid.n = 8
grid.L = 12.566370614359172
params.mu = 0.4
params.gamma = 0.3
params.chi = 0.0
ic.kind = random_solenoidal
ic.peak = 1.0
ic.amplitude = 50000.0
ic.seed = 1
stepper.dt = 0.05
stepper.t_end = 1.0
output.cadence = 1
output.dir = {tmp_path / "abort_out"}
"""
    )
    code_abort = main(["run", str(abort_cfg)])
    codes_ok = code_config == 2 and code_suite == 2 and code_abort == 3

    _criterion(
        "criterion 7: determinism, checkpoint round trip, CLI exit codes",
        csv_identical and ckpt_ok and codes_ok,
        f"csv_identical={csv_identical} checkpoint_roundtrip={ckpt_ok} "
        f"exit codes (config, suite, abort) = "
        f"({code_config}, {code_suite}, {code_abort})",
    )
