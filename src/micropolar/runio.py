"""Run orchestration: diagnostics CSV, checkpoints, reports, directory lock.

CSV schema (fixed column order, full double precision via repr, newline-
terminated rows):

    t,l2_u,l2_w,l2_pair,l2_Du,l2_Dw,l2_Dpair,l2_D2pair,l2_divw,linf_pair,
    cross_term,ledger_lhs,ledger_rhs,t_sqrt_l2_w
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .checkpoint import write_checkpoint
from .config import ConfigError, RunConfig
from .diagnostics import DecayFit, DiagnosticsRecord, RunAccumulator, detect_t0, fit_decay
from .dynamics import make_initial, evolve
from .fields import SimState
from .operators import CALIBRATED_C_INFTY

CSV_COLUMNS = (
    "t", "l2_u", "l2_w", "l2_pair", "l2_Du", "l2_Dw", "l2_Dpair",
    "l2_D2pair", "l2_divw", "linf_pair", "cross_term", "ledger_lhs",
    "ledger_rhs", "t_sqrt_l2_w",
)

CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


class OutputDirBusy(RuntimeError):
    """Another run owns the output directory (lock file present)."""


def format_csv_row(rec: DiagnosticsRecord) -> str:
    values = (
        rec.t, rec.l2_u, rec.l2_w, rec.l2_pair, rec.l2_du, rec.l2_dw,
        rec.l2_dpair, rec.l2_d2pair, rec.l2_divw, rec.linf_pair,
        rec.cross_term, rec.energy_ledger_lhs, rec.energy_ledger_rhs,
        math.sqrt(rec.t) * rec.l2_w,
    )
    return ",".join(repr(float(v)) for v in values) + "\n"


class DirectoryLock:
    """One writer per output directory, enforced by a lock file.

    The lock file holds the owner's pid.  A lock whose pid no longer exists
    is stale: it is taken over with one line on stderr.  A live pid, a pid
    this process may not signal, or an unreadable pid keeps the directory
    busy.
    """

    def __init__(self, directory: Path):
        self.path = Path(directory) / ".micropolar.lock"

    def _create(self) -> bool:
        try:
            with self.path.open("x") as lock:
                lock.write(f"{os.getpid()}\n")
        except FileExistsError:
            return False
        return True

    def __enter__(self) -> "DirectoryLock":
        if self._create():
            return self
        try:
            owner = self.path.read_text().strip() or "unknown"
        except OSError:
            owner = "unknown"
        if _pid_is_gone(owner):
            print(
                f"micropolar: taking over stale lock {self.path} "
                f"(pid {owner} no longer exists)",
                file=sys.stderr,
            )
            self.path.unlink(missing_ok=True)
            if self._create():
                return self
        raise OutputDirBusy(
            f"output directory {self.path.parent} is locked by another "
            f"run (pid {owner}; remove {self.path.name} if that run is gone)"
        )

    def __exit__(self, *exc) -> None:
        self.path.unlink(missing_ok=True)


def _pid_is_gone(owner: str) -> bool:
    """True only if owner is a positive pid that no process has; signal 0
    checks for the process without signalling it."""
    try:
        pid = int(owner)
    except ValueError:
        return False
    if pid <= 0:  # 0 and negative pids name process groups
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # e.g. PermissionError: it exists
        pass
    return False


@dataclass
class RunResult:
    records: list[DiagnosticsRecord]
    fit: DecayFit | None
    final_state: SimState
    csv_path: Path
    report_path: Path | None
    checkpoint_path: Path


def write_report(
    path: Path, config: RunConfig, records: list[DiagnosticsRecord], fit: DecayFit
) -> None:
    last = records[-1]
    slack = max(
        (r.energy_ledger_lhs - r.energy_ledger_rhs) / r.energy_ledger_rhs
        if r.energy_ledger_rhs > 0.0
        else 0.0
        for r in records
    )
    lines = [
        "micropolar run report",
        f"grid: n={config.grid.n_per_axis} L={config.grid.box_length!r}",
        f"params: mu={config.params.mu!r} gamma={config.params.gamma!r} "
        f"chi={config.params.chi!r}",
        f"ic: kind={config.ic.kind} peak={config.ic.peak_wavenumber!r} "
        f"amplitude={config.ic.amplitude!r} seed={config.ic.seed}",
        f"stepper: dt={config.stepper.dt!r} t_end={config.stepper.t_end!r}",
        f"records: {len(records)} (t = {records[0].t!r} .. {last.t!r})",
        "",
        f"energy ledger max relative slack: {slack!r}",
        f"sup-norm interpolation constant used: {CALIBRATED_C_INFTY!r}",
        f"t0 detected: {fit.t0_detected!r}",
        f"window: {fit.window!r}",
        f"gradient norm non-increasing after t0: {fit.monotone_after_t0}",
        f"pair norm strictly decreasing: {fit.pair_strictly_decreasing}",
        f"pair norm log-log slope: {fit.slope_pair!r}",
        f"t*||(Du,Dw)||^2 argmax in first half of window: "
        f"{fit.grad_argmax_in_first_half}",
        f"final sqrt(t)*||w||: "
        f"{(math.sqrt(last.t) * last.l2_w)!r}",
        f"fitted exponential rate of ||w||: {fit.w_exp_rate!r}",
        "",
    ]
    path.write_text("\n".join(lines))


def execute_run(config: RunConfig, initial: SimState | None = None) -> RunResult:
    """Run a configured simulation to t_end, writing all outputs.

    CflError / SimulationDiverged propagate to the caller after the abort
    diagnostics and the last good checkpoint are written; ConfigError is
    raised when the output directory cannot be created.  The initial fields
    and the stepper's workspace are allocated before anything is written, so
    a MemoryError there leaves no output behind.
    """
    p = config.params
    state = initial if initial is not None else make_initial(config.ic, config.grid)
    steps = evolve(state, p, config.stepper)
    out_dir = config.output.directory
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"cannot create output directory {out_dir} ({exc.strerror})",
            key="output.dir",
        ) from None
    csv_path = out_dir / "diagnostics.csv"
    checkpoint_path = out_dir / "checkpoint.bin"
    report_path = out_dir / "report.txt"

    with DirectoryLock(out_dir):
        acc = RunAccumulator(p, dt=config.stepper.dt)
        acc.push(state)
        records = [acc.record(state)]
        cadence = config.output.cadence
        ckpt_every = config.output.checkpoint_every
        last_good, last_written = state, False
        with csv_path.open("w", newline="") as csv_file:
            csv_file.write(CSV_HEADER)
            csv_file.write(format_csv_row(records[0]))
            try:
                for j, state, _ in steps:
                    acc.push(state)
                    last_good = state
                    if j % cadence == 0:
                        rec = acc.record(state)
                        records.append(rec)
                        csv_file.write(format_csv_row(rec))
                    last_written = bool(ckpt_every) and j % ckpt_every == 0
                    if last_written:
                        write_checkpoint(state, p, checkpoint_path)
            except Exception:
                write_checkpoint(last_good, p, checkpoint_path)
                (out_dir / "abort.txt").write_text(
                    f"aborted at t={last_good.t!r} after "
                    f"{len(records)} records\n"
                )
                raise

        if not last_written:  # else the last step wrote it
            write_checkpoint(last_good, p, checkpoint_path)
        detection = detect_t0(records, p)
        window = detection.window or (records[0].t, records[-1].t)
        fit = fit_decay(records, window)
        if detection.t0_detected is None:
            fit = replace(fit, t0_detected=None)
        write_report(report_path, config, records, fit)

    return RunResult(
        records=records,
        fit=fit,
        final_state=last_good,
        csv_path=csv_path,
        report_path=report_path,
        checkpoint_path=checkpoint_path,
    )
