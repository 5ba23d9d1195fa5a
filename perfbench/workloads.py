"""The benchmark's workloads: what one operation runs and how it is checked.

Every operation is a call into the package's public API on inputs the
benchmark builds; outputs go to temporary directories under the work
directory and are checked against the package's own bounds and against
reference rows recorded from the seed commit (`reference.json`).
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

LEDGER_SLACK_MAX = 1e-8  # the `energy` suite's bound
# Final-row tolerance. A rewrite that moves each explicit-term call by about
# 5e-16 relative (the flux-form/rfft core) stays below 1e-13 even if every
# one of the 200 calls of a 50-step window erred the same way; a bias of
# 1e-15 on the whole state every step moved a 100-step desk-n32 row by
# 1e-13. A 1e-6 relative error in the velocity's advection product moves
# `linf_pair` by 4e-11 on desk-n32 (caught) and by 6e-12 on the 4-step
# large-n64 window (not caught there).
CSV_RTOL = 1e-11
CSV_ATOL = 1e-15
IC_SEEDS = 8  # inputs use ic.seed = 42 + (seed mod IC_SEEDS)

VERIFY_SUITES = ("ops", "lemma1", "lemma2")


@dataclass(frozen=True)
class Check:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.measured <= self.tolerance)

    def line(self) -> str:
        return f"FAIL  {self.name}: measured {self.measured:.3e}, tolerance {self.tolerance:.3e}"


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str) -> None:
        self.failed += 1
        self.notes.append(note)


def derive_config(text: str, overrides: dict[str, object]) -> str:
    """Rewrite `key = value` lines of a config; every key must exist."""
    lines, seen = [], set()
    for line in text.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in overrides:
            line = f"{key} = {overrides[key]}"
            seen.add(key)
        lines.append(line)
    missing = set(overrides) - seen
    if missing:
        raise KeyError(f"config has no key(s) {sorted(missing)}")
    return "\n".join(lines) + "\n"


class RunWorkload:
    """A window of the bundled chi01 run through `runio.execute_run`."""

    steps_per_op: int

    def __init__(self, name: str, root: Path, work: Path, seed: int,
                 overrides: dict[str, object], why: str):
        self.name = name
        self.why = why
        self.work = work
        self.ic_seed = 42 + seed % IC_SEEDS
        self.base_text = (root / "configs" / "chi01.cfg").read_text()
        self.overrides = dict(overrides, **{"ic.seed": self.ic_seed})
        self.config_path = work / f"{name}.cfg"
        self.config_path.write_text(self._text(work / "unused"))
        reference = json.loads(REFERENCE_FILE.read_text())
        self.reference = reference.get(f"{name}/{self.ic_seed}")
        self._config = None
        self._state = None
        self._out: Path | None = None

    def _text(self, out_dir: Path) -> str:
        return derive_config(
            self.base_text, dict(self.overrides, **{"output.dir": out_dir}))

    # setup_s: a fresh interpreter imports, parses and builds the state
    def setup_code(self) -> tuple[str, list[str]]:
        code = (
            "import sys, micropolar\n"
            "from micropolar import config, dynamics\n"
            "cfg = config.parse_config(sys.argv[1])\n"
            "dynamics.make_initial(cfg.ic, cfg.grid)\n"
        )
        return code, [str(self.config_path)]

    def prepare(self) -> None:
        from micropolar import config, dynamics

        self._out = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.work))
        path = self._out / "run.cfg"
        path.write_text(self._text(self._out / "out"))
        self._config = config.parse_config(path)
        self._state = dynamics.make_initial(self._config.ic, self._config.grid)
        self.steps_per_op = math.ceil(
            self._config.stepper.t_end / self._config.stepper.dt - 1e-9)

    def operate(self) -> None:
        from micropolar import runio

        runio.execute_run(self._config, initial=self._state)

    def check(self, error: BaseException | None) -> Outcome:
        outcome = Outcome(attempted=1)
        try:
            if error is not None:
                outcome.fail(f"run raised {type(error).__name__}: {error}")
            else:
                self._check_outputs(outcome)
        except Exception as exc:  # unreadable outputs fail the run, not the benchmark
            outcome.fail(f"output check raised {type(exc).__name__}: {exc}")
        finally:
            if self._out is not None:
                shutil.rmtree(self._out, ignore_errors=True)
            self._state = self._config = self._out = None
        return outcome

    def _check_outputs(self, outcome: Outcome) -> None:
        out = self._config.output.directory
        rows = list(csv.DictReader((out / "diagnostics.csv").read_text().splitlines()))
        expected_rows = self.steps_per_op // self._config.output.cadence + 1
        problems = []
        if len(rows) != expected_rows:
            problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")
        if (out / "abort.txt").exists():
            problems.append("abort.txt written")
        for name in ("report.txt", "checkpoint.bin"):
            if not (out / name).is_file():
                problems.append(f"{name} missing")
        slack = max(
            (float(r["ledger_lhs"]) - float(r["ledger_rhs"])) / float(r["ledger_rhs"])
            for r in rows
        )
        if not slack <= LEDGER_SLACK_MAX:
            problems.append(f"ledger slack {slack:.3e} > {LEDGER_SLACK_MAX:.0e}")
        if self.reference is None:
            problems.append(f"no reference row for ic.seed={self.ic_seed}")
        else:
            last = rows[-1]
            scales = row_scales(self.reference, self._config.params.chi)
            for key, ref in self.reference.items():
                got = float(last[key])
                if not abs(got - ref) <= CSV_RTOL * scales[key] + CSV_ATOL:
                    problems.append(f"final {key}={got!r}, reference {ref!r}")
        if problems:
            outcome.fail("; ".join(problems))


def row_scales(reference: dict[str, float], chi: float) -> dict[str, float]:
    """The size each final-row value is compared at.

    Most values are norms, compared relative to themselves. `cross_term`
    is a Levi-Civita contraction that cancels heavily (it can be 1e-4 while
    the norms are near 1), so a reordered summation moves it by rounding
    errors of the size of its Cauchy-Schwarz bound
    4 chi ||Dw|| ||D^2 (u, w)||, not of its own size.
    """
    scales = {key: abs(value) for key, value in reference.items()}
    if "cross_term" in scales:
        bound = 4.0 * chi * reference["l2_Dw"] * reference["l2_D2pair"]
        scales["cross_term"] = max(scales["cross_term"], bound)
    return scales


# the n=16 Duhamel trajectory: `suite_duhamel`'s chi=0.5 case at n=16
DUHAMEL_N = 16
DUHAMEL_DT = 0.02
DUHAMEL_T_END = 3.0


class VerifyWorkload:
    """The short `verify` suites plus the Duhamel checks at n=16.

    The `duhamel` suite (two n=32 trajectories, about 30-45 s) and the
    `energy` suite (one call of about 13-17 s) are each too long to time
    more than once or twice in a run, so one operation here is `ops`,
    `lemma1`, `lemma2` and `duhamel_small`, about 5 s. Only the Duhamel
    trajectory steps, so `steps_per_op` counts its steps.
    """

    steps_per_op = math.ceil(DUHAMEL_T_END / DUHAMEL_DT - 1e-9)

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self._results: list = []

    def setup_code(self) -> tuple[str, list[str]]:
        return "import micropolar.verify\n", []

    def prepare(self) -> None:
        self._results = []

    def operate(self) -> None:
        from micropolar import verify

        for suite in VERIFY_SUITES:
            self._results.extend(verify.run_suite(suite))
        self._results.extend(duhamel_small())

    def check(self, error: BaseException | None) -> Outcome:
        outcome = Outcome()
        if error is not None:
            outcome.attempted = max(len(self._results), 1)
            outcome.fail(f"suites raised {type(error).__name__}: {error}")
            return outcome
        for res in self._results:
            outcome.attempted += 1
            if not res.passed:
                outcome.fail(res.line())
        return outcome


def duhamel_small() -> list:
    """`suite_duhamel`'s chi=0.5 checks on an n=16 trajectory.

    Reconstruction residual, halved-sampling ratio, z-form agreement and the
    term ledger against the Gamma(1/4) and sqrt(pi) bounds, computed as the
    suite computes them.
    """
    import numpy as np
    from micropolar import semigroup
    from micropolar.dynamics import InitialCondition, StepperConfig, evolve, make_initial
    from micropolar.fields import PhysicalParams
    from micropolar.grid import make_grid
    from micropolar.norms import l2, l2_grad

    grid = make_grid(DUHAMEL_N, 8.0 * np.pi)
    chi = 0.5
    p = PhysicalParams(mu=0.6, gamma=0.3, chi=chi)
    state = make_initial(InitialCondition("random_solenoidal", 1.0, 1.0, seed=13), grid)
    traj = []
    cfg = StepperConfig(dt=DUHAMEL_DT, t_end=DUHAMEL_T_END)
    for j, state, _ in evolve(state, p, cfg):
        if state.t >= 1.0 - 1e-12 and j % 2 == 0:
            traj.append(state)
    fine = semigroup.duhamel_reconstruct_w(traj, p)
    coarse = semigroup.duhamel_reconstruct_w(traj[::2], p)
    z_form = semigroup.duhamel_reconstruct_w(traj[::2], p, form="z")
    ledger = semigroup.duhamel_terms(traj[::2], p)
    ratio = coarse.residuals[-1] / fine.residuals[-1]

    e0 = math.hypot(l2(traj[0].u), l2(traj[0].w))
    eps = max(math.sqrt(s.t) * l2_grad(s.w) for s in traj[1:])
    taus = ledger.times - ledger.t0
    k1 = semigroup.discrete_l1_smoothing_constant(grid, p.gamma, taus[taus > 0.0])
    bound_ii = (
        2.0**1.25 * k1 * e0 * eps * p.gamma**-0.75
        * (np.exp(-chi * ledger.times) * ledger.times**0.25
           + (2.0 * chi) ** -0.25 * ledger.gamma_quarter)
    )
    bound_iii = (
        2.0 * semigroup.L2_GRAD_SMOOTHING_CONSTANT * eps * p.gamma**-0.5
        * (np.exp(-chi * ledger.times) * np.sqrt(ledger.times)
           + (2.0 * chi) ** -0.5 * ledger.sqrt_pi)
    )
    return [
        Check("n=16 reconstruction residual", fine.residuals[-1], 1e-4),
        Check("n=16 halved-sampling ratio in [3, 5.5]", abs(ratio - 4.25), 1.25),
        Check(
            "n=16 z-substitution agrees",
            np.abs(z_form.residuals - coarse.residuals).max() / coarse.residuals.max(),
            1e-8,
        ),
        Check("n=16 advection term under Gamma(1/4) bound",
              float(np.max(ledger.term_ii / bound_ii)), 1.0),
        Check("n=16 grad-div term under sqrt(pi) bound",
              float(np.max(ledger.term_iii / bound_iii)), 1.0),
    ]


WHY = {
    "desk-n32": "the bundled chi01 run at n=32 (50-step windows): the "
                "acceptance-scale run, stepping ~95% of the time",
    "large-n64": "chi01 physics at n=64, CSV row every step, checkpoint every "
                 "2: memory-heavy; diagnostics and checkpoint I/O show here",
    "verify-fast": "verify suites ops, lemma1, lemma2 plus the Duhamel checks "
                   "at n=16: n=16 per-call overhead and semigroup",
}


def make_workload(name: str, root: Path, work: Path, seed: int):
    if name == "desk-n32":
        return RunWorkload(name, root, work, seed, {"stepper.t_end": 1.0}, WHY[name])
    if name == "large-n64":
        return RunWorkload(
            name, root, work, seed,
            {"grid.n": 64, "stepper.t_end": 0.08, "output.cadence": 1,
             "output.checkpoint_every": 2},
            WHY[name],
        )
    if name == "verify-fast":
        return VerifyWorkload(name, WHY[name])
    raise KeyError(name)


WORKLOADS = tuple(WHY)
