"""Command-line interface.

    micropolar run <config>                 run a simulation to t_end
    micropolar verify <suite>               ops | lemma1 | lemma2 | duhamel | energy
    micropolar resume <checkpoint> <config> continue a checkpointed run

Exit codes: 0 success / all checks pass; 1 verification failures;
2 invalid config, unknown suite, busy output directory, an output file that
cannot be written, or a working set too large to allocate; 3 runtime abort
(CFL violation or divergence) with the last good checkpoint retained.
"""

from __future__ import annotations

import argparse
import sys

from .checkpoint import CheckpointError, read_checkpoint
from .config import ConfigError, parse_config
from .dynamics import CflError, SimulationDiverged
from .runio import OutputDirBusy, execute_run
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RUNTIME_ABORT = 3


def _load_config(config_path: str):
    """The parsed config, or None after printing why it cannot be used."""
    try:
        return parse_config(config_path)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_run(config_path: str) -> int:
    config = _load_config(config_path)
    return EXIT_USAGE if config is None else _drive(config)


def _drive(config, initial=None) -> int:
    try:
        result = execute_run(config, initial=initial)
    except OutputDirBusy as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # the CSV, a checkpoint, the report or abort.txt
        where = exc.filename2 or exc.filename or config.output.directory  # a rename's target
        print(f"error: cannot write {where} ({exc.strerror or exc})", file=sys.stderr)
        return EXIT_USAGE
    except (CflError, SimulationDiverged) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        print(
            f"last good checkpoint retained in {config.output.directory}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME_ABORT
    except ValueError as exc:
        # invalid derived quantities (e.g. spectrum peak outside the band)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # the fields, the stepper, a step or a record
        too_large = ConfigError("working set too large to allocate", key="grid.n")
        print(f"error: {too_large}", file=sys.stderr)
        return EXIT_USAGE
    print(f"run complete: {len(result.records)} records -> {result.csv_path}")
    print(f"report: {result.report_path}")
    return EXIT_OK


def _cmd_verify(suite: str) -> int:
    if suite not in SUITES:
        print(
            f"error: unknown suite {suite!r} (choose from {', '.join(SUITES)})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    checks = run_suite(suite)
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    print(f"{suite}: {len(checks) - len(failed)}/{len(checks)} checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


def _cmd_resume(checkpoint_path: str, config_path: str) -> int:
    config = _load_config(config_path)
    if config is None:
        return EXIT_USAGE
    try:
        state, params = read_checkpoint(checkpoint_path)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if state.grid.n_per_axis != config.grid.n_per_axis or not _close(
        state.grid.box_length, config.grid.box_length
    ):
        print(
            f"error: checkpoint grid ({state.grid.n_per_axis}, "
            f"L={state.grid.box_length:g}) does not match config grid "
            f"({config.grid.n_per_axis}, L={config.grid.box_length:g})",
            file=sys.stderr,
        )
        return EXIT_USAGE
    for name in ("mu", "gamma", "chi"):
        if not _close(getattr(params, name), getattr(config.params, name)):
            print(
                f"error: checkpoint {name}={getattr(params, name)!r} does not "
                f"match config {name}={getattr(config.params, name)!r}",
                file=sys.stderr,
            )
            return EXIT_USAGE
    if state.t >= config.stepper.t_end:
        print(
            f"error: checkpoint time {state.t:g} is already past "
            f"t_end {config.stepper.t_end:g}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    return _drive(config, initial=state)  # the config's params, checked above


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b), 1.0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="micropolar",
        description="Pseudo-spectral micropolar flow simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a simulation from a config file")
    run_p.add_argument("config")

    verify_p = sub.add_parser("verify", help="run a named verification suite")
    verify_p.add_argument("suite")

    resume_p = sub.add_parser("resume", help="continue from a checkpoint")
    resume_p.add_argument("checkpoint")
    resume_p.add_argument("config")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    if args.command == "run":
        return _cmd_run(args.config)
    if args.command == "verify":
        return _cmd_verify(args.suite)
    return _cmd_resume(args.checkpoint, args.config)


if __name__ == "__main__":
    sys.exit(main())
