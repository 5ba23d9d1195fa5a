"""Run configuration: a flat dotted-key text format, fail-closed.

Example::

    # decaying micropolar run
    grid.n = 32            # points per axis (even, >= 4)
    grid.L = 50.2654824574 # box period, length units
    params.mu = 0.6        # kinematic viscosity
    params.gamma = 0.3     # spin viscosity
    params.chi = 0.5       # vortex viscosity (>= 0)
    ic.kind = random_solenoidal
    ic.peak = 0.5          # spectrum peak, 1/length
    ic.amplitude = 1.0     # L2 norm of each initial field
    ic.seed = 42
    stepper.dt = 0.02      # time step
    stepper.t_end = 12.0   # stop time
    stepper.cfl_safety = 0.5
    output.cadence = 10    # steps per diagnostics row
    output.dir = out/chi05
    output.checkpoint_every = 200   # steps; 0 disables periodic checkpoints

Unknown keys are errors: a typo in a viscosity name must not silently turn
into a default.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

from .dynamics import InitialCondition, StepperConfig
from .fields import PhysicalParams
from .grid import Grid, log_k_max, make_grid


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        prefix = f"[{', '.join(where)}] " if where else ""
        super().__init__(prefix + message)
        self.line = line
        self.key = key


@dataclass(frozen=True)
class OutputConfig:
    cadence: int
    directory: Path
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if self.cadence < 1:
            raise ValueError(f"cadence must be >= 1, got {self.cadence}")
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )


@dataclass(frozen=True)
class RunConfig:
    grid: Grid
    params: PhysicalParams
    ic: InitialCondition
    stepper: StepperConfig
    output: OutputConfig


_SCHEMA: dict[str, type] = {
    "grid.n": int,
    "grid.L": float,
    "params.mu": float,
    "params.gamma": float,
    "params.chi": float,
    "ic.kind": str,
    "ic.peak": float,
    "ic.amplitude": float,
    "ic.seed": int,
    "stepper.dt": float,
    "stepper.t_end": float,
    "stepper.cfl_safety": float,
    "output.cadence": int,
    "output.dir": str,
    "output.checkpoint_every": int,
}

_DEFAULTS = {  # every other key is required
    "ic.seed": 0,
    "stepper.cfl_safety": 0.5,
    "output.checkpoint_every": 0,
}


def _convert(raw: str, target: type, line: int, key: str):
    if target is int:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"expected an integer, got {raw!r}", line, key)
    if target is float:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"expected a number, got {raw!r}", line, key)
        if not math.isfinite(value):
            raise ConfigError(f"expected a finite number, got {raw!r}", line, key)
        return value
    return raw


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError with line/field info."""
    values: dict[str, object] = {}
    seen_lines: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r}", lineno, key)
        if key in values:
            raise ConfigError(
                f"duplicate key (first set on line {seen_lines[key]})", lineno, key
            )
        if not raw_value:
            raise ConfigError("empty value", lineno, key)
        values[key] = _convert(raw_value, _SCHEMA[key], lineno, key)
        seen_lines[key] = lineno

    for key in _SCHEMA:
        if key not in values and key not in _DEFAULTS:
            raise ConfigError("required key missing", key=key)
        values.setdefault(key, _DEFAULTS.get(key))
    seed = values["ic.seed"]
    if seed < 0:  # numpy's seeding would refuse it later, naming no key
        line = seen_lines["ic.seed"]
        raise ConfigError(f"must be non-negative, got {seed}", line, "ic.seed")

    try:
        grid = make_grid(values["grid.n"], values["grid.L"])
    except ValueError as exc:  # Grid's box_length messages start with the name
        key = "grid.L" if str(exc).startswith("box_length") else "grid.n"
        raise ConfigError(str(exc), seen_lines[key], key) from exc
    except MemoryError:  # the Grid's band symbols
        raise ConfigError("too large to allocate", seen_lines["grid.n"], "grid.n")
    try:
        params = PhysicalParams(
            mu=values["params.mu"],
            gamma=values["params.gamma"],
            chi=values["params.chi"],
        )
        ic = InitialCondition(
            kind=values["ic.kind"],
            peak_wavenumber=values["ic.peak"],
            amplitude=values["ic.amplitude"],
            seed=values["ic.seed"],
        )
        stepper = StepperConfig(
            dt=values["stepper.dt"],
            t_end=values["stepper.t_end"],
            cfl_safety=values["stepper.cfl_safety"],
        )
        output = OutputConfig(
            cadence=values["output.cadence"],
            directory=Path(values["output.dir"]),
            checkpoint_every=values["output.checkpoint_every"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the initial norms square the amplitude A: A^2 |k|^4 / L^3 and, for a
    # single mode, A^2 |k|^4 L^3, summed over the pair, must stay finite
    amplitude, length = abs(ic.amplitude), grid.box_length
    if amplitude > 0.0 and 2.0 * math.log(amplitude) + 4.0 * max(
        log_k_max(grid.n_per_axis, length), 0.0
    ) + 3.0 * abs(math.log(length)) + math.log(2.0) >= math.log(sys.float_info.max):
        raise ConfigError(
            f"amplitude {ic.amplitude!r} is too large: the initial norms overflow",
            seen_lines["ic.amplitude"],
            "ic.amplitude",
        )
    return RunConfig(grid=grid, params=params, ic=ic, stepper=stepper, output=output)


def parse_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: cannot decode ({exc.reason} at byte {exc.start})"
        ) from None
    return parse_config_text(text)
