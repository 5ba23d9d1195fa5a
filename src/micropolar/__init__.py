"""Pseudo-spectral simulator and verification suite for 3D micropolar flow."""

from .grid import Grid, make_grid
from .fields import (
    PhysicalParams,
    RealVectorField,
    ScalarField,
    SimState,
    SpectralVectorField,
    to_real,
    to_spectral,
)
from .operators import (
    LEVI_CIVITA,
    advect,
    curl,
    derivative,
    divergence,
    gn_ratio_grad,
    gn_ratio_infty,
    grad_div,
    gradient,
    laplacian,
    leray_project,
)
from .dynamics import (
    CflError,
    InitialCondition,
    SimulationDiverged,
    Stepper,
    StepperConfig,
    evolve,
    make_initial,
    recover_pressure,
    rhs,
)
from .semigroup import (
    DuhamelLedger,
    SemigroupQuery,
    decay_exponent,
    duhamel_reconstruct_w,
    duhamel_terms,
    fit_heat_decay,
    heat_apply,
)
from .diagnostics import (
    DecayFit,
    DiagnosticsRecord,
    RunAccumulator,
    detect_t0,
    fit_decay,
)
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, parse_config

__version__ = "0.1.0"
