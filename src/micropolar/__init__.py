"""Pseudo-spectral simulator and verification suite for 3D micropolar flow."""

# Honor the thread cap before numpy/scipy spin up their pools.
import os as _os

_cap = _os.environ.get("MICROPOLAR_THREADS")
if _cap:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)
del _os, _cap

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
    dealias,
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
    step,
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
    derivative_ledger,
    detect_t0,
    fit_decay,
)
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, parse_config

__version__ = "0.1.0"
