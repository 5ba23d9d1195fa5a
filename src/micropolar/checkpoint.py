"""Bit-exact binary checkpoints.

Layout (all little-endian):

    bytes 0..7    magic "MPOLAR01"
    u32           n (points per axis)
    f64           L, t, mu, gamma, chi
    6 blocks      u then w, 3 components each, complex128 coefficients in
                  C order over the (n, n, n) lattice in standard FFT index
                  ordering (axis index m maps to wavenumber 2*pi/L * m for
                  m <= n/2 and 2*pi/L * (m - n) above)

complex128 is an interleaved (re, im) pair of f64, so the payload matches
the documented wire format byte for byte.  States live on the 2/3-rule band,
so the writer expands them here, one component at a time, and the reader
folds the file's lattice back (fold_band refuses out-of-band coefficients).
The writer fills <path>.tmp, syncs it to disk, moves it over <path> and syncs
the directory, so neither a failed write nor a power loss destroys the last
checkpoint.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .fields import (
    PhysicalParams,
    SimState,
    SpectralVectorField,
    expand_band,
    fold_band,
)
from .grid import make_grid

MAGIC = b"MPOLAR01"
_HEADER = struct.Struct("<8sIddddd")


class CheckpointError(RuntimeError):
    """Unreadable, truncated, or inconsistent checkpoint file."""


def write_checkpoint(state: SimState, params: PhysicalParams, path: str | Path) -> None:
    grid = state.grid
    header = _HEADER.pack(
        MAGIC,
        grid.n_per_axis,
        grid.box_length,
        state.t,
        params.mu,
        params.gamma,
        params.chi,
    )
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as out:
            out.write(header)
            for field in (state.u, state.w):
                for component in field.data:
                    out.write(expand_band(component, grid).astype("<c16", copy=False))
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)  # the rename itself
    finally:
        os.close(directory)


def read_checkpoint(path: str | Path) -> tuple[SimState, PhysicalParams]:
    try:
        blob = Path(path).read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot read ({exc.strerror})") from None
    if len(blob) < _HEADER.size:
        raise CheckpointError(f"{path}: truncated header")
    magic, n, length, t, mu, gamma, chi = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(
            f"{path}: bad magic {magic!r} (expected {MAGIC!r})"
        )
    expected = _HEADER.size + 2 * 3 * n**3 * 16
    if len(blob) != expected:
        raise CheckpointError(
            f"{path}: truncated payload ({len(blob)} bytes, expected {expected})"
        )
    flat = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    if not np.isfinite(flat).all():  # before fold_band, which sees NaN as content
        raise CheckpointError(f"{path}: coefficients contain non-finite values")
    data = flat.reshape(2, 3, n, n, n)
    try:  # Grid checks n, fold_band the 2/3 band, SimState div u
        grid = make_grid(int(n), float(length))
        params = PhysicalParams(mu=mu, gamma=gamma, chi=chi)
        u, w = (SpectralVectorField(grid, fold_band(field, grid)) for field in data)
        state = SimState(t, u, w)
    except ValueError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return state, params
