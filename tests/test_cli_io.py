"""Config parsing, checkpoints, CSV determinism, CLI exit codes."""

from __future__ import annotations

import ast
import os
import re
import resource
import stat
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import micropolar
from micropolar import runio
from micropolar.checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from micropolar.cli import main
from micropolar.config import _SCHEMA, ConfigError, parse_config_text
from micropolar.diagnostics import RunAccumulator
from micropolar.dynamics import Stepper, StepperConfig
from micropolar.fields import (
    PhysicalParams,
    SimState,
    SpectralVectorField,
    expand_band,
    fold_band,
    hermitian_plane,
)
from micropolar.grid import make_grid
from micropolar.operators import leray_hat
from micropolar.runio import CSV_HEADER, DirectoryLock, OutputDirBusy, execute_run

from conftest import random_spectral_field, transform_path


def small_config_text(out_dir, chi=0.2, t_end=0.3, amplitude=0.5, extra=""):
    return f"""
# smoke-test configuration
grid.n = 8
grid.L = 12.566370614359172   # 4*pi
params.mu = 0.4
params.gamma = 0.3
params.chi = {chi}
ic.kind = random_solenoidal
ic.peak = 1.0
ic.amplitude = {amplitude}
ic.seed = 9
stepper.dt = 0.05
stepper.t_end = {t_end}
output.cadence = 2
output.dir = {out_dir}
output.checkpoint_every = 4
{extra}
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_valid_config(tmp_path):
    cfg = parse_config_text(small_config_text(tmp_path / "o"))
    assert cfg.grid.n_per_axis == 8
    assert cfg.params.chi == 0.2
    assert cfg.stepper.cfl_safety == 0.5  # default
    assert cfg.output.cadence == 2


def test_parse_unknown_key_reports_line():
    text = "grid.n = 8\nparams.nu = 0.4\n"
    with pytest.raises(ConfigError, match=r"line 2.*params.nu.*unknown"):
        parse_config_text(text)


def test_parse_bad_value_type():
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config_text("grid.n = eight\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config_text("grid.n = 8\ngrid.L = big\n")


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("grid.n = 8\ngrid.n = 16\n")


def test_parse_missing_required():
    with pytest.raises(ConfigError, match="required key missing"):
        parse_config_text("grid.n = 8\n")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
def test_parse_rejects_non_finite(tmp_path, value):
    text = small_config_text(tmp_path, t_end=value)
    with pytest.raises(ConfigError, match=r"line 13.*stepper.t_end.*finite"):
        parse_config_text(text)


def test_cli_non_finite_t_end_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, small_config_text(tmp_path / "out", t_end="inf"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "t_end" in err[0]


def test_parse_semantic_errors(tmp_path):
    text = small_config_text(tmp_path, chi=-0.5)
    with pytest.raises(ConfigError, match="chi"):
        parse_config_text(text)


def test_parse_rejects_box_length_without_finite_wavenumbers(tmp_path):
    # 1e-320 is positive, but 2*pi/L overflows to inf (and k = inf * 0 is NaN)
    text = small_config_text(tmp_path).replace(
        "grid.L = 12.566370614359172", "grid.L = 1e-320"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="box_length 1e-320 is too small"):
            parse_config_text(text)


@pytest.mark.parametrize("length", ["1e-200", "1e-80"])
def test_cli_tiny_box_exit_2(tmp_path, capsys, length):
    """A box so small that |k|^4 / L^3 overflows (1e-200 raised OverflowError
    in make_initial, 1e-80 an overflowing norm naming no key) exits 2 with
    one error line naming grid.L, before any output is written."""
    text = small_config_text(tmp_path / "out").replace(
        "grid.L = 12.566370614359172", f"grid.L = {length}"
    )
    peak = 2.0 * np.pi / float(length)
    text = text.replace("ic.peak = 1.0", f"ic.peak = {peak!r}")
    path = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'grid.L'" in err[0]
    assert not (tmp_path / "out").exists()


def test_cli_huge_amplitude_exit_2(tmp_path, capsys):
    """An amplitude whose initial norms overflow (1e200 passed SimState with
    a NaN divergence defect, warned six times and stopped at an overflowing
    l2_u, naming no key) exits 2 with one error line naming ic.amplitude,
    before any output is written."""
    text = small_config_text(tmp_path / "out", amplitude=1e200, t_end=0.05)
    path = write_config(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'ic.amplitude'" in err[0]
    assert not (tmp_path / "out").exists()


def test_parse_rejects_negative_seed(tmp_path):
    text = small_config_text(tmp_path).replace("ic.seed = 9", "ic.seed = -1")
    with pytest.raises(ConfigError, match=r"line 11, key 'ic.seed'.*non-negative"):
        parse_config_text(text)


@pytest.mark.parametrize("digits", [21, 400])
def test_cli_huge_grid_n_exit_2(tmp_path, capsys, digits):
    """A grid.n whose band an array cannot index (10^20; 10^399 overflowed a
    float and ended in a traceback) exits 2 with one error line naming grid.n,
    before anything is allocated or written."""
    n = "1" + "0" * (digits - 1)
    text = small_config_text(tmp_path / "out").replace("grid.n = 8", f"grid.n = {n}")
    assert main(["run", str(write_config(tmp_path, text))]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'grid.n'" in err[0]
    assert "too large" in err[0] and not (tmp_path / "out").exists()


class _NoBand:
    """Stands in for grid.Band in the grid.n fuzz: a large n runs all of
    Grid's checks without allocating its band symbols."""

    def __init__(self, grid):
        pass


config_keys = st.sampled_from(sorted(_SCHEMA))
value_texts = st.one_of(  # one line; integers up to 500 digits as well
    st.text().filter(lambda v: len(v.splitlines()) <= 1),
    st.integers(-(10**500), 10**500).map(str),
)


@settings(max_examples=200, deadline=None)
@given(text=st.text())
def test_config_fuzz_any_text_parses_or_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(key=config_keys, value=value_texts)
def test_config_fuzz_any_value_parses_or_config_error(tmp_path_factory, key, value):
    """Each known key given any value text, the rest valid: the config parses
    or raises ConfigError, never another exception."""
    lines = small_config_text(tmp_path_factory.getbasetemp() / "fuzz").splitlines()
    lines = [f"{key} = {value}" if line.split("=")[0].strip() == key else line
             for line in lines]
    if not any(line.startswith(f"{key} =") for line in lines):
        lines.append(f"{key} = {value}")
    with pytest.MonkeyPatch.context() as patch:
        if key == "grid.n":
            patch.setattr(micropolar.grid, "Band", _NoBand)
        try:
            parse_config_text("\n".join(lines))
        except ConfigError:
            pass


# ---------------------------------------------------------------------------
# checkpoints


def make_state(grid, seed=3, t=1.25):
    u = random_spectral_field(grid, seed, solenoidal=True)
    w = random_spectral_field(grid, seed + 1)
    return SimState(t, u, w)


def test_checkpoint_round_trip(tmp_path, grid8):
    state = make_state(grid8)
    params = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)
    path = tmp_path / "state.bin"
    write_checkpoint(state, params, path)
    loaded, loaded_params = read_checkpoint(path)
    assert loaded.t == state.t
    assert np.array_equal(loaded.u.data, state.u.data)
    assert np.array_equal(loaded.w.data, state.w.data)
    assert loaded_params == params
    # byte-for-byte stability of the writer
    blob1 = path.read_bytes()
    write_checkpoint(loaded, loaded_params, path)
    assert path.read_bytes() == blob1


def test_checkpoint_truncation(tmp_path, grid8):
    state = make_state(grid8)
    params = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)
    path = tmp_path / "state.bin"
    write_checkpoint(state, params, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError, match="truncated"):
        read_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path, grid8):
    state = make_state(grid8)
    params = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)
    path = tmp_path / "state.bin"
    write_checkpoint(state, params, path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTMAGIC"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_checkpoint_non_finite(tmp_path, grid8):
    state = make_state(grid8)
    params = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)
    path = tmp_path / "state.bin"
    write_checkpoint(state, params, path)
    blob = bytearray(path.read_bytes())
    blob[100:108] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="non-finite"):
        read_checkpoint(path)


def write_out_of_band_checkpoint(grid, path):
    """A valid checkpoint with one velocity coefficient set just above the 2/3
    cutoff, in the file's bytes (no SimState holds such a field)."""
    write_checkpoint(make_state(grid), PhysicalParams(0.4, 0.3, 0.2), path)
    blob = bytearray(path.read_bytes())
    n = grid.n_per_axis
    header = len(blob) - 2 * 3 * n**3 * 16
    index = np.ravel_multi_index((1, n // 3 + 1, 0, 0), (3, n, n, n))
    blob[header + 16 * index : header + 16 * index + 8] = np.array([0.1]).tobytes()
    path.write_bytes(bytes(blob))


def test_checkpoint_out_of_band(tmp_path, grid8):
    path = tmp_path / "state.bin"
    write_out_of_band_checkpoint(grid8, path)
    with pytest.raises(CheckpointError, match="coefficients outside the 2/3 band"):
        read_checkpoint(path)


@pytest.mark.parametrize(
    "field, value, message",
    [("n", 5, "n_per_axis must be an even integer"), ("L", -1.0, "box_length")],
    ids=["n", "L"],
)
def test_checkpoint_bad_grid(tmp_path, grid8, field, value, message):
    path = tmp_path / "state.bin"
    write_checkpoint(make_state(grid8), PhysicalParams(0.4, 0.3, 0.2), path)
    blob = bytearray(path.read_bytes())
    if field == "n":  # with a payload of the size n = 5 implies
        blob[8:12] = np.array([value], dtype="<u4").tobytes()
        blob = blob[: len(blob) - 2 * 3 * 8**3 * 16] + bytes(2 * 3 * value**3 * 16)
    else:
        blob[12:20] = np.array([value], dtype="<f8").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match=message):
        read_checkpoint(path)


def test_checkpoint_write_syncs_file_then_directory(tmp_path, grid8, monkeypatch):
    """The whole temp file reaches the disk before it replaces the checkpoint,
    and the directory after, so a power loss leaves the old or the new one."""
    calls = []
    fsync, replace = os.fsync, os.replace

    def logged_fsync(fd):
        info = os.fstat(fd)
        calls.append(("dir fsync",) if stat.S_ISDIR(info.st_mode) else ("file fsync", info.st_size))
        fsync(fd)

    def logged_replace(src, dst):
        calls.append(("replace",))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", logged_fsync)
    monkeypatch.setattr(os, "replace", logged_replace)
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(make_state(grid8), PhysicalParams(0.4, 0.3, 0.2), path)
    assert calls == [("file fsync", path.stat().st_size), ("replace",), ("dir fsync",)]


def test_checkpoint_failed_write_keeps_previous(tmp_path, grid8, monkeypatch):
    params = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)
    path = tmp_path / "checkpoint.bin"
    write_checkpoint(make_state(grid8), params, path)
    before = path.read_bytes()
    path_open = Path.open

    class HalfThenFail:
        """The checkpoint's file: the disk fills halfway through the payload
        (the header, then six components, one write each)."""

        def __init__(self, file):
            self.file, self.writes = file, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 4:
                data = memoryview(data).cast("B")
                self.file.write(data[: len(data) // 2])
                raise OSError("disk full")
            return self.file.write(data)

    monkeypatch.setattr(
        Path, "open", lambda self, *args: HalfThenFail(path_open(self, *args))
    )
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(make_state(grid8, seed=5, t=2.5), params, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    loaded, _ = read_checkpoint(path)
    assert loaded.t == 1.25
    assert list(tmp_path.iterdir()) == [path]


def random_band_state(n, seed, t):
    """A state drawn straight on the band: complex noise with a mean-zero,
    exactly Hermitian kz = 0 plane, u Leray-projected."""
    grid = make_grid(n, 2.0 * np.pi)
    rng = np.random.default_rng(seed)

    def draw():
        shape = (3,) + grid.band.shape
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        data[:, 0, 0, 0] = 0.0
        data[..., 0] = hermitian_plane(data, grid)
        return data

    u = leray_hat(draw(), grid)
    return SimState(t, SpectralVectorField(grid, u), SpectralVectorField(grid, draw()))


positive = st.floats(min_value=1e-6, max_value=1e6)


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(
    n=st.sampled_from([8, 12, 16, 18]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.floats(min_value=0.0, max_value=1e9),
    mu=positive,
    gamma=positive,
    chi=st.floats(min_value=0.0, max_value=1e6),
)
def test_checkpoint_round_trip_is_bitwise(n, seed, t, mu, gamma, chi):
    state = random_band_state(n, seed, t)
    params = PhysicalParams(mu=mu, gamma=gamma, chi=chi)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.bin"
        write_checkpoint(state, params, path)
        assert path.stat().st_size == 52 + 2 * 3 * n**3 * 16  # full lattice
        loaded, loaded_params = read_checkpoint(path)
    assert loaded.t == state.t and loaded_params == params
    assert np.array_equal(loaded.u.data, state.u.data)
    assert np.array_equal(loaded.w.data, state.w.data)


def test_full_lattice_checkpoint_reads_and_resumes(tmp_path, grid8):
    """A file in the full-lattice layout every writer of this format has
    produced (header, then the whole (3, n, n, n) u and w) reads back onto the
    band, resumes like the state it holds, and is rewritten with the same
    numbers (zeros may lose their sign)."""
    u, w = (
        expand_band(random_spectral_field(grid8, seed, solenoidal).data, grid8)
        for seed, solenoidal in ((21, True), (22, False))
    )
    params = PhysicalParams(mu=0.4, gamma=0.3, chi=0.2)
    header = struct.pack("<8sIddddd", b"MPOLAR01", 8, grid8.box_length, 0.5,
                         params.mu, params.gamma, params.chi)
    path = tmp_path / "full.bin"
    path.write_bytes(header + u.tobytes() + w.tobytes())
    loaded, loaded_params = read_checkpoint(path)
    direct = SimState(
        0.5, *(SpectralVectorField(grid8, fold_band(f, grid8)) for f in (u, w))
    )
    assert loaded_params == params
    assert loaded.u.data.shape == (3,) + grid8.band.shape
    stepper = Stepper(grid8, params, StepperConfig(dt=0.05, t_end=1.0))
    a, b = loaded, direct
    for _ in range(3):
        a, b = stepper.step(a), stepper.step(b)
    assert np.array_equal(a.u.data, b.u.data) and np.array_equal(a.w.data, b.w.data)
    write_checkpoint(loaded, loaded_params, tmp_path / "again.bin")
    again, first = (tmp_path / "again.bin").read_bytes(), path.read_bytes()
    assert again[:52] == first[:52]
    payloads = (np.frombuffer(blob, "<c16", offset=52) for blob in (again, first))
    assert np.array_equal(*payloads)


# ---------------------------------------------------------------------------
# run driver


def run_config(tmp_path, name, **kwargs):
    out_dir = tmp_path / name
    cfg = parse_config_text(small_config_text(out_dir, **kwargs))
    return cfg, execute_run(cfg)


def test_run_outputs(tmp_path):
    cfg, result = run_config(tmp_path, "a")
    assert result.csv_path.exists()
    assert result.report_path.exists()
    assert result.checkpoint_path.exists()
    text = result.csv_path.read_text()
    assert text.startswith(CSV_HEADER)
    # 1 initial row + t_end/dt/cadence rows
    assert len(text.strip().splitlines()) == 1 + 1 + 3
    report = result.report_path.read_text()
    assert "t0 detected" in report
    assert "sup-norm interpolation constant" in report


def test_band_run_builds_no_full_lattice_symbols(tmp_path):
    text = small_config_text(tmp_path / "band", t_end=1.0)
    cfg = parse_config_text(text.replace("grid.n = 8", "grid.n = 16"))
    result = execute_run(cfg)
    assert result.final_state.t == pytest.approx(1.0) and cfg.grid.n_per_axis == 16
    for held in (vars(cfg.grid), vars(cfg.grid.band)):
        assert all(np.ndim(v) < 3 or np.size(v) < 16**3 for v in held.values())


def test_run_zero_amplitude_all_zero_rows(tmp_path):
    cfg, result = run_config(tmp_path, "z", amplitude=0.0)
    rows = result.csv_path.read_text().strip().splitlines()[1:]
    for row in rows:
        cells = row.split(",")
        assert all(float(c) == 0.0 for c in cells[1:])


def test_csv_byte_identical(tmp_path):
    _, first = run_config(tmp_path, "r1")
    _, second = run_config(tmp_path, "r2")
    assert first.csv_path.read_bytes() == second.csv_path.read_bytes()


def test_final_checkpoint_written_once(tmp_path, monkeypatch):
    """A 4-step run that checkpoints every 2 steps writes at steps 2 and 4:
    the last step's checkpoint is the final one, not written again."""
    written = []
    write = runio.write_checkpoint
    monkeypatch.setattr(
        runio, "write_checkpoint", lambda state, *args: [written.append(state.t), write(state, *args)]
    )
    text = small_config_text(tmp_path / "out", t_end=0.2)
    cfg = parse_config_text(text.replace("checkpoint_every = 4", "checkpoint_every = 2"))
    result = execute_run(cfg)
    assert len(written) == 2
    loaded, _ = read_checkpoint(result.checkpoint_path)
    final = result.final_state
    assert loaded.t == final.t == written[-1]
    assert np.array_equal(loaded.u.data, final.u.data)
    assert np.array_equal(loaded.w.data, final.w.data)


def test_csv_byte_identical_across_blas_threads(tmp_path):
    """The band transforms' matrix products (n=32) give the same bits on one
    BLAS thread as on the library's default count."""
    text = small_config_text(tmp_path / "out", t_end=0.2).replace("grid.n = 8", "grid.n = 32")
    csvs = []
    for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {}):
        cfg = write_config(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "micropolar.cli", "run", str(cfg)],
            capture_output=True,
            text=True,
            env=child_env() | threads,
        )
        assert proc.returncode == 0, proc.stderr
        csvs.append((tmp_path / "out" / "diagnostics.csv").read_bytes())
    assert csvs[0] == csvs[1]


def chi01_text(out_dir, n, steps):
    """The bundled chi01 config at n points per axis, cut to `steps` steps
    with a row every 2."""
    text = (Path(__file__).resolve().parent.parent / "configs" / "chi01.cfg").read_text()
    for key, value in (
        ("grid.n", n), ("stepper.t_end", 0.02 * steps), ("output.cadence", 2), ("output.dir", out_dir),
    ):
        text = re.sub(rf"^{re.escape(key)} = \S+", f"{key} = {value}", text, flags=re.M)
    return text


def csv_rows(path):
    """The header and the rows of a diagnostics CSV, as floats."""
    lines = Path(path).read_text().splitlines()
    return lines[0].split(","), np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])


def chi01_rows(out_dir, n, steps):
    """The CSV rows of the bundled chi01 run (chi01_text)."""
    return csv_rows(execute_run(parse_config_text(chi01_text(out_dir, n, steps))).csv_path)


@pytest.mark.parametrize("n, steps", [(32, 20), (34, 4)])
def test_csv_agrees_across_transform_paths(tmp_path, n, steps):
    """A short chi01 run on the matrix products and on pocketfft, at the
    largest n the products are selected for and at one above it: every CSV
    column agrees to 1e-14 of its largest value (measured: 9.5e-16 at most,
    cross_term at n = 34)."""
    with transform_path("products"):
        header, products = chi01_rows(tmp_path / "products", n, steps)
    with transform_path("pocketfft"):
        _, pocketfft = chi01_rows(tmp_path / "pocketfft", n, steps)
    assert products.shape == (steps // 2 + 1, len(header))
    scale = np.abs(pocketfft).max(axis=0)
    for name, got, want, top in zip(header, products.T, pocketfft.T, scale):
        assert np.abs(got - want).max() <= 1e-14 * top, name


def _cpu_has_avx() -> bool:
    try:
        return re.search(r"^flags\s*:.*\bavx\b", Path("/proc/cpuinfo").read_text(), re.M) is not None
    except OSError:
        return False


@pytest.mark.skipif(not _cpu_has_avx(), reason="OpenBLAS's Sandybridge kernel needs AVX")
def test_csv_agrees_across_blas_core_types(tmp_path):
    """The README's determinism statement: the bits of an n <= 32 run depend
    on the BLAS kernel, the values do not.  20 chi01 steps at n = 32 under
    OPENBLAS_CORETYPE=Sandybridge, set in the child only, and under the
    default kernel: every CSV column agrees to 1e-14 of its largest value
    (measured on an AVX-512 host: 3.9e-16 at most, with different bytes)."""
    runs = []
    for name, core in (("default", {}), ("sandybridge", {"OPENBLAS_CORETYPE": "Sandybridge"})):
        (tmp_path / name).mkdir()
        cfg = write_config(tmp_path / name, chi01_text(tmp_path / name / "out", 32, 20))
        proc = subprocess.run(
            [sys.executable, "-m", "micropolar.cli", "run", str(cfg)],
            capture_output=True,
            text=True,
            env=child_env() | core,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(csv_rows(tmp_path / name / "out" / "diagnostics.csv"))
    (header, default), (_, sandybridge) = runs
    assert default.shape == (11, len(header))
    scale = np.abs(default).max(axis=0)
    for name, got, want, top in zip(header, sandybridge.T, default.T, scale):
        assert np.abs(got - want).max() <= 1e-14 * top, name


def test_report_matches_csv(tmp_path):
    _, result = run_config(tmp_path, "rep")
    final_cell = result.csv_path.read_text().strip().splitlines()[-1].split(",")[-1]
    report = result.report_path.read_text()
    line = next(
        ln for ln in report.splitlines() if ln.startswith("final sqrt(t)*||w||")
    )
    assert line.split(": ")[1] == final_cell


def test_lock_conflict(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    with DirectoryLock(out):
        cfg = parse_config_text(small_config_text(out))
        with pytest.raises(OutputDirBusy):
            execute_run(cfg)
    # released afterwards
    cfg = parse_config_text(small_config_text(out))
    execute_run(cfg)


def test_lock_names_owner_pid(tmp_path):
    out = tmp_path / "busy"
    out.mkdir()
    with DirectoryLock(out) as lock:
        pid = int(lock.path.read_text())
        assert pid == os.getpid()
        cfg = parse_config_text(small_config_text(out))
        with pytest.raises(OutputDirBusy, match=rf"pid {pid}\b"):
            execute_run(cfg)


def exited_pid():
    """The pid of a child process that has already exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_lock_takes_over_stale_pid(tmp_path, capsys):
    lock_file = tmp_path / ".micropolar.lock"
    pid = exited_pid()
    lock_file.write_text(f"{pid}\n")
    with DirectoryLock(tmp_path) as lock:
        assert int(lock.path.read_text()) == os.getpid()
    assert not lock_file.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "stale lock" in err[0] and f"pid {pid} " in err[0]


@pytest.mark.parametrize(
    "owner", ["self", "", "not-a-pid", "0", "-1", "99999999999999999999"]
)
def test_lock_busy_unless_owner_is_gone(tmp_path, capsys, owner):
    # a live pid (this one), an unreadable or non-positive pid, and a pid
    # os.kill cannot take all keep the directory busy
    text = str(os.getpid()) if owner == "self" else owner
    (tmp_path / ".micropolar.lock").write_text(text)
    with pytest.raises(OutputDirBusy):
        DirectoryLock(tmp_path).__enter__()
    assert (tmp_path / ".micropolar.lock").read_text() == text
    assert capsys.readouterr().err == ""


def test_lock_busy_when_owner_cannot_be_signalled(tmp_path, monkeypatch):
    def not_permitted(pid, sig):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(os, "kill", not_permitted)
    (tmp_path / ".micropolar.lock").write_text("4242\n")
    with pytest.raises(OutputDirBusy, match="pid 4242"):
        DirectoryLock(tmp_path).__enter__()


# ---------------------------------------------------------------------------
# CLI exit codes


def write_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_cli_run_ok(tmp_path, capsys):
    path = write_config(tmp_path, small_config_text(tmp_path / "out"))
    assert main(["run", str(path)]) == 0
    assert "run complete" in capsys.readouterr().out


def test_cli_invalid_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, "grid.n = 8\nbogus.key = 1\n")
    assert main(["run", str(path)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_cli_missing_config_exit_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 2


@pytest.mark.parametrize(
    "case", ["config_is_dir", "config_not_text", "checkpoint_is_dir", "output_dir_is_file"]
)
def test_cli_bad_path_exit_2(tmp_path, capsys, case):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"grid.n = 8\n\xff\n")
    chi01 = Path(__file__).resolve().parent.parent / "configs" / "chi01.cfg"
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    argv = {
        "config_is_dir": ["run", str(tmp_path)],
        "config_not_text": ["run", str(bad)],
        "checkpoint_is_dir": ["resume", str(tmp_path), str(chi01)],
        "output_dir_is_file": ["run", str(write_config(tmp_path, small_config_text(taken)))],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    if case == "output_dir_is_file":
        assert str(taken) in err[0]


def test_cli_runtime_abort_exit_3(tmp_path, capsys):
    # amplitude large enough to trip the CFL guard immediately
    path = write_config(
        tmp_path, small_config_text(tmp_path / "out", amplitude=5e4, t_end=5.0)
    )
    assert main(["run", str(path)]) == 3
    err = capsys.readouterr().err
    assert "CFL" in err
    assert (tmp_path / "out" / "checkpoint.bin").exists()
    assert (tmp_path / "out" / "abort.txt").exists()


@pytest.mark.parametrize("owner, name", [(RunAccumulator, "push"), (Stepper, "step")])
def test_cli_memory_error_mid_run_exit_2(tmp_path, capsys, monkeypatch, owner, name):
    """A MemoryError once the stepper is built (a record or a step) exits 2
    with the one error line of a working set too large to allocate."""

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(owner, name, out_of_memory)
    path = write_config(tmp_path, small_config_text(tmp_path / "out"))
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: [key 'grid.n'] working set too large to allocate"]


def test_cli_verify_unknown_suite_exit_2(capsys):
    assert main(["verify", "bogus"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_cli_verify_suite_passes(capsys):
    assert main(["verify", "lemma1"]) == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


def test_cli_resume_flow(tmp_path):
    # Run to t=0.3, resume to t=0.6; final state must match an uninterrupted
    # run bit for bit (checkpoint bytes compare equal).
    full_dir = tmp_path / "full"
    part_dir = tmp_path / "part"
    resume_dir = tmp_path / "resumed"
    full_cfg = write_config(
        tmp_path, small_config_text(full_dir, t_end=0.6)
    )
    assert main(["run", str(full_cfg)]) == 0

    part_cfg = tmp_path / "part.cfg"
    part_cfg.write_text(small_config_text(part_dir, t_end=0.3))
    assert main(["run", str(part_cfg)]) == 0

    resume_cfg = tmp_path / "resume.cfg"
    resume_cfg.write_text(small_config_text(resume_dir, t_end=0.6))
    assert (
        main(["resume", str(part_dir / "checkpoint.bin"), str(resume_cfg)]) == 0
    )
    final_full = (full_dir / "checkpoint.bin").read_bytes()
    final_resumed = (resume_dir / "checkpoint.bin").read_bytes()
    assert final_full == final_resumed


def test_cli_resume_dimension_mismatch(tmp_path, capsys):
    small_dir = tmp_path / "small"
    cfg_path = write_config(tmp_path, small_config_text(small_dir))
    assert main(["run", str(cfg_path)]) == 0
    big_cfg = tmp_path / "big.cfg"
    big_cfg.write_text(
        small_config_text(tmp_path / "big", t_end=0.6).replace(
            "grid.n = 8", "grid.n = 16"
        )
    )
    code = main(["resume", str(small_dir / "checkpoint.bin"), str(big_cfg)])
    assert code == 2
    assert "does not match config grid" in capsys.readouterr().err


def test_cli_resume_param_mismatch(tmp_path, capsys):
    src_dir = tmp_path / "src"
    cfg_path = write_config(tmp_path, small_config_text(src_dir))
    assert main(["run", str(cfg_path)]) == 0
    other = tmp_path / "other.cfg"
    other.write_text(small_config_text(tmp_path / "o2", chi=0.3, t_end=0.6))
    code = main(["resume", str(src_dir / "checkpoint.bin"), str(other)])
    assert code == 2
    assert "chi" in capsys.readouterr().err


def test_cli_resume_out_of_band_exit_2(tmp_path, capsys):
    grid = make_grid(8, 12.566370614359172)  # the grid of small_config_text
    checkpoint = tmp_path / "state.bin"
    write_out_of_band_checkpoint(grid, checkpoint)
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, small_config_text(out_dir, t_end=0.6))
    assert main(["resume", str(checkpoint), str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "coefficients outside the 2/3 band" in err[0]
    assert not (out_dir / "diagnostics.csv").exists()
    assert not (out_dir / "abort.txt").exists()


def test_cli_resume_nan_time_exit_2(tmp_path, capsys):
    """A checkpoint whose t is NaN is refused when it is read: one error line
    naming the file and t, and the run it came from is left as it was."""
    out_dir = tmp_path / "out"
    cfg_path = write_config(tmp_path, small_config_text(out_dir, t_end=0.6))
    assert main(["run", str(cfg_path)]) == 0
    before = {path.name: path.read_bytes() for path in out_dir.iterdir()}
    assert {"checkpoint.bin", "diagnostics.csv", "report.txt"} <= set(before)
    blob = bytearray(before["checkpoint.bin"])
    blob[20:28] = np.array([np.nan], dtype="<f8").tobytes()  # magic, n, L, then t
    checkpoint = tmp_path / "nan_t.bin"
    checkpoint.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["resume", str(checkpoint), str(cfg_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert str(checkpoint) in err[0] and "t must be finite" in err[0]
    assert {path.name: path.read_bytes() for path in out_dir.iterdir()} == before


def child_env():
    """Environment of a fresh interpreter that imports the same package as
    this session, installed or from src/."""
    import_path = [str(Path(micropolar.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        import_path.append(os.environ["PYTHONPATH"])
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(import_path)}
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):  # no __pycache__ in the checkout
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


def run_cli_process(cfg, code=None, **kwargs):
    """`python -m micropolar.cli run <cfg>` in a fresh interpreter, or
    `python -c <code> <cfg>` when code is given."""
    command = ["-m", "micropolar.cli", "run"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *command, str(cfg)],
        capture_output=True,
        text=True,
        env=child_env(),
        **kwargs,
    )


def test_import_loads_no_scipy():
    """numpy.fft is the one FFT library: importing the package, its verifier
    and its CLI loads no scipy module."""
    code = (
        "import sys, micropolar, micropolar.verify, micropolar.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_no_module_imports_a_private_name_from_a_sibling():
    """Each module of the package uses its siblings through their public
    names only: no `from .module import _name`."""
    package = Path(micropolar.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "micropolar":
                private += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def test_console_script_entry_point(tmp_path):
    """`python -m micropolar.cli` runs a config end to end in a fresh interpreter and exits 0;
    the `micropolar` script in [project.scripts] points at the same `micropolar.cli:main`."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config_text(tmp_path / "out", t_end=0.1))
    proc = run_cli_process(cfg)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "diagnostics.csv").exists()


def test_cli_unallocatable_grid_exit_2(tmp_path):
    """A grid.n whose lattice cannot be allocated exits 2 with one error line."""
    cfg = tmp_path / "run.cfg"
    text = small_config_text(tmp_path / "out").replace("grid.n = 8", "grid.n = 524288")
    cfg.write_text(text)

    def limit_address_space():  # 4 GB: the n^3 allocation fails at once
        resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))

    proc = run_cli_process(cfg, preexec_fn=limit_address_space, timeout=120)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "'grid.n'" in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmSize")
def test_cli_unallocatable_workspace_exit_2(tmp_path):
    """A grid.n whose lattice fits but whose run working set (initial fields
    and stepper workspace) does not exits 2 with one error line, before any
    output is written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config_text(tmp_path / "out").replace("grid.n = 8", "grid.n = 128"))
    # At n = 128 the Grid and the initial draw fit in about 81 MB above what
    # the child holds after import, and the stepper's workspace and band
    # buffers need about 175 MB more (the run allocates them from about
    # 67 MB and holds about 242 MB with them).  The child limits its own
    # address space to the middle of that window.
    code = (
        "import resource, sys\n"
        "import micropolar.cli\n"
        "status = open('/proc/self/status').read().split('VmSize:')[1]\n"
        "limit = int(status.split()[0]) * 1024 + (160 << 20)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(micropolar.cli.main(['run', sys.argv[1]]))\n"
    )
    proc = run_cli_process(cfg, code=code, timeout=120)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert err == ["error: [key 'grid.n'] working set too large to allocate"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["diagnostics.csv", "checkpoint.bin", "report.txt"])
def test_cli_unwritable_output_exit_2(tmp_path, name):
    """An output file that cannot be written (a directory stands at its path)
    exits 2 with one error line naming it, not a traceback."""
    out_dir = tmp_path / "out"
    (out_dir / name).mkdir(parents=True)
    proc = run_cli_process(write_config(tmp_path, small_config_text(out_dir)), timeout=120)
    assert proc.returncode == 2, proc.stderr
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and name in err[0], err
    assert "Traceback" not in proc.stderr
