"""Span tracing of the micropolar layers, installed from outside the package.

Nothing here edits the program. `Tracer.install()` replaces the public entry
points of each `micropolar` module with timing wrappers, resolving every
target in each `micropolar.*` module that bound it by name (for example
`inverse_transform` is imported separately by `dynamics`, `norms` and
`diagnostics`). A target that no longer exists is listed in `absent` and its
time falls into "other". `uninstall()` puts every original back.

`FftCounter` wraps the `scipy.fft` and `numpy.fft` entry points, so transform
counts stay right whichever call sites or transform kinds the package uses.
Install it before `micropolar` is imported, so that `from scipy.fft import
rfftn` inside the package also binds the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# Wrapped entry points: layer (the `micropolar.<layer>` module) -> attribute
# paths. A span's self time counts towards its layer.
TARGETS = {
    "fields": (
        "forward_transform", "inverse_transform", "divergence_defect",
        "_check_finite", "to_spectral", "to_real",
    ),
    "dynamics": (
        "Stepper.step", "Stepper._apply_w", "Stepper._check_cfl",
        "_explicit_hats", "rhs_u", "rhs_w", "energy_power", "make_initial",
    ),
    "operators": (
        "leray_hat", "curl_hat", "advect_hat", "grad_div_hat",
        "epsilon_cross_integral", "random_band_limited", "gn_ratio_infty",
        "gn_ratio_grad",
    ),
    "norms": ("l2", "l2_grad", "l2_grad2", "l2_div", "inner", "spectral_l2_sq"),
    "diagnostics": (
        "RunAccumulator.push", "RunAccumulator.record", "record",
        "detect_t0", "fit_decay",
    ),
    "checkpoint": ("write_checkpoint", "read_checkpoint"),
    "runio": ("execute_run", "write_report"),
    "config": ("parse_config", "parse_config_text"),
    "semigroup": (
        "heat_apply", "fit_heat_decay", "duhamel_reconstruct_w", "duhamel_terms",
    ),
    "verify": (
        "suite_ops", "suite_lemma1", "suite_lemma2", "suite_duhamel",
        "suite_energy",
    ),
}

LAYERS = tuple(TARGETS)

# span names whose every duration is kept (for percentiles)
SAMPLED = {"dynamics.Stepper.step"}

FFT_KINDS = {
    "fft": "c2c", "ifft": "c2c", "fft2": "c2c", "ifft2": "c2c",
    "fftn": "c2c", "ifftn": "c2c",
    "rfft": "r2c", "rfft2": "r2c", "rfftn": "r2c",
    "irfft": "c2r", "irfft2": "c2r", "irfftn": "c2r",
}
_DEFAULT_NDIM = {"fft": 1, "ifft": 1, "rfft": 1, "irfft": 1,
                 "fft2": 2, "ifft2": 2, "rfft2": 2, "irfft2": 2}
FFT_SPAN = "fields.fft_library"
_INHERITED = object()


class SpanStats:
    __slots__ = ("count", "total", "child", "samples")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.child = 0.0
        self.samples: list[float] = []

    @property
    def self_time(self) -> float:
        return self.total - self.child


class Tracer:
    """Aggregates spans by name: count, inclusive time, time of child spans.

    A span's self time is its duration minus the time its child spans cover;
    the self times of all spans add up to the time covered by root spans, so
    `wall - root_time` is the time no wrapped layer accounts for.
    """

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.layer_of: dict[str, str] = {FFT_SPAN: "fields"}
        self.root_time = 0.0
        self.absent: list[str] = []
        self.byte_counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        self.stats = defaultdict(SpanStats)
        self.byte_counts = defaultdict(int)
        self.root_time = 0.0

    def take(self) -> "Tracer":
        """Move the recorded spans into a new Tracer and start afresh."""
        taken = Tracer()
        taken.stats, taken.byte_counts = self.stats, self.byte_counts
        taken.root_time, taken.layer_of = self.root_time, self.layer_of
        self.reset()
        return taken

    def span(self, name: str, fn, after=None):
        stack = self._stack
        clock = time.perf_counter
        keep = name in SAMPLED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [0.0]  # child time
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                duration = clock() - start
                stack.pop()
                st = self.stats[name]
                st.count += 1
                st.total += duration
                st.child += frame[0]
                if keep:
                    st.samples.append(duration)
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_time += duration

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; list the others in `absent`."""
        self.absent = []
        for layer in TARGETS:
            try:
                importlib.import_module(f"micropolar.{layer}")
            except ImportError:
                pass
        modules = [m for name, m in list(sys.modules.items())
                   if name == "micropolar" or name.startswith("micropolar.")]
        for layer, paths in TARGETS.items():
            for path in paths:
                self._wrap(layer, path, modules)

    def _wrap(self, layer: str, path: str, modules) -> None:
        name = f"{layer}.{path}"
        self.layer_of[name] = layer
        try:
            owner = sys.modules[f"micropolar.{layer}"]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (KeyError, AttributeError):
            self.absent.append(name)
            return
        wrapper = self.span(name, original, _AFTER.get(name))
        if parents:  # a method: patching the class reaches every caller
            self._patch(owner, attr, wrapper)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def _patch(self, owner, attr, new) -> None:
        # an inherited method is not in the class's own namespace
        self._patches.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            if old is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def total(self, name: str) -> float:
        st = self.stats.get(name)
        return st.total if st else 0.0

    def self_time(self, name: str) -> float:
        st = self.stats.get(name)
        return st.self_time if st else 0.0

    def count(self, name: str) -> int:
        st = self.stats.get(name)
        return st.count if st else 0

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[self.layer_of[name]] += st.self_time
        return out


def _file_size(arg_index: int, key: str):
    def after(tracer, args, kwargs, result):
        path = kwargs[key] if key in kwargs else args[arg_index]
        tracer.byte_counts[key] += os.path.getsize(path)
    return after


def _csv_size(tracer, args, kwargs, result):
    tracer.byte_counts["csv"] += os.path.getsize(result.csv_path)


_AFTER = {
    "checkpoint.write_checkpoint": _file_size(2, "path"),
    "runio.execute_run": _csv_size,
}


class FftCounter:
    """Counts 3-D transforms, their kind and computed bytes at the library.

    A call over three axes of an array of shape (..., n, n, n) performs
    prod(non-axis dims) 3-D transforms. Bytes are the input plus output
    array sizes, computed from the arrays rather than measured. Calls over
    fewer axes are counted apart in `lowdim_calls`.
    """

    MODULES = ("scipy.fft", "numpy.fft")

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.originals: dict[tuple[str, str], object] = {}
        self.reset()

    def reset(self) -> None:
        self.transforms = defaultdict(int)  # kind -> count of 3-D transforms
        self.bytes = 0
        self.lowdim_calls = 0
        self.max_workers = 0

    def install(self) -> None:
        for module_name in self.MODULES:
            module = importlib.import_module(module_name)
            for fname, kind in FFT_KINDS.items():
                original = getattr(module, fname, None)
                if original is None:
                    continue
                self.originals[(module_name, fname)] = original
                counted = self._counted(fname, kind, original)
                setattr(module, fname, self.tracer.span(FFT_SPAN, counted))

    def uninstall(self) -> None:
        for (module_name, fname), original in self.originals.items():
            setattr(importlib.import_module(module_name), fname, original)
        self.originals.clear()

    def original(self, module_name: str, fname: str):
        return self.originals.get((module_name, fname)) or getattr(
            importlib.import_module(module_name), fname)

    def _counted(self, fname, kind, fn):
        import numpy as np

        @functools.wraps(fn)
        def counted(x, *args, **kwargs):
            out = fn(x, *args, **kwargs)
            if not self.tracer.enabled:
                return out
            arr = np.asarray(x)
            axes = kwargs.get("axes", kwargs.get("axis"))
            if axes is None:
                ndim = _DEFAULT_NDIM.get(fname, arr.ndim)
                axes = tuple(range(arr.ndim - ndim, arr.ndim))
            elif isinstance(axes, int):
                axes = (axes,)
            if len(axes) == 3:
                per = 1
                for ax in axes:
                    per *= arr.shape[ax]
                self.transforms[kind] += arr.size // per
            else:
                self.lowdim_calls += 1
            self.bytes += arr.nbytes + out.nbytes
            workers = kwargs.get("workers") or 1
            if workers < 0:  # scipy: -1 means all cores
                workers += (os.cpu_count() or 1) + 1
            self.max_workers = max(self.max_workers, workers)
            return out

        return counted

