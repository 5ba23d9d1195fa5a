#!/usr/bin/env python3
"""Benchmark of the micropolar simulator and verifier.

    python3 perfbench/run.py --workload desk-n32 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. One process runs one workload as a closed
loop with one client: operations run back to back until `--seconds` is used
up, and each one's outputs are checked. With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
operations and reports the per-layer metrics from the traced ones. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it give every metric with its unit, the failure fraction,
machine facts and the layer table. All files go to a work directory inside
the checkout, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 6  # before and again after the operations
SETUP_TIMEOUT_S = 60.0
TIME_CAP_S = 150.0  # hard stop for the loop, below the 180 s a run may take
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "micropolar" / "__init__.py").is_file() or not (
        ROOT / "configs" / "chi01.cfg"
    ).is_file():
        print(f"perfbench: no micropolar sources (src/micropolar, "
              f"configs/chi01.cfg) under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    work_parent = ROOT / ".perfbench_work"
    work = work_parent / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    # the program's own temporary directories stay inside the checkout too
    tempfile.tempdir = str(work)
    os.environ["TMPDIR"] = str(work)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_parent.rmdir()
        except OSError:
            pass


def run(args, work: Path) -> int:
    from spans import FftCounter, Tracer, LAYERS, FFT_SPAN
    from workloads import Outcome, make_workload

    tracer = Tracer()
    fft = FftCounter(tracer)
    if args.trace:
        fft.install()  # before the package binds any transform
    import micropolar  # noqa: F401
    import micropolar.runio  # noqa: F401
    import micropolar.verify  # noqa: F401

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    probe_before = fft_probe(fft)

    workload = make_workload(args.workload, ROOT, work, args.seed)
    print(f"workload {workload.name}: {workload.why}")
    setup_times = [] if args.trace else measure_setup(workload, work, warm=True)

    ops: list[dict] = []
    total = Outcome()
    loop_start = time.perf_counter()
    cycles: list[float] = []
    try:
        while True:
            traced = bool(args.trace) and len(ops) % 2 == 1
            cycle_start = time.perf_counter()
            op = run_op(workload, tracer, fft, traced)
            cycles.append(time.perf_counter() - cycle_start)
            ops.append(op)
            total.attempted += op["outcome"].attempted
            total.failed += op["outcome"].failed
            for note in op["outcome"].notes:
                print(f"FAILED op {len(ops)}: {note}")

            elapsed = time.perf_counter() - loop_start
            est = statistics.median(cycles)
            need_pair = args.trace and len(ops) < 2
            if elapsed + est > TIME_CAP_S:
                break
            if not need_pair and elapsed + est > args.seconds + 0.5 * est:
                break
    finally:
        fft.uninstall()
    probe_after = fft_probe(fft)
    if not args.trace:
        setup_times += measure_setup(workload, work, warm=False)

    plain = [op for op in ops if not op["traced"]]
    traced_ops = [op for op in ops if op["traced"]]
    print(f"operations: {len(plain)} untraced, {len(traced_ops)} traced; "
          f"walls (s): " + ", ".join(f"{op['wall']:.3f}" for op in ops))

    if args.trace:
        metrics = layer_metrics(traced_ops, plain, tracer, LAYERS, FFT_SPAN)
        metrics["machine.fft_probe_ms_before"] = (probe_before, "ms")
        metrics["machine.fft_probe_ms_after"] = (probe_after, "ms")
        print_layer_table(traced_ops, LAYERS)
        print("fft workers (largest `workers` of a traced call): "
              f"{max(op['fft'][3] for op in traced_ops)}")
        if tracer.absent:
            print("absent targets (time falls into other_ms): "
                  + ", ".join(tracer.absent))
    else:
        walls = [op["wall"] for op in plain]
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "steps_per_s": (
                statistics.median(op["steps"] / max(op["wall"], 1e-9) for op in plain),
                "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
        print(f"fft probe (ms): before {probe_before:.4f}, after {probe_after:.4f}")

    print(f"failed_frac = {total.failed / max(total.attempted, 1)!r} ratio "
          f"({total.failed} failed of {total.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")

    result = {
        "correct": total.failed == 0 and total.attempted > 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_op(workload, tracer, fft, traced: bool) -> dict:
    """Prepare, time and check one operation."""
    op = {"traced": traced, "wall": 0.0, "steps": 0}
    error = None
    if traced:
        tracer.install()
        tracer.reset()
        fft.reset()
        tracer.enabled = True
    try:
        workload.prepare()
        if traced:
            tracer.enabled = False
            op["prepare"] = tracer.take()
            fft.reset()
            tracer.enabled = True
        start = time.perf_counter()
        try:
            workload.operate()
        finally:
            op["wall"] = time.perf_counter() - start
        op["steps"] = workload.steps_per_op
    except Exception as exc:  # a failed operation is counted, not fatal
        error = exc
    finally:
        if traced:
            tracer.enabled = False
            op["spans"] = tracer.take()
            op["fft"] = (dict(fft.transforms), fft.bytes, fft.lowdim_calls,
                         fft.max_workers)
            tracer.uninstall()
    op["outcome"] = workload.check(error)
    return op


def measure_setup(workload, work: Path, warm: bool) -> list[float]:
    """Wall time of fresh interpreters doing the workload's set-up.

    With `warm`, one extra unmeasured run first fills the bytecode cache,
    which users pay once, not on every run.
    """
    code, argv = workload.setup_code()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(work))
    cmd = [sys.executable, "-c", code, *argv]
    times = []
    for i in range(SETUP_REPEATS + warm):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
        # a blocking wait: `wait(timeout=...)` polls in steps of up to 50 ms,
        # which would quantise a set-up time of about 0.5 s
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code:
            raise subprocess.CalledProcessError(code, cmd)
        if i or not warm:
            times.append(elapsed)
    return times


def fft_probe(fft) -> float:
    """Median ms of a fixed (3, 32, 32, 32) complex FFT: a contention probe."""
    import numpy as np

    fftn = fft.original("scipy.fft", "fftn")
    data = np.random.default_rng(0).standard_normal((3, 32, 32, 32)) + 0j
    samples = []
    for i in range(22):
        start = time.perf_counter()
        fftn(data, axes=(1, 2, 3), workers=1)
        if i >= 2:
            samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "MICROPOLAR_THREADS": os.environ.get("MICROPOLAR_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "machine": platform.machine(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) >= 1000.0 - 1e-9:  # ten samples beyond
            cuts = statistics.quantiles(samples, n=1000, method="inclusive")
            return cuts[int(round(pct * 10)) - 1], pct
    return max(samples), 100.0


def layer_metrics(traced: list[dict], plain: list[dict], tracer, layers, fft_span) -> dict:
    ms = 1e3
    n_ops = len(traced)
    n_steps = sum(op["steps"] for op in traced) or 1

    def total(name):
        return sum(op["spans"].total(name) for op in traced)

    def self_t(name):
        return sum(op["spans"].self_time(name) for op in traced)

    def per_call(name, include_prepare=False):
        runs = [op["spans"] for op in traced]
        if include_prepare:
            runs += [op["prepare"] for op in traced if "prepare" in op]
        calls = sum(r.count(name) for r in runs)
        return sum(r.total(name) for r in runs) / calls * ms if calls else 0.0

    step_samples = [s for op in traced
                    for s in op["spans"].stats["dynamics.Stepper.step"].samples]
    tail_s, tail_pct = tail(step_samples) if step_samples else (0.0, 0.0)
    transforms = sum(sum(op["fft"][0].values()) for op in traced)
    traced_wall = statistics.median(op["wall"] for op in traced)
    plain_wall = statistics.median(op["wall"] for op in plain)
    other = sum(op["wall"] - op["spans"].root_time for op in traced)

    m = {
        "fields.fft_per_step": (transforms / n_steps, "count"),
        "fields.fft_bytes_per_step": (
            sum(op["fft"][1] for op in traced) / n_steps, "bytes"),
        "fields.fft_ms_per_step": (total(fft_span) / n_steps * ms, "ms"),
        "fields.validate_ms_per_step": (
            (total("fields.divergence_defect") + total("fields._check_finite"))
            / n_steps * ms, "ms"),
        "dynamics.step_ms_p50": (
            statistics.median(step_samples) * ms if step_samples else 0.0, "ms"),
        "dynamics.step_ms_tail": (tail_s * ms, "ms"),
        "dynamics.step_ms_tail_pct": (tail_pct, "%"),
        "dynamics.step_samples": (len(step_samples), "count"),
        "dynamics.step_self_ms": (self_t("dynamics.Stepper.step") / n_steps * ms, "ms"),
        "dynamics.explicit_self_ms_per_step": (
            self_t("dynamics._explicit_hats") / n_steps * ms, "ms"),
        "dynamics.apply_w_ms_per_step": (
            total("dynamics.Stepper._apply_w") / n_steps * ms, "ms"),
        "dynamics.make_initial_ms": (per_call("dynamics.make_initial", True), "ms"),
        "operators.leray_ms_per_step": (
            total("operators.leray_hat") / n_steps * ms, "ms"),
        "operators.curl_ms_per_step": (
            total("operators.curl_hat") / n_steps * ms, "ms"),
        "operators.cross_integral_ms": (
            per_call("operators.epsilon_cross_integral"), "ms"),
        "diagnostics.push_ms": (per_call("diagnostics.RunAccumulator.push"), "ms"),
        "diagnostics.record_ms": (per_call("diagnostics.RunAccumulator.record"), "ms"),
        "diagnostics.fit_ms": (
            (total("diagnostics.detect_t0") + total("diagnostics.fit_decay"))
            / n_ops * ms, "ms"),
        "checkpoint.write_ms": (per_call("checkpoint.write_checkpoint"), "ms"),
        "checkpoint.bytes_written": (
            sum(op["spans"].byte_counts["path"] for op in traced) / n_ops, "bytes"),
        "runio.csv_bytes": (
            sum(op["spans"].byte_counts["csv"] for op in traced) / n_ops, "bytes"),
        "runio.report_ms": (per_call("runio.write_report"), "ms"),
        "runio.self_ms": (self_t("runio.execute_run") / n_ops * ms, "ms"),
        "config.parse_ms": (per_call("config.parse_config_text", True), "ms"),
        "semigroup.duhamel_reconstruct_ms": (
            per_call("semigroup.duhamel_reconstruct_w"), "ms"),
        "semigroup.duhamel_terms_ms": (per_call("semigroup.duhamel_terms"), "ms"),
        "semigroup.heat_fit_ms": (per_call("semigroup.fit_heat_decay"), "ms"),
        "verify.ops_s": (total("verify.suite_ops") / n_ops, "s"),
        "verify.lemma1_s": (total("verify.suite_lemma1") / n_ops, "s"),
        "verify.lemma2_s": (total("verify.suite_lemma2") / n_ops, "s"),
        "other_ms": (other / n_ops * ms, "ms"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (traced_wall / max(plain_wall, 1e-9) - 1.0, "ratio"),
        "trace.absent_targets": (len(tracer.absent), "count"),
    }
    for layer in layers:
        m[f"layer.{layer}_self_ms"] = (
            sum(op["spans"].layer_self()[layer] for op in traced) / n_ops * ms, "ms")
    return m


def print_layer_table(traced: list[dict], layers) -> None:
    n_ops = len(traced)
    wall = sum(op["wall"] for op in traced) / n_ops
    print(f"layer self time per traced operation (wall {wall * 1e3:.1f} ms):")
    for layer in layers:
        t = sum(op["spans"].layer_self()[layer] for op in traced) / n_ops
        print(f"  {layer:<12} {t * 1e3:10.1f} ms  {t / wall:6.1%}")
    other = sum(op["wall"] - op["spans"].root_time for op in traced) / n_ops
    print(f"  {'other':<12} {other * 1e3:10.1f} ms  {other / wall:6.1%}")
    kinds: dict[str, int] = {}
    for op in traced:
        for kind, count in op["fft"][0].items():
            kinds[kind] = kinds.get(kind, 0) + count
    print("3-D transforms by kind: " + json.dumps(kinds, sort_keys=True)
          + f"; lower-dimensional calls: {sum(op['fft'][2] for op in traced)}"
          + "; fft bytes are computed from array sizes, not measured")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
