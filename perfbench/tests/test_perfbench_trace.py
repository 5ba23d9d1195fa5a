"""Self-consistency of the benchmark's tracing.

    python3 -m pytest -q perfbench/tests

Runs a small n=16 window of the chi01 run traced, twice, in this process.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
import spans  # noqa: E402
from workloads import RunWorkload, derive_config  # noqa: E402

TINY = {"grid.n": 16, "grid.L": 25.132741228718345, "ic.peak": 1.0,
        "stepper.t_end": 0.4, "output.cadence": 5, "output.checkpoint_every": 10}


@pytest.fixture(scope="module")
def traced_ops(tmp_path_factory):
    tracer = spans.Tracer()
    fft = spans.FftCounter(tracer)
    fft.install()
    try:
        work = tmp_path_factory.mktemp("work")
        workload = RunWorkload("tiny", ROOT, work, 0, TINY, "test")
        workload.reference = {}  # no recorded rows at this size
        ops = [bench.run_op(workload, tracer, fft, traced=True)
               for _ in range(2)]
    finally:
        fft.uninstall()
    for op in ops:
        assert op["outcome"].failed == 0, op["outcome"].notes
    return ops


def test_layer_self_times_and_other_add_up_to_wall(traced_ops):
    for op in traced_ops:
        layers = op["spans"].layer_self()
        other = op["wall"] - op["spans"].root_time
        assert other >= 0.0
        assert sum(layers.values()) + other == pytest.approx(op["wall"], rel=1e-9)


def test_counts_repeat_exactly(traced_ops):
    a, b = traced_ops
    assert a["fft"][0] == b["fft"][0]
    assert a["fft"][1] == b["fft"][1]
    assert a["spans"].byte_counts["path"] == b["spans"].byte_counts["path"] > 0
    assert a["spans"].byte_counts["csv"] == b["spans"].byte_counts["csv"] > 0
    assert a["steps"] == b["steps"] == 20


def test_fft_count_matches_hand_count(traced_ops):
    kinds, _, lowdim, _ = traced_ops[0]["fft"]
    if set(kinds) != {"c2c"} or lowdim:
        pytest.skip("transform layout differs from the full complex lattice")
    # 27 complex 3-D transforms per explicit term, 4 per RK4 step; each CSV
    # row transforms u and w back for the sup norm (3 components each)
    steps, rows = 20, 20 // 5 + 1
    assert kinds["c2c"] == 108 * steps + 6 * rows


def test_every_binding_is_wrapped_and_restored():
    import micropolar.diagnostics
    import micropolar.dynamics
    import micropolar.fields
    import micropolar.norms

    original = micropolar.fields.inverse_transform
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (micropolar.fields, micropolar.dynamics,
                       micropolar.norms, micropolar.diagnostics):
            assert module.inverse_transform is not original
            assert module.inverse_transform.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module in (micropolar.fields, micropolar.dynamics,
                   micropolar.norms, micropolar.diagnostics):
        assert module.inverse_transform is original


def test_missing_target_is_absent_not_fatal(monkeypatch):
    targets = dict(spans.TARGETS, no_such_module=("anything",))
    targets["dynamics"] += ("rhs_gone", "Stepper.gone")
    monkeypatch.setattr(spans, "TARGETS", targets)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["dynamics.rhs_gone", "dynamics.Stepper.gone",
                             "no_such_module.anything"]


def test_derive_config_rejects_unknown_keys():
    text = "grid.n = 32   # comment\nic.seed = 42\n"
    assert derive_config(text, {"grid.n": 64}) == "grid.n = 64\nic.seed = 42\n"
    with pytest.raises(KeyError):
        derive_config(text, {"grid.m": 64})


def test_tail_needs_ten_samples_beyond():
    value, pct = bench.tail([float(i) for i in range(100)])
    assert pct == 90.0 and 89.0 <= value <= 90.0
    assert bench.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
