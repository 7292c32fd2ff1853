"""Self-checks of the benchmark: generator, tracer, and exact counts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, os.pardir, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, _layer_metrics  # noqa: E402

from gaussprop.scenario import load_scenario  # noqa: E402

# counts that depend on problem size only, never on the seed or the clock
EXACT = ("kernel.complex_kernel.calls", "kernel.complex_kernel.elems",
         "kernel.complex_kernel.distinct_frac", "propagate.evolve.steps",
         "reference.evolve_cn.steps", "reference.evolve_diffusion.steps",
         "walk.sample_paths.particle_steps", "propagate.matvec_bytes_computed",
         "cli.out_bytes_computed", "propagate.step_spectral.calls",
         "audit.variant_audit.calls", "fresnel.fresnel_moment.calls")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_scenarios_are_seeded_and_valid(workload, tmp_path):
    assert workloads.generate(workload, 5) == workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) != workloads.generate(workload, 6)
    for seed in range(20):
        for _, path, _ in workloads.write_scenarios(workload, seed, str(tmp_path)):
            load_scenario(path)


def _traced_counts(workload, seed, workdir):
    workdir.mkdir()
    runner = Runner(workload, seed, str(workdir))
    with spans.Tracer() as tracer:
        runner.invoke()
    assert not runner.failures and not tracer.absent
    metrics = _layer_metrics(spans.summarize(tracer.take()), runner.cells)
    return {name: metrics[name] for name in EXACT}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly_across_runs_and_seeds(workload, tmp_path):
    first = _traced_counts(workload, 1, tmp_path / "a")
    assert _traced_counts(workload, 1, tmp_path / "b") == first
    assert _traced_counts(workload, 2, tmp_path / "c") == first


def test_expected_counts(tmp_path):
    audit = _traced_counts("audit", 3, tmp_path / "audit")
    assert audit["kernel.complex_kernel.calls"] == 48
    assert audit["kernel.complex_kernel.elems"] == 48 * 1024 ** 2
    assert audit["kernel.complex_kernel.distinct_frac"] == pytest.approx(1 / 3)
    assert audit["propagate.matvec_bytes_computed"] == 48 * 1024 ** 2 * 16
    walk = _traced_counts("walk", 3, tmp_path / "walk")
    assert walk["walk.sample_paths.particle_steps"] == 60_000 * 200


def _span(name, start, end, parent=None):
    span = spans.Span(name, start, parent)
    span.end = end
    return span


def test_self_time_subtracts_child_coverage():
    trace = [_span("a", 0.0, 10.0), _span("b", 1.0, 3.0, 0),
             _span("c", 2.0, 2.5, 1), _span("d", 5.0, 9.0, 0)]
    assert spans.self_times(trace) == pytest.approx([4.0, 1.5, 0.5, 4.0])


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("propagate", "no_such_step", None), ("no_such_module", "f", None)))
    with spans.Tracer() as tracer:
        pass
    assert tracer.absent == ["propagate.no_such_step", "no_such_module.f"]


def test_wrappers_are_removed_after_the_pass():
    from gaussprop import cli, kernel, propagate

    original = kernel.complex_kernel
    with spans.Tracer():
        assert propagate.complex_kernel is not original
        assert cli.evolve_cn.__wrapped__ is not None
    assert propagate.complex_kernel is original
    assert not hasattr(cli.evolve_cn, "__wrapped__")


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = {m["name"] for m in spec["per_layer"]}
    produced = set(_layer_metrics({}, 0)) | {
        "propagate.step_spectral.p50_ms", "propagate.step_spectral.p99_ms",
        "trace.run_s", "trace.overhead_s", "trace.absent_targets", "run.wall_s",
        "run.host_factor", "blas1.run_s", "env.nproc"}
    produced |= {f"{name}.peak_alloc_mb" for name in spans.ALLOC_TARGETS}
    assert produced == declared
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_alloc_span_records_peak_above_start():
    import tracemalloc

    tracer = spans.Tracer(alloc=True)
    wrapped = tracer._wrap("f", lambda: bytearray(8 << 20) and None, None)
    tracemalloc.start()
    try:
        wrapped()
    finally:
        tracemalloc.stop()
    (span,) = tracer.take()
    assert span.alloc >= 8 << 20
