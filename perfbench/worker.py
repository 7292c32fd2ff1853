"""Run one workload in this process through gaussprop.cli.main.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE WORKDIR

run.py starts this in a fresh interpreter per workload, with src/ on
PYTHONPATH and the BLAS thread count pinned.  Modes:

  plain   one warm-up invocation, then timed invocations for SECONDS
          (at least MIN_TIMED); gives run_s and peak RSS.
  traced  a warm-up, then plain and traced invocations in turn for SECONDS/2
          (at least MIN_TRACED pairs), then one invocation under
          tracemalloc; gives the per-layer metrics.
  single  a warm-up and one timed invocation (the one-thread baseline).

Every invocation's outputs are checked.  The last stdout line is a JSON
object with the timings, the per-layer metrics and the failure count.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402
from host import HOST_KERNEL_REF_S, host_kernel  # noqa: E402

MIN_TIMED = 3
MIN_TRACED = 2
CELL_BYTES = 8  # one float64 per table cell


class Runner:
    """The workload's CLI calls over its generated scenario files."""

    def __init__(self, workload: str, seed: int, workdir: str):
        from gaussprop import cli
        from gaussprop.scenario import load_scenario

        self.cli = cli
        self.calls = workloads.write_scenarios(workload, seed, workdir)
        for _, path, _ in self.calls:
            load_scenario(path)  # every generated file must parse before timing
        self.out_dir = os.path.join(workdir, "out")
        self.attempted = 0
        self.failures: list[str] = []
        self.cells = 0

    def invoke(self) -> float:
        """Run every command once, check its outputs, return the wall time."""
        if os.path.isdir(self.out_dir):
            for name in os.listdir(self.out_dir):
                os.remove(os.path.join(self.out_dir, name))
        codes = []
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for command, path, _ in self.calls:
                    codes.append(self.cli.main([command, path, "--out", self.out_dir]))
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            sink.write(traceback.format_exc())
            codes.append("exception")
        elapsed = time.perf_counter() - start
        bad, cells = [], 0
        for (command, _, scenario), code in zip(self.calls, codes):
            if code != 0:
                bad.append(f"{command}: exit {code}: {sink.getvalue()[-300:]}")
                continue
            try:
                bad += workloads.check(command, scenario, self.out_dir)
                cells += workloads.table_cells(self.out_dir, scenario, command)
            except (OSError, KeyError, TypeError, ValueError) as exc:
                bad.append(f"{command}: unreadable output: {exc!r}")
        self.attempted += 1
        if bad:
            self.failures.append("; ".join(bad))
        self.cells = cells
        return elapsed


def _layer_metrics(summary: dict, cells: int) -> dict:
    """Per-layer metrics of one traced invocation."""
    def get(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "counts": {},
                                  "operators": set()})

    def count(name, key):
        return get(name)["counts"].get(key, 0)

    m = {}
    kernel = get("kernel.complex_kernel")
    elems = count("kernel.complex_kernel", "elems")
    m["kernel.complex_kernel.calls"] = kernel["calls"]
    m["kernel.complex_kernel.self_s"] = kernel["self_s"]
    m["kernel.complex_kernel.elems"] = elems
    m["kernel.complex_kernel.ns_per_elem"] = kernel["self_s"] / elems * 1e9 if elems else 0.0
    m["kernel.complex_kernel.distinct_frac"] = (
        len(kernel["operators"]) / kernel["calls"] if kernel["calls"] else 0.0)
    for name in ("propagate.step_dense", "propagate.validity_check",
                 "propagate.step_spectral", "fresnel.fresnel_moment",
                 "audit.variant_audit", "fields.check_boundary_decay"):
        m[f"{name}.calls"] = get(name)["calls"]
    for name in ("propagate.step_dense", "propagate.evolve", "propagate.validity_check",
                 "propagate.step_spectral", "reference.evolve_cn",
                 "reference.evolve_diffusion", "reference.to_hamiltonian",
                 "walk.sample_paths", "walk.histogram_compare",
                 "fresnel.fresnel_moment", "fresnel.cancellation_check",
                 "audit.variant_audit", "audit.predicted_drift_rate",
                 "fields.gaussian_packet", "fields.check_boundary_decay",
                 "scenario.load_scenario", "cli.main"):
        m[f"{name}.self_s"] = get(name)["self_s"]
    for name in ("propagate.evolve", "reference.evolve_cn", "reference.evolve_diffusion"):
        m[f"{name}.steps"] = count(name, "steps")
    m["propagate.matvec_bytes_computed"] = (count("propagate.step_dense", "matvec_bytes")
                                            + count("propagate.evolve", "matvec_bytes"))
    steps = m["reference.evolve_cn.steps"]
    m["reference.evolve_cn.us_per_step"] = (
        m["reference.evolve_cn.self_s"] / steps * 1e6 if steps else 0.0)
    particle_steps = count("walk.sample_paths", "particle_steps")
    m["walk.sample_paths.particle_steps"] = particle_steps
    m["walk.sample_paths.ns_per_particle_step"] = (
        m["walk.sample_paths.self_s"] / particle_steps * 1e9 if particle_steps else 0.0)
    m["cli.out_bytes_computed"] = cells * CELL_BYTES
    return m


def _environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name}


def _median(values: list):
    """Median; an integer count stays an integer (counts repeat exactly)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _measure(runner: Runner, seconds: float, minimum: int, traced: bool = False):
    """Timed invocations for `seconds`, at least `minimum` of them.

    The host kernel runs before and after each plain invocation; the mean of
    the two over HOST_KERNEL_REF_S is that invocation's host factor, and
    run_s is the median of wall time over host factor.  With `traced`, a
    traced invocation follows each plain one.  Returns (timing, per-layer
    metrics or None, absent wrap targets).
    """
    wall, factors, traced_wall, per_invocation, step_ms, absent = [], [], [], [], [], []
    start = time.perf_counter()
    before = host_kernel()
    while time.perf_counter() - start < seconds or len(wall) < minimum:
        wall.append(runner.invoke())
        after = host_kernel()
        factors.append((before + after) / (2.0 * HOST_KERNEL_REF_S))
        before = after
        if traced:
            with spans.Tracer() as tracer:
                traced_wall.append(runner.invoke())
            absent = tracer.absent
            summary = spans.summarize(tracer.take())
            per_invocation.append(_layer_metrics(summary, runner.cells))
            step_ms += [d * 1e3 for d in
                        summary.get("propagate.step_spectral", {}).get("durations", [])]
            before = host_kernel()
    timing = {"run_s": statistics.median(t / f for t, f in zip(wall, factors)),
              "wall_s": statistics.median(wall),
              "host_factor": statistics.median(factors), "times": wall}
    if not traced:
        return timing, None, absent
    layers = {k: _median([inv[k] for inv in per_invocation]) for k in per_invocation[0]}
    layers["propagate.step_spectral.p50_ms"] = spans.percentile(step_ms, 0.50)
    layers["propagate.step_spectral.p99_ms"] = spans.percentile(step_ms, 0.99)
    layers["trace.run_s"] = statistics.median(traced_wall)
    layers["trace.overhead_s"] = statistics.median(traced_wall) - timing["wall_s"]
    layers["trace.absent_targets"] = len(absent)
    layers["run.wall_s"] = timing["wall_s"]
    layers["run.host_factor"] = timing["host_factor"]
    return timing, layers, absent


def _alloc_pass(runner: Runner) -> dict:
    tracemalloc.start()
    try:
        with spans.Tracer(names=spans.ALLOC_TARGETS, alloc=True) as tracer:
            runner.invoke()
    finally:
        tracemalloc.stop()
    summary = spans.summarize(tracer.take())
    return {f"{name}.peak_alloc_mb": summary.get(name, {}).get("alloc", 0) / 2 ** 20
            for name in spans.ALLOC_TARGETS}


def main(argv) -> int:
    workload, seed, seconds, mode, workdir = argv
    runner = Runner(workload, int(seed), workdir)
    runner.invoke()  # warm-up: lazy imports and first-call caches
    result = {"env": _environment()}
    if mode == "plain":
        timing, _, _ = _measure(runner, float(seconds), MIN_TIMED)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elif mode == "traced":
        # half the budget, so the tracemalloc and one-thread passes fit
        timing, layers, absent = _measure(runner, float(seconds) / 2, MIN_TRACED,
                                          traced=True)
        layers.update(_alloc_pass(runner))
        result["layers"], result["absent"] = layers, absent
    elif mode == "single":
        timing, _, _ = _measure(runner, 0.0, 1)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result.update(timing, attempted=runner.attempted, failures=runner.failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
