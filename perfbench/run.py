"""gaussprop benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Workloads (see BENCHMARK.json for why each was chosen):

  audit         moments (6 pairs + cancellation), then a 4-variant x
                3-packet x 4-rung audit on n=1024: dense operator builds
  evolve_dense  600 dense steps of a trapped packet on n=2048 plus the CN
                reference: one build, many applies
  compare       spectral eps ladder against a CN oracle on n=4096
  walk          60,000-particle Ornstein-Uhlenbeck walk, 200 steps, checked
                against the drift-diffusion oracle

--trace 0 prints the end-to-end metrics, measured untraced:
  setup_s      median time to import gaussprop.cli in a fresh interpreter
  run_s        median wall time of one warm invocation of the workload
  peak_rss_mb  peak RSS of the workload process
  pass_frac    invocations that exited 0 and passed the output checks,
               over invocations attempted (1 - the failure fraction)
Both times are divided by a host factor: a fixed reference kernel
(host.py, no gaussprop code) timed in the same interpreter, next to each
import and before and after each invocation, over its time on the reference
host.  The shared host drifts by 20% and more over minutes; the factor
cancels most of that.  Raw medians are printed as comments, and the raw
run time is reported as run.wall_s with --trace 1.

--trace 1 prints the per-layer metrics of a traced pass (spans recorded by
perfbench/spans.py around the package's public functions), peak
allocations from a tracemalloc pass, and run_s at one BLAS thread.

Each workload runs in a fresh process with OPENBLAS/OMP/MKL threads pinned
to the usable core count.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from host import HOST_KERNEL_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh-interpreter imports per run, after one warm-up; half run before the
# workload and half after it, so that a run samples the host's speed twice
SETUP_PROBES = 8
RUN_TIMEOUT_S = 170        # the whole run, children included
WORK_ROOT = ".perfbench"   # scratch files, inside the checkout
# prints the import time and the host kernel's time in the same interpreter
_IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); import gaussprop.cli; "
                 "t = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
                 "from host import host_kernel; print(t, host_kernel())")


def _env(src: str, threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def _run(cmd: list, env: dict, deadline: float) -> str:
    """Last stdout line of a child; it is killed and reaped at the deadline."""
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[:3])} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _import_times(env: dict, deadline: float, count: int) -> list:
    """(import seconds, host factor) from `count` fresh interpreters."""
    cmd = [sys.executable, "-c", _IMPORT_PROBE, HERE]
    out = []
    for _ in range(count):
        seconds, kernel = map(float, _run(cmd, env, deadline).split())
        out.append((seconds, kernel / HOST_KERNEL_REF_S))
    return out


def _worker(args, mode: str, env: dict, root: str, deadline: float) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{mode}-", dir=root)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), mode, workdir]
    return json.loads(_run(cmd, env, deadline))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_TIMEOUT_S

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "gaussprop", "cli.py")):
        print("error: run from a gaussprop checkout (src/gaussprop/cli.py not found)",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    env = _env(src, threads)
    os.makedirs(WORK_ROOT, exist_ok=True)
    root = tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)
    try:
        if args.trace:
            res = _worker(args, "traced", env, root, deadline)
            single = _worker(args, "single", _env(src, 1), root, deadline)
            metrics = dict(res["layers"])
            metrics["blas1.run_s"] = single["run_s"]
            metrics["env.nproc"] = res["env"]["nproc"]
            runs = (res, single)
        else:
            _import_times(env, deadline, 1)  # compiles bytecode, warms the file cache
            imports = _import_times(env, deadline, SETUP_PROBES // 2)
            res = _worker(args, "plain", env, root, deadline)
            imports += _import_times(env, deadline, SETUP_PROBES - len(imports))
            runs = (res,)
            setup_s = statistics.median(t / f for t, f in imports)
            print(f"# import median {statistics.median(t for t, _ in imports):.4f} s, "
                  f"host factor {statistics.median(f for _, f in imports):.4f}")
            metrics = {"setup_s": setup_s, "run_s": res["run_s"],
                       "peak_rss_mb": res["peak_rss_mb"],
                       "pass_frac": 1.0 - len(res["failures"]) / res["attempted"]}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("# env " + json.dumps(res["env"], sort_keys=True))
    print(f"# wall median {res['wall_s']:.4f} s, host factor {res['host_factor']:.4f}, "
          f"{len(res['times'])} samples: " + " ".join(f"{t:.3f}" for t in res["times"]))
    if args.trace and res["absent"]:
        print("# absent wrap targets: " + ", ".join(res["absent"]))
    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this pass."""
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    raise SystemExit(main())
