"""Seeded scenario generators and physics output checks for the benchmark.

Each workload is a list of CLI invocations over scenario files that this
module writes from a seed.  The seed varies packets, moment pairs and the
walk seed; problem sizes are fixed so that counts repeat exactly.  Parameter
ranges are chosen so that every seed stays in the valid regime:

* audit: packets keep k0 > 0, so complex_u (whose rate is proportional to
  the mean momentum) drifts for every packet; moment pairs stay inside
  D in [0.5, 2], eps in [0.05, 0.2] (worst error 4.5e-7 against 1e-6),
  and the cancellation check stays at the shipped point (k = 1, x = 0.5,
  eps = 0.1).
* evolve_dense: at eps = 0.05 the sampled chirp's aliasing images (spaced
  2 pi D eps / dx = 26.8 apart) fall outside the 24-wide grid, and
  sigma0 <= 0.9 keeps the packet's support (7.4 sigma0) inside the window the
  phase step resolves.  At eps = 0.025 the images reach the edges and the
  run exits 3 at step 1.
* compare / walk: packets and start points stay far from the grid edges.

Checks use physics tolerances, not byte equality, so a legitimate change in
floating-point summation order still passes.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

WORKLOADS = ("audit", "evolve_dense", "compare", "walk")

AUDIT_LADDER = [0.32, 0.16, 0.08, 0.04]
AUDIT_VARIANTS = [
    {"variant": "admissible", "expect": "conserves"},
    {"variant": "no_t", "expect": "drifts"},
    {"variant": "endpoint_t", "expect": "drifts"},
    {"variant": "complex_u", "im_u": 0.25, "expect": "drifts"},
]
MOMENTS_TOLERANCE = 1e-6

HARMONIC_SPEC = {
    "d": 1.0,
    "u": {"kind": "linear", "slope": 0.3},
    "b": {"kind": "quadratic", "c": 0.545},
}
# the dense step's norm defect is O(eps^2) per step and independent of the
# packet for linear u: 0.0706 over 600 steps for every seed
EVOLVE_MAX_NORM_DRIFT = 0.08
# L2 distance of the first-order dense step to second-order CN at eps = 0.05.
# Both grow with the packet's energy and peak on the corner x0 = -1, k0 = 1,
# sigma0 = 0.9 of the packet box: 0.0046 after one step (O(eps^2)) and 0.72
# after 600 (t = 30).  Applying the transposed operator gives ~0.03 after one
# step; a propagator that loses the packet ends near sqrt(2).
EVOLVE_MAX_STEP1_L2 = 0.01
EVOLVE_MAX_L2 = 0.9

COMPARE_BAND = [0.7, 1.3]

WALK_THETA = 0.5          # drift u(x) = -theta x
WALK_D = 1.0
WALK_EPS = 0.01
WALK_STEPS = 200
WALK_PARTICLES = 60_000
# standard errors allowed on mean and variance; the Euler walk's variance
# sits 0.003 (0.6 standard errors) above the continuous OU law
WALK_SIGMAS = 4.0
WALK_MAX_L1 = 0.05


def _round(value: float) -> float:
    return round(value, 6)


def _packet(rng: random.Random, x0, sigma0, k0) -> dict:
    return {"x0": _round(rng.uniform(*x0)),
            "sigma0": _round(rng.uniform(*sigma0)),
            "k0": _round(rng.uniform(*k0))}


def generate(workload: str, seed: int) -> dict:
    """Scenario objects for one workload, keyed by CLI command."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "audit":
        # the cancellation check runs at the first pair's D; D >= 1 keeps
        # its error near 6e-7 (it reaches 1.8e-6 at D = 0.5, eps = 0.05)
        pairs = [[_round(rng.uniform(low, 2.0)), _round(rng.uniform(0.05, 0.2))]
                 for low in (1.0, 0.5, 0.5, 0.5, 0.5, 0.5)]
        moments = {
            "name": "bench_moments",
            "moments": {
                "pairs": pairs,
                "tolerance": MOMENTS_TOLERANCE,
                "cancellation": {"k": 1.0, "x": 0.5, "eps": 0.1},
            },
        }
        audit = {
            "name": "bench_audit",
            "grid": {"x_min": -8.0, "x_max": 8.0, "n": 1024},
            "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.4}},
            "schedule": {"eps_ladder": AUDIT_LADDER},
            "audit": {
                "packets": [_packet(rng, (-1.2, 1.2), (0.7, 0.9), (0.3, 0.7))
                            for _ in range(3)],
                "variants": AUDIT_VARIANTS,
            },
        }
        return {"moments": moments, "audit": audit}
    if workload == "evolve_dense":
        return {"evolve": {
            "name": "bench_evolve",
            "grid": {"x_min": -12.0, "x_max": 12.0, "n": 2048},
            "packet": _packet(rng, (-1.0, 1.0), (0.75, 0.9), (0.0, 1.0)),
            "spec": HARMONIC_SPEC,
            "schedule": {"eps": 0.05, "n_steps": 600},
            "method": "dense",
        }}
    if workload == "compare":
        return {"compare": {
            "name": "bench_compare",
            "grid": {"x_min": -20.0, "x_max": 20.0, "n": 4096},
            "packet": _packet(rng, (-1.0, 1.0), (1.2, 1.8), (0.5, 1.5)),
            "spec": HARMONIC_SPEC,
            "schedule": {"eps_ladder": [0.02, 0.01, 0.005, 0.0025]},
            "method": "spectral",
            "compare": {"t_final": 1.0, "eps_ref": 0.0005,
                        "slope_band": COMPARE_BAND},
        }}
    if workload == "walk":
        return {"walk": {
            "name": "bench_walk",
            "spec": {"d": WALK_D, "u": {"kind": "linear", "slope": -WALK_THETA}},
            "schedule": {"eps": WALK_EPS, "n_steps": WALK_STEPS},
            "seed": rng.randrange(1, 2 ** 31),
            "walk": {"n_particles": WALK_PARTICLES, "bins": 50,
                     "x0": _round(rng.uniform(-1.0, 1.0))},
        }}
    raise ValueError(f"unknown workload {workload!r}")


def write_scenarios(workload: str, seed: int, directory: str) -> list:
    """Write the workload's scenario files; return (command, path, scenario)."""
    calls = []
    for command, scenario in generate(workload, seed).items():
        path = os.path.join(directory, f"{command}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(scenario, handle, indent=1)
        calls.append((command, path, scenario))
    return calls


def _summary(out_dir: str, scenario: dict, command: str) -> dict:
    path = os.path.join(out_dir, f"{scenario['name']}_{command}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _table(out_dir: str, scenario: dict, command: str) -> list:
    path = os.path.join(out_dir, f"{scenario['name']}_{command}.csv")
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def table_cells(out_dir: str, scenario: dict, command: str) -> int:
    """Number of cells in the CSV table a command wrote (header excluded)."""
    return sum(len(row) for row in _table(out_dir, scenario, command))


def _ou_law(x0: float) -> tuple[float, float]:
    t = WALK_EPS * WALK_STEPS
    mean = x0 * math.exp(-WALK_THETA * t)
    var = WALK_D / (2.0 * WALK_THETA) * (1.0 - math.exp(-2.0 * WALK_THETA * t))
    return mean, var


def check(command: str, scenario: dict, out_dir: str) -> list:
    """Physics checks on one command's outputs; returns the failures found."""
    s = _summary(out_dir, scenario, command)
    bad = []
    if command == "moments":
        tol = scenario["moments"]["tolerance"]
        if not s["max_rel_error"] <= tol:
            bad.append(f"moments: max rel error {s['max_rel_error']:.3e} > {tol:g}")
        expected = 4 * len(scenario["moments"]["pairs"]) + 1
        if s["n_checks"] != expected:
            bad.append(f"moments: {s['n_checks']} checks, expected {expected}")
    elif command == "audit":
        expect = {v["variant"]: v["expect"] for v in scenario["audit"]["variants"]}
        got = {v["variant"]: v["verdict"] for v in s["variants"]}
        if got != expect:
            bad.append(f"audit: verdicts {got} != expected {expect}")
    elif command == "evolve":
        drift = s["max_abs_norm_drift"]
        l2 = s["final_l2_error_vs_reference"]
        if not drift <= EVOLVE_MAX_NORM_DRIFT:
            bad.append(f"evolve: norm drift {drift:.3e} > {EVOLVE_MAX_NORM_DRIFT:g}")
        if l2 is None or not l2 <= EVOLVE_MAX_L2:
            bad.append(f"evolve: L2 distance to CN {l2} > {EVOLVE_MAX_L2:g}")
        step1 = float(_table(out_dir, scenario, command)[1]["l2_error_vs_reference"])
        if not step1 <= EVOLVE_MAX_STEP1_L2:
            bad.append(f"evolve: step-1 L2 distance to CN {step1:.4f} > "
                       f"{EVOLVE_MAX_STEP1_L2:g}")
        if s["n_steps"] != scenario["schedule"]["n_steps"]:
            bad.append(f"evolve: ran {s['n_steps']} steps")
    elif command == "compare":
        lo, hi = COMPARE_BAND
        xs = [math.log(e) for e in s["eps_ladder"]]
        ys = [math.log(e) for e in s["l2_errors"]]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        if not lo <= slope <= hi:
            bad.append(f"compare: slope {slope:.3f} outside [{lo}, {hi}]")
    elif command == "walk":
        n = scenario["walk"]["n_particles"]
        mean, var = _ou_law(scenario["walk"]["x0"])
        se_mean = math.sqrt(var / n)
        se_var = var * math.sqrt(2.0 / (n - 1))
        if abs(s["sample_mean"] - mean) > WALK_SIGMAS * se_mean:
            bad.append(f"walk: mean {s['sample_mean']:.5f} vs OU {mean:.5f}")
        if abs(s["sample_variance"] - var) > WALK_SIGMAS * se_var:
            bad.append(f"walk: variance {s['sample_variance']:.5f} vs OU {var:.5f}")
        if not s["l1_distance"] <= WALK_MAX_L1:
            bad.append(f"walk: histogram L1 {s['l1_distance']:.4f} > {WALK_MAX_L1}")
        if s["reference"] != "diffusion_oracle":
            bad.append(f"walk: reference {s['reference']!r}")
    return bad
