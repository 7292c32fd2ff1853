"""Command line front end: scenario JSON in, CSV plus JSON summary out.

Five subcommands share one shape: load a scenario file, run, write a CSV
table and a JSON summary next to each other, print a short report.  Exit
codes are part of the contract: 0 success, 1 a quality gate failed (audit
expectations, moment tolerance, convergence slope band), 2 the scenario
is invalid or incomplete for the command, 3 the run aborted for a physics
reason (a kernel phase unresolvable, a packet at the grid edge).

compare measures the kernel steps against the exact Gaussian state when the
spec has one (constant D, u of degree <= 1 and b a polynomial;
reference.exact_state) and against a Crank-Nicolson march of step eps_ref
otherwise.  The input decides; eps_ref is checked for every spec all the same.

Every run writes <name>_<command>.csv and .json into --out, else
$GAUSSPROP_OUT, else the working directory.  Writes are atomic and the files
carry no timestamps, so a rerun with the same inputs is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .audit import MIN_LADDER_RUNGS, audit_packets
from .fields import BoundaryDecayError, FieldSpec, PropagatorSpec, moments
from .fresnel import MOMENT_ORDERS, cancellation_check, closed_moment, fresnel_moments
from .propagate import METHODS, ValidityError, last, march, wave_stepper
from .reference import cn_stepper, exact_state, has_exact_state, to_hamiltonian
from .scenario import Scenario, ScenarioError, load_scenario
from .walk import MIN_HISTOGRAM_PARTICLES, gaussian_law, histogram_compare, sample_paths


@dataclass
class RunResult:
    header: tuple
    rows: list
    summary: dict
    passed: bool = True
    lines: list = field(default_factory=list)


def _l2_distance(a: np.ndarray, b: np.ndarray, dx: float) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * dx))


def _run_evolve(sc: Scenario, args) -> RunResult:
    sc.require("grid", "packet", "spec", "eps", "n_steps")
    method = args.method or sc.method
    state0 = sc.packet.build(sc.grid)
    kernel = march(state0, sc.n_steps, wave_stepper(sc.grid, sc.eps, sc.spec, method))
    reference = itertools.repeat(None)
    if sc.spec.is_admissible():
        ham = to_hamiltonian(sc.spec, sc.grid)
        reference = march(state0, sc.n_steps, cn_stepper(sc.grid, sc.eps, ham))

    # the two streams advance in lockstep: one row per step, no stored states
    rows = []
    for i, (state, ref) in enumerate(zip(kernel, reference)):
        mass, mean, var = moments(state)
        err = (_l2_distance(state.psi, ref.psi, sc.grid.dx)
               if ref is not None else float("nan"))
        rows.append((i, state.time, mass, mean, var, err))

    _, final_time, final_norm, _, _, final_err = rows[-1]
    summary = {
        "method": method,
        "eps": sc.eps,
        "n_steps": sc.n_steps,
        "final_time": final_time,
        "final_norm": final_norm,
        "max_abs_norm_drift": max(abs(row[2] - rows[0][2]) for row in rows),
        "final_l2_error_vs_reference": None if math.isnan(final_err) else final_err,
    }
    lines = [f"evolve [{method}]: {sc.n_steps} steps of eps={sc.eps:g}, "
             f"final norm {final_norm:.12f}"]
    if sc.spec.is_admissible():
        lines.append(f"  final L2 distance to the integrator reference: {final_err:.3e}")
    return RunResult(
        header=("step", "time", "norm", "mean_position", "position_variance",
                "l2_error_vs_reference"),
        rows=rows, summary=summary, lines=lines)


def _run_audit(sc: Scenario, args) -> RunResult:
    sc.require("grid", "spec", "audit", "eps_ladder")
    if len(sc.eps_ladder) < MIN_LADDER_RUNGS:
        raise ScenarioError(f"scenario.schedule.eps_ladder: need at least {MIN_LADDER_RUNGS} "
                            f"eps values to fit a drift order, got {len(sc.eps_ladder)}")
    rows, variants_out, lines = [], [], []
    passed = True
    states = [packet.build(sc.grid) for packet in sc.audit.packets]
    for case in sc.audit.variants:
        variant = case.spec.variant
        packet_reports = list(zip(sc.audit.packets,
                                  audit_packets(states, case.spec, sc.eps_ladder)))
        for packet, report in packet_reports:
            for eps, drift in zip(report.eps_ladder, report.drifts):
                rows.append((variant, packet.x0, packet.sigma0, packet.k0,
                             eps, drift, report.fitted_order, report.verdict))
        verdict = ("conserves"
                   if all(r.verdict == "conserves" for _, r in packet_reports)
                   else "drifts")
        ok = verdict == case.expect
        passed = passed and ok
        variants_out.append({
            "variant": variant,
            "expect": case.expect,
            "verdict": verdict,
            "matches_expectation": ok,
            "packets": [
                {"x0": p.x0, "sigma0": p.sigma0, "k0": p.k0,
                 # inf (drift at round-off) has no JSON literal
                 "fitted_order": None if math.isinf(r.fitted_order) else r.fitted_order,
                 "predicted_rate": r.predicted_rate,
                 "verdict": r.verdict}
                for p, r in packet_reports
            ],
        })
        orders = ", ".join(f"{r.fitted_order:.2f}" for _, r in packet_reports)
        marker = "ok" if ok else "MISMATCH"
        lines.append(f"  {variant}: {verdict} (expected {case.expect}, "
                     f"{marker}); drift orders per packet: {orders}")
    summary = {
        "eps_ladder": list(sc.eps_ladder),
        "variants": variants_out,
        "passed": passed,
    }
    lines.insert(0, f"audit: {len(sc.audit.variants)} variants x "
                    f"{len(sc.audit.packets)} packets on a "
                    f"{len(sc.eps_ladder)}-rung eps ladder")
    return RunResult(
        header=("variant", "packet_x0", "packet_sigma0", "packet_k0", "eps",
                "norm_change_per_step", "fitted_order", "packet_verdict"),
        rows=rows, summary=summary, passed=passed, lines=lines)


def _run_moments(sc: Scenario, args) -> RunResult:
    sc.require("moments")
    ms = sc.moments
    checks = []  # (diffusivity, eps, check, quadrature, closed form)
    for d, eps in ms.pairs:
        values = fresnel_moments(MOMENT_ORDERS, d, eps, ms.delta0)
        checks += [(d, eps, f"moment_{n}", q, closed_moment(n, d, eps))
                   for n, q in zip(MOMENT_ORDERS, values)]
    if ms.cancellation is not None:
        cs = ms.cancellation
        spec = PropagatorSpec(d=ms.pairs[0][0], u=FieldSpec.sine(1.0, cs.k))
        res = cancellation_check(spec, cs.x, cs.eps, delta0=ms.delta0)
        checks.append((spec.d, cs.eps, "cancellation", res.quadrature, res.closed_form))
    rows, max_rel = [], 0.0
    for d, eps, check, q, c in checks:
        abs_err = abs(q - c)
        rel = abs_err / abs(c) if abs(c) > 0.0 else abs_err
        max_rel = max(max_rel, rel)
        rows.append((d, eps, check, q.real, q.imag, c.real, c.imag, abs_err, rel))
    passed = max_rel <= ms.tolerance
    summary = {
        "tolerance": ms.tolerance,
        "max_rel_error": max_rel,
        "n_checks": len(rows),
        "passed": passed,
    }
    lines = [f"moments: {len(rows)} checks, max relative error {max_rel:.3e} "
             f"(tolerance {ms.tolerance:g})"]
    return RunResult(
        header=("diffusivity", "eps", "check", "quadrature_real",
                "quadrature_imag", "closed_real", "closed_imag", "abs_error",
                "rel_error"),
        rows=rows, summary=summary, passed=passed, lines=lines)


def _run_walk(sc: Scenario, args) -> RunResult:
    sc.require("spec", "walk", "eps", "n_steps")
    ws = sc.walk
    if ws.n_particles < MIN_HISTOGRAM_PARTICLES:
        raise ScenarioError(f"scenario.walk.n_particles: need >= {MIN_HISTOGRAM_PARTICLES} "
                            f"particles for a stable histogram, got {ws.n_particles}")
    seed = args.seed if args.seed is not None else sc.seed
    ensemble = sample_paths(ws.n_particles, sc.n_steps, sc.eps, sc.spec,
                            seed, x0=ws.x0, step_law=ws.step_law)
    comparison = histogram_compare(ensemble, sc.spec, bins=ws.bins)
    rows = [
        (float(comparison.edges[i]), float(comparison.edges[i + 1]),
         float(comparison.density[i]), float(comparison.reference_density[i]))
        for i in range(len(comparison.density))
    ]
    t = ensemble.time
    expected_mean, expected_var = gaussian_law(ensemble, sc.spec) or (None, None)
    summary = {
        "seed": seed,
        "n_particles": ws.n_particles,
        "n_steps": sc.n_steps,
        "eps": sc.eps,
        "time": t,
        "step_law": ws.step_law,
        "sample_mean": ensemble.sample_mean(),
        "sample_variance": ensemble.sample_variance(),
        "expected_mean": expected_mean,
        "expected_variance": expected_var,
        "l1_distance": comparison.l1,
        "reference": comparison.reference,
    }
    lines = [f"walk: {ws.n_particles} particles, {sc.n_steps} steps of "
             f"eps={sc.eps:g} (seed {seed})",
             f"  sample mean {ensemble.sample_mean():+.4f}, variance "
             f"{ensemble.sample_variance():.4f}; histogram L1 distance to the "
             f"{comparison.reference} law {comparison.l1:.4f}"]
    return RunResult(
        header=("bin_left", "bin_right", "observed_density",
                "reference_density"),
        rows=rows, summary=summary, lines=lines)


def _steps_for(t_final: float, eps: float, key: str) -> int:
    n = round(t_final / eps)
    if n < 1 or abs(n * eps - t_final) > 1e-9 * max(1.0, n):
        raise ScenarioError(f"scenario.{key}: eps={eps:g} does not divide "
                            f"compare.t_final={t_final:g}")
    return n


def _run_compare(sc: Scenario, args) -> RunResult:
    sc.require("grid", "packet", "spec", "eps_ladder", "compare")
    cs = sc.compare
    method = args.method or sc.method
    # only the CN fallback needs H; mapping a variant is a ValueError: exit 2
    ham = None if has_exact_state(sc.spec) else to_hamiltonian(sc.spec, sc.grid)
    if cs.eps_ref is not None:
        eps_ref, ref_key = cs.eps_ref, "compare.eps_ref"
    else:
        eps_ref, ref_key = min(sc.eps_ladder) / 5.0, "schedule.eps_ladder"
    ref_steps = _steps_for(cs.t_final, eps_ref, ref_key)  # checked even if unused
    ladder_steps = [_steps_for(cs.t_final, eps, "schedule.eps_ladder") for eps in sc.eps_ladder]
    state0 = sc.packet.build(sc.grid)
    if ham is None:
        p = sc.packet
        ref = exact_state(sc.grid, sc.spec, p.x0, p.sigma0, p.k0, cs.t_final)
        reference, eps_ref, against = "exact", None, "the exact solution"
    else:
        ref = last(march(state0, ref_steps, cn_stepper(sc.grid, eps_ref, ham)))
        reference, against = "cn", f"the eps={eps_ref:g} CN reference"

    rows, errors = [], []
    for eps, n in zip(sc.eps_ladder, ladder_steps):
        final = last(march(state0, n, wave_stepper(sc.grid, eps, sc.spec, method)))
        err = _l2_distance(final.psi, ref.psi, sc.grid.dx)
        rows.append((eps, n, err))
        errors.append(err)
    log_eps, log_err = np.log(sc.eps_ladder), np.log(errors)
    slope = float(np.polyfit(log_eps, log_err, 1)[0])
    local_slopes = (np.diff(log_err) / np.diff(log_eps)).tolist()
    lo, hi = cs.slope_band
    passed = lo <= slope <= hi
    summary = {
        "method": method,
        "t_final": cs.t_final,
        "reference": reference,
        "eps_ref": eps_ref,
        "eps_ladder": list(sc.eps_ladder),
        "l2_errors": errors,
        "slope": slope,
        "local_slopes": local_slopes,
        "slope_band": [lo, hi],
        "passed": passed,
    }
    lines = [f"compare [{method}]: errors at t={cs.t_final:g} against {against}",
             f"  fitted convergence slope {slope:.3f} "
             f"(accepted band [{lo:g}, {hi:g}]), local slopes "
             + ", ".join(f"{s:.3f}" for s in local_slopes)]
    return RunResult(header=("eps", "n_steps", "l2_error_vs_reference"),
                     rows=rows, summary=summary, passed=passed, lines=lines)


_RUNNERS = {
    "evolve": _run_evolve,
    "audit": _run_audit,
    "moments": _run_moments,
    "walk": _run_walk,
    "compare": _run_compare,
}


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_outputs(result: RunResult, out_dir: str, stem: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.json")
    csv_lines = [",".join(result.header)]
    csv_lines.extend(",".join(_fmt_cell(cell) for cell in row)
                     for row in result.rows)
    _atomic_write(csv_path, "\n".join(csv_lines) + "\n")
    _atomic_write(json_path,
                  json.dumps(result.summary, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussprop",
        description="Run single-step propagator scenarios: evolve packets, "
                    "audit norm conservation, check kernel moments, sample "
                    "random walks, compare against the exact or integrator reference.")
    parser.set_defaults(seed=None, method=None)  # for the commands without them
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "evolve": "evolve a packet and tabulate norm, moments, and reference error",
        "audit": "measure norm drift for propagator variants over an eps ladder",
        "moments": "verify regularized kernel moments against closed forms",
        "walk": "sample random-walk paths and compare the final histogram",
        "compare": "fit the convergence slope against the exact or integrator reference",
    }
    for name in ("evolve", "audit", "moments", "walk", "compare"):
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=None,
                       help="output directory (default: $GAUSSPROP_OUT or .)")
        if name == "walk":
            p.add_argument("--seed", type=int, default=None,
                           help="override the scenario seed")
        if name in ("evolve", "compare"):
            p.add_argument("--method", choices=METHODS,
                           default=None, help="override the scenario method")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        sc = load_scenario(args.scenario)
        result = _RUNNERS[args.command](sc, args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidityError, BoundaryDecayError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or os.environ.get("GAUSSPROP_OUT") or "."
    result.summary.update(command=args.command, scenario=sc.name)
    try:
        csv_path, json_path = _write_outputs(result, out_dir, f"{sc.name}_{args.command}")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2

    for line in result.lines:
        print(line)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    if args.command in ("audit", "moments", "compare"):
        print(f"{args.command}: {'PASS' if result.passed else 'FAIL'}")
    return 0 if result.passed else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
