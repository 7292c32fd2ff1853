"""Command line front end: scenario JSON in, CSV plus JSON summary out.

Five subcommands share one shape: load a scenario file, run, write a CSV table
and a JSON summary next to each other, print a short report.  Exit codes are
part of the contract: 0 success, 1 a quality gate failed (audit expectations,
moment tolerance, convergence slope band), 2 the scenario is invalid or
incomplete for the command, 3 the run aborted for a physics reason (a kernel
phase unresolvable, a packet at the grid edge, a walk or a moment past float64).

compare and evolve measure the kernel against the exact Gaussian state when
the spec has one (constant D, u of degree <= 1, b a polynomial) and else
against a Strang split-step march (propagate.split_stepper) of step eps_ref
(default: the smallest rung / 5) for compare, of evolve's own eps for evolve.
The input decides; compare checks eps_ref for every spec all the same.  A
variant has no reference: evolve tabulates none, and compare refuses it.

Every run writes <name>_<command>.csv and .json into --out, else
$GAUSSPROP_OUT, else the working directory.  Writes are atomic and the files
carry no timestamps, so a rerun with the same inputs is byte-identical.

evolve marches the kernel, and the split reference, on the caller's thread,
and computes the rows (moments, the exact state, the L2 distance) one block
behind, on one worker thread (propagate.one_behind), while the march goes on;
a block holds as many states as fit _BLOCK_BYTES (256 KiB).  On one usable
CPU the blocks are computed on the caller's thread.  The rows, the error and
the exit code are those of computing one row per step: a step's error is
raised once the row of every earlier state has been computed.

COMMANDS is the one place a command is declared: runner, required sections,
option and help.  A command is gated iff its summary has "passed", which alone
decides PASS or FAIL and exit 0 or 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from .audit import MIN_LADDER_RUNGS, audit_packets
from .fields import BoundaryDecayError, FieldSpec, density_moments
from .fresnel import MOMENT_ORDERS, cancellation_check, closed_moment, pair_moments
from .propagate import (METHODS, ValidityError, chirp_z_applies, finals, march,
                        one_behind, split_stepper, usable_cpus, wave_stepper)
from .reference import exact_evolution, exact_state, has_exact_state
from .scenario import Scenario, ScenarioError, load_scenario
from .walk import MIN_HISTOGRAM_PARTICLES, gaussian_law, histogram_compare, sample_paths


class RunResult(NamedTuple):
    header: tuple
    rows: list
    summary: dict  # a gated command's "passed" is its verdict
    lines: list


def _l2_distance(a: np.ndarray, b: np.ndarray, dx: float, diff: np.ndarray | None = None,
                 sq: np.ndarray | None = None):
    """The L2 distance between a and b, reduced along the last axis: one for two
    states, an array over the rows of two (K, n) blocks.  a - b is written into diff
    and |a - b|^2 into sq, arrays of a's shape (new ones if None)."""
    sq = np.abs(np.subtract(a, b, out=diff), out=sq)
    return np.sqrt(np.sum(np.square(sq, out=sq), axis=-1) * dx)


# the bytes of one block of complex rows: 8 rows at n = 2048, 4 at n = 4096
_BLOCK_BYTES = 256 * 2 ** 10


def _settled(pairs, aborted: list):
    """The pairs, each once the march has stepped past it (the step passed the
    state's guards) or has ended.  A step's error ends them and joins aborted."""
    held = None
    try:
        for pair in pairs:
            if held is not None:
                yield held
            held = pair
    except (ValueError, ValidityError) as exc:
        aborted.append(exc)
    if held is not None:
        yield held


def _blocks(pairs, n: int):
    """Blocks (first step, times, psi, ref) of up to _BLOCK_BYTES of rows of the
    pairs (state, reference state or None), their psi copied into one of two
    buffers, each allocated on its first pair (ref None with no reference
    states).  A block's buffer is filled again once the next block has been
    taken: one_behind has then ended its work."""
    size = max(1, _BLOCK_BYTES // (16 * n))
    buffers, times, first = [None, None], [], 0
    for state, ref in pairs:
        parity = first // size % 2
        if buffers[parity] is None:
            buffers[parity] = np.empty((1 if ref is None else 2, size, n), dtype=complex)
        block = buffers[parity]
        block[0, len(times)] = state.psi
        if ref is not None:
            block[1, len(times)] = ref.psi
        times.append(state.time)
        if len(times) == size:
            yield first, times, block[0], block[1] if ref is not None else None
            first, times = first + size, []
    if times:
        k = len(times)
        yield first, times, block[0, :k], block[1, :k] if ref is not None else None


def _run_evolve(sc: Scenario) -> RunResult:
    grid = sc.grid
    state0 = sc.packet.build(grid)
    kernel = march(state0, sc.n_steps, wave_stepper(grid, sc.eps, sc.spec, sc.method))
    exact = split = None
    if has_exact_state(sc.spec):
        p = sc.packet
        exact = exact_evolution(grid, sc.spec, p.x0, p.sigma0, p.k0)  # built once
        reference, against = "exact", "the exact solution"
    elif sc.spec.is_admissible():
        split = march(state0, sc.n_steps, split_stepper(grid, sc.eps, sc.spec))
        reference, against = "split", f"the eps={sc.eps:g} split-step reference"
    else:  # a variant has no Schrodinger reference
        reference = None
    pairs = ((state, None) for state in kernel) if split is None else zip(kernel, split)

    def block_rows(block):
        first, times, psi, ref = block
        if exact is not None:
            ref = exact(times, out=np.empty_like(psi))
        w, work = np.empty((2,) + psi.shape)
        mass, mean, var = density_moments(np.square(np.abs(psi, out=w), out=w), grid, work)
        err = ([math.nan] * len(times) if ref is None
               else _l2_distance(psi, ref, grid.dx, diff=ref, sq=work).tolist())
        return list(zip(range(first, first + len(times)), times, mass.tolist(),
                        mean.tolist(), var.tolist(), err))

    # The kernel and its split reference march on this thread, and each block of
    # rows is computed on one worker thread while they march the next.  A step's
    # error is raised once the rows of every earlier state are computed.
    aborted = []
    blocks = one_behind(_blocks(_settled(pairs, aborted), grid.n), block_rows, usable_cpus())
    if aborted:
        raise aborted[0]
    rows = [row for block in blocks for row in block]

    _, final_time, final_norm, _, _, final_err = rows[-1]
    summary = {
        "method": sc.method,
        "eps": sc.eps,
        "n_steps": sc.n_steps,
        "final_time": final_time,
        "final_norm": final_norm,
        "max_abs_norm_drift": max(abs(row[2] - rows[0][2]) for row in rows),
        "final_l2_error_vs_reference": None if math.isnan(final_err) else final_err,
        "reference": reference,
    }
    lines = [f"evolve [{sc.method}]: {sc.n_steps} steps of eps={sc.eps:g}, "
             f"final norm {final_norm:.12f}"]
    if reference is not None:
        lines.append(f"  final L2 distance to {against}: {final_err:.3e}")
    return RunResult(
        header=("step", "time", "norm", "mean_position", "position_variance",
                "l2_error_vs_reference"),
        rows=rows, summary=summary, lines=lines)


def _run_audit(sc: Scenario) -> RunResult:
    if len(sc.eps_ladder) < MIN_LADDER_RUNGS:
        raise ScenarioError(f"scenario.schedule.eps_ladder: need at least {MIN_LADDER_RUNGS} "
                            f"eps values to fit a drift order, got {len(sc.eps_ladder)}")
    rows, variants_out, lines = [], [], []
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
        "passed": all(v["matches_expectation"] for v in variants_out),
    }
    lines.insert(0, f"audit: {len(sc.audit.variants)} variants x "
                    f"{len(sc.audit.packets)} packets on a "
                    f"{len(sc.eps_ladder)}-rung eps ladder")
    return RunResult(
        header=("variant", "packet_x0", "packet_sigma0", "packet_k0", "eps",
                "norm_change_per_step", "fitted_order", "packet_verdict"),
        rows=rows, summary=summary, lines=lines)


def _run_moments(sc: Scenario) -> RunResult:
    ms = sc.moments
    checks = []  # (diffusivity, eps, check, quadrature, closed form)
    with np.errstate(all="ignore"):  # a value past float64 is refused below, not warned about
        for (d, eps), values in zip(ms.pairs, pair_moments(MOMENT_ORDERS, ms.pairs, ms.delta0)):
            checks += [(d, eps, f"moment_{n}", q, closed_moment(n, d, eps))
                       for n, q in zip(MOMENT_ORDERS, values)]
        if ms.cancellation is not None:
            cs = ms.cancellation
            d = ms.pairs[0][0]
            res = cancellation_check(d, FieldSpec.sine(1.0, cs.k), cs.x, cs.eps,
                                     delta0=ms.delta0)
            checks.append((d, cs.eps, "cancellation", res.quadrature, res.closed_form))
    rows, max_rel = [], 0.0
    for d, eps, check, q, c in checks:
        if not np.isfinite([q, c]).all():
            raise ValidityError(f"{check} at D = {d:g}, eps = {eps:g} leaves float64: "
                                f"quadrature {q}, closed form {c}")
        abs_err = abs(q - c)
        rel = abs_err / abs(c) if abs(c) > 0.0 else abs_err
        max_rel = max(max_rel, rel)
        rows.append((d, eps, check, q.real, q.imag, c.real, c.imag, abs_err, rel))
    summary = {
        "tolerance": ms.tolerance,
        "max_rel_error": max_rel,
        "n_checks": len(rows),
        "passed": max_rel <= ms.tolerance,
    }
    lines = [f"moments: {len(rows)} checks, max relative error {max_rel:.3e} "
             f"(tolerance {ms.tolerance:g})"]
    return RunResult(
        header=("diffusivity", "eps", "check", "quadrature_real",
                "quadrature_imag", "closed_real", "closed_imag", "abs_error",
                "rel_error"),
        rows=rows, summary=summary, lines=lines)


def _run_walk(sc: Scenario) -> RunResult:
    ws = sc.walk
    if ws.n_particles < MIN_HISTOGRAM_PARTICLES:
        raise ScenarioError(f"scenario.walk.n_particles: need >= {MIN_HISTOGRAM_PARTICLES} "
                            f"particles for a stable histogram, got {ws.n_particles}")
    ensemble = sample_paths(ws.n_particles, sc.n_steps, sc.eps, sc.spec,
                            sc.seed, x0=ws.x0, step_law=ws.step_law)
    comparison = histogram_compare(ensemble, sc.spec, bins=ws.bins)
    edges = comparison.edges.tolist()
    rows = list(zip(edges[:-1], edges[1:], comparison.density.tolist(),
                    comparison.reference_density.tolist()))
    t = ensemble.time
    expected_mean, expected_var = gaussian_law(ensemble, sc.spec) or (None, None)
    summary = {
        "seed": sc.seed,
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
             f"eps={sc.eps:g} (seed {sc.seed})",
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


def _run_compare(sc: Scenario) -> RunResult:
    cs = sc.compare
    if not sc.spec.is_admissible():  # no Schrodinger reference: exit 2, before any check
        raise ValueError("only the admissible variant maps to a Hamiltonian")
    if cs.eps_ref is not None:
        eps_ref, ref_key = cs.eps_ref, "compare.eps_ref"
    else:
        eps_ref, ref_key = min(sc.eps_ladder) / 5.0, "schedule.eps_ladder"
    ref_steps = _steps_for(cs.t_final, eps_ref, ref_key)  # checked even if unused
    ladder_steps = [_steps_for(cs.t_final, eps, "schedule.eps_ladder") for eps in sc.eps_ladder]
    state0 = sc.packet.build(sc.grid)
    runs = [(state0, n, lambda eps=eps: wave_stepper(sc.grid, eps, sc.spec, sc.method))
            for eps, n in zip(sc.eps_ladder, ladder_steps)]
    if has_exact_state(sc.spec):
        p = sc.packet
        ref = exact_state(sc.grid, sc.spec, p.x0, p.sigma0, p.k0, cs.t_final)
        reference, eps_ref, against = "exact", None, "the exact solution"
    else:
        runs.insert(0, (state0, ref_steps, lambda: split_stepper(sc.grid, eps_ref, sc.spec)))
        reference, against = "split", f"the eps={eps_ref:g} split-step reference"
    # a dense rung off the chirp-z class builds an n x n matrix: one at a time
    ends = finals(runs, serial=sc.method == "dense" and not chirp_z_applies(sc.spec))
    if reference == "split":
        ref = ends.pop(0)

    rows, errors = [], []
    for eps, n, final in zip(sc.eps_ladder, ladder_steps, ends):
        err = float(_l2_distance(final.psi, ref.psi, sc.grid.dx))
        rows.append((eps, n, err))
        errors.append(err)
    log_eps, log_err = np.log(sc.eps_ladder), np.log(errors)
    slope = float(np.polyfit(log_eps, log_err, 1)[0])
    local_slopes = (np.diff(log_err) / np.diff(log_eps)).tolist()
    lo, hi = cs.slope_band
    summary = {
        "method": sc.method,
        "t_final": cs.t_final,
        "reference": reference,
        "eps_ref": eps_ref,
        "eps_ladder": list(sc.eps_ladder),
        "l2_errors": errors,
        "slope": slope,
        "local_slopes": local_slopes,
        "slope_band": [lo, hi],
        "passed": lo <= slope <= hi,
    }
    lines = [f"compare [{sc.method}]: errors at t={cs.t_final:g} against {against}",
             f"  fitted convergence slope {slope:.3f} "
             f"(accepted band [{lo:g}, {hi:g}]), local slopes "
             + ", ".join(f"{s:.3f}" for s in local_slopes)]
    return RunResult(header=("eps", "n_steps", "l2_error_vs_reference"),
                     rows=rows, summary=summary, lines=lines)


class Command(NamedTuple):
    run: Callable[[Scenario], RunResult]
    needs: tuple  # the scenario sections Scenario.require checks first
    option: str | None  # the scenario setting --<option> overrides
    help: str


COMMANDS = {
    "evolve": Command(_run_evolve, ("grid", "packet", "spec", "eps", "n_steps"), "method",
                      "evolve a packet and tabulate norm, moments, and the distance to "
                      "the exact or split-step reference"),
    "audit": Command(_run_audit, ("grid", "spec", "audit", "eps_ladder"), None,
                     "measure norm drift for propagator variants over an eps ladder"),
    "moments": Command(_run_moments, ("moments",), None,
                       "verify regularized kernel moments against closed forms"),
    "walk": Command(_run_walk, ("spec", "walk", "eps", "n_steps"), "seed",
                    "sample random-walk paths and compare the final histogram"),
    "compare": Command(_run_compare, ("grid", "packet", "spec", "eps_ladder", "compare"),
                       "method", "fit the convergence slope against the exact or "
                                 "split-step reference"),
}

_OPTIONS = {
    "seed": {"type": int, "help": "override the scenario seed"},
    "method": {"choices": METHODS, "help": "override the scenario method"},
}


def _csv_line(row) -> str:
    # one %-format call per row: floats as %.17g, every other cell as str()
    return ",".join(["%.17g" if isinstance(cell, float) else "%s" for cell in row]) % tuple(row)


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
    csv_lines.extend(map(_csv_line, result.rows))
    _atomic_write(csv_path, "\n".join(csv_lines) + "\n")
    _atomic_write(json_path,
                  json.dumps(result.summary, sort_keys=True, indent=2) + "\n")
    return csv_path, json_path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussprop",
        description="Run single-step propagator scenarios: evolve packets, "
                    "audit norm conservation, check kernel moments, sample "
                    "random walks, compare against the exact or split-step reference.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=None,
                       help="output directory (default: $GAUSSPROP_OUT or .)")
        if command.option:
            p.add_argument(f"--{command.option}", default=None, **_OPTIONS[command.option])
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    command = COMMANDS[args.command]
    try:
        sc = load_scenario(args.scenario)
        sc.require(*command.needs)
        override = vars(args).get(command.option)
        if override is not None:
            sc = dataclasses.replace(sc, **{command.option: override})
        result = command.run(sc)
    except (ValueError, ValidityError) as exc:  # a ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (ValidityError, BoundaryDecayError)) else 2

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
    if "passed" in result.summary:
        print(f"{args.command}: {'PASS' if result.summary['passed'] else 'FAIL'}")
    return 0 if result.summary.get("passed", True) else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
