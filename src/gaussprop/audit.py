"""Norm-conservation audits for the complex kernel's correction term.

The single-step propagator conserves the norm only when the real part of the
correction exponent is a = (1/2) du/dx, the a that kernel.a_field gives the
admissible variant.  Everything here turns that statement into measurements:

  * analytic_drift_rate integrates psi* (du/dx - 2a) psi, the instantaneous
    d/dt of the squared norm once boundary fluxes vanish,
  * empirical_a_scan rediscovers the required constant a for linear drift by
    minimizing a measured one-step drift, without assuming the answer: a
    constant a scales the kernel, and so the step, by exp(-eps a), so one
    step without T, of norm n1, prices each a at |exp(-2 eps a) n1 - n0|,
  * audit_packets fits the order of each state's per-step defect on an eps
    ladder and issues a conserves/drifts verdict, stepping every state on
    one grid with one dense operator per eps,
  * phase_freedom_check certifies that shifting b by a constant changes a
    global phase and nothing else.

Predicted rates for the broken variants (rate = d|psi|^2_tot/dt at eps -> 0):

    no T          +int u' |psi|^2 dx           (a = 0, kernel.a_field)
    endpoint T    -int u' |psi|^2 dx           (a = u', kernel.a_field)
    complex D     +Im(D) int |psi'|^2 dx
    complex u     -2 Im(u) int Im(psi* psi') dx
    x-dep D       -int D' Im(psi* psi') dx

The last follows from the source-point evaluation of the kernel: expanding
the step in kernel moments gives the generator (i/2) d^2(D psi)/dx^2, whose
anti-Hermitian defect is the flux -D' Im(psi* psi').
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (FieldSpec, PropagatorSpec, WaveState, check_boundary_decay,
                     norm)
from .kernel import a_field
from .propagate import dense_stepper, last, march, wave_stepper

CONSERVE_ORDER = 2.0
DRIFT_ORDER_MARGIN = 0.3
MIN_LADDER_RUNGS = 4  # eps values needed to fit a drift order
_ROUNDOFF_DRIFT = 1e-13


def _central(values: np.ndarray, dx: float) -> np.ndarray:
    padded = np.zeros(len(values) + 2, dtype=values.dtype)
    padded[1:-1] = values
    return (padded[2:] - padded[:-2]) / (2.0 * dx)


def analytic_drift_rate(state: WaveState, spec: PropagatorSpec,
                        a_field: FieldSpec) -> float:
    """int psi* (du/dx - 2a) psi dx, the norm's instantaneous growth rate.

    Valid once the boundary fluxes vanish, which is why the state must decay
    at the grid edges.
    """
    check_boundary_decay(state)
    x = state.grid.x
    du = spec.u.derivative_field()(x)
    a = a_field(x)
    weight = np.abs(state.psi) ** 2
    return float(np.sum((du - 2.0 * a) * weight) * state.grid.dx)


def predicted_drift_rate(state: WaveState, spec: PropagatorSpec) -> float:
    """Small-eps norm growth rate for spec's variant (0 when admissible)."""
    grid = state.grid
    x, dx = grid.x, grid.dx
    psi = state.psi
    if spec.is_admissible():
        return 0.0
    if spec.variant in ("no_t", "endpoint_t"):
        return analytic_drift_rate(state, spec, a_field(spec))
    dpsi = _central(psi, dx)
    if spec.variant == "complex_d":
        return float(spec.im_d * np.sum(np.abs(dpsi) ** 2) * dx)
    current = np.imag(np.conj(psi) * dpsi)
    if spec.variant == "complex_u":
        return float(-2.0 * spec.im_u * np.sum(current) * dx)
    if spec.variant == "x_dependent_d":
        ddx = spec.d_field.derivative_field()(x)
        return float(-np.sum(ddx * current) * dx)
    raise ValueError(f"no drift-rate prediction for variant {spec.variant!r}")


@dataclass(frozen=True)
class AScanResult:
    candidates: tuple
    drifts: tuple
    best: float


def empirical_a_scan(state: WaveState, eps: float, spec: PropagatorSpec,
                     candidates) -> AScanResult:
    """Find the constant a minimizing one-step |norm drift|, blind to theory.

    Meant for an admissible spec with linear u, where the optimum is a
    single scalar; one dense step without T prices every candidate.  A
    minimum on the edge of the candidate range is rejected unless the drift
    profile has flattened there, since an edge minimum on a still-steep
    profile means the true optimum lies outside the range.
    """
    if not spec.is_admissible():
        raise ValueError(f"the a scan needs an admissible spec, got variant {spec.variant!r}")
    cand = [float(c) for c in candidates]
    if len(cand) < 3:
        raise ValueError("need at least 3 candidate values")
    n0 = norm(state)
    n1 = norm(dense_stepper(state.grid, eps, replace(spec, variant="no_t"))(state))
    drifts = np.abs(np.exp(-2.0 * eps * np.array(cand)) * n1 - n0).tolist()
    idx = int(np.argmin(drifts))
    if idx in (0, len(cand) - 1):
        neighbor = drifts[1] if idx == 0 else drifts[-2]
        if drifts[idx] > 0.5 * neighbor:
            raise ValueError(
                f"candidate range [{cand[0]}, {cand[-1]}] does not bracket "
                f"the drift minimum")
    return AScanResult(candidates=tuple(cand), drifts=tuple(drifts),
                       best=cand[idx])


@dataclass(frozen=True)
class AuditReport:
    """Per-variant norm-drift measurement over an eps ladder."""

    variant: str
    eps_ladder: tuple
    drifts: tuple          # signed norm change per step, one per eps
    fitted_order: float
    predicted_rate: float

    @property
    def verdict(self) -> str:
        """conserves from a fitted order of CONSERVE_ORDER - DRIFT_ORDER_MARGIN up."""
        return ("conserves" if self.fitted_order >= CONSERVE_ORDER - DRIFT_ORDER_MARGIN
                else "drifts")


def audit_packets(states, spec: PropagatorSpec, eps_ladder) -> list:
    """One dense step per eps for each state; fit log|drift| vs log eps;
    issue each state's verdict.

    Order ~2 means the variant conserves; order ~1 means a genuine
    linear-in-eps leak.  The O(eps^2) defect is not the quadrature's: it is
    the source map's Jacobian.  For linear u one step scales every packet's
    norm by exp(-2 eps a) / (1 - eps u'), whatever the packet, and a = u'/2
    cancels only the O(eps) term.  The states must share one grid, and one
    dense operator per eps steps them all; each still passes the stepper's
    boundary-decay and phase-resolution checks on every step.
    """
    states = list(states)
    ladder = sorted((float(e) for e in eps_ladder), reverse=True)
    if len(ladder) < MIN_LADDER_RUNGS:
        raise ValueError(f"need at least {MIN_LADDER_RUNGS} eps values to fit a drift order")
    if not states:
        raise ValueError("need at least one state to audit")
    grid = states[0].grid
    if any(state.grid != grid for state in states):
        raise ValueError("audited states must share one grid")
    starts = [norm(state) for state in states]
    drifts = [[] for _ in states]
    for eps in ladder:
        step = dense_stepper(grid, eps, spec)
        for state, n0, out in zip(states, starts, drifts):
            out.append(norm(step(state)) - n0)
    return [_audit_report(state, spec, ladder, d) for state, d in zip(states, drifts)]


def _audit_report(state: WaveState, spec: PropagatorSpec, ladder: list,
                  drifts: list) -> AuditReport:
    mags = np.abs(np.array(drifts))
    if np.max(mags) < _ROUNDOFF_DRIFT:
        order = float("inf")
    else:
        order = float(np.polyfit(np.log(ladder),
                                 np.log(np.maximum(mags, 1e-300)), 1)[0])
    return AuditReport(variant=spec.variant, eps_ladder=tuple(ladder),
                       drifts=tuple(float(d) for d in drifts),
                       fitted_order=order,
                       predicted_rate=predicted_drift_rate(state, spec))


@dataclass(frozen=True)
class PhaseShiftReport:
    density_max_diff: float
    phase_measured: float
    phase_expected: float
    phase_error: float


def phase_freedom_check(state: WaveState, eps: float, spec: PropagatorSpec,
                        c: float, n_steps: int = 10,
                        method: str = "dense") -> PhaseShiftReport:
    """Run b and b+c side by side; b+c must only rotate the global phase.

    The constant factor exp(-i eps c) leaves the step integral unchanged
    otherwise, so densities agree to round-off and the accumulated phase is
    -c n eps mod 2pi.  Both stepping methods carry b the same way, so the
    property can be checked on whichever grid regime suits the step size.
    """
    x = state.grid.x
    shifted = replace(spec, b=FieldSpec.tabulated(x, spec.b(x) + c))
    base = last(march(state, n_steps, wave_stepper(state.grid, eps, spec, method)))
    moved = last(march(state, n_steps, wave_stepper(state.grid, eps, shifted, method)))
    density_diff = float(np.max(np.abs(np.abs(moved.psi) ** 2
                                       - np.abs(base.psi) ** 2)))
    overlap = np.sum(np.conj(base.psi) * moved.psi) * state.grid.dx
    measured = float(np.angle(overlap))
    expected = float(np.angle(np.exp(-1j * c * n_steps * eps)))
    error = float(np.abs(np.angle(np.exp(1j * (measured - expected)))))
    return PhaseShiftReport(density_max_diff=density_diff,
                            phase_measured=measured,
                            phase_expected=expected,
                            phase_error=error)

