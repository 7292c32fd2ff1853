from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gaussprop import propagate
from gaussprop.audit import (CONSERVE_ORDER, DRIFT_ORDER_MARGIN, AuditReport, audit_packets,
                             phase_freedom_check, predicted_drift_rate)
from gaussprop.fields import (BoundaryDecayError, FieldSpec, PropagatorSpec, WaveState,
                              gaussian_packet, make_grid)
from gaussprop.kernel import a_field
from gaussprop.propagate import dense_stepper
from gaussprop.scenario import load_scenario

GRID = make_grid(-8.0, 8.0, 1024)
LINEAR_DRIFT = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4))
LADDER = (0.32, 0.16, 0.08, 0.04)


def test_analytic_rate_for_the_three_a_choices():
    """u' = 0.4: the rate int (u' - 2a) |psi|^2 is +0.4 without a, 0 at a = u'/2
    and -0.4 at a = u', each variant's a as kernel.a_field gives it."""
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    weight = np.abs(state.psi) ** 2
    for variant, rate in (("no_t", 0.4), ("admissible", 0.0), ("endpoint_t", -0.4)):
        spec = replace(LINEAR_DRIFT, variant=variant)
        law = np.sum((0.4 - 2.0 * a_field(spec)(GRID.x)) * weight) * GRID.dx
        assert law == pytest.approx(rate, abs=1e-9)
        assert predicted_drift_rate(state, spec) == pytest.approx(law, abs=1e-12)


def test_the_t_variants_rate_refuses_a_state_at_the_edges():
    """The rate omits the boundary fluxes, so it needs a state that has decayed there."""
    psi = gaussian_packet(GRID, x0=0.0, sigma0=0.8).psi.copy()
    psi[0] = psi.max()
    with pytest.raises(BoundaryDecayError):
        predicted_drift_rate(WaveState(GRID, psi), replace(LINEAR_DRIFT, variant="no_t"))


def test_required_a_presets():
    """The admissible variant's a is u'/2."""
    assert a_field(LINEAR_DRIFT)(np.zeros(3))[0] == pytest.approx(0.2)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 2.0))
    x = GRID.x
    assert np.allclose(a_field(spec)(x), 0.3 * np.cos(2.0 * x), atol=1e-12)


def test_predicted_rate_admissible_is_zero():
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    assert predicted_drift_rate(state, LINEAR_DRIFT) == 0.0


def test_predicted_rate_t_factor_variants():
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    no_t = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    endpoint = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="endpoint_t")
    assert predicted_drift_rate(state, no_t) == pytest.approx(0.4, abs=1e-9)
    assert predicted_drift_rate(state, endpoint) == pytest.approx(-0.4, abs=1e-9)


def test_predicted_rate_complex_diffusivity():
    """Rate Im(D) int |psi'|^2; the Gaussian gives 1/(4 sigma^2) + k0^2."""
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8, k0=0.5)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.1),
                          variant="complex_d", im_d=0.1)
    expected = 0.1 * (1.0 / (4.0 * 0.64) + 0.25)
    assert predicted_drift_rate(state, spec) == pytest.approx(expected, rel=1e-3)


def test_predicted_rate_complex_drift():
    """Rate -2 Im(u) k0 for a momentum-k0 packet."""
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8, k0=0.7)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4),
                          variant="complex_u", im_u=0.25)
    assert predicted_drift_rate(state, spec) == pytest.approx(-0.35, rel=1e-3)


def test_predicted_rate_varying_diffusivity():
    """Rate -int D'(x) Im(psi* psi'); closed form for Gaussian times cosine."""
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8, k0=0.7)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.1), variant="x_dependent_d",
                          d_field=FieldSpec.tabulated(GRID.x, 1.0 + 0.2 * np.sin(GRID.x)))
    expected = -0.2 * 0.7 * np.exp(-0.5 * 0.64)
    assert predicted_drift_rate(state, spec) == pytest.approx(expected, rel=5e-3)


@pytest.mark.parametrize("eps", (0.32, 0.04))
def test_a_constant_a_scales_the_dense_step(eps):
    """A constant a scales the step by exp(-eps a), which criterion 4's measure of the
    conserving a*(eps) rests on: a = u' = 0.4 is the step without T times exp(-0.4 eps)."""
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8, k0=0.7)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), b=FieldSpec.constant(0.3))
    without_t = dense_stepper(GRID, eps, replace(spec, variant="no_t"))(state).psi
    endpoint = dense_stepper(GRID, eps, replace(spec, variant="endpoint_t"))(state).psi
    expected = np.exp(-0.4 * eps) * without_t
    assert np.linalg.norm(endpoint - expected) <= 1e-14 * np.linalg.norm(expected)


def test_audit_admissible_conserves_at_second_order():
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    report = audit_packets([state], LINEAR_DRIFT, LADDER)[0]
    assert report.verdict == "conserves"
    assert report.fitted_order == pytest.approx(2.04, abs=0.1)
    assert report.predicted_rate == 0.0


def test_audit_missing_t_drifts_linearly():
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    report = audit_packets([state], spec, LADDER)[0]
    assert report.verdict == "drifts"
    assert report.fitted_order == pytest.approx(1.06, abs=0.1)
    assert report.drifts[0] > 0.0  # leaks outward, matching the +0.4 rate


def test_audit_endpoint_t_drifts_linearly():
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="endpoint_t")
    report = audit_packets([state], spec, LADDER)[0]
    assert report.verdict == "drifts"
    assert report.fitted_order == pytest.approx(0.95, abs=0.1)
    assert report.drifts[0] < 0.0


def test_audit_complex_drift_needs_momentum():
    state = gaussian_packet(GRID, x0=1.0, sigma0=0.8, k0=0.7)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4),
                          variant="complex_u", im_u=0.25)
    report = audit_packets([state], spec, LADDER)[0]
    assert report.verdict == "drifts"
    assert report.fitted_order == pytest.approx(1.0, abs=0.3)


def test_audit_needs_four_rungs():
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    with pytest.raises(ValueError):
        audit_packets([state], LINEAR_DRIFT, (0.2, 0.1, 0.05))


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("name", ["variants_audit", "complex_d_audit"])
def test_audit_packets_shares_one_operator_per_rung(name, monkeypatch):
    """All packets on one operator per eps: the reports of one at a time."""
    sc = load_scenario(SCENARIOS / f"{name}.json")
    states = [packet.build(sc.grid) for packet in sc.audit.packets]
    builds = []
    init = propagate.Step.__init__

    def counting(step, eps, guard, apply, build):
        init(step, eps, guard, apply, lambda: builds.append(eps) or build())

    for case in sc.audit.variants:
        alone = [audit_packets([state], case.spec, sc.eps_ladder)[0] for state in states]
        monkeypatch.setattr(propagate.Step, "__init__", counting)
        shared = audit_packets(states, case.spec, sc.eps_ladder)
        monkeypatch.undo()
        assert shared == alone
        assert sorted(builds, reverse=True) == sorted(sc.eps_ladder, reverse=True)
        builds.clear()


def test_audit_packets_needs_one_grid():
    states = [gaussian_packet(GRID, x0=0.0, sigma0=0.8),
              gaussian_packet(make_grid(-8.0, 8.0, 512), x0=0.0, sigma0=0.8)]
    with pytest.raises(ValueError, match="share one grid"):
        audit_packets(states, LINEAR_DRIFT, LADDER)
    with pytest.raises(ValueError):
        audit_packets([], LINEAR_DRIFT, LADDER)


def test_audit_verdict_turns_at_order_1_7():
    threshold = CONSERVE_ORDER - DRIFT_ORDER_MARGIN
    assert threshold == pytest.approx(1.7, abs=1e-15)
    cases = {threshold: "conserves", np.nextafter(threshold, 0.0): "drifts", 1.0: "drifts",
             2.0: "conserves", float("inf"): "conserves"}
    for order, verdict in cases.items():
        report = AuditReport(variant="no_t", eps_ladder=LADDER,
                             drifts=(0.1, 0.05, 0.025, 0.0125),
                             fitted_order=float(order), predicted_rate=0.4)
        assert report.verdict == verdict, order


def test_phase_shift_dense():
    """Adding a constant to b rotates the global phase by -c per unit time."""
    state = gaussian_packet(GRID, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), b=FieldSpec.constant(0.3))
    report = phase_freedom_check(state, 0.05, spec, c=0.7, n_steps=10)
    assert report.density_max_diff < 1e-12
    assert report.phase_error < 1e-9
    assert report.phase_expected == pytest.approx(
        np.angle(np.exp(-1j * 0.7 * 0.5)), abs=1e-12)


def test_phase_shift_spectral():
    grid = make_grid(-10.0, 10.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.5)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), b=FieldSpec.constant(0.3))
    report = phase_freedom_check(state, 0.01, spec, c=1.0, n_steps=20,
                                 method="spectral")
    assert report.density_max_diff < 1e-12
    assert report.phase_error < 1e-9
