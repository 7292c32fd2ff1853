"""Acceptance gate: one test per release criterion, tolerances pinned.

Each test prints a single [acceptance] line with the measured number next to
its threshold, so `pytest -v -s tests/test_acceptance.py` doubles as the
release report.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from gaussprop import cli
from gaussprop.audit import audit_packets, phase_freedom_check
from gaussprop.fields import (FieldSpec, PropagatorSpec, RealState, gaussian_packet, make_grid,
                              moments, norm)
from gaussprop.fresnel import cancellation_check, closed_moment, fresnel_moments
from gaussprop.propagate import dense_stepper, density_stepper, last, march, spectral_stepper
from gaussprop.reference import diffusion_stepper, exact_state
from gaussprop.walk import histogram_compare, sample_paths

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
PAIRS = [(1.0, 1.0), (1.0, 0.1), (0.5, 1.0), (0.5, 0.1)]


def test_criterion_01_fresnel_identities():
    """Quadrature moments match the closed forms to 1e-6 relative."""
    worst = 0.0
    for d, eps in PAIRS:
        scale = abs(closed_moment(0, d, eps))
        for n in (0, 1, 2, 4):
            closed = closed_moment(n, d, eps)
            value = fresnel_moments([n], d, eps)[0]
            rel = abs(value - closed) / (abs(closed) or scale)
            worst = max(worst, rel)
    print(f"[acceptance] 1: worst relative moment error {worst:.3e} (<= 1e-6)")
    assert worst <= 1e-6


def test_criterion_02_unit_mass():
    """The normalized kernel carries unit mass to 1e-6 at every (D, eps)."""
    worst = max(abs(fresnel_moments([0], d, eps)[0] / closed_moment(0, d, eps) - 1.0)
                for d, eps in PAIRS)
    print(f"[acceptance] 2: worst |mass - 1| {worst:.3e} (<= 1e-6)")
    assert worst <= 1e-6


def test_criterion_03_cancellation_residual_order():
    """Drift-squared residual for u = 0.4 x scales as eps^2 (order 2 +- 0.3)."""
    u = FieldSpec.linear(0.4)
    ladder = (0.4, 0.2, 0.1, 0.05)
    residuals = [abs(cancellation_check(1.0, u, 0.5, eps).quadrature)
                 for eps in ladder]
    order = float(np.polyfit(np.log(ladder), np.log(residuals), 1)[0])
    top = cancellation_check(1.0, u, 0.5, ladder[0])
    print(f"[acceptance] 3: cancellation residual order {order:.3f} (2 +- 0.3)")
    assert order == pytest.approx(2.0, abs=0.3)
    assert abs(top.quadrature - top.closed_form) <= 1e-6


def test_criterion_04_correction_exponent_selection():
    """Only a = u'/2 conserves: order ~2 there, ~1 for a = 0 and a = u'.  A
    constant a scales the step by exp(-eps a), so one step without T, of norm
    N1 from N0, measures the conserving a*(eps) = ln(N1/N0)/(2 eps).  For
    u = 0.4 x it is -ln(1 - 0.4 eps)/(2 eps) at every rung, for every packet,
    and its Richardson limit eps -> 0 is u'/2."""
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    ladder = (0.32, 0.16, 0.08, 0.04)
    u = FieldSpec.linear(0.4)
    orders = {}
    for variant in ("admissible", "no_t", "endpoint_t"):
        spec = PropagatorSpec(d=1.0, u=u, variant=variant)
        orders[variant] = audit_packets([state], spec, ladder)[0].fitted_order
    law = np.array([-np.log1p(-0.4 * eps) / (2.0 * eps) for eps in ladder])
    steps = [dense_stepper(grid, eps, PropagatorSpec(d=1.0, u=u, variant="no_t"))
             for eps in ladder]
    law_gap = limit_gap = 0.0
    for packet in (state, gaussian_packet(grid, x0=1.0, sigma0=0.8, k0=0.7)):
        n0 = norm(packet)
        a_star = np.array([np.log(norm(step(packet)) / n0) / (2.0 * eps)
                           for step, eps in zip(steps, ladder)])
        law_gap = max(law_gap, float(np.max(np.abs(a_star / law - 1.0))))
        once = 2.0 * a_star[1:] - a_star[:-1]  # the O(eps) term cancels
        twice = (4.0 * once[-1] - once[-2]) / 3.0  # and the O(eps^2) term
        limit_gap = max(limit_gap, abs(twice - 0.2))
    print(f"[acceptance] 4: orders half={orders['admissible']:.2f} (2 +- 0.3), "
          f"zero={orders['no_t']:.2f}, full={orders['endpoint_t']:.2f} (1 +- 0.3); "
          f"a*(eps) vs -ln(1 - 0.4 eps)/(2 eps) {law_gap:.2e} relative (<= 1e-12), "
          f"its limit vs u'/2 {limit_gap:.2e} (<= 1e-5)")
    assert orders["admissible"] == pytest.approx(2.0, abs=0.3)
    assert orders["no_t"] == pytest.approx(1.0, abs=0.3)
    assert orders["endpoint_t"] == pytest.approx(1.0, abs=0.3)
    assert law_gap <= 1e-12
    assert limit_gap <= 1e-5


def test_criterion_05_falsification_variants():
    """Each inadmissible parameter set drifts on at least one probe packet;
    the admissible set conserves on all of them."""
    grid = make_grid(-8.0, 8.0, 1024)
    packets = [gaussian_packet(grid, x0, sigma0, k0)
               for x0, sigma0, k0 in
               [(0.0, 0.4, 0.0), (1.0, 0.8, 0.7), (0.0, 0.8, 1.0)]]
    u = FieldSpec.linear(0.4)
    cases = {
        "admissible": (PropagatorSpec(d=1.0, u=u), (0.32, 0.16, 0.08, 0.04)),
        "complex_u": (PropagatorSpec(d=1.0, u=u, variant="complex_u", im_u=0.1),
                      (0.32, 0.16, 0.08, 0.04)),
        "complex_d": (PropagatorSpec(d=1.0, u=u, variant="complex_d", im_d=0.1),
                      (1.28, 0.64, 0.32, 0.16)),
        "x_dependent_d": (PropagatorSpec(
            d=1.0, u=u, variant="x_dependent_d",
            d_field=FieldSpec.tabulated(grid.x, 1.0 + 0.2 * np.sin(grid.x))),
            (0.64, 0.32, 0.16, 0.08)),
    }
    verdicts = {name: [audit_packets([state], spec, ladder)[0].verdict
                       for state in packets]
                for name, (spec, ladder) in cases.items()}
    print(f"[acceptance] 5: verdicts {verdicts}")
    assert all(v == "conserves" for v in verdicts["admissible"])
    for name in ("complex_u", "complex_d", "x_dependent_d"):
        assert "drifts" in verdicts[name]


def _l2(a, b, grid):
    return float(np.sqrt(np.sum(np.abs(a.psi - b.psi) ** 2) * grid.dx))


def test_criterion_06_schrodinger_agreement():
    """Harmonic phi = x^2/2 with A = 0.3 x: first-order convergence at t = 1 to
    the exact Gaussian state, with the norm held at every step of every rung;
    with no drift and no potential the step is the free evolution itself."""
    grid = make_grid(-20.0, 20.0, 4096)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3),
                          b=FieldSpec.quadratic(0.545))
    state = gaussian_packet(grid, x0=0.0, sigma0=1.5, k0=1.0)
    n0 = norm(state)

    exact = exact_state(grid, spec, 0.0, 1.5, 1.0, 1.0)
    ladder = (0.02, 0.01, 0.005, 0.0025)
    exact_errors, norm_drift = [], 0.0
    for eps in ladder:
        for final in march(state, round(1.0 / eps), spectral_stepper(grid, eps, spec)):
            norm_drift = max(norm_drift, abs(norm(final) - n0))
        exact_errors.append(_l2(final, exact, grid))
    exact_slope = float(np.polyfit(np.log(ladder), np.log(exact_errors), 1)[0])
    free = PropagatorSpec(d=1.0)
    free_exact = exact_state(grid, free, 0.0, 1.5, 1.0, 1.0)
    free_gap = max(_l2(last(march(state, round(1.0 / eps), spectral_stepper(grid, eps, free))),
                       free_exact, grid) for eps in ladder[:2])
    print(f"[acceptance] 6: L2 slope against the exact state {exact_slope:.3f} "
          f"(1 +- 0.01), norm drift {norm_drift:.2e} (<= 1e-12), free L2 gap "
          f"{free_gap:.2e} (<= 1e-12)")
    # the exact state has no spatial floor, so the first order shows undiluted
    assert exact_slope == pytest.approx(1.0, abs=0.01)
    assert norm_drift <= 1e-12
    assert free_gap <= 1e-12


def test_criterion_07_free_dispersion():
    """Free packet variance reaches sigma0^2 + (D t / 2 sigma0)^2 within 1%."""
    grid = make_grid(-12.0, 12.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0)
    final = last(march(state, 200, spectral_stepper(grid, 0.01, PropagatorSpec(d=1.0))))
    _, _, var = moments(final)
    print(f"[acceptance] 7: variance at t=2 is {var:.6f} (2.0 +- 1%)")
    assert var == pytest.approx(2.0, rel=0.01)


def test_criterion_08_phase_freedom():
    """b -> b + 1 leaves |psi|^2 untouched and advances the phase by N eps."""
    grid = make_grid(-10.0, 10.0, 2048)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.5)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4),
                          b=FieldSpec.constant(0.3))
    report = phase_freedom_check(state, 0.01, spec, c=1.0, n_steps=100,
                                 method="spectral")
    print(f"[acceptance] 8: density diff {report.density_max_diff:.2e} "
          f"(<= 1e-12), phase error {report.phase_error:.2e} (<= 1e-9)")
    assert report.density_max_diff <= 1e-12
    assert report.phase_error <= 1e-9


def test_criterion_09_random_walk_twin():
    """The sampled walk reproduces (u t, D t); the real kernel matches the
    drift-diffusion oracle to 1e-3 in L1."""
    spec = PropagatorSpec(d=1.0, u=FieldSpec.constant(0.5))
    ens = sample_paths(100_000, 200, 0.01, spec, seed=7)
    n = ens.n_particles
    mean_gap = abs(ens.sample_mean() - 1.0)
    var_gap = abs(ens.sample_variance() - 2.0)
    se_mean = np.sqrt(2.0 / n)
    se_var = 2.0 * np.sqrt(2.0 / (n - 1))
    comparison = histogram_compare(ens, spec, bins=50)

    grid = make_grid(-10.0, 10.0, 1024)
    p0 = np.exp(-grid.x ** 2 / (2.0 * 0.49))
    state = RealState(grid=grid, density=p0 / (np.sum(p0) * grid.dx), time=0.0)
    wavy = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    kernel_final = last(march(state, 200, density_stepper(grid, 0.005, wavy)))
    oracle_final = last(march(state, 2000, diffusion_stepper(grid, 0.0005, wavy)))
    l1 = float(np.sum(np.abs(kernel_final.density - oracle_final.density))
               * grid.dx)
    print(f"[acceptance] 9: mean gap {mean_gap:.4f} (<= {3 * se_mean:.4f}), "
          f"var gap {var_gap:.4f} (<= {3 * se_var:.4f}), histogram L1 "
          f"{comparison.l1:.4f} (<= 0.05), kernel-vs-oracle L1 {l1:.2e} (<= 1e-3)")
    assert mean_gap <= 3.0 * se_mean
    assert var_gap <= 3.0 * se_var
    assert comparison.l1 <= 0.05
    assert l1 <= 1e-3


def test_criterion_10_dense_spectral_consistency():
    """The two step implementations agree to the scheme's own O(eps^2)."""
    grid = make_grid(-6.0, 6.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.7, k0=0.5)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.2), b=FieldSpec.sine(0.3, 1.0))
    ladder = (0.16, 0.08, 0.04, 0.02)
    gaps = []
    for eps in ladder:
        dense = dense_stepper(grid, eps, spec)(state)
        spectral = spectral_stepper(grid, eps, spec)(state)
        gaps.append(np.sqrt(np.sum(np.abs(dense.psi - spectral.psi) ** 2)
                            * grid.dx))
    slope = float(np.polyfit(np.log(ladder), np.log(gaps), 1)[0])
    print(f"[acceptance] 10: dense-vs-spectral gap slope {slope:.3f} (2 +- 0.3)")
    assert slope == pytest.approx(2.0, abs=0.3)


def test_criterion_11_cli_exit_codes(tmp_path):
    """Shipped scenarios run clean through the CLI; a failed gate exits nonzero."""
    codes = {}
    for command, scenario in [("audit", "variants_audit.json"),
                              ("audit", "complex_d_audit.json"),
                              ("moments", "moments_default.json"),
                              ("compare", "compare_default.json")]:
        codes[scenario] = cli.main([command, str(SCENARIOS / scenario),
                                    "--out", str(tmp_path)])
    fail_code = cli.main(["moments", str(SCENARIOS / "moments_fail.json"),
                          "--out", str(tmp_path)])
    print(f"[acceptance] 11: exit codes {codes}, failing gate -> {fail_code}")
    assert all(code == 0 for code in codes.values())
    assert fail_code == 1
    summary = json.loads((tmp_path / "moments_fail_moments.json").read_text())
    assert summary["passed"] is False
