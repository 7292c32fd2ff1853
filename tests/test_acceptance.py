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
from gaussprop.audit import audit_packets, empirical_a_scan, phase_freedom_check
from gaussprop.fields import (FieldSpec, PropagatorSpec, RealState, gaussian_packet, make_grid,
                              moments)
from gaussprop.fresnel import cancellation_check, closed_moment, fresnel_moment, unit_mass_check
from gaussprop.propagate import dense_stepper, density_stepper, last, march, spectral_stepper
from gaussprop.reference import (diffusion_stepper, exact_state, hamiltonian_diagonals,
                                 hermiticity_check, rhs_apply, to_hamiltonian)
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
            value = fresnel_moment(n, d, eps)
            rel = abs(value - closed) / (abs(closed) or scale)
            worst = max(worst, rel)
    print(f"[acceptance] 1: worst relative moment error {worst:.3e} (<= 1e-6)")
    assert worst <= 1e-6


def test_criterion_02_unit_mass():
    """The normalized kernel carries unit mass to 1e-6 at every (D, eps)."""
    worst = max(abs(unit_mass_check(d, eps) - 1.0) for d, eps in PAIRS)
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
    assert top.abs_error <= 1e-6


def test_criterion_04_correction_exponent_selection():
    """Only a = u'/2 conserves: order ~2 there, ~1 for a = 0 and a = u'."""
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    ladder = (0.32, 0.16, 0.08, 0.04)
    u = FieldSpec.linear(0.4)
    orders = {}
    for variant in ("admissible", "no_t", "endpoint_t"):
        spec = PropagatorSpec(d=1.0, u=u, variant=variant)
        orders[variant] = audit_packets([state], spec, ladder)[0].fitted_order
    scan = empirical_a_scan(state, 0.04, PropagatorSpec(d=1.0, u=u),
                            [0.12, 0.14, 0.16, 0.18, 0.2, 0.22, 0.24, 0.26, 0.28])
    print(f"[acceptance] 4: orders half={orders['admissible']:.2f} (2 +- 0.3), "
          f"zero={orders['no_t']:.2f}, full={orders['endpoint_t']:.2f} (1 +- 0.3); "
          f"scan best a={scan.best}")
    assert orders["admissible"] == pytest.approx(2.0, abs=0.3)
    assert orders["no_t"] == pytest.approx(1.0, abs=0.3)
    assert orders["endpoint_t"] == pytest.approx(1.0, abs=0.3)
    assert abs(scan.best - 0.2) <= 0.02


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


def test_criterion_06_schrodinger_agreement():
    """Harmonic phi = x^2/2 with A = 0.3 x: first-order convergence at t = 1 to
    the exact Gaussian state, plus exact operator identities."""
    grid = make_grid(-20.0, 20.0, 4096)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3),
                          b=FieldSpec.quadratic(0.545))
    ham = to_hamiltonian(spec, grid)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.5, k0=1.0)

    lower, diag, upper = hamiltonian_diagonals(ham, grid)
    h_psi = diag * state.psi
    h_psi[:-1] += upper * state.psi[1:]
    h_psi[1:] += lower * state.psi[:-1]
    rhs_gap = float(np.max(np.abs(rhs_apply(state, ham) + 1j * h_psi)))
    herm = hermiticity_check(ham, grid)

    exact = exact_state(grid, spec, 0.0, 1.5, 1.0, 1.0)
    ladder = (0.02, 0.01, 0.005, 0.0025)
    exact_errors = []
    for eps in ladder:
        final = last(march(state, round(1.0 / eps), spectral_stepper(grid, eps, spec)))
        exact_errors.append(np.sqrt(np.sum(np.abs(final.psi - exact.psi) ** 2) * grid.dx))
    exact_slope = float(np.polyfit(np.log(ladder), np.log(exact_errors), 1)[0])
    print(f"[acceptance] 6: L2 slope against the exact state {exact_slope:.3f} "
          f"(1 +- 0.01), rhs gap {rhs_gap:.2e} (<= 1e-10), hermiticity {herm:.2e} (<= 1e-12)")
    # the exact state has no spatial floor, so the first order shows undiluted
    assert exact_slope == pytest.approx(1.0, abs=0.01)
    assert rhs_gap <= 1e-10
    assert herm <= 1e-12


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
