import numpy as np
import pytest

from gaussprop.fields import (VARIANTS, BoundaryDecayError, FieldSpec, PropagatorSpec, RealState,
                              gaussian_packet, make_grid, moments, norm)
from gaussprop.propagate import last, march
from gaussprop.reference import (HamiltonianSpec, cn_stepper, diffusion_stepper, exact_state,
                                 hamiltonian_diagonals, has_exact_state, hermiticity_check,
                                 rhs_apply, to_hamiltonian)

GRID = make_grid(-10.0, 10.0, 512)


def _tridiag_apply(lower, diag, upper, v):
    out = diag * v
    out[:-1] += upper * v[1:]
    out[1:] += lower * v[:-1]
    return out


def test_parameter_map_values():
    spec = PropagatorSpec(d=0.5, u=FieldSpec.linear(0.4), b=FieldSpec.sine(0.3, 1.0))
    ham = to_hamiltonian(spec, GRID)
    assert ham.m == pytest.approx(2.0)
    x = GRID.x
    assert np.allclose(ham.a_field(x), 0.8 * x, atol=1e-14)
    assert np.allclose(ham.phi(x), spec.b(x) - (0.8 * x) ** 2 / 4.0, atol=1e-12)


def test_parameter_map_free_case_keeps_b():
    spec = PropagatorSpec(d=2.0, b=FieldSpec.quadratic(0.5))
    ham = to_hamiltonian(spec, GRID)
    assert ham.phi == spec.b
    assert ham.m == pytest.approx(0.5)


def test_parameter_map_keeps_phi_polynomial_in_the_exact_class():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3), b=FieldSpec.quadratic(0.5))
    phi = to_hamiltonian(spec, GRID).phi
    assert phi.degree == 2
    assert phi.coeffs == pytest.approx((0.0, 0.0, 0.455), abs=1e-15)


def test_parameter_map_expands_an_affine_vector_potential():
    """phi = b - A^2/(2m) with A = a0 + a1 x, coefficient by coefficient."""
    spec = PropagatorSpec(d=0.5, u=FieldSpec("polynomial", coeffs=(0.2, 0.4)),
                          b=FieldSpec("polynomial", coeffs=(0.1, -0.3, 0.6)))
    ham = to_hamiltonian(spec, GRID)
    assert ham.a_field.coeffs == pytest.approx((0.4, 0.8))
    assert ham.phi.coeffs == pytest.approx((0.1 - 0.04, -0.3 - 0.16, 0.6 - 0.16))
    x = GRID.x
    assert np.allclose(ham.phi(x), spec.b(x) - ham.a_field(x) ** 2 / 4.0, atol=1e-12)


def test_parameter_map_tabulates_a_sine_b_at_its_own_grid_values():
    spec = PropagatorSpec(d=2.0, b=FieldSpec.sine(0.3, 1.0))
    phi = to_hamiltonian(spec, GRID).phi
    assert phi.degree is None
    assert np.array_equal(phi(GRID.x), spec.b(GRID.x))


def test_parameter_map_rejects_variants():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    with pytest.raises(ValueError):
        to_hamiltonian(spec, GRID)


def test_hamiltonian_spec_rejects_bad_mass():
    with pytest.raises(ValueError):
        HamiltonianSpec(m=0.0)


def test_rhs_matches_operator_assembly():
    """Expanded right-hand side equals -i H psi from the tridiagonal H."""
    ham = HamiltonianSpec(m=1.0, a_field=FieldSpec.linear(0.3),
                          phi=FieldSpec.quadratic(0.5))
    state = gaussian_packet(GRID, x0=0.5, sigma0=1.0, k0=0.7)
    lower, diag, upper = hamiltonian_diagonals(ham, GRID)
    expected = -1j * _tridiag_apply(lower, diag, upper, state.psi)
    assert np.max(np.abs(rhs_apply(state, ham) - expected)) < 1e-10


def test_hermiticity_real_fields():
    ham = HamiltonianSpec(m=1.0, a_field=FieldSpec.linear(0.3),
                          phi=FieldSpec.quadratic(0.5))
    assert hermiticity_check(ham, GRID) <= 1e-12


def test_cn_step_is_unitary():
    ham = HamiltonianSpec(m=1.0, phi=FieldSpec.quadratic(0.5))
    state = gaussian_packet(GRID, x0=1.0, sigma0=0.8)
    out = cn_stepper(GRID, 0.01, ham)(state)
    assert norm(out) == pytest.approx(norm(state), abs=1e-12)
    assert out.time == pytest.approx(0.01)


def test_cn_step_rejects_nonpositive_eps():
    ham = HamiltonianSpec(m=1.0)
    state = gaussian_packet(GRID, x0=0.0, sigma0=1.0)
    with pytest.raises(ValueError):
        cn_stepper(GRID, 0.0, ham)(state)


def test_harmonic_coherent_state_oscillates():
    """<x>(t) = x0 cos(t) for m = 1, phi = x^2/2; the width never breathes."""
    grid = make_grid(-10.0, 10.0, 1024)
    ham = to_hamiltonian(PropagatorSpec(d=1.0, b=FieldSpec.quadratic(0.5)), grid)
    state = gaussian_packet(grid, x0=1.0, sigma0=np.sqrt(0.5))
    stream = list(march(state, 400, cn_stepper(grid, 0.005, ham)))
    _, mean, var = moments(stream[-1])
    assert mean == pytest.approx(np.cos(2.0), abs=1e-3)
    assert var == pytest.approx(0.5, abs=5e-3)
    assert np.max(np.abs(np.array([norm(s) for s in stream]) - 1.0)) < 1e-10


def _gaussian_density(grid, sigma):
    p = np.exp(-grid.x ** 2 / (2.0 * sigma ** 2))
    return p / (np.sum(p) * grid.dx)


def test_diffusion_conserves_mass_and_positivity():
    grid = make_grid(-8.0, 8.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    stream = list(march(state, 100, diffusion_stepper(grid, 0.02, spec)))
    assert np.max(np.abs(np.array([moments(s)[0] for s in stream]) - 1.0)) < 1e-12
    assert all(np.all(s.density >= -1e-13) for s in stream)


@pytest.mark.parametrize("n_steps", (0, -3))
def test_evolve_diffusion_needs_a_step(n_steps):
    grid = make_grid(-8.0, 8.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    with pytest.raises(ValueError, match="n_steps"):
        last(march(state, n_steps, diffusion_stepper(grid, 0.02, PropagatorSpec(d=1.0))))


def test_diffusion_free_spreading_rate():
    grid = make_grid(-12.0, 12.0, 1024)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0)
    _, _, var = moments(last(march(state, 200, diffusion_stepper(grid, 0.005, spec))))
    # dP/dt = (D/2) P'' adds variance D t
    assert var == pytest.approx(0.64 + 1.0, rel=1e-3)


def test_diffusion_rejects_variants():
    grid = make_grid(-8.0, 8.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="endpoint_t")
    with pytest.raises(ValueError):
        diffusion_stepper(grid, 0.02, spec)(state)


def test_ornstein_uhlenbeck_steady_variance():
    """Confining drift u = -x relaxes the density to variance D/2."""
    grid = make_grid(-6.0, 6.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 1.0), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-1.0))
    mass, _, var = moments(last(march(state, 200, diffusion_stepper(grid, 0.05, spec))))
    assert var == pytest.approx(0.5, rel=5e-3)
    assert mass == pytest.approx(1.0, abs=1e-12)


# the compare_default Hamiltonian: A = 0.3 x and phi = x^2/2, so omega = 1
HARMONIC = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3), b=FieldSpec.quadratic(0.545))
WIDE = make_grid(-20.0, 20.0, 4096)
# (spec, omega^2 = 2 D v2, v1) over the class, phi = v0 + v1 x + v2 x^2
EXACT_CASES = {
    "harmonic": (HARMONIC, 1.0, 0.0),
    "free": (PropagatorSpec(d=1.0), 0.0, 0.0),
    "linear-force": (PropagatorSpec(d=0.7, u=FieldSpec.constant(0.4),
                                    b=FieldSpec.linear(0.3)), 0.0, 0.3),
    "inverted": (PropagatorSpec(d=1.3, b=FieldSpec.quadratic(-0.2)), -0.52, 0.0),
    "inverted-force": (PropagatorSpec(d=1.0, u=FieldSpec.linear(0.5),
                                      b=FieldSpec.linear(0.3)), -0.25, 0.3),
    "shifted": (PropagatorSpec(d=0.8, u=FieldSpec.constant(-0.6),
                               b=FieldSpec.quadratic(0.4)), 0.64, 0.0),
}


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_state_at_time_zero_is_the_packet(case):
    spec = EXACT_CASES[case][0]
    packet = gaussian_packet(WIDE, x0=0.5, sigma0=1.5, k0=1.0)
    state = exact_state(WIDE, spec, 0.5, 1.5, 1.0, 0.0)
    assert state.time == 0.0
    assert np.max(np.abs(state.psi - packet.psi)) <= 1e-14


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_state_keeps_the_grid_norm(case):
    state = exact_state(WIDE, EXACT_CASES[case][0], 0.5, 1.5, 1.0, 1.0)
    assert abs(norm(state) - 1.0) <= 1e-13


def _classical(omega2, t):
    """c, s and the integral of s, where c and s solve x'' = -omega2 x with
    c(0) = s'(0) = 1 and c'(0) = s(0) = 0; half angles keep the last exact."""
    if omega2 > 0.0:
        om = np.sqrt(omega2)
        return np.cos(om * t), np.sin(om * t) / om, 2.0 * (np.sin(0.5 * om * t) / om) ** 2
    if omega2 < 0.0:
        ka = np.sqrt(-omega2)
        return np.cosh(ka * t), np.sinh(ka * t) / ka, 2.0 * (np.sinh(0.5 * ka * t) / ka) ** 2
    return 1.0, t, 0.5 * t ** 2


@pytest.mark.parametrize("case", list(EXACT_CASES))
def test_exact_state_follows_the_classical_mean(case):
    """Ehrenfest is exact for a quadratic H: x'' + omega^2 x = -v1/m, with
    m x'(0) = <p - A> = k0 - m u(x0) for the packet."""
    spec, omega2, v1 = EXACT_CASES[case]
    m, x0, k0, t = 1.0 / spec.d, 0.5, 1.0, 1.0
    c, s, forced = _classical(omega2, t)
    expected = x0 * c + (k0 / m - spec.u(np.array([x0]))[0]) * s - v1 / m * forced
    _, mean, _ = moments(exact_state(WIDE, spec, x0, 1.5, k0, t))
    assert mean == pytest.approx(expected, abs=1e-10)


def test_exact_state_is_continuous_as_omega_goes_to_zero():
    """u = 1e-10 x gives omega^2 = -1e-20: the state differs from u = 0 by
    the gauge e^(i 1e-10 x^2/2) and the momentum shift, both <= 1e-8."""
    force = FieldSpec.linear(0.3)
    free = exact_state(WIDE, PropagatorSpec(d=1.0, b=force), 0.5, 1.5, 1.0, 2.0)
    near = exact_state(WIDE, PropagatorSpec(d=1.0, u=FieldSpec.linear(1e-10), b=force),
                       0.5, 1.5, 1.0, 2.0)
    assert np.max(np.abs(near.psi - free.psi)) <= 1e-8


def test_exact_state_spreads_the_free_packet():
    """psi = (1 + 2iaDt)^(-1/2) exp(-a (x - x0 - D k0 t)^2/(1 + 2iaDt) + i k0 x
    - i D k0^2 t/2) times the packet's normalization, a = 1/(4 sigma0^2)."""
    spec, x0, sigma0, k0, t = PropagatorSpec(d=0.8), -1.0, 1.2, 0.9, 2.5
    x, a = WIDE.x, 0.25 / sigma0 ** 2
    packet = gaussian_packet(WIDE, x0, sigma0, k0)
    scale = packet.psi / np.exp(-a * (x - x0) ** 2 + 1j * k0 * x)
    spread = 1.0 + 2j * a * spec.d * t
    expected = (scale / np.sqrt(spread)
                * np.exp(-a * (x - x0 - spec.d * k0 * t) ** 2 / spread + 1j * k0 * x
                         - 0.5j * spec.d * k0 ** 2 * t))
    state = exact_state(WIDE, spec, x0, sigma0, k0, t)
    assert np.max(np.abs(state.psi - expected)) <= 1e-13


def test_exact_state_opens_the_inverted_oscillator():
    """phi = -0.2 x^2 (b's x^2 coefficient negative) drives the width apart:
    var = sigma0^2 cosh^2(kt) + (D sinh(kt)/(2 sigma0 k))^2 with k^2 = -2 D v2."""
    spec, sigma0, t = EXACT_CASES["inverted"][0], 1.0, 1.5
    kappa = np.sqrt(-2.0 * spec.d * spec.b.coeffs[2])
    expected = ((sigma0 * np.cosh(kappa * t)) ** 2
                + (spec.d * np.sinh(kappa * t) / (2.0 * sigma0 * kappa)) ** 2)
    _, _, var = moments(exact_state(WIDE, spec, 0.5, sigma0, 1.0, t))
    assert var == pytest.approx(expected, rel=1e-10)
    assert var > 2.0 * sigma0 ** 2  # a packet trapped by +0.2 x^2 would breathe


def test_exact_state_tracks_the_branch_of_the_square_root():
    """For phi = x^2/2 and m = 1, psi(pi) = -i psi0(-x), psi(2 pi) = -psi0 and
    psi(5 pi) = -i psi0(-x); on the grid -x_j is x_(n-j)."""
    grid = make_grid(-10.0, 10.0, 1024)
    spec = PropagatorSpec(d=1.0, b=FieldSpec.quadratic(0.5))
    psi0 = gaussian_packet(grid, x0=1.0, sigma0=0.7, k0=0.5).psi
    mirrored = psi0[:0:-1]  # psi0(-x_j) for j = 1..n-1
    for t, expected in ((np.pi, -1j * mirrored), (2.0 * np.pi, -psi0[1:]),
                        (5.0 * np.pi, -1j * mirrored)):
        psi = exact_state(grid, spec, 1.0, 0.7, 0.5, t).psi
        assert np.max(np.abs(psi[1:] - expected)) <= 1e-13, t


@pytest.mark.parametrize("spec", [
    PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0)),
    PropagatorSpec(d=1.0, b=FieldSpec.tabulated([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="complex_d", im_d=0.1),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="complex_u", im_u=0.1),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="x_dependent_d",
                   d_field=FieldSpec.constant(1.0)),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="endpoint_t"),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t"),
], ids=("sine-u", "tabulated-b", *VARIANTS[1:]))
def test_exact_state_refuses_specs_outside_the_class(spec):
    assert not has_exact_state(spec)
    with pytest.raises(ValueError):
        exact_state(WIDE, spec, 0.0, 1.5, 1.0, 1.0)


@pytest.mark.parametrize("spec,named", [
    (PropagatorSpec(d=1.0, u=FieldSpec.quadratic(0.1)), "u of degree 2, b of degree -1"),
    (PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0), b=FieldSpec.linear(0.2)),
     "u sine, b of degree 1"),
    (PropagatorSpec(d=1.0, b=FieldSpec.tabulated([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])),
     "u of degree -1, b tabulated"),
], ids=("quadratic-u", "sine-u", "tabulated-b"))
def test_exact_state_names_the_degree_or_kind_it_refuses(spec, named):
    with pytest.raises(ValueError, match=f"got admissible, {named}$"):
        exact_state(WIDE, spec, 0.0, 1.5, 1.0, 1.0)


def test_exact_state_reads_a_zero_quadratic_drift_as_no_drift():
    """u = 0 x^2 is the zero polynomial, inside the class, and the free state."""
    spec = PropagatorSpec(d=1.0, u=FieldSpec.quadratic(0.0))
    assert has_exact_state(spec)
    assert np.array_equal(exact_state(WIDE, spec, 0.0, 1.5, 1.0, 1.0).psi,
                          exact_state(WIDE, PropagatorSpec(d=1.0), 0.0, 1.5, 1.0, 1.0).psi)


def test_exact_state_refuses_a_state_at_the_edges():
    with pytest.raises(BoundaryDecayError):
        exact_state(make_grid(-5.0, 5.0, 256), PropagatorSpec(d=1.0), 0.0, 0.3, 0.0, 5.0)


def _cn_error(n, eps):
    grid = make_grid(-20.0, 20.0, n)
    start = gaussian_packet(grid, x0=0.0, sigma0=1.5, k0=1.0)
    final = last(march(start, round(1.0 / eps),
                       cn_stepper(grid, eps, to_hamiltonian(HARMONIC, grid))))
    gap = final.psi - exact_state(grid, HARMONIC, 0.0, 1.5, 1.0, 1.0).psi
    return np.sqrt(np.sum(np.abs(gap) ** 2) * grid.dx)


def test_cn_converges_to_the_exact_state_at_second_order_in_eps():
    """At compare_default's dx = 0.0098 CN's spatial floor, 1.3e-4, is 15% of
    the eps = 0.00625 error and bends the fit to 1.89; at a 4x finer dx the
    floor is 16x smaller and the time error alone is left."""
    ladder = (0.025, 0.0125, 0.00625)
    errors = [_cn_error(4 * 4096, eps) for eps in ladder]
    order = float(np.polyfit(np.log(ladder), np.log(errors), 1)[0])
    assert order == pytest.approx(2.0, abs=0.05)


def test_cn_converges_to_the_exact_state_at_second_order_in_dx():
    """At eps = 1e-3 the second differences' error dominates for dx >= 0.039."""
    ns = (256, 512, 1024)
    errors = [_cn_error(n, 1e-3) for n in ns]
    order = float(np.polyfit(np.log([40.0 / n for n in ns]), np.log(errors), 1)[0])
    assert order == pytest.approx(2.0, abs=0.05)
