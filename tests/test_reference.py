import numpy as np
import pytest

from gaussprop import (
    FieldSpec,
    HamiltonianSpec,
    PropagatorSpec,
    RealState,
    cn_step,
    diffusion_step,
    evolve_cn,
    evolve_diffusion,
    gaussian_packet,
    hamiltonian_diagonals,
    hermiticity_check,
    make_grid,
    march,
    moments,
    norm,
    rhs_apply,
    to_hamiltonian,
    to_propagator,
)

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
    assert ham.phi is spec.b
    assert ham.m == pytest.approx(0.5)


def test_parameter_map_round_trip():
    spec = PropagatorSpec(d=0.5, u=FieldSpec.linear(0.4), b=FieldSpec.sine(0.3, 1.0))
    back = to_propagator(to_hamiltonian(spec, GRID), GRID)
    x = GRID.x
    assert back.d == pytest.approx(spec.d, abs=1e-15)
    assert np.allclose(back.u(x), spec.u(x), atol=1e-12)
    assert np.allclose(back.b(x), spec.b(x), atol=1e-12)


def test_parameter_map_rejects_variants():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    with pytest.raises(ValueError):
        to_hamiltonian(spec, GRID)


def test_inverse_map_rejects_complex_vector_potential():
    ham = HamiltonianSpec(m=1.0, im_a=0.3)
    with pytest.raises(ValueError):
        to_propagator(ham, GRID)


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


def test_hermiticity_broken_by_complex_vector_potential():
    ham = HamiltonianSpec(m=1.0, a_field=FieldSpec.linear(0.3),
                          phi=FieldSpec.quadratic(0.5), im_a=0.3)
    assert hermiticity_check(ham, GRID) > 1e-3


def test_cn_step_is_unitary():
    ham = HamiltonianSpec(m=1.0, phi=FieldSpec.quadratic(0.5))
    state = gaussian_packet(GRID, x0=1.0, sigma0=0.8)
    out = cn_step(state, 0.01, ham)
    assert norm(out) == pytest.approx(norm(state), abs=1e-12)
    assert out.time == pytest.approx(0.01)


def test_cn_step_rejects_nonpositive_eps():
    ham = HamiltonianSpec(m=1.0)
    state = gaussian_packet(GRID, x0=0.0, sigma0=1.0)
    with pytest.raises(ValueError):
        cn_step(state, 0.0, ham)


def test_harmonic_coherent_state_oscillates():
    """<x>(t) = x0 cos(t) for m = 1, phi = x^2/2; the width never breathes."""
    grid = make_grid(-10.0, 10.0, 1024)
    ham = to_hamiltonian(PropagatorSpec(d=1.0, b=FieldSpec.quadratic(0.5)), grid)
    state = gaussian_packet(grid, x0=1.0, sigma0=np.sqrt(0.5))
    traj = evolve_cn(state, 0.005, 400, ham)
    mean, var = moments(traj.final)
    assert mean == pytest.approx(np.cos(2.0), abs=1e-3)
    assert var == pytest.approx(0.5, abs=5e-3)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-10


def _gaussian_density(grid, sigma):
    p = np.exp(-grid.x ** 2 / (2.0 * sigma ** 2))
    return p / (np.sum(p) * grid.dx)


def test_diffusion_conserves_mass_and_positivity():
    grid = make_grid(-8.0, 8.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    traj = evolve_diffusion(state, 0.02, 100, spec)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-12
    stream = march(state, 100, lambda s: diffusion_step(s, 0.02, spec))
    assert all(np.all(s.density >= -1e-13) for s in stream)


@pytest.mark.parametrize("n_steps", (0, -3))
def test_evolve_diffusion_needs_a_step(n_steps):
    grid = make_grid(-8.0, 8.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    with pytest.raises(ValueError, match="n_steps"):
        evolve_diffusion(state, 0.02, n_steps, PropagatorSpec(d=1.0))


def test_diffusion_free_spreading_rate():
    grid = make_grid(-12.0, 12.0, 1024)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0)
    traj = evolve_diffusion(state, 0.005, 200, spec)
    _, var = moments(traj.final)
    # dP/dt = (D/2) P'' adds variance D t
    assert var == pytest.approx(0.64 + 1.0, rel=1e-3)


def test_diffusion_rejects_variants():
    grid = make_grid(-8.0, 8.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="endpoint_t")
    with pytest.raises(ValueError):
        diffusion_step(state, 0.02, spec)


def test_ornstein_uhlenbeck_steady_variance():
    """Confining drift u = -x relaxes the density to variance D/2."""
    grid = make_grid(-6.0, 6.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 1.0), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-1.0))
    traj = evolve_diffusion(state, 0.05, 200, spec)
    _, var = moments(traj.final)
    assert var == pytest.approx(0.5, rel=5e-3)
    assert traj.norms[-1] == pytest.approx(1.0, abs=1e-12)
