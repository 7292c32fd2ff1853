import tracemalloc

import numpy as np
import pytest

from gaussprop import (
    BoundaryDecayError,
    FieldSpec,
    PropagatorSpec,
    RealState,
    ValidityError,
    dense_operator,
    evolve,
    evolve_cn,
    evolve_density,
    gaussian_packet,
    make_grid,
    march,
    moments,
    norm,
    step_dense,
    step_density,
    step_spectral,
    to_hamiltonian,
    total_mass,
    validity_check,
)
from gaussprop import propagate
from gaussprop.propagate import _dense_matrix

FREE = PropagatorSpec(d=1.0)
DRIFTED = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.2), b=FieldSpec.sine(0.3, 1.0))


def test_free_dispersion_law():
    """Spectral free evolution reproduces sigma^2(t) = sigma0^2 + (D t / 2 sigma0)^2."""
    grid = make_grid(-12.0, 12.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0, k0=0.0)
    traj = evolve(state, 0.01, 200, FREE, method="spectral")
    _, var = moments(traj.final)
    assert var == pytest.approx(2.0, rel=1e-6)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-12


def test_spectral_free_step_is_exactly_unimodular():
    grid = make_grid(-10.0, 10.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.9, k0=0.6)
    out = step_spectral(state, 0.05, FREE)
    assert norm(out) == pytest.approx(norm(state), abs=1e-14)


def test_spectral_first_order_preserves_norm_with_fields():
    grid = make_grid(-10.0, 10.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.5)
    traj = evolve(state, 0.01, 50, DRIFTED, method="spectral")
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-12


def test_spectral_zero_order_leaks_at_the_drift_rate():
    """Dropping the T correction leaks norm at rate int u' |psi|^2 = u'."""
    grid = make_grid(-10.0, 10.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), order="zero")
    traj = evolve(state, 0.01, 20, spec, method="spectral")
    slope = np.polyfit(traj.times, np.log(traj.norms), 1)[0]
    assert slope == pytest.approx(0.4, abs=1e-6)


def test_dense_and_spectral_agree_at_second_order():
    """Single-step gap shrinks like eps^2: both sides share the O(eps) kernel."""
    grid = make_grid(-6.0, 6.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.7, k0=0.5)
    ladder = (0.16, 0.08, 0.04, 0.02)
    gaps = []
    for eps in ladder:
        dense = step_dense(state, eps, DRIFTED)
        spectral = step_spectral(state, eps, DRIFTED)
        gaps.append(np.sqrt(np.sum(np.abs(dense.psi - spectral.psi) ** 2)
                            * grid.dx))
    slope = np.polyfit(np.log(ladder), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_dense_step_conserves_norm_to_first_order():
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4))
    out = step_dense(state, 0.1, spec)
    assert norm(out) == pytest.approx(1.0, abs=5e-3)


def test_validity_check_report():
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    good = validity_check(grid, 0.1, FREE, state)
    assert good.passes
    bad = validity_check(grid, 0.001, FREE, state)
    assert not bad.passes
    assert bad.recommended_min_eps > 0.001


def test_dense_step_raises_below_phase_resolution():
    grid = make_grid(-12.0, 12.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0)
    with pytest.raises(ValidityError):
        step_dense(state, 0.001, FREE)


def test_evolve_aborts_when_packet_reaches_edge():
    grid = make_grid(-4.0, 4.0, 256)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.45)
    with pytest.raises(BoundaryDecayError, match=r"aborted at step \d+: "):
        evolve(state, 0.05, 200, FREE, method="spectral")


def test_spectral_requires_power_of_two_grid():
    grid = make_grid(-8.0, 8.0, 1000)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    with pytest.raises(ValueError):
        step_spectral(state, 0.05, FREE)


def test_spectral_rejects_variants():
    grid = make_grid(-8.0, 8.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    with pytest.raises(ValueError):
        step_spectral(state, 0.05, spec)


def test_trajectory_bookkeeping():
    grid = make_grid(-10.0, 10.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.9)
    traj = evolve(state, 0.05, 4, FREE, method="spectral")
    assert np.allclose(traj.times, [0.0, 0.05, 0.1, 0.15, 0.2])
    assert traj.norms.shape == (5,)
    assert traj.final.time == traj.times[-1]
    assert traj.norms[-1] == norm(traj.final)


def test_march_streams_the_start_state_then_each_step():
    grid = make_grid(-10.0, 10.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.9)
    stream = list(march(state, 3, lambda s: step_spectral(s, 0.05, FREE)))
    assert stream[0] is state
    assert [s.time for s in stream] == pytest.approx([0.0, 0.05, 0.1, 0.15])


def test_dense_evolve_checks_before_it_builds(monkeypatch):
    """A run that must exit at step 0 never builds the n x n matrix."""
    def fail(*args, **kwargs):
        raise AssertionError("operator built before the validity check")

    monkeypatch.setattr(propagate, "_dense_matrix", fail)
    grid = make_grid(-10.0, 10.0, 256)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    with pytest.raises(ValidityError, match="aborted at step 0"):
        evolve(state, 0.001, 5, spec, method="dense")


def test_dense_evolve_builds_its_operator_once(monkeypatch):
    calls = []
    original = propagate._dense_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(propagate, "_dense_matrix", counting)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    traj = evolve(AUDIT_PACKET, 0.16, 3, spec, method="dense")
    assert len(calls) == 1
    assert traj.times.shape == (4,)


@pytest.mark.parametrize("spec,n,eps,message", [
    (PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t"), 512, 0.05,
     "admissible"),
    (FREE, 1000, 0.05, "power-of-two"),
    (FREE, 512, 0.0, "eps must be > 0"),
], ids=("variant", "grid", "eps"))
def test_spectral_evolve_checks_before_it_steps(spec, n, eps, message):
    """The spectral guards run when the step is built, so no step is taken."""
    grid = make_grid(-8.0, 8.0, n)
    with pytest.raises(ValueError, match=f"^(?!aborted).*{message}"):
        evolve(gaussian_packet(grid, x0=0.0, sigma0=0.8), eps, 5, spec, method="spectral")
    with pytest.raises(ValueError, match=message):
        propagate._spectral_stepper(grid, eps, spec)


def test_spectral_evolve_builds_its_factors_once():
    calls = []

    class CountingField(FieldSpec):
        def __call__(self, x):
            calls.append(self.kind)
            return super().__call__(x)

    spec = PropagatorSpec(d=1.0, u=CountingField("linear", slope=0.2),
                          b=CountingField("sine", amplitude=0.3, wavenumber=1.0))
    grid = make_grid(-10.0, 10.0, 512)
    traj = evolve(gaussian_packet(grid, x0=0.0, sigma0=0.9), 0.05, 4, spec, method="spectral")
    assert sorted(calls) == ["linear", "sine"]
    assert traj.times.shape == (5,)


@pytest.mark.parametrize("method", ("spectral", "cn"))
def test_evolutions_hold_one_state_at_a_time(method):
    """500 steps at n = 4096: a stored trajectory would peak at ~32 MiB."""
    grid = make_grid(-20.0, 20.0, 4096)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.5, k0=1.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3), b=FieldSpec.quadratic(0.545))
    ham = to_hamiltonian(spec, grid)
    tracemalloc.start()
    try:
        if method == "cn":
            traj = evolve_cn(state, 0.001, 500, ham)
        else:
            traj = evolve(state, 0.001, 500, spec, method="spectral")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.norms.shape == (501,)
    assert peak < 2 * 2 ** 20


def _gaussian_density(grid, sigma):
    p = np.exp(-grid.x ** 2 / (2.0 * sigma ** 2))
    return p / (np.sum(p) * grid.dx)


def test_density_step_mass_positivity_and_spread():
    grid = make_grid(-10.0, 10.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    eps = 0.05
    out = step_density(state, eps, FREE)
    assert total_mass(out) == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.density >= 0.0)
    _, v0 = moments(state)
    _, v1 = moments(out)
    # one step adds variance D eps
    assert v1 - v0 == pytest.approx(eps, rel=1e-3)


def test_density_step_drift_moves_the_mean():
    grid = make_grid(-10.0, 10.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.constant(0.5))
    eps = 0.05
    out = step_density(state, eps, spec)
    m0, _ = moments(state)
    m1, _ = moments(out)
    assert m1 - m0 == pytest.approx(0.5 * eps, rel=1e-6)


def test_density_step_requires_resolved_kernel():
    grid = make_grid(-10.0, 10.0, 256)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    # sqrt(D eps) below two grid spacings: the sampled Gaussian is unreliable
    with pytest.raises(ValidityError):
        step_density(state, 0.002, FREE)


def test_evolve_density_matches_free_spreading():
    grid = make_grid(-12.0, 12.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    traj = evolve_density(state, 0.02, 50, FREE)
    _, var = moments(traj.final)
    assert var == pytest.approx(0.64 + 1.0, rel=1e-3)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-8


def test_evolve_density_refuses_an_under_resolved_kernel():
    """The guard step_density applies holds over a whole evolution too."""
    grid = make_grid(-10.0, 10.0, 1024)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    with pytest.raises(ValidityError):
        evolve_density(state, 1e-4, 5, FREE)


AUDIT_GRID = make_grid(-8.0, 8.0, 1024)
AUDIT_PACKET = gaussian_packet(AUDIT_GRID, x0=0.3, sigma0=0.8, k0=0.5)
AFFINE_DRIFTS = {"constant": FieldSpec.constant(0.7), "linear": FieldSpec.linear(0.4)}
CHIRP_Z_SPECS = {
    f"{variant}-{kind}": PropagatorSpec(d=1.3, u=u, variant=variant,
                                        im_u=0.25 if variant == "complex_u" else 0.0)
    for variant in ("admissible", "no_t", "endpoint_t", "complex_u")
    for kind, u in AFFINE_DRIFTS.items()
}
CHIRP_Z_SPECS["zero-order"] = PropagatorSpec(d=1.0, u=FieldSpec.linear(-0.3),
                                             order="zero")
CHIRP_Z_SPECS["quadratic-b"] = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3),
                                              b=FieldSpec.quadratic(0.545))


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("eps", (0.32, 0.04))
@pytest.mark.parametrize("name", sorted(CHIRP_Z_SPECS))
def test_chirp_z_step_matches_the_kernel_matrix(name, eps):
    spec = CHIRP_Z_SPECS[name]
    psi = AUDIT_PACKET.psi
    expected = _dense_matrix(AUDIT_GRID, eps, spec) @ psi
    assert _rel(dense_operator(AUDIT_GRID, eps, spec)(psi), expected) <= 1e-10


def test_chirp_z_step_honours_a_constant_a_override():
    spec = CHIRP_Z_SPECS["admissible-linear"]
    a = FieldSpec.constant(0.13)
    expected = _dense_matrix(AUDIT_GRID, 0.08, spec, a) @ AUDIT_PACKET.psi
    out = step_dense(AUDIT_PACKET, 0.08, spec, a_override=a)
    assert _rel(out.psi, expected) <= 1e-10


def test_chirp_z_free_step_is_the_exact_multiplier_at_large_n():
    """n = 2^16, where the n x n operator would need 64 GiB."""
    grid = make_grid(-20.0, 20.0, 2 ** 16)
    state = gaussian_packet(grid, x0=0.5, sigma0=1.0, k0=0.7)
    eps = 0.05
    out = step_dense(state, eps, FREE)
    exact = np.fft.ifft(np.exp(-0.5j * eps * grid.k ** 2) * np.fft.fft(state.psi))
    assert _rel(out.psi, exact) <= 1e-10


@pytest.mark.parametrize("spec", (
    PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0)),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="x_dependent_d",
                   d_field=FieldSpec.tabulated(AUDIT_GRID.x,
                                               1.0 + 0.2 * np.sin(AUDIT_GRID.x))),
    PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="complex_d", im_d=0.1),
), ids=("sine-u", "x_dependent_d", "complex_d"))
def test_other_specs_apply_the_kernel_matrix(spec):
    eps = 0.16
    expected = _dense_matrix(AUDIT_GRID, eps, spec) @ AUDIT_PACKET.psi
    assert np.array_equal(step_dense(AUDIT_PACKET, eps, spec).psi, expected)
