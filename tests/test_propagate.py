import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gaussprop import propagate
from gaussprop.audit import predicted_drift_rate
from gaussprop.fields import (BoundaryDecayError, FieldSpec, PropagatorSpec, RealState,
                              gaussian_packet, make_grid, moments, norm)
from gaussprop.propagate import (ValidityError, _dense_matrix, dense_operator, dense_stepper,
                                 density_stepper, last, march, spectral_stepper, wave_stepper)
from gaussprop.reference import cn_stepper, diffusion_stepper, to_hamiltonian

FREE = PropagatorSpec(d=1.0)
DRIFTED = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.2), b=FieldSpec.sine(0.3, 1.0))


def test_free_dispersion_law():
    """Spectral free evolution reproduces sigma^2(t) = sigma0^2 + (D t / 2 sigma0)^2."""
    grid = make_grid(-12.0, 12.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0, k0=0.0)
    stream = list(march(state, 200, spectral_stepper(grid, 0.01, FREE)))
    _, _, var = moments(stream[-1])
    assert var == pytest.approx(2.0, rel=1e-6)
    assert np.max(np.abs(np.array([norm(s) for s in stream]) - 1.0)) < 1e-12


def test_spectral_free_step_is_exactly_unimodular():
    grid = make_grid(-10.0, 10.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.9, k0=0.6)
    out = spectral_stepper(grid, 0.05, FREE)(state)
    assert norm(out) == pytest.approx(norm(state), abs=1e-14)


def test_spectral_first_order_preserves_norm_with_fields():
    grid = make_grid(-10.0, 10.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.5)
    norms = [norm(s) for s in march(state, 50, spectral_stepper(grid, 0.01, DRIFTED))]
    assert np.max(np.abs(np.array(norms) - 1.0)) < 1e-12


def test_dense_no_t_leaks_at_the_predicted_rate():
    """Dropping the T correction leaks norm at rate int u' |psi|^2 = u'."""
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    ladder = (0.32, 0.16, 0.08, 0.04)
    rates = [(norm(dense_stepper(grid, eps, spec)(state)) - norm(state)) / eps
             for eps in ladder]
    # drift/eps is linear in eps near 0: extrapolate from the two smallest rungs
    (e1, e2), (r1, r2) = ladder[-2:], rates[-2:]
    rate = r2 - (r1 - r2) / (e1 - e2) * e2
    assert rate == pytest.approx(predicted_drift_rate(state, spec), rel=0.01)


def test_dense_and_spectral_agree_at_second_order():
    """Single-step gap shrinks like eps^2: both sides share the O(eps) kernel."""
    grid = make_grid(-6.0, 6.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.7, k0=0.5)
    ladder = (0.16, 0.08, 0.04, 0.02)
    gaps = []
    for eps in ladder:
        dense = dense_stepper(grid, eps, DRIFTED)(state)
        spectral = spectral_stepper(grid, eps, DRIFTED)(state)
        gaps.append(np.sqrt(np.sum(np.abs(dense.psi - spectral.psi) ** 2)
                            * grid.dx))
    slope = np.polyfit(np.log(ladder), np.log(gaps), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_dense_step_conserves_norm_to_first_order():
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4))
    out = dense_stepper(grid, 0.1, spec)(state)
    assert norm(out) == pytest.approx(1.0, abs=5e-3)


def test_validity_check_report():
    """The dense step's phase check passes at eps = 0.1; at 0.001 its error
    reports the check's failure and a smallest eps above 0.001."""
    grid = make_grid(-8.0, 8.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    assert dense_stepper(grid, 0.1, FREE)(state).time == 0.1
    with pytest.raises(ValidityError, match="unresolved") as info:
        dense_stepper(grid, 0.001, FREE)(state)
    recommended = re.search(r"eps >= (\S+) recommended", str(info.value)).group(1)
    assert float(recommended) > 0.001


def test_dense_step_raises_below_phase_resolution():
    grid = make_grid(-12.0, 12.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0)
    with pytest.raises(ValidityError):
        dense_stepper(grid, 0.001, FREE)(state)


def test_evolve_aborts_when_packet_reaches_edge():
    grid = make_grid(-4.0, 4.0, 256)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.45)
    with pytest.raises(BoundaryDecayError, match=r"aborted at step \d+: "):
        last(march(state, 200, spectral_stepper(grid, 0.05, FREE)))


def test_spectral_requires_power_of_two_grid():
    grid = make_grid(-8.0, 8.0, 1000)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    with pytest.raises(ValueError):
        spectral_stepper(grid, 0.05, FREE)(state)


def test_spectral_rejects_variants():
    grid = make_grid(-8.0, 8.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    with pytest.raises(ValueError):
        spectral_stepper(grid, 0.05, spec)(state)


def test_trajectory_bookkeeping():
    grid = make_grid(-10.0, 10.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.9)
    stream = list(march(state, 4, spectral_stepper(grid, 0.05, FREE)))
    times = [s.time for s in stream]
    assert np.allclose(times, [0.0, 0.05, 0.1, 0.15, 0.2])
    assert len(stream) == 5
    final = last(march(state, 4, spectral_stepper(grid, 0.05, FREE)))
    assert final.time == times[-1]
    assert norm(stream[-1]) == norm(final)


def test_march_streams_the_start_state_then_each_step():
    grid = make_grid(-10.0, 10.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.9)
    stream = list(march(state, 3, spectral_stepper(grid, 0.05, FREE)))
    assert stream[0] is state
    assert [s.time for s in stream] == pytest.approx([0.0, 0.05, 0.1, 0.15])


def _cpus(monkeypatch, count):
    monkeypatch.setattr(propagate.os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_finals_are_the_serial_loop_bit_for_bit(cpus, monkeypatch):
    _cpus(monkeypatch, cpus)
    grid = make_grid(-12.0, 12.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0, k0=0.5)
    runs = [(state, n, lambda eps=eps: spectral_stepper(grid, eps, DRIFTED))
            for eps, n in ((0.04, 10), (0.02, 20), (0.01, 40))]
    runs.append((state, 20, lambda: cn_stepper(grid, 0.02, to_hamiltonian(DRIFTED, grid))))
    # chirp-z rungs: each dense operator transforms in a buffer of its own
    runs += [(state, n, lambda eps=eps: dense_stepper(grid, eps, DRIFTED))
             for eps, n in ((0.2, 5), (0.15, 8))]
    expected = [last(march(state, n, build())) for state, n, build in runs]
    finals = propagate.finals(runs)
    assert [f.time for f in finals] == [e.time for e in expected]
    assert all(np.array_equal(f.psi, e.psi) for f, e in zip(finals, expected, strict=True))


@pytest.mark.parametrize("count", ("affinity", "cpu_count"))
def test_finals_march_the_longest_runs_side_by_side_each_on_its_own_thread(count, monkeypatch):
    """Two CPUs: the two longest runs are built first, and each build waits
    for the other, which passes only if both are in flight at once.  Where
    the OS has no affinity call, os.cpu_count() counts the CPUs."""
    if count == "affinity":
        _cpus(monkeypatch, 2)
    else:
        monkeypatch.delattr(propagate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(propagate.os, "cpu_count", lambda: 2)
    both = threading.Barrier(2, timeout=10)
    built, stepped = [], {}

    def run(i, n_steps):
        def build():
            built.append((i, threading.get_ident()))
            both.wait()
            return lambda x: stepped.setdefault(i, set()).add(threading.get_ident()) or x + 1
        return 0, n_steps, build

    assert propagate.finals([run(0, 1), run(1, 5), run(2, 3), run(3, 4)]) == [1, 5, 3, 4]
    assert {i for i, _ in built[:2]} == {1, 3}
    assert all(stepped[i] == {ident} for i, ident in built)  # built where marched


@pytest.mark.parametrize("cpus", (1, 4))
def test_finals_raise_the_first_failure_in_input_order(cpus, monkeypatch):
    _cpus(monkeypatch, cpus)

    def failing_at(k):
        def step(x):
            if x == k:
                raise ValidityError(f"state {k}")
            return x + 1
        return step

    runs = [(0, 3, lambda: failing_at(9)), (0, 4, lambda: failing_at(2)),
            (0, 5, lambda: failing_at(9)), (0, 6, lambda: failing_at(1))]
    with pytest.raises(ValidityError, match=r"^aborted at step 2: state 2$"):
        propagate.finals(runs)


@pytest.mark.parametrize("cpus", (1, 2))
def test_finals_start_no_run_after_a_failure(cpus, monkeypatch):
    """The first run is the longest and its build fails: besides it, at most
    the run already in flight on the other thread is built."""
    _cpus(monkeypatch, cpus)
    built = []

    def build_failing():
        built.append(0)
        raise ValueError("no operator")

    def builder(i):
        def build():
            built.append(i)
            return lambda x: time.sleep(0.005) or x + 1
        return build

    runs = [(0, 10, build_failing)] + [(0, 10 - i, builder(i)) for i in range(1, 6)]
    with pytest.raises(ValueError, match="^no operator$"):
        propagate.finals(runs)
    assert 0 in built and set(built) <= set(range(cpus))


def test_finals_march_every_run_once_under_contention(monkeypatch):
    """Eight threads on a short switch interval: no run is lost or taken twice."""
    _cpus(monkeypatch, 8)
    built = []
    runs = [(i, 1 + i % 7, lambda i=i: built.append(i) or (lambda x: x + 1))
            for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        finals = propagate.finals(runs)
    finally:
        sys.setswitchinterval(interval)
    assert finals == [i + 1 + i % 7 for i in range(300)]
    assert sorted(built) == list(range(300))


def test_an_interrupt_starts_no_further_task_and_joins_the_workers():
    """Two threads on six tasks: the caller's task is interrupted while the
    worker's is still running, so the other four never start."""
    caller, started, busy = threading.get_ident(), [], threading.Event()

    def task(i):
        started.append(i)
        if threading.get_ident() == caller:
            assert busy.wait(10)
            raise KeyboardInterrupt
        busy.set()
        time.sleep(0.1)  # still running when the caller's interrupt clears the queue

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        propagate.side_by_side([lambda i=i: task(i) for i in range(6)], 2)
    assert sorted(started) == [0, 1]
    assert threading.active_count() == threads


def test_dense_evolve_checks_before_it_builds(monkeypatch):
    """A run that must exit at step 0 never builds the n x n matrix."""
    def fail(*args, **kwargs):
        raise AssertionError("operator built before the validity check")

    monkeypatch.setattr(propagate, "_dense_matrix", fail)
    grid = make_grid(-10.0, 10.0, 256)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    with pytest.raises(ValidityError, match="aborted at step 0"):
        last(march(state, 5, dense_stepper(grid, 0.001, spec)))


def test_dense_evolve_builds_its_operator_once(monkeypatch):
    calls = []
    original = propagate._dense_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(propagate, "_dense_matrix", counting)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    stream = list(march(AUDIT_PACKET, 3, dense_stepper(AUDIT_GRID, 0.16, spec)))
    assert len(calls) == 1
    assert len(stream) == 4


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
        last(march(gaussian_packet(grid, x0=0.0, sigma0=0.8), 5,
                   wave_stepper(grid, eps, spec, method="spectral")))
    with pytest.raises(ValueError, match=message):
        spectral_stepper(grid, eps, spec)


GUARD_GRID = make_grid(-8.0, 8.0, 256)
EPS_BUILDERS = {
    "dense": dense_stepper,
    "spectral": spectral_stepper,
    "density": density_stepper,
    "cn": lambda grid, eps, spec: cn_stepper(grid, eps, to_hamiltonian(spec, grid)),
    "diffusion": diffusion_stepper,
}


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
@pytest.mark.parametrize("builder", list(EPS_BUILDERS))
def test_every_builder_refuses_a_bad_eps_when_built(builder, eps):
    """eps must be finite and > 0, checked before any field is evaluated."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eps must be > 0"):
            EPS_BUILDERS[builder](GUARD_GRID, eps, DRIFTED)


def test_spectral_evolve_builds_its_factors_once():
    calls = []

    class CountingField(FieldSpec):
        def __call__(self, x):
            calls.append(self.kind)
            return super().__call__(x)

    spec = PropagatorSpec(d=1.0, u=CountingField("polynomial", coeffs=(0.0, 0.2)),
                          b=CountingField("sine", amplitude=0.3, wavenumber=1.0))
    grid = make_grid(-10.0, 10.0, 512)
    stream = list(march(gaussian_packet(grid, x0=0.0, sigma0=0.9), 4,
                        spectral_stepper(grid, 0.05, spec)))
    assert sorted(calls) == ["polynomial", "sine"]
    assert len(stream) == 5


@pytest.mark.parametrize("method", ("spectral", "cn"))
def test_evolutions_hold_one_state_at_a_time(method):
    """500 steps at n = 4096: a stored trajectory would peak at ~32 MiB."""
    grid = make_grid(-20.0, 20.0, 4096)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.5, k0=1.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3), b=FieldSpec.quadratic(0.545))
    ham = to_hamiltonian(spec, grid)
    tracemalloc.start()
    try:
        step = (cn_stepper(grid, 0.001, ham) if method == "cn"
                else spectral_stepper(grid, 0.001, spec))
        norms = [norm(s) for s in march(state, 500, step)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(norms) == 501
    assert peak < 2 * 2 ** 20


def _gaussian_density(grid, sigma):
    p = np.exp(-grid.x ** 2 / (2.0 * sigma ** 2))
    return p / (np.sum(p) * grid.dx)


def test_density_step_mass_positivity_and_spread():
    grid = make_grid(-10.0, 10.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    eps = 0.05
    out = density_stepper(grid, eps, FREE)(state)
    assert moments(out)[0] == pytest.approx(1.0, abs=1e-9)
    assert np.all(out.density >= 0.0)
    _, _, v0 = moments(state)
    _, _, v1 = moments(out)
    # one step adds variance D eps
    assert v1 - v0 == pytest.approx(eps, rel=1e-3)


def test_density_step_drift_moves_the_mean():
    grid = make_grid(-10.0, 10.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.constant(0.5))
    eps = 0.05
    out = density_stepper(grid, eps, spec)(state)
    _, m0, _ = moments(state)
    _, m1, _ = moments(out)
    assert m1 - m0 == pytest.approx(0.5 * eps, rel=1e-6)


def test_density_step_requires_resolved_kernel():
    grid = make_grid(-10.0, 10.0, 256)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    # sqrt(D eps) below two grid spacings: the sampled Gaussian is unreliable
    with pytest.raises(ValidityError):
        density_stepper(grid, 0.002, FREE)(state)


def test_density_step_refuses_a_matrix_beyond_its_bound_before_allocating():
    """n = 2^14 resolves sqrt(D eps) = 0.32, but its real matrix would be 2 GiB."""
    grid = make_grid(-20.0, 20.0, 2 ** 14)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grid.n = 16384 .* grid.n <= 8192"):
            density_stepper(grid, 0.1, FREE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_evolve_density_matches_free_spreading():
    grid = make_grid(-12.0, 12.0, 512)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    stream = list(march(state, 50, density_stepper(grid, 0.02, FREE)))
    _, _, var = moments(stream[-1])
    assert var == pytest.approx(0.64 + 1.0, rel=1e-3)
    assert np.max(np.abs(np.array([moments(s)[0] for s in stream]) - 1.0)) < 1e-8


def test_evolve_density_refuses_an_under_resolved_kernel():
    """The guard of one density step holds over a whole evolution too."""
    grid = make_grid(-10.0, 10.0, 1024)
    state = RealState(grid=grid, density=_gaussian_density(grid, 0.8), time=0.0)
    with pytest.raises(ValidityError):
        last(march(state, 5, density_stepper(grid, 1e-4, FREE)))


AUDIT_GRID = make_grid(-8.0, 8.0, 1024)
AUDIT_PACKET = gaussian_packet(AUDIT_GRID, x0=0.3, sigma0=0.8, k0=0.5)
AFFINE_DRIFTS = {"constant": FieldSpec.constant(0.7), "linear": FieldSpec.linear(0.4)}
CHIRP_Z_SPECS = {
    f"{variant}-{kind}": PropagatorSpec(d=1.3, u=u, variant=variant,
                                        im_u=0.25 if variant == "complex_u" else 0.0)
    for variant in ("admissible", "no_t", "endpoint_t", "complex_u")
    for kind, u in AFFINE_DRIFTS.items()
}
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


def test_a_zero_coefficient_quadratic_drift_takes_chirp_z():
    """quadratic(0) is the zero polynomial, so n = 2^14 needs no 4 GiB matrix."""
    grid = make_grid(-20.0, 20.0, 2 ** 14)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.quadratic(0.0))
    psi = gaussian_packet(grid, x0=0.5, sigma0=1.0).psi
    assert np.array_equal(dense_operator(grid, 0.05, spec)(psi),
                          dense_operator(grid, 0.05, FREE)(psi))


def test_chirp_z_free_step_is_the_exact_multiplier_at_large_n():
    """n = 2^16, where the n x n operator would need 64 GiB."""
    grid = make_grid(-20.0, 20.0, 2 ** 16)
    state = gaussian_packet(grid, x0=0.5, sigma0=1.0, k0=0.7)
    eps = 0.05
    out = dense_stepper(grid, eps, FREE)(state)
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
    assert np.array_equal(dense_stepper(AUDIT_GRID, eps, spec)(AUDIT_PACKET).psi, expected)
