import re
import signal
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
                              WaveState, gaussian_packet, make_grid, moments, norm)
from gaussprop.propagate import (STEPPERS, ValidityError, _dense_matrix, dense_stepper,
                                 density_stepper, last, march, spectral_stepper, split_stepper)
from gaussprop.reference import diffusion_stepper

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


def test_spectral_steps_a_grid_of_any_length():
    """pocketfft transforms every length: at n = 1000 the step conserves the
    norm and meets the dense step at second order."""
    grid = make_grid(-8.0, 8.0, 1000)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.8, k0=0.5)
    norms = [norm(s) for s in march(state, 20, spectral_stepper(grid, 0.05, DRIFTED))]
    assert np.max(np.abs(np.array(norms) - norms[0])) <= 1e-13
    ladder = (0.16, 0.08, 0.04)
    gaps = [np.sqrt(np.sum(np.abs(dense_stepper(grid, eps, DRIFTED)(state).psi
                                  - spectral_stepper(grid, eps, DRIFTED)(state).psi) ** 2)
                    * grid.dx) for eps in ladder]
    assert np.polyfit(np.log(ladder), np.log(gaps), 1)[0] == pytest.approx(2.0, abs=0.3)


# drifts outside the chirp-z class: the gauge phase of a sine, a quadratic and
# a table (np.interp's piecewise-linear curve) against the kernel matrix
GAUGE_SPECS = {
    "sine": PropagatorSpec(d=1.0, u=FieldSpec.sine(0.5, 0.7), b=FieldSpec.quadratic(0.3)),
    "quadratic": PropagatorSpec(d=1.0, u=FieldSpec("polynomial", coeffs=(0.2, -0.3, 0.05))),
    "tabulated": PropagatorSpec(d=1.0, u=FieldSpec.tabulated(
        np.linspace(-6.0, 6.0, 401), 0.4 * np.tanh(np.linspace(-6.0, 6.0, 401)))),
}


@pytest.mark.parametrize("name", sorted(GAUGE_SPECS))
def test_the_gauge_step_conserves_the_norm(name):
    grid = make_grid(-10.0, 10.0, 1024)
    state = gaussian_packet(grid, x0=0.2, sigma0=0.6, k0=0.5)
    norms = [norm(s) for s in march(state, 100, spectral_stepper(grid, 0.01, GAUGE_SPECS[name]))]
    assert np.max(np.abs(np.array(norms) - norms[0])) <= 1e-13


@pytest.mark.parametrize("name", sorted(GAUGE_SPECS))
def test_the_gauge_step_meets_the_dense_step_at_second_order(name):
    grid = make_grid(-6.0, 6.0, 1024)
    state = gaussian_packet(grid, x0=0.0, sigma0=0.7, k0=0.5)
    spec, ladder = GAUGE_SPECS[name], (0.16, 0.08, 0.04, 0.02)
    gaps = [np.sqrt(np.sum(np.abs(dense_stepper(grid, eps, spec)(state).psi
                                  - spectral_stepper(grid, eps, spec)(state).psi) ** 2)
                    * grid.dx) for eps in ladder]
    assert np.polyfit(np.log(ladder), np.log(gaps), 1)[0] == pytest.approx(2.0, abs=0.3)


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
    runs = [(state, n, spectral_stepper(grid, eps, DRIFTED))
            for eps, n in ((0.04, 10), (0.02, 20), (0.01, 40))]
    runs.append((state, 20, split_stepper(grid, 0.02, DRIFTED)))
    # chirp-z rungs, and a kernel matrix's, marched alone
    runs += [(state, n, dense_stepper(grid, eps, DRIFTED)) for eps, n in ((0.2, 5), (0.15, 8))]
    sine = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    runs.append((state, 3, dense_stepper(grid, 0.2, sine)))
    expected = [last(march(state, n, step)) for state, n, step in runs]
    finals = propagate.finals(runs)
    assert [f.time for f in finals] == [e.time for e in expected]
    assert all(np.array_equal(f.psi, e.psi) for f, e in zip(finals, expected, strict=True))


def _watched(step, hook):
    """step, its guard calling hook() first."""
    guard = step.guard
    step.guard = lambda amp, peak: hook() or guard(amp, peak)
    return step


@pytest.mark.parametrize("count", ("affinity", "cpu_count"))
def test_finals_march_the_longest_runs_side_by_side_each_on_its_own_thread(count, monkeypatch):
    """Two CPUs: the caller marches the longest run, and one pool thread, started
    and joined, marches the three others one after another, the second longest first.
    The first step of each of the two longest waits for the other's, which passes
    only if both are in flight at once.  Where the OS has no affinity call,
    os.cpu_count() counts the CPUs."""
    if count == "affinity":
        _cpus(monkeypatch, 2)
    else:
        monkeypatch.delattr(propagate.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(propagate.os, "cpu_count", lambda: 2)
    grid = make_grid(-12.0, 12.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0, k0=0.5)
    both = threading.Barrier(2, timeout=10)
    marched = {}  # n_steps -> the threads that stepped that run

    def hook(n_steps):
        def on_guard():
            if n_steps in (40, 20) and n_steps not in marched:
                both.wait()
            marched.setdefault(n_steps, set()).add(threading.get_ident())
        return on_guard

    ladder = ((0.04, 10), (0.01, 40), (0.02, 20), (0.08, 5))
    runs = [(state, n, _watched(spectral_stepper(grid, eps, DRIFTED), hook(n)))
            for eps, n in ladder]
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    finals = propagate.finals(runs)
    assert len(started) == 1 and not started[0].is_alive()
    assert marched[40] == {threading.get_ident()}
    assert marched[10] == marched[20] == marched[5] == {started[0].ident}
    expected = [last(march(state, n, spectral_stepper(grid, eps, DRIFTED))) for eps, n in ladder]
    assert all(np.array_equal(f.psi, e.psi) for f, e in zip(finals, expected, strict=True))


SPREADING_GRID = make_grid(-6.0, 6.0, 256)
SPREADING = gaussian_packet(SPREADING_GRID, x0=0.0, sigma0=0.4)


@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_finals_raise_the_first_failure_in_input_order(cpus, monkeypatch):
    """A packet spreading to the grid edge: the second run reaches it at a later
    step than the third, in the same block at one CPU, and its error is the serial
    loop's, step index and edge ratio included."""
    _cpus(monkeypatch, cpus)
    runs = [(SPREADING, n, spectral_stepper(SPREADING_GRID, eps, FREE))
            for eps, n in ((0.1, 2), (0.05, 60), (0.1, 60), (0.2, 2))]
    with pytest.raises(BoundaryDecayError) as serial:
        [last(march(state, n, step)) for state, n, step in runs]
    message = str(serial.value)
    assert re.fullmatch(r"aborted at step \d+: state has not decayed at the grid edges: "
                        r"edge/peak = .* \(need < 1\.0e-06\)", message)
    with pytest.raises(BoundaryDecayError) as third:
        last(march(SPREADING, 60, spectral_stepper(SPREADING_GRID, 0.1, FREE)))
    assert int(str(third.value).split()[3][:-1]) < int(message.split()[3][:-1])
    with pytest.raises(BoundaryDecayError, match=f"^{re.escape(message)}$"):
        propagate.finals(runs)


@pytest.mark.parametrize("cpus", (1, 2))
def test_finals_start_no_run_after_a_failure(cpus, monkeypatch):
    """The longest run fails at step 0: no run after it in input order takes a
    step past the one in flight.  At two CPUs the caller marches runs 0, 3 and 4
    and the pool runs 1 and 2: run 0 fails once run 1 is in its first step, and
    run 1 ends that step only once the caller has ended its group, so 3 and 4
    take no step and run 1 none after the one in flight."""
    _cpus(monkeypatch, cpus)
    grid = make_grid(-12.0, 12.0, 512)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.0)
    in_flight, caller_done, stepped = threading.Event(), threading.Event(), []

    def hook(i):
        def on_guard():
            stepped.append(i)
            if cpus == 2 and i == 1:
                in_flight.set()
                assert caller_done.wait(10)
        return on_guard

    def fail_in_flight():
        if cpus == 2:
            assert in_flight.wait(10)

    side_by_side = propagate.side_by_side

    def caller_group_then_done(tasks):
        first, *rest = tasks
        return side_by_side([lambda: (first(), caller_done.set())[0], *rest])

    monkeypatch.setattr(propagate, "side_by_side", caller_group_then_done)
    wide = WaveState(grid, np.exp(-grid.x ** 2 / 32.0))  # not decayed at the edges
    runs = [(wide, 40, _watched(spectral_stepper(grid, 0.01, FREE), fail_in_flight))] + [
        (state, 40 - i, _watched(spectral_stepper(grid, 0.01, FREE), hook(i)))
        for i in range(1, 5)]
    with pytest.raises(BoundaryDecayError, match="^aborted at step 0: state has not decayed"):
        propagate.finals(runs)
    assert stepped == ([1] if cpus == 2 else [])


def test_finals_march_every_run_once_under_contention(monkeypatch):
    """Eight threads on a short switch interval: every run takes each of its
    steps once, and its final state is the serial loop's to the bit."""
    _cpus(monkeypatch, 8)
    grid = make_grid(-8.0, 8.0, 128)
    guarded = {}

    def hook(i):
        return lambda: guarded.update({i: guarded.get(i, 0) + 1})

    def stepper(i):
        return (spectral_stepper if i % 2 else split_stepper)(grid, 0.01 * (1 + i % 3), DRIFTED)

    states = [gaussian_packet(grid, x0=0.01 * i, sigma0=0.8) for i in range(60)]
    runs = [(states[i], 1 + i % 7, _watched(stepper(i), hook(i))) for i in range(60)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        finals = propagate.finals(runs)
    finally:
        sys.setswitchinterval(interval)
    assert guarded == {i: 1 + i % 7 for i in range(60)}
    expected = [last(march(states[i], 1 + i % 7, stepper(i))) for i in range(60)]
    assert [f.time for f in finals] == [e.time for e in expected]
    assert all(np.array_equal(f.psi, e.psi) for f, e in zip(finals, expected, strict=True))


def _times(factor, psi, *, out=None):
    return np.multiply(factor, psi, out=out)


def _scaling(factor, apply=_times):
    """A Step that multiplies the state by factor, guarded by nothing."""
    return propagate.Step(0.1, lambda amp, peak: None, apply,
                          lambda: (np.full(SPREADING_GRID.n, factor),))


@pytest.mark.parametrize("case", ("caller", "pool", "after-an-end"))
def test_finals_raise_march_s_error_on_a_non_finite_state(case, monkeypatch):
    """A NaN factor, so no floating-point warning fires, makes the state non-finite:
    in the caller's group, in a pool group, or in a block marched after the group's
    first block has ended its run, finals raises the serial loop's error."""
    _cpus(monkeypatch, 1 if case == "after-an-end" else 2)
    ok, nan = _scaling(1.0), _scaling(np.nan, np.multiply)  # two applies: two blocks
    runs = {"caller": [(SPREADING, 4, nan), (SPREADING, 2, ok)],
            "pool": [(SPREADING, 4, ok), (SPREADING, 2, nan)],
            "after-an-end": [(SPREADING, 3, ok), (SPREADING, 2, nan)]}[case]
    with pytest.raises(ValueError) as serial:
        [last(march(state, n, step)) for state, n, step in runs]
    assert str(serial.value) == "aborted at step 0: psi must be finite"
    with pytest.raises(ValueError, match=f"^{re.escape(str(serial.value))}$"):
        propagate.finals(runs)


@pytest.mark.parametrize("cpus", (1, 2))
@pytest.mark.parametrize("scalar", (float, np.float64, np.array), ids=("float", "float64", "0-d"))
def test_finals_of_scalar_factors_are_the_serial_loop(scalar, cpus, monkeypatch):
    """Three runs of one apply, each of its own scalar factor, in one block at one CPU and
    in two at two: every row is stepped by its own factor, as march steps it."""
    _cpus(monkeypatch, cpus)

    def runs():
        return [(SPREADING, n, propagate.Step(0.1, lambda amp, peak: None, np.multiply,
                                              lambda f=f: (scalar(f),)))
                for n, f in ((2, 0.5), (2, 0.25), (3, 0.75))]

    expected = [last(march(*run)) for run in runs()]
    finals = propagate.finals(runs())
    assert [f.time for f in finals] == [e.time for e in expected]
    assert all(np.array_equal(f.psi, e.psi) for f, e in zip(finals, expected, strict=True))


@pytest.mark.parametrize("cpus", (1, 2))
def test_finals_promote_a_later_row_s_wider_factor(cpus, monkeypatch):
    """Real factors stacked first, a complex one after them: the stacked factor takes
    the complex type, and each row is stepped by its own factor as march steps it.
    One CPU marches the three runs as one block, two the two shorter ones."""
    _cpus(monkeypatch, cpus)

    def runs():
        return [(SPREADING, n, _scaling(f, np.multiply)) for n, f in ((4, 0.5), (2, 0.5),
                                                                       (2, 0.5j))]

    expected = [last(march(*run)) for run in runs()]
    finals = propagate.finals(runs())
    assert np.abs(expected[2].psi).max() > 0.1
    assert all(np.array_equal(f.psi, e.psi) for f, e in zip(finals, expected, strict=True))


def test_pool_threads_work_under_the_caller_s_errstate(monkeypatch):
    """numpy keeps np.errstate in a context variable, which a new thread starts
    without: each pool task runs in a copy of the caller's context, so an overflow
    the caller ignores ends a pool group's run as it ends the serial loop's."""
    _cpus(monkeypatch, 2)
    runs = [(SPREADING, 3, _scaling(1.0)), (SPREADING, 3, _scaling(1e200))]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError) as serial:
            [last(march(state, n, step)) for state, n, step in runs]
        assert str(serial.value) == "aborted at step 1: psi must be finite"
        with pytest.raises(ValueError, match=f"^{re.escape(str(serial.value))}$"):
            propagate.finals(runs)
        products = propagate.one_behind(np.array([1e200, 1.0]), lambda x: x * 1e200)
        assert products == [np.inf, 1e200]


def test_an_interrupt_raises_once_every_worker_is_joined():
    """Three tasks, each on a thread of its own, task 0 on the caller's: task 0
    sends the caller a SIGINT once all three are running, and the interrupt is
    raised only after tasks 1 and 2 have ended and their threads are joined."""
    started, ended, running = [], [], threading.Barrier(3, timeout=10)

    def task(i):
        started.append(threading.get_ident())
        running.wait()
        if i == 0:
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            time.sleep(10)  # interrupted here
        time.sleep(0.1)
        ended.append(i)

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        propagate.side_by_side([lambda i=i: task(i) for i in range(3)])
    assert len(set(started)) == 3 and started.count(threading.get_ident()) == 1
    assert sorted(ended) == [1, 2]
    assert threading.active_count() == threads


def test_one_behind_takes_an_item_only_once_the_work_two_before_it_ended():
    """Results come in item order; item i + 2 is taken only after work(item i)
    ended, and the first failing item's error is raised once the worker is
    joined."""
    events = []

    def items(count):
        for i in range(count):
            events.append(("take", i))
            yield i

    def work(i):
        time.sleep(0.002)
        events.append(("end", i))
        if i >= 4:
            raise ValueError(f"item {i}")
        return i * i

    def interrupted():
        yield 0
        raise KeyboardInterrupt

    before = threading.active_count()
    assert propagate.one_behind(items(4), work) == [0, 1, 4, 9]
    assert all(events.index(("end", i - 2)) < events.index(("take", i)) for i in range(2, 4))
    with pytest.raises(ValueError, match="^item 4$"):
        propagate.one_behind(items(7), work)
    with pytest.raises(KeyboardInterrupt):
        propagate.one_behind(interrupted(), work)
    assert threading.active_count() == before


def test_one_behind_items_reuse_two_buffers_under_contention():
    """Each item refills the buffer of the item two before it, on a short
    switch interval: no work reads a buffer the caller is refilling."""
    buffers = np.empty((2, 100_000))

    def items():
        for i in range(200):
            buffers[i % 2] = i
            yield buffers[i % 2]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sums = propagate.one_behind(items(), lambda buf: float(buf.sum()))
    finally:
        sys.setswitchinterval(interval)
    assert sums == [100_000.0 * i for i in range(200)]


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
    (FREE, 512, 0.0, "eps must be > 0"),
], ids=("variant", "eps"))
def test_spectral_evolve_checks_before_it_steps(spec, n, eps, message):
    """The spectral guards run when the step is built, so no step is taken."""
    grid = make_grid(-8.0, 8.0, n)
    with pytest.raises(ValueError, match=f"^(?!aborted).*{message}"):
        last(march(gaussian_packet(grid, x0=0.0, sigma0=0.8), 5,
                   STEPPERS["spectral"](grid, eps, spec)))
    with pytest.raises(ValueError, match=message):
        spectral_stepper(grid, eps, spec)


GUARD_GRID = make_grid(-8.0, 8.0, 256)
EPS_BUILDERS = {
    "dense": dense_stepper,
    "spectral": spectral_stepper,
    "density": density_stepper,
    "split": split_stepper,
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


@pytest.mark.parametrize("method", ("spectral", "split"))
def test_evolutions_hold_one_state_at_a_time(method):
    """500 steps at n = 4096: a stored trajectory would peak at ~32 MiB."""
    grid = make_grid(-20.0, 20.0, 4096)
    state = gaussian_packet(grid, x0=0.0, sigma0=1.5, k0=1.0)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3), b=FieldSpec.quadratic(0.545))
    tracemalloc.start()
    try:
        step = (split_stepper if method == "split" else spectral_stepper)(grid, 0.001, spec)
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
    step = dense_stepper(AUDIT_GRID, eps, spec)
    assert _rel(step.apply(*step.build(), psi), expected) <= 1e-10


def test_a_zero_coefficient_quadratic_drift_takes_chirp_z():
    """quadratic(0) is the zero polynomial, so n = 2^14 needs no 4 GiB matrix."""
    grid = make_grid(-20.0, 20.0, 2 ** 14)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.quadratic(0.0))
    psi = gaussian_packet(grid, x0=0.5, sigma0=1.0).psi
    quadratic, free = dense_stepper(grid, 0.05, spec), dense_stepper(grid, 0.05, FREE)
    assert np.array_equal(quadratic.apply(*quadratic.build(), psi),
                          free.apply(*free.build(), psi))


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
