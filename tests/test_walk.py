import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from gaussprop import walk
from gaussprop.fields import FieldSpec, PropagatorSpec
from gaussprop.walk import _BLOCK, MAX_SEED, histogram_compare, sample_paths

DRIFTING = PropagatorSpec(d=1.0, u=FieldSpec.constant(0.5))
FREE = PropagatorSpec(d=1.0)


def test_same_seed_reproduces_bit_for_bit():
    a = sample_paths(500, 20, 0.01, DRIFTING, seed=42)
    b = sample_paths(500, 20, 0.01, DRIFTING, seed=42)
    assert np.array_equal(a.positions, b.positions)
    c = sample_paths(500, 20, 0.01, DRIFTING, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def _draws(n_particles, n_steps, seed, step_law="gauss", jumps=0):
    """One Philox keyed by the seed, jumped `jumps` times, and the whole
    (n_particles, n_steps) draw matrix at once."""
    gen = np.random.Generator(np.random.Philox(key=seed).jumped(jumps))
    if step_law == "gauss":
        return gen.standard_normal((n_particles, n_steps))
    return gen.standard_exponential((n_particles, n_steps)) - 1.0


def _step_loop(z, eps, spec, x0):
    """Each step re-evaluates u at the particles: the walk's definition."""
    x = np.full(len(z), float(x0))
    width = np.sqrt(spec.d * eps)
    for s in range(z.shape[1]):
        x += spec.u(x) * eps + width * z[:, s]
    return x


def _reduction(z, eps, spec, x0):
    """x_n = r^n x0 + u0 eps sum(w) + sum(sqrt(D eps) w_k z_k) for u = u0 + s x,
    with r = 1 + s eps and w_k = r^(n-1-k): one pairwise sum over each row."""
    u0, slope = (*spec.u.coeffs, 0.0, 0.0)[:2]
    powers = np.float64(1.0 + slope * eps) ** np.arange(z.shape[1], -1, -1)
    start = powers[0] * x0 + u0 * eps * powers[1:].sum()
    return (z * (np.sqrt(spec.d * eps) * powers[1:])).sum(axis=1) + start


def _reference_paths(n_particles, n_steps, eps, spec, seed, x0=0.0, step_law="gauss", jumps=0):
    """The reduction for affine u, the step loop otherwise, on _draws' matrix."""
    z = _draws(n_particles, n_steps, seed, step_law, jumps)
    affine = spec.u.kind == "polynomial" and spec.u.degree <= 1
    return (_reduction if affine else _step_loop)(z, eps, spec, x0)


@pytest.mark.parametrize("step_law", ["gauss", "exp_centered"])
@pytest.mark.parametrize("u", [FieldSpec.constant(0.5), FieldSpec.linear(-0.5),
                               FieldSpec.sine(0.3, 1.0)], ids=("constant", "linear", "sine"))
def test_paths_equal_the_one_stream_reference(u, step_law):
    """A full block and a partial one change no bit."""
    spec = PropagatorSpec(d=1.0, u=u)
    ens = sample_paths(_BLOCK + 3, 20, 0.01, spec, seed=9, x0=0.3, step_law=step_law)
    assert np.array_equal(ens.positions,
                          _reference_paths(_BLOCK + 3, 20, 0.01, spec, 9, 0.3, step_law))


@pytest.mark.parametrize("step_law", ["gauss", "exp_centered"])
@pytest.mark.parametrize("u,eps,n_steps", [
    (FieldSpec.linear(-0.5), 0.0005, 8_192),
    (FieldSpec.linear(0.3), 0.01, 2_000),                          # r > 1: the walk grows
    (FieldSpec("polynomial", coeffs=(0.7, -150.0)), 0.01, 2_000),  # r = -0.5
    (FieldSpec("polynomial", coeffs=(0.2, -0.8)), 0.01, 2_000),
    (FieldSpec.constant(0.5), 0.01, 2_000),
], ids=("ou-long", "growing", "r-negative", "affine", "constant"))
def test_affine_reduction_matches_the_step_loop(u, eps, n_steps, step_law):
    """The one-sum advance and the walk's own step loop, on the same draws,
    agree to 1e-11 of max(1, |x|)."""
    spec = PropagatorSpec(d=1.0, u=u)
    ens = sample_paths(64, n_steps, eps, spec, seed=17, x0=0.3, step_law=step_law)
    loop = _step_loop(_draws(64, n_steps, 17, step_law), eps, spec, 0.3)
    assert np.all(np.abs(ens.positions - loop) <= 1e-11 * np.maximum(1.0, np.abs(loop)))


@pytest.mark.parametrize("step_law", ["gauss", "exp_centered"])
def test_paths_do_not_depend_on_the_block_size(step_law, monkeypatch):
    """Blocks of one row, of 7 rows with a partial last block, and one block of all 600."""
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-0.5))
    runs = []
    for block in (1, 7, 4096):
        monkeypatch.setattr(walk, "_BLOCK", block)
        runs.append(sample_paths(600, 20, 0.01, spec, seed=13, x0=0.3, step_law=step_law))
    assert all(np.array_equal(runs[0].positions, run.positions) for run in runs[1:])


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _chunked_reference(n_particles, chunk, *args):
    """Particles [c chunk, (c + 1) chunk): the reference of the stream jumped c times."""
    return np.concatenate([_reference_paths(min(chunk, n_particles - start), *args,
                                            jumps=start // chunk)
                           for start in range(0, n_particles, chunk)])


@pytest.mark.parametrize("step_law", ["gauss", "exp_centered"])
@pytest.mark.parametrize("cpus", (1, 2, 4))
def test_chunk_c_draws_the_stream_jumped_c_at_any_cpu_count_and_block(cpus, step_law, monkeypatch):
    """Chunks of 64 on 200 particles (64, 64, 64 and 8 rows), each on a block
    of one row, of 7 rows (3 a thread at 2 CPUs, 1 at 4) and of 4096."""
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(walk, "_CHUNK", 64)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-0.5))
    expected = _chunked_reference(200, 64, 20, 0.01, spec, 13, 0.3, step_law)
    assert not np.array_equal(expected, _reference_paths(200, 20, 0.01, spec, 13, 0.3, step_law))
    for block in (1, 7, 4096):
        monkeypatch.setattr(walk, "_BLOCK", block)
        ens = sample_paths(200, 20, 0.01, spec, seed=13, x0=0.3, step_law=step_law)
        assert np.array_equal(ens.positions, expected)


def test_chunks_share_the_buffer_under_contention(monkeypatch):
    """Eight threads, 63 chunks, slices of one row and a short switch interval:
    no two chunks advance on the same slice, or the bits would differ."""
    _cpus(monkeypatch, 8)
    monkeypatch.setattr(walk, "_CHUNK", 16)
    monkeypatch.setattr(walk, "_BLOCK", 8)
    expected = _chunked_reference(1_000, 16, 5, 0.01, DRIFTING, 21)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ens = sample_paths(1_000, 5, 0.01, DRIFTING, seed=21)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(ens.positions, expected)


def _on_jump(monkeypatch, hook):
    """Call hook(c) each time the walk jumps a Philox stream to chunk c."""
    philox = np.random.Philox

    class Watched:
        def __init__(self, key):
            self.key = key

        def jumped(self, c):
            hook(c)
            return philox(key=self.key).jumped(c)

    monkeypatch.setattr(np.random, "Philox", Watched)


def test_chunks_march_side_by_side_and_leave_no_thread_behind(monkeypatch):
    """Two CPUs: chunks 0 and 1 each wait for the other to start, which passes
    only if both are in flight at once, on two threads."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(walk, "_CHUNK", 64)
    expected = _chunked_reference(200, 64, 20, 0.01, DRIFTING, 5)
    both, jumped_on = threading.Barrier(2, timeout=10), {}

    def hook(c):
        jumped_on[c] = threading.get_ident()
        if c < 2:
            both.wait()

    _on_jump(monkeypatch, hook)
    threads = threading.active_count()
    ens = sample_paths(200, 20, 0.01, DRIFTING, seed=5)
    assert threading.active_count() == threads
    assert sorted(jumped_on) == [0, 1, 2, 3] and jumped_on[0] != jumped_on[1]
    assert np.array_equal(ens.positions, expected)


def test_a_failing_chunk_raises_and_leaves_no_thread_behind(monkeypatch):
    """Four CPUs: chunk 2 fails at once while the other three are still
    running; the failure is raised only after they are joined."""
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(walk, "_CHUNK", 64)

    def hook(c):
        if c == 2:
            raise RuntimeError("chunk 2")
        time.sleep(0.05)

    _on_jump(monkeypatch, hook)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^chunk 2$"):
        sample_paths(200, 20, 0.01, DRIFTING, seed=5)
    assert threading.active_count() == threads


def test_particle_zero_keeps_the_stream_keyed_seed_and_zero():
    """Particle 0 draws the Philox stream with key (seed, 0), whatever the ensemble."""
    seed = 2 ** 64 - 3
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    x = _reduction(gen.standard_normal((1, 50)), 0.01, DRIFTING, 0.3)
    ens = sample_paths(1_000, 50, 0.01, DRIFTING, seed=seed, x0=0.3)
    assert ens.positions[0] == x[0]


def test_particle_streams_do_not_depend_on_ensemble_size():
    """Particle pid owns its stream: a smaller run is a prefix of a larger one."""
    big = sample_paths(200, 20, 0.01, DRIFTING, seed=5)
    small = sample_paths(50, 20, 0.01, DRIFTING, seed=5)
    assert np.array_equal(big.positions[:50], small.positions)
    big = sample_paths(2 * _BLOCK + 5, 20, 0.01, DRIFTING, seed=5)
    small = sample_paths(_BLOCK + 1, 20, 0.01, DRIFTING, seed=5)
    assert np.array_equal(big.positions[:_BLOCK + 1], small.positions)


def test_seed_must_fit_the_philox_key():
    for seed in (-1, MAX_SEED + 1):
        with pytest.raises(ValueError, match="seed"):
            sample_paths(10, 5, 0.01, FREE, seed=seed)
    ens = sample_paths(10, 5, 0.01, FREE, seed=MAX_SEED)
    assert np.array_equal(ens.positions, _reference_paths(10, 5, 0.01, FREE, MAX_SEED))


def _peak_mib(*args, **kwargs):
    tracemalloc.start()
    try:
        sample_paths(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_sampler_memory_holds_no_particles_by_steps_matrix():
    """The draws of a 20,000 x 200 walk take 31 MiB; one block of them is held at a time."""
    assert _peak_mib(20_000, 200, 0.01, DRIFTING, seed=1) < 8.0


def test_long_walk_memory_stays_within_the_draw_budget():
    """All 5,000 steps of 2,000 particles would take 76 MiB of draws; a block holds the budget."""
    budget = walk._DRAW_BYTES / 2 ** 20
    assert budget < 76.0
    assert _peak_mib(2_000, 5_000, 0.001, DRIFTING, seed=1) < budget + 2.0


def test_two_chunks_on_two_threads_share_the_draw_budget(monkeypatch):
    """Two chunks of 1,000 particles on two threads: each advances on half of
    the one buffer, not on a budget of its own."""
    _cpus(monkeypatch, 2)
    monkeypatch.setattr(walk, "_CHUNK", 1_000)
    assert _peak_mib(2_000, 5_000, 0.001, DRIFTING, seed=1) < walk._DRAW_BYTES / 2 ** 20 + 2.0


def test_ensemble_moments_match_drift_and_diffusion():
    """mean -> x0 + u t and var -> D t within 3 standard errors."""
    ens = sample_paths(20_000, 200, 0.01, DRIFTING, seed=7)
    n = ens.n_particles
    se_mean = np.sqrt(2.0 / n)
    se_var = 2.0 * np.sqrt(2.0 / (n - 1))
    assert abs(ens.sample_mean() - 1.0) < 3.0 * se_mean
    assert abs(ens.sample_variance() - 2.0) < 3.0 * se_var


def test_histogram_matches_the_gaussian_law():
    ens = sample_paths(20_000, 200, 0.01, DRIFTING, seed=7)
    comparison = histogram_compare(ens, DRIFTING, bins=50)
    assert comparison.reference == "gaussian"
    assert comparison.l1 < 0.05
    assert len(comparison.density) == 50
    assert len(comparison.edges) == 51


def test_central_limit_of_the_skewed_step_law():
    """One exponential step is visibly skewed; 200 of them are Gaussian."""
    single = sample_paths(20_000, 1, 0.01, FREE, seed=11, step_law="exp_centered")
    many = sample_paths(20_000, 200, 0.01, FREE, seed=11, step_law="exp_centered")
    skewed = histogram_compare(single, FREE)
    settled = histogram_compare(many, FREE)
    assert skewed.reference == "gaussian"
    assert skewed.l1 > 0.25
    assert settled.l1 < 0.08
    assert settled.l1 < skewed.l1 / 4.0


def test_varying_drift_is_checked_against_the_pde_oracle():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.sine(0.3, 1.0))
    ens = sample_paths(20_000, 200, 0.01, spec, seed=3)
    comparison = histogram_compare(ens, spec, bins=50)
    assert comparison.reference == "diffusion_oracle"
    assert comparison.l1 < 0.05


def test_sampler_preconditions():
    with pytest.raises(ValueError):
        sample_paths(100, 10, 0.01,
                     PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t"),
                     seed=0)
    with pytest.raises(ValueError):
        sample_paths(0, 10, 0.01, FREE, seed=0)
    for n_steps in (0, -1):  # a walk takes at least one step, as march does
        with pytest.raises(ValueError, match=f"^n_steps must be >= 1, got {n_steps}$"):
            sample_paths(100, n_steps, 0.01, FREE, seed=1, x0=1.5)
    with pytest.raises(ValueError):
        sample_paths(100, 10, 0.0, FREE, seed=0)
    with pytest.raises(ValueError):
        sample_paths(100, 10, 0.01, FREE, seed=0, step_law="uniform")


def test_histogram_preconditions():
    ens = sample_paths(100, 10, 0.01, FREE, seed=0)
    with pytest.raises(ValueError):
        histogram_compare(ens, FREE)


def test_positions_are_read_only():
    ens = sample_paths(100, 10, 0.01, FREE, seed=0)
    with pytest.raises(ValueError):
        ens.positions[0] = 99.0
