import tracemalloc

import numpy as np
import pytest

from gaussprop import (
    FieldSpec,
    PropagatorSpec,
    histogram_compare,
    sample_paths,
)
from gaussprop.walk import _BLOCK, MAX_SEED

DRIFTING = PropagatorSpec(d=1.0, u=FieldSpec.constant(0.5))
FREE = PropagatorSpec(d=1.0)


def test_same_seed_reproduces_bit_for_bit():
    a = sample_paths(500, 20, 0.01, DRIFTING, seed=42)
    b = sample_paths(500, 20, 0.01, DRIFTING, seed=42)
    assert np.array_equal(a.positions, b.positions)
    c = sample_paths(500, 20, 0.01, DRIFTING, seed=43)
    assert not np.array_equal(a.positions, c.positions)


def _reference_paths(n_particles, n_steps, eps, spec, seed, x0=0.0, step_law="gauss"):
    """One fresh Philox per particle and the whole draw matrix at once."""
    z = np.empty((n_particles, n_steps))
    for pid in range(n_particles):
        gen = np.random.Generator(np.random.Philox(key=np.array([seed, pid], dtype=np.uint64)))
        if step_law == "gauss":
            z[pid] = gen.standard_normal(n_steps)
        else:
            z[pid] = gen.standard_exponential(n_steps) - 1.0
    x = np.full(n_particles, float(x0))
    width = np.sqrt(spec.d * eps)
    for s in range(n_steps):
        x += spec.u(x) * eps + width * z[:, s]
    return x


@pytest.mark.parametrize("step_law", ["gauss", "exp_centered"])
@pytest.mark.parametrize("u", [FieldSpec.constant(0.5), FieldSpec.linear(-0.5),
                               FieldSpec.sine(0.3, 1.0)], ids=lambda u: u.kind)
def test_paths_equal_the_per_particle_reference(u, step_law):
    """A full block and a partial one change no bit."""
    spec = PropagatorSpec(d=1.0, u=u)
    ens = sample_paths(_BLOCK + 3, 20, 0.01, spec, seed=9, x0=0.3, step_law=step_law)
    assert np.array_equal(ens.positions,
                          _reference_paths(_BLOCK + 3, 20, 0.01, spec, 9, 0.3, step_law))


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


def test_zero_steps_leaves_particles_at_the_origin():
    ens = sample_paths(100, 0, 0.0, FREE, seed=1, x0=1.5)
    assert np.all(ens.positions == 1.5)
    assert ens.time == 0.0


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
    skewed = histogram_compare(single, FREE, reference="fitted")
    settled = histogram_compare(many, FREE, reference="fitted")
    assert skewed.reference == "fitted_gaussian"
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
    with pytest.raises(ValueError):
        sample_paths(100, 10, 0.0, FREE, seed=0)
    with pytest.raises(ValueError):
        sample_paths(100, 10, 0.01, FREE, seed=0, step_law="uniform")


def test_histogram_preconditions():
    ens = sample_paths(100, 10, 0.01, FREE, seed=0)
    with pytest.raises(ValueError):
        histogram_compare(ens, FREE)
    big = sample_paths(10_000, 10, 0.01, FREE, seed=0)
    with pytest.raises(ValueError):
        histogram_compare(big, FREE, reference="bogus")


def test_positions_are_read_only():
    ens = sample_paths(100, 10, 0.01, FREE, seed=0)
    with pytest.raises(ValueError):
        ens.positions[0] = 99.0
