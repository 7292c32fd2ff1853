"""The FFT layer: pocketfft from scipy's compiled extension, transforming in
place, bit for bit what numpy.fft gives.  These fail loudly if a numpy and a
scipy ever ship pocketfft builds that round differently."""

import sys

import numpy as np
import pytest

from gaussprop import propagate
from gaussprop.fields import FieldSpec, PropagatorSpec, gaussian_packet, make_grid
from gaussprop.propagate import dense_stepper, spectral_stepper

SIZES = (8, 100, 1000, 1024, 2048, 3000, 4096, 8192, 2 ** 16, 2 ** 17)
GRID = make_grid(-8.0, 8.0, 1024)
STATES = (gaussian_packet(GRID, x0=0.3, sigma0=0.8, k0=0.5),
          gaussian_packet(GRID, x0=-0.6, sigma0=0.6, k0=-1.1))


def _factors(step):
    """A step's factors by the names its apply takes them under."""
    return dict(zip(step.apply.__code__.co_varnames, step.build()))


TRANSFORMS = (lambda a: propagate._c2c(a, True), lambda a: propagate._c2c(a, False))


@pytest.mark.parametrize("n", SIZES)
def test_the_transforms_are_numpy_s_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a.flags.writeable = False
    original = a.copy()
    for ours, numpy_s in zip(TRANSFORMS, (np.fft.fft, np.fft.ifft)):
        work = a.copy()
        assert ours(work) is work
        assert np.array_equal(work, numpy_s(a))
        with pytest.raises(ValueError, match="not writeable"):
            ours(a)  # a state's read-only samples are never written over
    assert np.array_equal(a, original)


@pytest.mark.parametrize("n", (1000, 2048, 4096))
@pytest.mark.parametrize("rows", (1, 2, 3, 4, 5))
def test_a_block_s_transforms_are_each_row_s_bit_for_bit(rows, n):
    """A lockstep block of rows steps each row to the bits of stepping it alone
    because pocketfft's c2c over axis 1 of a (rows, n) block, unnormalized
    forward and times 1/n backward, is each row's 1-d transform."""
    rng = np.random.default_rng(rows * n)
    block = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
    for transform in TRANSFORMS:
        expected = np.stack([transform(row.copy()) for row in block])
        assert np.array_equal(transform(block.copy()), expected)


@pytest.mark.parametrize("spec", (
    PropagatorSpec(d=1.3, u=FieldSpec.linear(0.4)),
    PropagatorSpec(d=1.3, u=FieldSpec.constant(0.7), variant="complex_u", im_u=0.25),
), ids=("admissible", "complex_u"))
def test_a_chirp_z_operator_reused_on_two_states_is_the_numpy_formula(spec, monkeypatch):
    """One operator steps two states in turn: nothing carries over from the
    first to the second."""
    step = dense_stepper(GRID, 0.32, spec)
    factors = step.build()
    with monkeypatch.context() as patch:  # today's transforms, allocating
        patch.setattr(propagate, "_c2c",
                      lambda a, forward: np.fft.fft(a) if forward else np.fft.ifft(a))
        numpy_s = _factors(dense_stepper(GRID, 0.32, spec))
    assert np.array_equal(_factors(step)["chirp_hat"], numpy_s["chirp_hat"])
    row, col, chirp_hat = numpy_s["row"], numpy_s["col"], numpy_s["chirp_hat"]
    for state in STATES:
        expected = row * np.fft.ifft(chirp_hat * np.fft.fft(col * state.psi,
                                                            chirp_hat.size))[:GRID.n]
        assert np.array_equal(step.apply(*factors, state.psi), expected)


def test_a_drifted_spectral_step_is_the_numpy_formula():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.2), b=FieldSpec.sine(0.3, 1.0))
    step = spectral_stepper(GRID, 0.02, spec)
    parts = _factors(step)
    assert np.any(parts["post"] != 1.0)  # the drift's gauge phase
    for state in STATES:
        expected = parts["post"] * np.fft.ifft(parts["free"] * np.fft.fft(parts["pre"]
                                                                          * state.psi))
        out = step(state)
        assert np.array_equal(out.psi, expected)
        assert not out.psi.flags.writeable


def test_a_missing_pocketfft_extension_raises_import_error_naming_the_path(monkeypatch,
                                                                           tmp_path):
    name = "scipy.fft._pocketfft.pypocketfft"
    monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(propagate, "_extension_dirs", lambda name: [str(tmp_path)])
    with pytest.raises(ImportError, match=f"{name} not found") as info:
        spectral_stepper(GRID, 0.02, PropagatorSpec(d=1.0))
    assert str(tmp_path / "pypocketfft.") in str(info.value)
    assert name not in sys.modules
