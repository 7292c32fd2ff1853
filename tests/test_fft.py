"""The FFT layer: pocketfft from scipy's compiled extension, transforming in
place, bit for bit what numpy.fft gives.  These fail loudly if a numpy and a
scipy ever ship pocketfft builds that round differently."""

import sys

import numpy as np
import pytest

from gaussprop import propagate
from gaussprop.fields import FieldSpec, PropagatorSpec, gaussian_packet, make_grid
from gaussprop.propagate import dense_operator, spectral_stepper

SIZES = (8, 100, 1000, 1024, 2048, 3000, 4096, 8192, 2 ** 16, 2 ** 17)
GRID = make_grid(-8.0, 8.0, 1024)
STATES = (gaussian_packet(GRID, x0=0.3, sigma0=0.8, k0=0.5),
          gaussian_packet(GRID, x0=-0.6, sigma0=0.6, k0=-1.1))


def _closure(f):
    """The variables a step or operator closes over, by name."""
    return dict(zip(f.__code__.co_freevars, (cell.cell_contents for cell in f.__closure__)))


@pytest.mark.parametrize("n", SIZES)
def test_the_transforms_are_numpy_s_bit_for_bit(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a.flags.writeable = False
    original = a.copy()
    fft, ifft = propagate._in_place_ffts()
    for ours, numpy_s in ((fft, np.fft.fft), (ifft, np.fft.ifft)):
        work = a.copy()
        assert ours(work) is work
        assert np.array_equal(work, numpy_s(a))
        with pytest.raises(ValueError, match="not writeable"):
            ours(a)  # a state's read-only samples are never written over
    assert np.array_equal(a, original)


@pytest.mark.parametrize("spec", (
    PropagatorSpec(d=1.3, u=FieldSpec.linear(0.4)),
    PropagatorSpec(d=1.3, u=FieldSpec.constant(0.7), variant="complex_u", im_u=0.25),
), ids=("admissible", "complex_u"))
def test_a_chirp_z_operator_reused_on_two_states_is_the_numpy_formula(spec, monkeypatch):
    """One operator steps two states in turn: its reused buffer carries
    nothing over from the first to the second."""
    apply = dense_operator(GRID, 0.32, spec)
    with monkeypatch.context() as patch:  # today's transforms, allocating
        patch.setattr(propagate, "_in_place_ffts", lambda: (np.fft.fft, np.fft.ifft))
        numpy_s = _closure(dense_operator(GRID, 0.32, spec))
    assert np.array_equal(_closure(apply)["chirp_hat"], numpy_s["chirp_hat"])
    row, col, chirp_hat = numpy_s["row"], numpy_s["col"], numpy_s["chirp_hat"]
    for state in STATES:
        expected = row * np.fft.ifft(chirp_hat * np.fft.fft(col * state.psi,
                                                            chirp_hat.size))[:GRID.n]
        assert np.array_equal(apply(state.psi), expected)


def test_a_drifted_spectral_step_is_the_numpy_formula():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.2), b=FieldSpec.sine(0.3, 1.0))
    step = spectral_stepper(GRID, 0.02, spec)
    parts = _closure(step)
    assert parts["drifts"]
    for state in STATES:
        psi = parts["implicit"].solve(parts["explicit"].apply(state.psi))
        expected = np.fft.ifft(parts["free"] * np.fft.fft(parts["phase"] * psi))
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
