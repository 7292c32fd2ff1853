"""The tridiagonal operators: factored once, and bit for bit the banded solve."""

import sys

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, solve_banded

from gaussprop import propagate
from gaussprop.fields import FieldSpec, PropagatorSpec, RealState, gaussian_packet, make_grid
from gaussprop.propagate import Tridiagonal, last, march, spectral_stepper
from gaussprop.reference import _diffusion_diagonals, diffusion_stepper


def _banded_solve(lower, diag, upper, rhs):
    """The solve as scipy's solve_banded does it, re-factoring on every call."""
    ab = np.zeros((3, diag.size), dtype=np.result_type(lower, diag, upper))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def _diffusion_bands(n):
    grid = make_grid(-10.0, 10.0, n)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-0.5))
    lower, diag, upper = _diffusion_diagonals(grid, spec)
    eps = 0.005
    rhs = np.exp(-(grid.x - 1.0) ** 2)
    return (eps * lower, 1.0 + eps * diag, eps * upper), rhs


@pytest.mark.parametrize("bands", (_diffusion_bands,), ids=("diffusion",))
def test_solve_is_bit_identical_to_the_banded_solve(bands):
    (lower, diag, upper), rhs = bands(4096)
    op = Tridiagonal(lower, diag, upper)
    expected = _banded_solve(lower, diag, upper, rhs)
    assert op.solve(rhs).dtype == expected.dtype
    assert np.array_equal(op.solve(rhs), expected)
    assert np.array_equal(op.solve(2.0 * rhs), _banded_solve(lower, diag, upper, 2.0 * rhs))


@pytest.mark.parametrize("bands", (_diffusion_bands,), ids=("diffusion",))
def test_the_routines_are_scipy_linalg_s_own(bands):
    """scipy.linalg is imported (above), so both share the one loaded extension."""
    arrays = bands(8)[0]
    ours = propagate.get_lapack_funcs(("gttrf", "gttrs"), arrays)
    assert all(a is b for a, b in zip(ours, get_lapack_funcs(("gttrf", "gttrs"), arrays),
                                      strict=True))


def test_a_missing_extension_raises_import_error_naming_the_path(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(propagate, "_extension_dirs", lambda name: [str(tmp_path)])
    with pytest.raises(ImportError, match="scipy.linalg._flapack not found") as info:
        propagate.get_lapack_funcs(("gttrf", "gttrs"), _diffusion_bands(8)[0])
    assert str(tmp_path / "_flapack.") in str(info.value)
    assert "scipy.linalg._flapack" not in sys.modules


@pytest.fixture
def gttrf_calls(monkeypatch):
    """The (dtype char, n) of every gttrf factorization the operators make."""
    calls = []

    def counting(names, arrays):
        funcs = get_lapack_funcs(names, arrays)
        return [_counted(f, calls) if name == "gttrf" else f for name, f in zip(names, funcs)]

    monkeypatch.setattr(propagate, "get_lapack_funcs", counting)
    return calls


def _counted(gttrf, calls):
    def factor(lower, diag, upper):
        calls.append((gttrf.typecode, diag.size))
        return gttrf(lower, diag, upper)
    return factor


def test_a_drifted_spectral_evolution_factors_nothing(gttrf_calls):
    """The drift is the step's gauge phase: no tridiagonal solve."""
    grid = make_grid(-20.0, 20.0, 1024)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.3), b=FieldSpec.quadratic(0.5))
    step = spectral_stepper(grid, 0.001, spec)
    last(march(gaussian_packet(grid, x0=0.0, sigma0=1.5), 50, step))
    assert gttrf_calls == []


def test_a_diffusion_evolution_factors_once(gttrf_calls):
    grid = make_grid(-10.0, 10.0, 1024)
    density = np.exp(-grid.x ** 2)
    state = RealState(grid=grid, density=density / (np.sum(density) * grid.dx))
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-0.5))
    last(march(state, 50, diffusion_stepper(grid, 0.001, spec)))
    assert gttrf_calls == [("d", 1024)]


def test_a_drift_free_spectral_evolution_factors_nothing(gttrf_calls):
    grid = make_grid(-20.0, 20.0, 1024)
    free = spectral_stepper(grid, 0.001, PropagatorSpec(d=1.0))
    last(march(gaussian_packet(grid, x0=0.0, sigma0=1.5), 50, free))
    assert gttrf_calls == []


def test_a_singular_matrix_raises_linalg_error():
    # its leading 2 x 2 block is [[1, 1], [1, 1]]
    op = Tridiagonal(np.array([1.0, 0.0, 0.0]), np.ones(4), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        op.solve(np.ones(4))


@pytest.mark.parametrize("band", (0, 1, 2))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_a_non_finite_band_is_rejected_at_build(band, bad):
    bands = [np.ones(7, dtype=complex), 4.0 * np.ones(8, dtype=complex),
             np.ones(7, dtype=complex)]
    bands[band][2] = bad
    with pytest.raises(ValueError, match="bands must be finite"):
        Tridiagonal(*bands)


def test_complex_bands_are_refused_not_cast_to_their_real_parts():
    """Only the real drift-diffusion operator is solved."""
    bands = [np.ones(7, dtype=complex), 4.0 * np.ones(8, dtype=complex), np.ones(7)]
    with pytest.raises(TypeError, match="only real tridiagonal systems are solved"):
        Tridiagonal(*bands).solve(np.ones(8))
