"""The drift-diffusion oracle's tridiagonal operator: factored once, when the
stepper is built, and each step bit for bit the banded solve."""

import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import solve_banded

from gaussprop import propagate, reference
from gaussprop.fields import FieldSpec, PropagatorSpec, RealState, gaussian_packet, make_grid
from gaussprop.propagate import last, march, spectral_stepper
from gaussprop.reference import _diffusion_diagonals, diffusion_stepper


def _banded_solve(lower, diag, upper, rhs):
    """The solve as scipy's solve_banded does it, re-factoring on every call."""
    ab = np.zeros((3, diag.size), dtype=np.result_type(lower, diag, upper))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return solve_banded((1, 1), ab, rhs)


def _diffusion_case(n):
    """An Ornstein-Uhlenbeck oracle's stepper, its implicit bands and a density."""
    grid = make_grid(-10.0, 10.0, n)
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(-0.5))
    eps = 0.005
    lower, diag, upper = _diffusion_diagonals(grid, spec)
    bands = (eps * lower, 1.0 + eps * diag, eps * upper)
    state = RealState(grid, np.exp(-(grid.x - 1.0) ** 2))
    return diffusion_stepper(grid, eps, spec), bands, state


@pytest.mark.parametrize("case", (_diffusion_case,), ids=("diffusion",))
def test_solve_is_bit_identical_to_the_banded_solve(case):
    step, bands, state = case(4096)
    for _ in range(2):
        expected = _banded_solve(*bands, state.density)
        state = step(state)
        assert np.array_equal(state.density, np.where(np.abs(expected) < 1e-300, 0.0, expected))


@pytest.mark.parametrize("build", (diffusion_stepper,), ids=("diffusion",))
def test_the_routines_are_scipy_linalg_s_own(build, monkeypatch):
    """scipy.linalg is imported (above), so both share the one loaded extension."""
    taken = {}
    monkeypatch.setattr(reference, "lapack",
                        lambda name: taken.setdefault(name, propagate.lapack(name)))
    build(make_grid(-10.0, 10.0, 64), 0.01, PropagatorSpec(d=1.0))
    assert sorted(taken) == ["dgttrf", "dgttrs"]
    assert all(routine is getattr(scipy.linalg.lapack, name) for name, routine in taken.items())


def test_a_missing_extension_raises_import_error_naming_the_path(monkeypatch, tmp_path):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(propagate, "_extension_dirs", lambda name: [str(tmp_path)])
    with pytest.raises(ImportError, match="scipy.linalg._flapack not found") as info:
        propagate.lapack("dgttrf")
    assert str(tmp_path / "_flapack.") in str(info.value)
    assert "scipy.linalg._flapack" not in sys.modules


@pytest.fixture
def gttrf_calls(monkeypatch):
    """The (dtype char, n) of every gttrf factorization the operators make."""
    calls = []
    lapack = propagate.lapack

    def counting(name):
        routine = lapack(name)
        return _counted(routine, calls) if name == "dgttrf" else routine

    for module in (propagate, reference):
        monkeypatch.setattr(module, "lapack", counting)
    return calls


def _counted(gttrf, calls):
    def factor(lower, diag, upper):
        calls.append((diag.dtype.char, diag.size))
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
    step = diffusion_stepper(grid, 0.001, spec)
    assert gttrf_calls == [("d", 1024)]  # when built, before any step
    last(march(state, 50, step))
    assert gttrf_calls == [("d", 1024)]


def test_a_drift_free_spectral_evolution_factors_nothing(gttrf_calls):
    grid = make_grid(-20.0, 20.0, 1024)
    free = spectral_stepper(grid, 0.001, PropagatorSpec(d=1.0))
    last(march(gaussian_packet(grid, x0=0.0, sigma0=1.5), 50, free))
    assert gttrf_calls == []


def _with_bands(monkeypatch, lower, diag, upper):
    """Make the oracle's generator the given bands; with eps = 1 the implicit
    operator is (lower, 1 + diag, upper)."""
    monkeypatch.setattr(reference, "_diffusion_diagonals", lambda grid, spec: (lower, diag, upper))
    return lambda: diffusion_stepper(make_grid(-1.0, 1.0, 8), 1.0, PropagatorSpec(d=1.0))


def test_a_singular_matrix_raises_linalg_error(monkeypatch):
    # its leading 2 x 2 block is [[1, 1], [1, 1]]
    off = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    build = _with_bands(monkeypatch, off, np.zeros(8), off)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        build()


@pytest.mark.parametrize("band", (0, 1, 2))
@pytest.mark.parametrize("bad", (np.nan, np.inf))
def test_a_non_finite_band_is_rejected_at_build(band, bad, monkeypatch):
    bands = [np.ones(7), 4.0 * np.ones(8), np.ones(7)]
    bands[band][2] = bad
    build = _with_bands(monkeypatch, *bands)
    with pytest.raises(ValueError, match="bands must be finite"):
        build()


def test_a_diffusivity_past_float64_is_refused_at_build():
    """D = 1e308 puts (D/2)/dx^2 past float64: the bands read inf."""
    with pytest.raises(ValueError, match="bands must be finite"):
        diffusion_stepper(make_grid(-10.0, 10.0, 1024), 0.001, PropagatorSpec(d=1e308))
