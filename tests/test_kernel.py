import numpy as np
import pytest

from gaussprop.fields import FieldSpec, PropagatorSpec
from gaussprop.kernel import complex_kernel, real_kernel, source_factors

SPEC = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), b=FieldSpec.constant(0.3))


def test_real_kernel_is_the_gaussian_step_law():
    eta = np.linspace(-6.0, 6.0, 4001)
    eps = 0.2
    vals = real_kernel(eta, eps, 1.0, SPEC)
    deta = eta[1] - eta[0]
    mass = np.sum(vals) * deta
    mean = np.sum(eta * vals) * deta
    var = np.sum((eta - mean) ** 2 * vals) * deta
    assert mass == pytest.approx(1.0, abs=1e-9)
    # mean u(x) eps with u(1) = 0.4, variance D eps
    assert mean == pytest.approx(0.08, abs=1e-9)
    assert var == pytest.approx(0.2, rel=1e-6)


def test_real_kernel_rejects_variants():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    with pytest.raises(ValueError):
        real_kernel(np.zeros(3), 0.1, 0.0, spec)


def _closed_form(eta, eps, u=0.0, t=0.0):
    """(2 pi i D eps)^(-1/2) exp(i (eta - u eps)^2 / (2 D eps)) exp(-eps T), D = 1."""
    return ((2j * np.pi * eps) ** -0.5 * np.exp(1j * (eta - u * eps) ** 2 / (2.0 * eps))
            * np.exp(-eps * t))


def test_normalization_principal_branch():
    spec = PropagatorSpec(d=1.0)  # u = b = 0, so T = 0
    value = complex_kernel(0.0, 0.5, 0.0, spec)
    assert abs(value) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi * 0.5))
    # sqrt(i) on the principal branch carries phase pi/4, so 1/K carries -pi/4
    assert np.angle(complex(value)) == pytest.approx(-np.pi / 4.0)


def _t(spec, x, eps=0.1):
    """T(x), read back from source_factors' exp(-eps T)."""
    return -np.log(source_factors(eps, x, spec)[1]) / eps


def test_t_correction_value():
    x = np.array([2.0])
    t = _t(SPEC, x)[0]
    # a = u'/2 = 0.2 for the admissible variant, b enters imaginary
    assert t.real == pytest.approx(0.2)
    assert t.imag == pytest.approx(0.3)


def test_t_correction_variants():
    u = FieldSpec.linear(0.4)
    x = np.array([0.0])
    none = PropagatorSpec(d=1.0, u=u, variant="no_t")
    end = PropagatorSpec(d=1.0, u=u, variant="endpoint_t")
    assert _t(none, x)[0].real == pytest.approx(0.0)
    assert _t(end, x)[0].real == pytest.approx(0.4)


def test_complex_kernel_phase_is_unimodular_and_centered():
    eta = np.linspace(-2.0, 2.0, 81)
    eps = 0.25
    value = complex_kernel(eta, eps, 1.0, SPEC)
    # u(1) = 0.4, T = 0.2 + 0.3i
    assert np.allclose(value, _closed_form(eta, eps, u=0.4, t=0.2 + 0.3j))
    assert np.allclose(np.abs(value), np.abs(value[0]))
    # stationary phase sits at eta = u eps, where only the factors remain
    idx = np.argmin(np.abs(eta - 0.4 * eps))
    assert value[idx] == pytest.approx(_closed_form(0.0, eps, t=0.2 + 0.3j), rel=1e-9)


def test_complex_kernel_exponential_t_factor():
    eps = 0.2
    value = complex_kernel(np.array([0.8 * eps]), eps, 2.0, SPEC)
    expected = (2j * np.pi * eps) ** -0.5 * np.exp(-eps * (0.2 + 0.3j))
    assert value[0] == pytest.approx(expected)


def test_bare_kernel_is_no_t_without_b():
    """no_t with b = 0 drops T entirely: its T factor is exactly 1."""
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), variant="no_t")
    x = np.linspace(-1, 1, 11)
    _, t_factor = source_factors(0.1, x, spec)
    assert np.all(t_factor == 1.0)
    value = complex_kernel(x, 0.1, 0.0, spec)
    assert np.allclose(value, _closed_form(x, 0.1))


def test_kernel_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        real_kernel(np.zeros(1), 0.0, 0.0, SPEC)
    with pytest.raises(ValueError):
        complex_kernel(np.zeros(1), -0.1, 0.0, SPEC)
