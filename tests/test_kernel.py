import numpy as np
import pytest

from gaussprop import (
    FieldSpec,
    PropagatorSpec,
    complex_kernel,
    normalization_constant,
    real_kernel,
    t_correction,
)

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


def test_normalization_principal_branch():
    spec = PropagatorSpec(d=1.0, order="zero")
    k = normalization_constant(spec, 0.5, 0.0)
    assert abs(k) == pytest.approx(np.sqrt(2.0 * np.pi * 0.5))
    # sqrt(i) on the principal branch carries phase pi/4
    assert np.angle(complex(k)) == pytest.approx(np.pi / 4.0)


def test_normalization_first_order_factor():
    x = np.array([1.0])
    eps = 0.1
    k0 = normalization_constant(PropagatorSpec(d=1.0, u=SPEC.u, order="zero"), eps, x)
    k1 = normalization_constant(SPEC, eps, x)
    t = t_correction(SPEC, x)
    assert np.allclose(k1, k0 * (1.0 + eps * t))


def test_t_correction_value():
    x = np.array([2.0])
    t = t_correction(SPEC, x)[0]
    # a = u'/2 = 0.2 for the admissible variant, b enters imaginary
    assert t.real == pytest.approx(0.2)
    assert t.imag == pytest.approx(0.3)


def test_t_correction_variants():
    u = FieldSpec.linear(0.4)
    x = np.array([0.0])
    none = PropagatorSpec(d=1.0, u=u, variant="no_t")
    end = PropagatorSpec(d=1.0, u=u, variant="endpoint_t")
    assert t_correction(none, x)[0].real == pytest.approx(0.0)
    assert t_correction(end, x)[0].real == pytest.approx(0.4)


def test_t_correction_refuses_zero_order():
    with pytest.raises(ValueError):
        t_correction(PropagatorSpec(d=1.0, order="zero"), np.zeros(1))


def test_complex_kernel_factors_multiply_to_value():
    eta = np.linspace(-3.0, 3.0, 101)
    ev = complex_kernel(eta, 0.25, 0.5, SPEC)
    assert np.allclose(ev.value, ev.normalization * ev.phase_quadratic * ev.t_factor)


def test_complex_kernel_phase_is_unimodular_and_centered():
    eta = np.linspace(-2.0, 2.0, 81)
    eps = 0.25
    ev = complex_kernel(eta, eps, 1.0, SPEC)
    assert np.allclose(np.abs(ev.phase_quadratic), 1.0)
    # stationary phase sits at eta = u eps
    idx = np.argmin(np.abs(eta - 0.4 * eps))
    assert np.angle(ev.phase_quadratic[idx]) == pytest.approx(0.0, abs=1e-9)


def test_complex_kernel_exponential_t_factor():
    eps = 0.2
    ev = complex_kernel(np.zeros(1), eps, 2.0, SPEC)
    expected = np.exp(-eps * (0.2 + 0.3j))
    assert ev.t_factor[0] == pytest.approx(expected)


def test_complex_kernel_zero_order_has_unit_t_factor():
    spec = PropagatorSpec(d=1.0, u=FieldSpec.linear(0.4), order="zero")
    ev = complex_kernel(np.linspace(-1, 1, 11), 0.1, 0.0, spec)
    assert np.allclose(ev.t_factor, 1.0)


def test_complex_kernel_a_override_changes_only_t_factor():
    eta = np.linspace(-1.0, 1.0, 21)
    eps = 0.1
    base = complex_kernel(eta, eps, 1.0, SPEC)
    moved = complex_kernel(eta, eps, 1.0, SPEC,
                           a_override=FieldSpec.constant(0.9))
    assert np.allclose(base.phase_quadratic, moved.phase_quadratic)
    assert np.allclose(base.normalization, moved.normalization)
    ratio = moved.t_factor[0] / base.t_factor[0]
    assert ratio == pytest.approx(np.exp(-eps * (0.9 - 0.2)))


def test_kernel_rejects_nonpositive_eps():
    with pytest.raises(ValueError):
        real_kernel(np.zeros(1), 0.0, 0.0, SPEC)
    with pytest.raises(ValueError):
        complex_kernel(np.zeros(1), -0.1, 0.0, SPEC)
