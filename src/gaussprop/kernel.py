"""Single-step propagator kernels.

Real (diffusive) kernel for one step of duration eps at the point x:

    Pi(eta) = (2 pi D eps)^(-1/2) exp(-(eta - u eps)^2 / (2 D eps)),

a Gaussian step-length law with mean u(x) eps and variance D eps.  Its
complex twin replaces the negative exponent by a positive imaginary one,

    Pi(eta) = K^(-1) exp(+i (eta - u eps)^2 / (2 D eps)),

with K = (2 pi i D eps)^(1/2) on the principal branch (i^(1/2) = e^(i pi/4)).
At first order the normalization acquires the correction T = u'/2 + i b:
K -> (2 pi i D eps)^(1/2) (1 + eps T), applied here in the exponential form
exp(-eps T) (the two agree to O(eps^2); the audit module measures both).
The a = u'/2 in Re T is forced by norm conservation; the falsification
variants spoil it (a = u' or a = 0) or make D or u complex, and the audit
module watches the norm drift that results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import FieldSpec, PropagatorSpec


def _check_eps(eps: float) -> None:
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"step duration eps must be finite and > 0, got {eps}")


def real_kernel(eta, eps: float, x, spec: PropagatorSpec):
    """Gaussian step-length density at x, evaluated at displacement eta."""
    _check_eps(eps)
    if spec.variant != "admissible":
        raise ValueError("the real kernel is defined for the admissible variant only")
    eta = np.asarray(eta, dtype=float)
    u = spec.u(x)
    var = spec.d * eps
    return np.exp(-((eta - u * eps) ** 2) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def t_correction(spec: PropagatorSpec, x):
    """T(x) = a + i b with a fixed by the variant (u'/2, u', or 0)."""
    if spec.order == "zero":
        raise ValueError("the zero-order kernel carries no T correction")
    return _a_value(spec, x) + 1j * spec.b(x)


def _a_value(spec: PropagatorSpec, x, a_override: FieldSpec | None = None):
    if a_override is not None:
        return a_override(x).astype(complex)
    if spec.variant == "endpoint_t":
        return spec.du_dx(x)
    if spec.variant == "no_t":
        return np.zeros_like(np.asarray(x, dtype=float), dtype=complex)
    return 0.5 * spec.du_dx(x)


def normalization_constant(spec: PropagatorSpec, eps: float, x):
    """K(x): (2 pi i D eps)^(1/2), times (1 + eps T) at first order."""
    _check_eps(eps)
    d = spec.d_value(x)
    k0 = np.sqrt(2.0j * np.pi * d * eps)
    if spec.order == "zero":
        return k0
    return k0 * (1.0 + eps * t_correction(spec, x))


def source_factors(eps: float, x, spec: PropagatorSpec,
                   a_override: FieldSpec | None = None):
    """The kernel's source-point factors: 1/(2 pi i D eps)^(1/2) and exp(-eps T).

    Neither depends on the displacement, so a step that factors the
    quadratic phase can apply them to the source samples directly.
    """
    _check_eps(eps)
    norm_factor = 1.0 / np.sqrt(2.0j * np.pi * spec.d_value(x) * eps)
    if spec.order == "zero":
        return norm_factor, np.ones_like(norm_factor)
    a = _a_value(spec, x, a_override)
    return norm_factor, np.exp(-eps * (a + 1j * spec.b(x)))


@dataclass(frozen=True)
class KernelEvaluation:
    """Complex kernel value and the retained factors it is built from.

    value == normalization * phase_quadratic * t_factor identically; the
    factors are exposed so tests can check each against its closed form.
    """

    value: np.ndarray
    normalization: np.ndarray
    phase_quadratic: np.ndarray
    t_factor: np.ndarray


def complex_kernel(eta, eps: float, x, spec: PropagatorSpec,
                   a_override: FieldSpec | None = None) -> KernelEvaluation:
    """Evaluate the complex kernel at displacement eta with fields taken at x.

    eta and x broadcast against each other.  a_override substitutes an
    arbitrary correction field for the variant's a (used by the empirical
    a scan); the quadratic phase and normalization are untouched by it.
    """
    norm_factor, t_factor = source_factors(eps, x, spec, a_override)
    eta = np.asarray(eta, dtype=float)
    d = spec.d_value(x)
    u = spec.u_value(x)
    phase = np.exp(1j * (eta - u * eps) ** 2 / (2.0 * d * eps))
    t_factor = np.broadcast_to(t_factor, phase.shape)
    norm_factor = np.broadcast_to(norm_factor, phase.shape)
    return KernelEvaluation(value=norm_factor * phase * t_factor,
                            normalization=norm_factor,
                            phase_quadratic=phase,
                            t_factor=t_factor)
