"""Single-step propagator kernels.

Real (diffusive) kernel for one step of duration eps at the point x:

    Pi(eta) = (2 pi D eps)^(-1/2) exp(-(eta - u eps)^2 / (2 D eps)),

a Gaussian step-length law with mean u(x) eps and variance D eps, which
propagate.density_stepper tabulates over sources.  Its complex twin replaces
the negative exponent by a positive imaginary one,

    Pi(eta) = K^(-1) exp(+i (eta - u eps)^2 / (2 D eps)),

with K = (2 pi i D eps)^(1/2) on the principal branch (i^(1/2) = e^(i pi/4)).
At first order the paper normalizes with K = (2 pi i D eps)^(1/2) (1 + eps T),
T = a + i b; the kernel applies it as exp(-eps T), which agrees to O(eps^2).
Norm conservation forces a = u'/2, the a that a_field gives the admissible
variant.  a_field decides a, once, for every variant: endpoint_t and no_t
spoil it on purpose (a = u' and a = 0).
"""

from __future__ import annotations

import numpy as np

from .fields import FieldSpec, PropagatorSpec, check_eps


def a_field(spec: PropagatorSpec) -> FieldSpec:
    """Re T as a field: u' for endpoint_t, 0 for no_t, else the conserving u'/2."""
    if spec.variant == "endpoint_t":
        return spec.u.derivative_field()
    if spec.variant == "no_t":
        return FieldSpec.constant(0.0)
    return spec.u.derivative_field().scaled(0.5)


def source_factors(eps: float, x, spec: PropagatorSpec):
    """The kernel's source-point factors: 1/(2 pi i D eps)^(1/2) and exp(-eps T).

    Neither depends on the displacement, so a step that factors the
    quadratic phase can apply them to the source samples directly.
    """
    check_eps(eps)
    norm_factor = 1.0 / np.sqrt(2.0j * np.pi * spec.d_value(x) * eps)
    t = a_field(spec)(x).astype(complex) + 1j * spec.b(x)
    return norm_factor, np.exp(-eps * t)


def complex_kernel(eta, eps: float, x, spec: PropagatorSpec):
    """The complex kernel at displacement eta with fields taken at x.

    eta and x broadcast against each other.
    """
    norm_factor, t_factor = source_factors(eps, x, spec)
    eta = np.asarray(eta, dtype=float)
    d = spec.d_value(x)
    u = spec.u_value(x)
    phase = np.exp(1j * (eta - u * eps) ** 2 / (2.0 * d * eps))
    return norm_factor * phase * t_factor
