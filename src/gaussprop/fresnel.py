"""Oscillatory moment integrals of the complex kernel, done honestly.

The complex kernel's normalization and its first-order expansion rest on the
Gaussian moment identities

    integral exp(i eta^2/(2 D eps)) d eta          = (2 pi i D eps)^(1/2)
    integral eta   exp(i eta^2/(2 D eps)) d eta    = 0
    integral eta^2 exp(i eta^2/(2 D eps)) d eta    = (2 pi i D eps)^(1/2) * i D eps
    integral eta^4 exp(i eta^2/(2 D eps)) d eta    = (2 pi i D eps)^(1/2) * (-3 D^2 eps^2)

(principal branch throughout).  These integrals only converge conditionally,
so the quadrature multiplies the integrand by exp(-delta eta^2), integrates
by trapezoid on a symmetric window [-L, L], and removes the regulator by
Richardson extrapolation over the ladder {delta0, delta0/2, delta0/4}.
Sample points come in +-eta pairs that are summed pair-first, so odd moments
cancel exactly instead of relying on float luck.

The same machinery certifies the first-order cancellation: for drift sampled
at the displaced point, u_plus = u + eta u', the combination

    integral u_plus^2 [ -eta^2/(2 D^2) + i eps/(2 D) ] exp(i eta^2/(2 D eps)) d eta

collapses to (u')^2 eps^2 * (2 pi i D eps)^(1/2): zero for constant drift and
O(eps^2) otherwise, which is what lets the kernel reproduce a Schrodinger
step to first order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PropagatorSpec

MOMENT_ORDERS = (0, 1, 2, 4)

# delta0 * (2 D eps) for auto-built quadratures; Richardson residual scales
# like this cubed, comfortably under the 1e-6 certification target.
_DELTA_SCALE = 0.008

# regulator tail floor: delta_min * L^2 >= 25 keeps exp(-delta L^2) <= e^-25
_TAIL_EXPONENT = 25.0

# auto-built windows use a larger budget: the eta^4 moment's truncated tail
# scales like L^3 exp(-delta L^2) and must stay below the 1e-6 certification
_AUTO_TAIL_EXPONENT = 40.0


@dataclass(frozen=True)
class RegularizedQuadrature:
    """Trapezoid rule on [-L, L] with a Gaussian regulator ladder.

    delta0 is the largest regulator of the ladder {delta0, delta0/2,
    delta0/4}; half_width is L; samples is the node budget per evaluation.
    """

    delta0: float
    half_width: float
    samples: int

    def __post_init__(self):
        if not (np.isfinite(self.delta0) and self.delta0 > 0.0):
            raise ValueError(f"delta0 must be finite and > 0, got {self.delta0}")
        if not (np.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"half_width must be finite and > 0, got {self.half_width}")
        if self.samples < 20_000:
            raise ValueError(f"need at least 20000 sample points, got {self.samples}")
        delta_min = self.delta0 / 4.0
        if delta_min * self.half_width ** 2 < _TAIL_EXPONENT * (1.0 - 1e-9):
            raise ValueError(
                f"window too short for the regulator ladder: delta_min * L^2 = "
                f"{delta_min * self.half_width ** 2:.3f} < {_TAIL_EXPONENT}")

    @classmethod
    def for_params(cls, d: float, eps: float, samples: int = 100_000) -> "RegularizedQuadrature":
        """Ladder and window scaled to the chirp rate 1/(2 D eps)."""
        delta0 = _DELTA_SCALE / (2.0 * d * eps)
        delta_min = delta0 / 4.0
        half_width = float(np.sqrt(_AUTO_TAIL_EXPONENT / delta_min) * (1.0 + 1e-9))
        return cls(delta0, half_width, samples)


def _ladder_integral(polys, d: float, eps: float, quad: RegularizedQuadrature) -> list:
    """Richardson-extrapolated trapezoid of each poly(eta) * exp(i eta^2/(2 D eps)),
    with each rung's regulated chirp computed once for all the polys."""
    m = quad.samples // 2
    deta = quad.half_width / m
    eta = deta * np.arange(1, m + 1)
    chirp = 1j / (2.0 * d * eps)
    centers = [complex(np.asarray(poly(np.zeros(1)))[0]) for poly in polys]
    pairs = [np.asarray(poly(eta)) + np.asarray(poly(-eta)) for poly in polys]
    ladder = []  # per rung, the trapezoid of each poly
    for delta in (quad.delta0, quad.delta0 / 2.0, quad.delta0 / 4.0):
        g = np.exp((chirp - delta) * eta ** 2)
        ladder.append([(center + np.sum(pair[:-1]) + 0.5 * pair[-1]) * deta
                       for center, pair in zip(centers, (p * g for p in pairs))])
    # kills the O(delta) and O(delta^2) regulator error
    return [(8.0 * v2 - 6.0 * v1 + v0) / 3.0 for v0, v1, v2 in zip(*ladder)]


def closed_moment(n: int, d: float, eps: float) -> complex:
    """Closed form of the n-th kernel moment, principal branch."""
    if n not in MOMENT_ORDERS:
        raise ValueError(f"moment order must be one of {MOMENT_ORDERS}, got {n}")
    root = np.sqrt(2.0j * np.pi * d * eps)
    if n == 0:
        return complex(root)
    if n == 1:
        return 0.0 + 0.0j
    if n == 2:
        return complex(root * (1j * d * eps))
    return complex(root * (-3.0 * d ** 2 * eps ** 2))


def fresnel_moment(n: int, d: float, eps: float,
                   quad: RegularizedQuadrature | None = None) -> complex:
    """Quadrature value of integral eta^n exp(i eta^2/(2 D eps)) d eta."""
    if n not in MOMENT_ORDERS:
        raise ValueError(f"moment order must be one of {MOMENT_ORDERS}, got {n}")
    if not (np.isfinite(d) and d > 0.0 and np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"need d > 0 and eps > 0, got d={d}, eps={eps}")
    if quad is None:
        quad = RegularizedQuadrature.for_params(d, eps)
    return complex(_ladder_integral([lambda e: e ** n], d, eps, quad)[0])


def unit_mass_check(d: float, eps: float,
                    quad: RegularizedQuadrature | None = None) -> complex:
    """Zero-order kernel mass: quadrature moment over K, expected 1 + 0i."""
    return fresnel_moment(0, d, eps, quad) / closed_moment(0, d, eps)


@dataclass(frozen=True)
class CancellationResult:
    """First-order cancellation residual, normalized by K = (2 pi i D eps)^(1/2)."""

    quadrature: complex
    closed_form: complex

    @property
    def abs_error(self) -> float:
        return abs(self.quadrature - self.closed_form)


def cancellation_check(spec: PropagatorSpec, x: float, eps: float, *,
                       quad: RegularizedQuadrature | None = None) -> CancellationResult:
    """Residual of the drift-squared cancellation at the point x.

    Integrates (u + eta u')^2 [-eta^2/(2 D^2) + i eps/(2 D)] against the bare
    kernel phase and normalizes by K.  The closed form is (u' eps)^2: exactly
    zero for constant drift, O(eps^2) otherwise.
    """
    if spec.variant != "admissible":
        raise ValueError("cancellation check applies to the admissible variant")
    d = spec.d
    u = float(spec.u(x))
    du = float(spec.u.derivative(x))
    if quad is None:
        quad = RegularizedQuadrature.for_params(d, eps)

    def integrand(eta):
        u_plus = u + eta * du
        return u_plus ** 2 * (-(eta ** 2) / (2.0 * d ** 2) + 1j * eps / (2.0 * d))

    value = _ladder_integral([integrand], d, eps, quad)[0] / closed_moment(0, d, eps)
    return CancellationResult(quadrature=complex(value),
                              closed_form=complex(du ** 2 * eps ** 2))
