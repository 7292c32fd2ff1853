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
The ladder integrates even parts e(eta) = (f(eta) + f(-eta))/2 on eta >= 0,
a rung's trapezoid being (e(0) + 2 sum_{k<m} e_k g_k + e_m g_m) deta.  Even
monomials, exact products (eta^4 = (eta eta)(eta eta)), are their own even
parts; odd moments are exactly 0 and never summed.  Per (D, eps) there is one
complex exponential, the chirp g at delta0/4, whose rungs up are g times the
real exp(-(delta0/4) eta^2) once and thrice, and one work buffer for e g.

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

from .fields import FieldSpec, check_eps
from .propagate import ValidityError

MOMENT_ORDERS = (0, 1, 2, 4)

# delta0 * (2 D eps) for the default regulator; Richardson residual scales
# like this cubed, comfortably under the 1e-6 certification target.
_DELTA_SCALE = 0.008

# the window's tail budget (delta0/4) L^2: the eta^4 moment's truncated tail
# scales like L^3 exp(-delta L^2) and must stay below the 1e-6 certification
_TAIL_EXPONENT = 40.0

# trapezoid nodes on [-L, L]: the default window turns the chirp 0.8 rad a node at L
_SAMPLES = 100_000


def monomial(n: int):
    """eta -> eta^n as a product tree, e.g. (eta eta)(eta eta) for n = 4.

    monomial(n)(-eta) is exactly (-1)^n monomial(n)(eta), which numpy's float
    power does not promise: an even monomial is exactly its own even part."""
    if n < 0:
        raise ValueError(f"monomial order must be >= 0, got {n}")

    def power(eta):
        if n < 2:  # no product: a copy of ones or of eta
            return np.ones_like(eta) if n == 0 else +eta
        half = monomial(n // 2)(eta)
        return half * half * eta if n % 2 else half * half

    return power


def ladder_integral(evens, d: float, eps: float, delta0: float | None = None) -> list:
    """Richardson-extrapolated trapezoid on [-L, L] of each e(eta) exp(i eta^2/(2 D eps)),
    e in evens an even part taking eta >= 0; every rung and part share one chirp.

    delta0, the largest regulator of {delta0, delta0/2, delta0/4}, is 0.008/(2 D eps)
    unless given; the window [-L, L] closes the smallest one's tail, (delta0/4) L^2
    = 40, on 100,000 nodes.  Raises ValidityError when the chirp turns by more than
    pi between the last two nodes: the trapezoid would alias it into garbage."""
    check_eps(eps)
    if not (np.isfinite(d) and d > 0.0):
        raise ValueError(f"D must be finite and > 0, got {d}")
    delta0 = _DELTA_SCALE / (2.0 * d * eps) if delta0 is None else delta0
    if not (np.isfinite(delta0) and delta0 > 0.0):
        raise ValueError(f"delta0 must be finite and > 0, got {delta0}")
    half_width = float(np.sqrt(_TAIL_EXPONENT / (delta0 / 4.0)) * (1.0 + 1e-9))
    m = _SAMPLES // 2
    edge_step = half_width ** 2 / (m * d * eps)  # the chirp's turn a node at L
    if edge_step > np.pi:
        raise ValidityError(f"quadrature cannot resolve the kernel chirp: phase step "
                            f"{edge_step:.3g} rad > pi at the window edge, delta0 = "
                            f"{delta0:g} at D = {d:g}, eps = {eps:g}; raise delta0")
    if not evens:  # odd moments only: checked, and nothing to sum
        return []
    deta = half_width / m
    nodes = deta * np.arange(m + 1)  # 0, then the +eta of each +-eta pair
    eta2 = nodes[1:] ** 2
    step = delta0 / 4.0
    parts = [np.asarray(even(nodes)) for even in evens]
    rung = (1j / (2.0 * d * eps) - step) * eta2
    np.exp(rung, out=rung)  # the regulated chirp at delta0/4
    r = np.exp(np.multiply(-step, eta2, out=eta2), out=eta2)  # real: takes a rung up
    work = np.empty_like(rung)  # part times rung, in that order: FMA rounds by it
    ladder = []  # per rung delta0/4, delta0/2, delta0: the trapezoid of each part
    for factors in (0, 1, 2):  # r takes delta0/4 to delta0/2, r r then to delta0
        for _ in range(factors):
            rung *= r
        ladder.append([(e[0] + 2.0 * np.sum(np.multiply(e[1:], rung, out=work)[:-1])
                        + work[-1]) * deta for e in parts])
    # kills the O(delta) and O(delta^2) regulator error
    return [(8.0 * v2 - 6.0 * v1 + v0) / 3.0 for v2, v1, v0 in zip(*ladder)]


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


def fresnel_moments(orders, d: float, eps: float, delta0: float | None = None) -> list:
    """Quadrature value of integral eta^n exp(i eta^2/(2 D eps)) d eta per n in
    orders: the even ones share one ladder, the odd ones are exactly 0."""
    if not set(orders) <= set(MOMENT_ORDERS):
        raise ValueError(f"moment order must be one of {MOMENT_ORDERS}, got {orders}")
    even = iter(ladder_integral([monomial(n) for n in orders if n % 2 == 0], d, eps, delta0))
    return [complex(next(even)) if n % 2 == 0 else 0j for n in orders]


def fresnel_moment(n: int, d: float, eps: float) -> complex:
    """Quadrature value of integral eta^n exp(i eta^2/(2 D eps)) d eta."""
    return fresnel_moments([n], d, eps)[0]


def unit_mass_check(d: float, eps: float) -> complex:
    """Zero-order kernel mass: quadrature moment over K, expected 1 + 0i."""
    return fresnel_moment(0, d, eps) / closed_moment(0, d, eps)


@dataclass(frozen=True)
class CancellationResult:
    """First-order cancellation residual, normalized by K = (2 pi i D eps)^(1/2)."""

    quadrature: complex
    closed_form: complex

    @property
    def abs_error(self) -> float:
        return abs(self.quadrature - self.closed_form)


def cancellation_check(d: float, u: FieldSpec, x: float, eps: float, *,
                       delta0: float | None = None) -> CancellationResult:
    """Residual of the drift-squared cancellation for diffusivity D and drift u
    at the point x.

    Integrates (u + eta u')^2 [-eta^2/(2 D^2) + i eps/(2 D)] against the bare
    kernel phase and normalizes by K.  The closed form is (u' eps)^2: exactly
    zero for constant drift, O(eps^2) otherwise.
    """
    u0, du = float(u(x)), float(u.derivative(x))

    def integrand(eta):
        u_plus = u0 + eta * du
        return u_plus ** 2 * (-(eta ** 2) / (2.0 * d ** 2) + 1j * eps / (2.0 * d))

    even = ladder_integral([lambda eta: 0.5 * (integrand(eta) + integrand(-eta))], d, eps, delta0)
    value = even[0] / closed_moment(0, d, eps)
    return CancellationResult(quadrature=complex(value),
                              closed_form=complex(du ** 2 * eps ** 2))
