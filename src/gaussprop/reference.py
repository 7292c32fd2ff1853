"""Method-independent oracles: the Schrodinger Hamiltonian and drift-diffusion.

The admissible propagator parameters (D, u, b) map onto a minimally coupled
Hamiltonian H = (p - A)^2/(2m) + phi with hbar = 1 and unit charge:

    m = 1/D,        A = u m,        phi = b - A^2/(2m).

For constant D, u of degree <= 1 and b a polynomial (FieldSpec.degree),
to_hamiltonian, the one place this map is written, gives (m, A, phi), and the
Schrodinger state of a Gaussian packet is known in closed form
(exact_evolution), with neither a time step nor a spatial stencil: in 1D
A = Lambda' is a pure gauge, phi = b - A^2/(2m) is quadratic, and a Gaussian
stays Gaussian (Heller 1975, J. Chem. Phys. 62, 1544; Littlejohn 1986, Phys.
Rep. 138, 193).  It is the reference of compare and evolve in that class;
elsewhere both take the Strang split of the same H, propagate.split_stepper.

The real kernel's oracle is the drift-diffusion equation

    dP/dt = (D/2) P'' - (u P)',

the continuum limit of the Gaussian step-length law, discretized in flux
form with Scharfetter-Gummel faces and no-flux ends: mass is conserved to
round-off and the implicit (backward Euler) step keeps P nonnegative
(M-matrix), with no step-size stability bound.  A face whose weight
exponential overflows float64 is refused (ValidityError).  The oracle
LU-factors its implicit tridiagonal operator once (LAPACK gttrf), so a step
is one O(n) gttrs solve, streamed by propagate.march to the final state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (BoundaryDecayError, FieldSpec, Grid, PropagatorSpec, RealState,
                     WaveState, check_amplitude_decay, check_eps)
from .propagate import Tridiagonal, ValidityError

# 0!, 1!, ..., 25!: the divisors of _fundamental's series
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(26))

# the largest |w| whose exp(w) a float64 holds: a face weight B(w) = w/(e^w - 1) past it reads 0
_EXP_MAX = float(np.log(np.finfo(float).max))


@dataclass(frozen=True)
class HamiltonianSpec:
    """Minimally coupled 1D Hamiltonian (p - A)^2/(2m) + phi, hbar = 1."""

    m: float
    a_field: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))
    phi: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"mass must be finite and > 0, got {self.m}")


def to_hamiltonian(spec: PropagatorSpec) -> HamiltonianSpec:
    """Map propagator parameters in has_exact_state's class to (m, A, phi): A = a0 + a1 x
    is affine and phi the polynomial b - A^2/(2m) of degree <= 2.  Raises ValueError
    naming the class for any other spec."""
    if not has_exact_state(spec):
        raise ValueError("the Hamiltonian map needs the admissible variant, u a polynomial "
                         "of degree <= 1 and b a polynomial; got "
                         f"{spec.variant}, u {_shape(spec.u)}, b {_shape(spec.b)}")
    m = 1.0 / spec.d
    a_field = spec.u.scaled(m)
    a0, a1 = (*a_field.coeffs, 0.0, 0.0)[:2]
    a_sq = (a0 ** 2, 2.0 * a0 * a1, a1 ** 2)
    b = (*spec.b.coeffs, 0.0, 0.0, 0.0)[:3]
    phi = FieldSpec("polynomial", coeffs=[bp - ap / (2.0 * m) for bp, ap in zip(b, a_sq)])
    return HamiltonianSpec(m=m, a_field=a_field, phi=phi)


def has_exact_state(spec: PropagatorSpec) -> bool:
    """Whether exact_state accepts spec: the admissible variant (so a constant
    D), u a polynomial of degree <= 1 and b a polynomial, which make
    phi = b - A^2/(2m) quadratic."""
    return (spec.is_admissible() and spec.u.degree is not None and spec.u.degree <= 1
            and spec.b.degree is not None)


def _shape(f: FieldSpec) -> str:
    return f.kind if f.degree is None else f"of degree {f.degree}"


def _fundamental(omega2: float, time: float) -> tuple[float, float, float, float]:
    """c, s and the integrals of s and s^2 from 0 to time, where c and s solve
    y'' = -omega2 y with c(0) = s'(0) = 1 and c'(0) = s(0) = 0."""
    t = time
    z = -omega2 * t * t
    if abs(z) < 1.0:  # each is t^p times a series in z; the closed forms cancel here
        terms, f = range(12), _FACTORIALS
        return (sum(z ** j / f[2 * j] for j in terms),
                t * sum(z ** j / f[2 * j + 1] for j in terms),
                t ** 2 * sum(z ** j / f[2 * j + 2] for j in terms),
                t ** 3 * sum(2.0 * (4.0 * z) ** j / f[2 * j + 3] for j in terms))
    if omega2 > 0.0:
        om = math.sqrt(omega2)
        c, s = math.cos(om * t), math.sin(om * t) / om
    else:
        ka = math.sqrt(-omega2)
        c, s = math.cosh(ka * t), math.sinh(ka * t) / ka
    return c, s, (1.0 - c) / omega2, (t - s * c) / (2.0 * omega2)


def exact_evolution(grid: Grid, spec: PropagatorSpec, x0: float, sigma0: float, k0: float):
    """times -> the exact Schrodinger states at times of gaussian_packet(grid, x0, sigma0, k0).

    to_hamiltonian gives A = a0 + a1 x and phi = v0 + v1 x + v2 x^2.  The gauge
    Lambda = a0 x + a1 x^2/2, whose Lambda' is A, turns H into p^2/(2m) + phi,
    under which chi = exp(alpha x^2 + beta x + gamma) stays closed:
    alpha = (im/2) w'/w with w'' + (2 v2/m) w = 0, (w beta)' = -i v1 w and
    gamma' = i beta^2/(2m) - w'/(2w) - i v0.  With the fundamental solutions
    c, s (c(0) = s'(0) = 1) every time integral is closed in c and s, and
    log w follows its branch continuously in time.  gamma at time 0 carries
    the packet's discrete normalization, so time 0 gives the built packet to
    round-off.  The states at many times are evaluated in one (len(times), n)
    pass.  Raises ValueError for a spec outside has_exact_state's class (from
    to_hamiltonian), and BoundaryDecayError at the first time at which the
    state has reached the grid edges or its closed form overflows (an
    inverted oscillator spreads it).
    """
    ham = to_hamiltonian(spec)
    if not sigma0 > 0.0:
        raise ValueError(f"sigma0 must be > 0, got {sigma0}")
    m = ham.m
    a0, a1 = (*ham.a_field.coeffs, 0.0, 0.0)[:2]
    v0, v1, v2 = (*ham.phi.coeffs, 0.0, 0.0, 0.0)[:3]
    x = grid.x
    scale = math.sqrt(float(np.sum(np.exp(-(x - x0) ** 2 / (2.0 * sigma0 ** 2)))) * grid.dx)
    alpha0 = complex(-0.25 / sigma0 ** 2, -0.5 * a1)  # the packet times e^{-i Lambda}
    beta0 = complex(0.5 * x0 / sigma0 ** 2, k0 - a0)
    gamma0 = -0.25 * x0 ** 2 / sigma0 ** 2 - math.log(scale)
    omega2 = 2.0 * v2 / m
    dw0 = -2j * alpha0 / m

    def coefficients(time: float) -> tuple[complex, complex, complex]:
        # cosh, sinh and the squares overflow once the packet has spread far
        c, s, s1, q = _fundamental(omega2, time)
        # w turns half a period about 0 each pi/omega when omega2 > 0
        half_turns = round(math.sqrt(omega2) * time / math.pi) if omega2 > 0.0 else 0
        w, dw = c + dw0 * s, -omega2 * s + dw0 * c
        big_w = s + dw0 * s1  # the integral of w
        # (-1)^n w with n = half_turns never crosses the negative real axis
        turned = -w if half_turns % 2 else w
        log_w = complex(math.log(abs(w)),
                        math.atan2(turned.imag, turned.real) + math.pi * half_turns)
        beta = (beta0 - 1j * v1 * big_w) / w
        # the integrals of 1/w^2, W/w^2 and W^2/w^2, by (s/w)' = 1/w^2 and parts
        i0 = s / w
        i1 = big_w * s / w - s1
        i2 = big_w ** 2 * s / w - 2.0 * q - dw0 * s1 ** 2
        beta_sq = beta0 ** 2 * i0 - 2j * beta0 * v1 * i1 - v1 ** 2 * i2
        gamma = gamma0 - 0.5 * log_w - 1j * v0 * time + 0.5j / m * beta_sq
        alpha = 0.5j * m * dw / w + 0.5j * a1  # times e^{i Lambda}
        return alpha, beta + 1j * a0, gamma

    def at(times, out: np.ndarray | None = None) -> np.ndarray:
        """The exact psi at times, as the rows of out (a new (len(times), n) array
        if None).  The first row in order that overflows or has reached the grid
        edges raises."""
        coeffs = np.empty((3, len(times)), dtype=complex)
        for j, time in enumerate(times):
            if not math.isfinite(time):
                raise ValueError(f"time must be finite, got {time}")
            try:
                coeffs[:, j] = coefficients(time)
            except (OverflowError, ValueError):  # a nan row, refused as overflowing below
                coeffs[:, j] = np.nan
        alpha, beta, gamma = coeffs[:, :, None]
        psi = np.empty((len(times), grid.n), dtype=complex) if out is None else out
        with np.errstate(all="ignore"):  # exp((alpha x + beta) x + gamma), in place
            np.multiply(alpha, x, out=psi)
            psi += beta
            psi *= x
            psi += gamma
            np.exp(psi, out=psi)
        # WaveState's finiteness check, then the edge check, row by row in time order
        finite = np.isfinite(psi.view(float)).all(axis=-1)
        ok = len(times) if finite.all() else int(np.argmin(finite))
        for amp in np.abs(psi[:ok]):
            check_amplitude_decay(amp)
        if ok < len(times):
            raise BoundaryDecayError(f"the exact state at time {times[ok]:g} overflows: the "
                                     "packet has spread far past the grid")
        return psi

    return at


def exact_state(grid: Grid, spec: PropagatorSpec, x0: float, sigma0: float,
                k0: float, time: float) -> WaveState:
    """exact_evolution(grid, spec, x0, sigma0, k0) at the one time."""
    return WaveState(grid, exact_evolution(grid, spec, x0, sigma0, k0)([time])[0], time=time)


def _bernoulli(w: np.ndarray) -> np.ndarray:
    # B(w) = w/(e^w - 1), smooth through w = 0, where its series is 1 - w/2
    out = 1.0 - 0.5 * w
    big = np.abs(w) > 1e-8
    out[big] = w[big] / np.expm1(w[big])
    return out


def _diffusion_diagonals(grid: Grid, spec: PropagatorSpec):
    """Flux-divergence generator A with dP/dt = -A P; columns sum to zero."""
    n, dx = grid.n, grid.dx
    dh = 0.5 * spec.d
    x_face = grid.x[:-1] + 0.5 * dx
    w = spec.u(x_face) * dx / dh
    if not np.all(np.abs(w) <= _EXP_MAX):
        raise ValidityError(f"the drift-diffusion oracle cannot weigh its faces: |u dx/(D/2)| "
                            f"reaches {np.max(np.abs(w)):.3g} > {_EXP_MAX:.2f} on "
                            f"[{grid.x[0]:g}, {grid.x[-1]:g}], where exp overflows")
    bp = _bernoulli(w)
    bm = _bernoulli(-w)
    coef = dh / dx ** 2
    diag = np.zeros(n)
    diag[:-1] += coef * bm
    diag[1:] += coef * bp
    return -coef * bm, diag, -coef * bp


def diffusion_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    """One implicit step of dP/dt = (D/2) P'' - (u P)' with no-flux ends.

    It has no stability bound and keeps P nonnegative.
    """
    check_eps(eps)
    if not spec.is_admissible():
        raise ValueError("the diffusion oracle is defined for the admissible variant")
    lower, diag, upper = _diffusion_diagonals(grid, spec)
    implicit = Tridiagonal(eps * lower, 1.0 + eps * diag, eps * upper)

    def step(state: RealState) -> RealState:
        out = implicit.solve(state.density)
        out = np.where(np.abs(out) < 1e-300, 0.0, out)  # flush denormals
        return state.replace_density(out, time=state.time + eps)

    return step
