"""Method-independent oracles: Crank-Nicolson Schrodinger and drift-diffusion.

The admissible propagator parameters (D, u, b) map onto a minimally coupled
Hamiltonian H = (p - A)^2/(2m) + phi with hbar = 1 and unit charge:

    m = 1/D,        A = u m,        phi = b - A^2/(2m),

decided once, in to_hamiltonian.  The right-hand side of the Schrodinger
equation expands to

    dpsi/dt = (i/2m) psi'' + (A/m) psi' + (1/2m) A' psi
              - i (A^2/(2m)) psi - i phi psi,

discretized here with the compact second difference and the symmetrized
drift (1/2m)(A psi' + (A psi)'), which makes the discrete generator exactly
anti-Hermitian for real fields.  The same H is assembled independently as a
tridiagonal operator from p = -i * central difference, so the expansion can
be checked against -i H psi term by term.  Crank-Nicolson (the Cayley form
of exp(-i eps H)) then conserves the norm to solver round-off and serves as
the time-evolution oracle the kernel methods are compared against.

The real kernel's oracle is the drift-diffusion equation

    dP/dt = (D/2) P'' - (u P)',

the continuum limit of the Gaussian step-length law, discretized in flux
form with Scharfetter-Gummel faces and no-flux ends: mass is conserved to
round-off and the implicit (backward Euler) step keeps P nonnegative
(M-matrix), with no step-size stability bound.

Each oracle LU-factors its implicit tridiagonal operator once (LAPACK gttrf),
so a step is one O(n) gttrs solve, streamed by propagate.march to the final state.

For constant D, u of degree <= 1 and b a polynomial (FieldSpec.degree) the
Schrodinger state of a Gaussian packet is known in closed form (exact_state),
with neither a time step nor a spatial stencil: in 1D A = Lambda' is a pure
gauge, phi = b - A^2/(2m) is quadratic, and a Gaussian stays Gaussian
(Heller 1975, J. Chem. Phys. 62, 1544; Littlejohn 1986, Phys. Rep. 138, 193).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (BoundaryDecayError, FieldSpec, Grid, PropagatorSpec, RealState,
                     WaveState, check_boundary_decay, check_eps)
from .propagate import Tridiagonal


@dataclass(frozen=True)
class HamiltonianSpec:
    """Minimally coupled 1D Hamiltonian (p - A)^2/(2m) + phi, hbar = 1."""

    m: float
    a_field: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))
    phi: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"mass must be finite and > 0, got {self.m}")


def to_hamiltonian(spec: PropagatorSpec, grid: Grid) -> HamiltonianSpec:
    """Map admissible propagator parameters to (m, A, phi).

    In has_exact_state's class A = a0 + a1 x is affine and phi is the
    polynomial b - A^2/(2m) of degree <= 2; otherwise phi is tabulated on
    grid, which with A = 0 holds b's own values there.
    """
    if not spec.is_admissible():
        raise ValueError("only the admissible variant maps to a Hamiltonian")
    m = 1.0 / spec.d
    a_field = spec.u.scaled(m)
    if has_exact_state(spec):
        a0, a1 = (*a_field.coeffs, 0.0, 0.0)[:2]
        a_sq = (a0 ** 2, 2.0 * a0 * a1, a1 ** 2)
        b = (*spec.b.coeffs, 0.0, 0.0, 0.0)[:3]
        phi = FieldSpec("polynomial", coeffs=[bp - ap / (2.0 * m) for bp, ap in zip(b, a_sq)])
    else:
        x = grid.x
        phi = FieldSpec.tabulated(x, spec.b(x) - a_field(x) ** 2 / (2.0 * m))
    return HamiltonianSpec(m=m, a_field=a_field, phi=phi)


def rhs_apply(state: WaveState, ham: HamiltonianSpec) -> np.ndarray:
    """dpsi/dt from the expanded Schrodinger form, zero beyond the grid edges."""
    grid, dx, m = state.grid, state.grid.dx, ham.m
    psi = np.zeros(grid.n + 2, dtype=complex)
    psi[1:-1] = state.psi
    a = np.zeros(grid.n + 2, dtype=complex)
    a[1:-1] = ham.a_field(grid.x)
    lap = (psi[2:] - 2.0 * psi[1:-1] + psi[:-2]) / dx ** 2
    dpsi = (psi[2:] - psi[:-2]) / (2.0 * dx)
    dapsi = (a[2:] * psi[2:] - a[:-2] * psi[:-2]) / (2.0 * dx)
    aj = a[1:-1]
    pj = psi[1:-1]
    return (0.5j / m * lap
            + 0.5 / m * (aj * dpsi + dapsi)
            - 1j * (aj ** 2 / (2.0 * m) + ham.phi(grid.x)) * pj)


def hamiltonian_diagonals(ham: HamiltonianSpec, grid: Grid):
    """(lower, diag, upper) of H = (p^2 - pA - Ap + A^2)/(2m) + phi.

    p is the central difference times -i and p^2 the compact second
    difference; assembled by operator composition, independently of
    rhs_apply's expanded stencils.
    """
    n, dx, m = grid.n, grid.dx, ham.m
    # complex: numpy divides a complex array by a real scalar through its
    # reciprocal, a real one exactly, and the bands keep the complex rounding
    a = ham.a_field(grid.x).astype(complex)
    diag = np.full(n, 1.0 / (m * dx ** 2), dtype=complex)
    diag += a ** 2 / (2.0 * m) + ham.phi(grid.x)
    off = -0.5 / (m * dx ** 2)
    face = (a[:-1] + a[1:]) / (4.0 * m * dx)
    return off - 1j * face, diag, off + 1j * face


def hermiticity_check(ham: HamiltonianSpec, grid: Grid) -> float:
    """max |H - H^dagger| entry; zero to round-off for real fields."""
    lower, diag, upper = hamiltonian_diagonals(ham, grid)
    return float(max(np.max(np.abs(upper - np.conj(lower))),
                     np.max(np.abs(diag.imag))))


def cn_stepper(grid: Grid, eps: float, ham: HamiltonianSpec):
    """One Cayley step (1 + i eps H/2)^-1 (1 - i eps H/2); unitary to round-off."""
    check_eps(eps)
    lower, diag, upper = hamiltonian_diagonals(ham, grid)
    half = 0.5j * eps
    explicit = Tridiagonal(-half * lower, 1.0 - half * diag, -half * upper)
    implicit = Tridiagonal(half * lower, 1.0 + half * diag, half * upper)

    def step(state: WaveState) -> WaveState:
        return state.replace_psi(implicit.solve(explicit.apply(state.psi)),
                                 time=state.time + eps)

    return step


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
        terms = range(12)
        return (sum(z ** j / math.factorial(2 * j) for j in terms),
                t * sum(z ** j / math.factorial(2 * j + 1) for j in terms),
                t ** 2 * sum(z ** j / math.factorial(2 * j + 2) for j in terms),
                t ** 3 * sum(2.0 * (4.0 * z) ** j / math.factorial(2 * j + 3) for j in terms))
    if omega2 > 0.0:
        om = math.sqrt(omega2)
        c, s = math.cos(om * t), math.sin(om * t) / om
    else:
        ka = math.sqrt(-omega2)
        c, s = math.cosh(ka * t), math.sinh(ka * t) / ka
    return c, s, (1.0 - c) / omega2, (t - s * c) / (2.0 * omega2)


def exact_state(grid: Grid, spec: PropagatorSpec, x0: float, sigma0: float,
                k0: float, time: float) -> WaveState:
    """The exact Schrodinger state at time of gaussian_packet(grid, x0, sigma0, k0).

    to_hamiltonian gives A = a0 + a1 x and phi = v0 + v1 x + v2 x^2.  The gauge
    Lambda = a0 x + a1 x^2/2, whose Lambda' is A, turns H into p^2/(2m) + phi,
    under which chi = exp(alpha x^2 + beta x + gamma) stays closed:
    alpha = (im/2) w'/w with w'' + (2 v2/m) w = 0, (w beta)' = -i v1 w and
    gamma' = i beta^2/(2m) - w'/(2w) - i v0.  With the fundamental solutions
    c, s (c(0) = s'(0) = 1) every time integral is closed in c and s, and
    log w follows its branch continuously in time.  gamma at time 0 carries
    the packet's discrete normalization, so time 0 gives the built packet to
    round-off.  Raises ValueError for a spec outside has_exact_state's class,
    and BoundaryDecayError if the state has reached the grid edges or its
    closed form overflows (an inverted oscillator spreads it exponentially).
    """
    if not has_exact_state(spec):
        raise ValueError("the exact state needs the admissible variant, u a polynomial "
                         "of degree <= 1 and b a polynomial; got "
                         f"{spec.variant}, u {_shape(spec.u)}, b {_shape(spec.b)}")
    if not sigma0 > 0.0:
        raise ValueError(f"sigma0 must be > 0, got {sigma0}")
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time}")
    ham = to_hamiltonian(spec, grid)
    m = ham.m
    a0, a1 = (*ham.a_field.coeffs, 0.0, 0.0)[:2]
    v0, v1, v2 = (*ham.phi.coeffs, 0.0, 0.0, 0.0)[:3]
    x = grid.x
    scale = math.sqrt(float(np.sum(np.exp(-(x - x0) ** 2 / (2.0 * sigma0 ** 2)))) * grid.dx)
    alpha0 = complex(-0.25 / sigma0 ** 2, -0.5 * a1)  # the packet times e^{-i Lambda}
    beta0 = complex(0.5 * x0 / sigma0 ** 2, k0 - a0)
    gamma0 = -0.25 * x0 ** 2 / sigma0 ** 2 - math.log(scale)

    t, omega2 = time, 2.0 * v2 / m
    try:  # cosh, sinh and the squares overflow once the packet has spread far
        c, s, s1, q = _fundamental(omega2, t)
        # w turns half a period about 0 each pi/omega when omega2 > 0
        half_turns = round(math.sqrt(omega2) * t / math.pi) if omega2 > 0.0 else 0
        dw0 = -2j * alpha0 / m
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
        gamma = gamma0 - 0.5 * log_w - 1j * v0 * t + 0.5j / m * beta_sq
        alpha = 0.5j * m * dw / w + 0.5j * a1  # times e^{i Lambda}
        beta = beta + 1j * a0
        with np.errstate(all="ignore"):
            psi = np.exp((alpha * x + beta) * x + gamma)
    except OverflowError:
        psi = None
    if psi is None or not np.isfinite(psi.view(float)).all():
        raise BoundaryDecayError(f"the exact state at time {t:g} overflows: the packet "
                                 "has spread far past the grid")
    state = WaveState(grid, psi, time=t)
    check_boundary_decay(state)
    return state


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
