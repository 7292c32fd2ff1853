"""Method-independent oracles: Crank-Nicolson Schrodinger and drift-diffusion.

The admissible propagator parameters (D, u, b) map onto a minimally coupled
Hamiltonian H = (p - A)^2/(2m) + phi with hbar = 1 and unit charge:

    m = 1/D,        A = u m,        phi = b - A^2/(2m),

and back.  The right-hand side of the Schrodinger equation expands to

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import FieldSpec, Grid, PropagatorSpec, RealState, WaveState
from .propagate import Tridiagonal


@dataclass(frozen=True)
class HamiltonianSpec:
    """Minimally coupled 1D Hamiltonian (p - A)^2/(2m) + phi, hbar = 1.

    im_a adds a constant imaginary part to A.  It exists to demonstrate that
    a complex vector potential breaks Hermiticity; every oracle use keeps it 0.
    """

    m: float
    a_field: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))
    phi: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))
    im_a: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.m) and self.m > 0.0):
            raise ValueError(f"mass must be finite and > 0, got {self.m}")

    def a_values(self, x):
        a = self.a_field(x).astype(complex)
        return a + 1j * self.im_a if self.im_a else a


def to_hamiltonian(spec: PropagatorSpec, grid: Grid) -> HamiltonianSpec:
    """Map admissible propagator parameters to (m, A, phi)."""
    if not spec.is_admissible():
        raise ValueError("only the admissible variant maps to a Hamiltonian")
    m = 1.0 / spec.d
    a_field = spec.u.scaled(m)
    if a_field.is_constant() and float(a_field(np.zeros(1))[0]) == 0.0:
        phi = spec.b
    else:
        x = grid.x
        phi = FieldSpec.tabulated(x, spec.b(x) - a_field(x) ** 2 / (2.0 * m))
    return HamiltonianSpec(m=m, a_field=a_field, phi=phi)


def to_propagator(ham: HamiltonianSpec, grid: Grid) -> PropagatorSpec:
    """Inverse map; with to_hamiltonian it round-trips to 1e-12 on the grid."""
    if ham.im_a:
        raise ValueError("complex A has no admissible propagator image")
    d = 1.0 / ham.m
    u = ham.a_field.scaled(d)
    if ham.a_field.is_constant() and float(ham.a_field(np.zeros(1))[0]) == 0.0:
        b = ham.phi
    else:
        x = grid.x
        b = FieldSpec.tabulated(x, ham.phi(x) + ham.a_field(x) ** 2 / (2.0 * ham.m))
    return PropagatorSpec(d=d, u=u, b=b, order="first")


def rhs_apply(state: WaveState, ham: HamiltonianSpec) -> np.ndarray:
    """dpsi/dt from the expanded Schrodinger form, zero beyond the grid edges."""
    grid, dx, m = state.grid, state.grid.dx, ham.m
    psi = np.zeros(grid.n + 2, dtype=complex)
    psi[1:-1] = state.psi
    a = np.zeros(grid.n + 2, dtype=complex)
    a[1:-1] = ham.a_values(grid.x)
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
    a = ham.a_values(grid.x)
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
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    lower, diag, upper = hamiltonian_diagonals(ham, grid)
    half = 0.5j * eps
    explicit = Tridiagonal(-half * lower, 1.0 - half * diag, -half * upper)
    implicit = Tridiagonal(half * lower, 1.0 + half * diag, half * upper)

    def step(state: WaveState) -> WaveState:
        return state.replace_psi(implicit.solve(explicit.apply(state.psi)),
                                 time=state.time + eps)

    return step


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
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if spec.variant != "admissible":
        raise ValueError("the diffusion oracle is defined for the admissible variant")
    lower, diag, upper = _diffusion_diagonals(grid, spec)
    implicit = Tridiagonal(eps * lower, 1.0 + eps * diag, eps * upper)

    def step(state: RealState) -> RealState:
        out = implicit.solve(state.density)
        out = np.where(np.abs(out) < 1e-300, 0.0, out)  # flush denormals
        return state.replace_density(out, time=state.time + eps)

    return step
