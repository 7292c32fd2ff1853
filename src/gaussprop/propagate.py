"""Single-step propagation of wave and density states.

The dense path applies the complex kernel as written: one step of duration
eps maps

    psi(x_j, t+eps) = sum_k dx * Pi(x_k - x_j, eps; x_k, t) * psi(x_k, t),

with the kernel, its drift, and the first-order T factors all evaluated at
the displaced point x_k = x_j + eta.  The eta integral is truncated at the
grid extent: the kernel itself never decays, the integrand does because psi
does, which is why every state fed to a step must satisfy the boundary-decay
invariant.

dense_operator builds this step once per (grid, eps, spec, t).  For real
constant D with a constant or linear drift u, the drifted sources
y_k = x_k - u(x_k) eps again lie on a uniform grid, and the phase
(x_k - x_j - u_k eps)^2 = (y_k - x_j)^2 makes the sum a chirp-z transform:
a column chirp, a convolution with the chirp of the index lag done by FFT,
and a row chirp (Rabiner, Schafer & Rader 1969; Bluestein 1970).  That is
O(n log n) time and O(n) memory per step.  complex_u's constant imaginary
drift enters as real row and column factors.  Sine, quadratic and tabulated
drifts, x-dependent D and complex D apply the n x n kernel matrix, which is
also the reference the factored form is tested against.

The quadrature can only resolve the kernel's quadratic phase when adjacent
grid samples advance it by at most pi: max |eta| * dx / (D eps) <= pi.
validity_check reports this number for the full grid window and for the
window the state actually occupies; step_dense refuses to run when the
occupied window fails.  Equivalently, the sampled chirp's aliasing images
(spaced 2 pi D eps / dx apart) must fall outside the occupied window.  The
chirp-z form computes the same sampled sum as the matrix, so the floor holds
for both: an unresolved chirp aliases however the sum is evaluated.

The spectral path uses the kernel's factorized form on a periodic grid:
position factors for the drift and phase fields applied to O(eps), and the
free quadratic-phase convolution applied exactly as the Fourier multiplier
exp(-i D eps k^2 / 2).  It exists for admissible parameter sets only; the
falsification variants must go through the dense quadrature.

The real kernel composes as a Chapman-Kolmogorov step: a particle at the
source y moves by eta drawn from Normal(u(y) eps, D eps), so

    P(x_j, t+eps) = sum_k dx * Pi_real(x_j - x_k, eps; x_k, t) * P(x_k, t),

which keeps mass exact to quadrature precision and drifts forward (mean u t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded

from .fields import (BOUNDARY_DECAY_RATIO, FieldSpec, Grid, PropagatorSpec,
                     RealState, WaveState, check_boundary_decay, norm, total_mass)
from .kernel import complex_kernel, real_kernel, source_factors


class ValidityError(RuntimeError):
    """The grid cannot resolve the kernel's phase for this step size."""


@dataclass(frozen=True)
class ValidityReport:
    """Phase-resolution diagnostics for a dense quadrature step."""

    max_phase_step: float           # over the full grid half-window
    state_phase_step: float | None  # over the window the state occupies
    passes: bool                    # governed by the state window when given
    passes_full: bool
    recommended_min_eps: float      # smallest eps the governing window resolves

    def __str__(self):
        gov = self.max_phase_step if self.state_phase_step is None else self.state_phase_step
        return (f"phase step {gov:.3f} rad vs pi "
                f"({'ok' if self.passes else 'unresolved'}; "
                f"eps >= {self.recommended_min_eps:.4g} recommended)")


def _d_scale(grid: Grid, spec: PropagatorSpec) -> float:
    """Conservative diffusivity magnitude for phase-resolution estimates."""
    return float(np.min(np.abs(spec.d_value(grid.x))))


def _support_half_width(state: WaveState, ratio: float = BOUNDARY_DECAY_RATIO) -> float:
    amp = np.abs(state.psi)
    idx = np.nonzero(amp >= ratio * amp.max())[0]
    return 0.5 * (state.grid.x[idx[-1]] - state.grid.x[idx[0]])


def validity_check(grid: Grid, eps: float, spec: PropagatorSpec,
                   state: WaveState | None = None) -> ValidityReport:
    """Can the dense quadrature resolve the kernel phase at this step size?"""
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    d = _d_scale(grid, spec)
    full = grid.half_width * grid.dx / (d * eps)
    window = grid.half_width
    state_step = None
    if state is not None:
        state_step = _support_half_width(state) * grid.dx / (d * eps)
        window = _support_half_width(state)
    governing = full if state_step is None else state_step
    return ValidityReport(
        max_phase_step=full,
        state_phase_step=state_step,
        passes=bool(governing <= np.pi),
        passes_full=bool(full <= np.pi),
        recommended_min_eps=float(window * grid.dx / (np.pi * d)))


def _dense_matrix(grid: Grid, eps: float, spec: PropagatorSpec, t: float,
                  a_override: FieldSpec | None = None) -> np.ndarray:
    x = grid.x
    eta = x[None, :] - x[:, None]
    ev = complex_kernel(eta, eps, x[None, :], t, spec, a_override=a_override)
    return grid.dx * ev.value


def _chirp_z_step(grid: Grid, eps: float, spec: PropagatorSpec, t: float,
                  a_override: FieldSpec | None):
    # With x_j = x_0 + j dx and y_k = x_k - u(x_k) eps = y_0 + k r dx, the
    # phase c (y_k - x_j)^2 splits into a column chirp, a row chirp and the
    # chirp exp(i c r dx^2 (k - j)^2) of the index lag, a convolution done by
    # FFT (Bluestein 1970).  Only the lag chirp carries the 1/eps of c; the
    # row and column phases are written with their 1/eps parts cancelled.
    n, dx = grid.n, grid.dx
    u_first = float(spec.u(grid.x_min, t))          # u(x_0)
    slope = float(spec.u.derivative(grid.x_min, t))
    c = 1.0 / (2.0 * spec.d * eps)
    r = 1.0 - slope * eps
    delta = -u_first * eps                          # y_0 - x_0
    c_delta = -u_first / (2.0 * spec.d)             # c delta
    c_shear = slope / (2.0 * spec.d)                # c (1 - r)
    xs = grid.x - grid.x_min                        # x_j - x_0
    norm_factor, t_factor = source_factors(eps, grid.x, t, spec, a_override)
    # c ((y_k - x_0)^2 - r (x_k - x_0)^2) and c ((1 - r) (x_j - x_0)^2
    # - 2 delta (x_j - x_0))
    col = dx * norm_factor * t_factor * np.exp(
        1j * (c_delta * (delta + 2.0 * r * xs) - r * c_shear * xs ** 2))
    row = np.exp(1j * (c_shear * xs ** 2 - 2.0 * c_delta * xs))
    if spec.variant == "complex_u":
        # u + i im_u shifts y by -i w, w = im_u eps, which multiplies the
        # kernel by exp(2 c w (y_k - x_j) - i c w^2); the real part is split
        # about the grid centre to keep both factors moderate
        shift = spec.im_u / spec.d                  # 2 c w
        mid = grid.half_width
        col = col * np.exp(shift * (delta + r * xs - mid))
        row = row * np.exp(-shift * (xs - mid) - 0.5j * shift * spec.im_u * eps)
    size = 1 << (2 * n - 2).bit_length()           # >= 2n - 1: no wrap-around
    lag = np.arange(size)
    lag = np.minimum(lag, size - lag).astype(float)
    chirp_hat = np.fft.fft(np.exp(1j * c * r * dx ** 2 * lag ** 2))

    def apply(psi: np.ndarray) -> np.ndarray:
        return row * np.fft.ifft(chirp_hat * np.fft.fft(col * psi, size))[:n]

    return apply


def dense_operator(grid: Grid, eps: float, spec: PropagatorSpec, t: float,
                   a_override: FieldSpec | None = None):
    """The dense quadrature step on grid as a function psi -> psi(t + eps).

    Real constant D with constant or linear u takes the chirp-z form in
    O(n log n); every other spec applies the n x n kernel matrix.
    """
    if (spec.u.kind in ("constant", "linear")
            and spec.variant not in ("complex_d", "x_dependent_d")):
        return _chirp_z_step(grid, eps, spec, t, a_override)
    mat = _dense_matrix(grid, eps, spec, t, a_override)
    return lambda psi: mat @ psi


def step_dense(state: WaveState, eps: float, spec: PropagatorSpec,
               a_override: FieldSpec | None = None) -> WaveState:
    """One complex-kernel step by direct quadrature over the whole grid."""
    check_boundary_decay(state)
    report = validity_check(state.grid, eps, spec, state)
    if not report.passes:
        raise ValidityError(f"dense step cannot resolve the kernel phase: {report}")
    step = dense_operator(state.grid, eps, spec, state.time, a_override)
    return state.replace_psi(step(state.psi), time=state.time + eps)


def _drift_cayley(psi: np.ndarray, u: np.ndarray, eps: float,
                  dx: float) -> np.ndarray:
    # Cayley step of the antisymmetric drift u d/dx + (1/2) du/dx, written in
    # the symmetrized product form so only u samples enter; unconditionally
    # stable and exactly norm-preserving, unlike an explicit update, which
    # amplifies round-off near the edges once eps*|u|*k_max exceeds 1.
    face = (u[:-1] + u[1:]) / (4.0 * dx)
    half = 0.5 * eps
    rhs = psi.astype(complex, copy=True)
    rhs[:-1] += half * face * psi[1:]
    rhs[1:] -= half * face * psi[:-1]
    ab = np.zeros((3, len(psi)), dtype=complex)
    ab[0, 1:] = -half * face
    ab[1, :] = 1.0
    ab[2, :-1] = half * face
    return solve_banded((1, 1), ab, rhs)


def step_spectral(state: WaveState, eps: float, spec: PropagatorSpec) -> WaveState:
    """One step via the factorized kernel on the periodic grid.

    Drift and phase fields act in position space to O(eps); the free
    quadratic-phase convolution is the exact multiplier exp(-i D eps k^2/2).
    For zero drift and zero b the step is exactly unimodular.
    """
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if spec.variant != "admissible":
        raise ValueError("the spectral path assumes an admissible parameter set; "
                         f"variant {spec.variant!r} must use the dense path")
    n = state.grid.n
    if n & (n - 1):
        raise ValueError(f"spectral stepping needs a power-of-two grid, got n={n}")
    check_boundary_decay(state)
    x, k = state.grid.x, state.grid.k
    psi = state.psi
    u = spec.u(x, state.time)
    if np.any(u != 0.0):
        psi = _drift_cayley(psi, u, eps, state.grid.dx)
        if spec.order == "zero":
            # the zero-order kernel carries the full du/dx weight, half of
            # which is the non-unitary surplus the T correction removes
            psi = psi * np.exp(0.5 * eps * spec.du_dx(x, state.time).real)
    if spec.order == "first":
        psi = np.exp(-1j * eps * spec.b(x, state.time)) * psi
    return state.replace_psi(
        np.fft.ifft(np.exp(-0.5j * spec.d * eps * k ** 2) * np.fft.fft(psi)),
        time=state.time + eps)


def step_density(state: RealState, eps: float, spec: PropagatorSpec) -> RealState:
    """One real-kernel step (Chapman-Kolmogorov quadrature over sources)."""
    if spec.variant != "admissible":
        raise ValueError("the real kernel is defined for the admissible variant only")
    check_boundary_decay(state)
    grid = state.grid
    width = np.sqrt(spec.d * eps)
    if width < 2.0 * grid.dx:
        raise ValidityError(
            f"real kernel width {width:.3g} under-resolved by dx={grid.dx:.3g} "
            "(need sqrt(D eps) >= 2 dx)")
    mat = _real_matrix(grid, eps, spec, state.time)
    return state.replace_density(mat @ state.density, time=state.time + eps)


def _real_matrix(grid: Grid, eps: float, spec: PropagatorSpec, t: float) -> np.ndarray:
    x = grid.x
    eta = x[:, None] - x[None, :]  # destination minus source
    return grid.dx * real_kernel(eta, eps, x[None, :], t, spec)


@dataclass(frozen=True)
class Trajectory:
    """States visited by repeated stepping, initial state included."""

    states: tuple
    eps: float

    @cached_property
    def norms(self) -> np.ndarray:
        if isinstance(self.states[0], RealState):
            return np.array([total_mass(s) for s in self.states])
        return np.array([norm(s) for s in self.states])

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.states])

    @property
    def final(self):
        return self.states[-1]


def evolve(state: WaveState, eps: float, n_steps: int, spec: PropagatorSpec,
           method: str = "dense") -> Trajectory:
    """Repeatedly step a wave state, aborting if its tails reach the grid edge."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if method not in ("dense", "spectral"):
        raise ValueError(f"method must be 'dense' or 'spectral', got {method!r}")
    states = [state]
    if method == "dense":
        # static fields: one operator serves every step
        step = dense_operator(state.grid, eps, spec, state.time)
        for i in range(n_steps):
            cur = states[-1]
            _recheck(cur, i)
            report = validity_check(cur.grid, eps, spec, cur)
            if not report.passes:
                raise ValidityError(
                    f"dense step cannot resolve the kernel phase at step {i}: {report}")
            states.append(cur.replace_psi(step(cur.psi), time=cur.time + eps))
    else:
        for i in range(n_steps):
            cur = states[-1]
            _recheck(cur, i)
            states.append(step_spectral(cur, eps, spec))
    return Trajectory(states=tuple(states), eps=eps)


def _recheck(state: WaveState, step: int) -> None:
    try:
        check_boundary_decay(state)
    except ValueError as exc:
        raise type(exc)(f"aborted before step {step}: {exc}") from None


def evolve_density(state: RealState, eps: float, n_steps: int,
                   spec: PropagatorSpec) -> Trajectory:
    """Repeatedly step a density with the real kernel."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    check_boundary_decay(state)
    mat = _real_matrix(state.grid, eps, spec, state.time)
    states = [state]
    for _ in range(n_steps):
        cur = states[-1]
        states.append(cur.replace_density(mat @ cur.density, time=cur.time + eps))
    return Trajectory(states=tuple(states), eps=eps)
