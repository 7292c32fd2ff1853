"""Single-step propagation of wave and density states.

The dense path applies the complex kernel as written: one step of duration
eps maps

    psi(x_j, t+eps) = sum_k dx * Pi(x_k - x_j, eps; x_k) * psi(x_k, t),

with the kernel, its drift, and the first-order T factors all evaluated at
the displaced point x_k = x_j + eta.  The eta integral is truncated at the
grid extent: the kernel itself never decays, the integrand does because psi
does, which is why every state fed to a step must satisfy the boundary-decay
invariant.

dense_operator builds this step once per (grid, eps, spec).  For real
constant D with a constant or linear drift u, the drifted sources
y_k = x_k - u(x_k) eps again lie on a uniform grid, and the phase
(x_k - x_j - u_k eps)^2 = (y_k - x_j)^2 makes the sum a chirp-z transform:
a column chirp, a convolution with the chirp of the index lag done by FFT,
and a row chirp (Rabiner, Schafer & Rader 1969; Bluestein 1970).  That is
O(n log n) time and O(n) memory per step.  complex_u's constant imaginary
drift enters as real row and column factors.  Sine, quadratic and tabulated
drifts, x-dependent D and complex D apply the n x n kernel matrix, which is
also the reference the factored form is tested against; it is built only for
grid.n <= MAX_DENSE_MATRIX_N.

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

    P(x_j, t+eps) = sum_k dx * Pi_real(x_j - x_k, eps; x_k) * P(x_k, t),

which keeps mass exact to quadrature precision and drifts forward (mean u t).

Each method has one builder, (grid, eps, spec) -> step, holding its guards
and its operator; step_dense, step_spectral and step_density build and apply
once.  march streams an evolution holding only the current state, and record
keeps the per-step times and norms plus the final state in a Trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (BOUNDARY_DECAY_RATIO, FieldSpec, Grid, PropagatorSpec,
                     RealState, WaveState, check_boundary_decay, norm, total_mass)
from .kernel import complex_kernel, real_kernel, source_factors


# the wave-stepping methods: the dense quadrature and the factorized kernel
METHODS = ("dense", "spectral")

# the largest grid.n the n x n kernel matrix is built for: 1 GiB of complex
# entries kept (about 3.5 GiB at the peak of its build)
MAX_DENSE_MATRIX_N = 2 ** 13


class ValidityError(RuntimeError):
    """The grid cannot resolve the kernel's phase for this step size."""


@dataclass(frozen=True)
class ValidityReport:
    """Phase-resolution diagnostics for a dense quadrature step."""

    max_phase_step: float           # over the full grid half-window
    state_phase_step: float | None  # over the window the state occupies
    passes: bool                    # governed by the state window when given
    recommended_min_eps: float      # smallest eps the governing window resolves

    def __str__(self):
        gov = self.max_phase_step if self.state_phase_step is None else self.state_phase_step
        return (f"phase step {gov:.3f} rad vs pi "
                f"({'ok' if self.passes else 'unresolved'}; "
                f"eps >= {self.recommended_min_eps:.4g} recommended)")


def _d_scale(grid: Grid, spec: PropagatorSpec) -> float:
    """Conservative diffusivity magnitude for phase-resolution estimates."""
    if spec.variant == "x_dependent_d":
        d_min = float(np.min(spec.d_field(grid.x)))
        if not d_min > 0.0:
            raise ValueError(f"spec.d_field must be > 0 on the grid, but its "
                             f"minimum there is D = {d_min:g}")
    return float(np.min(np.abs(spec.d_value(grid.x))))


def _support_half_width(state: WaveState) -> float:
    amp = np.abs(state.psi)
    idx = np.nonzero(amp >= BOUNDARY_DECAY_RATIO * amp.max())[0]
    return 0.5 * (state.grid.x[idx[-1]] - state.grid.x[idx[0]])


def validity_check(grid: Grid, eps: float, spec: PropagatorSpec,
                   state: WaveState | None = None) -> ValidityReport:
    """Can the dense quadrature resolve the kernel phase at this step size?"""
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    d = _d_scale(grid, spec)
    full = grid.half_width * grid.dx / (d * eps)
    window = grid.half_width if state is None else _support_half_width(state)
    governing = window * grid.dx / (d * eps)
    return ValidityReport(
        max_phase_step=full,
        state_phase_step=None if state is None else governing,
        passes=bool(governing <= np.pi),
        recommended_min_eps=float(window * grid.dx / (np.pi * d)))


def _dense_matrix(grid: Grid, eps: float, spec: PropagatorSpec,
                  a_override: FieldSpec | None = None) -> np.ndarray:
    x = grid.x
    eta = x[None, :] - x[:, None]
    ev = complex_kernel(eta, eps, x[None, :], spec, a_override=a_override)
    return grid.dx * ev.value


def _chirp_z_step(grid: Grid, eps: float, spec: PropagatorSpec,
                  a_override: FieldSpec | None):
    # With x_j = x_0 + j dx and y_k = x_k - u(x_k) eps = y_0 + k r dx, the
    # phase c (y_k - x_j)^2 splits into a column chirp, a row chirp and the
    # chirp exp(i c r dx^2 (k - j)^2) of the index lag, a convolution done by
    # FFT (Bluestein 1970).  Only the lag chirp carries the 1/eps of c; the
    # row and column phases are written with their 1/eps parts cancelled.
    n, dx = grid.n, grid.dx
    u_first = float(spec.u(grid.x_min))             # u(x_0)
    slope = float(spec.u.derivative(grid.x_min))
    c = 1.0 / (2.0 * spec.d * eps)
    r = 1.0 - slope * eps
    delta = -u_first * eps                          # y_0 - x_0
    c_delta = -u_first / (2.0 * spec.d)             # c delta
    c_shear = slope / (2.0 * spec.d)                # c (1 - r)
    xs = grid.x - grid.x_min                        # x_j - x_0
    norm_factor, t_factor = source_factors(eps, grid.x, spec, a_override)
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


def dense_operator(grid: Grid, eps: float, spec: PropagatorSpec,
                   a_override: FieldSpec | None = None):
    """The dense quadrature step on grid as a function psi -> psi(t + eps).

    Real constant D with constant or linear u takes the chirp-z form in
    O(n log n); every other spec applies the n x n kernel matrix, for
    grid.n <= MAX_DENSE_MATRIX_N only.
    """
    if (spec.u.kind in ("constant", "linear")
            and spec.variant not in ("complex_d", "x_dependent_d")):
        return _chirp_z_step(grid, eps, spec, a_override)
    if grid.n > MAX_DENSE_MATRIX_N:
        raise ValueError(
            f"grid.n = {grid.n} needs a {grid.n} x {grid.n} kernel matrix "
            f"({16 * grid.n ** 2 / 2 ** 30:.0f} GiB) for this spec; the dense "
            f"path allows grid.n <= {MAX_DENSE_MATRIX_N}")
    mat = _dense_matrix(grid, eps, spec, a_override)
    return lambda psi: mat @ psi


def _dense_stepper(grid: Grid, eps: float, spec: PropagatorSpec,
                   a_override: FieldSpec | None = None):
    # The guards run on every state; the operator is built once, on the
    # first state that passes them, so a run that must abort builds nothing.
    apply = None

    def step(state: WaveState) -> WaveState:
        nonlocal apply
        check_boundary_decay(state)
        report = validity_check(grid, eps, spec, state)
        if not report.passes:
            raise ValidityError(f"dense step cannot resolve the kernel phase: {report}")
        if apply is None:
            apply = dense_operator(grid, eps, spec, a_override)
        return state.replace_psi(apply(state.psi), time=state.time + eps)

    return step


def step_dense(state: WaveState, eps: float, spec: PropagatorSpec,
               a_override: FieldSpec | None = None) -> WaveState:
    """One complex-kernel step by direct quadrature over the whole grid."""
    return _dense_stepper(state.grid, eps, spec, a_override)(state)


def get_lapack_funcs(names, arrays):
    """scipy.linalg.get_lapack_funcs, imported on the first call: scipy.linalg
    costs more to import than most commands take to run, and only the
    tridiagonal solves use it."""
    from scipy.linalg import get_lapack_funcs as lapack_funcs

    return lapack_funcs(names, arrays)


class _Tridiagonal:
    """The matrix with finite bands (lower, diag, upper).  solve LU-factors it
    once (LAPACK gttrf, complex if any band is), then each solve is one O(n)
    gttrs sweep, bit for bit what solve_banded gives by re-factoring."""

    def __init__(self, lower, diag, upper):
        self.bands = (lower, diag, upper)
        if not all(np.isfinite(band).all() for band in self.bands):
            raise ValueError("tridiagonal bands must be finite")
        self._lu = None

    def apply(self, v: np.ndarray) -> np.ndarray:
        lower, diag, upper = self.bands
        out = diag * v
        out[:-1] += upper * v[1:]
        out[1:] += lower * v[:-1]
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._lu is None:
            gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), self.bands)
            *factors, info = gttrf(*self.bands)
            if info > 0:
                raise np.linalg.LinAlgError("singular matrix")
            self._lu = gttrs, factors
        gttrs, factors = self._lu
        return gttrs(*factors, rhs)[0]


def _spectral_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    # Fields are static, so every factor of the step is built once; only the
    # boundary-decay check runs on every state.
    if not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if spec.variant != "admissible":
        raise ValueError("the spectral path assumes an admissible parameter set; "
                         f"variant {spec.variant!r} must use the dense path")
    n, x = grid.n, grid.x
    if n & (n - 1):
        raise ValueError(f"spectral stepping needs a power-of-two grid, got n={n}")
    free = np.exp(-0.5j * spec.d * eps * grid.k ** 2)
    phase = np.exp(-1j * eps * spec.b(x)) if spec.order == "first" else None
    u = spec.u(x)
    drifts = bool(np.any(u != 0.0))
    # Cayley step of the antisymmetric drift u d/dx + (1/2) du/dx, written in
    # the symmetrized product form so only u samples enter; unconditionally
    # stable and exactly norm-preserving, unlike an explicit update, which
    # amplifies round-off near the edges once eps*|u|*k_max exceeds 1.
    half_face = 0.5 * eps * ((u[:-1] + u[1:]) / (4.0 * grid.dx)) + 0j  # psi is complex
    explicit = _Tridiagonal(-half_face, np.ones(n), half_face)
    implicit = _Tridiagonal(half_face, np.ones(n), -half_face)
    # the zero-order kernel carries the full du/dx weight, half of which is
    # the non-unitary surplus the T correction removes
    surplus = (np.exp(0.5 * eps * spec.du_dx(x).real)
               if drifts and spec.order == "zero" else None)

    def step(state: WaveState) -> WaveState:
        check_boundary_decay(state)
        psi = state.psi
        if drifts:
            psi = implicit.solve(explicit.apply(psi))
        if surplus is not None:
            psi = psi * surplus
        if phase is not None:
            psi = phase * psi
        return state.replace_psi(np.fft.ifft(free * np.fft.fft(psi)), time=state.time + eps)

    return step


def step_spectral(state: WaveState, eps: float, spec: PropagatorSpec) -> WaveState:
    """One step via the factorized kernel on the periodic grid.

    Drift and phase fields act in position space to O(eps); the free
    quadratic-phase convolution is the exact multiplier exp(-i D eps k^2/2).
    For zero drift and zero b the step is exactly unimodular.
    """
    return _spectral_stepper(state.grid, eps, spec)(state)


def _density_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    if spec.variant != "admissible":
        raise ValueError("the real kernel is defined for the admissible variant only")
    width = np.sqrt(spec.d * eps)
    if width < 2.0 * grid.dx:
        raise ValidityError(
            f"real kernel width {width:.3g} under-resolved by dx={grid.dx:.3g} "
            "(need sqrt(D eps) >= 2 dx)")
    x = grid.x
    mat = None

    def step(state: RealState) -> RealState:
        nonlocal mat
        check_boundary_decay(state)
        if mat is None:  # built on the first state that passes, as for dense
            eta = x[:, None] - x[None, :]  # destination minus source
            mat = grid.dx * real_kernel(eta, eps, x[None, :], spec)
        return state.replace_density(mat @ state.density, time=state.time + eps)

    return step


def step_density(state: RealState, eps: float, spec: PropagatorSpec) -> RealState:
    """One real-kernel step (Chapman-Kolmogorov quadrature over sources)."""
    return _density_stepper(state.grid, eps, spec)(state)


def _wave_stepper(grid: Grid, eps: float, spec: PropagatorSpec, method: str = "dense"):
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return (_dense_stepper if method == "dense" else _spectral_stepper)(grid, eps, spec)


def march(state, n_steps: int, step):
    """Yield state, then n_steps successive steps of it, holding one at a time.

    A step's ValueError or ValidityError is re-raised naming the step index."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    yield state
    for i in range(n_steps):
        try:
            state = step(state)
        except (ValueError, ValidityError) as exc:
            raise type(exc)(f"aborted at step {i}: {exc}") from None
        yield state


@dataclass(frozen=True)
class Trajectory:
    """Per-step times and norms (masses for densities) and the final state."""

    times: np.ndarray
    norms: np.ndarray
    final: object


def record(states) -> Trajectory:
    """Consume a state stream into its Trajectory."""
    times, norms = [], []
    for state in states:
        times.append(state.time)
        norms.append(total_mass(state) if isinstance(state, RealState) else norm(state))
    return Trajectory(times=np.array(times), norms=np.array(norms), final=state)


def evolve(state: WaveState, eps: float, n_steps: int, spec: PropagatorSpec,
           method: str = "dense") -> Trajectory:
    """Repeatedly step a wave state, aborting if its tails reach the grid edge."""
    return record(march(state, n_steps, _wave_stepper(state.grid, eps, spec, method)))


def evolve_density(state: RealState, eps: float, n_steps: int,
                   spec: PropagatorSpec) -> Trajectory:
    """Repeatedly step a density with the real kernel."""
    return record(march(state, n_steps, _density_stepper(state.grid, eps, spec)))
