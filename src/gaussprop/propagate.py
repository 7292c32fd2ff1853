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
constant D with a drift u of degree <= 1, the drifted sources
y_k = x_k - u(x_k) eps again lie on a uniform grid, and the phase
(x_k - x_j - u_k eps)^2 = (y_k - x_j)^2 makes the sum a chirp-z transform:
a column chirp, a convolution with the chirp of the index lag done by FFT,
and a row chirp (Rabiner, Schafer & Rader 1969; Bluestein 1970).  That is
O(n log n) time and O(n) memory per step.  complex_u's constant imaginary
drift enters as real row and column factors.  Sine, degree-2 and tabulated
drifts, x-dependent D and complex D apply the n x n kernel matrix, which is
also the reference the factored form is tested against; it is built only for
grid.n <= MAX_DENSE_MATRIX_N, as is the density step's real matrix.

The quadrature can only resolve the kernel's quadratic phase when adjacent
grid samples advance it by at most pi: max |eta| * dx / (D eps) <= pi.
The dense step measures this number over the window the state actually
occupies and refuses to run when it fails; its ValidityError reports the
number and the smallest eps that window resolves.  Equivalently, the
sampled chirp's aliasing images (spaced 2 pi D eps / dx apart) must fall
outside the occupied window.  The chirp-z form computes the same sampled sum
as the matrix, so the floor holds for both: an unresolved chirp aliases
however the sum is evaluated.

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
and its operator: dense_stepper, spectral_stepper and density_stepper here,
cn_stepper and diffusion_stepper in reference.  One step is builder(...)(state);
march streams an evolution holding only the current state, and last(march(...))
is its final state.  finals marches independent runs side by side, one thread
per CPU: a step's FFTs and gttrs solve release the GIL.  side_by_side is that
thread pool, which the walk's particle chunks share.

The tridiagonal solves (the spectral Cayley drift here, the Crank-Nicolson
and drift-diffusion oracles in reference) call LAPACK gttrf/gttrs from
scipy.linalg._flapack, and the chirp-z and spectral steps' FFTs call
pocketfft from scipy.fft._pocketfft.pypocketfft, which keeps its plans
between calls.  Each compiled extension is loaded alone, on the first
operator that needs it, so no command imports the scipy.linalg or scipy.fft
package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .fields import (BOUNDARY_DECAY_RATIO, Grid, PropagatorSpec, RealState,
                     WaveState, check_boundary_decay, check_eps)
from .kernel import complex_kernel, real_kernel, source_factors


# the wave-stepping methods: the dense quadrature and the factorized kernel
METHODS = ("dense", "spectral")

# the largest grid.n an n x n kernel matrix is built for: 1 GiB of complex
# entries kept (about 3.5 GiB at the peak of its build), half that for real
MAX_DENSE_MATRIX_N = 2 ** 13


class ValidityError(RuntimeError):
    """The grid or moment nodes cannot resolve the kernel's phase, or a walk's growth overflows."""


@dataclass(frozen=True)
class ValidityReport:
    """Phase-resolution diagnostics for a dense quadrature step."""

    state_phase_step: float     # over the window the state occupies
    passes: bool
    recommended_min_eps: float  # smallest eps that window resolves

    def __str__(self):
        return (f"phase step {self.state_phase_step:.3f} rad vs pi "
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


def _phase_report(grid: Grid, eps: float, d: float, state: WaveState) -> ValidityReport:
    window = _support_half_width(state)
    governing = window * grid.dx / (d * eps)
    return ValidityReport(
        state_phase_step=governing,
        passes=bool(governing <= np.pi),
        recommended_min_eps=float(window * grid.dx / (np.pi * d)))


def _check_matrix_size(grid: Grid, entry_bytes: int, path: str) -> None:
    if grid.n > MAX_DENSE_MATRIX_N:
        raise ValueError(f"grid.n = {grid.n} needs a {grid.n} x {grid.n} kernel matrix "
                         f"({entry_bytes * grid.n ** 2 / 2 ** 30:.0f} GiB); the {path} "
                         f"allows grid.n <= {MAX_DENSE_MATRIX_N}")


def _dense_matrix(grid: Grid, eps: float, spec: PropagatorSpec) -> np.ndarray:
    x = grid.x
    eta = x[None, :] - x[:, None]
    return grid.dx * complex_kernel(eta, eps, x[None, :], spec)


def _chirp_z_step(grid: Grid, eps: float, spec: PropagatorSpec):
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
    norm_factor, t_factor = source_factors(eps, grid.x, spec)
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
    fft, ifft = _in_place_ffts()
    chirp_hat = fft(np.exp(1j * c * r * dx ** 2 * lag ** 2))
    work = np.empty(size, dtype=complex)  # col * psi zero-padded, then transformed

    def apply(psi: np.ndarray) -> np.ndarray:
        np.multiply(col, psi, out=work[:n])
        work[n:] = 0.0
        np.multiply(chirp_hat, fft(work), out=work)
        return row * ifft(work)[:n]

    return apply


def chirp_z_applies(spec: PropagatorSpec) -> bool:
    """Does the dense step take the chirp-z form (real constant D, u of degree <= 1)?"""
    return (spec.u.degree is not None and spec.u.degree <= 1
            and spec.variant not in ("complex_d", "x_dependent_d"))


def dense_operator(grid: Grid, eps: float, spec: PropagatorSpec):
    """The dense quadrature step on grid as a function psi -> psi(t + eps).

    Real constant D with u of degree <= 1 takes the chirp-z form in
    O(n log n); every other spec applies the n x n kernel matrix, for
    grid.n <= MAX_DENSE_MATRIX_N only.  The chirp-z form transforms in a
    buffer of its own, so one operator steps one state at a time.
    """
    if chirp_z_applies(spec):
        return _chirp_z_step(grid, eps, spec)
    _check_matrix_size(grid, 16, "dense path for this spec")
    mat = _dense_matrix(grid, eps, spec)
    return lambda psi: mat @ psi


def dense_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    """One complex-kernel step by direct quadrature over the whole grid."""
    # The spec's guards (eps, and D > 0 in the phase check's D scale) run
    # here, before any step.  The state's guards run on every state; the
    # operator is built once, on the first state that passes them, so a run
    # that must abort builds nothing.
    check_eps(eps)
    d = _d_scale(grid, spec)
    apply = None

    def step(state: WaveState) -> WaveState:
        nonlocal apply
        check_boundary_decay(state)
        report = _phase_report(grid, eps, d, state)
        if not report.passes:
            raise ValidityError(f"dense step cannot resolve the kernel phase: {report}")
        if apply is None:
            apply = dense_operator(grid, eps, spec)
        return state.replace_psi(apply(state.psi), time=state.time + eps)

    return step


_FLAPACK = "scipy.linalg._flapack"
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
_LOAD_LOCK = threading.Lock()  # runs marched side by side build at once


def _extension_dirs(name: str) -> list[str]:
    # find_spec of a top-level name locates the package without importing it
    top, *package = name.split(".")[:-1]
    spec = importlib.util.find_spec(top)
    roots = [] if spec is None else spec.submodule_search_locations or []
    return [os.path.join(root, *package) for root in roots]


def _extension(name: str):
    """scipy's compiled extension module `name`, loaded under its own name
    without running the __init__ of any package above it.  A package of
    scipy's imported before or after shares the one registered module."""
    with _LOAD_LOCK:  # one call per operator built, so the lock is never hot
        module = sys.modules.get(name)
        if module is not None:  # loaded by an earlier call or by scipy itself
            return module
        searched = [os.path.join(folder, name.rpartition(".")[2] + suffix)
                    for folder in _extension_dirs(name)
                    for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((p for p in searched if os.path.isfile(p)), None)
        if path is None:
            raise ImportError(f"scipy extension {name} not found (is scipy "
                              f"installed?); searched {searched}", name=name)
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader, origin=path))
        sys.modules[name] = module
        loader.exec_module(module)
        return module


def _in_place_ffts():
    """(fft, ifft) of a complex 1-d array, written over it and returned, bit
    for bit numpy.fft's: pocketfft's c2c, the C++ code numpy.fft vendors, from
    scipy's compiled extension, which keeps each length's plan between calls
    where numpy.fft sets one up on every call."""
    c2c = _extension(_POCKETFFT).c2c
    return (lambda a: c2c(a, None, True, 0, a, 1),   # unnormalized
            lambda a: c2c(a, None, False, 2, a, 1))  # times 1/n


def get_lapack_funcs(names, arrays):
    """The LAPACK routines `names`, complex (z) if any of `arrays` is, else
    double (d), as scipy.linalg.get_lapack_funcs picks them for these arrays.

    They are taken from the compiled extension scipy.linalg._flapack, loaded
    under its own name without running scipy.linalg's __init__: that package
    also imports scipy._lib, array_api_compat, numpy.testing and numpy.ma,
    about 25 MB and 0.2-0.3 s a process for two routines.  A scipy.linalg
    imported before or after shares the one registered module, so the
    routines are the very same objects."""
    module = _extension(_FLAPACK)
    prefix = "z" if any(np.iscomplexobj(a) for a in arrays) else "d"
    return [getattr(module, prefix + name) for name in names]


class Tridiagonal:
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


def spectral_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    """One step via the factorized kernel on the periodic grid.

    For an admissible spec only: the Cayley drift, the phase exp(-i eps b)
    and the free multiplier exp(-i D eps k^2/2), in that order.  The drift
    and b act in position space to O(eps); the free quadratic-phase
    convolution is exact.  Each factor is unitary, so the step conserves
    the norm to round-off.
    """
    # Fields are static, so every factor of the step is built once; only the
    # boundary-decay check runs on every state.
    check_eps(eps)
    if not spec.is_admissible():
        raise ValueError("the spectral path assumes an admissible parameter set; "
                         f"variant {spec.variant!r} must use the dense path")
    n, x = grid.n, grid.x
    if n & (n - 1):
        raise ValueError(f"spectral stepping needs a power-of-two grid, got n={n}")
    free = np.exp(-0.5j * spec.d * eps * grid.k ** 2)
    phase = np.exp(-1j * eps * spec.b(x))
    u = spec.u(x)
    drifts = bool(np.any(u != 0.0))
    # Cayley step of the antisymmetric drift u d/dx + (1/2) du/dx, written in
    # the symmetrized product form so only u samples enter; unconditionally
    # stable and exactly norm-preserving, unlike an explicit update, which
    # amplifies round-off near the edges once eps*|u|*k_max exceeds 1.
    half_face = 0.5 * eps * ((u[:-1] + u[1:]) / (4.0 * grid.dx)) + 0j  # psi is complex
    explicit = Tridiagonal(-half_face, np.ones(n), half_face)
    implicit = Tridiagonal(half_face, np.ones(n), -half_face)
    fft, ifft = _in_place_ffts()

    def step(state: WaveState) -> WaveState:
        check_boundary_decay(state)
        psi = state.psi
        if drifts:
            psi = implicit.solve(explicit.apply(psi))
        psi = phase * psi  # a fresh array, transformed in place
        np.multiply(free, fft(psi), out=psi)
        return state.replace_psi(ifft(psi), time=state.time + eps)

    return step


def density_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    """One real-kernel step (Chapman-Kolmogorov quadrature over sources)."""
    check_eps(eps)
    if not spec.is_admissible():
        raise ValueError("the real kernel is defined for the admissible variant only")
    width = np.sqrt(spec.d * eps)
    if width < 2.0 * grid.dx:
        raise ValidityError(
            f"real kernel width {width:.3g} under-resolved by dx={grid.dx:.3g} "
            "(need sqrt(D eps) >= 2 dx)")
    _check_matrix_size(grid, 8, "density step")
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


def wave_stepper(grid: Grid, eps: float, spec: PropagatorSpec, method: str):
    """The dense or the spectral step, as method names it."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return (dense_stepper if method == "dense" else spectral_stepper)(grid, eps, spec)


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


def last(states):
    """The final state of a stream, holding one state at a time."""
    for state in states:
        pass
    return state


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else os.cpu_count()."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def side_by_side(tasks, threads: int, start=None) -> list:
    """[task() for task in tasks], bit for bit, on `threads` threads (the
    caller's included) that take the tasks in the index order `start` (default:
    input order).  Results come in input order.  A failure raises the serial
    loop's: the first in input order, and no task after it in input order
    starts.  An interrupt of the caller starts no further task and joins the
    workers."""
    if threads <= 1:
        return [task() for task in tasks]
    out, failed, lock = [None] * len(tasks), {}, threading.Lock()
    todo = list(range(len(tasks)) if start is None else start)

    def work():
        while True:
            with lock:
                todo[:] = [i for i in todo if i < min(failed, default=len(tasks))]
                if not todo:
                    return
                i = todo.pop(0)
            try:
                out[i] = tasks[i]()
            except Exception as exc:
                with lock:
                    failed[i] = exc

    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:  # an interrupt of the caller starts no further task
        with lock:
            todo.clear()
        for worker in workers:
            worker.join()
    if failed:
        raise failed[min(failed)]
    return out


def finals(runs, serial: bool = False) -> list:
    """[last(march(state, n_steps, build())) for state, n_steps, build in runs]
    for a list runs, side by side on one thread per CPU and run, longest
    first, or in order on the caller's thread if serial.  Each build() runs
    on its run's thread, so only runs in flight hold an operator.  A failure
    raises as side_by_side says."""
    tasks = [lambda state=state, n_steps=n_steps, build=build:
             last(march(state, n_steps, build())) for state, n_steps, build in runs]
    threads = 1 if serial else min(usable_cpus(), len(runs))
    return side_by_side(tasks, threads,
                        sorted(range(len(runs)), key=lambda i: -runs[i][1]))  # ties in input order
