"""Single-step propagation of wave and density states.

The dense path applies the complex kernel as written: one step of duration
eps maps

    psi(x_j, t+eps) = sum_k dx * Pi(x_k - x_j, eps; x_k) * psi(x_k, t),

with the kernel, its drift, and the first-order T factors all evaluated at
the displaced point x_k = x_j + eta.  The eta integral is truncated at the
grid extent: the kernel itself never decays, the integrand does because psi
does, which is why every state fed to a step must satisfy the boundary-decay
invariant.

dense_stepper builds this step once per (grid, eps, spec).  For real
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

The spectral path uses the kernel's factorized form on a periodic grid of
any length, in the gauge frame: in 1D the drift's vector potential u/D is
the gradient of Lambda = (the integral of u)/D, so psi = exp(i Lambda) chi,
and chi evolves under the free part and phi = b - u^2/(2D) alone (Feit,
Fleck & Steiger 1982).  Each step is one position phase exp(-i (eps phi +
Lambda)), the free quadratic-phase convolution applied exactly as the
Fourier multiplier exp(-i D eps k^2 / 2), and the position phase
exp(i Lambda).  It exists for admissible parameter sets only; the
falsification variants must go through the dense quadrature.

The real kernel composes as a Chapman-Kolmogorov step: a particle at the
source y moves by eta drawn from Normal(u(y) eps, D eps), so

    P(x_j, t+eps) = sum_k dx * Pi_real(x_j - x_k, eps; x_k) * P(x_k, t),

which keeps mass exact to quadrature precision and drifts forward (mean u t).

Each method has one builder, (grid, eps, spec) -> step, holding its guards and
its operator: dense_stepper, spectral_stepper (STEPPERS, by name), split_stepper and
density_stepper here, diffusion_stepper in reference.  One step is builder(...)(state);
march streams an evolution holding only the current state, and last(march(...))
is its final state.  A wave step's Step alone builds its operator: build() returns its
factor arrays, apply(*factors, psi, out=None) steps one state, and Step.advance guards,
builds and applies for step(state) and finals alike.  finals marches runs in groups, one
on the caller's thread, the rest on side_by_side's pool (the walk's too), each run
stepping its own copy of its state in place: compare gains from those in-place steps and
from the caller's thread taking the longest run, not from batching runs into one block.
one_behind works on each item of a stream on a one-thread pool while the caller takes
the next (evolve's rows), at every CPU count.

The drift-diffusion oracle in reference factors and solves its tridiagonal
operator with LAPACK dgttrf/dgttrs, which lapack takes from
scipy.linalg._flapack, and the chirp-z, spectral and split steps' FFTs call
pocketfft from scipy.fft._pocketfft.pypocketfft, which keeps its plans between
calls.  Each compiled extension is loaded alone, on the first operator that
needs it, so no command imports the scipy.linalg or scipy.fft package.
"""

from __future__ import annotations

import contextvars
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import (BOUNDARY_DECAY_RATIO, Grid, PropagatorSpec, RealState,
                     WaveState, check_amplitude_decay, check_boundary_decay, check_eps)
from .kernel import complex_kernel, source_factors


# the largest grid.n an n x n kernel matrix is built for: 1 GiB of complex
# entries kept (about 3.5 GiB at the peak of its build), half that for real
MAX_DENSE_MATRIX_N = 2 ** 13


class ValidityError(RuntimeError):
    """The grid or moment nodes cannot resolve the kernel's phase, a walk, a moment or an
    oracle's face weight leaves float64, or a walk's spread cannot be binned."""


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


class Step:
    """step(state) is the state at time + eps.  guard(amp, peak) raises what it raises on
    a state of |psi| amp, of max peak; build() returns the factor arrays, kept in factors
    from the first state that passes; apply(*factors, psi, out=None) steps one state."""

    def __init__(self, eps: float, guard, apply, build):
        self.eps, self.guard, self.apply, self.build = eps, guard, apply, build
        self.factors = None

    def advance(self, psi: np.ndarray, out=None):
        """psi stepped once guard has passed it; None, psi untouched, if psi is not finite,
        as only a state stepped in place can be."""
        amp = np.abs(psi)
        peak = amp.max()
        if not math.isfinite(peak):
            return None
        self.guard(amp, peak)
        factors = self.factors = self.factors or self.build()
        return self.apply(*factors, psi, out=out)

    def __call__(self, state: WaveState) -> WaveState:
        return state.replace_psi(self.advance(state.psi), time=state.time + self.eps)


def _d_scale(grid: Grid, spec: PropagatorSpec) -> float:
    """Conservative diffusivity magnitude for phase-resolution estimates."""
    if spec.variant == "x_dependent_d":
        d_min = float(np.min(spec.d_field(grid.x)))
        if not d_min > 0.0:
            raise ValueError(f"spec.d_field must be > 0 on the grid, but its "
                             f"minimum there is D = {d_min:g}")
    return float(np.min(np.abs(spec.d_value(grid.x))))


def _support_half_width(grid: Grid, amp: np.ndarray, peak: float) -> float:
    idx = np.nonzero(amp >= BOUNDARY_DECAY_RATIO * peak)[0]
    return 0.5 * (grid.x[idx[-1]] - grid.x[idx[0]])


def _phase_report(grid: Grid, eps: float, d: float, amp: np.ndarray,
                  peak: float) -> ValidityReport:
    """amp is the state's |psi| and peak its max."""
    window = _support_half_width(grid, amp, peak)
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
    _check_matrix_size(grid, 16, "dense path for this spec")
    x = grid.x
    eta = x[None, :] - x[:, None]
    return grid.dx * complex_kernel(eta, eps, x[None, :], spec)


def _chirp_z_factors(grid: Grid, eps: float, spec: PropagatorSpec) -> tuple:
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
    return col, _c2c(np.exp(1j * c * r * dx ** 2 * lag ** 2), True), row


def _chirp_z_apply(col, chirp_hat, row, psi, *, out=None):
    n = psi.size
    out = np.empty(n, complex) if out is None else out  # before the scratch: no heap gap
    work = np.empty(chirp_hat.size, complex)  # col psi, 0-padded
    np.multiply(col, psi, out=work[:n])
    work[n:] = 0.0
    np.multiply(chirp_hat, _c2c(work, True), out=work)
    return np.multiply(row, _c2c(work, False)[:n], out=out)


def dense_stepper(grid: Grid, eps: float, spec: PropagatorSpec) -> Step:
    """One complex-kernel step by direct quadrature over the whole grid: the chirp-z form
    in O(n log n) for real constant D and u of degree <= 1, else the n x n kernel matrix,
    for grid.n <= MAX_DENSE_MATRIX_N only."""
    check_eps(eps)  # the spec's guards (eps, and D > 0 in the D scale) run before any step
    d = _d_scale(grid, spec)

    def guard(amp, peak):
        report = _phase_report(grid, eps, d, amp, check_amplitude_decay(amp, peak))
        if not report.passes:
            raise ValidityError(f"dense step cannot resolve the kernel phase: {report}")

    if spec.u.is_affine() and spec.variant not in ("complex_d", "x_dependent_d"):
        return Step(eps, guard, _chirp_z_apply, partial(_chirp_z_factors, grid, eps, spec))
    return Step(eps, guard, np.matmul, lambda: (_dense_matrix(grid, eps, spec),))


_FLAPACK = "scipy.linalg._flapack"
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"
_LOAD_LOCK = threading.Lock()  # finals' groups make their first transforms on several threads


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
    module = sys.modules.get(name)  # looked up on every transform: no lock once loaded
    if module is not None:  # loaded by an earlier call or by scipy itself
        return module
    with _LOAD_LOCK:
        module = sys.modules.get(name)
        if module is not None:  # loaded by another thread while this one waited
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
        loader.exec_module(module)
        sys.modules[name] = module  # once executed: the unlocked lookup never sees it half made
        return module


def _c2c(a: np.ndarray, forward: bool) -> np.ndarray:
    """a's FFT over its last axis, unnormalized forward and times 1/n backward, written
    over a complex a and returned, bit for bit numpy.fft's: pocketfft's c2c, the C++
    code numpy.fft vendors, from scipy's compiled extension, which keeps each length's
    plan between calls where numpy.fft sets one up on every call."""
    return _extension(_POCKETFFT).c2c(a, (-1,), forward, 0 if forward else 2, a, 1)


def lapack(name: str):
    """The LAPACK routine `name` (such as "dgttrf") of scipy's compiled extension
    scipy.linalg._flapack, loaded under its own name without running
    scipy.linalg's __init__: that package also imports scipy._lib,
    array_api_compat, numpy.testing and numpy.ma, about 25 MB and 0.2-0.3 s a
    process for two routines.  A scipy.linalg imported before or after shares
    the one registered module, so the routine is the very same object."""
    return getattr(_extension(_FLAPACK), name)


def _gauge_stepper(grid: Grid, eps: float, spec: PropagatorSpec, after: float):
    # Fields are static, so every factor of the step is built once; only the
    # boundary-decay check runs on every state.  The share `after` of the
    # potential phase eps phi acts after the free multiplier, the rest before.
    check_eps(eps)
    if not spec.is_admissible():
        raise ValueError("scenario.spec.variant: the spectral path assumes an admissible "
                         f"parameter set, got {spec.variant!r}, which must use the dense path")
    _extension(_POCKETFFT)  # a missing extension fails here, before any step

    def factors():
        x = grid.x
        gauge = spec.u.antiderivative(x) / spec.d
        kick = eps * (spec.b(x) - spec.u(x) ** 2 / (2.0 * spec.d))
        pre = np.exp(-1j * ((1.0 - after) * kick + gauge))
        post = np.exp(1j * (gauge - after * kick))
        free = np.exp(-0.5j * spec.d * eps * grid.k ** 2)
        return pre, free, post

    return Step(eps, check_amplitude_decay, _gauge_apply, factors)


def _gauge_apply(pre, free, post, psi, *, out=None):
    psi = np.multiply(pre, psi, out=out)  # transformed in place
    np.multiply(free, _c2c(psi, True), out=psi)
    return np.multiply(post, _c2c(psi, False), out=psi)


def spectral_stepper(grid: Grid, eps: float, spec: PropagatorSpec) -> Step:
    """One step via the factorized kernel on the periodic grid, in the gauge frame.

    For an admissible spec only: exp(-i (eps phi + Lambda)), the free
    multiplier exp(-i D eps k^2/2) between the FFT pair, and exp(i Lambda),
    with Lambda the integral of u/D and phi = b - u^2/(2D).  phi acts to
    O(eps), the drift and the free quadratic-phase convolution exactly.
    Each factor is unitary, so the step conserves the norm to round-off.
    """
    return _gauge_stepper(grid, eps, spec, 0.0)


def split_stepper(grid: Grid, eps: float, spec: PropagatorSpec) -> Step:
    """The spectral step with eps phi halved on either side of the free
    multiplier: a Strang split step of the Schrodinger equation in the gauge
    frame (Feit, Fleck & Steiger 1982), second order in eps, spectral in x."""
    return _gauge_stepper(grid, eps, spec, 0.5)


# a wave-stepping method's name -> its builder: the dense quadrature or the factorized kernel
STEPPERS = {"dense": dense_stepper, "spectral": spectral_stepper}


def density_stepper(grid: Grid, eps: float, spec: PropagatorSpec):
    """One real-kernel step (Chapman-Kolmogorov quadrature over sources)."""
    check_eps(eps)
    if not spec.is_admissible():
        raise ValueError("the real kernel is defined for the admissible variant only")
    var = spec.d * eps
    width = np.sqrt(var)
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
            mat = grid.dx * (np.exp(-((eta - spec.u(x[None, :]) * eps) ** 2) / (2.0 * var))
                             / np.sqrt(2.0 * np.pi * var))
        return state.replace_density(mat @ state.density, time=state.time + eps)

    return step


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


def side_by_side(tasks) -> list:
    """[task() for task in tasks], bit for bit, all at once: the first on the caller's
    thread, each other on a pool thread of its own, in a copy of the caller's context
    (numpy's errstate is a context variable).  A failure, or an interrupt of the
    caller, raises the serial loop's once every task has ended and the pool is joined."""
    with ThreadPoolExecutor(max(1, len(tasks) - 1)) as pool:  # a thread a submit, joined
        futures = [pool.submit(contextvars.copy_context().run, task) for task in tasks[1:]]
        return [task() for task in tasks[:1]] + [future.result() for future in futures]


def one_behind(items, work) -> list:
    """[work(item) for item in items], bit for bit, with each work(item) done on one
    worker thread, in a copy of the caller's context, while the caller takes the next
    item, at any CPU count.  The caller takes item i + 2 only once work(item i) has
    ended: at most two items are sent and not done.  A failure of work raises the
    serial loop's, the first in item order, though the work on the next item may have
    run.  The worker is joined on every exit."""
    out, sent, pool = [], deque(), ThreadPoolExecutor(1)
    try:
        for item in items:
            sent.append(pool.submit(contextvars.copy_context().run, work, item))
            if len(sent) == 2:
                out.append(sent.popleft().result())
        out.extend(future.result() for future in sent)
    finally:
        pool.shutdown(cancel_futures=True)
    return out


def finals(runs) -> list:
    """[last(march(state, n_steps, step)) for state, n_steps, step in runs], bit for bit.
    The runs, longest first, go to min(CPUs, runs) groups, each to the one of fewest steps
    so far (a kernel matrix's to the first: no two n x n matrices are held); the caller
    marches the first group and side_by_side's pool the rest, each its runs one by one.  A
    failure raises the serial loop's, the first in input order; no later run steps on."""
    groups = [[] for _ in range(min(usable_cpus(), len(runs)))]
    steps = [0] * len(groups)
    for i in sorted(range(len(runs)), key=lambda i: -runs[i][1]):  # ties in input order
        g = 0 if runs[i][2].apply is np.matmul else steps.index(min(steps))
        groups[g].append(i)
        steps[g] += runs[i][1]
    ends, failed = [None] * len(runs), []  # failed: (input index, error) of each failed run

    def march_group(group):
        for i in group:
            try:
                ends[i] = _final(*runs[i], lambda: any(f < i for f, _ in failed))
            except (ValueError, ValidityError) as exc:
                failed.append((i, exc))

    side_by_side([partial(march_group, group) for group in groups if group])
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return ends


def _final(state: WaveState, n_steps: int, step: Step, stop):
    """last(march(state, n_steps, step)), its own copy of state.psi stepped in place, or None
    once stop() is true.  Its step.factors is dropped at its end: no matrix outlives its run."""
    psi, time, at = state.psi.copy(), state.time, 0
    try:
        while at < n_steps:
            if stop():
                return None
            if step.advance(psi, out=psi) is None:  # not finite: step at - 1 made it so
                break
            time, at = time + step.eps, at + 1
        at -= 1  # WaveState checks the state step at - 1 made, as march does
        return WaveState(state.grid, psi, time)
    except (ValueError, ValidityError) as exc:
        raise type(exc)(f"aborted at step {at}: {exc}") from None
    finally:
        step.factors = None
