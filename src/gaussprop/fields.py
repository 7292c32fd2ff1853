"""Grids, states and field presets for the single-step propagator laboratory.

Everything downstream works on a uniform periodic-convention grid

    x_j = x_min + j*dx,   dx = (x_max - x_min)/n,   j = 0..n-1,

with wavefunctions psi(x_j) treated as samples of a square-integrable state
whose tails have decayed below 1e-6 of the peak at both grid edges.  The
propagator parameter set bundles the diffusivity D, the drift field u(x),
the free phase field b(x), the kernel order (bare zero-order kernel vs the
first-order normalized kernel carrying the T = u'/2 + i b correction), and a
falsification variant used by the audit module to break norm conservation on
purpose (complex D, complex u, x-dependent D, endpoint or missing T factor).

Field presets (constant, linear, sine, tabulated) are closed under d/dx, so
the correction field a(x) = u'(x)/2 of any preset drift is again a preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# States fed to a propagation step must satisfy |psi(edge)| < RATIO * max|psi|.
BOUNDARY_DECAY_RATIO = 1e-6

FIELD_KINDS = ("constant", "linear", "quadratic", "sine", "tabulated")
# a tabulated field's derivative uses second-order stencils on three samples
MIN_TABLE_SAMPLES = 3
ORDERS = ("zero", "first")
VARIANTS = ("admissible", "complex_d", "complex_u", "x_dependent_d",
            "endpoint_t", "no_t")


class BoundaryDecayError(ValueError):
    """State amplitude has not decayed at the grid edges."""


@dataclass(frozen=True)
class Grid:
    """Uniform 1D grid, periodic convention (x_max is the wrapped image of x_min)."""

    x_min: float
    x_max: float
    n: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @cached_property
    def x(self) -> np.ndarray:
        x = self.x_min + self.dx * np.arange(self.n)
        x.flags.writeable = False
        return x

    @cached_property
    def k(self) -> np.ndarray:
        """Angular wavenumbers matching numpy's FFT ordering."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k.flags.writeable = False
        return k

    @property
    def half_width(self) -> float:
        return 0.5 * (self.x_max - self.x_min)


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Build a grid, rejecting degenerate bounds and tiny sample counts."""
    if not (np.isfinite(x_min) and np.isfinite(x_max)):
        raise ValueError("grid bounds must be finite")
    if not x_max > x_min:
        raise ValueError(f"grid needs x_max > x_min, got [{x_min}, {x_max}]")
    if int(n) != n or n < 8:
        raise ValueError(f"grid needs an integer n >= 8, got {n}")
    return Grid(float(x_min), float(x_max), int(n))


@dataclass(frozen=True)
class FieldSpec:
    """Static scalar field of x: a named analytic preset or tabulated samples.

    Evaluation is total on the grid interval and vectorized over x.
    """

    kind: str
    c: float = 0.0                    # constant value; quadratic: c * x^2
    slope: float = 0.0                # linear:  slope * x
    amplitude: float = 0.0            # sine:    amplitude * sin(wavenumber*x + phase)
    wavenumber: float = 0.0
    phase: float = 0.0
    xs: np.ndarray | None = None      # tabulated sample locations
    values: np.ndarray | None = None  # tabulated sample values

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "tabulated":
            if self.xs is None or self.values is None:
                raise ValueError("tabulated field needs xs and values")
            xs = np.asarray(self.xs, dtype=float)
            values = np.asarray(self.values, dtype=float)
            if xs.ndim != 1 or xs.shape != values.shape or xs.size < MIN_TABLE_SAMPLES:
                raise ValueError("tabulated field needs matching 1D xs/values of at "
                                 f"least {MIN_TABLE_SAMPLES} samples")
            if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
                raise ValueError("tabulated field samples must be finite")
            if np.any(np.diff(xs) <= 0):
                raise ValueError("tabulated xs must be strictly increasing")
            xs.flags.writeable = False
            values.flags.writeable = False
            object.__setattr__(self, "xs", xs)
            object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, c: float) -> "FieldSpec":
        return cls("constant", c=float(c))

    @classmethod
    def linear(cls, slope: float) -> "FieldSpec":
        return cls("linear", slope=float(slope))

    @classmethod
    def quadratic(cls, c: float) -> "FieldSpec":
        return cls("quadratic", c=float(c))

    @classmethod
    def sine(cls, amplitude: float, wavenumber: float, phase: float = 0.0) -> "FieldSpec":
        return cls("sine", amplitude=float(amplitude), wavenumber=float(wavenumber),
                   phase=float(phase))

    @classmethod
    def tabulated(cls, xs, values) -> "FieldSpec":
        return cls("tabulated", xs=np.asarray(xs, dtype=float),
                   values=np.asarray(values, dtype=float))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full_like(x, self.c)
        if self.kind == "linear":
            return self.slope * x
        if self.kind == "quadratic":
            return self.c * x ** 2
        if self.kind == "sine":
            return self.amplitude * np.sin(self.wavenumber * x + self.phase)
        # tabulated: clamp to edge values outside the sample range
        return np.interp(x, self.xs, self.values)

    def derivative(self, x):
        """d(field)/dx at x; analytic for presets, central differences for tables."""
        return self.derivative_field()(x)

    def derivative_field(self) -> "FieldSpec":
        """The derivative as another FieldSpec (the preset family is closed)."""
        if self.kind == "constant":
            return FieldSpec.constant(0.0)
        if self.kind == "linear":
            return FieldSpec.constant(self.slope)
        if self.kind == "quadratic":
            return FieldSpec.linear(2.0 * self.c)
        if self.kind == "sine":
            return FieldSpec.sine(self.amplitude * self.wavenumber, self.wavenumber,
                                  self.phase + 0.5 * np.pi)
        # second-order stencils on the possibly non-uniform samples
        return FieldSpec.tabulated(self.xs, np.gradient(self.values, self.xs, edge_order=2))

    def scaled(self, factor: float) -> "FieldSpec":
        if self.kind == "constant":
            return FieldSpec.constant(factor * self.c)
        if self.kind == "linear":
            return FieldSpec.linear(factor * self.slope)
        if self.kind == "quadratic":
            return FieldSpec.quadratic(factor * self.c)
        if self.kind == "sine":
            return FieldSpec.sine(factor * self.amplitude, self.wavenumber, self.phase)
        return FieldSpec.tabulated(self.xs, factor * self.values)

    def is_constant(self) -> bool:
        if self.kind == "constant":
            return True
        if self.kind == "linear":
            return self.slope == 0.0
        if self.kind == "quadratic":
            return self.c == 0.0
        if self.kind == "sine":
            return self.amplitude == 0.0
        return bool(np.all(self.values == self.values[0]))


@dataclass(frozen=True)
class PropagatorSpec:
    """Parameter set of the single-step propagator.

    d is the (real, positive) diffusivity scale; the falsification variants
    perturb it: complex_d adds i*im_d, x_dependent_d replaces it by the field
    d_field(x).  complex_u adds i*im_u to the drift.  endpoint_t and no_t keep
    the fields admissible but spoil the first-order correction exponent
    (a = u' instead of u'/2, and a = 0).
    """

    d: float
    u: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))
    b: FieldSpec = field(default_factory=lambda: FieldSpec.constant(0.0))
    order: str = "first"
    variant: str = "admissible"
    im_d: float = 0.0
    im_u: float = 0.0
    d_field: FieldSpec | None = None

    def __post_init__(self):
        if not (np.isfinite(self.d) and self.d > 0.0):
            raise ValueError(f"diffusivity scale must be finite and > 0, got {self.d}")
        if self.order not in ORDERS:
            raise ValueError(f"unknown order {self.order!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "complex_d" and self.im_d == 0.0:
            raise ValueError("complex_d variant needs a nonzero im_d")
        if self.variant == "complex_u" and self.im_u == 0.0:
            raise ValueError("complex_u variant needs a nonzero im_u")
        if self.variant == "x_dependent_d" and self.d_field is None:
            raise ValueError("x_dependent_d variant needs d_field")
        if self.variant != "complex_d" and self.im_d != 0.0:
            raise ValueError("im_d is only meaningful for the complex_d variant")
        if self.variant != "complex_u" and self.im_u != 0.0:
            raise ValueError("im_u is only meaningful for the complex_u variant")
        if self.variant != "x_dependent_d" and self.d_field is not None:
            raise ValueError("d_field is only meaningful for the x_dependent_d variant")
        if self.variant in ("endpoint_t", "no_t") and self.order == "zero":
            raise ValueError(f"{self.variant} is a first-order variant; "
                             "the zero-order kernel has no T factor to spoil")

    def d_value(self, x):
        """Effective diffusivity at x (complex for complex_d, a field for x_dependent_d)."""
        x = np.asarray(x, dtype=float)
        if self.variant == "complex_d":
            return np.full_like(x, self.d + 1j * self.im_d, dtype=complex)
        if self.variant == "x_dependent_d":
            return self.d_field(x).astype(complex)
        return np.full_like(x, self.d, dtype=complex)

    def u_value(self, x):
        """Effective drift at x (complex for complex_u)."""
        base = self.u(np.asarray(x, dtype=float)).astype(complex)
        if self.variant == "complex_u":
            return base + 1j * self.im_u
        return base

    def du_dx(self, x):
        # im_u is a constant offset, so the derivative is the real drift's
        return self.u.derivative(np.asarray(x, dtype=float)).astype(complex)

    def is_admissible(self) -> bool:
        return self.variant == "admissible"


@dataclass(frozen=True)
class WaveState:
    """Complex amplitudes on a grid at one instant."""

    grid: Grid
    psi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        psi = np.ascontiguousarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.n,):
            raise ValueError(f"psi must have shape ({self.grid.n},), got {psi.shape}")
        if not np.all(np.isfinite(psi.real)) or not np.all(np.isfinite(psi.imag)):
            raise ValueError("psi must be finite")
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)

    def replace_psi(self, psi, time: float | None = None) -> "WaveState":
        return WaveState(self.grid, psi, self.time if time is None else time)


@dataclass(frozen=True)
class RealState:
    """Nonnegative density samples on a grid at one instant."""

    grid: Grid
    density: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        dens = np.ascontiguousarray(self.density, dtype=float)
        if dens.shape != (self.grid.n,):
            raise ValueError(f"density must have shape ({self.grid.n},), got {dens.shape}")
        if not np.all(np.isfinite(dens)):
            raise ValueError("density must be finite")
        # tolerate solver-level undershoot only
        if np.any(dens < -1e-12):
            raise ValueError(f"density must be nonnegative, min {dens.min():.3e}")
        dens.flags.writeable = False
        object.__setattr__(self, "density", dens)

    def replace_density(self, density, time: float | None = None) -> "RealState":
        return RealState(self.grid, density, self.time if time is None else time)


def gaussian_packet(grid: Grid, x0: float, sigma0: float, k0: float = 0.0) -> WaveState:
    """Normalized Gaussian packet exp(-(x-x0)^2/(4 sigma0^2)) * exp(i k0 x).

    The density |psi|^2 then has mean x0 and variance sigma0^2, and the mean
    momentum observable is k0.  Raises BoundaryDecayError if the tails have
    not decayed at the grid edges (widen the grid or narrow the packet).
    """
    if not sigma0 > 0.0:
        raise ValueError(f"sigma0 must be > 0, got {sigma0}")
    x = grid.x
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma0 ** 2) + 1j * k0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * grid.dx)
    state = WaveState(grid, psi)
    check_boundary_decay(state)
    return state


def check_boundary_decay(state) -> None:
    """Require the amplitude at both grid edges below BOUNDARY_DECAY_RATIO * peak."""
    amp = np.abs(state.psi) if isinstance(state, WaveState) else np.abs(state.density)
    peak = amp.max()
    if peak == 0.0:
        raise ValueError("state is identically zero")
    edge = max(amp[0], amp[-1])
    if edge >= BOUNDARY_DECAY_RATIO * peak:
        raise BoundaryDecayError(
            f"state has not decayed at the grid edges: edge/peak = {edge / peak:.3e} "
            f"(need < {BOUNDARY_DECAY_RATIO:.1e})")


def norm(state: WaveState) -> float:
    """Discrete L2 mass sum(|psi_j|^2) * dx."""
    return float(np.sum(np.abs(state.psi) ** 2) * state.grid.dx)


def total_mass(state: RealState) -> float:
    """Discrete mass sum(P_j) * dx."""
    return float(np.sum(state.density) * state.grid.dx)


def _density_weight(state) -> np.ndarray:
    if isinstance(state, WaveState):
        return np.abs(state.psi) ** 2
    return state.density


def moments(state) -> tuple[float, float]:
    """Mean and variance of the state's density on the grid."""
    w = _density_weight(state)
    total = np.sum(w) * state.grid.dx
    if total <= 0.0:
        raise ValueError("state carries no mass; moments are undefined")
    x = state.grid.x
    mean = float(np.sum(x * w) * state.grid.dx / total)
    var = float(np.sum((x - mean) ** 2 * w) * state.grid.dx / total)
    return mean, var


def mean_momentum(state: WaveState) -> float:
    """Mean momentum observable <psi| -i d/dx |psi> / <psi|psi> via the FFT."""
    psi_hat = np.fft.fft(state.psi)
    w = np.abs(psi_hat) ** 2
    total = np.sum(w)
    if total <= 0.0:
        raise ValueError("state carries no mass; momentum is undefined")
    return float(np.sum(state.grid.k * w) / total)
