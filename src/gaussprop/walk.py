"""Monte-Carlo sampler for the real Gaussian random walk.

Particle pid draws its steps, in order, from numpy's counter-based Philox
stream keyed (master seed, pid), as in Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3" (SC'11).  Draws are therefore bit-reproducible
for a given (seed, parameters) pair no matter how particles are batched, and
a smaller ensemble is a prefix of a larger one.  Normal variates come from
numpy's ziggurat sampler on that fixed bit stream.  One generator is re-keyed
for each particle, and particles advance in blocks of _BLOCK that draw all
their steps at once, so memory is O(_BLOCK x n_steps + n_particles) rather
than O(n_particles x n_steps).

A step advances x by eta ~ Normal(u(x) eps, D eps), the drift evaluated
at the particle's current position.  The optional centered-exponential step
law keeps the same mean and variance with a skewed distribution; many such
steps still approach the Gaussian, which is the central-limit demonstration.

histogram_compare measures the L1 distance between the ensemble's binned
density and its analytic law: the closed-form Gaussian (mean x0 + u t,
variance D t) when u is constant, or a drift-diffusion solve when u varies.
Reference bin masses are integrated exactly (CDF differences), not sampled
at bin centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import PropagatorSpec, RealState, make_grid
from .reference import evolve_diffusion

STEP_LAWS = ("gauss", "exp_centered")
MAX_SEED = 2 ** 64 - 1     # the seed is one 64-bit word of the Philox key
_BLOCK = 4096              # particles advanced together
_MIN_HISTOGRAM_PARTICLES = 10_000


@dataclass(frozen=True)
class WalkEnsemble:
    positions: np.ndarray     # indexed by particle id
    time: float
    x0: float

    @property
    def n_particles(self) -> int:
        return len(self.positions)

    def sample_mean(self) -> float:
        return float(np.mean(self.positions))

    def sample_variance(self) -> float:
        return float(np.var(self.positions, ddof=1))


def _keyed(seed: int, pid: int) -> dict:
    """The state of np.random.Philox(key=[seed, pid]) before its first draw."""
    return {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (seed, pid)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def sample_paths(n_particles: int, n_steps: int, eps: float,
                 spec: PropagatorSpec, seed: int, x0: float = 0.0,
                 step_law: str = "gauss") -> WalkEnsemble:
    """Evolve n_particles from x0 for n_steps; deterministic per seed."""
    if spec.variant != "admissible":
        raise ValueError("sampling is defined for the admissible variant only")
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if n_steps > 0 and not eps > 0.0:
        raise ValueError(f"eps must be > 0, got {eps}")
    if step_law not in STEP_LAWS:
        raise ValueError(f"step_law must be one of {STEP_LAWS}, got {step_law!r}")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    x = np.full(n_particles, float(x0))
    if n_steps > 0:
        gen = np.random.Generator(np.random.Philox(0))  # re-keyed for each particle
        draw = gen.standard_normal if step_law == "gauss" else gen.standard_exponential
        width = np.sqrt(spec.d * eps)
        z = np.empty((min(_BLOCK, n_particles), n_steps))
        for start in range(0, n_particles, _BLOCK):
            xb = x[start:start + _BLOCK]
            zb = z[:len(xb)]
            for i, row in enumerate(zb):
                gen.bit_generator.state = _keyed(seed, start + i)
                draw(out=row)
            if step_law == "exp_centered":
                zb -= 1.0
            for s in range(n_steps):
                xb += spec.u(xb) * eps + width * zb[:, s]
    x.flags.writeable = False
    return WalkEnsemble(positions=x, time=n_steps * eps, x0=float(x0))


@dataclass(frozen=True)
class HistogramComparison:
    l1: float
    edges: np.ndarray
    density: np.ndarray            # normalized histogram, per bin
    reference_density: np.ndarray  # analytic law integrated over each bin
    reference: str


def _gaussian_bin_density(edges: np.ndarray, mean: float,
                          var: float) -> np.ndarray:
    from scipy.special import ndtr  # on first use, so that moments and audit never load scipy

    sd = np.sqrt(var)
    cdf = ndtr((edges - mean) / sd)
    return np.diff(cdf) / np.diff(edges)


def _oracle_bin_density(edges: np.ndarray, ensemble: WalkEnsemble,
                        spec: PropagatorSpec) -> np.ndarray:
    # start the solve from the short-time Gaussian, then integrate the PDE
    t = ensemble.time
    t0 = min(0.05, 0.1 * t)
    mean0 = ensemble.x0 + spec.u(np.array([ensemble.x0]))[0] * t0
    span = max(abs(edges[0]), abs(edges[-1])) + 6.0 * np.sqrt(spec.d * t)
    grid = make_grid(-span, span, 2048)
    p0 = np.exp(-(grid.x - mean0) ** 2 / (2.0 * spec.d * t0))
    p0 /= np.sum(p0) * grid.dx
    state = RealState(grid=grid, density=p0, time=t0)
    n_steps = 400
    final = evolve_diffusion(state, (t - t0) / n_steps, n_steps, spec).final
    cdf = np.concatenate([[0.0], np.cumsum(final.density) * grid.dx])
    cdf_at = np.interp(edges, np.concatenate([[grid.x[0] - grid.dx], grid.x]),
                       cdf)
    return np.diff(cdf_at) / np.diff(edges)


def histogram_compare(ensemble: WalkEnsemble, spec: PropagatorSpec,
                      bins: int = 50,
                      reference: str = "model") -> HistogramComparison:
    """L1 distance between the binned ensemble and its analytic density.

    reference "model" uses the closed-form Gaussian for constant u and the
    drift-diffusion oracle otherwise; "fitted" uses a Gaussian with the
    sample's own mean and variance (the central-limit comparison).
    """
    if ensemble.n_particles < _MIN_HISTOGRAM_PARTICLES:
        raise ValueError(f"need >= {_MIN_HISTOGRAM_PARTICLES} particles for a "
                         f"stable histogram, got {ensemble.n_particles}")
    if reference not in ("model", "fitted"):
        raise ValueError(f"reference must be 'model' or 'fitted', got "
                         f"{reference!r}")
    mean = ensemble.sample_mean()
    sd = np.sqrt(ensemble.sample_variance())
    edges = np.linspace(mean - 5.0 * sd, mean + 5.0 * sd, bins + 1)
    counts, _ = np.histogram(ensemble.positions, bins=edges)
    covered = counts.sum()
    density = counts / (covered * np.diff(edges))
    if reference == "fitted":
        ref = _gaussian_bin_density(edges, mean, sd ** 2)
        label = "fitted_gaussian"
    elif spec.u.is_constant():
        t = ensemble.time
        u0 = float(spec.u(np.array([0.0]))[0])
        ref = _gaussian_bin_density(edges, ensemble.x0 + u0 * t, spec.d * t)
        label = "gaussian"
    else:
        ref = _oracle_bin_density(edges, ensemble, spec)
        label = "diffusion_oracle"
    l1 = float(np.sum(np.abs(density - ref) * np.diff(edges)))
    return HistogramComparison(l1=l1, edges=edges, density=density,
                               reference_density=ref, reference=label)
