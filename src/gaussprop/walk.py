"""Monte-Carlo sampler for the real Gaussian random walk.

The draw matrix is particle-major: row i of the (n_particles, n_steps) matrix
is particle i's steps.  It is cut into chunks of _CHUNK = 2**15 particles, and
chunk c reads, row by row, the counter-based Philox stream keyed by the seed
and jumped c times, as if 2**128 c draws had been made (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11).  Chunk 0 is the
unjumped stream, so a walk of at most 2**15 particles draws what one stream
gave before chunks existed; every shipped scenario and pinned output (20,000
particles at most) keeps its bits.  Draws are bit-reproducible per (seed,
parameters) whatever the block size or CPU count, and a smaller ensemble is a
prefix of a larger one.  Chunks march side by side, one thread per CPU and
chunk, on propagate.side_by_side: a bulk draw fill releases the GIL.

Particles advance in blocks sized by a byte budget, each block filled by one
draw call.  The caller allocates one buffer of that budget.  A thread keeps
one row slice of it from its first chunk on, and a chunk takes the whole
buffer once every other chunk has ended, so no lock is needed.  Memory is
O(block x n_steps + n_particles) at any CPU count.

A step advances x by eta ~ Normal(u(x) eps, D eps), the drift evaluated
at the particle's current position.  For u = u0 + s x the walk is linear in
its draws z_k: x_n = r^n x0 + u0 eps sum(w) + sum(sqrt(D eps) w_k z_k) with
r = 1 + s eps and w_k = r^(n-1-k), so a block advances by one pairwise sum
over each row (BLAS bits would follow the row count), and an r^n that
overflows is refused before any draw.  Other u evaluate u at every step.
The optional centered-exponential step law keeps the same mean and variance
with a skewed distribution; many such steps still approach the Gaussian,
which is the central-limit demonstration.

histogram_compare measures the L1 distance between the ensemble's binned
density and its analytic law: the closed-form Gaussian (mean x0 + u t,
variance D t) when u is constant, or a drift-diffusion solve when u varies.
Reference bin masses are integrated exactly (CDF differences), not sampled
at bin centers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .fields import PropagatorSpec, RealState, check_eps, make_grid
from .propagate import ValidityError, last, march, side_by_side, usable_cpus
from .reference import diffusion_stepper

STEP_LAWS = ("gauss", "exp_centered")
MAX_SEED = 2 ** 64 - 1     # one 64-bit word: Philox(key=seed) has key (seed, 0)
_BLOCK = 4096              # most particles advanced together
_CHUNK = 2 ** 15           # particles per Philox stream: chunk c draws jumped(c)
_DRAW_BYTES = 32 * 2 ** 20  # the draws one block holds at most
MIN_HISTOGRAM_PARTICLES = 10_000


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


def sample_paths(n_particles: int, n_steps: int, eps: float,
                 spec: PropagatorSpec, seed: int, x0: float = 0.0,
                 step_law: str = "gauss") -> WalkEnsemble:
    """Evolve n_particles from x0 for n_steps; deterministic per seed."""
    if not spec.is_admissible():
        raise ValueError("sampling is defined for the admissible variant only")
    if n_particles < 1:
        raise ValueError(f"n_particles must be >= 1, got {n_particles}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    if n_steps > 0:
        check_eps(eps)
    if step_law not in STEP_LAWS:
        raise ValueError(f"step_law must be one of {STEP_LAWS}, got {step_law!r}")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    x = np.full(n_particles, float(x0))
    if n_steps > 0:
        width = np.sqrt(spec.d * eps)
        if affine := spec.u.kind == "polynomial" and spec.u.degree <= 1:
            u0, slope = (*spec.u.coeffs, 0.0, 0.0)[:2]
            with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
                powers = np.float64(1.0 + slope * eps) ** np.arange(n_steps, -1, -1)
                start = powers[0] * x0 + u0 * eps * powers[1:].sum()
                weights = width * powers[1:]
                variance = np.square(weights).sum()  # x_n's: every draw has variance 1
            if not np.isfinite([start, variance]).all():
                raise ValidityError(f"the drift's growth overflows: u = {u0:g} + {slope:g} x grows "
                                    f"the walk by (1 + {slope:g} eps)^{n_steps} = {powers[0]:g}")
        chunks = -(-n_particles // _CHUNK)
        threads = min(usable_cpus(), chunks)
        rows = max(1, min(_BLOCK, _DRAW_BYTES // (8 * n_steps), n_particles) // threads)
        z = np.empty((threads * rows, n_steps))
        slices = [z[k * rows:(k + 1) * rows] for k in range(threads)]
        ended, mine = [], threading.local()  # chunks done; this thread's slice

        def march_chunk(c: int) -> None:
            if not hasattr(mine, "rows"):  # a thread's first chunk takes its slice for the call
                mine.rows = slices.pop()
            gen = np.random.Generator(np.random.Philox(key=seed).jumped(c))
            draw = gen.standard_normal if step_law == "gauss" else gen.standard_exponential
            xc = x[c * _CHUNK:(c + 1) * _CHUNK]
            while len(xc):  # once every other chunk has ended, this one takes the whole buffer
                zb = (z if len(ended) == chunks - 1 else mine.rows)[:len(xc)]
                xb, xc = xc[:len(zb)], xc[len(zb):]
                draw(out=zb)
                if step_law == "exp_centered":
                    zb -= 1.0
                if affine:
                    zb *= weights
                    zb.sum(axis=1, out=xb)
                    xb += start
                else:
                    zb *= width
                    for s in range(n_steps):
                        xb += spec.u(xb) * eps + zb[:, s]
            ended.append(c)

        side_by_side([partial(march_chunk, c) for c in range(chunks)], threads)
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
    # the normal CDF as 0.5 erfc(-z / sqrt 2), one scalar call per edge: no scipy
    z = (mean - edges) / np.sqrt(2.0 * var)
    cdf = 0.5 * np.array([math.erfc(v) for v in z.tolist()])
    return np.diff(cdf) / np.diff(edges)


def gaussian_law(ensemble: WalkEnsemble, spec: PropagatorSpec) -> tuple[float, float] | None:
    """Mean x0 + u t and variance D t of the ensemble's exact law for constant u, else None."""
    if spec.u.is_constant():
        t = ensemble.time
        return ensemble.x0 + float(spec.u(np.zeros(1))[0]) * t, spec.d * t
    return None


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
    final = last(march(state, n_steps, diffusion_stepper(grid, (t - t0) / n_steps, spec)))
    cdf = np.concatenate([[0.0], np.cumsum(final.density) * grid.dx])
    cdf_at = np.interp(edges, np.concatenate([[grid.x[0] - grid.dx], grid.x]),
                       cdf)
    return np.diff(cdf_at) / np.diff(edges)


def histogram_compare(ensemble: WalkEnsemble, spec: PropagatorSpec,
                      bins: int = 50) -> HistogramComparison:
    """L1 distance between the binned ensemble and its analytic density:
    the closed-form Gaussian for constant u, the drift-diffusion oracle
    otherwise."""
    if ensemble.n_particles < MIN_HISTOGRAM_PARTICLES:
        raise ValueError(f"need >= {MIN_HISTOGRAM_PARTICLES} particles for a "
                         f"stable histogram, got {ensemble.n_particles}")
    mean = ensemble.sample_mean()
    sd = np.sqrt(ensemble.sample_variance())
    edges = np.linspace(mean - 5.0 * sd, mean + 5.0 * sd, bins + 1)
    counts, _ = np.histogram(ensemble.positions, bins=edges)
    covered = counts.sum()
    density = counts / (covered * np.diff(edges))
    if (law := gaussian_law(ensemble, spec)) is not None:
        ref = _gaussian_bin_density(edges, *law)
        label = "gaussian"
    else:
        ref = _oracle_bin_density(edges, ensemble, spec)
        label = "diffusion_oracle"
    l1 = float(np.sum(np.abs(density - ref) * np.diff(edges)))
    return HistogramComparison(l1=l1, edges=edges, density=density,
                               reference_density=ref, reference=label)
