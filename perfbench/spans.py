"""In-memory spans around gaussprop's public functions, recorded from outside.

The tracer wraps each target function and rebinds the wrapper under every
name a gaussprop module looks it up by (``propagate.complex_kernel``,
``cli.evolve_cn``, ...), so calls between modules pass through it while
nothing inside the package changes.  A target whose function no longer
exists, or whose arguments its counter no longer finds, is reported as
absent instead of failing the run.

Spans are kept in memory; ``take`` hands over the spans of one invocation.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import statistics
import sys
import time
import tracemalloc

PACKAGE = "gaussprop"


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _kernel_counts(a, result) -> dict:
    x = a["x"]
    grid_key = hashlib.sha1(x.tobytes()).hexdigest() if hasattr(x, "tobytes") else repr(x)
    key = (repr(a["spec"]), float(a["eps"]), float(a["t"]), repr(a["a_override"]),
           getattr(a["eta"], "shape", None), grid_key)
    return {"elems": result.value.size, "operator": key}


def _dense_bytes(n: int) -> int:
    return n * n * 16  # one complex128 n x n operator read per apply


def _evolve_counts(a, result) -> dict:
    dense = a["method"] == "dense"
    return {"steps": a["n_steps"],
            "matvec_bytes": a["n_steps"] * _dense_bytes(a["state"].grid.n) if dense else 0}


# (module, function, counter(bound arguments, result) -> dict or None)
TARGETS = (
    ("scenario", "load_scenario", None),
    ("cli", "main", None),
    ("fields", "gaussian_packet", None),
    ("fields", "check_boundary_decay", None),
    ("kernel", "complex_kernel", _kernel_counts),
    ("fresnel", "fresnel_moment", None),
    ("fresnel", "cancellation_check", None),
    ("propagate", "step_dense",
     lambda a, r: {"matvec_bytes": _dense_bytes(a["state"].grid.n)}),
    ("propagate", "evolve", _evolve_counts),
    ("propagate", "validity_check", None),
    ("propagate", "step_spectral", None),
    ("reference", "evolve_cn", lambda a, r: {"steps": a["n_steps"]}),
    ("reference", "evolve_diffusion", lambda a, r: {"steps": a["n_steps"]}),
    ("reference", "to_hamiltonian", None),
    ("audit", "variant_audit", None),
    ("audit", "predicted_drift_rate", None),
    ("walk", "sample_paths",
     lambda a, r: {"particle_steps": a["n_particles"] * a["n_steps"]}),
    ("walk", "histogram_compare", None),
)

# measured under tracemalloc in a pass of their own; none calls another
ALLOC_TARGETS = ("kernel.complex_kernel", "reference.evolve_cn", "walk.sample_paths")


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "alloc")

    def __init__(self, name, start, parent):
        self.name, self.start, self.parent = name, start, parent
        self.end = start
        self.counts = None
        self.alloc = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps the targets while installed; one instance per pass.

    With ``alloc=True`` each span also records the peak of tracemalloc's
    traced memory above its starting level; tracemalloc must be running.
    """

    def __init__(self, names=None, alloc: bool = False):
        self.names = names
        self.alloc = alloc
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, counter):
        spans, stack, alloc = self.spans, self._stack, self.alloc

        def wrapper(*args, **kwargs):
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if alloc:
                span.alloc = tracemalloc.get_traced_memory()[1] - base
            if counter is not None:
                try:
                    span.counts = counter(_bound(fn, args, kwargs), result)
                except (KeyError, AttributeError, TypeError):  # signature changed
                    if f"{name}.counts" not in self.absent:
                        self.absent.append(f"{name}.counts")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, func_name, counter in TARGETS:
            name = f"{module_name}.{func_name}"
            if self.names is not None and name not in self.names:
                continue
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            fn = getattr(home, func_name, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def take(self) -> list:
        """The spans recorded since the last call; the tracer starts afresh."""
        spans, self.spans[:] = list(self.spans), []
        return spans


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for start, end in sorted(kids):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


def summarize(spans) -> dict:
    """Per-target totals over one invocation's spans.

    Returns name -> {"calls", "self_s", "durations", "counts", "operators",
    "alloc"}; "counts" sums the numeric counter values.
    """
    out = {}
    for span, self_s in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "durations": [],
                                           "counts": {}, "operators": set(),
                                           "alloc": 0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        entry["durations"].append(span.duration)
        entry["alloc"] = max(entry["alloc"], span.alloc)
        for key, value in (span.counts or {}).items():
            if key == "operator":
                entry["operators"].add(value)
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


def percentile(values, q: float) -> float:
    """Inclusive-method quantile of values (q in (0, 1)); 0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return float(cuts[round(q * 100) - 1])
