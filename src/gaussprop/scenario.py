"""Scenario files: strict JSON schema for the command line runners.

A scenario is a single JSON object that names a grid, an initial packet,
a propagator, a step schedule, and optional per-command sections (walk,
audit, moments, compare).  Parsing is deliberately strict: unknown keys
anywhere in the tree raise ScenarioError, as do missing required keys,
wrong types, and out-of-range values.  A scenario that parses is meant
to either run or fail for a physics reason, never for a typo.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .fields import (
    FIELD_KINDS,
    VARIANTS,
    FieldSpec,
    Grid,
    PropagatorSpec,
    WaveState,
    gaussian_packet,
    make_grid,
)
from .walk import STEP_LAWS

_METHODS = ("dense", "spectral")
_EXPECTS = ("conserves", "drifts")


class ScenarioError(ValueError):
    """Raised when a scenario file is malformed or incomplete."""


# default of a required key; None is the parsed value of an absent optional key
_REQUIRED = object()


class _NonFinite:
    """A NaN or Infinity literal: no reader accepts it, so the key is named."""

    def __init__(self, literal: str):
        self.literal = literal

    def __repr__(self):
        return self.literal


def _check_keys(obj, path, required, optional=()):
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            raise ScenarioError(f"{path}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ScenarioError(f"{path}: missing required key {key!r}")


def _number(obj, key, path, default=_REQUIRED, positive=False, nonnegative=False):
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}: missing required key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}.{key}: expected a number, got {value!r}")
    value = float(value)
    if positive and not value > 0.0:
        raise ScenarioError(f"{path}.{key}: must be positive, got {value}")
    if nonnegative and value < 0.0:
        raise ScenarioError(f"{path}.{key}: must be nonnegative, got {value}")
    return value


def _integer(obj, key, path, default=_REQUIRED, minimum=None):
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}: missing required key {key!r}")
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _string(obj, key, path, default=_REQUIRED, choices=None):
    if key not in obj:
        if default is _REQUIRED:
            raise ScenarioError(f"{path}: missing required key {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, str):
        raise ScenarioError(f"{path}.{key}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ScenarioError(f"{path}.{key}: must be one of {sorted(choices)}, got {value!r}")
    return value


def parse_field(obj, path):
    """Build a FieldSpec from a scenario sub-object like {"kind": "linear", "slope": 0.4}."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
    kind = _string(obj, "kind", path, choices=set(FIELD_KINDS))
    if kind == "constant":
        _check_keys(obj, path, ("kind",), ("c",))
        return FieldSpec.constant(_number(obj, "c", path, default=0.0))
    if kind == "linear":
        _check_keys(obj, path, ("kind", "slope"), ())
        return FieldSpec.linear(_number(obj, "slope", path))
    if kind == "quadratic":
        _check_keys(obj, path, ("kind", "c"), ())
        return FieldSpec.quadratic(_number(obj, "c", path))
    if kind == "sine":
        _check_keys(obj, path, ("kind", "amplitude", "wavenumber"), ("phase",))
        return FieldSpec.sine(
            _number(obj, "amplitude", path),
            _number(obj, "wavenumber", path),
            _number(obj, "phase", path, default=0.0),
        )
    # tabulated
    _check_keys(obj, path, ("kind", "xs", "values"), ())
    xs, values = obj["xs"], obj["values"]
    for name, seq in (("xs", xs), ("values", values)):
        if not isinstance(seq, list) or len(seq) < 2:
            raise ScenarioError(f"{path}.{name}: expected a list of at least 2 numbers")
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in seq):
            raise ScenarioError(f"{path}.{name}: entries must be numbers")
    if len(xs) != len(values):
        raise ScenarioError(f"{path}: xs and values must have the same length")
    return FieldSpec.tabulated(xs, values)


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet parameters, grid-independent."""

    x0: float = 0.0
    sigma0: float = 1.0
    k0: float = 0.0

    def build(self, grid: Grid) -> WaveState:
        return gaussian_packet(grid, x0=self.x0, sigma0=self.sigma0, k0=self.k0)


def _parse_packet(obj, path):
    _check_keys(obj, path, (), ("x0", "sigma0", "k0"))
    return PacketSpec(
        x0=_number(obj, "x0", path, default=0.0),
        sigma0=_number(obj, "sigma0", path, default=1.0, positive=True),
        k0=_number(obj, "k0", path, default=0.0),
    )


@dataclass(frozen=True)
class VariantCase:
    """One audited propagator variant plus the verdict it is expected to earn."""

    variant: str
    expect: str
    im_d: float = 0.0
    im_u: float = 0.0
    d_field: FieldSpec | None = None


@dataclass(frozen=True)
class AuditSettings:
    packets: tuple[PacketSpec, ...]
    variants: tuple[VariantCase, ...]


def _parse_audit(obj, path):
    _check_keys(obj, path, ("packets", "variants"), ())
    if not isinstance(obj["packets"], list) or not obj["packets"]:
        raise ScenarioError(f"{path}.packets: expected a non-empty list")
    packets = tuple(
        _parse_packet(p, f"{path}.packets[{i}]") for i, p in enumerate(obj["packets"])
    )
    if not isinstance(obj["variants"], list) or not obj["variants"]:
        raise ScenarioError(f"{path}.variants: expected a non-empty list")
    variants = []
    for i, entry in enumerate(obj["variants"]):
        vpath = f"{path}.variants[{i}]"
        _check_keys(entry, vpath, ("variant", "expect"), ("im_d", "im_u", "d_field"))
        variant = _string(entry, "variant", vpath, choices=set(VARIANTS))
        case = VariantCase(
            variant=variant,
            expect=_string(entry, "expect", vpath, choices=set(_EXPECTS)),
            im_d=_number(entry, "im_d", vpath, default=0.0),
            im_u=_number(entry, "im_u", vpath, default=0.0),
            d_field=parse_field(entry["d_field"], f"{vpath}.d_field") if "d_field" in entry else None,
        )
        if variant == "complex_d" and case.im_d == 0.0:
            raise ScenarioError(f"{vpath}: complex_d requires a nonzero im_d")
        if variant == "complex_u" and case.im_u == 0.0:
            raise ScenarioError(f"{vpath}: complex_u requires a nonzero im_u")
        if variant == "x_dependent_d" and case.d_field is None:
            raise ScenarioError(f"{vpath}: x_dependent_d requires a d_field")
        variants.append(case)
    return AuditSettings(packets=packets, variants=tuple(variants))


@dataclass(frozen=True)
class CancellationSettings:
    k: float
    x: float
    eps: float


@dataclass(frozen=True)
class MomentsSettings:
    pairs: tuple[tuple[float, float], ...]
    tolerance: float = 1e-6
    delta0: float | None = None
    samples: int | None = None
    cancellation: CancellationSettings | None = None


def _parse_moments(obj, path):
    _check_keys(obj, path, ("pairs",), ("tolerance", "delta0", "samples", "cancellation"))
    raw = obj["pairs"]
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{path}.pairs: expected a non-empty list of [d, eps] pairs")
    pairs = []
    for i, pair in enumerate(raw):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ScenarioError(f"{path}.pairs[{i}]: expected [d, eps]")
        d, eps = pair
        for v in (d, eps):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ScenarioError(f"{path}.pairs[{i}]: entries must be numbers")
        if d <= 0 or eps <= 0:
            raise ScenarioError(f"{path}.pairs[{i}]: d and eps must be positive")
        pairs.append((float(d), float(eps)))
    cancellation = None
    if "cancellation" in obj:
        cpath = f"{path}.cancellation"
        _check_keys(obj["cancellation"], cpath, ("k", "x", "eps"), ())
        cancellation = CancellationSettings(
            k=_number(obj["cancellation"], "k", cpath),
            x=_number(obj["cancellation"], "x", cpath),
            eps=_number(obj["cancellation"], "eps", cpath, positive=True),
        )
    return MomentsSettings(
        pairs=tuple(pairs),
        tolerance=_number(obj, "tolerance", path, default=1e-6, positive=True),
        delta0=_number(obj, "delta0", path, default=None, positive=True),
        samples=_integer(obj, "samples", path, default=None, minimum=64),
        cancellation=cancellation,
    )


@dataclass(frozen=True)
class WalkSettings:
    n_particles: int
    bins: int = 50
    x0: float = 0.0
    step_law: str = "gauss"


def _parse_walk(obj, path):
    _check_keys(obj, path, ("n_particles",), ("bins", "x0", "step_law"))
    return WalkSettings(
        n_particles=_integer(obj, "n_particles", path, minimum=1),
        bins=_integer(obj, "bins", path, default=50, minimum=4),
        x0=_number(obj, "x0", path, default=0.0),
        step_law=_string(obj, "step_law", path, default="gauss", choices=set(STEP_LAWS)),
    )


@dataclass(frozen=True)
class CompareSettings:
    t_final: float
    eps_ref: float | None = None
    slope_band: tuple[float, float] = (0.7, 1.3)


def _parse_compare(obj, path):
    _check_keys(obj, path, ("t_final",), ("eps_ref", "slope_band"))
    band = obj.get("slope_band", [0.7, 1.3])
    if (
        not isinstance(band, list)
        or len(band) != 2
        or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in band)
        or not band[0] < band[1]
    ):
        raise ScenarioError(f"{path}.slope_band: expected [lo, hi] with lo < hi")
    return CompareSettings(
        t_final=_number(obj, "t_final", path, positive=True),
        eps_ref=_number(obj, "eps_ref", path, default=None, positive=True),
        slope_band=(float(band[0]), float(band[1])),
    )


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario: everything a command runner needs, already validated."""

    name: str
    grid: Grid | None = None
    packet: PacketSpec | None = None
    spec: PropagatorSpec | None = None
    eps: float | None = None
    n_steps: int | None = None
    eps_ladder: tuple[float, ...] | None = None
    method: str = "dense"
    seed: int = 0
    walk: WalkSettings | None = None
    audit: AuditSettings | None = None
    moments: MomentsSettings | None = None
    compare: CompareSettings | None = None
    outputs: dict = field(default_factory=dict)

    def require(self, *names):
        """Raise ScenarioError naming the command when a section is absent."""
        for name in names:
            if getattr(self, name) is None:
                raise ScenarioError(f"scenario {self.name!r} has no {name!r} section")


def _parse_spec(obj, path):
    _check_keys(
        obj, path, (), ("d", "u", "b", "order", "variant", "im_d", "im_u", "d_field")
    )
    variant = _string(obj, "variant", path, default="admissible", choices=set(VARIANTS))
    kwargs = {
        "d": _number(obj, "d", path, default=1.0, positive=True),
        "order": _string(obj, "order", path, default="first", choices={"zero", "first"}),
        "variant": variant,
        "im_d": _number(obj, "im_d", path, default=0.0),
        "im_u": _number(obj, "im_u", path, default=0.0),
    }
    if "u" in obj:
        kwargs["u"] = parse_field(obj["u"], f"{path}.u")
    if "b" in obj:
        kwargs["b"] = parse_field(obj["b"], f"{path}.b")
    if "d_field" in obj:
        kwargs["d_field"] = parse_field(obj["d_field"], f"{path}.d_field")
    try:
        return PropagatorSpec(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_schedule(obj, path):
    _check_keys(obj, path, (), ("eps", "n_steps", "eps_ladder"))
    eps = _number(obj, "eps", path, default=None, positive=True)
    n_steps = _integer(obj, "n_steps", path, default=None, minimum=1)
    ladder = None
    if "eps_ladder" in obj:
        raw = obj["eps_ladder"]
        if (
            not isinstance(raw, list)
            or len(raw) < 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) or v <= 0 for v in raw)
        ):
            raise ScenarioError(f"{path}.eps_ladder: expected a list of at least 2 positive numbers")
        ladder = tuple(sorted((float(v) for v in raw), reverse=True))
        if len(set(ladder)) != len(ladder):
            raise ScenarioError(f"{path}.eps_ladder: entries must be distinct")
    return eps, n_steps, ladder


def parse_scenario(data) -> Scenario:
    """Validate a decoded JSON object and assemble the Scenario."""
    top = "scenario"
    _check_keys(
        data,
        top,
        ("name",),
        ("grid", "packet", "spec", "schedule", "method", "seed", "walk", "audit",
         "moments", "compare", "outputs"),
    )
    name = _string(data, "name", top)
    if not name:
        raise ScenarioError("scenario.name: must be non-empty")

    grid = None
    if "grid" in data:
        gpath = f"{top}.grid"
        _check_keys(data["grid"], gpath, ("x_min", "x_max", "n"), ())
        x_min = _number(data["grid"], "x_min", gpath)
        x_max = _number(data["grid"], "x_max", gpath)
        if not x_min < x_max:
            raise ScenarioError(f"{gpath}: x_min must be below x_max")
        n = _integer(data["grid"], "n", gpath, minimum=16)
        grid = make_grid(x_min, x_max, n)

    packet = _parse_packet(data["packet"], f"{top}.packet") if "packet" in data else None
    spec = _parse_spec(data["spec"], f"{top}.spec") if "spec" in data else None
    eps, n_steps, ladder = (
        _parse_schedule(data["schedule"], f"{top}.schedule") if "schedule" in data else (None, None, None)
    )

    outputs = {}
    if "outputs" in data:
        opath = f"{top}.outputs"
        _check_keys(data["outputs"], opath, (), ("csv", "json"))
        for key in ("csv", "json"):
            if key in data["outputs"]:
                value = data["outputs"][key]
                if not isinstance(value, str) or not value:
                    raise ScenarioError(f"{opath}.{key}: expected a non-empty string")
                outputs[key] = value

    return Scenario(
        name=name,
        grid=grid,
        packet=packet,
        spec=spec,
        eps=eps,
        n_steps=n_steps,
        eps_ladder=ladder,
        method=_string(data, "method", top, default="dense", choices=set(_METHODS)),
        seed=_integer(data, "seed", top, default=0, minimum=0),
        walk=_parse_walk(data["walk"], f"{top}.walk") if "walk" in data else None,
        audit=_parse_audit(data["audit"], f"{top}.audit") if "audit" in data else None,
        moments=_parse_moments(data["moments"], f"{top}.moments") if "moments" in data else None,
        compare=_parse_compare(data["compare"], f"{top}.compare") if "compare" in data else None,
        outputs=outputs,
    )


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_NonFinite)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(data)
