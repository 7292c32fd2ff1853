"""Scenario files: strict JSON schema for the command line runners.

A scenario is a single JSON object that names a grid, an initial packet,
a propagator, a step schedule, and optional per-command sections (walk,
audit, moments, compare).  Parsing is deliberately strict: unknown keys
anywhere in the tree raise ScenarioError, as do missing required keys,
wrong types, and out-of-range values.  A scenario that parses is meant
to either run or fail for a physics reason, never for a typo.

The schema is declared once.  A reader maps a JSON value and its key path
to the parsed value, or raises ScenarioError naming that path.  A section
is either a dataclass whose fields carry their reader and default (_key)
or a table of readers; one object reader checks every section's keys,
reads each present key, and builds the section, leaving absent optional
keys to the builder's own defaults.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial

from .fields import (
    MIN_TABLE_SAMPLES,
    VARIANTS,
    FieldSpec,
    Grid,
    PropagatorSpec,
    WaveState,
    gaussian_packet,
    make_grid,
)
from .propagate import STEPPERS
from .walk import MAX_SEED, STEP_LAWS

_EXPECTS = ("conserves", "drifts")
# the most steps a run marches, schedule.n_steps or a compare run's t_final / eps:
# 128-row walk blocks at 2^15 steps, and a non-affine u is call-bound
MAX_STEPS = 2 ** 15


class ScenarioError(ValueError):
    """Raised when a scenario file is malformed or incomplete."""


class _NonFinite:
    """A NaN or Infinity literal: no reader accepts it, so the key is named."""

    def __init__(self, literal: str):
        self.literal = literal

    def __repr__(self):
        return self.literal


def _number(positive=False):
    def read(value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{path}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf if value > 0 else -math.inf
        if not math.isfinite(number):
            raise ScenarioError(f"{path}: must be a finite number, got {number}")
        if positive and not number > 0.0:
            raise ScenarioError(f"{path}: must be positive, got {number}")
        return number
    return read


def _integer(minimum, maximum=None):
    def read(value, path):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{path}: expected an integer, got {value!r}")
        if value < minimum:
            raise ScenarioError(f"{path}: must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise ScenarioError(f"{path}: must be <= {maximum}, got {value}")
        return value
    return read


def _string(choices=None):
    """One of choices, or any non-empty string when choices is None."""
    def read(value, path):
        if not isinstance(value, str):
            raise ScenarioError(f"{path}: expected a string, got {value!r}")
        if choices is None and not value:
            raise ScenarioError(f"{path}: must be non-empty")
        if choices is not None and value not in choices:
            raise ScenarioError(f"{path}: must be one of {sorted(choices)}, got {value!r}")
        return value
    return read


def _file_name(value, path):
    """A bare file name: no directory part, and neither . nor .."""
    name = _string()(value, path)
    if os.path.dirname(name) or name in (os.curdir, os.pardir):
        raise ScenarioError(f"{path}: must be a bare file name, got {name!r}")
    return name


def _numbers(count, exact=False, positive=False):
    """A list of count numbers (at least count unless exact), as a tuple of floats."""
    number = _number(positive)

    def read(value, path):
        if not isinstance(value, list) or len(value) < count or exact and len(value) > count:
            raise ScenarioError(f"{path}: expected a list of {'' if exact else 'at least '}"
                                f"{count} {'positive ' if positive else ''}numbers")
        return tuple(number(v, path) for v in value)
    return read


def _list_of(read_entry):
    """A non-empty list, entry i read at path[i], as a tuple."""
    def read(value, path):
        if not isinstance(value, list) or not value:
            raise ScenarioError(f"{path}: expected a non-empty list")
        return tuple(read_entry(v, f"{path}[{i}]") for i, v in enumerate(value))
    read.entry = read_entry
    return read


def _then(read, convert):
    """read, then convert; a ValueError from convert is re-raised naming the path."""
    def read_converted(value, path):
        parsed = read(value, path)
        try:
            return convert(parsed)
        except ValueError as exc:
            raise ScenarioError(f"{path}: {exc}") from exc
    return read_converted


def _object(required, optional=None, build=dict):
    """An object of these keys, each read by its reader, passed to build.

    Absent optional keys are left out, so build's own defaults apply."""
    keys = {**required, **(optional or {})}

    def read_values(obj, path):
        if not isinstance(obj, dict):
            raise ScenarioError(f"{path}: expected an object, got {type(obj).__name__}")
        for key in required:
            if key not in obj:
                raise ScenarioError(f"{path}: missing required key {key!r}")
        for key in obj:
            if key not in keys:
                raise ScenarioError(f"{path}: unknown key {key!r}")
        return {key: read(obj[key], f"{path}.{key}")
                for key, read in keys.items() if key in obj}

    read = _then(read_values, lambda values: build(**values))
    read.keys = keys  # with _list_of's .entry, this makes the schema walkable
    return read


def _key(read, default=MISSING):
    """A section field read from the key of its name; without a default it is required."""
    return field(default=default, metadata={"read": read})


def _section(cls):
    """The reader of the section declared by dataclass cls."""
    required, optional = {}, {}
    for f in fields(cls):
        (required if f.default is MISSING else optional)[f.name] = f.metadata["read"]
    return _object(required, optional, cls)


def _preset(make, required, optional=(), read=_number()):
    """A field object built by make from its keys; parse_field has read its kind."""
    return _object({"kind": _string(), **dict.fromkeys(required, read)},
                   dict.fromkeys(optional, read), lambda kind, **values: make(**values))


_PRESETS = {
    "constant": _preset(FieldSpec.constant, (), ("c",)),
    "linear": _preset(FieldSpec.linear, ("slope",)),
    "quadratic": _preset(FieldSpec.quadratic, ("c",)),
    "sine": _preset(FieldSpec.sine, ("amplitude", "wavenumber"), ("phase",)),
    "tabulated": _preset(FieldSpec.tabulated, ("xs", "values"),
                         read=_numbers(MIN_TABLE_SAMPLES)),
}
_KIND = _string(tuple(_PRESETS))


def parse_field(obj, path):
    """Build a FieldSpec from a scenario sub-object like {"kind": "linear", "slope": 0.4}."""
    if not isinstance(obj, dict) or "kind" not in obj:
        return _object({"kind": _KIND})(obj, path)  # raises, naming what is wrong
    return _PRESETS[_KIND(obj["kind"], f"{path}.kind")](obj, path)


@dataclass(frozen=True)
class PacketSpec:
    """Initial Gaussian packet parameters, grid-independent."""

    x0: float = _key(_number(), 0.0)
    sigma0: float = _key(_number(positive=True), 1.0)
    k0: float = _key(_number(), 0.0)

    def build(self, grid: Grid) -> WaveState:
        return gaussian_packet(grid, x0=self.x0, sigma0=self.sigma0, k0=self.k0)


@dataclass(frozen=True)
class VariantCase:
    """One audited propagator variant plus the verdict it is expected to earn."""

    spec: PropagatorSpec
    expect: str


@dataclass(frozen=True)
class AuditSettings:
    packets: tuple[PacketSpec, ...]
    variants: tuple[VariantCase, ...]


@dataclass(frozen=True)
class CancellationSettings:
    k: float = _key(_number())
    x: float = _key(_number())
    eps: float = _key(_number(positive=True))


@dataclass(frozen=True)
class MomentsSettings:
    pairs: tuple[tuple[float, float], ...] = _key(
        _list_of(_numbers(2, exact=True, positive=True)))
    tolerance: float = _key(_number(positive=True), 1e-6)
    delta0: float | None = _key(_number(positive=True), None)
    cancellation: CancellationSettings | None = _key(_section(CancellationSettings), None)


@dataclass(frozen=True)
class WalkSettings:
    n_particles: int = _key(_integer(1, 10 ** 8))  # 8 B of position each: 0.8 GB at most
    bins: int = _key(_integer(4, 10 ** 6), 50)     # one output row a bin
    x0: float = _key(_number(), 0.0)
    step_law: str = _key(_string(STEP_LAWS), "gauss")


def _band(band):
    if not band[0] < band[1]:
        raise ValueError("expected [lo, hi] with lo < hi")
    return band


@dataclass(frozen=True)
class CompareSettings:
    t_final: float = _key(_number(positive=True))
    eps_ref: float | None = _key(_number(positive=True), None)
    slope_band: tuple[float, float] = _key(_then(_numbers(2, exact=True), _band), (0.7, 1.3))


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

    def require(self, *names):
        """Raise ScenarioError naming the command when a section is absent."""
        for name in names:
            if getattr(self, name) is None:
                raise ScenarioError(f"scenario {self.name!r} has no {name!r} section")


def _ladder(eps):
    ladder = tuple(sorted(eps, reverse=True))
    if len(set(ladder)) != len(ladder):
        raise ValueError("entries must be distinct")
    return ladder


# spec's variant parameters; an audit variant sets them with its variant and verdict
_VARIANT_KEYS = {"im_d": _number(), "im_u": _number(), "d_field": parse_field}

_SCENARIO = _object({"name": _file_name}, {  # name stems the output names
    "grid": _object({"x_min": _number(), "x_max": _number(), "n": _integer(16, 2 ** 20)},
                    build=make_grid),  # n <= 2^20: a complex state is 16 MiB
    "packet": _section(PacketSpec),
    "spec": _object({}, {"d": _number(positive=True), "u": parse_field, "b": parse_field,
                         "variant": _string(VARIANTS), **_VARIANT_KEYS},
                    partial(PropagatorSpec, d=1.0)),
    "schedule": _object({}, {"eps": _number(positive=True),
                             "n_steps": _integer(1, MAX_STEPS),
                             "eps_ladder": _then(_numbers(2, positive=True), _ladder)}),
    "method": _string(STEPPERS),
    "seed": _integer(0, MAX_SEED),
    "walk": _section(WalkSettings),
    "audit": _object({"packets": _list_of(_section(PacketSpec)),
                      "variants": _list_of(_object(
                          {"variant": _string(VARIANTS), "expect": _string(_EXPECTS)},
                          _VARIANT_KEYS))}),
    "moments": _section(MomentsSettings),
    "compare": _section(CompareSettings),
})


def _audit(audit, spec) -> AuditSettings:
    """Each variant is spec with all its variant keys replaced, omitted ones by default."""
    if spec is None:
        raise ScenarioError("scenario.audit: needs a 'spec' section to build the variants from")
    unset = {f.name: f.default for f in fields(PropagatorSpec) if f.name in _VARIANT_KEYS}
    variants = []
    for i, changes in enumerate(audit["variants"]):
        expect = changes.pop("expect")
        try:
            variants.append(VariantCase(replace(spec, **{**unset, **changes}), expect))
        except ValueError as exc:
            raise ScenarioError(f"scenario.audit.variants[{i}]: {exc}") from exc
    return AuditSettings(audit["packets"], tuple(variants))


def parse_scenario(data) -> Scenario:
    """Validate a decoded JSON object and assemble the Scenario."""
    values = _SCENARIO(data, "scenario")
    values.update(values.pop("schedule", {}))
    if "audit" in values:
        values["audit"] = _audit(values["audit"], values.get("spec"))
    return Scenario(**values)


def _unique_keys(pairs) -> dict:
    """A JSON object whose every key is given once: json would keep only the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioError(f"scenario: the key {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_constant=_NonFinite, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return parse_scenario(data)
