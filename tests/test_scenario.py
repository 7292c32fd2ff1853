"""The scenario schema: every declared key is checked, and tables are sound."""

import copy
import json
import re

import numpy as np
import pytest

from gaussprop import cli, scenario
from gaussprop.fields import FieldSpec
from gaussprop.scenario import ScenarioError, parse_field, parse_scenario

# a scenario that gives every declared key a valid value
FULL = {
    "name": "full",
    "grid": {"x_min": -8.0, "x_max": 8.0, "n": 256},
    "packet": {"x0": 0.5, "sigma0": 0.8, "k0": 1.0},
    "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.2},
             "b": {"kind": "constant", "c": 0.1},
             "variant": "x_dependent_d", "im_d": 0.0, "im_u": 0.0,
             "d_field": {"kind": "constant", "c": 1.0}},
    "schedule": {"eps": 0.01, "n_steps": 2, "eps_ladder": [0.02, 0.01]},
    "method": "dense",
    "seed": 0,
    "walk": {"n_particles": 10, "bins": 8, "x0": 0.0, "step_law": "gauss"},
    "audit": {"packets": [{"x0": 0.0, "sigma0": 0.8, "k0": 0.0}],
              "variants": [{"variant": "complex_u", "expect": "drifts", "im_d": 0.0,
                            "im_u": 0.2}]},
    "moments": {"pairs": [[1.0, 0.1]], "tolerance": 1e-6, "delta0": 0.25,
                "cancellation": {"k": 1.0, "x": 0.5, "eps": 0.1}},
    "compare": {"t_final": 1.0, "eps_ref": 0.001, "slope_band": [0.7, 1.3]},
}

# one valid field object per preset kind, placed at spec.u
FIELDS = {
    "constant": {"kind": "constant", "c": 0.1},
    "linear": {"kind": "linear", "slope": 0.2},
    "quadratic": {"kind": "quadratic", "c": 0.1},
    "sine": {"kind": "sine", "amplitude": 0.2, "wavenumber": 1.0, "phase": 0.3},
    "tabulated": {"kind": "tabulated", "xs": [-1.0, 0.0, 1.0], "values": [0.0, 0.1, 0.3]},
}


# the constructor each preset kind parses to, with FIELDS' values
CONSTRUCTED = {
    "constant": FieldSpec.constant(0.1),
    "linear": FieldSpec.linear(0.2),
    "quadratic": FieldSpec.quadratic(0.1),
    "sine": FieldSpec.sine(0.2, 1.0, 0.3),
    "tabulated": FieldSpec.tabulated([-1.0, 0.0, 1.0], [0.0, 0.1, 0.3]),
}


@pytest.mark.parametrize("kind", FIELDS)
def test_a_preset_parses_to_its_constructor(kind):
    parsed, built = parse_field(FIELDS[kind], "u"), CONSTRUCTED[kind]
    if kind == "tabulated":
        assert parsed.kind == built.kind == "tabulated"
        assert np.array_equal(parsed.xs, built.xs) and np.array_equal(parsed.values, built.values)
    else:
        assert parsed == built


def test_a_constant_preset_defaults_to_zero():
    assert parse_field({"kind": "constant"}, "u") == FieldSpec.constant(0.0)
    assert parse_field({"kind": "constant"}, "u").degree == -1


def _declared(read, at=()):
    """(location, key) of every key declared at or below an object reader."""
    for key, sub in read.keys.items():
        yield at, key
        where = at + (key,)
        while hasattr(sub, "entry"):  # a list: its first entry
            sub, where = sub.entry, where + (0,)
        if hasattr(sub, "keys"):
            yield from _declared(sub, where)


DECLARED = [(at, key, None) for at, key in _declared(scenario._SCENARIO)] + [
    (("spec", "u"), key, kind)
    for kind, read in scenario._PRESETS.items() for key in read.keys]


def _dotted(parts):
    return "scenario" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in parts)


def _with_field(kind):
    data = copy.deepcopy(FULL)
    if kind is not None:
        data["spec"]["u"] = copy.deepcopy(FIELDS[kind])
    return data


@pytest.mark.parametrize("kind", [None, *FIELDS])
def test_the_full_scenario_parses(kind):
    parse_scenario(_with_field(kind))


@pytest.mark.parametrize("at,key,kind", DECLARED,
                         ids=[_dotted(at + (key,))[9:] + (f"({kind})" if kind else "")
                              for at, key, kind in DECLARED])
def test_a_wrong_type_exits_two_naming_the_key(at, key, kind, tmp_path, capsys):
    data = _with_field(kind)
    obj = data
    for part in at:
        obj = obj[part]
    obj[key] = True  # no reader accepts a boolean
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    assert f"{_dotted(at + (key,))}: " in capsys.readouterr().err


@pytest.mark.parametrize("u,key", [
    ({"kind": "tabulated", "xs": [0.0, 1.0], "values": [0.0, 1.0]}, "spec.u.xs"),
    ({"kind": "tabulated", "xs": [0.0, 2.0, 1.0], "values": [0.0, 1.0, 2.0]}, "spec.u"),
    ({"kind": "tabulated", "xs": [0.0, 1.0, 2.0], "values": [0.0, 1.0, 2.0, 3.0]}, "spec.u"),
], ids=("two-samples", "unsorted-xs", "length-mismatch"))
def test_a_bad_table_exits_two_naming_the_key(u, key, tmp_path, capsys):
    data = {"name": "x", "spec": {"d": 1.0, "u": u}}
    with pytest.raises(ScenarioError, match=rf"^scenario\.{re.escape(key)}: "):
        parse_scenario(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    assert f"scenario.{key}: " in capsys.readouterr().err


def test_slope_band_order_is_named_at_its_key():
    with pytest.raises(ScenarioError, match=r"^scenario\.compare\.slope_band: "):
        parse_scenario({"name": "x", "compare": {"t_final": 1.0, "slope_band": [1.3, 0.7]}})


def test_an_audit_variant_resets_the_variant_keys_it_omits():
    data = copy.deepcopy(FULL)
    data["audit"]["variants"] = [{"variant": "admissible", "expect": "conserves"}]
    (case,) = parse_scenario(data).audit.variants
    assert (case.spec.variant, case.spec.d_field) == ("admissible", None)
    assert case.spec.u == parse_scenario(data).spec.u


@pytest.mark.parametrize("section,key,admitted,maximum", [
    ("grid", "n", 2 ** 17, 2 ** 20),
    ("walk", "n_particles", 10 ** 8, 10 ** 8),
    ("walk", "bins", 10 ** 6, 10 ** 6),
])
def test_a_size_is_bounded_at_its_key(section, key, admitted, maximum):
    """Sizes are refused at parse time, before anything is allocated for them."""
    data = copy.deepcopy(FULL)
    data[section][key] = admitted
    assert getattr(getattr(parse_scenario(data), section), key) == admitted
    data[section][key] = maximum + 1
    with pytest.raises(ScenarioError,
                       match=rf"^scenario\.{section}\.{key}: must be <= {maximum}, "):
        parse_scenario(data)
