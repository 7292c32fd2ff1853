"""Fields are static functions of x: no signature in the package takes a time argument."""

import importlib
import inspect
import pkgutil

import gaussprop


def _callables():
    """Every function, class and method defined in a gaussprop module, private ones too."""
    found = {}
    for info in pkgutil.iter_modules(gaussprop.__path__):
        module = importlib.import_module(f"gaussprop.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                found[f"{info.name}.{name}"] = obj
            if inspect.isclass(obj):
                found.update({f"{info.name}.{name}.{attr}": getattr(obj, attr)
                              for attr, member in vars(obj).items()
                              if inspect.isfunction(member)
                              or isinstance(member, (staticmethod, classmethod))})
    return found


def _parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # the exception types inherit a builtin constructor
        return {}


def test_no_signature_takes_a_time_argument():
    found = _callables()
    scanned = {id(obj) for obj in found.values()}
    assert all(id(obj) in scanned for name in gaussprop.__all__
               if callable(obj := getattr(gaussprop, name)))
    assert {"fields.FieldSpec.__call__", "fields.FieldSpec.derivative",
            "fields.PropagatorSpec.d_value", "reference.HamiltonianSpec.a_values",
            "propagate._dense_stepper", "reference._diffusion_stepper"} <= set(found)
    offenders = sorted(name for name, obj in found.items() if "t" in _parameters(obj))
    assert offenders == []
