"""The package's shape: no time argument, no private cross-module import,
no wrapper layer, the kernel's correction T decided in one place, one
polynomial field kind, one spelling of "admissible", one
propagator-to-Hamiltonian map with no object of its own, no kernel order, no output-name or
node-budget setting and no quadrature object.

Fields are static functions of x, so no signature takes a time argument.
Each method is stepped one way, through its builder and march, and each
module uses only the public names of the others.  kernel.a_field alone
decides Re T, so no signature takes an a_override.  The constant, linear
and quadratic presets are one polynomial kind, so every affine or quadratic
decision outside fields reads FieldSpec.is_affine, degree or coeffs, not a
kind name.
PropagatorSpec.is_admissible alone compares the variant with "admissible",
and reference.to_hamiltonian alone reads u's and b's coefficients.  The
kernel always applies exp(-eps T): the bare kernel is the no_t variant with
b = 0, so no order knob selects it and "admissible" always conserves the norm.
The moment quadrature's window and nodes follow from D, eps and delta0, so
no fresnel function takes a quadrature, and the cancellation check takes D
and u, not a spec.  A CLI command is declared once, in cli.COMMANDS: no
other constant of cli.py names one, a runner takes the scenario alone and
the summary's "passed" is the only gate.  The walk's threads share its
draw buffer without a lock: walk.py builds no threading.Lock, rebinds no
enclosing name and needs no try/finally.  Every thread runs on the
standard library's pool: no module builds a threading.Thread or imports
queue, and propagate alone builds a ThreadPoolExecutor.  Each pool sizes
itself, so no signature takes a thread count.  The package root
re-exports nothing, so importing it loads no module, and every public
function or class is reached from a command or an acceptance criterion, not
only from a unit test.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import gaussprop
from gaussprop import cli
from gaussprop.fields import FieldSpec, PropagatorSpec


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
    assert not hasattr(gaussprop, "__all__")
    assert {"fields.FieldSpec.__call__", "fields.FieldSpec.derivative",
            "fields.PropagatorSpec.d_value", "reference.to_hamiltonian",
            "propagate.dense_stepper", "reference.diffusion_stepper"} <= set(found)
    offenders = sorted(name for name, obj in found.items() if "t" in _parameters(obj))
    assert offenders == []


# the parameter names a caller would size a pool by: each pool sizes itself
THREAD_COUNTS = ("threads", "n_threads", "workers", "max_workers", "cpus", "n_jobs")


def _thread_count_takers(found: dict) -> list:
    """The callables of found (name -> object) with a parameter in THREAD_COUNTS."""
    return sorted(name for name, obj in found.items()
                  if set(THREAD_COUNTS) & set(_parameters(obj)))


def test_the_guard_sees_a_thread_count():
    def one_behind(items, work, threads):
        pass

    def finals(runs):
        pass

    found = {"a.one_behind": one_behind, "a.finals": finals, "a.Pool": dict}
    assert _thread_count_takers(found) == ["a.one_behind"]


def test_no_signature_takes_a_thread_count():
    found = _callables()
    assert {"propagate.one_behind", "propagate.finals", "propagate.side_by_side",
            "walk.sample_paths"} <= set(found)
    assert _thread_count_takers(found) == []


def _private_imports(tree: ast.Module) -> list:
    """Underscore names this module takes from another gaussprop module,
    by `from .mod import _name` or as `mod._name` of an imported module."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").startswith("gaussprop"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name}")
                elif node.module in (None, "gaussprop"):  # from . import mod
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_module_s_private_name():
    package = Path(gaussprop.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert {"cli.py", "propagate.py", "reference.py"} <= {p.name for p in sources}
    offenders = {p.name: found for p in sources
                 if (found := _private_imports(ast.parse(p.read_text(), p.name)))}
    assert offenders == {}


def test_the_guard_sees_a_private_import():
    tree = ast.parse("from .propagate import _last, march\nfrom . import fields\n"
                     "fields._mass_moments(None)\nfrom __future__ import annotations\n")
    assert _private_imports(tree) == ["propagate._last", "fields._mass_moments"]


# the step/evolve/Trajectory layer above the builders, deleted for good
WRAPPERS = ("step_dense", "step_spectral", "step_density", "evolve", "evolve_density",
            "Trajectory", "record", "cn_step", "evolve_cn", "diffusion_step",
            "evolve_diffusion", "variant_audit")


def test_the_wrapper_layer_is_gone():
    assert not hasattr(gaussprop, "__all__")
    assert not [name for name in WRAPPERS if hasattr(gaussprop, name)]
    defined = {name.split(".")[1] for name in _callables()}
    assert not set(WRAPPERS) & defined
    for info in pkgutil.iter_modules(gaussprop.__path__):
        module = importlib.import_module(f"gaussprop.{info.name}")
        assert not set(WRAPPERS) & set(vars(module)), info.name


# the second ways of deciding or reading T, deleted for good
KERNEL_LEFTOVERS = ("KernelEvaluation", "normalization_constant", "_a_value")
# the second ways of building a wave step's operator, stacking it, applying it or picking
# its builder by name, deleted for good: a Step builds its factor arrays and advances one
# state, finals steps each run's state in place, the FFT pair is no factor, a matrix step
# applies np.matmul, and STEPPERS maps a name to a builder
STEP_LEFTOVERS = ("dense_operator", "chirp_z_applies", "wave_stepper", "METHODS", "_stack",
                  "_in_place_ffts", "_lockstep", "_matrix_apply")


def test_t_is_decided_in_one_place():
    found = _callables()
    assert {"kernel.complex_kernel", "kernel.source_factors", "propagate.Step.__call__",
            "propagate.Step.advance", "propagate.dense_stepper"} <= set(found)
    assert sorted(name for name, obj in found.items() if "a_override" in _parameters(obj)) == []
    assert not hasattr(gaussprop, "__all__")
    assert not [name for name in KERNEL_LEFTOVERS if hasattr(gaussprop, name)]
    for info in pkgutil.iter_modules(gaussprop.__path__):
        module = importlib.import_module(f"gaussprop.{info.name}")
        assert not set(KERNEL_LEFTOVERS) & set(vars(module)), info.name
        assert not set(STEP_LEFTOVERS) & set(vars(module)), info.name
    assert "fields.PropagatorSpec.du_dx" not in found
    assert not hasattr(PropagatorSpec, "du_dx")


# the presets' names and the kind they share: "u is affine" is FieldSpec.is_affine
PRESET_KINDS = ("constant", "linear", "quadratic", "polynomial")


def _preset_kind_tests(tree: ast.Module) -> list:
    """Lines where a comparison or a lookup reads a `.kind` against a preset name."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Compare, ast.Subscript)):
            parts = list(ast.walk(node))
            if (any(isinstance(p, ast.Attribute) and p.attr == "kind" for p in parts)
                    and any(isinstance(p, ast.Constant) and p.value in PRESET_KINDS
                            for p in parts)):
                found.append(node.lineno)
    return found


def test_the_guard_sees_a_preset_kind_test():
    tree = ast.parse('ok = f.kind == "sine"\nif spec.u.kind in ("constant", "linear"):\n'
                     '    pass\nc = {"quadratic": 2}[f.kind]\nd = PRESETS["linear"]\n'
                     'e = spec.u.kind == "polynomial" and spec.u.degree <= 1\n')
    assert _preset_kind_tests(tree) == [2, 4, 6]


def test_only_fields_names_the_polynomial_presets():
    package = Path(gaussprop.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "fields.py")
    assert {"propagate.py", "reference.py", "walk.py"} <= {p.name for p in sources}
    offenders = {p.name: found for p in sources
                 if (found := _preset_kind_tests(ast.parse(p.read_text(), p.name)))}
    assert offenders == {}
    assert "reference._polynomial" not in _callables()
    assert not hasattr(importlib.import_module("gaussprop.reference"), "_polynomial")
    names = {f.name for f in dataclasses.fields(FieldSpec)}
    assert "coeffs" in names and not {"c", "slope"} & names
    assert not hasattr(FieldSpec.constant(1.0), "c")


def _admissible_tests(tree: ast.Module) -> list:
    """Lines where a comparison reads a `.variant` against "admissible"."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(isinstance(p, ast.Attribute) and p.attr == "variant" for p in ast.walk(node))
            and any(isinstance(p, ast.Constant) and p.value == "admissible"
                    for p in ast.walk(node))]


def test_the_guard_sees_an_admissible_test():
    tree = ast.parse('ok = spec.variant != "admissible"\nif spec.is_admissible():\n    pass\n'
                     'c = s.variant in ("admissible", "no_t")\nd = s.variant == "no_t"\n')
    assert _admissible_tests(tree) == [1, 4]


def test_only_fields_spells_admissible():
    package = Path(gaussprop.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "fields.py")
    assert {"audit.py", "kernel.py", "walk.py"} <= {p.name for p in sources}
    offenders = {p.name: found for p in sources
                 if (found := _admissible_tests(ast.parse(p.read_text(), p.name)))}
    assert offenders == {}


def _coefficient_readers(tree: ast.Module) -> set:
    """The functions ("<module>" outside any) that read `.u.coeffs` or `.b.coeffs`."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute) and child.attr == "coeffs"
                    and isinstance(child.value, ast.Attribute) and child.value.attr in ("u", "b")):
                found.add(owner)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner)

    visit(tree, "<module>")
    return found


def test_the_guard_sees_a_coefficient_reader():
    tree = ast.parse("def to_hamiltonian(spec):\n    return spec.u.coeffs, ham.a_field.coeffs\n"
                     "def exact_state(spec):\n    u0 = spec.u.coeffs[0]\n"
                     "    def inner():\n        return spec.b.coeffs\n")
    assert _coefficient_readers(tree) == {"to_hamiltonian", "exact_state", "inner"}


# the inverse map and the complex vector potential, deleted for good
HAMILTONIAN_LEFTOVERS = ("to_propagator", "im_a", "a_values")
# the finite-difference Hamiltonian that no command stepped and the correction-exponent
# scan, deleted for good: criteria 4 and 6 check exact laws of the steps that run
UNSTEPPED_LEFTOVERS = ("rhs_apply", "hamiltonian_diagonals", "hermiticity_check",
                       "empirical_a_scan", "AScanResult")


# the single-caller layers over the oracles, folded into their callers for good:
# to_hamiltonian returns plain floats, predicted_drift_rate integrates the T
# variants' rate, and diffusion_stepper factors with propagate.lapack's routines
FOLDED_LEFTOVERS = ("HamiltonianSpec", "analytic_drift_rate", "Tridiagonal",
                    "get_lapack_funcs")


def test_the_hamiltonian_map_is_written_once():
    reference = importlib.import_module("gaussprop.reference")
    assert not hasattr(gaussprop, "__all__")
    assert not [name for name in HAMILTONIAN_LEFTOVERS
                if hasattr(gaussprop, name) or hasattr(reference, name)]
    assert list(_parameters(reference.to_hamiltonian)) == ["spec"]
    m, a, phi = reference.to_hamiltonian(PropagatorSpec(d=0.5, u=FieldSpec.linear(0.4)))
    assert [type(v) for v in (m, *a, *phi)] == [float] * 6
    for info in pkgutil.iter_modules(gaussprop.__path__):
        module = importlib.import_module(f"gaussprop.{info.name}")
        assert not set(UNSTEPPED_LEFTOVERS) & set(vars(module)), info.name
        assert not set(FOLDED_LEFTOVERS) & set(vars(module)), info.name
    source = Path(reference.__file__).read_text()
    assert _coefficient_readers(ast.parse(source)) == {"to_hamiltonian"}


# the kernel order and its choices, deleted for good
ORDER_LEFTOVERS = ("order", "ORDERS")


def test_the_kernel_has_no_order(tmp_path, capsys):
    assert "order" not in {f.name for f in dataclasses.fields(PropagatorSpec)}
    fields = importlib.import_module("gaussprop.fields")
    assert not [name for name in ORDER_LEFTOVERS
                if hasattr(fields, name) or hasattr(gaussprop, name)]
    path = tmp_path / "order.json"
    path.write_text(json.dumps({"name": "order", "spec": {"d": 1.0, "order": "zero"}}))
    assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "scenario.spec" in err and "'order'" in err


# the scenario settings no run set, deleted for good: every run writes
# <name>_<command>.csv and .json, and the moment quadrature lays 100,000 nodes
# on a window it sizes itself, so delta0 is its one input
def _refused(tmp_path, capsys, section):
    path = tmp_path / "leftover.json"
    path.write_text(json.dumps({"name": "leftover", **section}))
    out = tmp_path / "out"
    assert cli.main(["moments", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    return capsys.readouterr().err


def test_the_output_names_and_node_budget_are_not_settings(tmp_path, capsys):
    scenario = importlib.import_module("gaussprop.scenario")
    assert "outputs" not in {f.name for f in dataclasses.fields(scenario.Scenario)}
    assert "samples" not in {f.name for f in dataclasses.fields(scenario.MomentsSettings)}
    assert not hasattr(cli, "_output_names")
    fresnel = importlib.import_module("gaussprop.fresnel")
    assert not hasattr(gaussprop, "RegularizedQuadrature")
    assert not hasattr(fresnel, "RegularizedQuadrature")
    assert list(_parameters(fresnel.ladder_integral)) == ["evens", "d", "eps", "delta0"]
    assert not [name for name, obj in _callables().items()
                if name.startswith("fresnel.") and "quad" in _parameters(obj)]
    moments = {"pairs": [[1.0, 0.1]]}
    err = _refused(tmp_path, capsys, {"moments": moments, "outputs": {"csv": "a.csv"}})
    assert "scenario:" in err and "'outputs'" in err
    err = _refused(tmp_path, capsys, {"moments": {**moments, "samples": 200_000}})
    assert "scenario.moments:" in err and "'samples'" in err


def _stray_command_names(source: str, names) -> list:
    """Constants naming a command anywhere but in the COMMANDS table (whose
    entries name the sections they require, and a section may share a name)."""
    tree = ast.parse(source)
    table = {id(inner) for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and [ast.unparse(t) for t in node.targets] == ["COMMANDS"]
             for inner in ast.walk(node.value)}
    return [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and node.value in names and id(node) not in table]


def test_a_command_is_declared_once_in_the_cli_table():
    cli = importlib.import_module("gaussprop.cli")
    names = {"evolve", "audit", "moments", "walk", "compare"}
    assert set(cli.COMMANDS) == names
    source = Path(cli.__file__).read_text()
    assert _stray_command_names(source, names) == []
    assert all(list(_parameters(c.run)) == ["sc"] for c in cli.COMMANDS.values())
    assert "passed" not in cli.RunResult._fields
    main = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    run_errors = [h for node in ast.walk(main) if isinstance(node, ast.Try)
                  for h in node.handlers if "ValueError" in ast.unparse(h.type)]
    assert len(run_errors) == 1
    fresnel = importlib.import_module("gaussprop.fresnel")
    assert list(_parameters(fresnel.cancellation_check)) == ["d", "u", "x", "eps", "delta0"]


def test_the_guard_sees_a_command_named_outside_the_table():
    source = ('COMMANDS = {"walk": 1}\n'
              'def build(name):\n'
              '    if name == "walk":\n'
              '        return COMMANDS["walk"]\n')
    assert _stray_command_names(source, {"walk"}) == ["walk", "walk"]


def _lock_protocol(tree: ast.Module) -> list:
    """Lines that build a threading.Lock or RLock, or declare a name nonlocal."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Nonlocal)
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("Lock", "RLock"))]


def test_the_guard_sees_a_lock_protocol():
    tree = ast.parse("lock = threading.Lock()\ndef f():\n    nonlocal n\n"
                     "    local = threading.local()\nr = threading.RLock()\n")
    assert _lock_protocol(tree) == [1, 3, 5]


def test_the_walk_shares_its_buffer_without_a_lock():
    walk = importlib.import_module("gaussprop.walk")
    tree = ast.parse(Path(walk.__file__).read_text())
    assert _lock_protocol(tree) == []
    assert not [node for node in ast.walk(tree) if isinstance(node, ast.Try)]


def _thread_builders(tree: ast.Module) -> list:
    """The names this module builds threads or their queues with: a call of
    Thread or ThreadPoolExecutor, or an import of queue."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("Thread", "ThreadPoolExecutor"):
                found.append(name)
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name == "queue"]
        elif isinstance(node, ast.ImportFrom) and node.module == "queue":
            found.append("queue")
    return sorted(found)


def test_the_guard_sees_a_hand_made_thread():
    tree = ast.parse("import queue\nfrom queue import SimpleQueue\nt = threading.Thread(target=f)\n"
                     "pool = ThreadPoolExecutor(2)\nlocal = threading.local()\n")
    assert _thread_builders(tree) == ["Thread", "ThreadPoolExecutor", "queue", "queue"]


def test_every_thread_runs_on_the_standard_pool():
    package = Path(gaussprop.__file__).parent
    found = {p.stem: names for p in sorted(package.glob("*.py"))
             if (names := _thread_builders(ast.parse(p.read_text())))}
    assert found == {"propagate": ["ThreadPoolExecutor", "ThreadPoolExecutor"]}


def test_importing_the_package_loads_no_module():
    """Each name is imported from the module that defines it: the package
    root re-exports nothing, so importing it runs no module."""
    root = str(Path(gaussprop.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    probe = ("import sys, gaussprop; "
             "print([m for m in sys.modules if m.startswith('gaussprop.')], "
             "[name for name in vars(gaussprop) if not name.startswith('__')])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.split() == ["[]", "[]"]


def _unreached(sources: dict, kept) -> list:
    """Public top-level functions and classes of the sources (module -> text)
    that no other definition and no module-level statement names, by Name or
    attribute; an import alone, or a definition naming itself, does not count.
    Names in kept are reached from outside."""
    defined, users = [], {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = (module, node.name)
                if not node.name.startswith("_"):
                    defined.append(owner)
            for inner in ast.walk(node):
                name = (inner.id if isinstance(inner, ast.Name)
                        else inner.attr if isinstance(inner, ast.Attribute) else None)
                if name is not None:
                    users.setdefault(name, set()).add(owner)
    return [f"{module}.{name}" for module, name in defined
            if name not in kept and not users.get(name, set()) - {(module, name)}]


def test_the_guard_sees_an_unreached_definition():
    sources = {"a": "def used():\n    pass\ndef orphan(n):\n    return orphan(n - 1)\n"
                    "def _private():\n    pass\nclass Kept:\n    pass\n",
               "b": "from .a import orphan\nSTEP = used\n"}
    assert _unreached(sources, {"Kept"}) == ["a.orphan"]


def test_every_public_definition_is_reached_by_a_command_or_a_criterion():
    """No code that only a unit test reaches: every public top-level function
    and class is named by another definition or at module level in the
    package, or is imported by an acceptance criterion."""
    package = Path(gaussprop.__file__).parent
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    acceptance = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    kept = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("gaussprop") for alias in node.names}
    assert {"audit", "cli", "kernel", "propagate"} <= set(sources)
    assert {"phase_freedom_check", "fresnel_moments", "density_stepper"} <= kept
    assert _unreached(sources, kept) == []


def test_the_moment_pairs_share_one_entry_point_reached_from_the_cli():
    """moments hands every (D, eps) pair to fresnel.pair_moments at once; its
    delta0 is the scenario's, so no setting picks the shared ladder."""
    fresnel = importlib.import_module("gaussprop.fresnel")
    assert list(_parameters(fresnel.pair_moments)) == ["orders", "pairs", "delta0"]
    package = Path(gaussprop.__file__).parent
    sources = {p.stem: p.read_text() for p in sorted(package.glob("*.py"))}
    assert "fresnel.pair_moments" not in _unreached(sources, set())
    del sources["cli"]
    assert "fresnel.pair_moments" in _unreached(sources, set())
