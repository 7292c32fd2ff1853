"""End-to-end runs of the command-line interface on the shipped scenarios."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gaussprop import ScenarioError, cli, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _run(command, scenario, out, *extra):
    return cli.main([command, str(SCENARIOS / scenario), "--out", str(out), *extra])


def test_evolve_free_packet(tmp_path):
    assert _run("evolve", "free_packet.json", tmp_path) == 0
    csv = (tmp_path / "free_packet_evolve.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == ("step,time,norm,mean_position,position_variance,"
                        "l2_error_vs_reference")
    assert len(lines) == 202  # header + initial state + 200 steps
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)
    summary = json.loads((tmp_path / "free_packet_evolve.json").read_text())
    assert summary["final_norm"] == pytest.approx(1.0, abs=1e-9)
    assert summary["final_l2_error_vs_reference"] < 1e-3
    assert summary["max_abs_norm_drift"] < 1e-9


def test_audit_scenario_verdicts(tmp_path, capsys):
    assert _run("audit", "variants_audit.json", tmp_path) == 0
    assert "audit: PASS" in capsys.readouterr().out
    rows = (tmp_path / "variants_audit_audit.csv").read_text().splitlines()[1:]
    assert len(rows) == 4 * 3 * 4  # variants x packets x ladder rungs
    summary = json.loads((tmp_path / "variants_audit_audit.json").read_text())
    verdicts = {v["variant"]: v["verdict"] for v in summary["variants"]}
    assert verdicts["admissible"] == "conserves"
    assert verdicts["no_t"] == "drifts"


def test_moments_gate_passes(tmp_path, capsys):
    assert _run("moments", "moments_default.json", tmp_path) == 0
    assert "moments: PASS" in capsys.readouterr().out
    rows = (tmp_path / "moments_default_moments.csv").read_text().splitlines()[1:]
    assert len(rows) == 5  # four moment orders plus the cancellation row


def test_moments_gate_failure_exits_one(tmp_path, capsys):
    assert _run("moments", "moments_fail.json", tmp_path) == 1
    assert "moments: FAIL" in capsys.readouterr().out


def test_walk_reports_the_expected_law(tmp_path):
    assert _run("walk", "walk_default.json", tmp_path) == 0
    summary = json.loads((tmp_path / "walk_default_walk.json").read_text())
    assert summary["expected_mean"] == pytest.approx(1.0)
    assert summary["expected_variance"] == pytest.approx(2.0)
    assert summary["l1_distance"] < 0.05
    rows = (tmp_path / "walk_default_walk.csv").read_text().splitlines()[1:]
    assert len(rows) == 50


def test_walk_seed_override(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert _run("walk", "walk_default.json", a, "--seed", "7") == 0
    assert _run("walk", "walk_default.json", b, "--seed", "7") == 0
    assert _run("walk", "walk_default.json", c, "--seed", "8") == 0
    same = (a / "walk_default_walk.csv").read_bytes()
    assert same == (b / "walk_default_walk.csv").read_bytes()
    assert same != (c / "walk_default_walk.csv").read_bytes()


# sha256 of the walk_default outputs, recorded from the per-particle Philox sampler
WALK_DEFAULT_SHA256 = {
    (): ("6e9cbc9f9bc8beffaa440e37ec7ce6e34b85f12e73028b8773346c3e2a4389e3",
         "d4f38c837a87ee892e69b72f99055d0244e030c2dba1955db7139f5c6576e6f5"),
    ("--seed", "11"): ("a13af8b72620aef642a7c2b32b8a0430eaeb92670acf87991325ac8953fad3f4",
                       "2c51a47a3d6ae60cd667442f82b5c474801089f224d537a6ea2c8edc50a398e1"),
}


@pytest.mark.parametrize("extra", list(WALK_DEFAULT_SHA256), ids=("scenario-seed", "seed-11"))
def test_walk_outputs_are_unchanged(extra, tmp_path):
    assert _run("walk", "walk_default.json", tmp_path, *extra) == 0
    digests = tuple(hashlib.sha256((tmp_path / f"walk_default_walk.{ext}").read_bytes())
                    .hexdigest() for ext in ("csv", "json"))
    assert digests == WALK_DEFAULT_SHA256[extra]


# sha256 of (csv, json) and the exit code, recorded before the tridiagonal solves
# were factored once per evolution and the moment orders shared their chirps
SHIPPED_SHA256 = {
    ("compare", "compare_default"): (
        0, "74796e2a13603f6a7ba7e7aabb91ec0e9abcab11ae124587acb85ee82727ad99",
        "750fbe9e9f13e18d7cd559f429bc55fa9401395a2c40128542ac475bac51500a"),
    ("evolve", "harmonic"): (
        0, "a12c45a527d046f1d8f9f4efbe96bfe4ea823a76d719cd56f38acf00bfd95c45",
        "2be1279b05ea646a81780bfe0af94d5f0c8f77c3c7b5861ace538727a9ec830b"),
    ("evolve", "free_packet"): (
        0, "ee07922be799200a402546d7a43aa6a34f5c74d9999f7c295d7babd538ac95a1",
        "b2a484191825e4e46489ad3a557dc149af007c1b2f4772c6a0d7bac8fed0e89a"),
    ("moments", "moments_default"): (
        0, "47b80731d1765bd1bde2a80f46e5b37566e81beb59889518f8db0b4092f65669",
        "cbd13a1905042f0b5167f940b99bcd476744e230641463f59ed20a5efbca6049"),
    ("moments", "moments_fail"): (
        1, "22a58be545103fca23f9a635a36c91354a69a2a76dca45237a94b097d2cda3dd",
        "2ecca16a932f1730cf35dde51593a7595691fa2dbc2d94d0ee34a9d5c1d6cecb"),
    # recorded before scipy was imported lazily and the n x n matrix was bounded;
    # complex_d_audit is the only shipped run that applies the kernel matrix
    ("audit", "variants_audit"): (
        0, "0b6667b623c7978cbe6ca1e6526137b60fec786d1604345ab5adb5b582bc3a60",
        "e74613819a11a23018f8dcb87f3016c98d8e7d0cb3d4655fde8ed5b50a280b55"),
    ("audit", "complex_d_audit"): (
        0, "fd195ee392d81d4e830a1d876a46b2b8917b3c8abbf9e1fc203b627f58b901d1",
        "e780e2d3cd052b469aad324ddb55316b7e29e0490fc5d61673c23a450ba0835d"),
}


# An Ornstein-Uhlenbeck walk: the drift varies with x, so every step re-evaluates
# u at the particles and the histogram is checked against the drift-diffusion
# oracle.  sha256 of (csv, json) recorded before the time argument was removed
# from the field and kernel signatures.
OU_WALK = {"name": "ou", "spec": {"d": 1.0, "u": {"kind": "linear", "slope": -0.5}},
           "schedule": {"eps": 0.02, "n_steps": 100}, "seed": 3,
           "walk": {"n_particles": 10000, "x0": 1.0, "bins": 40}}
OU_WALK_SHA256 = ("94e0d38d140eff6dfdfd162c7a948f0355b4a89c5e6a60fd624fd468b7f968c0",
                  "acb9040e10ff63d5a8e54483c26bc220dfc12290ef1b8cdd2355aba9a782c6aa")


def test_ou_walk_outputs_are_unchanged(tmp_path):
    path = tmp_path / "ou.json"
    path.write_text(json.dumps(OU_WALK))
    assert cli.main(["walk", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "ou_walk.json").read_text())["reference"] == "diffusion_oracle"
    digests = tuple(hashlib.sha256((tmp_path / f"ou_walk.{ext}").read_bytes()).hexdigest()
                    for ext in ("csv", "json"))
    assert digests == OU_WALK_SHA256


@pytest.mark.parametrize("command,name", list(SHIPPED_SHA256),
                         ids=[f"{c}-{n}" for c, n in SHIPPED_SHA256])
def test_shipped_outputs_are_unchanged(command, name, tmp_path):
    """The CN oracle, the spectral Cayley drift and the moment ladder, to the byte."""
    code = _run(command, f"{name}.json", tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / f"{name}_{command}.{ext}").read_bytes())
                    .hexdigest() for ext in ("csv", "json"))
    assert (code, *digests) == SHIPPED_SHA256[command, name]


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_walk_seed_option_out_of_range_exits_two(seed, tmp_path, capsys):
    assert _run("walk", "walk_default.json", tmp_path, "--seed", seed) == 2
    err = capsys.readouterr().err
    assert "seed must be in [0, 18446744073709551615]" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


WALK_KEYS = '"name": "x", "spec": {"d": 1.0}, "schedule": {"eps": 0.01, "n_steps": 10}'


@pytest.mark.parametrize("text,key", [
    ('{%s, "walk": {"n_particles": 10000}, "seed": %d}' % (WALK_KEYS, 2 ** 64), "seed"),
    ('{%s, "walk": {"n_particles": 10000, "x0": 1e400}}' % WALK_KEYS, "walk.x0"),
    ('{%s, "walk": {"n_particles": 10000}, "packet": {"x0": %d}}' % (WALK_KEYS, 10 ** 400),
     "packet.x0"),
    ('{%s, "walk": {"n_particles": 10000}, "packet": {"x0": %d}}' % (WALK_KEYS, -10 ** 400),
     "packet.x0"),
    ('{%s, "walk": {"n_particles": %d}}' % (WALK_KEYS, 10 ** 15), "walk.n_particles"),
    ('{%s, "walk": {"n_particles": 10000, "bins": %d}}' % (WALK_KEYS, 10 ** 15), "walk.bins"),
    ('{"name": "x", "spec": {"d": 1.0}, "schedule": {"eps": 0.01, "n_steps": %d}, '
     '"walk": {"n_particles": 10000}}' % 10 ** 12, "schedule.n_steps"),
    ('{%s, "walk": {"n_particles": 9999}}' % WALK_KEYS, "walk.n_particles"),
], ids=("seed-2**64", "walk.x0-1e400", "packet.x0-401-digits", "packet.x0-minus-401-digits",
        "n_particles-1e15", "bins-1e15", "n_steps-1e12", "n_particles-9999"))
def test_walk_scenario_out_of_range_exits_two_naming_the_key(text, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["walk", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"scenario.{key}:" in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("spec", [
    {"d": 1.0, "u": {"kind": "sine", "amplitude": 0.3, "wavenumber": 1.0}},
    {"d": 1.0, "u": {"kind": "quadratic", "c": 0.01}},
    {"d": 1.0, "variant": "complex_d", "im_d": 0.1},
], ids=("sine-u", "quadratic-u", "complex_d"))
def test_kernel_matrix_beyond_its_bound_exits_two_before_allocating(spec, tmp_path, capsys):
    """At n = 2^17 the phase check passes, and the n x n matrix would be 256 GiB."""
    data = {"name": "x", "grid": {"x_min": -20.0, "x_max": 20.0, "n": 2 ** 17},
            "packet": {}, "spec": spec, "schedule": {"eps": 0.01, "n_steps": 1},
            "method": "dense"}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        code = cli.main(["evolve", str(path), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "grid.n = 131072 needs a 131072 x 131072 kernel matrix" in err
    assert "grid.n <= 8192" in err
    assert "Traceback" not in err
    assert peak < 64 * 2 ** 20  # O(n) states and fields only
    assert not list(tmp_path.glob("*.csv"))


# run in a fresh interpreter: the commands that never solve must not import scipy
LAZY_SCIPY = """
import sys
from gaussprop import cli

scenarios, out = sys.argv[1:]
for command, name in (("moments", "moments_default"), ("audit", "variants_audit")):
    assert cli.main([command, f"{scenarios}/{name}.json", "--out", out]) == 0
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
assert cli.main(["evolve", f"{scenarios}/free_packet.json", "--out", out]) == 0
print("scipy.linalg loaded:", "scipy.linalg" in sys.modules)
"""


def test_scipy_is_imported_only_by_the_commands_that_solve(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", LAZY_SCIPY, str(SCENARIOS), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "scipy modules: []" in lines           # moments and audit never load scipy
    assert "scipy.linalg loaded: True" in lines   # evolve's CN reference loads it to solve


def test_compare_scenario(tmp_path):
    assert _run("compare", "compare_default.json", tmp_path) == 0
    summary = json.loads((tmp_path / "compare_default_compare.json").read_text())
    assert summary["passed"] is True
    lo, hi = summary["slope_band"]
    assert lo <= summary["slope"] <= hi
    assert summary["l2_errors"] == sorted(summary["l2_errors"], reverse=True)


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run("moments", "moments_default.json", out) == 0
    for name in ("moments_default_moments.csv", "moments_default_moments.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_out_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("GAUSSPROP_OUT", str(tmp_path))
    assert cli.main(["walk", str(SCENARIOS / "walk_default.json")]) == 0
    assert (tmp_path / "walk_default_walk.csv").exists()


def test_custom_output_names(tmp_path):
    scenario = {
        "name": "tiny",
        "moments": {"pairs": [[1.0, 0.1]]},
        "outputs": {"csv": "a.csv", "json": "b.json"},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(scenario))
    assert cli.main(["moments", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "a.csv").exists() and (tmp_path / "b.json").exists()


def test_missing_file_is_a_scenario_error(tmp_path):
    assert cli.main(["evolve", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_is_a_scenario_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["evolve", str(path)]) == 2


def test_unknown_key_is_rejected(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(json.dumps({"name": "x", "bogus": 1}))
    assert cli.main(["evolve", str(path)]) == 2


def test_command_without_its_section_is_rejected(tmp_path):
    assert _run("walk", "moments_default.json", tmp_path) == 2


def test_unresolvable_dense_phase_exits_three(tmp_path):
    rc = _run("evolve", "free_packet.json", tmp_path, "--method", "dense")
    assert rc == 3


def test_help_and_usage_exit_codes(capsys):
    assert cli.main(["--help"]) == 0
    capsys.readouterr()
    assert cli.main([]) == 2
    assert cli.main(["evolve"]) == 2


BAD_SCENARIOS = [
    {"name": "x", "packet": {"sigma0": -1.0}},
    {"name": "x", "spec": {"d": 0.0}},
    {"name": "x", "spec": {"variant": "complex_d"}},
    {"name": "x", "schedule": {"eps_ladder": [0.1]}},
    {"name": "x", "schedule": {"eps_ladder": [0.1, 0.1]}},
    {"name": "x", "schedule": {"eps_ladder": [0.1, -0.2]}},
    {"name": "x", "spec": {"u": {"kind": "triangle"}}},
    {"name": "x", "seed": 1.5},
    {"name": ""},
]


@pytest.mark.parametrize("data", BAD_SCENARIOS)
def test_parse_scenario_rejects_bad_input(data):
    with pytest.raises(ScenarioError):
        parse_scenario(data)


OUT_OF_RANGE = [
    ('{"name": "x", "schedule": {"eps": -1}}', "schedule.eps"),
    ('{"name": "x", "schedule": {"n_steps": -1}}', "schedule.n_steps"),
    ('{"name": "x", "compare": {"t_final": 1.0, "eps_ref": -1}}', "compare.eps_ref"),
    ('{"name": "x", "moments": {"pairs": [[1.0, 0.1]], "delta0": -1}}', "moments.delta0"),
    ('{"name": "x", "moments": {"pairs": [[1.0, 0.1]], "samples": -1}}', "moments.samples"),
    ('{"name": "x", "moments": {"pairs": [[1.0, 0.1]], "samples": 19999}}', "moments.samples"),
    ('{"name": "x", "moments": {"pairs": [[1.0, 0.1]], "samples": %d}}' % 10 ** 15,
     "moments.samples"),
    ('{"name": "x", "packet": {"x0": NaN}}', "packet.x0"),
    ('{"name": "x", "schedule": {"eps": Infinity}}', "schedule.eps"),
    ('{"name": "x", "schedule": {"eps_ladder": [0.1, -Infinity]}}', "schedule.eps_ladder"),
    ('{"name": "x", "grid": {"x_min": -1, "x_max": 1, "n": %d}}' % 10 ** 15, "grid.n"),
]


@pytest.mark.parametrize("text,key", OUT_OF_RANGE)
def test_out_of_range_value_exits_two_naming_the_key(text, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    assert f"scenario.{key}:" in capsys.readouterr().err


SHIPPED = [
    ("evolve", "free_packet.json", 0),
    ("evolve", "harmonic.json", 0),
    ("audit", "variants_audit.json", 0),
    ("audit", "complex_d_audit.json", 0),
    ("moments", "moments_default.json", 0),
    ("moments", "moments_fail.json", 1),
    ("walk", "walk_default.json", 0),
    ("compare", "compare_default.json", 0),
]


def test_every_shipped_scenario_has_an_expected_exit_code():
    assert sorted(name for _, name, _ in SHIPPED) == sorted(
        path.name for path in SCENARIOS.glob("*.json"))


@pytest.mark.parametrize("command,scenario,code", SHIPPED,
                         ids=[name[:-5] for _, name, _ in SHIPPED])
def test_shipped_scenario_exit_code(command, scenario, code, tmp_path):
    assert _run(command, scenario, tmp_path) == code


AUDIT_BASE = {
    "name": "x",
    "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.4}},
    "audit": {"packets": [{}],
              "variants": [{"variant": "admissible", "expect": "conserves"}]},
}


@pytest.mark.parametrize("spec,variants,key", [
    (AUDIT_BASE["spec"], [{"variant": "no_t", "im_d": 0.3, "expect": "drifts"}],
     "audit.variants[0]"),
    ({**AUDIT_BASE["spec"], "order": "zero"},
     [{"variant": "admissible", "expect": "conserves"},
      {"variant": "no_t", "expect": "drifts"}],
     "audit.variants[1]"),
    (None, AUDIT_BASE["audit"]["variants"], "audit"),
], ids=("im_d-without-complex_d", "no_t-with-zero-order", "no-spec-section"))
def test_audit_variant_specs_are_built_at_parse_time(spec, variants, key, tmp_path,
                                                     capsys):
    data = {**AUDIT_BASE, "audit": {**AUDIT_BASE["audit"], "variants": variants}}
    if spec is None:
        del data["spec"]
    else:
        data["spec"] = spec
    with pytest.raises(ScenarioError, match=rf"^scenario\.{re.escape(key)}: "):
        parse_scenario(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["audit", str(path), "--out", str(tmp_path)]) == 2
    assert f"scenario.{key}:" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


GRID_16 = {"x_min": -8.0, "x_max": 8.0, "n": 1024}
COMPARE_BASE = {"name": "x", "grid": {"x_min": -10.0, "x_max": 10.0, "n": 256}, "packet": {},
                "spec": {"d": 1.0}, "method": "spectral"}


@pytest.mark.parametrize("command,data,message", [
    ("audit", {**AUDIT_BASE, "grid": GRID_16, "schedule": {"eps_ladder": [0.32, 0.16, 0.08]}},
     "scenario.schedule.eps_ladder: need at least 4"),
    ("compare", {**COMPARE_BASE, "schedule": {"eps_ladder": [0.1, 0.03]},
                 "compare": {"t_final": 1.0, "eps_ref": 0.01}},
     "scenario.schedule.eps_ladder: eps=0.03 does not divide"),
    ("compare", {**COMPARE_BASE, "schedule": {"eps_ladder": [0.1, 0.05]},
                 "compare": {"t_final": 1.0, "eps_ref": 0.3}},
     "scenario.compare.eps_ref: eps=0.3 does not divide"),
    ("compare", {**COMPARE_BASE, "schedule": {"eps_ladder": [0.1, 0.07]},
                 "compare": {"t_final": 1.0}},
     "scenario.schedule.eps_ladder: eps=0.014 does not divide"),
    # D(x) <= 0 on the grid is refused when the dense step is built, not divided
    # by (D = 0 at x = 0) or audited as a negative diffusivity
    ("evolve", {"name": "x", "grid": GRID_16, "packet": {"sigma0": 0.8},
                "spec": {"variant": "x_dependent_d", "d_field": {"kind": "linear", "slope": 1}},
                "schedule": {"eps": 0.2, "n_steps": 2}},
     "spec.d_field must be > 0 on the grid, but its minimum there is D = -8"),
    ("audit", {**AUDIT_BASE, "grid": GRID_16, "schedule": {"eps_ladder": [0.32, 0.16, 0.08, 0.04]},
               "audit": {"packets": [{}], "variants": [
                   {"variant": "x_dependent_d", "d_field": {"kind": "constant", "c": -1},
                    "expect": "conserves"}]}},
     "spec.d_field must be > 0 on the grid, but its minimum there is D = -1"),
], ids=("audit-3-rungs", "compare-eps_ladder", "compare-eps_ref", "compare-default-eps_ref",
        "evolve-d_field-linear", "audit-d_field-negative"))
def test_a_run_time_requirement_exits_two_naming_the_key(command, data, message, tmp_path,
                                                        capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))
