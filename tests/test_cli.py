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

from gaussprop import cli
from gaussprop.scenario import ScenarioError, parse_scenario

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


@pytest.mark.parametrize("delta0,code,step", [
    (0.001, 3, "32"), (0.009, 3, "3.56"), (0.011, 0, None)])
def test_a_delta0_the_nodes_cannot_resolve_exits_three(delta0, code, step, tmp_path, capsys):
    """A small delta0 widens the window until the 100,000 nodes alias the chirp
    at its edge: the ladder would print garbage as a failed moment gate."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"name": "tiny",
                                "moments": {"pairs": [[1.0, 0.1]], "delta0": delta0}}))
    out = tmp_path / "out"
    assert cli.main(["moments", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if step is None:
        assert err == "" and (out / "tiny_moments.csv").exists()
    else:
        assert f"phase step {step} rad > pi at the window edge" in err
        assert not out.exists()


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


# sha256 of the walk_default outputs, re-recorded when the sampler drew from one
# Philox stream keyed by the seed in place of one stream per particle, and the
# Gaussian law's CDF came from math.erfc in place of scipy.special.ndtr.
# (sample_mean, sample_variance, l1_distance) went
#   seed 7:  (1.003858, 2.036681, 0.026255) -> (0.988906, 1.993278, 0.023770)
#   seed 11: (1.004970, 1.970889, 0.025256) -> (0.985387, 2.042418, 0.024377)
# Re-recorded again when an affine-drift walk advanced each block by one weighted
# sum over each row in place of the step loop; only rounding moved:
#   seed 7:  (0.9889061255423545, 1.9932780401926942, 0.023769696008043885)
#         -> (0.9889061255423541, 1.9932780401926942, 0.023769696008043885)
#   seed 11: (0.9853872619948867, 2.04241754379752, 0.02437729421005512)
#         -> (0.9853872619948862, 2.0424175437975194, 0.02437729421005512)
# and every bin's observed density is unchanged; the bin edges moved with the mean.
WALK_DEFAULT_SHA256 = {
    (): ("11a91b026174d0c08773dc3db3a8dee5ea45ed435ac0a98151f4af6cd227fe00",
         "2f41515fc4e52bae4705875c0887bb2defb69b7503c2ca340f160cc72c85102f"),
    ("--seed", "11"): ("360a26b75fc7230cb808f822eaa049e74e70eb999eb78e635916dee0a9cbf8cb",
                       "11aaa6ac9741f2c3405aeb06b536d6a8564df2a29d50d3509c58c675056e25a3"),
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
    # re-recorded when compare took the exact Gaussian state as its reference
    # for a quadratic Hamiltonian instead of 2,000 CN steps: the errors are
    # 1.7325e-2, 8.653e-3, 4.313e-3 and 2.142e-3 (slope 0.985 -> 1.005), and
    # the summary gained reference and local_slopes, with eps_ref null
    ("compare", "compare_default"): (
        0, "20a0f241416ffe7780f69f84192e332f6a7a4b022d3b89102d3096ee7789a347",
        "81752f97b36dc7d06bd9846b20e8943597c45dd6ca3f5110f11812437deab556"),
    ("evolve", "harmonic"): (
        0, "a12c45a527d046f1d8f9f4efbe96bfe4ea823a76d719cd56f38acf00bfd95c45",
        "2be1279b05ea646a81780bfe0af94d5f0c8f77c3c7b5861ace538727a9ec830b"),
    ("evolve", "free_packet"): (
        0, "ee07922be799200a402546d7a43aa6a34f5c74d9999f7c295d7babd538ac95a1",
        "b2a484191825e4e46489ad3a557dc149af007c1b2f4772c6a0d7bac8fed0e89a"),
    # re-recorded when the monomials became exact products and a ladder
    # derived its three rungs from one complex exponential: each quadrature
    # value moved by <= 2.7e-11 of its closed form, the exit codes did not
    ("moments", "moments_default"): (
        0, "1f595e42337770f9e77c6649dc1a10b80531d05e19bbcac92340ae8466adf911",
        "33a7208981e309261572951315c5dce0fc4dbeded545a961b5349d302a7ff1e0"),
    ("moments", "moments_fail"): (
        1, "123ae9d9c877d0bf30dafab574d564225d6f298c13e718d1a6f397e40e1821af",
        "d29fb92d2191cec517a3b373bb98009435350d78bca524e903fd2000c120d0b9"),
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
# oracle.
OU_WALK = {"name": "ou", "spec": {"d": 1.0, "u": {"kind": "linear", "slope": -0.5}},
           "schedule": {"eps": 0.02, "n_steps": 100}, "seed": 3,
           "walk": {"n_particles": 10000, "x0": 1.0, "bins": 40}}
# sha256 of (csv, json), re-recorded when the sampler drew from one Philox
# stream keyed by the seed: (sample_mean, sample_variance, l1_distance) went
#   (0.370661, 0.854107, 0.037600) -> (0.345697, 0.875991, 0.030755)
# Re-recorded again when the affine walk advanced each block by one weighted sum
# over each row; only rounding moved:
#   (0.34569673993325284, 0.8759909651012496, 0.0307554519075835)
#   -> (0.3456967399332525, 0.8759909651012492, 0.030755451907584254)
OU_WALK_SHA256 = ("6ed4a4cd559c4f014f8eeafbddc1bc8080016d60314322bd8f837218038b913b",
                  "d61baac37c19a2eb2aa1b62f4b40566415353124c930bcd76dc2deded5da48c3")


def test_a_walk_whose_drift_growth_overflows_exits_three(tmp_path, capsys):
    """u = 5x at eps 0.5 grows the walk by 3.5^2000: refused before any draw,
    with no warning (the suite turns warnings into errors) and no output."""
    path = tmp_path / "growing.json"
    path.write_text(json.dumps({**OU_WALK, "name": "growing",
                                "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 5.0}},
                                "schedule": {"eps": 0.5, "n_steps": 2000}}))
    out = tmp_path / "out"
    assert cli.main(["walk", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the drift's growth overflows") and "(1 + 5 eps)^2000" in err
    assert not out.exists()


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
    ('{%s, "walk": {"bins": 10}}' % WALK_KEYS, "walk: missing required key 'n_particles'"),
], ids=("seed-2**64", "walk.x0-1e400", "packet.x0-401-digits", "packet.x0-minus-401-digits",
        "n_particles-1e15", "bins-1e15", "n_steps-1e12", "n_particles-9999", "no-n_particles"))
def test_walk_scenario_out_of_range_exits_two_naming_the_key(text, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["walk", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"^error: scenario\.{re.escape(key)}(:|$)", err, re.M)
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


# run in a fresh interpreter: the commands that neither solve nor transform,
# and a walk with a constant drift, must not import scipy; those that do load
# only its LAPACK and pocketfft extensions
LAZY_SCIPY = """
import sys
from gaussprop import cli

scenarios, ou_walk, out = sys.argv[1:]
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert cli.main(["moments", f"{scenarios}/moments_default.json", "--out", out]) == 0
print("moments:", scipy_modules())
assert cli.main(["walk", f"{scenarios}/walk_default.json", "--out", out]) == 0
print("walk_default:", scipy_modules())
assert cli.main(["audit", f"{scenarios}/variants_audit.json", "--out", out]) == 0
print("audit:", scipy_modules())
for command, path in (("evolve", f"{scenarios}/free_packet.json"),
                      ("compare", f"{scenarios}/compare_default.json"), ("walk", ou_walk)):
    assert cli.main([command, path, "--out", out]) == 0
print("evolve, compare, walk:", scipy_modules())
flapack = sys.modules["scipy.linalg._flapack"]
pocketfft = sys.modules["scipy.fft._pocketfft.pypocketfft"]
import scipy.fft, scipy.linalg
print("scipy.linalg shares the extension:", scipy.linalg.lapack._flapack is flapack)
print("scipy.fft shares the extension:", scipy.fft._pocketfft.basic.pfft is pocketfft)
"""

EXTENSIONS = "['scipy.fft._pocketfft.pypocketfft', 'scipy.linalg._flapack']"


def test_scipy_is_imported_only_by_the_commands_that_solve(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    ou_walk = tmp_path / "ou.json"
    ou_walk.write_text(json.dumps(OU_WALK))
    run = subprocess.run([sys.executable, "-c", LAZY_SCIPY, str(SCENARIOS), str(ou_walk),
                          str(tmp_path)], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "moments: []" in lines
    assert "walk_default: []" in lines  # the Gaussian law's CDF is math.erfc
    # the chirp-z steps load the pocketfft extension alone
    assert "audit: ['scipy.fft._pocketfft.pypocketfft']" in lines
    # the CN, Cayley and drift-diffusion solves load the LAPACK extension
    # alone: neither scipy.linalg, scipy.fft nor scipy._lib is imported
    assert f"evolve, compare, walk: {EXTENSIONS}" in lines
    assert "scipy.linalg shares the extension: True" in lines  # never a second copy
    assert "scipy.fft shares the extension: True" in lines


# a fresh interpreter whose first solves and transforms are compare's rungs,
# marched on four threads at once: each extension is loaded once, alone
RACING_SCIPY = """
import importlib.machinery, os, sys, time
from gaussprop import cli, propagate

dirs = propagate._extension_dirs
propagate._extension_dirs = lambda name: time.sleep(0.2) or dirs(name)  # let every rung get there
loads = []
exec_module = importlib.machinery.ExtensionFileLoader.exec_module
def counted(self, module):
    loads.append(module.__name__)
    exec_module(self, module)
importlib.machinery.ExtensionFileLoader.exec_module = counted
os.sched_getaffinity = lambda pid: set(range(4))
scenarios, out = sys.argv[1:]
assert cli.main(["compare", f"{scenarios}/compare_default.json", "--out", out]) == 0
print("compare:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
      loads.count("scipy.fft._pocketfft.pypocketfft"), loads.count("scipy.linalg._flapack"))
flapack = sys.modules["scipy.linalg._flapack"]
import scipy.linalg
print("scipy.linalg shares the extension:", scipy.linalg.lapack._flapack is flapack)
"""


def test_compare_on_threads_loads_the_lapack_extension_once(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", RACING_SCIPY, str(SCENARIOS), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert f"compare: {EXTENSIONS} 1 1" in lines
    assert "scipy.linalg shares the extension: True" in lines


def test_compare_scenario(tmp_path):
    assert _run("compare", "compare_default.json", tmp_path) == 0
    summary = json.loads((tmp_path / "compare_default_compare.json").read_text())
    assert summary["passed"] is True
    lo, hi = summary["slope_band"]
    assert lo <= summary["slope"] <= hi
    assert summary["l2_errors"] == sorted(summary["l2_errors"], reverse=True)
    assert summary["reference"] == "exact"
    assert summary["eps_ref"] is None  # the CN fallback's step, unused here
    assert len(summary["local_slopes"]) == len(summary["eps_ladder"]) - 1
    assert all(lo <= s <= hi for s in summary["local_slopes"])


SINE_COMPARE = {"name": "sine", "grid": {"x_min": -10.0, "x_max": 10.0, "n": 256},
                "packet": {"sigma0": 1.0, "k0": 0.5},
                "spec": {"d": 1.0, "u": {"kind": "sine", "amplitude": 0.3, "wavenumber": 0.5}},
                "schedule": {"eps_ladder": [0.1, 0.05]}, "method": "spectral",
                "compare": {"t_final": 0.5}}


def test_compare_falls_back_to_cn_outside_the_quadratic_class(tmp_path, capsys):
    """A sine drift has no closed-form state: the CN march is the reference."""
    path = tmp_path / "sine.json"
    path.write_text(json.dumps(SINE_COMPARE))
    assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sine_compare.json").read_text())
    assert summary["reference"] == "cn"
    assert summary["eps_ref"] == pytest.approx(0.01)  # the smallest rung / 5
    assert "against the eps=0.01 CN reference" in capsys.readouterr().out


# a chirp-z dense ladder whose rungs from the 2nd on cannot resolve the phase
FAILING_LADDER = {"name": "ladder", "grid": {"x_min": -12.0, "x_max": 12.0, "n": 512},
                  "packet": {"sigma0": 1.0, "k0": 0.5},
                  "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.3}},
                  "schedule": {"eps_ladder": [0.4, 0.1, 0.08, 0.05]}, "method": "dense",
                  "compare": {"t_final": 0.8}}


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("data,code,err", [
    (None, 0, ""), (SINE_COMPARE, 0, ""),
    (FAILING_LADDER, 3, "error: aborted at step 0: dense step cannot resolve the kernel "
                        "phase: phase step 3.472 rad vs pi (unresolved; eps >= 0.1105 "
                        "recommended)\n"),
], ids=("compare_default", "sine-cn", "failing-ladder"))
def test_threaded_and_serial_compare_agree(data, code, err, tmp_path, monkeypatch, capsys):
    """compare marches its runs side by side: exit code, error and outputs are
    those of marching them one after another, the first failing rung's."""
    path = SCENARIOS / "compare_default.json"
    if data is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(data))
    seen = []
    for cpus in (1, 4):
        _set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["compare", str(path), "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        seen.append({f.name: f.read_bytes() for f in out.glob("*")} if code != 3 else None)
    assert seen[0] == seen[1] and (code == 3 or len(seen[0]) == 2)


def test_compare_marches_matrix_rungs_one_at_a_time(tmp_path, monkeypatch):
    """Off the chirp-z class each dense rung builds an n x n matrix, so those
    rungs are marched serially: threads would hold two at once."""
    data = {**SINE_COMPARE, "grid": {"x_min": -10.0, "x_max": 10.0, "n": 512},
            "schedule": {"eps_ladder": [0.4, 0.2]}, "method": "dense",
            "compare": {"t_final": 0.8}}
    path = tmp_path / "sine.json"
    path.write_text(json.dumps(data))
    peaks = []
    for cpus in (1, 4):
        _set_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]


def test_compare_exits_three_when_the_exact_state_reaches_the_edges(tmp_path, capsys):
    """A narrow free packet spreads past a small grid by t_final."""
    data = {**COMPARE_BASE, "packet": {"sigma0": 0.3},
            "schedule": {"eps_ladder": [0.5, 0.25]}, "compare": {"t_final": 5.0}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(data))
    assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "state has not decayed at the grid edges" in err
    assert "aborted at step" not in err  # the reference, before any ladder step


@pytest.mark.parametrize("c,message", [
    (-15.0, "state has not decayed at the grid edges"),
    (-20.0, "the exact state at time 40 overflows"),  # its closed form is nan
    (-50.0, "the exact state at time 40 overflows"),  # a square overflows
    (-500.0, "the exact state at time 40 overflows"),  # cosh overflows
], ids=("c-15", "c-20", "c-50", "c-500"))
def test_compare_exits_three_when_an_inverted_oscillator_spreads_the_packet(
        c, message, tmp_path, capsys):
    """b = c x^2 with c < 0 (D = 1) widens the packet like cosh(sqrt(-2 c) t)
    until its exact state leaves the grid, then overflows the floats."""
    data = {"name": "inverted", "grid": {"x_min": -20.0, "x_max": 20.0, "n": 4096},
            "packet": {"sigma0": 1.5}, "spec": {"d": 1.0, "b": {"kind": "quadratic", "c": c}},
            "schedule": {"eps_ladder": [0.4, 0.2, 0.1, 0.05]}, "method": "spectral",
            "compare": {"t_final": 40.0}}
    path = tmp_path / "inverted.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["compare", str(path), "--out", str(out)]) == 3
    assert message in capsys.readouterr().err
    assert not out.exists()


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


def test_out_naming_a_file_exits_two(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    assert _run("walk", "walk_default.json", out) == 2
    err = capsys.readouterr().err
    assert "error: cannot write outputs" in err
    assert "Traceback" not in err
    assert out.read_text() == "not a directory" and not list(tmp_path.rglob("*.csv"))


def test_scenario_name_must_be_a_bare_file_name(tmp_path, capsys):
    """The name stems the output names, so it could escape --out."""
    out = tmp_path / "out"
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"name": "../escaped", "moments": {"pairs": [[1.0, 0.1]]}}))
    assert cli.main(["moments", str(path), "--out", str(out)]) == 2
    assert "scenario.name: must be a bare file name" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob("escaped*"))


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


def _refuse_constant(literal):
    raise ValueError(f"{literal} is not JSON")


@pytest.mark.parametrize("command,scenario,code", SHIPPED,
                         ids=[name[:-5] for _, name, _ in SHIPPED])
def test_shipped_scenario_exit_code(command, scenario, code, tmp_path):
    """Each shipped run exits with its code and writes a summary in strict JSON:
    no Infinity or NaN, which the scenario loader itself refuses."""
    assert _run(command, scenario, tmp_path) == code
    summary = (tmp_path / f"{scenario[:-5]}_{command}.json").read_text()
    json.loads(summary, parse_constant=_refuse_constant)


AUDIT_BASE = {
    "name": "x",
    "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.4}},
    "audit": {"packets": [{}],
              "variants": [{"variant": "admissible", "expect": "conserves"}]},
}


def test_an_audit_at_round_off_writes_a_null_order(tmp_path, capsys):
    """A free packet's drift stays at round-off, so its fitted order is inf:
    the CSV keeps inf, the JSON summary writes null."""
    data = {**AUDIT_BASE, "grid": {"x_min": -8.0, "x_max": 8.0, "n": 1024},
            "spec": {"d": 1.0}, "schedule": {"eps_ladder": [0.32, 0.16, 0.08, 0.04]}}
    path = tmp_path / "free.json"
    path.write_text(json.dumps(data))
    assert cli.main(["audit", str(path), "--out", str(tmp_path)]) == 0
    assert "audit: PASS" in capsys.readouterr().out
    summary = json.loads((tmp_path / "x_audit.json").read_text(),
                         parse_constant=_refuse_constant)
    variant = summary["variants"][0]
    assert variant["verdict"] == "conserves"
    assert variant["packets"][0]["fitted_order"] is None
    rows = (tmp_path / "x_audit.csv").read_text().splitlines()[1:]
    assert [row.split(",")[6] for row in rows] == ["inf"] * 4


@pytest.mark.parametrize("spec,variants,key", [
    (AUDIT_BASE["spec"], [{"variant": "no_t", "im_d": 0.3, "expect": "drifts"}],
     "audit.variants[0]"),
    (None, AUDIT_BASE["audit"]["variants"], "audit"),
], ids=("im_d-without-complex_d", "no-spec-section"))
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
    # a variant is refused before the ladder's divisibility is checked
    ("compare", {**COMPARE_BASE, "spec": {"d": 1.0, "variant": "no_t"},
                 "schedule": {"eps_ladder": [0.1, 0.03]}, "compare": {"t_final": 1.0}},
     "only the admissible variant maps to a Hamiltonian"),
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
        "compare-variant", "evolve-d_field-linear", "audit-d_field-negative"))
def test_a_run_time_requirement_exits_two_naming_the_key(command, data, message, tmp_path,
                                                        capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert "aborted at step" not in err  # a spec fault, raised before any step
    assert not list(tmp_path.glob("*.csv"))


# every section, so each command can run it; a free spectral compare is exact
# at every rung, so its slope is ~0 and the band [-1, 1] holds it
ALL_SECTIONS = {"name": "small", "grid": {"x_min": -10.0, "x_max": 10.0, "n": 256},
                "packet": {}, "spec": {"d": 1.0},
                "schedule": {"eps": 0.05, "n_steps": 2, "eps_ladder": [0.1, 0.05]},
                "compare": {"t_final": 0.5, "slope_band": [-1.0, 1.0]},
                "walk": {"n_particles": 10000, "bins": 20}, "seed": 3}
# the value each option overrides with; the scenario has method dense and seed 3
OVERRIDES = {"method": "spectral", "seed": "5"}
TAKES = {("evolve", "method"), ("compare", "method"), ("walk", "seed")}


@pytest.mark.parametrize("option", list(OVERRIDES))
@pytest.mark.parametrize("command", ["evolve", "audit", "moments", "walk", "compare"])
def test_options_belong_to_their_commands(command, option, tmp_path, capsys):
    """--seed is walk's, --method is evolve's and compare's; an override is
    what the summary records."""
    path = tmp_path / "small.json"
    path.write_text(json.dumps(ALL_SECTIONS))
    out = tmp_path / "out"
    code = cli.main([command, str(path), "--out", str(out), f"--{option}", OVERRIDES[option]])
    if (command, option) not in TAKES:
        assert code == 2
        assert f"unrecognized arguments: --{option}" in capsys.readouterr().err
        assert not out.exists()
        return
    assert code == 0
    summary = json.loads((out / f"small_{command}.json").read_text())
    assert str(summary[option]) == OVERRIDES[option]


def _gate_case(tmp_path, name):
    if name == "moments_fail":
        return "moments", SCENARIOS / "moments_fail.json"
    if name == "audit_wrong_expect":  # a free packet conserves; drifts is expected
        command, data = "audit", {
            **AUDIT_BASE, "grid": GRID_16, "spec": {"d": 1.0},
            "schedule": {"eps_ladder": [0.32, 0.16, 0.08, 0.04]},
            "audit": {"packets": [{}],
                      "variants": [{"variant": "admissible", "expect": "drifts"}]}}
    else:  # compare_default's slope is 1.005
        command, data = "compare", json.loads((SCENARIOS / "compare_default.json").read_text())
        data["compare"]["slope_band"] = [1.5, 2.0]
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(data))
    return command, path


@pytest.mark.parametrize("name", ["audit_wrong_expect", "moments_fail", "compare_slope_band"])
def test_a_failed_gate_exits_one_and_records_it(name, tmp_path, capsys):
    command, path = _gate_case(tmp_path, name)
    assert cli.main([command, str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == f"{command}: FAIL"
    (summary,) = tmp_path.glob(f"*_{command}.json")
    assert json.loads(summary.read_text())["passed"] is False


@pytest.mark.parametrize("command,scenario", [
    ("evolve", "free_packet.json"), ("walk", "walk_default.json")])
def test_an_ungated_command_prints_no_verdict(command, scenario, tmp_path, capsys):
    assert _run(command, scenario, tmp_path) == 0
    out = capsys.readouterr().out
    assert "PASS" not in out and "FAIL" not in out
    assert "passed" not in json.loads((tmp_path / f"{scenario[:-5]}_{command}.json").read_text())
