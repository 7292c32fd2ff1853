"""End-to-end runs of the command-line interface on the shipped scenarios."""

import hashlib
import importlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaussprop import cli
from gaussprop.propagate import STEPPERS, ValidityError, march, split_stepper
from gaussprop.reference import exact_state, has_exact_state
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
    assert summary["reference"] == "exact"
    # the spectral step is exact for a free packet: only the grid's error is left
    assert summary["final_l2_error_vs_reference"] <= 1e-8
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


# moments_default's pair and cancellation, then two later pairs rescaled from
# the first pair's ladder
THREE_PAIRS = {"name": "three_pairs",
               "moments": {"pairs": [[1.0, 0.1], [0.7, 0.13], [1.9, 0.07]], "tolerance": 1e-6,
                           "cancellation": {"k": 1.0, "x": 0.5, "eps": 0.1}}}
THREE_PAIRS_SHA256 = ("e4509de4751b69fb3b45d8458e7726cc1bb1db2fd40fd93b1ef505d8ba2d4e2d",
                      "c970038727eab39b093576f713fccaf253ea0f8d087d07806470c3439565ca6b")


def test_a_later_pair_leaves_the_first_pair_s_rows_as_they_were(tmp_path):
    path = tmp_path / "three_pairs.json"
    path.write_text(json.dumps(THREE_PAIRS))
    assert cli.main(["moments", str(path), "--out", str(tmp_path)]) == 0
    assert _run("moments", "moments_default.json", tmp_path) == 0
    rows = (tmp_path / "three_pairs_moments.csv").read_text().splitlines()
    alone = (tmp_path / "moments_default_moments.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * 4 + 1
    assert rows[:5] + rows[-1:] == alone  # the header, the first pair, the cancellation
    digests = tuple(hashlib.sha256((tmp_path / f"three_pairs_moments.{ext}").read_bytes())
                    .hexdigest() for ext in ("csv", "json"))
    assert digests == THREE_PAIRS_SHA256


# the benchmark's audit moments at seed 41: six pairs and the cancellation
BENCH_MOMENTS = {"name": "bench_moments",
                 "moments": {"pairs": [[1.618234, 0.196917], [1.566169, 0.094922],
                                       [1.792301, 0.060546], [0.927352, 0.12346],
                                       [1.004522, 0.060945], [1.351034, 0.101651]],
                             "tolerance": 1e-6,
                             "cancellation": {"k": 1.0, "x": 0.5, "eps": 0.1}}}


@pytest.mark.parametrize("delta0,ladders,code", [(None, 2, 0), (0.25, 7, 1)],
                         ids=("auto", "explicit"))
def test_moments_integrates_one_ladder_per_regulator(delta0, ladders, code, tmp_path,
                                                     monkeypatch):
    """The default regulator integrates the first pair and the cancellation, and
    rescales the five later pairs (one ladder per pair took 7); an explicit
    delta0 integrates every pair (0.25 is too coarse to pass the gate)."""
    fresnel = importlib.import_module("gaussprop.fresnel")
    calls = []
    integrate = fresnel.ladder_integral
    monkeypatch.setattr(fresnel, "ladder_integral",
                        lambda *args: calls.append(args) or integrate(*args))
    moments = {**BENCH_MOMENTS["moments"], **({} if delta0 is None else {"delta0": delta0})}
    path = tmp_path / "bench_moments.json"
    path.write_text(json.dumps({"name": "bench_moments", "moments": moments}))
    assert cli.main(["moments", str(path), "--out", str(tmp_path)]) == code
    assert len(calls) == ladders
    summary = json.loads((tmp_path / "bench_moments_moments.json").read_text())
    assert summary["n_checks"] == 4 * 6 + 1
    assert summary["passed"] == (summary["max_rel_error"] <= 1e-6) == (delta0 is None)


@pytest.mark.parametrize("pairs,delta0,check", [
    ([[1.0, 0.1], [1e150, 1e100]], None, "moment_2 at D = 1e+150, eps = 1e+100"),
    ([[1.0, 0.1], [1e150, 1e100]], 0.25, "moment_2 at D = 1e+150, eps = 1e+100"),
    ([[1.0, 0.1], [1e200, 1e100]], None, "moment_2 at D = 1e+200, eps = 1e+100"),
    ([[1e150, 1e100]], None, "moment_2 at D = 1e+150, eps = 1e+100"),
], ids=("rescaled", "explicit", "closed-form-overflow", "first"))
def test_a_moment_past_float64_exits_three_before_any_output(pairs, delta0, check, tmp_path,
                                                            capsys):
    """max(max_rel, nan) drops a nan: a nan moment once printed PASS.  No
    warning either; the suite turns warnings into errors."""
    moments = {"pairs": pairs, **({} if delta0 is None else {"delta0": delta0})}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "moments": moments}))
    out = tmp_path / "out"
    assert cli.main(["moments", str(path), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {check} leaves float64: quadrature ")
    assert not out.exists()


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
    # the summary gained reference and local_slopes, with eps_ref null.
    # Re-recorded when the spectral step took the drift as its gauge phase
    # instead of a Cayley solve: the errors went 1.7325e-2, 8.653e-3,
    # 4.313e-3, 2.142e-3 (slope 1.005) -> 1.7171e-2, 8.564e-3, 4.277e-3,
    # 2.137e-3 (slope 1.002)
    ("compare", "compare_default"): (
        0, "44e2483bfdea1297f66c45ed000feb0de0e0d6dd70b09dd227bb68fb9e32b7d8",
        "726e966442624f443dcc232fd9c49af0ec9e49c5a82d165f8832a321d33ee282"),
    # re-recorded with compare_default: the final L2 distance to the CN
    # reference went 9.807e-3 -> 1.002e-2.  Both evolve pins re-recorded when
    # evolve took the exact state as its reference instead of CN at the
    # kernel's eps, and its summary gained "reference": "exact".  The final
    # L2 distance went 1.002e-2 -> 8.564e-3 (harmonic) and 3.235e-5 ->
    # 4.643e-9 (free_packet); the kernel's states and norms did not move
    ("evolve", "harmonic"): (
        0, "e02f10896a2fc9c02a16966f3e88ea926e23ec60682e004808f920093c250701",
        "0e71986e42c5934ca2595e113e728e6dc352d7b4f3a8c81e86edf45793433ac0"),
    ("evolve", "free_packet"): (
        0, "22065f4da2920f3afc89b65f881bbaf9667c6f8e8301161439b79dacd9e592f6",
        "9882ce4d4819f5ba34443da12dffcaf5a4b5fea38bc24e4c7a3d13c1d6c78cb1"),
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


def test_a_non_affine_walk_that_blows_up_exits_three(tmp_path, capsys):
    """u = -0.05 x^2 sends a particle from 0.2 past float64 within 3,000 steps:
    refused before the histogram, with no warning and no output."""
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps({**OU_WALK, "name": "blowup",
                                "spec": {"d": 0.7, "u": {"kind": "quadratic", "c": -0.05}},
                                "schedule": {"eps": 0.01, "n_steps": 3000}, "seed": 1,
                                "walk": {"n_particles": 10000, "x0": 0.2}}))
    out = tmp_path / "out"
    assert cli.main(["walk", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: the walk leaves float64: \d+ of 10000 positions are not "
                        r"finite after 3000 steps of eps = 0.01\n", err)
    assert not out.exists()


def test_a_walk_the_oracle_cannot_weigh_exits_three(tmp_path, capsys):
    """u = 5x at eps 0.5 for 50 steps stays finite near 1e27, past the affine
    guard; the drift-diffusion oracle's face weights exp(u dx/(D/2)) do not."""
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({**OU_WALK, "name": "steep",
                                "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 5.0}},
                                "schedule": {"eps": 0.5, "n_steps": 50}}))
    out = tmp_path / "out"
    assert cli.main(["walk", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: the drift-diffusion oracle cannot weigh its faces: ")
    assert "where exp overflows" in err and "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("spec,x0,sd", [
    ({"d": 1e-300, "u": {"kind": "constant", "c": 0.0}}, 0.5, "0"),  # every position is x0
    ({"d": 1e308, "u": {"kind": "sine", "amplitude": 0.3, "wavenumber": 1.0}}, 0.0, "inf"),
])
def test_a_walk_spread_that_cannot_be_binned_exits_three(spec, x0, sd, tmp_path, capsys):
    """A sample sd of 0 collapses the bin edges and one past float64 makes them
    infinite: refused before any histogram, with no warning and no output."""
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"name": "spread", "spec": spec,
                                "schedule": {"eps": 0.05, "n_steps": 4}, "seed": 7,
                                "walk": {"n_particles": 10000, "x0": x0}}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["walk", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: the walk's spread cannot be binned: its sample sd is {sd} ")
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
def test_shipped_outputs_are_unchanged(command, name, tmp_path, monkeypatch):
    """The exact reference, the spectral gauge step and the moment ladder, to the byte,
    at 1, 2 and 4 CPUs: compare's rungs march as one block at 1 and as lone rows at 4."""
    for cpus in (1, 2, 4):
        _set_cpus(monkeypatch, cpus)
        code = _run(command, f"{name}.json", tmp_path / str(cpus))
        digests = tuple(hashlib.sha256((tmp_path / str(cpus) / f"{name}_{command}.{ext}")
                                       .read_bytes()).hexdigest() for ext in ("csv", "json"))
        assert (code, *digests) == SHIPPED_SHA256[command, name], f"at {cpus} CPUs"


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
# only its pocketfft extension, and the walk's oracle its LAPACK extension too
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
assert cli.main(["evolve", f"{scenarios}/free_packet.json", "--out", out]) == 0
print("evolve:", scipy_modules())
for command, path in (("compare", f"{scenarios}/compare_default.json"), ("walk", ou_walk)):
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
    assert "evolve: ['scipy.fft._pocketfft.pypocketfft']" in lines  # no solve: no LAPACK
    # the drift-diffusion solves load the LAPACK extension alone:
    # neither scipy.linalg, scipy.fft nor scipy._lib is imported
    assert f"evolve, compare, walk: {EXTENSIONS}" in lines
    assert "scipy.linalg shares the extension: True" in lines  # never a second copy
    assert "scipy.fft shares the extension: True" in lines


# a fresh interpreter whose first transforms are compare's rungs, marched on
# four threads at once: pocketfft is loaded once, alone, and LAPACK not at all
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
pocketfft = sys.modules["scipy.fft._pocketfft.pypocketfft"]
import scipy.fft
print("scipy.fft shares the extension:", scipy.fft._pocketfft.basic.pfft is pocketfft)
"""


def test_compare_on_threads_loads_only_pocketfft_once(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", RACING_SCIPY, str(SCENARIOS), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert "compare: ['scipy.fft._pocketfft.pypocketfft'] 1 0" in lines
    assert "scipy.fft shares the extension: True" in lines


def test_compare_scenario(tmp_path):
    assert _run("compare", "compare_default.json", tmp_path) == 0
    summary = json.loads((tmp_path / "compare_default_compare.json").read_text())
    assert summary["passed"] is True
    lo, hi = summary["slope_band"]
    assert lo <= summary["slope"] <= hi
    assert summary["l2_errors"] == sorted(summary["l2_errors"], reverse=True)
    assert summary["reference"] == "exact"
    assert summary["eps_ref"] is None  # the split fallback's step, unused here
    assert len(summary["local_slopes"]) == len(summary["eps_ladder"]) - 1
    assert all(lo <= s <= hi for s in summary["local_slopes"])


SINE_COMPARE = {"name": "sine", "grid": {"x_min": -10.0, "x_max": 10.0, "n": 256},
                "packet": {"sigma0": 1.0, "k0": 0.5},
                "spec": {"d": 1.0, "u": {"kind": "sine", "amplitude": 0.3, "wavenumber": 0.5}},
                "schedule": {"eps_ladder": [0.1, 0.05]}, "method": "spectral",
                "compare": {"t_final": 0.5}}


def test_compare_falls_back_to_the_split_march_outside_the_quadratic_class(tmp_path, capsys):
    """A sine drift has no closed-form state: the Strang split march is the
    reference, and the first-order ladder fits slope 1 against it."""
    path = tmp_path / "sine.json"
    path.write_text(json.dumps(SINE_COMPARE))
    assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sine_compare.json").read_text())
    assert summary["reference"] == "split"
    assert summary["eps_ref"] == pytest.approx(0.01)  # the smallest rung / 5
    assert abs(summary["slope"] - 1.0) <= 0.02
    assert "against the eps=0.01 split-step reference" in capsys.readouterr().out


def test_the_split_reference_is_an_explicit_strang_march(tmp_path, monkeypatch):
    """compare's reference, and evolve's at every step, is the Strang march
    written out: half phase, free, half phase in the gauge frame
    chi = exp(-i Lambda) psi.  Both march 50 steps of 0.01 here."""
    refs = []
    distance = cli._l2_distance
    # compare passes one state, evolve a block of rows
    monkeypatch.setattr(cli, "_l2_distance", lambda a, b, dx:
                        refs.extend(np.array(b, ndmin=2)) or distance(a, b, dx))
    evolve = {**SINE_COMPARE, "schedule": {"eps": 0.01, "n_steps": 50}}
    for command, data in (("compare", SINE_COMPARE), ("evolve", evolve)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(data))
        assert cli.main([command, str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "sine_evolve.json").read_text())["reference"] == "split"
    sc = parse_scenario(SINE_COMPARE)
    grid, spec, eps = sc.grid, sc.spec, 0.01
    x = grid.x
    gauge = spec.u.antiderivative(x) / spec.d
    half = np.exp(-0.5j * eps * (spec.b(x) - spec.u(x) ** 2 / (2.0 * spec.d)))
    free = np.exp(-0.5j * spec.d * eps * grid.k ** 2)
    chis = [np.exp(-1j * gauge) * sc.packet.build(grid).psi]
    for _ in range(50):  # t_final 0.5
        chis.append(half * np.fft.ifft(free * np.fft.fft(half * chis[-1])))
    assert len(refs) == 2 + 51  # compare's two rungs, then evolve's start and 50 steps
    for ref, chi in zip(refs, chis[-1:] * 2 + chis, strict=True):
        assert np.max(np.abs(ref - np.exp(1j * gauge) * chi)) <= 1e-12


def test_the_dense_kernel_is_second_order_per_step_against_the_split_reference(tmp_path):
    """One dense step of a sine drift, with no closed-form state, sits
    O(eps^2) from one Strang step of the same eps."""
    errors = []
    for eps in (0.4, 0.2):
        data = {**SINE_COMPARE, "grid": {"x_min": -10.0, "x_max": 10.0, "n": 512},
                "schedule": {"eps": eps, "n_steps": 1}, "method": "dense"}
        path = tmp_path / "sine.json"
        path.write_text(json.dumps(data))
        assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "sine_evolve.json").read_text())
        assert summary["reference"] == "split"
        errors.append(summary["final_l2_error_vs_reference"])
    order = np.log(errors[0] / errors[1]) / np.log(2.0)
    assert order == pytest.approx(2.0, abs=0.1)


def test_evolve_holds_one_state_at_a_time():
    """500 steps of harmonic at n = 4096 against the exact state: a stored
    trajectory of either stream would peak at ~32 MiB."""
    sc = parse_scenario({**json.loads((SCENARIOS / "harmonic.json").read_text()),
                         "schedule": {"eps": 0.01, "n_steps": 500}})
    tracemalloc.start()
    try:
        result = cli._run_evolve(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.summary["reference"] == "exact" and len(result.rows) == 501
    rows = sys.getsizeof(result.rows) + sum(
        sys.getsizeof(row) + sum(map(sys.getsizeof, row)) for row in result.rows)
    assert peak < 2 * 2 ** 20 + rows


# a chirp-z dense ladder whose rungs from the 2nd on cannot resolve the phase
FAILING_LADDER = {"name": "ladder", "grid": {"x_min": -12.0, "x_max": 12.0, "n": 512},
                  "packet": {"sigma0": 1.0, "k0": 0.5},
                  "spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.3}},
                  "schedule": {"eps_ladder": [0.4, 0.1, 0.08, 0.05]}, "method": "dense",
                  "compare": {"t_final": 0.8}}


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _row_by_row(sc):
    """evolve's rows as they were computed before blocks: one kernel state and its
    reference at a time, moments and the L2 distance written out for one state."""
    grid, dx, x = sc.grid, sc.grid.dx, sc.grid.x
    state0 = sc.packet.build(grid)
    kernel = march(state0, sc.n_steps, STEPPERS[sc.method](grid, sc.eps, sc.spec))
    if has_exact_state(sc.spec):
        p = sc.packet
        pairs = ((s, exact_state(grid, sc.spec, p.x0, p.sigma0, p.k0, s.time)) for s in kernel)
    elif sc.spec.is_admissible():
        pairs = zip(kernel, march(state0, sc.n_steps, split_stepper(grid, sc.eps, sc.spec)))
    else:
        pairs = ((s, None) for s in kernel)
    rows = []
    for i, (state, ref) in enumerate(pairs):
        w = np.abs(state.psi) ** 2
        total = np.sum(w) * dx
        mean = float(np.sum(x * w) * dx / total)
        var = float(np.sum((x - mean) ** 2 * w) * dx / total)
        err = (float("nan") if ref is None
               else float(np.sqrt(np.sum(np.abs(state.psi - ref.psi) ** 2) * dx)))
        rows.append((i, state.time, float(total), mean, var, err))
    return rows


# n = 1024: blocks of K = 16 rows
EVOLVE_BASE = {"name": "blocks", "grid": {"x_min": -12.0, "x_max": 12.0, "n": 1024},
               "packet": {"sigma0": 1.0, "k0": 0.5}}
TRAP = {"kind": "quadratic", "c": 0.545}
EVOLVE_REFERENCES = {
    "exact": {"spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.3}, "b": TRAP},
              "method": "dense"},
    "split": {"spec": {**SINE_COMPARE["spec"], "b": TRAP}, "method": "spectral"},
    "none": {"spec": {"d": 1.0, "u": {"kind": "linear", "slope": 0.3}, "b": TRAP,
                      "variant": "no_t"}, "method": "dense"},
}


@pytest.mark.parametrize("reference", EVOLVE_REFERENCES)
@pytest.mark.parametrize("blocks,extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=("1", "K-1", "K", "K+1", "2K+3"))
def test_evolve_in_blocks_writes_the_row_by_row_bytes(reference, blocks, extra, tmp_path,
                                                      monkeypatch):
    """Rows computed a block behind, on a worker thread or on one CPU on the
    caller's, are those of the row-by-row loop to the byte, for a last block
    of every fill."""
    k = cli._BLOCK_BYTES // (16 * EVOLVE_BASE["grid"]["n"])
    data = {**EVOLVE_BASE, **EVOLVE_REFERENCES[reference],
            "schedule": {"eps": 0.1, "n_steps": blocks * k + extra}}
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(data))
    rows = _row_by_row(parse_scenario(data))
    csv = "\n".join(["step,time,norm,mean_position,position_variance,l2_error_vs_reference",
                     *map(cli._csv_line, rows)]) + "\n"
    outputs = []
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        assert cli.main(["evolve", str(path), "--out", str(tmp_path / str(cpus))]) == 0
        assert threading.active_count() == threads
        outputs.append([(tmp_path / str(cpus) / f"blocks_evolve.{ext}").read_bytes()
                        for ext in ("csv", "json")])
    assert outputs[0] == outputs[1]
    assert outputs[0][0].decode() == csv
    summary = json.loads(outputs[0][1])
    assert summary["reference"] == (None if reference == "none" else reference)
    assert summary["final_norm"] == rows[-1][2]
    assert summary["max_abs_norm_drift"] == max(abs(row[2] - rows[0][2]) for row in rows)
    assert summary["final_l2_error_vs_reference"] == (None if reference == "none"
                                                      else rows[-1][5])


# a free packet spreading to the edges of a small grid by step 20, in the 2nd block
SPREADING = {"name": "spreading", "grid": {"x_min": -8.0, "x_max": 8.0, "n": 1024},
             "packet": {"sigma0": 0.5}, "spec": {"d": 1.0},
             "schedule": {"eps": 0.05, "n_steps": 60}}
EDGE = "state has not decayed at the grid edges: edge/peak = "


@pytest.mark.parametrize("data,err", [
    ({**SPREADING, "method": "dense"}, f"error: {EDGE}2.902e-06 (need < 1.0e-06)\n"),
    ({**SPREADING, "method": "spectral"},
     f"error: aborted at step 19: {EDGE}1.870e-06 (need < 1.0e-06)\n"),
    ({**SPREADING, "spec": SINE_COMPARE["spec"], "method": "spectral"},
     f"error: aborted at step 20: {EDGE}2.080e-06 (need < 1.0e-06)\n"),
], ids=("exact-state-leaves", "kernel-fails-exact", "kernel-fails-split"))
def test_evolve_in_blocks_raises_the_first_failure_in_row_order(data, err, tmp_path,
                                                                monkeypatch, capsys):
    """The exact state at row 20 fails before the dense kernel does; the
    spectral kernel fails first at step 19 (20 with a sine drift).  Either
    way the error is the row-by-row loop's, no output is written and no
    thread is left running."""
    path = tmp_path / "spreading.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as exc:
        _row_by_row(parse_scenario(data))
    assert f"error: {exc.value}\n" == err
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        assert cli.main(["evolve", str(path), "--out", str(tmp_path / "out")]) == 3
        assert threading.active_count() == threads
        assert capsys.readouterr().err == err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=("K-1", "K", "K+1"))
def test_evolve_raises_a_step_error_at_a_block_boundary(extra, tmp_path, monkeypatch, capsys):
    """A step failing at K - 1 (a full block, then none), K or K + 1 exits 3
    naming its step, writes nothing and leaves no thread running."""
    k = cli._BLOCK_BYTES // (16 * EVOLVE_BASE["grid"]["n"])
    data = {**EVOLVE_BASE, **EVOLVE_REFERENCES["exact"],
            "schedule": {"eps": 0.1, "n_steps": 2 * k + 3}}
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps(data))
    stepper = STEPPERS["dense"]

    def failing_stepper(*args):
        step, steps = stepper(*args), itertools.count()

        def failing_step(state):
            if next(steps) == k + extra:
                raise ValidityError("injected")
            return step(state)

        return failing_step

    monkeypatch.setitem(STEPPERS, "dense", failing_stepper)
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        threads = threading.active_count()
        assert cli.main(["evolve", str(path), "--out", str(tmp_path / "out")]) == 3
        assert threading.active_count() == threads
        assert capsys.readouterr().err == f"error: aborted at step {k + extra}: injected\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data,code,err", [
    (None, 0, ""), (SINE_COMPARE, 0, ""),
    (FAILING_LADDER, 3, "error: aborted at step 0: dense step cannot resolve the kernel "
                        "phase: phase step 3.472 rad vs pi (unresolved; eps >= 0.1105 "
                        "recommended)\n"),
], ids=("compare_default", "sine-split", "failing-ladder"))
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
    """Off the chirp-z class each dense rung builds an n x n matrix (16 MiB at
    n = 1024), so a ladder of them holds one at a time: a third rung adds nothing
    to the traced peak of the first two, at one CPU or two.  A rung that kept its
    matrix past its run would add one matrix for each rung before the last."""
    path = tmp_path / "sine.json"
    for cpus in (1, 2):
        _set_cpus(monkeypatch, cpus)
        peaks = []
        for ladder in ([0.4, 0.2], [0.4, 0.2, 0.1]):
            path.write_text(json.dumps({
                **SINE_COMPARE, "grid": {"x_min": -10.0, "x_max": 10.0, "n": 1024},
                "schedule": {"eps_ladder": ladder}, "method": "dense",
                "compare": {"t_final": 0.8, "eps_ref": 0.04}}))
            tracemalloc.start()
            try:
                assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], cpus


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
    {"name": "x", "grid": {"x_min": -1e308, "x_max": 1e308, "n": 16}},  # dx = inf
    {"name": "x", "grid": {"x_min": 0.0, "x_max": 1e-320, "n": 16}},  # dx subnormal
]


@pytest.mark.parametrize("data", BAD_SCENARIOS)
def test_parse_scenario_rejects_bad_input(data):
    with pytest.raises(ScenarioError):
        parse_scenario(data)


def test_a_key_given_twice_exits_two_naming_the_key(tmp_path, capsys):
    """json would silently read the last value, here eps = 0.3."""
    path = tmp_path / "twice.json"
    path.write_text('{"name": "x", "grid": {"x_min": -8, "x_max": 8, "n": 256}, "packet": {}, '
                    '"spec": {"d": 1.0}, "schedule": {"eps": 0.2, "n_steps": 2, "eps": 0.3}}')
    assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: scenario: the key 'eps' is given twice in one object\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("x_min,x_max", ((-1e308, 1e308), (0.0, 1e-320)),
                         ids=("spacing-inf", "spacing-subnormal"))
def test_a_grid_spacing_past_float64_exits_two_naming_the_grid(x_min, x_max, tmp_path, capsys):
    """Finite bounds whose spacing overflows or leaves the normal range are the
    grid's fault, refused before any packet is built and with no warning."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"name": "x", "grid": {"x_min": x_min, "x_max": x_max, "n": 16},
                                "packet": {}, "spec": {"d": 1.0},
                                "schedule": {"eps": 0.1, "n_steps": 2}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: scenario.grid: grid spacing")


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


AUDIT_TWO = {**AUDIT_BASE, "grid": {"x_min": -8.0, "x_max": 8.0, "n": 1024},
             "schedule": {"eps_ladder": [0.32, 0.16, 0.08, 0.025]},
             "audit": {"packets": [{"sigma0": 0.5}, {"sigma0": 1.0}],
                       "variants": [{"variant": "admissible", "expect": "conserves"},
                                    {"variant": "no_t", "expect": "drifts"}]}}


@pytest.mark.parametrize("data,err", [
    (AUDIT_TWO, "error: variant admissible, eps=0.025, packet 1: dense step cannot resolve "
                "the kernel phase: phase step 4.639 rad vs pi (unresolved; eps >= 0.03691 "
                "recommended)\n"),
    ({**AUDIT_TWO, "audit": {**AUDIT_TWO["audit"], "packets": [{}, {"x0": 7.0}]}},
     f"error: scenario.audit.packets[1]: {EDGE}7.849e-01 (need < 1.0e-06)\n"),
], ids=("phase-floor", "packet-at-the-edge"))
def test_an_audit_that_exits_three_names_what_failed(data, err, tmp_path, capsys):
    """The wider packet, 1, is the first its rung's phase step cannot resolve, at the
    first variant; a packet centred near the grid edge is refused as it is built.
    Each error names its packet, a step's its variant and eps too; nothing is written."""
    path = tmp_path / "audit.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main(["audit", str(path), "--out", str(out)]) == 3
    assert capsys.readouterr().err == err
    assert not out.exists()


@pytest.mark.parametrize("command", ("evolve", "compare"))
def test_a_packet_at_the_edge_is_named(command, tmp_path, capsys):
    """A packet centred near the grid edge is refused as it is built, naming its key,
    as audit names its packets; nothing is written."""
    data = {**COMPARE_BASE, "grid": {"x_min": -8.0, "x_max": 8.0, "n": 256},
            "packet": {"x0": 7.0}, "schedule": {"eps": 0.01, "n_steps": 2,
                                               "eps_ladder": [0.1, 0.05]},
            "compare": {"t_final": 0.5}}
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main([command, str(path), "--out", str(out)]) == 3
    err = f"error: scenario.packet: {EDGE}8.027e-01 (need < 1.0e-06)\n"
    assert capsys.readouterr().err == err
    assert not out.exists()


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
COMPARE_WIDE = {**COMPARE_BASE, "grid": {"x_min": -20.0, "x_max": 20.0, "n": 256},
                "packet": {"sigma0": 1.5, "k0": 0.5}}


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
     "scenario.spec.variant: only the admissible variant maps to a Hamiltonian, got 'no_t'"),
    ("walk", {"name": "x", "spec": {"d": 1.0, "variant": "no_t"},
              "schedule": {"eps": 0.05, "n_steps": 2}, "walk": {"n_particles": 10000}},
     "scenario.spec.variant: sampling is defined for the admissible variant only, got 'no_t'"),
    ("evolve", {**COMPARE_BASE, "spec": {"d": 1.0, "variant": "no_t"},
                "schedule": {"eps": 0.05, "n_steps": 2}},
     "scenario.spec.variant: the spectral path assumes an admissible parameter set, "
     "got 'no_t', which must use the dense path"),
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
    # D = 5e-324 is finite and > 0, but the Hamiltonian's mass 1/D is not
    ("compare", {**COMPARE_BASE, "spec": {"d": 5e-324}, "schedule": {"eps_ladder": [0.1, 0.05]},
                 "compare": {"t_final": 1.0}},
     "error: mass must be finite and > 0, got inf"),
    # t_final / eps past float64
    ("compare", {**COMPARE_WIDE, "schedule": {"eps_ladder": [1e-300, 2e-300]},
                 "compare": {"t_final": 1e10}},
     "scenario.schedule.eps_ladder: compare.t_final=1e+10 / eps=2e-301 is not finite in "
     "float64"),
    # the default eps_ref, the smallest rung / 5, underflows to 0
    ("compare", {**COMPARE_WIDE, "schedule": {"eps_ladder": [1e-323, 2e-323]},
                 "compare": {"t_final": 1.0}},
     "scenario.schedule.eps_ladder: compare.t_final=1 / eps=0 is not finite in float64"),
    # rungs 1e-12 is no whole number of: 3 and 7 steps end at 9e-13 and 1.05e-12
    ("compare", {**COMPARE_BASE, "schedule": {"eps_ladder": [3e-13, 1.5e-13, 1e-13]},
                 "compare": {"t_final": 1e-12}},
     "scenario.schedule.eps_ladder: eps=3e-13 does not divide compare.t_final=1e-12"),
    # 10^9 steps: refused as schedule.n_steps past 2^15 is
    ("compare", {**COMPARE_WIDE, "schedule": {"eps_ladder": [1e-9, 2e-9]},
                 "compare": {"t_final": 1.0}},
     "scenario.schedule.eps_ladder: eps=2e-09 takes 500000000 steps to compare.t_final=1, "
     "past the 32768 a run may take"),
    # the split reference is marched, so its eps_ref is held to the same cap
    ("compare", {**SINE_COMPARE, "compare": {"t_final": 1.0, "eps_ref": 1e-5}},
     "scenario.compare.eps_ref: eps=1e-05 takes 100000 steps"),
], ids=("audit-3-rungs", "compare-eps_ladder", "compare-eps_ref", "compare-default-eps_ref",
        "compare-variant", "walk-variant", "evolve-spectral-variant", "evolve-d_field-linear",
        "audit-d_field-negative", "compare-infinite-mass", "compare-steps-overflow",
        "compare-eps_ref-underflow", "compare-small-t_final", "compare-steps-past-cap",
        "compare-split-eps_ref-past-cap"))
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
    else:  # compare_default's slope is 1.002
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
