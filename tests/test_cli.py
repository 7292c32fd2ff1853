"""End-to-end runs of the command-line interface on the shipped scenarios."""

import json
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
    ('{"name": "x", "packet": {"x0": NaN}}', "packet.x0"),
    ('{"name": "x", "schedule": {"eps": Infinity}}', "schedule.eps"),
    ('{"name": "x", "schedule": {"eps_ladder": [0.1, -Infinity]}}', "schedule.eps_ladder"),
]


@pytest.mark.parametrize("text,key", OUT_OF_RANGE)
def test_out_of_range_value_exits_two_naming_the_key(text, key, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    assert f"scenario.{key}:" in capsys.readouterr().err
