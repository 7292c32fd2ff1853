"""tools/paired_bench.py with its git export and its perfbench run replaced:
the pairs alternate, and the summary reads medians, quartiles, wins and the
median's change against each metric's bound."""

import importlib.util
import json
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "paired_bench.py"
DECLARED = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "pass_frac", "unit": "ratio", "better": "higher", "bound": 0.01}]
# run_s of pair i for each side; pass_frac is 1.0 at the parent and 0.995 at the change
RUN_S = {"parent": (1.0, 1.2, 1.1, 1.3), "change": (1.3, 1.4, 1.0, 1.5)}


def _tool():
    spec = importlib.util.spec_from_file_location("paired_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _export(rev, dest):
    """The tree of rev: its name and the declared metrics."""
    os.makedirs(dest)
    Path(dest, "rev").write_text(rev)
    Path(dest, "BENCHMARK.json").write_text(json.dumps({"end_to_end": DECLARED}))


def test_the_pairs_alternate_and_a_change_past_its_bound_is_flagged(monkeypatch, capsys):
    tool, runs = _tool(), []

    def bench(tree, workload, seed):
        side = Path(tree, "rev").read_text()
        runs.append((side, workload, seed))
        return {"run_s": RUN_S[side][seed - 10], "pass_frac": 1.0 if side == "parent" else 0.995}

    monkeypatch.setattr(tool, "export", _export)
    monkeypatch.setattr(tool, "bench", bench)
    args = ["parent", "change", "--workload", "walk", "--pairs", "4", "--seed", "10"]
    assert tool.main(args) == 1
    assert runs == [("parent", "walk", 10), ("change", "walk", 10),
                    ("change", "walk", 11), ("parent", "walk", 11),
                    ("parent", "walk", 12), ("change", "walk", 12),
                    ("change", "walk", 13), ("parent", "walk", 13)]
    lines = {line.split()[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    # medians 1.15 and 1.35; exclusive quartiles of 1.0..1.3; only pair 3 is faster
    assert lines["run_s"] == ["run_s", "1.1500", "1.3500", "1.0250-1.2750", "1/4", "+17.4%",
                              "WORSE", "than", "the", "bound", "10%"]
    # a higher-is-better metric 0.5% lower: worse, but within its 1% bound
    assert lines["pass_frac"] == ["pass_frac", "1.0000", "0.9950", "1.0000-1.0000", "0/4",
                                  "-0.5%"]


def test_every_declared_workload_gets_a_table_and_any_flag_exits_one(monkeypatch, capsys):
    """No --workload: each workload BENCHMARK.json declares runs its pairs in
    turn, with a table of its own.  audit's run_s is 20% worse, past its 10% bound,
    while walk's is unchanged: the tool exits 1; with walk alone, 0."""
    tool, runs = _tool(), []

    def export(rev, dest):
        _export(rev, dest)
        Path(dest, "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": DECLARED, "workloads": [{"name": "audit"}, {"name": "walk"}]}))

    def bench(tree, workload, seed):
        side = Path(tree, "rev").read_text()
        runs.append((workload, side, seed))
        slower = 1.2 if workload == "audit" and side == "change" else 1.0
        return {"run_s": slower * (1.0 + 0.01 * seed), "pass_frac": 1.0}

    monkeypatch.setattr(tool, "export", export)
    monkeypatch.setattr(tool, "bench", bench)
    assert tool.main(["parent", "change", "--pairs", "2", "--seed", "1"]) == 1
    assert runs == [("audit", "parent", 1), ("audit", "change", 1),
                    ("audit", "change", 2), ("audit", "parent", 2),
                    ("walk", "parent", 1), ("walk", "change", 1),
                    ("walk", "change", 2), ("walk", "parent", 2)]
    tables = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith(("audit:", "walk:", "run_s"))]
    assert [line.split()[0] for line in tables] == ["audit:", "run_s", "walk:", "run_s"]
    assert "WORSE" in tables[1] and "WORSE" not in tables[3]
    assert tool.main(["parent", "change", "--workload", "walk", "--pairs", "2",
                      "--seed", "1"]) == 0
    runs.clear()
    assert tool.main(["parent", "change", "--workload", "walk", "--workload", "audit",
                      "--pairs", "2", "--seed", "1"]) == 1
    assert [workload for workload, _, _ in runs] == ["walk"] * 4 + ["audit"] * 4


def test_a_metric_whose_parent_spreads_past_its_bound_is_unresolved(monkeypatch, capsys):
    """The parent's run_s spreads 40% between its quartiles, past the 10% bound: a change
    of the same median is UNRESOLVED, one whose every run beats every parent run is not,
    and neither is flagged; pass_frac, which does not spread, is never UNRESOLVED."""
    tool = _tool()
    change_s = {"mixed": (1.2, 1.3, 1.2, 1.3), "faster": (0.9, 0.9, 0.9, 0.9)}

    def bench(tree, workload, seed):
        side = Path(tree, "rev").read_text()
        parent_s = (1.0, 1.5, 1.0, 1.5)[seed]
        return {"run_s": parent_s if side == "parent" else change_s[workload][seed],
                "pass_frac": 1.0}

    monkeypatch.setattr(tool, "export", _export)
    monkeypatch.setattr(tool, "bench", bench)
    for workload, unresolved in (("mixed", True), ("faster", False)):
        assert tool.main(["parent", "change", "--workload", workload, "--pairs", "4",
                          "--seed", "0"]) == 0
        lines = {line.split()[0]: line for line in capsys.readouterr().out.splitlines()}
        assert ("UNRESOLVED: the parent's spread 40.0% is wider than the bound 10%"
                in lines["run_s"]) == unresolved
        assert "WORSE" not in lines["run_s"]
        assert "UNRESOLVED" not in lines["pass_frac"]


def test_the_src_line_count_of_each_export_is_printed_first(monkeypatch, capsys):
    """Every .py file under src/, nested or not, counts its newlines as wc -l does;
    other files do not count.  The line comes before any table."""
    tool = _tool()
    sources = {"parent": {"pkg/a.py": "x = 1\ny = 2\n", "top.py": "z = 3\n"},
               "change": {"pkg/a.py": "x = 1\n", "pkg/deep/b.py": "\n" * 1_200,
                          "pkg/notes.txt": "not\ncounted\n"}}

    def export(rev, dest):
        _export(rev, dest)
        for name, text in sources[rev].items():
            Path(dest, "src", name).parent.mkdir(parents=True, exist_ok=True)
            Path(dest, "src", name).write_text(text)

    monkeypatch.setattr(tool, "export", export)
    monkeypatch.setattr(tool, "bench", lambda tree, workload, seed: {"run_s": 1.0,
                                                                      "pass_frac": 1.0})
    assert tool.main(["parent", "change", "--workload", "walk", "--pairs", "2",
                      "--seed", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "src/: parent 3 lines -> change 1,201 lines (+1,198)"
