"""Scenario cells through ``run``, ``scenario sweep``, ``--trace-out`` and describe."""

from __future__ import annotations

import json

from repro.harness.cli import main as cli_main


def test_describe_scenarios_lists_parameters(capsys):
    assert cli_main(["describe", "scenarios"]) == 0
    out = capsys.readouterr().out
    assert "syn-false-sharing" in out
    assert "parameters:" in out and "seed=" in out


def test_run_scenario_same_seed_twice_is_byte_identical(capsys):
    args = [
        "run", "syn-false-sharing",
        "--seed", "7", "--scale", "testing", "--json",
    ]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["protocol"] == "java_pf"
    assert payload["page_faults"] > 0
    # the seed reaches the generator: another seed, another script
    assert cli_main(args[:3] + ["8"] + args[4:]) == 0
    assert capsys.readouterr().out != first


def test_run_scenario_pattern_args(capsys):
    assert (
        cli_main(
            ["run", "syn-hot-lock", "--scale", "testing",
             "--pattern-arg", "acquisitions_per_thread=2", "--verify"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "monitor_enters" in out


def test_run_rejects_bad_pattern_args(capsys):
    assert cli_main(["run", "syn-hot-lock", "--pattern-arg", "nope=1"]) == 2
    assert "no parameter" in capsys.readouterr().err
    assert (
        cli_main(
            ["run", "syn-hot-lock", "--pattern-arg",
             "acquisitions_per_thread=many"]
        )
        == 2
    )
    assert "expected a int value" in capsys.readouterr().err
    assert cli_main(["run", "syn-hot-lock", "--pattern-arg", "x"]) == 2
    assert "KEY=VALUE" in capsys.readouterr().err


def test_run_scenario_trace_out(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    assert (
        cli_main(
            ["run", "syn-migratory", "--scale", "testing",
             "--trace-out", str(trace)]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "trace record(s)" in out
    lines = trace.read_text().splitlines()
    assert lines
    records = [json.loads(line) for line in lines]
    assert all({"time", "kind", "label"} <= set(r) for r in records)
    assert records[0]["time"] == 0.0


def test_run_trace_out_works_for_paper_apps(tmp_path, capsys):
    trace = tmp_path / "pi.jsonl"
    assert (
        cli_main(["run", "pi", "--scale", "testing", "--nodes", "2",
                  "--trace-out", str(trace)])
        == 0
    )
    assert trace.exists() and trace.read_text().strip()
    capsys.readouterr()


def test_scenario_sweep_grid(tmp_path, capsys):
    output = tmp_path / "grid.json"
    assert (
        cli_main(
            ["scenario", "sweep", "syn-false-sharing", "--nodes", "1,2",
             "--scale", "testing", "-o", str(output), "--json"]
        )
        == 0
    )
    capsys.readouterr()
    payload = json.loads(output.read_text())
    assert payload["node_counts"] == [1, 2]
    cell = payload["scenarios"]["syn-false-sharing"]
    # the recorded grid exposes the java_ic vs java_pf page-fault gap
    # (JSON object keys are strings after the round trip)
    assert cell["page_fault_gap"]["2"] > 0


def test_scenario_sweep_rejects_bad_nodes(capsys):
    assert cli_main(["scenario", "sweep", "--nodes", "two"]) == 2
    assert "comma-separated integers" in capsys.readouterr().err


def test_describe_section_filter(capsys):
    assert cli_main(["describe", "scenarios"]) == 0
    out = capsys.readouterr().out
    assert "syn-uniform" in out and "cluster presets" not in out

    assert cli_main(["describe", "benchmarks"]) == 0
    out = capsys.readouterr().out
    assert "pi" in out and "syn-" not in out

    assert cli_main(["describe"]) == 0
    out = capsys.readouterr().out
    assert "cluster presets" in out and "scenarios:" in out
