"""The shape of the ``hyperion-sim`` surface: its verbs, the one ``run`` path,
``describe --json``, output-file errors, ``--nodes`` validation and a
closed stdout."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness import cli
from repro.harness.cli import main as cli_main

VERBS = {
    "all", "calibrate", "describe", "experiments", "grid", "lint",
    "profile", "report", "run", "scenario", "serve", "sweep",
}

UNWRITABLE = "/nonexistent-dir/out.json"


def _subcommands(parser) -> dict:
    (action,) = [a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"]
    return action.choices


def test_the_verbs_are_pinned():
    verbs = _subcommands(cli._build_parser())
    assert set(verbs) == VERBS
    assert set(_subcommands(verbs["scenario"])) == {"sweep"}


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "run", "syn-hot-lock"],
        ["scenario", "list"],
        ["protocols"],
        ["topologies", "--json"],
        ["figure", "1"],
    ],
)
def test_folded_verbs_are_gone(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_run_trace_out_leaves_the_report_unchanged(tmp_path, capsys):
    args = ["run", "syn-hot-lock", "--scale", "testing", "--nodes", "2", "--json"]
    assert cli_main(args) == 0
    plain = json.loads(capsys.readouterr().out)
    trace = tmp_path / "trace.jsonl"
    assert cli_main(args + ["--trace-out", str(trace)]) == 0
    note, _, body = capsys.readouterr().out.partition("\n")
    assert "trace record(s)" in note
    assert json.loads(body) == plain
    lines = trace.read_text().splitlines()
    assert lines and all(json.loads(line)["kind"] for line in lines)


def test_run_trace_out_ignores_the_cache_dir(tmp_path, capsys):
    # a stored payload keeps no trace, so every traced run executes its cell
    trace = tmp_path / "trace.jsonl"
    args = [
        "run", "syn-hot-lock", "--scale", "testing", "--nodes", "2",
        "--cache-dir", str(tmp_path / "cache"), "--trace-out", str(trace),
    ]
    for _ in range(2):
        trace.unlink(missing_ok=True)
        assert cli_main(args) == 0
        assert "--cache-dir is ignored" in capsys.readouterr().err
        assert trace.read_text().strip()


def test_run_with_a_cache_dir_executes_nothing_the_second_time(
    tmp_path, capsys, monkeypatch
):
    import repro.harness.executor as executor

    executed = []
    real = executor.run_spec
    monkeypatch.setattr(
        executor, "run_spec", lambda spec: executed.append(spec) or real(spec)
    )
    args = [
        "run", "syn-uniform", "--scale", "testing", "--nodes", "2",
        "--cache-dir", str(tmp_path / "cache"), "--json",
    ]
    assert cli_main(args) == 0
    cold = capsys.readouterr().out
    assert len(executed) == 1
    assert cli_main(args) == 0
    assert capsys.readouterr().out == cold
    assert len(executed) == 1


def test_describe_json_renders_every_section(capsys):
    assert cli_main(["describe", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == set(cli.DESCRIBE_SECTIONS)
    for section, rows in payload.items():
        assert cli_main(["describe", section, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == rows
    assert {row["name"] for row in payload["clusters"]} >= {"myrinet", "sci"}
    assert "pi" in payload["benchmarks"]
    assert {"number": 2, "app": "jacobi"} in payload["figures"]
    scenarios = {row["name"]: row for row in payload["scenarios"]}
    assert scenarios["syn-hot-lock"]["parameters"]["seed"] == 7


def test_run_takes_no_jobs_flag(capsys):
    # one cell has nothing to fan out over worker processes
    with pytest.raises(SystemExit) as exc:
        cli_main(["run", "pi", "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["grid", "--apps", "pi", "--nodes", "1", "--scale", "testing"], "-o"),
        (["grid", "--apps", "pi", "--nodes", "1", "--scale", "testing"], "--telemetry-out"),
        (["scenario", "sweep", "syn-hot-lock", "--nodes", "1", "--scale", "testing"], "-o"),
        (["experiments", "--scale", "testing"], "-o"),
    ],
    ids=["grid", "grid-telemetry", "scenario-sweep", "experiments"],
)
def test_an_unwritable_output_path_fails_before_any_cell_runs(
    argv, flag, capsys, monkeypatch
):
    import repro.harness.executor as executor

    def no_cell(spec):
        raise AssertionError(f"{spec.label()} ran before {flag} was checked")

    monkeypatch.setattr(executor, "run_spec", no_cell)
    assert cli_main(argv + [flag, UNWRITABLE]) == 2
    err = capsys.readouterr().err
    assert f"hyperion-sim: error: cannot write {flag} {UNWRITABLE!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flag", ["--sanitize-out", "--telemetry-out", "--chrome-out", "--trace-out"]
)
def test_an_unwritable_run_export_is_a_cli_error(flag, capsys, monkeypatch):
    import repro.harness.executor as executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    argv = ["run", "pi", "--nodes", "1", "--scale", "testing", flag, UNWRITABLE]
    assert cli_main(argv) == 2
    assert executed == []
    assert f"cannot write {flag} {UNWRITABLE!r}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "pi", "--nodes", "0"],
        ["run", "pi", "--nodes", "-2"],
        ["profile", "pi", "--nodes", "0"],
        ["sweep", "threads", "--app", "pi", "--nodes", "0"],
    ],
)
def test_a_non_positive_node_count_is_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("nodes", ["0", "-1", "1,0"])
def test_grid_rejects_a_non_positive_node_count_before_running(nodes, monkeypatch, capsys):
    from repro.harness import executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    argv = ["grid", "--apps", "pi", "--scale", "testing", f"--nodes={nodes}"]
    assert cli_main(argv) == 2
    assert executed == []
    assert "nodes must be positive integers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, cluster",
    [
        (["run", "pi", "--nodes", "99"], "myrinet"),
        (["profile", "pi", "--nodes", "13"], "myrinet"),
        (["sweep", "threads", "--app", "pi", "--cluster", "sci", "--nodes", "99"], "sci"),
        (["scenario", "sweep", "syn-uniform", "--cluster", "sci", "--nodes", "1,8",
          "--scale", "testing"], "sci"),
    ],
)
def test_a_node_count_beyond_the_cluster_is_a_cli_error(argv, cluster, capsys):
    from repro.cluster.presets import cluster_by_name

    assert cli_main(argv) == 2
    size = cluster_by_name(cluster).num_nodes
    assert f"cluster {cluster!r} has {size} nodes" in capsys.readouterr().err


def test_grid_rejects_a_node_count_no_cluster_can_host(monkeypatch, capsys):
    from repro.cluster.presets import cluster_by_name
    from repro.harness import executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    argv = ["grid", "--apps", "pi", "--clusters", "myrinet,sci", "--nodes=2,1000",
            "--scale", "testing"]
    assert cli_main(argv) == 2
    assert executed == []
    size = cluster_by_name("myrinet").num_nodes
    assert f"nodes 1000: cluster 'myrinet' has {size} nodes" in capsys.readouterr().err


def test_grid_rejects_an_unknown_cluster_before_running(monkeypatch, capsys):
    from repro.cluster.presets import list_clusters
    from repro.harness import executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    argv = ["grid", "--apps", "pi", "--clusters", "myrinet,bogus", "--scale", "testing"]
    assert cli_main(argv) == 2
    assert executed == []
    err = capsys.readouterr().err
    assert "unknown cluster(s) bogus" in err
    assert all(name in err for name in list_clusters())


def test_grid_skips_a_node_count_on_the_clusters_too_small_for_it(capsys):
    from repro.cluster.presets import cluster_by_name

    nodes = cluster_by_name("sci").num_nodes + 1
    assert nodes <= cluster_by_name("myrinet").num_nodes
    argv = ["grid", "--apps", "pi", "--clusters", "myrinet,sci", f"--nodes={nodes}",
            "--protocols", "java_ic", "--scale", "testing"]
    assert cli_main(argv) == 0
    grid = json.loads(capsys.readouterr().out)
    assert list(grid) == [f"pi/myrinet/java_ic/n{nodes}"]


@pytest.mark.parametrize("apps", ["nope", "pi,nope", "syn-nope"])
def test_grid_rejects_an_unknown_app_before_running(apps, monkeypatch, capsys):
    from repro.harness import executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    argv = ["grid", "--apps", apps, "--nodes", "1", "--scale", "testing"]
    assert cli_main(argv) == 2
    assert executed == []
    err = capsys.readouterr().err
    assert "hyperion-sim: error: apps: unknown app(s)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, field",
    [
        (["grid", "--apps", "pi", "--nodes", "1", "--protocols", "JAVA_IC"], "protocols"),
        (["grid", "--apps", "PI", "--nodes", "1"], "apps"),
        (["grid", "--apps", "pi", "--nodes", "1", "--clusters", "MYRINET"], "clusters"),
        (["all", "1", "--protocols", "JAVA_IC"], "--protocols"),
        (["scenario", "sweep", "--protocols", "JAVA_IC"], "--protocols"),
        (["experiments", "--protocols", "JAVA_IC"], "--protocols"),
    ],
)
def test_every_verb_matches_names_exactly(argv, field, monkeypatch, capsys):
    from repro.harness import executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    assert cli_main([*argv, "--scale", "testing"]) == 2
    assert executed == []
    err = capsys.readouterr().err
    assert f"hyperion-sim: error: {field}: unknown " in err
    assert "Traceback" not in err


def test_all_prints_the_experiments_document_sections(capsys):
    from repro.harness.figures import generate_all_figures
    from repro.harness.report import (
        render_experiments_markdown,
        render_improvement_markdown,
    )

    assert cli_main(["all", "1", "2", "--scale", "testing"]) == 0
    figures = generate_all_figures(workload="testing", numbers=(1, 2))
    assert sorted(figures) == [1, 2]
    document = render_experiments_markdown(figures)
    assert capsys.readouterr().out == (
        document + "\n" + render_improvement_markdown(figures) + "\n"
    )


def test_a_closed_stdout_ends_quietly_with_the_sigpipe_status():
    """``hyperion-sim ... | head`` when the reader has already gone."""
    src = Path(repro.__file__).resolve().parents[1]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "sweep", "check_cost",
             "--app", "asp", "--nodes", "2", "--scale", "testing"],
            stdout=write,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
            text=True,
            timeout=120,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == ""
