"""Tests for calibration, parameter sweeps and the CLI."""

import json

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.calibration import (
    CalibrationEntry,
    check_published_constants,
    calibrate,
)
from repro.harness.cli import main as cli_main
from repro.harness.session import Session


def test_published_constants_check_passes():
    notes = check_published_constants()
    assert all(note.startswith("ok") for note in notes)
    assert any("22 us" in note for note in notes)


def test_calibration_entry_tolerance():
    entry = CalibrationEntry(app="x", paper_percent=40.0, measured_percent=44.0, tolerance=5.0)
    assert entry.within_tolerance and entry.deviation == pytest.approx(4.0)
    bad = CalibrationEntry(app="x", paper_percent=40.0, measured_percent=10.0, tolerance=5.0)
    assert not bad.within_tolerance


def test_calibrate_single_app_runs():
    report = calibrate(workload=WorkloadPreset.testing(), apps=["pi"])
    assert report.constants_ok
    assert report.entries[0].app == "pi"
    assert "calibration" in report.render()


def test_sweep_check_cost_finds_crossover(testing_preset):
    result = Session().ablation(
        "check_cost",
        "asp",
        num_nodes=1,
        values=(0.0001, 64.0),
        workload=WorkloadPreset.bench().asp,
    )
    # with a (nearly) free check java_ic wins; with a very expensive one it loses
    cheap_ic = result.times[("java_ic", 0.0001)]
    cheap_pf = result.times[("java_pf", 0.0001)]
    costly_ic = result.times[("java_ic", 64.0)]
    costly_pf = result.times[("java_pf", 64.0)]
    assert cheap_ic <= cheap_pf * 1.001
    assert costly_ic > costly_pf
    assert "inline_check_cycles" in result.render()


def test_sweep_page_size_runs(testing_preset):
    result = Session().ablation(
        "page_size", "jacobi", num_nodes=2, values=(2048, 8192),
        workload=testing_preset.jacobi,
    )
    assert len(result.times) == 4
    assert all(t > 0 for t in result.times.values())


def test_sweep_threads_per_node(testing_preset):
    result = Session().ablation(
        "threads", "jacobi", num_nodes=2, values=(1, 2), workload=testing_preset.jacobi
    )
    assert set(v for _, v in result.times) == {1, 2}


def test_sweep_balancer(testing_preset):
    result = Session().ablation(
        "balancer", "barnes", num_nodes=2, values=("round_robin", "block"),
        workload=testing_preset.barnes,
    )
    assert ("java_pf", "round_robin") in result.times


def test_each_ablation_sets_its_field_on_the_config_or_the_cluster_software():
    from repro.cluster.presets import cluster_by_name
    from repro.harness.spec import ExperimentSpec
    from repro.harness.sweep import ABLATIONS
    from repro.hyperion.runtime import RuntimeConfig

    base = ExperimentSpec(
        app="pi", cluster=cluster_by_name("sci"), protocol="java_pf", num_nodes=2
    )
    for ablation in ABLATIONS.values():
        value = ablation.default_values[1]
        spec = ablation.make_spec(base, value)
        assert spec.label() == base.label()
        if ablation.software:
            # the cost is the cluster's, so the cell keeps no config
            assert spec.config is None
            assert getattr(spec.cluster.software, ablation.parameter) == value
        else:
            assert spec.cluster == base.cluster
            assert spec.config == RuntimeConfig(
                protocol="java_pf", **{ablation.parameter: value}
            )
    assert [kind for kind, a in ABLATIONS.items() if a.software] == ["check_cost"]


def test_cli_describe_and_figure(capsys):
    assert cli_main(["describe"]) == 0
    captured = capsys.readouterr().out
    assert "myrinet" in captured and "java_pf" in captured

    assert cli_main(["all", "1", "--scale", "testing", "--json"]) == 0
    (payload,) = json.loads(capsys.readouterr().out).values()
    assert payload["figure"] == 1
    assert payload["app"] == "pi"


def test_cli_run_subcommand(capsys):
    code = cli_main(
        ["run", "pi", "--cluster", "sci", "--protocol", "java_ic", "--nodes", "2", "--scale", "testing", "--verify"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sci/java_ic" in out


def test_cli_jobs_flag_changes_nothing(capsys):
    assert cli_main(["all", "1", "--scale", "testing", "--json"]) == 0
    serial = json.loads(capsys.readouterr().out)
    assert cli_main(["all", "1", "--scale", "testing", "--json", "--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert serial == parallel


def test_cli_cache_dir_reuses_results(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ["all", "2", "--scale", "testing", "--json", "--cache-dir", cache]
    assert cli_main(args) == 0
    cold = capsys.readouterr().out
    cached_files = list((tmp_path / "cache").glob("*.json"))
    assert cached_files  # one file per simulated cell
    assert cli_main(args) == 0
    assert capsys.readouterr().out == cold


def test_cli_sweep_subcommand(capsys):
    code = cli_main(
        ["sweep", "check_cost", "--app", "asp", "--nodes", "1", "--scale", "testing",
         "--values", "0.5,32"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "inline_check_cycles" in out and "java_pf" in out


def test_cli_experiments_subcommand(tmp_path, capsys):
    output = tmp_path / "EXPERIMENTS.md"
    code = cli_main(["experiments", "--scale", "testing", "-o", str(output)])
    assert code == 0
    document = output.read_text()
    assert "# EXPERIMENTS" in document
    assert "Figure 1" in document and "calibration" in document


def test_cli_describe_protocols(capsys):
    assert cli_main(["describe", "protocols"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("protocols:")
    for name in ("java_ic", "java_pf", "java_hybrid", "java_ic_mig"):
        assert name in out
    assert "detection=hybrid" in out and "home_policy=migratory" in out


def test_cli_describe_protocols_json(capsys):
    assert cli_main(["describe", "protocols", "--json"]) == 0
    entries = {e["name"]: e for e in json.loads(capsys.readouterr().out)}
    assert entries["java_pf"]["detection"] == "page_fault"
    assert entries["java_pf"]["home_policy"] == "fixed"
    assert entries["java_ic_mig"]["home_policy"] == "migratory"
    assert "migratory homes" in entries["java_ic_mig"]["description"]
    # every listed protocol carries a describe() line
    assert all(e["description"] for e in entries.values())


def test_cli_figure_protocols_flag(capsys):
    code = cli_main(
        ["all", "1", "--scale", "testing", "--json",
         "--protocols", "java_ic,java_pf,java_hybrid"]
    )
    assert code == 0
    (payload,) = json.loads(capsys.readouterr().out).values()
    plotted = {series["protocol"] for series in payload["series"]}
    assert plotted == {"java_ic", "java_pf", "java_hybrid"}


def test_cli_protocols_flag_rejects_unknown(capsys):
    code = cli_main(
        ["all", "1", "--scale", "testing", "--protocols", "java_ic,java_nope"]
    )
    assert code == 2
    assert "unknown protocol" in capsys.readouterr().err
