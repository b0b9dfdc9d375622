"""``hyperion-sim describe topologies`` and the ``--topology`` flag."""

from __future__ import annotations

import json

from repro.harness.cli import main as cli_main


def test_describe_topologies_listing(capsys):
    assert cli_main(["describe", "topologies"]) == 0
    out = capsys.readouterr().out
    for name in ("myrinet2x8", "myrinet_tree", "sci_torus", "sci_ring"):
        assert name in out
    assert "islands=2" in out  # the multi-cluster preset exposes its islands


def test_describe_topologies_json(capsys):
    assert cli_main(["describe", "topologies", "--json"]) == 0
    entries = {entry["name"]: entry for entry in json.loads(capsys.readouterr().out)}
    assert entries["myrinet2x8"]["kind"] == "multicluster"
    assert entries["myrinet2x8"]["islands"] == 2
    assert entries["myrinet2x8"]["num_nodes"] == 16
    assert entries["sci_torus"]["kind"] == "torus"
    assert entries["myrinet"]["kind"] == "crossbar"


def test_describe_topologies_section(capsys):
    assert cli_main(["describe", "topologies"]) == 0
    out = capsys.readouterr().out
    assert "myrinet2x8" in out and "kind=multicluster" in out


def test_scenario_sweep_on_a_topology_preset(capsys):
    args = [
        "scenario", "sweep", "syn-false-sharing",
        "--topology", "myrinet2x8", "--nodes", "4", "--scale", "testing",
        "--json",
    ]
    assert cli_main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cluster"] == "myrinet2x8"
    shares = payload["scenarios"]["syn-false-sharing"]["inter_cluster_share"]
    # the backbone carries real page-transfer cost on the split run
    assert shares["java_ic"]["4"] > 0.0


def test_scenario_sweep_share_column_only_on_multi_island_runs(capsys):
    base = ["scenario", "sweep", "syn-false-sharing", "--nodes", "4", "--scale", "testing"]
    assert cli_main(base) == 0
    flat = capsys.readouterr().out
    assert "| protocol | 4 |" in flat and "inter-cluster share" not in flat
    assert cli_main(base + ["--topology", "myrinet2x8"]) == 0
    split = capsys.readouterr().out
    assert "| protocol | 4 | inter-cluster share |" in split


def test_figure_on_a_topology_preset(capsys):
    args = [
        "all", "2", "--scale", "testing",
        "--topology", "sci_torus", "--protocols", "java_ic,java_pf",
        "--json",
    ]
    assert cli_main(args) == 0
    (payload,) = json.loads(capsys.readouterr().out).values()
    clusters = {series["cluster"] for series in payload["series"]}
    assert clusters == {"sci_torus"}
    # the preset name labels the series (no paper platform alias)
    assert any("sci_torus" in series["label"] for series in payload["series"])


def test_scenario_sweep_json_without_the_paper_pair(capsys):
    """A --protocols selection without java_ic/java_pf must not crash to_dict."""
    args = [
        "scenario", "sweep", "syn-false-sharing",
        "--topology", "myrinet2x8", "--nodes", "4", "--scale", "testing",
        "--protocols", "java_ic,java_ic_loc", "--json",
    ]
    assert cli_main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    entry = payload["scenarios"]["syn-false-sharing"]
    assert entry["improvements"] == {}  # undefined without the paper pair
    shares = entry["inter_cluster_share"]
    assert shares["java_ic_loc"]["4"] < shares["java_ic"]["4"]
