"""Pins for the host-side ``DsmStats`` fields the report digests leave out.

``ExecutionReport.to_dict()`` — the byte-identity contract the golden
cells and the benchmark digests check — carries only the scalar DSM
counters.  The island split of page traffic, the per-node fetch and fault
attribution and the re-home count stay outside it, so a change to the page
fetch, fault or invalidation path could shift them without any golden cell
noticing.  This file pins them on multi-island cells: every composition
whose DSM path differs (in-line checks, page faults, the hybrid, the
migratory home) on the two-island ``myrinet2x8`` preset at 16 nodes and the
eight-island ``myrinet_grid`` preset at 64 nodes.  Two extra cells cover
what those leave out: one at 128 nodes, above ``PageManager.NODE_STAT_CAP``,
where the per-node stats bucket by island, and one that drives the hybrid
strategy past its promotion threshold so its fault path is pinned too.

Floats are compared exactly: JSON stores their shortest round-trip form.

Regenerate (only when a change is meant to move these numbers) with::

    PYTHONPATH=src python tests/scenarios/test_dsm_host_stats.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness.spec import ExperimentSpec, run_spec
from repro.scenarios.registry import scenario_workload

PINS_PATH = Path(__file__).parent / "dsm_host_stats.json"

APPS = ("syn-false-sharing", "syn-hot-lock", "syn-migratory", "syn-uniform")
PROTOCOLS = ("java_ic", "java_pf", "java_hybrid", "java_ic_mig")
SHAPES = (("myrinet2x8", 16), ("myrinet_grid", 64))
#: a read-mostly cell long enough for pages to cross the hybrid's
#: promotion threshold (the testing-scale patterns never fault under it)
HYBRID_FAULTING = ("syn-read-mostly", "myrinet2x8", "java_hybrid", 16)
HYBRID_FAULTING_ARGS = {"ops_per_thread": 2400, "sync_period": 2400}
#: a cell above ``NODE_STAT_CAP``: per-node stats keyed by island
ISLAND_BUCKETED = ("syn-hot-lock", "myrinet_grid", "java_pf", 128)


def _cells() -> dict[str, ExperimentSpec]:
    cells = {}
    for cluster, nodes in SHAPES:
        for app in APPS:
            for protocol in PROTOCOLS:
                cells[f"{app}/{cluster}/{protocol}/n{nodes}"] = ExperimentSpec(
                    app=app, cluster=cluster, protocol=protocol, num_nodes=nodes,
                    workload="testing",
                )
    app, cluster, protocol, nodes = HYBRID_FAULTING
    cells[f"{app}/{cluster}/{protocol}/n{nodes}/dense"] = ExperimentSpec(
        app=app, cluster=cluster, protocol=protocol, num_nodes=nodes,
        workload=scenario_workload(app, "testing", **HYBRID_FAULTING_ARGS),
    )
    app, cluster, protocol, nodes = ISLAND_BUCKETED
    cells[f"{app}/{cluster}/{protocol}/n{nodes}"] = ExperimentSpec(
        app=app, cluster=cluster, protocol=protocol, num_nodes=nodes, workload="testing",
    )
    return cells


CELLS = _cells()


def host_stats(report) -> dict:
    """The host-side ``DsmStats`` fields, in JSON form (string node keys)."""
    dsm = report.stats.dsm
    return {
        "intra_island_page_fetches": dsm.intra_island_page_fetches,
        "inter_island_page_fetches": dsm.inter_island_page_fetches,
        "intra_island_fetch_seconds": dsm.intra_island_fetch_seconds,
        "inter_island_fetch_seconds": dsm.inter_island_fetch_seconds,
        "inter_island_bytes": dsm.inter_island_bytes,
        "fetches_by_node": {str(k): v for k, v in sorted(dsm.fetches_by_node.items())},
        "faults_by_node": {str(k): v for k, v in sorted(dsm.faults_by_node.items())},
        "page_rehomes": dsm.page_rehomes,
    }


def test_pins_cover_every_cell():
    assert sorted(json.loads(PINS_PATH.read_text())) == sorted(CELLS)


def test_the_pinned_cells_exercise_every_path():
    """Guard against a regeneration that pins only trivial numbers."""
    pins = json.loads(PINS_PATH.read_text())
    for key, stats in pins.items():
        assert stats["inter_island_page_fetches"] > 0, key
        assert stats["intra_island_page_fetches"] > 0, key
    assert sum(stats["page_rehomes"] for stats in pins.values()) > 0
    assert all(pins[k]["faults_by_node"] for k in pins if "/java_pf/" in k)
    assert pins["syn-read-mostly/myrinet2x8/java_hybrid/n16/dense"]["faults_by_node"]
    # 128 nodes in 8-node islands: 16 island keys, not 128 node keys
    assert len(pins["syn-hot-lock/myrinet_grid/java_pf/n128"]["fetches_by_node"]) == 16


@pytest.mark.parametrize("key", sorted(CELLS))
def test_host_side_dsm_stats_are_pinned(key):
    pinned = json.loads(PINS_PATH.read_text())[key]
    assert host_stats(run_spec(CELLS[key])) == pinned


if __name__ == "__main__":
    PINS_PATH.write_text(
        json.dumps(
            {key: host_stats(run_spec(spec)) for key, spec in CELLS.items()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
