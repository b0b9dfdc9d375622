"""Topology-scale smoke: the thousand-node scaling law.

Records ``benchmarks/results/topology_scale.json``: the
:func:`~repro.harness.figures.generate_topology_scale` sweep — the
false-sharing scenario on ``myrinet_grid`` (8-node Myrinet islands over
Fast Ethernet) at n = 16 / 64 / 256 / 1024 under both paper protocols —
plus the acceptance numbers of the scale-out work:

* the n=16 anchor is byte-identical to the pre-existing ``myrinet2x8``
  numbers (at 16 nodes the grid's partition *is* the two-island preset's),
  pinning the scale sweep to the golden-cell contract;
* fault count grows with the node count while the inter-island share of
  page-transfer cost climbs towards 1 — island structure dominating
  transfer cost at scale, the behaviour ROADMAP item 1 asks the axis to
  exhibit;
* the full 1024-node cell completes inside an explicit wall-time and
  peak-RSS budget, so the O(num_nodes) hazards cannot silently regress.
  The peak RSS is read from a fresh interpreter that runs the sweep alone:
  a peak is a high-water mark, so in this process it would read whichever
  earlier test peaked highest (about 200 MB in a full suite run), and with
  ``HYPERION_BENCH_JOBS`` or ``HYPERION_BENCH_CACHE`` set the sweep does
  not even simulate here.

CI runs this file as the topology-scale smoke step of the benchmark job and
uploads the JSON as an artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.harness.figures import (
    TOPOLOGY_SCALE_COUNTS,
    TOPOLOGY_SCALE_PROTOCOLS,
    generate_topology_scale,
)

#: budgets for the whole 8-cell sweep (the 1024-node cells dominate).  The
#: wall budget is generous: the sweep runs in ~1.4 s.  The RSS budget is
#: about twice the 73 MB peak a fresh interpreter reaches running the sweep
#: (Linux, Python 3.11), so a doubling of its memory fails the gate.
SCALE_WALL_SECONDS = 60.0
SCALE_PEAK_RSS_BYTES = 150 * 1024 * 1024

#: the pre-PR ``myrinet2x8`` numbers the n=16 anchor must reproduce exactly
ANCHOR_N16 = {
    "java_ic": {
        "execution_seconds": 0.0027925112727272723,
        "page_faults": 0,
        "page_fetches": 60,
        "mprotect_calls": 0,
        "inter_cluster_cost_share": 0.9182469801548788,
        "inter_cluster_page_fetches": 32,
        "intra_cluster_page_fetches": 28,
        "inter_cluster_bytes": 131072,
    },
    "java_pf": {
        "execution_seconds": 0.0029265512727272725,
        "page_faults": 60,
        "page_fetches": 60,
        "mprotect_calls": 120,
        "inter_cluster_cost_share": 0.9182469801548788,
        "inter_cluster_page_fetches": 32,
        "intra_cluster_page_fetches": 28,
        "inter_cluster_bytes": 131072,
    },
}


#: the sweep alone in a fresh interpreter, printing its peak RSS in bytes
#: (``peak_rss_bytes`` reads the child's own peak, never this process's)
_SWEEP_PEAK_RSS = """
from repro.harness.figures import generate_topology_scale
from repro.perf.clock import peak_rss_bytes
generate_topology_scale()
print(peak_rss_bytes())
"""


def _sweep_peak_rss_bytes() -> int:
    """Peak RSS of one serial, storeless run of the sweep in a new process."""
    src = Path(repro.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_PEAK_RSS],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=SCALE_WALL_SECONDS,
        check=True,
    )
    return int(proc.stdout)


@pytest.mark.benchmark(group="topology-scale")
def test_topology_scale(benchmark, bench_session, results_dir):
    """Record the scaling-law sweep and hold its wall/RSS budget."""

    def run_scale():
        data = generate_topology_scale(session=bench_session)
        return data, data.to_dict()

    data, payload = benchmark.pedantic(run_scale, rounds=1, iterations=1)
    benchmark.extra_info["topology_scale"] = payload
    (results_dir / "topology_scale.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=str)
    )

    # the whole sweep (including the 1024-node cells) stays in budget
    assert benchmark.stats.stats.max < SCALE_WALL_SECONDS
    assert _sweep_peak_rss_bytes() < SCALE_PEAK_RSS_BYTES

    # every scale point ran, under both paper protocols
    counts = [str(c) for c in TOPOLOGY_SCALE_COUNTS]
    assert payload["node_counts"] == list(TOPOLOGY_SCALE_COUNTS)
    assert set(payload["series"]) == set(TOPOLOGY_SCALE_PROTOCOLS)
    for protocol in TOPOLOGY_SCALE_PROTOCOLS:
        assert list(payload["series"][protocol]) == counts

    # the partition is the 8-node-island grid the preset promises
    assert payload["islands"] == {"16": 2, "64": 8, "256": 32, "1024": 128}

    # n=16 anchor: byte-identical to the pre-PR myrinet2x8 numbers
    for protocol, expected in ANCHOR_N16.items():
        cell = payload["series"][protocol]["16"]
        assert cell == expected, protocol

    # scaling law: faults grow with the node count (fault-based protocol) …
    pf = payload["series"]["java_pf"]
    faults = [pf[c]["page_faults"] for c in counts]
    assert faults == sorted(faults) and faults[-1] > faults[0]

    # … and the inter-island share of transfer cost climbs towards 1
    for protocol in TOPOLOGY_SCALE_PROTOCOLS:
        shares = [payload["series"][protocol][c]["inter_cluster_cost_share"] for c in counts]
        assert shares == sorted(shares)
        assert 0.0 < shares[0] < shares[-1] < 1.0

    # both protocols see the same traffic (they differ in detection only)
    for count in counts:
        ic, pf_cell = payload["series"]["java_ic"][count], pf[count]
        assert ic["page_fetches"] == pf_cell["page_fetches"]
        assert ic["inter_cluster_bytes"] == pf_cell["inter_cluster_bytes"]
