"""ASP's block relaxation against the reference detection path.

ASP relaxes each thread's row block once per pivot through one prepared
block updater.  Under ``java_ic``, ``java_pf`` and ``java_ic_hoisted`` it
moves and charges the whole block at once; ``java_hybrid`` and
``java_ic_mig`` take its per-row loop.  Either way the report must be
byte-identical to the one produced under :func:`reference_detection`, where
every access goes through the exact polymorphic path.
"""

import hashlib
import json

import pytest

from repro.apps.asp import AspApplication
from repro.apps.workloads import AspWorkload
from repro.core.protocol import reference_detection
from repro.harness.spec import ExperimentSpec, run_spec
from repro.hyperion.runtime import RuntimeConfig

PROTOCOLS = ("java_ic", "java_pf", "java_ic_hoisted", "java_hybrid", "java_ic_mig")
#: the SCI preset has six nodes
SHAPES = (("myrinet", 1), ("myrinet", 5), ("myrinet", 7), ("myrinet", 12), ("sci", 1), ("sci", 5))
#: 22 vertices over up to 24 threads leaves some threads without rows;
#: work_multiplier 0.5 makes the per-row extra accounting zero
WORKLOADS = (
    AspWorkload(vertices=22, seed=3, work_multiplier=0.5),
    AspWorkload(vertices=22, seed=4, work_multiplier=3.0),
)


#: sha256 prefixes of ``report.to_dict()`` on myrinet, 7 nodes, two threads
#: per node, per protocol and workload, computed with the per-row
#: relaxation loop the block updater replaced: no charge may change
PINNED = {
    "java_ic": ("9583e179ec5507de", "cad7ff5c029ede7c"),
    "java_pf": ("69ca80dd170b0d97", "674de78f9ddbb213"),
    "java_ic_hoisted": ("298966fc3687db1a", "2815fb82233312dc"),
    "java_hybrid": ("a9711cfa8db84e33", "cc4a7a3a22689eab"),
    "java_ic_mig": ("5faacb01f2d79599", "ae046d42ac24398b"),
}


def _spec(protocol: str, cluster: str, nodes: int, workload: AspWorkload) -> ExperimentSpec:
    return ExperimentSpec(
        app="asp",
        cluster=cluster,
        protocol=protocol,
        num_nodes=nodes,
        workload=workload,
        config=RuntimeConfig(threads_per_node=2),
        verify=True,
    )


def _payload(spec: ExperimentSpec) -> str:
    return json.dumps(run_spec(spec).to_dict(), sort_keys=True)


def test_workloads_cover_no_extra_and_idle_threads():
    n = WORKLOADS[0].vertices
    assert int(max(0.0, 3.0 * n * WORKLOADS[0].work_multiplier - 2.0 * n)) == 0
    assert int(max(0.0, 3.0 * n * WORKLOADS[1].work_multiplier - 2.0 * n)) > 0
    threads = 12 * 2
    assert any(not AspApplication.block_partition(n, threads, t) for t in range(threads))


@pytest.mark.parametrize("cluster, nodes", SHAPES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_asp_block_path_matches_reference_detection(protocol, cluster, nodes):
    for workload in WORKLOADS:
        spec = _spec(protocol, cluster, nodes, workload)
        fast = _payload(spec)
        with reference_detection():
            reference = _payload(spec)
        assert fast == reference


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_asp_reports_match_the_per_row_loop(protocol):
    digests = tuple(
        hashlib.sha256(_payload(_spec(protocol, "myrinet", 7, workload)).encode()).hexdigest()[:16]
        for workload in WORKLOADS
    )
    assert digests == PINNED[protocol]
