"""Jacobi's block stencil against the reference detection path.

Each Jacobi thread relaxes its row block once per time step through a
prepared halo updater (``ctx.make_range_updater(..., into=...)``).  Under
``java_ic``, ``java_pf`` and ``java_ic_hoisted`` the rows whose four touched
rows are local move and charge as one block, and the block-edge rows with a
remote halo row run the per-row spec; ``java_hybrid``, ``java_ic_mig`` and
``java_ic_loc`` run the spec throughout.  Either way the report must be
byte-identical to the one produced under :func:`reference_detection`, where
every access goes through the exact polymorphic path.
"""

import hashlib
import json

import pytest

from repro.apps.jacobi import JacobiApplication
from repro.apps.workloads import JacobiWorkload
from repro.core.memory import MemorySubsystem
from repro.core.protocol import reference_detection
from repro.harness.spec import ExperimentSpec, run_spec
from repro.hyperion.runtime import RuntimeConfig

PROTOCOLS = (
    "java_ic",
    "java_pf",
    "java_ic_hoisted",
    "java_hybrid",
    "java_ic_mig",
    "java_ic_loc",
)
#: the SCI preset has six nodes
SHAPES = (("myrinet", 1), ("myrinet", 5), ("myrinet", 7), ("myrinet", 12), ("sci", 1), ("sci", 5))
#: 22 rows over up to 24 threads leaves some threads without rows;
#: work_multiplier 0.5 makes the per-row extra accounting zero; 520 columns
#: make every row span two pages; odd and even step counts end in either mesh
WORKLOADS = (
    JacobiWorkload(size=22, steps=3, work_multiplier=0.5),
    JacobiWorkload(size=22, steps=4, work_multiplier=3.0),
    JacobiWorkload(size=520, steps=2, work_multiplier=1.0),
)

#: sha256 prefixes of ``report.to_dict()`` on myrinet, 7 nodes, two threads
#: per node, per protocol and workload, computed with the per-row
#: get/put/account/compute loop the block updater replaced: no charge may
#: change
PINNED = {
    "java_ic": ("b62a84a77d62d36c", "47809c463bb9e1c4", "fa1ebc918d537908"),
    "java_pf": ("d57bdd9fade1a824", "4339e17c0e337b04", "ed93d0c4a406e607"),
    "java_ic_hoisted": ("45574fdba0eeac32", "9489da9c697e6273", "366702ee70849509"),
    "java_hybrid": ("c91338d104b86d64", "bb1d8c6d068af7f8", "a989da666f38183a"),
    "java_ic_mig": ("0e693b179d25e2bb", "5796d2ae150072df", "74b1a2856e38aa47"),
    "java_ic_loc": ("c5edccaca87ce86b", "b78a6e5586bdb77d", "cf89b5a1018c03ee"),
}


def _spec(protocol: str, cluster: str, nodes: int, workload: JacobiWorkload) -> ExperimentSpec:
    return ExperimentSpec(
        app="jacobi",
        cluster=cluster,
        protocol=protocol,
        num_nodes=nodes,
        workload=workload,
        config=RuntimeConfig(threads_per_node=2),
        verify=True,
    )


def _payload(spec: ExperimentSpec) -> str:
    return json.dumps(run_spec(spec).to_dict(), sort_keys=True)


def test_workloads_cover_no_extra_idle_threads_and_two_page_rows():
    for workload, extra in zip(WORKLOADS, (False, True, True)):
        n, scale = workload.size, workload.work_multiplier
        assert (int(max(0.0, 6.0 * n * scale - 4.0 * n)) > 0) == extra
    threads = 12 * 2
    assert any(
        not JacobiApplication.block_partition(WORKLOADS[0].size, threads, t)
        for t in range(threads)
    )
    assert (WORKLOADS[2].size + 2) * 8 > 4096


@pytest.mark.parametrize("cluster, nodes", SHAPES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_jacobi_block_path_matches_reference_detection(protocol, cluster, nodes):
    for workload in WORKLOADS:
        spec = _spec(protocol, cluster, nodes, workload)
        fast = _payload(spec)
        with reference_detection():
            reference = _payload(spec)
        assert fast == reference


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_jacobi_reports_match_the_per_row_loop(protocol):
    digests = tuple(
        hashlib.sha256(_payload(_spec(protocol, "myrinet", 7, workload)).encode()).hexdigest()[:16]
        for workload in WORKLOADS
    )
    assert digests == PINNED[protocol]


@pytest.mark.parametrize("nodes, per_row", [(1, False), (3, True)])
def test_one_node_cell_takes_no_per_row_calls(monkeypatch, nodes, per_row):
    """On one node every row is local: only main's set-up and gather move rows.

    Across nodes the block-edge rows read a remote halo row, so they (and
    only they) run the per-row spec.
    """
    calls = {"get_range": 0, "put_range": 0, "account_accesses": 0}
    for name in calls:
        original = getattr(MemorySubsystem, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MemorySubsystem, name, counting)
    workload = WORKLOADS[1]
    run_spec(_spec("java_ic", "myrinet", nodes, workload))
    n, threads = workload.size, 2 * nodes
    gather = {"get_range": n, "put_range": 2, "account_accesses": 0}
    if not per_row:
        assert calls == gather
        return
    # two edge rows per thread and step, less the mesh's top and bottom rows
    edge_rows = (2 * threads - 2) * workload.steps
    assert calls == {
        "get_range": n + 3 * edge_rows,
        "put_range": 2 + edge_rows,
        "account_accesses": edge_rows,
    }
