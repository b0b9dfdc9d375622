"""Determinism under optimization: the fast path must not change results.

The fast-path work (the memory subsystem's fused access plan, presence
sets, the inlined engine loop, trace skipping) is only admissible because
``ExecutionReport.to_dict()`` stays byte-identical.  These tests pin that
contract per application:

* tracing on vs. off (the engine's traced and untraced loops);
* the fused access plan ("fast") vs. every access through the strategy's
  exact ``detect_access`` ("reference"), selected via
  :func:`repro.core.protocol.reference_detection`, under which protocols
  report no plan.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.core.protocol import reference_detection
from repro.harness.figures import FIGURE_APPS
from repro.harness.spec import ExperimentSpec, run_spec
from repro.hyperion.runtime import HyperionRuntime, RuntimeConfig

APPS = sorted(FIGURE_APPS.values())
PROTOCOLS = ("java_ic", "java_pf")
#: the composed extension protocols honour the same contracts as the
#: paper's two (hybrid exercises per-page mode switching, ic_mig the
#: migratory-home wrapper around the detection fast path)
COMPOSED_PROTOCOLS = ("java_hybrid", "java_ic_mig")
#: generated scenarios pinned to the same contract as the paper apps
#: (the full set is covered by tests/scenarios/; these two exercise the
#: barrier-heavy and monitor-heavy interpreter paths here)
SCENARIO_APPS = ("syn-false-sharing", "syn-hot-lock")
#: fast-vs-reference detection also covers the hoisted check and the
#: topology-aware home policy; syn-streaming drives the pre-grouped runs
#: through segment replay's page-at-a-time pricing
DETECTION_PROTOCOLS = ("java_ic_hoisted",) + COMPOSED_PROTOCOLS + ("java_ic_loc",)
DETECTION_SCENARIO_APPS = SCENARIO_APPS + ("syn-streaming",)
#: non-uniform cluster shapes pinned to the same contract: a multi-cluster
#: grid (heterogeneous backbone link) and a torus (hop-dependent pricing)
TOPOLOGY_CLUSTERS = ("myrinet2x8", "sci_torus")
#: the composed protocol family plus the topology-aware home policy
TOPOLOGY_PROTOCOLS = ("java_ic", "java_pf", "java_hybrid", "java_ic_mig", "java_ic_loc")


def _spec(
    app: str,
    protocol: str,
    trace: bool = False,
    cluster: str = "myrinet",
) -> ExperimentSpec:
    return ExperimentSpec(
        app=app,
        cluster=cluster,
        protocol=protocol,
        num_nodes=4,
        workload=WorkloadPreset.testing(),
        config=RuntimeConfig(trace=trace),
    )


def _payload(report) -> str:
    """Canonical byte form of a report (the contract is byte identity)."""
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", APPS)
def test_trace_on_off_identical(app, protocol):
    """The traced engine loop must charge exactly like the untraced one."""
    plain = run_spec(_spec(app, protocol, trace=False))
    traced = run_spec(_spec(app, protocol, trace=True))
    assert _payload(plain) == _payload(traced)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", APPS)
def test_fast_vs_reference_detection_identical(app, protocol):
    """Old (reference) and new (fast) detection produce identical reports."""
    fast = run_spec(_spec(app, protocol))
    with reference_detection():
        reference = run_spec(_spec(app, protocol))
    assert _payload(fast) == _payload(reference)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", SCENARIO_APPS)
def test_scenario_trace_on_off_identical(app, protocol):
    """Generated scenarios honour the traced-vs-untraced contract too."""
    plain = run_spec(_spec(app, protocol, trace=False))
    traced = run_spec(_spec(app, protocol, trace=True))
    assert _payload(plain) == _payload(traced)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("app", SCENARIO_APPS)
def test_scenario_fast_vs_reference_detection_identical(app, protocol):
    """Old (reference) and new (fast) detection agree on scenario cells."""
    fast = run_spec(_spec(app, protocol))
    with reference_detection():
        reference = run_spec(_spec(app, protocol))
    assert _payload(fast) == _payload(reference)


def _fast_plans(protocol: str) -> tuple:
    """A fresh runtime's protocol plan, memory plan and strategy plan."""
    runtime = HyperionRuntime(
        _spec("jacobi", protocol).resolved_cluster(), num_nodes=2, protocol=protocol
    )
    return (
        runtime.protocol.access_fast_plan(),
        runtime.memory._fast_plan,
        runtime.protocol.detection.access_fast_plan(),
    )


def test_reference_detection_restores_fast_path():
    """Protocols built inside the context have no plan; after it, their own."""
    for protocol in TOPOLOGY_PROTOCOLS + ("java_ic_hoisted",):
        plan = _fast_plans(protocol)[2]
        assert plan is not None
        assert _fast_plans(protocol) == (plan, plan, plan)
        with reference_detection():
            assert _fast_plans(protocol) == (None, None, plan)
            with reference_detection():
                assert _fast_plans(protocol) == (None, None, plan)
            # the outer context still holds after the nested one exits
            assert _fast_plans(protocol) == (None, None, plan)
        assert _fast_plans(protocol) == (plan, plan, plan)


@pytest.mark.parametrize("protocol", COMPOSED_PROTOCOLS)
@pytest.mark.parametrize("app", APPS)
def test_composed_trace_on_off_identical(app, protocol):
    """The new composed protocols honour the traced-vs-untraced contract."""
    plain = run_spec(_spec(app, protocol, trace=False))
    traced = run_spec(_spec(app, protocol, trace=True))
    assert _payload(plain) == _payload(traced)


@pytest.mark.parametrize("protocol", DETECTION_PROTOCOLS)
@pytest.mark.parametrize("app", APPS + list(DETECTION_SCENARIO_APPS))
def test_composed_fast_vs_reference_detection_identical(app, protocol):
    """Fast and reference detection agree for every composed protocol."""
    fast = run_spec(_spec(app, protocol))
    with reference_detection():
        reference = run_spec(_spec(app, protocol))
    assert _payload(fast) == _payload(reference)


@pytest.mark.parametrize("cluster", TOPOLOGY_CLUSTERS)
@pytest.mark.parametrize("protocol", TOPOLOGY_PROTOCOLS)
def test_topology_trace_on_off_identical(cluster, protocol):
    """Non-uniform topologies honour the traced-vs-untraced contract."""
    for app in ("jacobi", "syn-false-sharing"):
        plain = run_spec(_spec(app, protocol, trace=False, cluster=cluster))
        traced = run_spec(_spec(app, protocol, trace=True, cluster=cluster))
        assert _payload(plain) == _payload(traced), (app, cluster, protocol)


@pytest.mark.parametrize("cluster", TOPOLOGY_CLUSTERS)
@pytest.mark.parametrize("protocol", TOPOLOGY_PROTOCOLS)
def test_topology_fast_vs_reference_detection_identical(cluster, protocol):
    """Fast and reference detection agree on multi-cluster and torus cells."""
    for app in ("jacobi", "syn-false-sharing"):
        fast = run_spec(_spec(app, protocol, cluster=cluster))
        with reference_detection():
            reference = run_spec(_spec(app, protocol, cluster=cluster))
        assert _payload(fast) == _payload(reference), (app, cluster, protocol)


@pytest.mark.parametrize("cluster", TOPOLOGY_CLUSTERS)
def test_topology_runs_are_reproducible(cluster):
    """Same spec on a non-uniform shape: byte-identical reports."""
    first = run_spec(_spec("syn-migratory", "java_ic_loc", cluster=cluster))
    second = run_spec(_spec("syn-migratory", "java_ic_loc", cluster=cluster))
    assert _payload(first) == _payload(second)


def test_run_spec_is_reproducible():
    """Two runs of the same spec agree byte for byte (seeded, pure)."""
    first = run_spec(_spec("asp", "java_pf"))
    second = run_spec(_spec("asp", "java_pf"))
    assert _payload(first) == _payload(second)
    assert first.events_processed == second.events_processed
    assert first.events_processed > 0


#: ``(events_processed, sha256 of the to_dict() payload, sha256 of the
#: ledger)`` of testing cells.  A flush, the CPU lock and the worker threads
#: may get cheaper, but must schedule exactly these events: a missing or
#: extra event moves where ties fall.  Two threads per node contend for one
#: CPU lock; the telemetry cells also pin their ledger (metrics and spans).
EVENT_PINS = {
    ("syn-hot-lock", "myrinet", "java_ic", 4, 1, False): (
        266, "a6af90b046dbca9036f5ff9ec3359e9523d93452f42d2cde5793cbc2462384d2", None,
    ),
    ("asp", "myrinet", "java_pf", 4, 1, False): (
        784, "2fd4871844983e07623018e4932819be34cc64fb23e10d8926d36a6c042f66ab", None,
    ),
    ("syn-producer-consumer", "myrinet", "java_hybrid", 4, 2, False): (
        652, "f5f85ac1cbab0678e2503a5f847ade716040f3d8973d5a8fe459795c22fed0b7", None,
    ),
    ("jacobi", "sci", "java_ic", 4, 2, True): (
        139,
        "917ba9f85eadced9560de0c503a2d4b5131a5c5d068bb4ff90d50a7fed6e8e18",
        "d29b1fd16ffbc065ab95aaa17a29fb3b074fcba9dbd296e4a05ea8e1062eb4ad",
    ),
    ("syn-migratory", "myrinet2x8", "java_ic_mig", 16, 1, True): (
        266,
        "377b45941cb19efdadc10ccc82d0c9ea7ecc4fec2366b8197871b19c18e0c2ba",
        "ea41706a1b1c0b8d96ff0ce9521ab81ecaffff5a5e488292cce0014c665046b9",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "cell", list(EVENT_PINS), ids=lambda cell: "/".join(map(str, cell))
)
def test_event_sequence_is_pinned(cell):
    """Events processed, report bytes and ledger match their recorded pins."""
    app, cluster, protocol, nodes, threads_per_node, telemetry = cell
    report = run_spec(
        ExperimentSpec(
            app=app,
            cluster=cluster,
            protocol=protocol,
            num_nodes=nodes,
            workload="testing",
            config=RuntimeConfig(threads_per_node=threads_per_node),
            telemetry=telemetry,
        )
    )
    events, digest, ledger = EVENT_PINS[cell]
    assert report.events_processed == events
    assert _sha256(_payload(report)) == digest
    if telemetry:
        blob = json.dumps(
            {"metrics": report.telemetry.metrics, "spans": report.telemetry.spans},
            sort_keys=True,
            separators=(",", ":"),
        )
        assert _sha256(blob) == ledger


#: miss-heavy scenarios on many islands: at testing scale most of their
#: accesses fetch a page, across 8 islands of ``myrinet_grid`` at n=64
GRID_MISS_APPS = ("syn-uniform", "syn-producer-consumer")


@pytest.mark.parametrize("protocol", TOPOLOGY_PROTOCOLS)
@pytest.mark.parametrize("app", GRID_MISS_APPS)
def test_many_island_fast_vs_reference_detection_identical(app, protocol):
    """Fast and reference detection agree on 64 nodes of ``myrinet_grid``."""
    spec = ExperimentSpec(
        app=app, cluster="myrinet_grid", protocol=protocol, num_nodes=64, workload="testing"
    )
    fast = run_spec(spec)
    with reference_detection():
        reference = run_spec(spec)
    assert _payload(fast) == _payload(reference)
    assert fast.stats.dsm.page_fetches > fast.stats.dsm.accesses // 4
