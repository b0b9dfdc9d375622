"""Integration tests asserting the paper's headline claims hold end to end.

These use the bench workload (scaled sizes with paper-equivalent work
multipliers) for the single-node anchor points and small node grids, so they
stay fast while exercising the full stack.
"""

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.session import Session

BENCH = WorkloadPreset.bench()


@pytest.fixture(scope="module")
def myrinet_one_node():
    """Single-node comparison on the Myrinet cluster for every benchmark."""
    return {
        app: Session().comparison(app, "myrinet", node_counts=[1], workload=BENCH.workload_for(app))
        for app in ("pi", "jacobi", "barnes", "tsp", "asp")
    }


def test_pi_protocols_indistinguishable(myrinet_one_node):
    """Claim 1: Pi performs essentially identically under both protocols."""
    improvement = myrinet_one_node["pi"].improvement_percent(1)
    assert abs(improvement) < 2.0


def test_java_pf_wins_on_object_intensive_benchmarks(myrinet_one_node):
    """Claim 2: java_pf outperforms java_ic for Jacobi, Barnes, TSP and ASP."""
    for app in ("jacobi", "barnes", "tsp", "asp"):
        assert myrinet_one_node[app].improvement_percent(1) > 20.0, app


def test_improvement_ordering_matches_paper(myrinet_one_node):
    """Claim 2b: ASP shows the largest improvement, Jacobi the smallest."""
    improvements = {
        app: myrinet_one_node[app].improvement_percent(1)
        for app in ("jacobi", "barnes", "tsp", "asp")
    }
    assert improvements["asp"] == max(improvements.values())
    assert improvements["jacobi"] == min(improvements.values())
    # the published anchors: 38% (Jacobi) and 64% (ASP), within a few points
    assert improvements["jacobi"] == pytest.approx(38.0, abs=5.0)
    assert improvements["asp"] == pytest.approx(64.0, abs=5.0)


def test_barnes_improvement_decreases_with_nodes():
    """Claim 3: Barnes' improvement shrinks as nodes are added."""
    comparison = Session().comparison(
        "barnes", "myrinet", node_counts=[1, 4, 8], workload=BENCH.barnes
    )
    improvements = comparison.improvements()
    assert improvements[1] > improvements[4] > improvements[8]
    assert improvements[8] > 0  # java_pf still wins


def test_jacobi_improvement_roughly_constant_with_nodes():
    """Claim 3b: for Jacobi the improvement barely changes with node count."""
    comparison = Session().comparison(
        "jacobi", "myrinet", node_counts=[1, 4, 8], workload=BENCH.jacobi
    )
    improvements = list(comparison.improvements().values())
    assert max(improvements) - min(improvements) < 5.0


def test_sci_improvement_smaller_than_myrinet():
    """Claim 4: the faster SCI-cluster CPUs make the checks matter less."""
    for app in ("jacobi", "asp"):
        myrinet = Session().comparison(
            app, "myrinet", node_counts=[1], workload=BENCH.workload_for(app)
        ).improvement_percent(1)
        sci = Session().comparison(
            app, "sci", node_counts=[1], workload=BENCH.workload_for(app)
        ).improvement_percent(1)
        assert sci < myrinet, app


def test_execution_time_decreases_with_nodes():
    """Basic scalability: more nodes means less simulated time (compute-bound apps)."""
    for app in ("pi", "jacobi", "asp"):
        comparison = Session().comparison(
            app, "myrinet", node_counts=[1, 4], workload=BENCH.workload_for(app)
        )
        series = dict(comparison.series("java_pf"))
        assert series[4] < series[1]


def test_fault_counts_only_under_java_pf():
    comparison = Session().comparison(
        "jacobi", "myrinet", node_counts=[2], workload=BENCH.jacobi
    )
    ic_stats = comparison.report("java_ic", 2).stats.dsm
    pf_stats = comparison.report("java_pf", 2).stats.dsm
    assert ic_stats.page_faults == 0 and ic_stats.mprotect_calls == 0
    assert ic_stats.inline_checks > 0
    assert pf_stats.inline_checks == 0
    assert pf_stats.page_faults > 0 and pf_stats.mprotect_calls > 0
