"""A1-A4: ablation benchmarks for the design choices DESIGN.md calls out.

* A1 — DSM page size (granularity / pre-fetching trade-off);
* A2 — in-line check cost: where is the java_ic / java_pf crossover?
* A3 — more than one application thread per node (paper Section 4.3 future
  work: computation/communication overlap);
* A4 — load-balancer policy for thread placement.
"""

from __future__ import annotations

import json

import pytest


@pytest.mark.benchmark(group="ablations")
def test_ablation_pagesize(benchmark, bench_preset, bench_session, results_dir):
    """A1: Jacobi under page sizes from 1 KiB to 16 KiB."""
    result = benchmark.pedantic(
        bench_session.ablation,
        args=("page_size", "jacobi"),
        kwargs={
            "num_nodes": 8,
            "values": (1024, 4096, 16384),
            "workload": bench_preset.jacobi,
        },
        rounds=1,
        iterations=1,
    )
    print(result.render())
    benchmark.extra_info["sweep"] = {str(k): v for k, v in result.times.items()}
    (results_dir / "ablation_pagesize.json").write_text(
        json.dumps({str(k): v for k, v in result.times.items()}, indent=2)
    )
    # At the bench scale Jacobi exchanges only one boundary row per neighbour
    # per step, so the page size moves the time by a few percent at most in
    # either direction (smaller pages mean more requests, larger pages mean
    # more bytes per request).  Assert the effect stays second-order and that
    # java_pf remains the faster protocol at every granularity.
    pf = dict(result.series("java_pf"))
    ic = dict(result.series("java_ic"))
    assert max(pf.values()) / min(pf.values()) < 1.3
    assert all(pf[size] < ic[size] for size in pf)


@pytest.mark.benchmark(group="ablations")
def test_ablation_checkcost(benchmark, bench_preset, bench_session, results_dir):
    """A2: sweep the in-line check cost; java_ic only wins when checks are ~free."""
    result = benchmark.pedantic(
        bench_session.ablation,
        args=("check_cost", "asp"),
        kwargs={
            "num_nodes": 4,
            "values": (0.5, 2.0, 8.0, 32.0),
            "workload": bench_preset.asp,
        },
        rounds=1,
        iterations=1,
    )
    print(result.render())
    benchmark.extra_info["sweep"] = {str(k): v for k, v in result.times.items()}
    ic = dict(result.series("java_ic"))
    pf = dict(result.series("java_pf"))
    # java_pf does not depend on the check cost; java_ic degrades monotonically
    assert ic[32.0] > ic[8.0] > ic[2.0] > ic[0.5]
    assert abs(pf[32.0] - pf[0.5]) / pf[0.5] < 0.01
    assert ic[8.0] > pf[8.0]


@pytest.mark.benchmark(group="ablations")
def test_ablation_threads_per_node(benchmark, bench_preset, bench_session, results_dir):
    """A3: several application threads per node (paper future work)."""
    result = benchmark.pedantic(
        bench_session.ablation,
        args=("threads", "jacobi"),
        kwargs={
            "num_nodes": 4,
            "values": (1, 2, 4),
            "workload": bench_preset.jacobi,
        },
        rounds=1,
        iterations=1,
    )
    print(result.render())
    benchmark.extra_info["sweep"] = {str(k): v for k, v in result.times.items()}
    pf = dict(result.series("java_pf"))
    # compute still serialises on the single CPU per node, so times stay in
    # the same ballpark; communication overlap keeps the penalty small
    assert pf[4] < pf[1] * 1.5


@pytest.mark.benchmark(group="ablations")
def test_ablation_loadbalancer(benchmark, bench_preset, bench_session, results_dir):
    """A4: thread-placement policy for the Barnes benchmark."""
    result = benchmark.pedantic(
        bench_session.ablation,
        args=("balancer", "barnes"),
        kwargs={
            "num_nodes": 4,
            "values": ("round_robin", "block", "random"),
            "workload": bench_preset.barnes,
        },
        rounds=1,
        iterations=1,
    )
    print(result.render())
    benchmark.extra_info["sweep"] = {str(k): v for k, v in result.times.items()}
    for protocol in ("java_ic", "java_pf"):
        times = dict(result.series(protocol))
        assert all(t > 0 for t in times.values())
