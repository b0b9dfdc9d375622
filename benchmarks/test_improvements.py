"""E6: the Section 4.3 improvement summary across all apps and clusters."""

from __future__ import annotations

import json

import pytest

from repro.harness.figures import FIGURE_APPS
from repro.harness.report import improvement_table
from repro.harness.session import Session


def _summary(bench_preset, session: Session):
    comparisons = {}
    for cluster, counts in (("myrinet", [1, 4, 12]), ("sci", [1, 3, 6])):
        comparisons[cluster] = {}
        for app in sorted(FIGURE_APPS.values()):
            comparisons[cluster][app] = session.comparison(
                app,
                cluster,
                node_counts=counts,
                workload=bench_preset.workload_for(app),
            )
    return comparisons


@pytest.mark.benchmark(group="summary")
def test_improvement_summary(benchmark, bench_preset, bench_session, results_dir):
    comparisons = benchmark.pedantic(
        _summary, args=(bench_preset, bench_session), rounds=1, iterations=1
    )
    table = improvement_table(comparisons)
    print(table)
    summary = {
        cluster: {app: comp.mean_improvement() for app, comp in by_app.items()}
        for cluster, by_app in comparisons.items()
    }
    benchmark.extra_info["improvements"] = summary
    (results_dir / "improvement_summary.json").write_text(json.dumps(summary, indent=2))

    # the paper's Section 4.3 claims
    myrinet, sci = summary["myrinet"], summary["sci"]
    object_apps = ("jacobi", "barnes", "tsp", "asp")
    assert all(myrinet[app] > 15.0 for app in object_apps)
    assert abs(myrinet["pi"]) < 5.0
    assert myrinet["asp"] == max(myrinet[app] for app in object_apps)
    # SCI improvements are smaller on average than Myrinet's
    mean_myrinet = sum(myrinet[app] for app in object_apps) / len(object_apps)
    mean_sci = sum(sci[app] for app in object_apps) / len(object_apps)
    assert mean_sci < mean_myrinet
