"""Tests for experiment cells, comparisons and figure generation."""

import re

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.figures import (
    FIGURE_APPS,
    figure_for_app,
    generate_all_figures,
    generate_scenario_grid,
    generate_topology_scale,
)
from repro.harness.report import (
    ascii_plot,
    render_experiments_markdown,
    render_improvement_markdown,
)
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec


@pytest.fixture(scope="module")
def testing():
    return WorkloadPreset.testing()


def test_figure_app_mapping_matches_paper():
    assert FIGURE_APPS == {1: "pi", 2: "jacobi", 3: "barnes", 4: "tsp", 5: "asp"}
    assert figure_for_app("jacobi") == 2
    with pytest.raises(KeyError):
        figure_for_app("linpack")
    with pytest.raises(KeyError):
        generate_all_figures(numbers=[9])


def test_run_cell_returns_report_and_verifies(testing):
    report = Session().cell("pi", "myrinet", "java_pf", 2, workload=testing.pi, verify=True)
    assert report.num_nodes == 2
    assert report.protocol == "java_pf"
    assert report.execution_seconds > 0


def test_run_cell_accepts_preset_names(testing):
    report = Session().cell("pi", "sci", "java_ic", 1, workload="testing")
    assert report.cluster == "sci"


def test_experiment_cell_label():
    cell = ExperimentSpec(app="asp", cluster="sci", protocol="java_pf", num_nodes=3)
    assert cell.label() == "asp/sci/java_pf/n3"


def test_run_comparison_series_and_improvement(testing):
    comparison = Session().comparison(
        "jacobi", "myrinet", node_counts=[1, 2], workload=testing.jacobi
    )
    ic = dict(comparison.series("java_ic"))
    pf = dict(comparison.series("java_pf"))
    assert set(ic) == {1, 2} and set(pf) == {1, 2}
    improvement = comparison.improvement_percent(1)
    assert improvement == pytest.approx(100 * (ic[1] - pf[1]) / ic[1])
    assert comparison.mean_improvement() == pytest.approx(
        sum(comparison.improvements().values()) / 2
    )


def test_generate_figure_structure(testing):
    figure = generate_all_figures(
        numbers=[1],
        workload=testing,
        clusters=("myrinet",),
        node_counts={"myrinet": [1, 2]},
    )[1]
    assert figure.app == "pi"
    assert len(figure.series) == 2  # one cluster x two protocols
    series = figure.series_for("myrinet", "java_pf")
    assert [n for n, _ in series.points] == [1, 2]
    assert "Myrinet" in series.label
    payload = figure.to_dict()
    assert payload["figure"] == 1
    assert payload["improvements"]["myrinet"]
    with pytest.raises(KeyError):
        figure.series_for("sci", "java_pf")


def test_a_figure_drops_a_node_count_on_the_clusters_too_small_for_it(testing):
    figure = generate_all_figures(
        numbers=[1],
        workload=testing,
        node_counts={"myrinet": [1, 8], "sci": [1, 8]},
    )[1]
    assert [n for n, _ in figure.series_for("myrinet", "java_pf").points] == [1, 8]
    assert [n for n, _ in figure.series_for("sci", "java_pf").points] == [1]
    assert sorted(figure.improvements("sci")) == [1]


@pytest.mark.parametrize(
    "generate, kwargs, message",
    [
        (generate_scenario_grid, {"cluster": "sci", "node_counts": (1, 8)},
         "nodes 8: cluster 'sci' has 6 nodes"),
        (generate_topology_scale, {"node_counts": (16, 2048)},
         "nodes 2048: cluster 'myrinet_grid' has 1024 nodes"),
    ],
    ids=["scenario-grid", "topology-scale"],
)
def test_a_grid_rejects_a_node_count_no_cluster_can_host(
    generate, kwargs, message, monkeypatch
):
    from repro.harness import executor

    executed = []
    monkeypatch.setattr(executor, "run_spec", executed.append)
    with pytest.raises(ValueError, match=re.escape(message)):
        generate(**kwargs)
    assert executed == []


def test_report_rendering(testing):
    figure = generate_all_figures(
        numbers=[2],
        workload=testing,
        clusters=("myrinet",),
        node_counts={"myrinet": [1, 2]},
    )[2]
    table = render_experiments_markdown({2: figure})
    assert "### Figure 2 (jacobi)" in table and "| myrinet | java_pf |" in table
    plot = ascii_plot(figure)
    assert "nodes" in plot
    summary = render_improvement_markdown({2: figure})
    assert "| cluster | jacobi |" in summary and "| myrinet | " in summary


def test_plot_label_shows_a_testing_scale_maximum(testing):
    # testing-scale points are a few milliseconds, which two decimals read as 0
    figure = generate_all_figures(
        numbers=[1],
        workload=testing,
        clusters=("myrinet",),
        node_counts={"myrinet": [1, 2]},
    )[1]
    t_max = max(t for series in figure.series for _, t in series.points)
    assert t_max < 0.005
    label = ascii_plot(figure).splitlines()[1]
    assert label.startswith("(y: 0..") and label.endswith(" nodes)")
    shown = float(label.removeprefix("(y: 0..").split(" s,")[0])
    assert shown > 0
    assert shown == pytest.approx(t_max, rel=5e-3)
