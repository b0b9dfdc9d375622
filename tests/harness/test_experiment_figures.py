"""Tests for experiment cells, comparisons and figure generation."""

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.figures import (
    FIGURE_APPS,
    figure_for_app,
    generate_figure,
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
        generate_figure(9)


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
    figure = generate_figure(
        1,
        workload=testing,
        clusters=("myrinet",),
        node_counts={"myrinet": [1, 2]},
    )
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


def test_report_rendering(testing):
    figure = generate_figure(
        2,
        workload=testing,
        clusters=("myrinet",),
        node_counts={"myrinet": [1, 2]},
    )
    table = render_experiments_markdown({2: figure})
    assert "### Figure 2 (jacobi)" in table and "| myrinet | java_pf |" in table
    plot = ascii_plot(figure)
    assert "nodes" in plot
    summary = render_improvement_markdown({2: figure})
    assert "| cluster | jacobi |" in summary and "| myrinet | " in summary
