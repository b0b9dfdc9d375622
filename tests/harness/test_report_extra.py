"""Extra coverage: markdown rendering, improvement summaries, hoisted protocol."""

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.figures import generate_all_figures
from repro.harness.report import improvement_summary, render_experiments_markdown
from repro.harness.session import Session
from tests.conftest import make_runtime


@pytest.fixture(scope="module")
def small_figures():
    preset = WorkloadPreset.testing()
    return {
        1: generate_all_figures(
            numbers=[1], workload=preset, clusters=("myrinet",), node_counts={"myrinet": [1, 2]}
        )[1],
        2: generate_all_figures(
            numbers=[2], workload=preset, clusters=("myrinet",), node_counts={"myrinet": [1, 2]}
        )[2],
    }


def test_render_experiments_markdown(small_figures):
    text = render_experiments_markdown(small_figures)
    assert "### Figure 1 (pi)" in text
    assert "### Figure 2 (jacobi)" in text
    assert "java_pf improvement on myrinet" in text
    assert "|" in text  # markdown tables


def test_improvement_summary_structure(small_figures):
    summary = improvement_summary(small_figures)
    assert set(summary) == {"myrinet"}
    assert set(summary["myrinet"]) == {"pi", "jacobi"}
    assert isinstance(summary["myrinet"]["jacobi"], float)


def test_hoisted_protocol_beats_plain_ic_on_array_code():
    """The check-hoisting variant recovers much of java_ic's per-element cost."""
    preset = WorkloadPreset.bench()
    comparison = Session().comparison(
        "jacobi",
        "myrinet",
        node_counts=[1],
        workload=preset.jacobi,
        protocols=("java_ic", "java_ic_hoisted", "java_pf"),
    )
    plain = comparison.report("java_ic", 1).execution_seconds
    hoisted = comparison.report("java_ic_hoisted", 1).execution_seconds
    pf = comparison.report("java_pf", 1).execution_seconds
    assert hoisted < plain
    # hoisting removes per-element checks, landing close to java_pf
    assert hoisted == pytest.approx(pf, rel=0.05)


def test_hoisted_protocol_functionally_correct(testing_preset):
    from repro.apps import create_app

    runtime = make_runtime(num_nodes=3, protocol="java_ic_hoisted")
    app = create_app("jacobi")
    report = app.run(runtime, testing_preset.jacobi)
    assert app.verify(report.result, testing_preset.jacobi)
    assert report.protocol == "java_ic_hoisted"
