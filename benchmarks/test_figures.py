"""E1-E5: regenerate Figures 1-5 of the paper (execution time vs. nodes).

Each benchmark runs the full four-series grid (Myrinet/SCI x java_ic/java_pf)
once, asserts the qualitative result the paper reports for that figure, and
records the regenerated series in the benchmark JSON.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import FIGURE_NODE_COUNTS, record_figure
from repro.harness.figures import generate_all_figures
from repro.harness.report import render_experiments_markdown


def _generate(number, bench_preset, session=None):
    return generate_all_figures(
        numbers=[number],
        workload=bench_preset,
        node_counts={k: list(v) for k, v in FIGURE_NODE_COUNTS.items()},
        session=session,
    )[number]


@pytest.mark.benchmark(group="figures")
def test_fig1_pi(benchmark, bench_preset, bench_session, results_dir):
    """Figure 1 (Pi): the two protocols perform essentially identically."""
    figure = benchmark.pedantic(
        _generate, args=(1, bench_preset, bench_session), rounds=1, iterations=1
    )
    record_figure(benchmark, figure, results_dir)
    print(render_experiments_markdown({figure.number: figure}))
    for cluster in ("myrinet", "sci"):
        for nodes, improvement in figure.improvements(cluster).items():
            assert abs(improvement) < 6.0, (cluster, nodes, improvement)


@pytest.mark.benchmark(group="figures")
def test_fig2_jacobi(benchmark, bench_preset, bench_session, results_dir):
    """Figure 2 (Jacobi): java_pf wins by ~38% on Myrinet, roughly constant."""
    figure = benchmark.pedantic(
        _generate, args=(2, bench_preset, bench_session), rounds=1, iterations=1
    )
    record_figure(benchmark, figure, results_dir)
    print(render_experiments_markdown({figure.number: figure}))
    myrinet = figure.improvements("myrinet")
    assert all(imp > 25.0 for imp in myrinet.values())
    assert max(myrinet.values()) - min(myrinet.values()) < 10.0
    assert figure.comparisons["sci"].mean_improvement() < figure.comparisons["myrinet"].mean_improvement()


@pytest.mark.benchmark(group="figures")
def test_fig3_barnes(benchmark, bench_preset, bench_session, results_dir):
    """Figure 3 (Barnes): improvement shrinks with node count but stays positive."""
    figure = benchmark.pedantic(
        _generate, args=(3, bench_preset, bench_session), rounds=1, iterations=1
    )
    record_figure(benchmark, figure, results_dir)
    print(render_experiments_markdown({figure.number: figure}))
    myrinet = figure.improvements("myrinet")
    counts = sorted(myrinet)
    assert myrinet[counts[0]] > myrinet[counts[-1]]
    assert myrinet[counts[0]] == pytest.approx(46.0, abs=8.0)
    assert all(imp > 5.0 for imp in myrinet.values())


@pytest.mark.benchmark(group="figures")
def test_fig4_tsp(benchmark, bench_preset, bench_session, results_dir):
    """Figure 4 (TSP): java_pf wins, improvement between Jacobi's and ASP's."""
    figure = benchmark.pedantic(
        _generate, args=(4, bench_preset, bench_session), rounds=1, iterations=1
    )
    record_figure(benchmark, figure, results_dir)
    print(render_experiments_markdown({figure.number: figure}))
    myrinet = figure.improvements("myrinet")
    assert all(35.0 < imp < 60.0 for imp in myrinet.values())


@pytest.mark.benchmark(group="figures")
def test_fig5_asp(benchmark, bench_preset, bench_session, results_dir):
    """Figure 5 (ASP): the largest improvement of all benchmarks (~64%)."""
    figure = benchmark.pedantic(
        _generate, args=(5, bench_preset, bench_session), rounds=1, iterations=1
    )
    record_figure(benchmark, figure, results_dir)
    print(render_experiments_markdown({figure.number: figure}))
    myrinet = figure.improvements("myrinet")
    assert myrinet[1] == pytest.approx(64.0, abs=5.0)
    assert all(imp > 45.0 for imp in myrinet.values())
