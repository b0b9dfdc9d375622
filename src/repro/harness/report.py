"""Rendering of the measured results: one markdown renderer per result type.

EXPERIMENTS.md is assembled from these renderers, and the CLI prints the
same sections, so the document and the terminal never disagree.
"""

from __future__ import annotations

from repro.harness.figures import FigureData


def ascii_plot(figure: FigureData, width: int = 60, height: int = 16) -> str:
    """Poor-man's plot of a figure (execution time vs. nodes)."""
    points_all = [t for series in figure.series for _, t in series.points]
    if not points_all:
        return "(empty figure)"
    t_max = max(points_all)
    n_max = max(n for series in figure.series for n, _ in series.points)
    grid = [[" "] * (width + 1) for _ in range(height + 1)]
    markers = "opxs*+"
    for idx, series in enumerate(figure.series):
        marker = markers[idx % len(markers)]
        for n, t in series.points:
            x = round(n / n_max * width)
            y = height - round(t / t_max * height)
            grid[y][x] = marker
    lines = [figure.title, f"(y: 0..{t_max:.3g} s, x: 0..{n_max} nodes)"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * (width + 1))
    legend = "  ".join(
        f"{markers[i % len(markers)]}={series.label}" for i, series in enumerate(figure.series)
    )
    lines.append(legend)
    return "\n".join(lines)


def improvement_summary(figures: dict[int, FigureData]) -> dict[str, dict[str, float]]:
    """Mean java_pf improvement per cluster and app, from generated figures."""
    summary: dict[str, dict[str, float]] = {}
    for figure in figures.values():
        for cluster, comparison in figure.comparisons.items():
            summary.setdefault(cluster, {})[figure.app] = comparison.mean_improvement()
    return summary


def render_improvement_markdown(figures: dict[int, FigureData]) -> str:
    """The Section 4.3 summary: mean java_pf improvement per cluster and app.

    Empty unless every figure plots both paper protocols.
    """
    if not all(figure.has_paper_pair() for figure in figures.values()):
        return ""
    lines = [
        "## Improvement summary (Section 4.3)",
        "",
        "| cluster | " + " | ".join(f.app for f in figures.values()) + " |",
        "|---" * (1 + len(figures)) + "|",
    ]
    for cluster, by_app in improvement_summary(figures).items():
        row = " | ".join(f"{by_app[f.app]:.1f}%" for f in figures.values())
        lines.append(f"| {cluster} | {row} |")
    return "\n".join(lines)


def render_scenario_grid_markdown(grid) -> str:
    """Markdown section for the synthetic-scenario comparison grid.

    When some cell crossed an inter-cluster link (only multi-island
    topologies do), each protocol row gains its worst inter-cluster share
    of page-transfer cost over the node counts.
    """
    shares = any(
        report.inter_cluster_page_fetches > 0
        for comparison in grid.comparisons.values()
        for report in comparison.reports.values()
    )
    columns = [str(n) for n in grid.node_counts] + ["inter-cluster share"] * shares
    lines: list[str] = []
    for name in sorted(grid.comparisons):
        comparison = grid.comparisons[name]
        lines.append(f"### {name}")
        lines.append("")
        lines.append("| protocol | " + " | ".join(columns) + " |")
        lines.append("|---" * (1 + len(columns)) + "|")
        for protocol in grid.protocols:
            by_node = dict(comparison.series(protocol))
            values = [f"{by_node[n]:.6f}" for n in grid.node_counts]
            if shares:
                worst = max(
                    comparison.report(protocol, n).inter_cluster_cost_share
                    for n in grid.node_counts
                )
                values.append(f"{worst:.3f}")
            lines.append(f"| {protocol} | {' | '.join(values)} |")
        if "java_ic" in grid.protocols and "java_pf" in grid.protocols:
            gaps = ", ".join(
                f"{n} nodes: {grid.page_fault_gap(name, n)}" for n in grid.node_counts
            )
            lines.append("")
            lines.append(f"*java_pf page faults over java_ic*: {gaps}")
        lines.append("")
    return "\n".join(lines)


def render_topology_grid_markdown(grid) -> str:
    """Markdown section for the topology comparison grid."""
    header = (
        "| topology | nodes | islands | "
        + " | ".join(grid.protocols)
        + " | inter-cluster share |"
    )
    separator = "|---" * (4 + len(grid.protocols)) + "|"
    payload = grid.to_dict()
    lines: list[str] = []
    for app in grid.apps:
        lines += [f"### {app}", "", header, separator]
        for name in grid.topologies:
            nodes = payload["topologies"][name]["num_nodes"]
            islands = payload["topologies"][name]["islands"]
            times = " | ".join(
                f"{grid.report(app, name, protocol).execution_seconds:.6f}"
                for protocol in grid.protocols
            )
            share = max(
                grid.inter_cluster_share(app, name, protocol)
                for protocol in grid.protocols
            )
            lines.append(f"| {name} | {nodes} | {islands} | {times} | {share:.3f} |")
        lines.append("")
    return "\n".join(lines)


def render_topology_scale_markdown(scale) -> str:
    """Markdown section for the thousand-node scaling sweep."""
    payload = scale.to_dict()
    lines = [
        "| protocol | nodes | islands | time [s] | page faults | inter-cluster share |",
        "|---" * 6 + "|",
    ]
    for protocol in scale.protocols:
        for count in scale.node_counts:
            cell = payload["series"][protocol][str(count)]
            lines.append(
                f"| {protocol} | {count} | {payload['islands'][str(count)]} | "
                f"{cell['execution_seconds']:.6f} | {cell['page_faults']} | "
                f"{cell['inter_cluster_cost_share']:.3f} |"
            )
    return "\n".join(lines)


def render_experiments_document(
    workload=None,
    session=None,
    figures: dict[int, FigureData] | None = None,
    protocols=None,
    topologies=None,
) -> str:
    """The full EXPERIMENTS.md document: measured figures vs. the paper.

    Regenerates the five figures, the calibration table and the synthetic
    scenario grid (through *session*, so ``--jobs`` / ``--cache-dir`` apply)
    and assembles them with :func:`render_experiments_markdown`.  Pass
    pre-computed *figures* to skip the figure simulations.  ``protocols``
    selects the plotted columns; the default is the full
    :data:`~repro.harness.figures.PROTOCOL_FAMILY`, so the document shows
    the paper's two series *and* the composed extension protocols.
    ``topologies`` selects the topology presets of the topology-grid
    section (default: all registered presets).
    """
    from repro.apps.workloads import WorkloadPreset
    from repro.harness.calibration import calibrate
    from repro.harness.figures import (
        PROTOCOL_FAMILY,
        generate_all_figures,
        generate_scenario_grid,
        generate_topology_grid,
        generate_topology_scale,
    )

    if protocols is None:
        protocols = PROTOCOL_FAMILY
    if isinstance(workload, str):
        workload = WorkloadPreset.by_name(workload)
    if figures is None:
        figures = generate_all_figures(
            workload=workload, session=session, protocols=protocols
        )
    scenario_grid = generate_scenario_grid(
        workload=workload if workload is not None else "bench",
        session=session,
        protocols=protocols,
    )
    topology_grid = generate_topology_grid(
        topologies=topologies,
        workload=workload if workload is not None else "bench",
        session=session,
    )
    topology_scale = generate_topology_scale(session=session)
    calibration = calibrate(workload=workload, session=session)
    workload_name = getattr(workload, "name", "bench") if workload is not None else "bench"
    lines: list[str] = [
        "# EXPERIMENTS — paper versus measured",
        "",
        "Regenerated by `hyperion-sim experiments` "
        f"at the `{workload_name}` workload scale.  The `bench` preset scales",
        "the paper's problem sizes down and compensates with per-element",
        "`work_multiplier`s so the computation-to-communication balance of the",
        "paper-scale programs is preserved (see the module docstring of",
        "`repro.apps.workloads` for the derivation).",
        "",
        "## Calibration against published constants",
        "",
        "```",
        calibration.render(),
        "```",
        "",
        "## Figures",
        "",
        render_experiments_markdown(figures),
    ]
    improvements = render_improvement_markdown(figures)
    if improvements:
        lines += ["", improvements]
    lines += [
        "",
        "## Synthetic scenario grid",
        "",
        "Seeded sharing-pattern generators (`repro.scenarios`, run with",
        "`hyperion-sim scenario`) probing access patterns the paper apps never",
        f"produce, on {scenario_grid.cluster} at the `{scenario_grid.workload_name}`",
        "scale.  Execution seconds per protocol and node count; the *page-fault*",
        "*gap* lines show how many more page faults `java_pf` takes than",
        "`java_ic` on the same cell (`java_ic` detects remote accesses with",
        "in-line checks instead of faulting).",
        "",
        render_scenario_grid_markdown(scenario_grid),
        "",
        "## Topology grid",
        "",
        "Cluster *shape* as a sweep dimension (`repro.cluster.topologies`,",
        "run with `hyperion-sim experiments --topology <preset>`): the",
        "same applications on the single-switch baselines and on the",
        "hierarchical presets (multi-cluster islands over a backbone, a",
        "two-tier switched tree, SCI cabled as a torus or ring), at up to",
        f"{topology_grid.num_nodes} nodes per cell.  The *inter-cluster share*",
        "column is the fraction of page-transfer latency spent crossing",
        "islands (the worst protocol of the row); `java_ic_loc` re-homes",
        "pages into the writer's island and is the column to compare against",
        "`java_ic` on the multi-island rows.",
        "",
        render_topology_grid_markdown(topology_grid),
        "",
        "## Topology scale (thousand-node sweep)",
        "",
        f"The `{topology_scale.topology}` preset — 8-node Myrinet islands over",
        "a Fast Ethernet backbone — swept from paper scale to 1024 nodes with",
        f"`{topology_scale.app}` at the `{topology_scale.workload_name}` scale",
        "(`repro.harness.figures.generate_topology_scale`, recorded by the",
        "`topology_scale.json` benchmark).  At 16 nodes the partition is",
        "exactly `myrinet2x8`'s, pinning the sweep to the golden-cell numbers;",
        "past that, fault counts grow with the node count and the inter-island",
        "share of page-transfer cost climbs towards 1 — island structure, not",
        "switch bandwidth, dominates transfer cost at scale.",
        "",
        render_topology_scale_markdown(topology_scale),
    ]
    return "\n".join(lines)


def render_experiments_markdown(figures: dict[int, FigureData]) -> str:
    """Markdown section for EXPERIMENTS.md with measured values."""
    lines: list[str] = []
    for number in sorted(figures):
        figure = figures[number]
        node_axis = sorted({n for series in figure.series for n, _ in series.points})
        lines.append(f"### Figure {number} ({figure.app})")
        lines.append("")
        lines.append("| cluster | protocol | " + " | ".join(
            str(n) for n in node_axis) + " |")
        lines.append("|---" * (2 + len(node_axis)) + "|")
        for series in figure.series:
            by_node = dict(series.points)
            values = " | ".join(
                f"{by_node[n]:.3f}" if n in by_node else "-" for n in node_axis
            )
            lines.append(f"| {series.cluster} | {series.protocol} | {values} |")
        if figure.has_paper_pair():
            for cluster, comparison in figure.comparisons.items():
                improvements = ", ".join(
                    f"{n} nodes: {pct:.1f}%"
                    for n, pct in comparison.improvements().items()
                )
                lines.append("")
                lines.append(f"*java_pf improvement on {cluster}*: {improvements}")
        lines.append("")
    return "\n".join(lines)
