"""Command-line interface: ``hyperion-sim``.

Sub-commands::

    hyperion-sim figure 2                 # regenerate Figure 2 (Jacobi)
    hyperion-sim all                      # all five figures + improvement table
    hyperion-sim all --jobs 4 --cache-dir .hyperion-cache
    hyperion-sim run jacobi --protocol java_pf --cluster myrinet --nodes 4
    hyperion-sim run asp --trace-out asp.jsonl   # dump the event trace
    hyperion-sim run jacobi --sanitize    # JMM consistency sanitizer findings
    hyperion-sim run jacobi --telemetry   # out-of-band metrics + span ledger
    hyperion-sim run asp --telemetry-out asp-telemetry.json
    hyperion-sim report asp-telemetry.json        # per-phase breakdown
    hyperion-sim report asp-telemetry.json --chrome-out asp-trace.json
    hyperion-sim lint                     # determinism/perf lint (HYP001-007)
    hyperion-sim protocols                # the protocol family + its layers
    hyperion-sim topologies               # cluster shapes + their islands
    hyperion-sim figure 2 --protocols java_ic,java_pf,java_hybrid
    hyperion-sim figure 2 --topology myrinet2x8
    hyperion-sim scenario sweep --topology myrinet2x8
    hyperion-sim scenario list            # the registered syn-* scenarios
    hyperion-sim scenario run syn-false-sharing --seed 7
    hyperion-sim scenario run syn-uniform --pattern-arg write_fraction=0.5
    hyperion-sim scenario sweep --nodes 1,2,4,8 --jobs 4
    hyperion-sim sweep check_cost --app asp --nodes 4
    hyperion-sim grid --apps pi,jacobi --nodes 1,2,4 --jobs 4 \
        --checkpoint-dir .ckpt            # sharded, resumable sweep
    hyperion-sim grid ... --resume        # continue an interrupted grid
    hyperion-sim serve --port 8642        # JSON sweep API (see DESIGN.md)
    hyperion-sim profile asp --nodes 4   # host-side profiling (repro.perf)
    hyperion-sim calibrate                # check the cost model against the paper
    hyperion-sim experiments -o EXPERIMENTS.md
    hyperion-sim describe [section]       # presets / protocols / scenarios ...

``--jobs N`` fans the experiment cells out over N worker processes;
``--cache-dir PATH`` persists every cell's result so a repeated invocation
re-runs nothing.  Both flags configure the underlying
:class:`~repro.harness.session.Session` and are accepted by the ``figure``,
``all``, ``sweep``, ``scenario run``/``scenario sweep``, ``calibrate`` and
``experiments`` subcommands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.apps.base import available_apps
from repro.apps.workloads import WorkloadPreset
from repro.cluster.presets import cluster_by_name, list_clusters
from repro.cluster.topologies import (
    available_topology_presets,
    topology_preset_by_name,
)
from repro.core.protocol import (
    available_protocols,
    create_protocol,
    protocol_composition,
)
from repro.dsm.page_manager import PageManager
from repro.pm2.isoaddr import IsoAddressAllocator
from repro.harness.figures import (
    FIGURE_APPS,
    PAPER_PROTOCOLS,
    PROTOCOL_FAMILY,
    generate_all_figures,
    generate_figure,
    generate_scenario_grid,
)
from repro.harness.matrix import ExperimentMatrix
from repro.harness.report import (
    ascii_plot,
    figure_table,
    improvement_table,
    render_experiments_document,
)
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec, resolve_workload, run_spec_runtime
from repro.harness.sweep import ABLATIONS
from repro.hyperion.runtime import RuntimeConfig
from repro.scenarios.registry import (
    SCENARIO_PREFIX,
    available_scenarios,
    get_pattern,
    scenario_parameters,
    scenario_workload,
)
from repro.perf import Profiler, perf_report, perf_report_dict
from repro.perf.profiler import SORT_KEYS as PROFILE_SORT_KEYS
from repro.util.logging import enable_console, get_logger


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw}")
    return value


def _add_protocols_flag(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--protocols",
        default=default,
        metavar="P,P,...",
        help=f"comma-separated protocol columns (default: {default})",
    )


def _add_topology_flag(
    parser: argparse.ArgumentParser, help_text: str | None = None
) -> None:
    parser.add_argument(
        "--topology",
        default=None,
        choices=available_topology_presets(),
        metavar="PRESET",
        help=help_text
        or (
            "run on a topology preset's cluster instead of --cluster / the "
            "paper platforms (see `hyperion-sim topologies`)"
        ),
    )


def _add_sanitize_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="run under the JMM consistency sanitizer and print its findings",
    )
    parser.add_argument(
        "--sanitize-out",
        default=None,
        metavar="PATH",
        help="also write the sanitizer report to PATH as JSON (implies --sanitize)",
    )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="collect the out-of-band telemetry ledger (metrics + virtual-time "
        "spans) and print the per-phase breakdown",
    )
    parser.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="also write the telemetry ledger to PATH as JSON (implies --telemetry)",
    )
    parser.add_argument(
        "--chrome-out",
        default=None,
        metavar="PATH",
        help="also write a Chrome trace-event JSON for Perfetto (implies --telemetry)",
    )


def _add_log_json_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit progress logging as JSON lines (one object per record)",
    )


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run experiment cells on N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist per-cell results under PATH and reuse them on re-runs",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperion-sim",
        description="Reproduction of 'Remote Object Detection in Cluster-Based Java'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    figure.add_argument("number", type=int, choices=sorted(FIGURE_APPS))
    figure.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    figure.add_argument("--plot", action="store_true", help="also print an ASCII plot")
    figure.add_argument("--json", action="store_true", help="print JSON instead of a table")
    _add_protocols_flag(figure, ",".join(PAPER_PROTOCOLS))
    _add_topology_flag(figure)
    _add_session_flags(figure)

    everything = sub.add_parser("all", help="regenerate all five figures")
    everything.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    everything.add_argument("--json", action="store_true")
    _add_protocols_flag(everything, ",".join(PAPER_PROTOCOLS))
    _add_topology_flag(everything)
    _add_session_flags(everything)

    protocols_cmd = sub.add_parser(
        "protocols",
        help="list registered protocols with their description and layers",
    )
    protocols_cmd.add_argument("--json", action="store_true")

    topologies_cmd = sub.add_parser(
        "topologies",
        help="list topology presets (cluster shapes) with their islands",
    )
    topologies_cmd.add_argument("--json", action="store_true")

    run = sub.add_parser("run", help="run a single experiment cell")
    run.add_argument("app", choices=available_apps())
    run.add_argument("--cluster", default="myrinet", choices=list_clusters())
    run.add_argument("--protocol", default="java_pf", choices=available_protocols())
    run.add_argument("--nodes", type=int, default=4)
    run.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    run.add_argument("--verify", action="store_true")
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record the simulation event trace and write it to PATH as JSONL",
    )
    _add_sanitize_flags(run)
    _add_telemetry_flags(run)

    scenario = sub.add_parser(
        "scenario", help="generated synthetic scenarios (list / run / sweep)"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    scenario_sub.add_parser(
        "list", help="list registered scenarios and their pattern parameters"
    )

    scenario_run = scenario_sub.add_parser("run", help="run one scenario cell")
    scenario_run.add_argument("name", choices=available_scenarios())
    scenario_run.add_argument("--cluster", default="myrinet", choices=list_clusters())
    scenario_run.add_argument(
        "--protocol", default="java_pf", choices=available_protocols()
    )
    scenario_run.add_argument("--nodes", type=int, default=4)
    scenario_run.add_argument(
        "--scale", default="bench", choices=["testing", "bench", "paper"]
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="override the pattern's RNG seed"
    )
    scenario_run.add_argument(
        "--pattern-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one pattern parameter (repeatable); see `scenario list`",
    )
    scenario_run.add_argument("--verify", action="store_true")
    scenario_run.add_argument("--json", action="store_true")
    scenario_run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record the simulation event trace and write it to PATH as JSONL",
    )
    _add_sanitize_flags(scenario_run)
    _add_telemetry_flags(scenario_run)
    _add_session_flags(scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="the scenario comparison grid (protocols x node counts)"
    )
    scenario_sweep.add_argument(
        "name",
        nargs="?",
        default=None,
        choices=available_scenarios(),
        help="sweep one scenario (default: all registered scenarios)",
    )
    scenario_sweep.add_argument("--cluster", default="myrinet", choices=list_clusters())
    scenario_sweep.add_argument(
        "--nodes",
        default="1,2,4,8",
        metavar="N,N,...",
        help="comma-separated node counts (default: 1,2,4,8)",
    )
    scenario_sweep.add_argument(
        "--scale", default="bench", choices=["testing", "bench", "paper"]
    )
    scenario_sweep.add_argument(
        "--seed", type=int, default=None, help="override every pattern's RNG seed"
    )
    _add_protocols_flag(scenario_sweep, ",".join(PROTOCOL_FAMILY))
    _add_topology_flag(scenario_sweep)
    scenario_sweep.add_argument("--json", action="store_true")
    scenario_sweep.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="also write the grid JSON to PATH",
    )
    _add_session_flags(scenario_sweep)

    sweep = sub.add_parser("sweep", help="run one of the ablation sweeps (A1-A4)")
    sweep.add_argument("kind", choices=sorted(ABLATIONS))
    sweep.add_argument("--app", required=True, choices=available_apps())
    sweep.add_argument("--cluster", default="myrinet", choices=list_clusters())
    sweep.add_argument("--nodes", type=int, default=4)
    sweep.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    sweep.add_argument(
        "--values",
        default=None,
        help="comma-separated swept values (default: the sweep's own grid)",
    )
    sweep.add_argument(
        "--sanitize",
        action="store_true",
        help="run every cell under the JMM consistency sanitizer",
    )
    _add_session_flags(sweep)

    grid = sub.add_parser(
        "grid",
        help="run an experiment grid as a sharded, checkpointed, resumable sweep",
    )
    grid.add_argument(
        "--apps",
        required=True,
        metavar="A,A,...",
        help="comma-separated applications (see `hyperion-sim describe benchmarks`)",
    )
    grid.add_argument(
        "--clusters",
        default="myrinet",
        metavar="C,C,...",
        help="comma-separated cluster presets (default: myrinet)",
    )
    grid.add_argument(
        "--nodes",
        default=None,
        metavar="N,N,...",
        help="comma-separated node counts (default: each cluster's own counts)",
    )
    _add_protocols_flag(grid, ",".join(PAPER_PROTOCOLS))
    grid.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    grid.add_argument(
        "--shard-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="cells per checkpoint shard (default: 8, capped at the grid size)",
    )
    grid.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="PATH",
        help="checkpoint finished shards under PATH (required for --resume)",
    )
    grid.add_argument(
        "--resume",
        action="store_true",
        help="reload finished shards from --checkpoint-dir instead of rerunning",
    )
    grid.add_argument("--json", action="store_true", help="print the grid as JSON")
    grid.add_argument(
        "-o",
        "--output",
        default=None,
        metavar="PATH",
        help="also write the grid JSON to PATH",
    )
    grid.add_argument(
        "--telemetry",
        action="store_true",
        help="run every cell with the out-of-band telemetry ledger on",
    )
    grid.add_argument(
        "--telemetry-out",
        default=None,
        metavar="PATH",
        help="write the job-level telemetry (aggregated metrics + cell "
        "ledgers) to PATH as JSON (implies --telemetry)",
    )
    _add_log_json_flag(grid)
    _add_session_flags(grid)

    serve = sub.add_parser(
        "serve",
        help="serve the sweep JSON API (submit/poll/fetch; see DESIGN.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642)
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="background sweeps running concurrently (default: 1)",
    )
    serve.add_argument(
        "--shard-size",
        type=_positive_int,
        default=None,
        metavar="N",
        help="default cells per checkpoint shard for submitted sweeps",
    )
    serve.add_argument(
        "--checkpoint-root",
        default=None,
        metavar="PATH",
        help="checkpoint each sweep under PATH/<sweep-id>/",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="run submitted sweeps without the out-of-band telemetry ledger",
    )
    _add_log_json_flag(serve)
    _add_session_flags(serve)

    report_cmd = sub.add_parser(
        "report",
        help="summarise a telemetry ledger JSON (per-phase virtual-time breakdown)",
    )
    report_cmd.add_argument(
        "path", metavar="TELEMETRY_JSON", help="a --telemetry-out ledger file"
    )
    report_cmd.add_argument("--json", action="store_true", help="print the summary as JSON")
    report_cmd.add_argument(
        "--chrome-out",
        default=None,
        metavar="PATH",
        help="also convert the ledger to Chrome trace-event JSON for Perfetto",
    )

    lint = sub.add_parser(
        "lint",
        help="repo-specific determinism/performance lint (HYP001-HYP007)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument("--json", action="store_true")

    profile = sub.add_parser(
        "profile",
        help="profile the simulator itself (host wall time, events/sec, cProfile)",
    )
    profile.add_argument(
        "app",
        nargs="?",
        default=None,
        choices=available_apps(),
        help="profile one cell of this app (default: one cell per app)",
    )
    profile.add_argument("--cluster", default="myrinet", choices=list_clusters())
    profile.add_argument("--protocol", default="java_pf", choices=available_protocols())
    profile.add_argument("--nodes", type=int, default=4)
    profile.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    profile.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the pattern's RNG seed (syn-* apps only)",
    )
    profile.add_argument(
        "--pattern-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one pattern parameter (syn-* apps only, repeatable)",
    )
    profile.add_argument(
        "--sort", default="cumulative", choices=sorted(PROFILE_SORT_KEYS),
        help="cProfile sort key for the per-cell tables",
    )
    profile.add_argument(
        "--limit", type=_positive_int, default=15,
        help="rows kept per cProfile table (default: 15)",
    )
    profile.add_argument(
        "--no-cprofile", action="store_true",
        help="skip cProfile capture (pure wall-clock/throughput numbers)",
    )
    profile.add_argument(
        "--json", action="store_true", help="print the aggregate as JSON"
    )

    calibrate_cmd = sub.add_parser("calibrate", help="check the cost model against the paper")
    _add_session_flags(calibrate_cmd)

    experiments = sub.add_parser(
        "experiments", help="regenerate EXPERIMENTS.md from measured figures"
    )
    experiments.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])
    experiments.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the markdown here instead of stdout",
    )
    _add_protocols_flag(experiments, ",".join(PROTOCOL_FAMILY))
    _add_topology_flag(
        experiments,
        help_text=(
            "restrict the document's topology-grid section to PRESET "
            "(the figure and scenario sections keep the paper platforms)"
        ),
    )
    _add_session_flags(experiments)

    describe = sub.add_parser(
        "describe", help="list cluster presets, protocols, benchmarks and scenarios"
    )
    describe.add_argument(
        "section",
        nargs="?",
        default=None,
        choices=sorted(DESCRIBE_SECTIONS),
        help="print only this section (default: all)",
    )
    return parser


def _workload(scale: str):
    return WorkloadPreset.by_name(scale)


class CliError(Exception):
    """A user-facing CLI failure (printed without a traceback, exit 2)."""


def _session(args) -> Session:
    """Build the Session the subcommand's --jobs/--cache-dir flags describe."""
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache_dir", None)
    try:
        return Session.from_options(jobs=jobs, cache_dir=cache_dir)
    except OSError as exc:
        raise CliError(
            f"--cache-dir {cache_dir!r} is not a usable directory: {exc}"
        ) from exc


def _protocol_columns(args) -> tuple:
    """Parse and validate a ``--protocols`` comma list."""
    names = tuple(p for p in args.protocols.split(",") if p)
    if not names:
        raise CliError("--protocols selected no protocols")
    known = available_protocols()
    unknown = [p for p in names if p not in known]
    if unknown:
        raise CliError(
            f"unknown protocol(s) {', '.join(unknown)}; "
            f"available: {', '.join(known)}"
        )
    return names


def _figure_clusters(args) -> tuple:
    """The cluster columns a figure plots: the paper pair or one preset."""
    if getattr(args, "topology", None):
        return (args.topology,)
    return ("myrinet", "sci")


def cmd_figure(args) -> int:
    data = generate_figure(
        args.number,
        workload=_workload(args.scale),
        clusters=_figure_clusters(args),
        protocols=_protocol_columns(args),
        session=_session(args),
    )
    if args.json:
        print(json.dumps(data.to_dict(), indent=2))
    else:
        print(figure_table(data))
        if args.plot:
            print()
            print(ascii_plot(data))
    return 0


def cmd_all(args) -> int:
    figures = generate_all_figures(
        workload=_workload(args.scale),
        clusters=_figure_clusters(args),
        protocols=_protocol_columns(args),
        session=_session(args),
    )
    if args.json:
        print(json.dumps({n: f.to_dict() for n, f in figures.items()}, indent=2))
        return 0
    for number in sorted(figures):
        print(figure_table(figures[number]))
        print()
    comparisons = {}
    for figure in figures.values():
        for cluster, comparison in figure.comparisons.items():
            comparisons.setdefault(cluster, {})[figure.app] = comparison
    print(improvement_table(comparisons))
    return 0


def _probe_protocol(name: str):
    """Instantiate *name* over a tiny two-node rig (for ``describe()`` only)."""
    cluster = cluster_by_name("myrinet")
    cost_model = cluster.cost_model()
    isoaddr = IsoAddressAllocator(
        num_nodes=2, arena_size=1 << 20, page_size=cluster.page_size
    )
    page_manager = PageManager(
        num_nodes=2,
        page_size=cluster.page_size,
        isoaddr=isoaddr,
        cost_model=cost_model,
        topology=cluster.topology_factory(2, cluster.network),
    )
    return create_protocol(name, page_manager, cost_model)


def _protocol_entries() -> list[dict]:
    """One row per registered protocol: description plus layer composition."""
    entries = []
    for name in available_protocols():
        protocol = _probe_protocol(name)
        layers = protocol_composition(name)
        entries.append(
            {
                "name": name,
                "description": protocol.describe(),
                "uses_page_faults": bool(protocol.uses_page_faults),
                "detection": layers["detection"] if layers else None,
                "home_policy": layers["home_policy"] if layers else None,
            }
        )
    return entries


def _print_protocol_entries() -> None:
    for entry in _protocol_entries():
        # describe() lines already lead with the protocol name
        print(f"  {entry['description']}")
        if entry["detection"]:
            print(
                f"      layers: detection={entry['detection']}, "
                f"home_policy={entry['home_policy']}"
            )


def cmd_protocols(args) -> int:
    if args.json:
        print(json.dumps(_protocol_entries(), indent=2, sort_keys=True))
        return 0
    print("registered protocols (hyperion-sim run --protocol <name>):")
    _print_protocol_entries()
    return 0


def _topology_entries() -> list[dict]:
    """One row per topology preset: cluster, shape kind, island structure."""
    entries = []
    for name in available_topology_presets():
        preset = topology_preset_by_name(name)
        cluster = preset.cluster()
        topology = preset.topology()
        entries.append(
            {
                "name": name,
                "cluster": cluster.name,
                "num_nodes": cluster.num_nodes,
                "kind": topology.kind,
                "islands": topology.num_islands,
                "network": cluster.network.name,
                "description": preset.description,
            }
        )
    return entries


def _print_topology_entries() -> None:
    for entry in _topology_entries():
        print(
            f"  {entry['name']}: {entry['description']}"
        )
        print(
            f"      kind={entry['kind']}, nodes={entry['num_nodes']}, "
            f"islands={entry['islands']}, network={entry['network']}"
        )


def cmd_topologies(args) -> int:
    if args.json:
        print(json.dumps(_topology_entries(), indent=2, sort_keys=True))
        return 0
    print("topology presets (hyperion-sim scenario sweep --topology <name>):")
    _print_topology_entries()
    return 0


def _print_report(report) -> None:
    print(report)
    for key, value in sorted(report.stats.as_dict().items()):
        print(f"  {key:30s} {value}")


def _print_sanitizer(report, out_path: str | None = None) -> None:
    """Print a sanitizer report (and optionally write it as JSON)."""
    sanitizer = report.sanitizer
    if sanitizer is None:
        raise CliError("the run produced no sanitizer report")
    print()
    print(sanitizer.summary())
    for finding in sanitizer.violations:
        print(f"  VIOLATION [{finding.kind}] x{finding.count}: {finding.detail}")
    for finding in sanitizer.races:
        print(f"  race x{finding.count}: {finding.detail}")
    if out_path:
        try:
            with open(out_path, "w") as handle:
                json.dump(sanitizer.to_dict(), handle, indent=2, sort_keys=True)
        except OSError as exc:
            raise CliError(
                f"cannot write --sanitize-out {out_path!r}: {exc}"
            ) from exc
        print(f"wrote sanitizer report to {out_path}")


def _print_phase_table(telemetry) -> None:
    """Print the per-phase virtual-time breakdown of one ledger."""
    from repro.obs.ledger import phase_table

    rows = phase_table(telemetry)
    print()
    print("virtual-time phase breakdown:")
    if not rows:
        print("  (no spans recorded)")
        return
    total = 0.0
    for phase, seconds, share in rows:
        print(f"  {phase:15s} {seconds:12.6f} s  {share:6.1%}")
        total += seconds
    print(f"  {'total':15s} {total:12.6f} s")


def _write_json(path: str, payload: dict, flag: str) -> None:
    try:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
    except OSError as exc:
        raise CliError(f"cannot write {flag} {path!r}: {exc}") from exc


def _print_telemetry(report, telemetry_out: str | None, chrome_out: str | None) -> None:
    """Print a run's phase breakdown and export the ledger / Chrome trace."""
    telemetry = report.telemetry
    if telemetry is None:
        raise CliError("the run produced no telemetry ledger")
    _print_phase_table(telemetry)
    if telemetry_out:
        _write_json(telemetry_out, telemetry.to_dict(), "--telemetry-out")
        print(f"wrote telemetry ledger to {telemetry_out}")
    if chrome_out:
        from repro.obs.chrometrace import write_chrome_trace

        try:
            write_chrome_trace(chrome_out, telemetry)
        except OSError as exc:
            raise CliError(f"cannot write --chrome-out {chrome_out!r}: {exc}") from exc
        print(f"wrote Chrome trace to {chrome_out}")


def _run_with_trace(spec: ExperimentSpec, trace_out: str):
    """Run *spec* with tracing forced on and export the trace as JSONL."""
    base = spec.config or RuntimeConfig()
    traced = dataclasses.replace(spec, config=base.with_overrides(trace=True))
    report, runtime = run_spec_runtime(traced)
    try:
        lines = runtime.engine.trace.write_jsonl(trace_out)
    except OSError as exc:
        raise CliError(f"cannot write --trace-out {trace_out!r}: {exc}") from exc
    print(f"wrote {lines} trace record(s) to {trace_out}")
    return report


def cmd_run(args) -> int:
    # the scale name resolves through the app's own preset hook, so this
    # works for the paper benchmarks and the generated syn-* scenarios alike
    sanitize = args.sanitize or bool(args.sanitize_out)
    telemetry = args.telemetry or bool(args.telemetry_out) or bool(args.chrome_out)
    if args.trace_out or sanitize or telemetry:
        spec = ExperimentSpec(
            app=args.app,
            cluster=args.cluster,
            protocol=args.protocol,
            num_nodes=args.nodes,
            workload=args.scale,
            verify=args.verify,
            sanitize=sanitize,
            telemetry=telemetry,
        )
        if args.trace_out:
            report = _run_with_trace(spec, args.trace_out)
        else:
            report, _ = run_spec_runtime(spec)
    else:
        report = Session().cell(
            args.app, args.cluster, args.protocol, args.nodes,
            workload=args.scale, verify=args.verify,
        )
    _print_report(report)
    if sanitize:
        _print_sanitizer(report, args.sanitize_out)
    if telemetry:
        _print_telemetry(report, args.telemetry_out, args.chrome_out)
    return 0


def _pattern_overrides(name: str, raw_args: list[str], seed: int | None) -> dict:
    """Parse repeated ``--pattern-arg KEY=VALUE`` flags into typed overrides."""
    defaults = scenario_parameters(name)
    overrides: dict = {}
    for item in raw_args:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise CliError(f"--pattern-arg must look like KEY=VALUE, got {item!r}")
        if key not in defaults:
            known = ", ".join(sorted(defaults))
            raise CliError(
                f"scenario {name!r} has no parameter {key!r}; known: {known}"
            )
        target = type(defaults[key])
        try:
            if target is bool:
                lowered = raw.lower()
                if lowered not in ("true", "false", "0", "1"):
                    raise ValueError(raw)
                overrides[key] = lowered in ("true", "1")
            else:
                overrides[key] = target(raw)
        except ValueError as exc:
            raise CliError(
                f"--pattern-arg {key}: expected a {target.__name__} value, got {raw!r}"
            ) from exc
    if seed is not None:
        overrides["seed"] = seed
    return overrides


def cmd_scenario(args) -> int:
    if args.scenario_command == "list":
        print("registered scenarios (hyperion-sim scenario run <name>):")
        _print_scenario_entries()
        return 0

    if args.scenario_command == "run":
        try:
            workload = scenario_workload(
                args.name,
                scale=args.scale,
                **_pattern_overrides(args.name, args.pattern_arg, args.seed),
            )
        except (KeyError, ValueError) as exc:
            raise CliError(str(exc)) from exc
        sanitize = args.sanitize or bool(args.sanitize_out)
        telemetry = (
            args.telemetry or bool(args.telemetry_out) or bool(args.chrome_out)
        )
        spec = ExperimentSpec(
            app=args.name,
            cluster=args.cluster,
            protocol=args.protocol,
            num_nodes=args.nodes,
            workload=workload,
            verify=args.verify,
            sanitize=sanitize,
            telemetry=telemetry,
        )
        if args.trace_out:
            if args.jobs != 1 or args.cache_dir:
                print(
                    "hyperion-sim: note: --trace-out runs the cell directly; "
                    "--jobs/--cache-dir are ignored",
                    file=sys.stderr,
                )
            report = _run_with_trace(spec, args.trace_out)
        else:
            report = _session(args).run_one(spec)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            _print_report(report)
        if sanitize:
            _print_sanitizer(report, args.sanitize_out)
        if telemetry:
            _print_telemetry(report, args.telemetry_out, args.chrome_out)
        return 0

    # sweep: the scenario comparison grid
    try:
        node_counts = tuple(int(n) for n in args.nodes.split(",") if n)
    except ValueError as exc:
        raise CliError(
            f"--nodes must be comma-separated integers, got {args.nodes!r}"
        ) from exc
    if not node_counts:
        raise CliError("--nodes selected no node counts")
    try:
        grid = generate_scenario_grid(
            scenarios=[args.name] if args.name else None,
            cluster=args.topology or args.cluster,
            node_counts=node_counts,
            protocols=_protocol_columns(args),
            workload=args.scale,
            seed=args.seed,
            session=_session(args),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    dropped = [n for n in node_counts if n not in grid.node_counts]
    if dropped:
        print(
            f"hyperion-sim: note: node count(s) {dropped} exceed cluster "
            f"{grid.cluster!r}'s size and were skipped",
            file=sys.stderr,
        )
    payload = grid.to_dict()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(grid.render())
    return 0


def _sweep_values(kind: str, raw: str | None):
    if raw is None:
        return None
    parse = ABLATIONS[kind].value_type
    try:
        return tuple(parse(item) for item in raw.split(",") if item)
    except ValueError as exc:
        raise CliError(
            f"--values for {kind!r} must be comma-separated "
            f"{parse.__name__} values, got {raw!r}"
        ) from exc


def cmd_sweep(args) -> int:
    result = _session(args).ablation(
        args.kind,
        args.app,
        cluster=args.cluster,
        num_nodes=args.nodes,
        values=_sweep_values(args.kind, args.values),
        # resolve through the app's preset hook so syn-* scenarios sweep too
        workload=resolve_workload(args.app, args.scale),
        sanitize=args.sanitize,
    )
    print(result.render())
    if args.sanitize:
        print()
        unclean = 0
        for (protocol, value), report in sorted(
            result.sanitizers.items(), key=lambda kv: (kv[0][0], str(kv[0][1]))
        ):
            print(f"  {protocol} @ {value}: {report.summary()}")
            unclean += 0 if report.clean else 1
        if unclean:
            print(f"sanitizer: {unclean} cell(s) with protocol violations")
            return 1
    return 0


def cmd_lint(args) -> int:
    from repro.analysis.lint import lint_paths

    try:
        findings = lint_paths(args.paths)
    except (FileNotFoundError, SyntaxError) as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        print(json.dumps([f.to_dict() for f in findings], indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        if not findings:
            print(f"lint: clean ({', '.join(args.paths)})")
    return 1 if findings else 0


def cmd_profile(args) -> int:
    apps = [args.app] if args.app else available_apps()
    workload = _workload(args.scale)
    if args.pattern_arg or args.seed is not None:
        if not (args.app and args.app.startswith(SCENARIO_PREFIX)):
            raise CliError("--pattern-arg/--seed need a single syn-* scenario app")
        try:
            workload = scenario_workload(
                args.app,
                scale=args.scale,
                **_pattern_overrides(args.app, args.pattern_arg, args.seed),
            )
        except (KeyError, ValueError) as exc:
            raise CliError(str(exc)) from exc
    specs = [
        ExperimentSpec(
            app=app,
            cluster=args.cluster,
            protocol=args.protocol,
            num_nodes=args.nodes,
            workload=workload,
        )
        for app in apps
    ]
    profiler = Profiler(
        with_cprofile=not args.no_cprofile, sort=args.sort, limit=args.limit
    )
    profiles = profiler.profile_many(specs)
    if args.json:
        print(json.dumps(perf_report_dict(profiles), indent=2))
        return 0
    print(perf_report(profiles, top=0 if args.no_cprofile else args.limit))
    if not args.no_cprofile:
        for profile in profiles:
            print()
            print(f"== {profile.label} ==")
            print(profile.profile_text.rstrip())
    return 0


def cmd_calibrate(args) -> int:
    report = _session(args).calibrate()
    print(report.render())
    return 0 if report.ok else 1


def _comma_list(raw: str, flag: str, parse=str) -> list:
    try:
        values = [parse(item) for item in raw.split(",") if item]
    except ValueError as exc:
        raise CliError(
            f"{flag} must be comma-separated {parse.__name__} values, got {raw!r}"
        ) from exc
    if not values:
        raise CliError(f"{flag} selected no values")
    return values


def cmd_grid(args) -> int:
    from repro.harness.jobs import CheckpointMismatch, SweepInterrupted

    if args.resume and not args.checkpoint_dir:
        raise CliError("--resume needs --checkpoint-dir to resume from")
    enable_console(json_lines=args.log_json)
    logger = get_logger("harness.grid")
    telemetry = args.telemetry or bool(args.telemetry_out)
    matrix = (
        ExperimentMatrix()
        .apps(*_comma_list(args.apps, "--apps"))
        .clusters(*_comma_list(args.clusters, "--clusters"))
        .protocols(*_protocol_columns(args))
        .workload(args.scale)
    )
    if args.nodes:
        matrix = matrix.nodes(*_comma_list(args.nodes, "--nodes", int))
    job = _session(args).job(
        matrix,
        checkpoint_dir=args.checkpoint_dir,
        shard_size=args.shard_size,
        resume=args.resume,
        telemetry=telemetry,
        progress_callback=lambda p: logger.info(
            "%s", p.render(), extra={"progress": p.to_dict()}
        ),
    )
    try:
        result = job.run()
    except CheckpointMismatch as exc:
        raise CliError(str(exc)) from exc
    except SweepInterrupted as exc:
        logger.warning("%s", exc)
        return 3
    progress = job.progress
    logger.info(
        "grid complete: %d cells (resumed %d, cache hits %d, executed %d)",
        progress.total_cells,
        progress.resumed_cells,
        progress.cache_hits,
        progress.executed_cells,
        extra={"progress": progress.to_dict()},
    )
    if args.telemetry_out:
        _write_json(args.telemetry_out, job.telemetry(), "--telemetry-out")
        print(f"wrote job telemetry to {args.telemetry_out}")
    payload = result.to_dict()
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    if args.json or not args.output:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    from repro.harness.service import serve

    enable_console(json_lines=args.log_json)
    logger = get_logger("harness.serve")
    server = serve(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        workers=args.workers,
        cache_dir=args.cache_dir,
        checkpoint_root=args.checkpoint_root,
        shard_size=args.shard_size,
        verbose=args.verbose,
        telemetry=not args.no_telemetry,
    )
    logger.info(
        "hyperion-sim serve: listening on %s", server.address,
        extra={"address": server.address},
    )
    logger.info("submit sweeps with POST /sweeps, stop with POST /shutdown")
    server.serve_until_shutdown()
    logger.info("hyperion-sim serve: drained and stopped")
    return 0


def cmd_report(args) -> int:
    from repro.obs.ledger import phase_table

    try:
        with open(args.path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read telemetry ledger {args.path!r}: {exc}") from exc
    if not isinstance(payload, dict) or "spans" not in payload:
        raise CliError(
            f"{args.path!r} does not look like a telemetry ledger "
            "(expected the JSON written by --telemetry-out)"
        )
    rows = phase_table(payload)
    if args.json:
        print(
            json.dumps(
                {
                    "label": payload.get("label"),
                    "cached": payload.get("cached", False),
                    "version": payload.get("version"),
                    "phases": [
                        {"phase": phase, "seconds": seconds, "share": share}
                        for phase, seconds, share in rows
                    ],
                    "total_seconds": sum(seconds for _, seconds, _ in rows),
                    "trace_summary": payload.get("trace_summary"),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        label = payload.get("label", "?")
        version = payload.get("version", "?")
        print(f"telemetry ledger: {label} (version {version})")
        if payload.get("cached"):
            print("  cached cell: stub ledger, no engine metrics or spans")
        host = payload.get("host") or {}
        if host.get("wall_seconds"):
            line = f"  host: {host['wall_seconds']:.3f} s wall"
            if host.get("events"):
                line += f", {host['events']} events"
            if host.get("events_per_second"):
                line += f" ({host['events_per_second']:.0f} events/s)"
            print(line)
        families = (payload.get("metrics") or {}).get("families", {})
        if families:
            print(f"  metrics: {len(families)} families")
        summary = payload.get("trace_summary")
        if summary:
            kinds = ", ".join(
                f"{kind}={count}"
                for kind, count in sorted(summary.get("by_kind", {}).items())
            )
            print(f"  trace: {summary.get('records', 0)} record(s)  {kinds}")
        _print_phase_table(payload)
    if args.chrome_out:
        from repro.obs.chrometrace import write_chrome_trace

        try:
            write_chrome_trace(args.chrome_out, payload)
        except OSError as exc:
            raise CliError(
                f"cannot write --chrome-out {args.chrome_out!r}: {exc}"
            ) from exc
        print(f"wrote Chrome trace to {args.chrome_out}")
    return 0


def cmd_experiments(args) -> int:
    document = render_experiments_document(
        workload=_workload(args.scale),
        session=_session(args),
        protocols=_protocol_columns(args),
        topologies=[args.topology] if args.topology else None,
    )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(document)
        print(f"wrote {args.output}")
    else:
        print(document)
    return 0


def _describe_clusters() -> None:
    print("cluster presets:")
    for name in list_clusters():
        spec = cluster_by_name(name)
        print(f"  {name}: {spec.num_nodes} x {spec.machine.name}, {spec.network.name}")
        for line in spec.cost_model().describe().splitlines():
            print(f"      {line}")


def _describe_protocols() -> None:
    print("protocols:")
    _print_protocol_entries()


def _describe_benchmarks() -> None:
    paper_apps = [app for app in available_apps() if not app.startswith("syn-")]
    print("benchmarks:", ", ".join(paper_apps))


def _print_scenario_entries() -> None:
    for name in available_scenarios():
        pattern = get_pattern(name)
        print(f"  {name}: {pattern.description}")
        parameters = ", ".join(
            f"{key}={value}" for key, value in scenario_parameters(name).items()
        )
        print(f"      parameters: {parameters}")


def _describe_scenarios() -> None:
    print("scenarios:")
    _print_scenario_entries()


def _describe_figures() -> None:
    print("figures:", ", ".join(f"{n} -> {app}" for n, app in sorted(FIGURE_APPS.items())))


def _describe_topologies() -> None:
    print("topologies:")
    _print_topology_entries()


DESCRIBE_SECTIONS = {
    "clusters": _describe_clusters,
    "protocols": _describe_protocols,
    "topologies": _describe_topologies,
    "benchmarks": _describe_benchmarks,
    "scenarios": _describe_scenarios,
    "figures": _describe_figures,
}


def cmd_describe(args) -> int:
    section = getattr(args, "section", None)
    if section:
        DESCRIBE_SECTIONS[section]()
        return 0
    for printer in DESCRIBE_SECTIONS.values():
        printer()
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``hyperion-sim`` console script."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "figure": cmd_figure,
        "all": cmd_all,
        "protocols": cmd_protocols,
        "topologies": cmd_topologies,
        "run": cmd_run,
        "scenario": cmd_scenario,
        "sweep": cmd_sweep,
        "grid": cmd_grid,
        "serve": cmd_serve,
        "report": cmd_report,
        "lint": cmd_lint,
        "profile": cmd_profile,
        "calibrate": cmd_calibrate,
        "experiments": cmd_experiments,
        "describe": cmd_describe,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(f"hyperion-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
