"""Command-line interface: ``hyperion-sim``, one verb per job.

Sub-commands::

    hyperion-sim all --jobs 4 --cache-dir .hyperion-cache
    hyperion-sim all 2 --protocols java_ic,java_pf,java_hybrid --plot
    hyperion-sim run jacobi --protocol java_pf --cluster myrinet --nodes 4
    hyperion-sim run syn-uniform --seed 7 --pattern-arg write_fraction=0.5 --json
    hyperion-sim run asp --trace-out asp.jsonl   # also --sanitize / --telemetry
    hyperion-sim scenario sweep --topology myrinet2x8 --nodes 1,2,4,8
    hyperion-sim sweep check_cost --app asp --nodes 4
    hyperion-sim grid --apps pi,jacobi --nodes 1,2,4 --checkpoint-dir .ckpt [--resume]
    hyperion-sim serve --port 8642        # JSON sweep API (see DESIGN.md)
    hyperion-sim report asp-telemetry.json --chrome-out asp-trace.json
    hyperion-sim lint                     # determinism/perf lint (HYP001-007)
    hyperion-sim profile asp --nodes 4    # host-side profiling (repro.perf)
    hyperion-sim calibrate                # check the cost model against the paper
    hyperion-sim experiments -o EXPERIMENTS.md
    hyperion-sim describe [SECTION] [--json]     # clusters, protocols, topologies,
                                                 # benchmarks, scenarios, figures

Each concern's flags are defined once and shared by every verb that takes
them: the cell (``--cluster --protocol --nodes --scale``), the scenario
overrides (``--seed --pattern-arg``), the session (``--jobs N`` fans cells out
over N worker processes, ``--cache-dir PATH`` persists every cell's result so
a repeated invocation re-runs nothing) and the output (``--json``, ``-o``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, NamedTuple

from repro.apps.base import available_apps
from repro.cluster.presets import cluster_by_name, list_clusters
from repro.cluster.topologies import (
    available_topology_presets,
    topology_preset_by_name,
)
from repro.core.protocol import available_protocols, protocol_composition
from repro.harness.figures import (
    FIGURE_APPS,
    PAPER_PROTOCOLS,
    PROTOCOL_FAMILY,
    generate_all_figures,
    generate_scenario_grid,
)
from repro.harness.matrix import ExperimentMatrix, check_names
from repro.harness.report import (
    ascii_plot,
    render_experiments_document,
    render_experiments_markdown,
    render_improvement_markdown,
    render_scenario_grid_markdown,
)
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec, resolve_workload
from repro.harness.sweep import ABLATIONS
from repro.hyperion.runtime import HyperionRuntime, RuntimeConfig
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


def _figure_number(raw: str) -> int:
    # a type, not choices=: argparse checks an empty nargs="*" list against choices
    if raw not in map(str, FIGURE_APPS):
        raise argparse.ArgumentTypeError(f"no figure {raw!r}; the paper has 1 to 5")
    return int(raw)


# ----------------------------------------------------------------------
# option groups: each concern's flags are defined once, here
# ----------------------------------------------------------------------
def _add_scale_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="bench", choices=["testing", "bench", "paper"])


def _add_cell_flags(parser: argparse.ArgumentParser, protocol: bool = True) -> None:
    """The coordinates of one cell: cluster, protocol, node count and scale."""
    parser.add_argument("--cluster", default="myrinet", choices=list_clusters())
    if protocol:
        parser.add_argument("--protocol", default="java_pf", choices=available_protocols())
    parser.add_argument("--nodes", type=_positive_int, default=4)
    _add_scale_flag(parser)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """Overrides of a syn-* app's workload (see :func:`_cell_workload`)."""
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the pattern's RNG seed (syn-* apps only)",
    )
    parser.add_argument(
        "--pattern-arg",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one pattern parameter (syn-* apps only, repeatable); "
        "see `hyperion-sim describe scenarios`",
    )


def _add_session_flags(parser: argparse.ArgumentParser, jobs: bool = True) -> None:
    """``--jobs`` (left off a verb that runs one cell) and ``--cache-dir``."""
    if jobs:
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


def _add_output_flags(
    parser: argparse.ArgumentParser, json_flag: bool = True, output: str | None = None
) -> None:
    """``--json`` and, with *output* as its help, ``-o PATH``."""
    if json_flag:
        parser.add_argument("--json", action="store_true", help="print JSON, not text")
    if output:
        parser.add_argument(
            "-o",
            "--output",
            default=None,
            metavar="PATH",
            help=output,
        )


def _add_protocols_flag(parser: argparse.ArgumentParser, columns: tuple) -> None:
    default = ",".join(columns)
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
            "paper platforms (see `hyperion-sim describe topologies`)"
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperion-sim",
        description="Reproduction of 'Remote Object Detection in Cluster-Based Java'",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    everything = sub.add_parser(
        "all", help="regenerate the paper's figures and the improvement summary"
    )
    everything.add_argument(
        "numbers",
        nargs="*",
        type=_figure_number,
        metavar="N",
        help="regenerate only these figures (default: all five)",
    )
    _add_scale_flag(everything)
    everything.add_argument("--plot", action="store_true", help="also print ASCII plots")
    _add_output_flags(everything)
    _add_protocols_flag(everything, PAPER_PROTOCOLS)
    _add_topology_flag(everything)
    _add_session_flags(everything)

    run = sub.add_parser("run", help="run one cell: a paper app or a syn-* scenario")
    run.add_argument("app", choices=available_apps())
    _add_cell_flags(run)
    _add_scenario_flags(run)
    run.add_argument("--verify", action="store_true")
    _add_output_flags(run)
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record the simulation event trace and write it to PATH as JSONL",
    )
    _add_sanitize_flags(run)
    _add_telemetry_flags(run)
    # one cell has nothing to fan out, so `run` takes no --jobs
    _add_session_flags(run, jobs=False)

    scenario = sub.add_parser("scenario", help="the generated syn-* scenario grid")
    scenario_sub = scenario.add_subparsers(required=True, metavar="sweep")
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
    _add_scale_flag(scenario_sweep)
    scenario_sweep.add_argument(
        "--seed", type=int, default=None, help="override every pattern's RNG seed"
    )
    _add_protocols_flag(scenario_sweep, PROTOCOL_FAMILY)
    _add_topology_flag(scenario_sweep)
    _add_output_flags(scenario_sweep, output="also write the grid JSON to PATH")
    _add_session_flags(scenario_sweep)

    sweep = sub.add_parser("sweep", help="run one of the ablation sweeps (A1-A4)")
    sweep.add_argument("kind", choices=sorted(ABLATIONS))
    sweep.add_argument("--app", required=True, choices=available_apps())
    _add_cell_flags(sweep, protocol=False)
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
    _add_protocols_flag(grid, PAPER_PROTOCOLS)
    _add_scale_flag(grid)
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
    _add_output_flags(grid, output="also write the grid JSON to PATH")
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
    _add_output_flags(report_cmd)
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
    _add_output_flags(lint)

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
    _add_cell_flags(profile)
    _add_scenario_flags(profile)
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
    _add_output_flags(profile)

    calibrate_cmd = sub.add_parser("calibrate", help="check the cost model against the paper")
    _add_session_flags(calibrate_cmd)

    experiments = sub.add_parser(
        "experiments", help="regenerate EXPERIMENTS.md from measured figures"
    )
    _add_scale_flag(experiments)
    _add_output_flags(
        experiments, json_flag=False, output="write the markdown here instead of stdout"
    )
    _add_protocols_flag(experiments, PROTOCOL_FAMILY)
    _add_topology_flag(
        experiments,
        help_text=(
            "restrict the document's topology-grid section to PRESET "
            "(the figure and scenario sections keep the paper platforms)"
        ),
    )
    _add_session_flags(experiments)

    describe = sub.add_parser(
        "describe",
        help="list cluster presets, protocols, topologies, benchmarks, scenarios "
        "and figures",
    )
    describe.add_argument(
        "section",
        nargs="?",
        default=None,
        choices=sorted(DESCRIBE_SECTIONS),
        help="print only this section (default: all)",
    )
    _add_output_flags(describe)
    return parser


class CliError(Exception):
    """A user-facing CLI failure (printed without a traceback, exit 2)."""


def _session(args) -> Session:
    """Build the Session the subcommand's --jobs/--cache-dir flags describe;
    :func:`main` closes it (and its worker pool) when the command ends."""
    try:
        return args.sessions.enter_context(
            Session.from_options(jobs=getattr(args, "jobs", 1), cache_dir=args.cache_dir)
        )
    except OSError as exc:
        raise CliError(
            f"--cache-dir {args.cache_dir!r} is not a usable directory: {exc}"
        ) from exc


def _protocol_columns(args) -> tuple:
    """Parse and validate a ``--protocols`` comma list."""
    names = tuple(_comma_list(args.protocols, "--protocols"))
    try:
        check_names("--protocols", "protocol", names, available_protocols())
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return names


def cmd_all(args) -> int:
    """The figures (the paper pair of clusters, or one topology preset) as
    EXPERIMENTS.md shows them, then the improvement summary."""
    figures = generate_all_figures(
        workload=args.scale,
        clusters=(args.topology,) if args.topology else ("myrinet", "sci"),
        protocols=_protocol_columns(args),
        session=_session(args),
        numbers=args.numbers or None,
    )
    if args.json:
        print(json.dumps({n: f.to_dict() for n, f in figures.items()}, indent=2))
        return 0
    for number, figure in figures.items():
        print(render_experiments_markdown({number: figure}))
        if args.plot:
            print(ascii_plot(figure))
            print()
    improvements = render_improvement_markdown(figures)
    if improvements:
        print(improvements)
    return 0


def _print_report(report) -> None:
    print(report)
    for key, value in sorted(report.stats.as_dict().items()):
        print(f"  {key:30s} {value}")


def _write_file(flag: str, path: str, write: Callable[[str], Any]) -> Any:
    """Return ``write(path)``; an unwritable path is a :class:`CliError`.

    Every file the CLI writes goes through here, under the flag that named it.
    """
    try:
        return write(path)
    except OSError as exc:
        raise CliError(f"cannot write {flag} {path!r}: {exc}") from exc


def _check_writable(*outputs: tuple[str, str | None]) -> None:
    """Fail on an unwritable output path before any cell runs, not after.

    Each path is opened for appending: an absent file is created empty, an
    existing one is left as it is until the verb writes it.
    """
    for flag, path in outputs:
        if path:
            _write_file(flag, path, lambda p: open(p, "a").close())


def _write_text(flag: str, path: str, text: str) -> None:
    _write_file(flag, path, lambda p: Path(p).write_text(text))


def _write_json(flag: str, path: str, payload) -> None:
    _write_text(flag, path, json.dumps(payload, indent=2, sort_keys=True))


def _print_sanitizer(report, out_path: str | None = None) -> None:
    """Print a sanitizer report (and optionally write it as JSON)."""
    sanitizer = report.sanitizer
    print()
    print(sanitizer.summary())
    for finding in sanitizer.violations:
        print(f"  VIOLATION [{finding.kind}] x{finding.count}: {finding.detail}")
    for finding in sanitizer.races:
        print(f"  race x{finding.count}: {finding.detail}")
    if out_path:
        _write_json("--sanitize-out", out_path, sanitizer.to_dict())
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


def _write_chrome_trace(path: str, telemetry) -> None:
    from repro.obs.chrometrace import write_chrome_trace

    _write_file("--chrome-out", path, lambda p: write_chrome_trace(p, telemetry))
    print(f"wrote Chrome trace to {path}")


def _print_telemetry(report, telemetry_out: str | None, chrome_out: str | None) -> None:
    """Print a run's phase breakdown and export the ledger / Chrome trace."""
    telemetry = report.telemetry
    _print_phase_table(telemetry)
    if telemetry_out:
        _write_json("--telemetry-out", telemetry_out, telemetry.to_dict())
        print(f"wrote telemetry ledger to {telemetry_out}")
    if chrome_out:
        _write_chrome_trace(chrome_out, telemetry)


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


def _cell_workload(args):
    """The workload ``--scale``, ``--seed`` and ``--pattern-arg`` describe.

    Without overrides this is the scale name, which resolves through each
    app's own preset hook, so paper apps and syn-* scenarios scale alike.
    Overrides apply to one syn-* scenario app only.
    """
    if not args.pattern_arg and args.seed is None:
        return args.scale
    if not (args.app and args.app.startswith(SCENARIO_PREFIX)):
        raise CliError("--pattern-arg/--seed need a single syn-* scenario app")
    overrides = _pattern_overrides(args.app, args.pattern_arg, args.seed)
    try:
        return scenario_workload(args.app, scale=args.scale, **overrides)
    except (KeyError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def _cell_specs(args, apps: list[str], **options) -> list[ExperimentSpec]:
    """One spec per app, at the cell the cell and scenario flags describe."""
    matrix = (
        ExperimentMatrix()
        .apps(*apps)
        .clusters(args.cluster)
        .protocols(args.protocol)
        .nodes(args.nodes)
        .workload(_cell_workload(args))
    )
    try:
        specs = matrix.build()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return [dataclasses.replace(spec, **options) for spec in specs]


def cmd_run(args) -> int:
    sanitize = args.sanitize or bool(args.sanitize_out)
    telemetry = args.telemetry or bool(args.telemetry_out) or bool(args.chrome_out)
    (spec,) = _cell_specs(
        args,
        [args.app],
        config=RuntimeConfig(trace=True) if args.trace_out else None,
        verify=args.verify,
        sanitize=sanitize,
        telemetry=telemetry,
    )
    _check_writable(
        ("--trace-out", args.trace_out),
        ("--sanitize-out", args.sanitize_out),
        ("--telemetry-out", args.telemetry_out),
        ("--chrome-out", args.chrome_out),
    )
    # a stored payload keeps no trace, so a traced cell runs on a storeless session
    if args.trace_out and args.cache_dir:
        print(
            "hyperion-sim: note: --trace-out runs the cell directly; "
            "--cache-dir is ignored",
            file=sys.stderr,
        )
    report = (Session() if args.trace_out else _session(args)).run_one(spec)
    if args.trace_out:
        lines = _write_file("--trace-out", args.trace_out, report.trace.write_jsonl)
        print(f"wrote {lines} trace record(s) to {args.trace_out}")
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_report(report)
    if sanitize:
        _print_sanitizer(report, args.sanitize_out)
    if telemetry:
        _print_telemetry(report, args.telemetry_out, args.chrome_out)
    return 0


def cmd_scenario(args) -> int:
    """``scenario sweep``: the scenario comparison grid."""
    node_counts = _comma_list(args.nodes, "--nodes", int)
    _check_writable(("-o", args.output))
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
    payload = grid.to_dict()
    if args.output:
        _write_json("-o", args.output, payload)
        print(f"wrote {args.output}")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(render_scenario_grid_markdown(grid))
    return 0


def cmd_sweep(args) -> int:
    values = None
    if args.values is not None:
        values = tuple(_comma_list(args.values, "--values", ABLATIONS[args.kind].value_type))
    try:
        result = _session(args).ablation(
            args.kind,
            args.app,
            cluster=args.cluster,
            num_nodes=args.nodes,
            values=values,
            # resolve through the app's preset hook so syn-* scenarios sweep too
            workload=resolve_workload(args.app, args.scale),
            sanitize=args.sanitize,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
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
    specs = _cell_specs(args, [args.app] if args.app else available_apps())
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
        kind = "integers" if parse is int else f"{parse.__name__} values"
        raise CliError(f"{flag} must be comma-separated {kind}, got {raw!r}") from exc
    if not values:
        raise CliError(f"{flag} selected no values")
    return values


def cmd_grid(args) -> int:
    from repro.harness.jobs import CheckpointMismatch, SweepInterrupted

    if args.resume and not args.checkpoint_dir:
        raise CliError("--resume needs --checkpoint-dir to resume from")
    matrix = (
        ExperimentMatrix()
        .apps(*_comma_list(args.apps, "--apps"))
        .clusters(*_comma_list(args.clusters, "--clusters"))
        .protocols(*_comma_list(args.protocols, "--protocols"))
        .workload(args.scale)
    )
    if args.nodes:
        matrix = matrix.nodes(*_comma_list(args.nodes, "--nodes", int))
    try:
        specs = matrix.build()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _check_writable(("-o", args.output), ("--telemetry-out", args.telemetry_out))
    enable_console(json_lines=args.log_json)
    logger = get_logger("harness.grid")
    telemetry = args.telemetry or bool(args.telemetry_out)
    job = _session(args).job(
        specs,
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
        _write_json("--telemetry-out", args.telemetry_out, job.telemetry())
        print(f"wrote job telemetry to {args.telemetry_out}")
    payload = result.to_dict()
    if args.output:
        _write_json("-o", args.output, payload)
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
        _write_chrome_trace(args.chrome_out, payload)
    return 0


def cmd_experiments(args) -> int:
    _check_writable(("-o", args.output))
    document = render_experiments_document(
        workload=args.scale,
        session=_session(args),
        protocols=_protocol_columns(args),
        topologies=[args.topology] if args.topology else None,
    )
    if args.output:
        _write_text("-o", args.output, document)
        print(f"wrote {args.output}")
    else:
        print(document)
    return 0


def _cluster_rows() -> list[dict]:
    rows = []
    for name in list_clusters():
        spec = cluster_by_name(name)
        rows.append(
            {
                "name": name,
                "num_nodes": spec.num_nodes,
                "machine": spec.machine.name,
                "network": spec.network.name,
                "cost_model": spec.cost_model().describe().splitlines(),
            }
        )
    return rows


def _protocol_rows() -> list[dict]:
    """One row per registered protocol: description plus layer composition."""
    rows = []
    for name in available_protocols():
        # a plain factory's protocol describes itself only once instantiated
        runtime = HyperionRuntime(cluster_by_name("myrinet"), num_nodes=2, protocol=name)
        protocol = runtime.protocol
        layers = protocol_composition(name)
        rows.append(
            {
                "name": name,
                "description": protocol.describe(),
                "uses_page_faults": bool(protocol.uses_page_faults),
                "detection": layers["detection"] if layers else None,
                "home_policy": layers["home_policy"] if layers else None,
            }
        )
    return rows


def _topology_rows() -> list[dict]:
    """One row per topology preset: cluster, shape kind, island structure."""
    rows = []
    for name in available_topology_presets():
        preset = topology_preset_by_name(name)
        cluster = preset.cluster()
        topology = preset.topology()
        rows.append(
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
    return rows


def _scenario_rows() -> list[dict]:
    return [
        {
            "name": name,
            "description": get_pattern(name).description,
            "parameters": scenario_parameters(name),
        }
        for name in available_scenarios()
    ]


class _Section(NamedTuple):
    """One ``describe`` section: its rows, and the text lines of one row."""

    title: str
    rows: Callable[[], list]
    #: one row's headline, then its indented detail lines
    lines: Callable[[Any], list[str]]
    #: print every row's headline on the title line
    inline: bool = False


DESCRIBE_SECTIONS = {
    "clusters": _Section(
        "cluster presets",
        _cluster_rows,
        lambda row: [
            f"{row['name']}: {row['num_nodes']} x {row['machine']}, {row['network']}",
            *row["cost_model"],
        ],
    ),
    "protocols": _Section(
        "protocols",
        _protocol_rows,
        # describe() lines already lead with the protocol name; a plain
        # factory's protocol has no layers to list
        lambda row: [row["description"]] + (
            [f"layers: detection={row['detection']}, home_policy={row['home_policy']}"]
            if row["detection"] else []
        ),
    ),
    "topologies": _Section(
        "topologies",
        _topology_rows,
        lambda row: [
            f"{row['name']}: {row['description']}",
            f"kind={row['kind']}, nodes={row['num_nodes']}, "
            f"islands={row['islands']}, network={row['network']}",
        ],
    ),
    "benchmarks": _Section(
        "benchmarks",
        lambda: [app for app in available_apps() if not app.startswith(SCENARIO_PREFIX)],
        lambda app: [app],
        inline=True,
    ),
    "scenarios": _Section(
        "scenarios",
        _scenario_rows,
        lambda row: [
            f"{row['name']}: {row['description']}",
            "parameters: "
            + ", ".join(f"{key}={value}" for key, value in row["parameters"].items()),
        ],
    ),
    "figures": _Section(
        "figures",
        lambda: [{"number": n, "app": app} for n, app in sorted(FIGURE_APPS.items())],
        lambda row: [f"{row['number']} -> {row['app']}"],
        inline=True,
    ),
}


def _print_section(section: _Section, rows: list) -> None:
    if section.inline:
        print(f"{section.title}:", ", ".join(section.lines(row)[0] for row in rows))
        return
    print(f"{section.title}:")
    for row in rows:
        headline, *details = section.lines(row)
        print(f"  {headline}")
        for detail in details:
            print(f"      {detail}")


def cmd_describe(args) -> int:
    names = [args.section] if args.section else list(DESCRIBE_SECTIONS)
    rows = {name: DESCRIBE_SECTIONS[name].rows() for name in names}
    if args.json:
        payload = rows[args.section] if args.section else rows
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name in names:
        _print_section(DESCRIBE_SECTIONS[name], rows[name])
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point for the ``hyperion-sim`` console script."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "all": cmd_all,
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
        with ExitStack() as args.sessions:
            status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except CliError as exc:
        print(f"hyperion-sim: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone (`... | head`): end as a process
        # killed by SIGPIPE would, and send what is still buffered to
        # devnull so the interpreter's flush at exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
