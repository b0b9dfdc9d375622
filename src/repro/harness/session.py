"""The Session facade: the one public surface of the experiment harness.

A :class:`Session` combines an executor (how cells run: serially or across a
process pool) with an optional :class:`~repro.harness.store.ResultStore`
(whether results persist between runs).  ``Session.run`` → ``execute`` is the
one road from a spec to a simulation: every verb, sharded sweep jobs
included, goes through it.  ``Session.run`` takes anything that
yields :class:`~repro.harness.spec.ExperimentSpec` objects — typically an
:class:`~repro.harness.matrix.ExperimentMatrix` — deduplicates them, serves
what it can from the store, fans the rest out through the executor, and
returns a :class:`SessionResult` mapping each spec to its report::

    with Session(executor=ParallelExecutor(jobs=4), store=ResultStore(".cache")) as session:
        result = session.run(matrix)
    result[spec].execution_seconds

A session owns its executor's worker pool: it opens on the first parallel
batch and stays open until :meth:`Session.close` (or the ``with`` block) ends.

Everything else the harness can do is a method on the same object, so the
session's executor and store reach every code path:

===========================  ==============================================
``session.cell(...)``        one experiment cell -> ``ExecutionReport``
``session.comparison(...)``  protocols x node counts -> ``ProtocolComparison``
``session.ablation(...)``    one of the named A1-A4 sweeps -> ``SweepResult``
``session.calibrate()``      cost-model calibration -> ``CalibrationReport``
``session.job(...)``         sharded, resumable sweep -> ``SweepJob``
===========================  ==============================================

Callers construct a :class:`Session` (or :meth:`Session.from_options`) and
call its methods.  The figures and the named grids of
:mod:`repro.harness.figures` take a ``session=`` argument instead.  Every
grid, these methods' included, expands through one
:class:`~repro.harness.matrix.ExperimentMatrix`, so its names and node
counts get the matrix's one check.

Every cell a session runs is also available as a :class:`CellResult` — the
common record (spec, report, cached-flag, sanitizer) that sweep shards,
service responses and figure generation all serialise the same way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.harness.executor import Executor, SerialExecutor
from repro.harness.matrix import DEFAULT_PROTOCOLS, ExperimentMatrix
from repro.harness.spec import ExperimentSpec, resolve_cluster
from repro.harness.store import ResultStore
from repro.hyperion.runtime import ExecutionReport, RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.sanitizer import SanitizerReport
    from repro.harness.calibration import CalibrationReport
    from repro.harness.experiment import ProtocolComparison
    from repro.harness.jobs import SweepJob
    from repro.harness.sweep import SweepResult


@dataclass
class CellResult:
    """One executed (or cache-served) experiment cell, fully described.

    The common result record of the harness: sweep shards checkpoint lists
    of these, the serve API returns them, and figure/grid generators expose
    the cells they consumed through them — one serialised shape everywhere.
    """

    spec: ExperimentSpec
    report: ExecutionReport
    #: True when the report came out of the result store, not a simulation
    cached: bool = False

    @property
    def sanitizer(self) -> "SanitizerReport | None":
        """The cell's consistency-sanitizer report, when it ran sanitized."""
        return self.report.sanitizer

    def label(self) -> str:
        """The cell's display label (``app/cluster/protocol/nN``)."""
        return self.spec.label()

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form: identity, provenance, report, sanitizer."""
        sanitizer = self.sanitizer
        return {
            "label": self.spec.label(),
            "cache_key": self.spec.cache_key(),
            "spec": self.spec.describe(),
            "cached": bool(self.cached),
            "report": self.report.to_dict(),
            "sanitizer": sanitizer.to_dict() if sanitizer is not None else None,
        }


@dataclass
class SessionResult:
    """Reports of one ``Session.run``, keyed by spec, plus cache accounting."""

    reports: dict[ExperimentSpec, ExecutionReport] = field(default_factory=dict)
    #: cells served from the result store
    cache_hits: int = 0
    #: cells actually simulated by the executor
    executed: int = 0
    #: specs whose report came from the store (the ``cached`` flag source)
    cached_specs: set[ExperimentSpec] = field(default_factory=set)

    def __getitem__(self, spec: ExperimentSpec) -> ExecutionReport:
        return self.reports[spec]

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.reports)

    def __len__(self) -> int:
        return len(self.reports)

    def items(self) -> Iterable[tuple[ExperimentSpec, ExecutionReport]]:
        """(spec, report) pairs in submission order."""
        return self.reports.items()

    def execution_seconds(self, spec: ExperimentSpec) -> float:
        """Simulated execution time of one cell."""
        return self.reports[spec].execution_seconds

    # ------------------------------------------------------------------
    def cell(self, spec: ExperimentSpec) -> CellResult:
        """The :class:`CellResult` record of one cell."""
        return CellResult(
            spec=spec,
            report=self.reports[spec],
            cached=spec in self.cached_specs,
        )

    def cells(self) -> list[CellResult]:
        """Every cell as a :class:`CellResult`, in submission order."""
        return [self.cell(spec) for spec in self.reports]

    def to_dict(self) -> dict[str, dict]:
        """JSON-friendly view keyed by cell label (label-sorted)."""
        cells = sorted(self.reports.items(), key=lambda kv: kv[0].label())
        return {spec.label(): report.to_dict() for spec, report in cells}


class Session:
    """Facade tying an executor and an optional result store together."""

    def __init__(
        self,
        executor: Executor | None = None,
        store: ResultStore | None = None,
    ):
        self.executor: Executor = executor if executor is not None else SerialExecutor()
        self.store = store

    @classmethod
    def from_options(
        cls, jobs: int = 1, cache_dir: str | None = None
    ) -> "Session":
        """Session described by the common knobs (CLI flags, env vars):
        ``jobs`` worker processes and an optional cache directory."""
        from repro.harness.executor import ParallelExecutor

        executor = ParallelExecutor(jobs=jobs) if jobs > 1 else SerialExecutor()
        store = ResultStore(cache_dir) if cache_dir else None
        return cls(executor=executor, store=store)

    @property
    def jobs(self) -> int:
        """Worker-process count of the session's executor (1 when serial)."""
        return int(getattr(self.executor, "jobs", 1))

    def close(self) -> None:
        """Release the executor's worker processes, if it keeps any."""
        close = getattr(self.executor, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the execution core
    # ------------------------------------------------------------------
    def run(self, experiments: Iterable[ExperimentSpec]) -> SessionResult:
        """Run every spec (duplicates run once) and collect the reports.

        Specs already present in the store are never handed to the executor,
        so a warm cache performs zero simulations.  The exception is
        ``verify=True`` and ``sanitize=True`` specs: verification and
        sanitizing only happen while a cell executes (cached payloads keep
        neither rich result objects nor sanitizer reports), so they bypass
        the cache read — and such a duplicate upgrades its plain twin — and
        are always simulated.

        ``telemetry=True`` specs do *not* bypass the cache: the ledger is
        out-of-band, so a cache hit stays a cache hit and the report gets a
        stub :class:`~repro.obs.ledger.RunTelemetry` marked ``cached``.
        Executed telemetry cells persist their ledger next to the store
        entry (``ResultStore.put_telemetry``).
        """
        specs = list(experiments)
        result = SessionResult()
        cached_specs = result.cached_specs
        pending: dict[ExperimentSpec, ExperimentSpec] = {}
        # specs that asked for a ledger (equality ignores the flag, so the
        # set matches a plain twin of a telemetry spec too)
        wants_telemetry: set[ExperimentSpec] = set()
        for spec in specs:
            if spec.telemetry:
                wants_telemetry.add(spec)
            live = spec.verify or spec.sanitize
            if spec in pending:
                held = pending[spec]
                if (
                    (spec.verify and not held.verify)
                    or (spec.sanitize and not held.sanitize)
                    or (spec.telemetry and not held.telemetry)
                ):
                    pending[spec] = dataclasses.replace(
                        held,
                        verify=held.verify or spec.verify,
                        sanitize=held.sanitize or spec.sanitize,
                        telemetry=held.telemetry or spec.telemetry,
                    )
                continue
            if spec in result.reports:
                if not (live and spec in cached_specs):
                    continue
                # a verifying/sanitizing duplicate of a cache-served cell:
                # re-run it
                del result.reports[spec]
                cached_specs.discard(spec)
                result.cache_hits -= 1
            cached = (
                self.store.get(spec)
                if self.store is not None and not live
                else None
            )
            if cached is not None:
                result.reports[spec] = cached
                result.cache_hits += 1
                cached_specs.add(spec)
            else:
                result.reports[spec] = None  # type: ignore[assignment]  # placeholder keeps order
                pending[spec] = spec
        to_run = list(pending.values())
        fresh = self.executor.execute(to_run) if to_run else []
        if len(fresh) != len(to_run):
            raise RuntimeError(
                f"executor {self.executor!r} returned {len(fresh)} reports "
                f"for {len(to_run)} specs; Executor.execute must preserve "
                "the submitted batch one-to-one"
            )
        for spec, report in zip(to_run, fresh, strict=True):
            result.reports[spec] = report
            result.executed += 1
            if self.store is not None:
                self.store.put(spec, report)
                if report.telemetry is not None:
                    self.store.put_telemetry(spec, report.telemetry.to_dict())
        if wants_telemetry:
            # cache-hit cells never re-execute for telemetry; they get a
            # stub ledger so callers see a uniform surface
            from repro.obs.ledger import RunTelemetry

            for spec in cached_specs:
                if spec in wants_telemetry:
                    report = result.reports[spec]
                    if report.telemetry is None:
                        report.telemetry = RunTelemetry.cached_stub(spec)
        return result

    def run_one(self, spec: ExperimentSpec) -> ExecutionReport:
        """Run a single cell through the session."""
        return self.run([spec])[spec]

    # ------------------------------------------------------------------
    # the experiment surface (one method per entry-point family)
    # ------------------------------------------------------------------
    def cell(
        self,
        app: str,
        cluster,
        protocol: str,
        num_nodes: int,
        workload=None,
        config: RuntimeConfig | None = None,
        verify: bool = False,
        sanitize: bool = False,
        telemetry: bool = False,
    ) -> ExecutionReport:
        """Run one experiment cell described by its coordinates.

        ``workload`` may be a workload object, a preset, a preset name
        (``"bench"``, ``"paper"``, ``"testing"``) or None (bench preset).
        With ``verify=True`` the application's correctness check runs on the
        result; with ``sanitize=True`` the cell runs under the consistency
        sanitizer (both bypass the result cache).  With ``telemetry=True``
        the report carries an out-of-band :class:`~repro.obs.ledger.RunTelemetry`
        ledger (stubbed when the cell was served from the cache).
        """
        return self.run_one(
            ExperimentSpec(
                app=app,
                cluster=cluster,
                protocol=protocol,
                num_nodes=num_nodes,
                workload=workload,
                config=config,
                verify=verify,
                sanitize=sanitize,
                telemetry=telemetry,
            )
        )

    def comparison(
        self,
        app: str,
        cluster,
        node_counts: Sequence[int] | None = None,
        workload=None,
        protocols: Iterable[str] = DEFAULT_PROTOCOLS,
    ) -> "ProtocolComparison":
        """Run *app* on *cluster* for every (protocol, node-count) pair
        (default node counts: the cluster's own x-axis)."""
        from repro.harness.experiment import protocol_comparisons

        matrix = (
            ExperimentMatrix()
            .apps(app)
            .clusters(resolve_cluster(cluster))
            .protocols(*protocols)
            .workload(workload)
        )
        if node_counts is not None:
            matrix.nodes(*node_counts)
        (comparison,) = protocol_comparisons(self.run(matrix.build()))
        return comparison

    def ablation(
        self,
        kind: str,
        app: str,
        cluster="myrinet",
        num_nodes: int = 4,
        values: Sequence[object] | None = None,
        workload=None,
        protocols: Iterable[str] = DEFAULT_PROTOCOLS,
        sanitize: bool = False,
    ) -> "SweepResult":
        """Run one of the named ablation sweeps (A1-A4, see ``ABLATIONS``).

        ``kind`` is an :data:`repro.harness.sweep.ABLATIONS` key —
        ``"page_size"``, ``"check_cost"``, ``"threads"`` or ``"balancer"``;
        ``values`` overrides the ablation's default swept grid.  One cell
        per (value, protocol) runs in one batch.  With ``sanitize=True``
        every cell runs under the consistency sanitizer and the per-cell
        reports land in ``SweepResult.sanitizers``.
        """
        from repro.harness.sweep import SweepResult, ablation_by_name

        ablation = ablation_by_name(kind)
        swept = list(values) if values is not None else list(ablation.default_values)
        matrix = (
            ExperimentMatrix()
            .apps(app)
            .clusters(resolve_cluster(cluster))
            .protocols(*protocols)
            .nodes(num_nodes)
            .workload(workload)
        )
        base = [dataclasses.replace(spec, sanitize=sanitize) for spec in matrix.build()]
        grid = [(value, ablation.make_spec(spec, value)) for value in swept for spec in base]
        result = self.run(spec for _, spec in grid)
        sweep = SweepResult(parameter=ablation.parameter, values=swept)
        for value, spec in grid:
            report = result[spec]
            sweep.times[(spec.protocol, value)] = report.execution_seconds
            sweep.cells.append(result.cell(spec))
            if report.sanitizer is not None:
                sweep.sanitizers[(spec.protocol, value)] = report.sanitizer
        return sweep

    def calibrate(self, **kwargs) -> "CalibrationReport":
        """Check the cost model against the paper's published numbers."""
        from repro.harness.calibration import calibrate

        return calibrate(session=self, **kwargs)

    def job(
        self,
        experiments: Iterable[ExperimentSpec],
        checkpoint_dir=None,
        shard_size: int | None = None,
        resume: bool = False,
        **kwargs,
    ) -> "SweepJob":
        """A sharded, checkpointed :class:`~repro.harness.jobs.SweepJob`
        over *experiments* that runs its cells through this session."""
        from repro.harness.jobs import SweepJob

        return SweepJob(
            experiments,
            session=self,
            checkpoint_dir=checkpoint_dir,
            shard_size=shard_size,
            resume=resume,
            **kwargs,
        )

    def __repr__(self) -> str:
        return f"Session(executor={self.executor!r}, store={self.store!r})"


#: default session used by the thin backward-compatible wrappers
_DEFAULT_SESSION = Session()


def default_session() -> Session:
    """The serial, storeless session used when a caller passes no session."""
    return _DEFAULT_SESSION
