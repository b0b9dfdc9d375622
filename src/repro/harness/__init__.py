"""Experiment harness: regenerate every figure and summary of the paper.

The execution layer is organised around five abstractions (DESIGN.md has the
full architecture):

* :class:`~repro.harness.spec.ExperimentSpec` — a frozen, hashable
  description of one experiment cell with a canonical :meth:`cache_key`;
* :class:`~repro.harness.matrix.ExperimentMatrix` — a fluent builder that
  expands cartesian grids of specs; every named grid (the figures, the
  scenario and topology grids, comparisons, ablations, the ``grid`` and
  ``serve`` requests and the one-cell verbs) expands through it, so its
  one check of names and node counts is the only one;
* :class:`~repro.harness.executor.Executor` implementations —
  :class:`~repro.harness.executor.SerialExecutor` and
  :class:`~repro.harness.executor.ParallelExecutor`, the package's one pool;
* :class:`~repro.harness.store.ResultStore` — a content-addressed JSON cache
  of per-cell results, safe for concurrent writers across processes;
* :class:`~repro.harness.session.Session` — the facade every experiment
  routes through, combining an executor with an optional store.  Its
  methods (``run``, ``cell``, ``comparison``, ``ablation``, ``calibrate``,
  ``job``) and the ``session=`` argument of the figure generators are the
  one public entry-point surface; the common per-cell record they share is
  :class:`~repro.harness.session.CellResult`.

On top of that sit the paper-specific layers:

* :mod:`~repro.harness.experiment` — protocol comparisons and the helper
  that groups a matrix run's reports into them;
* :mod:`~repro.harness.sweep` — the declarative :data:`ABLATIONS` registry
  backing ``Session.ablation`` (A1-A4);
* :mod:`~repro.harness.jobs` — sharded, checkpointed, resumable
  :class:`~repro.harness.jobs.SweepJob` execution over a session;
* :mod:`~repro.harness.service` — the ``hyperion-sim serve`` JSON API
  (imported on first use of its names, so the HTTP stack loads only for
  the service);
* :mod:`~repro.harness.figures` — Figures 1-5 of the paper and the
  scenario and topology grids;
* :mod:`~repro.harness.report` — the markdown sections of EXPERIMENTS.md
  (which the CLI prints too), ASCII plots and the Section 4.3 summary;
* :mod:`~repro.harness.calibration` — checks the cost model against the
  constants the paper publishes and the improvements it reports;
* :mod:`~repro.harness.cli` — the ``hyperion-sim`` command-line interface.
"""

from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.matrix import ExperimentMatrix
from repro.harness.executor import Executor, ParallelExecutor, SerialExecutor
from repro.harness.store import ResultStore, StoreSchemaError
from repro.harness.session import CellResult, Session, SessionResult, default_session
from repro.harness.experiment import ProtocolComparison
from repro.harness.jobs import (
    CheckpointMismatch,
    SweepInterrupted,
    SweepJob,
    SweepProgress,
)
from repro.harness.figures import (
    FIGURE_APPS,
    FigureData,
    FigureSeries,
    generate_all_figures,
)
from repro.harness.report import (
    ascii_plot,
    improvement_summary,
    render_experiments_document,
    render_experiments_markdown,
    render_improvement_markdown,
)
from repro.harness.calibration import CalibrationReport, calibrate
from repro.harness.sweep import ABLATIONS, Ablation, SweepResult, ablation_by_name

__all__ = [
    # execution layer
    "ExperimentSpec",
    "ExperimentMatrix",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ResultStore",
    "StoreSchemaError",
    "Session",
    "SessionResult",
    "CellResult",
    "default_session",
    "run_spec",
    # comparisons
    "ProtocolComparison",
    # sharded resumable sweeps
    "SweepJob",
    "SweepProgress",
    "SweepInterrupted",
    "CheckpointMismatch",
    # the sweep service
    "SweepService",
    "ServiceServer",
    "serve",
    # figures and reports
    "FIGURE_APPS",
    "FigureSeries",
    "FigureData",
    "generate_all_figures",
    "ascii_plot",
    "improvement_summary",
    "render_experiments_document",
    "render_experiments_markdown",
    "render_improvement_markdown",
    # calibration
    "CalibrationReport",
    "calibrate",
    # ablations
    "SweepResult",
    "Ablation",
    "ABLATIONS",
    "ablation_by_name",
]

#: names re-exported from :mod:`repro.harness.service`, resolved on first access
_SERVICE_NAMES = frozenset({"SweepService", "ServiceServer", "serve"})


def __getattr__(name: str):
    if name in _SERVICE_NAMES:
        from repro.harness import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
