"""Experiment harness: regenerate every figure and summary of the paper.

The execution layer is organised around five abstractions (DESIGN.md has the
full architecture):

* :class:`~repro.harness.spec.ExperimentSpec` — a frozen, hashable
  description of one experiment cell with a canonical :meth:`cache_key`;
* :class:`~repro.harness.matrix.ExperimentMatrix` — a fluent builder that
  expands cartesian grids of specs;
* :class:`~repro.harness.executor.Executor` implementations —
  :class:`~repro.harness.executor.SerialExecutor` and the process-pool
  :class:`~repro.harness.executor.ParallelExecutor`;
* :class:`~repro.harness.store.ResultStore` — a content-addressed JSON cache
  of per-cell results, safe for concurrent writers across processes;
* :class:`~repro.harness.session.Session` — the facade every experiment
  routes through, combining an executor with an optional store.  Its
  methods (``cell``, ``comparison``, ``sweep``, ``ablation``, ``figure``,
  ``calibrate``, ``job``, ...) are the one public entry-point surface; the
  common per-cell record they share is
  :class:`~repro.harness.session.CellResult`.

On top of that sit the paper-specific layers:

* :mod:`~repro.harness.experiment` — protocol comparisons and the
  spec-batching helpers the figure pipeline uses;
* :mod:`~repro.harness.sweep` — the declarative :data:`ABLATIONS` registry
  backing ``Session.ablation`` (A1-A4);
* :mod:`~repro.harness.jobs` — sharded, checkpointed, resumable
  :class:`~repro.harness.jobs.SweepJob` execution;
* :mod:`~repro.harness.service` — the ``hyperion-sim serve`` JSON API;
* :mod:`~repro.harness.figures` — Figures 1-5 of the paper;
* :mod:`~repro.harness.report` — text tables, ASCII plots and the Section 4.3
  improvement summary;
* :mod:`~repro.harness.calibration` — checks the cost model against the
  constants the paper publishes and the improvements it reports;
* :mod:`~repro.harness.cli` — the ``hyperion-sim`` command-line interface.
"""

from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.matrix import ExperimentMatrix
from repro.harness.executor import Executor, ParallelExecutor, SerialExecutor
from repro.harness.store import ResultStore, StoreSchemaError
from repro.harness.session import CellResult, Session, SessionResult, default_session
from repro.harness.experiment import (
    ProtocolComparison,
    comparison_specs,
    fill_comparison,
)
from repro.harness.jobs import (
    CheckpointMismatch,
    SweepInterrupted,
    SweepJob,
    SweepProgress,
)
from repro.harness.service import ServiceServer, SweepService, serve
from repro.harness.figures import (
    FIGURE_APPS,
    FigureData,
    FigureSeries,
    generate_all_figures,
    generate_figure,
)
from repro.harness.report import (
    ascii_plot,
    figure_table,
    improvement_summary,
    improvement_table,
    render_experiments_document,
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
    "comparison_specs",
    "fill_comparison",
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
    "generate_figure",
    "generate_all_figures",
    "figure_table",
    "ascii_plot",
    "improvement_table",
    "improvement_summary",
    "render_experiments_document",
    # calibration
    "CalibrationReport",
    "calibrate",
    # ablations
    "SweepResult",
    "Ablation",
    "ABLATIONS",
    "ablation_by_name",
]
