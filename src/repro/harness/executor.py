"""Executors: strategies for running batches of experiment cells.

Cells are pure functions of their :class:`~repro.harness.spec.ExperimentSpec`
(:func:`~repro.harness.spec.run_spec`), so the only degree of freedom is *how*
a batch is scheduled:

* :class:`SerialExecutor` runs cells one after another in-process;
* :class:`ParallelExecutor` fans them out over ``jobs`` worker processes —
  the package's one process pool.

Both return reports in the order of the submitted specs, and because cells
are deterministic the reports are identical whichever executor produced them
(``ExecutionReport.to_dict()`` byte-for-byte).  Custom executors only need an
``execute(specs)`` method with the same order-preserving contract — the test
suite's counting stub and any future remote/batch executors plug in that way;
an optional ``close()`` is called when the owning session closes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol, runtime_checkable

from repro.harness.spec import ExperimentSpec, run_spec
from repro.hyperion.runtime import ExecutionReport
from repro.util.validation import check_positive


@runtime_checkable
class Executor(Protocol):
    """Anything that can run a batch of specs, preserving order."""

    def execute(self, specs: Sequence[ExperimentSpec]) -> list[ExecutionReport]:
        """Run every spec and return the reports in submission order."""
        ...  # pragma: no cover


class SerialExecutor:
    """Run cells one after another in the calling process."""

    def execute(self, specs: Sequence[ExperimentSpec]) -> list[ExecutionReport]:
        """Run every spec and return the reports in submission order."""
        return [run_spec(spec) for spec in specs]


def _pool_context():
    """How worker processes start: never by a plain ``fork``.

    A pool may start inside ``serve``, whose handler and sweep threads keep
    running meanwhile; a forked child would inherit their held locks.
    ``forkserver`` forks each worker from a clean single-threaded process
    that has imported the simulator once (``repro.harness.spec`` pulls in
    the whole package); ``spawn`` stands in where the platform lacks it.
    """
    import multiprocessing  # lazy, like the pool: serial runs never load it

    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    context = multiprocessing.get_context("forkserver")
    context.set_forkserver_preload(["repro.harness.spec"])
    return context


def _exit_with_parent() -> None:
    """Pool initializer: end the worker once the process that owns the pool dies.

    A worker blocks on the pool's task queue, whose write end it holds itself,
    so a SIGKILLed owner would leave it (and the forkserver behind it) alive
    for good.  The parent sentinel becomes readable when the owner is gone.
    """
    import multiprocessing.connection
    import os
    import threading

    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


class ParallelExecutor:
    """Fan cells out across ``jobs`` worker processes.

    The grid's cells are independent, so the figure-regeneration path scales
    near-linearly with cores.  Reports come back in submission order
    (``ProcessPoolExecutor.map`` preserves it); with one job, or one spec,
    cells run in-process.  The pool starts on the first batch that needs it
    and stays open across :meth:`execute` calls until :meth:`close`, so a
    sweep job or a whole ``experiments`` document starts it once.
    """

    def __init__(self, jobs: int = 2):
        check_positive("jobs", jobs)
        self.jobs = int(jobs)
        self._pool = None

    def execute(self, specs: Sequence[ExperimentSpec]) -> list[ExecutionReport]:
        """Run every spec and return the reports in submission order."""
        specs = list(specs)
        if self.jobs == 1 or len(specs) <= 1:
            return SerialExecutor().execute(specs)
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_pool_context(),
                initializer=_exit_with_parent,
            )
        return list(self._pool.map(run_spec, specs))

    def close(self) -> None:
        """Shut the worker pool down (it restarts on the next batch)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"
