"""The five benchmark applications of the paper (Section 4.1).

Each application is a threaded "Java" program written against the Hyperion
runtime API in its post-translation form (every object access goes through
the ``get``/``put`` primitives of the memory subsystem):

* :class:`~repro.apps.pi.PiApplication` — Riemann-sum estimate of pi,
  embarrassingly parallel;
* :class:`~repro.apps.jacobi.JacobiApplication` — 2-D heat diffusion with a
  row-block decomposition and neighbour boundary exchange;
* :class:`~repro.apps.barnes.BarnesApplication` — Barnes–Hut gravitational
  N-body simulation with irregular communication and dynamic body
  assignment (SPLASH-2 derivative);
* :class:`~repro.apps.tsp.TspApplication` — branch-and-bound travelling
  salesperson with a central work queue and a shared best bound;
* :class:`~repro.apps.asp.AspApplication` — all-pairs shortest paths
  (Floyd's algorithm) with per-iteration row broadcast.

TSP memoises its search kernel and Barnes-Hut its octree build and force
walk, each in a bounded per-process memo; :func:`clear_kernel_memos` empties
all three (host timing of repeated cells calls it, see
:class:`repro.perf.Profiler`).

Workload sizes are configured through :class:`~repro.apps.workloads.WorkloadPreset`
(``paper()``, ``bench()`` and ``testing()`` scales).
"""

from repro.apps.asp import AspApplication
from repro.apps.barnes import BarnesApplication, step_memo, tree_memo
from repro.apps.base import Application, app_class, available_apps, create_app
from repro.apps.jacobi import JacobiApplication
from repro.apps.pi import PiApplication
from repro.apps.tsp import TspApplication, branch_and_bound

# Importing the scenario registry publishes the generated ``syn-*``
# applications alongside the paper benchmarks; every entry point that can
# name an application (specs, CLI, figures, worker processes) imports this
# package first, so the registry is always complete.
import repro.scenarios.registry  # noqa: E402,F401  (registration side effect)

from repro.apps.workloads import (
    AspWorkload,
    BarnesWorkload,
    JacobiWorkload,
    PiWorkload,
    TspWorkload,
    WorkloadPreset,
)


def clear_kernel_memos() -> None:
    """Empty every app kernel memo: TSP's search, Barnes-Hut's trees and walks."""
    branch_and_bound.cache_clear()
    tree_memo.cache_clear()
    step_memo.cache_clear()


__all__ = [
    "Application",
    "app_class",
    "available_apps",
    "create_app",
    "PiApplication",
    "JacobiApplication",
    "BarnesApplication",
    "TspApplication",
    "AspApplication",
    "clear_kernel_memos",
    "WorkloadPreset",
    "PiWorkload",
    "JacobiWorkload",
    "BarnesWorkload",
    "TspWorkload",
    "AspWorkload",
]
