"""repro: reproduction of "Remote Object Detection in Cluster-Based Java".

The package simulates the Hyperion cluster-JVM system (Antoniu & Hatcher,
IPDPS 2001 workshops) and reproduces its evaluation: the comparison of the
``java_ic`` (in-line check) and ``java_pf`` (page fault) Java-consistency
protocols on five benchmarks across two cluster platforms.

Quick start::

    from repro import HyperionRuntime, myrinet_cluster
    from repro.apps import PiApplication, WorkloadPreset

    runtime = HyperionRuntime(myrinet_cluster(), num_nodes=4, protocol="java_pf")
    app = PiApplication()
    app.launch(runtime, WorkloadPreset.testing().pi)
    report = runtime.run()
    print(report)

Grids of experiments go through the session API — a spec matrix, an executor
(serial or process-pool) and an optional on-disk result cache::

    from repro import ExperimentMatrix, ParallelExecutor, ResultStore, Session

    matrix = (
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet", "sci")
        .workload("testing")
    )
    with Session(executor=ParallelExecutor(jobs=4), store=ResultStore(".cache")) as session:
        for spec, report in session.run(matrix).items():
            print(spec.label(), report.execution_seconds)
        job = session.job(matrix, checkpoint_dir=".sweep")  # sharded, resumable
        job.run()

The session owns its four worker processes: they start on the first batch,
serve every later ``run`` and job of the session, and stop when the ``with``
block ends.  Workers start by ``forkserver``, not ``fork``, so a script
that uses them keeps this under ``if __name__ == "__main__":``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured results.
"""

from repro._version import __version__
from repro.cluster import (
    ClusterSpec,
    cluster_by_name,
    list_clusters,
    myrinet_cluster,
    sci_cluster,
)
from repro.core import available_protocols
from repro.harness import (
    ExperimentMatrix,
    ExperimentSpec,
    Executor,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    Session,
    SessionResult,
)
from repro.hyperion import (
    ExecutionReport,
    HyperionRuntime,
    JavaArray,
    JavaClass,
    JavaObject,
    RuntimeConfig,
)

__all__ = [
    "__version__",
    "HyperionRuntime",
    "RuntimeConfig",
    "ExecutionReport",
    "JavaClass",
    "JavaObject",
    "JavaArray",
    "ClusterSpec",
    "myrinet_cluster",
    "sci_cluster",
    "cluster_by_name",
    "list_clusters",
    "available_protocols",
    "ExperimentSpec",
    "ExperimentMatrix",
    "Executor",
    "SerialExecutor",
    "ParallelExecutor",
    "ResultStore",
    "Session",
    "SessionResult",
]
