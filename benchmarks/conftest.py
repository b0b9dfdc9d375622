"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or an
ablation) at the ``bench`` workload scale and records the reproduced series
in ``benchmark.extra_info`` so that ``pytest --benchmark-json`` dumps carry
the actual figure data, not just the simulator's wall-clock time.

All simulations route through a shared :class:`repro.harness.session.Session`
(the ``bench_session`` fixture).  Two environment variables configure it:
``HYPERION_BENCH_JOBS`` fans cells out over that many worker processes, and
``HYPERION_BENCH_CACHE`` points at a result-store directory so repeated
benchmark runs reuse earlier simulations.  Both default to off, keeping the
timed numbers comparable across machines.  A third, ``HYPERION_BENCH_RECORD=1``,
writes the regenerated data into the committed ``results/`` directory instead
of a temporary one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.apps.workloads import WorkloadPreset
from repro.harness.session import Session

try:  # the whole directory depends on the pytest-benchmark plugin
    import pytest_benchmark  # noqa: F401
except ImportError:  # pragma: no cover - exercised only in minimal installs
    collect_ignore_glob = ["test_*.py"]

RESULTS_DIR = Path(__file__).parent / "results"

#: node counts used for the figure grids (kept modest so the whole benchmark
#: suite runs in a couple of minutes; the CLI can produce the full grids)
FIGURE_NODE_COUNTS = {"myrinet": (1, 2, 4, 8, 12), "sci": (1, 2, 4, 6)}


def _session_from_env() -> Session:
    return Session.from_options(
        jobs=int(os.environ.get("HYPERION_BENCH_JOBS", "1")),
        cache_dir=os.environ.get("HYPERION_BENCH_CACHE"),
    )


@pytest.fixture(scope="session")
def bench_preset() -> WorkloadPreset:
    """The bench workload preset (scaled sizes, paper-equivalent multipliers)."""
    return WorkloadPreset.bench()


@pytest.fixture(scope="session")
def bench_session() -> Session:
    """The session every benchmark's simulations route through."""
    return _session_from_env()


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    """Directory where benchmarks drop their regenerated figure data.

    The committed ``results/`` directory only with ``HYPERION_BENCH_RECORD=1``
    (re-recording the artifacts); otherwise a temporary directory, so a plain
    test run leaves the working tree clean.
    """
    if os.environ.get("HYPERION_BENCH_RECORD") == "1":
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    return tmp_path_factory.mktemp("results")


def record_figure(benchmark, figure_data, results_dir: Path) -> None:
    """Attach a figure's series to the benchmark record and save it as JSON."""
    payload = figure_data.to_dict()
    benchmark.extra_info["figure"] = payload
    path = results_dir / f"figure{figure_data.number}_{figure_data.app}.json"
    path.write_text(json.dumps(payload, indent=2))
