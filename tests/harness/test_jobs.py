"""Sharded, checkpointed, resumable sweeps: SweepJob and the grid CLI."""

import ast
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.harness.executor import ParallelExecutor
from repro.harness.jobs import (
    CheckpointMismatch,
    SweepInterrupted,
    SweepJob,
    SweepProgress,
)
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session
from repro.harness.store import ResultStore


@pytest.fixture(scope="module")
def grid_specs():
    return (
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet")
        .protocols("java_ic", "java_pf")
        .nodes(1, 2)
        .workload("testing")
        .build()
    )


@pytest.fixture(scope="module")
def serial_dict(grid_specs):
    return Session().run(grid_specs).to_dict()


# ---------------------------------------------------------------------------
# shard layout and accounting
# ---------------------------------------------------------------------------
def test_shard_layout_and_dedup(grid_specs):
    job = SweepJob(grid_specs + grid_specs, shard_size=3)
    assert len(job.specs) == len(grid_specs)  # duplicates collapse
    assert [len(s) for s in job.shards] == [3, 3, 2]
    assert job.progress.total_shards == 3
    assert job.progress.total_cells == 8


def test_job_key_depends_on_grid_and_shard_size(grid_specs):
    base = SweepJob(grid_specs, shard_size=3).job_key()
    assert SweepJob(grid_specs, shard_size=3).job_key() == base
    assert SweepJob(grid_specs, shard_size=2).job_key() != base
    assert SweepJob(grid_specs[:4], shard_size=3).job_key() != base


def test_progress_eta_and_render():
    progress = SweepProgress(total_cells=10, total_shards=5)
    assert progress.eta_seconds is None  # nothing finished yet
    progress.completed_cells = 5
    progress.completed_shards = 2
    progress.elapsed_seconds = 10.0
    assert progress.eta_seconds == pytest.approx(10.0)  # same rate ahead
    assert progress.percent == pytest.approx(50.0)
    assert "2/5" in progress.render() and "50.0%" in progress.render()
    # resumed cells don't count toward the rate estimate
    resumed = SweepProgress(
        total_cells=10, completed_cells=5, resumed_cells=5, elapsed_seconds=3.0
    )
    assert resumed.eta_seconds is None
    payload = progress.to_dict()
    assert payload["done"] is False and payload["completed_cells"] == 5


def test_job_result_matches_serial_run(grid_specs, serial_dict, tmp_path):
    job = SweepJob(grid_specs, checkpoint_dir=tmp_path / "ckpt", shard_size=3)
    result = job.run()
    assert result.to_dict() == serial_dict
    assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
        serial_dict, sort_keys=True
    )
    assert job.progress.done and job.progress.executed_cells == len(grid_specs)


def test_progress_callback_fires_per_shard(grid_specs, tmp_path):
    snapshots = []
    job = SweepJob(
        grid_specs,
        checkpoint_dir=tmp_path / "ckpt",
        shard_size=2,
        progress_callback=lambda p: snapshots.append(p.completed_shards),
    )
    job.run()
    assert snapshots == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# resume semantics
# ---------------------------------------------------------------------------
def test_resume_recomputes_nothing(grid_specs, serial_dict, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3).run()
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True)
    result = job.run()
    assert job.progress.resumed_cells == len(grid_specs)
    assert job.progress.executed_cells == 0  # zero recomputed cells
    assert result.to_dict() == serial_dict
    assert all(result.cell(spec).cached for spec in grid_specs)


def test_interrupt_then_resume(grid_specs, serial_dict, tmp_path):
    ckpt = tmp_path / "ckpt"
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2)
    job.progress_callback = (
        lambda p: job.request_stop() if p.completed_shards >= 2 else None
    )
    with pytest.raises(SweepInterrupted) as excinfo:
        job.run()
    assert excinfo.value.progress.completed_cells == 4
    resumed = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2, resume=True)
    result = resumed.run()
    assert resumed.progress.resumed_cells == 4
    assert resumed.progress.executed_cells == len(grid_specs) - 4
    assert result.to_dict() == serial_dict


def test_truncated_shard_checkpoint_recomputes_only_that_shard(
    grid_specs, serial_dict, tmp_path
):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    shard_file = ckpt / "shard-0001.json"
    shard_file.write_text(shard_file.read_text()[:40])  # killed mid-write
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2, resume=True)
    result = job.run()
    assert job.progress.resumed_cells == len(grid_specs) - 2
    assert job.progress.executed_cells == 2
    assert result.to_dict() == serial_dict


def test_resume_against_foreign_checkpoints_is_an_error(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    with pytest.raises(CheckpointMismatch):
        SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True).run()


def test_fresh_run_clears_stale_checkpoints(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2).run()
    job = SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=2)  # no resume
    result = job.run()
    assert job.progress.resumed_cells == 0
    assert job.progress.executed_cells == len(grid_specs)
    assert len(result) == len(grid_specs)


def test_resume_without_checkpoint_dir_raises(grid_specs):
    with pytest.raises(ValueError, match="checkpoint_dir"):
        SweepJob(grid_specs, resume=True)


# ---------------------------------------------------------------------------
# process-pool path and the store
# ---------------------------------------------------------------------------
def test_parallel_job_with_shared_store(grid_specs, serial_dict, tmp_path):
    store = ResultStore(tmp_path / "store")
    with Session(executor=ParallelExecutor(jobs=2), store=store) as session:
        job = session.job(grid_specs, checkpoint_dir=tmp_path / "ckpt", shard_size=2)
        assert job.run().to_dict() == serial_dict
        # a later job (no checkpoints at all) is served entirely by the store
        warm = session.job(grid_specs, shard_size=2)
        result = warm.run()
    assert warm.progress.executed_cells == 0
    assert warm.progress.cache_hits == len(grid_specs)
    assert result.to_dict() == serial_dict


def test_parallel_job_runs_windows_of_jobs_shards(grid_specs, tmp_path):
    """Each window is one ``execute`` of ``jobs`` shards' cells, and every
    shard is checkpointed and reported once its window ends."""

    class Recording(ParallelExecutor):
        batches: list[int] = []

        def execute(self, specs):
            specs = list(specs)
            self.batches.append(len(specs))
            return super().execute(specs)

    snapshots = []
    with Session(executor=Recording(jobs=2)) as session:
        job = session.job(
            grid_specs,
            checkpoint_dir=tmp_path / "ckpt",
            shard_size=3,
            progress_callback=lambda p: snapshots.append(p.completed_cells),
        )
        job.run()
    assert Recording.batches == [6, 2]  # shards of 3+3, then the last 2
    assert snapshots == [3, 6, 8]
    assert len(list((tmp_path / "ckpt").glob("shard-*.json"))) == 3
    # the records are payload-shaped: no host-side fields survive
    for spec in grid_specs:
        report = job.result[spec]
        assert report.telemetry is None and report.events_processed == 0
        assert report.host_seconds == 0.0 and report.peak_rss_bytes == 0


# ---------------------------------------------------------------------------
# kill -9 and resume through the CLI
# ---------------------------------------------------------------------------
def _grid_argv(ckpt, extra=()):
    return [
        sys.executable,
        "-m",
        "repro.harness.cli",
        "grid",
        "--apps",
        "pi,jacobi",
        "--nodes",
        "1,2",
        "--scale",
        "testing",
        "--shard-size",
        "2",
        "--checkpoint-dir",
        str(ckpt),
        *extra,
    ]


def _live_group_members(pgid: int) -> list[int]:
    """Pids of the processes of group *pgid* that are not zombies."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, _ppid, group = stat.rsplit(")", 1)[1].split()[:3]
        if int(group) == pgid and state != "Z":
            members.append(int(entry.name))
    return members


@pytest.mark.parametrize("jobs", [1, 2])
def test_kill_and_resume_via_cli(tmp_path, jobs):
    """SIGKILL a grid run mid-sweep; no process it started outlives it, and
    --resume finishes without rerunning."""
    ckpt = tmp_path / "ckpt"
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = _grid_argv(ckpt, extra=["--jobs", str(jobs)])
    proc = subprocess.Popen(
        argv,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # its own process group: pool workers join it
    )
    try:
        # wait for at least one shard checkpoint, then kill hard
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if list(ckpt.glob("shard-*.json")):
                break
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on test failure
            proc.kill()
    if Path("/proc/self/stat").exists():
        deadline = time.monotonic() + 5
        while _live_group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftovers = _live_group_members(proc.pid)
        for pid in leftovers:  # pragma: no cover - cleanup on test failure
            os.kill(pid, signal.SIGKILL)
        assert leftovers == [], "processes outlived the killed grid run"
    checkpointed = len(list(ckpt.glob("shard-*.json")))
    done = subprocess.run(
        [*argv, "--resume"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    summary = [l for l in done.stderr.splitlines() if "grid complete" in l][0]
    # "grid complete: 8 cells (resumed R, cache hits H, executed E)"
    resumed = int(summary.split("resumed ")[1].split(",")[0])
    executed = int(summary.split("executed ")[1].split(")")[0])
    assert resumed == 2 * checkpointed  # every checkpointed shard was reused
    assert resumed + executed == 8  # and nothing ran twice
    grid = json.loads(done.stdout)
    serial = Session().run(
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet")
        .nodes(1, 2)
        .workload("testing")
    ).to_dict()
    assert grid == serial


# ---------------------------------------------------------------------------
# telemetry aggregation
# ---------------------------------------------------------------------------
def _family_total(families, name):
    return sum(entry["value"] for entry in families[name]["series"])


def test_job_telemetry_aggregates_ledgers_and_metrics(grid_specs, tmp_path):
    job = SweepJob(
        grid_specs,
        session=Session(store=ResultStore(tmp_path / "cache")),
        checkpoint_dir=tmp_path / "ckpt",
        shard_size=3,
        telemetry=True,
    )
    assert job.telemetry_enabled
    assert all(spec.telemetry for spec in job.specs)
    job.run()
    payload = job.telemetry()
    assert len(payload["ledgers"]) == len(grid_specs)
    assert all(not ledger["cached"] for ledger in payload["ledgers"])
    families = payload["metrics"]["families"]
    assert _family_total(families, "sweep_shards_completed_total") == 3
    assert _family_total(families, "sweep_cells_completed_total") == 8
    assert _family_total(families, "sweep_cells_executed_total") == 8
    assert "sim_events_dispatched_total" in families
    # one lookup and one write per cell: each window's store counts move
    # into the job's aggregate once
    assert _family_total(families, "store_gets_total") == 8
    assert _family_total(families, "store_puts_total") == 8
    assert "sweep_shard_host_seconds" in families
    assert families["sweep_cell_host_seconds"]["series"][0]["count"] == 8
    assert families["sweep_peak_rss_bytes"]["series"][0]["value"] > 0


def test_job_resume_counts_resumed_shards_without_ledgers(grid_specs, tmp_path):
    ckpt = tmp_path / "ckpt"
    SweepJob(grid_specs, checkpoint_dir=ckpt, shard_size=3, telemetry=True).run()
    job = SweepJob(
        grid_specs, checkpoint_dir=ckpt, shard_size=3, resume=True, telemetry=True
    )
    job.run()
    payload = job.telemetry()
    # resumed shards contribute counters, not host artifacts
    assert payload["ledgers"] == []
    families = payload["metrics"]["families"]
    assert _family_total(families, "sweep_shards_resumed_total") == 3
    assert _family_total(families, "sweep_cells_resumed_total") == 8


def test_job_without_telemetry_keeps_sweep_counters_only(grid_specs, tmp_path):
    job = SweepJob(grid_specs, shard_size=4)
    assert not job.telemetry_enabled
    job.run()
    payload = job.telemetry()
    assert payload["ledgers"] == []
    families = payload["metrics"]["families"]
    assert _family_total(families, "sweep_cells_completed_total") == 8
    assert "sim_events_dispatched_total" not in families


def test_shard_workers_never_start_by_fork(grid_specs, serial_dict, monkeypatch):
    """Pools start from a clean process: ``serve`` runs jobs beside live threads.

    Both roads to a pool are covered: a plain ``Session.run`` at ``jobs=2``
    and a sweep job over such a session.
    """
    import concurrent.futures

    contexts = []
    real = concurrent.futures.ProcessPoolExecutor

    class Recording(real):
        def __init__(self, *args, mp_context=None, **kwargs):
            contexts.append(mp_context or multiprocessing.get_context())
            super().__init__(*args, mp_context=mp_context, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    with Session.from_options(jobs=2) as session:
        assert session.run(grid_specs).to_dict() == serial_dict
    with Session.from_options(jobs=2) as session:
        assert session.job(grid_specs, shard_size=2).run().to_dict() == serial_dict
    assert len(contexts) == 2  # one pool per session, however many windows
    for context in contexts:
        assert context.get_start_method() in ("forkserver", "spawn")


_POOL_CALLS = {
    "ProcessPoolExecutor",
    "get_context",
    "set_start_method",
    "set_forkserver_preload",
}


def test_one_module_builds_the_process_pool():
    """Exactly one module of ``src/repro`` builds a ``ProcessPoolExecutor`` or
    picks a multiprocessing start method: the package has one pool."""
    root = Path(repro.__file__).parent
    builders = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in _POOL_CALLS or any(kw.arg == "mp_context" for kw in node.keywords):
                builders.add(path.relative_to(root).as_posix())
    assert builders == {"harness/executor.py"}
