"""Concurrency, corruption, schema and on-disk format of the ResultStore."""

import io
import json
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.harness.jobs import SweepJob
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session
from repro.harness.spec import CACHE_SCHEMA_VERSION, ExperimentSpec
from repro.harness.store import (
    MANIFEST_NAME,
    QUARANTINE_DIR,
    ResultStore,
    StoreSchemaError,
    report_to_payload,
)


def _spec(app="pi", nodes=1):
    return ExperimentSpec(app, "myrinet", "java_ic", nodes, "testing")


def _race_worker(args):
    """Run the same cell through a fresh store handle (separate process)."""
    store_root, app, nodes = args
    session = Session(store=ResultStore(store_root))
    report = session.run_one(_spec(app, nodes))
    return report.to_dict()


# ---------------------------------------------------------------------------
# concurrent writers
# ---------------------------------------------------------------------------
def test_two_processes_racing_the_same_cell(tmp_path):
    """Two processes writing the same cell never corrupt the entry."""
    root = str(tmp_path / "store")
    with ProcessPoolExecutor(max_workers=2) as pool:
        dicts = list(pool.map(_race_worker, [(root, "pi", 1), (root, "pi", 1)]))
    assert dicts[0] == dicts[1]
    # whichever writer won, the stored entry round-trips byte-identically
    store = ResultStore(root)
    cached = store.get(_spec())
    assert cached is not None
    assert cached.to_dict() == dicts[0]
    assert store.quarantined == 0


def test_many_processes_disjoint_cells(tmp_path):
    """A pool writing disjoint cells sees every entry land."""
    root = str(tmp_path / "store")
    cells = [("pi", 1), ("pi", 2), ("jacobi", 1), ("jacobi", 2)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        list(pool.map(_race_worker, [(root, app, n) for app, n in cells]))
    store = ResultStore(root)
    assert len(store) == len(cells)
    for app, nodes in cells:
        assert store.get(_spec(app, nodes)) is not None


# ---------------------------------------------------------------------------
# corruption quarantine
# ---------------------------------------------------------------------------
def test_corrupt_entry_is_quarantined_not_raised(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    report = Session(store=store).run_one(spec)
    path = store.path_for(spec.cache_key())
    # simulate a writer killed mid-write: truncated JSON on disk
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    fresh = ResultStore(tmp_path / "store")
    assert fresh.get(spec) is None  # miss, not crash
    assert fresh.quarantined == 1
    assert not path.exists()
    quarantined = list((tmp_path / "store" / QUARANTINE_DIR).iterdir())
    assert len(quarantined) == 1
    # the cell recomputes and caches cleanly afterwards
    again = Session(store=fresh).run_one(spec)
    assert again.to_dict() == report.to_dict()
    assert fresh.get(spec) is not None


def test_garbage_entry_is_quarantined(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    store.path_for(spec.cache_key()).write_text('{"not": "a result payload"}')
    assert store.get(spec) is None
    assert store.quarantined == 1


# ---------------------------------------------------------------------------
# manifest / schema stamping
# ---------------------------------------------------------------------------
def test_manifest_written_and_not_counted(tmp_path):
    store = ResultStore(tmp_path / "store")
    manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
    assert manifest["format"] == "hyperion-result-store"
    assert len(store) == 0  # the manifest is not an entry


def test_foreign_manifest_raises_schema_error(tmp_path):
    root = tmp_path / "store"
    ResultStore(root)
    manifest_path = root / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = "something-else"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreSchemaError):
        ResultStore(root)


def test_stale_entry_schema_is_a_miss(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    Session(store=store).run_one(spec)
    path = store.path_for(spec.cache_key())
    payload = json.loads(path.read_text())
    payload["schema"] = -1
    path.write_text(json.dumps(payload))
    fresh = ResultStore(tmp_path / "store")
    assert fresh.get(spec) is None  # stale, recompute
    assert fresh.quarantined == 0  # ... but not corrupt


# ---------------------------------------------------------------------------
# on-disk format: compact C-encoded JSON, old indented files still read
# ---------------------------------------------------------------------------
def test_entry_and_ledger_round_trip_through_the_compact_writer(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = ExperimentSpec(
        "syn-hot-lock", "myrinet", "java_hybrid", 2, "testing", telemetry=True
    )
    report = Session(store=store).run_one(spec)
    entry_text = store.path_for(spec.cache_key()).read_text()
    ledger_text = store.telemetry_path_for(spec.cache_key()).read_text()
    for text in (entry_text, ledger_text):
        assert "\n" not in text  # one compact line, no indentation
        assert text == json.dumps(json.loads(text))
    # JSON turns the per-node int keys into strings; otherwise equal
    entry = json.loads(
        json.dumps(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "key": spec.cache_key(),
                "spec": spec.describe(),
                "report": report_to_payload(report),
            }
        )
    )
    assert json.loads(entry_text) == entry
    assert json.loads(ledger_text) == report.telemetry.to_dict()
    cached = ResultStore(tmp_path / "store").get(spec)
    assert cached is not None and cached.to_dict() == report.to_dict()


def test_truncated_compact_entry_is_quarantined(tmp_path):
    store = ResultStore(tmp_path / "store")
    spec = _spec()
    Session(store=store).run_one(spec)
    path = store.path_for(spec.cache_key())
    text = path.read_text()
    assert "\n" not in text
    path.write_text(text[:-1])  # only the closing brace is lost
    fresh = ResultStore(tmp_path / "store")
    assert fresh.get(spec) is None
    assert fresh.quarantined == 1
    assert not path.exists()


def _rewrite_indented(path):
    path.write_text(json.dumps(json.loads(path.read_text()), indent=2))


def test_resumed_job_reads_old_indented_store_files(tmp_path):
    specs = (
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet")
        .protocols("java_ic")
        .nodes(1, 2)
        .workload("testing")
        .build()
    )
    root, ckpt = tmp_path / "store", tmp_path / "ckpt"
    first = SweepJob(
        specs, session=Session(store=ResultStore(root)), checkpoint_dir=ckpt, shard_size=2
    )
    expected = first.run().to_dict()
    # the layout older versions wrote: every store file indented
    store = ResultStore(root)
    for spec in specs:
        _rewrite_indented(store.path_for(spec.cache_key()))
    _rewrite_indented(store.manifest_path)
    # lose one shard checkpoint, so its cells must come from the store
    (ckpt / "shard-0001.json").unlink()
    store = ResultStore(root)
    job = SweepJob(
        specs, session=Session(store=store), checkpoint_dir=ckpt, shard_size=2, resume=True
    )
    assert job.run().to_dict() == expected
    assert job.progress.resumed_cells == len(specs) - 2
    assert job.progress.executed_cells == 0  # both cells were store hits
    assert store.quarantine_entries() == []


def test_checkpoint_files_keep_the_json_dump_layout(tmp_path):
    """Shard and manifest checkpoints stay byte-identical to ``json.dump``'s
    default output, the layout they had before the shared writer."""
    ckpt = tmp_path / "ckpt"
    SweepJob([_spec(), _spec(nodes=2)], checkpoint_dir=ckpt, shard_size=1).run()
    files = sorted(ckpt.glob("*.json"))
    assert [path.name for path in files] == [
        "job.json",
        "shard-0000.json",
        "shard-0001.json",
    ]
    for path in files:
        text = path.read_text()
        legacy = io.StringIO()
        json.dump(json.loads(text), legacy)
        assert text == legacy.getvalue(), path.name
