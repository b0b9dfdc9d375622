"""The access-script IR: declarations, validation, builder and interpreter."""

from __future__ import annotations

import json

import pytest

from repro.apps.base import create_app
from repro.scenarios.script import (
    OP_BARRIER,
    OP_COMPUTE,
    OP_GET,
    OP_GET_RUN,
    OP_LOCK,
    OP_PUT,
    OP_PUT_RUN,
    OP_UNLOCK,
    AccessScript,
    ObjectDecl,
    ScriptBuilder,
    compile_thread,
    materialise_layout,
)
from tests.conftest import make_runtime


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------
def test_object_decl_validates():
    with pytest.raises(ValueError):
        ObjectDecl(name="", kind="object")
    with pytest.raises(ValueError):
        ObjectDecl(name="x", kind="page")
    with pytest.raises(ValueError):
        ObjectDecl(name="x", kind="object", num_fields=0)
    with pytest.raises(ValueError):
        ObjectDecl(name="x", kind="array", length=0)
    decl = ObjectDecl(name="arr", kind="array", length=8)
    assert decl.num_slots == 8
    assert ObjectDecl(name="obj", num_fields=3).num_slots == 3


# ---------------------------------------------------------------------------
# script validation
# ---------------------------------------------------------------------------
def _one_object_layout():
    return (ObjectDecl(name="o", kind="object", num_fields=2),)


def test_validate_rejects_unknown_tag():
    script = AccessScript(layout=_one_object_layout(), threads=((("frob", 0),),))
    with pytest.raises(ValueError, match="unknown op tag"):
        script.validate()


def test_validate_rejects_bad_object_and_slot():
    with pytest.raises(ValueError, match="references object"):
        AccessScript(layout=_one_object_layout(), threads=((("get", 3, 0),),)).validate()
    with pytest.raises(ValueError, match="addresses slot"):
        AccessScript(layout=_one_object_layout(), threads=((("get", 0, 7),),)).validate()


def test_validate_rejects_unbalanced_locks():
    with pytest.raises(ValueError, match="unlock without a lock"):
        AccessScript(
            layout=_one_object_layout(), threads=((("unlock", 0),),)
        ).validate()
    with pytest.raises(ValueError, match="unmatched lock"):
        AccessScript(layout=_one_object_layout(), threads=((("lock", 0),),)).validate()


def test_validate_rejects_a_lock_after_an_unflushed_put():
    # two threads on two nodes, the object homed on node 0: thread 1's write
    # is still in its node's cache when the enter would drop that cache
    layout = (ObjectDecl("o", home_node=0),)
    threads = ((), ((OP_PUT, 0, 0, 0), (OP_LOCK, 0), (OP_UNLOCK, 0)))
    with pytest.raises(ValueError, match=r"thread 1: op \('lock', 0\) enters a monitor"):
        AccessScript(layout=layout, threads=threads).validate()
    run_then_nested = ((OP_LOCK, 0), (OP_PUT_RUN, 0, (0,), (1,)), (OP_LOCK, 0))
    with pytest.raises(ValueError, match="thread 0: .* after a put"):
        AccessScript(layout=layout, threads=(run_then_nested,)).validate()


def test_an_unlock_or_barrier_flushes_before_the_next_lock():
    after_unlock = (
        (OP_LOCK, 0), (OP_PUT, 0, 0, 0), (OP_UNLOCK, 0), (OP_LOCK, 0), (OP_UNLOCK, 0)
    )
    after_barrier = ((OP_PUT, 0, 0, 0), (OP_BARRIER,), (OP_LOCK, 0), (OP_UNLOCK, 0))
    AccessScript(
        layout=_one_object_layout(), threads=(after_unlock, after_barrier)
    ).validate()


def test_validate_rejects_empty_layout_and_threads():
    with pytest.raises(ValueError, match="at least one declared object"):
        AccessScript(layout=(), threads=(((("barrier",)),),)).validate()
    with pytest.raises(ValueError, match="at least one thread"):
        AccessScript(layout=_one_object_layout(), threads=()).validate()


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------
def test_builder_builds_a_valid_script():
    builder = ScriptBuilder(num_threads=2)
    counters = builder.shared_object("counters", num_fields=4)
    table = builder.shared_array("table", length=16, home_node=1)
    for t in range(2):
        builder.lock(t, counters)
        builder.get(t, counters, t)
        builder.put(t, counters, t, t + 1)
        builder.unlock(t, counters)
        builder.get(t, table, 2 * t)
        builder.compute(t, 100.0)
    builder.barrier_all()
    script = builder.build()
    assert script.num_threads == 2
    assert script.uses_barrier
    assert script.op_count() == 2 * 6 + 2
    counts = script.counts_by_kind()
    assert counts == {
        "lock": 2,
        "unlock": 2,
        "get": 4,
        "put": 2,
        "compute": 2,
        "barrier": 2,
    }


def test_builder_rejects_zero_threads():
    with pytest.raises(ValueError):
        ScriptBuilder(num_threads=0)


# ---------------------------------------------------------------------------
# interpreter (through a real runtime)
# ---------------------------------------------------------------------------
def test_materialise_layout_wraps_home_nodes():
    runtime = make_runtime(num_nodes=2)
    builder = ScriptBuilder(num_threads=1)
    builder.shared_object("a", home_node=0)
    builder.shared_object("b", home_node=5)  # 5 % 2 == 1
    builder.shared_array("c", length=4, home_node=3)  # 3 % 2 == 1
    builder.get(0, 0, 0)
    script = builder.build()

    captured = {}

    def main(ctx):
        captured["entities"] = materialise_layout(ctx, script)
        return None

    runtime.spawn_main(main)
    runtime.run()
    a, b, c = captured["entities"]
    assert (a.home_node, b.home_node, c.home_node) == (0, 1, 1)
    assert c.num_slots == 4


def test_validate_checks_run_ops():
    layout = (ObjectDecl(name="arr", kind="array", length=8),)
    ok = AccessScript(
        layout=layout,
        threads=(((OP_GET_RUN, 0, (0, 1, 2)), (OP_PUT_RUN, 0, (3, 4), (9, 9))),),
    )
    ok.validate()
    with pytest.raises(ValueError, match="addresses slot"):
        AccessScript(
            layout=layout, threads=(((OP_GET_RUN, 0, (0, 8)),),)
        ).validate()
    with pytest.raises(ValueError, match="empty run"):
        AccessScript(layout=layout, threads=(((OP_GET_RUN, 0, ()),),)).validate()
    with pytest.raises(ValueError, match="slots but"):
        AccessScript(
            layout=layout, threads=(((OP_PUT_RUN, 0, (0, 1), (7,)),),)
        ).validate()


def test_builder_run_helpers():
    builder = ScriptBuilder(num_threads=1)
    arr = builder.shared_array("arr", length=16)
    builder.get_run(0, arr, range(4))
    builder.put_run(0, arr, [4, 5], [40, 50])
    script = builder.build()
    assert script.op_count() == 2
    assert script.counts_by_kind() == {"get_run": 1, "put_run": 1}
    assert script.threads[0][0] == (OP_GET_RUN, arr, (0, 1, 2, 3))
    assert script.threads[0][1] == (OP_PUT_RUN, arr, (4, 5), (40, 50))


# ---------------------------------------------------------------------------
# compiling a thread into segments
# ---------------------------------------------------------------------------
def test_compile_thread_splits_at_sync_ops():
    ops = (
        (OP_GET, 0, 0),
        (OP_COMPUTE, 10.0),    # computes stay inside a segment
        (OP_PUT, 0, 1, 7),
        (OP_LOCK, 1),
        (OP_LOCK, 1),          # no steps between two sync ops: no segment
        (OP_GET, 1, 0),
        (OP_UNLOCK, 1),
        (OP_UNLOCK, 1),
        (OP_COMPUTE, 10.0),
        (OP_COMPUTE, 5.0),
        (OP_BARRIER,),
        (OP_GET, 0, 2),
    )
    items, cycles = compile_thread(ops)
    assert items == (
        (((OP_GET, 0, 0), (OP_COMPUTE, 10.0), (OP_PUT, 0, 1, 7)), (OP_LOCK, 1)),
        (None, (OP_LOCK, 1)),
        (((OP_GET, 1, 0),), (OP_UNLOCK, 1)),
        (None, (OP_UNLOCK, 1)),
        (((OP_COMPUTE, 10.0), (OP_COMPUTE, 5.0)), (OP_BARRIER,)),
        (((OP_GET, 0, 2),), None),
    )
    assert cycles == (5.0, 10.0)
    # a thread ending in a sync op has no trailing segment
    assert compile_thread(((OP_LOCK, 0), (OP_UNLOCK, 0)))[0] == (
        (None, (OP_LOCK, 0)),
        (None, (OP_UNLOCK, 0)),
    )


def test_compile_thread_turns_contiguous_runs_into_ranges():
    ops = (
        (OP_GET_RUN, 0, (3, 4, 5, 6)),
        (OP_PUT_RUN, 0, (8, 9), (1, 2)),
        (OP_GET_RUN, 0, (3, 5, 4)),    # not ascending
        (OP_PUT_RUN, 0, (2, 2), (1, 2)),  # a repeated slot
        (OP_GET_RUN, 0, (7,)),
    )
    (steps, sync), = compile_thread(ops)[0]
    assert sync is None
    assert steps == (
        (OP_GET_RUN, 0, range(3, 7)),
        (OP_PUT_RUN, 0, range(8, 10), (1, 2)),
        (OP_GET_RUN, 0, (3, 5, 4)),
        (OP_PUT_RUN, 0, (2, 2), (1, 2)),
        (OP_GET_RUN, 0, range(7, 8)),
    )


# ---------------------------------------------------------------------------
# segment replay
# ---------------------------------------------------------------------------
def _batchy_script(num_threads=2):
    """Runs straddling every boundary kind: locks, barriers, compute.

    Writes to the unguarded array happen between barriers (which flush and
    invalidate), writes to the lock object under its monitor — the usual
    Java-consistency discipline of the built-in patterns.
    """
    builder = ScriptBuilder(num_threads)
    arr = builder.shared_array("arr", length=64, home_node=0)
    lock = builder.shared_object("lock", num_fields=1, home_node=1)
    for t in range(num_threads):
        base = t * 16
        builder.get_run(t, arr, range(base, base + 8))  # pre-grouped
        for k in range(8):  # scalar ops of one segment
            builder.put(t, arr, base + k, k)
    builder.barrier_all()
    for t in range(num_threads):
        builder.lock(t, lock)
        builder.get(t, lock, 0)
        builder.put(t, lock, 0, t)
        builder.unlock(t, lock)
        builder.compute(t, 250.0)
        base = t * 16
        for k in range(6):
            builder.get(t, arr, (base + 16 + k) % 64)
    builder.barrier_all()
    for t in range(num_threads):
        builder.put_run(t, arr, [t * 16, t * 16 + 2], [5, 6])
    builder.barrier_all()
    return builder.build()


def _run_custom(script, workload, protocol="java_ic", **config_kwargs):
    app = create_app("syn-uniform")
    app.build_script = lambda *a, **k: script
    runtime = make_runtime(num_nodes=2, protocol=protocol, **config_kwargs)
    report = app.run(runtime, workload)
    assert report.result["ops_executed"] == script.op_count()
    return json.dumps(report.to_dict(), sort_keys=True)


def test_back_to_back_cells_compile_each_thread_once(monkeypatch):
    """Cells replaying one script reuse its compiled threads; a new one redoes them."""
    from repro.scenarios import script as script_module
    from repro.scenarios.registry import scenario_workload

    calls = []

    def counting(ops):
        calls.append(ops)
        return compile_thread(ops)

    monkeypatch.setattr(script_module, "compile_thread", counting)
    workload = scenario_workload("syn-uniform", "testing")
    script = _batchy_script()
    runs = [_run_custom(script, workload, protocol) for protocol in ("java_ic", "java_pf")]
    assert len(calls) == len(script.threads)
    assert runs[0] != runs[1]
    # an equal but distinct script is keyed by identity, not by its ops
    again = _batchy_script()
    assert again == script
    assert _run_custom(again, workload, "java_ic") == runs[0]
    assert len(calls) == 2 * len(script.threads)


def test_batched_replay_trace_on_off_identical():
    """Tracing must not perturb segment replay (and vice versa)."""
    from repro.scenarios.registry import scenario_workload

    script = _batchy_script()
    workload = scenario_workload("syn-uniform", "testing")
    plain = _run_custom(script, workload, trace=False)
    traced = _run_custom(script, workload, trace=True)
    assert plain == traced


def test_replay_executes_every_op_and_respects_the_protocol():
    """A registered scenario replays its whole script and verifies."""
    from repro.scenarios.registry import scenario_workload

    app = create_app("syn-migratory")
    workload = scenario_workload("syn-migratory", "testing")
    runtime = make_runtime(num_nodes=2, protocol="java_ic")
    report = app.run(runtime, workload)
    assert app.verify(report.result, workload)
    assert report.result["ops_executed"] == report.result["ops_expected"]
    # java_ic detects remote accesses with inline checks, never page faults
    stats = report.to_dict()
    assert stats["inline_checks"] > 0
    assert stats["page_faults"] == 0
