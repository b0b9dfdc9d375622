"""The process-wide script memo is an LRU bounded by the scripted ops it
holds, and every script it hands out is validated exactly once."""

import dataclasses
import sys
import threading

import pytest

from repro.apps import create_app
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session
from repro.scenarios import runner
from repro.scenarios import script as script_module
from repro.scenarios.registry import available_scenarios, scenario_workload
from repro.scenarios.runner import (
    SCRIPT_MEMO_OPS,
    ScriptMemo,
    SyntheticApplication,
    script_memo,
)
from repro.scenarios.script import OP_BARRIER, OP_GET, AccessScript, ObjectDecl


@pytest.fixture
def generated(monkeypatch):
    """Count each scenario's ``pattern.generate`` calls, from an empty memo.

    Returns a dict of app name -> calls, filled as scripts are generated.
    """
    calls: dict[str, int] = {}
    for name in available_scenarios():
        cls = type(create_app(name))

        def counting(workload, threads, nodes, name=name, generate=cls.pattern.generate):
            calls[name] = calls.get(name, 0) + 1
            return generate(workload, threads, nodes)

        monkeypatch.setattr(cls, "pattern", dataclasses.replace(cls.pattern, generate=counting))
    script_memo.clear()
    yield calls
    script_memo.clear()


def _small_memo(monkeypatch, budget_ops: int) -> ScriptMemo:
    """Put a memo with a test-sized budget behind ``build_script``."""
    memo = ScriptMemo(budget_ops)
    monkeypatch.setattr(runner, "script_memo", memo)
    return memo


def test_script_memo_evicts_the_least_recently_used_past_its_op_budget(monkeypatch, generated):
    app = create_app("syn-uniform")
    base = app.pattern.workload_cls.testing()
    workloads = [dataclasses.replace(base, seed=seed) for seed in range(12)]
    size = app.pattern.generate(base, 2, 2).op_count()
    generated.clear()
    memo = _small_memo(monkeypatch, 3 * size)
    first, second, _ = (app.build_script(w, 2, 2) for w in workloads[:3])
    # the uniform pattern's size does not depend on its seed
    assert {s.op_count() for s in (first, second)} == {size}
    assert app.build_script(workloads[0], 2, 2) is first
    assert generated == {"syn-uniform": 3}
    # a fourth script overflows the budget: the least recently used one
    # (the second, since the first was asked for again) makes room
    app.build_script(workloads[3], 2, 2)
    assert len(memo) == 3 and memo.held_ops() == 3 * size
    assert app.build_script(workloads[0], 2, 2) is first
    assert generated == {"syn-uniform": 4}
    regenerated = app.build_script(workloads[1], 2, 2)
    assert generated == {"syn-uniform": 5}
    assert regenerated is not second and regenerated == second
    for workload in workloads[4:]:
        app.build_script(workload, 2, 2)
        assert memo.held_ops() <= memo.budget_ops
    assert len(memo) == 3


def test_a_script_above_the_budget_is_kept_alone(monkeypatch, generated):
    app = create_app("syn-uniform")
    base = app.pattern.workload_cls.testing()
    memo = _small_memo(monkeypatch, 1)
    first = app.build_script(base, 2, 2)
    assert len(memo) == 1 and memo.held_ops() == first.op_count() > memo.budget_ops
    assert app.build_script(base, 2, 2) is first
    other = app.build_script(dataclasses.replace(base, seed=base.seed + 1), 2, 2)
    assert len(memo) == 1 and memo.held_ops() == other.op_count()
    assert app.build_script(base, 2, 2) is not first
    assert generated == {"syn-uniform": 3}


def test_scenarios_order_generates_each_script_once(generated):
    """Pattern -> shape -> protocol at ``bench``: 7 x {8, 16, 64} scripts."""
    for name in available_scenarios():
        app = create_app(name)
        workload = scenario_workload(name, "bench")
        for nodes in (8, 16, 64):
            scripts = {id(app.build_script(workload, nodes, nodes)) for _ in range(4)}
            assert len(scripts) == 1
            assert script_memo.held_ops() <= SCRIPT_MEMO_OPS
    assert generated == {name: 3 for name in available_scenarios()}


def test_scale_order_generates_each_script_once(generated):
    """Each pattern at 1024 nodes, ``testing``, under two protocols."""
    for name in available_scenarios():
        app = create_app(name)
        workload = scenario_workload(name, "testing")
        first = app.build_script(workload, 1024, 1024)
        assert app.build_script(workload, 1024, 1024) is first
        assert script_memo.held_ops() <= SCRIPT_MEMO_OPS
    assert generated == {name: 1 for name in available_scenarios()}


def test_matrix_order_compiles_each_thread_once(monkeypatch, generated):
    """(ic, n1), (ic, n2), (pf, n1), (pf, n2): two scripts, each thread compiled once."""
    compiled = []

    def counting(ops):
        compiled.append(ops)
        return compile_thread(ops)

    compile_thread = script_module.compile_thread
    monkeypatch.setattr(script_module, "compile_thread", counting)
    matrix = (
        ExperimentMatrix()
        .apps("syn-uniform")
        .clusters("myrinet")
        .protocols("java_ic", "java_pf")
        .nodes(1, 2)
        .workload("testing")
    )
    specs = matrix.build()
    assert [(s.protocol, s.num_nodes) for s in specs] == [
        ("java_ic", 1), ("java_ic", 2), ("java_pf", 1), ("java_pf", 2),
    ]
    Session().run(matrix)
    assert generated == {"syn-uniform": 2}
    assert len(compiled) == 1 + 2


def test_concurrent_misses_on_one_key_share_one_script(monkeypatch, generated):
    app = create_app("syn-hot-lock")
    workload = app.pattern.workload_cls.testing()
    both_generating = threading.Barrier(2, timeout=10)
    generate = type(app).pattern.generate

    def in_step(*args):
        both_generating.wait()
        return generate(*args)

    pattern = dataclasses.replace(type(app).pattern, generate=in_step)
    monkeypatch.setattr(type(app), "pattern", pattern)
    scripts = []
    workers = [
        threading.Thread(target=lambda: scripts.append(app.build_script(workload, 2, 2)))
        for _ in range(2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=30)
        assert not worker.is_alive()
    assert generated == {"syn-hot-lock": 2}
    assert len(scripts) == 2 and scripts[0] is scripts[1]
    assert len(script_memo) == 1 and script_memo.held_ops() == scripts[0].op_count()


def test_the_held_op_count_survives_many_threads(monkeypatch):
    """Eight threads hit and evict over a small memo; no update is lost."""
    app = create_app("syn-uniform")
    base = app.pattern.workload_cls.testing()
    workloads = [dataclasses.replace(base, seed=seed) for seed in range(6)]
    memo = _small_memo(monkeypatch, 3 * app.pattern.generate(base, 2, 2).op_count())

    def hammer(offset):
        for i in range(300):
            app.build_script(workloads[(i + offset) % len(workloads)], 2, 2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hammer, args=(k,)) for k in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert memo.held_ops() == sum(script.op_count() for script in memo._entries.values())
    assert memo.held_ops() <= memo.budget_ops and len(memo) == 3


def test_unhashable_workload_bypasses_the_cache():
    app = create_app("syn-read-mostly")
    workload = app.pattern.workload_cls.testing()
    hashable = app.build_script(workload, 2, 2)

    class Unhashable(type(workload)):
        __hash__ = None

    fields = {f.name: getattr(workload, f.name) for f in dataclasses.fields(workload)}
    before = (len(script_memo), script_memo.held_ops())
    script = app.build_script(Unhashable(**fields), 2, 2)
    assert (len(script_memo), script_memo.held_ops()) == before
    assert script.op_count() == hashable.op_count()


def test_generated_script_is_checked_once(monkeypatch):
    checked = []
    check = AccessScript._check
    monkeypatch.setattr(
        AccessScript, "_check", lambda script: (checked.append(script), check(script))
    )
    app = create_app("syn-hot-lock")
    workload = app.pattern.workload_cls.testing()
    script_memo.clear()
    script = app.build_script(workload, 2, 2)
    # ScriptBuilder.build validated it; the cache's validate() is a no-op
    assert checked == [script]
    assert app.build_script(workload, 2, 2) is script
    assert script.validate() is script
    assert checked == [script]
    # a copy is a new instance and is checked afresh
    assert dataclasses.replace(script).validate() == script
    assert len(checked) == 2
    script_memo.clear()


def test_custom_pattern_returning_an_unvalidated_script_is_still_checked():
    broken = AccessScript(layout=(ObjectDecl(name="x"),), threads=(((OP_GET, 0, 5),),))
    base = create_app("syn-hot-lock")
    pattern = dataclasses.replace(
        base.pattern, key="broken-test", generate=lambda workload, threads, nodes: broken
    )
    app = type(
        "SyntheticBrokenTestApplication",
        (SyntheticApplication,),
        {"name": pattern.app_name, "pattern": pattern},
    )()
    script_memo.clear()
    with pytest.raises(ValueError, match="slot 5"):
        app.build_script(pattern.workload_cls.testing(), 1, 1)
    script_memo.clear()


class _CountingThreads(tuple):
    """A script's ``threads`` tuple that counts how often it is walked."""

    walks = 0

    def __iter__(self):
        type(self).walks += 1
        return super().__iter__()


@pytest.mark.parametrize("barrier", [True, False])
def test_uses_barrier_walks_the_ops_once(barrier):
    ops = ((OP_GET, 0, 0),) + (((OP_BARRIER,),) if barrier else ())
    _CountingThreads.walks = 0
    script = AccessScript(layout=(ObjectDecl(name="x"),), threads=_CountingThreads((ops,)))
    assert script.uses_barrier is barrier
    assert script.uses_barrier is barrier
    assert _CountingThreads.walks == 1
    # the memo is not a field: equality and hashing ignore it
    fresh = AccessScript(layout=script.layout, threads=tuple(script.threads))
    assert fresh == script and hash(fresh) == hash(script)
