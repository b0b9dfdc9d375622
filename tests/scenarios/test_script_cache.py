"""The process-wide script cache is an LRU with a fixed cap, and every
script it hands out is validated exactly once."""

import dataclasses

import pytest

from repro.apps import create_app
from repro.scenarios.runner import (
    SCRIPT_CACHE_SIZE,
    SyntheticApplication,
    _cached_script,
)
from repro.scenarios.script import OP_BARRIER, OP_GET, AccessScript, ObjectDecl


def test_script_cache_evicts_past_its_cap():
    app = create_app("syn-read-mostly")
    base = app.pattern.workload_cls.testing()
    workloads = [dataclasses.replace(base, seed=seed) for seed in range(SCRIPT_CACHE_SIZE + 1)]
    _cached_script.cache_clear()
    first = app.build_script(workloads[0], 2, 2)
    assert app.build_script(workloads[0], 2, 2) is first
    for workload in workloads[1:]:
        app.build_script(workload, 2, 2)
    info = _cached_script.cache_info()
    assert info.maxsize == SCRIPT_CACHE_SIZE
    assert info.currsize == SCRIPT_CACHE_SIZE
    # the least recently used script was evicted: asking again regenerates
    regenerated = app.build_script(workloads[0], 2, 2)
    assert _cached_script.cache_info().misses == info.misses + 1
    assert regenerated is not first and regenerated == first
    _cached_script.cache_clear()


def test_unhashable_workload_bypasses_the_cache():
    app = create_app("syn-read-mostly")
    workload = app.pattern.workload_cls.testing()
    hashable = app.build_script(workload, 2, 2)

    class Unhashable(type(workload)):
        __hash__ = None

    fields = {f.name: getattr(workload, f.name) for f in dataclasses.fields(workload)}
    before = _cached_script.cache_info()
    script = app.build_script(Unhashable(**fields), 2, 2)
    assert _cached_script.cache_info() == before
    assert script.op_count() == hashable.op_count()


def test_generated_script_is_checked_once(monkeypatch):
    checked = []
    check = AccessScript._check
    monkeypatch.setattr(
        AccessScript, "_check", lambda script: (checked.append(script), check(script))
    )
    app = create_app("syn-hot-lock")
    workload = app.pattern.workload_cls.testing()
    _cached_script.cache_clear()
    script = app.build_script(workload, 2, 2)
    # ScriptBuilder.build validated it; the cache's validate() is a no-op
    assert checked == [script]
    assert app.build_script(workload, 2, 2) is script
    assert script.validate() is script
    assert checked == [script]
    # a copy is a new instance and is checked afresh
    assert dataclasses.replace(script).validate() == script
    assert len(checked) == 2
    _cached_script.cache_clear()


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
    _cached_script.cache_clear()
    with pytest.raises(ValueError, match="slot 5"):
        app.build_script(pattern.workload_cls.testing(), 1, 1)
    _cached_script.cache_clear()


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
