"""The process-wide script cache is an LRU with a fixed cap."""

import dataclasses

from repro.apps import create_app
from repro.scenarios.runner import SCRIPT_CACHE_SIZE, _cached_script


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
