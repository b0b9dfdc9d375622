"""Segment replay against per-op replay, on generated access scripts.

Hypothesis draws whole :class:`~repro.scenarios.script.AccessScript`\\ s:
balanced, unnested locks; valid slots of objects and arrays with mixed
homes; arrays that are not page-aligned and span several pages, so accesses
and runs sit on both sides of page boundaries; ``get_run``/``put_run`` ops
(contiguous, or in any order with repeats); barrier phases; two threads per
node; and ``work_multiplier`` above 1, up to values that take hybrid
pages exactly to their promotion threshold.  Each script runs under the six
built-in protocols on a crossbar, the two-island ``myrinet2x8`` and the
``sci_torus``, three ways: segment replay, per-op replay (the spec), and per-op
replay with every protocol built inside ``reference_detection()``.  The
three ``ExecutionReport.to_dict()`` payloads, and the data left in the home
and cached copies, must be equal.

The tier-1 run draws a few scripts per cluster;
``--hypothesis-profile=deep`` (registered in ``tests/conftest.py``) draws
the profile's count.  A shrunk failure is pinned in
``segment_reproducers.json`` beside this file, where
:func:`test_pinned_reproducers_replay_identically` replays it every run.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, note, settings, strategies as st

from repro.apps.base import create_app
from repro.cluster.presets import cluster_by_name
from repro.core.memory import MemorySubsystem
from repro.core.protocol import reference_detection
from repro.hyperion.runtime import HyperionRuntime, RuntimeConfig
from repro.scenarios import runner
from repro.scenarios.registry import scenario_workload
from repro.scenarios.script import AccessScript, ObjectDecl, materialise_layout

PROTOCOLS = ("java_ic", "java_pf", "java_ic_hoisted", "java_hybrid", "java_ic_mig", "java_ic_loc")
CLUSTERS = ("myrinet", "myrinet2x8", "sci_torus")
REPRODUCERS_PATH = Path(__file__).parent / "segment_reproducers.json"

#: scripts drawn per cluster: a few in tier-1, the loaded profile's count
#: when a profile deeper than Hypothesis' default is loaded
EXAMPLES = (
    settings.default.max_examples
    if settings.default.max_examples > settings.get_profile("default").max_examples
    else 15
)

#: values a put writes: in range for every element type
VALUES = st.integers(min_value=0, max_value=100)


@st.composite
def _decl(draw, index: int) -> ObjectDecl:
    home = draw(st.integers(min_value=0, max_value=2))
    if draw(st.booleans()):
        return ObjectDecl(
            name=f"o{index}",
            kind="object",
            home_node=home,
            num_fields=draw(st.integers(min_value=1, max_value=6)),
        )
    return ObjectDecl(
        name=f"a{index}",
        kind="array",
        home_node=home,
        element_type=draw(st.sampled_from(["long", "double", "int", "byte"])),
        length=draw(st.integers(min_value=1, max_value=1100)),
        page_aligned=draw(st.booleans()),
    )


@st.composite
def _access(draw, layout, writes: bool = True) -> tuple:
    obj = draw(st.integers(min_value=0, max_value=len(layout) - 1))
    slots = layout[obj].num_slots
    slot = st.integers(min_value=0, max_value=slots - 1)
    kinds = ["get", "put", "get_run", "put_run", "compute"] if writes else ["get", "get_run", "compute"]
    kind = draw(st.sampled_from(kinds))
    if kind == "compute":
        return ("compute", float(draw(st.sampled_from([0, 40, 250]))))
    if kind == "get":
        return ("get", obj, draw(slot))
    if kind == "put":
        return ("put", obj, draw(slot), draw(VALUES))
    if draw(st.booleans()):  # contiguous and ascending
        lo = draw(slot)
        run = tuple(range(lo, lo + draw(st.integers(min_value=1, max_value=min(80, slots - lo)))))
    else:
        run = tuple(draw(st.lists(slot, min_size=1, max_size=10)))
    if kind == "get_run":
        return ("get_run", obj, run)
    return ("put_run", obj, run, tuple(draw(st.lists(VALUES, min_size=len(run), max_size=len(run)))))


@st.composite
def _thread_phase(draw, layout) -> list:
    """Reads, then critical sections, then any accesses.

    A monitor enter drops the node's cached copies, which must hold no
    unflushed write, and ``AccessScript.validate`` rejects a put followed
    by a lock with no unlock or barrier in between.  So writes outside a
    critical section come only after the phase's last one: the barrier
    ending the phase flushes them.
    """
    ops = draw(st.lists(_access(layout, writes=False), max_size=3))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        lock = draw(st.integers(min_value=0, max_value=len(layout) - 1))
        body = draw(st.lists(_access(layout), max_size=3))
        ops += [("lock", lock), *body, ("unlock", lock)]
    return ops + draw(st.lists(_access(layout), max_size=4))


@st.composite
def cases(draw) -> dict:
    """A script with the node count, threads per node and work multiplier it runs with."""
    nodes = draw(st.integers(min_value=2, max_value=3))
    per_node = draw(st.integers(min_value=1, max_value=2))
    layout = [draw(_decl(i)) for i in range(draw(st.integers(min_value=1, max_value=4)))]
    threads: list[list] = [[] for _ in range(nodes * per_node)]
    for phase in range(draw(st.integers(min_value=1, max_value=3))):
        if phase:
            for ops in threads:
                ops.append(("barrier",))
        for ops in threads:
            ops += draw(_thread_phase(layout))
    return {
        "layout": [dataclasses.asdict(decl) for decl in layout],
        "threads": threads,
        "nodes": nodes,
        "threads_per_node": per_node,
        # with 64 and 73 the eighth access to a page brings a hybrid page's
        # density to exactly its threshold (512): with its extra
        # accounting, or with the access itself
        "work_multiplier": draw(st.sampled_from([1.0, 3.0, 64.0, 73.0])),
    }


def _script(case: dict) -> AccessScript:
    """The case's script, its ops (and runs) tuples again after JSON."""
    return AccessScript(
        layout=tuple(ObjectDecl(**decl) for decl in case["layout"]),
        threads=tuple(
            tuple(tuple(tuple(x) if isinstance(x, list) else x for x in op) for op in ops)
            for ops in case["threads"]
        ),
    ).validate()


def _run(case: dict, script: AccessScript, protocol: str, cluster: str) -> str:
    """The report of one run, with the data it leaves in every copy.

    Reports count bytes but hold no values, so the home copies of the
    script's objects and each node's cached copies are compared too.
    """
    app = create_app("syn-uniform")
    app.build_script = lambda *args, **kwargs: script
    runtime = HyperionRuntime(
        cluster_by_name(cluster),
        num_nodes=case["nodes"],
        config=RuntimeConfig(protocol=protocol, threads_per_node=case["threads_per_node"]),
    )
    workload = scenario_workload(
        "syn-uniform", "testing", work_multiplier=case["work_multiplier"]
    )
    entities = []

    def materialise(ctx, script):
        entities.extend(materialise_layout(ctx, script))
        return entities

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "materialise_layout", materialise)
        report = app.run(runtime, workload)
    assert report.result["ops_executed"] == script.op_count()
    homes = [e.main_read_range(0, e.num_slots).tolist() for e in entities]
    index = {e.oid: i for i, e in enumerate(entities)}  # oids differ from run to run
    cached = [
        [
            (index[e.obj.oid], np.asarray(e.data).tolist(), e.dirty_slot_count())
            for e in cache.entries()
        ]
        for cache in runtime.memory.caches
    ]
    return json.dumps([report.to_dict(), homes, cached], sort_keys=True)


def _assert_replays_agree(case: dict, cluster: str) -> None:
    script = _script(case)
    for protocol in PROTOCOLS:
        segmented = _run(case, script, protocol, cluster)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(MemorySubsystem, "replays_segments", lambda self: False)
            per_op = _run(case, script, protocol, cluster)
        with reference_detection():
            reference = _run(case, script, protocol, cluster)
        assert segmented == per_op, protocol
        assert segmented == reference, protocol


@pytest.mark.parametrize("cluster", CLUSTERS)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(case=cases())
def test_segment_replay_matches_per_op_replay(cluster, case):
    note(f"reproducer: {json.dumps({**case, 'cluster': cluster})}")
    _assert_replays_agree(case, cluster)


def _reproducers() -> list:
    return json.loads(REPRODUCERS_PATH.read_text())


@pytest.mark.parametrize(
    "case", _reproducers(), ids=lambda case: case["why"].split(":")[0]
)
def test_pinned_reproducers_replay_identically(case):
    """Each pinned script, shrunk from a failure, stays equal in all three ways."""
    _assert_replays_agree(case, case["cluster"])
