"""Tests for the experiment API: spec, matrix, executors, store, session."""

import dataclasses
import hashlib
import json

import pytest

from repro.apps.base import available_apps
from repro.apps.workloads import WorkloadPreset
from repro.cluster.presets import _REGISTRY as cluster_registry
from repro.cluster.presets import myrinet_cluster, register_cluster
from repro.harness import spec as spec_module
from repro.harness.executor import Executor, ParallelExecutor, SerialExecutor
from repro.harness.matrix import ExperimentMatrix
from repro.harness.session import Session
from repro.harness.spec import ExperimentSpec, run_spec
from repro.harness.store import ResultStore
from repro.hyperion.runtime import RuntimeConfig
from repro.scenarios.patterns import UniformWorkload


@pytest.fixture(scope="module")
def small_matrix():
    return (
        ExperimentMatrix()
        .apps("pi", "jacobi")
        .clusters("myrinet")
        .protocols("java_ic", "java_pf")
        .nodes(1, 2)
        .workload("testing")
    )


# ---------------------------------------------------------------------------
# ExperimentSpec
# ---------------------------------------------------------------------------
def test_spec_is_frozen_and_hashable():
    spec = ExperimentSpec("pi", "myrinet", "java_pf", 2, "testing")
    assert spec.label() == "pi/myrinet/java_pf/n2"
    assert len({spec, ExperimentSpec("pi", "myrinet", "java_pf", 2, "testing")}) == 1
    with pytest.raises(AttributeError):
        spec.app = "jacobi"


def test_spec_cache_key_is_canonical():
    by_name = ExperimentSpec("pi", "myrinet", "java_pf", 2, "testing")
    by_spec = ExperimentSpec("pi", myrinet_cluster(), "java_pf", 2, "testing")
    by_preset = ExperimentSpec("pi", "myrinet", "java_pf", 2, WorkloadPreset.testing())
    by_workload = ExperimentSpec(
        "pi", "myrinet", "java_pf", 2, WorkloadPreset.testing().pi
    )
    # same physical cell, any spelling -> same key
    keys = {s.cache_key() for s in (by_name, by_spec, by_preset, by_workload)}
    assert len(keys) == 1

    assert by_name.cache_key() != ExperimentSpec(
        "pi", "myrinet", "java_ic", 2, "testing"
    ).cache_key()
    assert by_name.cache_key() != ExperimentSpec(
        "pi", "myrinet", "java_pf", 4, "testing"
    ).cache_key()
    assert by_name.cache_key() != ExperimentSpec(
        "pi", "sci", "java_pf", 2, "testing"
    ).cache_key()
    assert by_name.cache_key() != ExperimentSpec(
        "pi", "myrinet", "java_pf", 2, "testing", config=RuntimeConfig(seed=1)
    ).cache_key()
    # modified cluster constants change the key too
    tweaked = myrinet_cluster().with_software(inline_check_cycles=99.0)
    assert by_name.cache_key() != ExperimentSpec(
        "pi", tweaked, "java_pf", 2, "testing"
    ).cache_key()


def _unmemoised_key(spec):
    """The cache key computed from the canonical form, without any memo."""
    payload = json.dumps(
        spec.canonical_dict(), sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture()
def empty_key_memo():
    spec_module._key_memo.clear()
    yield spec_module._key_memo
    spec_module._key_memo.clear()


def test_memoised_cache_keys_equal_the_unmemoised_computation(empty_key_memo):
    specs = (
        ExperimentMatrix()
        .apps(*available_apps())
        .clusters("myrinet", "sci")
        .protocols("java_ic", "java_pf", "java_hybrid", "java_ic_mig")
        .workload("bench")
        .build()
    )
    expected = [_unmemoised_key(spec) for spec in specs]
    assert [spec.cache_key() for spec in specs] == expected
    assert 0 < len(empty_key_memo) <= spec_module.KEY_MEMO_CAP
    # fresh instances of equal specs are served by the memo, keys unchanged
    rebuilt = [dataclasses.replace(spec) for spec in specs]
    assert "_cache_key" not in rebuilt[0].__dict__
    assert [spec.cache_key() for spec in rebuilt] == expected


def test_key_memo_tells_apart_values_that_compare_equal(empty_key_memo):
    # 1 == 1.0 == True, but the canonical JSON spells them apart
    specs = [
        ExperimentSpec(
            "syn-uniform", "myrinet", "java_ic", 2, UniformWorkload(work_multiplier=m)
        )
        for m in (1.0, 1)
    ] + [
        ExperimentSpec(
            "pi", "myrinet", "java_pf", 2, "testing", config=RuntimeConfig(seed=s)
        )
        for s in (1, True)
    ]
    keys = [spec.cache_key() for spec in specs]
    assert keys == [_unmemoised_key(spec) for spec in specs]
    assert len(set(keys)) == 4


def test_rebinding_a_cluster_preset_changes_the_key(empty_key_memo):
    name = "memo-rebind-test"
    register_cluster(name, myrinet_cluster)
    try:
        before = ExperimentSpec("pi", name, "java_pf", 2, "testing").cache_key()
        register_cluster(
            name,
            lambda: myrinet_cluster().with_software(inline_check_cycles=99.0),
            allow_override=True,
        )
        spec = ExperimentSpec("pi", name, "java_pf", 2, "testing")
        assert spec.cache_key() != before
        assert spec.cache_key() == _unmemoised_key(spec)
    finally:
        cluster_registry.pop(name)


def test_key_memo_stays_within_its_cap(empty_key_memo):
    cap = spec_module.KEY_MEMO_CAP
    specs = [
        ExperimentSpec(
            "pi", "myrinet", "java_pf", 1, "testing", config=RuntimeConfig(seed=seed)
        )
        for seed in range(cap + 50)
    ]
    for spec in specs:
        spec.cache_key()
        assert 0 < len(empty_key_memo) <= cap
    # keys computed after the memo was emptied are still correct
    last = dataclasses.replace(specs[-1])
    assert last.cache_key() == _unmemoised_key(last)


def test_spec_verify_is_not_part_of_identity():
    plain = ExperimentSpec("pi", "myrinet", "java_pf", 2, "testing")
    verified = ExperimentSpec("pi", "myrinet", "java_pf", 2, "testing", verify=True)
    assert plain == verified
    assert plain.cache_key() == verified.cache_key()


def test_spec_protocol_wins_over_config_protocol():
    spec = ExperimentSpec(
        "pi", "myrinet", "java_ic", 1, "testing", config=RuntimeConfig(protocol="java_pf")
    )
    assert spec.effective_config().protocol == "java_ic"
    assert run_spec(spec).protocol == "java_ic"


# ---------------------------------------------------------------------------
# ExperimentMatrix
# ---------------------------------------------------------------------------
def test_matrix_expands_cartesian_grid(small_matrix):
    specs = small_matrix.build()
    assert len(specs) == 2 * 1 * 2 * 2
    assert len(small_matrix) == len(specs)
    labels = {spec.label() for spec in specs}
    assert "jacobi/myrinet/java_ic/n1" in labels


def test_matrix_defaults_filters_and_clamping():
    matrix = (
        ExperimentMatrix()
        .apps("pi")
        .clusters("myrinet", "sci")
        .nodes(1, 2, 4, 8, 12)  # sci has 6 nodes: 8 and 12 run on myrinet only
        .workload("testing")
        .filter(lambda spec: spec.num_nodes != 2)
    )
    specs = matrix.build()
    by_cluster = {}
    for spec in specs:
        if spec.protocol == "java_pf":
            by_cluster.setdefault(spec.cluster_name, []).append(spec.num_nodes)
    assert by_cluster == {"myrinet": [1, 4, 8, 12], "sci": [1, 4]}
    # protocols default to the paper's pair
    assert {s.protocol for s in specs} == {"java_ic", "java_pf"}


def test_matrix_nodes_per_cluster():
    matrix = (
        ExperimentMatrix()
        .apps("pi")
        .clusters("myrinet", "sci")
        .protocols("java_pf")
        .nodes_per_cluster({"myrinet": [1, 2], "sci": [1]})
        .workload("testing")
    )
    by_cluster = {}
    for spec in matrix:
        by_cluster.setdefault(spec.cluster_name, []).append(spec.num_nodes)
    assert by_cluster == {"myrinet": [1, 2], "sci": [1]}


def test_matrix_requires_apps_and_clusters():
    with pytest.raises(ValueError):
        ExperimentMatrix().clusters("myrinet").build()
    with pytest.raises(ValueError):
        ExperimentMatrix().apps("pi").build()


@pytest.mark.parametrize(
    "axis, values, message",
    [
        ("apps", ("pi", "nope"), "apps: unknown app(s) nope"),
        ("clusters", ("myrinet", "bogus"), "clusters: unknown cluster(s) bogus"),
        ("protocols", ("java_ic", "java_nope"), "protocols: unknown protocol(s) java_nope"),
        # names are exact: a spec keeps its spelling in its label and cache key
        ("apps", ("PI",), "apps: unknown app(s) PI"),
        ("clusters", ("Myrinet",), "clusters: unknown cluster(s) Myrinet"),
        ("protocols", ("JAVA_IC",), "protocols: unknown protocol(s) JAVA_IC"),
        ("workload", "Testing", "workload: unknown workload preset(s) Testing"),
        ("workload", "huge", "workload: unknown workload preset(s) huge"),
        ("nodes", (2.5,), "nodes must be positive integers, got [2.5]"),
        ("nodes", (0,), "nodes must be positive integers, got [0]"),
        ("nodes", ("2",), "nodes must be positive integers, got ['2']"),
        ("nodes", (True,), "nodes must be positive integers, got [True]"),
        ("nodes", (2, 13), "nodes 13: cluster 'myrinet' has 12 nodes"),
    ],
)
def test_matrix_build_is_the_one_grid_check(axis, values, message):
    matrix = ExperimentMatrix().apps("pi").clusters("myrinet", "sci").workload("testing")
    axis_setter = getattr(matrix, axis)
    matrix = axis_setter(values) if axis == "workload" else axis_setter(*values)
    with pytest.raises(ValueError) as excinfo:
        matrix.build()
    assert message in str(excinfo.value)


# ---------------------------------------------------------------------------
# executors: determinism
# ---------------------------------------------------------------------------
def test_serial_and_parallel_executors_agree(small_matrix):
    specs = small_matrix.build()
    serial = Session(executor=SerialExecutor()).run(specs)
    parallel = Session(executor=ParallelExecutor(jobs=2)).run(specs)
    for spec in specs:
        assert serial[spec].to_dict() == parallel[spec].to_dict(), spec.label()


def test_parallel_executor_preserves_submission_order(small_matrix):
    specs = small_matrix.build()
    reports = ParallelExecutor(jobs=2).execute(specs)
    for spec, report in zip(specs, reports, strict=True):
        assert report.protocol == spec.protocol
        assert report.num_nodes == spec.num_nodes


def test_executor_protocol_accepts_stubs():
    class Stub:
        def execute(self, specs):
            return []

    assert isinstance(Stub(), Executor)
    assert isinstance(SerialExecutor(), Executor)
    assert isinstance(ParallelExecutor(), Executor)


# ---------------------------------------------------------------------------
# result store and warm-cache behaviour
# ---------------------------------------------------------------------------
class CountingExecutor:
    """Serial executor that counts how many cells it actually simulates."""

    def __init__(self):
        self.simulated = 0

    def execute(self, specs):
        self.simulated += len(specs)
        return SerialExecutor().execute(specs)


def test_store_roundtrip_preserves_report_payload(tmp_path):
    spec = ExperimentSpec("jacobi", "myrinet", "java_pf", 2, "testing")
    report = run_spec(spec)
    store = ResultStore(tmp_path)
    assert spec not in store
    store.put(spec, report)
    assert spec in store and len(store) == 1
    cached = store.get(spec)
    assert cached.to_dict() == report.to_dict()
    assert cached.execution_seconds == report.execution_seconds


def test_store_treats_corrupt_entries_as_misses(tmp_path):
    spec = ExperimentSpec("pi", "myrinet", "java_ic", 1, "testing")
    store = ResultStore(tmp_path)
    for corrupt in (
        "{not json",
        json.dumps({"schema": -1}),
        json.dumps([1, 2, 3]),  # right schema marker impossible: not an object
        json.dumps({"schema": 1}),  # missing the report payload
        json.dumps({"schema": 1, "report": {"cluster": "myrinet"}}),  # truncated
    ):
        store.path_for(spec.cache_key()).write_text(corrupt)
        assert store.get(spec) is None, corrupt


def test_warm_store_runs_zero_simulations(tmp_path, small_matrix):
    store = ResultStore(tmp_path)
    specs = small_matrix.build()

    cold_executor = CountingExecutor()
    cold = Session(executor=cold_executor, store=store).run(specs)
    assert cold_executor.simulated == len(specs)
    assert cold.executed == len(specs) and cold.cache_hits == 0

    warm_executor = CountingExecutor()
    warm = Session(executor=warm_executor, store=store).run(specs)
    assert warm_executor.simulated == 0
    assert warm.executed == 0 and warm.cache_hits == len(specs)
    for spec in specs:
        assert warm[spec].to_dict() == cold[spec].to_dict()


def test_session_deduplicates_specs():
    spec = ExperimentSpec("pi", "myrinet", "java_pf", 1, "testing")
    executor = CountingExecutor()
    result = Session(executor=executor).run([spec, spec, spec])
    assert executor.simulated == 1
    assert len(result) == 1


def test_verify_specs_bypass_cache_and_upgrade_duplicates(tmp_path):
    store = ResultStore(tmp_path)
    plain = ExperimentSpec("pi", "myrinet", "java_pf", 1, "testing")
    verified = ExperimentSpec("pi", "myrinet", "java_pf", 1, "testing", verify=True)

    Session(store=store).run([plain])  # warm the cache
    executor = CountingExecutor()
    result = Session(executor=executor, store=store).run([verified])
    # verification only happens at execution time, so the hit is skipped
    assert executor.simulated == 1
    assert result.cache_hits == 0

    # a verifying duplicate upgrades its non-verifying twin: one run, verified
    executor = CountingExecutor()
    upgraded = Session(executor=executor, store=store).run([plain, verified])
    assert executor.simulated == 1
    assert len(upgraded) == 1


def test_session_rejects_short_executor_batches():
    class Dropping:
        def execute(self, specs):
            return []

    spec = ExperimentSpec("pi", "myrinet", "java_pf", 1, "testing")
    with pytest.raises(RuntimeError):
        Session(executor=Dropping()).run([spec])


def test_cache_key_stable_for_non_dataclass_workloads():
    class CustomWorkload:
        def __init__(self, size):
            self.size = size

    small = ExperimentSpec("pi", "myrinet", "java_pf", 1, CustomWorkload(8))
    same = ExperimentSpec("pi", "myrinet", "java_pf", 1, CustomWorkload(8))
    large = ExperimentSpec("pi", "myrinet", "java_pf", 1, CustomWorkload(64))
    assert small.cache_key() == same.cache_key()  # no id()-based repr leaking in
    assert small.cache_key() != large.cache_key()  # parameters count


# ---------------------------------------------------------------------------
# coordinate-level entry points share the session's executor and store
# ---------------------------------------------------------------------------
def test_run_cell_accepts_session(tmp_path):
    store = ResultStore(tmp_path)
    executor = CountingExecutor()
    session = Session(executor=executor, store=store)
    first = session.cell("pi", "myrinet", "java_pf", 1, workload="testing")
    second = session.cell("pi", "myrinet", "java_pf", 1, workload="testing")
    assert executor.simulated == 1
    assert first.to_dict() == second.to_dict()


def test_run_comparison_accepts_session(tmp_path, testing_preset):
    session = Session(store=ResultStore(tmp_path))
    comparison = session.comparison(
        "jacobi", "myrinet", node_counts=[1, 2], workload=testing_preset.jacobi
    )
    assert set(dict(comparison.series("java_pf"))) == {1, 2}
    # the comparison's four cells are now cached
    rerun = Session(executor=CountingExecutor(), store=ResultStore(tmp_path))
    again = rerun.comparison(
        "jacobi", "myrinet", node_counts=[1, 2], workload=testing_preset.jacobi
    )
    assert rerun.executor.simulated == 0
    assert again.improvements() == comparison.improvements()
