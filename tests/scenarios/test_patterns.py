"""Pattern generators and the scenario registry."""

from __future__ import annotations

import pytest

from repro.apps.base import app_class, available_apps, create_app
from repro.apps.workloads import WorkloadPreset
from repro.harness.spec import resolve_workload
from repro.scenarios.patterns import (
    FalseSharingWorkload,
    HotLockWorkload,
    MigratoryWorkload,
    ProducerConsumerWorkload,
    ReadMostlyWorkload,
    ScenarioWorkload,
    UniformWorkload,
)
from repro.scenarios.registry import (
    available_scenarios,
    get_pattern,
    scenario_parameters,
    scenario_patterns,
    scenario_workload,
)

ALL_WORKLOAD_CLASSES = (
    ReadMostlyWorkload,
    ProducerConsumerWorkload,
    MigratoryWorkload,
    FalseSharingWorkload,
    HotLockWorkload,
    UniformWorkload,
)


# ---------------------------------------------------------------------------
# workload dataclasses
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALL_WORKLOAD_CLASSES)
def test_presets_validate_and_scale(cls):
    for scale in ("bench", "paper", "testing"):
        workload = cls.for_scale(scale)
        assert isinstance(workload, cls)
        assert workload.work_multiplier > 0
    # paper scale accounts more work per scripted element
    assert cls.paper().work_multiplier > cls.bench().work_multiplier


def test_for_scale_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown workload scale"):
        ScenarioWorkload.for_scale("huge")


def test_post_init_validation():
    with pytest.raises(ValueError):
        ScenarioWorkload(work_multiplier=0.0)
    with pytest.raises(ValueError):
        ScenarioWorkload(seed=-1)
    with pytest.raises(ValueError):
        ReadMostlyWorkload(write_fraction=1.5)
    with pytest.raises(ValueError):
        UniformWorkload(write_fraction=-0.1)
    with pytest.raises(ValueError):
        FalseSharingWorkload(rounds=0)
    with pytest.raises(ValueError):
        HotLockWorkload(acquisitions_per_thread=0)
    with pytest.raises(ValueError):
        MigratoryWorkload(updates_per_round=0)
    with pytest.raises(ValueError):
        ProducerConsumerWorkload(slots=0)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("key", sorted(scenario_patterns()))
@pytest.mark.parametrize("num_threads,num_nodes", [(1, 1), (2, 2), (4, 2), (6, 3)])
def test_generators_emit_valid_scripts(key, num_threads, num_nodes):
    pattern = get_pattern(key)
    workload = pattern.workload_cls.testing()
    script = pattern.generate(workload, num_threads, num_nodes)
    script.validate()
    assert script.num_threads == num_threads
    assert script.op_count() > 0


@pytest.mark.parametrize("key", sorted(scenario_patterns()))
def test_generation_is_seed_deterministic(key):
    pattern = get_pattern(key)
    workload = pattern.workload_cls.testing()
    first = pattern.generate(workload, 4, 2)
    second = pattern.generate(workload, 4, 2)
    assert first == second  # scripts are pure data: tuples all the way down


def test_different_seeds_change_at_least_the_random_patterns():
    pattern = get_pattern("uniform")
    base = pattern.workload_cls.testing()
    reseeded = scenario_workload("uniform", "testing", seed=99)
    assert pattern.generate(base, 4, 2) != pattern.generate(reseeded, 4, 2)


def test_false_sharing_packs_all_fields_into_one_object():
    pattern = get_pattern("false-sharing")
    workload = pattern.workload_cls.testing()
    script = pattern.generate(workload, 4, 2)
    objects = [d for d in script.layout if d.kind == "object"]
    assert len(objects) == 1
    assert objects[0].num_fields == 4 * workload.fields_per_thread
    # a 4-thread object stays well within one 4 KiB page
    assert objects[0].num_fields * 8 + 16 <= 4096


def test_migratory_defaults_to_one_token_per_thread():
    pattern = get_pattern("migratory")
    script = pattern.generate(pattern.workload_cls.testing(), 5, 2)
    tokens = [d for d in script.layout if d.name.startswith("token-")]
    assert len(tokens) == 5


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_every_pattern_registers_a_syn_application():
    names = available_scenarios()
    assert names == sorted(names)
    assert len(names) >= 6
    for name in names:
        assert name.startswith("syn-")
        assert name in available_apps()
        app = create_app(name)
        assert app.pattern is get_pattern(name)


def test_get_pattern_accepts_key_and_app_name():
    assert get_pattern("migratory") is get_pattern("syn-migratory")
    with pytest.raises(KeyError, match="unknown scenario"):
        get_pattern("syn-nope")


def test_scenario_workload_overrides_and_rejects_unknowns():
    workload = scenario_workload("syn-hot-lock", "bench", acquisitions_per_thread=3)
    assert workload.acquisitions_per_thread == 3
    with pytest.raises(KeyError, match="no parameter"):
        scenario_workload("syn-hot-lock", "bench", spin=1)
    with pytest.raises(ValueError):  # overrides re-run __post_init__
        scenario_workload("syn-hot-lock", "bench", acquisitions_per_thread=0)


def test_scenario_parameters_lists_fields_with_defaults():
    parameters = scenario_parameters("syn-false-sharing")
    assert set(parameters) == {
        "seed",
        "work_multiplier",
        "rounds",
        "writes_per_round",
        "fields_per_thread",
    }


# ---------------------------------------------------------------------------
# preset resolution through the harness
# ---------------------------------------------------------------------------
def test_resolve_workload_maps_presets_onto_scenarios():
    testing = resolve_workload("syn-uniform", "testing")
    assert testing == UniformWorkload.testing()
    bench = resolve_workload("syn-uniform", WorkloadPreset.bench())
    assert bench == UniformWorkload.bench()
    default = resolve_workload("syn-uniform", None)
    assert default == UniformWorkload.bench()
    # concrete workload objects pass through untouched
    custom = UniformWorkload(ops_per_thread=5)
    assert resolve_workload("syn-uniform", custom) is custom
    # paper apps still resolve through the preset bundle
    assert resolve_workload("pi", "testing") == WorkloadPreset.testing().pi


def test_workload_from_preset_hook_on_classes():
    assert app_class("syn-migratory").workload_from_preset(
        WorkloadPreset.testing()
    ) == MigratoryWorkload.testing()
    assert app_class("pi").workload_from_preset(
        WorkloadPreset.testing()
    ) == WorkloadPreset.testing().pi


@pytest.mark.parametrize(
    "scale, nodes",
    [("bench", 8), ("bench", 16), ("bench", 64), ("testing", 4), ("testing", 1024)],
)
def test_every_pattern_passes_validation_at_the_benchmark_shapes(scale, nodes):
    # generate() builds through ScriptBuilder.build, which validates, so a
    # pattern that entered a monitor after an unflushed put would raise here
    for name, pattern in scenario_patterns().items():
        script = pattern.generate(scenario_workload(name, scale), nodes, nodes)
        assert script.num_threads == nodes
        assert script.validate() is script
