"""Tests for java_ic and java_pf access-detection behaviour."""

import pytest

from repro.core.protocol import (
    available_protocols,
    create_protocol,
    register_protocol,
    unregister_protocol,
)


def test_registry_contains_paper_protocols():
    names = available_protocols()
    assert "java_ic" in names
    assert "java_pf" in names
    assert "java_ic_hoisted" in names


def test_registry_rejects_unknown_and_duplicates(rig_factory):
    rig = rig_factory()
    with pytest.raises(KeyError):
        create_protocol("java_xyz", rig.page_manager, rig.cost_model)
    with pytest.raises(ValueError):
        register_protocol("java_ic", lambda pm, cm: None)


def test_registry_override_and_unregister(rig_factory):
    rig = rig_factory()

    def experimental(pm, cm):
        protocol = create_protocol("java_ic", pm, cm)
        protocol.name = "java_exp"
        return protocol

    register_protocol("java_exp", experimental)
    # re-registration (e.g. a module re-import) is fine when opted in
    register_protocol("java_exp", experimental, allow_override=True)
    with pytest.raises(ValueError):
        register_protocol("java_exp", experimental)
    assert create_protocol("java_exp", rig.page_manager, rig.cost_model).name == "java_exp"

    assert unregister_protocol("java_exp") is True
    assert unregister_protocol("java_exp") is False
    assert "java_exp" not in available_protocols()


# ---------------------------------------------------------------------------
# java_ic
# ---------------------------------------------------------------------------
def test_ic_charges_one_check_per_access_even_locally(rig_factory):
    rig = rig_factory(protocol="java_ic")
    array = rig.heap.new_array("double", 64, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 64)
    assert rig.page_manager.stats.inline_checks == 64
    # locally homed: no fetch, no fault, no mprotect
    assert rig.page_manager.stats.page_fetches == 0
    assert rig.page_manager.stats.page_faults == 0
    assert rig.page_manager.stats.mprotect_calls == 0
    assert ctx.cpu_seconds > 0 and ctx.wait_seconds == 0


def test_ic_remote_access_fetches_without_fault(rig_factory):
    rig = rig_factory(protocol="java_ic")
    array = rig.heap.new_array("double", 64, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 64)
    assert rig.page_manager.stats.page_fetches == 1
    assert rig.page_manager.stats.page_faults == 0
    assert rig.page_manager.stats.mprotect_calls == 0
    assert ctx.wait_seconds > 0


def test_ic_invalidation_clears_presence_cheaply(rig_factory):
    rig = rig_factory(protocol="java_ic")
    array = rig.heap.new_array("double", 64, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 64)
    fetches_before = rig.page_manager.stats.page_fetches
    rig.memory.invalidate_cache(ctx, 0)
    assert rig.page_manager.stats.mprotect_calls == 0
    rig.memory.get_range(ctx, 0, array, 0, 64)
    assert rig.page_manager.stats.page_fetches == fetches_before + 1


# ---------------------------------------------------------------------------
# java_pf
# ---------------------------------------------------------------------------
def test_pf_local_access_is_free_of_detection_cost(rig_factory):
    rig = rig_factory(protocol="java_pf")
    array = rig.heap.new_array("double", 64, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 64)
    assert rig.page_manager.stats.inline_checks == 0
    assert rig.page_manager.stats.page_faults == 0
    # only the base access cost is charged
    expected_base = rig.cost_model.access_base_seconds(64)
    assert ctx.cpu_seconds == pytest.approx(expected_base)


def test_pf_remote_access_faults_once_per_page(rig_factory):
    rig = rig_factory(protocol="java_pf")
    # 1024 doubles = 2 pages (plus header)
    array = rig.heap.new_array("double", 1024, home_node=1, page_aligned=True)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 1024)
    pages = len(rig.page_manager.pages_for_range(array.address, 1024 * array.slot_size))
    assert rig.page_manager.stats.page_faults == pages
    assert rig.page_manager.stats.page_fetches == pages
    assert rig.page_manager.stats.mprotect_calls == pages  # re-opened after fetch
    # further accesses are free of faults
    rig.memory.get_range(ctx, 0, array, 0, 1024)
    assert rig.page_manager.stats.page_faults == pages


def test_pf_monitor_entry_reprotects_cached_pages(rig_factory):
    rig = rig_factory(protocol="java_pf")
    array = rig.heap.new_array("double", 1024, home_node=1, page_aligned=True)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 1024)
    pages = rig.page_manager.stats.page_faults
    mprotect_before = rig.page_manager.stats.mprotect_calls
    rig.memory.invalidate_cache(ctx, 0)
    # one mprotect per replicated remote page
    assert rig.page_manager.stats.mprotect_calls == mprotect_before + pages
    # and the next access faults again
    rig.memory.get_range(ctx, 0, array, 0, 1024)
    assert rig.page_manager.stats.page_faults == 2 * pages


def test_pf_charges_fault_cost_to_cpu_and_fetch_to_wait(rig_factory):
    rig = rig_factory(protocol="java_pf")
    array = rig.heap.new_array("double", 16, home_node=2)
    ctx = rig.ctx(0)
    rig.memory.get(ctx, 0, array, 3)
    assert ctx.cpu_seconds >= rig.cost_model.software.page_fault_seconds
    assert ctx.wait_seconds > 0


# ---------------------------------------------------------------------------
# comparative behaviour (the paper's trade-off)
# ---------------------------------------------------------------------------
def test_check_cost_scales_with_accesses_but_fault_cost_does_not(rig_factory):
    ic = rig_factory(protocol="java_ic")
    pf = rig_factory(protocol="java_pf")
    results = {}
    for name, rig in (("ic", ic), ("pf", pf)):
        array = rig.heap.new_array("double", 400, home_node=1, page_aligned=True)
        ctx = rig.ctx(0)
        rig.memory.get_range(ctx, 0, array, 0, 400)
        rig.memory.account_accesses(ctx, 0, array, 100_000)
        results[name] = ctx.total_seconds
    # with this many accesses the per-access checks dwarf the fault overhead
    assert results["ic"] > 2 * results["pf"]


def test_hoisted_ic_charges_one_check_per_bulk_access(rig_factory):
    rig = rig_factory(protocol="java_ic_hoisted")
    array = rig.heap.new_array("double", 256, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.get_range(ctx, 0, array, 0, 256)
    assert rig.page_manager.stats.inline_checks <= 2
    assert rig.protocol.describe().startswith("java_ic_hoisted")
