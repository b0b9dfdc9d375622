"""Tests for the detection × home-policy protocol composition layer."""

import pytest

from repro.core.detection import (
    DETECTION_STRATEGIES,
    InlineCheckDetection,
    PageFaultDetection,
    detection_by_name,
)
from repro.core.home_policy import (
    HOME_POLICIES,
    FixedHomePolicy,
    LocalityAwareHomePolicy,
    MigratoryHomePolicy,
    home_policy_by_name,
)
from repro.core.protocol import (
    ConsistencyProtocol,
    available_protocols,
    create_protocol,
    protocol_composition,
    reference_detection,
    register_composed,
    register_protocol,
    unregister_protocol,
)
from repro.harness.spec import ExperimentSpec, run_spec


# ---------------------------------------------------------------------------
# registry: compositions are first-class entries
# ---------------------------------------------------------------------------
def test_builtin_family_is_composed():
    assert protocol_composition("java_ic") == {
        "detection": "inline_check",
        "home_policy": "fixed",
    }
    assert protocol_composition("java_pf") == {
        "detection": "page_fault",
        "home_policy": "fixed",
    }
    assert protocol_composition("java_ic_hoisted") == {
        "detection": "hoisted",
        "home_policy": "fixed",
    }
    assert protocol_composition("java_hybrid") == {
        "detection": "hybrid",
        "home_policy": "fixed",
    }
    assert protocol_composition("java_ic_mig") == {
        "detection": "inline_check",
        "home_policy": "migratory",
    }


def test_plain_factory_has_no_composition(rig_factory):
    register_protocol("java_plain_tmp", lambda pm, cm: create_protocol("java_ic", pm, cm))
    try:
        assert protocol_composition("java_plain_tmp") is None
    finally:
        assert unregister_protocol("java_plain_tmp")


def test_layer_name_lookup():
    assert detection_by_name("page_fault") is PageFaultDetection
    assert home_policy_by_name("migratory") is MigratoryHomePolicy
    with pytest.raises(KeyError):
        detection_by_name("telepathy")
    with pytest.raises(KeyError):
        home_policy_by_name("nomadic")
    assert set(DETECTION_STRATEGIES) == {"inline_check", "page_fault", "hoisted", "hybrid"}
    assert set(HOME_POLICIES) == {"fixed", "migratory", "locality_aware"}
    assert home_policy_by_name("locality_aware") is LocalityAwareHomePolicy


def test_register_composed_ten_liner(rig_factory):
    """The paper's promise: a new protocol is one composition line."""
    register_composed("java_pf_mig_tmp", "page_fault", "migratory")
    try:
        rig = rig_factory(protocol="java_pf_mig_tmp")
        array = rig.heap.new_array("double", 16, home_node=1)
        ctx = rig.ctx(0)
        for _ in range(MigratoryHomePolicy.REHOME_THRESHOLD):
            rig.memory.put(ctx, 0, array, 0, 1.0)
        assert rig.page_manager.stats.page_faults > 0  # page_fault detection
        assert rig.page_manager.stats.page_rehomes > 0  # migratory homes
    finally:
        assert unregister_protocol("java_pf_mig_tmp")


def test_unregister_composed_name(rig_factory):
    register_composed("java_tmp_composed", InlineCheckDetection, FixedHomePolicy)
    assert "java_tmp_composed" in available_protocols()
    assert unregister_protocol("java_tmp_composed") is True
    assert unregister_protocol("java_tmp_composed") is False
    assert "java_tmp_composed" not in available_protocols()
    rig = rig_factory()
    with pytest.raises(KeyError):
        create_protocol("java_tmp_composed", rig.page_manager, rig.cost_model)


def test_register_composed_allow_override(rig_factory):
    register_composed("java_tmp_override", InlineCheckDetection, FixedHomePolicy)
    try:
        with pytest.raises(ValueError):
            register_composed("java_tmp_override", InlineCheckDetection, FixedHomePolicy)
        # a module re-import may re-register its own composition when opted in
        factory = register_composed(
            "java_tmp_override", PageFaultDetection, "migratory", allow_override=True
        )
        assert factory.detection_class is PageFaultDetection
        assert protocol_composition("java_tmp_override") == {
            "detection": "page_fault",
            "home_policy": "migratory",
        }
    finally:
        assert unregister_protocol("java_tmp_override")


def test_register_composed_rejects_bad_layers():
    with pytest.raises(KeyError):
        register_composed("java_tmp_bad", "telepathy", "fixed")
    with pytest.raises(TypeError):
        register_composed("java_tmp_bad", object, "fixed")
    with pytest.raises(TypeError):
        register_composed("java_tmp_bad", InlineCheckDetection, object)
    assert "java_tmp_bad" not in available_protocols()


def test_reference_detection_restores_when_body_raises(rig_factory):
    """A protocol built after a raising oracle context gets its plan back."""
    with pytest.raises(RuntimeError):
        with reference_detection():
            rig = rig_factory(protocol="java_ic")
            assert rig.protocol.access_fast_plan() is None
            assert rig.memory._fast_plan is None
            raise RuntimeError("boom")
    rig = rig_factory(protocol="java_ic")
    plan = rig.protocol.detection.access_fast_plan()
    assert plan == "inline_check"
    assert rig.protocol.access_fast_plan() == plan
    assert rig.memory._fast_plan == plan


# ---------------------------------------------------------------------------
# the fast plan is sound only for the stock detect_access
# ---------------------------------------------------------------------------
def _small_cell(app: str, protocol: str) -> ExperimentSpec:
    return ExperimentSpec(
        app=app, cluster="myrinet", protocol=protocol, num_nodes=4, workload="testing"
    )


def test_overriding_detect_access_forfeits_the_fast_plan(rig_factory):
    """Every access of a cell reaches an overriding ``detect_access``."""
    seen = []

    class CountingDetection(InlineCheckDetection):
        name = "counting_tmp"

        def detect_access(self, ctx, node_id, pages, count, write):
            seen.append(count)
            return super().detect_access(ctx, node_id, pages, count, write)

    register_composed("java_counting_tmp", CountingDetection)
    try:
        rig = rig_factory(protocol="java_counting_tmp")
        assert rig.protocol.detection.access_fast_plan() is None
        assert rig.protocol.access_fast_plan() is None
        assert rig.memory._fast_plan is None
        seen.clear()
        report = run_spec(_small_cell("jacobi", "java_counting_tmp")).to_dict()
    finally:
        assert unregister_protocol("java_counting_tmp")
    assert report["accesses"] > 0
    assert sum(seen) == report["accesses"]


@pytest.mark.parametrize("app", ["asp", "jacobi", "syn-streaming"])
def test_a_strategy_that_only_sets_its_counts_keeps_the_fast_plan(rig_factory, app):
    """New counts reach the exact path and every fused path alike."""

    class CheckedFaultDetection(PageFaultDetection):
        """Faults on misses and also pays one check per page touched."""

        name = "checked_fault_tmp"
        uses_page_faults = True
        checks_per_page = 1

    register_composed("java_checked_fault_tmp", CheckedFaultDetection)
    try:
        rig = rig_factory(protocol="java_checked_fault_tmp")
        assert rig.memory._fast_plan == "checked_fault_tmp"
        spec = _small_cell(app, "java_checked_fault_tmp")
        fast = run_spec(spec).to_dict()
        with reference_detection():
            reference = run_spec(spec).to_dict()
    finally:
        assert unregister_protocol("java_checked_fault_tmp")
    assert fast["inline_checks"] > 0 and fast["page_faults"] > 0
    assert fast == reference


# ---------------------------------------------------------------------------
# describe(): the mechanism comes from the detection layer
# ---------------------------------------------------------------------------
def test_describe_comes_from_detection_layer(rig_factory):
    rig = rig_factory(protocol="java_hybrid")
    description = rig.protocol.describe()
    # a bool-derived description would claim plain "page faults"; the hybrid
    # strategy contributes its own wording instead
    assert "hybrid" in description
    assert rig.protocol.uses_page_faults  # the flag alone would mislead

    mig = rig_factory(protocol="java_ic_mig").protocol.describe()
    assert "in-line checks" in mig and "migratory homes" in mig

    assert rig_factory(protocol="java_ic").protocol.describe() == (
        "java_ic: Java consistency with access detection via in-line checks"
    )
    assert rig_factory(protocol="java_pf").protocol.describe() == (
        "java_pf: Java consistency with access detection via page faults"
    )


def test_describe_legacy_fallback_uses_flag(rig_factory):
    class LegacyProtocol(ConsistencyProtocol):
        name = "legacy_tmp"
        uses_page_faults = True

        def detect_access(self, ctx, node_id, pages, count, write):
            return 0

        def on_monitor_enter(self, ctx, node_id):
            pass

    rig = rig_factory()
    legacy = LegacyProtocol(rig.page_manager, rig.cost_model)
    assert "page faults" in legacy.describe()


def test_page_arrival_hook_hears_every_fetched_page_only_when_overridden(rig_factory):
    class ListeningProtocol(ConsistencyProtocol):
        name = "listening_tmp"

        def __init__(self, page_manager, cost_model):
            super().__init__(page_manager, cost_model)
            self.received = []

        def detect_access(self, ctx, node_id, pages, count, write):
            missing = [p for p in pages if not self.page_manager.is_present(node_id, p)]
            self._fetch(ctx, node_id, missing)
            return len(missing)

        def on_monitor_enter(self, ctx, node_id):
            pass

        def on_page_received(self, ctx, node_id, page):
            self.received.append((node_id, page))

    rig = rig_factory()
    listening = ListeningProtocol(rig.page_manager, rig.cost_model)
    array = rig.heap.new_array("double", 1024, home_node=1, page_aligned=True)
    pages = rig.page_manager.pages_for_range(array.address, array.size_bytes)
    assert len(pages) > 1
    assert listening.detect_access(rig.ctx(0), 0, pages, 1, False) == len(pages)
    assert listening.received == [(0, page) for page in pages]
    # the stock protocols keep the no-op hook, so their fetches skip it
    assert listening._receives_pages and not rig.protocol._receives_pages


# ---------------------------------------------------------------------------
# hybrid detection: per-page promotion by observed access density
# ---------------------------------------------------------------------------
def test_hybrid_promotes_dense_pages_and_stops_checking(rig_factory):
    rig = rig_factory(protocol="java_hybrid")
    detection = rig.protocol.detection
    detection.DENSITY_THRESHOLD = 64  # instance override for a fast test
    array = rig.heap.new_array("double", 64, home_node=0, page_aligned=True)
    ctx = rig.ctx(0)

    rig.memory.get_range(ctx, 0, array, 0, 64)  # 64 accesses -> promoted
    checks_after_first = rig.page_manager.stats.inline_checks
    assert checks_after_first == 64

    pages = rig.page_manager.pages_for_range(array.address, 64 * array.slot_size)
    assert set(pages) <= detection.promoted_pages(0)

    rig.memory.get_range(ctx, 0, array, 0, 64)  # promoted: no checks anymore
    assert rig.page_manager.stats.inline_checks == checks_after_first


def test_hybrid_faults_on_promoted_misses_and_checks_sparse_ones(rig_factory):
    rig = rig_factory(protocol="java_hybrid")
    detection = rig.protocol.detection
    detection.DENSITY_THRESHOLD = 64
    dense = rig.heap.new_array("double", 64, home_node=1, page_aligned=True)
    sparse = rig.heap.new_array("double", 64, home_node=1, page_aligned=True)
    ctx = rig.ctx(0)

    rig.memory.get_range(ctx, 0, dense, 0, 64)  # miss under checks, then promote
    assert rig.page_manager.stats.page_faults == 0
    first_fetches = rig.page_manager.stats.page_fetches
    assert first_fetches > 0

    rig.memory.invalidate_cache(ctx, 0)  # promoted page is re-protected
    mprotects = rig.page_manager.stats.mprotect_calls
    assert mprotects > 0

    rig.memory.get_range(ctx, 0, dense, 0, 64)  # promoted miss -> fault path
    assert rig.page_manager.stats.page_faults > 0
    assert rig.page_manager.stats.mprotect_calls > mprotects  # re-opened

    faults = rig.page_manager.stats.page_faults
    rig.memory.get(ctx, 0, sparse, 0)  # sparse page: checked miss, no fault
    assert rig.page_manager.stats.page_faults == faults


def test_hybrid_invalidation_drops_sparse_pages_without_mprotect(rig_factory):
    rig = rig_factory(protocol="java_hybrid")
    array = rig.heap.new_array("double", 16, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.get(ctx, 0, array, 0)  # fetched under checks, unpromoted
    before = rig.page_manager.stats.mprotect_calls
    rig.memory.invalidate_cache(ctx, 0)
    assert rig.page_manager.stats.mprotect_calls == before


# ---------------------------------------------------------------------------
# migratory homes: re-homing after consecutive exclusive writes
# ---------------------------------------------------------------------------
def _data_page(rig, array) -> int:
    pages = rig.page_manager.pages_for_range(array.address, array.size_bytes)
    assert len(pages) == 1
    return pages[0]


def test_migratory_rehomes_after_exclusive_write_streak(rig_factory):
    rig = rig_factory(protocol="java_ic_mig")
    array = rig.heap.new_array("double", 8, home_node=1)
    page = _data_page(rig, array)
    ctx = rig.ctx(0)

    threshold = rig.protocol.home_policy.threshold
    for i in range(threshold - 1):
        rig.memory.put(ctx, 0, array, 0, float(i))
        assert rig.page_manager.home_node(page) == 1  # streak not complete
    wait_before = ctx.wait_seconds
    rig.memory.put(ctx, 0, array, 0, 9.0)
    assert rig.page_manager.home_node(page) == 0  # re-homed to the writer
    assert rig.page_manager.stats.page_rehomes == 1
    assert ctx.wait_seconds > wait_before  # the transfer was charged

    # the new home's accesses are local now and survive invalidation
    rig.memory.update_main_memory(ctx, 0)
    rig.memory.invalidate_cache(ctx, 0)
    fetches = rig.page_manager.stats.page_fetches
    rig.memory.get(ctx, 0, array, 0)
    assert rig.page_manager.stats.page_fetches == fetches


def test_migratory_streak_is_reset_by_other_writers(rig_factory):
    rig = rig_factory(protocol="java_ic_mig")
    array = rig.heap.new_array("double", 8, home_node=1)
    page = _data_page(rig, array)
    threshold = rig.protocol.home_policy.threshold

    for round_ in range(3):
        for _ in range(threshold - 1):
            rig.memory.put(rig.ctx(0), 0, array, 0, 1.0)
        # another node (here: the home) writes -> node 0's streak dies
        rig.memory.put(rig.ctx(1), 1, array, 0, 2.0)
    assert rig.page_manager.home_node(page) == 1
    assert rig.page_manager.stats.page_rehomes == 0

    # reads never contribute to the streak
    for _ in range(threshold * 2):
        rig.memory.get(rig.ctx(2), 2, array, 0)
    assert rig.page_manager.home_node(page) == 1


def test_migratory_alternating_remote_writers_never_rehome(rig_factory):
    rig = rig_factory(protocol="java_ic_mig")
    array = rig.heap.new_array("double", 8, home_node=1)
    page = _data_page(rig, array)
    for _ in range(10):
        rig.memory.put(rig.ctx(0), 0, array, 0, 1.0)
        rig.memory.put(rig.ctx(2), 2, array, 0, 2.0)
    assert rig.page_manager.home_node(page) == 1
    assert rig.page_manager.stats.page_rehomes == 0


def test_migratory_threshold_validation(rig_factory):
    rig = rig_factory()
    protocol = create_protocol("java_ic", rig.page_manager, rig.cost_model)
    with pytest.raises(ValueError):
        MigratoryHomePolicy(protocol, threshold=0)
    policy = MigratoryHomePolicy(protocol, threshold=5)
    assert policy.threshold == 5
    assert "5 exclusive writes" in policy.mechanism


# ---------------------------------------------------------------------------
# the page-manager re-homing hook
# ---------------------------------------------------------------------------
def test_rehome_page_moves_directory_entry(rig_factory):
    rig = rig_factory()
    array = rig.heap.new_array("double", 8, home_node=2)
    page = _data_page(rig, array)

    assert rig.page_manager.rehome_page(page, 2) == 2  # no-op move
    assert rig.page_manager.stats.page_rehomes == 0

    old = rig.page_manager.rehome_page(page, 0)
    assert old == 2
    assert rig.page_manager.home_node(page) == 0
    assert rig.page_manager.page_info(page).home_node == 0
    assert rig.page_manager.is_present(0, page)
    # the previous home keeps its copy as an ordinary replica
    assert rig.page_manager.is_present(2, page)
    assert rig.page_manager.stats.page_rehomes == 1

    with pytest.raises(ValueError):
        rig.page_manager.rehome_page(page, 99)
    with pytest.raises(KeyError):
        rig.page_manager.rehome_page(123456, 0)


def test_invalidate_remote_present_pages_splits_by_mode(rig_factory):
    rig = rig_factory(protocol="java_ic")
    a = rig.heap.new_array("double", 8, home_node=1, page_aligned=True)
    b = rig.heap.new_array("double", 8, home_node=1, page_aligned=True)
    ctx = rig.ctx(0)
    rig.memory.get(ctx, 0, a, 0)
    rig.memory.get(ctx, 0, b, 0)
    page_a = _data_page(rig, a)
    page_b = _data_page(rig, b)

    calls, dropped = rig.page_manager.invalidate_remote_present_pages(
        0, protect_pages={page_a}
    )
    assert (calls, dropped) == (1, 1)
    assert not rig.page_manager.is_present(0, page_a)
    assert not rig.page_manager.is_present(0, page_b)
    from repro.dsm.page import PageProtection

    assert rig.page_manager.protection(0, page_a) is PageProtection.NONE


# ---------------------------------------------------------------------------
# locality-aware homes: re-homing only across topology islands
# ---------------------------------------------------------------------------
def _island_rig(rig_factory, protocol="java_ic_loc", num_nodes=4):
    """A rig over two 2-node islands joined by a slow backbone."""
    from repro.cluster.topology import MultiClusterTopology

    def factory(n, network):
        return MultiClusterTopology(n, network, island_size=2)

    return rig_factory(protocol=protocol, num_nodes=num_nodes, topology_factory=factory)


def test_java_ic_loc_is_registered_as_a_composition():
    assert "java_ic_loc" in available_protocols()
    assert protocol_composition("java_ic_loc") == {
        "detection": "inline_check",
        "home_policy": "locality_aware",
    }


def test_locality_aware_is_inert_on_single_switch_topologies(rig_factory):
    rig = rig_factory(protocol="java_ic_loc")
    array = rig.heap.new_array("double", 8, home_node=1)
    ctx = rig.ctx(0)
    for i in range(LocalityAwareHomePolicy.REHOME_THRESHOLD * 3):
        rig.memory.put(ctx, 0, array, 0, float(i))
    # one island: placement is already as local as the topology allows
    assert rig.page_manager.stats.page_rehomes == 0


def test_locality_aware_pulls_pages_across_islands(rig_factory):
    rig = _island_rig(rig_factory)
    # home node 2 lives in island 1; the writer (node 0) in island 0
    array = rig.heap.new_array("double", 8, home_node=2)
    page = _data_page(rig, array)
    ctx = rig.ctx(0)
    threshold = rig.protocol.home_policy.threshold
    for i in range(threshold - 1):
        rig.memory.put(ctx, 0, array, 0, float(i))
        assert rig.page_manager.home_node(page) == 2
    wait_before = ctx.wait_seconds
    rig.memory.put(ctx, 0, array, 0, 9.0)
    assert rig.page_manager.home_node(page) == 0  # pulled into island 0
    assert rig.page_manager.stats.page_rehomes == 1
    assert ctx.wait_seconds > wait_before  # the backbone transfer was charged


def test_locality_aware_ignores_writes_within_the_home_island(rig_factory):
    rig = _island_rig(rig_factory)
    # home node 3 and writer node 2 share island 1
    array = rig.heap.new_array("double", 8, home_node=3)
    page = _data_page(rig, array)
    ctx = rig.ctx(2)
    for i in range(LocalityAwareHomePolicy.REHOME_THRESHOLD * 3):
        rig.memory.put(ctx, 2, array, 0, float(i))
    assert rig.page_manager.home_node(page) == 3  # never re-homed
    assert rig.page_manager.stats.page_rehomes == 0


def test_locality_aware_streak_is_reset_by_other_islands_writers(rig_factory):
    rig = _island_rig(rig_factory)
    array = rig.heap.new_array("double", 8, home_node=2)
    page = _data_page(rig, array)
    threshold = rig.protocol.home_policy.threshold
    assert threshold >= 2
    for _ in range(5):
        rig.memory.put(rig.ctx(0), 0, array, 0, 1.0)  # island-0 writer...
        rig.memory.put(rig.ctx(1), 1, array, 0, 2.0)  # ...interleaved with its neighbour
    # no single node ever completed an exclusive streak
    assert rig.page_manager.home_node(page) == 2
    assert rig.page_manager.stats.page_rehomes == 0


def test_locality_aware_charges_per_pair_backbone_costs(rig_factory):
    """The re-home transfer is priced through the topology's pair costs."""
    from repro.cluster.topology import MultiClusterTopology

    rig = _island_rig(rig_factory)
    topology = rig.page_manager.topology
    assert isinstance(topology, MultiClusterTopology)
    page_size = rig.page_manager.page_size
    cross = topology.one_way_time(2, 0, page_size)
    within = topology.one_way_time(1, 0, page_size)
    assert cross > within  # the backbone link is what the policy pays

    array = rig.heap.new_array("double", 8, home_node=2)
    ctx = rig.ctx(0)
    threshold = rig.protocol.home_policy.threshold
    for i in range(threshold - 1):
        rig.memory.put(ctx, 0, array, 0, float(i))
    wait_before = ctx.wait_seconds
    rig.memory.put(ctx, 0, array, 0, 9.0)
    charged = ctx.wait_seconds - wait_before
    expected = rig.cost_model.software.rpc_service_seconds + cross
    assert charged == pytest.approx(expected)


def test_locality_aware_opts_out_of_write_observation_on_one_island(rig_factory):
    """On single-island topologies the policy adds zero hot-path code."""
    flat = rig_factory(protocol="java_ic_loc")
    assert flat.protocol.home_policy.observes_writes is False
    # the composed protocol then binds the bare detection fast path
    assert flat.protocol.detect_access == flat.protocol.detection.detect_access

    split = _island_rig(rig_factory)
    assert split.protocol.home_policy.observes_writes is True
    assert split.protocol.detect_access != split.protocol.detection.detect_access
