"""Tests for the memory subsystem (Table 2 primitives and bulk variants)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.topology import CrossbarTopology, MultiClusterTopology
from repro.core.context import AccessContext, RecordingContext
from repro.core.detection import HybridDetection
from repro.core.memory import MemorySubsystem
from repro.hyperion.objects import JavaArray


def test_get_put_on_home_node_touch_main_memory(rig_factory, point_class):
    rig = rig_factory()
    obj = rig.heap.new_object(point_class, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.put(ctx, 0, obj, 0, 3.5)
    assert obj.main_read(0) == 3.5
    assert rig.memory.get(ctx, 0, obj, 0) == 3.5
    # no cache entry is created for locally homed objects
    assert len(rig.memory.caches[0]) == 0


def test_remote_put_is_invisible_until_update_main_memory(rig_factory, point_class):
    rig = rig_factory()
    obj = rig.heap.new_object(point_class, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.put(ctx, 0, obj, 1, 42)
    # main memory (home copy) still holds the old value: Java consistency
    # only requires the update to be visible after the monitor exit
    assert obj.main_read(1) == 0
    flushed = rig.memory.update_main_memory(ctx, 0)
    assert flushed == obj.slot_size
    assert obj.main_read(1) == 42
    assert rig.memory.run_stats.dsm.update_messages == 1
    assert rig.memory.run_stats.dsm.update_bytes == obj.slot_size


def test_remote_get_can_be_stale_until_invalidate(rig_factory, point_class):
    rig = rig_factory()
    obj = rig.heap.new_object(point_class, home_node=1)
    reader = rig.ctx(0)
    # reader caches the object while the field is still 0
    assert rig.memory.get(reader, 0, obj, 0) == 0
    # the home node updates the reference copy directly
    home_ctx = rig.ctx(1)
    rig.memory.put(home_ctx, 1, obj, 0, 7)
    # reader still sees its cached copy (allowed by the JMM)...
    assert rig.memory.get(reader, 0, obj, 0) == 0
    # ...until it passes an acquire point
    rig.memory.invalidate_cache(reader, 0)
    assert rig.memory.get(reader, 0, obj, 0) == 7


def test_load_into_cache_prefetches_whole_page(rig_factory):
    rig = rig_factory(protocol="java_pf")
    # two small arrays that share a page on node 1
    first = rig.heap.new_array("double", 8, home_node=1)
    second = rig.heap.new_array("double", 8, home_node=1)
    ctx = rig.ctx(0)
    rig.memory.load_into_cache(ctx, 0, first)
    fetches = rig.page_manager.stats.page_fetches
    # the second object lives on the already-fetched page: no new transfer
    rig.memory.get(ctx, 0, second, 0)
    assert rig.page_manager.stats.page_fetches == fetches


def test_get_range_put_range_roundtrip_remote(rig_factory):
    rig = rig_factory()
    array = rig.heap.new_array("int", 32, home_node=2)
    writer = rig.ctx(0)
    rig.memory.put_range(writer, 0, array, 0, 32, np.arange(32, dtype=np.int32))
    rig.memory.update_main_memory(writer, 0)
    reader = rig.ctx(1)
    values = rig.memory.get_range(reader, 1, array, 0, 32)
    assert np.array_equal(values, np.arange(32))


def test_range_validation(rig_factory):
    rig = rig_factory()
    array = rig.heap.new_array("double", 8, home_node=0)
    ctx = rig.ctx(0)
    with pytest.raises(IndexError):
        rig.memory.get_range(ctx, 0, array, 0, 9)
    with pytest.raises(IndexError):
        rig.memory.get_range(ctx, 0, array, 5, 5)
    with pytest.raises(ValueError):
        rig.memory.put_range(ctx, 0, array, 0, 4, [1.0, 2.0])


def test_account_accesses_charges_without_moving_data(rig_factory):
    rig = rig_factory(protocol="java_ic")
    array = rig.heap.new_array("double", 16, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.account_accesses(ctx, 0, array, 1000)
    assert rig.page_manager.stats.inline_checks == 1000
    assert rig.page_manager.stats.accesses == 1000
    # zero/negative counts are ignored
    rig.memory.account_accesses(ctx, 0, array, 0)
    assert rig.page_manager.stats.accesses == 1000


def test_update_message_not_sent_for_local_dirty_data(rig_factory, point_class):
    rig = rig_factory()
    ctx = rig.ctx(0)
    obj = rig.heap.new_object(point_class, home_node=0)
    rig.memory.put(ctx, 0, obj, 0, 1.0)
    rig.memory.update_main_memory(ctx, 0)
    assert rig.memory.run_stats.dsm.update_messages == 0


def test_stats_remote_access_counter(rig_factory, point_class):
    rig = rig_factory()
    remote = rig.heap.new_object(point_class, home_node=1)
    local = rig.heap.new_object(point_class, home_node=0)
    ctx = rig.ctx(0)
    rig.memory.get(ctx, 0, local, 0)
    rig.memory.get(ctx, 0, remote, 0)
    assert rig.page_manager.stats.accesses == 2
    assert rig.page_manager.stats.remote_accesses == 1


class PendingContext(AccessContext):
    """Keeps pending CPU/wait time the way ``JavaThreadContext`` does."""

    def __init__(self, node_id: int = 0):
        self.node_id = node_id
        self._pending_cpu = 0.0
        self._pending_wait = 0.0

    def charge_cpu(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._pending_cpu += seconds

    def charge_wait(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._pending_wait += seconds


#: CPU seconds each block-updater row charges after its accesses
ROW_SECONDS = 3.3e-7


#: one script segment over the drive's ``[skewed, remote, wide]``: a tuple
#: run over the slot straddling two pages, a contiguous run on the unaligned
#: array, duplicate slots (the last put wins), a contiguous run across two
#: page boundaries of ``wide`` and computes between the accesses
SEGMENT = (
    ("get_run", 0, (509, 510, 511, 512, 513)),
    ("compute", 40.0),
    ("put_run", 0, range(510, 513), (1.0, 2.0, 3.0)),
    ("get", 1, 5),
    ("get_run", 1, (0, 1, 2, 60, 61, 1)),
    ("put", 1, 7, 2.5),
    ("put_run", 2, (0, 1, 1000, 1001, 1000), (4.0, 5.0, 6.0, 7.0, 8.0)),
    ("get_run", 2, range(500, 1030)),
    ("compute", 40.0),
    ("put", 2, 1400, 1.5),
)
#: CPU seconds of each compute step of the segments replayed here
COMPUTE_SECONDS = {40.0: 2.0e-7}


def _replay(memory, ctx, node, entities, steps, extra, compute_seconds=COMPUTE_SECONDS):
    """``replay_segment`` of *steps* where it runs, else its per-op spec.

    The spec needs no fast plan, and charges a context that keeps no
    ``_pending_cpu`` (a ``RecordingContext``) through ``charge_cpu``.
    """
    if memory.replays_segments() and hasattr(ctx, "_pending_cpu"):
        memory.replay_segment(ctx, node, entities, steps, extra, compute_seconds)
        return
    for step in steps:
        if step[0] == "compute":
            ctx.charge_cpu(compute_seconds[step[1]])
            continue
        obj = entities[step[1]]
        write = step[0] in ("put", "put_run")
        if step[0] in ("get", "put"):
            slots, values = (step[2],), step[3:]
        else:
            slots, values = step[2], (step[3] if write else ())
        for k, slot in enumerate(slots):
            if write:
                memory.put(ctx, node, obj, slot, values[k])
            else:
                memory.get(ctx, node, obj, slot)
            if extra:
                memory.account_accesses(ctx, node, obj, extra, lo=slot, hi=slot + 1, write=write)


def _drive_primitives(rig, ctx) -> list:
    """One fixed sequence of every access primitive, from node 0.

    Covers a local span, remote spans that are absent (first touch, and
    again after the acquire ending each phase) and resident, a three-page
    span with only its first two pages resident, and a double array
    placed 4 bytes off alignment so slot 511 straddles a page boundary.
    The block updaters run over matrices homed on node 0 (one-page rows,
    three-page rows, unaligned rows spanning different page counts), a
    matrix with one row homed on node 1, rows out of matrix order and
    plain arrays, with extra
    objects absent, partly or wholly resident, ``extra=0``, rows written
    and not, and a skipped row.  The halo updaters run over a mesh with
    one row homed on node 1 (fetched mid-block, then resident), in both
    mesh parities, one-row blocks, two-page rows, unaligned rows over a
    narrower slot range, unaligned rows whose north and south rows span
    different page counts, ``extra=0``, plain arrays and a destination in
    the source mesh, and one prepared
    updater runs after ``disable_access_fast_path()``.  Each phase also
    replays :data:`SEGMENT` with and without extra accounting.  Returns
    everything read back, in order.
    """
    memory, heap, node = rig.memory, rig.heap, 0
    local = heap.new_array("double", 64, home_node=0)
    remote = heap.new_array("double", 64, home_node=1)
    wide = heap.new_array("double", 1500, home_node=2, page_aligned=True)
    base = rig.isoaddr.allocate_pages(1, 2).address
    skewed = JavaArray("double", 600, base + 4, 1)
    rig.page_manager.register_range(base, 2 * rig.isoaddr.page_size)
    rows = heap.new_matrix("double", 8, 64, [0] * 8)
    tall = heap.new_matrix("double", 2, 1500, [0, 0])
    loose = heap.new_matrix("double", 3, 700, [0, 0, 0], page_aligned=False)
    mixed = heap.new_matrix("double", 3, 64, [0, 1, 0])
    counts = heap.new_matrix("int", 3, 64, [0, 0, 0])
    for matrix in (rows, tall, loose, mixed, counts):
        matrix[0].matrix[:] = np.arange(float(len(matrix)))[:, None]

    def plus_one(block):
        return block + 1.0, np.ones(len(block), dtype=bool)

    def keep(block):
        return block, np.zeros(len(block), dtype=bool)

    def bump_even(block):
        # row-wise: a row is written only while its first value is even
        return block + 1.0, block[:, 0] % 2 == 0

    def scale_ints(block):
        # float results written into an int matrix are cast like put_range's
        return block * 1.5 + 7.0, np.ones(len(block), dtype=bool)

    def updater(block, lo, hi, extra):
        return memory.make_range_updater(
            ctx, node, block, lo, hi, extra=extra, row_seconds=ROW_SECONDS
        )

    # prepared once; the first is called at the start of each phase while
    # its extra object (skewed, two remote pages) is absent, then again
    # once it is resident
    updaters = [
        updater(rows, 8, 40, 5),
        updater(rows[2:6], 0, 64, 0),
        updater(tall, 0, 1500, 3),
        updater(loose, 100, 700, 2),
        updater(mixed, 0, 64, 4),
        updater([rows[5], rows[3], rows[4]], 0, 64, 2),  # not consecutive
        updater([local], 0, 64, 5),
        updater([remote], 16, 32, 7),
        updater([wide], 0, 1500, 5),
    ]
    # the halo form: meshes whose row 3 is homed on node 1
    homes = [0, 0, 0, 1, 0, 0, 0]
    grid = heap.new_matrix("double", 7, 66, homes)
    after = heap.new_matrix("double", 7, 66, homes)
    two_page = heap.new_matrix("double", 4, 600, [0] * 4)
    two_page_after = heap.new_matrix("double", 4, 600, [0] * 4)
    ragged = heap.new_matrix("double", 5, 700, [0] * 5, page_aligned=False)
    ragged_after = heap.new_matrix("double", 5, 700, [0] * 5, page_aligned=False)
    # rows 7168 bytes apart: the 1.5-page spans of row j and of row j + 2
    # start half a page apart modulo the page, so (barring a span that
    # starts on a half-page boundary) one covers two pages and the other
    # three, and north and south span different page counts
    uneven = heap.new_matrix("double", 6, 894, [0] * 6, page_aligned=False)
    uneven_after = heap.new_matrix("double", 6, 894, [0] * 6, page_aligned=False)
    spans = [len(memory._pages_of(row, 1, 769)) for row in uneven]
    assert any(spans[j] != spans[j + 2] for j in range(4))
    meshes = (
        grid, after, two_page, two_page_after, ragged, ragged_after, uneven, uneven_after
    )
    for matrix in meshes:
        matrix[0].matrix[:] = np.arange(float(len(matrix)))[:, None] + np.arange(
            float(matrix[0].num_slots)
        ) / 7.0

    def stencil(centre, north, south):
        return 0.25 * (north + south + centre[..., :-2] + centre[..., 2:]) + 1.0

    def halo(source, target, extra, lo=1, hi=None):
        hi = source[0].num_slots - 1 if hi is None else hi
        return memory.make_range_updater(
            ctx, node, source, lo, hi, extra=extra, row_seconds=ROW_SECONDS, into=target
        )

    halos = [
        halo(grid, after[1:6], 3),  # block rows, row 3's three spec rows, block row
        halo(after, grid[1:6], 0),  # the other parity: row 3 remote as a target
        halo(grid[:3], after[1:2], 2),  # a one-row block
        halo(grid[2:5], after[3:4], 2),  # a one-row block around the remote row
        halo(two_page, two_page_after[1:3], 4),
        halo(ragged, ragged_after[1:4], 2, lo=5, hi=650),
        halo([local, remote, local], [wide], 1, hi=63),  # plain arrays
        # written into its own source mesh, each row reads the one before
        # it already updated: the per-row spec
        halo(two_page, two_page[1:3], 1),
    ]
    # the uneven mesh charges a context of its own, whose pending time
    # starts at zero: while the sum is small it crosses binades within a
    # block, where the order of the north and south charges shows in its bits
    uneven_ctx = type(ctx)(node)
    uneven_halo = memory.make_range_updater(
        uneven_ctx, node, uneven, 1, 769, extra=2, row_seconds=ROW_SECONDS,
        into=uneven_after[1:5],
    )
    out = []
    for _phase in range(2):
        out.append(memory.get(ctx, node, wide, 0))
        memory.put(ctx, node, skewed, 3, 0.5)
        updaters[0](plus_one, extra_obj=skewed)
        updaters[0](bump_even, extra_obj=skewed, skip=2)
        # page 0 of wide resident, then pages 0-1, page 2 still absent
        out.append(memory.get_range(ctx, node, wide, 0, 600).tolist())
        memory.account_accesses(ctx, node, wide, 10, lo=0, hi=1500)
        memory.put(ctx, node, local, 3, 1.5)
        out.append(memory.get(ctx, node, local, 3))
        out.append(memory.get(ctx, node, remote, 5))
        memory.put(ctx, node, remote, 5, 2.5)
        out.append(memory.get(ctx, node, remote, 5))
        out.append(memory.get_range(ctx, node, remote, 0, 64).tolist())
        memory.put_range(ctx, node, remote, 0, 8, np.arange(8.0))
        out.append(memory.get_range(ctx, node, local, 0, 64).tolist())
        memory.put_range(ctx, node, local, 10, 20, np.full(10, 3.0))
        out.append(memory.get_range(ctx, node, wide, 100, 1400).tolist())
        memory.put_range(ctx, node, wide, 500, 600, np.arange(100.0))
        memory.account_accesses(ctx, node, remote, 3, lo=2, hi=3, write=True)
        memory.account_accesses(ctx, node, local, 4)
        ints = updater(counts, 0, 64, 1)
        ints(scale_ints, extra_obj=local)
        ints(scale_ints, skip=2)
        for update in updaters:
            update(plus_one, extra_obj=remote)
            update(bump_even, extra_obj=wide, skip=1)
            update(keep, extra_obj=local)
            update(bump_even, skip=0)
            update(plus_one, extra_obj=skewed)
        # row 3 is absent on the first call of each phase, then resident
        for update in halos + halos + [uneven_halo, uneven_halo]:
            update(stencil)
        out.append(memory.get(ctx, node, skewed, 511))
        memory.put(ctx, node, skewed, 511, 9.0)
        out.append(memory.get(ctx, node, skewed, 511))
        _replay(memory, ctx, node, [skewed, remote, wide], SEGMENT, extra=2)
        _replay(memory, ctx, node, [skewed, remote, wide], SEGMENT, extra=0)
        # release then acquire: remote pages go absent again under java_ic,
        # protected again under java_pf
        memory.update_main_memory(ctx, node)
        memory.invalidate_cache(ctx, node)
    late = halo(grid, after[1:6], 1)
    memory.disable_access_fast_path()
    late(stencil)
    out.append(memory.get_range(ctx, node, after[3], 0, 66).tolist())
    for obj in (local, remote, wide, skewed, *rows, *tall, *loose, *mixed, *counts):
        out.append(obj.main_read_range(0, obj.num_slots).tolist())
    for matrix in meshes:
        out.append(matrix[0].matrix.tolist())
    out.append(sorted(vars(uneven_ctx).items()))
    return out


def _hybrid_state(rig):
    detection = rig.protocol.detection
    return detection._density, detection._promoted


#: the topology each oracle protocol runs on: the locality-aware policy
#: observes writes only across islands, and on 3 nodes the default two-island
#: multicluster puts node 2 on an island of its own
_ORACLE_TOPOLOGY = {"java_ic_loc": MultiClusterTopology}


@pytest.mark.parametrize(
    "protocol",
    ["java_ic", "java_pf", "java_ic_hoisted", "java_hybrid", "java_ic_mig", "java_ic_loc"],
)
def test_fast_plan_primitives_match_the_detect_path(rig_factory, protocol):
    """Every fused primitive charges and counts exactly like ``_detect``.

    Each run pairs a rig with its fast plan active against one built the
    same way and then routed through the exact polymorphic path.  The
    charge log of a ``RecordingContext`` exercises the ``charge_cpu``
    fallback; the pending-CPU float of a ``PendingContext`` exercises the
    inline additions, and must be bit-equal.  The hybrid's per-page
    density and promotions must match as well.
    """
    topology = _ORACLE_TOPOLOGY.get(protocol, CrossbarTopology)
    results = {}
    for fast in (True, False):
        for context_type in (RecordingContext, PendingContext):
            rig = rig_factory(protocol=protocol, topology_factory=topology)
            if fast:
                assert rig.memory._fast_plan is not None
            else:
                rig.memory.disable_access_fast_path()
            ctx = context_type(0)
            data = _drive_primitives(rig, ctx)
            charges = (
                ctx.charges
                if context_type is RecordingContext
                else (ctx._pending_cpu.hex(), ctx._pending_wait.hex())
            )
            stats = dataclasses.asdict(rig.page_manager.stats)
            hybrid = _hybrid_state(rig) if protocol == "java_hybrid" else None
            results[fast, context_type] = (data, charges, stats, hybrid)
    for context_type in (RecordingContext, PendingContext):
        fast_data, fast_charges, fast_stats, fast_hybrid = results[True, context_type]
        ref_data, ref_charges, ref_stats, ref_hybrid = results[False, context_type]
        assert fast_stats == ref_stats
        assert fast_data == ref_data
        assert fast_charges == ref_charges
        assert fast_hybrid == ref_hybrid
    # the scenario must reach every path: fetches, checks, remote accesses,
    # and the state the stateful compositions carry
    _data, _charges, stats, hybrid = results[True, PendingContext]
    assert stats["page_fetches"] > 0 and stats["remote_accesses"] > 0
    if protocol != "java_pf":
        assert stats["inline_checks"] > 0
    if protocol == "java_hybrid":
        assert sum(len(pages) for pages in hybrid[1]) >= 4
    if protocol in ("java_ic_mig", "java_ic_loc"):
        assert stats["page_rehomes"] >= 3
    else:
        assert stats["page_rehomes"] == 0


def _run_pair(rig_factory, protocol, drive):
    """*drive* on a fast rig and on a ``disable_access_fast_path`` twin."""
    out = []
    for fast in (True, False):
        rig = rig_factory(protocol=protocol)
        if not fast:
            rig.memory.disable_access_fast_path()
        ctx = PendingContext(0)
        data = drive(rig, ctx, fast)
        out.append(
            (
                data,
                ctx._pending_cpu.hex(),
                ctx._pending_wait.hex(),
                dataclasses.asdict(rig.page_manager.stats),
            )
        )
    return out


def test_mixed_home_span_takes_the_exact_path(rig_factory):
    """A re-home that splits one object's homes must not fool the span check.

    Three exclusive writes from node 0 re-home the first page of a
    three-page array homed on node 1, so the span's first page is local to
    node 0 while the other two are remote and absent.  Classifying the span
    by its first page would skip their fetch and undercount remote
    accesses.
    """

    def drive(rig, ctx, fast):
        memory = rig.memory
        wide = rig.heap.new_array("double", 1500, home_node=1, page_aligned=True)
        for value in (1.0, 2.0, 3.0):
            memory.put(ctx, 0, wide, 0, value)
        first = wide.address // rig.isoaddr.page_size
        assert rig.page_manager._home_by_page[first] == 0
        values = memory.get_range(ctx, 0, wide, 0, 1500).tolist()
        memory.account_accesses(ctx, 0, wide, 5)
        memory.account_accesses(ctx, 0, wide, 2, write=True)
        return values

    fast, ref = _run_pair(rig_factory, "java_ic_mig", drive)
    assert fast == ref
    stats = fast[3]
    assert stats["page_rehomes"] == 1
    assert stats["page_fetches"] == 3  # the first page, then the other two


def test_migratory_segment_rehomes_mid_segment(rig_factory):
    """A segment of puts whose page is re-homed part-way equals per-op puts."""
    steps = (("put_run", 0, range(8), tuple(float(v) for v in range(8))), ("get", 0, 3))

    def drive(rig, ctx, fast):
        memory = rig.memory
        obj = rig.heap.new_array("double", 64, home_node=1)
        _replay(memory, ctx, 0, [obj], steps, extra=1)
        memory.update_main_memory(ctx, 0)
        return obj.main_read_range(0, 64).tolist()

    fast, ref = _run_pair(rig_factory, "java_ic_mig", drive)
    assert fast == ref
    stats = fast[3]
    assert stats["page_rehomes"] == 1
    # the re-home landed mid-run: only the accesses before it were remote
    assert 0 < stats["remote_accesses"] < stats["accesses"]


def _spied_memory(rig, monkeypatch):
    """A memory subsystem over *rig* whose detect and spec entry points log.

    The protocol's ``detect_access`` is wrapped before the subsystem is
    built, so the log sees every call the subsystem makes to it; ``get``,
    ``put`` and ``account_accesses`` are wrapped on the instance, which is
    where the subsystem's own calls look them up.
    """
    calls = []
    detect = rig.protocol.detect_access

    def spy_detect(ctx, node, pages, count, write):
        calls.append(("detect_access", tuple(pages), count))
        return detect(ctx, node, pages, count, write)

    monkeypatch.setattr(rig.protocol, "detect_access", spy_detect)
    memory = MemorySubsystem(rig.page_manager, rig.cost_model, rig.protocol, rig.num_nodes)
    for name in ("get", "put", "account_accesses"):
        method = getattr(memory, name)

        def spy(*args, _name=name, _method=method, **kwargs):
            calls.append((_name,))
            return _method(*args, **kwargs)

        monkeypatch.setattr(memory, name, spy)
    return memory, calls


@pytest.mark.parametrize("protocol", ["java_ic", "java_pf", "java_hybrid"])
def test_segment_misses_call_detect_access_directly(rig_factory, monkeypatch, protocol):
    """A segment miss reaches the strategy's ``detect_access`` and no spec call.

    Every access of the segment is the first one to its own remote page,
    so each one misses: one ``detect_access`` call per miss, for that one
    page, and no ``get``, ``put`` or ``account_accesses`` call, with
    *extra* accounting on every access.
    """
    rig = rig_factory(protocol=protocol, num_nodes=2)
    memory, calls = _spied_memory(rig, monkeypatch)
    array = rig.heap.new_array("double", 6 * 512, home_node=1, page_aligned=True)
    steps = (
        ("get", 0, 0),
        ("put", 0, 512, 1.0),
        ("compute", 40.0),
        ("get_run", 0, (1024, 1536)),
        ("put_run", 0, (2048, 2560), (2.0, 3.0)),
    )
    ctx = PendingContext(0)
    memory.replay_segment(ctx, 0, [array], steps, 2, COMPUTE_SECONDS)
    first = array.address // rig.isoaddr.page_size
    assert calls == [("detect_access", (first + k,), 1) for k in range(6)]
    assert rig.page_manager.stats.page_fetches == 6
    assert rig.page_manager.stats.accesses == 6 * 3  # each access and its extra two
    memory.update_main_memory(ctx, 0)
    assert array.main_read_range(0, 6 * 512)[[512, 2048, 2560]].tolist() == [1.0, 2.0, 3.0]


def test_observed_segment_writes_make_no_spec_calls(rig_factory, monkeypatch):
    """Under migratory homes a segment's writes take the exact charges, not ``put``."""
    rig = rig_factory(protocol="java_ic_mig", num_nodes=2)
    memory, calls = _spied_memory(rig, monkeypatch)
    array = rig.heap.new_array("double", 64, home_node=1)
    steps = (("put", 0, 0, 1.0), ("put_run", 0, (1, 2, 3), (2.0, 3.0, 4.0)), ("get", 0, 5))
    memory.replay_segment(PendingContext(0), 0, [array], steps, 1, COMPUTE_SECONDS)
    assert [call[0] for call in calls] == ["detect_access"]  # the first put's miss
    assert rig.page_manager.stats.page_rehomes == 1


#: one step of a generated single-object segment
_STEP = st.one_of(
    st.tuples(st.sampled_from(["get", "put"]), st.integers(0, 63)),
    st.tuples(
        st.sampled_from(["get_run", "put_run"]),
        st.one_of(
            st.lists(st.integers(0, 63), min_size=1, max_size=12).map(tuple),
            st.tuples(st.integers(0, 56), st.integers(1, 8)).map(lambda t: range(t[0], t[0] + t[1])),
        ),
    ),
    st.just(("compute",)),
)


def _segment(raw) -> tuple:
    """Steps on object 0 from generated ``(tag, slots)`` pairs."""
    steps = []
    for item in raw:
        tag = item[0]
        if tag == "compute":
            steps.append(("compute", 40.0))
        elif tag in ("get", "get_run"):
            steps.append((tag, 0, item[1]))
        elif tag == "put":
            steps.append((tag, 0, item[1], float(item[1])))
        else:
            steps.append((tag, 0, item[1], tuple(float(slot) for slot in item[1])))
    return tuple(steps)


@pytest.mark.parametrize(
    "protocol",
    ["java_ic", "java_pf", "java_ic_hoisted", "java_hybrid", "java_ic_mig", "java_ic_loc"],
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    remote=st.booleans(),
    to_threshold=st.integers(min_value=-2, max_value=6),
    extra=st.integers(min_value=0, max_value=3),
    raw=st.lists(_STEP, min_size=1, max_size=8),
)
def test_replay_segment_matches_per_op_accesses(
    rig_factory, protocol, remote, to_threshold, extra, raw
):
    """``replay_segment`` charges a segment bit for bit under every plan.

    The page starts resident, a few accesses short of (or just past)
    :data:`HybridDetection.DENSITY_THRESHOLD`; the segment on a fast rig
    must equal its per-op spec on an exact-path twin in pending CPU and
    wait time, DSM counters, the data flushed home, and under
    ``java_hybrid`` in density and promotion too.
    """
    topology = _ORACLE_TOPOLOGY.get(protocol, CrossbarTopology)
    steps = _segment(raw)
    results = []
    for fast in (True, False):
        rig = rig_factory(protocol=protocol, topology_factory=topology)
        memory = rig.memory
        if not fast:
            memory.disable_access_fast_path()
        obj = rig.heap.new_array("double", 64, home_node=1 if remote else 0)
        ctx = PendingContext(0)
        # fetch the page and bring its density near the threshold
        start = HybridDetection.DENSITY_THRESHOLD - to_threshold
        memory.account_accesses(ctx, 0, obj, start, lo=0, hi=1)
        _replay(memory, ctx, 0, [obj], steps, extra)
        memory.update_main_memory(ctx, 0)
        hybrid = _hybrid_state(rig) if protocol == "java_hybrid" else None
        stats = dataclasses.asdict(rig.page_manager.stats)
        results.append(
            (
                ctx._pending_cpu.hex(),
                ctx._pending_wait.hex(),
                stats,
                hybrid,
                obj.main_read_range(0, 64).tolist(),
            )
        )
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "protocol, block_path",
    [
        ("java_ic", True),
        ("java_pf", True),
        ("java_ic_hoisted", True),
        ("java_hybrid", False),
        ("java_ic_mig", False),
    ],
)
def test_block_updater_moves_resident_blocks_at_once(rig_factory, protocol, block_path):
    """Which calls the block path takes: every other one reads row by row.

    A local matrix with a resident extra object takes it under the
    fixed-home plans; an absent extra object, a row homed elsewhere, a
    plain array, a charge-log context and ``disable_access_fast_path``
    all take the per-row loop.  In the halo form only the rows next to a
    row homed elsewhere read row by row (three reads each).
    """
    rig = rig_factory(protocol=protocol)
    memory, heap = rig.memory, rig.heap
    rows = heap.new_matrix("double", 4, 64, [0] * 4)
    mixed = heap.new_matrix("double", 2, 64, [0, 1])
    remote = heap.new_array("double", 64, home_node=1)
    reads = []
    get_range = memory.get_range

    def counting_get_range(ctx, node, obj, lo, hi):
        reads.append(obj)
        return get_range(ctx, node, obj, lo, hi)

    memory.get_range = counting_get_range
    ctx = PendingContext(0)

    def plus_one(block):
        return block + 1.0, np.ones(len(block), dtype=bool)

    def rows_read(update, **kwargs):
        del reads[:]
        update(plus_one, **kwargs)
        return len(reads)

    update = memory.make_range_updater(ctx, 0, rows, 0, 64, extra=3, row_seconds=1e-6)
    assert rows_read(update, extra_obj=remote) == 4  # absent: fetched by row 0
    assert rows_read(update, extra_obj=remote, skip=1) == (0 if block_path else 3)
    assert rows_read(update) == (0 if block_path else 4)
    assert rows_read(memory.make_range_updater(ctx, 0, mixed, 0, 64)) == 2
    assert rows_read(memory.make_range_updater(ctx, 0, [remote], 0, 64)) == 1
    logged = memory.make_range_updater(RecordingContext(0), 0, rows, 0, 64)
    assert rows_read(logged) == 4

    def stencil(centre, north, south):
        return 0.25 * (north + south + centre[..., :-2] + centre[..., 2:])

    def halo_rows_read(homes):
        source = heap.new_matrix("double", 5, 66, homes)
        target = heap.new_matrix("double", 5, 66, [0] * 5)
        halo = memory.make_range_updater(
            ctx, 0, source, 1, 65, extra=2, row_seconds=1e-6, into=target[1:4]
        )
        del reads[:]
        halo(stencil)
        return halo, len(reads) // 3

    halo, spec_rows = halo_rows_read([0] * 5)
    assert spec_rows == (0 if block_path else 3)
    assert halo_rows_read([0, 0, 0, 0, 1])[1] == (1 if block_path else 3)
    assert halo_rows_read([0, 0, 1, 0, 0])[1] == 3
    memory.disable_access_fast_path()
    del reads[:]
    halo(stencil)
    assert len(reads) == 9
    assert rows_read(update, extra_obj=remote) == 4
    # five plus_one passes wrote every row; the skipped row one fewer
    assert rows[0].matrix[:, 0].tolist() == [5.0, 4.0, 5.0, 5.0]
