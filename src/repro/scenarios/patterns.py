"""Seeded sharing-pattern generators and their workload dataclasses.

Each pattern is a parameterised generator producing an
:class:`~repro.scenarios.script.AccessScript` from a frozen, seeded workload
dataclass — the synthetic counterpart of :mod:`repro.apps.workloads`.  The
patterns cover the classic DSM stress axes the five paper benchmarks never
exercise:

* **read-mostly** — shared data read from everywhere, rarely written;
* **producer-consumer** — lock-protected bounded-buffer hand-off;
* **migratory** — exclusive read-modify-write ownership rotating between
  threads phase by phase;
* **false-sharing** — threads writing *distinct* fields that live on the
  *same* page (invisible to ``java_ic``'s object-level checks, pathological
  for ``java_pf``'s page-granularity faults);
* **hot-lock** — every thread hammering one monitor around a tiny critical
  section;
* **uniform** — all-to-all accesses spread evenly over per-node arrays.

Generation is pure: ``random.Random(workload.seed)`` drives every choice, so
one ``(workload, num_threads, num_nodes)`` triple always yields the same
script, which is what makes scenario cells cacheable and executor-agnostic
(same seed ⇒ byte-identical ``ExecutionReport.to_dict()``).

Every workload carries a ``work_multiplier`` with the same contract as the
paper apps: compute cycles and *accounted* per-element accesses scale by it
while the data actually moved stays at script size, preserving the
computation-to-communication balance when a script is scaled down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.scenarios.script import AccessScript, ScriptBuilder
from repro.util.validation import check_non_negative, check_positive

#: cycles charged per "think" step between accesses, before work_multiplier
THINK_CYCLES = 120.0


@dataclass(frozen=True)
class ScenarioWorkload:
    """Base of every synthetic workload: a seed and the cost multiplier."""

    #: RNG seed driving script generation (the determinism contract's input)
    seed: int = 7
    #: paper-scale elements represented by each scripted op (costs only)
    work_multiplier: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("seed", self.seed)
        check_positive("work_multiplier", self.work_multiplier)

    # ------------------------------------------------------------------
    @classmethod
    def bench(cls) -> "ScenarioWorkload":
        """Benchmark-harness scale (default parameters)."""
        return cls()

    @classmethod
    def paper(cls) -> "ScenarioWorkload":
        """Paper-style scale: same script, paper-scale cost accounting."""
        return cls(work_multiplier=200.0)

    @classmethod
    def testing(cls) -> "ScenarioWorkload":
        """Tiny scale for the unit tests (subclasses shrink their sizes)."""
        return cls()

    @classmethod
    def for_scale(cls, scale: str) -> "ScenarioWorkload":
        """Preset instance by scale name (``bench`` / ``paper`` / ``testing``)."""
        presets = {"bench": cls.bench, "paper": cls.paper, "testing": cls.testing}
        try:
            return presets[scale.lower()]()
        except KeyError:
            known = ", ".join(sorted(presets))
            raise KeyError(f"unknown workload scale {scale!r}; known: {known}") from None


# ---------------------------------------------------------------------------
# read-mostly
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ReadMostlyWorkload(ScenarioWorkload):
    """Shared tables read from every node, occasionally updated."""

    #: shared page-aligned arrays, homed round-robin over the nodes
    objects: int = 8
    #: array length (slots) of each shared table
    slots: int = 128
    #: accesses issued by each thread
    ops_per_thread: int = 240
    #: fraction of accesses that are writes
    write_fraction: float = 0.05
    #: a lock/unlock pair (flush + invalidate) every this many accesses
    sync_period: int = 60

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("objects", self.objects)
        check_positive("slots", self.slots)
        check_positive("ops_per_thread", self.ops_per_thread)
        check_positive("sync_period", self.sync_period)
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1], got {self.write_fraction}")

    @classmethod
    def paper(cls) -> "ReadMostlyWorkload":
        return cls(objects=16, slots=512, ops_per_thread=960, work_multiplier=50.0)

    @classmethod
    def testing(cls) -> "ReadMostlyWorkload":
        return cls(objects=3, slots=32, ops_per_thread=40, sync_period=16)


def generate_read_mostly(
    workload: ReadMostlyWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """Reads are unguarded; the rare writes take the writer lock.

    Java consistency requires modifications to be flushed (monitor exit)
    before the next invalidation point, so the writes — like any correctly
    synchronised read-mostly structure — happen under a lock, while the
    dominant read traffic proceeds lock-free between sync epochs.
    """
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    tables = [
        builder.shared_array(f"table-{i}", workload.slots, home_node=i % num_nodes)
        for i in range(workload.objects)
    ]
    sync = builder.shared_object("read-mostly-sync", num_fields=1, home_node=0)
    for t in range(num_threads):
        for op_index in range(workload.ops_per_thread):
            table = tables[rng.randrange(len(tables))]
            slot = rng.randrange(workload.slots)
            if rng.random() < workload.write_fraction:
                builder.lock(t, sync)
                builder.put(t, table, slot, rng.randrange(1_000_000))
                builder.unlock(t, sync)
            else:
                builder.get(t, table, slot)
            builder.compute(t, THINK_CYCLES)
            if (op_index + 1) % workload.sync_period == 0:
                builder.lock(t, sync)
                builder.get(t, sync, 0)
                builder.unlock(t, sync)
    return builder.build()


# ---------------------------------------------------------------------------
# producer-consumer
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ProducerConsumerWorkload(ScenarioWorkload):
    """Bounded-buffer hand-off through a lock-protected shared queue."""

    #: slots of the shared ring buffer
    slots: int = 16
    #: items each producer deposits (consumers drain the same count)
    items_per_thread: int = 48
    #: compute cycles spent producing/consuming each item
    item_cycles: float = 400.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("slots", self.slots)
        check_positive("items_per_thread", self.items_per_thread)
        check_positive("item_cycles", self.item_cycles)

    @classmethod
    def paper(cls) -> "ProducerConsumerWorkload":
        return cls(slots=64, items_per_thread=192, work_multiplier=100.0)

    @classmethod
    def testing(cls) -> "ProducerConsumerWorkload":
        return cls(slots=8, items_per_thread=10)


def generate_producer_consumer(
    workload: ProducerConsumerWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """Even threads produce into the ring, odd threads consume from it."""
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    ring = builder.shared_array("ring", workload.slots, home_node=0)
    state = builder.shared_object("ring-state", num_fields=2, home_node=0)
    for t in range(num_threads):
        producer = t % 2 == 0
        cursor = rng.randrange(workload.slots)
        for _item in range(workload.items_per_thread):
            builder.compute(t, workload.item_cycles)
            builder.lock(t, state)
            builder.get(t, state, 0 if producer else 1)
            if producer:
                builder.put(t, ring, cursor, rng.randrange(1_000_000))
                builder.put(t, state, 0, cursor)
            else:
                builder.get(t, ring, cursor)
                builder.put(t, state, 1, cursor)
            builder.unlock(t, state)
            cursor = (cursor + 1) % workload.slots
    return builder.build()


# ---------------------------------------------------------------------------
# migratory
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MigratoryWorkload(ScenarioWorkload):
    """Objects whose exclusive read-modify-write owner rotates per phase."""

    #: migrating token objects; 0 means "one per thread" (resolved at generate)
    tokens: int = 0
    #: rotation phases, separated by barriers
    rounds: int = 8
    #: read-modify-write pairs per token per phase
    updates_per_round: int = 12
    #: fields of each token object
    token_fields: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        check_non_negative("tokens", self.tokens)
        check_positive("rounds", self.rounds)
        check_positive("updates_per_round", self.updates_per_round)
        check_positive("token_fields", self.token_fields)

    @classmethod
    def paper(cls) -> "MigratoryWorkload":
        return cls(rounds=24, updates_per_round=48, work_multiplier=80.0)

    @classmethod
    def testing(cls) -> "MigratoryWorkload":
        return cls(rounds=3, updates_per_round=4)


def generate_migratory(
    workload: MigratoryWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """Thread *t* owns token ``(t + round) % tokens`` for one phase."""
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    num_tokens = workload.tokens or num_threads
    tokens = [
        builder.shared_object(
            f"token-{i}", num_fields=workload.token_fields, home_node=i % num_nodes
        )
        for i in range(num_tokens)
    ]
    for round_index in range(workload.rounds):
        for t in range(num_threads):
            token = tokens[(t + round_index) % num_tokens]
            for _update in range(workload.updates_per_round):
                slot = rng.randrange(workload.token_fields)
                builder.get(t, token, slot)
                builder.put(t, token, slot, rng.randrange(1_000_000))
                builder.compute(t, THINK_CYCLES)
        builder.barrier_all()
    return builder.build()


# ---------------------------------------------------------------------------
# false sharing
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FalseSharingWorkload(ScenarioWorkload):
    """Distinct per-thread fields packed onto one page.

    Every thread only ever touches its own fields — there is no true
    sharing — but all fields live in a single object and therefore on the
    same DSM page.  ``java_ic`` checks object locality in-line and never
    faults; ``java_pf`` takes a page fault per writer epoch, which is the
    page-fault gap the scenario grid records.
    """

    #: write epochs, separated by barriers (each re-protects the page)
    rounds: int = 16
    #: writes each thread issues to its own fields per epoch
    writes_per_round: int = 16
    #: private fields per thread within the shared object
    fields_per_thread: int = 2

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("rounds", self.rounds)
        check_positive("writes_per_round", self.writes_per_round)
        check_positive("fields_per_thread", self.fields_per_thread)

    @classmethod
    def paper(cls) -> "FalseSharingWorkload":
        return cls(rounds=48, writes_per_round=64, work_multiplier=60.0)

    @classmethod
    def testing(cls) -> "FalseSharingWorkload":
        return cls(rounds=4, writes_per_round=4)


def generate_false_sharing(
    workload: FalseSharingWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """One falsely-shared object; thread *t* writes only fields it owns."""
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    shared = builder.shared_object(
        "false-shared-page",
        num_fields=num_threads * workload.fields_per_thread,
        home_node=0,
    )
    for _round in range(workload.rounds):
        for t in range(num_threads):
            base = t * workload.fields_per_thread
            for _write in range(workload.writes_per_round):
                slot = base + rng.randrange(workload.fields_per_thread)
                builder.get(t, shared, slot)
                builder.put(t, shared, slot, rng.randrange(1_000_000))
                builder.compute(t, THINK_CYCLES)
        builder.barrier_all()
    return builder.build()


# ---------------------------------------------------------------------------
# hot lock
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class HotLockWorkload(ScenarioWorkload):
    """Every thread contends on a single monitor around a tiny critical section."""

    #: monitor acquisitions per thread
    acquisitions_per_thread: int = 40
    #: shared-counter read-modify-writes inside the critical section
    critical_accesses: int = 3
    #: compute cycles spent outside the lock between acquisitions
    think_cycles: float = 800.0

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("acquisitions_per_thread", self.acquisitions_per_thread)
        check_positive("critical_accesses", self.critical_accesses)
        check_positive("think_cycles", self.think_cycles)

    @classmethod
    def paper(cls) -> "HotLockWorkload":
        return cls(acquisitions_per_thread=160, work_multiplier=120.0)

    @classmethod
    def testing(cls) -> "HotLockWorkload":
        return cls(acquisitions_per_thread=8)


def generate_hot_lock(
    workload: HotLockWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """A single hot monitor protecting a handful of shared counters."""
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    counters = builder.shared_object(
        "hot-counters", num_fields=max(4, workload.critical_accesses), home_node=0
    )
    for t in range(num_threads):
        for _acq in range(workload.acquisitions_per_thread):
            builder.compute(t, workload.think_cycles)
            builder.lock(t, counters)
            for _access in range(workload.critical_accesses):
                slot = rng.randrange(max(4, workload.critical_accesses))
                builder.get(t, counters, slot)
                builder.put(t, counters, slot, rng.randrange(1_000_000))
            builder.unlock(t, counters)
    return builder.build()


# ---------------------------------------------------------------------------
# uniform all-to-all
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class UniformWorkload(ScenarioWorkload):
    """Accesses spread uniformly over one page-aligned array per node."""

    #: slots of each per-node array
    slots: int = 256
    #: accesses issued by each thread
    ops_per_thread: int = 200
    #: fraction of accesses that are writes
    write_fraction: float = 0.3
    #: barrier every this many accesses (keeps epochs comparable)
    sync_period: int = 50

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("slots", self.slots)
        check_positive("ops_per_thread", self.ops_per_thread)
        check_positive("sync_period", self.sync_period)
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1], got {self.write_fraction}")

    @classmethod
    def paper(cls) -> "UniformWorkload":
        return cls(slots=1024, ops_per_thread=800, work_multiplier=40.0)

    @classmethod
    def testing(cls) -> "UniformWorkload":
        return cls(slots=64, ops_per_thread=40, sync_period=20)


def generate_uniform(
    workload: UniformWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """All-to-all traffic: every thread hits every node's array uniformly."""
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    arenas = [
        builder.shared_array(f"arena-{node}", workload.slots, home_node=node)
        for node in range(num_nodes)
    ]
    # ops_per_thread must be a multiple of sync_period-sized epochs for the
    # barrier counts to line up across threads; pad the tail epoch instead of
    # truncating so every thread issues exactly ops_per_thread accesses.
    for op_index in range(workload.ops_per_thread):
        for t in range(num_threads):
            arena = arenas[rng.randrange(len(arenas))]
            slot = rng.randrange(workload.slots)
            if rng.random() < workload.write_fraction:
                builder.put(t, arena, slot, rng.randrange(1_000_000))
            else:
                builder.get(t, arena, slot)
            builder.compute(t, THINK_CYCLES)
        if (op_index + 1) % workload.sync_period == 0:
            builder.barrier_all()
    return builder.build()


# ---------------------------------------------------------------------------
# streaming scans
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StreamingWorkload(ScenarioWorkload):
    """Sequential whole-array scans: long homogeneous access runs.

    The long-run stress case: each thread streams through page-aligned
    arrays chunk by chunk with *no* per-element compute, so scripts are
    dominated by maximal ``get``/``put`` runs.  The generator emits the runs
    pre-grouped (``get_run``/``put_run`` ops), which segment replay prices
    a page at a time.
    """

    #: slots of each per-node streamed array
    slots: int = 512
    #: scan phases, separated by barriers (each rotates array ownership)
    rounds: int = 6
    #: elements per emitted run op (each chunk is one ``*_run``)
    chunk: int = 64
    #: fraction of chunks that are written back instead of read
    write_fraction: float = 0.25

    def __post_init__(self) -> None:
        super().__post_init__()
        check_positive("slots", self.slots)
        check_positive("rounds", self.rounds)
        check_positive("chunk", self.chunk)
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError(f"write_fraction must be in [0, 1], got {self.write_fraction}")

    @classmethod
    def paper(cls) -> "StreamingWorkload":
        return cls(slots=2048, rounds=12, chunk=128, work_multiplier=40.0)

    @classmethod
    def testing(cls) -> "StreamingWorkload":
        return cls(slots=96, rounds=2, chunk=16)


def generate_streaming(
    workload: StreamingWorkload, num_threads: int, num_nodes: int
) -> AccessScript:
    """Each phase, thread *t* scans array ``(t + round) % num_nodes`` in chunks.

    Rotating ownership makes every array stream through every thread's node
    over the rounds (first touch is remote, later chunks hit the cached
    pages), while the chunked pre-grouped runs keep the access stream
    maximally homogeneous between synchronisation points.
    """
    rng = random.Random(workload.seed)
    builder = ScriptBuilder(num_threads)
    streams = [
        builder.shared_array(f"stream-{node}", workload.slots, home_node=node)
        for node in range(num_nodes)
    ]
    for round_index in range(workload.rounds):
        for t in range(num_threads):
            stream = streams[(t + round_index) % len(streams)]
            for lo in range(0, workload.slots, workload.chunk):
                slots = range(lo, min(lo + workload.chunk, workload.slots))
                if rng.random() < workload.write_fraction:
                    builder.put_run(
                        t, stream, slots, [rng.randrange(1_000_000) for _ in slots]
                    )
                else:
                    builder.get_run(t, stream, slots)
            builder.compute(t, THINK_CYCLES)
        builder.barrier_all()
    return builder.build()
