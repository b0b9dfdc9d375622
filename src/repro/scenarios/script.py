"""The access-script IR and its interpreter.

A *scenario* is not hand-written application code but a deterministic,
seeded **access script**: a declared object layout plus one compact
operation sequence per thread.  The generators in
:mod:`repro.scenarios.patterns` emit scripts; the interpreter here replays
them through the Hyperion runtime exactly like a translated Java program —
every ``get``/``put`` is charged as the Table 2 memory primitives charge it
(and therefore by the configured consistency protocol), monitors and
barriers carry their usual Java-consistency side effects.

Operations are plain tuples, keyed by their first element:

==========================  =================================================
``("get", o, s)``            read slot *s* of layout object *o*
``("put", o, s, v)``         write value *v* to slot *s* of layout object *o*
``("get_run", o, ss)``       read each slot of tuple *ss* in order
``("put_run", o, ss, vs)``   write ``vs[k]`` to slot ``ss[k]`` in order
``("lock", o)``              enter the monitor of layout object *o*
``("unlock", o)``            exit the monitor of layout object *o*
``("barrier",)``             wait at the scenario-wide barrier (all workers)
``("compute", c)``           charge *c* CPU cycles of application compute
==========================  =================================================

The two ``*_run`` forms are pre-grouped run-length encodings of adjacent
scalar accesses to one object, semantically identical to the equivalent
``get``/``put`` sequence.  Nothing yields between two synchronisation ops
(``lock``/``unlock``/``barrier``), so the interpreter replays each stretch
between them, a *segment*, with one memory call
(:meth:`~repro.core.memory.MemorySubsystem.replay_segment`); the per-op
replay stays as the spec, and runs wherever the memory layer must see each
access.  The generated differential suite pins the two against each other.

Keeping the IR this small is deliberate: a script is pure data (hashable
tuples of tuples), so the same seed always produces the same script, and a
script can be inspected, counted and serialised without running it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator, Sequence

from repro.core.memory import COMPUTE as OP_COMPUTE
from repro.core.memory import GET as OP_GET
from repro.core.memory import GET_RUN as OP_GET_RUN
from repro.core.memory import PUT as OP_PUT
from repro.core.memory import PUT_RUN as OP_PUT_RUN
from repro.util.validation import check_non_negative

#: operation tags understood by the interpreter: the memory layer's access
#: steps, plus the synchronisation ops that end a segment
OP_LOCK = "lock"
OP_UNLOCK = "unlock"
OP_BARRIER = "barrier"

#: tag -> expected tuple arity (including the tag itself)
_OP_ARITY: dict[str, int] = {
    OP_GET: 3,
    OP_PUT: 4,
    OP_GET_RUN: 3,
    OP_PUT_RUN: 4,
    OP_LOCK: 2,
    OP_UNLOCK: 2,
    OP_BARRIER: 1,
    OP_COMPUTE: 2,
}

#: the ops that end a segment
_SYNC_TAGS = frozenset({OP_LOCK, OP_UNLOCK, OP_BARRIER})

#: one IR operation (see module docstring for the forms)
Op = tuple


@dataclass(frozen=True)
class ObjectDecl:
    """Declaration of one shared entity in a scenario's object layout.

    ``kind`` is ``"object"`` (a scalar :class:`~repro.hyperion.objects.JavaObject`
    with ``num_fields`` 8-byte field slots) or ``"array"`` (a
    :class:`~repro.hyperion.objects.JavaArray` of ``length`` elements).
    ``home_node`` is taken modulo the runtime's node count at materialisation
    time, so one layout works on any cluster size.
    """

    name: str
    kind: str = "object"
    home_node: int = 0
    #: number of field slots ("object" kind)
    num_fields: int = 1
    #: element type and length ("array" kind)
    element_type: str = "long"
    length: int = 0
    #: allocate on a page boundary (avoids incidental page sharing)
    page_aligned: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("object declaration needs a non-empty name")
        if self.kind not in ("object", "array"):
            raise ValueError(f"unknown layout kind {self.kind!r}")
        check_non_negative("home_node", self.home_node)
        if self.kind == "object" and self.num_fields < 1:
            raise ValueError(f"object {self.name!r} needs at least one field")
        if self.kind == "array" and self.length < 1:
            raise ValueError(f"array {self.name!r} needs at least one element")

    @property
    def num_slots(self) -> int:
        """Addressable slots of the declared entity."""
        return self.num_fields if self.kind == "object" else self.length


@dataclass(frozen=True)
class AccessScript:
    """A deterministic shared-memory scenario: layout plus per-thread ops."""

    layout: tuple[ObjectDecl, ...]
    #: one operation sequence per worker thread
    threads: tuple[tuple[Op, ...], ...]

    # ------------------------------------------------------------------
    def validate(self) -> "AccessScript":
        """Check that the script is well formed and that replay can run it.

        Every op must refer to a declared object and an in-range slot, locks
        must balance, and no thread may enter a monitor after a put with no
        unlock or barrier in between: the enter drops the node's cached
        copies, and replay refuses to drop an unflushed write.

        The script is frozen, so a passing check is final: it marks the
        instance and later calls return at once.  That is what lets the
        runner's cache validate whatever a pattern returns while a built-in
        generator's :meth:`ScriptBuilder.build` output is walked only once.
        """
        if "_validated" not in self.__dict__:
            self._check()
            object.__setattr__(self, "_validated", True)
        return self

    def _check(self) -> None:
        """The walk behind :meth:`validate`.

        It covers *every* op of every thread — for bulk-heavy patterns that
        is tens of thousands of slot checks, so the loop binds the per-object
        slot counts once (instead of re-reading the ``num_slots`` property
        per check) and bounds-checks run ops with C-speed ``min``/``max``,
        only walking a run's slots to name the offender after a violation is
        detected.
        """
        if not self.layout:
            raise ValueError("a script needs at least one declared object")
        if not self.threads:
            raise ValueError("a script needs at least one thread")
        slot_counts = [decl.num_slots for decl in self.layout]
        num_objects = len(self.layout)
        arity_of = _OP_ARITY.get
        for tid, ops in enumerate(self.threads):
            depth = 0
            # a put since the last unlock or barrier (see the docstring)
            dirty = False
            for op in ops:
                tag = op[0]
                arity = arity_of(tag)
                if arity is None:
                    raise ValueError(f"thread {tid}: unknown op tag {tag!r}")
                if len(op) != arity:
                    raise ValueError(
                        f"thread {tid}: op {op!r} has {len(op)} elements, "
                        f"expected {arity}"
                    )
                if tag == OP_GET or tag == OP_PUT:
                    obj = op[1]
                    if not 0 <= obj < num_objects:
                        raise ValueError(
                            f"thread {tid}: op {op!r} references object {obj}, "
                            f"layout has {num_objects}"
                        )
                    slot = op[2]
                    if not 0 <= slot < slot_counts[obj]:
                        decl = self.layout[obj]
                        raise ValueError(
                            f"thread {tid}: op {op!r} addresses slot {slot} of "
                            f"{decl.name!r} ({decl.num_slots} slots)"
                        )
                    if tag == OP_PUT:
                        dirty = True
                elif tag == OP_GET_RUN or tag == OP_PUT_RUN:
                    obj = op[1]
                    if not 0 <= obj < num_objects:
                        raise ValueError(
                            f"thread {tid}: op {op!r} references object {obj}, "
                            f"layout has {num_objects}"
                        )
                    slots = op[2]
                    if not slots:
                        raise ValueError(f"thread {tid}: empty run op {op!r}")
                    limit = slot_counts[obj]
                    if min(slots) < 0 or max(slots) >= limit:
                        decl = self.layout[obj]
                        for slot in slots:
                            if not 0 <= slot < limit:
                                raise ValueError(
                                    f"thread {tid}: run op {op!r} addresses slot "
                                    f"{slot} of {decl.name!r} ({decl.num_slots} slots)"
                                )
                    if tag == OP_PUT_RUN:
                        if len(op[3]) != len(slots):
                            raise ValueError(
                                f"thread {tid}: put_run op has {len(slots)} slots but "
                                f"{len(op[3])} values"
                            )
                        dirty = True
                elif tag == OP_LOCK or tag == OP_UNLOCK:
                    obj = op[1]
                    if not 0 <= obj < num_objects:
                        raise ValueError(
                            f"thread {tid}: op {op!r} references object {obj}, "
                            f"layout has {num_objects}"
                        )
                    if tag == OP_LOCK:
                        if dirty:
                            raise ValueError(
                                f"thread {tid}: op {op!r} enters a monitor after a "
                                "put with no unlock or barrier in between"
                            )
                        depth += 1
                    else:
                        dirty = False
                        depth -= 1
                        if depth < 0:
                            raise ValueError(f"thread {tid}: unlock without a lock")
                elif tag == OP_BARRIER:
                    dirty = False
                elif tag == OP_COMPUTE and op[1] < 0:
                    raise ValueError(f"thread {tid}: negative compute {op!r}")
            if depth != 0:
                raise ValueError(f"thread {tid}: {depth} unmatched lock(s)")

    # ------------------------------------------------------------------
    @property
    def num_threads(self) -> int:
        """Worker threads the script drives."""
        return len(self.threads)

    @property
    def uses_barrier(self) -> bool:
        """True when any thread waits at the scenario barrier.

        Memoised on the (frozen) instance like :meth:`validate`'s mark: the
        runner asks once per cell, and the answer needs a walk of every op.
        """
        if "_uses_barrier" not in self.__dict__:
            found = any(op[0] == OP_BARRIER for ops in self.threads for op in ops)
            object.__setattr__(self, "_uses_barrier", found)
        return self.__dict__["_uses_barrier"]

    def op_count(self) -> int:
        """Total operations across all threads."""
        return sum(len(ops) for ops in self.threads)

    def counts_by_kind(self) -> dict[str, int]:
        """Histogram of op tags (inspection and tests)."""
        counts: dict[str, int] = {}
        for ops in self.threads:
            for op in ops:
                counts[op[0]] = counts.get(op[0], 0) + 1
        return counts


# ---------------------------------------------------------------------------
# builder
# ---------------------------------------------------------------------------
@dataclass
class ScriptBuilder:
    """Mutable accumulator the pattern generators write into."""

    num_threads: int
    layout: list[ObjectDecl] = field(default_factory=list)
    _ops: list[list[Op]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {self.num_threads}")
        self._ops = [[] for _ in range(self.num_threads)]

    # -- layout ---------------------------------------------------------------
    def declare(self, decl: ObjectDecl) -> int:
        """Add *decl* to the layout and return its object index."""
        self.layout.append(decl)
        return len(self.layout) - 1

    def shared_object(self, name: str, num_fields: int = 1, home_node: int = 0) -> int:
        """Declare a scalar object (monitor target / field container)."""
        return self.declare(
            ObjectDecl(name=name, kind="object", num_fields=num_fields, home_node=home_node)
        )

    def shared_array(
        self,
        name: str,
        length: int,
        home_node: int = 0,
        element_type: str = "long",
        page_aligned: bool = True,
    ) -> int:
        """Declare an array (page-aligned by default, like the benchmarks)."""
        return self.declare(
            ObjectDecl(
                name=name,
                kind="array",
                home_node=home_node,
                element_type=element_type,
                length=length,
                page_aligned=page_aligned,
            )
        )

    # -- per-thread ops ---------------------------------------------------------
    def get(self, thread: int, obj: int, slot: int) -> None:
        self._ops[thread].append((OP_GET, obj, slot))

    def put(self, thread: int, obj: int, slot: int, value) -> None:
        self._ops[thread].append((OP_PUT, obj, slot, value))

    def get_run(self, thread: int, obj: int, slots: Sequence[int]) -> None:
        """Append one pre-grouped read of *slots* (in order)."""
        self._ops[thread].append((OP_GET_RUN, obj, tuple(slots)))

    def put_run(self, thread: int, obj: int, slots: Sequence[int], values: Sequence) -> None:
        """Append one pre-grouped write of *values* to *slots*."""
        self._ops[thread].append((OP_PUT_RUN, obj, tuple(slots), tuple(values)))

    def lock(self, thread: int, obj: int) -> None:
        self._ops[thread].append((OP_LOCK, obj))

    def unlock(self, thread: int, obj: int) -> None:
        self._ops[thread].append((OP_UNLOCK, obj))

    def compute(self, thread: int, cycles: float) -> None:
        self._ops[thread].append((OP_COMPUTE, float(cycles)))

    def barrier_all(self) -> None:
        """Append a barrier op to *every* thread (all must participate)."""
        for ops in self._ops:
            ops.append((OP_BARRIER,))

    # ------------------------------------------------------------------
    def build(self) -> AccessScript:
        """Freeze into a validated :class:`AccessScript`."""
        script = AccessScript(
            layout=tuple(self.layout),
            threads=tuple(tuple(ops) for ops in self._ops),
        )
        return script.validate()


# ---------------------------------------------------------------------------
# interpreter
# ---------------------------------------------------------------------------
def materialise_layout(ctx, script: AccessScript) -> list:
    """Allocate the script's declared objects through the runtime heap.

    Home nodes are taken modulo the runtime's node count so the same script
    runs on any cluster size.  Returns the entities in declaration order.
    """
    num_nodes = ctx.runtime.num_nodes
    entities = []
    for decl in script.layout:
        home = decl.home_node % num_nodes
        if decl.kind == "array":
            entities.append(
                ctx.new_array(
                    decl.element_type,
                    decl.length,
                    home_node=home,
                    page_aligned=decl.page_aligned,
                )
            )
        else:
            jclass = ctx.runtime.java_class(
                decl.name, [f"f{i}" for i in range(decl.num_fields)]
            )
            entities.append(ctx.new_object(jclass, home_node=home))
    return entities


def _run_step(op: Op) -> Op:
    """A run op as a segment step: contiguous ascending slots as a range."""
    slots = op[2]
    span = range(slots[0], slots[0] + len(slots))
    return (op[0], op[1], span) + op[3:] if slots == tuple(span) else op


def compile_thread(ops: Sequence[Op]) -> tuple[tuple, tuple[float, ...]]:
    """Split one thread's ops into segments for :func:`replay_thread`.

    Returns ``(items, cycles)``.  *items* pairs each segment, the steps of
    the ops before a ``lock``/``unlock``/``barrier`` (None when there are
    none), with that sync op (None after the last segment); a run whose
    slots are contiguous and ascending carries them as a ``range``, which
    :meth:`~repro.core.memory.MemorySubsystem.replay_segment` splits into
    pages arithmetically.  *cycles* are the distinct cycle counts of the
    thread's ``compute`` ops.
    """
    items = []
    steps: list[Op] = []
    for op in ops:
        tag = op[0]
        if tag in _SYNC_TAGS:
            items.append((tuple(steps) if steps else None, op))
            steps = []
        else:
            steps.append(_run_step(op) if tag == OP_GET_RUN or tag == OP_PUT_RUN else op)
    if steps:
        items.append((tuple(steps), None))
    cycles = sorted({op[1] for op in ops if op[0] == OP_COMPUTE})
    return tuple(items), tuple(cycles)


def _compiled(script: AccessScript, thread_index: int) -> tuple:
    """:func:`compile_thread` of one thread of *script*, memoised on the script.

    Kept on the (frozen) instance like :meth:`AccessScript.uses_barrier`, so
    the cells that replay one script compile each thread once, in any order,
    and the segments are freed with their script.  Two threads replaying one
    script at once at worst compile a thread twice.
    """
    threads = script.__dict__.get("_compiled")
    if threads is None:
        threads = [None] * len(script.threads)
        object.__setattr__(script, "_compiled", threads)
    compiled = threads[thread_index]
    if compiled is None:
        compiled = threads[thread_index] = compile_thread(script.threads[thread_index])
    return compiled


def _replay_ops(ctx, ops: Sequence[Op], entities: Sequence, extra: int, work_multiplier: float) -> None:
    """The per-op spec of a segment: every access through its own context call.

    Each scripted access is one ``get``/``put`` followed, when *extra* is
    non-zero, by ``account_accesses(count=extra)`` on its slot; a run op is
    its accesses in order.
    """
    for op in ops:
        tag = op[0]
        if tag == OP_COMPUTE:
            ctx.compute(cycles=op[1] * work_multiplier)
            continue
        entity = entities[op[1]]
        run = tag == OP_GET_RUN or tag == OP_PUT_RUN
        write = tag == OP_PUT or tag == OP_PUT_RUN
        for k, slot in enumerate(op[2] if run else (op[2],)):
            if write:
                ctx.put(entity, slot, op[3][k] if run else op[3])
            else:
                ctx.get(entity, slot)
            if extra:
                ctx.account_accesses(entity, extra, lo=slot, hi=slot + 1, write=write)


def replay_thread(
    ctx,
    script: AccessScript,
    thread_index: int,
    entities: Sequence,
    barrier,
    work_multiplier: float = 1.0,
) -> Generator:
    """Replay one thread's op sequence against materialised *entities*.

    ``work_multiplier`` mirrors the paper-app workloads: compute cycles are
    scaled by it, and each scripted access additionally accounts
    ``round(work_multiplier) - 1`` detection-only accesses
    (:meth:`~repro.hyperion.threads.JavaThreadContext.account_accesses`), so
    a scaled-down script keeps the paper-scale check/fault balance without
    moving more data.  Returns the number of ops executed.

    The thread is compiled into segments once per script
    (:func:`compile_thread`).  Each segment replays with one
    ``ctx.replay_segment`` call when the memory layer allows it
    (``replays_segments``), else op by op (:func:`_replay_ops`, the spec);
    the differential suite pins the two byte-identical.
    """
    extra = max(0, int(round(work_multiplier)) - 1)
    items, cycles = _compiled(script, thread_index)
    segmented = ctx.runtime.memory.replays_segments()
    if segmented:
        seconds = {c: ctx.compute_seconds(c * work_multiplier) for c in cycles}
    for segment, sync in items:
        if segment is not None:
            if segmented:
                ctx.replay_segment(entities, segment, extra, seconds)
            else:
                _replay_ops(ctx, segment, entities, extra, work_multiplier)
        if sync is None:
            break
        tag = sync[0]
        if tag == OP_LOCK:
            yield from ctx.monitor_enter(entities[sync[1]])
        elif tag == OP_UNLOCK:
            yield from ctx.monitor_exit(entities[sync[1]])
        else:
            yield from ctx.barrier(barrier)
    return len(script.threads[thread_index])
