"""Java threads and the thread-facing programming interface.

The java2c translator turns a Java thread's ``run()`` method into native code
that calls into the Hyperion runtime for every object access and every
synchronisation operation.  In this reproduction a Java thread body is a
Python generator function ``body(ctx, *args)`` receiving a
:class:`JavaThreadContext` — the "post-translation" form of the program (see
DESIGN.md, substitution 2).  Object accesses are plain calls (``ctx.get``,
``ctx.put``, ``ctx.aget_range`` ...); blocking operations (monitors, barriers,
join, sleep) are used through ``yield from``.

Time accounting: the context accumulates CPU time (compute, checks, fault
handling) and wait time (page requests, update messages) and flushes both
onto the simulation clock at every blocking point, holding the node CPU for
the CPU part only.  With one application thread per node — the configuration
used throughout the paper — this is exact; with several threads per node it
serialises compute while allowing communication to overlap, which is what the
paper's "future work" ablation (A3) explores.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Mapping, Sequence
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.context import AccessContext
from repro.hyperion.objects import JavaArray, JavaClass, JavaObject
from repro.simulation.resources import Barrier as SimBarrier
from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover
    from repro.hyperion.runtime import HyperionRuntime


class ClusterBarrier:
    """A runtime-level barrier with Java-consistency semantics.

    Arriving at the barrier flushes the thread's modifications
    (``updateMainMemory``); leaving it invalidates the node cache, exactly as
    a monitor exit/enter pair would.  The coordinator lives on ``home_node``
    (node 0 by default), so remote participants pay a control round trip.
    """

    def __init__(self, runtime: "HyperionRuntime", parties: int, home_node: int = 0, name: str = "barrier"):
        if parties < 1:
            raise ValueError(f"barrier needs at least one party, got {parties}")
        self.runtime = runtime
        self.parties = parties
        self.home_node = home_node
        self.name = name
        self.sim_barrier = SimBarrier(runtime.engine, parties, name=name)
        # what a participant pays on arrival, priced once (the cost model is
        # frozen): a control round trip from off the home node, else the
        # local monitor cost
        cost_model = runtime.cost_model
        self.round_trip_seconds = cost_model.rpc_round_trip_seconds(32, 32)
        self.local_seconds = cost_model.monitor_local_seconds()

    @property
    def episodes(self) -> int:
        """Number of completed barrier episodes."""
        return self.sim_barrier.generations


class JavaThread:
    """A Java application thread executing on one cluster node."""

    def __init__(
        self,
        runtime: "HyperionRuntime",
        node_id: int,
        body: Callable,
        args: Sequence[Any],
        name: str,
        index: int = 0,
    ):
        self.runtime = runtime
        self.body = body
        self.args = tuple(args)
        self.name = name
        self.index = index
        self.result: Any = None
        self.finished = False
        self.marcel = runtime.marcel.create_thread(node_id, name=name)
        self.ctx = JavaThreadContext(runtime, self)
        spans = self.ctx._spans
        if spans is not None:
            spans.register(name, runtime.engine.now)
        self.marcel.start(self._wrapper())

    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """Node the thread currently runs on (migration updates it)."""
        return self.marcel.node_id

    @property
    def is_alive(self) -> bool:
        """True while the thread body has not completed."""
        return self.marcel.is_alive

    def _wrapper(self) -> Generator:
        produced = self.body(self.ctx, *self.args)
        if hasattr(produced, "send"):
            result = yield from produced
        else:  # a body with no blocking operations is a plain function
            result = produced
        # Thread termination publishes the thread's writes (JMM: the join of
        # this thread happens-after everything it did).
        self.runtime.memory.update_main_memory(self.ctx, self.node_id)
        yield from self.ctx._flush()
        sanitizer = self.runtime.sanitizer
        if sanitizer is not None:
            sanitizer.note_thread_finish(self)
        spans = self.ctx._spans
        if spans is not None:
            spans.finish(self.name, self.runtime.engine.now)
        self.result = result
        self.finished = True
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<JavaThread {self.name!r} node={self.node_id} index={self.index}>"


class JavaThreadContext(AccessContext):
    """Everything a compiled Java thread can do, with cost accounting."""

    def __init__(self, runtime: "HyperionRuntime", thread: JavaThread):
        self.runtime = runtime
        self.thread = thread
        self._pending_cpu = 0.0
        self._pending_wait = 0.0
        # hot-path constants, resolved once: the machine spec is immutable
        # and the Marcel thread handle never changes (only its node does)
        machine = runtime.cost_model.machine
        self._freq = machine.frequency_hz
        self._cycles_per_flop = machine.cycles_per_flop
        self._cycles_per_int_op = machine.cycles_per_int_op
        self._marcel = thread.marcel
        self._memory = runtime.memory
        self._marcel_runtime = runtime.marcel
        self._run_stats = runtime.run_stats
        self._engine = runtime.engine
        self._monitors = runtime.monitors
        # virtual-time span tracer (None unless the spec opted into
        # telemetry); observes engine.now around existing yields only — it
        # must never add or split a yield, or scheduling would change
        telemetry = runtime.telemetry
        self._spans = telemetry.spans if telemetry is not None else None

    # ------------------------------------------------------------------
    # identity / time
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> int:
        """Node this thread currently executes on (migration updates it)."""
        return self._marcel.node_id

    @property
    def thread_index(self) -> int:
        """Application-level index of this thread (set at spawn time)."""
        return self.thread.index

    @property
    def now(self) -> float:
        """Current virtual time, including not-yet-flushed pending time."""
        return self.runtime.engine.now + self._pending_cpu + self._pending_wait

    # ------------------------------------------------------------------
    # AccessContext: cost charging
    # ------------------------------------------------------------------
    def charge_cpu(self, seconds: float) -> None:
        # validation inlined: this is called for every simulated access
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._pending_cpu += seconds

    def charge_wait(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds!r}")
        self._pending_wait += seconds

    def compute(
        self,
        cycles: float = 0.0,
        mem_seconds: float = 0.0,
        flops: float = 0.0,
        int_ops: float = 0.0,
    ) -> None:
        """Charge application compute work (see :meth:`compute_seconds`)."""
        # charge_cpu, inlined (compute_seconds validated the work)
        self._pending_cpu += self.compute_seconds(cycles, mem_seconds, flops, int_ops)

    def compute_seconds(
        self,
        cycles: float = 0.0,
        mem_seconds: float = 0.0,
        flops: float = 0.0,
        int_ops: float = 0.0,
    ) -> float:
        """The CPU seconds :meth:`compute` charges for this work.

        ``cycles`` are raw CPU cycles; ``flops``/``int_ops`` are converted
        using the machine's per-operation costs; ``mem_seconds`` is the
        clock-independent memory-hierarchy component.  The arithmetic is the
        inlined equivalent of ``machine.seconds_for_work`` — identical
        expressions in identical order, so the charged floats match the
        cost-model methods bit for bit.  Callers that charge the same work
        many times compute it once and ``charge_cpu`` the result (see
        :meth:`make_range_updater`).
        """
        if mem_seconds < 0:
            raise ValueError(f"mem_seconds must be >= 0, got {mem_seconds!r}")
        total_cycles = (
            cycles + flops * self._cycles_per_flop + int_ops * self._cycles_per_int_op
        )
        if total_cycles < 0:
            raise ValueError(f"cycles must be >= 0, got {total_cycles!r}")
        return total_cycles / self._freq + mem_seconds

    def _flush(self) -> Generator:
        """Pay accumulated CPU and wait time on the simulation clock."""
        cpu, wait = self._pending_cpu, self._pending_wait
        self._pending_cpu = 0.0
        self._pending_wait = 0.0
        yield from self._marcel_runtime.occupy(
            self._marcel, cpu, wait, self._run_stats, self._spans
        )

    # ------------------------------------------------------------------
    # heap allocation
    # ------------------------------------------------------------------
    def new_object(self, jclass: JavaClass, home_node: int | None = None) -> JavaObject:
        """Allocate an object (homed on this node unless specified)."""
        home = self.node_id if home_node is None else home_node
        obj = self.runtime.heap.new_object(jclass, home)
        self.compute(cycles=100.0 + 2.0 * jclass.num_fields)
        return obj

    def new_array(
        self,
        element_type: str,
        length: int,
        home_node: int | None = None,
        page_aligned: bool = False,
    ) -> JavaArray:
        """Allocate an array (homed on this node unless specified)."""
        home = self.node_id if home_node is None else home_node
        array = self.runtime.heap.new_array(
            element_type, length, home, page_aligned=page_aligned
        )
        # allocation plus Java's mandatory zero-initialisation
        self.compute(cycles=100.0 + 0.25 * length)
        return array

    def new_matrix(
        self,
        element_type: str,
        rows: int,
        cols: int,
        home_nodes: Sequence[int],
        page_aligned: bool = True,
    ) -> list[JavaArray]:
        """Allocate *rows* row arrays backed by one matrix (``heap.new_matrix``).

        Placed and charged exactly like *rows* :meth:`new_array` calls.
        """
        arrays = self.runtime.heap.new_matrix(
            element_type, rows, cols, home_nodes, page_aligned=page_aligned
        )
        for _ in range(rows):
            self.compute(cycles=100.0 + 0.25 * cols)
        return arrays

    # ------------------------------------------------------------------
    # object accesses (Table 2 primitives, routed through the protocol)
    # ------------------------------------------------------------------
    def _slot(self, obj: JavaObject, field) -> int:
        return obj.field_index(field) if isinstance(field, str) else int(field)

    def get(self, obj: JavaObject, field) -> Any:
        """Read a field of a Java object."""
        return self._memory.get(self, self._marcel.node_id, obj, self._slot(obj, field))

    def put(self, obj: JavaObject, field, value: Any) -> None:
        """Write a field of a Java object."""
        self._memory.put(self, self._marcel.node_id, obj, self._slot(obj, field), value)

    def aget(self, array: JavaArray, index: int) -> Any:
        """Read one array element."""
        return self._memory.get(self, self._marcel.node_id, array, index)

    def aput(self, array: JavaArray, index: int, value: Any) -> None:
        """Write one array element."""
        self._memory.put(self, self._marcel.node_id, array, index, value)

    def aget_range(self, array: JavaArray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        """Bulk read of array elements [lo, hi); accounts one access each."""
        hi = array.num_slots if hi is None else hi
        return self._memory.get_range(self, self._marcel.node_id, array, lo, hi)

    def aput_range(
        self, array: JavaArray, lo: int, hi: int, values: Sequence
    ) -> None:
        """Bulk write of array elements [lo, hi); accounts one access each."""
        self._memory.put_range(self, self._marcel.node_id, array, lo, hi, values)

    def account_accesses(
        self,
        obj,
        count: int,
        lo: int = 0,
        hi: int | None = None,
        write: bool = False,
    ) -> None:
        """Account extra per-element accesses without moving data (see memory)."""
        self._memory.account_accesses(
            self, self._marcel.node_id, obj, count, lo=lo, hi=hi, write=write
        )

    def make_range_updater(
        self,
        arrays: Sequence[JavaArray],
        lo: int,
        hi: int,
        extra: int = 0,
        row_seconds: float = 0.0,
        into: Sequence[JavaArray] | None = None,
    ):
        """Prepared fetch-modify-store closure over a block of rows.

        Returns ``update(transform, extra_obj=None, skip=None)``: for each
        array of *arrays* but position *skip*, ``aget_range`` +
        ``transform`` + ``aput_range`` (for the rows it marks written) +
        ``account_accesses(extra_obj, extra)`` + ``row_seconds`` of CPU, in
        that order, with the whole block moved and charged at once where it
        can be (see ``memory.make_range_updater``).  With *into*, *arrays*
        carry one halo row above and below and ``update(transform)``
        writes ``transform(centre, north, south)`` of each source row into
        its row of *into*, accounting *extra* on the centre row.
        """
        return self._memory.make_range_updater(
            self, self._marcel.node_id, arrays, lo, hi, extra, row_seconds, into
        )

    def replay_segment(
        self,
        entities: Sequence,
        steps: Sequence[tuple],
        extra: int = 0,
        compute_seconds: Mapping[float, float] | None = None,
    ) -> None:
        """Replay a sync-free stretch of script steps in one memory call.

        See ``memory.replay_segment``; *compute_seconds* maps each compute
        step's cycles to the :meth:`compute_seconds` it charges.
        """
        self._memory.replay_segment(
            self, self._marcel.node_id, entities, steps, extra, compute_seconds
        )

    def load(self, obj) -> None:
        """``loadIntoCache``: make *obj* resident on this node."""
        self.runtime.memory.load_into_cache(self, self.node_id, obj)

    # ------------------------------------------------------------------
    # synchronisation (use through ``yield from``)
    # ------------------------------------------------------------------
    def monitor_enter(self, obj) -> Generator:
        """Enter *obj*'s monitor (acquire + cache invalidation)."""
        # _flush is a no-op with nothing pending; skip building it then
        if self._pending_cpu or self._pending_wait:
            yield from self._flush()
        spans = self._spans
        if spans is not None:
            spans.begin(self.thread.name, "monitor_wait")
        yield from self._monitors.enter(self, obj)
        if self._pending_cpu or self._pending_wait:
            yield from self._flush()
        if spans is not None:
            spans.end(self.thread.name, self._engine.now)
        self._memory.invalidate_cache(self, self._marcel.node_id)

    def monitor_exit(self, obj) -> Generator:
        """Exit *obj*'s monitor (flush modifications + release)."""
        self._memory.update_main_memory(self, self._marcel.node_id)
        if self._pending_cpu or self._pending_wait:
            yield from self._flush()
        self._monitors.exit(self, obj)

    def synchronized(self, obj, critical_section: Callable[[], Any]) -> Generator:
        """Run ``critical_section()`` inside *obj*'s monitor.

        The critical section is a plain (non-blocking) callable; for blocking
        critical sections use explicit enter/exit.
        """
        yield from self.monitor_enter(obj)
        try:
            result = critical_section()
        finally:
            yield from self.monitor_exit(obj)
        return result

    def wait(self, obj) -> Generator:
        """``Object.wait()`` with Java-consistency side effects."""
        spans = self._spans
        if spans is not None:
            # app compute carried in from before the wait keeps its default
            # attribution; the update/flush/sleep from here on is the wait
            spans.begin(
                self.thread.name,
                "monitor_wait",
                self._pending_cpu,
                self._pending_wait,
            )
        self.runtime.memory.update_main_memory(self, self.node_id)
        yield from self._flush()
        yield from self.runtime.monitors.wait(self, obj)
        if spans is not None:
            spans.end(self.thread.name, self.runtime.engine.now)
        self.runtime.memory.invalidate_cache(self, self.node_id)

    def notify(self, obj) -> int:
        """``Object.notify()``."""
        return self.runtime.monitors.notify(self, obj)

    def notify_all(self, obj) -> int:
        """``Object.notifyAll()``."""
        return self.runtime.monitors.notify_all(self, obj)

    def barrier(self, barrier: ClusterBarrier) -> Generator:
        """Wait at a :class:`ClusterBarrier` (flush before, invalidate after)."""
        spans = self._spans
        if spans is not None:
            spans.begin(
                self.thread.name,
                "barrier",
                self._pending_cpu,
                self._pending_wait,
            )
        node_id = self._marcel.node_id
        self._memory.update_main_memory(self, node_id)
        if node_id != barrier.home_node:
            self._pending_wait += barrier.round_trip_seconds
        else:
            self._pending_cpu += barrier.local_seconds
        yield from self._flush()
        sanitizer = self.runtime.sanitizer
        if sanitizer is None:
            yield barrier.sim_barrier.wait()
        else:
            # arrival snapshot (post-flush) feeds the episode clock; the
            # resume edge lands just before the acquire-side invalidation
            generation = sanitizer.note_barrier_arrive(node_id, barrier)
            yield barrier.sim_barrier.wait()
            sanitizer.note_barrier_resume(node_id, barrier, generation)
        if spans is not None:
            spans.end(self.thread.name, self._engine.now)
        self._memory.invalidate_cache(self, node_id)

    def join(self, thread: JavaThread) -> Generator:
        """``Thread.join()``: wait for *thread* and see its writes."""
        yield from self._flush()
        spans = self._spans
        if spans is not None:
            spans.begin(self.thread.name, "join")
        yield thread.marcel.completion_event
        if spans is not None:
            spans.end(self.thread.name, self.runtime.engine.now)
        sanitizer = self.runtime.sanitizer
        if sanitizer is not None:
            sanitizer.note_join(self.node_id, thread)
        self.runtime.memory.invalidate_cache(self, self.node_id)
        self.runtime.run_stats.threads.joined += 1
        return thread.result

    def sleep(self, seconds: float) -> Generator:
        """``Thread.sleep()`` in virtual time."""
        check_non_negative("seconds", seconds)
        yield from self._flush()
        spans = self._spans
        if spans is not None:
            spans.begin(self.thread.name, "sleep")
        yield self.runtime.engine.timeout(seconds)
        if spans is not None:
            spans.end(self.thread.name, self.runtime.engine.now)

    # ------------------------------------------------------------------
    # thread management
    # ------------------------------------------------------------------
    def spawn(
        self,
        body: Callable,
        *args: Any,
        node: int | None = None,
        name: str | None = None,
        index: int | None = None,
    ) -> JavaThread:
        """Create and start a new Java thread.

        The target node is chosen by the runtime's load balancer unless
        *node* is given.  The creation cost (including the remote-creation
        RPC when the target is another node) is charged to the creator.
        """
        thread = self.runtime.create_thread(body, args, node=node, name=name, index=index)
        sanitizer = self.runtime.sanitizer
        if sanitizer is not None:
            sanitizer.note_spawn(self.node_id, thread.node_id)
        remote = thread.node_id != self.node_id
        self.charge_wait(self.runtime.cost_model.thread_create_seconds(remote=remote))
        if remote:
            self.runtime.comm.post(
                self.node_id,
                thread.node_id,
                self.runtime.comm.SERVICE_SPAWN_THREAD,
                payload={"name": thread.name},
                request_bytes=256,
            )
            self.runtime.run_stats.threads.remote_created += 1
        return thread

    def migrate(self, destination_node: int) -> Generator:
        """Migrate this thread to *destination_node* (PM2 thread migration)."""
        yield from self._flush()
        spans = self._spans
        if spans is not None:
            spans.begin(self.thread.name, "migration")
        sanitizer = self.runtime.sanitizer
        origin = self.node_id
        yield from self.runtime.migration.migrate(self.thread.marcel, destination_node)
        if spans is not None:
            spans.end(self.thread.name, self.runtime.engine.now)
        if sanitizer is not None:
            sanitizer.note_migrate(origin, self.node_id)
        self.runtime.run_stats.threads.migrations += 1

    # ------------------------------------------------------------------
    # Java API natives
    # ------------------------------------------------------------------
    def arraycopy(self, src, src_pos, dst, dst_pos, length) -> None:
        """``System.arraycopy``."""
        self.runtime.javaapi.arraycopy(self, src, src_pos, dst, dst_pos, length)

    def math(self, name: str, *args) -> float:
        """``java.lang.Math`` native."""
        return self.runtime.javaapi.math(self, name, *args)

    def println(self, message: str) -> None:
        """``System.out.println``."""
        self.runtime.javaapi.println(self, message)

    def current_time_millis(self) -> int:
        """``System.currentTimeMillis`` (virtual)."""
        return self.runtime.javaapi.current_time_millis(self)
