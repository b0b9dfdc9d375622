"""Marcel: PM2's user-level thread package, as discrete-event processes.

Each Marcel thread is a generator-based :class:`~repro.simulation.process.Process`
pinned to a node.  Nodes have a single CPU (the paper's machines are
uniprocessors), modelled as a FIFO :class:`~repro.simulation.resources.Lock`:
a thread acquires the CPU to run a compute segment and releases it while
blocked on communication or synchronisation, which is what gives the
computation/communication overlap explored by the threads-per-node ablation
(paper Section 4.3, "we also plan to study the effects of using more
application threads per node").
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Generator

from repro.simulation.engine import Engine
from repro.simulation.events import SimEvent, Timeout
from repro.simulation.process import Process
from repro.simulation.resources import Lock


@dataclass
class NodeCpu:
    """The CPU of one node: a FIFO resource plus busy-time accounting."""

    node_id: int
    lock: Lock
    busy_seconds: float = 0.0
    dispatches: int = 0


class MarcelThread:
    """A user-level thread pinned to (but migratable between) nodes."""

    _next_tid = 0

    def __init__(self, runtime: "MarcelRuntime", node_id: int, name: str):
        self.runtime = runtime
        self.node_id = node_id
        self.name = name
        self.tid = MarcelThread._next_tid
        MarcelThread._next_tid += 1
        self.process: Process | None = None
        self.migrations = 0
        self.cpu_seconds = 0.0
        self.wait_seconds = 0.0

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the thread body has not finished."""
        return self.process is not None and self.process.is_alive

    @property
    def completion_event(self) -> SimEvent:
        """Event that triggers when the thread body returns (for joining)."""
        if self.process is None:
            raise RuntimeError(f"thread {self.name!r} has not been started")
        return self.process

    def start(self, body: Generator) -> "MarcelThread":
        """Attach the generator *body* and schedule it on the engine."""
        if self.process is not None:
            raise RuntimeError(f"thread {self.name!r} already started")
        self.process = self.runtime.engine.process(body, name=self.name)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MarcelThread {self.name!r} tid={self.tid} node={self.node_id}>"


class MarcelRuntime:
    """Per-cluster thread management: creation, CPU arbitration, accounting."""

    def __init__(self, engine: Engine, num_nodes: int):
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        self.engine = engine
        self.num_nodes = int(num_nodes)
        self.cpus: list[NodeCpu] = [
            NodeCpu(node_id=n, lock=Lock(engine, name=f"cpu{n}")) for n in range(num_nodes)
        ]
        self.threads: list[MarcelThread] = []
        self.threads_per_node: dict[int, int] = {n: 0 for n in range(num_nodes)}

    # ------------------------------------------------------------------
    def create_thread(self, node_id: int, name: str = "") -> MarcelThread:
        """Create (but do not start) a thread pinned to *node_id*."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node {node_id} out of range [0, {self.num_nodes})")
        thread = MarcelThread(self, node_id, name or f"thread-{len(self.threads)}")
        self.threads.append(thread)
        self.threads_per_node[node_id] += 1
        return thread

    def spawn(self, node_id: int, body: Generator, name: str = "") -> MarcelThread:
        """Create and immediately start a thread running *body* on *node_id*."""
        return self.create_thread(node_id, name).start(body)

    def cpu(self, node_id: int) -> NodeCpu:
        """The CPU resource of *node_id*."""
        return self.cpus[node_id]

    # ------------------------------------------------------------------
    # helpers used by thread bodies (as ``yield from`` sub-generators)
    # ------------------------------------------------------------------
    def occupy(
        self, thread: MarcelThread, cpu: float, wait: float, stats=None, spans=None
    ) -> Generator:
        """Run *thread* for *cpu* seconds on its node's CPU, then block *wait*.

        The CPU part holds the node's FIFO CPU lock: with one application
        thread per node (the paper's configuration) it is a plain delay,
        with several it serialises their CPU parts.  The wait part holds no
        CPU.  A part of zero seconds schedules nothing.  *stats* (a
        ``RunStats``) records each part on the node as it starts, and
        *spans* (a ``SpanTracer``) closes each part's span on the thread's
        track as it ends.
        """
        if cpu < 0.0 or wait < 0.0:
            raise ValueError(f"seconds must be >= 0, got cpu={cpu!r}, wait={wait!r}")
        # a thread cannot migrate while it is occupied, so its node holds
        node_id = thread.node_id
        if cpu > 0.0:
            if stats is not None:
                stats.record_cpu(node_id, cpu)
            core = self.cpus[node_id]
            lock = core.lock
            yield lock.acquire(owner=thread)
            yield Timeout(self.engine, cpu)
            core.busy_seconds += cpu
            core.dispatches += 1
            thread.cpu_seconds += cpu
            lock.release()
            if spans is not None:
                spans.flush_cpu(thread.name, cpu, self.engine.now)
        if wait > 0.0:
            if stats is not None:
                stats.record_wait(node_id, wait)
            thread.wait_seconds += wait
            yield Timeout(self.engine, wait)
            if spans is not None:
                spans.flush_wait(thread.name, wait, self.engine.now)

    def join(self, thread: MarcelThread) -> Generator:
        """Wait for *thread* to finish; returns its body's return value."""
        result = yield thread.completion_event
        return result
