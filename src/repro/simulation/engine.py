"""The discrete-event engine: a virtual clock plus an event queue."""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from heapq import heappop, heappush
from typing import Any

from repro.simulation.errors import DeadlockError, SimulationError
from repro.simulation.events import SimEvent, Timeout
from repro.simulation.process import Process
from repro.simulation.trace import TraceRecorder


class Engine:
    """Event loop with a monotonically advancing virtual clock.

    Events are delivered in ``(time, seq)`` order: by virtual time, and in
    scheduling order among equal times.  The pending events sit in two
    queues.  An event due at the current time (``now + delay == now``, which
    a vanishing delay such as ``1e-300`` at ``now = 1.0`` also satisfies)
    goes on a FIFO; every other event goes on a heap of ``(time, seq,
    event)``.  Dispatch takes, while the FIFO is non-empty, a heap head with
    ``time <= now`` first and otherwise the FIFO head; once the FIFO is
    empty it pops the heap and advances the clock.

    That is exactly ``(time, seq)`` order.  The clock only advances with an
    empty FIFO, so every FIFO entry was scheduled at the current time, in
    FIFO order, after the clock reached it.  A heap entry due now was pushed
    before the clock reached now (pushed at now it would have gone on the
    FIFO), so it precedes every FIFO entry in scheduling order, and the
    heap yields such entries in ``seq`` order.  A heap entry due later
    follows every FIFO entry in time.  FIFO entries therefore need no
    ``seq``; the heap keeps one for its ties.

    Parameters
    ----------
    trace:
        Optional :class:`~repro.simulation.trace.TraceRecorder`; when given,
        every processed event is recorded (used by tests and by the harness's
        ``--trace`` mode).
    strict_deadlock:
        When True (default), :meth:`run` raises :class:`DeadlockError` if the
        queue drains while processes are still blocked.  Set to False for
        open-ended simulations that are advanced manually with :meth:`step`.
    """

    def __init__(self, trace: TraceRecorder | None = None, strict_deadlock: bool = True):
        self._now: float = 0.0
        #: events due later than now, as (time, seq, event)
        self._heap: list[tuple[float, int, SimEvent]] = []
        #: events due at now, in scheduling order
        self._fifo: deque[SimEvent] = deque()
        self._seq = 0
        self._processes: set = set()
        self._failures: list[tuple[Process, BaseException]] = []
        self.trace = trace
        self.strict_deadlock = strict_deadlock
        self._events_processed = 0
        #: optional telemetry hook (duck-typed: ``record_event(kind, depth)``,
        #: see :class:`repro.obs.ledger.EngineInstrument`).  Like ``trace``,
        #: a non-None hook moves :meth:`run` off its hot configuration.
        self.metrics = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events delivered so far (diagnostic)."""
        return self._events_processed

    @property
    def queue_length(self) -> int:
        """Number of events currently scheduled."""
        return len(self._heap) + len(self._fifo)

    # ------------------------------------------------------------------
    # factory helpers
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh untriggered event bound to this engine."""
        return SimEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        """Create a timeout that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Wrap *generator* in a :class:`Process` and start it at the current time."""
        return Process(self, generator, name=name)

    def call_at(self, delay: float, callback: Callable[[], None], name: str = "") -> SimEvent:
        """Schedule a plain callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        event = SimEvent(self, name=name or "call_at")
        event.callbacks.append(lambda _evt: callback())
        event._value = None
        self.schedule(event, delay)
        return event

    # ------------------------------------------------------------------
    # queue management
    # ------------------------------------------------------------------
    def schedule(self, event: SimEvent, delay: float = 0.0) -> None:
        """Insert *event* into the queue ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        if event._scheduled:
            raise SimulationError(f"{event!r} is already scheduled")
        event._scheduled = True
        now = self._now
        time = now + delay
        if time == now:
            self._fifo.append(event)
        else:
            self._seq = seq = self._seq + 1
            heappush(self._heap, (time, seq, event))

    def step(self) -> float:
        """Process the next event; return the new virtual time.

        Raises :class:`SimulationError` as :meth:`run` does when a process
        has terminated with an unhandled exception (chained as
        ``__cause__``).
        """
        heap = self._heap
        fifo = self._fifo
        if fifo:
            if heap and heap[0][0] <= self._now:
                event = heappop(heap)[2]
            else:
                event = fifo.popleft()
        elif heap:
            time, _seq, event = heappop(heap)
            if time < self._now:  # pragma: no cover - defensive, cannot happen
                raise SimulationError("event scheduled in the past")
            self._now = time
        else:
            raise SimulationError("step() called on an empty event queue")
        callbacks = event.callbacks
        event.callbacks = None
        self._events_processed += 1
        if self.trace is not None:
            self.trace.record(self._now, event)
        if self.metrics is not None:
            self.metrics.record_event(type(event).__name__, len(heap) + len(fifo))
        for callback in callbacks:
            callback(event)
        if self._failures:
            self._raise_failure()
        return self._now

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains (or until virtual time *until*).

        The loop is inlined rather than delegating to :meth:`step`: event
        dispatch is the innermost loop of every simulation, so the queues,
        the pops and the failure list are resolved once, and the trace /
        deadline branches are hoisted out of the common (untraced, unbounded)
        configuration entirely.  Both loops follow the dispatch rule of the
        class docstring.

        Raises
        ------
        ValueError
            If *until* lies before the current time.
        DeadlockError
            If ``strict_deadlock`` is set and processes remain blocked when
            the queue empties.
        SimulationError
            If any process terminated with an unhandled exception; the
            original exception is chained as ``__cause__``.
        """
        now = self._now
        if until is not None and until < now:
            raise ValueError(f"until={until!r} lies before now={now!r}")
        heap = self._heap
        fifo = self._fifo
        pop = heappop
        popleft = fifo.popleft
        trace = self.trace
        metrics = self.metrics
        failures = self._failures
        processed = self._events_processed
        try:
            if until is None and trace is None and metrics is None:
                # the hot configuration: no deadline, no tracing
                while True:
                    if fifo:
                        if heap and heap[0][0] <= now:
                            event = pop(heap)[2]
                        else:
                            event = popleft()
                    elif heap:
                        now, _seq, event = pop(heap)
                        self._now = now
                    else:
                        break
                    callbacks = event.callbacks
                    event.callbacks = None
                    processed += 1
                    for callback in callbacks:
                        callback(event)
                    if failures:
                        self._raise_failure()
            else:
                while True:
                    if fifo:
                        if heap and heap[0][0] <= now:
                            event = pop(heap)[2]
                        else:
                            event = popleft()
                    elif heap:
                        if until is not None and heap[0][0] > until:
                            self._now = until
                            return until
                        now, _seq, event = pop(heap)
                        self._now = now
                    else:
                        break
                    callbacks = event.callbacks
                    event.callbacks = None
                    processed += 1
                    if trace is not None:
                        trace.record(now, event)
                    if metrics is not None:
                        metrics.record_event(type(event).__name__, len(heap) + len(fifo))
                    for callback in callbacks:
                        callback(event)
                    if failures:
                        self._raise_failure()
        finally:
            self._events_processed = processed
        if self.strict_deadlock and self._processes:
            waiting = [p for p in self._processes if p.is_alive]
            if waiting:
                raise DeadlockError(waiting)
        return now

    def _raise_failure(self) -> None:
        """Raise the first recorded process failure (chained)."""
        process, exc = self._failures[0]
        raise SimulationError(
            f"process {process.name!r} failed with "
            f"{type(exc).__name__}: {exc}"
        ) from exc

    # ------------------------------------------------------------------
    # process bookkeeping (used by Process)
    # ------------------------------------------------------------------
    def _register_process(self, process: Process) -> None:
        self._processes.add(process)

    def _unregister_process(self, process: Process) -> None:
        self._processes.discard(process)

    def _report_process_failure(self, process: Process, exc: BaseException) -> None:
        self._failures.append((process, exc))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Engine now={self._now:.6f} queued={self.queue_length} "
            f"processes={len(self._processes)}>"
        )
