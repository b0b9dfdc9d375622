"""The discrete-event engine: a virtual clock plus an event queue."""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator
from typing import Any

from repro.simulation.errors import DeadlockError, SimulationError
from repro.simulation.events import SimEvent, Timeout
from repro.simulation.process import Process
from repro.simulation.trace import TraceRecorder


class Engine:
    """Event loop with a monotonically advancing virtual clock.

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
        self._queue: list[tuple[float, int, SimEvent]] = []
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
        return len(self._queue)

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
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))

    def step(self) -> float:
        """Process the next event; return the new virtual time.

        Raises :class:`SimulationError` as :meth:`run` does when a process
        has terminated with an unhandled exception (chained as
        ``__cause__``).
        """
        if not self._queue:
            raise SimulationError("step() called on an empty event queue")
        time, _seq, event = heapq.heappop(self._queue)
        if time < self._now:  # pragma: no cover - defensive, cannot happen
            raise SimulationError("event scheduled in the past")
        self._now = time
        callbacks = event.callbacks
        event.callbacks = None
        self._events_processed += 1
        if self.trace is not None:
            self.trace.record(time, event)
        if self.metrics is not None:
            self.metrics.record_event(type(event).__name__, len(self._queue))
        for callback in callbacks:
            callback(event)
        if self._failures:
            self._raise_failure()
        return self._now

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains (or until virtual time *until*).

        The loop is inlined rather than delegating to :meth:`step`: event
        dispatch is the innermost loop of every simulation, so the queue, the
        heap-pop and the failure list are resolved once, and the trace /
        deadline branches are hoisted out of the common (untraced, unbounded)
        configuration entirely.

        Raises
        ------
        DeadlockError
            If ``strict_deadlock`` is set and processes remain blocked when
            the queue empties.
        SimulationError
            If any process terminated with an unhandled exception; the
            original exception is chained as ``__cause__``.
        """
        queue = self._queue
        pop = heapq.heappop
        trace = self.trace
        metrics = self.metrics
        failures = self._failures
        processed = self._events_processed
        exhausted = False
        try:
            if until is None and trace is None and metrics is None:
                # the hot configuration: no deadline, no tracing
                while queue:
                    time, _seq, event = pop(queue)
                    self._now = time
                    callbacks = event.callbacks
                    event.callbacks = None
                    processed += 1
                    for callback in callbacks:
                        callback(event)
                    if failures:
                        self._raise_failure()
                exhausted = True
            else:
                while queue:
                    if until is not None and queue[0][0] > until:
                        self._now = until
                        break
                    time, _seq, event = pop(queue)
                    self._now = time
                    callbacks = event.callbacks
                    event.callbacks = None
                    processed += 1
                    if trace is not None:
                        trace.record(time, event)
                    if metrics is not None:
                        metrics.record_event(type(event).__name__, len(queue))
                    for callback in callbacks:
                        callback(event)
                    if failures:
                        self._raise_failure()
                else:
                    exhausted = True
        finally:
            self._events_processed = processed
        if exhausted and self.strict_deadlock and self._processes:
            waiting = [p for p in self._processes if p.is_alive]
            if waiting:
                raise DeadlockError(waiting)
        return self._now

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
            f"<Engine now={self._now:.6f} queued={len(self._queue)} "
            f"processes={len(self._processes)}>"
        )
