"""Generator-based cooperative processes.

A process wraps a Python generator.  The generator ``yield``s *waitables*
(:class:`~repro.simulation.events.SimEvent` instances, including timeouts,
lock-acquisition events, and other processes); the kernel resumes the
generator with the waitable's value once it triggers.  A process is itself a
:class:`SimEvent` that triggers when the generator returns, so processes can
be joined simply by yielding them.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import TYPE_CHECKING, Any

from repro.simulation.errors import InterruptError, SimulationError
from repro.simulation.events import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.engine import Engine


class Process(SimEvent):
    """A running generator in virtual time."""

    __slots__ = ("generator", "_send", "_waiting_on", "_started", "_dead", "_resume_cb")

    def __init__(self, engine: "Engine", generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                "Process requires a generator (did you forget to call the "
                f"generator function?), got {type(generator).__name__}"
            )
        super().__init__(engine, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self._send = generator.send
        self._waiting_on: SimEvent | None = None
        self._started = False
        self._dead = False
        #: ``_resume`` bound once (like ``_send``): it is subscribed at
        #: every yield
        self._resume_cb = self._resume
        # Kick the process off via the event queue so that creation order is
        # preserved but nothing runs before Engine.run().
        start = SimEvent(engine, name=f"start:{self.name}")
        start.callbacks.append(self._resume_cb)
        start._value = None
        engine.schedule(start, 0.0)
        engine._register_process(self)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished or been killed."""
        return not self._dead

    @property
    def waiting_on(self) -> SimEvent | None:
        """The waitable this process is currently blocked on (for diagnostics)."""
        return self._waiting_on

    # ------------------------------------------------------------------
    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`InterruptError` into the process at the current time."""
        if self._dead:
            return
        event = SimEvent(self.engine, name=f"interrupt:{self.name}")
        event._exception = InterruptError(cause)
        event.callbacks.append(self._resume_cb)
        self.engine.schedule(event, 0.0)

    # ------------------------------------------------------------------
    def _resume(self, event: SimEvent) -> None:
        """Advance the generator with the value (or exception) of *event*."""
        if self._dead:
            return
        self._started = True
        self._waiting_on = None
        try:
            if event._exception is None:
                target = self._send(event._value)
            else:
                target = self.generator.throw(event._exception)
        except StopIteration as stop:
            self._finish(value=stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate through event
            self._finish(exception=exc)
            return

        if not isinstance(target, SimEvent):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield SimEvent instances (timeouts, locks, processes, ...)"
            )
            self._finish(exception=exc)
            return
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is not None:
            callbacks.append(self._resume_cb)
        else:  # already processed: add_callback re-delivers it via the queue
            target.add_callback(self._resume_cb)

    def _finish(self, value: Any = None, exception: BaseException | None = None) -> None:
        self._dead = True
        self.engine._unregister_process(self)
        if exception is not None:
            if not self.triggered:
                self.fail(exception)
            self.engine._report_process_failure(self, exception)
        else:
            if not self.triggered:
                self.succeed(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self._dead else ("running" if self._started else "new")
        return f"<Process {self.name!r} {state}>"
