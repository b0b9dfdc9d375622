"""Event primitives for the DES kernel.

A :class:`SimEvent` is a one-shot, triggerable occurrence in virtual time.
Processes wait on events by ``yield``-ing them; arbitrary callbacks can also
be attached.  :class:`Timeout` is an event that triggers itself after a fixed
delay.  :class:`AllOf` / :class:`AnyOf` compose events.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulation.engine import Engine

_PENDING = object()


class SimEvent:
    """A one-shot event that can be succeeded or failed exactly once."""

    __slots__ = ("engine", "callbacks", "_value", "_exception", "_scheduled", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self.callbacks: list[Callable[["SimEvent"], None]] | None = []
        self._value: Any = _PENDING
        self._exception: BaseException | None = None
        self._scheduled = False
        self.name = name

    # -- state --------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the engine has delivered the event to its callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._exception is None

    @property
    def value(self) -> Any:
        """The value the event succeeded with."""
        if self._exception is not None:
            return self._exception
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception the event failed with, or None."""
        return self._exception

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "SimEvent":
        """Mark the event successful and schedule delivery after *delay*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._value = value
        self.engine.schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "SimEvent":
        """Mark the event failed and schedule delivery after *delay*."""
        if self.triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self.engine.schedule(self, delay)
        return self

    # -- subscription ---------------------------------------------------------
    def add_callback(self, callback: Callable[["SimEvent"], None]) -> None:
        """Attach *callback*; if the event was already processed, run it via the queue."""
        if self.callbacks is None:
            # Already delivered: schedule an immediate re-delivery so the
            # subscriber still observes the event in virtual time order.
            proxy = SimEvent(self.engine, name=f"redeliver:{self.name}")
            proxy.callbacks.append(callback)
            if self._exception is not None:
                proxy._exception = self._exception
                self.engine.schedule(proxy, 0.0)
            else:
                proxy._value = self._value
                self.engine.schedule(proxy, 0.0)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or self.__class__.__name__
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending"
        )
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(SimEvent):
    """An event that triggers itself ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise ValueError(f"timeout delay must be >= 0, got {delay!r}")
        if not name:
            # the formatted label is only observable through the trace
            # recorder; skip the f-string on the (hot) untraced path
            name = f"timeout({delay:g})" if engine.trace is not None else "timeout"
        # SimEvent's slots, set here without the super().__init__ call:
        # a timeout is the most frequently created event
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._exception = None
        self._scheduled = False
        self.name = name
        self.delay = delay
        engine.schedule(self, delay)


class _Composite(SimEvent):
    """Shared machinery for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, engine: "Engine", events, name: str):
        super().__init__(engine, name=name)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: SimEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Composite):
    """Triggers once every child event has triggered successfully."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events, name: str = "all_of"):
        super().__init__(engine, events, name)

    def _on_child(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({e: e.value for e in self.events})


class AnyOf(_Composite):
    """Triggers as soon as any child event triggers."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events, name: str = "any_of"):
        super().__init__(engine, events, name)

    def _on_child(self, event: SimEvent) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)
            return
        self.succeed({event: event.value})
