"""Virtual-time synchronisation primitives.

These are the building blocks the PM2/Marcel layer exposes as thread
synchronisation and that Hyperion uses to implement Java monitors, barriers
and thread join.  All of them hand out :class:`SimEvent` instances that a
process ``yield``s on.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simulation.engine import Engine
from repro.simulation.events import SimEvent


class Lock:
    """A FIFO mutual-exclusion lock in virtual time."""

    def __init__(self, engine: Engine, name: str = "lock"):
        self.engine = engine
        self.name = name
        self._holder: object | None = None
        self._waiters: deque[tuple[SimEvent, object]] = deque()
        self.acquisitions = 0
        self.contended_acquisitions = 0

    @property
    def locked(self) -> bool:
        """True while some owner holds the lock."""
        return self._holder is not None

    @property
    def holder(self) -> object | None:
        """The token passed to the successful :meth:`acquire`."""
        return self._holder

    @property
    def queue_length(self) -> int:
        """Number of acquirers currently waiting."""
        return len(self._waiters)

    def acquire(self, owner: object = None) -> SimEvent:
        """Return an event that triggers once the caller owns the lock."""
        # the formatted label is only observable through the trace recorder;
        # skip the f-string on the (hot) untraced path
        engine = self.engine
        event = SimEvent(
            engine, f"acquire:{self.name}" if engine.trace is not None else "acquire"
        )
        if self._holder is None:
            self._holder = owner if owner is not None else event
            self.acquisitions += 1
            # succeed(self), without its already-triggered check: the event
            # was created just above
            event._value = self
            engine.schedule(event)
        else:
            self.contended_acquisitions += 1
            self._waiters.append((event, owner))
        return event

    def release(self) -> None:
        """Release the lock and wake the next waiter (FIFO)."""
        if self._holder is None:
            raise RuntimeError(f"release() of unlocked {self.name!r}")
        if self._waiters:
            event, owner = self._waiters.popleft()
            self._holder = owner if owner is not None else event
            self.acquisitions += 1
            event.succeed(self)
        else:
            self._holder = None


class Semaphore:
    """A counting semaphore with FIFO wake-up order."""

    def __init__(self, engine: Engine, value: int = 1, name: str = "semaphore"):
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self.engine = engine
        self.name = name
        self._value = value
        self._waiters: deque[SimEvent] = deque()

    @property
    def value(self) -> int:
        """Current number of available permits."""
        return self._value

    def acquire(self) -> SimEvent:
        """Return an event that triggers once a permit is obtained."""
        event = SimEvent(self.engine, name=f"P:{self.name}")
        if self._value > 0:
            self._value -= 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a permit, waking one waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._value += 1


class FifoStore:
    """An unbounded FIFO queue of items; ``get`` blocks until an item arrives.

    Used as the mailbox underlying PM2 RPC channels.
    """

    def __init__(self, engine: Engine, name: str = "store"):
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[SimEvent] = deque()
        self.total_put = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest waiting getter if any."""
        self.total_put += 1
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> SimEvent:
        """Return an event that triggers with the next item."""
        event = SimEvent(self.engine, name=f"get:{self.name}")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any | None:
        """Non-blocking get; returns None when empty."""
        if self._items:
            return self._items.popleft()
        return None


class Barrier:
    """A reusable cyclic barrier for a fixed number of parties."""

    def __init__(self, engine: Engine, parties: int, name: str = "barrier"):
        if parties < 1:
            raise ValueError(f"barrier needs at least 1 party, got {parties}")
        self.engine = engine
        self.parties = parties
        self.name = name
        self._waiting: list[SimEvent] = []
        self.generations = 0

    @property
    def waiting(self) -> int:
        """Number of parties currently blocked at the barrier."""
        return len(self._waiting)

    def wait(self) -> SimEvent:
        """Return an event that triggers once all parties have arrived."""
        # as in Lock.acquire: the formatted label only reaches the trace
        event = SimEvent(
            self.engine,
            name=f"barrier:{self.name}" if self.engine.trace is not None else "barrier",
        )
        self._waiting.append(event)
        if len(self._waiting) >= self.parties:
            generation = self.generations
            self.generations += 1
            waiters, self._waiting = self._waiting, []
            for waiter in waiters:
                waiter.succeed(generation)
        return event


class CountdownLatch:
    """A one-shot latch released after ``count`` calls to :meth:`count_down`."""

    def __init__(self, engine: Engine, count: int, name: str = "latch"):
        if count < 0:
            raise ValueError(f"latch count must be >= 0, got {count}")
        self.engine = engine
        self.name = name
        self._count = count
        self._waiters: list[SimEvent] = []

    @property
    def count(self) -> int:
        """Remaining count before the latch opens."""
        return self._count

    def count_down(self) -> None:
        """Decrement the count; opens the latch (waking all waiters) at zero."""
        if self._count == 0:
            return
        self._count -= 1
        if self._count == 0:
            waiters, self._waiters = self._waiters, []
            for waiter in waiters:
                waiter.succeed(None)

    def wait(self) -> SimEvent:
        """Return an event that triggers when the count reaches zero."""
        event = SimEvent(self.engine, name=f"latch:{self.name}")
        if self._count == 0:
            event.succeed(None)
        else:
            self._waiters.append(event)
        return event
