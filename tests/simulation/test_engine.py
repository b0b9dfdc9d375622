"""Tests for the discrete-event engine."""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.ledger import EngineInstrument
from repro.obs.metrics import MetricsRegistry
from repro.simulation.engine import Engine
from repro.simulation.errors import DeadlockError, SimulationError
from repro.simulation.events import SimEvent
from repro.simulation.trace import TraceRecorder


def test_time_starts_at_zero(engine):
    assert engine.now == 0.0
    assert engine.queue_length == 0


def test_timeout_advances_clock(engine):
    engine.timeout(1.5)
    engine.run()
    assert engine.now == pytest.approx(1.5)


def test_events_processed_in_time_order(engine):
    order = []
    engine.call_at(3.0, lambda: order.append("c"))
    engine.call_at(1.0, lambda: order.append("a"))
    engine.call_at(2.0, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo(engine):
    order = []
    for label in "abcde":
        engine.call_at(1.0, lambda l=label: order.append(l))
    engine.run()
    assert order == list("abcde")


def test_run_until_stops_early(engine):
    seen = []
    engine.call_at(1.0, lambda: seen.append(1))
    engine.call_at(5.0, lambda: seen.append(5))
    engine.run(until=2.0)
    assert seen == [1]
    assert engine.now == pytest.approx(2.0)


def test_negative_delay_rejected(engine):
    with pytest.raises(ValueError):
        engine.call_at(-1.0, lambda: None)
    with pytest.raises(ValueError):
        engine.timeout(-0.5)


def test_step_on_empty_queue_raises(engine):
    with pytest.raises(SimulationError):
        engine.step()


def test_double_schedule_rejected(engine):
    event = SimEvent(engine)
    event.succeed()
    with pytest.raises(SimulationError):
        engine.schedule(event)


def test_deadlock_detection():
    engine = Engine()

    def stuck(env):
        yield SimEvent(env)  # never triggered

    engine.process(stuck(engine))
    with pytest.raises(DeadlockError):
        engine.run()


def test_deadlock_error_names_blocked_processes():
    engine = Engine()

    def stuck(env, event):
        yield event

    blocker = SimEvent(engine, name="never-triggered")
    engine.process(stuck(engine, blocker), name="worker-a")
    engine.process(stuck(engine, blocker), name="worker-b")
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    error = excinfo.value
    assert error.process_names == ["worker-a", "worker-b"]
    message = str(error)
    assert "worker-a" in message and "worker-b" in message
    # the waitable each process is blocked on is named too
    assert "never-triggered" in message
    assert len(error.waiting) == 2


def test_deadlock_detection_can_be_disabled():
    engine = Engine(strict_deadlock=False)

    def stuck(env):
        yield SimEvent(env)

    engine.process(stuck(engine))
    engine.run()  # does not raise
    assert engine.now == 0.0


def test_process_failure_propagates(engine):
    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("kaboom")

    engine.process(boom(engine))
    with pytest.raises(SimulationError) as excinfo:
        engine.run()
    assert "kaboom" in str(excinfo.value.__cause__)


def test_step_raises_a_process_failure_like_run(engine):
    def boom(env):
        yield env.timeout(1.0)
        raise ValueError("kaboom")

    engine.process(boom(engine))
    engine.step()  # starts the process
    with pytest.raises(SimulationError, match="kaboom") as excinfo:
        engine.step()  # the timeout resumes it and it fails
    assert isinstance(excinfo.value.__cause__, ValueError)
    assert engine.now == pytest.approx(1.0)


def test_events_processed_counter(engine):
    for _ in range(5):
        engine.timeout(1.0)
    engine.run()
    assert engine.events_processed == 5


def test_run_until_before_now_is_rejected(engine):
    engine.call_at(1.0, lambda: None)
    engine.run()
    with pytest.raises(ValueError, match="lies before now"):
        engine.run(until=0.5)


def test_a_heap_event_due_now_goes_before_one_scheduled_at_now(engine):
    order = []

    def early():
        order.append("early")
        # due at once (1.0 + 1e-300 == 1.0), but scheduled after "late"
        engine.call_at(1e-300, lambda: order.append("now"))

    engine.call_at(1.0, early)
    engine.call_at(1.0, lambda: order.append("late"))
    engine.run()
    assert order == ["early", "late", "now"]
    assert engine.now == 1.0


# ---------------------------------------------------------------------------
# dispatch order: the engine against a one-heap (time, seq) model
# ---------------------------------------------------------------------------
class HeapModel(Engine):
    """The reference order: every event on one heap of ``(time, seq, event)``."""

    def __init__(self, trace=None):
        super().__init__(trace=trace)
        self._model: list = []
        self.kinds: dict[str, int] = {}
        self.peak_depth = -1

    @property
    def queue_length(self):
        return len(self._model)

    def schedule(self, event, delay=0.0):
        event._scheduled = True
        self._seq += 1
        heapq.heappush(self._model, (self._now + delay, self._seq, event))

    def run(self, until=None):
        model = self._model
        while model and (until is None or model[0][0] <= until):
            self._now, _seq, event = heapq.heappop(model)
            self._events_processed += 1
            kind = type(event).__name__
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
            self.peak_depth = max(self.peak_depth, len(model))
            if self.trace is not None:
                self.trace.record(self._now, event)
            callbacks, event.callbacks = event.callbacks, None
            for callback in callbacks:
                callback(event)
        if until is not None and model:
            self._now = until
        return self._now


#: programs drawn per property: a few in tier-1, the loaded profile's count
#: when a profile deeper than Hypothesis' default is loaded
EXAMPLES = (
    settings.default.max_examples
    if settings.default.max_examples > settings.get_profile("default").max_examples
    else 25
)

#: exact ties (sums of binary fractions), zero delays, delays that vanish
#: once the clock is past zero, and arbitrary delays
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 1e-300, 5e-324]),
    st.floats(min_value=0.0, max_value=2.0),
)


def _node(depth: int):
    """An event to schedule, and the events its callback schedules in turn."""
    children = st.lists(_node(depth - 1), max_size=3) if depth else st.just([])
    return st.tuples(st.sampled_from(["call_at", "succeed", "timeout"]), DELAYS, children)


#: a process body: sleep for a delay, or (None) yield the last, already
#: processed event again, which re-delivers it through the queue
PROCESS = st.lists(st.one_of(DELAYS, st.none()), max_size=4)
PROGRAMS = st.tuples(st.lists(_node(2), max_size=5), st.lists(PROCESS, max_size=3))


def _body(engine, steps, name, log):
    last = None
    for index, delay in enumerate(steps):
        if delay is not None or last is None:
            last = engine.timeout(delay or 0.0)
        yield last
        log.append((engine.now, f"{name}.{index}"))


def _load(engine, program) -> list:
    """Schedule *program* on *engine*; returns the log its callbacks fill."""
    nodes, processes = program
    log: list = []
    labels = itertools.count()

    def plant(spec):
        kind, delay, children = spec
        label = f"n{next(labels)}"

        def fire(_event):
            log.append((engine.now, label))
            for child in children:
                plant(child)

        if kind == "call_at":
            engine.call_at(delay, lambda: fire(None), name=label)
        elif kind == "succeed":
            event = engine.event(label)
            event.callbacks.append(fire)
            event.succeed(delay=delay)
        else:
            engine.timeout(delay, name=label).callbacks.append(fire)

    for spec in nodes:
        plant(spec)
    for index, steps in enumerate(processes):
        engine.process(_body(engine, steps, f"p{index}", log), name=f"p{index}")
    return log


@settings(max_examples=EXAMPLES)
@given(PROGRAMS)
def test_run_dispatches_in_time_seq_order(program):
    model = HeapModel()
    expected = _load(model, program)
    model.run()
    engine = Engine()
    log = _load(engine, program)
    assert engine.run() == model.now
    assert log == expected
    assert engine.events_processed == model.events_processed
    assert engine.queue_length == 0


@settings(max_examples=EXAMPLES)
@given(PROGRAMS, st.floats(min_value=0.0, max_value=3.0))
def test_run_until_dispatches_in_time_seq_order(program, until):
    model = HeapModel()
    expected = _load(model, program)
    model.run(until=until)
    paused = (model.now, len(expected), model.queue_length)
    model.run()
    engine = Engine()
    log = _load(engine, program)
    assert engine.run(until=until) == paused[0]
    assert (engine.now, len(log), engine.queue_length) == paused
    engine.run()
    assert log == expected


@settings(max_examples=EXAMPLES)
@given(PROGRAMS)
def test_step_dispatches_in_time_seq_order(program):
    model = HeapModel()
    expected = _load(model, program)
    model.run()
    engine = Engine()
    log = _load(engine, program)
    while engine.queue_length:
        assert engine.step() == engine.now
    assert log == expected
    assert engine.events_processed == model.events_processed


@settings(max_examples=EXAMPLES)
@given(PROGRAMS)
def test_traced_and_metered_runs_match_the_model(program):
    model = HeapModel(trace=TraceRecorder())
    expected = _load(model, program)
    model.run()
    engine = Engine(trace=TraceRecorder())
    instrument = EngineInstrument(MetricsRegistry())
    engine.metrics = instrument
    log = _load(engine, program)
    engine.run()
    assert log == expected
    assert engine.trace.records == model.trace.records
    assert instrument.counts == model.kinds
    assert instrument.peak_depth == model.peak_depth
