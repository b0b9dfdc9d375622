"""Tests for the discrete-event engine."""

import pytest

from repro.simulation.engine import Engine
from repro.simulation.errors import DeadlockError, SimulationError
from repro.simulation.events import SimEvent


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
