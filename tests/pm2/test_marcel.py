"""Tests for the Marcel thread layer."""

import pytest

from repro.pm2.marcel import MarcelRuntime
from repro.simulation.engine import Engine


def test_thread_creation_and_affinity():
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=3)
    t0 = marcel.create_thread(0, name="a")
    t1 = marcel.create_thread(2, name="b")
    assert t0.node_id == 0 and t1.node_id == 2
    assert marcel.threads_per_node == {0: 1, 1: 0, 2: 1}
    with pytest.raises(ValueError):
        marcel.create_thread(7)


def test_spawn_runs_body_to_completion():
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=1)

    def body():
        yield engine.timeout(2.0)
        return "finished"

    thread = marcel.spawn(0, body(), name="t")
    engine.run()
    assert not thread.is_alive
    assert thread.process.value == "finished"


def test_occupy_serialises_cpu_parts_on_one_node():
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=1)
    completions = []

    def body(name):
        thread = threads[name]
        yield from marcel.occupy(thread, 2.0, 0.0)
        completions.append((name, engine.now))

    threads = {}
    for name in ("x", "y"):
        threads[name] = marcel.create_thread(0, name=name)
    for name in ("x", "y"):
        threads[name].start(body(name))
    engine.run()
    assert completions[0][1] == pytest.approx(2.0)
    assert completions[1][1] == pytest.approx(4.0)
    assert marcel.cpu(0).busy_seconds == pytest.approx(4.0)


def test_occupy_wait_part_does_not_hold_cpu():
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=1)
    completions = []

    def body(name):
        thread = threads[name]
        yield from marcel.occupy(thread, 0.0, 3.0)
        completions.append((name, engine.now))

    threads = {name: marcel.create_thread(0, name=name) for name in ("x", "y")}
    for name, thread in threads.items():
        thread.start(body(name))
    engine.run()
    # both waits overlap: both complete at t=3
    assert [t for _, t in completions] == [3.0, 3.0]
    assert marcel.cpu(0).busy_seconds == 0.0


def test_occupy_releases_the_cpu_before_its_wait_part():
    """The second thread's CPU part runs while the first one waits."""
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=1)
    completions = {}

    def body(name):
        yield from marcel.occupy(threads[name], 2.0, 5.0)
        completions[name] = engine.now

    threads = {name: marcel.create_thread(0, name=name) for name in ("x", "y")}
    for name, thread in threads.items():
        thread.start(body(name))
    engine.run()
    assert completions == {"x": 7.0, "y": 9.0}
    assert (threads["x"].cpu_seconds, threads["x"].wait_seconds) == (2.0, 5.0)
    with pytest.raises(ValueError):
        next(marcel.occupy(threads["x"], -1.0, 0.0))


def test_join_returns_body_value():
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=2)

    def child():
        yield engine.timeout(1.0)
        return 7

    def parent():
        value = yield from marcel.join(child_thread)
        return value * 2

    child_thread = marcel.spawn(1, child(), name="child")
    parent_thread = marcel.spawn(0, parent(), name="parent")
    engine.run()
    assert parent_thread.process.value == 14


def test_join_unstarted_thread_raises():
    engine = Engine()
    marcel = MarcelRuntime(engine, num_nodes=1)
    thread = marcel.create_thread(0)
    with pytest.raises(RuntimeError):
        _ = thread.completion_event
