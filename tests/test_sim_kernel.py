"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import Interrupt, Simulator
from repro.sim.kernel import SimulationError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_in_runs_at_right_time():
    sim = Simulator()
    seen = []
    sim.call_in(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]


def test_call_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.call_at(3.0, lambda: seen.append(sim.now))
    sim.call_at(1.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0, 3.0]


def test_fifo_order_for_simultaneous_callbacks():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_at(1.0, seen.append, i)
    sim.run()
    assert seen == list(range(10))


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_in(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.call_at(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run(until=20.0)
    assert sim.now == 20.0


def test_run_until_includes_boundary_events():
    sim = Simulator()
    seen = []
    sim.call_at(4.0, seen.append, "x")
    sim.run(until=4.0)
    assert seen == ["x"]


def test_event_succeed_delivers_value():
    sim = Simulator()
    ev = sim.event("e")
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    ev.succeed(42)
    sim.run()
    assert got == [42]
    assert ev.triggered and not ev.failed


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_callback_added_after_trigger_still_runs():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("late")
    sim.run()
    got = []
    ev.add_callback(lambda e: got.append(e.value))
    sim.run()
    assert got == ["late"]


def test_timeout_fires_after_delay():
    sim = Simulator()
    t = sim.timeout(2.5, value="done")
    sim.run()
    assert sim.now == 2.5
    assert t.triggered and t.value == "done"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_process_sequencing_with_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(1.0)
        trace.append(("mid", sim.now))
        yield sim.timeout(2.0)
        trace.append(("end", sim.now))
        return "retval"

    p = sim.process(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.0), ("end", 3.0)]
    assert p.triggered and p.value == "retval"


def test_process_join():
    sim = Simulator()
    result = []

    def child():
        yield sim.timeout(5.0)
        return 99

    def parent():
        value = yield sim.process(child())
        result.append((sim.now, value))

    sim.process(parent())
    sim.run()
    assert result == [(5.0, 99)]


def test_process_waits_on_event_value():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        v = yield ev
        got.append(v)

    sim.process(waiter())
    sim.call_in(2.0, lambda: ev.succeed("hello"))
    sim.run()
    assert got == ["hello"]


def test_failed_event_raises_in_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except ValueError as e:
            caught.append(str(e))

    sim.process(waiter())
    sim.call_in(1.0, lambda: ev.fail(ValueError("boom")))
    sim.run()
    assert caught == ["boom"]


def test_interrupt_delivers_cause():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
        except Interrupt as i:
            log.append((sim.now, i.cause))

    p = sim.process(sleeper())
    sim.call_in(3.0, lambda: p.interrupt("wake"))
    sim.run(until=10.0)
    assert log == [(3.0, "wake")]


def test_interrupted_process_ignores_stale_timeout():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            log.append("timeout-completed")
        except Interrupt:
            yield sim.timeout(1.0)
            log.append(("resumed", sim.now))

    p = sim.process(sleeper())
    sim.call_in(2.0, lambda: p.interrupt())
    sim.run()
    # The original 5s timeout firing at t=5 must not wake the process twice.
    assert log == [("resumed", 3.0)]


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    p = sim.process(quick())
    sim.run()
    p.interrupt()  # must not raise
    sim.run()
    assert p.triggered


def test_all_of_waits_for_every_event():
    sim = Simulator()
    ts = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
    done = sim.all_of(ts)
    sim.run()
    assert done.triggered
    assert done.value == [3.0, 1.0, 2.0]
    assert sim.now == 3.0


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    done = sim.all_of([])
    assert done.triggered and done.value == []


def test_any_of_fires_on_first():
    sim = Simulator()
    fired = []
    done = sim.any_of([sim.timeout(4.0, "slow"), sim.timeout(1.0, "fast")])
    done.add_callback(lambda e: fired.append((sim.now, e.value)))
    sim.run()
    assert fired == [(1.0, "fast")]


def test_run_until_event():
    sim = Simulator()
    ev = sim.event()
    sim.call_in(7.0, lambda: ev.succeed("v"))
    sim.call_in(100.0, lambda: None)
    assert sim.run_until_event(ev) == "v"
    assert sim.now == 7.0


def test_run_until_event_queue_drain_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        sim.run_until_event(ev)


def test_run_until_event_limit_raises():
    sim = Simulator()
    ev = sim.event()
    sim.call_in(50.0, lambda: ev.succeed(None))
    with pytest.raises(SimulationError):
        sim.run_until_event(ev, limit=10.0)


def test_peek_reports_next_time():
    sim = Simulator()
    assert sim.peek() == math.inf
    sim.call_in(2.0, lambda: None)
    assert sim.peek() == 2.0


def test_process_yielding_garbage_fails():
    sim = Simulator()

    def bad():
        yield 42  # not an Event

    p = sim.process(bad())
    sim.run()
    assert p.failed
    assert isinstance(p.value, SimulationError)


def test_all_of_propagates_input_failure():
    sim = Simulator()
    boom = RuntimeError("disk died")
    ok = sim.timeout(1.0, "ok")
    bad = sim.event("bad")
    sim.call_in(2.0, lambda: bad.fail(boom))
    done = sim.all_of([ok, bad])
    caught = []

    def waiter():
        try:
            yield done
        except RuntimeError as exc:
            caught.append(exc)

    sim.process(waiter())
    sim.run()
    assert done.failed and done.value is boom
    assert caught == [boom]


def test_all_of_first_failure_wins():
    sim = Simulator()
    first = RuntimeError("first")
    e1, e2 = sim.event("e1"), sim.event("e2")
    sim.call_in(1.0, lambda: e1.fail(first))
    sim.call_in(2.0, lambda: e2.fail(RuntimeError("second")))
    done = sim.all_of([e1, e2])
    sim.run()
    assert done.failed and done.value is first
    assert sim.now == 2.0  # the late second failure is absorbed, not raised


def test_any_of_propagates_failure_of_first_event():
    sim = Simulator()
    boom = ValueError("fault injected")
    bad = sim.event("bad")
    sim.call_in(1.0, lambda: bad.fail(boom))
    done = sim.any_of([bad, sim.timeout(5.0, "slow")])
    caught = []

    def waiter():
        try:
            yield done
        except ValueError as exc:
            caught.append(exc)

    sim.process(waiter())
    sim.run()
    assert done.failed and done.value is boom
    assert caught == [boom]


def test_any_of_success_before_late_failure():
    sim = Simulator()
    bad = sim.event("bad")
    sim.call_in(3.0, lambda: bad.fail(RuntimeError("late")))
    done = sim.any_of([sim.timeout(1.0, "fast"), bad])
    sim.run()
    assert done.triggered and not done.failed
    assert done.value == "fast"
