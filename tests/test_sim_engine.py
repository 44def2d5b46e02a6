"""Unit tests for the discrete-event engine: time, processes, joins, errors."""

import pytest

from repro.sim import (
    DeadlockError,
    Delay,
    Join,
    Mutex,
    Acquire,
    Release,
    SimError,
    Simulator,
)
from repro.sim.engine import Done, Stepper


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_single_delay_advances_clock():
    sim = Simulator()

    def proc():
        yield Delay(5.0)
        return sim.now

    p = sim.spawn(proc())
    sim.run()
    assert p.done
    assert p.result == pytest.approx(5.0)
    assert sim.now == pytest.approx(5.0)


def test_sequential_delays_accumulate():
    sim = Simulator()
    times = []

    def proc():
        for dt in (1.0, 2.5, 0.5):
            yield Delay(dt)
            times.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert times == pytest.approx([1.0, 3.5, 4.0])


def test_parallel_processes_interleave():
    sim = Simulator()
    order = []

    def proc(name, dt):
        yield Delay(dt)
        order.append((name, sim.now))

    sim.spawn(proc("slow", 10.0))
    sim.spawn(proc("fast", 1.0))
    sim.run()
    assert order == [("fast", pytest.approx(1.0)), ("slow", pytest.approx(10.0))]


def test_zero_delay_is_legal():
    sim = Simulator()

    def proc():
        yield Delay(0.0)
        return "ok"

    p = sim.spawn(proc())
    sim.run()
    assert p.result == "ok"


def test_negative_delay_rejected():
    with pytest.raises(SimError):
        Delay(-1.0)


def test_return_value_through_join():
    sim = Simulator()

    def worker():
        yield Delay(3.0)
        return 42

    def waiter(w):
        result = yield Join(w)
        return (result, sim.now)

    w = sim.spawn(worker())
    j = sim.spawn(waiter(w))
    sim.run()
    assert j.result == (42, pytest.approx(3.0))


def test_join_on_already_finished_process():
    sim = Simulator()

    def worker():
        yield Delay(1.0)
        return "done"

    def late_waiter(w):
        yield Delay(5.0)
        result = yield Join(w)
        return result

    w = sim.spawn(worker())
    j = sim.spawn(late_waiter(w))
    sim.run()
    assert j.result == "done"
    assert sim.now == pytest.approx(5.0)


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def bad():
        yield Delay(1.0)
        raise ValueError("boom")

    def waiter(w):
        with pytest.raises(ValueError, match="boom"):
            yield Join(w)
        return "caught"

    w = sim.spawn(bad())
    j = sim.spawn(waiter(w))
    sim.run()
    assert j.result == "caught"
    assert w.state == "failed"


def test_run_all_reraises_failure():
    sim = Simulator()

    def bad():
        yield Delay(1.0)
        raise RuntimeError("kaput")

    p = sim.spawn(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run_all([p])


def test_yield_from_subgenerator():
    sim = Simulator()

    def inner():
        yield Delay(2.0)
        return 7

    def outer():
        x = yield from inner()
        yield Delay(1.0)
        return x * 2

    p = sim.spawn(outer())
    sim.run()
    assert p.result == 14
    assert sim.now == pytest.approx(3.0)


def test_yielding_garbage_fails_the_process():
    sim = Simulator()

    def proc():
        yield "not a command"

    p = sim.spawn(proc())
    sim.run()
    assert p.state == "failed"
    assert isinstance(p.error, SimError)


def test_run_until_stops_early():
    sim = Simulator()

    def proc():
        yield Delay(100.0)

    p = sim.spawn(proc())
    sim.run(until=10.0)
    assert sim.now == pytest.approx(10.0)
    assert not p.done


def test_deadlock_detection():
    sim = Simulator()
    lock = Mutex(sim, "l")

    def hog():
        yield Acquire(lock)
        # never releases, never finishes: second process deadlocks

    def victim():
        yield Delay(1.0)
        yield Acquire(lock)

    sim.spawn(hog())
    sim.spawn(victim())
    with pytest.raises(DeadlockError):
        sim.run()


def test_max_events_guard():
    sim = Simulator(max_events=100)

    def spinner():
        while True:
            yield Delay(0.001)

    sim.spawn(spinner())
    with pytest.raises(SimError, match="max_events"):
        sim.run()


def test_fifo_event_order_at_same_timestamp():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Delay(1.0)
        order.append(tag)

    for i in range(5):
        sim.spawn(proc(i))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_pids_are_unique():
    sim = Simulator()

    def noop():
        yield Delay(0.0)

    procs = [sim.spawn(noop()) for _ in range(10)]
    assert len({p.pid for p in procs}) == 10


class _Countdown(Stepper):
    """Toy stepper: ``k`` delays of ``dt``, then evaluates to ``k``."""

    __slots__ = ("k", "dt", "left")

    def __init__(self, k, dt):
        self.k = k
        self.dt = dt
        self.left = k

    def step(self, value):
        if not self.left:
            return Done(self.k)
        self.left -= 1
        return Delay(self.dt)


def _countdown_reference(k, dt):
    for _ in range(k):
        yield Delay(dt)
    return k


@pytest.mark.parametrize("use_ready", [True, False])
def test_stepper_matches_its_generator_loop(use_ready):
    """A stepped loop keeps the event stream of the loop it replaces: same
    finish times, same results, same event count; the generator resumes
    only with the result."""

    def run(stepped):
        sim = Simulator(use_ready_queue=use_ready)

        def proc(i):
            yield Delay(0.5 * i)
            if stepped:
                got = yield _Countdown(3 + i, 0.0 if i == 1 else 1.25)
            else:
                got = yield from _countdown_reference(3 + i, 0.0 if i == 1 else 1.25)
            return (got, sim.now)

        procs = [sim.spawn(proc(i)) for i in range(3)]
        sim.run_all(procs)
        return [p.result for p in procs], [p.finish_time for p in procs], sim.events_processed

    assert run(True) == run(False)


def test_stepper_that_never_waits_fails_the_process():
    sim = Simulator()

    def proc():
        yield _Countdown(0, 1.0)

    p = sim.spawn(proc())
    with pytest.raises(SimError, match="without issuing"):
        sim.run_all([p])
    assert p.stream is None


def test_stepper_error_fails_the_process():
    class Broken(_Countdown):
        __slots__ = ()

        def step(self, value):
            if self.left == 1:
                raise SimError("step blew up")
            return super().step(value)

    sim = Simulator()

    def proc():
        yield Broken(3, 1.0)

    p = sim.spawn(proc())
    with pytest.raises(SimError, match="step blew up"):
        sim.run_all([p])
    assert p.finish_time == 2.0 and p.stream is None
