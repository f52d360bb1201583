"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Event, Resource, SimulationError, Simulator, Store


def test_timeout_advances_clock():
    sim = Simulator()
    times = []

    def proc(sim):
        yield sim.timeout(1.5)
        times.append(sim.now)
        yield sim.timeout(0.5)
        times.append(sim.now)

    sim.spawn(proc(sim))
    sim.run()
    assert times == [1.5, 2.0]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.schedule(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_early():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda: fired.append(True))
    end = sim.run(until=2.0)
    assert end == 2.0
    assert not fired
    sim.run()
    assert fired


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_process_return_value_via_done_event():
    sim = Simulator()
    results = []

    def worker(sim):
        yield sim.timeout(1.0)
        return 42

    def parent(sim):
        value = yield sim.spawn(worker(sim))
        results.append((sim.now, value))

    sim.spawn(parent(sim))
    sim.run()
    assert results == [(1.0, 42)]


def test_event_fires_once_only():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_fire_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_all_of_waits_for_every_event():
    sim = Simulator()
    seen = []

    def proc(sim):
        done = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
        seen.append((sim.now, done))

    sim.spawn(proc(sim))
    sim.run()
    assert seen == [(3.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    event = sim.all_of([])
    assert event.fired and event.value == []


def test_yielding_non_event_raises():
    sim = Simulator()

    def bad(sim):
        yield 17

    sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append(item)

        store.try_put("x")
        sim.spawn(consumer(sim))
        sim.run()
        assert got == ["x"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def consumer(sim):
            item = yield store.get()
            got.append((sim.now, item))

        def producer(sim):
            yield sim.timeout(2.0)
            store.try_put("y")

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert got == [(2.0, "y")]

    def test_fifo_ordering(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.try_put(i)
        got = []

        def consumer(sim):
            for _ in range(5):
                item = yield store.get()
                got.append(item)

        sim.spawn(consumer(sim))
        sim.run()
        assert got == [0, 1, 2, 3, 4]

    def test_capacity_drop_on_try_put(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        assert store.try_put(1)
        assert store.try_put(2)
        assert not store.try_put(3)
        assert store.stats_dropped == 1
        assert len(store) == 2

    def test_blocking_put_waits_for_space(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        events = []

        def producer(sim):
            yield store.put("a")
            events.append(("a", sim.now))
            yield store.put("b")
            events.append(("b", sim.now))

        def consumer(sim):
            yield sim.timeout(5.0)
            item = yield store.get()
            events.append((item, sim.now, "got"))

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert ("a", 0.0) in events
        assert ("b", 5.0) in events

    @staticmethod
    def _hold_then_pop(put_before_hold):
        """One-slot store holding "a"; a consumer pops it at t=0 under a
        hold until t=5 while a producer puts "b".  Returns when "b" was
        admitted."""
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.try_put("a")
        admitted = []

        def put_b():
            store.put("b").add_callback(
                lambda _event: admitted.append(sim.now))

        def run(sim):
            if put_before_hold:
                put_b()
            store.hold_slot(5.0)
            assert store.try_get() == "a"
            if not put_before_hold:
                put_b()
            yield sim.timeout(10.0)

        sim.spawn(run(sim))
        sim.run()
        return admitted

    def test_hold_slot_admits_putter_at_deadline(self):
        assert self._hold_then_pop(put_before_hold=False) == [5.0]

    @pytest.mark.xfail(strict=True, reason=(
        "hold_slot schedules no wake for a putter that blocked on a "
        "full store before the hold was taken (ROADMAP 'Hold-slot "
        "wake')"))
    def test_hold_slot_admits_earlier_putter_at_deadline(self):
        assert self._hold_then_pop(put_before_hold=True) == [5.0]

    def test_try_get_empty_returns_none(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None

    def test_max_depth_tracking(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(7):
            store.try_put(i)
        assert store.stats_max_depth == 7


class TestResource:
    def test_exclusive_access(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        timeline = []

        def user(sim, name, hold):
            yield resource.acquire()
            timeline.append((name, "start", sim.now))
            yield sim.timeout(hold)
            resource.release()
            timeline.append((name, "end", sim.now))

        sim.spawn(user(sim, "a", 2.0))
        sim.spawn(user(sim, "b", 1.0))
        sim.run()
        assert ("a", "end", 2.0) in timeline
        assert ("b", "start", 2.0) in timeline

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        resource = Resource(sim)
        with pytest.raises(SimulationError):
            resource.release()

    def test_capacity_allows_parallelism(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        ends = []

        def user(sim):
            yield resource.acquire()
            yield sim.timeout(1.0)
            resource.release()
            ends.append(sim.now)

        for _ in range(4):
            sim.spawn(user(sim))
        sim.run()
        assert ends == [1.0, 1.0, 2.0, 2.0]
