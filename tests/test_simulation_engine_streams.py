"""DES core and the piecewise-linear stream buffer model."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.engine import EventQueue, Simulator
from repro.simulation.streams import StreamBuffer


class TestEventQueue:
    def test_time_order(self):
        queue = EventQueue()
        seen = []
        queue.push(2.0, lambda s: seen.append("b"))
        queue.push(1.0, lambda s: seen.append("a"))
        assert queue.pop().time == 1.0
        assert queue.pop().time == 2.0

    def test_fifo_among_simultaneous(self):
        queue = EventQueue()
        queue.push(1.0, lambda s: None, label="first")
        queue.push(1.0, lambda s: None, label="second")
        assert queue.pop().label == "first"
        assert queue.pop().label == "second"

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.push(3.0, lambda s: None)
        assert queue.peek_time() == 3.0
        assert len(queue) == 1
        assert bool(queue)

    def test_fifo_stable_among_many_simultaneous(self):
        # The heap must never compare callbacks: ties on time break on
        # the insertion sequence alone, even at scale.
        queue = EventQueue()
        for i in range(100):
            queue.push(5.0, lambda s: None, label=f"event-{i}")
        labels = [queue.pop().label for _ in range(100)]
        assert labels == [f"event-{i}" for i in range(100)]

    def test_fifo_stable_interleaved_with_other_times(self):
        queue = EventQueue()
        queue.push(9.0, lambda s: None, label="late")
        queue.push(1.0, lambda s: None, label="tie-a")
        queue.push(0.5, lambda s: None, label="early")
        queue.push(1.0, lambda s: None, label="tie-b")
        queue.push(1.0, lambda s: None, label="tie-c")
        labels = [queue.pop().label for _ in range(5)]
        assert labels == ["early", "tie-a", "tie-b", "tie-c", "late"]


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.at(2.0, lambda s: order.append(2))
        sim.at(1.0, lambda s: order.append(1))
        sim.run()
        assert order == [1, 2]
        assert sim.now == 2.0

    def test_after_schedules_relative(self):
        sim = Simulator()
        times = []
        sim.after(1.0, lambda s: (times.append(s.now),
                                  s.after(0.5, lambda s2:
                                          times.append(s2.now))))
        sim.run()
        assert times == [1.0, 1.5]

    def test_run_until(self):
        sim = Simulator()
        seen = []
        sim.at(1.0, lambda s: seen.append(1))
        sim.at(5.0, lambda s: seen.append(5))
        sim.run(until=2.0)
        assert seen == [1]
        assert sim.now == 2.0
        sim.run()
        assert seen == [1, 5]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.at(1.0, lambda s: s.at(0.5, lambda s2: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda s: None)

    def test_event_budget(self):
        sim = Simulator(max_events=10)

        def rearm(s):
            s.after(0.1, rearm)

        sim.after(0.1, rearm)
        with pytest.raises(SimulationError):
            sim.run()

    def test_max_events_validated(self):
        with pytest.raises(ConfigurationError):
            Simulator(max_events=0)

    def test_simultaneous_callbacks_run_in_scheduling_order(self):
        sim = Simulator()
        order = []

        def spawn(s):
            order.append("spawn")
            for i in range(5):
                s.at(3.0, (lambda j: lambda s2: order.append(j))(i))

        sim.at(3.0, spawn)
        sim.run()
        assert order == ["spawn", 0, 1, 2, 3, 4]

    def test_every_rearms_across_run_until_boundaries(self):
        # every() re-arms after each firing, so a recurrence survives
        # repeated bounded run() calls and stays on its grid.
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda s: ticks.append(s.now))
        assert sim.run(until=2.5) == 2.5
        assert ticks == [1.0, 2.0]
        assert sim.now == 2.5
        assert sim.run(until=4.0) == 4.0
        assert ticks == [1.0, 2.0, 3.0, 4.0]
        # The next firing (t=5.0) is armed but beyond the horizon.
        assert sim.run(until=4.5) == 4.5
        assert ticks == [1.0, 2.0, 3.0, 4.0]

    def test_every_with_start_honours_until(self):
        sim = Simulator()
        ticks = []
        sim.every(2.0, lambda s: ticks.append(s.now), start=1.0)
        sim.run(until=6.0)
        assert ticks == [1.0, 3.0, 5.0]


class TestEventQueueEdges:
    """Edge cases of the binary-heap event core."""

    def test_empty_queue_peek_time_after_drain(self):
        queue = EventQueue()
        queue.push(1.0, lambda s: None)
        queue.pop()
        assert queue.peek_time() is None
        assert len(queue) == 0
        assert not queue

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_fifo_at_equal_timestamps(self):
        # Ties must break on insertion sequence alone.
        queue = EventQueue()
        for i in range(50):
            queue.push(5.0, lambda s: None, label=f"tie-{i}")
        assert [queue.pop().label for _ in range(50)] == [
            f"tie-{i}" for i in range(50)]

    def test_far_future_events_drain_in_time_order(self):
        # Events many orders of magnitude apart must still drain in
        # time order, including ties far in the future.
        queue = EventQueue()
        queue.push(5000.0, lambda s: None, label="far-tie-a")
        queue.push(0.0005, lambda s: None, label="near")
        queue.push(5000.0, lambda s: None, label="far-tie-b")
        queue.push(123.456, lambda s: None, label="mid")
        order = [queue.pop().label for _ in range(4)]
        assert order == ["near", "mid", "far-tie-a", "far-tie-b"]

    def test_push_behind_the_last_pop(self):
        # A standalone queue may push a time earlier than events it has
        # already popped; the entry must still come out next.
        queue = EventQueue()
        queue.push(10.0, lambda s: None, label="late")
        queue.push(0.5, lambda s: None, label="first")
        assert queue.pop().label == "first"
        queue.push(0.25, lambda s: None, label="behind")
        assert queue.pop().label == "behind"
        assert queue.pop().label == "late"

    def test_infinite_times_order_at_the_ends(self):
        queue = EventQueue()
        queue.push(float("inf"), lambda s: None, label="end-a")
        queue.push(1.0, lambda s: None, label="soon")
        queue.push(float("-inf"), lambda s: None, label="start")
        queue.push(float("inf"), lambda s: None, label="end-b")
        assert queue.peek_time() == float("-inf")
        assert queue.pop().label == "start"
        assert queue.peek_time() == 1.0
        assert queue.pop().label == "soon"
        assert queue.peek_time() == float("inf")
        assert [queue.pop().label for _ in range(2)] == ["end-a", "end-b"]

    def test_nan_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(float("nan"), lambda s: None)

    def test_every_rearms_on_an_exact_grid(self):
        # Each re-arm adds the interval to the entry's own time; the
        # recurrence must stay on its exact grid.
        sim = Simulator()
        ticks = []
        sim.every(0.25, lambda s: ticks.append(s.now))
        sim.run(until=2.0)
        assert ticks == [0.25 * i for i in range(1, 9)]

    def test_every_interval_must_be_finite(self):
        sim = Simulator()
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(SimulationError):
                sim.every(bad, lambda s: None)

    def test_pop_rearms_recurring_entries(self):
        sim = Simulator()
        sim.every(2.0, lambda s: None, label="tick")
        queue = sim._queue
        first = queue.pop()
        assert (first.time, first.label) == (2.0, "tick")
        second = queue.pop()
        assert (second.time, second.label) == (4.0, "tick")
        assert second.sequence == first.sequence  # same entry, re-armed

    def test_event_budget_consumes_the_over_budget_event(self):
        # The event past the budget advances the clock and the count
        # but its callback never runs.
        sim = Simulator(max_events=2)
        seen = []
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda s: seen.append(s.now))
        with pytest.raises(SimulationError, match="budget of 2"):
            sim.run()
        assert seen == [1.0, 2.0]
        assert (sim.now, sim.events_executed) == (3.0, 3)
        assert len(sim._queue) == 0


class _BruteForceSim:
    """Reference simulator: a plain list popped at ``min((time, seq))``.

    Implements the subset of the :class:`Simulator` API the property
    tests drive, with none of the heap's machinery.
    """

    def __init__(self):
        self.now = 0.0
        self.events_executed = 0
        self._pending = []  # [time, sequence, callback, period]
        self._seq = 0

    def _add(self, time, callback, period):
        self._pending.append([time, self._seq, callback, period])
        self._seq += 1

    def after(self, delay, callback, label=""):
        self._add(self.now + delay, callback, None)

    def every(self, interval, callback, label=""):
        self._add(self.now + interval, callback, interval)

    def run(self, until):
        while self._pending:
            entry = min(self._pending, key=lambda e: (e[0], e[1]))
            if entry[0] > until:
                break
            self._pending.remove(entry)
            self.now = entry[0]
            self.events_executed += 1
            entry[2](self)
            if entry[3] is not None:
                entry[0] += entry[3]
                self._pending.append(entry)
        self.now = max(self.now, until)
        return self.now


class TestHeapMatchesBruteForce:
    """The heap executes the brute-force ``min((time, sequence))`` order."""

    schedules = st.lists(
        st.tuples(st.integers(min_value=0, max_value=40),  # time grid
                  st.integers(min_value=0, max_value=3)),  # pops after
        min_size=1, max_size=60)

    @settings(max_examples=200, deadline=None)
    @given(schedule=schedules)
    def test_push_pop_interleavings_match_brute_force(self, schedule):
        queue = EventQueue()
        reference = []  # (time, sequence, label), popped at the minimum
        got, want = [], []
        for n, (tick, pops) in enumerate(schedule):
            time = tick * 0.125  # exact binary fractions
            queue.push(time, lambda s: None, label=f"e{n}")
            reference.append((time, n, f"e{n}"))
            for _ in range(pops):
                if not queue:
                    break
                event = queue.pop()
                got.append((event.time, event.sequence, event.label))
                expected = min(reference)
                reference.remove(expected)
                want.append(expected)
        while queue:
            event = queue.pop()
            got.append((event.time, event.sequence, event.label))
        want.extend(sorted(reference))
        assert got == want
        assert len(queue) == 0

    sim_programs = st.lists(
        st.tuples(st.integers(min_value=0, max_value=30),   # delay grid
                  st.integers(min_value=0, max_value=2)),   # respawns
        min_size=1, max_size=40)

    @settings(max_examples=150, deadline=None)
    @given(program=sim_programs,
           intervals=st.lists(st.integers(min_value=1, max_value=9),
                              min_size=0, max_size=3),
           horizon=st.integers(min_value=1, max_value=50))
    def test_simulator_traces_match_brute_force(self, program, intervals,
                                                horizon):
        def build(sim):
            trace = []

            def spawn(delay, respawns, tag):
                def cb(s):
                    trace.append((s.now, tag))
                    for j in range(respawns):
                        spawn(delay * 0.5 + j, respawns - 1,
                              f"{tag}.{j}")
                sim.after(delay, cb, tag)

            for n, (delay, respawns) in enumerate(program):
                spawn(delay * 0.25, respawns, f"p{n}")
            for n, period in enumerate(intervals):
                sim.every(period * 0.5,
                          (lambda t: lambda s: trace.append((s.now, t)))(
                              f"tick{n}"))
            sim.run(until=horizon * 0.5)
            sim.run(until=horizon * 0.75)
            return trace, sim.now, sim.events_executed

        assert (build(Simulator(max_events=5_000))
                == build(_BruteForceSim()))


class TestStreamBuffer:
    def test_no_drain_before_playback(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(0.0, 5e6)
        assert buf.level(10.0) == pytest.approx(5e6)

    def test_linear_drain_after_playback(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(0.0, 5e6)
        buf.start_playback(0.0)
        assert buf.level(2.0) == pytest.approx(3e6)

    def test_exact_exhaustion_is_not_underflow(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(0.0, 5e6)
        buf.start_playback(0.0)
        assert buf.level(5.0) == pytest.approx(0.0)
        assert not buf.underflows

    def test_underflow_recorded_with_deficit(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(0.0, 5e6)
        buf.start_playback(0.0)
        buf.level(7.0)
        assert len(buf.underflows) == 1
        event = buf.underflows[0]
        assert event.deficit == pytest.approx(2e6)
        assert event.duration == pytest.approx(2.0)
        assert event.start == pytest.approx(5.0)

    def test_epsilon_deficits_forgiven(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(0.0, 1e6)
        buf.start_playback(0.0)
        buf.level(1.0 + 1e-12)  # rounding-scale overshoot
        assert not buf.underflows

    def test_overflow_raises(self):
        buf = StreamBuffer(0, bit_rate=1e6, capacity=1e6)
        with pytest.raises(SimulationError):
            buf.credit(0.0, 2e6)

    def test_time_cannot_go_backwards(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(5.0, 1e6)
        with pytest.raises(SimulationError):
            buf.level(4.0)

    def test_min_and_peak_levels(self):
        buf = StreamBuffer(0, bit_rate=1e6, capacity=1e7)
        buf.credit(0.0, 4e6)
        buf.start_playback(0.0)
        buf.credit(2.0, 1e6)  # level 2e6 -> 3e6
        buf.level(5.0)  # drains to 0
        assert buf.peak_level == pytest.approx(4e6)
        assert buf.min_level == pytest.approx(0.0)

    def test_playback_start_recorded(self):
        buf = StreamBuffer(0, bit_rate=1e6)
        buf.credit(1.0, 1e6)
        buf.start_playback(1.5)
        assert buf.playback_start == 1.5
        with pytest.raises(SimulationError):
            buf.start_playback(2.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamBuffer(-1, bit_rate=1e6)
        with pytest.raises(ConfigurationError):
            StreamBuffer(0, bit_rate=0)
        with pytest.raises(ConfigurationError):
            StreamBuffer(0, bit_rate=1e6, capacity=0)
        buf = StreamBuffer(0, bit_rate=1e6)
        with pytest.raises(ConfigurationError):
            buf.credit(0.0, -1)
