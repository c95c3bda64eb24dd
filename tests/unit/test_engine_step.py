"""Cooperative stepping: Simulator.peek()/step()/finish_processes().

The contract the control plane leans on: a ``while sim.step()`` loop
dispatches the exact event order ``run()`` does (including re-entrant
same-cycle scheduling), ``peek`` never advances the clock, and
``finish_processes`` is ``run_until_processes_done``'s deadlock-check
tail, callable after any drive style.
"""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def traced_workload(sim, log, tag, delays):
    for delay in delays:
        yield sim.timeout(delay)
        log.append((sim.now, tag))


def build(log):
    """Three interleaved processes with shared cycles (bucket order
    matters) and a zero-timeout re-entrant tail."""
    sim = Simulator()
    sim.process(traced_workload(sim, log, "a", [5, 0, 5, 10]))
    sim.process(traced_workload(sim, log, "b", [5, 5, 5]))
    sim.process(traced_workload(sim, log, "c", [10, 0, 0]))
    return sim


class TestStepEquivalence:
    def test_step_loop_matches_run(self):
        run_log, step_log = [], []
        reference = build(run_log)
        reference.run()
        sim = build(step_log)
        while sim.step() is not None:
            pass
        assert step_log == run_log
        assert sim.now == reference.now

    def test_bounded_step_loop_matches_bounded_run(self):
        run_log, step_log = [], []
        reference = build(run_log)
        reference.run(until=10)
        sim = build(step_log)
        while (upcoming := sim.peek()) is not None and upcoming <= 10:
            sim.step()
        assert step_log == run_log
        # run(until=) parks the clock on the deadline; a driver doing
        # the same after the loop reproduces its semantics exactly.
        assert reference.now == 10

    def test_step_returns_dispatched_cycle(self):
        sim = Simulator()
        sim.timeout(7)
        assert sim.step() == 7
        assert sim.now == 7
        assert sim.step() is None

    def test_peek_never_advances(self):
        sim = Simulator()
        sim.timeout(3)
        assert sim.peek() == 3
        assert sim.now == 0
        assert sim.peek() == 3  # still there

    def test_peek_empty_queue(self):
        assert Simulator().peek() is None


class TestFinishProcesses:
    def test_clears_finished_processes(self):
        log = []
        sim = build(log)
        while sim.step() is not None:
            pass
        sim.finish_processes()
        assert sim._processes == []

    def test_raises_on_deadlock_naming_the_stuck_process(self):
        sim = Simulator()

        def waiter(sim):
            yield sim.event()  # nobody will ever succeed this

        sim.process(waiter(sim), name="stuck-waiter")
        while sim.step() is not None:
            pass
        with pytest.raises(SimulationError, match="stuck-waiter"):
            sim.finish_processes()

    def test_run_until_processes_done_still_detects_deadlock(self):
        # The refactor: run_until_processes_done = _drain + the shared
        # finish_processes tail. Behavior is unchanged.
        sim = Simulator()

        def waiter(sim):
            yield sim.event()

        sim.process(waiter(sim), name="orphan")
        with pytest.raises(SimulationError, match="orphan"):
            sim.run_until_processes_done()

    def test_horizon_names_limit_and_queued_events(self):
        # Events still queued past ``limit`` mean the horizon cut the
        # run short, not a deadlock; the message must say so.
        sim = Simulator()

        def sleeper(sim):
            yield sim.timeout(500)

        sim.process(sleeper(sim), name="sleeper")
        sim.process(sleeper(sim), name="other-sleeper")
        with pytest.raises(SimulationError,
                           match=r"horizon reached: limit=100 .* 2 events "
                                 r"still queued") as excinfo:
            sim.run_until_processes_done(limit=100)
        assert "deadlock" not in str(excinfo.value)
        assert "sleeper" in str(excinfo.value)
