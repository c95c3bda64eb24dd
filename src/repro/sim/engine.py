"""A small discrete-event simulation engine.

The engine models time in *cycles* (integers). Simulated activities are
Python generators ("processes") that yield :class:`Event` objects; the
engine resumes a process when the event it is waiting on fires. This is the
substrate under the NPU chip model: cores, DMA engines, NoC links and the
NPU controller all run as processes.

The design intentionally mirrors a tiny subset of SimPy:

- :meth:`Simulator.process` registers a generator as a process.
- A process yields ``sim.timeout(n)`` to advance ``n`` cycles,
  ``sim.event()`` (triggered later by another process), or another
  process handle to join it.
- :meth:`Simulator.run` drives the event loop until no events remain, a
  deadline is reached, or every process has finished.

Scheduler data structure
------------------------
Events live in a **calendar queue**: one FIFO bucket (a plain list) per
distinct cycle, plus a min-heap of the occupied cycles. Dispatch order is
the exact ``(cycle, sequence)`` total order of the original binary-heap
engine — all events at cycle *c* fire before any at *c' > c*, and within
one cycle events fire in scheduling order, because appends to a bucket
happen in sequence order by construction. The win over a heap: one heap
operation per *occupied cycle* instead of two per *event*, so same-cycle
bursts (the serving schedulers' timeout-hot loops, broadcast fan-outs)
are drained in a single bucket sweep. Events scheduled *at the current
cycle from inside the sweep* (zero timeouts, ``succeed`` at ``now``) are
appended to the live bucket and drained by the same sweep, exactly as
the heap dispatched them.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim):
...     yield sim.timeout(5)
...     log.append(sim.now)
>>> _ = sim.process(worker(sim))
>>> sim.run()
>>> log
[5]
"""

from __future__ import annotations

from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any

from repro.errors import SimulationError

ProcessGenerator = Generator["Event", Any, Any]


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* at most once, optionally carrying a value.
    Any number of processes may wait on the same event; all are resumed
    (in registration order) when it fires.

    Waiters are stored in a single ``_callback`` slot with an ``_extra``
    overflow list: nearly every event on the hot path (timeouts, process
    completions, resource grants) has exactly one waiter, so the common
    case allocates no list at all.
    """

    __slots__ = ("sim", "_callback", "_extra", "triggered", "_dispatched",
                 "value", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callback = None
        self._extra: list | None = None
        self.triggered = False
        self._dispatched = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now, waking all waiters at the current cycle."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        # Inlined self.sim._schedule(self.sim.now, self): succeed fires on
        # every process completion and resource grant, so the extra method
        # call is measurable engine-wide.
        sim = self.sim
        cycle = sim.now
        buckets = sim._buckets
        bucket = buckets.get(cycle)
        if bucket is None:
            buckets[cycle] = [self]
            heappush(sim._cycle_heap, cycle)
        else:
            bucket.append(self)
        return self

    def add_callback(self, callback) -> None:
        """Register a waiter; late registration still delivers the value.

        If the event has already been dispatched, the callback is delivered
        through a fresh proxy event at the current cycle so that joining an
        already-finished process (or re-waiting a fired event) never hangs.
        """
        if self._dispatched:
            proxy = Event(self.sim, name=f"late:{self.name}")
            proxy._callback = callback
            proxy.succeed(self.value)
        elif self._callback is None:
            self._callback = callback
        elif self._extra is None:
            self._extra = [callback]
        else:
            self._extra.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires a fixed number of cycles in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Timeouts are the hot path (every compute/DMA/NoC wait makes
        # one); inlining Event.__init__ *and* the bucket insertion here —
        # constant name, no super() call, no method dispatch — is worth
        # ~25% engine throughput. Kept in lockstep with Event by
        # test_sim_engine's slot-initialization check: a new Event field
        # must be initialized here too.
        self.sim = sim
        self.name = "timeout"
        self._callback = None
        self._extra = None
        self.triggered = True
        self._dispatched = False
        self.value = None
        delay = int(delay)
        self.delay = delay
        cycle = sim.now + delay
        buckets = sim._buckets
        bucket = buckets.get(cycle)
        if bucket is None:
            buckets[cycle] = [self]
            heappush(sim._cycle_heap, cycle)
        else:
            bucket.append(self)


class Process(Event):
    """A running generator. Also an event: it fires when the generator ends.

    The value of the event is the generator's return value (``StopIteration``
    payload), so processes can be joined with ``result = yield other_proc``.

    ``_send`` and ``_resume_cb`` cache the generator's bound ``send`` and
    this process's bound ``_resume``: both would otherwise be re-created
    on every event the process waits on.
    """

    __slots__ = ("generator", "alive", "_send", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self.generator = generator
        self.alive = True
        self._send = generator.send
        self._resume_cb = self._resume
        # Kick off the process at the current cycle.
        bootstrap = Event(sim, name=f"start:{self.name}")
        bootstrap._callback = self._resume_cb
        bootstrap.succeed()

    def _resume(self, event: Event) -> None:
        try:
            target = self._send(event.value)
        except StopIteration as stop:
            self.alive = False
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected an Event"
            )
        target.add_callback(self._resume_cb)


class _AllOfState:
    """Countdown shared by one ``all_of`` gate: a plain int decrement."""

    __slots__ = ("gate", "results", "remaining")

    def __init__(self, gate: Event, count: int) -> None:
        self.gate = gate
        self.results: list[Any] = [None] * count
        self.remaining = count


class _AllOfWaiter:
    """Per-event callback for ``all_of`` — a ``__slots__`` callable.

    Replaces the previous dict-based countdown closure (one dict plus one
    closure cell per gate, one closure per event) on the broadcast hot
    path with two fixed-slot objects and an int decrement.
    """

    __slots__ = ("state", "index")

    def __init__(self, state: _AllOfState, index: int) -> None:
        self.state = state
        self.index = index

    def __call__(self, event: Event) -> None:
        state = self.state
        state.results[self.index] = event.value
        state.remaining -= 1
        if not state.remaining:
            state.gate.succeed(state.results)


class Simulator:
    """The event loop: a calendar queue of per-cycle FIFO buckets.

    ``_buckets`` maps cycle -> list of events scheduled for that cycle in
    scheduling (sequence) order; ``_cycle_heap`` is a min-heap of the
    occupied cycles. A cycle is pushed exactly once (when its bucket is
    created) and popped exactly once (when its bucket is drained), so the
    heap never holds duplicates or stale entries.
    """

    def __init__(self) -> None:
        self.now: int = 0
        self._buckets: dict[int, list[Event]] = {}
        self._cycle_heap: list[int] = []
        self._processes: list[Process] = []

    # -- construction -----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create an untriggered event (fired later via ``succeed``)."""
        return Event(self, name=name)

    def timeout(self, delay: int) -> Timeout:
        """An event that fires ``delay`` cycles from now."""
        return Timeout(self, delay)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current cycle."""
        proc = Process(self, generator, name=name)
        self._processes.append(proc)
        return proc

    # -- scheduling --------------------------------------------------------
    def _schedule(self, cycle: int, event: Event) -> None:
        """Append ``event`` to the cycle's bucket (creating it if needed).

        The hot constructors (``Timeout.__init__``, ``Event.succeed``)
        inline this body; keep them in lockstep when changing it.
        """
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [event]
            heappush(self._cycle_heap, cycle)
        else:
            bucket.append(event)

    def _drain(self, until: int | None) -> int:
        """Dispatch buckets in cycle order; the shared engine core.

        Each occupied cycle is drained in one sweep: iterating the bucket
        list picks up events appended *during* the sweep (re-entrant
        same-cycle scheduling), which is exactly where the heap engine
        would have dispatched them. Does not advance ``now`` past the
        last dispatched cycle when the queue empties — callers decide
        whether the deadline is a target time (:meth:`run`) or a safety
        horizon (:meth:`run_until_processes_done`).
        """
        cycle_heap = self._cycle_heap
        buckets = self._buckets
        if until is None:
            while cycle_heap:
                cycle = heappop(cycle_heap)
                self.now = cycle
                bucket = buckets[cycle]
                for event in bucket:
                    event._dispatched = True
                    callback = event._callback
                    if callback is not None:
                        callback(event)
                        extra = event._extra
                        if extra is not None:
                            for cb in extra:
                                cb(event)
                del buckets[cycle]
            return self.now
        while cycle_heap:
            cycle = cycle_heap[0]
            if cycle > until:
                self.now = until
                return self.now
            heappop(cycle_heap)
            self.now = cycle
            bucket = buckets[cycle]
            for event in bucket:
                event._dispatched = True
                callback = event._callback
                if callback is not None:
                    callback(event)
                    extra = event._extra
                    if extra is not None:
                        for cb in extra:
                            cb(event)
            del buckets[cycle]
        return self.now

    # -- cooperative stepping ----------------------------------------------
    def peek(self) -> int | None:
        """The next occupied cycle, or ``None`` when the queue is empty.

        Never advances the clock; the cooperative-driver companion to
        :meth:`step` (an asyncio control plane peeks to decide how long
        to sleep before dispatching the next bucket).
        """
        return self._cycle_heap[0] if self._cycle_heap else None

    def step(self) -> int | None:
        """Dispatch exactly one bucket (one occupied cycle); return its
        cycle, or ``None`` when the queue is empty.

        The sweep is the same code path as :meth:`_drain`'s inner loop —
        events appended to the live bucket mid-sweep are drained by the
        same sweep — so ``while sim.step() is not None: ...`` dispatches
        the exact event order ``run()`` does. This is the yield point a
        cooperative driver needs: between buckets the queue is parked in
        a snapshot-valid state and control can return to an event loop.
        """
        if not self._cycle_heap:
            return None
        buckets = self._buckets
        cycle = heappop(self._cycle_heap)
        self.now = cycle
        bucket = buckets[cycle]
        for event in bucket:
            event._dispatched = True
            callback = event._callback
            if callback is not None:
                callback(event)
                extra = event._extra
                if extra is not None:
                    for cb in extra:
                        cb(event)
        del buckets[cycle]
        return cycle

    def finish_processes(self) -> None:
        """Deadlock check + process-list reset after a drained queue.

        The tail of :meth:`run_until_processes_done`, callable on its
        own by drivers that advanced the clock through :meth:`step` or
        :meth:`run`: raises :class:`SimulationError` naming any process
        still waiting, otherwise clears the (now all finished) process
        list so long-lived simulators don't scan it forever.
        """
        stuck = [p.name for p in self._processes if p.alive]
        if stuck:
            raise SimulationError(
                f"deadlock at cycle {self.now}: processes still waiting: {stuck}"
            )
        # Every process finished: drop them so long-lived simulators (a
        # serving loop spawns one process per session) don't scan an
        # ever-growing list on the next call.
        self._processes.clear()

    def run(self, until: int | None = None) -> int:
        """Drive the loop; returns the final cycle.

        ``until`` bounds simulated time; events scheduled beyond it remain
        queued (useful for sampling a steady state). After a bounded run
        the clock always reads ``until`` — even when the queue drained
        early — so steady-state sampling loops never observe a stale
        ``now`` (SimPy semantics).
        """
        final = self._drain(until)
        if until is not None and final < until:
            self.now = until
        return self.now

    def run_until_processes_done(self, limit: int = 10_000_000_000) -> int:
        """Run until every registered process finished; detect deadlock.

        Raises :class:`SimulationError` if the queue drains while some
        process is still alive (a wait that nobody will ever satisfy).
        ``limit`` is a safety horizon, not a target time: when the queue
        drains early the clock stays at the last dispatched cycle (so
        makespans and deadlock reports name the real final cycle, not the
        horizon). A live process with events still queued past ``limit``
        is not a deadlock: that error names the horizon and the queued
        event count instead.
        """
        self._drain(limit)
        if self._cycle_heap:
            stuck = [p.name for p in self._processes if p.alive]
            if stuck:
                queued = sum(len(b) for b in self._buckets.values())
                raise SimulationError(
                    f"horizon reached: limit={limit} stopped the run with "
                    f"{queued} events still queued; processes still "
                    f"running: {stuck}"
                )
        self.finish_processes()
        return self.now

    def all_of(self, events: list[Event], name: str = "all_of") -> Event:
        """An event that fires once every event in ``events`` has fired."""
        gate = self.event(name=name)
        if not events:
            gate.succeed([])
            return gate
        state = _AllOfState(gate, len(events))
        for index, ev in enumerate(events):
            ev.add_callback(_AllOfWaiter(state, index))
        return gate
