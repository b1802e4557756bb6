"""Discrete event simulation engine.

This is the substrate of the "digital twin" used throughout the paper's
evaluation (Section 7): a classic monotonic event-queue simulator. Time is a
float in seconds; there is no wall clock. Entities schedule callbacks and the
simulation advances by popping the earliest event.

The engine is deliberately small and deterministic:

* events with equal timestamps fire in scheduling order (a monotonically
  increasing sequence number breaks ties), so a run is fully reproducible;
* cancellation is O(1) (lazy deletion via a ``cancelled`` flag);
* ``Process`` offers a generator-based coroutine layer on top of raw events
  for entities whose behaviour reads naturally as sequential code (e.g. a
  shuttle trip: move, pick, move, place).

The pending-event set is one :class:`HeapBackend`: a binary heap of
``(time, seq, event)`` tuples, so it dequeues in exactly ``(time, seq)``
order. A sorted-list reference engine in the hypothesis suite
(``tests/test_properties.py``) replays random schedule/cancel/run programs
against it and pins fire order, clock, sampler ticks and engine counters.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from time import monotonic, perf_counter
from time import sleep as _wall_sleep
from typing import Any, Callable, Generator, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulation engine (e.g. past scheduling)."""


#: Label suffixes the engine's own machinery appends when scheduling on
#: behalf of an entity: :class:`Process` completion hops and
#: :class:`Resource` grant callbacks. The phase profiler attributes any
#: label carrying one of these (plus unlabeled events) to the "engine"
#: subsystem in the wall-share table.
ENGINE_LABEL_SUFFIXES = (":grant", ":late-done")


class Event:
    """A scheduled callback.

    Events sort by ``(time, seq)``; the payload fields do not participate in
    ordering. Use :meth:`cancel` to revoke an event that has not fired yet.

    A ``__slots__`` class (not a dataclass): hundreds of thousands of these
    are queued per run, and dropping the per-instance ``__dict__`` keeps the
    event queue's memory footprint flat.
    """

    __slots__ = ("time", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = cancelled

    def __repr__(self) -> str:
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def cancel(self) -> None:
        """Revoke this event. Safe to call multiple times."""
        self.cancelled = True


#: Queue entries are ``(time, seq, event)`` tuples rather than Event
#: objects so heap ordering compares plain floats/ints at C speed
#: instead of calling ``Event.__lt__`` (which dominated the event loop at
#: ~2.5M calls per fig9 run before the tuple representation).
QueueEntry = Tuple[float, int, "Event"]


class HeapBackend:
    """The engine's pending-event set (C-speed ``heapq`` on tuples).

    Cancellation is lazy: flagged entries are skipped at dequeue time and
    counted. The three plain-int counters — ``pushes``, ``pops``,
    ``cancelled_skips`` — are pure functions of the schedule/cancel
    sequence, so they are deterministic under a pinned seed and published
    by the kernel as the ``sim_engine_*`` gauges.
    """

    __slots__ = ("_heap", "pushes", "pops", "cancelled_skips")

    def __init__(self) -> None:
        self._heap: List[QueueEntry] = []
        self.pushes = 0
        self.pops = 0
        self.cancelled_skips = 0

    def __len__(self) -> int:
        """Entries held, stale ones included."""
        return len(self._heap)

    def push(self, time: float, seq: int, event: Event) -> None:
        """Insert an entry."""
        self.pushes += 1
        heapq.heappush(self._heap, (time, seq, event))

    def restore(self, entry: QueueEntry) -> None:
        """Re-insert a just-popped entry without counting a push."""
        heapq.heappush(self._heap, entry)

    def pop(self) -> Optional[QueueEntry]:
        """Earliest live entry (cancelled heads skipped and counted)."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = pop(heap)
            if entry[2].cancelled:
                self.cancelled_skips += 1
                continue
            self.pops += 1
            return entry
        return None

    def peek(self) -> Optional[float]:
        """Time of the earliest live entry (cancelled heads discarded)."""
        heap = self._heap
        while heap:
            if heap[0][2].cancelled:
                heapq.heappop(heap)
                self.cancelled_skips += 1
                continue
            return heap[0][0]
        return None


class Simulation:
    """An event-queue discrete event simulator.

    Example::

        sim = Simulation()
        sim.schedule(5.0, lambda: print("five seconds in"))
        sim.run()
    """

    def __init__(self) -> None:
        self._backend = HeapBackend()
        # Bound-method shortcut: ``schedule`` runs once per event created,
        # so the extra ``_backend.push`` attribute hop is worth skipping.
        self._push = self._backend.push
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0
        self._run_wall_seconds = 0.0
        #: Optional wall-clock observer hook ``(label, wall_seconds) -> None``
        #: (see :class:`repro.observability.profiler.WallClockProfiler`).
        #: None (the default) costs one pointer comparison per event.
        self.observer: Optional[Callable[[str, float], None]] = None
        #: Optional sim-time sampler installed by :meth:`set_sampler`:
        #: a mutable ``[next_due_time, callback]`` pair, or None (the
        #: default, costing one comparison of a loop-local per event).
        self._sampler: Optional[List[Any]] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._events_processed

    @property
    def run_wall_seconds(self) -> float:
        """Cumulative wall-clock seconds spent inside :meth:`run`."""
        return self._run_wall_seconds

    @property
    def events_per_second(self) -> float:
        """Event-loop throughput: events fired per wall-clock second.

        Measured over time spent inside :meth:`run` (events fired through
        bare :meth:`step` calls count events but no wall time). Zero until
        the loop has run.
        """
        if self._run_wall_seconds <= 0.0:
            return 0.0
        return self._events_processed / self._run_wall_seconds

    @property
    def pending(self) -> int:
        """Entries in the backend, stale (cancelled-unskipped) included."""
        return len(self._backend)

    @property
    def scheduler_stats(self) -> dict:
        """Engine counters from the pending-event heap.

        ``pushes``/``pops`` count live insertions and dequeues, and
        ``cancelled_skips`` counts flagged entries discarded at dequeue
        time. All three are deterministic under a pinned seed — they are
        published as the ``sim_engine_*`` gauges.
        """
        backend = self._backend
        return {
            "pushes": backend.pushes,
            "pops": backend.pops,
            "cancelled_skips": backend.cancelled_skips,
        }

    def schedule(
        self, delay: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Returns the :class:`Event`, which can be cancelled. ``delay`` must be
        non-negative (NaN is rejected too: it would fire first and then run
        the clock backwards); zero-delay events run after already-queued
        events at the same timestamp.
        """
        if not delay >= 0:
            raise SimulationError(f"delay must be >= 0 (got {delay})")
        time = self._now + delay
        event = Event(time, next(self._seq), callback, label)
        self._push(time, event.seq, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        return self.schedule(time - self._now, callback, label)

    def set_sampler(
        self,
        interval: float,
        callback: Callable[[float], Optional[float]],
        start: Optional[float] = None,
    ) -> None:
        """Install a sim-time sampling hook on the run loop.

        ``callback(ts)`` fires at ``ts = start`` (default: now +
        ``interval``) and thereafter every interval the callback returns
        (returning None stops sampling). Samples are *not* events: they
        are interleaved by the run loop whenever the clock is about to
        jump past a due sample, so they never extend a run, never shift
        event ordering or sequence numbers, and never count toward
        ``events_processed`` — which is what keeps a sampled run's
        simulated metrics byte-identical to an unsampled one. Because
        simulation state is piecewise constant between events, the state
        a sample observes is exactly the state at its timestamp. The
        callback must not schedule events or mutate simulation state.
        Samples fire only inside :meth:`run` (bare :meth:`step` calls
        skip them).
        """
        if interval <= 0:
            raise SimulationError(f"sampler interval must be > 0 (got {interval})")
        first = self._now + interval if start is None else start
        self._sampler = [first, callback]

    def clear_sampler(self) -> None:
        """Remove the sampling hook installed by :meth:`set_sampler`."""
        self._sampler = None

    def _fire_samples(
        self, sampler: List[Any], limit: float
    ) -> Optional[List[Any]]:
        """Fire every sample due at or before ``limit``.

        Advances the clock to each sample's timestamp (monotonic: the
        caller is about to advance it to ``limit`` or beyond). Returns
        the still-armed sampler, or None once the callback stops.
        """
        while sampler[0] <= limit:
            due = sampler[0]
            if due > self._now:
                self._now = due
            next_interval = sampler[1](due)
            if next_interval is None:
                self._sampler = None
                return None
            sampler[0] = due + next_interval
        return sampler

    def peek(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or None."""
        return self._backend.peek()

    def step(self) -> bool:
        """Run the next event. Returns False if the queue is empty."""
        entry = self._backend.pop()
        if entry is None:
            return False
        time, _seq, event = entry
        self._now = time
        self._events_processed += 1
        if self.observer is None:
            event.callback()
        else:
            start = perf_counter()
            event.callback()
            self.observer(event.label, perf_counter() - start)
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the queue drains earlier, so utilization denominators are
        well defined.
        """
        if self._running:
            raise SimulationError("simulation is already running (re-entrant run())")
        self._running = True
        processed = 0
        loop_start = perf_counter()
        # The loop body is inlined (rather than peek()+step()) and binds the
        # backend's pop locally: this loop fires every event in a run, so
        # per-event attribute lookups are the engine's own overhead floor.
        # The ``until`` horizon is enforced by pop-then-restore — one extra
        # backend call per run() instead of a peek per event.
        backend = self._backend
        pop = backend.pop
        sampler = self._sampler
        observer = self.observer
        try:
            if max_events is None and observer is None:
                # The common shape (bench clean reps, full twin runs):
                # no event cap, no per-event timing. Dropping those two
                # checks and the tuple unpack from the loop is worth a few
                # percent of total run time at fig9 scale.
                while True:
                    entry = pop()
                    if entry is None:
                        break
                    time = entry[0]
                    if until is not None and time > until:
                        backend.restore(entry)
                        break
                    if sampler is not None and sampler[0] <= time:
                        sampler = self._fire_samples(sampler, time)
                    self._now = time
                    processed += 1
                    entry[2].callback()
            else:
                while True:
                    if max_events is not None and processed >= max_events:
                        break
                    entry = pop()
                    if entry is None:
                        break
                    if until is not None and entry[0] > until:
                        backend.restore(entry)
                        break
                    time, _seq, event = entry
                    if sampler is not None and sampler[0] <= time:
                        sampler = self._fire_samples(sampler, time)
                    self._now = time
                    processed += 1
                    if observer is None:
                        event.callback()
                    else:
                        start = perf_counter()
                        event.callback()
                        observer(event.label, perf_counter() - start)
        finally:
            self._running = False
            self._events_processed += processed
            self._run_wall_seconds += perf_counter() - loop_start
        if until is not None and self._now < until:
            # Close out samples due in the drained tail before pinning the
            # clock to the horizon (state is constant there, so each one
            # still observes the correct snapshot).
            if sampler is not None:
                self._fire_samples(sampler, until)
            self._now = until

    def process(self, generator: Generator[float, None, None], label: str = "") -> "Process":
        """Start a coroutine-style process (see :class:`Process`)."""
        return Process(self, generator, label)


class Process:
    """Generator-driven sequential activity on top of the event queue.

    The generator yields delays (seconds); the process resumes after each
    delay. A process finishes when the generator returns. ``on_done``
    callbacks fire at completion time::

        def trip(sim):
            yield 2.0   # travel
            yield 0.6   # pick
            yield 2.0   # travel back

        Process(sim, trip(sim)).on_done(lambda: print("done"))
    """

    def __init__(self, sim: Simulation, generator: Generator[float, None, None], label: str = "") -> None:
        self.sim = sim
        self.label = label
        self._generator = generator
        self._done = False
        self._done_callbacks: List[Callable[[], None]] = []
        self._pending: Optional[Event] = None
        self._cancelled = False
        # Kick off on the next zero-delay tick so construction never runs
        # user code synchronously.
        self._pending = sim.schedule(0.0, self._advance, label=label)

    @property
    def done(self) -> bool:
        """True once the generator has finished (or the process was cancelled)."""
        return self._done

    def on_done(self, callback: Callable[[], None]) -> "Process":
        """Register ``callback`` to run when the process completes.

        If the process already completed, the callback fires on the next tick.
        """
        if self._done:
            self.sim.schedule(0.0, callback, label=f"{self.label}:late-done")
        else:
            self._done_callbacks.append(callback)
        return self

    def cancel(self) -> None:
        """Stop the process; no further steps or done-callbacks run."""
        self._cancelled = True
        if self._pending is not None:
            self._pending.cancel()
        self._done = True

    def _advance(self) -> None:
        """Resume the generator once, scheduling the next step or finishing."""
        if self._cancelled:
            return
        try:
            delay = next(self._generator)
        except StopIteration:
            self._done = True
            self._pending = None
            for callback in self._done_callbacks:
                callback()
            return
        self._pending = self.sim.schedule(float(delay), self._advance, label=self.label)


class PacedEngine:
    """Couples a :class:`Simulation` to the wall clock, with safe ingress.

    The batch engine runs as fast as it can; a *paced* engine instead maps
    wall time onto sim time through a ``dilation`` factor (sim-seconds per
    wall-second) so the twin advances in real time — the substrate of the
    live service mode (``repro.serve``) and of ``python -m repro watch``'s
    frame pacing. Two ideas keep it deterministic enough to serve traffic:

    * All simulation state is touched by exactly one thread (whichever
      thread calls :meth:`advance_to` / :meth:`serve` — "the engine
      thread"). Other threads hand work in through :meth:`inject`, a
      thread-safe FIFO of callbacks.
    * Injections are drained only at slice boundaries, on the engine
      thread, and each callback runs at the *current* sim time. Once a
      request has been injected at sim time ``t``, everything downstream
      of it is the ordinary deterministic kernel — wall-clock jitter only
      moves the admission timestamp, never the event interleaving after
      it.

    ``dilation <= 0`` means *free run*: :meth:`advance_to` does not sleep
    at all and is byte-equivalent to ``sim.run(until=...)`` (this is what
    the watch command uses between frames, so ``watch --html`` output is
    unchanged by the rebuild). ``clock``/``sleep`` are injectable for
    tests.
    """

    def __init__(
        self,
        sim: Simulation,
        dilation: float = 0.0,
        poll_wall_seconds: float = 0.05,
        frame_wall_seconds: float = 0.0,
        max_pending: int = 0,
        clock: Callable[[], float] = monotonic,
        sleep: Callable[[float], None] = _wall_sleep,
    ) -> None:
        self.sim = sim
        self.dilation = float(dilation)
        #: Upper bound on how long the engine thread sleeps before
        #: re-checking stop flags and the wall clock (seconds).
        self.poll_wall_seconds = float(poll_wall_seconds)
        #: Wall pause between :meth:`frames` slices (the watch refresh).
        self.frame_wall_seconds = float(frame_wall_seconds)
        #: Injection backpressure bound; 0 disables (see :meth:`inject`).
        self.max_pending = int(max_pending)
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._pending: deque = deque()
        self._injected_total = 0
        self._drained_total = 0
        self._refused_total = 0
        self._origin: Optional[Tuple[float, float]] = None

    @property
    def pending_injections(self) -> int:
        """Callbacks injected but not yet drained onto the engine thread."""
        with self._lock:
            return len(self._pending)

    @property
    def injection_stats(self) -> Tuple[int, int, int]:
        """``(injected, drained, refused)`` lifetime counters."""
        with self._lock:
            return (self._injected_total, self._drained_total, self._refused_total)

    def inject(self, callback: Callable[[], None]) -> bool:
        """Hand ``callback`` to the engine thread; safe from any thread.

        The callback runs at the next slice boundary, at the engine's
        current sim time, in FIFO order with other injections. Returns
        False (and counts a refusal) when ``max_pending`` is set and the
        queue is full — the caller's backpressure signal.
        """
        with self._wake:
            if self.max_pending > 0 and len(self._pending) >= self.max_pending:
                self._refused_total += 1
                return False
            self._pending.append(callback)
            self._injected_total += 1
            self._wake.notify_all()
        return True

    def drain_injections(self) -> int:
        """Run all pending injected callbacks; engine thread only."""
        ran = 0
        while True:
            with self._lock:
                if not self._pending:
                    return ran
                callback = self._pending.popleft()
                self._drained_total += 1
            callback()
            ran += 1

    def _wall_due(self) -> float:
        """Sim time the wall clock says we should have reached by now."""
        wall0, sim0 = self._origin  # type: ignore[misc]
        return sim0 + (self._clock() - wall0) * self.dilation

    def _wait_wall(self, seconds: float) -> None:
        """Idle until ``seconds`` pass, an injection arrives, or poll cap."""
        timeout = min(seconds, self.poll_wall_seconds)
        if timeout <= 0:
            return
        with self._wake:
            if not self._pending:
                self._wake.wait(timeout)

    def advance_to(self, sim_target: float) -> None:
        """Advance the sim clock to ``sim_target``, pacing by ``dilation``.

        Free-run mode (``dilation <= 0``) drains injections once and runs
        the queue straight to the target. Paced mode interleaves slices of
        ``sim.run`` with wall-clock sleeps so sim time never runs ahead of
        ``origin + elapsed * dilation``, draining injections at every
        slice boundary.
        """
        if self.dilation <= 0:
            self.drain_injections()
            self.sim.run(until=sim_target)
            return
        if self._origin is None:
            self._origin = (self._clock(), self.sim.now)
        while True:
            self.drain_injections()
            due = self._wall_due()
            self.sim.run(until=min(due, sim_target))
            if self.sim.now >= sim_target:
                return
            # Sleep toward whichever comes first: the next event, or the
            # target itself; injections cut the wait short via the
            # condition, the poll cap bounds it either way.
            horizon = sim_target
            next_event = self.sim.peek()
            if next_event is not None:
                horizon = min(horizon, next_event)
            self._wait_wall(max(0.0, (horizon - due) / self.dilation))

    def serve(self, stop: threading.Event, horizon: Optional[float] = None) -> None:
        """Run paced until ``stop`` is set (or sim time reaches ``horizon``).

        The open-ended loop behind a live server: keeps the sim clock
        tracking the wall clock and keeps draining injected requests.
        Requires ``dilation > 0`` — an unpaced server would spin sim time
        to infinity.
        """
        if self.dilation <= 0:
            raise SimulationError("serve() requires dilation > 0 (paced mode)")
        if self._origin is None:
            self._origin = (self._clock(), self.sim.now)
        while not stop.is_set():
            self.drain_injections()
            due = self._wall_due()
            if horizon is not None:
                due = min(due, horizon)
            self.sim.run(until=due)
            if horizon is not None and self.sim.now >= horizon:
                return
            next_event = self.sim.peek()
            if next_event is None:
                self._wait_wall(self.poll_wall_seconds)
            else:
                self._wait_wall(max(0.0, (next_event - due) / self.dilation))
        self.drain_injections()

    def frames(
        self, horizon: float, count: int
    ) -> Generator[Tuple[int, float], None, None]:
        """Advance to ``horizon`` in ``count`` slices, yielding after each.

        Yields ``(frame_index, sim_now)`` with ``frame_index`` counting
        from 1. Between frames the engine pauses ``frame_wall_seconds``
        of wall time — this is the single pacing implementation behind
        ``python -m repro watch`` (free-run within a frame, wall pause
        between frames), and it also composes with ``dilation`` for a
        continuously paced frame stream.
        """
        if count < 1:
            raise SimulationError(f"frames() needs count >= 1 (got {count})")
        for frame in range(1, count + 1):
            if frame > 1 and self.frame_wall_seconds > 0:
                self._sleep(self.frame_wall_seconds)
            self.advance_to(horizon * frame / count)
            yield frame, self.sim.now


def drain(sim: Simulation, limit: int = 10_000_000) -> int:
    """Run ``sim`` until its queue is empty; return events processed.

    ``limit`` guards against accidental infinite event loops in tests.
    """
    count = 0
    while sim.step():
        count += 1
        if count >= limit:
            raise SimulationError(f"simulation did not drain within {limit} events")
    return count


class Resource:
    """A counted resource with FIFO waiters (e.g. drive slots).

    ``acquire(callback)`` runs the callback immediately (via a zero-delay
    event) if capacity is available, otherwise queues it. ``release()`` hands
    the slot to the next waiter.
    """

    def __init__(self, sim: Simulation, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[Callable[[], None]] = []

    @property
    def in_use(self) -> int:
        """Slots currently held."""
        return self._in_use

    @property
    def available(self) -> int:
        """Slots free to grant right now."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Callbacks waiting for a slot."""
        return len(self._waiters)

    def acquire(self, callback: Callable[[], None]) -> None:
        """Grant a slot to ``callback`` now (zero-delay event) or enqueue it."""
        if self._in_use < self.capacity:
            self._in_use += 1
            self.sim.schedule(0.0, callback, label=f"{self.name}:grant")
        else:
            self._waiters.append(callback)

    def release(self) -> None:
        """Free a slot, handing it to the next FIFO waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without acquire")
        if self._waiters:
            callback = self._waiters.pop(0)
            self.sim.schedule(0.0, callback, label=f"{self.name}:grant")
        else:
            self._in_use -= 1
