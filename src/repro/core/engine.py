"""Event engine: a binary heap front-ended by a hierarchical timer wheel.

Events are plain lists ``[time_ps, seq, fn, arg]`` so the heap never
has to compare callables: ``seq`` is unique, which makes orderings total
and deterministic.  Cancellation is lazy (the callable slot is cleared);
this keeps ``schedule``/``cancel`` O(log n)/O(1), which matters because
transports cancel and re-arm retransmission timers constantly.

The ``arg`` slot holds the single positional argument directly (None
when there is none, the args tuple for the general case): almost every
event is a zero-arg port callback or a one-packet delivery, and skipping
the varargs tuple on those saves measurable time at millions of events
per run.

The heap only ever holds events inside the current coarse time bucket
(~34 us).  Events further out land in one of two timer-wheel levels —
dict-of-list buckets of ~34 us (level 0) and ~537 us (level 1) — and are
poured into the heap when the clock reaches their bucket.  Per-packet
events (sub-microsecond serialization and switch delays) therefore sift
through a heap that contains only the near future, while the long-lived
resend/RTO timers, which the transports re-arm constantly, sit in O(1)
wheel buckets instead of churning the heap.  Because every event in the
heap precedes every event still in a wheel, the (time_ps, seq) execution
order is identical to a single global heap.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List

Event = List[Any]  # [time_ps, seq, fn, arg]

_TIME = 0
_FN = 2


def _pack_arg(args: tuple) -> Any:
    """Encode *args into the event's arg slot (see module docstring)."""
    if not args:
        return None
    if len(args) == 1:
        arg = args[0]
        # A lone None/tuple argument must stay wrapped so the dispatch
        # in ``run`` cannot misread it.
        if arg is not None and type(arg) is not tuple:
            return arg
    return args

#: level-0 wheel bucket width: 2**25 ps ~ 34 us (dozens of packet times,
#: so per-packet events go straight to the heap and skip the wheel transit)
L0_SHIFT = 25
#: level-1 wheel bucket width: 2**29 ps ~ 537 us (timer/RTO territory)
L1_SHIFT = 29
_L1_DIFF = L1_SHIFT - L0_SHIFT


class Simulator:
    """Discrete event simulator with an integer picosecond clock."""

    __slots__ = ("now", "_heap", "_seq", "_ids", "events_processed",
                 "_wheel0", "_wheel1", "_cursor0", "_cursor1", "_horizon")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[Event] = []
        self._seq: int = 0
        self._ids: int = 0
        self.events_processed: int = 0
        # Timer wheel state.  All heap events satisfy time_ps < _horizon;
        # wheel events satisfy time_ps >= _horizon, so the heap head is
        # always the globally next event whenever the heap is non-empty.
        self._wheel0: dict[int, list[Event]] = {}
        self._wheel1: dict[int, list[Event]] = {}
        self._cursor0: int = 0      # L0 buckets <= cursor0 drained to heap
        self._cursor1: int = 0      # L1 buckets <= cursor1 cascaded to L0
        self._horizon: int = 1 << L0_SHIFT

    def new_id(self) -> int:
        """Globally unique integer id (RPC ids, message ids, ...)."""
        self._ids += 1
        return self._ids

    def schedule(self, delay_ps: int, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay_ps``; returns a cancellable event."""
        if delay_ps < 0:
            raise ValueError(f"negative delay {delay_ps}")
        time_ps = self.now + delay_ps
        self._seq += 1
        event: Event = [time_ps, self._seq, fn, _pack_arg(args)]
        if time_ps < self._horizon:
            heappush(self._heap, event)
        else:
            self._file_far(event, time_ps)
        return event

    def schedule1(self, delay_ps: int, fn: Callable, arg: Any) -> Event:
        """``schedule`` specialised to one non-None, non-tuple argument
        (the per-packet sites inline it; see ``_file_far``)."""
        if delay_ps < 0:
            raise ValueError(f"negative delay {delay_ps}")
        time_ps = self.now + delay_ps
        self._seq += 1
        event: Event = [time_ps, self._seq, fn, arg]
        if time_ps < self._horizon:
            heappush(self._heap, event)
        else:
            self._file_far(event, time_ps)
        return event

    def schedule_at(self, time_ps: int, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute ``time_ps``."""
        return self.schedule(time_ps - self.now, fn, *args)

    def _file_far(self, event: Event, time_ps: int) -> None:
        """Park an event beyond the heap horizon in the right wheel.

        NOTE: the push sequence (seq bump, [time, seq, fn, arg] list,
        horizon test, heappush-or-_file_far) is inlined at the hottest
        call sites — core/port.py (transmit paths), core/host.py
        (ingress), core/topology.py (fused switch ingress).  A change
        to the filing rules here must be mirrored there, and delays at
        those sites are structurally non-negative (wire sizes and
        fixed positive latencies).
        """
        b1 = time_ps >> L1_SHIFT
        if b1 <= self._cursor1:
            bucket0 = time_ps >> L0_SHIFT
            wheel = self._wheel0
            bucket = wheel.get(bucket0)
            if bucket is None:
                wheel[bucket0] = [event]
            else:
                bucket.append(event)
        else:
            wheel = self._wheel1
            bucket = wheel.get(b1)
            if bucket is None:
                wheel[b1] = [event]
            else:
                bucket.append(event)

    def _refill(self) -> None:
        """Pour wheel buckets into the (empty) heap, earliest first.

        Called only when the heap has run dry: advances the wheel cursors
        to the earliest populated bucket, cascading level-1 buckets into
        level 0 when they come due.  Restores the invariant that every
        heap event precedes every wheel event.
        """
        heap = self._heap
        wheel0, wheel1 = self._wheel0, self._wheel1
        while not heap and (wheel0 or wheel1):
            b0 = min(wheel0) if wheel0 else None
            b1 = min(wheel1) if wheel1 else None
            if b1 is not None and (b0 is None or (b1 << _L1_DIFF) <= b0):
                # The earliest level-1 bucket may hold events earlier
                # than any level-0 bucket: cascade it down first.
                self._cursor1 = b1
                if self._cursor0 < (b1 << _L1_DIFF) - 1:
                    self._cursor0 = (b1 << _L1_DIFF) - 1
                for event in wheel1.pop(b1):
                    if event[_FN] is not None:
                        sub = event[_TIME] >> L0_SHIFT
                        bucket = wheel0.get(sub)
                        if bucket is None:
                            wheel0[sub] = [event]
                        else:
                            bucket.append(event)
                continue
            self._cursor0 = b0
            if self._cursor1 < b0 >> _L1_DIFF:
                self._cursor1 = b0 >> _L1_DIFF
            for event in wheel0.pop(b0):
                if event[_FN] is not None:
                    heappush(heap, event)
        self._horizon = (self._cursor0 + 1) << L0_SHIFT

    @staticmethod
    def cancel(event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        event[_FN] = None

    @staticmethod
    def is_pending(event: Event) -> bool:
        return event[_FN] is not None

    def run(self, until_ps: int | None = None) -> int:
        """Process events until the horizon or exhaustion; returns count.

        ``until_ps`` is inclusive: events stamped exactly at the horizon
        still fire, and the clock is left at the horizon afterwards.
        """
        heap = self._heap
        pop = heappop
        processed = 0
        # Hot loop: the horizon is an int/inf compare and the empty
        # heap a truth test, so the per-event cost is index, two
        # compares, pop, dispatch.
        horizon = float("inf") if until_ps is None else until_ps
        while True:
            if heap:
                event = heap[0]
                fn = event[2]
                if fn is None:
                    pop(heap)
                    continue
                time_ps = event[0]
                if time_ps > horizon:
                    break
                pop(heap)
                self.now = time_ps
                arg = event[3]
                if arg is None:
                    fn()
                elif type(arg) is tuple:
                    fn(*arg)
                else:
                    fn(arg)
                processed += 1
            elif self._wheel0 or self._wheel1:
                self._refill()
            else:
                break
        if until_ps is not None and self.now < until_ps:
            self.now = until_ps
        self.events_processed += processed
        return processed
