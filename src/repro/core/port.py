"""Egress ports: the only places packets queue in this simulator.

Three port flavors cover every protocol in the paper:

* ``QueuedPort`` — a switch egress port with 8 strict priority queues,
  optional ECN marking (PIAS/DCTCP), optional NDP packet trimming,
  optional finite buffering with drop-tail, and optional ideal link-level
  preemption (the hardware change discussed around Figure 14).
* ``PfabricPort`` — pFabric's egress: a tiny shared buffer where the
  packet with the smallest remaining-bytes priority is sent first and
  the largest is dropped on overflow.
* ``PullPort`` — a host NIC that asks the transport for the next packet
  each time the link frees.  This is the idealized form of Homa's
  2-full-packets NIC queue bound (section 4): the sender reorders its
  queue perfectly, which is also what the paper's simulator assumes.

Ports support an optional ``probe`` (see ``PortProbe``) for metrics and
optional per-packet delay attribution used by Figure 14.

Every FIFO here is a plain ``list``: ``pop(0)`` serves the head.  The
Figure 11 fabric builds 216 switch egress ports of 8 FIFOs each, an
empty ``deque`` costs 760 B, and the ledger workloads never queue more
than 137 packets in one FIFO (docs/PERFORMANCE.md, "Switch-port and
NIC FIFOs").
"""

from __future__ import annotations

import heapq
from heapq import heappush
from typing import Callable, Optional

from repro.core.engine import Simulator
from repro.core.packet import CTRL_PRIO, N_PRIORITIES, Packet, PacketType
from repro.core.units import ps_per_byte


class PortProbe:
    """Observer interface for port events.  All hooks are optional."""

    def on_queue_change(self, now_ps: int, qbytes: int) -> None:
        """Queued bytes changed (excludes the packet being transmitted)."""

    def on_busy_change(self, now_ps: int, busy: bool) -> None:
        """The link started or stopped transmitting."""

    def on_tx_done(self, now_ps: int, pkt: Packet) -> None:
        """A packet finished serializing onto the link."""

    def on_drop(self, now_ps: int, pkt: Packet) -> None:
        """A packet was dropped (buffer overflow)."""


class BasePort:
    """Common transmission machinery: one packet on the wire at a time."""

    __slots__ = (
        "sim", "name", "level", "ppb", "deliver", "busy",
        "cur_pkt", "cur_end_ps", "probe", "trace_delays",
        "tx_packets", "tx_wire_bytes", "drops", "fuse_ok", "last_arrival_ps",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
    ) -> None:
        self.sim = sim
        self.name = name
        self.level = level
        self.ppb = ps_per_byte(gbps)
        self.deliver = deliver
        self.busy = False
        self.cur_pkt: Optional[Packet] = None
        self.cur_end_ps = 0
        self.probe: Optional[PortProbe] = None
        self.trace_delays = False
        self.tx_packets = 0
        self.tx_wire_bytes = 0
        self.drops = 0
        # Arrival fusion (see topology's fused switch ingress): True only
        # where enqueueing early is invisible — no drops/marking/trimming
        # /preemption (queue state must not influence anything between
        # the early enqueue and the real arrival time).  Probe and
        # trace_delays are checked dynamically at the ingress site.
        # ``last_arrival_ps`` is the latest scheduled (non-fused)
        # arrival: fusing a packet is only sound strictly after that
        # arrival has fired, or the fused packet could overtake it in
        # its priority level's FIFO.
        self.fuse_ok = False
        self.last_arrival_ps = -1

    def enqueue(self, pkt: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def flush(self) -> int:
        """Destroy everything queued on this port (fault injection,
        core/faults.py).  Ports without a queue lose nothing."""
        return 0

    def _transmit(self, pkt: Packet) -> None:
        sim = self.sim
        now = sim.now
        time_ps = now + pkt.wire * self.ppb
        self.busy = True
        self.cur_pkt = pkt
        self.cur_end_ps = time_ps
        if self.probe is not None:
            self.probe.on_busy_change(sim.now, True)
        # schedule inlined: one event per transmitted packet.
        sim._seq += 1
        event = [time_ps, sim._seq, self._tx_done, None]
        if time_ps < sim._horizon:
            heappush(sim._heap, event)
        else:
            sim._file_far(event, time_ps)

    def _tx_done(self) -> None:
        pkt = self.cur_pkt
        sim = self.sim
        self.cur_pkt = None
        self.busy = False
        self.tx_packets += 1
        self.tx_wire_bytes += pkt.wire
        if self.probe is not None:
            self.probe.on_tx_done(sim.now, pkt)
            self.probe.on_busy_change(sim.now, False)
        # Zero propagation delay: the packet is fully received at the
        # other end the moment serialization finishes (store-and-forward).
        self.deliver(pkt)
        self._next()

    def _next(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class QueuedPort(BasePort):
    """Switch egress port with 8 strict priority FIFO queues.

    ``qbytes`` (queued bytes, excluding the packet on the wire) is zero
    exactly when every queue is empty; a dequeue scans down from the
    highest priority to the first non-empty queue and pops its head.
    """

    __slots__ = (
        "queues", "qbytes", "prio_qbytes", "buffer_bytes",
        "ecn_bytes", "trim_bytes", "preemptive", "_paused", "_tx_event",
        "_vanilla",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
        *,
        buffer_bytes: int | None = None,
        ecn_bytes: int | None = None,
        trim_bytes: int | None = None,
        preemptive: bool = False,
    ) -> None:
        super().__init__(sim, name, gbps, deliver, level)
        self.queues: list[list[Packet]] = [[] for _ in range(N_PRIORITIES)]
        self.qbytes = 0
        self.prio_qbytes = [0] * N_PRIORITIES
        self.buffer_bytes = buffer_bytes
        self.ecn_bytes = ecn_bytes
        self.trim_bytes = trim_bytes
        self.preemptive = preemptive
        self._paused: list[tuple[Packet, int]] = []  # (packet, remaining ps)
        self._tx_event = None
        # Fast-path flag: no marking/trimming/drops/preemption to check.
        self._vanilla = (buffer_bytes is None and ecn_bytes is None
                         and trim_bytes is None and not preemptive)
        self.fuse_ok = self._vanilla

    def enqueue(self, pkt: Packet) -> None:
        if self._vanilla:
            if (not self.busy and not self.qbytes and self.probe is None
                    and not self._paused):
                # Idle, empty port: transmit directly, skip the queue
                # round-trip (event creation inlined — this is the
                # steady-state per-hop path).
                sim = self.sim
                now = sim.now
                time_ps = now + pkt.wire * self.ppb
                self.busy = True
                self.cur_pkt = pkt
                self.cur_end_ps = time_ps
                sim._seq += 1
                event = [time_ps, sim._seq, self._tx_done, None]
                if time_ps < sim._horizon:
                    heappush(sim._heap, event)
                else:
                    sim._file_far(event, time_ps)
                return
            prio = pkt.prio
            if self.trace_delays and self.busy:
                residual = self.cur_end_ps - self.sim.now
                if self.cur_pkt is not None and self.cur_pkt.prio < prio:
                    pkt.p_wait += residual
                else:
                    pkt.q_wait += residual
            self.queues[prio].append(pkt)
            self.qbytes += pkt.wire
            if self.probe is not None:
                self.probe.on_queue_change(self.sim.now, self.qbytes)
            if not self.busy:
                self._next()
            return
        if self.ecn_bytes is not None and self.qbytes >= self.ecn_bytes:
            pkt.ecn = True
        if (
            self.trim_bytes is not None
            and pkt.kind == PacketType.DATA
            and not pkt.trimmed
            and self.prio_qbytes[pkt.prio] >= self.trim_bytes
        ):
            # NDP: keep the header, ship it on the control priority.
            pkt.trim()
            pkt.prio = CTRL_PRIO
        if self.buffer_bytes is not None and self.qbytes + pkt.wire > self.buffer_bytes:
            self.drops += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now, pkt)
            return
        preempts = (
            self.preemptive
            and self.busy
            and self.cur_pkt is not None
            and pkt.prio > self.cur_pkt.prio
        )
        if self.trace_delays and self.busy and not preempts:
            # A packet that is about to preempt the in-flight packet
            # never waits out its residual, so it is charged nothing.
            residual = self.cur_end_ps - self.sim.now
            if self.cur_pkt is not None and self.cur_pkt.prio < pkt.prio:
                pkt.p_wait += residual
            else:
                pkt.q_wait += residual
        self.queues[pkt.prio].append(pkt)
        self.qbytes += pkt.wire
        self.prio_qbytes[pkt.prio] += pkt.wire
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if not self.busy:
            self._next()
        elif preempts:
            self._preempt()

    def flush(self) -> int:
        """Destroy every queued (not in-flight) packet.

        A link or switch fault kills the line card: whatever sat in its
        buffers is gone.  The packet currently serializing is untouched
        — its bits are already on the wire (a dead downstream switch
        drops it at ingress instead).  Returns the number of packets
        destroyed, which the caller accounts (``Network.apply_fault``
        credits the owning switch's ``fault_drops``).
        """
        flushed = len(self._paused)
        for queue in self.queues:
            flushed += len(queue)
            queue.clear()
        self._paused.clear()
        self.qbytes = 0
        self.prio_qbytes = [0] * N_PRIORITIES
        if flushed and self.probe is not None:
            self.probe.on_queue_change(self.sim.now, 0)
        return flushed

    def _preempt(self) -> None:
        """Ideal link-level preemption: pause the in-flight packet."""
        remaining = self.cur_end_ps - self.sim.now
        paused = self.cur_pkt
        # Park the packet with its remaining serialization time, mark
        # the port idle, cancel the pending _tx_done event (preemptive
        # ports keep its handle in _tx_event) and pick the next packet.
        self._paused.append((paused, remaining))
        self.cur_pkt = None
        self.busy = False
        if self._tx_event is not None:
            Simulator.cancel(self._tx_event)
        self._next()

    def _transmit(self, pkt: Packet) -> None:
        self._resume(pkt, pkt.wire * self.ppb)

    def _resume(self, pkt: Packet, remaining: int) -> None:
        """Serialize ``pkt`` for ``remaining`` ps (its whole wire time
        unless it was paused by a preemption)."""
        sim = self.sim
        self.busy = True
        self.cur_pkt = pkt
        self.cur_end_ps = sim.now + remaining
        if self.probe is not None:
            self.probe.on_busy_change(sim.now, True)
        event = sim.schedule(remaining, self._tx_done)
        if self.preemptive:
            self._tx_event = event

    def _tx_done(self) -> None:
        # BasePort._tx_done with the follow-up dequeue inlined: this
        # pair runs once per switch-port transmission.  KEEP IN SYNC
        # with _next below — the dequeue + inline-transmit bodies are
        # intentionally duplicated to save a call per packet.
        pkt = self.cur_pkt
        self.cur_pkt = None
        self.busy = False
        self.tx_packets += 1
        self.tx_wire_bytes += pkt.wire
        if self.probe is not None:
            self.probe.on_tx_done(self.sim.now, pkt)
            self.probe.on_busy_change(self.sim.now, False)
        self.deliver(pkt)
        if self._paused:
            self._next()
            return
        if not self.qbytes:
            return
        queues = self.queues
        prio = N_PRIORITIES - 1
        while not queues[prio]:
            prio -= 1
        queue = queues[prio]
        pkt = queue.pop(0)
        self.qbytes -= pkt.wire
        if not self._vanilla:
            self.prio_qbytes[prio] -= pkt.wire
        if self.probe is None and not self.trace_delays:
            sim = self.sim
            now = sim.now
            time_ps = now + pkt.wire * self.ppb
            self.busy = True
            self.cur_pkt = pkt
            self.cur_end_ps = time_ps
            sim._seq += 1
            event = [time_ps, sim._seq, self._tx_done, None]
            if time_ps < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, time_ps)
            if self.preemptive:
                self._tx_event = event
            return
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if self.trace_delays:
            self._charge_waiters(pkt)
        self._transmit(pkt)

    def _next(self) -> None:
        # Highest non-empty priority, -1 when every queue is empty.
        queues = self.queues
        prio = N_PRIORITIES - 1
        while prio >= 0 and not queues[prio]:
            prio -= 1
        if self._paused and self._paused[-1][0].prio >= prio:
            pkt, remaining = self._paused.pop()
            self._resume(pkt, remaining)
            return
        if prio < 0:
            return
        queue = queues[prio]
        pkt = queue.pop(0)
        self.qbytes -= pkt.wire
        if not self._vanilla:
            self.prio_qbytes[prio] -= pkt.wire
        if self.probe is None and not self.trace_delays:
            # _transmit inlined for the plain case (the dequeue path
            # runs once per transmitted packet).
            sim = self.sim
            now = sim.now
            time_ps = now + pkt.wire * self.ppb
            self.busy = True
            self.cur_pkt = pkt
            self.cur_end_ps = time_ps
            sim._seq += 1
            event = [time_ps, sim._seq, self._tx_done, None]
            if time_ps < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, time_ps)
            if self.preemptive:
                self._tx_event = event
            return
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if self.trace_delays:
            self._charge_waiters(pkt)
        self._transmit(pkt)

    def _charge_waiters(self, winner: Packet) -> None:
        """Attribute the winner's tx time to every packet left waiting.

        A queued packet waiting behind a *lower*-priority transmission is
        experiencing preemption lag; waiting behind equal-or-higher
        priority is plain queueing (Figure 14's two delay sources).
        """
        duration = winner.wire * self.ppb
        wprio = winner.prio
        for prio, queue in enumerate(self.queues):
            if wprio < prio:
                for waiting in queue:
                    waiting.p_wait += duration
            else:
                for waiting in queue:
                    waiting.q_wait += duration


class PfabricPort(BasePort):
    """pFabric egress: smallest remaining-size first, drop the largest.

    ``fine_prio`` is the packet's remaining message bytes at send time
    (0 for ACKs/probes, which makes them most urgent).  The buffer is a
    couple of bandwidth-delay products, as in the pFabric paper.

    One min-heap of ``(fine_prio, arrival_seq, pkt)`` entries, one per
    queued packet, serves dequeue; ``arrival_seq`` breaks fine-priority
    ties FIFO.  Overflow is rare and the buffer holds at most a few
    hundred packets, so the drop victim (largest ``fine_prio``, oldest
    among ties) is found by scanning the heap, removed, and the heap
    re-heapified: the heap holds exactly the queued packets, never
    anything the port has already sent or dropped.
    """

    __slots__ = ("_heap", "_arrivals", "qbytes", "buffer_bytes")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
        *,
        buffer_bytes: int,
    ) -> None:
        super().__init__(sim, name, gbps, deliver, level)
        self._heap: list[tuple] = []   # (fine_prio, seq, pkt)
        self._arrivals = 0
        self.qbytes = 0
        self.buffer_bytes = buffer_bytes

    def enqueue(self, pkt: Packet) -> None:
        heap = self._heap
        while self.qbytes + pkt.wire > self.buffer_bytes:
            entry = max(heap, key=_drop_order, default=None)
            if entry is None or entry[0] <= pkt.fine_prio:
                # The arrival is the least urgent: drop it.
                self.drops += 1
                if self.probe is not None:
                    self.probe.on_drop(self.sim.now, pkt)
                return
            heap.remove(entry)
            heapq.heapify(heap)
            victim = entry[2]
            self.qbytes -= victim.wire
            self.drops += 1
            if self.probe is not None:
                self.probe.on_drop(self.sim.now, victim)
        self._arrivals += 1
        heappush(heap, (pkt.fine_prio, self._arrivals, pkt))
        self.qbytes += pkt.wire
        if self.probe is not None:
            self.probe.on_queue_change(self.sim.now, self.qbytes)
        if not self.busy:
            self._next()

    def _next(self) -> None:
        if self._heap:
            pkt = heapq.heappop(self._heap)[2]
            self.qbytes -= pkt.wire
            if self.probe is not None:
                self.probe.on_queue_change(self.sim.now, self.qbytes)
            self._transmit(pkt)

    def flush(self) -> int:
        """Destroy every queued packet (see ``QueuedPort.flush``)."""
        flushed = len(self._heap)
        self._heap.clear()
        self.qbytes = 0
        if flushed and self.probe is not None:
            self.probe.on_queue_change(self.sim.now, 0)
        return flushed


def _drop_order(entry: tuple) -> tuple:
    """pFabric's drop ranking: largest ``fine_prio`` first, then oldest."""
    return entry[0], -entry[1]


class PullPort(BasePort):
    """Host NIC egress that pulls packets from the transport on demand."""

    __slots__ = ("source",)

    def __init__(
        self,
        sim: Simulator,
        name: str,
        gbps: int,
        deliver: Callable[[Packet], None],
        level: str,
    ) -> None:
        super().__init__(sim, name, gbps, deliver, level)
        self.source: Optional[Callable[[], Optional[Packet]]] = None

    def kick(self) -> None:
        """Tell the NIC new work may be available."""
        if not self.busy:
            self._next()

    def _tx_done(self) -> None:
        # BasePort._tx_done fused with the follow-up pull: this pair
        # runs once per host-uplink transmission.
        pkt = self.cur_pkt
        self.cur_pkt = None
        self.busy = False
        self.tx_packets += 1
        self.tx_wire_bytes += pkt.wire
        probe = self.probe
        if probe is not None:
            now = self.sim.now
            probe.on_tx_done(now, pkt)
            probe.on_busy_change(now, False)
        # Delivery only schedules the next-hop arrival; it cannot start
        # a new transmission on this port, so pulling afterwards is the
        # same order BasePort produced.
        self.deliver(pkt)
        source = self.source
        if source is not None:
            pkt = source()
            if pkt is not None:
                # _transmit inlined (one NIC transmission per pull).
                sim = self.sim
                now = sim.now
                time_ps = now + pkt.wire * self.ppb
                self.busy = True
                self.cur_pkt = pkt
                self.cur_end_ps = time_ps
                if self.probe is not None:
                    self.probe.on_busy_change(sim.now, True)
                sim._seq += 1
                event = [time_ps, sim._seq, self._tx_done, None]
                if time_ps < sim._horizon:
                    heappush(sim._heap, event)
                else:
                    sim._file_far(event, time_ps)

    def _next(self) -> None:
        if self.source is None:
            return
        pkt = self.source()
        if pkt is not None:
            self._transmit(pkt)
