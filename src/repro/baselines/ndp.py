"""NDP (Handley et al., SIGCOMM 2017).

"NDP uses only two priority levels with static assignment ... does not
use SRPT; its receivers use a fair-share scheduling policy ... NDP
senders do not prioritize their transmit queues" (sections 2.2/5.2/7).

Mechanics reproduced here:

* senders blast the first window (one BDP) blindly at low priority;
* switches trim packets to headers when a data queue exceeds 8 full
  packets (``trim_bytes`` in the network config); trimmed headers ride
  the high-priority queue;
* receivers NACK trimmed headers (sender queues a retransmission) and
  pace PULL packets at the downlink rate, round-robin across active
  flows — fair sharing, not SRPT;
* every delivered data packet is ACKed.

As in the paper, NDP is only exercised with workload W5, where all
packets are full size.

Loss recovery (docs/FABRICS.md, active only with a RecoveryConfig):
trimming only protects against congestion loss — when the fabric
destroys a packet outright (random loss, a dying link) no header
survives to NACK, yet the receiver's pull counter already charged
those bytes, so pulls stop and the flow livelocks.  The receiver
therefore re-NACKs gaps below the pulled horizon on a RecoveryTracker
timeout and rolls the pull counter back (mirroring ``_on_trimmed``);
the sender blind-retransmits the first unacked gap when ACK silence
suggests the loss swallowed even the NACK path.  Both sides carry a
bounded give-up budget.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Optional

from repro.core.engine import Simulator
from repro.core.packet import (
    CTRL_PRIO,
    FULL_WIRE,
    MAX_PAYLOAD,
    Packet,
    PacketType,
)
from repro.core.units import ps_per_byte
from repro.transport.base import RecoveryConfig, Transport, gap_chunks
from repro.transport.messages import InboundMessage, WindowMessage

#: low priority for data packets; control/trimmed headers use CTRL_PRIO
DATA_PRIO = 0


class _NdpFlow:
    """Sender-side state: pull allowance plus a retransmission queue."""

    __slots__ = ("msg", "pull_budget", "rtx", "marked")

    def __init__(self, msg: WindowMessage) -> None:
        self.msg = msg
        self.pull_budget = 0
        self.rtx: list[tuple[int, int]] = []
        self.marked = False  # key is in the transport's ``_ready`` heap

    def sendable(self) -> bool:
        if self.rtx and self.pull_budget > 0:
            return True
        blind = self.msg.sent < min(self.msg.unsched_limit, self.msg.length)
        if blind:
            return True
        return self.pull_budget > 0 and self.msg.sent < self.msg.length


class NdpTransport(Transport):
    """NDP sender+receiver (requires trimming-enabled switch ports)."""

    protocol_name = "ndp"

    def __init__(self, sim: Simulator, *, rtt_bytes: int, host_gbps: int = 10,
                 recovery: RecoveryConfig | None = None) -> None:
        super().__init__(sim, recovery)
        self.first_window = -(-rtt_bytes // MAX_PAYLOAD) * MAX_PAYLOAD
        self.pull_interval_ps = FULL_WIRE * ps_per_byte(host_gbps)
        # Heap of the keys of ``outbound`` flows that may be sendable
        # (marked at creation, PULL, NACK, blind rtx; the pull verifies).
        # Keys come from one counter, so the smallest is the flow
        # created first.
        self._ready: list[int] = []
        # Receiver pull ring: flow keys needing pulls, round robin.
        self._pull_ring: deque[int] = deque()
        self._pulls_issued: dict[int, int] = {}  # key -> bytes pulled
        self._pacer = None
        self.nacks_received = 0
        self.pulls_sent = 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_message(self, dst: int, length: int, **kwargs) -> WindowMessage:
        msg = WindowMessage(self.sim.new_id(), True, self.hid, dst, length,
                            unsched_limit=self.first_window,
                            created_ps=self.sim.now)
        flow = _NdpFlow(msg)
        self._watch_outbound(msg.key, flow)
        self._mark(flow)
        self.kick()
        return msg

    def _mark(self, flow: _NdpFlow) -> None:
        """``flow`` may have become sendable."""
        if not flow.marked:
            flow.marked = True
            heappush(self._ready, flow.msg.key)

    def _next_data(self) -> Optional[Packet]:
        # FIFO across flows (NDP senders do not prioritize: the paper
        # calls out the resulting head-of-line blocking).
        ready = self._ready
        while ready:
            flow = self.outbound.get(ready[0])
            if flow is not None:
                if flow.sendable():
                    return self._emit(flow)
                flow.marked = False
            heappop(ready)
        return None

    def _emit(self, flow: _NdpFlow) -> Packet:
        msg = flow.msg
        if flow.rtx and flow.pull_budget > 0:
            flow.pull_budget -= 1
            offset, size = flow.rtx.pop(0)
            retx = True
        elif msg.sent < min(msg.unsched_limit, msg.length):
            offset = msg.sent
            size = min(MAX_PAYLOAD, msg.length - offset)
            msg.sent += size
            retx = False
        else:
            flow.pull_budget -= 1
            offset = msg.sent
            size = min(MAX_PAYLOAD, msg.length - offset)
            msg.sent += size
            retx = False
        if retx:
            self.rtx_data_sent += 1
        return Packet(
            self.hid, msg.dst, PacketType.DATA, prio=DATA_PRIO,
            payload=size, rpc_id=msg.rpc_id, is_request=True,
            offset=offset, total_length=msg.length, retx=retx,
            created_ps=msg.created_ps)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketType.DATA:
            if pkt.trimmed:
                self._on_trimmed(pkt)
            else:
                self._on_data(pkt)
        elif pkt.kind == PacketType.PULL:
            self._on_pull(pkt)
        elif pkt.kind == PacketType.NACK:
            self._on_nack(pkt)
        elif pkt.kind == PacketType.ACK:
            self._on_ack(pkt)

    def _registered(self, msg: InboundMessage) -> None:
        key = msg.key
        self._pulls_issued[key] = min(msg.length, self.first_window)
        if self._pulls_issued[key] < msg.length:
            self._pull_ring.append(key)
            self._ensure_pacer()

    def _forget_inbound(self, key: int) -> None:
        self._pulls_issued.pop(key, None)
        try:
            self._pull_ring.remove(key)
        except ValueError:
            pass

    def _on_trimmed(self, pkt: Packet) -> None:
        """A header survived where the payload was cut: NACK it so the
        sender retransmits when pulled."""
        msg = self._inbound_for(pkt)
        if msg is None:
            return  # late duplicate of a completed message: re-ACKed
        key = msg.key
        if self._in_watch is not None:
            self._in_watch.touch(key)
        self.send_ctrl(Packet(
            self.hid, pkt.src, PacketType.NACK, prio=CTRL_PRIO,
            rpc_id=pkt.rpc_id, is_request=True,
            offset=pkt.offset, range_end=pkt.offset + MAX_PAYLOAD))
        # The trimmed bytes must be re-pulled.
        self._pulls_issued[key] = max(
            0, self._pulls_issued.get(key, 0) - MAX_PAYLOAD)
        if key not in self._pull_ring:
            self._pull_ring.append(key)
        self._ensure_pacer()

    def _on_data(self, pkt: Packet) -> None:
        msg = self._inbound_for(pkt)
        if msg is None:
            return
        self._record(msg, pkt)
        self._ack(pkt)
        if msg.is_complete():
            self._complete(msg)

    def _ack(self, pkt: Packet) -> None:
        self.send_ctrl(Packet(
            self.hid, pkt.src, PacketType.ACK, prio=CTRL_PRIO,
            rpc_id=pkt.rpc_id, is_request=True, offset=pkt.offset))

    #: a late copy of a completed message is ACKed like any other
    _reack = _ack

    def _on_pull(self, pkt: Packet) -> None:
        flow = self.outbound.get(pkt.msg_key)
        if flow is None:
            return
        flow.pull_budget += 1
        self._mark(flow)
        if self._out_watch is not None:
            self._out_watch.touch(pkt.msg_key)
        self.kick()

    def _on_nack(self, pkt: Packet) -> None:
        flow = self.outbound.get(pkt.msg_key)
        if flow is None:
            return
        self.nacks_received += 1
        size = min(MAX_PAYLOAD, flow.msg.length - pkt.offset)
        flow.rtx.append((pkt.offset, size))
        self._mark(flow)
        if self._out_watch is not None:
            self._out_watch.touch(pkt.msg_key)
        self.kick()

    def _on_ack(self, pkt: Packet) -> None:
        flow = self.outbound.get(pkt.msg_key)
        if flow is None:
            return
        flow.msg.acked.add(pkt.offset, min(pkt.offset + MAX_PAYLOAD,
                                           flow.msg.length))
        if flow.msg.acked.total >= flow.msg.length:
            self._retire(pkt.msg_key)
        elif self._out_watch is not None:
            self._out_watch.touch(pkt.msg_key)

    # ------------------------------------------------------------------
    # loss recovery (hooks only fire when a RecoveryConfig is present)
    # ------------------------------------------------------------------

    def _repair(self, flow: _NdpFlow) -> None:
        """ACK silence on the sender: blind-retransmit the first unacked
        gap.  Covers a first window the fabric destroyed outright (the
        receiver never learned the message exists) and lost ACK tails;
        arrival re-engages the receiver's own gap machinery."""
        msg = flow.msg
        gap = msg.acked.first_gap(min(msg.sent, msg.length))
        if gap is None:
            # All sent bytes acked: we are waiting on pulls, and the
            # receiver's recovery timer owns that path.  Deliberately do
            # NOT touch — if the receiver is dead, the budget must burn
            # down to a give-up or the flow leaks.
            return
        offset = gap[0]
        size = min(MAX_PAYLOAD, gap[1] - offset)
        # A recovery credit: the pull that covered these bytes was spent
        # on a packet the fabric destroyed.
        flow.pull_budget += 1
        flow.rtx.insert(0, (offset, size))
        self._mark(flow)
        self.kick()

    def _in_expire(self, key: int, tries: int) -> None:
        """Pulled bytes never arrived and no trimmed header survived to
        NACK them: re-NACK the gaps and roll the pull counter back, the
        same repair ``_on_trimmed`` performs when a header does survive."""
        msg = self.inbound[key]
        horizon = min(self._pulls_issued.get(key, 0), msg.length)
        missing = msg.received.gaps(horizon)
        if not missing:
            # Nothing pulled is outstanding; make sure the pacer still
            # has this flow and treat the silence as scheduling delay.
            if (self._pulls_issued.get(key, 0) < msg.length
                    and key not in self._pull_ring):
                self._pull_ring.append(key)
                self._ensure_pacer()
            self._in_watch.touch(key)
            return
        nacked = 0
        limit = 8 * MAX_PAYLOAD  # bounded per expiry; backoff spreads the rest
        for offset, size in gap_chunks(missing):
            if nacked >= limit:
                break
            self.send_ctrl(Packet(
                self.hid, msg.src, PacketType.NACK, prio=CTRL_PRIO,
                rpc_id=msg.rpc_id, is_request=True,
                offset=offset, range_end=offset + size))
            nacked += size
        # The destroyed packets consumed pull credits; give them back so
        # the pacer re-pulls and the sender has budget for the rtx.
        self._pulls_issued[key] = max(
            0, self._pulls_issued.get(key, 0) - nacked)
        if key not in self._pull_ring:
            self._pull_ring.append(key)
        self._ensure_pacer()

    # ------------------------------------------------------------------
    # receiver pull pacing (fair share round robin)
    # ------------------------------------------------------------------

    def _ensure_pacer(self) -> None:
        if self._pacer is not None and Simulator.is_pending(self._pacer):
            return
        if self._pull_ring:
            self._pacer = self.sim.schedule(self.pull_interval_ps, self._pace)

    def _pace(self) -> None:
        self._pacer = None
        while self._pull_ring:
            key = self._pull_ring.popleft()
            msg = self.inbound.get(key)
            if msg is None:
                continue
            issued = self._pulls_issued.get(key, 0)
            if issued >= msg.length:
                continue  # fully pulled; completion removes state
            self._pulls_issued[key] = issued + MAX_PAYLOAD
            if self._pulls_issued[key] < msg.length:
                self._pull_ring.append(key)  # stay in the fair-share ring
            self.pulls_sent += 1
            self.send_ctrl(Packet(
                self.hid, msg.src, PacketType.PULL, prio=CTRL_PRIO,
                rpc_id=msg.rpc_id, is_request=True))
            break
        self._ensure_pacer()
