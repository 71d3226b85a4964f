"""pFabric (Alizadeh et al., SIGCOMM 2013).

"pFabric approximates SRPT accurately, but it requires too many
priority levels to implement with today's switches" (section 2.2).

Mechanics reproduced here:

* each packet carries a fine-grained priority equal to the message's
  remaining bytes at send time; switches (``PfabricPort``) dequeue the
  most urgent packet and drop the least urgent on overflow;
* switch buffers are tiny (~2 bandwidth-delay products);
* senders transmit at line rate with one BDP in flight per message,
  relying on drops for congestion signalling;
* per-packet ACKs; timeout-driven retransmission with a short RTO;
  probe mode after repeated timeouts so a starved flow doesn't hammer
  the fabric with full-size packets.

The paper notes pFabric wastes bandwidth because dropped packets must
be retransmitted — that emerges naturally here (Figure 15).

Loss recovery (docs/FABRICS.md): the RTO machinery above already runs
on *clean* fabrics (priority drops are pFabric's congestion signal),
so everything injected-loss-specific is gated on a RecoveryConfig:
re-probing with backoff (a probing flow whose PROBE or probe-ACK is
destroyed otherwise waits forever), backoff on the stall-recovery
resend, a give-up budget over fruitless recovery rounds, receiver-side
GC of partial inbound messages, and re-ACKing late retransmissions of
recently completed messages.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType
from repro.transport.base import RecoveryConfig, Transport
from repro.transport.messages import OutboundMessage

#: consecutive timeouts before a flow enters probe mode
PROBE_AFTER = 5


class _PfabricFlow:
    """Sender-side per-message state."""

    __slots__ = ("msg", "unacked", "timeouts", "probing", "next_new",
                 "rec_rounds", "rec_last_ps")

    def __init__(self, msg: OutboundMessage) -> None:
        self.msg = msg
        self.unacked: dict[int, tuple[int, int]] = {}  # offset -> (size, sent_ps)
        self.timeouts = 0
        self.probing = False
        self.next_new = 0  # next fresh byte offset to send
        self.rec_rounds = 0   # fruitless recovery rounds (recovery only)
        self.rec_last_ps = 0  # last recovery action (backoff anchor)

    def remaining_to_ack(self) -> int:
        return self.msg.length - self.msg.acked.total

    def window_room(self, window: int) -> bool:
        return self.msg.in_flight < window

    def has_new_bytes(self) -> bool:
        return self.next_new < self.msg.length


class PfabricTransport(Transport):
    """pFabric sender+receiver (requires ``queue_mode='pfabric'``)."""

    protocol_name = "pfabric"

    def __init__(self, sim: Simulator, *, rtt_bytes: int, rtt_ps: int,
                 recovery: RecoveryConfig | None = None) -> None:
        super().__init__(sim, recovery)
        self.window = rtt_bytes              # one BDP in flight per flow
        self.rto_ps = 3 * rtt_ps             # pFabric uses a small RTO
        self.flows: dict[int, _PfabricFlow] = {}
        self._rtx_queue: deque[tuple[_PfabricFlow, int, int]] = deque()
        self._timer = None
        self.retransmissions = 0
        self.probes_sent = 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_message(self, dst: int, length: int, **kwargs) -> OutboundMessage:
        msg = OutboundMessage(self.sim.new_id(), True, self.hid, dst, length,
                              unsched_limit=length, created_ps=self.sim.now)
        self.flows[msg.key] = _PfabricFlow(msg)
        self._ensure_timer()
        self.kick()
        return msg

    def _next_data(self) -> Optional[Packet]:
        # Retransmissions first (they are the most urgent by SRPT since
        # their flows have the least un-acked data left).
        while self._rtx_queue:
            flow, offset, size = self._rtx_queue.popleft()
            if flow.msg.key not in self.flows:
                continue
            if flow.msg.acked.covers(offset, offset + size):
                continue
            self.retransmissions += 1
            self.rtx_data_sent += 1
            return self._data_packet(flow, offset, size, retx=True)
        best: Optional[_PfabricFlow] = None
        best_rank = None
        for flow in self.flows.values():
            if flow.probing or not flow.has_new_bytes():
                continue
            if not flow.window_room(self.window):
                continue
            rank = (flow.remaining_to_ack(), flow.msg.created_ps)
            if best_rank is None or rank < best_rank:
                best, best_rank = flow, rank
        if best is None:
            return None
        offset = best.next_new
        size = min(MAX_PAYLOAD, best.msg.length - offset)
        best.next_new += size
        return self._data_packet(best, offset, size, retx=False)

    def _data_packet(self, flow: _PfabricFlow, offset: int, size: int,
                     *, retx: bool) -> Packet:
        msg = flow.msg
        msg.in_flight += size
        flow.unacked[offset] = (size, self.sim.now)
        return Packet(
            self.hid, msg.dst, PacketType.DATA,
            prio=0, fine_prio=flow.remaining_to_ack(),
            payload=size, rpc_id=msg.rpc_id, is_request=True,
            offset=offset, total_length=msg.length, retx=retx,
            created_ps=msg.created_ps)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.kind == PacketType.ACK:
            self._on_ack(pkt)
        elif pkt.kind == PacketType.PROBE:
            self._on_probe(pkt)

    def _on_data(self, pkt: Packet) -> None:
        msg = self._inbound_for(pkt)
        if msg is None:
            return
        self._record(msg, pkt)
        # ACKs carry fine priority 0: most urgent, never dropped first.
        self._ack(pkt)
        if msg.is_complete():
            self._complete(msg)

    def _ack(self, pkt: Packet) -> None:
        self.send_ctrl(Packet(
            self.hid, pkt.src, PacketType.ACK, prio=7, fine_prio=0,
            rpc_id=pkt.rpc_id, is_request=True,
            offset=pkt.offset, range_end=pkt.payload))

    #: a late copy of a completed message is ACKed like any other
    _reack = _ack

    def _on_probe(self, pkt: Packet) -> None:
        self.send_ctrl(Packet(
            self.hid, pkt.src, PacketType.ACK, prio=7, fine_prio=0,
            rpc_id=pkt.rpc_id, is_request=True, offset=-1, range_end=0))

    def _on_ack(self, pkt: Packet) -> None:
        flow = self.flows.get(pkt.msg_key)
        if flow is None:
            return
        flow.timeouts = 0
        flow.rec_rounds = 0  # any ACK (incl. probe-ACK) proves liveness
        if flow.probing:
            flow.probing = False  # the path is live again
        if pkt.offset >= 0:
            entry = flow.unacked.pop(pkt.offset, None)
            if entry is not None:
                flow.msg.in_flight = max(0, flow.msg.in_flight - entry[0])
            flow.msg.acked.add(pkt.offset, pkt.offset + pkt.range_end)
            if flow.msg.acked.total >= flow.msg.length:
                self._retire(flow)
        self.kick()

    def _retire(self, flow: _PfabricFlow) -> None:
        """Fully acked or given up: drop the sender state."""
        del self.flows[flow.msg.key]

    # ------------------------------------------------------------------
    # retransmission timer
    # ------------------------------------------------------------------

    def _ensure_timer(self) -> None:
        if self._timer is not None and Simulator.is_pending(self._timer):
            return
        if self.flows:
            self._timer = self.sim.schedule(self.rto_ps // 2, self._check_timeouts)

    def _check_timeouts(self) -> None:
        self._timer = None
        now = self.sim.now
        for flow in list(self.flows.values()):
            if not flow.unacked:
                # Stall recovery: every transmission (including earlier
                # retransmissions) was dropped and acknowledged nothing;
                # resend the first missing range.
                if (not flow.probing and not flow.has_new_bytes()
                        and flow.msg.acked.total < flow.msg.length):
                    if self._recovery_round(flow, self.recovery, now):
                        gap = flow.msg.acked.first_gap(flow.msg.length)
                        if gap is not None:
                            size = min(MAX_PAYLOAD, gap[1] - gap[0])
                            self._rtx_queue.append((flow, gap[0], size))
                            self.kick()
                elif flow.probing and self.recovery is not None:
                    # Injected loss can destroy the PROBE or its ACK;
                    # without a re-probe the flow waits forever.
                    if self._recovery_round(flow, self.recovery, now):
                        self.probes_sent += 1
                        self.send_ctrl(Packet(
                            self.hid, flow.msg.dst, PacketType.PROBE,
                            prio=0, fine_prio=flow.remaining_to_ack(),
                            rpc_id=flow.msg.rpc_id, is_request=True))
                continue
            oldest_offset, (size, sent_ps) = min(
                flow.unacked.items(), key=lambda item: item[1][1])
            if now - sent_ps < self.rto_ps:
                continue
            flow.timeouts += 1
            # The packet is presumed dropped: release its window share.
            flow.unacked.pop(oldest_offset)
            flow.msg.in_flight = max(0, flow.msg.in_flight - size)
            if flow.timeouts >= PROBE_AFTER:
                flow.probing = True
                flow.rec_last_ps = now  # anchor the re-probe backoff
                self.probes_sent += 1
                self.send_ctrl(Packet(
                    self.hid, flow.msg.dst, PacketType.PROBE, prio=0,
                    fine_prio=flow.remaining_to_ack(),
                    rpc_id=flow.msg.rpc_id, is_request=True))
            else:
                self._rtx_queue.append((flow, oldest_offset, size))
                self.kick()
        self._ensure_timer()
