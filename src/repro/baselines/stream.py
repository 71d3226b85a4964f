"""Connection-oriented streaming transport (TCP / InfRC stand-in).

Models the property the paper attributes 100x tail latency to: each
(source, destination) pair shares a fixed set of byte-stream
connections, messages on a connection are transmitted strictly FIFO, so
a short message queues behind any long message ahead of it
(head-of-line blocking, sections 2.2/5.1).  With
``connections_per_pair > 1`` messages round-robin across connections
("TCP-MC" / "InfRC-MC"), which removes most HOL blocking but uses no
priorities — the paper shows this lands at Basic's performance level.

Flow control is an idealized fixed window of one bandwidth-delay
product per connection with per-packet cumulative ACKs — deliberately
generous to TCP (no slow start, no clean-fabric loss), so any latency
gap vs Homa is attributable to the streaming architecture itself.

Loss recovery (docs/FABRICS.md, active only with a RecoveryConfig): the
sender tracks per-packet ACKs in ``msg.acked`` and watches each
message on the shared ``_out_watch`` — on expiry the unacked ranges
below ``msg.sent`` are presumed lost, their window share is released (a lost
DATA or ACK otherwise leaks ``in_flight`` forever and wedges the
connection) and queued for retransmission at the head of the FIFO; the
give-up budget retires the message and fires the RPC error callback.
The receiver GCs inbound messages whose sender went silent and
re-ACKs late retransmissions of recently completed messages.
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Simulator
from repro.core.packet import CTRL_PRIO, Packet, PacketType
from repro.transport.base import RecoveryConfig, Transport
from repro.transport.messages import InboundMessage, OutboundMessage
from repro.transport.rotation import ReadyRing


class _Connection:
    """One direction of one byte-stream connection."""

    __slots__ = ("peer", "index", "queue", "in_flight", "window", "ring_pos")

    def __init__(self, peer: int, index: int, window: int) -> None:
        self.peer = peer
        self.index = index
        self.queue: list[OutboundMessage] = []  # FIFO messages
        self.in_flight = 0
        self.window = window

    def sendable(self) -> bool:
        if self.in_flight >= self.window:
            return False
        while self.queue and self.queue[0].fully_sent():
            self.queue.pop(0)  # simlint: ok(quadratic-pop) — a connection holds at most 18 messages on any measured run; a deque costs 760 B per idle connection (docs/PERFORMANCE.md, "Stream connection state")
        return bool(self.queue)


class StreamTransport(Transport):
    """FIFO byte-stream transport with N connections per destination."""

    protocol_name = "stream"

    def __init__(self, sim: Simulator, *, window_bytes: int,
                 connections_per_pair: int = 1,
                 recovery: RecoveryConfig | None = None) -> None:
        super().__init__(sim, recovery)
        if connections_per_pair < 1:
            raise ValueError("need at least one connection per pair")
        self.window_bytes = window_bytes
        self.connections_per_pair = connections_per_pair
        self.connections: dict[int, list[_Connection]] = {}
        self._rr: dict[int, int] = {}  # per-destination assignment RR
        # NIC service RR; a connection is marked wherever it can become
        # sendable (a message joins its queue, ``in_flight`` falls).
        self._ring = ReadyRing()
        # RPC support (for the echo benchmarks).
        self.rpc_handler = None
        self._client_cbs: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def _connection_for(self, dst: int) -> _Connection:
        conns = self.connections.get(dst)
        if conns is None:
            conns = [_Connection(dst, i, self.window_bytes)
                     for i in range(self.connections_per_pair)]
            self.connections[dst] = conns
            self._ring.add(*conns)
        index = self._rr.get(dst, 0)
        self._rr[dst] = (index + 1) % len(conns)
        return conns[index]

    def send_message(self, dst: int, length: int, *, rpc_id: int | None = None,
                     is_request: bool = True,
                     app_meta: int | None = None) -> OutboundMessage:
        rpc_id = rpc_id if rpc_id is not None else self.sim.new_id()
        msg = OutboundMessage(rpc_id, is_request, self.hid, dst, length,
                              unsched_limit=length,  # window governs pacing
                              created_ps=self.sim.now, app_meta=app_meta)
        conn = self._connection_for(dst)
        conn.queue.append(msg)
        self._ring.mark(conn)
        if self._out_watch is not None:
            # Under recovery the sender record is (message, connection),
            # kept until the last byte is acknowledged.
            self._watch_outbound(msg.key, (msg, conn))
        self.kick()
        return msg

    def send_rpc(self, dst: int, length: int, *, on_response=None,
                 on_error=None, app_meta: int | None = None) -> int:
        rpc_id = self.sim.new_id()
        self._client_cbs[rpc_id] = (on_response, on_error)
        self.send_message(dst, length, rpc_id=rpc_id, is_request=True,
                          app_meta=app_meta)
        return rpc_id

    def _next_data(self) -> Optional[Packet]:
        # The NIC serves connections round-robin (per-connection fair
        # queueing); within a connection, strict FIFO — that FIFO is the
        # HOL-blocking source the paper measures.
        best: Optional[_Connection] = self._ring.pull(_Connection.sendable)
        if best is None:
            return None
        msg = best.queue[0]
        offset, size, is_rtx = msg.next_chunk()
        best.in_flight += size
        if is_rtx:
            self.rtx_data_sent += 1
        if msg.fully_sent():
            best.queue.pop(0)
        return Packet(
            self.hid, best.peer, PacketType.DATA, prio=0, payload=size,
            rpc_id=msg.rpc_id, is_request=msg.is_request, offset=offset,
            total_length=msg.length, retx=is_rtx, app_meta=msg.app_meta,
            grant_offset=best.index, created_ps=msg.created_ps)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.kind == PacketType.ACK:
            self._on_ack(pkt)

    def _on_data(self, pkt: Packet) -> None:
        msg = self._inbound_for(pkt)
        if msg is None:
            return
        self._record(msg, pkt)
        # Per-packet ACK releases window on the sending side; the ACK
        # carries the connection index so the sender credits correctly.
        self._ack(pkt)
        if msg.is_complete():
            self._complete(msg)

    def _ack(self, pkt: Packet) -> None:
        self.send_ctrl(Packet(
            self.hid, pkt.src, PacketType.ACK, prio=CTRL_PRIO,
            rpc_id=pkt.rpc_id, is_request=pkt.is_request,
            offset=pkt.offset, payload=0, range_end=pkt.payload,
            grant_offset=pkt.grant_offset))

    #: a late copy of a completed message is ACKed like any other
    _reack = _ack

    def _report_complete(self, msg: InboundMessage) -> None:
        super()._report_complete(msg)
        if msg.is_request:
            if self.rpc_handler is not None:
                self.rpc_handler(self, msg)
        else:
            cbs = self._client_cbs.pop(msg.rpc_id, None)
            if cbs is not None and cbs[0] is not None:
                cbs[0](msg.rpc_id, msg)

    def respond(self, request: InboundMessage, length: int) -> OutboundMessage:
        """Server side of an RPC: send the response on the stream."""
        return self.send_message(request.src, length, rpc_id=request.rpc_id,
                                 is_request=False)

    def _on_ack(self, pkt: Packet) -> None:
        conns = self.connections.get(pkt.src)
        if not conns:
            return
        conn = conns[pkt.grant_offset % len(conns)]
        conn.in_flight = max(0, conn.in_flight - pkt.range_end)
        self._ring.mark(conn)
        if self._out_watch is not None:
            key = pkt.msg_key
            sending = self.outbound.get(key)
            if sending is not None:
                msg = sending[0]
                msg.acked.add(pkt.offset, pkt.offset + pkt.range_end)
                self._out_watch.touch(key)
                if msg.acked.total >= msg.length:
                    self._retire(key)
        self.kick()

    # ------------------------------------------------------------------
    # loss recovery (hooks only fire when a RecoveryConfig is present)
    # ------------------------------------------------------------------

    def _repair(self, sending: tuple[OutboundMessage, _Connection]) -> None:
        """Sender timeout: unacked bytes below ``sent`` are presumed
        lost — release their window share and queue them for rtx."""
        msg, conn = sending
        lost_ranges = msg.acked.gaps(min(msg.sent, msg.length))
        if not lost_ranges:
            # Nothing outstanding: the message is still queued (or all
            # sent bytes acked) — silence here is not loss.
            self._out_watch.touch(msg.key)
            return
        for start, end in lost_ranges:
            # Release window only for bytes not already queued for rtx,
            # so repeated expiries cannot inflate the window.
            lost = end - start
            for chunk in msg.rtx:
                overlap = min(end, chunk[1]) - max(start, chunk[0])
                if overlap > 0:
                    lost -= overlap
            if lost > 0:
                conn.in_flight = max(0, conn.in_flight - lost)
            msg.queue_rtx(start, end)
        if msg not in conn.queue:
            # Retransmissions jump the FIFO: the message already paid
            # its HOL-blocking dues on first transmission.
            conn.queue.insert(0, msg)
        self._ring.mark(conn)
        self.kick()

    def _forget_outbound(self, sending: tuple[OutboundMessage, _Connection]) -> None:
        """Retired short of its last ACK (a give-up): withdraw the
        message from its connection, release its window share and fail
        the RPC."""
        msg, conn = sending
        if msg.acked.total >= msg.length:
            return
        msg.rtx.clear()
        try:
            conn.queue.remove(msg)
        except ValueError:
            pass
        conn.in_flight = max(
            0, conn.in_flight - max(0, msg.sent - msg.acked.total))
        self._ring.mark(conn)
        if msg.is_request:
            cbs = self._client_cbs.pop(msg.rpc_id, None)
            if cbs is not None and cbs[1] is not None:
                cbs[1](msg.rpc_id)
        self.kick()
