"""pHost (Gao et al., CoNEXT 2015) — the closest prior scheme to Homa.

Receiver-driven packet scheduling like Homa, but (per the paper's
characterization in sections 2.2 and 7):

* only two statically assigned priority levels: RTS/tokens/unscheduled
  data at high priority, all scheduled data at one low priority;
* no overcommitment: the receiver paces tokens to a *single* sender at
  a time (the shortest remaining flow), so an unresponsive sender
  wastes downlink bandwidth until a timeout fires;
* senders spend tokens SRPT-first, and tokens expire if unused.

The wasted-bandwidth behaviour (pHost sustains only 58-73% load,
Figure 15) emerges from the single-active-sender pacing plus token
expiry, exactly as the paper describes.

Loss recovery (docs/FABRICS.md, active only with a RecoveryConfig):
the token protocol has two wedge points under packet loss — the
receiver stops granting once ``tokens_issued`` reaches the message
length even when the data never arrived, and the sender discards all
state the moment the last byte hits the wire, so nothing can answer a
late repair request.  With recovery enabled the receiver sends
*gap tokens* (TOKEN packets carrying an explicit ``offset``/
``range_end``) for tokenized-but-missing bytes, the sender keeps
fully-sent messages *lingering* in ``outbound`` until a completion ACK
arrives, and a silent peer is re-RTSed with backoff until the give-up
budget retires the message on both sides.
"""

from __future__ import annotations

from itertools import islice
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
from repro.transport.messages import InboundMessage, OutboundMessage

#: scheduled data priority (unscheduled + control use CTRL_PRIO)
SCHED_PRIO = 0


class _TokenBucket:
    """Sender-side token budget for one message, with expiry."""

    __slots__ = ("deadlines",)

    def __init__(self) -> None:
        #: in expiry order: every token lives the same fixed ttl
        self.deadlines: list[int] = []

    def add(self, expiry_ps: int) -> None:
        self.deadlines.append(expiry_ps)

    def usable(self, now_ps: int) -> int:
        deadlines = self.deadlines
        while deadlines and deadlines[0] < now_ps:
            deadlines.pop(0)  # simlint: ok(quadratic-pop) — a message held at most 17 tokens on any measured run; a deque costs 760 B per message (docs/PERFORMANCE.md, "Switch-port and NIC FIFOs")
        return len(deadlines)

    def spend(self) -> None:
        self.deadlines.pop(0)  # simlint: ok(quadratic-pop) — a message held at most 17 tokens on any measured run; a deque costs 760 B per message (docs/PERFORMANCE.md, "Switch-port and NIC FIFOs")


class PHostTransport(Transport):
    """pHost sender+receiver."""

    protocol_name = "phost"

    def __init__(
        self,
        sim: Simulator,
        *,
        rtt_bytes: int,
        host_gbps: int = 10,
        rtt_ps: int = 7_744_000,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        super().__init__(sim, recovery)
        self.rtt_bytes = rtt_bytes
        self.unsched_limit = -(-rtt_bytes // MAX_PAYLOAD) * MAX_PAYLOAD
        #: pacing interval: one token per full-packet time on the downlink
        self.token_interval_ps = FULL_WIRE * ps_per_byte(host_gbps)
        # pHost defaults expressed in our units: tokens live ~1.5 packet
        # times beyond the round trip; a sender idle for a few packet
        # times while holding tokens gets set aside for a while.
        self.token_ttl_ps = rtt_ps + 3 * self.token_interval_ps
        self.unresponsive_timeout_ps = 3 * self.token_interval_ps + rtt_ps
        self.blacklist_ps = 3 * rtt_ps
        # Sender state beside ``outbound``.
        self.tokens: dict[int, _TokenBucket] = {}
        # Receiver state (beside ``inbound``).
        self.tokens_issued: dict[int, int] = {}      # key -> bytes tokenized
        self.last_data_ps: dict[int, int] = {}       # key -> last data time
        self.token_grant_ps: dict[int, int] = {}     # key -> last token time
        self.blacklisted_until: dict[int, int] = {}  # key -> time
        self._pacer_event = None
        self.tokens_sent = 0
        self.tokens_expired = 0
        self.resends_sent = 0  # re-RTS + gap tokens (recovery only)

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_message(self, dst: int, length: int, **kwargs) -> OutboundMessage:
        msg = OutboundMessage(self.sim.new_id(), True, self.hid, dst, length,
                              unsched_limit=self.unsched_limit,
                              created_ps=self.sim.now)
        self._watch_outbound(msg.key, msg)
        # RTS announces the message so the receiver can schedule tokens.
        self.send_ctrl(Packet(
            self.hid, dst, PacketType.RTS, prio=CTRL_PRIO,
            rpc_id=msg.rpc_id, is_request=True, total_length=length,
            created_ps=msg.created_ps))
        self.kick()
        return msg

    def _next_data(self) -> Optional[Packet]:
        now = self.sim.now
        best: Optional[OutboundMessage] = None
        best_key = None
        best_tokens: Optional[_TokenBucket] = None
        for msg in self.outbound.values():
            if msg.sent >= msg.length and not msg.rtx:
                continue  # lingering until the completion ACK
            bucket = self.tokens.get(msg.key)
            has_token = bucket is not None and bucket.usable(now) > 0
            blind = msg.sent < min(msg.unsched_limit, msg.length)
            if not blind and not has_token:
                continue
            key = (msg.remaining, msg.created_ps)
            if best_key is None or key < best_key:
                best, best_key = msg, key
                best_tokens = bucket if (has_token and not blind) else None
        if best is None:
            return None
        if best_tokens is not None:
            best_tokens.spend()
            best.granted = max(best.granted,
                               min(best.length, best.sent + MAX_PAYLOAD))
        offset, size, is_rtx = best.next_chunk()
        if is_rtx:
            self.rtx_data_sent += 1
        prio = CTRL_PRIO if offset < best.unsched_limit else SCHED_PRIO
        pkt = Packet(self.hid, best.dst, PacketType.DATA, prio=prio,
                     payload=size, rpc_id=best.rpc_id, is_request=True,
                     offset=offset, total_length=best.length, retx=is_rtx,
                     sched=offset >= best.unsched_limit,
                     grant_offset=min(best.length, best.unsched_limit),
                     created_ps=best.created_ps)
        if best.fully_sent():
            # Every byte is on the wire.  Under recovery the message
            # lingers (still watched) until the completion ACK — a lost
            # tail or repair request can still need it.
            if self._out_watch is None:
                self._retire(best.key)
            else:
                self.tokens.pop(best.key, None)
        return pkt

    def _forget_outbound(self, msg: OutboundMessage) -> None:
        self.tokens.pop(msg.key, None)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        if pkt.kind == PacketType.DATA:
            self._on_data(pkt)
        elif pkt.kind == PacketType.RTS:
            self._on_rts(pkt)
        elif pkt.kind == PacketType.TOKEN:
            self._on_token(pkt)
        elif pkt.kind == PacketType.ACK:
            self._on_done_ack(pkt)

    def _registered(self, msg: InboundMessage) -> None:
        self.tokens_issued[msg.key] = min(msg.length, self.unsched_limit)
        self.last_data_ps[msg.key] = self.sim.now

    def _forget_inbound(self, key: int) -> None:
        self.tokens_issued.pop(key, None)
        self.last_data_ps.pop(key, None)
        self.token_grant_ps.pop(key, None)
        self.blacklisted_until.pop(key, None)

    def _on_rts(self, pkt: Packet) -> None:
        # A re-announcement of a completed message means the completion
        # ACK was lost: ``_inbound_for`` re-sends it.
        if self._inbound_for(pkt) is not None:
            self._ensure_pacer()

    def _on_data(self, pkt: Packet) -> None:
        msg = self._inbound_for(pkt)
        if msg is None:
            return
        self.last_data_ps[msg.key] = self.sim.now
        self.blacklisted_until.pop(msg.key, None)
        self._record(msg, pkt)
        if msg.is_complete():
            self._complete(msg)
        self._ensure_pacer()

    def _report_complete(self, message: InboundMessage) -> None:
        if self._in_watch is not None:
            self._send_done_ack(message.src, message.rpc_id, message.length)
        super()._report_complete(message)

    def _reack(self, pkt: Packet) -> None:
        self._send_done_ack(pkt.src, pkt.rpc_id, pkt.total_length)

    def _send_done_ack(self, dst: int, rpc_id: int, length: int) -> None:
        """Completion ACK (recovery only): releases the sender's
        lingering copy."""
        self.send_ctrl(Packet(
            self.hid, dst, PacketType.ACK, prio=CTRL_PRIO,
            rpc_id=rpc_id, is_request=True, offset=length))

    def _on_done_ack(self, pkt: Packet) -> None:
        if pkt.msg_key in self.outbound:
            self._retire(pkt.msg_key)

    def _on_token(self, pkt: Packet) -> None:
        key = pkt.msg_key
        msg = self.outbound.get(key)
        if msg is None:
            return  # retired: completed, or both sides gave up
        if pkt.range_end > 0:
            # Gap token (recovery): the receiver names the exact missing
            # range; re-queue it even if the message already lingers.
            msg.queue_rtx(pkt.offset, pkt.range_end)
        bucket = self.tokens.get(key)
        if bucket is None:
            bucket = _TokenBucket()
            self.tokens[key] = bucket
        bucket.add(self.sim.now + self.token_ttl_ps)
        if self._out_watch is not None:
            self._out_watch.touch(key)
        self.kick()

    # ------------------------------------------------------------------
    # receiver token pacing (one token per packet time, single flow)
    # ------------------------------------------------------------------

    def _ensure_pacer(self) -> None:
        if self._pacer_event is not None and Simulator.is_pending(self._pacer_event):
            return
        if self._pick_flow() is not None:
            self._pacer_event = self.sim.schedule(
                self.token_interval_ps, self._pace_token)
            return
        # All flows needing tokens may be blacklisted: wake at expiry.
        now = self.sim.now
        expiries = [
            until for key, until in self.blacklisted_until.items()
            if until > now and key in self.inbound
            and self.tokens_issued.get(key, 0) < self.inbound[key].length
        ]
        if expiries:
            delay = max(self.token_interval_ps, min(expiries) - now)
            self._pacer_event = self.sim.schedule(delay, self._pace_token)

    def _pick_flow(self) -> Optional[InboundMessage]:
        """Shortest remaining flow that still needs tokens and is not
        blacklisted for unresponsiveness."""
        now = self.sim.now
        best = None
        best_key = None
        for msg in self.inbound.values():
            key = msg.key
            if self.tokens_issued.get(key, 0) >= msg.length:
                continue
            until = self.blacklisted_until.get(key)
            if until is not None and now < until:
                continue
            rank = (msg.bytes_remaining, msg.first_arrival_ps)
            if best_key is None or rank < best_key:
                best, best_key = msg, rank
        return best

    def _pace_token(self) -> None:
        self._pacer_event = None
        now = self.sim.now
        # Unresponsiveness check: tokens issued but no data arriving.
        for msg in self.inbound.values():
            key = msg.key
            issued = self.tokens_issued.get(key, 0)
            granted_ahead = issued - msg.bytes_received
            if (granted_ahead > 0
                    and now - self.last_data_ps.get(key, now)
                    > self.unresponsive_timeout_ps
                    and key not in self.blacklisted_until):
                self.blacklisted_until[key] = now + self.blacklist_ps
                self.tokens_expired += 1
        flow = self._pick_flow()
        if flow is None:
            self._ensure_pacer()
            return
        key = flow.key
        self.tokens_issued[key] = min(
            flow.length, self.tokens_issued.get(key, 0) + MAX_PAYLOAD)
        self.token_grant_ps[key] = now
        self.tokens_sent += 1
        self.send_ctrl(Packet(
            self.hid, flow.src, PacketType.TOKEN, prio=CTRL_PRIO,
            rpc_id=flow.rpc_id, is_request=True))
        self._ensure_pacer()

    # ------------------------------------------------------------------
    # loss recovery (hooks only fire when a RecoveryConfig is present)
    # ------------------------------------------------------------------

    def _repair(self, msg: OutboundMessage) -> None:
        """Token/ACK silence on the sender: re-announce with an RTS.  An
        RTS is idempotent and answers every silent failure mode — a lost
        RTS (the receiver never learned of the message), lost tokens, a
        lost data tail (the receiver's gap machinery takes over), or a
        lost completion ACK (the receiver re-acks from done-memory)."""
        self.resends_sent += 1
        self.send_ctrl(Packet(
            self.hid, msg.dst, PacketType.RTS, prio=CTRL_PRIO,
            rpc_id=msg.rpc_id, is_request=True, total_length=msg.length,
            created_ps=msg.created_ps))

    def _in_expire(self, key: int, tries: int) -> None:
        """Tokenized bytes never arrived: name the gaps with gap tokens
        so the sender retransmits exactly the missing ranges."""
        msg = self.inbound[key]
        horizon = min(self.tokens_issued.get(key, 0), msg.length)
        missing = msg.received.gaps(horizon)
        if not missing:
            # Everything granted has arrived; further progress belongs
            # to the token pacer, so the silence is not loss.
            self._in_watch.touch(key)
            self._ensure_pacer()
            return
        # At most 8 packets per expiry; backoff spreads the rest.
        for offset, size in islice(gap_chunks(missing), 8):
            self.resends_sent += 1
            self.send_ctrl(Packet(
                self.hid, msg.src, PacketType.TOKEN, prio=CTRL_PRIO,
                rpc_id=msg.rpc_id, is_request=True,
                offset=offset, range_end=offset + size))
