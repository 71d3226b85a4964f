"""The Homa transport (paper section 3).

One ``HomaTransport`` instance runs on each host and plays both roles:

* **Sender** (3.2): transmits the unscheduled prefix of each message
  blindly, then only granted bytes; picks the outgoing packet with SRPT
  (fewest remaining bytes first); control packets always go first.
* **Receiver** (3.3-3.5): keeps each active message RTTbytes
  granted-but-not-received; grants to the top-K shortest messages
  simultaneously (controlled overcommitment, K = number of scheduled
  priority levels); assigns a distinct scheduled priority per active
  message, lowest levels first to avoid preemption lag (Figure 5).
  One ranking pass picks the active set and emits at most one GRANT
  per active message.  The three emitters differ only in *when* it
  runs: per arriving data packet (``grant_batch_ns=0``, the paper's
  simulator), once per interval of a per-receiver batch timer
  (``grant_batch_ns`` nonzero, as real implementations do —
  arXiv:1803.09615 section 4), or once per ``grant_batch_pkts`` data
  arrivals (the Linux kernel's approach).
* **RPC layer** (3.1, 3.6-3.8): connectionless at-least-once RPCs; the
  response acknowledges the request; servers discard all RPC state once
  the last response byte is handed to the NIC; incast control marks
  requests of clients with many outstanding RPCs so servers limit the
  unscheduled portion of responses.
"""

from __future__ import annotations

from heapq import nsmallest
from itertools import count
from typing import Callable, Optional

from repro.core.engine import Simulator
from repro.core.packet import CTRL_PRIO, MAX_PAYLOAD, Packet, PacketType
from repro.core.units import NS, ps_per_byte
from repro.homa.config import HomaConfig
from repro.homa.priorities import (
    OnlineEstimator,
    PriorityAllocation,
    allocate_priorities,
)
from repro.transport.base import Transport
from repro.transport.messages import InboundMessage, OutboundMessage


class ClientRpc:
    """Client-side state of one outstanding RPC."""

    __slots__ = ("rpc_id", "dst", "request", "response_started", "resends",
                 "last_activity_ps", "on_response", "on_error", "created_ps",
                 "incast")

    def __init__(self, rpc_id, dst, request, now_ps, on_response, on_error,
                 incast):
        self.rpc_id = rpc_id
        self.dst = dst
        self.request = request
        self.response_started = False
        self.resends = 0
        self.last_activity_ps = now_ps
        self.on_response = on_response
        self.on_error = on_error
        self.created_ps = now_ps
        self.incast = incast


class ServerRpc:
    """Server-side state of one RPC (discarded once the response is sent)."""

    __slots__ = ("rpc_id", "client", "request_length", "response", "incast",
                 "app_meta")

    def __init__(self, rpc_id, client, request_length, incast, app_meta):
        self.rpc_id = rpc_id
        self.client = client
        self.request_length = request_length
        self.response: Optional[OutboundMessage] = None
        self.incast = incast
        self.app_meta = app_meta


# Ranking keys (module-level: no per-call closure allocation in the
# hot ranking pass).  ``sort_seq`` makes each a total order.
def _srpt_key(m) -> tuple:
    """Top-K selection: fewest remaining bytes, then oldest first
    arrival, then insertion order."""
    return (m.length - m.received.total, m.first_arrival_ps, m.sort_seq)


def _arrival_key(m) -> tuple:
    """``grant_oldest``: oldest first arrival, then insertion order."""
    return (m.first_arrival_ps, m.sort_seq)


def _rank_key(m) -> tuple:
    """Priority order within the active set: most remaining bytes
    first, then oldest first arrival, then insertion order."""
    return (-m.bytes_remaining, -m.first_arrival_ps, m.sort_seq)


class HomaTransport(Transport):
    """Full Homa protocol implementation."""

    protocol_name = "homa"

    def __init__(
        self,
        sim: Simulator,
        cfg: HomaConfig,
        allocation: PriorityAllocation,
        rtt_bytes: int,
        link_gbps: int = 10,
        peer_gc: bool = False,
    ) -> None:
        super().__init__(sim)
        self.cfg = cfg
        self.alloc = allocation
        self.rtt_bytes = rtt_bytes
        self.unsched_limit = cfg.resolved_unsched_limit(self.rtt_bytes)
        # Bytes kept granted-but-not-received per active message.  Legacy
        # per-packet mode: exactly RTTbytes (the paper's simulator).  In
        # batched mode the target also covers the grant emission delay —
        # one batch interval of line-rate bytes — otherwise the sender's
        # window hits zero between ticks and large-message throughput
        # drops by ~tick/RTT (see docs/PERFORMANCE.md).
        if cfg.grant_batch_pkts:
            # Count-based coalescing: the emission delay is at worst N
            # packet serializations, so the window covers N payloads.
            batch_slack = cfg.grant_batch_pkts * MAX_PAYLOAD
        elif cfg.grant_batch_ns:
            batch_slack = -(-(cfg.grant_batch_ns * NS)
                            // ps_per_byte(link_gbps))
        else:
            batch_slack = 0
        self.grant_window = self.rtt_bytes + batch_slack
        self.client_rpcs: dict[int, ClientRpc] = {}
        self.server_rpcs: dict[int, ServerRpc] = {}
        # Receiver: exactly the inbound messages still holding or
        # awaiting an overcommitment slot (granted < length under
        # per-packet pacing); the ranking pass reads it directly.
        self._grantable: dict[int, InboundMessage] = {}
        # Registration counter: the last SRPT tie-break on both sides
        # (``sort_seq`` of outbound and inbound messages).
        self._sort_seq = count(1)
        # Set when the grantable membership or the allocation changed:
        # count-based coalescing ranks at once instead of waiting for
        # its Nth arrival.
        self._grant_dirty = True
        # Grant pacer: with grant_batch_ns nonzero, a data arrival only
        # schedules ``_grant_tick`` one interval ahead when no tick is
        # pending (``_grant_event``), so the ranking pass runs once per
        # tick, emitting at most one GRANT per active message (batched
        # mode).  0 = legacy per-packet grants, byte-identical to the seed.
        if cfg.grant_batch_ns < 0:
            raise ValueError(
                f"grant_batch_ns must be >= 0, got {cfg.grant_batch_ns}")
        self._grant_interval_ps = (
            0 if cfg.grant_batch_pkts else cfg.grant_batch_ns * NS)
        self._grant_event = None
        # Count-based coalescing (grant_batch_pkts > 0, the Linux
        # kernel's approach): a data-arrival counter replaces the timer.
        self._grant_batch_pkts = cfg.grant_batch_pkts
        self._data_since_grant = 0
        #: server application: fn(transport, server_rpc) -> None.
        #: When unset, inbound requests are treated as one-way messages.
        self.rpc_handler: Optional[Callable[["HomaTransport", ServerRpc], None]] = None
        #: observer for Figure 16: fn(host_id, withheld: bool)
        self.withheld_observer: Optional[Callable[[int, bool], None]] = None
        self._withheld = False
        self._timer_event = None
        # The overcommitment degree, refreshed only when the allocation
        # changes (read per data packet).
        self._degree = 0
        self._refresh_alloc_cache()
        # Online priority estimation (section 3.4 dissemination).
        self.estimator = OnlineEstimator() if cfg.online_priorities else None
        self._next_refresh_ps = 0
        self.peer_alloc: dict[int, PriorityAllocation] = {}
        # Counters (the loss-recovery ones come from Transport).
        self.grants_sent = 0
        self.grant_ticks = 0
        self.resends_sent = 0
        self.busys_sent = 0
        self.rpcs_aborted = 0
        self.rpcs_completed = 0
        self.reexecutions = 0
        # Peer-liveness GC (degraded fabrics only; docs/FABRICS.md):
        # retires outbound messages stalled waiting on grants from a
        # peer that stopped answering — dead-peer response orphans and
        # orphaned one-way requests — so echo conservation closes
        # exactly at event exhaustion.  Off (False) on clean fabrics:
        # the scan never runs and digests stay byte-identical.
        self._peer_gc = peer_gc
        self._orphan_rounds: dict[int, list] = {}  # key -> [sig, rounds]
        # Done-memory span (only for messages this host sent a RESEND for)
        self._done_horizon_ps = (cfg.max_resends + 1) * cfg.resend_interval_ps

    # ------------------------------------------------------------------
    # public sending API
    # ------------------------------------------------------------------

    def send_message(self, dst: int, length: int, *, unsched_limit: int | None = None,
                     app_meta: int | None = None) -> OutboundMessage:
        """Send a one-way message (the paper's simulation workloads)."""
        return self._new_outbound(self.sim.new_id(), True, dst, length,
                                  unsched_limit, app_meta, False)

    def send_rpc(
        self,
        dst: int,
        length: int,
        *,
        on_response: Optional[Callable[[int, InboundMessage], None]] = None,
        on_error: Optional[Callable[[int], None]] = None,
        app_meta: int | None = None,
    ) -> int:
        """Issue an RPC; returns its globally unique id (section 3.1)."""
        rpc_id = self.sim.new_id()
        incast = (self.cfg.incast_control
                  and len(self.client_rpcs) >= self.cfg.incast_threshold)
        request = self._new_outbound(rpc_id, True, dst, length, None,
                                     app_meta, incast)
        self.client_rpcs[rpc_id] = ClientRpc(
            rpc_id, dst, request, self.sim.now, on_response, on_error, incast)
        self._ensure_timer()
        return rpc_id

    def respond(self, server_rpc: ServerRpc, length: int) -> OutboundMessage:
        """Server application sends the response for an RPC."""
        unsched = None
        if server_rpc.incast:
            # Incast control (3.6): scheduled delivery for marked RPCs.
            unsched = min(self.cfg.incast_response_unsched, length)
        response = self._new_outbound(server_rpc.rpc_id, False,
                                      server_rpc.client, length, unsched,
                                      None, False)
        server_rpc.response = response
        return response

    def _new_outbound(self, rpc_id, is_request, dst, length, unsched_limit,
                      app_meta, incast) -> OutboundMessage:
        """Register a new outbound message (``unsched_limit`` None: the
        transport's); every caller passes all seven arguments
        positionally, as for the message constructors."""
        msg = OutboundMessage(
            rpc_id, is_request, self.hid, dst, length,
            self.unsched_limit if unsched_limit is None else unsched_limit,
            self.sim.now, app_meta)
        msg.incast = incast
        # Always new to ``outbound``: _index_outbound's check, skipped.
        msg.sort_seq = next(self._sort_seq)
        self.outbound[msg.key] = msg
        self.kick()
        return msg

    # ------------------------------------------------------------------
    # sender: SRPT packet selection (3.2)
    # ------------------------------------------------------------------

    def _next_data(self) -> Optional[Packet]:
        """One SRPT pass: the sendable message with the fewest bytes
        left to send, then the oldest, then the first registered."""
        best = None
        best_left = 0
        for msg in self.outbound.values():
            if msg.sent < msg.granted or msg.rtx:
                left = msg.length - msg.sent
                # (left, created_ps, sort_seq) < best's, comparing the
                # bytes left first: a tie-break tuple only on a tie
                if (best is None or left < best_left
                        or left == best_left
                        and (msg.created_ps, msg.sort_seq)
                        < (best.created_ps, best.sort_seq)):
                    best, best_left = msg, left
        if best is None:
            return None
        offset, size, is_rtx = best.next_chunk()
        if best.sent >= best.length and not best.rtx:  # fully_sent(), inlined
            self._outbound_finished(best)
        return self._make_data_packet(best, offset, size, is_rtx)

    def _index_outbound(self, msg: OutboundMessage) -> None:
        """(Re)register a message with the sender; a message new to
        ``outbound`` takes the next ``sort_seq``."""
        if self.outbound.get(msg.key) is not msg:
            msg.sort_seq = next(self._sort_seq)
            self.outbound[msg.key] = msg

    def _make_data_packet(self, msg: OutboundMessage, offset: int, size: int,
                          is_rtx: bool) -> Packet:
        if is_rtx:
            self.rtx_data_sent += 1
        sched = offset >= msg.unsched_limit
        if sched:
            prio = msg.grant_prio
        else:
            alloc = self.peer_alloc.get(msg.dst, self.alloc)
            prio = alloc.unsched_prio(msg.length)
        unsched = msg.unsched_limit
        return Packet(
            self.hid, msg.dst, PacketType.DATA,
            prio, size, msg.rpc_id, msg.is_request, offset,
            msg.length, sched, is_rtx, msg.incast, msg.app_meta,
            msg.length if msg.length < unsched else unsched,
            msg.created_ps,
        )

    def _outbound_finished(self, msg: OutboundMessage) -> None:
        """All bytes handed to the NIC: drop sender state where allowed."""
        self.outbound.pop(msg.key, None)
        if msg.is_request:
            rpc = self.client_rpcs.get(msg.rpc_id)
            if rpc is not None:
                # Start the response timeout clock only now.
                rpc.last_activity_ps = self.sim.now
        else:
            # Server: discard all RPC state once the last response byte
            # is transmitted (at-least-once semantics, section 3.8).
            self.server_rpcs.pop(msg.rpc_id, None)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def on_packet(self, pkt: Packet) -> None:
        kind = pkt.kind
        if kind is PacketType.DATA:  # enum members are singletons
            self._on_data(pkt)
        elif kind is PacketType.GRANT:
            self._on_grant(pkt)
        elif kind is PacketType.RESEND:
            self._on_resend(pkt)
        elif kind is PacketType.BUSY:
            self._on_busy(pkt)
        else:  # pragma: no cover - no other kinds reach a Homa host
            raise ValueError(f"unexpected packet kind {kind}")

    def _on_data(self, pkt: Packet) -> None:
        key = pkt.msg_key
        msg = self.inbound.get(key)
        if msg is None:
            if not pkt.is_request and pkt.rpc_id not in self.client_rpcs:
                return  # duplicate response for a completed RPC: drop
            whole = not pkt.offset and pkt.payload >= pkt.total_length
            msg = (self._arrived_whole(pkt) if whole
                   else self._inbound_for(pkt))
            if msg is None:
                return  # late copy of a message completed after a RESEND
        else:
            whole = False
        if not whole:
            if pkt.grant_offset > msg.granted:
                msg.granted = min(pkt.grant_offset, msg.length)
                if msg.granted >= msg.length and self._grantable.pop(key, None):
                    self._grant_dirty = True
            # InboundMessage.record, inlined (per data packet).
            msg.last_activity_ps = self.sim.now
            end = pkt.offset + pkt.payload
            if msg.received.add(pkt.offset,
                                end if end < msg.length else msg.length):
                msg.resends = 0  # progress resets the retry budget
                if pkt.retx:
                    self.rtx_recovered += 1
            if msg.received.total >= msg.length:  # msg.is_complete(), inlined
                self._complete(msg)
                self._inbound_finished(msg)
        # The grant/timer tail, for every data arrival.
        interval = self._grant_interval_ps
        if not interval:
            n = self._grant_batch_pkts
            if n:
                # Count-based coalescing: one ranking pass per N data
                # arrivals.  Protocol-critical events — a new grantable
                # message or freed overcommitment slot (both set
                # _grant_dirty) and an exhausted sender window — still
                # grant immediately, as the kernel implementation does.
                self._data_since_grant += 1
                if (self._data_since_grant >= n or self._grant_dirty
                        or msg.received.total >= msg.granted):
                    self._data_since_grant = 0
                    self.grant_ticks += 1
                    self._schedule_grants()
            else:
                self._schedule_grants()  # per-packet: the paper's model
        elif self._grantable and self._grant_event is None:
            # Batched mode: mark grant-dirty work by arming the pacer —
            # covers both "this message can take a further grant" and
            # "a completion/full-grant freed an overcommitment slot"
            # (the tick's ranking pass handles either).  An empty
            # grantable set has no grants to extend, so the receiver
            # goes quiescent with no pending tick.
            self._grant_event = self.sim.schedule(interval, self._grant_tick)
        timer = self._timer_event
        if timer is None or timer[2] is None:  # inline is_pending
            self._ensure_timer()
        if self.estimator is not None:
            self._maybe_refresh_allocation()

    def _arrived_whole(self, pkt: Packet) -> Optional[InboundMessage]:
        """First sight of a message whose first packet carries all of it
        (99% of W1's messages): the effects of ``_inbound_for``,
        recording the bytes and ``_complete`` — the ``sort_seq`` draw,
        the estimator, ``response_started``, ``_grant_dirty``, the
        retransmission count, the report and the RPC hand-off — without
        the message ever entering ``inbound`` or ``_grantable``.  None
        for a late copy (the done-memory check comes first)."""
        if self._done_memory and self._late_copy(pkt):
            return None
        msg = InboundMessage(pkt.rpc_id, pkt.is_request, pkt.src, self.hid,
                             pkt.total_length, self.sim.now, pkt.created_ps,
                             pkt.app_meta, pkt.incast)
        msg.received.add(0, msg.length)
        self._registered(msg, False)
        if pkt.retx:
            self.rtx_recovered += 1
        self._report_complete(msg)
        self._inbound_finished(msg)
        return msg

    def _registered(self, msg: InboundMessage, grantable: bool = True) -> None:
        msg.sort_seq = next(self._sort_seq)
        if grantable:
            self._grantable[msg.key] = msg
        self._grant_dirty = True
        if self.estimator is not None:
            self.estimator.record(msg.length)
        if not msg.is_request:
            rpc = self.client_rpcs.get(msg.rpc_id)
            if rpc is not None:
                rpc.response_started = True

    def _forget_inbound(self, key: int) -> None:
        if self._grantable.pop(key, None) is not None:
            self._grant_dirty = True

    def _reack(self, pkt: Packet) -> None:
        """Drop a late copy: Homa has no ACK, and no sender waits on one
        once its bytes are all counted as sent (_on_resend)."""

    def _inbound_finished(self, msg: InboundMessage) -> None:
        """Hand a completed message to the RPC layer (3.1, 3.8)."""
        if msg.is_request:
            if self.rpc_handler is not None:
                if msg.rpc_id in self.server_rpcs:
                    # Duplicate request arriving while we still hold
                    # state: at-least-once allows re-execution, but with
                    # live state we simply ignore the duplicate.
                    return
                server_rpc = ServerRpc(msg.rpc_id, msg.src, msg.length,
                                       msg.incast, msg.app_meta)
                self.server_rpcs[msg.rpc_id] = server_rpc
                self.rpc_handler(self, server_rpc)
        else:
            rpc = self.client_rpcs.pop(msg.rpc_id, None)
            if rpc is not None:
                self.rpcs_completed += 1
                if rpc.on_response is not None:
                    rpc.on_response(msg.rpc_id, msg)

    # ------------------------------------------------------------------
    # receiver: grants, overcommitment, priorities (3.3-3.5)
    # ------------------------------------------------------------------

    def _grant_tick(self) -> None:
        """One pacer firing: run the ranking pass once.

        The pass ranks the active set and emits at most one GRANT per
        active message, each carrying the furthest allocation
        (bytes_received + grant window, packet-aligned) known at tick
        time — a burst of data arrivals inside one interval collapses
        into one batch of control packets.  The pacer is re-armed by the
        next data arrival, so an idle receiver schedules no ticks.
        """
        self._grant_event = None
        self.grant_ticks += 1
        self._schedule_grants()

    def _refresh_alloc_cache(self) -> None:
        """Recompute the overcommitment degree from ``alloc``."""
        if self.cfg.unlimited_overcommit:
            self._degree = 1 << 30
        elif self.cfg.overcommit_override is not None:
            self._degree = self.cfg.overcommit_override
        else:
            self._degree = self.alloc.n_sched

    def _schedule_grants(self) -> None:
        """The ranking pass: grant to the top-K shortest grantable
        messages (K = overcommitment degree), each at a distinct
        scheduled priority."""
        grantable = self._grantable
        total = len(grantable)
        degree = self._degree
        if (total > degree) != self._withheld:
            self._set_withheld(total > degree)
        if not total or not degree:
            self._grant_dirty = False
            return
        if total <= degree:
            # Every grantable message is active; the priority sort
            # below establishes the order.
            active = list(grantable.values())
        else:
            # Top-K by (bytes_remaining, first_arrival_ps, sort_seq),
            # ascending.
            active = nsmallest(degree, grantable.values(), key=_srpt_key)
            if self.cfg.grant_oldest:
                # Section 5.1 speculation: always keep the oldest
                # partially-received message schedulable so the very
                # largest messages cannot starve.
                oldest = min(grantable.values(), key=_arrival_key)
                if oldest not in active:
                    active[-1] = oldest
        # Most remaining bytes -> rank 0 -> lowest scheduled level, so a
        # newly arriving shorter message preempts without lag (Fig 5).
        if len(active) == 1:
            ordered = active
        else:
            ordered = sorted(active, key=_rank_key)
        cutoffs = None if self.estimator is None else self._cutoffs_to_advertise()
        # PriorityAllocation.sched_prio, inlined: ranks beyond the
        # scheduled levels share the highest one.
        tab = self.alloc.sched_levels
        ntab = len(tab)
        for rank, msg in enumerate(ordered):
            prio = tab[rank] if rank < ntab else tab[ntab - 1]
            msg.sched_prio = prio
            received = msg.bytes_received
            new_grant = received + self.grant_window
            # Grant in whole packets, as the implementation does.
            new_grant = -(-new_grant // MAX_PAYLOAD) * MAX_PAYLOAD
            if new_grant > msg.length:
                new_grant = msg.length
            # The overcommitment slot frees when the message would be
            # fully granted under *per-packet* pacing: received +
            # RTTbytes covers the remainder.  The batch slack may push
            # ``granted`` to the end one tick earlier, but the message
            # keeps holding its slot until then — otherwise every tick
            # would release a fresh top-K of near-RTT-sized messages
            # (incast!) at K*length per tick instead of the drain rate.
            # With zero slack both targets coincide, byte-identically.
            base = received + self.rtt_bytes
            if -(-base // MAX_PAYLOAD) * MAX_PAYLOAD >= msg.length:
                self._grantable.pop(msg.key, None)
            if new_grant > msg.granted:
                msg.granted = new_grant
                self.grants_sent += 1
                self.send_ctrl(self._grant_packet(msg, new_grant, prio,
                                                  cutoffs))
        self._grant_dirty = False

    def _grant_packet(self, msg: InboundMessage, new_grant: int, prio: int,
                      cutoffs: tuple | None) -> Packet:
        # One per granted data packet in per-packet mode, so positional:
        # prio, payload, rpc_id, is_request, offset, total_length, sched,
        # retx, incast, app_meta, grant_offset, created_ps, grant_prio,
        # range_end, fine_prio, cutoffs (the Packet.__init__ order).
        return Packet(
            self.hid, msg.src, PacketType.GRANT, CTRL_PRIO, 0, msg.rpc_id,
            msg.is_request, 0, 0, False, False, False, None, new_grant, 0,
            prio, 0, 0, cutoffs)

    def _set_withheld(self, withheld: bool) -> None:
        if withheld != self._withheld:
            self._withheld = withheld
            if self.withheld_observer is not None:
                self.withheld_observer(self.hid, withheld)

    # ------------------------------------------------------------------
    # grants / resends / busy at the sender
    # ------------------------------------------------------------------

    def _on_grant(self, pkt: Packet) -> None:
        if pkt.cutoffs is not None:
            self._adopt_peer_cutoffs(pkt.src, pkt.cutoffs)
        msg = self.outbound.get(pkt.msg_key)
        if msg is None:
            return  # grant raced with completion
        # grant_to, inlined (per-grant path).
        offset = pkt.grant_offset
        if offset > msg.granted:
            msg.granted = offset if offset < msg.length else msg.length
        msg.grant_prio = pkt.grant_prio
        if pkt.is_request:
            # A grant is receiver-side proof of life: refresh the client
            # RPC's activity clock and retry budget so the stalled-
            # request probe in _timer_fire never fires mid-transfer.
            rpc = self.client_rpcs.get(pkt.rpc_id)
            if rpc is not None:
                rpc.last_activity_ps = self.sim.now
                rpc.resends = 0
        egress = self._egress  # kick, inlined (per-grant path)
        if not egress.busy:
            egress._next()

    def _find_sender_message(self, pkt: Packet) -> Optional[OutboundMessage]:
        msg = self.outbound.get(pkt.msg_key)
        if msg is not None:
            return msg
        if pkt.is_request:
            rpc = self.client_rpcs.get(pkt.rpc_id)
            return rpc.request if rpc is not None else None
        server_rpc = self.server_rpcs.get(pkt.rpc_id)
        return server_rpc.response if server_rpc is not None else None

    def _on_resend(self, pkt: Packet) -> None:
        msg = self._find_sender_message(pkt)
        if msg is None:
            if not pkt.is_request:
                if pkt.rpc_id in self.server_rpcs:
                    # Response still being computed: hold the client off.
                    self._send_busy(pkt)
                elif ((pkt.rpc_id << 1) | 1) in self.inbound:
                    # Request still arriving: the client probed for a
                    # response that cannot exist yet (it is stalled on
                    # grants we are withholding, or its tail is lost and
                    # our RESENDs are pending).  BUSY proves we are
                    # alive and resets the client's retry budget.
                    self._send_busy(pkt)
                else:
                    # Unknown RPCid: the request must have been lost (or
                    # our state discarded).  Ask the client to resend the
                    # request; the RPC will re-execute (sections 3.7/3.8).
                    # A done-memory entry for the request must not drop
                    # the copy asked for here.
                    self._done_memory.pop((pkt.rpc_id << 1) | 1, None)
                    self.reexecutions += 1
                    self.resends_sent += 1
                    self.send_ctrl(Packet(
                        self.hid, pkt.src, PacketType.RESEND,
                        rpc_id=pkt.rpc_id, is_request=True,
                        range_end=self.rtt_bytes))
            elif pkt.total_length:
                # RESEND for a request we no longer track: a fully-sent
                # one-way message whose sender state was dropped the
                # moment the last byte hit the NIC — with a lost tail
                # packet, the receiver would otherwise burn its whole
                # retry budget against a sender that forgot the bytes.
                # The receiver's timeout RESENDs carry the message
                # length in total_length, so resurrect a ghost outbound
                # covering exactly the missing range.  (An aborted RPC
                # lands here too: re-sending its request is at-least-
                # once re-execution, section 3.8.)
                self._ghost_resend(pkt)
            return
        if self._sender_is_busy(msg):
            self._send_busy(pkt)
            return
        if pkt.offset == 0 and pkt.total_length == 0 and msg.sent > 0:
            # The peer has *nothing*: a re-executed request whose server
            # lost all state (3.8), or a client probing for a response
            # of which no byte ever arrived.  Gap-chasing from a byte
            # accounting the receiver no longer shares recovers ~RTT
            # bytes per timeout round and can outrun the retry budget —
            # the receiver then gives up and re-executes again, forever.
            # Restart the transmission from scratch instead: a fresh
            # unscheduled prefix, then the normal grant-driven flow.
            msg.sent = 0
            msg.granted = min(msg.length, msg.unsched_limit)
            msg.rtx.clear()
            self._index_outbound(msg)
            if pkt.is_request:
                rpc = self.client_rpcs.get(pkt.rpc_id)
                if rpc is not None:
                    rpc.last_activity_ps = self.sim.now
            self.kick()
            return
        # The RESEND's range is an implicit grant (3.7): the receiver is
        # asking for those bytes even if every GRANT it sent was lost.
        # Only bytes already on the wire are *re*-transmitted; the rest
        # of the range goes out through the normal grant-driven path, so
        # ``sent`` reaches ``length`` and the outbound state is
        # reclaimed.  (Blindly queueing the whole range as rtx let the
        # receiver complete off bytes the sender never counted as sent —
        # the sender then waited forever for grants that could no longer
        # come, leaking the message and its server RPC.)
        if pkt.range_end > msg.granted:
            msg.grant_to(pkt.range_end, msg.grant_prio)
        msg.queue_rtx(pkt.offset, min(pkt.range_end, msg.sent))
        self._index_outbound(msg)  # may have been cleaned up
        if pkt.is_request:
            rpc = self.client_rpcs.get(pkt.rpc_id)
            if rpc is not None:
                rpc.last_activity_ps = self.sim.now
        self.kick()

    def _ghost_resend(self, pkt: Packet) -> None:
        """Rebuild sender state for a forgotten fully-sent message.

        The ghost starts fully sent (``sent == granted == length``) so
        only the queued retransmission range ever transmits; once the
        range drains, ``fully_sent`` cleans it up through the normal
        ``_outbound_finished`` path.
        """
        length = pkt.total_length
        end = pkt.range_end if pkt.range_end <= length else length
        if pkt.offset >= end:
            return
        msg = OutboundMessage(
            pkt.rpc_id, True, self.hid, pkt.src, length,
            unsched_limit=length, created_ps=self.sim.now)
        msg.sent = length
        msg.granted = length
        msg.queue_rtx(pkt.offset, end)
        self._index_outbound(msg)
        self.kick()

    def _sender_is_busy(self, msg: OutboundMessage) -> bool:
        """True if a strictly shorter message is ready to transmit
        (RESEND answered with BUSY to prevent timeouts, Figure 3)."""
        remaining = msg.remaining
        return any(other is not msg and other.sendable()
                   and other.remaining < remaining
                   for other in self.outbound.values())

    def _send_busy(self, resend: Packet) -> None:
        self.busys_sent += 1
        self.send_ctrl(Packet(
            self.hid, resend.src, PacketType.BUSY,
            rpc_id=resend.rpc_id, is_request=resend.is_request))

    def _on_busy(self, pkt: Packet) -> None:
        # BUSY is proof the peer is alive, exactly like data progress
        # (Figure 3's slow-server scenario), so it resets the retry
        # budget as well as the activity clock — otherwise a live but
        # slow server accumulates resends until a false abort.
        msg = self.inbound.get(pkt.msg_key)
        if msg is not None:
            msg.last_activity_ps = self.sim.now
            msg.resends = 0
        if not pkt.is_request:
            rpc = self.client_rpcs.get(pkt.rpc_id)
            if rpc is not None:
                rpc.last_activity_ps = self.sim.now
                rpc.resends = 0

    # ------------------------------------------------------------------
    # timeouts (3.7)
    # ------------------------------------------------------------------

    def _ensure_timer(self) -> None:
        if self._timer_event is not None and Simulator.is_pending(self._timer_event):
            return
        if (not self.inbound and not self.client_rpcs
                and not (self._peer_gc and self.outbound)):
            return
        self._timer_event = self.sim.schedule(
            self.cfg.resend_interval_ps // 2, self._timer_fire)

    def _timer_fire(self) -> None:
        now = self.sim.now
        interval = self.cfg.resend_interval_ps
        # Overcommitment slots freed by a give-up below.  A withheld
        # message can only ever be granted by a ranking pass, and after
        # a give-up no data arrival may come to trigger one (its sender
        # is itself stalled waiting for grants) — so if any slot frees
        # here, run the pass before returning or the slot leaks and the
        # withheld message stalls forever.
        freed = False
        # Receiver side: granted bytes that never arrived.
        for msg in list(self.inbound.values()):
            if now - msg.last_activity_ps < interval:
                continue
            horizon = min(msg.granted, msg.length)
            gap = msg.received.first_gap(horizon)
            if gap is None:
                continue  # nothing outstanding: we are the bottleneck
            msg.resends += 1
            msg.last_activity_ps = now
            if msg.resends > self.cfg.max_resends:
                if msg.key in self._grantable:
                    freed = True
                self._in_give_up(msg.key)
                if not msg.is_request:  # fail the RPC it answers
                    rpc = self.client_rpcs.pop(msg.rpc_id, None)
                    if rpc is not None:
                        self._signal_error(rpc)
                continue
            self.resends_sent += 1
            msg.resent = True
            # ``total_length`` lets a sender that has already discarded
            # its state (a fully-sent one-way message) resurrect a ghost
            # outbound for exactly the missing range (_on_resend).
            self.send_ctrl(Packet(
                self.hid, msg.src, PacketType.RESEND,
                rpc_id=msg.rpc_id, is_request=msg.is_request,
                total_length=msg.length,
                offset=gap[0], range_end=gap[1]))
        # Client side: responses that never started arriving.
        for rpc in list(self.client_rpcs.values()):
            if rpc.response_started:
                continue  # the inbound scan above covers it
            if rpc.request.sendable():
                continue  # actively transmitting: progress is made
            # A request stalled mid-transfer waiting for grants probes
            # too.  Normally the receiver's inactivity RESEND pokes the
            # sender back into motion; but if the receiver gave up on
            # the inbound request (its retry budget drained while our
            # retransmissions kept getting lost), no grant will ever
            # come and the RPC would hang forever.  So probe on the same
            # budget: a live receiver answers BUSY/RESEND (both reset
            # the budget via _on_busy / _on_resend), a vanished one
            # stays silent until abort.
            if now - rpc.last_activity_ps < interval:
                continue
            rpc.resends += 1
            rpc.last_activity_ps = now
            if rpc.resends > self.cfg.max_resends:
                # Abort (3.7): no response byte ever arrived, so the
                # request is all the state left.
                self.client_rpcs.pop(rpc.rpc_id, None)
                self.outbound.pop((rpc.rpc_id << 1) | 1, None)
                self._signal_error(rpc)
                continue
            # RESEND for the response, even though the request may have
            # been lost; the server answers RESEND-for-request if so.
            self.resends_sent += 1
            self.send_ctrl(Packet(
                self.hid, rpc.dst, PacketType.RESEND,
                rpc_id=rpc.rpc_id, is_request=False,
                range_end=self.rtt_bytes))
        # Sender side (peer-liveness GC, degraded fabrics only): an
        # outbound message stalled at its grant limit whose peer stopped
        # granting.  Responses to a dead client and one-way requests to
        # a dead receiver have no client_rpc probing on their behalf, so
        # without this scan they sit in ``outbound`` forever.
        if self._peer_gc and self.outbound:
            rounds = self._orphan_rounds
            for key, msg in list(self.outbound.items()):
                if msg.sendable():
                    rounds.pop(key, None)  # transmitting: not an orphan
                    continue
                if msg.is_request and msg.rpc_id in self.client_rpcs:
                    continue  # the client-side scan above owns it
                sig = (msg.sent, msg.granted)
                state = rounds.get(key)
                if state is None or state[0] != sig:
                    rounds[key] = [sig, 0]  # (re)observed: start counting
                    continue
                state[1] += 1
                if state[1] > self.cfg.max_resends:
                    # No grant progress through the whole budget: the
                    # peer is unreachable.  Retiring is safe even on a
                    # false positive — a late RESEND resurrects the
                    # missing range as a ghost (_ghost_resend), and a
                    # retired request degrades to the at-least-once
                    # re-execution path (section 3.8).
                    del self.outbound[key]
                    rounds.pop(key, None)
                    if not msg.is_request:
                        self.server_rpcs.pop(msg.rpc_id, None)
                    self.outbound_gaveups += 1
            for key in [k for k in rounds if k not in self.outbound]:
                del rounds[key]
        elif self._orphan_rounds:
            # outbound drained through the normal paths since the last
            # scan: drop the stale observations with it.
            self._orphan_rounds.clear()
        self._timer_event = None
        self._ensure_timer()
        if freed:
            self._schedule_grants()

    def _signal_error(self, rpc: ClientRpc) -> None:
        self.rpcs_aborted += 1
        if rpc.on_error is not None:
            rpc.on_error(rpc.rpc_id)

    # ------------------------------------------------------------------
    # online priority estimation (3.4)
    # ------------------------------------------------------------------

    def _cutoffs_to_advertise(self) -> tuple | None:
        if self.estimator is None:
            return None
        return (self.alloc.n_prios, self.alloc.sched_levels,
                self.alloc.unsched_levels, self.alloc.cutoffs)

    def _adopt_peer_cutoffs(self, peer: int, advert: tuple) -> None:
        n_prios, sched_levels, unsched_levels, cutoffs = advert
        current = self.peer_alloc.get(peer)
        if current is not None and current.cutoffs == tuple(cutoffs):
            return
        self.peer_alloc[peer] = PriorityAllocation(
            n_prios=n_prios, sched_levels=tuple(sched_levels),
            unsched_levels=tuple(unsched_levels), cutoffs=tuple(cutoffs))

    def _maybe_refresh_allocation(self) -> None:
        if self.estimator is None or self.sim.now < self._next_refresh_ps:
            return
        self._next_refresh_ps = self.sim.now + self.cfg.online_refresh_ps
        cdf = self.estimator.to_cdf()
        if cdf is None:
            return
        self.alloc = allocate_priorities(
            cdf, self.unsched_limit, n_prios=self.cfg.n_prios,
            n_unsched_override=self.cfg.n_unsched_override,
            n_sched_override=self.cfg.n_sched_override)
        # The overcommitment degree may have moved with n_sched.
        self._refresh_alloc_cache()
        self._grant_dirty = True
