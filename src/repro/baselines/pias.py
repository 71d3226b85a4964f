"""PIAS (Bai et al., NSDI 2015): information-agnostic flow scheduling.

"PIAS works with a limited number of priorities, but it assigns
priorities on senders, which limits its ability to approximate SRPT ...
it uses a multi-level queue scheduling policy" (section 2.2).

Mechanics reproduced here:

* sender-side multi-level feedback queue: a message starts at the
  highest priority and is demoted as its transmitted bytes cross the
  workload-tuned thresholds (computed offline to balance bytes per
  level, mirroring PIAS's threshold optimization);
* underneath, a DCTCP-style congestion control: per-flow window, ECN
  marks echoed in ACKs, multiplicative backoff proportional to the
  marked fraction (the alpha estimator), slow start, and a
  retransmission timeout;
* flows on a host share the NIC round-robin — no SRPT at the sender,
  because PIAS is information-agnostic by design.

The paper's observation that "congestion led to ECN-induced backoff in
workload W4, resulting in slowdowns of 20 or more" emerges from the
DCTCP layer.

Loss recovery (docs/FABRICS.md): DCTCP's RTO/go-back-N already handles
clean-path anomalies, so injected-loss additions are gated on a
RecoveryConfig: exponential backoff across consecutive fruitless RTO
rounds with a give-up budget (the bare RTO otherwise retransmits to a
dead peer forever), receiver-side GC of partial inbound messages, and
a full cumulative re-ACK for retransmissions of recently completed
messages (a lost final ACK otherwise triggers go-back-N into a fresh
partial inbound — duplicate delivery).
"""

from __future__ import annotations

from typing import Optional

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, N_PRIORITIES, Packet, PacketType
from repro.transport.base import RecoveryConfig, Transport
from repro.transport.messages import OutboundMessage
from repro.transport.rotation import ReadyRing
from repro.workloads.distributions import EmpiricalCDF

#: DCTCP gain for the alpha estimator
DCTCP_G = 1.0 / 16.0
#: initial window (10 full packets, as in DCTCP deployments)
INIT_CWND = 10 * MAX_PAYLOAD


def pias_thresholds(cdf: EmpiricalCDF, n_prios: int = N_PRIORITIES) -> tuple[int, ...]:
    """Demotion thresholds balancing transmitted bytes across levels.

    PIAS derives thresholds from the workload's flow size distribution;
    equalizing the per-level byte volume is the same objective Homa uses
    for unscheduled cutoffs, so we reuse that machinery with an infinite
    cap (every byte of every message passes through the MLFQ).
    """
    from repro.homa.priorities import compute_cutoffs

    return compute_cutoffs(cdf, n_prios, cdf.max_bytes())


class _PiasFlow:
    """Sender-side DCTCP state for one message."""

    __slots__ = ("msg", "cwnd", "ssthresh", "alpha", "acked_prefix",
                 "window_sent", "window_marked", "window_end",
                 "dup_acks", "last_send_ps", "recovery_until",
                 "rec_rounds", "rec_last_ps", "high_water", "ring_pos")

    def __init__(self, msg: OutboundMessage) -> None:
        self.msg = msg
        self.cwnd = float(INIT_CWND)
        self.ssthresh = float(1 << 40)
        self.alpha = 0.0
        self.acked_prefix = 0
        self.window_sent = 0
        self.window_marked = 0
        self.window_end = INIT_CWND
        self.dup_acks = 0
        self.last_send_ps = 0
        self.recovery_until = 0
        self.rec_rounds = 0   # consecutive fruitless RTOs (recovery only)
        self.rec_last_ps = 0  # last RTO action (backoff anchor)
        self.high_water = 0   # highest byte ever sent (marks go-back-N retx)

    def can_send(self) -> bool:
        return (self.msg.sent - self.acked_prefix < self.cwnd
                and self.msg.sent < self.msg.length)


class PiasTransport(Transport):
    """PIAS = MLFQ priorities + DCTCP congestion control."""

    protocol_name = "pias"

    def __init__(
        self,
        sim: Simulator,
        *,
        thresholds: tuple[int, ...],
        rtt_ps: int,
        min_rto_ps: int | None = None,
        recovery: RecoveryConfig | None = None,
    ) -> None:
        super().__init__(sim, recovery)
        self.thresholds = thresholds
        self.rto_ps = min_rto_ps or max(20 * rtt_ps, 200_000_000)  # >=200 us
        self.flows: dict[int, _PiasFlow] = {}
        # NIC round-robin over the live flows, marked where they can become
        # sendable: creation, an ACK moving acked_prefix/cwnd, go-back-N.
        self._rr = ReadyRing()
        self._timer = None
        self.retransmissions = 0
        self.backoffs = 0
        # The RTO's retry budget: the fabric's backoff and budget on the
        # RTO scale (capped at 4*rto); None on clean fabrics.
        self._rto_policy = None
        if recovery is not None:
            self._rto_policy = RecoveryConfig(
                self.rto_ps, factor=recovery.factor,
                max_tries=recovery.max_tries)
            # Done-memory must outlive the sender's retry *spacing*,
            # which here is RTO-scaled (backoff gate <= 4*rto plus the
            # rto-granular check timer), not recovery-scaled: the RTO
            # floor (>=200 us) dwarfs the recovery base on small-RTT
            # fabrics, and an expired memory turns a late go-back-N
            # into a duplicate delivery.
            self._done_horizon_ps = max(self._done_horizon_ps,
                                        8 * self.rto_ps)

    # ------------------------------------------------------------------
    # MLFQ priority
    # ------------------------------------------------------------------

    def _prio_for(self, bytes_sent: int) -> int:
        """Highest priority first, demoted as bytes_sent crosses
        thresholds (PIAS table lookup)."""
        for index, threshold in enumerate(self.thresholds):
            if bytes_sent < threshold:
                return N_PRIORITIES - 1 - index
        return 0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send_message(self, dst: int, length: int, **kwargs) -> OutboundMessage:
        msg = OutboundMessage(self.sim.new_id(), True, self.hid, dst, length,
                              unsched_limit=length, created_ps=self.sim.now)
        flow = _PiasFlow(msg)
        self.flows[msg.key] = flow
        self._rr.add(flow)
        self._ensure_timer()
        self.kick()
        return msg

    def _next_data(self) -> Optional[Packet]:
        # Round-robin across flows with window room (no SRPT: PIAS is
        # information-agnostic at the sender).
        flow = self._rr.pull(_PiasFlow.can_send)
        return self._emit(flow) if flow is not None else None

    def _emit(self, flow: _PiasFlow) -> Packet:
        msg = flow.msg
        offset = msg.sent
        size = min(MAX_PAYLOAD, msg.length - offset,
                   max(1, int(flow.cwnd - (msg.sent - flow.acked_prefix))))
        msg.sent += size
        flow.last_send_ps = self.sim.now
        retx = offset < flow.high_water  # go-back-N re-covers old bytes
        if msg.sent > flow.high_water:
            flow.high_water = msg.sent
        if retx:
            self.rtx_data_sent += 1
        return Packet(
            self.hid, msg.dst, PacketType.DATA,
            prio=self._prio_for(offset), payload=size,
            rpc_id=msg.rpc_id, is_request=True, offset=offset,
            total_length=msg.length, retx=retx, created_ps=msg.created_ps)

    def _retransmit_from(self, flow: _PiasFlow, offset: int) -> None:
        """Go-back-N from the acked prefix."""
        self.retransmissions += 1
        flow.msg.sent = offset
        self._rr.mark(flow)
        self.kick()

    def _retire(self, flow: _PiasFlow) -> None:
        """Fully acked or given up: drop the sender state."""
        del self.flows[flow.msg.key]
        self._rr.remove(flow)

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
        # Cumulative ACK echoing the ECN mark (DCTCP's feedback loop).
        self._ack(pkt, msg.received.contiguous_prefix())
        if msg.is_complete():
            self._complete(msg)

    def _ack(self, pkt: Packet, prefix: int) -> None:
        ack = Packet(self.hid, pkt.src, PacketType.ACK, prio=7,
                     rpc_id=pkt.rpc_id, is_request=True, offset=prefix)
        ack.ecn = pkt.ecn
        self.send_ctrl(ack)

    def _reack(self, pkt: Packet) -> None:
        """Late go-back-N of a completed message (the final ACK was
        lost): ACK the full length."""
        self._ack(pkt, pkt.total_length)

    def _on_ack(self, pkt: Packet) -> None:
        flow = self.flows.get(pkt.msg_key)
        if flow is None:
            return
        msg = flow.msg
        advanced = pkt.offset > flow.acked_prefix
        # DCTCP alpha bookkeeping per window of data.
        flow.window_sent += 1
        if pkt.ecn:
            flow.window_marked += 1
        if pkt.offset >= flow.window_end or pkt.offset >= msg.length:
            fraction = (flow.window_marked / flow.window_sent
                        if flow.window_sent else 0.0)
            flow.alpha = (1 - DCTCP_G) * flow.alpha + DCTCP_G * fraction
            if flow.window_marked and self.sim.now >= flow.recovery_until:
                flow.cwnd = max(MAX_PAYLOAD, flow.cwnd * (1 - flow.alpha / 2))
                flow.recovery_until = self.sim.now + self.rto_ps // 8
                self.backoffs += 1
            flow.window_sent = flow.window_marked = 0
            flow.window_end = pkt.offset + int(flow.cwnd)
        if advanced:
            delta = pkt.offset - flow.acked_prefix
            flow.acked_prefix = pkt.offset
            flow.dup_acks = 0
            flow.rec_rounds = 0  # forward progress proves the peer lives
            if flow.cwnd < flow.ssthresh:
                flow.cwnd += delta  # slow start
            else:
                flow.cwnd += MAX_PAYLOAD * delta / flow.cwnd
        else:
            flow.dup_acks += 1
            if flow.dup_acks == 3 and self.sim.now >= flow.recovery_until:
                flow.ssthresh = max(MAX_PAYLOAD, flow.cwnd / 2)
                flow.cwnd = flow.ssthresh
                flow.recovery_until = self.sim.now + self.rto_ps // 8
                self._retransmit_from(flow, flow.acked_prefix)
        if flow.acked_prefix >= msg.length:
            self._retire(flow)
        elif advanced:
            self._rr.mark(flow)
        self.kick()

    # ------------------------------------------------------------------
    # retransmission timeout
    # ------------------------------------------------------------------

    def _ensure_timer(self) -> None:
        if self._timer is not None and Simulator.is_pending(self._timer):
            return
        if self.flows:
            self._timer = self.sim.schedule(self.rto_ps, self._check_timeouts)

    def _check_timeouts(self) -> None:
        self._timer = None
        now = self.sim.now
        for flow in list(self.flows.values()):
            in_flight = flow.msg.sent - flow.acked_prefix
            if in_flight > 0 and now - flow.last_send_ps >= self.rto_ps:
                # Injected loss: back off across fruitless RTO rounds
                # and retire the flow once the budget is spent — a bare
                # RTO retransmits to a dead peer forever.
                if not self._recovery_round(flow, self._rto_policy, now):
                    continue
                flow.ssthresh = max(MAX_PAYLOAD, flow.cwnd / 2)
                flow.cwnd = float(MAX_PAYLOAD)
                self._retransmit_from(flow, flow.acked_prefix)
        self._ensure_timer()
