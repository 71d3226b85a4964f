"""Unit tests for baseline protocol internals (no full network)."""

import tracemalloc

import pytest

from repro.baselines.ndp import NdpTransport
from repro.baselines.phost import PHostTransport, _TokenBucket
from repro.baselines.pias import (
    DCTCP_G,
    INIT_CWND,
    PiasTransport,
    _PiasFlow,
    pias_thresholds,
)
from repro.baselines.stream import StreamTransport
from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType
from repro.transport.base import RecoveryConfig, gap_chunks
from repro.transport.messages import OutboundMessage
from repro.workloads.catalog import WORKLOADS

from tests.helpers import FakeHost, drain_ctrl


# ---------------------------------------------------------------------------
# pHost token buckets
# ---------------------------------------------------------------------------


def test_token_bucket_expiry():
    bucket = _TokenBucket()
    bucket.add(expiry_ps=100)
    bucket.add(expiry_ps=300)
    assert bucket.usable(now_ps=50) == 2
    assert bucket.usable(now_ps=200) == 1  # first token expired
    assert bucket.usable(now_ps=400) == 0


def test_token_bucket_spend_consumes_oldest():
    bucket = _TokenBucket()
    bucket.add(100)
    bucket.add(200)
    bucket.spend()
    assert bucket.usable(0) == 1
    assert list(bucket.deadlines) == [200]


# ---------------------------------------------------------------------------
# stream connection state
# ---------------------------------------------------------------------------


def test_stream_connection_state_stays_small_per_peer():
    """TCP-MC opens 8 connections to every peer it talks to, so what one
    idle connection retains scales with the fabric: about 190 B with a
    list FIFO, about 890 B when each FIFO was a deque (760 B empty)."""
    transport = StreamTransport(Simulator(), window_bytes=100_000,
                                connections_per_pair=8)
    peers = 128
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for peer in range(peers):
            transport._connection_for(peer)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    connections = peers * transport.connections_per_pair
    assert len(transport._ring._members) == connections
    assert retained / connections <= 300


# ---------------------------------------------------------------------------
# receiver gap repair: one chunk generator, each caller its own cap
# ---------------------------------------------------------------------------


def test_gap_chunks_cover_each_gap_in_packets():
    """Gaps split into full packets in order; a gap ending mid-packet
    ends in a short chunk."""
    gaps = [(0, 100), (3_000, 3_000 + 2 * MAX_PAYLOAD + 10)]
    assert list(gap_chunks(gaps)) == [
        (0, 100),
        (3_000, MAX_PAYLOAD),
        (3_000 + MAX_PAYLOAD, MAX_PAYLOAD),
        (3_000 + 2 * MAX_PAYLOAD, 10),
    ]
    assert list(gap_chunks([])) == []


#: a short gap ending mid-packet, then a long one of 10 packets + 300 B
LENGTH = 20_000
GAPS = [(0, 100), (1_000, 1_000 + 10 * MAX_PAYLOAD + 300)]


def _expire_with_gaps(transport, issued_attr):
    """Register a LENGTH-byte inbound message missing exactly GAPS, all
    of it tokenized / pulled, fire one receiver expiry and return the
    (offset, range_end) each repair request names."""
    transport.bind(FakeHost(transport.sim, 0))
    msg = transport._inbound_for(Packet(
        1, 0, PacketType.DATA, payload=0, rpc_id=7, is_request=True,
        offset=0, total_length=LENGTH))
    cursor = 0
    for start, end in GAPS + [(LENGTH, LENGTH)]:
        msg.received.add(cursor, start)
        cursor = end
    getattr(transport, issued_attr)[msg.key] = LENGTH
    drain_ctrl(transport)
    transport._in_expire(msg.key, 1)
    return [(p.offset, p.range_end) for p in drain_ctrl(transport)]


def test_phost_gap_tokens_stop_at_eight_packets():
    transport = PHostTransport(Simulator(), rtt_bytes=9_680,
                               recovery=RecoveryConfig(10**9))
    named = _expire_with_gaps(transport, "tokens_issued")
    assert named == [(0, 100)] + [
        (1_000 + i * MAX_PAYLOAD, 1_000 + (i + 1) * MAX_PAYLOAD)
        for i in range(7)]


def test_ndp_renacks_stop_at_eight_packets_of_bytes():
    """The byte cap lets a ninth request through where a short chunk
    left the byte count under 8 x MAX_PAYLOAD."""
    transport = NdpTransport(Simulator(), rtt_bytes=9_680,
                             recovery=RecoveryConfig(10**9))
    named = _expire_with_gaps(transport, "_pulls_issued")
    assert named == [(0, 100)] + [
        (1_000 + i * MAX_PAYLOAD, 1_000 + (i + 1) * MAX_PAYLOAD)
        for i in range(8)]
    # The pull counter rolls back by exactly the bytes re-requested.
    key = (7 << 1) | 1
    assert transport._pulls_issued[key] == LENGTH - 100 - 8 * MAX_PAYLOAD


# ---------------------------------------------------------------------------
# PIAS DCTCP machinery
# ---------------------------------------------------------------------------


def make_pias_flow(length=1_000_000):
    msg = OutboundMessage(1, True, 0, 1, length, unsched_limit=length,
                          created_ps=0)
    return _PiasFlow(msg)


def make_pias_transport():
    sim = Simulator()
    thresholds = pias_thresholds(WORKLOADS["W3"].cdf)
    transport = PiasTransport(sim, thresholds=thresholds, rtt_ps=7_744_000)

    class FakeHost:
        def __init__(self):
            self.hid = 0
            self.sim = sim

            class E:
                def kick(self):
                    pass
            self.egress = E()
    transport.bind(FakeHost())
    return sim, transport


def test_pias_flow_initial_window():
    flow = make_pias_flow()
    assert flow.cwnd == INIT_CWND
    assert flow.can_send()


def test_pias_window_blocks_when_full():
    flow = make_pias_flow()
    flow.msg.sent = int(flow.cwnd)
    assert not flow.can_send()
    flow.acked_prefix = MAX_PAYLOAD
    assert flow.can_send()


def test_pias_ecn_backoff_math():
    """One fully marked window must shrink cwnd by ~alpha/2 with
    alpha ramping by the DCTCP gain."""
    sim, transport = make_pias_transport()
    msg = transport.send_message(1, 1_000_000)
    flow = transport.outbound[msg.key]
    flow.window_end = 0  # force window boundary on next ACK
    before = flow.cwnd
    ack = Packet(1, 0, PacketType.ACK, rpc_id=msg.rpc_id, is_request=True,
                 offset=MAX_PAYLOAD)
    ack.ecn = True
    transport.on_packet(ack)
    assert flow.alpha == pytest.approx(DCTCP_G)
    assert flow.cwnd < before + MAX_PAYLOAD  # backoff countered growth
    assert transport.backoffs == 1


def test_pias_unmarked_window_grows():
    sim, transport = make_pias_transport()
    msg = transport.send_message(1, 1_000_000)
    flow = transport.outbound[msg.key]
    before = flow.cwnd
    ack = Packet(1, 0, PacketType.ACK, rpc_id=msg.rpc_id, is_request=True,
                 offset=MAX_PAYLOAD)
    transport.on_packet(ack)
    assert flow.cwnd > before  # slow start growth
    assert transport.backoffs == 0


def test_pias_dupack_fast_retransmit():
    sim, transport = make_pias_transport()
    msg = transport.send_message(1, 1_000_000)
    flow = transport.outbound[msg.key]
    msg.sent = 10 * MAX_PAYLOAD
    flow.acked_prefix = MAX_PAYLOAD
    for _ in range(3):
        transport.on_packet(Packet(1, 0, PacketType.ACK, rpc_id=msg.rpc_id,
                                   is_request=True, offset=MAX_PAYLOAD))
    assert transport.retransmissions == 1
    assert msg.sent == MAX_PAYLOAD  # go-back-N rewound


def test_pias_thresholds_balance_bytes():
    cdf = WORKLOADS["W3"].cdf
    thresholds = pias_thresholds(cdf)
    masses = []
    prev = 0.0
    for threshold in thresholds:
        mass = cdf.partial_mean(threshold)
        masses.append(mass - prev)
        prev = mass
    mean_mass = sum(masses) / len(masses)
    for mass in masses:
        assert mass == pytest.approx(mean_mass, rel=0.15)


# ---------------------------------------------------------------------------
# priority demotion order invariant
# ---------------------------------------------------------------------------


def test_pias_priority_never_increases_within_message():
    sim, transport = make_pias_transport()
    last = 8
    for sent in range(0, 2_000_000, 40_000):
        prio = transport._prio_for(sent)
        assert prio <= last
        last = prio
    assert last == 0
