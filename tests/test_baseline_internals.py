"""Unit tests for baseline protocol internals (no full network)."""

import pytest

from repro.baselines.phost import _TokenBucket
from repro.baselines.pias import (
    DCTCP_G,
    INIT_CWND,
    PiasTransport,
    _PiasFlow,
    pias_thresholds,
)
from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType
from repro.transport.messages import OutboundMessage
from repro.workloads.catalog import WORKLOADS


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
    flow = transport.flows[msg.key]
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
    flow = transport.flows[msg.key]
    before = flow.cwnd
    ack = Packet(1, 0, PacketType.ACK, rpc_id=msg.rpc_id, is_request=True,
                 offset=MAX_PAYLOAD)
    transport.on_packet(ack)
    assert flow.cwnd > before  # slow start growth
    assert transport.backoffs == 0


def test_pias_dupack_fast_retransmit():
    sim, transport = make_pias_transport()
    msg = transport.send_message(1, 1_000_000)
    flow = transport.flows[msg.key]
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
