"""Behavioural tests for the baseline transports.

Each baseline must reproduce the *mechanism* the paper attributes its
performance to: stream HOL blocking, pHost single-active-sender tokens,
pFabric fine-priority drops and retransmission, PIAS demotion + ECN
backoff, NDP trimming + fair-share pulls.
"""

from repro.baselines.ndp import NdpTransport
from repro.baselines.pfabric import PfabricTransport
from repro.baselines.phost import PHostTransport
from repro.baselines.pias import PiasTransport, pias_thresholds
from repro.baselines.stream import StreamTransport
from repro.core.engine import Simulator
from repro.core.packet import FULL_WIRE, MAX_PAYLOAD, N_PRIORITIES
from repro.core.topology import NetworkConfig, build_network
from repro.core.units import MS, US
from repro.workloads.catalog import WORKLOADS


def build(protocol_factory, **net_overrides):
    sim = Simulator()
    cfg = NetworkConfig(racks=1, hosts_per_rack=6, aggrs=0, **net_overrides)
    net = build_network(sim, cfg)
    transports = net.attach_transports(protocol_factory(sim, net))
    records = []

    def make_hook(hid):
        def hook(msg, now):
            records.append((hid, msg.length, msg.created_ps, now))
        return hook

    for transport in transports:
        transport.on_message_complete = make_hook(transport.hid)
    return sim, net, transports, records


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------


def stream_factory(connections):
    def outer(sim, net):
        def factory(host):
            return StreamTransport(sim, window_bytes=net.rtt_bytes(),
                                   connections_per_pair=connections)
        return factory
    return outer


def test_stream_delivers_in_fifo_order():
    sim, net, transports, records = build(stream_factory(1))
    transports[0].send_message(1, 50_000)
    transports[0].send_message(1, 200)
    sim.run(until_ps=20 * MS)
    assert len(records) == 2
    # FIFO: the long message finishes first — head-of-line blocking.
    assert records[0][1] == 50_000
    assert records[1][1] == 200


def test_multi_connection_removes_hol_blocking():
    sim, net, transports, records = build(stream_factory(8))
    transports[0].send_message(1, 1_000_000)
    sim.run(until_ps=50 * US)
    transports[0].send_message(1, 200)
    sim.run(until_ps=50 * MS)
    sizes_in_order = [r[1] for r in records]
    # The short message overtakes on its own connection.
    assert sizes_in_order.index(200) < sizes_in_order.index(1_000_000)


def test_stream_hol_blocking_magnitude():
    """Section 5.1: streaming adds orders of magnitude for short
    messages stuck behind a long one."""
    sim, net, transports, records = build(stream_factory(1))
    transports[0].send_message(1, 2_000_000)
    sim.run(until_ps=10 * US)
    transports[0].send_message(1, 100)
    sim.run(until_ps=100 * MS)
    short = next(r for r in records if r[1] == 100)
    latency = short[3] - short[2]
    assert latency > 50 * net.min_oneway_between(0, 1, 100)


def test_stream_window_limits_inflight():
    sim, net, transports, records = build(stream_factory(1))
    transports[0].send_message(1, 10_000_000)
    sim.run(until_ps=30 * US)
    conn = transports[0].connections[1][0]
    assert conn.in_flight <= net.rtt_bytes() + MAX_PAYLOAD
    sim.run(until_ps=40 * MS)  # drain


# ---------------------------------------------------------------------------
# pHost
# ---------------------------------------------------------------------------


def phost_factory(sim, net):
    def factory(host):
        return PHostTransport(sim, rtt_bytes=net.rtt_bytes(),
                              host_gbps=net.spec.host_gbps,
                              rtt_ps=net.rtt_ps())
    return factory


def test_phost_delivers_large_message():
    sim, net, transports, records = build(phost_factory)
    transports[0].send_message(1, 300_000)
    sim.run(until_ps=30 * MS)
    assert [r[1] for r in records] == [300_000]


def test_phost_tokens_used_for_scheduled_bytes():
    sim, net, transports, records = build(phost_factory)
    transports[0].send_message(1, 100_000)
    sim.run(until_ps=20 * MS)
    assert transports[1].tokens_sent > 0


def test_phost_short_message_needs_no_tokens():
    sim, net, transports, records = build(phost_factory)
    transports[0].send_message(1, 1000)
    sim.run(until_ps=5 * MS)
    assert records and transports[1].tokens_sent == 0


def test_phost_srpt_at_receiver():
    sim, net, transports, records = build(phost_factory)
    transports[0].send_message(2, 400_000)
    transports[1].send_message(2, 60_000)
    sim.run(until_ps=60 * MS)
    assert [r[1] for r in records] == [60_000, 400_000]


def test_phost_single_active_sender():
    """No overcommitment: tokens pace to one flow at a time, so token
    counts accumulate only slightly above one flow's worth."""
    sim, net, transports, records = build(phost_factory)
    for src in range(3):
        transports[src].send_message(4, 200_000)
    sim.run(until_ps=2 * MS)
    receiver = transports[4]
    # Tokens issued - received must stay within about one RTT of data
    # in total (one active flow), not three RTTs.
    outstanding = sum(
        receiver.tokens_issued.get(m.key, 0) - m.bytes_received
        for m in receiver.inbound.values())
    assert outstanding <= net.rtt_bytes() + 3 * MAX_PAYLOAD
    sim.run(until_ps=60 * MS)
    assert len(records) == 3


# ---------------------------------------------------------------------------
# pFabric
# ---------------------------------------------------------------------------


def pfabric_factory(sim, net):
    def factory(host):
        return PfabricTransport(sim, rtt_bytes=net.rtt_bytes(),
                                rtt_ps=net.rtt_ps())
    return factory


def test_pfabric_delivers_with_priority_queues():
    sim, net, transports, records = build(pfabric_factory,
                                          queue_mode="pfabric")
    transports[0].send_message(1, 100_000)
    sim.run(until_ps=20 * MS)
    assert [r[1] for r in records] == [100_000]


def test_pfabric_recovers_from_drops():
    """Overflowing the tiny buffers drops packets; the RTO recovers."""
    sim, net, transports, records = build(
        pfabric_factory, queue_mode="pfabric",
        pfabric_buffer_bytes=6 * FULL_WIRE)
    for src in range(4):
        transports[src].send_message(5, 150_000)
    sim.run(until_ps=100 * MS)
    assert len(records) == 4
    drops = sum(p.drops for p in net.tor_down_ports)
    assert drops > 0
    assert sum(t.retransmissions for t in transports) > 0


def test_pfabric_short_message_wins():
    sim, net, transports, records = build(pfabric_factory,
                                          queue_mode="pfabric")
    transports[0].send_message(2, 500_000)
    transports[1].send_message(2, 10_000)
    sim.run(until_ps=60 * MS)
    assert [r[1] for r in records] == [10_000, 500_000]


# ---------------------------------------------------------------------------
# PIAS
# ---------------------------------------------------------------------------


def pias_factory(sim, net):
    thresholds = pias_thresholds(WORKLOADS["W3"].cdf)

    def factory(host):
        return PiasTransport(sim, thresholds=thresholds, rtt_ps=net.rtt_ps())
    return factory


def test_pias_thresholds_ascending():
    thresholds = pias_thresholds(WORKLOADS["W3"].cdf)
    assert list(thresholds) == sorted(thresholds)
    assert len(thresholds) == N_PRIORITIES


def test_pias_priority_demotion():
    sim, net, transports, _ = build(pias_factory,
                                    ecn_threshold_bytes=2 * 9680)
    transport = transports[0]
    thresholds = transport.thresholds
    assert transport._prio_for(0) == 7
    assert transport._prio_for(thresholds[0]) == 6
    assert transport._prio_for(thresholds[-1] + 1) == 0


def test_pias_delivers_and_acks():
    sim, net, transports, records = build(pias_factory,
                                          ecn_threshold_bytes=2 * 9680)
    transports[0].send_message(1, 200_000)
    sim.run(until_ps=40 * MS)
    assert [r[1] for r in records] == [200_000]


def test_pias_ecn_backoff_under_congestion():
    sim, net, transports, records = build(pias_factory,
                                          ecn_threshold_bytes=9680)
    for src in range(4):
        transports[src].send_message(5, 400_000)
    sim.run(until_ps=60 * MS)
    assert len(records) == 4
    assert sum(t.backoffs for t in transports) > 0


# ---------------------------------------------------------------------------
# NDP
# ---------------------------------------------------------------------------


def ndp_factory(sim, net):
    def factory(host):
        return NdpTransport(sim, rtt_bytes=net.rtt_bytes(),
                            host_gbps=net.spec.host_gbps)
    return factory


def test_ndp_delivers_full_packet_message():
    sim, net, transports, records = build(
        ndp_factory, trim_threshold_bytes=8 * FULL_WIRE)
    transports[0].send_message(1, 100 * MAX_PAYLOAD)
    sim.run(until_ps=30 * MS)
    assert [r[1] for r in records] == [100 * MAX_PAYLOAD]


def test_ndp_trimming_and_nack_recovery():
    """Enough simultaneous senders overflow the 8-packet queue: packets
    are trimmed, NACKed, and retransmitted via pulls."""
    sim, net, transports, records = build(
        ndp_factory, trim_threshold_bytes=8 * FULL_WIRE)
    for src in range(5):
        transports[src].send_message(5, 100 * MAX_PAYLOAD)
    sim.run(until_ps=200 * MS)
    assert len(records) == 5
    assert sum(t.nacks_received for t in transports) > 0


def test_ndp_fair_share_round_robin():
    """NDP pulls round-robin: two equal flows finish about together
    (unlike SRPT where one would run to completion first)."""
    sim, net, transports, records = build(
        ndp_factory, trim_threshold_bytes=8 * FULL_WIRE)
    transports[0].send_message(3, 200 * MAX_PAYLOAD)
    transports[1].send_message(3, 200 * MAX_PAYLOAD)
    sim.run(until_ps=200 * MS)
    assert len(records) == 2
    finish_gap = abs(records[0][3] - records[1][3])
    total = records[-1][3] - min(r[2] for r in records)
    assert finish_gap < 0.25 * total
