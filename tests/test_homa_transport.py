"""Integration tests for the Homa transport on small networks."""

from repro.core.packet import MAX_PAYLOAD, PacketType
from repro.core.units import MS, US
from repro.homa.config import HomaConfig

from tests.helpers import collect_completions, homa_cluster


def run_oneway(sim, net, transports, src, dst, length, until_ms=50):
    records = collect_completions(transports)
    transports[src].send_message(dst, length)
    sim.run(until_ps=until_ms * MS)
    return records


def test_small_message_delivered_at_oracle_time():
    sim, net, transports = homa_cluster()
    records = run_oneway(sim, net, transports, 0, 1, 100)
    assert len(records) == 1
    hid, msg, now = records[0]
    assert hid == 1 and msg.length == 100
    assert now == net.min_oneway_between(0, 1, 100)


def test_single_packet_message_needs_no_grants():
    sim, net, transports = homa_cluster()
    run_oneway(sim, net, transports, 0, 1, 1000)
    assert transports[1].grants_sent == 0


def test_multi_packet_unscheduled_message():
    """Messages up to the unscheduled limit are sent entirely blind."""
    sim, net, transports = homa_cluster()
    length = transports[0].unsched_limit
    records = run_oneway(sim, net, transports, 0, 1, length)
    assert len(records) == 1
    assert transports[1].grants_sent == 0


def test_large_message_uses_grants_and_completes():
    sim, net, transports = homa_cluster()
    length = 200_000
    records = run_oneway(sim, net, transports, 0, 1, length)
    assert len(records) == 1
    assert transports[1].grants_sent > 0
    _, msg, now = records[0]
    oracle = net.min_oneway_between(0, 1, length)
    # Grant pacing should keep the pipe essentially full.
    assert now < oracle * 1.15


def test_large_message_grant_flow_keeps_line_rate_cross_rack():
    sim, net, transports = homa_cluster(racks=2, hosts_per_rack=4, aggrs=2)
    length = 500_000
    records = run_oneway(sim, net, transports, 0, 7, length)
    assert len(records) == 1
    _, _, now = records[0]
    assert now < net.min_oneway_between(0, 7, length) * 1.1


def test_granted_minus_received_bounded():
    """Flow control invariant (3.3): never more than the grant window
    granted but unreceived (modulo packet rounding).  The window is
    RTTbytes, plus one batch interval of line-rate bytes when the grant
    pacer is batching (``HomaConfig.grant_batch_ns``)."""
    sim, net, transports = homa_cluster()
    receiver = transports[1]
    bound = receiver.grant_window + MAX_PAYLOAD
    violations = []

    original = receiver._schedule_grants

    def checked(*args):
        original(*args)
        for m in receiver.inbound.values():
            if m.granted - m.bytes_received > bound:
                violations.append(m.granted - m.bytes_received)

    receiver._schedule_grants = checked
    transports[0].send_message(1, 300_000)
    transports[2].send_message(1, 150_000)
    sim.run(until_ps=50 * MS)
    assert not violations


def test_sender_srpt_shorter_message_finishes_first():
    """Two messages from one sender: the shorter must complete first
    even if created second (head-of-line blocking is impossible)."""
    sim, net, transports = homa_cluster()
    records = collect_completions(transports)
    transports[0].send_message(1, 400_000)
    sim.run(until_ps=10 * US)  # long message mid-transmission
    transports[0].send_message(1, 2000)
    sim.run(until_ps=50 * MS)
    assert len(records) == 2
    assert records[0][1].length == 2000
    assert records[1][1].length == 400_000


def test_receiver_srpt_across_senders():
    """Two senders to one receiver: the shorter message finishes first."""
    sim, net, transports = homa_cluster()
    records = collect_completions(transports)
    transports[0].send_message(3, 400_000)
    transports[1].send_message(3, 50_000)
    sim.run(until_ps=50 * MS)
    assert [r[1].length for r in records] == [50_000, 400_000]


def test_overcommitment_limits_active_senders():
    """With one scheduled level (degree 1), only one message is granted
    at a time; a withheld observer must see the queueing."""
    cfg = HomaConfig(n_sched_override=1)
    sim, net, transports = homa_cluster(hosts_per_rack=6, homa_cfg=cfg)
    receiver = transports[5]
    withheld_events = []
    receiver.withheld_observer = lambda hid, w: withheld_events.append(w)
    records = collect_completions(transports)
    for src in range(3):
        transports[src].send_message(5, 100_000)
    sim.run(until_ps=50 * MS)
    assert len(records) == 3
    assert True in withheld_events   # at some point grants were withheld
    assert withheld_events[-1] is False


def test_unlimited_overcommit_grants_everyone():
    """Basic transport: all senders granted simultaneously."""
    cfg = HomaConfig.basic()
    sim, net, transports = homa_cluster(hosts_per_rack=6, homa_cfg=cfg)
    receiver = transports[5]
    events = []
    receiver.withheld_observer = lambda hid, w: events.append(w)
    records = collect_completions(transports)
    for src in range(4):
        transports[src].send_message(5, 100_000)
    sim.run(until_ps=50 * MS)
    assert len(records) == 4
    assert True not in events  # never withheld


def test_scheduled_priorities_assigned_lowest_first():
    """A single active message gets the lowest scheduled level."""
    sim, net, transports = homa_cluster(workload="W4")
    transports[0].send_message(1, 300_000)
    sim.run(until_ps=100 * US)
    sender_msg = next(iter(transports[0].outbound.values()))
    assert sender_msg.grant_prio == transports[1].alloc.sched_levels[0]


def test_preempting_message_gets_higher_scheduled_priority():
    """A new shorter message must receive a higher scheduled priority
    than the in-progress long one (Figure 5's preemption-lag fix)."""
    sim, net, transports = homa_cluster(workload="W4")
    transports[0].send_message(2, 2_000_000)
    sim.run(until_ps=200 * US)
    transports[1].send_message(2, 120_000)
    sim.run(until_ps=300 * US)
    receiver = transports[2]
    prios = {m.src: m.sched_prio for m in receiver.inbound.values()}
    assert prios[1] > prios[0]


def test_unscheduled_priority_depends_on_message_length():
    sim, net, transports = homa_cluster(workload="W3")
    seen = {}
    receiver = transports[1]
    original = receiver.on_packet

    def spy(pkt):
        if pkt.kind == PacketType.DATA:
            seen.setdefault(pkt.total_length, pkt.prio)
        original(pkt)

    receiver.on_packet = spy
    receiver.host.attach(receiver)  # deliver through the spy
    transports[0].send_message(1, 50)
    transports[0].send_message(1, 1400)
    sim.run(until_ps=5 * MS)
    assert seen[50] > seen[1400]


def test_data_packet_count_is_minimal():
    """No fragmentation waste: ceil(length / payload) data packets."""
    sim, net, transports = homa_cluster()
    counts = []
    receiver = transports[1]
    original = receiver.on_packet

    def spy(pkt):
        if pkt.kind == PacketType.DATA:
            counts.append(pkt.payload)
        original(pkt)

    receiver.on_packet = spy
    receiver.host.attach(receiver)  # deliver through the spy
    length = 100_000
    transports[0].send_message(1, length)
    sim.run(until_ps=20 * MS)
    assert sum(counts) == length
    assert len(counts) == -(-length // MAX_PAYLOAD)
