"""Grant pacer coverage: batched GRANT emission in the Homa receiver.

Three layers:

* direct-transport semantics — arrivals arm the pacer instead of
  granting synchronously; a tick runs one ranking pass and emits at
  most one GRANT per active message, carrying the furthest allocation;
* interplay — retransmission timers, BUSY budget resets, and freed
  overcommitment slots all keep working when grants are batched;
* end-to-end — a seeded W4 run conserves messages in both modes and
  the batched mode measurably cuts GRANT control packets.

The byte-identical digest contract of ``grant_batch_ns=0`` is asserted
by tests/test_hotpath_regressions.py::test_w4_digest_byte_identical_to_seed.
"""

import pytest

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType
from repro.core.units import MS, NS, US, ps_per_byte
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.homa.config import HomaConfig
from repro.homa.priorities import allocate_priorities
from repro.homa.transport import HomaTransport
from repro.workloads.catalog import WORKLOADS

from tests.helpers import FakeHost, drain_ctrl, homa_cluster

RTT = 9680
BATCH_NS = HomaConfig().grant_batch_ns


def make_batched_transport(homa_cfg=None, workload="W4"):
    sim = Simulator()
    cfg = homa_cfg or HomaConfig()
    assert cfg.grant_batch_ns > 0, "these tests exercise batched mode"
    alloc = allocate_priorities(
        WORKLOADS[workload].cdf,
        cfg.resolved_unsched_limit(RTT),
        n_prios=cfg.n_prios,
        n_unsched_override=cfg.n_unsched_override,
        n_sched_override=cfg.n_sched_override,
    )
    transport = HomaTransport(sim, cfg, alloc, RTT)
    transport.bind(FakeHost(sim, 0))
    return sim, transport


def data_packet(src, rpc_id, offset, payload, total):
    return Packet(
        src,
        0,
        PacketType.DATA,
        prio=5,
        payload=payload,
        rpc_id=rpc_id,
        is_request=True,
        offset=offset,
        total_length=total,
        grant_offset=min(total, 10220),
    )


def grants(packets):
    return [p for p in packets if p.kind == PacketType.GRANT]


def aligned(target, length):
    """Grant offsets are rounded up to whole packets, capped at length."""
    return min(-(-target // MAX_PAYLOAD) * MAX_PAYLOAD, length)


def test_grant_window_includes_batch_slack():
    """Batched mode keeps RTTbytes + one tick of line-rate bytes
    outstanding, so paced grants never starve the sender's window."""
    sim, transport = make_batched_transport()
    slack = -(-(BATCH_NS * NS) // ps_per_byte(10))
    assert transport.grant_window == RTT + slack
    assert transport._grant_interval_ps == BATCH_NS * NS


def test_zero_interval_is_legacy_per_packet():
    sim_cfg = HomaConfig(grant_batch_ns=0)
    sim = Simulator()
    alloc = allocate_priorities(
        WORKLOADS["W4"].cdf, sim_cfg.resolved_unsched_limit(RTT), n_prios=8
    )
    transport = HomaTransport(sim, sim_cfg, alloc, RTT)
    transport.bind(FakeHost(sim, 0))
    assert transport._grant_interval_ps == 0
    assert transport.grant_window == RTT
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 100_000))
    assert len(grants(drain_ctrl(transport))) == 1  # synchronous GRANT


def test_no_grant_until_tick():
    sim, transport = make_batched_transport()
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 100_000))
    assert not grants(drain_ctrl(transport))  # arrival only arms the pacer
    assert transport._grant_event is not None
    sim.run(until_ps=5 * US)
    out = grants(drain_ctrl(transport))
    assert len(out) == 1
    assert out[0].grant_offset == aligned(MAX_PAYLOAD + transport.grant_window, 100_000)
    assert transport.grant_ticks == 1


def test_burst_collapses_into_one_grant():
    """Several data packets inside one interval yield one GRANT that
    carries the furthest allocation known at tick time."""
    sim, transport = make_batched_transport()
    for index in range(3):
        pkt = data_packet(1, 100, index * MAX_PAYLOAD, MAX_PAYLOAD, 100_000)
        transport.on_packet(pkt)
    sim.run(until_ps=5 * US)
    out = grants(drain_ctrl(transport))
    assert len(out) == 1
    expected = aligned(3 * MAX_PAYLOAD + transport.grant_window, 100_000)
    assert out[0].grant_offset == expected
    assert transport.grants_sent == 1
    assert transport.grant_ticks == 1


def test_pacer_ticks_one_interval_after_the_first_arrival():
    """Arrivals inside one interval collapse into one tick, stamped one
    interval after the first of them."""
    sim, transport = make_batched_transport()
    interval = BATCH_NS * NS
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 100_000))
    sim.run(until_ps=interval // 2)
    transport.on_packet(data_packet(1, 100, MAX_PAYLOAD, MAX_PAYLOAD, 100_000))
    sim.run(until_ps=interval - 1)
    assert transport.grant_ticks == 0
    sim.run(until_ps=interval)
    assert transport.grant_ticks == 1
    sim.run(until_ps=3 * interval)
    assert transport.grant_ticks == 1


def test_pacer_rearms_from_the_next_arrival_after_a_tick():
    """The next arrival after a tick starts a fresh interval, measured
    from that arrival rather than from the previous tick."""
    sim, transport = make_batched_transport()
    interval = BATCH_NS * NS
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 100_000))
    sim.run(until_ps=3 * interval)
    assert transport.grant_ticks == 1
    transport.on_packet(
        data_packet(1, 100, 2 * MAX_PAYLOAD, MAX_PAYLOAD, 100_000))
    sim.run(until_ps=4 * interval - 1)
    assert transport.grant_ticks == 1
    sim.run(until_ps=4 * interval)
    assert transport.grant_ticks == 2


def test_idle_receiver_schedules_no_tick():
    """Nothing grantable, nothing scheduled: a message that arrives
    whole arms no tick, and once data stops arriving the pacer stops
    ticking too."""
    sim, transport = make_batched_transport()
    transport.on_packet(data_packet(1, 100, 0, 1000, 1000))
    sim.run(until_ps=10 * BATCH_NS * NS)
    assert transport.messages_received == 1
    assert transport.grant_ticks == 0
    transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 100_000))
    sim.run(until_ps=20 * BATCH_NS * NS)
    assert transport.grant_ticks == 1


def test_negative_interval_rejected():
    cfg = HomaConfig(grant_batch_ns=-1)
    alloc = allocate_priorities(
        WORKLOADS["W4"].cdf, cfg.resolved_unsched_limit(RTT), n_prios=8)
    with pytest.raises(ValueError):
        HomaTransport(Simulator(), cfg, alloc, RTT)


def test_one_grant_per_active_message_ranked_by_remaining():
    sim, transport = make_batched_transport()
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 2_000_000))
    transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 500_000))
    sim.run(until_ps=5 * US)
    out = grants(drain_ctrl(transport))
    assert len(out) == 2
    by_src = {m.src: m for m in transport.inbound.values()}
    # Most-remaining message sits on the lowest scheduled level so a
    # shorter newcomer preempts without lag (paper Figure 5).
    assert by_src[1].sched_prio < by_src[2].sched_prio
    assert by_src[1].sched_prio == transport.alloc.sched_levels[0]


def test_batched_grants_respect_overcommit_degree():
    cfg = HomaConfig(n_sched_override=2)
    sim, transport = make_batched_transport(cfg)
    for index in range(5):
        pkt = data_packet(index + 1, 100 + index, 0, MAX_PAYLOAD, 500_000 + index)
        transport.on_packet(pkt)
    sim.run(until_ps=5 * US)
    granted_beyond_unsched = [
        m for m in transport.inbound.values() if m.granted > 10220
    ]
    assert len(granted_beyond_unsched) == 2
    assert transport.grants_sent == 2


def test_completion_frees_slot_for_withheld_message():
    """A completion must arm the pacer: the next tick's ranking pass
    promotes the message the overcommitment limit was withholding."""
    cfg = HomaConfig(n_sched_override=1)
    sim, transport = make_batched_transport(cfg)
    for index in range(7):  # 10220 of 11000 bytes: message A stays short
        pkt = data_packet(1, 100, index * MAX_PAYLOAD, MAX_PAYLOAD, 11_000)
        transport.on_packet(pkt)
    transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 500_000))
    sim.run(until_ps=5 * US)
    by_src = {m.src: m for m in transport.inbound.values()}
    assert by_src[1].granted == 11_000  # degree-1 slot goes to A
    assert by_src[2].granted == 10220  # B withheld at its unscheduled prefix
    transport.on_packet(data_packet(1, 100, 7 * MAX_PAYLOAD, 780, 11_000))
    assert all(m.src != 1 for m in transport.inbound.values())  # A done
    sim.run(until_ps=10 * US)
    msg_b = next(m for m in transport.inbound.values() if m.src == 2)
    assert msg_b.granted == aligned(MAX_PAYLOAD + transport.grant_window, 500_000)


def test_count_mode_ranks_every_n_arrivals_and_on_critical_events():
    """``grant_batch_pkts=10``: one ranking pass per 10 data arrivals,
    except that a new grantable message, an exhausted sender window and
    a freed overcommitment slot each run it at once."""
    cfg = HomaConfig(grant_batch_ns=0, grant_batch_pkts=10,
                     overcommit_override=1)
    sim = Simulator()
    alloc = allocate_priorities(WORKLOADS["W4"].cdf,
                                cfg.resolved_unsched_limit(RTT), n_prios=8)
    transport = HomaTransport(sim, cfg, alloc, RTT)
    transport.bind(FakeHost(sim, 0))
    assert transport._grant_interval_ps == 0
    assert transport.grant_window == RTT + 10 * MAX_PAYLOAD

    def arrive(src, rpc_id, index, total, grant_offset=None):
        pkt = data_packet(src, rpc_id, index * MAX_PAYLOAD, MAX_PAYLOAD, total)
        if grant_offset is not None:
            pkt.grant_offset = grant_offset
        transport.on_packet(pkt)
        return transport.grant_ticks

    assert arrive(1, 100, 0, 200_000) == 1  # new grantable message
    assert [arrive(1, 100, i, 200_000) for i in range(1, 11)] == [1] * 9 + [2]
    assert arrive(2, 101, 0, 900_000) == 3  # new grantable message
    # B is withheld (degree 1, A is shorter): its window ends with its
    # unscheduled prefix, and the packet that exhausts it ranks at once.
    assert [arrive(2, 101, i, 900_000) for i in range(1, 7)] == [3] * 5 + [4]
    by_src = {m.src: m for m in transport.inbound.values()}
    assert by_src[2].granted == 10220
    # A's sender reports it fully granted: the freed slot ranks at once
    # and goes to B.
    assert arrive(1, 100, 11, 200_000, grant_offset=200_000) == 5
    assert by_src[2].granted > 10220


def test_resend_timer_still_fires_under_batching():
    """Batching must not disturb the receiver's loss recovery: a gap in
    granted data still produces a RESEND naming the missing range."""
    sim, transport = make_batched_transport()
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 50_000))
    transport.on_packet(data_packet(1, 100, 2 * MAX_PAYLOAD, MAX_PAYLOAD, 50_000))
    sim.run(until_ps=5 * US)
    assert grants(drain_ctrl(transport))  # pacer granted the message
    sim.run(until_ps=int(3.5 * MS))
    resends = [p for p in drain_ctrl(transport) if p.kind == PacketType.RESEND]
    assert resends
    assert resends[0].offset == MAX_PAYLOAD
    assert resends[0].range_end == 2 * MAX_PAYLOAD
    msg = next(iter(transport.inbound.values()))
    assert msg.resends >= 1


def test_busy_resets_retry_budget_under_batching():
    cfg = HomaConfig()
    assert cfg.grant_batch_ns > 0
    sim, net, transports = homa_cluster(homa_cfg=cfg)
    client = transports[0]
    rpc_id = client.send_rpc(1, 50_000)
    rpc = client.client_rpcs[rpc_id]
    rpc.resends = 2
    busy = Packet(1, 0, PacketType.BUSY, rpc_id=rpc_id, is_request=False)
    client.on_packet(busy)
    assert rpc.resends == 0


W4_SCENARIO = dict(
    protocol="homa",
    workload="W4",
    load=0.8,
    racks=2,
    hosts_per_rack=4,
    aggrs=2,
    duration_ms=2.0,
    warmup_ms=0.5,
    drain_ms=30.0,
    seed=7,
    max_messages=150,
)


@pytest.mark.slow
def test_batched_mode_cuts_grant_packets_and_conserves_messages():
    """The headline claim, at CI scale: batching cuts GRANT control
    packets well past 2x on W4 @ 80% while every message still
    completes.  Counts are deterministic for a seeded run."""
    legacy = run_experiment(
        ExperimentConfig(homa=HomaConfig(grant_batch_ns=0), **W4_SCENARIO)
    )
    batched = run_experiment(
        ExperimentConfig(homa=HomaConfig(), **W4_SCENARIO)
    )
    assert legacy.completed == legacy.submitted > 0
    assert batched.completed == batched.submitted > 0
    assert legacy.control.grant_ticks == 0
    assert batched.control.grant_ticks > 0
    assert legacy.control.grants >= 2.5 * batched.control.grants
    assert batched.events < legacy.events
