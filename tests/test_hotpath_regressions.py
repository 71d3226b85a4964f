"""Regression tests for the hot-path indexing PR.

Covers the three bugfixes that ride along with the indexing refactor
(each fails on the seed code), the timer-wheel engine's far-event
behavior, the indexed structures' invariants, and the determinism
guarantee: a seeded W4 run must reproduce the seed code's slowdown
digests byte for byte.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import L0_SHIFT, L1_SHIFT, Simulator
from repro.core.faults import FaultEvent, LossRates
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType
from repro.core.port import PfabricPort, QueuedPort
from repro.core.topology import TopologySpec
from repro.core.units import US
from repro.experiments.campaign import slowdown_digest
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.homa.config import HomaConfig
from repro.transport.messages import InboundMessage, Intervals, OutboundMessage

from tests.helpers import homa_cluster


# ---------------------------------------------------------------------------
# Bugfix 1: preemptive-port delay attribution
# ---------------------------------------------------------------------------


def _port(preemptive=True):
    sim = Simulator()
    delivered = []
    port = QueuedPort(sim, "p", 10, delivered.append, "t",
                      preemptive=preemptive)
    port.trace_delays = True
    return sim, port, delivered


def test_preempting_packet_not_charged_residual():
    """A packet that preempts the in-flight transmission never waits out
    its residual, so it must not be billed preemption lag (seed bug:
    the full residual was added to p_wait before _preempt ran)."""
    sim, port, delivered = _port(preemptive=True)
    low = Packet(0, 1, PacketType.DATA, prio=0, payload=1460)
    port.enqueue(low)             # starts transmitting immediately
    sim.run(until_ps=100_000)     # partway through the serialization
    high = Packet(0, 1, PacketType.DATA, prio=5, payload=1460)
    port.enqueue(high)            # preempts: transmits right away
    assert port.cur_pkt is high
    assert high.p_wait == 0
    assert high.q_wait == 0


def test_non_preempting_packet_still_charged():
    """Equal/lower priority arrivals keep the seed's attribution."""
    sim, port, delivered = _port(preemptive=True)
    first = Packet(0, 1, PacketType.DATA, prio=5, payload=1460)
    port.enqueue(first)
    sim.run(until_ps=100_000)
    residual = port.cur_end_ps - sim.now
    same = Packet(0, 1, PacketType.DATA, prio=5, payload=1460)
    port.enqueue(same)            # no preemption: plain queueing wait
    assert same.q_wait == residual
    assert same.p_wait == 0


def test_preemption_charge_on_nonpreemptive_port_unchanged():
    sim, port, delivered = _port(preemptive=False)
    low = Packet(0, 1, PacketType.DATA, prio=0, payload=1460)
    port.enqueue(low)
    sim.run(until_ps=100_000)
    residual = port.cur_end_ps - sim.now
    high = Packet(0, 1, PacketType.DATA, prio=5, payload=1460)
    port.enqueue(high)            # cannot preempt: waits the residual
    assert high.p_wait == residual


# ---------------------------------------------------------------------------
# Bugfix 2: BUSY resets the retry budget
# ---------------------------------------------------------------------------


def test_busy_resets_client_retry_budget():
    """A BUSY reply proves the server is alive (Figure 3's slow-server
    case); the client must not keep accumulating resends toward a false
    abort (seed bug: only last_activity_ps was refreshed)."""
    sim, net, transports = homa_cluster()
    client = transports[0]
    rpc_id = client.send_rpc(1, 50_000)
    rpc = client.client_rpcs[rpc_id]
    rpc.resends = 2
    client.on_packet(Packet(1, 0, PacketType.BUSY,
                            rpc_id=rpc_id, is_request=False))
    assert rpc.resends == 0


def test_busy_resets_inbound_retry_budget():
    sim, net, transports = homa_cluster()
    client = transports[0]
    rpc_id = 77
    msg = InboundMessage(rpc_id, False, 1, 0, 10_000, now_ps=0)
    msg.resends = 3
    client.inbound[msg.key] = msg
    client.on_packet(Packet(1, 0, PacketType.BUSY,
                            rpc_id=rpc_id, is_request=False))
    assert msg.resends == 0


# ---------------------------------------------------------------------------
# Bugfix 3: retransmission ranges coalesce
# ---------------------------------------------------------------------------


def _drain_rtx(msg):
    chunks = []
    while True:
        chunk = msg.next_chunk()
        if chunk is None:
            break
        assert chunk[2], "only rtx bytes expected"
        chunks.append(chunk)
    return chunks


def test_queue_rtx_coalesces_overlaps():
    """Racing RESENDs for overlapping ranges must not queue the same
    bytes twice (seed bug: blind append doubled Figure 16's wasted
    bandwidth measurement)."""
    msg = OutboundMessage(1, True, 0, 1, 100_000,
                          unsched_limit=0, created_ps=0)
    msg.queue_rtx(0, 3000)
    msg.queue_rtx(1000, 4000)   # overlaps the first request
    msg.queue_rtx(0, 2000)      # fully contained duplicate
    assert sum(size for _, size, _ in _drain_rtx(msg)) == 4000


def test_queue_rtx_keeps_disjoint_ranges():
    msg = OutboundMessage(1, True, 0, 1, 100_000,
                          unsched_limit=0, created_ps=0)
    msg.queue_rtx(10_000, 10_500)
    msg.queue_rtx(0, 500)
    chunks = _drain_rtx(msg)
    assert [(c[0], c[1]) for c in chunks] == [(0, 500), (10_000, 500)]


def test_queue_rtx_adjacent_ranges_merge():
    msg = OutboundMessage(1, True, 0, 1, 100_000,
                          unsched_limit=0, created_ps=0)
    msg.queue_rtx(0, 1000)
    msg.queue_rtx(1000, 1400)   # touching: one contiguous range
    chunks = _drain_rtx(msg)
    assert [(c[0], c[1]) for c in chunks] == [(0, 1400)]


@given(st.lists(st.tuples(st.integers(0, 40), st.integers(1, 15)),
                min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_prop_rtx_bytes_match_requested_union(ranges):
    """The drained rtx byte set equals the union of requested ranges."""
    msg = OutboundMessage(1, True, 0, 1, 1000, unsched_limit=0,
                          created_ps=0)
    expected = set()
    for start, size in ranges:
        msg.queue_rtx(start, start + size)
        expected |= set(range(start, min(start + size, 1000)))
    got = set()
    for offset, size, _ in _drain_rtx(msg):
        chunk = set(range(offset, offset + size))
        assert not (chunk & got), "byte retransmitted twice"
        got |= chunk
    assert got == expected


# ---------------------------------------------------------------------------
# Intervals: bisect rewrite vs a naive byte-set oracle
# ---------------------------------------------------------------------------


@given(st.lists(st.tuples(st.integers(0, 800), st.integers(1, 120)),
                min_size=1, max_size=60))
@settings(max_examples=200, deadline=None)
def test_prop_intervals_oracle(chunks):
    iv = Intervals()
    oracle = set()
    for start, size in chunks:
        added = iv.add(start, start + size)
        new_bytes = set(range(start, start + size)) - oracle
        assert added == len(new_bytes)
        oracle |= set(range(start, start + size))
        assert iv.total == len(oracle)
        # The internal representation stays sorted and disjoint.
        ranges = iv._ranges
        for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
            assert e1 < s2
    # covers/first_gap/contiguous_prefix agree with the oracle.
    horizon = 1000
    gap = iv.first_gap(horizon)
    missing = sorted(set(range(horizon)) - oracle)
    if missing:
        assert gap is not None and gap[0] == missing[0]
        assert all(b not in oracle for b in range(gap[0], gap[1]))
    else:
        assert gap is None
    prefix = iv.contiguous_prefix()
    assert all(b in oracle for b in range(prefix))
    assert prefix not in oracle or prefix == 0 and 0 not in oracle \
        or prefix == max(oracle) + 1


@given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 60)),
                min_size=1, max_size=25),
       st.integers(0, 300), st.integers(1, 60))
@settings(max_examples=150, deadline=None)
def test_prop_intervals_covers(chunks, qstart, qsize):
    iv = Intervals()
    oracle = set()
    for start, size in chunks:
        iv.add(start, start + size)
        oracle |= set(range(start, start + size))
    expected = all(b in oracle for b in range(qstart, qstart + qsize))
    assert iv.covers(qstart, qstart + qsize) == expected


# ---------------------------------------------------------------------------
# Engine: hierarchical timer wheel
# ---------------------------------------------------------------------------


def test_wheel_far_events_fire_in_order():
    """Events spread across both wheel levels fire in exact time order."""
    sim = Simulator()
    rng = random.Random(3)
    delays = ([rng.randrange(1, 1 << L0_SHIFT) for _ in range(50)]
              + [rng.randrange(1 << L0_SHIFT, 1 << L1_SHIFT)
                 for _ in range(50)]
              + [rng.randrange(1 << L1_SHIFT, 1 << (L1_SHIFT + 4))
                 for _ in range(50)])
    rng.shuffle(delays)
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(delays)
    assert sim.events_processed == len(delays)


def test_wheel_cancel_far_event():
    sim = Simulator()
    fired = []
    sim.schedule(3 << L1_SHIFT, fired.append, "keep")
    drop = sim.schedule(2 << L1_SHIFT, fired.append, "drop")
    Simulator.cancel(drop)
    sim.run()
    assert fired == ["keep"]
    assert sim.events_processed == 1


def test_wheel_far_event_fires_at_its_time():
    sim = Simulator()
    stamps = []
    sim.schedule(5 << L1_SHIFT, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [5 << L1_SHIFT]


def test_wheel_near_events_scheduled_during_run_precede_far():
    sim = Simulator()
    order = []

    def early():
        order.append("early")
        sim.schedule(10, order.append, "nested")

    sim.schedule(1, early)
    sim.schedule(2 << L1_SHIFT, order.append, "far")
    sim.run()
    assert order == ["early", "nested", "far"]


def test_wheel_run_until_between_buckets():
    sim = Simulator()
    fired = []
    sim.schedule((1 << L1_SHIFT) + 7, fired.append, "x")
    sim.run(until_ps=1 << L1_SHIFT)
    assert fired == [] and sim.now == 1 << L1_SHIFT
    sim.run()
    assert fired == ["x"]


# ---------------------------------------------------------------------------
# Indexed structures: behavioral invariants
# ---------------------------------------------------------------------------


def test_sender_serves_srpt_order():
    """The sender must serve strictly by (remaining, created)."""
    sim, net, transports = homa_cluster()
    sender = transports[0]
    sender.send_message(1, 8 * MAX_PAYLOAD)
    sender.send_message(1, 3 * MAX_PAYLOAD)
    sender.send_message(1, 5 * MAX_PAYLOAD)
    sizes = []
    while True:
        pkt = sender.next_packet()
        if pkt is None:
            break
        sizes.append(pkt.total_length)
    # The idle NIC already pulled one packet of the first (8-packet)
    # message when it was submitted; from then on SRPT rules: the
    # 3-packet message drains first, then 5, then the longest message's
    # remaining unscheduled prefix (no receiver runs, so no grants ever
    # extend it past unsched_limit).
    blind = -(-min(8 * MAX_PAYLOAD, sender.unsched_limit) // MAX_PAYLOAD)
    expected = ([3 * MAX_PAYLOAD] * 3 + [5 * MAX_PAYLOAD] * 5
                + [8 * MAX_PAYLOAD] * (blind - 1))
    assert sizes == expected


def test_sender_is_busy_tracks_shortest_sendable():
    sim, net, transports = homa_cluster()
    sender = transports[0]
    long_msg = sender.send_message(1, 50 * MAX_PAYLOAD)
    assert not sender._sender_is_busy(long_msg)
    sender.send_message(1, 2 * MAX_PAYLOAD)
    assert sender._sender_is_busy(long_msg)


def test_grantable_index_matches_inbound_filter():
    """After a run, the receiver's O(1) grantable set must equal the
    filter the seed code recomputed per packet.  Pinned to legacy
    per-packet grants: that is the mode whose grantable set contract is
    exactly {m : granted < length} (the batched pacer keeps
    slack-completed messages in the set while they drain — see
    _schedule_grants)."""
    # Built by hand so we can inspect the transports afterwards.
    sim, net, transports = homa_cluster(
        racks=1, hosts_per_rack=4, homa_cfg=HomaConfig(grant_batch_ns=0))
    rng = random.Random(5)
    for _ in range(40):
        src, dst = rng.sample(range(4), 2)
        transports[src].send_message(dst, rng.randrange(1, 400_000))
    sim.run(until_ps=300 * US)
    for transport in transports:
        expected = {key: m for key, m in transport.inbound.items()
                    if m.granted < m.length}
        assert transport._grantable == expected


def test_pfabric_port_fifo_on_priority_ties():
    sim = Simulator()
    out = []
    port = PfabricPort(sim, "p", 10, out.append, "t",
                       buffer_bytes=10 * 1538)
    first = Packet(0, 1, PacketType.DATA, prio=0, fine_prio=500,
                   payload=100, rpc_id=1)
    second = Packet(0, 1, PacketType.DATA, prio=0, fine_prio=500,
                    payload=100, rpc_id=2)
    urgent = Packet(0, 1, PacketType.DATA, prio=0, fine_prio=10,
                    payload=100, rpc_id=3)
    port.enqueue(first)           # starts transmitting
    port.enqueue(second)
    port.enqueue(urgent)
    sim.run()
    assert [p.rpc_id for p in out] == [1, 3, 2]


def test_pfabric_port_drops_oldest_largest_on_ties():
    sim = Simulator()
    out = []
    port = PfabricPort(sim, "p", 10, out.append, "t", buffer_bytes=400)
    blocker = Packet(0, 1, PacketType.DATA, fine_prio=1, payload=100,
                     rpc_id=1)
    port.enqueue(blocker)         # on the wire; buffer now empty
    a = Packet(0, 1, PacketType.DATA, fine_prio=900, payload=100, rpc_id=2)
    b = Packet(0, 1, PacketType.DATA, fine_prio=900, payload=100, rpc_id=3)
    port.enqueue(a)
    port.enqueue(b)
    arrival = Packet(0, 1, PacketType.DATA, fine_prio=5, payload=100,
                     rpc_id=4)
    port.enqueue(arrival)         # overflow: first-queued max dropped
    assert port.drops == 1
    sim.run()
    assert [p.rpc_id for p in out] == [1, 4, 3]


# ---------------------------------------------------------------------------
# Determinism: the indexing refactor must not change simulation results
# ---------------------------------------------------------------------------

#: seed-code digests for the scenario below, captured before the
#: refactor (repr() of every slowdown percentile).
GOLDEN_P50 = [
    "1.5009050975091716", "1.1670182719005746", "1.0279255319148937",
    "1.0441817406143346", "1.1406033720287452", "1.1435432982355214",
    "1.0559966867005701", "1.0824325191564734", "1.0700807123640126",
    "1.1932839408099105",
]
GOLDEN_P99 = [
    "1.7767629172975146", "1.2863380476441835", "1.598025011635208",
    "1.806829926099352", "1.4417672882216506", "1.4726971202640802",
    "1.222181939521681", "1.0980201786448214", "2.0018056622704568",
    "1.9745655835647904",
]


@pytest.mark.slow
def test_w4_digest_byte_identical_to_seed():
    """A seeded W4 run reproduces the pre-refactor slowdown digests
    exactly: same traffic, same schedules, same percentiles.

    ``grant_batch_ns=0`` pins legacy per-packet grants — that is the
    mode whose digests are contractually byte-identical to the seed
    (the default batched pacer drifts by design; its coverage lives in
    tests/test_grant_batching.py)."""
    cfg = ExperimentConfig(protocol="homa", workload="W4", load=0.8,
                           racks=2, hosts_per_rack=4, aggrs=2,
                           duration_ms=2.0, warmup_ms=0.5, drain_ms=8.0,
                           seed=7, max_messages=150,
                           homa=HomaConfig(grant_batch_ns=0))
    result = run_experiment(cfg)
    assert [repr(x) for x in result.slowdown_series(50)] == GOLDEN_P50
    assert [repr(x) for x in result.slowdown_series(99)] == GOLDEN_P99
    assert result.completed == result.submitted == 83


#: Degree-1 W4 cells, where the receiver's top-K ranking and the
#: ``grant_oldest`` slot both run (the digests above use the default
#: degree).  Recorded on the tree before the grant ranking became one
#: ``nsmallest`` pass: (grant_batch_ns, grant_oldest) -> (slowdown
#: digest, completed, GRANTs).
LOW_DEGREE_DIGESTS = {
    (0, False): ("8d651264235693b591ae9f5781a4dc9b"
                 "5b75a5a8d384a92da95ec847dc4b3891", 47, 13272),
    (0, True): ("4ba37b974bf368b6b6695df4f21ffe7e"
                "ed3f1bb08fb6d033d48060a74d1a482c", 47, 13266),
    (4000, False): ("d9329920e04b914e071e9a699273a39e"
                    "279db242cf8f6e438d1664df64f89890", 47, 3326),
    (4000, True): ("24d6c843041863c676fb4cd81773f71c"
                   "50ca281b8b464b16670f3efd2a339003", 47, 3328),
}


@pytest.mark.parametrize("batch_ns,oldest", sorted(LOW_DEGREE_DIGESTS))
def test_low_degree_digest_pinned(batch_ns, oldest):
    digest, completed, grants = LOW_DEGREE_DIGESTS[batch_ns, oldest]
    result = run_experiment(ExperimentConfig(
        protocol="homa", workload="W4", load=0.9, racks=2,
        hosts_per_rack=4, aggrs=2, duration_ms=1.5, warmup_ms=0.0,
        drain_ms=8.0, seed=7, max_messages=100,
        homa=HomaConfig(grant_batch_ns=batch_ns, overcommit_override=1,
                        grant_oldest=oldest)))
    assert result.completed == result.submitted == completed
    assert result.control.grants == grants
    assert slowdown_digest({"homa": result}) == digest

# ---------------------------------------------------------------------------
# Arrival fusion: the fused ingress against its unfused reference
# ---------------------------------------------------------------------------


def _assert_fused_matches_probed(**cfg):
    """An attached probe (or delay tracing) disables arrival fusion, so
    a probed run is the per-hop reference: every arrival takes its
    scheduled event.  The unprobed run must reproduce it sample for
    sample, counter for counter, while actually fusing — strictly fewer
    events."""
    fused = run_experiment(ExperimentConfig(collect=(), **cfg))
    unfused = run_experiment(ExperimentConfig(
        collect=("queues", "delays"), **cfg))
    assert fused.tracker.sizes == unfused.tracker.sizes
    assert fused.tracker.slowdowns == unfused.tracker.slowdowns
    assert fused.completed == unfused.completed
    assert fused.fabric.to_payload() == unfused.fabric.to_payload()
    assert fused.control.to_payload() == unfused.control.to_payload()
    assert fused.events < unfused.events
    return fused


@pytest.mark.parametrize("workload", ["W1", "W3", "W4"])
def test_fused_ingress_matches_unfused_reference(workload):
    """Clean 2-level tree (862/880, 1,497/1,574 and 153,051/161,530
    events when this was written)."""
    _assert_fused_matches_probed(
        protocol="homa", workload=workload, load=0.8,
        racks=2, hosts_per_rack=4, aggrs=2,
        duration_ms=1.5, warmup_ms=0.3, drain_ms=8.0,
        seed=7, max_messages=120, homa=HomaConfig(grant_batch_ns=0))


#: the benchmark's lossy, faulted 3-level fabric (benchmarks/perf,
#: ``protocols_w3_lossy3``), re-declared so the test stands alone
LOSSY3_BENCH = TopologySpec(
    levels=3, pods=2, racks=2, hosts_per_rack=8, aggrs=2, cores=4,
    host_gbps=10, aggr_gbps=25, core_gbps=100,
    loss=LossRates(tor=0.01, aggr=0.01, core=0.01),
    faults=(FaultEvent(0.14, "link", "down", "tor0:aggr0.1"),
            FaultEvent(0.22, "switch", "down", "core0"),
            FaultEvent(0.32, "link", "up", "tor0:aggr0.1")))


@pytest.mark.parametrize("protocol,seed", [
    ("stream", 6), ("stream", 8), ("homa", 24), ("phost", 5)])
def test_fused_ingress_matches_unfused_reference_across_faults(protocol,
                                                               seed):
    """A fault flushes egress buffers, so a packet appended early must
    already have arrived when one fires: the ingress fuses only if the
    real arrival precedes ``Network.next_fault_ps``.  Each seed here
    diverges from the probed run without that term (stream seed 6:
    ``fault_drops`` 5 against 0)."""
    fused = _assert_fused_matches_probed(
        protocol=protocol, workload="W3", load=0.5, fabric=LOSSY3_BENCH,
        duration_ms=0.3, warmup_ms=0.1, drain_ms=20.0, seed=seed)
    assert fused.tracker.count and fused.fabric.faults_applied == 3


def test_clean_three_level_fabric_fuses():
    """Fusion is a property of each port, not of the 2-level builder."""
    fused = _assert_fused_matches_probed(
        protocol="homa", workload="W3", load=0.8,
        fabric=TopologySpec(levels=3, pods=2, racks=2, hosts_per_rack=4,
                            aggrs=2, cores=2),
        duration_ms=0.3, warmup_ms=0.1, drain_ms=5.0, seed=3)
    assert fused.tracker.count and not fused.fabric.any()


# ---------------------------------------------------------------------------
# Sender pulls: predicate evaluations per NIC pull (counts repeat exactly)
# ---------------------------------------------------------------------------

#: protocol -> (module, predicate owner, predicate, transport).  Under
#: the linear scans of PR 12 this run evaluated the predicate 155.4
#: (stream_mc), 19.7 (stream), 5.9 (pias) and 4.3 (ndp) times per pull.
PULL_PREDICATES = {
    "stream_mc": ("repro.baselines.stream", "_Connection", "sendable",
                  "StreamTransport"),
    "stream": ("repro.baselines.stream", "_Connection", "sendable",
               "StreamTransport"),
    "pias": ("repro.baselines.pias", "_PiasFlow", "can_send",
             "PiasTransport"),
    "ndp": ("repro.baselines.ndp", "_NdpFlow", "sendable", "NdpTransport"),
}


@pytest.mark.parametrize("protocol", sorted(PULL_PREDICATES))
def test_sender_pull_examines_at_most_two_members(protocol, monkeypatch):
    """A NIC pull must not scan idle connections / flows: on a 32-host
    lossy 3-level run each ``_next_data`` call may evaluate the
    sendability predicate at most twice on average (the member served
    plus the odd stale mark), however many idle members the host holds."""
    import importlib

    from repro.core.faults import LossRates
    from repro.core.topology import TopologySpec

    module, owner, predicate, transport = PULL_PREDICATES[protocol]
    module = importlib.import_module(module)
    counts = {"examined": 0, "pulls": 0}

    def counted(cls, name, counter):
        inner = getattr(cls, name)

        def wrapper(self):
            counts[counter] += 1
            return inner(self)
        monkeypatch.setattr(cls, name, wrapper)

    counted(getattr(module, owner), predicate, "examined")
    counted(getattr(module, transport), "_next_data", "pulls")
    fabric = TopologySpec(
        levels=3, pods=2, racks=2, hosts_per_rack=8, aggrs=2, cores=4,
        host_gbps=10, aggr_gbps=25, core_gbps=100,
        loss=LossRates(tor=0.01, aggr=0.01, core=0.01))
    result = run_experiment(ExperimentConfig(
        protocol=protocol, workload="W3", load=0.5, duration_ms=0.2,
        warmup_ms=0.05, drain_ms=20.0, seed=15, fabric=fabric))
    assert result.control.rtx_data > 0  # the recovery marks ran too
    assert counts["pulls"] > 5_000
    assert counts["examined"] <= 2 * counts["pulls"], counts
