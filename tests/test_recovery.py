"""Cross-protocol recovery battery (docs/FABRICS.md).

Every registered protocol must survive injected loss and fabric
faults.  The contract, per protocol, at event exhaustion:

* **conservation** — every submitted message is delivered at most
  once, and every undelivered message is accounted for: a sender
  give-up (``outbound_gaveups``), or — Homa one-ways only — a blind
  loss (the entire unscheduled transmission destroyed before either
  end held recoverable state, bounded by the fabric's drop count);
* **no leaks** — no transport dictionary (inbound, outbound, flows,
  token buckets, recovery trackers) retains an entry once the event
  queue drains, and every switch port is idle with empty queues; the
  give-up budgets guarantee exhaustion itself;
* **clean fabrics untouched** — with no loss filters and no fault
  schedule, the recovery machinery schedules zero events, pinned
  here by byte-exact slowdown digests for all eight protocols.

The deterministic batteries fix a schedule and sweep loss rates and
fault schedules; the hypothesis battery fuzzes schedules x loss x
seed per protocol.  Edge cases at the bottom pin the bug classes the
wiring is most prone to: duplicate delivery after a lost final ACK,
late ACKs racing a give-up, and outages shorter than the retry
budget (fault-restore mid-backoff).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.faults import FaultEvent, LossRates
from repro.core.packet import Packet, PacketType
from repro.core.topology import TopologySpec
from repro.core.units import MS, US
from repro.experiments.campaign import slowdown_digest
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.control import FabricHealth
from repro.transport.registry import PROTOCOLS

from tests.helpers import collect_completions, port_leftovers, protocol_cluster

# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

#: 2 racks x 2 hosts (hids 0,1 | 2,3) behind one aggregation switch.
def _spec(loss=None, faults=()):
    return TopologySpec(levels=2, racks=2, hosts_per_rack=2, aggrs=1,
                        loss=loss or LossRates(), faults=tuple(faults))


#: every dict a transport may hold per-message state in; all must be
#: empty at event exhaustion (give-ups pop them, completions pop them).
STATE_DICTS = (
    "inbound", "outbound", "tokens", "client_rpcs", "server_rpcs",
    "_pulls_issued", "_orphan_rounds", "_grantable",
    "last_data_ps", "token_grant_ps", "blacklisted_until",
)

#: recovery trackers; must have forgotten every key at exhaustion.
TRACKERS = ("_in_watch", "_out_watch")


def assert_no_leaks(transports):
    for t in transports:
        for attr in STATE_DICTS:
            held = getattr(t, attr, None)
            assert not held, (
                f"{t.protocol_name} host {t.hid} leaked {attr}: "
                f"{list(held)[:4]}")
        for attr in TRACKERS:
            tracker = getattr(t, attr, None)
            assert tracker is None or not tracker._watch, (
                f"{t.protocol_name} host {t.hid} leaked tracker {attr}")
        # Stream connections: residual queue entries must be inert
        # (fully sent, nothing queued for retransmission).
        for conns in getattr(t, "connections", {}).values():
            for conn in conns:
                for msg in conn.queue:
                    assert msg.fully_sent() and not msg.rtx, (
                        f"stream host {t.hid} leaked live queued message")


def run_battery(protocol, schedule, spec, seed, horizon_ps=500 * MS):
    """Drive ``schedule`` = [(src, dst, size, gap_ps)] to exhaustion."""
    sim, net, transports = protocol_cluster(protocol, spec, seed=seed)
    records = collect_completions(transports)
    submitted = []
    clock = 0
    for src, dst, size, gap_ps in schedule:
        clock += gap_ps
        sim.schedule_at(clock, transports[src].send_message, dst, size)
        submitted.append((src, dst, size))
    sim.run(until_ps=clock + horizon_ps)
    # The give-up budgets bound every retry path: the queue must be
    # *exhausted* at the horizon, not merely truncated by it.
    assert sim.run(until_ps=sim.now + 50 * MS) == 0, (
        f"{protocol}: events still pending past the recovery horizon")
    return sim, net, transports, records, submitted


def assert_conserved(protocol, net, transports, records, submitted):
    # At-most-once delivery: no (src, dst, rpc) completes twice.
    keys = [(msg.src, hid, msg.rpc_id, msg.is_request)
            for hid, msg, _ in records]
    assert len(set(keys)) == len(keys), f"{protocol}: duplicate delivery"
    delivered = sorted((msg.src, hid, msg.length) for hid, msg, _ in records)
    assert len(delivered) <= len(submitted)
    remaining = sorted(submitted)
    for item in delivered:
        remaining.remove(item)  # raises if a phantom message completed
    missing = len(remaining)
    health = FabricHealth.collect(net)
    if health.total_drops == 0:
        assert missing == 0, f"{protocol}: lost messages without drops"
    out_gaveups = sum(t.outbound_gaveups for t in transports)
    if protocol in ("homa", "basic"):
        # Homa one-ways can be blind-lost: the whole unscheduled
        # transmission destroyed before any state existed (senders
        # keep no timers, section 3.7; end-to-end retry is the
        # application's job, section 3.8).  Bounded by the drops.
        assert missing <= out_gaveups + health.total_drops
    else:
        # Baseline senders hold state until acked: every undelivered
        # message must have been given up, loudly.
        assert missing <= out_gaveups, (
            f"{protocol}: {missing} missing > {out_gaveups} give-ups")
    rtx = sum(t.rtx_data_sent for t in transports)
    recovered = sum(t.rtx_recovered for t in transports)
    assert recovered <= rtx
    assert_no_leaks(transports)
    assert_ports_drained(net)
    return missing, health


def assert_ports_drained(net):
    """At exhaustion every switch port is idle and holds nothing: no
    queue, heap or buffer may keep what the port already sent or
    dropped."""
    for port in net.all_switch_ports():
        assert not port.busy and port.cur_pkt is None, f"{port.name} busy"
        assert port.qbytes == 0, f"{port.name} still queues {port.qbytes} B"
        kept = {slot: len(items)
                for slot, items in port_leftovers(port).items()}
        assert not kept, f"{port.name} kept entries: {kept}"


# A deterministic mixed-size schedule: single-packet messages, a few
# multi-packet ones crossing the aggregation layer, some intra-rack.
SCHEDULE = [
    (0, 2, 40_000, 0),
    (1, 3, 1_400, 2 * US),
    (2, 1, 12_000, 1 * US),
    (3, 0, 90_000, 3 * US),
    (0, 1, 800, 1 * US),
    (2, 3, 6_000, 2 * US),
    (1, 2, 56_000, 4 * US),
    (3, 2, 300, 1 * US),
    (0, 3, 20_000, 5 * US),
    (2, 0, 3_000, 2 * US),
]


# ---------------------------------------------------------------------------
# deterministic battery: every protocol x loss rates x a fault schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("rate,seed", [(0.02, 3), (0.08, 11)])
def test_conservation_under_loss(protocol, rate, seed):
    spec = _spec(loss=LossRates(tor=rate, aggr=rate / 2))
    sim, net, transports, records, submitted = run_battery(
        protocol, SCHEDULE, spec, seed)
    missing, health = assert_conserved(
        protocol, net, transports, records, submitted)
    assert health.total_drops > 0, "loss rate produced no drops; vacuous"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_conservation_under_loss_and_faults(protocol):
    """Loss plus a mid-run outage of the only aggregation uplink from
    rack 0: packets black-hole while it is down, then recovery resumes
    on the restored path."""
    spec = _spec(
        loss=LossRates(tor=0.02),
        faults=[FaultEvent(0.01, "link", "down", "tor0:aggr0.0"),
                FaultEvent(0.08, "link", "up", "tor0:aggr0.0")])
    sim, net, transports, records, submitted = run_battery(
        protocol, SCHEDULE, spec, seed=7)
    missing, health = assert_conserved(
        protocol, net, transports, records, submitted)
    assert health.faults_applied == 2


# ---------------------------------------------------------------------------
# hypothesis battery: schedules x loss rates x seeds, per protocol
# ---------------------------------------------------------------------------

lossy_cases = st.tuples(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),       # src
            st.integers(min_value=1, max_value=3),       # dst offset
            st.integers(min_value=1, max_value=60_000),  # size
            st.integers(min_value=0, max_value=5),       # gap in us
        ),
        min_size=1, max_size=6,
    ),
    st.sampled_from([0.01, 0.04, 0.10]),                 # loss rate
    st.integers(min_value=0, max_value=40),              # fabric seed
)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@given(lossy_cases)
@settings(max_examples=6, deadline=None)
def test_prop_conservation_under_loss(protocol, case):
    raw, rate, seed = case
    schedule = [(src, (src + off) % 4, size, gap_us * US)
                for src, off, size, gap_us in raw]
    spec = _spec(loss=LossRates(tor=rate))
    sim, net, transports, records, submitted = run_battery(
        protocol, schedule, spec, seed)
    assert_conserved(protocol, net, transports, records, submitted)


# ---------------------------------------------------------------------------
# clean fabrics: recovery must not schedule a single event
# ---------------------------------------------------------------------------

#: slowdown digests of the growth seed, byte-for-byte.  Recovery is
#: armed only when ``net.may_drop()``; any drift here means the loss
#: machinery leaked into the clean path (see docs/FABRICS.md).
CLEAN_DIGESTS = {
    "homa":      "9c91f2cf261c3606794741cb55f6ec34871ecb52a708ece13b96528c66749d7e",
    "basic":     "094997854d98af8cb044fa1edaaf64c3786e17b38872db8e4ad52fe3f589ad36",
    "pfabric":   "8e7e2d8dd9720ba2b66d39c524830d80cc9a8aa6bdd6ab46644af052c1ea8179",
    "phost":     "a7c977a12023e9f4a4397a3697b700574a8cd373878f5fa5b4e4f2b1e23dedb0",
    "pias":      "b13b6851bdcbf1c101df754ed2557208f9d11722dd046aa01d878ba5639de626",
    "ndp":       "dbeec719ce48974a4621945624c86683a5da06f4ef015c756de1e316cf534d7a",
    "stream":    "7c9a28c49d98ed3b84eb00b0a717d08dfabb99442f25f645a4269378f953d31a",
    "stream_mc": "193cd890f8092b4d7df042ceaf2c9df984355480b0c48c9a40818ff867bd8005",
}


@pytest.mark.parametrize("protocol", sorted(CLEAN_DIGESTS))
def test_clean_fabric_digest_pinned(protocol):
    kwargs = dict(protocol=protocol, workload="W2", racks=2,
                  hosts_per_rack=2, aggrs=1, duration_ms=2.0,
                  warmup_ms=0.0, drain_ms=6.0, max_messages=120,
                  load=0.4, seed=3)
    if protocol == "ndp":
        kwargs.update(workload="W5", load=0.3, duration_ms=30.0,
                      drain_ms=40.0, max_messages=6)
    result = run_experiment(ExperimentConfig(**kwargs))
    assert result.completed > 0
    assert result.control.rtx_data == 0
    assert result.control.give_ups == 0
    assert slowdown_digest({protocol: result}) == CLEAN_DIGESTS[protocol]


@pytest.mark.parametrize("protocol",
                         ["pfabric", "phost", "pias", "ndp", "stream"])
def test_clean_fabric_disarms_recovery(protocol):
    """``Transport.__init__`` builds the receiver tracker for every
    baseline: on a clean fabric it, and every other tracker, must be
    None, and nothing may enter done-memory during a run."""
    sim, net, transports, records, submitted = run_battery(
        protocol, SCHEDULE, _spec(), seed=1)
    assert records
    for t in transports:
        assert t.recovery is None
        for attr in TRACKERS:
            assert getattr(t, attr, None) is None, f"{protocol}: {attr} armed"
        assert not t._done_memory


#: ROADMAP item 1.  pFabric's RTO runs on clean fabrics too (priority
#: drops are its congestion signal), but done-memory is a no-op without
#: a RecoveryConfig: a retransmission that reaches the receiver after
#: the message completed there re-registers it and completes it again.
#: The fix (done-memory wherever a clean-fabric retransmit timer runs)
#: belongs in ``Transport._inbound_for``; it may move clean digests, so
#: it lands on its own under item 1's re-pin rules.
PFABRIC_CLEAN_DUPLICATES = {9: "8,004 of 8,003", 10: "8,144 of 8,142",
                            12: "8,314 of 8,312"}


@pytest.mark.slow
@pytest.mark.parametrize("seed", [
    pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=(
        f"ROADMAP item 1: late pFabric retransmission re-registers a "
        f"completed message ({PFABRIC_CLEAN_DUPLICATES[seed]} completed)."
        f"  Delete this mark with the fix.")))
    if seed in PFABRIC_CLEAN_DUPLICATES else seed
    for seed in range(1, 14)])
def test_pfabric_clean_fabric_delivers_at_most_once(seed):
    """``campaign_stack``'s pFabric W1 set-up cell, clean, over seeds."""
    result = run_experiment(ExperimentConfig(
        protocol="pfabric", workload="W1", load=0.8,
        racks=3, hosts_per_rack=8, aggrs=2,
        duration_ms=0.1, warmup_ms=0.02, drain_ms=5.0, seed=seed))
    assert result.duplicates == 0


# ---------------------------------------------------------------------------
# lossy fabrics: the armed recovery paths, pinned
# ---------------------------------------------------------------------------

#: protocol -> (slowdown digest, completed, retransmitted DATA packets).
LOSSY_DIGESTS = {
    "homa": (
        "e8f8fb8786b476d8ff095697397b352aca927f0e693476a0fb855da8146622ef", 2432, 134),
    "basic": (
        "3b504a8c24fcff1f1cb0a494eb4777e37abe3c06b32348dc3be4349bb60fc3ef", 2413, 131),
    "pfabric": (
        "aac1fe375f8db4398696b829e37b6852e80c424e52c9b1ba337e7abf7d86b916", 2342, 745),
    "phost": (
        "a2523b38dc83d3404a982ff102da63cc27c5438a5b20428054e0f7f8cadf911c", 2488, 467),
    "pias": (
        "407ddcbca730f4e315db53f30208c962c80b525490de297eba2ce98ec6544e6e", 2388, 932),
    "ndp": (
        "f8636f7e93717aa5184fbde6ec6026d201193db0c2c8af74ea86a0eaf0d35845", 2362, 927),
    "stream": (
        "2284129d9647d4179582f0ba34a1765858e27e9f376d907c958dd6b24845d925", 2518, 850),
    "stream_mc": (
        "db2a9dce15de9f4ce5892cdc485653a37c172f81ee4e2d3d3e539c4fb124fd63", 2529, 809),
}


def lossy_3level_spec(window_ms=0.4, hosts_per_rack=4):
    """Four racks of ``hosts_per_rack`` hosts (16 by default) behind a
    3-level fabric with 1% loss per tier and the benchmark's fault
    schedule (a ToR uplink down, a core switch down, the uplink back
    up) inside the traffic window."""
    return TopologySpec(
        levels=3, pods=2, racks=2, hosts_per_rack=hosts_per_rack, aggrs=2,
        cores=4,
        host_gbps=10, aggr_gbps=25, core_gbps=100,
        loss=LossRates(tor=0.01, aggr=0.01, core=0.01),
        faults=(FaultEvent(0.35 * window_ms, "link", "down", "tor0:aggr0.1"),
                FaultEvent(0.55 * window_ms, "switch", "down", "core0"),
                FaultEvent(0.80 * window_ms, "link", "up", "tor0:aggr0.1")))


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lossy_fabric_digest_pinned(protocol):
    """The armed recovery paths, byte for byte: every protocol on a
    lossy, faulted 3-level fabric with 16 hosts, so sender rings hold
    dozens of connections / flows and really rotate (the clean pins
    above use 4 hosts).  Recorded on the tree of PR 12 (45dbf05),
    before the sender-pull refactor of PR 15 touched any transport; a
    refactor of a recovery path or a sender scan must leave them
    unchanged."""
    digest, completed, rtx_data = LOSSY_DIGESTS[protocol]
    result = run_experiment(ExperimentConfig(
        protocol=protocol, workload="W3", load=0.5, duration_ms=0.3,
        warmup_ms=0.1, drain_ms=20.0, seed=300 + PROTOCOLS.index(protocol),
        fabric=lossy_3level_spec()))
    assert result.control.rtx_data == rtx_data
    assert result.completed == completed
    assert slowdown_digest({protocol: result}) == digest


# ---------------------------------------------------------------------------
# edge cases
# ---------------------------------------------------------------------------

#: negligible but nonzero loss: arms the recovery machinery through the
#: registry exactly like a real lossy fabric, while (at these seeds) no
#: packet of the tiny driving schedules is actually dropped.
ARMED = _spec(loss=LossRates(tor=1e-9))


def _one_delivery(protocol, size=900):
    sim, net, transports = protocol_cluster(protocol, ARMED, seed=1)
    records = collect_completions(transports)
    msg = transports[0].send_message(2, size)
    # A short horizon: the duplicate below must land inside the
    # receiver's done-memory, as a real bounded-budget retrier would.
    sim.run(until_ps=200 * US)
    assert len(records) == 1
    return sim, transports, records, msg


#: every path into the shared receiver: a late DATA copy for each
#: baseline, pHost's re-announcing RTS and NDP's trimmed header.
LATE_COPIES = [pytest.param(protocol, "data", id=protocol)
               for protocol in ("pfabric", "phost", "pias", "ndp", "stream")]
LATE_COPIES += [pytest.param("phost", "rts", id="phost-rts"),
                pytest.param("ndp", "trimmed", id="ndp-trimmed")]


@pytest.mark.parametrize("protocol,via", LATE_COPIES)
def test_duplicate_data_after_completion_is_idempotent(protocol, via):
    """An rtx raced by the original (or a lost final ACK) re-delivers
    DATA for a completed message; pHost's sender re-announces it with an
    RTS instead, and an NDP switch may trim the late copy to a header.
    The receiver must re-acknowledge at once, never re-register — a
    fresh partial inbound is a duplicate delivery waiting to
    complete."""
    sim, transports, records, msg = _one_delivery(protocol)
    receiver = transports[2]
    late = Packet(0, 2, PacketType.RTS if via == "rts" else PacketType.DATA,
                  payload=0 if via == "rts" else msg.length,
                  rpc_id=msg.rpc_id, is_request=True, offset=0,
                  total_length=msg.length, retx=True,
                  created_ps=msg.created_ps)
    if via == "trimmed":
        late.trim()
    sent = []
    send = receiver.send_ctrl
    receiver.send_ctrl = lambda pkt: (sent.append(pkt), send(pkt))
    receiver.on_packet(late)
    del receiver.send_ctrl
    assert [(p.kind, p.dst, p.rpc_id) for p in sent] == [
        (PacketType.ACK, 0, msg.rpc_id)], f"{protocol}: no re-ACK"
    sim.run(until_ps=sim.now + 1 * MS)
    assert len(records) == 1, f"{protocol}: duplicate delivery"
    assert not receiver.inbound, f"{protocol}: re-registered a done message"


#: per-protocol sender slots besides ``outbound`` that must hold nothing
#: once the one message is retired: pFabric's retransmission queue,
#: pHost's token buckets, PIAS's NIC ring, NDP's ready heap, stream's
#: connection queues and window.
SENDER_SLOTS = {
    "pfabric": lambda t: list(t._rtx_queue),
    "phost": lambda t: list(t.tokens),
    "pias": lambda t: list(t._rr._members),
    "ndp": lambda t: list(t._ready),
    "stream": lambda t: [(c.queue, c.in_flight)
                         for conns in t.connections.values()
                         for c in conns if c.queue or c.in_flight],
}


@pytest.mark.parametrize("protocol", sorted(SENDER_SLOTS))
def test_late_ack_after_give_up_is_a_noop(protocol):
    """A deaf receiver makes the sender spend its whole retry budget —
    through the tracker (pHost, NDP, stream) or ``_recovery_round``
    (pFabric, PIAS) — and retire the message through the one
    ``_retire``: exactly one give-up, no record, watch, ring or queue
    slot left.  A late ACK racing that give-up must then not crash,
    resurrect sender state, or double-count."""
    sim, net, transports = protocol_cluster(protocol, ARMED, seed=1)
    sender = transports[0]
    transports[2].on_packet = lambda pkt: None
    transports[2].host.attach(transports[2])  # deliver to the deaf stub
    msg = sender.send_message(2, 4_000)
    assert msg.key in sender.outbound
    sim.run(until_ps=sim.now + 500 * MS)
    assert sim.run(until_ps=sim.now + 50 * MS) == 0, "retries never ended"
    assert sender.outbound_gaveups == 1
    assert not sender.outbound and not sender._out_watch._watch
    assert not SENDER_SLOTS[protocol](sender)
    ack = Packet(2, 0, PacketType.ACK, rpc_id=msg.rpc_id, is_request=True,
                 offset=0, range_end=msg.length)
    sender.on_packet(ack)
    sim.run(until_ps=sim.now + 50 * MS)
    assert msg.key not in sender.outbound, (
        f"{protocol}: late ACK resurrected sender state")
    assert sender.outbound_gaveups == 1
    assert not SENDER_SLOTS[protocol](sender)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_restore_mid_backoff_delivers_everything(protocol):
    """An outage shorter than every retry budget: the only rack-0
    uplink dies at 50 us with three large messages mid-flight and comes
    back at 150 us.  Backed-off retries must span the outage and finish
    the job — no give-ups, no losses."""
    spec = _spec(faults=[FaultEvent(0.05, "link", "down", "tor0:aggr0.0"),
                         FaultEvent(0.15, "link", "up", "tor0:aggr0.0")])
    schedule = [(0, 2, 150_000, 0), (3, 1, 90_000, 0), (1, 3, 30_000, 0)]
    sim, net, transports, records, submitted = run_battery(
        protocol, schedule, spec, seed=2)
    missing, health = assert_conserved(
        protocol, net, transports, records, submitted)
    assert missing == 0, f"{protocol}: outage inside budget still lost data"
    assert sum(t.outbound_gaveups + t.inbound_gaveups
               for t in transports) == 0
    assert health.faults_applied == 2
    assert health.total_drops > 0  # the outage really destroyed packets


def test_homa_peer_gc_retires_wedged_outbound():
    """A permanent outage strands rack-0 senders mid-message with
    granted-but-unsendable outbound state.  Without the peer-liveness
    GC that state (and its timer) leaks forever; with it, every side
    retires within the resend budget and the event queue drains."""
    spec = _spec(faults=[FaultEvent(0.05, "link", "down", "tor0:aggr0.0")])
    schedule = [(0, 2, 150_000, 0), (2, 0, 150_000, 0), (0, 1, 12_000, 0)]
    sim, net, transports, records, submitted = run_battery(
        "homa", schedule, spec, seed=2)
    # The intra-rack message never crossed the dead link.
    assert (0, 1, 12_000) in [(m.src, h, m.length) for h, m, _ in records]
    assert_no_leaks(transports)
    assert sum(t.outbound_gaveups for t in transports) >= 1, \
        "peer GC never fired"


def test_pias_late_gobackn_never_redelivers():
    """Regression pin: PIAS's sender retries on its RTO scale (>=200 us
    floor), far past the generic recovery horizon — the receiver's
    done-memory expired mid-backoff and a late go-back-N re-registered
    a completed message as a fresh inbound, which then *completed
    again* (observed: 81 completions of 80 submissions, W2/seed 5).
    Done-memory now refreshes on every re-ACK and PIAS raises its
    horizon to the RTO scale."""
    spec = _spec(loss=LossRates(tor=0.02, aggr=0.01))
    result = run_experiment(ExperimentConfig(
        protocol="pias", workload="W2", load=0.4, duration_ms=2.0,
        warmup_ms=0.0, drain_ms=30.0, max_messages=80, seed=5,
        fabric=spec, racks=2, hosts_per_rack=2, aggrs=1))
    assert result.submitted == 80
    assert result.completed <= result.submitted, "duplicate delivery"
    assert result.completed + result.pending == result.submitted


def test_pias_lost_retries_never_outlive_done_memory():
    """Regression pin (found by the hypothesis battery): lost go-back-N
    retries can leave the receiver silent for several retry spacings,
    so done-memory kept for one spacing (8*rto) expired and the next
    retry that got through re-registered message 3 — completed at
    2.6 us and again at 2.4 ms.  Done-memory now lasts the RTO policy's
    whole retry span (``horizon_ps``, 32*rto)."""
    schedule = [(0, 1, 1, 0), (0, 1, 1, 0), (0, 2, 1, 0), (0, 1, 1, 0),
                (1, 2, 1, 0), (1, 2, 7_301, 0)]
    sim, net, transports, records, submitted = run_battery(
        "pias", schedule, _spec(loss=LossRates(tor=0.1)), seed=21)
    assert_conserved("pias", net, transports, records, submitted)
