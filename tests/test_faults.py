"""Recovery-path battery for declarative fabrics (docs/FABRICS.md).

Covers the fault-injection PR's contracts end to end:

* **Golden clean spec** — a clean ``TopologySpec`` produces slowdown
  digests byte-identical to the equivalent ``NetworkConfig`` run, so
  every published figure is untouched by the fabric layer.
* **Deterministic replay** — same lossy + faulty spec, same seed, same
  digests, drop counts, and reroutes, twice.
* **Conservation under loss** — injected drops flow through the real
  section 3.7 recovery machinery; at event exhaustion every echo RPC
  has either completed or aborted and no transport state leaks.
* **Fault mechanics** — kill/restore flushes buffers into
  ``fault_drops``, reroutes the spray sets, black-holes routeless
  packets, and messages in flight across a transient outage still
  complete via RESENDs.
* **Guard rails** — unknown fault targets and malformed events/rates
  fail loudly, naming the offending field.
"""

import json
from dataclasses import replace

import pytest

from repro.core.engine import Simulator
from repro.core.faults import FaultEvent, FaultInjector, LossRates
from repro.core.packet import PacketType
from repro.core.topology import Network, TopologySpec
from repro.core.units import MS, US
from repro.experiments.campaign import slowdown_digest
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.control import FabricHealth

from tests.helpers import collect_completions, fabric_cluster, small_net


# A small, fast 3-level fabric with loss on every layer and a
# down/up/down schedule — the stress shape used across this battery.
LOSSY3 = TopologySpec(
    levels=3, pods=2, racks=1, hosts_per_rack=4, aggrs=2, cores=4,
    host_gbps=10, aggr_gbps=25, core_gbps=100,
    loss=LossRates(tor=0.02, aggr=0.02, core=0.02),
    faults=(
        FaultEvent(0.4, "link", "down", "tor0:aggr0.1"),
        FaultEvent(0.6, "switch", "down", "core3"),
        FaultEvent(0.9, "link", "up", "tor0:aggr0.1"),
    ),
)


# ---------------------------------------------------------------------------
# golden clean spec: clean specs change nothing
# ---------------------------------------------------------------------------


GOLDEN = dict(workload="W2", load=0.6, duration_ms=1.0,
              warmup_ms=0.2, drain_ms=1.0, seed=3)


def test_clean_spec_digests_byte_identical_to_plain_config():
    """The golden pin: a loss-free, fault-free TopologySpec must
    reproduce the plain NetworkConfig run's digests byte for byte."""
    plain = run_experiment(ExperimentConfig(
        racks=3, hosts_per_rack=8, aggrs=2, **GOLDEN))
    spec = TopologySpec(levels=2, racks=3, hosts_per_rack=8, aggrs=2)
    assert spec.is_clean()
    fabric = run_experiment(ExperimentConfig(fabric=spec, **GOLDEN))
    assert plain.tracker.slowdowns, "vacuous golden run"
    assert plain.tracker.slowdowns == fabric.tracker.slowdowns
    assert (slowdown_digest({"cell": plain})
            == slowdown_digest({"cell": fabric}))
    assert not fabric.fabric.any()


@pytest.mark.parametrize("racks,hosts_per_rack,aggrs", [
    (2, 2, 2),
    (1, 4, 2),     # one rack: build_network drops the aggrs
    (9, 16, 4),    # Figure 11
])
def test_clean_two_level_spec_and_config_build_the_same_network(
        racks, hosts_per_rack, aggrs):
    """One builder: a clean 2-level spec and the equivalent plain
    ``NetworkConfig`` build the same ``Network`` — same switches, same
    ports, same rates (the golden test above pins the digests)."""
    spec = TopologySpec(levels=2, racks=racks,
                        hosts_per_rack=hosts_per_rack, aggrs=aggrs)
    sim, net, _ = fabric_cluster(spec)
    _, plain = small_net(racks=racks, hosts_per_rack=hosts_per_rack,
                         aggrs=aggrs)
    assert type(net) is type(plain) is Network
    assert net.fault_injector is None and not net.may_drop()
    # build_network's spec is the one it built: one rack has no aggrs.
    assert plain.spec == replace(spec, aggrs=aggrs if racks > 1 else 0)

    def shape(network):
        return ([(sw.name, sw.level, [p.name for p in sw.ports])
                 for sw in network.all_switches()],
                [(p.name, p.level, p.ppb) for p in
                 (*network.host_up_ports, *network.all_switch_ports())])

    assert shape(net) == shape(plain)
    assert [sw.name for sw in net.aggrs] == (
        [f"aggr0.{a}" for a in range(aggrs)] if racks > 1 else [])
    assert net.rtt_ps() == plain.rtt_ps()


def test_faulty_spec_builds_liveness_aware_fabric():
    sim, net, _ = fabric_cluster(LOSSY3, seed=5)
    assert type(net) is Network
    assert net.fault_injector is not None and net.may_drop()
    assert net.fault_injector.applied == 0  # armed, not yet fired
    assert net.next_fault_ps == int(0.4 * MS)


# ---------------------------------------------------------------------------
# deterministic replay
# ---------------------------------------------------------------------------


def _lossy_run(seed=11):
    # drain >> resend_interval (2 ms): the section 3.7 timeouts must
    # get to fire, or no recovery happens inside the bounded run.
    return run_experiment(ExperimentConfig(
        fabric=LOSSY3, workload="W2", load=0.5, duration_ms=0.8,
        warmup_ms=0.1, drain_ms=8.0, seed=seed))


def test_lossy_faulty_replay_is_byte_exact():
    """Same spec + same seed ⇒ same drops, same reroutes, same digests
    (the determinism contract in docs/FABRICS.md)."""
    a = _lossy_run()
    b = _lossy_run()
    assert a.tracker.slowdowns, "vacuous replay run"
    assert a.tracker.slowdowns == b.tracker.slowdowns
    assert a.fabric == b.fabric
    assert a.control == b.control
    assert (a.submitted, a.completed, a.aborted) == \
           (b.submitted, b.completed, b.aborted)


def test_lossy_run_exercises_drops_faults_and_recovery():
    result = _lossy_run()
    health = result.fabric
    assert health.total_drops > 0
    assert health.drops_tor > 0
    assert health.faults_applied == 3
    assert health.reroutes > 0
    # Loss flows through the real recovery path: retransmitted DATA
    # was sent, and some of it completed messages.
    assert result.control.rtx_data > 0
    assert result.control.rtx_recovered > 0


def test_seed_changes_the_drop_pattern():
    base = _lossy_run()
    other = _lossy_run(seed=12)
    assert base.fabric != other.fabric


# ---------------------------------------------------------------------------
# conservation under loss (workload x seed x loss-rate)
# ---------------------------------------------------------------------------


def _echo_spec(rate):
    return TopologySpec(levels=2, racks=2, hosts_per_rack=2, aggrs=1,
                        loss=LossRates(tor=rate))


@pytest.mark.parametrize("workload,seed,rate", [
    ("W1", 1, 0.01),
    ("W1", 9, 0.08),
    ("W2", 5, 0.03),
])
def test_echo_conservation_at_exhaustion(workload, seed, rate):
    """Every echo RPC resolves: ``submitted == completed + errors`` once
    the event queue drains, and no transport state survives.  The retry
    budgets (section 3.7) bound every recovery path, so exhaustion is
    guaranteed even under loss."""
    from repro.apps.echo import attach_echo_workload
    from repro.transport.registry import (
        OVERHEAD_MODEL,
        transport_factory,
    )
    from repro.workloads.catalog import get_workload
    from repro.workloads.loadcalc import arrival_rate_per_host
    from repro.core.topology import build_fabric

    sim = Simulator()
    net = build_fabric(sim, _echo_spec(rate), seed=seed)
    workload_obj = get_workload(workload)
    factory = transport_factory("homa", sim, net, workload_obj.cdf, None)
    transports = net.attach_transports(lambda host: factory(host))
    per_host = arrival_rate_per_host(
        OVERHEAD_MODEL["homa"], workload_obj.cdf, 0.5,
        link_gbps=net.spec.host_gbps, unsched_limit=net.rtt_bytes())
    apps = attach_echo_workload(
        net, transports, workload_obj.cdf, per_host,
        stop_ps=300 * US, seed=seed)
    sim.run()  # to event exhaustion

    submitted = sum(app.submitted for app in apps)
    completed = sum(app.completed for app in apps)
    errors = sum(app.errors for app in apps)
    assert submitted > 0
    assert submitted == completed + errors
    for t in transports:
        assert not t.client_rpcs
        assert not t.inbound
        # A client that is done with an RPC — aborted (3.7), or
        # completed off an overlapping re-executed response (3.8) —
        # goes silent, so the server's partially-sent response would
        # stay behind, stalled on grants that will never come.  The
        # peer-liveness GC (armed on any may-drop fabric) retires that
        # state within the resend budget, so conservation closes
        # *exactly*: no outbound, no server RPC, and no GC bookkeeping
        # survives exhaustion (docs/FABRICS.md).
        assert not t.outbound, "leaked outbound despite peer GC"
        assert not t.server_rpcs
        assert not t._orphan_rounds
    drops = sum(sw.injected_drops for sw in net.all_switches())
    assert drops > 0, "loss rate produced no drops; vacuous test"
    if (workload, seed) == ("W1", 9):
        # The heavy-loss case must actually exercise the GC: dead-peer
        # responses were retired, not merely never created.
        assert sum(t.outbound_gaveups for t in transports) > 0


def test_oneway_single_packet_loss_accounting():
    """One-way single-packet messages partition exactly: a message is
    delivered iff its only DATA packet survived every filter.  (A fully
    dropped one-way message is unrecoverable by design — the receiver
    never learns it existed; docs/FABRICS.md.)"""
    spec = TopologySpec(levels=2, racks=2, hosts_per_rack=2, aggrs=1,
                        loss=LossRates(tor=0.08))
    sim, net, transports = fabric_cluster(spec, seed=7, workload="W1")
    records = collect_completions(transports)

    dropped = set()
    for sw in net.all_switches():
        inner = sw.drop_filter
        if inner is None:
            continue

        def wrap(pkt, inner=inner):
            hit = inner(pkt)
            if hit and pkt.kind == PacketType.DATA:
                dropped.add(pkt.rpc_id)
            return hit

        sw.drop_filter = wrap

    sent = []
    for i in range(60):
        msg = transports[0].send_message(2, 800)  # cross-rack, 1 packet
        sent.append(msg.rpc_id)
        sim.run(until_ps=sim.now + 10 * US)
    sim.run()

    delivered = {msg.rpc_id for _, msg, _ in records}
    assert dropped, "no drops at 8%; vacuous test"
    assert delivered | dropped == set(sent)
    assert not (delivered & dropped)


# ---------------------------------------------------------------------------
# fault mechanics
# ---------------------------------------------------------------------------


# One pod-to-pod path only (A=1, K=1): faults on it are deterministic.
NARROW3 = TopologySpec(levels=3, pods=2, racks=1, hosts_per_rack=2,
                       aggrs=1, cores=1, host_gbps=10, aggr_gbps=10,
                       core_gbps=10)


def test_link_down_flushes_queue_into_fault_drops():
    sim, net, transports = fabric_cluster(NARROW3)
    # Two senders saturate tor0's single uplink: a queue builds there.
    transports[0].send_message(2, 50_000)
    transports[1].send_message(3, 50_000)
    sim.run(until_ps=30 * US)
    tor0 = net.tors[0]
    before = net.reroutes
    net.apply_fault(FaultEvent(0.03, "link", "down", "tor0:aggr0.0"))
    assert tor0.fault_drops > 0        # queued packets destroyed
    assert net.reroutes > before       # spray set shrank


def test_link_down_flushes_pfabric_queue_into_fault_drops():
    """A dead link destroys a pFabric port's queue too: nothing drains
    across it after the fault."""
    sim, net, transports = fabric_cluster(NARROW3, queue_mode="pfabric")
    transports[0].send_message(2, 50_000)
    transports[1].send_message(3, 50_000)
    sim.run(until_ps=30 * US)
    uplink = net.tor_up_ports[0]       # tor0's only uplink
    assert uplink.qbytes > 0, "no queue built; vacuous test"
    net.apply_fault(FaultEvent(0.03, "link", "down", "tor0:aggr0.0"))
    assert net.tors[0].fault_drops > 0
    assert uplink.qbytes == 0


def test_dead_path_black_holes_then_recovers_after_restore():
    """Messages in flight across a transient outage still complete:
    packets die at the dead link (black-holed), the receiver times out,
    RESENDs after the restore refill the gaps."""
    sim, net, transports = fabric_cluster(NARROW3)
    records = collect_completions(transports)
    transports[0].send_message(2, 50_000)
    transports[1].send_message(3, 50_000)
    sim.run(until_ps=30 * US)
    net.apply_fault(FaultEvent(0.03, "link", "down", "tor0:aggr0.0"))
    sim.run(until_ps=50 * US)
    assert net.tors[0].routed_drops > 0  # no live uplink: black-holed
    net.apply_fault(FaultEvent(0.05, "link", "up", "tor0:aggr0.0"))
    sim.run()
    delivered = {msg.rpc_id for _, msg, _ in records}
    assert len(delivered) == 2
    rtx = sum(t.rtx_data_sent for t in transports)
    assert rtx > 0, "recovery must have used RESENDs"


def test_switch_down_kills_every_packet_that_reaches_it():
    sim, net, transports = fabric_cluster(NARROW3)
    net.apply_fault(FaultEvent(0.0, "switch", "down", "core0"))
    transports[0].send_message(2, 1000)
    sim.run(until_ps=100 * US)
    # With the only core dead, the aggr spray set is empty: the packet
    # black-holes at aggr0.0 before ever reaching core0.
    assert net.aggrs[0].routed_drops > 0


def test_fault_schedule_fires_in_order_with_observer():
    sim, net, _ = fabric_cluster(LOSSY3, seed=3)
    injector = net.fault_injector
    seen = []
    injector.subscribe(lambda ev, now_ps: seen.append((ev.target, now_ps)))
    sim.run(until_ps=1 * MS)
    assert injector.applied == 3
    assert seen == [("tor0:aggr0.1", int(0.4 * MS)),
                    ("core3", int(0.6 * MS)),
                    ("tor0:aggr0.1", int(0.9 * MS))]


def test_next_fault_time_tracks_the_schedule():
    """``Network.next_fault_ps`` is the time of the next unapplied fault
    — whatever order the schedule was declared in, ties included — and
    the no-fault constant once the schedule is spent or absent.  The
    fused ingress reads it to keep early appends clear of flushes."""
    from dataclasses import replace

    from repro.core.faults import NO_FAULT_PS

    spec = replace(NARROW3, faults=(
        FaultEvent(0.03, "link", "up", "tor0:aggr0.0"),
        FaultEvent(0.01, "link", "down", "tor0:aggr0.0"),
        FaultEvent(0.02, "switch", "down", "core0"),
        FaultEvent(0.02, "link", "down", "tor1:aggr1.0"),
    ))
    sim, net, _ = fabric_cluster(spec)
    seen = []
    net.fault_injector.subscribe(
        lambda ev, now_ps: seen.append((now_ps, net.next_fault_ps)))
    assert net.next_fault_ps == 10 * US
    sim.run(until_ps=15 * US)
    assert net.next_fault_ps == 20 * US
    sim.run()
    assert seen == [(10 * US, 20 * US), (20 * US, 20 * US),
                    (20 * US, 30 * US), (30 * US, NO_FAULT_PS)]
    assert net.next_fault_ps == NO_FAULT_PS
    for clean in (fabric_cluster(NARROW3)[1], small_net(racks=2, aggrs=1)[1]):
        assert clean.next_fault_ps == NO_FAULT_PS


# ---------------------------------------------------------------------------
# guard rails
# ---------------------------------------------------------------------------


def test_unknown_switch_target_names_the_event_index():
    sim, net, _ = fabric_cluster(NARROW3)
    with pytest.raises(ValueError, match=r"faults\[0\]\.target 'nope'"):
        FaultInjector(sim, net, [FaultEvent(1.0, "switch", "down", "nope")])


def test_unknown_link_target_names_the_event_index():
    sim, net, _ = fabric_cluster(NARROW3)
    with pytest.raises(ValueError,
                       match=r"faults\[1\]\.target 'tor0:core0'"):
        FaultInjector(sim, net, [
            FaultEvent(1.0, "link", "down", "tor0:aggr0.0"),
            FaultEvent(2.0, "link", "down", "tor0:core0"),
        ])


@pytest.mark.parametrize("kwargs,field", [
    (dict(at_ms=1.0, kind="cable", action="down", target="tor0"),
     "FaultEvent.kind"),
    (dict(at_ms=1.0, kind="link", action="sideways", target="tor0"),
     "FaultEvent.action"),
    (dict(at_ms=-1.0, kind="link", action="down", target="tor0"),
     "FaultEvent.at_ms"),
    (dict(at_ms=1.0, kind="link", action="down", target=""),
     "FaultEvent.target"),
])
def test_malformed_fault_event_names_the_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        FaultEvent(**kwargs)


@pytest.mark.parametrize("kwargs,field", [
    (dict(tor=1.0), "LossRates.tor"),
    (dict(aggr=-0.1), "LossRates.aggr"),
    (dict(core=True), "LossRates.core"),
])
def test_malformed_loss_rates_name_the_field(kwargs, field):
    with pytest.raises(ValueError, match=field):
        LossRates(**kwargs)


def test_validated_protocols_accept_clean_specs():
    spec = TopologySpec(levels=2, racks=1, hosts_per_rack=2, aggrs=1)
    result = run_experiment(ExperimentConfig(
        protocol="pfabric", fabric=spec, workload="W1", load=0.3,
        duration_ms=0.2, warmup_ms=0.0, drain_ms=0.3, seed=2))
    assert result.submitted > 0


# ---------------------------------------------------------------------------
# section 3.7 bug pins: each test fails on the pre-fix transport
# ---------------------------------------------------------------------------


def _lone_receiver(homa_cfg):
    """A receiver driven by hand-built packets; ctrl goes to its queue."""
    from dataclasses import replace

    from repro.homa.priorities import allocate_priorities
    from repro.homa.transport import HomaTransport
    from repro.workloads.catalog import WORKLOADS

    from tests.helpers import FakeHost

    rtt = 9680
    sim = Simulator()
    cfg = replace(homa_cfg, grant_batch_ns=0)
    alloc = allocate_priorities(
        WORKLOADS["W4"].cdf, cfg.resolved_unsched_limit(rtt),
        n_prios=cfg.n_prios,
        n_unsched_override=cfg.n_unsched_override,
        n_sched_override=cfg.n_sched_override)
    transport = HomaTransport(sim, cfg, alloc, rtt)
    transport.bind(FakeHost(sim, 0))
    return sim, transport


def _data(src, rpc_id, offset, total):
    from repro.core.packet import MAX_PAYLOAD, Packet

    return Packet(src, 0, PacketType.DATA, prio=5,
                  payload=min(MAX_PAYLOAD, total - offset),
                  rpc_id=rpc_id, is_request=True, offset=offset,
                  total_length=total, grant_offset=min(total, 10220))


def test_giveup_frees_the_overcommit_slot():
    """Bug pin: a receiver give-up must run a ranking pass, or the
    freed overcommitment slot leaks and the withheld message is never
    granted (no data arrival can trigger the pass — the withheld
    sender is itself stalled waiting for grants)."""
    from repro.homa.config import HomaConfig

    cfg = HomaConfig(overcommit_override=1, max_resends=1)
    sim, receiver = _lone_receiver(cfg)
    interval = cfg.resend_interval_ps
    receiver.on_packet(_data(1, 100, 0, 40_000))   # M1: shorter, active
    receiver.on_packet(_data(2, 200, 0, 60_000))   # M2: longer, withheld
    m2 = receiver.inbound[(200 << 1) | 1]
    withheld_at = m2.granted
    # Keep M2's retry budget alive while M1's sender stays silent: a
    # fresh in-order packet just before each timer round.
    sim.run(until_ps=int(0.9 * interval))
    receiver.on_packet(_data(2, 200, 1460, 60_000))
    sim.run(until_ps=int(1.9 * interval))
    receiver.on_packet(_data(2, 200, 2920, 60_000))
    sim.run(until_ps=int(2.2 * interval))
    assert (100 << 1) | 1 not in receiver.inbound  # M1 given up on
    assert receiver.inbound_gaveups == 1
    assert (200 << 1) | 1 in receiver.inbound      # M2 survived
    assert m2.granted > withheld_at, "freed slot never reached M2"


def test_ghost_resend_recovers_forgotten_oneway_tail():
    """Bug pin: the sender drops outbound state the moment a one-way
    message is fully sent; a lost tail packet then hits a sender with
    no record of the bytes.  The receiver's timeout RESEND carries the
    message length, so the sender rebuilds a ghost covering exactly
    the missing range instead of ignoring the RESEND until the
    receiver burns its whole retry budget."""
    from tests.helpers import homa_cluster

    sim, net, transports = fabric_cluster(
        TopologySpec(levels=2, racks=1, hosts_per_rack=2, aggrs=1))
    records = collect_completions(transports)
    dropped = []

    def drop_tail_once(pkt):
        if (pkt.kind == PacketType.DATA and not pkt.retx
                and pkt.offset == 2920 and not dropped):
            dropped.append(pkt.offset)
            return True
        return False

    net.set_drop_filter(drop_tail_once)
    msg = transports[0].send_message(1, 4000)  # 3 packets, all unsched
    sim.run()
    assert dropped, "tail packet was never dropped; vacuous test"
    assert [m.rpc_id for _, m, _ in records] == [msg.rpc_id]
    assert transports[0].rtx_data_sent >= 1
    assert transports[1].inbound_gaveups == 0


def test_late_copy_after_resend_is_not_delivered_twice():
    """Bug pin: a one-way message completes off the copy of its tail
    that the receiver's RESEND asked for, and the original tail packet
    arrives after that.  Without the receiver's done-memory the late
    copy registers the message again; its RESEND for the "missing"
    head then makes the sender rebuild a ghost, and the message is
    delivered twice."""
    from tests.helpers import homa_cluster

    sim, net, transports = homa_cluster(hosts_per_rack=2)
    sender, receiver = transports
    held = []

    def hold_tail_once(pkt):
        if (pkt.kind == PacketType.DATA and not pkt.retx
                and pkt.offset == 2920 and not held):
            held.append(pkt)
            return True
        return False

    net.set_drop_filter(hold_tail_once)
    sender.send_message(1, 4000)  # 3 packets, all unsched
    sim.run()
    assert held, "tail packet was never held; vacuous test"
    assert receiver.resends_sent >= 1
    assert receiver.messages_received == 1
    receiver.on_packet(held[0])  # the original tail, arriving late
    sim.run()
    assert receiver.messages_received == 1
    assert not receiver.inbound and not sender.outbound


def test_stalled_request_probe_breaks_grant_deadlock():
    """Bug pin: when the receiver gives up on a partially-received
    request, its give-up is silent — the client, stalled mid-request
    waiting for grants, must probe on its own timer or the RPC hangs
    forever.  The probe reaches a server with no trace of the RPC,
    which answers RESEND-for-request: at-least-once re-execution."""
    from repro.apps.echo import echo_handler

    from tests.helpers import homa_cluster

    sim, net, transports = homa_cluster(hosts_per_rack=2)
    client, server = transports[0], transports[1]
    server.rpc_handler = echo_handler
    done = []
    rpc_id = client.send_rpc(
        1, 120_000,
        on_response=lambda rid, msg: done.append(rid),
        on_error=lambda rid: done.append(-rid))
    sim.run(until_ps=50 * US)  # mid-transfer, into the scheduled phase
    key = (rpc_id << 1) | 1
    assert key in server.inbound, "request not yet in flight; bad setup"
    # Emulate the server's receiver give-up (3.7): state dropped, and
    # no notification of any kind goes back to the client.  A given-up
    # receiver stays deaf, so bytes already granted (or in flight) must
    # not resurrect the inbound — keep discarding until the client has
    # drained its grant window and fully stalled.
    msg = client.outbound[key]
    deadline = sim.now + 200 * US
    while sim.now < deadline:
        server.inbound.pop(key, None)
        server._grantable.pop(key, None)
        sim.run(until_ps=sim.now + 2 * US)
    assert msg.sent == msg.granted < msg.length, "client not stalled"
    assert key not in server.inbound
    sim.run(until_ps=sim.now + 60 * MS)
    assert done == [rpc_id], "client hung after silent server give-up"
    assert server.reexecutions >= 1


def test_resend_range_is_an_implicit_grant_not_blind_rtx():
    """Bug pin: a RESEND range beyond ``granted`` means the receiver
    wants those bytes even though its GRANTs were lost — raise the
    grant limit and send them through the normal path.  Blindly
    queueing the whole range as rtx let the receiver complete off
    bytes the sender never counted as sent; the sender then waited
    forever for grants that could no longer come, leaking the
    message (and, for responses, its server RPC)."""
    from repro.core.packet import Packet

    from tests.helpers import homa_cluster

    sim, net, transports = homa_cluster(hosts_per_rack=2)
    sender = transports[0]
    msg = sender.send_message(1, 50_000)
    sent_before = msg.sent
    assert msg.granted < 30_000  # only the unsched prefix so far
    # total_length=length is the receiver-timeout RESEND signature
    # (total_length=0 with offset=0 means "peer has nothing" and asks
    # for a restart instead).
    sender.on_packet(Packet(1, 0, PacketType.RESEND, rpc_id=msg.rpc_id,
                            is_request=True, offset=0, range_end=30_000,
                            total_length=50_000))
    assert msg.granted == 30_000, "RESEND range must act as a grant"
    for start, end in msg.rtx:
        assert end <= sent_before, "queued rtx for bytes never sent"


# ---------------------------------------------------------------------------
# payload round-trips
# ---------------------------------------------------------------------------


def test_fabric_health_payload_round_trip():
    health = FabricHealth(drops_tor=1, drops_aggr=2, drops_core=3,
                          fault_drops=4, black_holes=5, reroutes=6,
                          faults_applied=7)
    assert FabricHealth.from_payload(health.to_payload()) == health
    assert health.total_drops == 1 + 2 + 3 + 4 + 5
    assert health.any()
    assert FabricHealth.from_payload(None) == FabricHealth()
    assert not FabricHealth().any()


def test_fabric_health_collect_on_plain_network_is_zero():
    sim, net = small_net(racks=2, hosts_per_rack=2, aggrs=1)
    assert FabricHealth.collect(net) == FabricHealth()


def test_topology_spec_payload_round_trip():
    """The cache and the wire carry a spec inside its ExperimentConfig."""
    for spec in (LOSSY3, TopologySpec()):
        cfg = ExperimentConfig(fabric=spec)
        assert ExperimentConfig.from_payload(
            json.loads(json.dumps(cfg.to_payload()))) == cfg
