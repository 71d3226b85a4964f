"""Focused unit tests for the Homa receiver's grant scheduler and the
sender's packet selection, exercised directly (no full network).

Everything here pins ``grant_batch_ns=0`` (``make_transport`` forces
it): these tests assert the *synchronous* per-packet grant semantics
the paper's simulator defines.  The batched grant pacer has its own
direct-transport coverage in tests/test_grant_batching.py."""

from dataclasses import replace

from repro.core.engine import Simulator
from repro.core.packet import CTRL_PRIO, MAX_PAYLOAD, Packet, PacketType
from repro.core.units import US
from repro.homa.config import HomaConfig
from repro.homa.priorities import allocate_priorities
from repro.homa.transport import HomaTransport
from repro.workloads.catalog import WORKLOADS

from tests.helpers import FakeHost, drain_ctrl

RTT = 9680


def make_transport(homa_cfg=None, workload="W4"):
    sim = Simulator()
    cfg = replace(homa_cfg or HomaConfig(), grant_batch_ns=0)
    alloc = allocate_priorities(
        WORKLOADS[workload].cdf, cfg.resolved_unsched_limit(RTT),
        n_prios=cfg.n_prios,
        n_unsched_override=cfg.n_unsched_override,
        n_sched_override=cfg.n_sched_override)
    transport = HomaTransport(sim, cfg, alloc, RTT)
    transport.bind(FakeHost(sim, 0))
    return sim, transport


def data_packet(src, rpc_id, offset, payload, total, created=0):
    return Packet(src, 0, PacketType.DATA, prio=5, payload=payload,
                  rpc_id=rpc_id, is_request=True, offset=offset,
                  total_length=total, grant_offset=min(total, 10220),
                  created_ps=created)


def test_grant_emitted_per_data_packet():
    sim, transport = make_transport()
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 100_000))
    grants = [p for p in drain_ctrl(transport) if p.kind == PacketType.GRANT]
    assert len(grants) == 1
    grant = grants[0]
    assert grant.dst == 1
    assert grant.prio == CTRL_PRIO
    # Grant extends to received + RTTbytes, packet-aligned.
    assert grant.grant_offset % MAX_PAYLOAD == 0
    assert grant.grant_offset >= MAX_PAYLOAD + RTT


def test_no_grant_for_fully_unscheduled_message():
    sim, transport = make_transport()
    transport.on_packet(data_packet(1, 100, 0, 1000, 1000))
    assert not [p for p in drain_ctrl(transport)
                if p.kind == PacketType.GRANT]


def test_grants_limited_to_overcommit_degree():
    cfg = HomaConfig(n_sched_override=2)
    sim, transport = make_transport(cfg)
    for index in range(5):
        transport.on_packet(data_packet(index + 1, 100 + index, 0,
                                        MAX_PAYLOAD, 500_000 + index))
    granted_beyond_unsched = [
        m for m in transport.inbound.values() if m.granted > 10220]
    assert len(granted_beyond_unsched) == 2


def test_shortest_messages_granted_first():
    cfg = HomaConfig(n_sched_override=1)
    sim, transport = make_transport(cfg)
    # The short message is known first; once both are known, only the
    # shortest keeps receiving grants (degree 1).
    transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 50_000))
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 900_000))
    by_src = {m.src: m for m in transport.inbound.values()}
    assert by_src[2].granted > 10220      # short message active
    assert by_src[1].granted <= 10220     # long message never granted
    # More data for the long message still does not extend its grant.
    transport.on_packet(data_packet(1, 100, MAX_PAYLOAD, MAX_PAYLOAD,
                                    900_000))
    assert by_src[1].granted <= 10220


def test_scheduled_priorities_rank_by_remaining():
    sim, transport = make_transport()  # W4: 7 scheduled levels
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 2_000_000))
    transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 500_000))
    transport.on_packet(data_packet(3, 102, 0, MAX_PAYLOAD, 100_000))
    by_src = {m.src: m for m in transport.inbound.values()}
    assert by_src[1].sched_prio < by_src[2].sched_prio < by_src[3].sched_prio
    assert by_src[1].sched_prio == transport.alloc.sched_levels[0]


def test_withheld_observer_fires_on_transitions():
    cfg = HomaConfig(n_sched_override=1)
    sim, transport = make_transport(cfg)
    events = []
    transport.withheld_observer = lambda hid, w: events.append(w)
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 500_000))
    assert events == []  # one grantable message, degree 1: not withheld
    transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 400_000))
    assert events == [True]


def test_grant_oldest_keeps_slot_for_older_message():
    """Degree 1 with ``grant_oldest`` (section 5.1): an older long
    message keeps the one scheduled slot when a shorter, newer message
    arrives; without the flag SRPT hands the slot to the newcomer."""
    for oldest in (True, False):
        cfg = HomaConfig(overcommit_override=1, grant_oldest=oldest)
        sim, transport = make_transport(cfg)
        transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 900_000))
        sim.run(until_ps=US)  # the second message arrives strictly later
        transport.on_packet(data_packet(2, 101, 0, MAX_PAYLOAD, 50_000))
        by_src = {m.src: m for m in transport.inbound.values()}
        assert by_src[1].first_arrival_ps < by_src[2].first_arrival_ps
        first_grant = by_src[1].granted
        assert first_grant > 10220
        drain_ctrl(transport)
        transport.on_packet(data_packet(1, 100, MAX_PAYLOAD, MAX_PAYLOAD,
                                        900_000))
        transport.on_packet(data_packet(2, 101, MAX_PAYLOAD, MAX_PAYLOAD,
                                        50_000))
        granted_to = [p.dst for p in drain_ctrl(transport)
                      if p.kind == PacketType.GRANT]
        if oldest:
            assert granted_to == [1]
            assert by_src[1].granted > first_grant
            assert by_src[2].granted == 10220  # unscheduled prefix only
        else:
            assert granted_to == [2]
            assert by_src[1].granted == first_grant
            assert by_src[2].granted > 10220


def test_sender_prefers_control_packets():
    sim, transport = make_transport()
    transport.send_message(2, 1000)
    transport.send_ctrl(Packet(0, 3, PacketType.BUSY, rpc_id=9))
    first = transport.next_packet()
    assert first.kind == PacketType.BUSY
    second = transport.next_packet()
    assert second.kind == PacketType.DATA


def test_sender_srpt_order():
    sim, transport = make_transport()
    transport.send_message(2, 50_000)
    transport.send_message(3, 5_000)
    pkt = transport.next_packet()
    assert pkt.dst == 3  # fewest remaining bytes first


def test_sender_breaks_srpt_ties_in_registration_order():
    sim, transport = make_transport()
    first = transport.send_rpc(2, 2 * MAX_PAYLOAD)
    second = transport.send_rpc(3, 2 * MAX_PAYLOAD)
    # Same length, same instant: the first registered goes first (and,
    # with one packet left, stays shorter).
    assert [transport.next_packet().dst for _ in range(4)] == [2, 2, 3, 3]
    assert transport.next_packet() is None and not transport.outbound
    # Both requests are fully sent and forgotten by ``outbound``.  A
    # RESEND re-registers one with a fresh tie-break, so the request
    # re-registered second goes behind its equal-key peer.
    for rpc_id, src in ((second, 3), (first, 2)):
        transport.on_packet(Packet(src, 0, PacketType.RESEND, rpc_id=rpc_id,
                                   is_request=True, offset=0,
                                   range_end=MAX_PAYLOAD,
                                   total_length=2 * MAX_PAYLOAD))
    assert [transport.next_packet().dst for _ in range(2)] == [3, 2]
    assert transport.next_packet() is None


def test_sender_respects_grant_boundary():
    sim, transport = make_transport()
    msg = transport.send_message(2, 100_000)
    sent = 0
    while True:
        pkt = transport.next_packet()
        if pkt is None:
            break
        sent += pkt.payload
    assert sent == transport.unsched_limit
    # A grant opens the next window.
    transport.on_packet(Packet(2, 0, PacketType.GRANT, rpc_id=msg.rpc_id,
                               is_request=True, grant_offset=20_440,
                               grant_prio=3))
    pkt = transport.next_packet()
    assert pkt is not None
    assert pkt.prio == 3
    assert pkt.sched


def test_unsched_packets_carry_length_based_priority():
    sim, transport = make_transport(workload="W2")
    transport.send_message(2, 50)
    small_prio = transport.next_packet().prio
    transport.send_message(3, 200_000)
    big_prio = transport.next_packet().prio
    assert small_prio > big_prio


def test_resend_for_unknown_response_triggers_request_resend():
    sim, transport = make_transport()
    resend = Packet(4, 0, PacketType.RESEND, rpc_id=777, is_request=False,
                    offset=0, range_end=RTT)
    transport.on_packet(resend)
    out = drain_ctrl(transport)
    assert len(out) == 1
    assert out[0].kind == PacketType.RESEND
    assert out[0].is_request
    assert out[0].dst == 4
    assert transport.reexecutions == 1


def test_resend_while_executing_sends_busy():
    sim, transport = make_transport()
    transport.rpc_handler = lambda t, rpc: None  # executes forever
    transport.on_packet(data_packet(1, 55, 0, 100, 100))
    drain_ctrl(transport)
    resend = Packet(1, 0, PacketType.RESEND, rpc_id=55, is_request=False,
                    offset=0, range_end=RTT)
    transport.on_packet(resend)
    out = drain_ctrl(transport)
    assert out and out[0].kind == PacketType.BUSY


def test_duplicate_response_packet_for_finished_rpc_dropped():
    sim, transport = make_transport()
    stray = Packet(1, 0, PacketType.DATA, rpc_id=999, is_request=False,
                   payload=100, offset=0, total_length=100)
    transport.on_packet(stray)
    assert not transport.inbound


def test_grant_for_finished_message_ignored():
    sim, transport = make_transport()
    transport.on_packet(Packet(2, 0, PacketType.GRANT, rpc_id=12345,
                               is_request=True, grant_offset=99_999,
                               grant_prio=1))
    assert not transport.outbound


# -- whole-message receive -------------------------------------------------
#
# A new message whose first packet covers [0, total_length) (99% of
# W1's) completes without entering ``inbound`` or ``_grantable``; every
# other effect of registering, recording and completing it still runs.


class _Recording(dict):
    """A dict that remembers every key ever stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_whole_message_keeps_no_receiver_state():
    sim, transport = make_transport()
    transport.inbound = _Recording()
    transport._grantable = _Recording()
    reported = []
    transport.on_message_complete = lambda msg, now: reported.append(msg)
    transport.on_packet(data_packet(1, 100, 0, 1000, 1000, created=7))
    assert transport.inbound.stored == transport._grantable.stored == []
    assert not transport.inbound and not transport._grantable
    assert transport.messages_received == 1
    assert transport.bytes_received == 1000
    (msg,) = reported
    assert (msg.src, msg.length, msg.created_ps, msg.bytes_received) == (
        1, 1000, 7, 1000)
    # It took the next registration number, as a registered message does.
    assert msg.sort_seq == 1
    assert transport._new_outbound(5, True, 1, 10, None, None,
                                   False).sort_seq == 2
    assert transport._grant_dirty is False  # the ranking pass ran
    assert transport._timer_event is None  # nothing left to time out


def test_whole_message_late_copy_is_dropped_by_done_memory():
    """The message completes off the copy its RESEND asked for; the
    original whole packet, arriving late, must not be delivered again."""
    sim, transport = make_transport()
    interval = transport.cfg.resend_interval_ps
    transport.on_packet(data_packet(1, 100, 500, 500, 1000))  # tail first
    sim.run(until_ps=interval)
    (resend,) = [p for p in drain_ctrl(transport)
                 if p.kind == PacketType.RESEND]
    assert (resend.offset, resend.range_end) == (0, 500)
    transport.on_packet(data_packet(1, 100, 0, 500, 1000))  # the repair
    assert transport.messages_received == 1
    transport.on_packet(data_packet(1, 100, 0, 1000, 1000))  # late whole copy
    assert transport.messages_received == 1
    assert not transport.inbound and not transport._grantable


def test_whole_message_triggers_count_mode_ranking():
    """Under ``grant_batch_pkts`` a new message ranks at once (it sets
    ``_grant_dirty``), also when its first packet completes it."""
    cfg = HomaConfig(grant_batch_ns=0, grant_batch_pkts=10)
    sim, transport = make_transport(cfg)
    transport.on_packet(data_packet(1, 100, 0, MAX_PAYLOAD, 200_000))
    transport.on_packet(data_packet(1, 100, MAX_PAYLOAD, MAX_PAYLOAD,
                                    200_000))
    assert (transport.grant_ticks, transport._data_since_grant) == (1, 1)
    transport.on_packet(data_packet(2, 101, 0, 1000, 1000))
    assert (transport.grant_ticks, transport._data_since_grant) == (2, 0)
    assert list(transport.inbound) == [(100 << 1) | 1]
