"""Tests for Homa's RPC layer: at-least-once semantics, RESEND/BUSY
loss recovery, and incast control (paper sections 3.1, 3.6-3.8)."""

from repro.core.packet import PacketType
from repro.core.units import MS, US
from repro.homa.config import HomaConfig

from tests.helpers import homa_cluster


def echo_handler(transport, server_rpc):
    """Echo server: respond with the same length as the request, or the
    length the client hinted in app_meta."""
    length = server_rpc.app_meta or server_rpc.request_length
    transport.respond(server_rpc, length)


def setup_rpc_cluster(homa_cfg=None, hosts=4, **overrides):
    sim, net, transports = homa_cluster(
        hosts_per_rack=hosts, homa_cfg=homa_cfg, **overrides)
    for transport in transports:
        transport.rpc_handler = echo_handler
    return sim, net, transports


def test_echo_rpc_completes_at_oracle_time():
    sim, net, transports = setup_rpc_cluster()
    done = []
    transports[0].send_rpc(1, 100, on_response=lambda rid, msg: done.append((rid, msg)))
    sim.run(until_ps=5 * MS)
    assert len(done) == 1
    assert done[0][1].length == 100
    assert sim.now >= net.min_rpc_between(0, 1, 100, 100)


def test_rpc_response_time_close_to_oracle():
    sim, net, transports = setup_rpc_cluster()
    times = []
    start = sim.now
    transports[0].send_rpc(1, 100, on_response=lambda rid, msg: times.append(sim.now))
    sim.run(until_ps=5 * MS)
    oracle = net.min_rpc_between(0, 1, 100, 100)
    assert times[0] - start == oracle


def test_response_hint_via_app_meta():
    """The incast benchmark needs tiny requests with 10 KB responses."""
    sim, net, transports = setup_rpc_cluster()
    done = []
    transports[0].send_rpc(1, 50, app_meta=10_000,
                           on_response=lambda rid, msg: done.append(msg.length))
    sim.run(until_ps=5 * MS)
    assert done == [10_000]


def test_concurrent_rpcs_complete_in_any_order():
    sim, net, transports = setup_rpc_cluster()
    done = set()
    for i in range(10):
        transports[0].send_rpc(1 + (i % 3), 200 + i,
                               on_response=lambda rid, msg: done.add(rid))
    sim.run(until_ps=20 * MS)
    assert len(done) == 10
    assert not transports[0].client_rpcs


def test_server_state_discarded_after_response():
    """At-least-once (3.8): servers keep no state once the response has
    been handed to the NIC."""
    sim, net, transports = setup_rpc_cluster()
    transports[0].send_rpc(1, 100)
    sim.run(until_ps=5 * MS)
    assert not transports[1].server_rpcs
    assert not transports[1].outbound


def test_lost_request_packet_recovers():
    """Client times out on the response, server answers the RESEND for
    an unknown RPCid with a RESEND for the request (3.7)."""
    cfg = HomaConfig(resend_interval_ps=400 * US)
    sim, net, transports = setup_rpc_cluster(cfg)
    dropped = []

    def drop_first_request(pkt):
        if pkt.kind == PacketType.DATA and pkt.is_request and not dropped:
            dropped.append(pkt)
            return True
        return False

    net.set_drop_filter(drop_first_request)
    done = []
    transports[0].send_rpc(1, 100, on_response=lambda rid, msg: done.append(rid))
    sim.run(until_ps=20 * MS)
    assert len(dropped) == 1
    assert len(done) == 1
    assert transports[1].reexecutions >= 1


def test_lost_response_packet_recovers():
    """Server state is gone when the RESEND arrives, so the request is
    re-executed: at-least-once in action."""
    cfg = HomaConfig(resend_interval_ps=400 * US)
    sim, net, transports = setup_rpc_cluster(cfg)
    dropped = []

    def drop_first_response(pkt):
        if pkt.kind == PacketType.DATA and not pkt.is_request and not dropped:
            dropped.append(pkt)
            return True
        return False

    net.set_drop_filter(drop_first_response)
    done = []
    transports[0].send_rpc(1, 100, on_response=lambda rid, msg: done.append(rid))
    sim.run(until_ps=30 * MS)
    assert len(dropped) == 1
    assert len(done) == 1


def test_lost_middle_packet_of_large_message_resent():
    """Receiver-driven loss detection: the receiver RESENDs the exact
    missing range."""
    cfg = HomaConfig(resend_interval_ps=400 * US)
    sim, net, transports = setup_rpc_cluster(cfg)
    dropped = []

    def drop_one_data(pkt):
        if (pkt.kind == PacketType.DATA and pkt.is_request
                and pkt.offset == 2920 and not dropped):
            dropped.append(pkt)
            return True
        return False

    net.set_drop_filter(drop_one_data)
    done = []
    transports[0].send_rpc(1, 50_000, on_response=lambda rid, msg: done.append(rid))
    sim.run(until_ps=30 * MS)
    assert len(dropped) == 1
    assert len(done) == 1
    assert transports[1].resends_sent >= 1


def test_unresponsive_server_aborts_rpc():
    """After max_resends the client gives up and reports an error."""
    cfg = HomaConfig(resend_interval_ps=200 * US, max_resends=3)
    sim, net, transports = homa_cluster(homa_cfg=cfg)
    # No rpc_handler on host 1: requests complete but are never answered.
    errors = []
    done = []
    transports[0].send_rpc(1, 100,
                           on_response=lambda rid, msg: done.append(rid),
                           on_error=lambda rid: errors.append(rid))
    sim.run(until_ps=50 * MS)
    assert not done
    assert len(errors) == 1
    assert transports[0].rpcs_aborted == 1
    assert not transports[0].client_rpcs


def test_blackholed_receiver_gives_up():
    """All packets to host 1 vanish: client aborts cleanly."""
    cfg = HomaConfig(resend_interval_ps=200 * US, max_resends=3)
    sim, net, transports = setup_rpc_cluster(cfg)
    net.set_drop_filter(lambda pkt: pkt.dst == 1)
    errors = []
    transports[0].send_rpc(1, 100, on_error=lambda rid: errors.append(rid))
    sim.run(until_ps=100 * MS)
    assert len(errors) == 1
    assert not transports[0].client_rpcs
    assert not transports[0].outbound


def test_busy_sent_when_shorter_message_pending():
    """A RESEND for a long message while a shorter one is being sent is
    answered with BUSY (Figure 3: "the sender is busy transmitting
    higher priority messages")."""
    cfg = HomaConfig(resend_interval_ps=50 * US)
    sim, net, transports = setup_rpc_cluster(cfg)
    # Grants from host 1 never reach host 0: the message to host 1
    # stalls after its unscheduled prefix and host 1 starts RESENDing.
    net.set_drop_filter(
        lambda pkt: pkt.kind == PacketType.GRANT and pkt.src == 1)
    transports[0].send_message(1, 200_000)   # stalls, receiver times out
    transports[0].send_message(2, 150_000)   # shorter, actively sending
    sim.run(until_ps=2 * MS)
    assert transports[1].resends_sent >= 1
    assert transports[0].busys_sent >= 1


def test_incast_marking_applied_above_threshold():
    cfg = HomaConfig(incast_threshold=4)
    sim, net, transports = setup_rpc_cluster(cfg, hosts=8)
    # Stall everything so RPCs stay outstanding: drop all responses.
    net.set_drop_filter(lambda pkt: pkt.kind == PacketType.DATA and not pkt.is_request)
    for i in range(8):
        transports[0].send_rpc(1 + (i % 7), 100, app_meta=10_000)
    marked = [rpc.incast for rpc in transports[0].client_rpcs.values()]
    assert sum(marked) == 4  # the ones beyond the threshold
    sim.run(until_ps=1 * MS)


def test_incast_response_unscheduled_limited():
    """Marked RPCs force the server to schedule most of the response."""
    cfg = HomaConfig(incast_threshold=1, incast_response_unsched=400)
    sim, net, transports = setup_rpc_cluster(cfg)
    server = transports[1]
    created = []
    original_respond = server.respond

    def spying_respond(server_rpc, length):
        response = original_respond(server_rpc, length)
        created.append(response)
        return response

    server.respond = spying_respond
    done = []
    transports[0].send_rpc(1, 100, app_meta=10_000)
    transports[0].send_rpc(1, 100, app_meta=10_000,
                           on_response=lambda rid, msg: done.append(msg))
    sim.run(until_ps=20 * MS)
    assert len(created) == 2
    limited = [m for m in created if m.unsched_limit == 400]
    assert limited, "the marked RPC's response must be unsched-limited"
    assert done  # and it still completes


def test_incast_control_disabled():
    cfg = HomaConfig(incast_control=False, incast_threshold=1)
    sim, net, transports = setup_rpc_cluster(cfg)
    for _ in range(5):
        transports[0].send_rpc(1, 100, app_meta=10_000)
    assert all(not rpc.incast for rpc in transports[0].client_rpcs.values())
    sim.run(until_ps=10 * MS)


def test_duplicate_request_while_state_live_is_ignored():
    """A retransmitted request that completes twice while the server
    still holds RPC state must not re-execute."""
    cfg = HomaConfig(resend_interval_ps=300 * US)
    sim, net, transports = homa_cluster(homa_cfg=cfg)
    executions = []

    def slow_handler(transport, server_rpc):
        executions.append(server_rpc.rpc_id)
        # Do not respond: state stays live.

    transports[1].rpc_handler = slow_handler
    transports[0].send_rpc(1, 100)
    sim.run(until_ps=1 * MS)
    # Simulate a duplicate request arriving (client RESEND path would
    # normally cause this): deliver the same data again.
    from repro.core.packet import Packet
    dup = Packet(0, 1, PacketType.DATA, prio=7, payload=100,
                 rpc_id=list(executions)[0], is_request=True,
                 offset=0, total_length=100, grant_offset=100)
    transports[1].on_packet(dup)
    sim.run(until_ps=2 * MS)
    assert len(executions) == 1
