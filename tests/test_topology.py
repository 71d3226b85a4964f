"""Tests for topology construction and the paper's timing constants."""

import inspect
import tracemalloc

import pytest

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType
from repro.core.port import QueuedPort
from repro.core.topology import Network, NetworkConfig, build_network
from repro.core.units import US
from repro.transport.base import Transport

from tests.helpers import homa_cluster


def make_net(**overrides) -> Network:
    return build_network(Simulator(), NetworkConfig(**overrides))


def test_default_topology_matches_figure_11():
    net = make_net()
    assert len(net.hosts) == 144
    assert len(net.tors) == 9
    assert len(net.aggrs) == 4
    assert len(net.tor_down_ports) == 144
    assert len(net.tor_up_ports) == 9 * 4
    assert len(net.aggr_down_ports) == 4 * 9


def test_rtt_matches_paper_7_8_us():
    net = make_net()
    rtt = net.rtt_ps()
    # Paper section 5.2: "about 7.8 us".
    assert abs(rtt - 7_744_000) < 1_000
    assert 7.5 * US < rtt < 8.0 * US


def test_rtt_bytes_matches_paper_9_7_kb():
    net = make_net()
    # Paper: "RTTbytes is about 9.7 Kbytes".
    assert net.rtt_bytes() == 9680


def test_min_oneway_small_message_close_to_paper():
    net = make_net()
    t = net.min_oneway_between(0, 143, 1)
    # Paper: "The minimum one-way time for a small message is 2.3 us";
    # our framing gives 2.418 us (the model in core/packet.py).
    assert 2_300_000 <= t <= 2_500_000


def test_min_oneway_same_rack_faster():
    net = make_net()
    assert (net.min_oneway_between(0, 1, 1000)
            < net.min_oneway_between(0, 16, 1000))


def test_min_oneway_monotone_in_size():
    net = make_net()
    times = [net.min_oneway_between(0, 16, s)
             for s in (1, 100, 1460, 5000, 100_000)]
    assert times == sorted(times)
    assert len(set(times)) == len(times)


def test_min_oneway_large_message_dominated_by_serialization():
    net = make_net()
    size = 100 * MAX_PAYLOAD
    t = net.min_oneway_between(0, 16, size)
    serialization = 100 * 1538 * 800
    assert t > serialization
    assert t < serialization + 6 * US


def test_min_rpc_is_sum_of_legs():
    net = make_net()
    assert (net.min_rpc_between(0, 16, 100, 100)
            == 2 * net.min_oneway_between(0, 16, 100))


def test_min_oneway_cache_consistent():
    net = make_net()
    first = net.min_oneway_between(0, 16, 12345)
    second = net.min_oneway_between(0, 16, 12345)
    assert first == second


def test_single_rack_topology_has_no_aggrs():
    net = make_net(racks=1, hosts_per_rack=16, aggrs=0)
    assert len(net.hosts) == 16
    assert not net.aggrs
    assert not net.tor_up_ports


def test_single_rack_rtt_shorter_than_fat_tree():
    single = make_net(racks=1, hosts_per_rack=16, aggrs=0)
    fat = make_net()
    assert single.rtt_ps() < fat.rtt_ps()


def test_multi_rack_requires_aggrs():
    with pytest.raises(ValueError):
        make_net(racks=2, aggrs=0)


def test_bad_queue_mode_rejected():
    with pytest.raises(ValueError):
        make_net(queue_mode="fifo")


class _Sink:
    """Transport stand-in that records deliveries and sends nothing."""

    def __init__(self):
        self.received = []

    def bind(self, host):
        self.host = host

    def on_packet(self, pkt):
        self.received.append((self.host.sim.now, pkt))

    def next_packet(self):
        return None


def test_cross_rack_delivery_time_matches_oracle():
    sim = Simulator()
    net = build_network(sim, NetworkConfig())
    sinks = net.attach_transports(lambda host: _Sink())
    src, dst = 0, 143  # different racks
    pkt = Packet(src, dst, PacketType.DATA, payload=1000, prio=5,
                 rpc_id=1, total_length=1000)
    net.hosts[src].egress._transmit(pkt)
    sim.run()
    assert len(sinks[dst].received) == 1
    arrival, received = sinks[dst].received[0]
    assert received is pkt
    assert arrival == net.min_oneway_between(src, dst, 1000)


def test_same_rack_delivery_time_matches_oracle():
    sim = Simulator()
    net = build_network(sim, NetworkConfig())
    sinks = net.attach_transports(lambda host: _Sink())
    src, dst = 0, 1
    pkt = Packet(src, dst, PacketType.DATA, payload=200, prio=5, rpc_id=1)
    net.hosts[src].egress._transmit(pkt)
    sim.run()
    arrival, _ = sinks[dst].received[0]
    assert arrival == net.min_oneway_between(src, dst, 200)


def test_spraying_distributes_across_aggrs():
    sim = Simulator()
    net = build_network(sim, NetworkConfig())
    net.attach_transports(lambda host: _Sink())
    # Host 0's uplink delivers straight into rack 0's fused TOR ingress,
    # the only place a canonical network routes and sprays.
    tor_ingress = net.host_up_ports[0].deliver
    for _ in range(400):
        tor_ingress(Packet(0, 143, PacketType.DATA, payload=100, prio=4,
                           rpc_id=1))
    sim.run()
    counts = [port.tx_packets for port in net.tor_up_ports[:4]]
    # Uniform spraying: each of 4 uplinks should get a fair share.
    assert min(counts) > 50
    assert sum(counts) == 400


# ---------------------------------------------------------------------------
# declarative TopologySpec fabrics (3-level, asymmetric speeds)
# ---------------------------------------------------------------------------

from repro.core.topology import TopologySpec, build_fabric  # noqa: E402

# 2 pods x 2 racks x 2 hosts with a 10/25/100 speed mix: every tier
# serializes at a different rate, so the oracle must mix per-layer
# ps-per-byte correctly or the exactness asserts below catch it.
SPEC3 = TopologySpec(levels=3, pods=2, racks=2, hosts_per_rack=2,
                     aggrs=2, cores=4, host_gbps=10, aggr_gbps=25,
                     core_gbps=100)


def make_fabric(spec=SPEC3, seed=1):
    sim = Simulator()
    return sim, build_fabric(sim, spec, seed=seed)


@pytest.mark.parametrize("dst,tier", [
    (1, "same-rack"),       # one ToR hop
    (2, "intra-pod"),       # ToR-aggr-ToR, the 2-level bound
    (7, "cross-pod"),       # ToR-aggr-core-aggr-ToR
])
@pytest.mark.parametrize("size", [200, 1000, 1460])
def test_fabric_delivery_time_matches_tier_oracle(dst, tier, size):
    """Idle single-packet delivery is byte-exact against
    ``min_oneway_between`` on every tier of an asymmetric 3-level
    fabric — the oracle is the contract slowdown normalizes by."""
    sim, net = make_fabric()
    sinks = net.attach_transports(lambda host: _Sink())
    pkt = Packet(0, dst, PacketType.DATA, payload=size, prio=5,
                 rpc_id=1, total_length=size)
    net.hosts[0].egress._transmit(pkt)
    sim.run()
    assert len(sinks[dst].received) == 1, tier
    arrival, received = sinks[dst].received[0]
    assert received is pkt
    assert arrival == net.min_oneway_between(0, dst, size), tier


def test_fabric_oracle_tiers_strictly_ordered():
    sim, net = make_fabric()
    same_rack = net.min_oneway_between(0, 1, 1000)
    intra_pod = net.min_oneway_between(0, 2, 1000)
    cross_pod = net.min_oneway_between(0, 7, 1000)
    assert same_rack < intra_pod < cross_pod
    # Intra-pod is exactly the cross-rack bound of a 2-level tree with
    # the same host and aggregation speeds.
    _, flat = make_fabric(TopologySpec(
        levels=2, racks=2, hosts_per_rack=2, aggrs=2,
        host_gbps=SPEC3.host_gbps, aggr_gbps=SPEC3.aggr_gbps))
    assert intra_pod == flat.min_oneway_between(0, 2, 1000)


def test_fabric_rpc_oracle_is_sum_of_legs():
    sim, net = make_fabric()
    assert net.min_rpc_between(0, 7, 400, 2000) == (
        net.min_oneway_between(0, 7, 400)
        + net.min_oneway_between(7, 0, 2000))


def test_oversubscription_is_emergent_arithmetic():
    # 2 racks x 25G into 2 core links x 100G per aggr.
    assert SPEC3.aggr_oversubscription == pytest.approx(2 * 25 / (2 * 100))
    assert SPEC3.core_links_per_aggr == 2
    assert SPEC3.racks_total == 4 and SPEC3.n_hosts == 8
    fat = TopologySpec(levels=2, racks=3, hosts_per_rack=12, aggrs=2,
                       host_gbps=10, aggr_gbps=20)
    assert fat.aggr_oversubscription == 0.0  # no core layer


_BASE3 = dict(levels=3, pods=2, racks=2, hosts_per_rack=2, aggrs=2,
              cores=4, aggr_gbps=40, core_gbps=100)


@pytest.mark.parametrize("kwargs,field", [
    ({"levels": 4}, "levels"),
    ({"pods": 2}, "pods"),                      # pods on a 2-level tree
    ({"cores": 4}, "cores"),                    # cores on a 2-level tree
    ({**_BASE3, "pods": 1}, "pods"),            # 3-level needs >= 2 pods
    ({**_BASE3, "cores": 3}, "cores"),          # not a multiple of aggrs
    ({"racks": 0}, "racks"),
    ({"hosts_per_rack": 0}, "hosts_per_rack"),
    ({"racks": 2, "aggrs": 0}, "aggrs"),
    ({"host_gbps": 0}, "host_gbps"),
    ({"aggr_gbps": 5}, "aggr_gbps"),            # slower than hosts
    ({**_BASE3, "core_gbps": 20}, "core_gbps"),  # slower than aggrs
    ({"switch_delay_ns": -1}, "switch_delay_ns"),
    ({"software_delay_ns": -5}, "software_delay_ns"),
    ({"loss": 0.1}, "loss"),
    ({**_BASE3, "aggrs": 0}, "aggrs"),          # before the cores check
])
def test_malformed_spec_names_the_field(kwargs, field):
    with pytest.raises(ValueError, match=rf"TopologySpec\.{field}"):
        TopologySpec(**kwargs)


# ---------------------------------------------------------------------------
# per-port and per-NIC state: sized to the traffic it holds
# ---------------------------------------------------------------------------


def _traced_bytes_in(snapshot, func) -> int:
    """Bytes still allocated on the lines of ``func``'s body."""
    lines, first = inspect.getsourcelines(func)
    filename = inspect.getsourcefile(func)
    span = range(first, first + len(lines))
    return sum(stat.size for stat in snapshot.statistics("lineno")
               if stat.traceback[0].filename == filename
               and stat.traceback[0].lineno in span)


def test_idle_port_and_transport_state_stays_small():
    """The Figure 11 fabric builds 216 switch egress ports of 8 priority
    FIFOs each and one transport (with its NIC control FIFO) per host;
    on the ledger workloads none of them ever holds more than 137
    packets (docs/PERFORMANCE.md, "Switch-port and NIC FIFOs").
    A deque costs 760 B empty, so with deque FIFOs the constructors
    retained about 6.4 KB per port and 0.94 KB per transport; with list
    FIFOs they retain about 0.74 KB and 0.24 KB."""
    tracemalloc.start()
    try:
        _, net, transports = homa_cluster(racks=9, hosts_per_rack=16,
                                          aggrs=4)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    ports = sum(isinstance(port, QueuedPort)
                for switch in net.tors + net.aggrs for port in switch.ports)
    assert ports == 216
    assert len(transports) == 144
    per_port = _traced_bytes_in(snapshot, QueuedPort.__init__) / ports
    per_transport = (_traced_bytes_in(snapshot, Transport.__init__)
                     / len(transports))
    assert per_port <= 1_500
    assert per_transport <= 500
