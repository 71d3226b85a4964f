"""Shared test fixtures: small networks with Homa transports attached."""

from __future__ import annotations

from repro.core.engine import Simulator
from repro.core.topology import NetworkConfig, build_fabric, build_network
from repro.homa.config import HomaConfig
from repro.homa.priorities import allocate_priorities
from repro.homa.transport import HomaTransport
from repro.workloads.catalog import get_workload


def small_net(racks=1, hosts_per_rack=4, aggrs=0, **overrides):
    """A small single- or multi-rack network."""
    sim = Simulator()
    cfg = NetworkConfig(racks=racks, hosts_per_rack=hosts_per_rack,
                        aggrs=aggrs, **overrides)
    return sim, build_network(sim, cfg)


def homa_cluster(
    racks=1,
    hosts_per_rack=4,
    aggrs=0,
    homa_cfg: HomaConfig | None = None,
    workload: str = "W3",
    **net_overrides,
):
    """Network + one HomaTransport per host, statically allocated."""
    sim, net = small_net(racks, hosts_per_rack, aggrs, **net_overrides)
    cfg = homa_cfg or HomaConfig()
    rtt = net.rtt_bytes()
    unsched = cfg.resolved_unsched_limit(rtt)
    alloc = allocate_priorities(
        get_workload(workload).cdf, unsched,
        n_prios=cfg.n_prios,
        n_unsched_override=cfg.n_unsched_override,
        n_sched_override=cfg.n_sched_override,
        cutoff_override=cfg.cutoff_override,
    )
    transports = net.attach_transports(
        lambda host: HomaTransport(sim, cfg, alloc, rtt,
                                   link_gbps=net.spec.host_gbps))
    return sim, net, transports


def fabric_cluster(
    spec,
    seed=1,
    homa_cfg: HomaConfig | None = None,
    workload: str = "W3",
    **net_overrides,
):
    """Fabric from a TopologySpec + one HomaTransport per host.

    ``build_fabric`` installs the spec's loss filters and arms its fault
    schedule.
    """
    sim = Simulator()
    net = build_fabric(sim, spec, seed=seed, overrides=net_overrides)
    cfg = homa_cfg or HomaConfig()
    rtt = net.rtt_bytes()
    unsched = cfg.resolved_unsched_limit(rtt)
    alloc = allocate_priorities(
        get_workload(workload).cdf, unsched,
        n_prios=cfg.n_prios,
        n_unsched_override=cfg.n_unsched_override,
        n_sched_override=cfg.n_sched_override,
        cutoff_override=cfg.cutoff_override,
    )
    transports = net.attach_transports(
        lambda host: HomaTransport(sim, cfg, alloc, rtt,
                                   link_gbps=net.spec.host_gbps))
    return sim, net, transports


def protocol_cluster(
    protocol: str,
    spec,
    seed=1,
    workload: str = "W2",
    **net_overrides,
):
    """Fabric from a TopologySpec + one transport per host via the
    protocol registry.

    The registry arms loss recovery iff the spec can drop packets
    (``net.may_drop()``), exactly as the experiment runner does — so
    these clusters exercise the same recovery wiring the battery
    validates (tests/test_recovery.py).
    """
    from repro.transport.registry import network_overrides, transport_factory

    sim = Simulator()
    overrides = dict(network_overrides(protocol))
    overrides.update(net_overrides)
    net = build_fabric(sim, spec, seed=seed, overrides=overrides)
    cdf = get_workload(workload).cdf
    transports = net.attach_transports(
        transport_factory(protocol, sim, net, cdf))
    return sim, net, transports


class FakeEgress:
    """Stub NIC egress for direct-transport tests.

    Reports "wire busy" so ``send_ctrl`` queues control packets in
    ``transport.ctrl``, where tests inspect them.
    """

    busy = True

    def __init__(self):
        self.kicks = 0

    def kick(self):
        self.kicks += 1

    def _next(self):
        pass


class FakeHost:
    """Stub host binding for driving a transport without a network."""

    def __init__(self, sim, hid):
        self.sim = sim
        self.hid = hid
        self.egress = FakeEgress()


def drain_ctrl(transport):
    """Pop and return every queued control packet."""
    out = list(transport.ctrl)
    transport.ctrl.clear()
    return out


def port_leftovers(port):
    """What each list-valued slot of ``port`` still holds,
    for the slots that hold anything.  A list of per-priority queues
    holds what its queues hold; a list of per-priority byte counters
    holds its non-zero counters."""
    held = {}
    for cls in type(port).__mro__:
        for name in getattr(cls, "__slots__", ()):
            value = getattr(port, name, None)
            if not isinstance(value, list):
                continue
            items = []
            for item in value:
                if isinstance(item, list):
                    items.extend(item)
                elif item != 0:
                    items.append(item)
            if items:
                held[name] = items
    return held


def collect_completions(transports):
    """Attach completion recorders; returns the shared record list."""
    records = []

    def make_hook(hid):
        def hook(msg, now):
            records.append((hid, msg, now))
        return hook

    for transport in transports:
        transport.on_message_complete = make_hook(transport.hid)
    return records


def push_sample(tracker, size, slowdown):
    """Append one sample to a tracker's two columns, as recording does."""
    tracker.sizes.append(size)
    tracker.slowdowns.append(slowdown)
