"""The topology builder and path-time oracles.

A :class:`TopologySpec` describes a fabric: shape, link speeds, switch
and software delay, loss and faults.  Its defaults are 10 Gbps host
links, 40 Gbps aggregation links, 250 ns switch delay and 1.5 us host
software delay, as in Figure 11.  ``NetworkConfig`` holds the port
discipline (queue mode, buffers, ECN, trimming, preemption, seed) plus
a 2-level shorthand whose defaults are Figure 11's shape: 144 hosts in
9 racks of 16 under four aggregation switches, per-packet spraying
across uplinks.  ``racks=1`` builds a single-switch cluster like the
16-node CloudLab testbed of section 5.1.

The oracle methods (``min_oneway_between``/``min_rpc_between``) compute
the best possible delivery time of a message between two hosts on an
unloaded network, which is the denominator of every slowdown number in
the paper.
"""

from __future__ import annotations

import random
from heapq import heappush
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.engine import Simulator
from repro.core.faults import (NO_FAULT_PS, FaultEvent, FaultInjector,
                               LossRates, install_loss)
from repro.core.host import Host
from repro.core.packet import FULL_WIRE, MAX_PAYLOAD, MIN_WIRE, Packet, wire_size
from repro.core.port import BasePort, PfabricPort, PullPort, QueuedPort
from repro.core.switch import Switch
from repro.core.units import NS, ps_per_byte

#: port queue discipline names accepted by NetworkConfig.queue_mode
QUEUE_MODES = ("priority", "pfabric")


@dataclass
class NetworkConfig:
    """Port discipline, plus the 2-level shape :func:`build_network`
    turns into a :class:`TopologySpec` (defaults: Figure 11)."""

    racks: int = 9
    hosts_per_rack: int = 16
    aggrs: int = 4
    queue_mode: str = "priority"
    port_buffer_bytes: int | None = None       # None = unbounded
    pfabric_buffer_bytes: int = 24 * FULL_WIRE  # ~2 BDP, as in pFabric
    ecn_threshold_bytes: int | None = None      # DCTCP-style marking (PIAS)
    trim_threshold_bytes: int | None = None     # NDP trimming (8 full pkts)
    preemptive_links: bool = False              # Fig 14 hardware ablation
    seed: int = 1


class Network:
    """A built network: hosts, 1-3 switch levels, ports, timing oracles.

    ``spec`` gives the shape, link speeds and delays (see
    :class:`TopologySpec`); ``cfg`` gives only the port discipline and
    the spray seed.  One rack builds a single switch; no cores, the
    paper's 2-level tree.

    Every switch routes through the same liveness-aware ingress closure
    (:meth:`_make_ingress`): :meth:`apply_fault` flips link/switch flags
    and rewrites the forwarding tables the closures read, so packets
    reroute — or black-hole — mid-simulation.  On a healthy fabric the
    tables are full and never change.
    """

    def __init__(self, sim: Simulator, spec: TopologySpec,
                 cfg: NetworkConfig) -> None:
        if cfg.queue_mode not in QUEUE_MODES:
            raise ValueError(f"unknown queue mode {cfg.queue_mode!r}")
        self.sim = sim
        self.spec = spec
        self.cfg = cfg
        self.hosts: list[Host] = []
        self.tors: list[Switch] = []
        self.aggrs: list[Switch] = []
        self.cores: list[Switch] = []
        self.host_up_ports: list[PullPort] = []
        self.tor_down_ports: list[BasePort] = []
        self.tor_up_ports: list[BasePort] = []       # flattened [tor][aggr]
        self.aggr_down_ports: list[BasePort] = []    # flattened [aggr][rack]
        self.aggr_up_ports: list[BasePort] = []      # flattened [aggr][k]
        self.core_down_ports: list[BasePort] = []    # flattened [core][pod]
        self.reroutes = 0
        self.fault_injector: FaultInjector | None = None
        #: time of the next scheduled fault (kept by FaultInjector)
        self.next_fault_ps = NO_FAULT_PS
        self._pod_hosts = spec.racks * spec.hosts_per_rack
        self._spray = random.Random(cfg.seed * 7919 + 13)
        self._oneway_cache: dict[tuple[int, int], int] = {}
        self._switch_by_name: dict[str, Switch] = {}
        self._link_ok: dict[str, bool] = {}
        #: link key -> (lower switch, upper switch, up port, down port,
        #: the hosts below the lower switch)
        self._links: dict[str, tuple] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _make_switch_port(self, name: str, gbps: int, deliver, level: str) -> BasePort:
        cfg = self.cfg
        if cfg.queue_mode == "pfabric":
            return PfabricPort(
                self.sim, name, gbps, deliver, level,
                buffer_bytes=cfg.pfabric_buffer_bytes,
            )
        return QueuedPort(
            self.sim, name, gbps, deliver, level,
            buffer_bytes=cfg.port_buffer_bytes,
            ecn_bytes=cfg.ecn_threshold_bytes,
            trim_bytes=cfg.trim_threshold_bytes,
            preemptive=cfg.preemptive_links,
        )

    def _build(self) -> None:
        spec = self.spec
        sim = self.sim
        H = spec.hosts_per_rack
        R = spec.racks                                     # racks per pod
        A = spec.aggrs if spec.racks_total > 1 else 0      # aggrs per pod
        K = spec.core_links_per_aggr

        software_delay_ps = spec.software_delay_ns * NS
        for hid in range(spec.n_hosts):
            self.hosts.append(Host(sim, hid, hid // H, software_delay_ps))
        # Switches before ports, each with its ingress closure: the
        # closures capture the (still empty) forwarding tables, and the
        # ports created below deliver into them.
        for g in range(spec.racks_total):
            self._add_switch(self.tors, f"tor{g}", "tor")
        for p in range(spec.pods):
            for a in range(A):
                self._add_switch(self.aggrs, f"aggr{p}.{a}", "aggr")
        for c in range(spec.cores):
            self._add_switch(self.cores, f"core{c}", "core")

        # Host access links: pull-model uplinks and TOR downlinks.
        for host in self.hosts:
            tor = self.tors[host.rack]
            up = PullPort(sim, f"h{host.hid}->{tor.name}", spec.host_gbps,
                          tor.ingress, "host_up")
            host.egress = up
            self.host_up_ports.append(up)
            down = self._make_switch_port(
                f"{tor.name}->h{host.hid}", spec.host_gbps,
                host.ingress, "tor_down")
            self.tor_down_ports.append(down)
            tor.ports.append(down)
            tor.table[host.hid] = down

        # Inter-switch links, one port per direction, bottom-up: wiring
        # a link reads the finished table of its lower switch, and a
        # switch's ports are all downlinks until its own uplinks go in.
        for g, tor in enumerate(self.tors):
            for aggr in self.aggrs[g // R * A:(g // R + 1) * A]:
                self._wire(tor, aggr, spec.aggr_gbps,
                           "tor_up", self.tor_up_ports, "aggr_down")
        for j, aggr in enumerate(self.aggrs):
            self.aggr_down_ports.extend(aggr.ports)
            for core in self.cores[j % A * K:(j % A + 1) * K]:
                self._wire(aggr, core, spec.core_gbps,
                           "aggr_up", self.aggr_up_ports, "core_down")
        for core in self.cores:
            self.core_down_ports.extend(core.ports)

    def _add_switch(self, layer: list, name: str, level: str) -> None:
        spec = self.spec
        switch = Switch(name, spec.switch_delay_ns * NS, level, spec.n_hosts)
        switch.ingress = self._make_ingress(switch)
        layer.append(switch)
        self._switch_by_name[name] = switch

    def _wire(self, lower: Switch, upper: Switch, gbps: int,
              up_level: str, up_ports: list, down_level: str) -> None:
        """Both directions of one inter-switch link, registered under
        ``"lower:upper"`` for the fault machinery."""
        key = f"{lower.name}:{upper.name}"
        up = self._make_switch_port(f"{lower.name}->{upper.name}", gbps,
                                    upper.ingress, up_level)
        down = self._make_switch_port(f"{upper.name}->{lower.name}", gbps,
                                      lower.ingress, down_level)
        up_ports.append(up)
        lower.ports.append(up)
        lower.live.append(up)
        upper.ports.append(down)
        below = [hid for hid, port in enumerate(lower.table)
                 if port is not None]
        for hid in below:
            upper.table[hid] = down
        self._link_ok[key] = True
        self._links[key] = (lower, upper, up, down, below)

    # ------------------------------------------------------------------
    # fused switch ingress (the per-hop hot path)
    # ------------------------------------------------------------------
    #
    # A packet hopping through a switch costs two events in the naive
    # model: the upstream port's tx-done and the post-switch-delay
    # enqueue.  The ingress closure below collapses fault checks,
    # routing and delay scheduling into one frame, and applies *arrival
    # fusion*: when the egress port is busy transmitting strictly past
    # the packet's arrival time, nothing can observe the queue before
    # the packet really arrives, so it is appended immediately and the
    # arrival event is skipped entirely.  ``last_arrival_ps`` keeps FIFO
    # order exact: once one packet takes the scheduled-event path, later
    # packets must too until it has fired, or they could overtake it in
    # the queue.  Fusion is a per-port, per-packet property — it is off
    # wherever queue state is observable in between: finite buffers,
    # ECN, trimming, preemption (``fuse_ok``), attached probes, delay
    # tracing, or a scheduled fault due before the arrival (its flush
    # must not destroy a packet that has not arrived yet).

    def _make_ingress(self, switch: Switch):
        """The per-hop closure of ``switch``.  ToR, aggregation and core
        switches differ only in what their tables hold."""
        net = self
        sim = self.sim
        delay = switch.delay_ps
        table = switch.table
        live = switch.live
        getrandbits = self._spray.getrandbits

        def ingress(pkt: Packet) -> None:
            if switch.dead:
                switch.fault_drops += 1
                return
            if switch.drop_filter is not None and switch.drop_filter(pkt):
                switch.injected_drops += 1
                return
            port = table[pkt.dst]
            if not port:
                # None: the destination is not below this switch, and
                # per-packet spraying lets any live uplink carry it.
                # Bit-exact inline of random.Random.randrange(n) — same
                # getrandbits rejection loop, no Python frames.
                n = len(live) if port is None else 0
                if n > 1:
                    bits = n.bit_length()
                    r = getrandbits(bits)
                    while r >= n:
                        r = getrandbits(bits)
                    port = live[r]
                elif n:
                    port = live[0]
                else:
                    # A fault removed every viable egress: black hole.
                    switch.routed_drops += 1
                    return
            if delay == 0:
                port.enqueue(pkt)
                return
            now = sim.now
            arrival = now + delay
            if port.busy:
                if (port.fuse_ok and now > port.last_arrival_ps
                        and port.probe is None
                        and not port.trace_delays
                        and arrival < net.next_fault_ps
                        and (port.cur_end_ps > arrival
                             or (port.cur_end_ps
                                 + port.qbytes * port.ppb > arrival
                                 and not any(port.queues[:pkt.prio])))):
                    # Busy past the arrival — or busy with enough
                    # queued backlog at-or-above this packet's priority
                    # that it cannot be dequeued before it really
                    # arrives (strict priorities: only lower-priority
                    # queues could drain after it).  Either way the
                    # early append is invisible, so the arrival event
                    # is skipped entirely.
                    port.enqueue(pkt)
                    return
            port.last_arrival_ps = arrival
            sim._seq += 1
            event = [arrival, sim._seq, port.enqueue, pkt]
            if arrival < sim._horizon:
                heappush(sim._heap, event)
            else:
                sim._file_far(event, arrival)

        return ingress

    # ------------------------------------------------------------------
    # fault application
    # ------------------------------------------------------------------

    def validate_fault_target(self, ev: FaultEvent, index: int) -> None:
        """Raise, naming the offending event, if the target is unknown."""
        if ev.kind == "switch":
            if ev.target not in self._switch_by_name:
                raise ValueError(
                    f"faults[{index}].target {ev.target!r} is not a switch "
                    f"of this fabric")
        elif ev.target not in self._links:
            raise ValueError(
                f"faults[{index}].target {ev.target!r} is not an "
                f"inter-switch link of this fabric")

    def apply_fault(self, ev: FaultEvent) -> None:
        """Flip one link or switch and reroute the live spray sets.

        A down event also flushes the failed element's egress buffers:
        the line card loses power, so queued packets are destroyed
        (credited to the owning switch's ``fault_drops``).  In-flight
        packets finish serializing — their bits are already on the
        wire — and die at the dead switch's ingress instead.

        Scheduled faults arrive through :class:`FaultInjector`, which
        keeps ``next_fault_ps`` current so that no packet the ingress
        appended ahead of its arrival is in a buffer flushed here.
        """
        down = ev.action == "down"
        if ev.kind == "switch":
            switch = self._switch_by_name[ev.target]
            switch.dead = down
            if down:
                for port in switch.ports:
                    switch.fault_drops += port.flush()
        else:
            self._link_ok[ev.target] = not down
            if down:
                lower, upper, up_port, down_port, _ = self._links[ev.target]
                lower.fault_drops += up_port.flush()
                upper.fault_drops += down_port.flush()
        self._recompute_live()

    def _recompute_live(self) -> None:
        """Rebuild every forwarding table in place from link/switch
        liveness (the ingress closures hold the lists themselves).

        Cold path (runs once per applied fault).  Routing knowledge is
        local: a switch knows its own links and neighbours, nothing
        further.  Each spray set whose membership changed counts as one
        reroute.
        """
        spray = {switch: [] for switch in self.all_switches()}
        for key, (lower, upper, up_port, down_port, below) in self._links.items():
            ok = self._link_ok[key]
            entry = down_port if ok and not lower.dead else False
            for hid in below:
                upper.table[hid] = entry
            if ok and not upper.dead:
                spray[lower].append(up_port)
        for switch, live in spray.items():
            if live != switch.live:
                switch.live[:] = live
                self.reroutes += 1

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------

    def all_switch_ports(self) -> Iterable[BasePort]:
        yield from self.tor_down_ports
        yield from self.tor_up_ports
        yield from self.aggr_down_ports
        yield from self.aggr_up_ports
        yield from self.core_down_ports

    def all_switches(self) -> list[Switch]:
        return [*self.tors, *self.aggrs, *self.cores]

    def set_drop_filter(self, fn) -> None:
        """Install a packet-loss injector on every switch (tests)."""
        for switch in self.all_switches():
            switch.drop_filter = fn

    def may_drop(self) -> bool:
        """True when this fabric can destroy packets outright — injected
        Bernoulli loss or an armed fault schedule (black holes, dead
        switches).  Transports consult this at attach time to switch on
        their loss-recovery machinery; congestion-native drops (pFabric
        priority-drop, NDP trimming) are recovered by each protocol's
        clean-path mechanics and do not count.
        """
        return (self.fault_injector is not None
                or any(switch.drop_filter is not None
                       for switch in self.all_switches()))

    def attach_transports(self, factory) -> list:
        """Build one transport per host via ``factory(host) -> transport``."""
        transports = []
        for host in self.hosts:
            transport = factory(host)
            host.attach(transport)
            transports.append(transport)
        return transports

    # ------------------------------------------------------------------
    # timing oracles
    # ------------------------------------------------------------------
    #
    # A path belongs to one of three tiers: 0 = same rack (one switch),
    # 1 = cross rack inside a pod (ToR-aggr-ToR, every cross-rack path
    # of a 2-level tree), 2 = cross pod (ToR-aggr-core-aggr-ToR).  Tier
    # t crosses 2t+1 switches; its middle links cost ``_mid_ppb(t)``
    # picoseconds per byte on top of the two host links.

    def _mid_ppb(self, tier: int) -> int:
        if tier == 0:
            return 0
        spec = self.spec
        mid = 2 * ps_per_byte(spec.aggr_gbps)
        return mid + 2 * ps_per_byte(spec.core_gbps) if tier == 2 else mid

    def rtt_ps(self) -> int:
        """Grant-to-data round trip on the fabric's longest path: small
        control packet one way, a full-size data packet back, with
        software delay at both ends."""
        ctrl = self._packet_transit_ps(MIN_WIRE)
        data = self._packet_transit_ps(FULL_WIRE)
        return ctrl + data + 2 * self.spec.software_delay_ns * NS

    def rtt_bytes(self) -> int:
        """Bytes a 10 Gbps sender can push during one RTT (paper: ~9.7 KB)."""
        return self.rtt_ps() // ps_per_byte(self.spec.host_gbps)

    def _packet_transit_ps(self, wire: int) -> int:
        """End-to-end time of one packet on the fabric's longest idle
        path (no software)."""
        spec = self.spec
        tier = spec.levels - 1 if spec.racks_total > 1 else 0
        return (2 * wire * ps_per_byte(spec.host_gbps)
                + (2 * tier + 1) * spec.switch_delay_ns * NS
                + wire * self._mid_ppb(tier))

    def _min_oneway_tier_ps(self, length: int, tier: int) -> int:
        """Best possible one-way message time on an unloaded path.

        Tier 0 (one switch, one path): packets cannot reorder, so the
        exact store-and-forward FIFO pipeline applies — the sender
        serializes packets back to back and the receiver's downlink is
        the sequential bottleneck stage.

        Higher tiers: per-packet spraying lets a small trailing packet
        overtake full packets on another path, so the tight achievable
        bound is taken over the k largest packets: the last of the k
        largest to leave the host cannot leave before their combined
        serialization time, and then still needs its own transit and
        downlink serialization.  Aggregation and core hops are pure
        delay (faster links cannot queue behind one host-speed source).

        Includes the receiver's software delay, matching the paper's
        "minimum one-way time for a small message is 2.3 us".
        """
        key = (length, tier)
        cached = self._oneway_cache.get(key)
        if cached is not None:
            return cached
        spec = self.spec
        ppb_h = ps_per_byte(spec.host_gbps)
        sw = spec.switch_delay_ns * NS

        # The packet list is `full` identical FULL_WIRE frames plus an
        # optional smaller trailer, so both bounds below close-form over
        # the uniform prefix instead of building and scanning a list
        # whose length is the message's packet count (this runs once
        # per distinct message size, and W4/W5 sizes rarely repeat).
        full, rest = divmod(length, MAX_PAYLOAD)
        rest_wire = wire_size(rest) if rest else 0

        if tier == 0:  # single switch on the path: exact FIFO pipeline
            # With equal frames the downlink is saturated back to back:
            # it frees at (k+1) * wire-time + switch delay; the smaller
            # trailer then appends its own serialization.
            if full:
                result = (full + 1) * FULL_WIRE * ppb_h + sw
                if rest:
                    result += rest_wire * ppb_h
            else:
                result = 2 * rest_wire * ppb_h + sw
        else:
            # max over the k-largest-prefix bound: strictly increasing
            # in k across the uniform prefix, so only k = full and the
            # full-plus-trailer candidates can win.
            transit = (2 * tier + 1) * sw
            per_byte = self._mid_ppb(tier) + ppb_h
            cum = full * FULL_WIRE * ppb_h
            result = cum + transit + FULL_WIRE * per_byte if full else 0
            if rest:
                cum += rest_wire * ppb_h
                result = max(result, cum + transit + rest_wire * per_byte)
        result += spec.software_delay_ns * NS
        self._oneway_cache[key] = result
        return result

    # The oracle is addressed by endpoints: callers name a concrete
    # (src, dst) pair and the network decides which path tier applies.

    def min_oneway_between(self, src: int, dst: int, length: int) -> int:
        """Best possible one-way time of a ``length``-byte message from
        ``src`` to ``dst`` on an unloaded network."""
        hosts = self.spec.hosts_per_rack
        if src // hosts == dst // hosts:
            tier = 0
        elif not self.cores or src // self._pod_hosts == dst // self._pod_hosts:
            tier = 1
        else:
            tier = 2
        return self._min_oneway_tier_ps(length, tier)

    def min_rpc_between(self, src: int, dst: int,
                        request: int, response: int) -> int:
        """Best possible echo-RPC round trip (client send -> response
        done)."""
        return (self.min_oneway_between(src, dst, request)
                + self.min_oneway_between(dst, src, response))


def build_network(sim: Simulator, cfg: NetworkConfig | None = None) -> Network:
    """Construct the 2-level network ``cfg``'s shape fields describe, at
    :class:`TopologySpec`'s default speeds and delays; the default
    configuration is the paper's Fig 11.  A single rack has no
    aggregation switches."""
    cfg = cfg or NetworkConfig()
    spec = TopologySpec(levels=2, racks=cfg.racks,
                        hosts_per_rack=cfg.hosts_per_rack,
                        aggrs=cfg.aggrs if cfg.racks > 1 else 0)
    return Network(sim, spec, cfg)


# ---------------------------------------------------------------------------
# declarative fabrics: 3-level trees, oversubscription, loss, faults
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologySpec:
    """A declarative fabric: shape, per-layer speeds, loss, and faults.

    ``levels=2`` describes the paper's ToR/aggr tree (``pods`` must be 1
    and ``cores`` 0); ``levels=3`` adds a core layer: ``pods`` pods of
    ``racks`` racks each, ``aggrs`` aggregation switches per pod, and
    ``cores`` core switches total.  Core switch ``c`` connects to
    aggregation position ``c // (cores // aggrs)`` in every pod, so each
    aggr has ``cores // aggrs`` core uplinks and any two pods are
    connected through every core.

    Oversubscription is an emergent ratio of the declared shape
    (``tor_oversubscription``/``aggr_oversubscription``), not an input:
    pick ``hosts_per_rack``/``aggrs``/``cores`` and link speeds to hit a
    target ratio.

    Every :class:`Network` is built from a spec (:func:`build_network`
    writes one for a :class:`NetworkConfig`'s 2-level shape), and the
    spec is the only place a shape is validated.  A spec with ``loss``
    all zero and no ``faults`` is *clean*: nothing on it destroys
    packets.
    """

    levels: int = 2
    pods: int = 1
    racks: int = 3            # per pod
    hosts_per_rack: int = 8
    aggrs: int = 2            # per pod
    cores: int = 0            # total; levels=3 only
    host_gbps: int = 10
    aggr_gbps: int = 40
    core_gbps: int = 100
    switch_delay_ns: int = 250
    software_delay_ns: int = 1500
    loss: LossRates = field(default_factory=LossRates)
    faults: tuple = ()        # of FaultEvent

    def __post_init__(self) -> None:
        if self.levels not in (2, 3):
            raise ValueError(
                f"TopologySpec.levels must be 2 or 3, got {self.levels!r}")
        # Before the cores check, which divides by aggrs.
        if self.aggrs < 1 and (self.levels == 3 or self.racks > 1):
            raise ValueError(
                f"TopologySpec.aggrs must be >= 1 on a multi-rack fabric, "
                f"got {self.aggrs!r}")
        if self.levels == 2:
            if self.pods != 1:
                raise ValueError(
                    f"TopologySpec.pods must be 1 on a 2-level fabric, "
                    f"got {self.pods!r}")
            if self.cores != 0:
                raise ValueError(
                    f"TopologySpec.cores must be 0 on a 2-level fabric, "
                    f"got {self.cores!r}")
        else:
            if self.pods < 2:
                raise ValueError(
                    f"TopologySpec.pods must be >= 2 on a 3-level fabric, "
                    f"got {self.pods!r}")
            if self.cores < self.aggrs or self.cores % self.aggrs:
                raise ValueError(
                    f"TopologySpec.cores must be a positive multiple of "
                    f"aggrs ({self.aggrs}), got {self.cores!r}")
        if self.racks < 1:
            raise ValueError(
                f"TopologySpec.racks must be >= 1, got {self.racks!r}")
        if self.hosts_per_rack < 1:
            raise ValueError(
                f"TopologySpec.hosts_per_rack must be >= 1, "
                f"got {self.hosts_per_rack!r}")
        if self.host_gbps < 1:
            raise ValueError(
                f"TopologySpec.host_gbps must be >= 1, "
                f"got {self.host_gbps!r}")
        # The oracles assume upper layers never serialize slower than
        # the layer below (a trailing packet can then never queue behind
        # itself mid-tree) — standard fat-tree speed mixes all qualify.
        if self.aggr_gbps < self.host_gbps:
            raise ValueError(
                f"TopologySpec.aggr_gbps must be >= host_gbps "
                f"({self.host_gbps}), got {self.aggr_gbps!r}")
        if self.levels == 3 and self.core_gbps < self.aggr_gbps:
            raise ValueError(
                f"TopologySpec.core_gbps must be >= aggr_gbps "
                f"({self.aggr_gbps}), got {self.core_gbps!r}")
        if self.switch_delay_ns < 0:
            raise ValueError(
                f"TopologySpec.switch_delay_ns must be >= 0, "
                f"got {self.switch_delay_ns!r}")
        if self.software_delay_ns < 0:
            raise ValueError(
                f"TopologySpec.software_delay_ns must be >= 0, "
                f"got {self.software_delay_ns!r}")
        if not isinstance(self.loss, LossRates):
            raise ValueError(
                f"TopologySpec.loss must be a LossRates, got {self.loss!r}")
        object.__setattr__(self, "faults", tuple(self.faults))
        for i, ev in enumerate(self.faults):
            if not isinstance(ev, FaultEvent):
                raise ValueError(
                    f"TopologySpec.faults[{i}] must be a FaultEvent, "
                    f"got {ev!r}")

    # -- shape arithmetic ------------------------------------------------

    @property
    def racks_total(self) -> int:
        return self.pods * self.racks

    @property
    def n_hosts(self) -> int:
        return self.racks_total * self.hosts_per_rack

    @property
    def core_links_per_aggr(self) -> int:
        return self.cores // self.aggrs if self.aggrs else 0

    @property
    def tor_oversubscription(self) -> float:
        """Host capacity entering a ToR over its uplink capacity."""
        if self.racks_total == 1:
            return 0.0
        return ((self.hosts_per_rack * self.host_gbps)
                / (self.aggrs * self.aggr_gbps))

    @property
    def aggr_oversubscription(self) -> float:
        """ToR capacity entering an aggr over its core-link capacity."""
        if self.levels == 2:
            return 0.0
        return ((self.racks * self.aggr_gbps)
                / (self.core_links_per_aggr * self.core_gbps))

    def is_clean(self) -> bool:
        """No loss, no faults: nothing on this fabric destroys packets."""
        return not self.loss.any() and not self.faults

    # -- payload round-trip ---------------------------------------------

    @classmethod
    def from_payload(cls, payload: dict) -> "TopologySpec":
        data = dict(payload)
        loss = data.pop("loss", None)
        if not isinstance(loss, LossRates):
            loss = LossRates.from_payload(loss)
        faults = tuple(
            ev if isinstance(ev, FaultEvent) else FaultEvent.from_payload(ev)
            for ev in data.pop("faults", None) or ())
        return cls(loss=loss, faults=faults, **data)


def build_fabric(sim: Simulator, spec: TopologySpec, *, seed: int = 1,
                 overrides: dict | None = None) -> Network:
    """Build the network a :class:`TopologySpec` describes, then install
    its loss filters (they run before the spray draw, so a zero-rate
    spec stays untouched), then arm its fault schedule.

    ``overrides`` are protocol NetworkConfig overrides (queue mode, ECN,
    trimming...) from ``transport.registry.network_overrides``.
    """
    net = Network(sim, spec, NetworkConfig(seed=seed, **(overrides or {})))
    install_loss(net, spec.loss, seed)
    if spec.faults:
        net.fault_injector = FaultInjector(sim, net, spec.faults)
        net.fault_injector.arm()
    return net
