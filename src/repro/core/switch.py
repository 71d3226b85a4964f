"""Store-and-forward switches.

A switch receives a fully serialized packet, spends a fixed internal
processing delay (250 ns in the paper's simulations), then places it on
the egress port chosen by its routing function.  Routing functions are
closures installed by the topology builder, which is also where packet
spraying across uplinks happens.

Fault-injection hooks (all default-off, all cold on the canonical
path — the fused ingress closures in ``core/topology.py`` bypass
``Switch.ingress`` entirely and check ``drop_filter`` themselves):

* ``drop_filter``: if set and it returns True for a packet, the switch
  silently discards it (as if corrupted on the input link).  This is
  how per-layer loss rates are injected (``core/faults.py``).
* ``dead``: a switch killed by a scheduled ``FaultEvent`` drops every
  packet that reaches it (counted in ``fault_drops``) until restored.
* a routing function may return ``None`` when a fault has removed every
  viable egress (a dead downlink with no alternative path); the packet
  is then black-holed and counted in ``routed_drops``.

Dropped pool-born packets are recycled immediately — a lossy run must
not grow the pool by its drop count (``core/pool.py``).
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.core.pool import free_packet


class Switch:
    """A single switch: ingress delay plus a routing function."""

    __slots__ = ("sim", "name", "delay_ps", "route", "ports", "level",
                 "drop_filter", "injected_drops", "dead", "fault_drops",
                 "routed_drops")

    def __init__(self, sim: Simulator, name: str, delay_ps: int,
                 level: str = "") -> None:
        self.sim = sim
        self.name = name
        self.delay_ps = delay_ps
        #: fabric layer ("tor" / "aggr" / "core"); keys the per-layer
        #: loss rates and the per-layer drop aggregation in metrics.
        self.level = level
        self.route: Callable[[Packet], object] | None = None
        self.ports: list = []
        self.drop_filter: Callable[[Packet], bool] | None = None
        self.injected_drops = 0
        #: killed by a FaultEvent: drop everything until restored
        self.dead = False
        self.fault_drops = 0
        #: packets whose route came back None (no live egress)
        self.routed_drops = 0

    def ingress(self, pkt: Packet) -> None:
        """Called when a packet has fully arrived on an input link.

        The egress port is chosen here rather than after the processing
        delay: the delay is a constant, so the relative order of routing
        decisions (and hence the spray RNG stream) is unchanged, and the
        packet needs one scheduled event instead of a forward trampoline.
        """
        if self.dead:
            self.fault_drops += 1
            free_packet(pkt)
            return
        if self.drop_filter is not None and self.drop_filter(pkt):
            self.injected_drops += 1
            free_packet(pkt)
            return
        port = self.route(pkt)
        if port is None:
            # A fault removed every viable egress: black hole.
            self.routed_drops += 1
            free_packet(pkt)
            return
        if self.delay_ps:
            self.sim.schedule1(self.delay_ps, port.enqueue_cb, pkt)
        else:
            port.enqueue(pkt)
