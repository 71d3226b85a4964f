"""Store-and-forward switches.

A switch receives a fully serialized packet, spends a fixed internal
processing delay (250 ns in the paper's simulations), then places it on
an egress port.  ``Switch`` itself is state only: the per-hop work —
fault checks, routing, spraying, the delay and arrival fusion — is the
``ingress`` closure the topology builder installs
(``Network._make_ingress`` in ``core/topology.py``), which reads the
switch's forwarding tables and counters.

Fault-injection hooks (all default-off):

* ``drop_filter``: if set and it returns True for a packet, the switch
  silently discards it (as if corrupted on the input link).  This is
  how per-layer loss rates are injected (``core/faults.py``).
* ``dead``: a switch killed by a scheduled ``FaultEvent`` drops every
  packet that reaches it (counted in ``fault_drops``) until restored.
* a fault can remove every viable egress (a dead downlink, or no live
  uplink left to spray over); the packet is then black-holed and
  counted in ``routed_drops``.
"""

from __future__ import annotations

from typing import Callable

from repro.core.packet import Packet


class Switch:
    """One switch: forwarding tables, fault flags and drop counters."""

    __slots__ = ("name", "delay_ps", "level", "ports", "ingress", "table",
                 "live", "drop_filter", "injected_drops", "dead",
                 "fault_drops", "routed_drops")

    def __init__(self, name: str, delay_ps: int, level: str,
                 n_hosts: int) -> None:
        self.name = name
        self.delay_ps = delay_ps
        #: fabric layer ("tor" / "aggr" / "core"); keys the per-layer
        #: loss rates and the per-layer drop aggregation in metrics.
        self.level = level
        #: every egress port (a switch fault flushes them all)
        self.ports: list = []
        #: called with each packet that has fully arrived on an input link
        self.ingress: Callable[[Packet], None] | None = None
        #: by destination host: the egress port toward a host below this
        #: switch (False while the link that leads there is dead), None
        #: for a host elsewhere — those packets are sprayed upward
        self.table: list = [None] * n_hosts
        #: live uplink ports — the set per-packet spraying draws from
        self.live: list = []
        self.drop_filter: Callable[[Packet], bool] | None = None
        self.injected_drops = 0
        #: killed by a FaultEvent: drop everything until restored
        self.dead = False
        self.fault_drops = 0
        #: packets black-holed for want of a live egress
        self.routed_drops = 0
