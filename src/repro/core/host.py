"""Hosts: a NIC with a pull-model egress plus a software delay.

The paper's simulations assume host software has unlimited throughput
but a fixed 1.5 us delay between a packet arriving and any dependent
transmission starting.  We model that by delaying delivery to the
transport by ``software_delay_ps``; everything the transport does in
response (grants, data) then leaves immediately.
"""

from __future__ import annotations

from heapq import heappush

from repro.core.engine import Simulator
from repro.core.packet import Packet
from repro.core.port import PullPort


class Host:
    """One server: id, rack, an uplink NIC port, and a transport."""

    __slots__ = ("sim", "hid", "rack", "egress", "transport",
                 "software_delay_ps")

    def __init__(self, sim: Simulator, hid: int, rack: int, software_delay_ps: int) -> None:
        self.sim = sim
        self.hid = hid
        self.rack = rack
        self.egress: PullPort | None = None
        self.transport = None
        self.software_delay_ps = software_delay_ps

    def attach(self, transport) -> None:
        """Bind a transport to this host (and the NIC to the transport)."""
        self.transport = transport
        self.egress.source = transport.next_packet
        transport.bind(self)

    def ingress(self, pkt: Packet) -> None:
        """A packet finished arriving on the downlink."""
        # schedule1 inlined: one event per delivered packet.
        sim = self.sim
        time_ps = sim.now + self.software_delay_ps
        sim._seq += 1
        event = [time_ps, sim._seq, self._deliver, pkt]
        if time_ps < sim._horizon:
            heappush(sim._heap, event)
        else:
            sim._file_far(event, time_ps)

    def _deliver(self, pkt: Packet) -> None:
        self.transport.on_packet(pkt)
