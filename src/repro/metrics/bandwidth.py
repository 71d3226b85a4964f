"""Bandwidth accounting: utilization (Figure 15) and wasted receiver
downlink bandwidth (Figure 16).

Wasted bandwidth follows the paper's definition: "the average fraction
of time across all receivers that a receiver's link is idle, yet the
receiver withheld grants (because of overcommitment limits) that might
have caused the bandwidth to be used".  We intersect two independently
observed signals per receiver: the TOR->host port's busy/idle state and
the transport's withheld flag.
"""

from __future__ import annotations

from repro.core.packet import PacketType
from repro.core.port import PortProbe
from repro.core.topology import Network
from repro.core.units import bytes_per_sec
from repro.metrics.probes import attach_probe


class _DownlinkMeter(PortProbe):
    """Wire/app byte counters for one receiver downlink."""

    def __init__(self) -> None:
        self.wire_bytes = 0
        self.app_bytes = 0

    def on_tx_done(self, now_ps, pkt) -> None:
        self.wire_bytes += pkt.wire
        if pkt.kind == PacketType.DATA and not pkt.retx:
            self.app_bytes += pkt.payload


class ThroughputMeter:
    """Aggregate goodput at the receiver downlinks (Figure 15 bars).

    Utilization is measured over the traffic-generation window only: a
    snapshot is taken when generation stops (``snapshot()``, scheduled
    by the runner), so the drain period does not dilute the fractions.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.start_ps = net.sim.now
        self.meters = []
        self._snap_ps: int | None = None
        self._snap_wire = 0
        self._snap_app = 0
        for port in net.tor_down_ports:
            meter = _DownlinkMeter()
            self.meters.append(meter)
            attach_probe(port, meter)

    def snapshot(self) -> None:
        """Freeze counters; call when traffic generation ends."""
        self._snap_ps = self.net.sim.now
        self._snap_wire = sum(m.wire_bytes for m in self.meters)
        self._snap_app = sum(m.app_bytes for m in self.meters)

    def _window(self) -> tuple[float, int, int]:
        if self._snap_ps is not None:
            end, wire, app = (self._snap_ps, self._snap_wire, self._snap_app)
        else:
            end = self.net.sim.now
            wire = sum(m.wire_bytes for m in self.meters)
            app = sum(m.app_bytes for m in self.meters)
        duration_s = (end - self.start_ps) / 1e12
        capacity = (len(self.meters) * bytes_per_sec(self.net.spec.host_gbps)
                    * duration_s)
        return capacity, wire, app

    def total_utilization(self) -> float:
        """Wire bytes (headers + control + data) over capacity."""
        capacity, wire, _ = self._window()
        return wire / capacity if capacity > 0 else 0.0

    def app_utilization(self) -> float:
        """First-copy application payload bytes over capacity."""
        capacity, _, app = self._window()
        return app / capacity if capacity > 0 else 0.0


class _IdleWithheldAccount(PortProbe):
    """Integrates time where the downlink is idle AND grants are withheld."""

    def __init__(self, start_ps: int) -> None:
        self.busy = False
        self.withheld = False
        self.last_ps = start_ps
        self.wasted_ps = 0

    def _accumulate(self, now_ps: int) -> None:
        if not self.busy and self.withheld:
            self.wasted_ps += now_ps - self.last_ps
        self.last_ps = now_ps

    def on_busy_change(self, now_ps: int, busy: bool) -> None:
        self._accumulate(now_ps)
        self.busy = busy

    def set_withheld(self, now_ps: int, withheld: bool) -> None:
        self._accumulate(now_ps)
        self.withheld = withheld


class WastedBandwidthTracker:
    """Figure 16: fraction of receiver downlink time wasted by
    overcommitment limits, averaged across receivers."""

    def __init__(self, net: Network, transports) -> None:
        self.net = net
        self.start_ps = net.sim.now
        self._snap_ps: int | None = None
        self.accounts: dict[int, _IdleWithheldAccount] = {}
        for host, port in zip(net.hosts, net.tor_down_ports):
            account = _IdleWithheldAccount(self.start_ps)
            self.accounts[host.hid] = account
            attach_probe(port, account)
        for transport in transports:
            if hasattr(transport, "withheld_observer"):
                transport.withheld_observer = self._on_withheld

    def _on_withheld(self, hid: int, withheld: bool) -> None:
        self.accounts[hid].set_withheld(self.net.sim.now, withheld)

    def snapshot(self) -> None:
        """Freeze the measurement window at generation end."""
        now = self.net.sim.now
        for account in self.accounts.values():
            account._accumulate(now)
        self._snap_ps = now

    def wasted_fraction(self) -> float:
        end = getattr(self, "_snap_ps", None)
        if end is None:
            end = self.net.sim.now
            for account in self.accounts.values():
                account._accumulate(end)
        duration = end - self.start_ps
        if duration <= 0:
            return 0.0
        total = sum(a.wasted_ps for a in self.accounts.values())
        return total / (duration * len(self.accounts))
