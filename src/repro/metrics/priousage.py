"""Per-priority network usage (Figure 21).

Measures the bytes transmitted at each priority level on the receiver
downlinks — where Homa's priorities act — as a fraction of the total
available downlink bandwidth.
"""

from __future__ import annotations

from repro.core.packet import N_PRIORITIES
from repro.core.port import PortProbe
from repro.core.topology import Network
from repro.core.units import bytes_per_sec
from repro.metrics.probes import attach_probe


class _PrioMeter(PortProbe):
    def __init__(self) -> None:
        self.bytes_at = [0] * N_PRIORITIES

    def on_tx_done(self, now_ps, pkt) -> None:
        self.bytes_at[pkt.prio] += pkt.wire


class PriorityUsage:
    """Aggregates per-priority downlink bytes across all receivers.

    Like ThroughputMeter, fractions are measured over the generation
    window when the runner schedules a ``snapshot()`` at its end.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.start_ps = net.sim.now
        self.meters = []
        self._snap_ps: int | None = None
        self._snap_totals: list[int] | None = None
        for port in net.tor_down_ports:
            meter = _PrioMeter()
            self.meters.append(meter)
            attach_probe(port, meter)

    def _totals(self) -> list[int]:
        totals = [0] * N_PRIORITIES
        for meter in self.meters:
            for prio in range(N_PRIORITIES):
                totals[prio] += meter.bytes_at[prio]
        return totals

    def snapshot(self) -> None:
        """Freeze counters; call when traffic generation ends."""
        self._snap_ps = self.net.sim.now
        self._snap_totals = self._totals()

    def fractions(self) -> list[float]:
        """Fraction of downlink capacity carried at each priority level
        (index 0 = lowest priority), as in Figure 21's bars."""
        if self._snap_totals is not None:
            end, totals = self._snap_ps, self._snap_totals
        else:
            end, totals = self.net.sim.now, self._totals()
        duration_s = (end - self.start_ps) / 1e12
        capacity = (len(self.meters) * bytes_per_sec(self.net.spec.host_gbps)
                    * duration_s)
        if capacity <= 0:
            return [0.0] * N_PRIORITIES
        return [t / capacity for t in totals]
