"""Switch queue length statistics (Table 1).

The paper reports time-averaged and maximum egress queue lengths, in
KB, at the three switch levels (TOR->Aggr, Aggr->TOR, TOR->host),
excluding partially-transmitted packets — exactly what the port's
``qbytes`` tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.port import PortProbe
from repro.core.topology import Network
from repro.metrics.probes import attach_probe

#: Table 1 row labels keyed by port level tags
LEVELS = {
    "tor_up": "TOR->Aggr",
    "aggr_down": "Aggr->TOR",
    "tor_down": "TOR->host",
}


class QueueLengthProbe(PortProbe):
    """Time-weighted average and maximum of one port's queued bytes."""

    def __init__(self, start_ps: int) -> None:
        self.last_ps = start_ps
        self.last_qbytes = 0
        self.integral = 0  # byte·ps
        self.max_qbytes = 0

    def on_queue_change(self, now_ps: int, qbytes: int) -> None:
        self.integral += self.last_qbytes * (now_ps - self.last_ps)
        self.last_ps = now_ps
        self.last_qbytes = qbytes
        if qbytes > self.max_qbytes:
            self.max_qbytes = qbytes

    def mean_bytes(self, end_ps: int, start_ps: int) -> float:
        duration = end_ps - start_ps
        if duration <= 0:
            return 0.0
        integral = self.integral + self.last_qbytes * (end_ps - self.last_ps)
        return integral / duration


@dataclass
class QueueLevelStats:
    label: str
    mean_kb: float
    max_kb: float


class QueueStats:
    """Attaches queue probes to every switch port, grouped by level."""

    def __init__(self, net: Network) -> None:
        self.net = net
        self.start_ps = net.sim.now
        self.probes: dict[str, list[QueueLengthProbe]] = {
            level: [] for level in LEVELS}
        for port in net.all_switch_ports():
            if port.level in self.probes:
                probe = QueueLengthProbe(self.start_ps)
                self.probes[port.level].append(probe)
                attach_probe(port, probe)

    def report(self) -> list[QueueLevelStats]:
        end_ps = self.net.sim.now
        rows = []
        for level, label in LEVELS.items():
            probes = self.probes[level]
            if not probes:
                continue
            means = [p.mean_bytes(end_ps, self.start_ps) for p in probes]
            maxes = [p.max_qbytes for p in probes]
            rows.append(QueueLevelStats(
                label=label,
                mean_kb=sum(means) / len(means) / 1000.0,
                max_kb=max(maxes) / 1000.0,
            ))
        return rows
