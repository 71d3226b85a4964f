"""Open-loop one-way message generation (the section 5.2 experiments).

"New messages are created at senders according to a Poisson process;
the size of each message is chosen from one of the workloads in Figure
1, and the destination for the message is chosen uniformly at random."
"""

from __future__ import annotations

from heapq import heappush

import numpy as np

from repro.core.engine import Simulator
from repro.core.topology import Network
from repro.workloads.distributions import EmpiricalCDF, UniformIndex


class PoissonSource:
    """The draw path both open-loop generators share (this module's
    ``OpenLoopSender`` and ``apps/echo.py``'s ``EchoClient``): Poisson
    arrivals until ``stop_ps`` or ``cap`` submissions, a size from
    ``cdf`` and a uniform choice among ``peers`` per message.

    One numpy ``Generator`` per source, drawn in a fixed order per
    message — the size (``random``), the peer (``integers``, by
    :class:`UniformIndex`), then the gap to the next message
    (``exponential``) — so a run is a function of the seed.  A subclass
    implements ``_send``: draw with ``cdf.sample_one(self.rng)`` and
    ``self._peer()``, submit, count ``submitted``, then call
    ``_schedule_next``.  Each draw skips a scalar numpy call where a
    cheaper one gives the same bits: ``EmpiricalCDF.sample_one`` and
    :class:`UniformIndex` replace ``np.interp`` and ``integers``, and
    ``exponential(scale)`` is ``scale * standard_exponential()``, which
    is how numpy computes it.
    """

    def __init__(self, sim: Simulator, transport, peers: list[int],
                 cdf: EmpiricalCDF, rate_per_sec: float, *, seed: int,
                 stop_ps: int, cap: int | None) -> None:
        self.sim = sim
        self.transport = transport
        self.peers = peers
        self.cdf = cdf
        self.mean_ia_ps = 1e12 / rate_per_sec
        self.rng = np.random.default_rng(seed)
        self._index = UniformIndex(self.rng)
        self._exponential = self.rng.standard_exponential
        self.stop_ps = stop_ps
        self.cap = cap
        self.submitted = 0
        self._schedule_next()

    def _peer(self) -> int:
        peers = self.peers
        return peers[self._index.draw(len(peers))]

    def _schedule_next(self) -> None:
        sim = self.sim
        time_ps = (sim.now + 1
                   + int(self.mean_ia_ps * self._exponential()))
        if time_ps >= self.stop_ps:
            return
        if self.cap is not None and self.submitted >= self.cap:
            return
        # Simulator.schedule, inlined (once per message; see _file_far)
        sim._seq += 1
        event = [time_ps, sim._seq, self._send, None]
        if time_ps < sim._horizon:
            heappush(sim._heap, event)
        else:
            sim._file_far(event, time_ps)

    def _send(self) -> None:
        raise NotImplementedError


class OpenLoopSender(PoissonSource):
    """Poisson generator of one-way messages from one host."""

    def __init__(
        self,
        sim: Simulator,
        transport,
        peers: list[int],
        cdf: EmpiricalCDF,
        rate_per_sec: float,
        *,
        seed: int,
        stop_ps: int,
        max_messages: int | None = None,
        delay_tracker=None,
    ) -> None:
        self.delay_tracker = delay_tracker
        self.submitted_bytes = 0
        super().__init__(sim, transport, peers, cdf, rate_per_sec,
                         seed=seed, stop_ps=stop_ps, cap=max_messages)

    def _send(self) -> None:
        size = self.cdf.sample_one(self.rng)
        msg = self.transport.send_message(self._peer(), size)
        self.submitted += 1
        self.submitted_bytes += size
        if self.delay_tracker is not None:
            alloc = getattr(self.transport, "alloc", None)
            prio = alloc.unsched_prio(size) if alloc is not None else 0
            self.delay_tracker.on_submit(self.transport.host, msg.key,
                                         size, prio)
        self._schedule_next()


def attach_openloop_workload(
    net: Network,
    transports,
    cdf: EmpiricalCDF,
    rate_per_sec: float,
    *,
    stop_ps: int,
    seed: int = 1,
    max_messages_total: int | None = None,
    delay_tracker=None,
) -> list[OpenLoopSender]:
    """One generator per host, all-to-all uniform destinations."""
    n = len(net.hosts)
    per_host_cap = None
    if max_messages_total is not None:
        per_host_cap = max(1, max_messages_total // n)
    senders = []
    for host, transport in zip(net.hosts, transports):
        peers = [h for h in range(n) if h != host.hid]
        senders.append(OpenLoopSender(
            net.sim, transport, peers, cdf, rate_per_sec,
            seed=seed * 100_003 + host.hid, stop_ps=stop_ps,
            max_messages=per_host_cap, delay_tracker=delay_tracker))
    return senders
