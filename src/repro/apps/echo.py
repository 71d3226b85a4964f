"""Echo RPC applications (the section 5.1 implementation experiments).

"Each client generated a series of echo RPCs; each RPC sent a block of
a given size to a server, and the server returned the block back to the
client.  Clients chose RPC sizes pseudo-randomly to match one of the
workloads ... with Poisson arrivals configured to generate a particular
network load.  The server for each RPC was chosen at random."
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.apps.openloop import PoissonSource
from repro.core.engine import Simulator
from repro.core.topology import Network
from repro.workloads.distributions import EmpiricalCDF


def echo_handler(transport, server_rpc) -> None:
    """Server side: return a block of the same size (or app_meta hint)."""
    length = server_rpc.app_meta or server_rpc.request_length
    transport.respond(server_rpc, length)


def attach_echo_servers(transports, hosts: list[int]) -> None:
    for hid in hosts:
        transports[hid].rpc_handler = echo_handler


class EchoClient(PoissonSource):
    """Open-loop Poisson echo-RPC client on one host."""

    def __init__(
        self,
        sim: Simulator,
        transport,
        servers: list[int],
        cdf: EmpiricalCDF,
        rate_per_sec: float,
        *,
        seed: int,
        stop_ps: int,
        on_complete: Optional[Callable] = None,
        max_rpcs: int | None = None,
    ) -> None:
        self.on_complete = on_complete
        self.completed = 0
        self.errors = 0
        self._sizes: dict[int, tuple[int, int, int]] = {}  # rpc -> (dst, size, t0)
        super().__init__(sim, transport, servers, cdf, rate_per_sec,
                         seed=seed, stop_ps=stop_ps, cap=max_rpcs)

    def _send(self) -> None:
        size = self.cdf.sample_one(self.rng)
        dst = self._peer()
        rpc_id = self.transport.send_rpc(
            dst, size, on_response=self._on_response, on_error=self._on_error)
        self._sizes[rpc_id] = (dst, size, self.sim.now)
        self.submitted += 1
        self._schedule_next()

    def _on_response(self, rpc_id: int, msg) -> None:
        dst, size, t0 = self._sizes.pop(rpc_id)
        self.completed += 1
        if self.on_complete is not None:
            self.on_complete(self.transport.hid, dst, size, t0, self.sim.now)

    def _on_error(self, rpc_id: int) -> None:
        self._sizes.pop(rpc_id, None)
        self.errors += 1


def attach_echo_workload(
    net: Network,
    transports,
    cdf: EmpiricalCDF,
    rate_per_sec: float,
    *,
    stop_ps: int,
    seed: int = 1,
    on_complete: Optional[Callable] = None,
    max_rpcs_total: int | None = None,
) -> list[EchoClient]:
    """First half of the hosts are clients, second half are servers
    (the paper's 8-client / 8-server CloudLab arrangement)."""
    n = len(net.hosts)
    clients = list(range(n // 2))
    servers = list(range(n // 2, n))
    attach_echo_servers(transports, servers)
    per_client_cap = None
    if max_rpcs_total is not None:
        per_client_cap = max(1, max_rpcs_total // len(clients))
    apps = []
    for hid in clients:
        apps.append(EchoClient(
            net.sim, transports[hid], servers, cdf, rate_per_sec,
            seed=seed * 99_991 + hid, stop_ps=stop_ps,
            on_complete=on_complete, max_rpcs=per_client_cap))
    return apps
