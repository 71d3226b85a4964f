"""Protocol registry: name -> network overrides + transport factory.

Each protocol needs both a transport implementation and matching switch
behaviour (pFabric's priority-drop queues, PIAS's ECN marking, NDP's
trimming).  ``network_overrides`` returns the NetworkConfig adjustments;
``transport_factory`` builds per-host transports.
"""

from __future__ import annotations

from typing import Callable

from repro.core.engine import Simulator
from repro.core.packet import FULL_WIRE
from repro.core.pool import PacketPool
from repro.core.topology import Network
from repro.transport.base import RecoveryConfig
from repro.baselines.ndp import NdpTransport
from repro.baselines.pfabric import PfabricTransport
from repro.baselines.phost import PHostTransport
from repro.baselines.pias import PiasTransport, pias_thresholds
from repro.baselines.stream import StreamTransport
from repro.homa.config import HomaConfig
from repro.homa.priorities import allocate_priorities
from repro.homa.transport import HomaTransport
from repro.workloads.distributions import EmpiricalCDF

#: every protocol name the experiment runner accepts
PROTOCOLS = ("homa", "basic", "pfabric", "phost", "pias", "ndp",
             "stream", "stream_mc")

#: name used for control-packet overhead accounting (loadcalc)
OVERHEAD_MODEL = {
    "homa": "homa",
    "basic": "basic",
    "pfabric": "pfabric",
    "phost": "phost",
    "pias": "pias",
    "ndp": "ndp",
    "stream": "stream",
    "stream_mc": "stream",
}


def network_overrides(protocol: str) -> dict:
    """NetworkConfig field overrides required by a protocol."""
    if protocol == "pfabric":
        return {"queue_mode": "pfabric"}
    if protocol == "pias":
        # DCTCP-style marking threshold ~2 BDP at our tiny RTT.
        return {"ecn_threshold_bytes": 2 * 9680}
    if protocol == "ndp":
        # "NDP strictly limits queues to 8 packets."
        return {"trim_threshold_bytes": 8 * FULL_WIRE}
    if protocol in PROTOCOLS:
        return {}
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")


def transport_factory(
    protocol: str,
    sim: Simulator,
    net: Network,
    cdf: EmpiricalCDF,
    homa_cfg: HomaConfig | None = None,
) -> Callable:
    """Returns fn(host) -> transport for ``Network.attach_transports``."""
    rtt_bytes = net.rtt_bytes()
    rtt_ps = net.rtt_ps()
    host_gbps = net.spec.host_gbps
    # Loss recovery is armed only when the fabric can actually drop
    # (injected loss filters or an armed fault schedule): on a clean
    # fabric ``recovery`` is None and no transport schedules a single
    # recovery event, keeping clean digests byte-identical.
    may_drop = net.may_drop()
    recovery = RecoveryConfig(base_ps=3 * rtt_ps) if may_drop else None

    if protocol in ("homa", "basic"):
        cfg = homa_cfg or (HomaConfig.basic() if protocol == "basic"
                           else HomaConfig())
        unsched = cfg.resolved_unsched_limit(rtt_bytes)
        alloc = allocate_priorities(
            cdf, unsched,
            n_prios=cfg.n_prios,
            n_unsched_override=cfg.n_unsched_override,
            n_sched_override=cfg.n_sched_override,
            cutoff_override=cfg.cutoff_override,
        )
        # One slot pool per run, shared by every host: packets recycle
        # at their destination regardless of which sender drew them.
        pool = PacketPool(cfg.pool_prealloc)
        return lambda host: HomaTransport(sim, cfg, alloc, rtt_bytes,
                                          link_gbps=host_gbps, pool=pool,
                                          peer_gc=may_drop)

    if protocol == "pfabric":
        return lambda host: PfabricTransport(sim, rtt_bytes=rtt_bytes,
                                             rtt_ps=rtt_ps,
                                             recovery=recovery)
    if protocol == "phost":
        return lambda host: PHostTransport(sim, rtt_bytes=rtt_bytes,
                                           host_gbps=host_gbps, rtt_ps=rtt_ps,
                                           recovery=recovery)
    if protocol == "pias":
        thresholds = pias_thresholds(cdf)
        return lambda host: PiasTransport(sim, thresholds=thresholds,
                                          rtt_ps=rtt_ps, recovery=recovery)
    if protocol == "ndp":
        return lambda host: NdpTransport(sim, rtt_bytes=rtt_bytes,
                                         host_gbps=host_gbps,
                                         recovery=recovery)
    if protocol == "stream":
        return lambda host: StreamTransport(sim, window_bytes=rtt_bytes,
                                            connections_per_pair=1,
                                            recovery=recovery)
    if protocol == "stream_mc":
        return lambda host: StreamTransport(sim, window_bytes=rtt_bytes,
                                            connections_per_pair=8,
                                            recovery=recovery)
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")
