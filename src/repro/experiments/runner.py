"""The experiment runner: a config in, a metrics bundle out.

Every figure/table benchmark builds one or more ``ExperimentConfig``s,
calls ``run_experiment``, and formats the resulting series.  The
defaults are a scaled-down version of the paper's Figure 11 topology
(Python is not line-rate; docs/CAMPAIGNS.md has the grid scales), with
the same link speeds, delays, and protocol parameters.
"""

from __future__ import annotations

import gc
import time
from dataclasses import asdict, dataclass, field

from repro.apps.echo import attach_echo_workload
from repro.apps.openloop import attach_openloop_workload
from repro.core.engine import Simulator
from repro.core.packet import PacketType
from repro.core.topology import (
    NetworkConfig,
    TopologySpec,
    build_fabric,
    build_network,
)
from repro.core.units import MS
from repro.homa.config import HomaConfig
from repro.metrics.bandwidth import ThroughputMeter, WastedBandwidthTracker
from repro.metrics.control import ControlTraffic, FabricHealth
from repro.metrics.delays import DelayDecomposition
from repro.metrics.priousage import PriorityUsage
from repro.metrics.queues import QueueLevelStats, QueueStats
from repro.metrics.slowdown import SlowdownTracker
from repro.transport.registry import (
    OVERHEAD_MODEL,
    network_overrides,
    transport_factory,
)
from repro.workloads.catalog import get_workload
from repro.workloads.loadcalc import arrival_rate_per_host


@dataclass
class ExperimentConfig:
    """One simulation run."""

    protocol: str = "homa"
    workload: str = "W3"
    load: float = 0.8
    # Reduced-scale defaults (same shape as Figure 11, whose full size
    # is NetworkConfig's default).
    racks: int = 3
    hosts_per_rack: int = 8
    aggrs: int = 2
    duration_ms: float = 20.0     # message generation window
    warmup_ms: float = 2.0        # discarded from statistics
    drain_ms: float = 10.0        # extra time for in-flight completions
    seed: int = 1
    mode: str = "oneway"          # "oneway" (5.2) or "rpc_echo" (5.1)
    max_messages: int | None = None
    #: None lets the factory pick protocol defaults (importantly,
    #: HomaConfig.basic() for protocol="basic")
    homa: HomaConfig | None = None
    collect: tuple[str, ...] = ()  # of: queues, priousage, wasted,
    #                                    throughput, delays
    net_overrides: dict = field(default_factory=dict)
    #: None uses the canonical 2-level fabric above (racks/hosts_per_rack/
    #: aggrs); a TopologySpec supersedes those fields and may add a third
    #: switch level, per-layer loss, and a fault schedule (docs/FABRICS.md)
    fabric: TopologySpec | None = None

    def to_payload(self) -> dict:
        """JSON-safe form (tuples become lists; see from_payload)."""
        return asdict(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentConfig":
        data = dict(payload)
        homa = data.pop("homa", None)
        if homa is not None:
            homa = dict(homa)
            if homa.get("cutoff_override") is not None:
                homa["cutoff_override"] = tuple(homa["cutoff_override"])
            homa = HomaConfig(**homa)
        fabric = data.pop("fabric", None)
        if fabric is not None and not isinstance(fabric, TopologySpec):
            fabric = TopologySpec.from_payload(fabric)
        data["collect"] = tuple(data.get("collect") or ())
        data["net_overrides"] = dict(data.get("net_overrides") or {})
        return cls(homa=homa, fabric=fabric, **data)


@dataclass
class ExperimentResult:
    """Everything a figure needs from one run."""

    cfg: ExperimentConfig
    tracker: SlowdownTracker
    submitted: int
    completed: int
    pending: int
    sim_time_ms: float
    events: int
    wall_seconds: float
    queue_rows: list[QueueLevelStats] = field(default_factory=list)
    prio_fractions: list[float] = field(default_factory=list)
    wasted_fraction: float = 0.0
    total_utilization: float = 0.0
    app_utilization: float = 0.0
    delay_breakdown: tuple[float, float] = (0.0, 0.0)
    aborted: int = 0
    #: control-event totals (GRANT/RESEND/BUSY packets, pacer ticks),
    #: always collected — the grant pacer's reduction is read from here
    control: ControlTraffic = field(default_factory=ControlTraffic)
    #: outstanding bytes (submitted - received) sampled mid-generation
    #: and at generation end; their ratio detects open-loop instability
    #: even when a long drain lets everything eventually finish
    backlog_mid_bytes: int = 0
    backlog_end_bytes: int = 0
    #: fabric drop/reroute accounting; all-zero on clean fabrics
    fabric: FabricHealth = field(default_factory=FabricHealth)

    @property
    def finish_rate(self) -> float:
        """Fraction of submitted messages that completed (stability)."""
        return self.completed / self.submitted if self.submitted else 1.0

    @property
    def duplicates(self) -> int:
        """Messages delivered more often than submitted: an at-most-once
        violation that ``pending`` clamps to 0 and ``finish_rate`` shows
        only as a value above 1."""
        return max(0, self.completed - self.submitted)

    def backlog_growth(self) -> float:
        """backlog(end) / backlog(mid); ~1 when stable, ~2 when the
        offered load exceeds capacity (open-loop linear growth)."""
        if self.backlog_mid_bytes <= 0:
            return 1.0
        return self.backlog_end_bytes / self.backlog_mid_bytes

    def bucket_edges(self) -> list[int]:
        return get_workload(self.cfg.workload).bucket_edges()

    def slowdown_series(self, percentile: float) -> list[float]:
        return self.tracker.series(self.bucket_edges(), percentile)

    def to_payload(self) -> dict:
        """Compact JSON-safe form: everything figures read from a run,
        without live simulator objects, so results can cross process
        boundaries and persist in the on-disk campaign cache.  Every
        float round-trips exactly — scalars through json's repr, the
        per-message samples as the tracker's packed float64 column — so
        slowdown digests of a rehydrated result are byte-identical to
        the original.  ``from_payload`` holds the samples as the same two
        typed columns the live tracker records into (16 bytes a sample,
        no per-sample object); everything else is a few scalars."""
        return {
            "cfg": self.cfg.to_payload(),
            "tracker": self.tracker.to_payload(),
            "submitted": self.submitted,
            "completed": self.completed,
            "pending": self.pending,
            "sim_time_ms": self.sim_time_ms,
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "queue_rows": [[row.label, row.mean_kb, row.max_kb]
                           for row in self.queue_rows],
            "prio_fractions": list(self.prio_fractions),
            "wasted_fraction": self.wasted_fraction,
            "total_utilization": self.total_utilization,
            "app_utilization": self.app_utilization,
            "delay_breakdown": list(self.delay_breakdown),
            "aborted": self.aborted,
            "control": self.control.to_payload(),
            "backlog_mid_bytes": self.backlog_mid_bytes,
            "backlog_end_bytes": self.backlog_end_bytes,
            "fabric": self.fabric.to_payload(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ExperimentResult":
        return cls(
            cfg=ExperimentConfig.from_payload(payload["cfg"]),
            tracker=SlowdownTracker.from_payload(payload["tracker"]),
            submitted=payload["submitted"],
            completed=payload["completed"],
            pending=payload["pending"],
            sim_time_ms=payload["sim_time_ms"],
            events=payload["events"],
            wall_seconds=payload["wall_seconds"],
            queue_rows=[QueueLevelStats(label=label, mean_kb=mean, max_kb=mx)
                        for label, mean, mx in payload["queue_rows"]],
            prio_fractions=list(payload["prio_fractions"]),
            wasted_fraction=payload["wasted_fraction"],
            total_utilization=payload["total_utilization"],
            app_utilization=payload["app_utilization"],
            delay_breakdown=tuple(payload["delay_breakdown"]),
            aborted=payload["aborted"],
            control=ControlTraffic.from_payload(payload.get("control")),
            backlog_mid_bytes=payload["backlog_mid_bytes"],
            backlog_end_bytes=payload["backlog_end_bytes"],
            fabric=FabricHealth.from_payload(payload.get("fabric")),
        )


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Build, run, and measure one simulation."""
    wall_start = time.monotonic()
    sim = Simulator()
    overrides = dict(network_overrides(cfg.protocol))
    overrides.update(cfg.net_overrides)
    if cfg.fabric is not None:
        # Declarative fabric: the spec supplies shape, speeds, loss, and
        # faults; racks/hosts_per_rack/aggrs on this config are ignored.
        net = build_fabric(sim, cfg.fabric, seed=cfg.seed,
                           overrides=overrides)
    else:
        net = build_network(sim, NetworkConfig(
            racks=cfg.racks, hosts_per_rack=cfg.hosts_per_rack,
            aggrs=cfg.aggrs, seed=cfg.seed, **overrides))

    workload = get_workload(cfg.workload)
    factory = transport_factory(cfg.protocol, sim, net, workload.cdf,
                                cfg.homa)
    transports = net.attach_transports(lambda host: factory(host))

    warmup_ps = int(cfg.warmup_ms * MS)
    gen_end_ps = warmup_ps + int(cfg.duration_ms * MS)
    run_until_ps = gen_end_ps + int(cfg.drain_ms * MS)

    tracker = SlowdownTracker(net, warmup_ps=warmup_ps)

    # Optional collectors (attach before traffic starts).
    queue_stats = QueueStats(net) if "queues" in cfg.collect else None
    prio_usage = PriorityUsage(net) if "priousage" in cfg.collect else None
    throughput = ThroughputMeter(net) if "throughput" in cfg.collect else None
    wasted = (WastedBandwidthTracker(net, transports)
              if "wasted" in cfg.collect else None)
    delays = DelayDecomposition(net) if "delays" in cfg.collect else None

    if delays is not None:
        _install_delay_taps(transports, delays)
    # Rate-style collectors measure over the generation window only;
    # the drain period would dilute their denominators.
    for collector in (throughput, prio_usage, wasted):
        if collector is not None:
            sim.schedule_at(gen_end_ps, collector.snapshot)

    rate = arrival_rate_per_host(
        OVERHEAD_MODEL[cfg.protocol], workload.cdf, cfg.load,
        link_gbps=net.spec.host_gbps, unsched_limit=net.rtt_bytes())

    if cfg.mode == "oneway":
        def make_hook(tracker=tracker, delays=delays):
            def hook(msg, now):
                tracker.record_oneway(msg.src, msg.dst, msg.length,
                                      msg.created_ps, now)
                if delays is not None:
                    delays.on_complete(msg.key)
            return hook

        for transport in transports:
            transport.on_message_complete = make_hook()
        apps = attach_openloop_workload(
            net, transports, workload.cdf, rate,
            stop_ps=gen_end_ps, seed=cfg.seed,
            max_messages_total=cfg.max_messages, delay_tracker=delays)
    elif cfg.mode == "rpc_echo":
        def on_rpc_complete(src, dst, size, t0, t1):
            tracker.record_rpc(src, dst, size, size, t0, t1)

        apps = attach_echo_workload(
            net, transports, workload.cdf, rate,
            stop_ps=gen_end_ps, seed=cfg.seed,
            on_complete=on_rpc_complete, max_rpcs_total=cfg.max_messages)
    else:
        raise ValueError(f"unknown mode {cfg.mode!r}")

    backlog_samples = [0, 0]
    if cfg.mode == "oneway":
        def sample_backlog(slot):
            sent = sum(app.submitted_bytes for app in apps)
            received = sum(t.bytes_received for t in transports)
            backlog_samples[slot] = max(0, sent - received)

        # Baseline at 2/3 of the window: by then the in-flight pipe has
        # filled even for the heavy-tailed workloads, so growth between
        # the samples measures queue buildup, not ramp-up.
        mid_ps = warmup_ps + 2 * (gen_end_ps - warmup_ps) // 3
        sim.schedule_at(mid_ps, sample_backlog, 0)
        sim.schedule_at(gen_end_ps, sample_backlog, 1)

    # The event loop allocates heavily but almost never creates
    # reference cycles (events are flat lists, packets are pooled), so
    # generational GC only burns time walking the live object graph.
    # Suspend it for the run and sweep the stragglers once at the end.
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.collect()
        gc.disable()
    try:
        sim.run(until_ps=run_until_ps)
    finally:
        if gc_was_enabled:
            gc.enable()
            gc.collect()

    submitted = sum(app.submitted for app in apps)
    completed = sum(t.messages_received for t in transports)
    if cfg.mode == "rpc_echo":
        completed = sum(app.completed for app in apps)
    aborted = sum(getattr(t, "rpcs_aborted", 0) for t in transports)

    result = ExperimentResult(
        cfg=cfg,
        tracker=tracker,
        submitted=submitted,
        completed=completed,
        pending=max(0, submitted - completed),
        sim_time_ms=sim.now / MS,
        events=sim.events_processed,
        wall_seconds=time.monotonic() - wall_start,
        aborted=aborted,
        control=ControlTraffic.collect(transports),
        backlog_mid_bytes=backlog_samples[0],
        backlog_end_bytes=backlog_samples[1],
        fabric=FabricHealth.collect(net),
    )
    if queue_stats is not None:
        result.queue_rows = queue_stats.report()
    if prio_usage is not None:
        result.prio_fractions = prio_usage.fractions()
    if throughput is not None:
        result.total_utilization = throughput.total_utilization()
        result.app_utilization = throughput.app_utilization()
    if wasted is not None:
        result.wasted_fraction = wasted.wasted_fraction()
    if delays is not None:
        result.delay_breakdown = delays.tail_breakdown()
    return result


def _install_delay_taps(transports, delays: DelayDecomposition) -> None:
    """Wrap each transport's on_packet to feed the delay collector."""
    for transport in transports:
        original = transport.on_packet

        def tapped(pkt, original=original):
            if pkt.kind == PacketType.DATA:
                delays.on_data_packet(pkt)
            original(pkt)

        transport.on_packet = tapped
