"""Homa configuration.

Defaults correspond to the paper's standard simulation setup: 8
priority levels, RTTbytes derived from the topology (9680 B cross-rack,
rounded up to whole packets: "about 10 KB in our implementation"),
degree of overcommitment equal to the number of scheduled priority
levels, and a few-millisecond receiver RESEND timer.

Every evaluation knob in section 5 maps to a field here:

* Figures 8/9 (HomaPx): ``n_prios``;
* Figure 10: ``incast_threshold`` / ``incast_response_unsched``;
* Figure 16/19: ``n_sched_override`` (and thereby overcommitment);
* Figure 17: ``n_unsched_override``;
* Figure 18: ``cutoff_override``;
* Figure 20: ``unsched_limit``;
* Basic transport: ``unlimited_overcommit=True`` with ``n_prios=1``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.packet import MAX_PAYLOAD
from repro.core.units import MS


@dataclass
class HomaConfig:
    """Tunable parameters of the Homa protocol."""

    #: total switch priority levels Homa may use (paper default: 8)
    n_prios: int = 8
    #: bytes a sender may transmit blindly; None = RTTbytes rounded up
    #: to whole data packets (paper: ~10 KB at 10 Gbps)
    unsched_limit: int | None = None
    #: force a number of unscheduled priority levels (Figure 17)
    n_unsched_override: int | None = None
    #: force a number of scheduled priority levels (Figures 16/19)
    n_sched_override: int | None = None
    #: force unscheduled cutoff points, ascending (Figure 18)
    cutoff_override: tuple[int, ...] | None = None
    #: degree of overcommitment; None = number of scheduled levels
    overcommit_override: int | None = None
    #: grant to every incoming message at once (the Basic transport)
    unlimited_overcommit: bool = False
    #: receiver inactivity period before sending RESEND ("a few ms")
    resend_interval_ps: int = 2 * MS
    #: RESENDs without progress before an RPC is aborted
    max_resends: int = 5
    #: outstanding-RPC count that triggers incast marking (section 3.6)
    incast_threshold: int = 16
    #: response unscheduled limit for marked RPCs ("a few hundred bytes")
    incast_response_unsched: int = 400
    #: disable incast control entirely (Figure 10's second curve)
    incast_control: bool = True
    #: learn the size distribution online instead of precomputing
    #: (section 4 notes the RAMCloud implementation precomputes; the
    #: online estimator is the paper's intended full mechanism)
    online_priorities: bool = False
    #: refresh period of the online estimator
    online_refresh_ps: int = 10 * MS
    #: reserve the active-message slot of lowest priority for the oldest
    #: message (the section 5.1 speculation for very large messages)
    grant_oldest: bool = False
    #: grant coalescing interval, in nanoseconds.  0 = legacy per-packet
    #: mode: one GRANT per arriving scheduled data packet, slowdown
    #: digests byte-identical to the seed tree.  Nonzero = batched mode
    #: (the default, as real Homa implementations coalesce grants; see
    #: the paper's complete version, arXiv:1803.09615): data arrivals
    #: only mark the receiver grant-dirty and a per-receiver timer runs
    #: the ranking pass once per interval, emitting at most one GRANT
    #: per active message.  Batching shifts grant timing, so digests
    #: drift from the per-packet mode; docs/PERFORMANCE.md documents the
    #: contract and the measured control-packet reduction.
    grant_batch_ns: int = 4000
    #: count-based grant coalescing (the Linux kernel Homa approach):
    #: run the ranking pass after every N arriving scheduled data
    #: packets instead of on a timer.  0 = disabled.  Nonzero takes
    #: precedence over ``grant_batch_ns``; protocol-critical events
    #: (new grantable message, freed overcommitment slot, sender window
    #: exhausted) still grant immediately.  Ablation knob — see
    #: ``benchmarks/bench_ablations.py`` and docs/PERFORMANCE.md for
    #: the comparison against the timer-based pacer.
    grant_batch_pkts: int = 0
    #: packet slots preallocated by the shared per-run PacketPool
    #: (core/pool.py).  Purely a performance knob: the pool grows in
    #: deterministic chunks when more packets are in flight than slots,
    #: so behavior and digests never depend on the value.  The default
    #: covers the paper-scale 144-host topology with no growth.
    pool_prealloc: int = 4096

    def resolved_unsched_limit(self, rtt_bytes: int) -> int:
        """Unscheduled byte limit, packet-aligned unless overridden."""
        if self.unsched_limit is not None:
            return self.unsched_limit
        packets = -(-rtt_bytes // MAX_PAYLOAD)
        return packets * MAX_PAYLOAD

    def with_prios(self, n: int) -> "HomaConfig":
        """The paper's HomaPx variant: only ``n`` priority levels."""
        if not 1 <= n <= 8:
            raise ValueError(f"priority levels must be 1..8, got {n}")
        return replace(self, n_prios=n)

    @staticmethod
    def basic() -> "HomaConfig":
        """RAMCloud's Basic transport: receiver-driven grants but no
        priorities and no overcommitment limit (paper section 5.1)."""
        return HomaConfig(n_prios=1, unlimited_overcommit=True)
