"""Control-traffic accounting: how many control events a run emitted.

Homa's receiver paces senders with GRANT packets, and the cost of that
control traffic — one GRANT per scheduled data packet in the paper's
simulator — is the dominant per-packet overhead at high load (it is the
motivation for the batched grant pacer, ``HomaConfig.grant_batch_ns``).
This collector sums the per-transport counters after a run so the
reduction is measurable: the ``grant`` arm of
``benchmarks/bench_ablations.py`` (``python -m repro campaign
ablations``) tabulates the GRANT count of each pacer setting.

Counters are read with ``getattr(..., 0)`` so non-Homa transports (and
future protocols without a given counter) participate with zeros.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class ControlTraffic:
    """Control-event totals summed over every transport in a run."""

    #: GRANT packets emitted by receivers
    grants: int = 0
    #: RESEND packets emitted (receiver timeouts and client probes)
    resends: int = 0
    #: BUSY packets emitted by senders
    busys: int = 0
    #: grant-pacer timer firings (0 in legacy per-packet mode)
    grant_ticks: int = 0
    #: DATA packets retransmitted in answer to a RESEND
    rtx_data: int = 0
    #: retransmitted DATA packets that filled a real receive gap
    #: (rtx_data minus this is spurious retransmission)
    rtx_recovered: int = 0
    #: inbound messages abandoned after exhausting the retry budget
    give_ups: int = 0
    #: outbound messages retired by sender-side give-up or peer-liveness
    #: GC (docs/FABRICS.md recovery table)
    outbound_give_ups: int = 0

    @classmethod
    def collect(cls, transports: Iterable) -> "ControlTraffic":
        """Sum the control counters of every transport."""
        grants = resends = busys = ticks = 0
        rtx = recovered = gaveups = out_gaveups = 0
        for transport in transports:
            grants += getattr(transport, "grants_sent", 0)
            resends += getattr(transport, "resends_sent", 0)
            busys += getattr(transport, "busys_sent", 0)
            ticks += getattr(transport, "grant_ticks", 0)
            rtx += getattr(transport, "rtx_data_sent", 0)
            recovered += getattr(transport, "rtx_recovered", 0)
            gaveups += getattr(transport, "inbound_gaveups", 0)
            out_gaveups += getattr(transport, "outbound_gaveups", 0)
        return cls(grants=grants, resends=resends, busys=busys,
                   grant_ticks=ticks, rtx_data=rtx,
                   rtx_recovered=recovered, give_ups=gaveups,
                   outbound_give_ups=out_gaveups)

    def to_payload(self) -> dict:
        return {
            "grants": self.grants,
            "resends": self.resends,
            "busys": self.busys,
            "grant_ticks": self.grant_ticks,
            "rtx_data": self.rtx_data,
            "rtx_recovered": self.rtx_recovered,
            "give_ups": self.give_ups,
            "outbound_give_ups": self.outbound_give_ups,
        }

    @classmethod
    def from_payload(cls, payload: dict | None) -> "ControlTraffic":
        if not payload:
            return cls()
        return cls(
            grants=payload.get("grants", 0),
            resends=payload.get("resends", 0),
            busys=payload.get("busys", 0),
            grant_ticks=payload.get("grant_ticks", 0),
            rtx_data=payload.get("rtx_data", 0),
            rtx_recovered=payload.get("rtx_recovered", 0),
            give_ups=payload.get("give_ups", 0),
            outbound_give_ups=payload.get("outbound_give_ups", 0),
        )


@dataclass(frozen=True)
class FabricHealth:
    """Fabric-side fault accounting for one run (core/faults.py).

    Per-layer injected-loss drops come from each switch's
    ``injected_drops``; ``fault_drops`` counts packets that reached a
    dead switch, ``black_holes`` packets whose route had no live egress
    after a failure, ``reroutes`` spray sets rewritten by fault
    application, and ``faults_applied`` schedule entries executed.  All
    zero on a clean fabric.
    """

    drops_tor: int = 0
    drops_aggr: int = 0
    drops_core: int = 0
    fault_drops: int = 0
    black_holes: int = 0
    reroutes: int = 0
    faults_applied: int = 0

    @classmethod
    def collect(cls, net) -> "FabricHealth":
        """Read the drop/reroute counters off a built network."""
        per = {"tor": 0, "aggr": 0, "core": 0}
        fault_drops = black_holes = 0
        for switch in net.all_switches():
            per[switch.level] += switch.injected_drops
            fault_drops += switch.fault_drops
            black_holes += switch.routed_drops
        injector = net.fault_injector
        return cls(
            drops_tor=per["tor"], drops_aggr=per["aggr"],
            drops_core=per["core"], fault_drops=fault_drops,
            black_holes=black_holes, reroutes=net.reroutes,
            faults_applied=injector.applied if injector is not None else 0,
        )

    @property
    def total_drops(self) -> int:
        """Every packet the fabric destroyed, for any reason."""
        return (self.drops_tor + self.drops_aggr + self.drops_core
                + self.fault_drops + self.black_holes)

    def any(self) -> bool:
        return bool(self.total_drops or self.reroutes or self.faults_applied)

    def to_payload(self) -> dict:
        return {
            "drops_tor": self.drops_tor,
            "drops_aggr": self.drops_aggr,
            "drops_core": self.drops_core,
            "fault_drops": self.fault_drops,
            "black_holes": self.black_holes,
            "reroutes": self.reroutes,
            "faults_applied": self.faults_applied,
        }

    @classmethod
    def from_payload(cls, payload: dict | None) -> "FabricHealth":
        if not payload:
            return cls()
        return cls(
            drops_tor=payload.get("drops_tor", 0),
            drops_aggr=payload.get("drops_aggr", 0),
            drops_core=payload.get("drops_core", 0),
            fault_drops=payload.get("fault_drops", 0),
            black_holes=payload.get("black_holes", 0),
            reroutes=payload.get("reroutes", 0),
            faults_applied=payload.get("faults_applied", 0),
        )
