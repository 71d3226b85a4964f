"""Fabric stress grid: oversubscription, loss, and failure injection.

The homa-centric cells stress the declarative-fabric layer
(docs/FABRICS.md) end to end, plus a golden pair pinning that the
layer is free when unused:

* ``clean-plain`` / ``clean-spec`` — the same 2-level shape built from
  a ``NetworkConfig`` and from a clean ``TopologySpec``; their
  slowdown digests must be byte-identical (the clean-spec guarantee).
* ``lossy-2level`` — Bernoulli drops at the ToRs and aggrs, recovered
  by the section 3.7 machinery.
* ``lossy-3level`` — a mixed-speed (10/25/100 Gbps) two-pod fabric
  with loss on every tier.
* ``faulty-3level`` — the same fabric plus a link-down / switch-down /
  link-restore schedule firing mid-generation.

On top of that, a recovery grid runs **every registered protocol**
(``registry.PROTOCOLS``) through two loss rates and one mid-run
link-outage schedule on the 2-level shape:
``<proto>-loss-lo``, ``<proto>-loss-hi``, and ``<proto>-faulty``.

``--smoke`` asserts the battery's contract: digest identity for the
clean pair; nonzero drops on every degraded cell; for every protocol,
nonzero retransmissions with at least one *successful* recovery across
its cells; applied faults on every faulty cell; and zero invariant
violations (physicality, accounting, recovery counters) anywhere.
"""

import argparse
import sys

from repro.core.faults import FaultEvent, LossRates
from repro.core.topology import TopologySpec
from repro.experiments import campaign
from repro.experiments.campaign import slowdown_digest
from repro.experiments.runner import ExperimentConfig
from repro.experiments.scale import campaign_kwargs, current_scale
from repro.transport.registry import PROTOCOLS

from _shared import run_once, save_result

# W3's multi-packet messages make drops produce *gaps*, which the
# receiver-driven RESEND machinery recovers; a fully-lost single-packet
# one-way message leaves no state on either side and is unrecoverable
# by design (docs/FABRICS.md), so a mostly-single-packet workload would
# show drops but no retransmissions.
WORKLOAD = "W3"
LOAD = 0.5
LOSS2 = LossRates(tor=0.01, aggr=0.01)
LOSS3 = LossRates(tor=0.01, aggr=0.01, core=0.01)
#: recovery-grid loss rates (every protocol runs at both)
LOSS_LO = LossRates(tor=0.005, aggr=0.005)
LOSS_HI = LossRates(tor=0.03, aggr=0.015)

#: 3-level two-pod shapes per scale (2-level cells reuse the scale's
#: canonical racks/hosts_per_rack/aggrs so the clean pair stays the
#: published topology).
SHAPES3 = {
    "tiny": dict(pods=2, racks=1, hosts_per_rack=4, aggrs=2, cores=4),
    "quick": dict(pods=2, racks=2, hosts_per_rack=4, aggrs=2, cores=4),
    "paper": dict(pods=3, racks=3, hosts_per_rack=16, aggrs=4, cores=8),
}

DEGRADED = ("lossy-2level", "lossy-3level", "faulty-3level")


def _fault_schedule(window_ms: float) -> tuple:
    """Down a ToR uplink and a core mid-generation, restore the link."""
    return (
        FaultEvent(0.35 * window_ms, "link", "down", "tor0:aggr0.1"),
        FaultEvent(0.55 * window_ms, "switch", "down", "core0"),
        FaultEvent(0.80 * window_ms, "link", "up", "tor0:aggr0.1"),
    )


def campaign_spec() -> campaign.CampaignSpec:
    scale = current_scale()
    # Cap generation so the lossy cells' long drains (recovery needs
    # several 2 ms resend intervals) still bound each cell's wall time.
    kwargs = campaign_kwargs(WORKLOAD, duration_cap_ms=2.0)
    spec2 = TopologySpec(levels=2, racks=kwargs["racks"],
                         hosts_per_rack=kwargs["hosts_per_rack"],
                         aggrs=kwargs["aggrs"])
    shape3 = SHAPES3[scale.name]
    spec3 = TopologySpec(levels=3, host_gbps=10, aggr_gbps=25,
                         core_gbps=100, **shape3)
    window_ms = kwargs["warmup_ms"] + kwargs["duration_ms"]
    base = dict(protocol="homa", workload=WORKLOAD, load=LOAD, **kwargs)
    cfgs = {
        "clean-plain": ExperimentConfig(**base),
        "clean-spec": ExperimentConfig(fabric=spec2, **base),
        "lossy-2level": ExperimentConfig(
            fabric=TopologySpec(levels=2, racks=spec2.racks,
                                hosts_per_rack=spec2.hosts_per_rack,
                                aggrs=spec2.aggrs, loss=LOSS2),
            **base),
        "lossy-3level": ExperimentConfig(
            fabric=TopologySpec(levels=3, host_gbps=10, aggr_gbps=25,
                                core_gbps=100, loss=LOSS3, **shape3),
            **base),
        "faulty-3level": ExperimentConfig(
            fabric=TopologySpec(levels=3, host_gbps=10, aggr_gbps=25,
                                core_gbps=100, loss=LOSS3,
                                faults=_fault_schedule(window_ms),
                                **shape3),
            **base),
    }
    # Recovery grid: every registered protocol x {loss-lo, loss-hi,
    # faulty}.  The outage downs one rack-0 uplink mid-generation and
    # restores it, so backed-off retries must span the hole.
    shape2 = dict(levels=2, racks=spec2.racks,
                  hosts_per_rack=spec2.hosts_per_rack, aggrs=spec2.aggrs)
    outage = (FaultEvent(0.35 * window_ms, "link", "down", "tor0:aggr0.0"),
              FaultEvent(0.80 * window_ms, "link", "up", "tor0:aggr0.0"))
    proto_base = dict(base)
    del proto_base["protocol"]
    for proto in PROTOCOLS:
        for tag, rates in (("loss-lo", LOSS_LO), ("loss-hi", LOSS_HI)):
            cfgs[f"{proto}-{tag}"] = ExperimentConfig(
                protocol=proto,
                fabric=TopologySpec(loss=rates, **shape2), **proto_base)
        cfgs[f"{proto}-faulty"] = ExperimentConfig(
            protocol=proto,
            fabric=TopologySpec(loss=LOSS_LO, faults=outage, **shape2),
            **proto_base)
    assert spec3.aggr_oversubscription > 0  # genuinely oversubscribed core
    return campaign.experiment_grid("fabric", cfgs)


def _violations(key, result) -> list[str]:
    """Invariants no fabric configuration may break."""
    out = []
    if result.completed + result.pending != result.submitted:
        out.append(f"{key}: completed+pending != submitted")
    if result.completed > result.submitted:
        out.append(f"{key}: more completions than submissions "
                   "(duplicate delivery)")
    if any(s < 1.0 for s in result.tracker.slowdowns):
        out.append(f"{key}: slowdown below the idle-network oracle")
    if result.control.rtx_recovered > result.control.rtx_data:
        out.append(f"{key}: more recoveries than retransmissions")
    if min(result.fabric.to_payload().values()) < 0:
        out.append(f"{key}: negative fabric counter")
    return out


def run_campaign(jobs=None, fresh=False):
    return campaign.run(campaign_spec(), jobs=jobs, fresh=fresh)


def render(results) -> str:
    lines = ["== fabric stress: loss + failure injection =="]
    lines.append(f"{'cell':>14} {'finish':>7} {'drops':>7} {'faultdrop':>9} "
                 f"{'blackhole':>9} {'reroute':>8} {'rtx':>6} {'rtxok':>6}")
    for key, result in results.items():
        fh, ct = result.fabric, result.control
        lines.append(
            f"{key:>14} {result.finish_rate:>7.3f} "
            f"{fh.drops_tor + fh.drops_aggr + fh.drops_core:>7} "
            f"{fh.fault_drops:>9} {fh.black_holes:>9} {fh.reroutes:>8} "
            f"{ct.rtx_data:>6} {ct.rtx_recovered:>6}")
    clean = slowdown_digest({"cell": results["clean-plain"]})
    spec = slowdown_digest({"cell": results["clean-spec"]})
    lines.append(f"clean-spec digest match: {clean == spec} "
                 f"({clean[:12]})")
    violations = [v for key, result in results.items()
                  for v in _violations(key, result)]
    lines.append(f"invariant violations: {violations or 'none'}")
    return "\n".join(lines)


def check(results) -> None:
    """The smoke contract (CI's fabric-stress leg)."""
    assert (slowdown_digest({"cell": results["clean-plain"]})
            == slowdown_digest({"cell": results["clean-spec"]})), \
        "clean TopologySpec changed the published digests"
    assert not results["clean-spec"].fabric.any()
    for key in DEGRADED:
        result = results[key]
        assert result.tracker.slowdowns, f"{key}: vacuous run"
        assert result.fabric.total_drops > 0, f"{key}: no drops injected"
        assert result.control.rtx_data > 0, f"{key}: nothing retransmitted"
        assert result.control.rtx_recovered > 0, \
            f"{key}: no message ever completed via retransmission"
    faulty = results["faulty-3level"]
    assert faulty.fabric.faults_applied == 3
    assert faulty.fabric.reroutes > 0
    # Recovery grid: every protocol survives both loss rates
    # and the outage — drops everywhere, and retransmission genuinely
    # recovers data (not merely fires) somewhere in its cells.
    for proto in PROTOCOLS:
        cells = {tag: results[f"{proto}-{tag}"]
                 for tag in ("loss-lo", "loss-hi", "faulty")}
        for tag, result in cells.items():
            assert result.tracker.slowdowns, f"{proto}-{tag}: vacuous run"
            assert result.fabric.total_drops > 0, \
                f"{proto}-{tag}: no drops injected"
        assert cells["faulty"].fabric.faults_applied == 2
        rtx = sum(c.control.rtx_data for c in cells.values())
        recovered = sum(c.control.rtx_recovered for c in cells.values())
        assert rtx > 0, f"{proto}: nothing retransmitted in any cell"
        assert recovered > 0, \
            f"{proto}: no message ever completed via retransmission"
    violations = [v for key, result in results.items()
                  for v in _violations(key, result)]
    assert not violations, violations


def run_figure(jobs=None, fresh=False) -> list[str]:
    results = run_campaign(jobs=jobs, fresh=fresh)
    return [save_result("fabric_stress", render(results))]


def test_fabric_stress(benchmark):
    results = run_once(benchmark, run_campaign)
    save_result("fabric_stress", render(results))
    check(results)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="assert the battery contract after the run")
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--fresh", action="store_true",
                        help="bypass the campaign result cache")
    args = parser.parse_args(argv)
    results = run_campaign(jobs=args.jobs, fresh=args.fresh)
    save_result("fabric_stress", render(results))
    if args.smoke:
        check(results)
        print("fabric-stress smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
