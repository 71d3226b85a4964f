"""Offered-load computation.

The paper defines network load as "the percentage of available network
bandwidth consumed by goodput packets; this includes application-level
data plus the minimum overhead (packet headers, inter-packet gaps, and
control packets) required by the protocol".  To hit a target load we
therefore need, per protocol, the expected on-wire bytes per message —
data framing plus the protocol's control packets — and from that the
Poisson message arrival rate per host.

Estimates are Monte-Carlo over the size distribution (deterministic
seed), because per-packet framing is a step function of message size.
The draw is streamed: ``CHUNK_SAMPLES`` sizes at a time from one PCG64
stream, so the working set is a few chunk-sized arrays however many
samples are asked for.  Every per-sample quantity (bytes, data-wire
bytes, packets, scheduled packets) is a whole number far below 2**53,
so the chunks' sums are exact integers and each mean is the same float
a single full-length array would give.  Each estimate is memoized per
process, keyed by the CDF's anchors and unit, the unscheduled limit,
the sample count and the seed, so a process that runs many simulations
(a campaign, a farm worker, the benchmark) draws each estimate once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.packet import (
    ETH_OVERHEAD,
    HEADER_BYTES,
    MAX_PAYLOAD,
    MIN_WIRE,
)
from repro.core.units import bytes_per_sec
from repro.workloads.distributions import EmpiricalCDF

#: per-data-packet framing overhead beyond payload
_PKT_OVERHEAD = HEADER_BYTES + ETH_OVERHEAD

#: protocols with a control-packet cost model
PROTOCOLS = ("homa", "basic", "pfabric", "phost", "pias", "ndp", "stream")

#: sizes drawn per step of the Monte-Carlo estimate (bounds its memory)
CHUNK_SAMPLES = 8192


@dataclass(frozen=True)
class TrafficEstimate:
    """Expected per-message quantities under a size distribution."""

    mean_bytes: float          # application bytes
    mean_data_wire: float      # on-wire bytes of the data packets
    mean_packets: float        # data packets per message
    mean_sched_packets: float  # packets beyond the unscheduled limit


#: per-process memo of ``estimate_traffic`` results
_ESTIMATES: dict[tuple, TrafficEstimate] = {}


def estimate_traffic(
    cdf: EmpiricalCDF,
    unsched_limit: int,
    *,
    samples: int = 200_000,
    seed: int = 20180821,  # SIGCOMM'18 presentation date: fixed, arbitrary
) -> TrafficEstimate:
    """Monte-Carlo estimate of per-message traffic quantities (memoized)."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    key = (cdf._qs.tobytes(), cdf._sizes.tobytes(), cdf.unit_bytes,
           unsched_limit, samples, seed)
    estimate = _ESTIMATES.get(key)
    if estimate is not None:
        return estimate
    rng = np.random.default_rng(seed)
    total_bytes = total_wire = total_packets = total_sched = 0
    for start in range(0, samples, CHUNK_SAMPLES):
        sizes = cdf.sample(rng, min(CHUNK_SAMPLES, samples - start))
        packets = -(-sizes // MAX_PAYLOAD)
        tail = sizes - (packets - 1) * MAX_PAYLOAD
        data_wire = ((packets - 1) * (MAX_PAYLOAD + _PKT_OVERHEAD)
                     + np.maximum(MIN_WIRE, tail + _PKT_OVERHEAD))
        sched_packets = -(-np.maximum(0, sizes - unsched_limit) // MAX_PAYLOAD)
        total_bytes += int(sizes.sum())
        total_wire += int(data_wire.sum())
        total_packets += int(packets.sum())
        total_sched += int(sched_packets.sum())
    estimate = _ESTIMATES[key] = TrafficEstimate(
        mean_bytes=total_bytes / samples,
        mean_data_wire=total_wire / samples,
        mean_packets=total_packets / samples,
        mean_sched_packets=total_sched / samples,
    )
    return estimate


def per_message_wire_bytes(protocol: str, traffic: TrafficEstimate) -> float:
    """Expected wire bytes per message including control packets."""
    data = traffic.mean_data_wire
    if protocol in ("homa", "basic"):
        # One GRANT per scheduled data packet.
        return data + traffic.mean_sched_packets * MIN_WIRE
    if protocol == "pfabric":
        # Per-packet ACKs.
        return data + traffic.mean_packets * MIN_WIRE
    if protocol == "phost":
        # RTS plus one token per scheduled packet.
        return data + MIN_WIRE + traffic.mean_sched_packets * MIN_WIRE
    if protocol == "pias":
        # DCTCP-style per-packet ACKs.
        return data + traffic.mean_packets * MIN_WIRE
    if protocol == "ndp":
        # Per-packet ACKs plus one PULL per post-window packet.
        return (data + traffic.mean_packets * MIN_WIRE
                + traffic.mean_sched_packets * MIN_WIRE)
    if protocol == "stream":
        # Cumulative ACK roughly every other packet.
        return data + 0.5 * traffic.mean_packets * MIN_WIRE
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")


def arrival_rate_per_host(
    protocol: str,
    cdf: EmpiricalCDF,
    load: float,
    *,
    link_gbps: int = 10,
    unsched_limit: int = 9680,
    samples: int = 200_000,
) -> float:
    """Poisson message rate (messages/second) per sending host.

    With uniformly random destinations, offering ``load`` on each host's
    uplink also offers ``load`` on each downlink in expectation.
    """
    if not 0.0 < load < 1.0:
        raise ValueError(f"load must be in (0, 1), got {load}")
    traffic = estimate_traffic(cdf, unsched_limit, samples=samples)
    wire = per_message_wire_bytes(protocol, traffic)
    return load * bytes_per_sec(link_gbps) / wire
