"""Tests for offered-load computation."""

import tracemalloc

import numpy as np
import pytest

from repro.core import engine
from repro.core.packet import FULL_WIRE, MAX_PAYLOAD, MIN_WIRE
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.workloads import loadcalc
from repro.workloads.catalog import WORKLOADS
from repro.workloads.distributions import EmpiricalCDF
from repro.workloads.loadcalc import (
    PROTOCOLS,
    arrival_rate_per_host,
    estimate_traffic,
    per_message_wire_bytes,
)

MiB = 1 << 20

#: ``float.hex`` of (mean_bytes, mean_data_wire, mean_packets,
#: mean_sched_packets) at the default samples / seed, unscheduled limit
#: 9680, as the one-array estimate computed them: the streamed estimate
#: must match to the last bit.
DEFAULT_PINS = {
    "W1": ("0x1.75daccf6be37ep+7", "0x1.0b616e58a32f4p+8",
           "0x1.04a18bd66277cp+0", "0x1.22fad6cb53501p-10"),
    "W2": ("0x1.ccfa7381d7dbfp+8", "0x1.1318b7fe08af0p+9",
           "0x1.233eff1950332p+0", "0x1.262cba732df50p-4"),
    "W3": ("0x1.597385c67dfe3p+10", "0x1.7b3263b256ffcp+10",
           "0x1.ba786c226809dp+0", "0x1.dfac1d29dc726p-2"),
    "W4": ("0x1.c145b9c7f77afp+17", "0x1.d95db79e83e42p+17",
           "0x1.3c4ea161e4f76p+7", "0x1.36b00d1b71759p+7"),
    "W5": ("0x1.4aabeca752546p+21", "0x1.5c566cac0d6f5p+21",
           "0x1.cfd89e060fe48p+10", "0x1.ce70392e1ef74p+10"),
}

#: W3 at sample counts around the chunk boundary (one sample, one full
#: chunk, one chunk plus one), default seed, limit 9680.
SAMPLES_PINS = {
    1: ("0x1.1300000000000p+8", "0x1.6100000000000p+8",
        "0x1.0000000000000p+0", "0x0.0p+0"),
    8192: ("0x1.2475e00000000p+10", "0x1.436c240000000p+10",
           "0x1.95e8000000000p+0", "0x1.4560000000000p-2"),
    8193: ("0x1.2470827bec20ap+10", "0x1.43666acca99abp+10",
           "0x1.95e350e578d44p+0", "0x1.4555d55155755p-2"),
}


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty estimate memo, so the call under test really draws."""
    monkeypatch.setattr(loadcalc, "_ESTIMATES", {})


def _hexes(traffic):
    return (traffic.mean_bytes.hex(), traffic.mean_data_wire.hex(),
            traffic.mean_packets.hex(), traffic.mean_sched_packets.hex())


def _traced_peak(fn):
    """Traced allocation peak of ``fn()`` in bytes (lazy imports warmed)."""
    estimate_traffic(WORKLOADS["W1"].cdf, 9680, samples=1, seed=1)
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", sorted(DEFAULT_PINS))
def test_estimate_matches_one_array_draw_bit_for_bit(fresh_memo, name):
    traffic = estimate_traffic(WORKLOADS[name].cdf, 9680)
    assert _hexes(traffic) == DEFAULT_PINS[name]


@pytest.mark.parametrize("samples", sorted(SAMPLES_PINS))
def test_estimate_exact_across_chunk_boundary(fresh_memo, samples):
    assert loadcalc.CHUNK_SAMPLES == 8192  # the pins straddle one chunk
    traffic = estimate_traffic(WORKLOADS["W3"].cdf, 9680, samples=samples)
    assert _hexes(traffic) == SAMPLES_PINS[samples]


def test_estimate_rejects_no_samples():
    cdf = WORKLOADS["W1"].cdf
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            estimate_traffic(cdf, 9680, samples=samples)


def test_estimate_memory_is_bounded(fresh_memo):
    """Streaming keeps a cold W4 estimate's peak at a few chunk-sized
    arrays (one full-length draw of 200k samples peaked at ≈12 MiB)."""
    peak = _traced_peak(lambda: estimate_traffic(WORKLOADS["W4"].cdf, 9680))
    assert peak < 1 * MiB


def test_estimate_is_memoized_by_value(fresh_memo, monkeypatch):
    draws = []
    real = np.random.default_rng

    def counting_rng(*args, **kwargs):
        draws.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    anchors = [(0.0, 100), (0.5, 2000), (1.0, 50_000)]
    cdf = EmpiricalCDF(anchors)
    first = estimate_traffic(cdf, 9680, samples=1000)
    assert len(draws) == 1
    # A repeated call, and a new CDF object with equal anchors, draw
    # nothing: the memo is keyed by value, not by object identity.
    assert estimate_traffic(cdf, 9680, samples=1000) is first
    assert estimate_traffic(EmpiricalCDF(anchors), 9680,
                            samples=1000) is first
    assert len(draws) == 1
    # Other anchors, unit, limit, sample count or seed: their own entry.
    other = [(0.0, 100), (0.5, 3000), (1.0, 50_000)]
    assert estimate_traffic(EmpiricalCDF(other), 9680,
                            samples=1000) != first
    assert estimate_traffic(EmpiricalCDF(anchors, unit_bytes=2), 9680,
                            samples=1000) != first
    assert estimate_traffic(cdf, 1460, samples=1000) != first
    assert estimate_traffic(cdf, 9680, samples=999) != first
    assert estimate_traffic(cdf, 9680, samples=1000, seed=7) != first
    assert len(draws) == 6


def test_experiment_setup_has_no_large_transient(fresh_memo, monkeypatch):
    """Everything ``run_experiment`` allocates before ``Simulator.run``
    (fabric, transports, apps, the load estimate) stays small on a
    smoke-size cell: 0.6 MiB.  The packet pool's 4,096 preallocated
    slots took it to 1.8 MiB, and the one-array load estimate to
    13.5 MiB."""
    before_run = []
    real_run = engine.Simulator.run

    def run(self, *args, **kwargs):
        before_run.append(tracemalloc.get_traced_memory()[1])
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(engine.Simulator, "run", run)
    cfg = ExperimentConfig(protocol="homa", workload="W4", load=0.8,
                           racks=2, hosts_per_rack=4, aggrs=2,
                           duration_ms=0.2, warmup_ms=0.0,
                           max_messages=50, seed=7)
    _traced_peak(lambda: run_experiment(cfg))
    assert len(before_run) == 1
    assert before_run[0] < 1.25 * MiB


def test_estimate_traffic_single_full_packet():
    cdf = EmpiricalCDF([(0.0, MAX_PAYLOAD), (1.0, MAX_PAYLOAD)])
    traffic = estimate_traffic(cdf, unsched_limit=9680, samples=1000)
    assert traffic.mean_bytes == pytest.approx(MAX_PAYLOAD)
    assert traffic.mean_packets == pytest.approx(1.0)
    assert traffic.mean_data_wire == pytest.approx(FULL_WIRE)
    assert traffic.mean_sched_packets == pytest.approx(0.0)


def test_estimate_traffic_large_message():
    size = 10 * MAX_PAYLOAD
    cdf = EmpiricalCDF([(0.0, size), (1.0, size)])
    traffic = estimate_traffic(cdf, unsched_limit=9680, samples=1000)
    assert traffic.mean_packets == pytest.approx(10.0)
    # 14600 - 9680 = 4920 scheduled bytes -> 4 scheduled packets.
    assert traffic.mean_sched_packets == pytest.approx(4.0)


def test_homa_wire_includes_grants():
    size = 10 * MAX_PAYLOAD
    cdf = EmpiricalCDF([(0.0, size), (1.0, size)])
    traffic = estimate_traffic(cdf, unsched_limit=9680, samples=1000)
    homa = per_message_wire_bytes("homa", traffic)
    assert homa == pytest.approx(traffic.mean_data_wire + 4 * MIN_WIRE)


def test_pfabric_wire_includes_per_packet_acks():
    size = 10 * MAX_PAYLOAD
    cdf = EmpiricalCDF([(0.0, size), (1.0, size)])
    traffic = estimate_traffic(cdf, unsched_limit=9680, samples=1000)
    pfab = per_message_wire_bytes("pfabric", traffic)
    assert pfab == pytest.approx(traffic.mean_data_wire + 10 * MIN_WIRE)


def test_all_protocols_have_overhead_models():
    cdf = WORKLOADS["W3"].cdf
    traffic = estimate_traffic(cdf, unsched_limit=9680, samples=20_000)
    for protocol in PROTOCOLS:
        wire = per_message_wire_bytes(protocol, traffic)
        assert wire >= traffic.mean_data_wire


def test_unknown_protocol_rejected():
    cdf = WORKLOADS["W1"].cdf
    traffic = estimate_traffic(cdf, unsched_limit=9680, samples=1000)
    with pytest.raises(ValueError):
        per_message_wire_bytes("tcp-reno", traffic)


def test_arrival_rate_scales_with_load():
    cdf = WORKLOADS["W1"].cdf
    r40 = arrival_rate_per_host("homa", cdf, 0.4, samples=20_000)
    r80 = arrival_rate_per_host("homa", cdf, 0.8, samples=20_000)
    assert r80 == pytest.approx(2 * r40, rel=1e-6)


def test_arrival_rate_rejects_bad_load():
    cdf = WORKLOADS["W1"].cdf
    with pytest.raises(ValueError):
        arrival_rate_per_host("homa", cdf, 0.0)
    with pytest.raises(ValueError):
        arrival_rate_per_host("homa", cdf, 1.2)


def test_arrival_rate_sane_magnitude_w4():
    """W4 mean wire bytes ~230 KB -> ~4e3 msgs/s/host at 80% of 10 Gbps."""
    cdf = WORKLOADS["W4"].cdf
    rate = arrival_rate_per_host("homa", cdf, 0.8, samples=50_000)
    assert 2e3 < rate < 2e4
