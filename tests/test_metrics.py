"""Unit tests for the metrics package."""

import base64
import gc
import json
import math
import struct
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.packet import Packet, PacketType
from repro.core.topology import NetworkConfig, build_network
from repro.metrics.bandwidth import _IdleWithheldAccount
from repro.metrics.probes import CompositeProbe, attach_probe
from repro.metrics.queues import QueueLengthProbe
from repro.metrics.slowdown import SlowdownTracker
from repro.core.port import PortProbe, QueuedPort

from tests.helpers import push_sample


def make_net():
    return build_network(Simulator(), NetworkConfig())


# ---------------------------------------------------------------------------
# SlowdownTracker
# ---------------------------------------------------------------------------


def test_tracker_records_relative_to_oracle():
    net = make_net()
    tracker = SlowdownTracker(net)
    oracle = net.min_oneway_between(0, 143, 100)
    tracker.record_oneway(0, 143, 100, 0, 2 * oracle)
    assert type(tracker.sizes) is array and tracker.sizes.typecode == "q"
    assert type(tracker.slowdowns) is array
    assert tracker.slowdowns.typecode == "d"
    assert tracker.sizes == array("q", [100])
    assert tracker.slowdowns == array("d", [2.0])


def test_tracker_warmup_filter():
    net = make_net()
    tracker = SlowdownTracker(net, warmup_ps=1000)
    tracker.record_oneway(0, 143, 100, 500, 10_000_000)   # during warmup
    tracker.record_oneway(0, 143, 100, 1500, 10_000_000)  # after
    assert tracker.count == 1


def test_tracker_rpc_uses_round_trip_oracle():
    net = make_net()
    tracker = SlowdownTracker(net)
    oracle = net.min_rpc_between(0, 143, 200, 200)
    tracker.record_rpc(0, 143, 200, 200, 0, oracle)
    assert tracker.sizes == array("q", [200])
    assert list(tracker.slowdowns) == [pytest.approx(1.0)]


def test_tracker_bucket_report():
    net = make_net()
    tracker = SlowdownTracker(net)
    for size, slowdown in ((50, 1.0), (50, 3.0), (500, 2.0)):
        push_sample(tracker, size, slowdown)
    report = tracker.bucket_report([0, 100, 1000])
    assert report[0].count == 2
    assert report[0].p50 == pytest.approx(2.0)
    assert report[1].count == 1
    assert report[1].mean == pytest.approx(2.0)


def test_tracker_empty_bucket_is_nan():
    net = make_net()
    tracker = SlowdownTracker(net)
    push_sample(tracker, 50, 1.0)
    report = tracker.bucket_report([0, 10, 100])
    assert math.isnan(report[0].p50)
    assert report[1].count == 1


def test_tracker_bad_edges_rejected():
    net = make_net()
    tracker = SlowdownTracker(net)
    with pytest.raises(ValueError):
        tracker.bucket_report([10, 5])
    with pytest.raises(ValueError):
        tracker.bucket_report([0])


def test_tracker_overall_empty_raises():
    net = make_net()
    with pytest.raises(ValueError):
        SlowdownTracker(net).overall(99)


# -- packed sample columns (the payload form) ----------------------------


def _tracker(sizes, slowdowns, warmup_ps=0):
    tracker = SlowdownTracker(None, warmup_ps=warmup_ps)
    tracker.sizes = array("q", sizes)
    tracker.slowdowns = array("d", slowdowns)
    return tracker


def _bits(values):
    return [struct.pack("<d", v) for v in values]


_SAMPLES = st.lists(st.tuples(
    st.integers(0, 2**62),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))


@given(_SAMPLES, st.integers(0, 2**40))
@settings(max_examples=200, deadline=None)
def test_packed_columns_round_trip_bit_exactly(samples, warmup_ps):
    tracker = _tracker([s for s, _ in samples], [v for _, v in samples],
                       warmup_ps)
    back = SlowdownTracker.from_payload(
        json.loads(json.dumps(tracker.to_payload())))
    assert back.warmup_ps == warmup_ps
    assert type(back.sizes) is array and type(back.slowdowns) is array
    assert (back.sizes.typecode, back.slowdowns.typecode) == ("q", "d")
    assert back.sizes == tracker.sizes
    # nan != nan and -0.0 == 0.0: compare the doubles by their bits.
    assert _bits(back.slowdowns) == _bits(tracker.slowdowns)


def test_packed_columns_edge_values_and_empty_tracker():
    edge = [-0.0, 5e-324, 2.2250738585072014e-308, float("inf"),
            float("-inf"), float("nan"), 1.0000000000000002]
    tracker = _tracker([0, 1, 2**62, 7, 8, 9, 10], edge)
    payload = json.loads(json.dumps(tracker.to_payload()))
    back = SlowdownTracker.from_payload(payload)
    assert back.sizes == tracker.sizes
    assert _bits(back.slowdowns) == _bits(edge)
    # The documented layout: little-endian float64 / int64, base64.
    assert base64.b64decode(payload["slowdowns"]) == b"".join(_bits(edge))
    assert base64.b64decode(payload["sizes"]) \
        == struct.pack("<7q", *tracker.sizes)

    empty = SlowdownTracker.from_payload(
        json.loads(json.dumps(_tracker([], []).to_payload())))
    assert empty.sizes == array("q") and empty.slowdowns == array("d")
    assert empty.count == 0
    with pytest.raises(ValueError, match="no messages recorded"):
        empty.overall(50)


def _payload(**columns):
    payload = _tracker([10, 20, 30], [1.5, 2.5, 3.5]).to_payload()
    payload.update(columns)
    return payload


@pytest.mark.parametrize("column, value", [
    # truncated base64 (a cut transfer): length no longer a multiple of 4
    ("slowdowns", _payload()["slowdowns"][:-3]),
    ("sizes", _payload()["sizes"][:-1]),
    # characters outside the alphabet, and non-ASCII text
    ("slowdowns", "!!!!" + _payload()["slowdowns"][4:]),
    ("sizes", "\u00e9" * 4),
    # well-formed base64 of 31 bytes: three items and a 7-byte tail
    ("slowdowns", base64.b64encode(bytes(31)).decode()),
    ("sizes", base64.b64encode(bytes(7)).decode()),
    # the version-1 list form and other non-strings
    ("slowdowns", [1.5, 2.5, 3.5]),
    ("sizes", [10, 20, 30]),
    ("sizes", None),
    # columns of different length
    ("slowdowns", _tracker([], [1.5, 2.5]).to_payload()["slowdowns"]),
    ("sizes", _tracker([10], []).to_payload()["sizes"]),
])
def test_hostile_packed_column_raises_value_error_naming_it(column, value):
    with pytest.raises(ValueError, match=f"'{column}'"):
        SlowdownTracker.from_payload(_payload(**{column: value}))


#: ``to_payload()`` of an eight-sample tracker as written by the code
#: before the typed columns (commit ee73789, list-backed): the bytes a
#: version-2 cache entry or farm frame already on disk / in flight holds.
_PARENT_PAYLOAD = {
    "warmup_ps": 500000,
    "sizes": "AQAAAAAAAABkAAAAAAAAALQFAAAAAAAAAAAAAAABAAAAAAAAAAAAAAcAAAAAAAAA"
             "QFSJAAAAAAAAAAAAAAAAQA==",
    "slowdowns": "AAAAAAAA8D8BAAAAAADwPwAAAAAAAARAAAAAAAAA8H8AAAAAAAAAgAEAAAAA"
                 "AAAAAAAAAAAA+H/Jdr6fDCT+QA==",
}


def test_payload_format_is_the_parents_byte_for_byte():
    back = SlowdownTracker.from_payload(_PARENT_PAYLOAD)
    assert back.warmup_ps == 500000
    assert back.sizes == array(
        "q", [1, 100, 1460, 2**40, 0, 7, 9_000_000, 2**62])
    assert _bits(back.slowdowns) == _bits(
        [1.0, 1.0000000000000002, 2.5, float("inf"), -0.0, 5e-324,
         float("nan"), 123456.789])
    assert back.to_payload() == _PARENT_PAYLOAD


@pytest.mark.parametrize("report", [
    lambda t: t.overall(50),
    lambda t: t.bucket_report([0, 100, 1000]),
    lambda t: t.series([0, 100, 1000], 99),
    lambda t: t.to_payload(),
], ids=["overall", "bucket_report", "series", "to_payload"])
def test_report_views_do_not_pin_a_live_tracker(report):
    """A numpy view of a column that outlived the report would make the
    next ``append`` raise BufferError ("cannot resize an array that is
    exporting buffers")."""
    tracker = SlowdownTracker(make_net())
    tracker.record_oneway(0, 143, 100, 0, 10_000_000)
    report(tracker)
    tracker.record_oneway(0, 143, 100, 0, 10_000_000)
    report(tracker)
    tracker.record_rpc(0, 143, 200, 200, 0, 10_000_000)
    assert tracker.count == 3


def test_columns_hold_no_per_sample_object():
    """No boxing, as a count: decoding allocates the two buffers (plus
    one transient ``bytes`` a column) and a handful of blocks, never an
    int and a float per sample; recording holds 16 bytes a sample plus
    ``array``'s one-sixteenth growth slack."""
    n = 10_000
    payload = json.loads(json.dumps(_tracker(
        range(1000, 1000 + n), (1.0 + i / n for i in range(n))).to_payload()))
    gc.collect()
    tracemalloc.start()
    try:
        back = SlowdownTracker.from_payload(payload)
        _, peak = tracemalloc.get_traced_memory()
        live_blocks = sum(stat.count for stat in
                          tracemalloc.take_snapshot().statistics("filename"))
    finally:
        tracemalloc.stop()
    assert back.count == n
    assert peak < 3 * 16 * n
    assert live_blocks < 100

    tracker = SlowdownTracker(make_net())
    for i in range(n):
        tracker.record_oneway(0, 143, 1000 + i, 0, 10_000_000)
    held = sys.getsizeof(tracker.sizes) + sys.getsizeof(tracker.slowdowns)
    assert 16 * n <= held <= 17 * n + 256


@pytest.mark.skipif(sys.byteorder == "big",
                    reason="the swap path is the native one there")
def test_big_endian_host_swaps_a_copy_never_the_live_column(monkeypatch):
    tracker = _tracker([1, 2**40, 2**62], [1.5, -0.0, float("nan")])
    little = tracker.to_payload()
    before = (tracker.sizes.tobytes(), tracker.slowdowns.tobytes())

    monkeypatch.setattr(sys, "byteorder", "big")
    payload = tracker.to_payload()
    back = SlowdownTracker.from_payload(json.loads(json.dumps(payload)))
    monkeypatch.undo()

    assert (tracker.sizes.tobytes(), tracker.slowdowns.tobytes()) == before
    assert back.sizes == tracker.sizes
    assert _bits(back.slowdowns) == _bits(tracker.slowdowns)
    # The swap path really ran: this (little-endian) host wrote the
    # byte-reversed items a big-endian host's arrays would hold.
    assert base64.b64decode(payload["sizes"]) \
        == struct.pack(">3q", *tracker.sizes)
    assert payload != little


def test_series_rejects_percentiles_it_has_no_column_for():
    tracker = _tracker([50, 50, 500], [1.0, 3.0, 2.0])
    edges = [0, 100, 1000]
    report = tracker.bucket_report(edges)
    assert tracker.series(edges, 50) == [b.p50 for b in report]
    assert tracker.series(edges, 99) == [b.p99 for b in report]
    with pytest.raises(ValueError, match="90"):
        tracker.series(edges, 90)


# ---------------------------------------------------------------------------
# QueueLengthProbe
# ---------------------------------------------------------------------------


def test_queue_probe_time_weighted_mean():
    probe = QueueLengthProbe(start_ps=0)
    probe.on_queue_change(0, 100)     # 100 B from t=0
    probe.on_queue_change(50, 300)    # 300 B from t=50
    probe.on_queue_change(100, 0)     # empty from t=100
    # Integral: 100*50 + 300*50 = 20000 over 200 ps -> mean 100.
    assert probe.mean_bytes(200, 0) == pytest.approx(100.0)
    assert probe.max_qbytes == 300


def test_queue_probe_handles_open_interval():
    probe = QueueLengthProbe(start_ps=0)
    probe.on_queue_change(0, 500)
    # Still 500 B at the end: the tail interval counts.
    assert probe.mean_bytes(100, 0) == pytest.approx(500.0)


def test_queue_probe_zero_duration():
    probe = QueueLengthProbe(start_ps=0)
    assert probe.mean_bytes(0, 0) == 0.0


# ---------------------------------------------------------------------------
# wasted-bandwidth accounting
# ---------------------------------------------------------------------------


def test_idle_withheld_intersection():
    account = _IdleWithheldAccount(start_ps=0)
    account.set_withheld(0, True)       # withheld, idle -> accumulating
    account.on_busy_change(100, True)   # busy at t=100: 100 ps wasted
    account.on_busy_change(200, False)  # idle again
    account.set_withheld(250, False)    # stops at t=250: +50 ps
    account._accumulate(300)
    assert account.wasted_ps == 150


def test_idle_busy_without_withheld_not_wasted():
    account = _IdleWithheldAccount(start_ps=0)
    account.on_busy_change(100, True)
    account.on_busy_change(200, False)
    account._accumulate(400)
    assert account.wasted_ps == 0


# ---------------------------------------------------------------------------
# probe composition
# ---------------------------------------------------------------------------


class CountingProbe(PortProbe):
    def __init__(self):
        self.events = 0

    def on_tx_done(self, now, pkt):
        self.events += 1


def test_composite_probe_fans_out():
    first, second = CountingProbe(), CountingProbe()
    composite = CompositeProbe([first, second])
    composite.on_tx_done(0, None)
    assert first.events == 1 and second.events == 1


def test_attach_probe_composes():
    sim = Simulator()
    port = QueuedPort(sim, "p", 10, lambda pkt: None, "tor_down")
    a, b, c = CountingProbe(), CountingProbe(), CountingProbe()
    attach_probe(port, a)
    assert port.probe is a
    attach_probe(port, b)
    assert isinstance(port.probe, CompositeProbe)
    attach_probe(port, c)
    assert len(port.probe.probes) == 3
    port.enqueue(Packet(0, 1, PacketType.DATA, prio=0, payload=10, rpc_id=1))
    sim.run()
    assert a.events == b.events == c.events == 1
