"""Unit tests for egress ports: priorities, drops, ECN, trimming, pull."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.packet import (
    CTRL_PRIO,
    MAX_PAYLOAD,
    Packet,
    PacketType,
    wire_size,
)
from repro.core.port import PfabricPort, PortProbe, PullPort, QueuedPort

from tests.helpers import port_leftovers


def data(src=0, dst=1, *, prio=0, payload=100, fine=0, offset=0):
    return Packet(src, dst, PacketType.DATA, prio=prio, payload=payload,
                  fine_prio=fine, offset=offset, rpc_id=1)


class Collector:
    def __init__(self):
        self.out = []

    def __call__(self, pkt):
        self.out.append(pkt)


def make_queued(sim, sink, **kwargs):
    return QueuedPort(sim, "p", 10, sink, "tor_down", **kwargs)


def test_single_packet_serialization_time():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    pkt = data(payload=1000)
    port.enqueue(pkt)
    sim.run()
    assert sink.out == [pkt]
    # 1078 wire bytes at 10 Gbps = 800 ps/byte.
    assert sim.now == wire_size(1000) * 800


def test_higher_priority_jumps_queue():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    low1, low2, high = data(prio=1), data(prio=1), data(prio=6)
    port.enqueue(low1)   # starts transmitting immediately
    port.enqueue(low2)
    port.enqueue(high)
    sim.run()
    assert sink.out == [low1, high, low2]


def test_fifo_within_priority():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    pkts = [data(prio=3) for _ in range(4)]
    for pkt in pkts:
        port.enqueue(pkt)
    sim.run()
    assert sink.out == pkts


def test_buffer_overflow_drop_tail():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink, buffer_bytes=2 * wire_size(1000))
    kept1, kept2, dropped = data(payload=1000), data(payload=1000), data(payload=1000)
    port.enqueue(data(payload=1000))  # in flight, not buffered
    port.enqueue(kept1)
    port.enqueue(kept2)
    port.enqueue(dropped)
    sim.run()
    assert dropped not in sink.out
    assert port.drops == 1
    assert len(sink.out) == 3


def test_ecn_marking_above_threshold():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink, ecn_bytes=wire_size(1000))
    first, second, third = data(payload=1000), data(payload=1000), data(payload=1000)
    port.enqueue(first)    # transmitting; queue empty
    port.enqueue(second)   # queue 0 -> no mark
    port.enqueue(third)    # queue above threshold -> mark
    sim.run()
    assert not first.ecn and not second.ecn
    assert third.ecn


def test_ndp_trimming_converts_data_to_header():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink, trim_bytes=2 * 1538)
    packets = [data(prio=0, payload=MAX_PAYLOAD) for _ in range(5)]
    for pkt in packets:
        port.enqueue(pkt)
    sim.run()
    trimmed = [p for p in sink.out if p.trimmed]
    whole = [p for p in sink.out if not p.trimmed]
    # First is transmitted, next two fill the data queue, rest trimmed.
    assert len(whole) == 3
    assert len(trimmed) == 2
    assert all(p.prio == CTRL_PRIO for p in trimmed)
    assert all(p.wire == 84 for p in trimmed)


def test_queued_port_tracks_queue_bytes():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    port.enqueue(data(payload=1000))
    port.enqueue(data(payload=500))
    assert port.qbytes == wire_size(500)
    sim.run()
    assert port.qbytes == 0


def test_tx_counters():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    port.enqueue(data(payload=100))
    port.enqueue(data(payload=200))
    sim.run()
    assert port.tx_packets == 2
    assert port.tx_wire_bytes == wire_size(100) + wire_size(200)


class RecordingProbe(PortProbe):
    def __init__(self):
        self.queue_events = []
        self.busy_events = []
        self.tx = []
        self.dropped = []

    def on_queue_change(self, now, qbytes):
        self.queue_events.append((now, qbytes))

    def on_busy_change(self, now, busy):
        self.busy_events.append((now, busy))

    def on_tx_done(self, now, pkt):
        self.tx.append((now, pkt))

    def on_drop(self, now, pkt):
        self.dropped.append(pkt)


def test_probe_sees_busy_transitions_and_tx():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    probe = RecordingProbe()
    port.probe = probe
    port.enqueue(data(payload=1000))
    sim.run()
    assert probe.busy_events[0] == (0, True)
    assert probe.busy_events[-1][1] is False
    assert len(probe.tx) == 1


def test_probe_sees_drops():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink, buffer_bytes=wire_size(1000))
    probe = RecordingProbe()
    port.probe = probe
    port.enqueue(data(payload=1000))  # transmits
    port.enqueue(data(payload=1000))  # buffered (fills the buffer)
    port.enqueue(data(payload=1000))  # dropped: exceeds buffer
    sim.run()
    assert len(probe.dropped) == 1


def test_delay_attribution_preemption_lag():
    """A high-priority packet stuck behind a low-priority transmission
    accumulates preemption lag, not queueing delay (Figure 14)."""
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    port.trace_delays = True
    low = data(prio=0, payload=MAX_PAYLOAD)
    high = data(prio=7, payload=100)
    port.enqueue(low)
    port.enqueue(high)
    sim.run()
    assert high.p_wait == 1538 * 800
    assert high.q_wait == 0


def test_delay_attribution_queueing():
    """Waiting behind equal-or-higher priority counts as queueing."""
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink)
    port.trace_delays = True
    first = data(prio=5, payload=1000)
    second = data(prio=5, payload=100)
    port.enqueue(first)
    port.enqueue(second)
    sim.run()
    assert second.q_wait == wire_size(1000) * 800
    assert second.p_wait == 0


def test_preemptive_link_interrupts_low_priority():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink, preemptive=True)
    low = data(prio=0, payload=MAX_PAYLOAD)
    high = data(prio=7, payload=100)
    port.enqueue(low)
    sim.run(until_ps=1000)  # low is mid-transmission
    port.enqueue(high)
    sim.run()
    # High priority finishes first even though low started first.
    assert sink.out[0] is high
    assert sink.out[1] is low
    # Low's total service is unchanged: only its completion moved.
    assert sim.now == 1538 * 800 + wire_size(100) * 800


def test_preemptive_link_delivers_everything():
    sim, sink = Simulator(), Collector()
    port = make_queued(sim, sink, preemptive=True)
    pkts = [data(prio=p % 8, payload=500) for p in range(16)]
    for pkt in pkts:
        port.enqueue(pkt)
    sim.run()
    assert sorted(id(p) for p in sink.out) == sorted(id(p) for p in pkts)


# ---------------------------------------------------------------------------
# pFabric port
# ---------------------------------------------------------------------------


def test_pfabric_dequeues_smallest_remaining():
    sim, sink = Simulator(), Collector()
    port = PfabricPort(sim, "p", 10, sink, "tor_down", buffer_bytes=10 * 1538)
    blocker = data(fine=5000, payload=1000)
    big = data(fine=100_000, payload=1000)
    small = data(fine=200, payload=1000)
    port.enqueue(blocker)  # transmitting
    port.enqueue(big)
    port.enqueue(small)
    sim.run()
    assert sink.out == [blocker, small, big]


def test_pfabric_fifo_among_equal_priorities():
    sim, sink = Simulator(), Collector()
    port = PfabricPort(sim, "p", 10, sink, "tor_down", buffer_bytes=10 * 1538)
    first, second = data(fine=100), data(fine=100)
    port.enqueue(data(fine=1))  # occupy the link
    port.enqueue(first)
    port.enqueue(second)
    sim.run()
    assert sink.out.index(first) < sink.out.index(second)


def test_pfabric_drops_largest_on_overflow():
    sim, sink = Simulator(), Collector()
    port = PfabricPort(sim, "p", 10, sink, "tor_down",
                       buffer_bytes=2 * wire_size(1000))
    port.enqueue(data(fine=10, payload=1000))      # in flight
    victim = data(fine=999_999, payload=1000)
    keeper = data(fine=50, payload=1000)
    newcomer = data(fine=20, payload=1000)
    port.enqueue(victim)
    port.enqueue(keeper)
    port.enqueue(newcomer)  # overflow: victim has lowest urgency
    sim.run()
    assert victim not in sink.out
    assert keeper in sink.out and newcomer in sink.out
    assert port.drops == 1


def test_pfabric_drops_arrival_if_it_is_least_urgent():
    sim, sink = Simulator(), Collector()
    port = PfabricPort(sim, "p", 10, sink, "tor_down",
                       buffer_bytes=2 * wire_size(1000))
    port.enqueue(data(fine=10, payload=1000))
    port.enqueue(data(fine=20, payload=1000))
    port.enqueue(data(fine=30, payload=1000))
    loser = data(fine=999, payload=1000)
    port.enqueue(loser)
    sim.run()
    assert loser not in sink.out


def test_pfabric_port_forgets_what_it_sent():
    """A drained port holds nothing: no structure may grow with the
    number of packets the port has carried."""
    sim, sink = Simulator(), Collector()
    port = PfabricPort(sim, "p", 10, sink, "tor_down",
                       buffer_bytes=1000 * wire_size(100))
    for i in range(1000):
        port.enqueue(data(fine=i % 7, payload=100))
    sim.run()
    assert len(sink.out) == 1000 and port.drops == 0
    assert port.qbytes == 0 and not port.busy
    assert port_leftovers(port) == {}


#: random enqueues (payload, fine_prio; few distinct priorities, so
#: ties are common) interleaved with clock advances, in picoseconds
pfabric_steps = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.integers(min_value=0, max_value=MAX_PAYLOAD),
                  st.integers(min_value=0, max_value=5)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=4_000_000),
                  st.just(0)),
    ),
    max_size=80,
)


class ReferencePfabric:
    """pFabric's queue as a plain list on a 10 Gbps link: transmit the
    minimum (fine_prio, arrival); on overflow evict the maximum
    fine_prio, oldest first, or drop the arrival if it is no more urgent
    than that."""

    def __init__(self, buffer_bytes):
        self.buffer_bytes = buffer_bytes
        self.queue = []          # (fine_prio, arrival, pkt)
        self.wire_pkt = None     # the packet being transmitted
        self.free_at = 0         # when the link frees, in ps
        self.sent, self.dropped = [], []

    def advance(self, now):
        while self.wire_pkt is not None and self.free_at <= now:
            self.sent.append(self.wire_pkt)
            self.wire_pkt = None
            if self.queue:
                entry = min(self.queue)
                self.queue.remove(entry)
                self._transmit(entry[2], self.free_at)

    def _transmit(self, pkt, now):
        self.wire_pkt = pkt
        self.free_at = now + pkt.wire * 800

    def enqueue(self, pkt, arrival, now):
        while sum(e[2].wire for e in self.queue) + pkt.wire > self.buffer_bytes:
            worst = max(self.queue, key=lambda e: (e[0], -e[1]), default=None)
            if worst is None or worst[0] <= pkt.fine_prio:
                self.dropped.append(pkt)
                return
            self.queue.remove(worst)
            self.dropped.append(worst[2])
        if self.wire_pkt is None:
            self._transmit(pkt, now)
        else:
            self.queue.append((pkt.fine_prio, arrival, pkt))


@given(steps=pfabric_steps, buffer_pkts=st.sampled_from([1, 2, 3, 5]))
@settings(max_examples=200, deadline=None)
def test_pfabric_port_matches_reference_model(steps, buffer_pkts):
    """Exactness: the port sends and drops exactly what the plain-list
    model does, in the same order."""
    buffer_bytes = buffer_pkts * wire_size(MAX_PAYLOAD)
    sim, sink = Simulator(), Collector()
    port = PfabricPort(sim, "p", 10, sink, "tor_down",
                       buffer_bytes=buffer_bytes)
    port.probe = probe = RecordingProbe()
    ref = ReferencePfabric(buffer_bytes)
    for i, (kind, amount, fine) in enumerate(steps):
        if kind == "run":
            sim.run(until_ps=sim.now + amount)
            ref.advance(sim.now)
        else:
            port.enqueue(data(payload=amount, fine=fine, offset=i))
            ref.enqueue(data(payload=amount, fine=fine, offset=i), i, sim.now)
    sim.run()
    ref.advance(sim.now)

    def labels(pkts):
        return [pkt.offset for pkt in pkts]

    assert labels(sink.out) == labels(ref.sent)
    assert labels(probe.dropped) == labels(ref.dropped)
    assert port.drops == len(ref.dropped)
    assert port_leftovers(port) == {}


# ---------------------------------------------------------------------------
# Pull port
# ---------------------------------------------------------------------------


class ScriptedSource:
    def __init__(self, packets):
        self.packets = list(packets)
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return self.packets.pop(0) if self.packets else None


def test_pull_port_drains_source():
    sim, sink = Simulator(), Collector()
    port = PullPort(sim, "nic", 10, sink, "host_up")
    source = ScriptedSource([data(payload=100), data(payload=200)])
    port.source = source
    port.kick()
    sim.run()
    assert len(sink.out) == 2
    assert sim.now == (wire_size(100) + wire_size(200)) * 800


def test_pull_port_kick_while_busy_is_noop():
    sim, sink = Simulator(), Collector()
    port = PullPort(sim, "nic", 10, sink, "host_up")
    source = ScriptedSource([data(payload=1000)])
    port.source = source
    port.kick()
    port.kick()  # busy: must not double-transmit
    sim.run()
    assert len(sink.out) == 1


def test_pull_port_idle_with_empty_source():
    sim, sink = Simulator(), Collector()
    port = PullPort(sim, "nic", 10, sink, "host_up")
    source = ScriptedSource([])
    port.source = source
    port.kick()
    sim.run()
    assert not sink.out
    assert source.calls == 1
