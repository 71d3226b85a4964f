"""Additional edge-case tests for the preemptive-link ablation port."""

from repro.core.engine import Simulator
from repro.core.packet import MAX_PAYLOAD, Packet, PacketType, wire_size
from repro.core.port import QueuedPort


def data(prio, payload=1000, rpc=1):
    return Packet(0, 1, PacketType.DATA, prio=prio, payload=payload,
                  rpc_id=rpc)


def make_port(sink):
    sim = Simulator()
    port = QueuedPort(sim, "p", 10, sink.append, "tor_down",
                      preemptive=True)
    return sim, port


def test_nested_preemption():
    """P0 preempted by P3 preempted by P7: completion order 7, 3, 0."""
    sink = []
    sim, port = make_port(sink)
    low = data(0, MAX_PAYLOAD)
    mid = data(3, MAX_PAYLOAD)
    high = data(7, 100)
    port.enqueue(low)
    sim.run(until_ps=100_000)
    port.enqueue(mid)
    sim.run(until_ps=200_000)
    port.enqueue(high)
    sim.run()
    assert sink == [high, mid, low]


def test_preemption_preserves_total_service():
    sink = []
    sim, port = make_port(sink)
    low = data(0, MAX_PAYLOAD)
    high = data(7, 100)
    port.enqueue(low)
    sim.run(until_ps=400_000)
    port.enqueue(high)
    sim.run()
    total = (wire_size(MAX_PAYLOAD) + wire_size(100)) * 800
    assert sim.now == total


def test_equal_priority_does_not_preempt():
    sink = []
    sim, port = make_port(sink)
    first = data(5, MAX_PAYLOAD)
    second = data(5, 100)
    port.enqueue(first)
    sim.run(until_ps=100_000)
    port.enqueue(second)
    sim.run()
    assert sink == [first, second]


def test_lower_priority_does_not_preempt():
    sink = []
    sim, port = make_port(sink)
    first = data(5, MAX_PAYLOAD)
    second = data(2, 100)
    port.enqueue(first)
    sim.run(until_ps=100_000)
    port.enqueue(second)
    sim.run()
    assert sink == [first, second]


def test_resume_happens_before_lower_priority_queue():
    """A paused P3 packet resumes before a freshly queued P1 packet."""
    sink = []
    sim, port = make_port(sink)
    mid = data(3, MAX_PAYLOAD)
    low = data(1, 500)
    high = data(7, 100)
    port.enqueue(mid)
    sim.run(until_ps=100_000)
    port.enqueue(high)  # preempts mid
    port.enqueue(low)
    sim.run()
    assert sink == [high, mid, low]


def test_higher_priority_queue_beats_paused_packet():
    """A queued P6 packet is served before resuming a paused P3."""
    sink = []
    sim, port = make_port(sink)
    mid = data(3, MAX_PAYLOAD)
    high1 = data(7, 100)
    high2 = data(6, 100)
    port.enqueue(mid)
    sim.run(until_ps=100_000)
    port.enqueue(high1)  # preempts
    port.enqueue(high2)  # queued at 6
    sim.run()
    assert sink == [high1, high2, mid]


def test_preemption_stress_delivers_everything():
    import random
    sink = []
    sim, port = make_port(sink)
    rng = random.Random(5)
    packets = []
    t = 0
    for _ in range(200):
        pkt = data(rng.randrange(8), rng.randrange(1, 1461), rpc=len(packets))
        packets.append(pkt)
        t += rng.randrange(0, 1_500_000)
        sim.schedule_at(t, port.enqueue, pkt)
    sim.run()
    assert len(sink) == 200
    assert sorted(id(p) for p in sink) == sorted(id(p) for p in packets)
