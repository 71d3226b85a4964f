"""ReadyRing against the linear scan it replaced.

The reference model below *is* the pre-PR-15 sender pull
(``StreamTransport._next_data``: ``deque.rotate`` past every member
until the predicate holds).  Both are driven through random histories
of the events a stream connection / PIAS flow sees; at every step the
member picked and the rotation left behind must agree, which is what
keeps the slowdown digests byte-identical.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.rotation import ReadyRing

WINDOW = 2


class Conn:
    """``_Connection`` reduced to what ``sendable()`` reads."""

    def __init__(self, name):
        self.name = name
        self.queued = 0
        self.in_flight = 0
        self.ring_pos = None

    def sendable(self):
        return self.in_flight < WINDOW and self.queued > 0

    def __repr__(self):
        return f"c{self.name}(q={self.queued},f={self.in_flight})"


class ScanRing:
    """The linear scan: rotate past every member examined."""

    def __init__(self):
        self.ring = deque()
        self.examined = 0

    def add(self, member):
        self.ring.append(member)

    def remove(self, member):
        self.ring.remove(member)

    def pull(self, predicate):
        for _ in range(len(self.ring)):
            member = self.ring[0]
            self.ring.rotate(-1)
            self.examined += 1
            if predicate(member):
                return member
        return None


def rotation(ring):
    """The service order from the cursor, as the deque would hold it."""
    return ring._members[ring._cursor:] + ring._members[:ring._cursor]


def check(ring, scan):
    assert rotation(ring) == list(scan.ring)
    for pos, member in enumerate(ring._members):
        assert member.ring_pos == pos
        # the invariant callers keep: sendable => bit set
        assert not member.sendable() or ring._ready >> pos & 1
    assert ring._ready >> len(ring._members) == 0


OPS = ("add", "add_peer", "enqueue", "pull", "pull", "ack", "rtx_expire",
       "give_up", "remove")


def drive(history, initial=0):
    ring, scan = ReadyRing(), ScanRing()
    live, made, evaluated = [], 0, 0

    def counting(member):
        nonlocal evaluated
        evaluated += 1
        return member.sendable()

    def add(k=1):
        nonlocal made
        conns = [Conn(made + i) for i in range(k)]
        made += k
        live.extend(conns)
        ring.add(*conns)  # one call, as a stream peer's connections join
        for conn in conns:
            scan.add(conn)

    for _ in range(initial):
        add()
    for op, pick in history:
        if op == "add":
            add()
        elif op == "add_peer":
            add(pick % 8 + 1)
        elif op == "pull":
            got = ring.pull(counting)
            assert got is scan.pull(Conn.sendable)
            if got is not None:  # serve one packet of its head message
                got.in_flight += 1
                got.queued -= 1
        elif live:
            conn = live[pick % len(live)]
            if op == "remove":  # PIAS: fully acked or given up
                live.remove(conn)
                ring.remove(conn)
                scan.remove(conn)
            else:
                if op == "enqueue":
                    conn.queued += 1
                elif op == "ack":
                    conn.in_flight = max(0, conn.in_flight - 1)
                elif op == "rtx_expire":  # window released, rtx at head
                    conn.in_flight = max(0, conn.in_flight - 1)
                    conn.queued += 1
                elif op == "give_up":
                    conn.queued = max(0, conn.queued - 1)
                    conn.in_flight = 0
                ring.mark(conn)
        check(ring, scan)
    return ring, scan, evaluated


histories = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(min_value=0, max_value=63)),
    max_size=120)


@given(histories, st.integers(min_value=0, max_value=12))
@settings(max_examples=300, deadline=None)
def test_ring_matches_linear_scan(history, initial):
    ring, scan, evaluated = drive(history, initial)
    assert evaluated <= scan.examined


def ring_state(ring):
    return ([m.name for m in ring._members],
            [m.ring_pos for m in ring._members], ring._cursor, ring._ready)


@given(st.integers(min_value=0, max_value=12),
       st.integers(min_value=1, max_value=8), st.data())
@settings(max_examples=300, deadline=None)
def test_batched_add_equals_sequential_adds(n, k, data):
    """``add(*ms)`` leaves exactly the ring ``k`` single adds leave, at
    any cursor and any ready mask."""
    cursor = data.draw(st.integers(min_value=0, max_value=max(0, n - 1)))
    ready = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    batched, sequential = ReadyRing(), ReadyRing()
    for ring in (batched, sequential):
        for i in range(n):
            ring.add(Conn(i))  # cursor 0: each joins at the end
        ring._cursor, ring._ready = cursor, ready
    batched.add(*[Conn(n + i) for i in range(k)])
    for i in range(k):
        sequential.add(Conn(n + i))
    assert ring_state(batched) == ring_state(sequential)


def test_insert_while_cursor_is_mid_ring():
    ring, scan, _ = drive([("enqueue", 1), ("pull", 0)], initial=4)
    assert ring._cursor == 2  # served c1; c2 is next
    ring, scan, _ = drive(
        [("enqueue", 1), ("pull", 0), ("add", 0), ("add", 0)], initial=4)
    assert [c.name for c in rotation(ring)] == [2, 3, 0, 1, 4, 5]


def test_nothing_sendable_is_a_full_lap_that_moves_nothing():
    history = [("enqueue", 2), ("pull", 0), ("ack", 0), ("ack", 1)]
    ring, scan, _ = drive(history, initial=5)
    before = rotation(ring)
    assert ring.pull(Conn.sendable) is None
    assert scan.pull(Conn.sendable) is None
    assert rotation(ring) == before == list(scan.ring)
    assert ring._ready == 0  # every stale mark was verified and cleared
    evaluations = []
    assert ring.pull(evaluations.append) is None
    assert evaluations == []  # an idle ring costs no predicate call


def test_remove_at_and_around_the_cursor():
    for victim in range(4):
        history = [("enqueue", 1), ("pull", 0), ("remove", victim),
                   ("enqueue", 0), ("enqueue", 1), ("enqueue", 2),
                   ("pull", 0), ("pull", 0), ("pull", 0), ("pull", 0)]
        drive(history, initial=4)  # check() compares after every step
    ring, scan, _ = drive([("remove", 0)], initial=1)
    assert rotation(ring) == [] and ring._cursor == 0 and ring._ready == 0
