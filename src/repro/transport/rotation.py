"""Round-robin NIC service that does not scan idle members
(docs/PERFORMANCE.md, "Sender pulls")."""

from __future__ import annotations

from typing import Any, Callable, Optional


class ReadyRing:
    """A circular service order, a cursor, and a "may be ready" bitmask.

    Members are objects with a writable ``ring_pos`` attribute (their
    index in the order; the ring owns it).  The order is that of a
    ``deque`` rotated past every member examined: service resumes just
    behind the member served last, and a new member joins just behind
    the cursor, so it is served last in the current lap.

    The caller keeps one invariant — **predicate(member) true implies
    the member's bit is set** — by calling :meth:`mark` wherever a
    member can *become* sendable.  A set bit promises nothing:
    :meth:`pull` still asks the predicate and clears the bit when it
    says no, so a pull costs one predicate call per marked member it
    passes, not one per member.  The predicate must not touch the ring.
    """

    __slots__ = ("_members", "_cursor", "_ready")

    def __init__(self) -> None:
        self._members: list[Any] = []
        self._cursor = 0  # position served next
        self._ready = 0   # bit p set: _members[p] may pass the predicate

    def add(self, *members: Any) -> None:
        """Join just behind the cursor, in order, marked ready: the same
        ring as one ``add`` per member, with one shift of the ready mask
        and one renumbering of the members behind them."""
        k = len(members)
        pos = self._cursor
        if pos == 0:  # behind position 0 is the end: nothing shifts
            pos = len(self._members)
        else:
            self._cursor = pos + k
        above = self._ready >> pos << pos
        self._ready ^= above ^ (above << k) ^ (((1 << k) - 1) << pos)
        self._members[pos:pos] = members
        self._renumber(pos)

    def remove(self, member: Any) -> None:
        """Leave the ring; the other members keep their order."""
        pos = member.ring_pos
        above = self._ready >> pos << pos
        self._ready ^= above ^ (above >> (pos + 1) << pos)
        del self._members[pos]
        self._renumber(pos)
        if pos < self._cursor:
            self._cursor -= 1
        if self._cursor == len(self._members):
            self._cursor = 0

    def _renumber(self, start: int) -> None:
        members = self._members
        for pos in range(start, len(members)):
            members[pos].ring_pos = pos

    def mark(self, member: Any) -> None:
        """``member`` may have become sendable."""
        self._ready |= 1 << member.ring_pos

    def pull(self, predicate: Callable[[Any], bool]) -> Optional[Any]:
        """The first member at or after the cursor, wrapping once, that
        passes ``predicate``; the cursor moves just past it.  None, and
        an unmoved cursor, when no member passes."""
        members = self._members
        cursor = self._cursor
        while self._ready:
            ready = self._ready
            ahead = ready >> cursor
            if ahead:
                pos = cursor + (ahead & -ahead).bit_length() - 1
            else:  # nothing marked in the rest of this lap: wrap
                pos = (ready & -ready).bit_length() - 1
            member = members[pos]
            if predicate(member):
                self._cursor = pos + 1 if pos + 1 < len(members) else 0
                return member
            self._ready = ready ^ (1 << pos)
        return None
