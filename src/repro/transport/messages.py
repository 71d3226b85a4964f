"""Message state machines shared by every transport.

``Intervals`` tracks which byte ranges of a message have arrived; data
packets may arrive in any order because of per-packet spraying (paper
section 3.3: "The DATA packets for a message can arrive in any order;
the receiver collates them using the offsets in each packet").
"""

from __future__ import annotations

from typing import Optional

from repro.core.packet import MAX_PAYLOAD


class Intervals:
    """A set of disjoint, sorted half-open byte ranges [start, end).

    Arrivals at or past the end append or extend the last range (almost
    every ``add``: per-packet spraying makes it a per-data-packet hot
    path for every protocol here).  An out-of-order arrival splices into
    place with one slice assignment over just the overlapped ranges,
    found by scanning from the right: a message holds few ranges, and
    the gap being filled is usually near its end.
    """

    __slots__ = ("_ranges", "total")

    def __init__(self) -> None:
        self._ranges: list[list[int]] = []
        self.total = 0

    def add(self, start: int, end: int) -> int:
        """Insert a range; returns the number of newly covered bytes."""
        if end <= start:
            return 0
        ranges = self._ranges
        if not ranges or start > ranges[-1][1]:
            ranges.append([start, end])  # fast path: append at the end
            self.total += end - start
            return end - start
        if start == ranges[-1][1]:  # fast path: contiguous arrival
            added = end - start
            ranges[-1][1] = end
            self.total += added
            return added
        # General case: splice ranges[lo:hi] into one.  Those are the
        # ranges that overlap or touch [start, end): below hi every
        # range starts at or before ``end``, and from lo up every range
        # ends at or after ``start`` (ends grow left to right).
        hi = len(ranges)
        while hi and ranges[hi - 1][0] > end:
            hi -= 1
        lo = hi
        while lo and ranges[lo - 1][1] >= start:
            lo -= 1
        added = end - start
        ns, ne = start, end
        for s, e in ranges[lo:hi]:
            overlap = min(e, ne) - max(s, ns)
            if overlap > 0:
                added -= overlap
            if s < ns:
                ns = s
            if e > ne:
                ne = e
        ranges[lo:hi] = [[ns, ne]]
        self.total += added
        return added

    def covers(self, start: int, end: int) -> bool:
        """True if [start, end) is fully contained."""
        for s, e in reversed(self._ranges):
            if s <= start:
                return e >= end
        return False

    def first_gap(self, upto: int) -> Optional[tuple[int, int]]:
        """First missing range below ``upto`` (for RESEND requests)."""
        cursor = 0
        for s, e in self._ranges:
            if cursor < s:
                return (cursor, min(s, upto))
            cursor = max(cursor, e)
            if cursor >= upto:
                return None
        if cursor < upto:
            return (cursor, upto)
        return None

    def gaps(self, upto: int) -> list[tuple[int, int]]:
        """Every missing range below ``upto`` (loss-recovery sweeps)."""
        out: list[tuple[int, int]] = []
        cursor = 0
        for s, e in self._ranges:
            if cursor < s:
                out.append((cursor, min(s, upto)))
            cursor = max(cursor, e)
            if cursor >= upto:
                return out
        if cursor < upto:
            out.append((cursor, upto))
        return out

    def contiguous_prefix(self) -> int:
        """Bytes received in order from offset 0 (stream delivery point)."""
        ranges = self._ranges
        if ranges and ranges[0][0] == 0:
            return ranges[0][1]
        return 0

    def __len__(self) -> int:
        return len(self._ranges)


class OutboundMessage:
    """Sender-side view of one message.

    ``granted`` is the highest byte offset the sender may transmit;
    unscheduled bytes count as granted from creation.  ``sent`` advances
    as packets are handed to the NIC.  Retransmission requests queue in
    ``rtx``, a sorted list of disjoint ``[start, end)`` ranges, and take
    precedence within the message.  It is a plain list, not a deque: it
    held at most 10 ranges on any measured run, and every protocol
    builds one per message.
    """

    __slots__ = (
        "rpc_id", "is_request", "src", "dst", "length", "sent", "granted",
        "grant_prio", "unsched_limit", "created_ps", "rtx", "app_meta",
        "incast", "acked", "in_flight", "sort_seq", "key",
    )

    def __init__(
        self,
        rpc_id: int,
        is_request: bool,
        src: int,
        dst: int,
        length: int,
        *,
        unsched_limit: int,
        created_ps: int,
        app_meta: int | None = None,
    ) -> None:
        if length <= 0:
            raise ValueError(f"message length must be positive, got {length}")
        self.rpc_id = rpc_id
        self.is_request = is_request
        self.src = src
        self.dst = dst
        self.length = length
        self.sent = 0
        self.unsched_limit = unsched_limit
        self.granted = min(length, unsched_limit)
        self.grant_prio = 0
        self.created_ps = created_ps
        self.rtx: list[list[int]] = []
        self.app_meta = app_meta
        self.incast = False
        # Used by the window-based baselines (pFabric / NDP / stream):
        self.acked = Intervals()
        self.in_flight = 0
        # Last tie-break of Homa's SRPT orders (the sender's pull, the
        # receiver's ranking): assigned by the transport in registration
        # order, which makes each of those keys a total order.
        self.sort_seq = 0
        # Message identity, precomputed: this is the hash key for every
        # transport-side dict and index validation on the packet path.
        self.key = (rpc_id << 1) | (1 if is_request else 0)

    @property
    def remaining(self) -> int:
        """Bytes not yet sent (the sender's SRPT metric)."""
        return self.length - self.sent

    def grant_to(self, offset: int, prio: int) -> None:
        """Apply a GRANT: extend the transmittable region."""
        if offset > self.granted:
            self.granted = min(offset, self.length)
        self.grant_prio = prio

    def queue_rtx(self, start: int, end: int) -> None:
        """Queue a byte range for retransmission.

        Overlapping RESENDs race in practice (the receiver's timer and a
        client timer can request the same gap); coalescing against the
        already-queued ranges keeps every byte at most once in ``rtx``,
        so duplicate requests cannot inflate retransmitted bytes.  The
        queue is kept sorted and disjoint; retransmissions therefore go
        out lowest-offset first.
        """
        end = min(end, self.length)
        if end <= start:
            return
        merged: list[int] = [start, end]
        keep: list[list[int]] = []
        for chunk in self.rtx:
            if chunk[1] < merged[0] or chunk[0] > merged[1]:
                keep.append(chunk)
            else:  # overlapping or adjacent: fold into the new range
                if chunk[0] < merged[0]:
                    merged[0] = chunk[0]
                if chunk[1] > merged[1]:
                    merged[1] = chunk[1]
        keep.append(merged)
        keep.sort()
        self.rtx = keep

    def sendable(self) -> bool:
        # ``granted`` is capped at ``length`` on every write, so the
        # grant limit needs no re-clamping here (hot path).
        return self.sent < self.granted or bool(self.rtx)

    def fully_sent(self) -> bool:
        return self.sent >= self.length and not self.rtx

    def next_chunk(self) -> Optional[tuple[int, int, bool]]:
        """Next (offset, size, is_retransmission) to put on the wire."""
        if self.rtx:
            chunk = self.rtx[0]
            offset = chunk[0]
            size = min(MAX_PAYLOAD, chunk[1] - offset)
            chunk[0] += size
            if chunk[0] >= chunk[1]:
                self.rtx.pop(0)  # simlint: ok(quadratic-pop) — a message's retransmission queue held at most 10 ranges on any measured run; a deque costs 760 B per message (docs/PERFORMANCE.md, "Switch-port and NIC FIFOs")
            return (offset, size, True)
        limit = self.granted
        if self.sent < limit:
            offset = self.sent
            size = min(MAX_PAYLOAD, limit - offset)
            self.sent += size
            return (offset, size, False)
        return None


class InboundMessage:
    """Receiver-side view of one message."""

    __slots__ = (
        "rpc_id", "is_request", "src", "dst", "length", "received",
        "granted", "sched_prio", "first_arrival_ps", "last_activity_ps",
        "resends", "resent", "app_meta", "incast", "created_ps",
        "sort_seq", "key",
    )

    def __init__(
        self,
        rpc_id: int,
        is_request: bool,
        src: int,
        dst: int,
        length: int,
        *,
        now_ps: int,
    ) -> None:
        self.rpc_id = rpc_id
        self.is_request = is_request
        self.src = src
        self.dst = dst
        self.length = length
        self.received = Intervals()
        self.granted = 0          # highest offset known granted/unscheduled
        self.sched_prio = 0
        self.first_arrival_ps = now_ps
        self.last_activity_ps = now_ps
        self.resends = 0
        # Set once this host asks the sender to resend any of it: only
        # then can a second copy of a byte still be on the wire when the
        # message completes (``Transport._complete`` remembers it).
        self.resent = False
        self.app_meta: int | None = None
        self.incast = False
        self.created_ps = now_ps  # overwritten with the sender's stamp
        self.sort_seq = 0         # see OutboundMessage.sort_seq
        self.key = (rpc_id << 1) | (1 if is_request else 0)

    @property
    def bytes_received(self) -> int:
        return self.received.total

    @property
    def request_length(self) -> int:
        """Alias so RPC server handlers can treat a completed inbound
        request interchangeably with Homa's ServerRpc."""
        return self.length

    @property
    def bytes_remaining(self) -> int:
        """Bytes still missing (the receiver's SRPT metric)."""
        return self.length - self.received.total

    def record(self, offset: int, payload: int, now_ps: int) -> int:
        """Register an arrived data range; returns newly received bytes."""
        self.last_activity_ps = now_ps
        added = self.received.add(offset, min(offset + payload, self.length))
        if added:
            self.resends = 0  # progress resets the retry budget
        return added

    def is_complete(self) -> bool:
        return self.received.total >= self.length
