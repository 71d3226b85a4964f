"""Slot-pooled packet storage: the array-core allocator.

A ``PacketPool`` owns a preallocated block of packet *slots* and hands
them out through a LIFO free-list, so the per-packet cost of the hot
transports drops from "allocate a 27-field object, then deallocate it"
to "pop a slot index and re-initialize the fields that differ".  Each
slot is a regular :class:`~repro.core.packet.Packet` carrying its pool
identity (``pkt.pool``, ``pkt.slot``), which keeps the whole attribute
API intact for every consumer — ports, switches, metrics — while
making allocation and recycling O(1) list ops.

Why slots-as-objects instead of raw parallel ``array('q')`` columns:
CPython boxes every ``array`` element on read, making it several times
the cost of a slot attribute read (~3x, micro-timed at ``913018c``), so
a packet represented as "an index into twenty int arrays" pays the
boxing toll on every field touch in every hop.  The pool therefore keeps the
*storage discipline* of a struct-of-arrays core — preallocation, index
free-list, explicit recycle points, growth in deterministic chunks —
and keeps the per-field representation in slot descriptors, which is
the layout CPython actually reads fastest.  docs/PERFORMANCE.md
("array core") has the numbers.

Life cycle contract:

* ``alloc_data`` / ``alloc_ctrl`` pop a free slot and fully
  re-initialize every protocol-visible field, so a recycled packet is
  indistinguishable from a freshly constructed one (the determinism
  property tests in ``tests/test_pool.py`` pin this: digests are
  byte-identical to unpooled construction).
* ``free`` returns a slot once its packet has been *consumed* — for
  Homa, when ``on_packet`` has dispatched it at the destination.  It
  resets the flight-mutable fields (ECN/trim marks, wait accumulators)
  and drops payload references; freeing a slot twice raises, freeing a
  foreign packet is a checked error.
* The pool grows by ``grow_chunk`` fresh slots whenever the free-list
  runs dry (packets dropped by a lossy fabric are simply never freed),
  so sizing is a performance knob, never a correctness limit
  (docs/CONFIG.md: ``HomaConfig.pool_prealloc``).
"""

from __future__ import annotations

from repro.core.packet import (CTRL_PRIO, ETH_OVERHEAD, HEADER_BYTES,
                               MIN_WIRE, Packet, PacketType)

_OVERHEAD = HEADER_BYTES + ETH_OVERHEAD


class PacketPool:
    """A free-list of recycled packet slots (see module docstring)."""

    __slots__ = ("slots", "live", "grow_chunk", "_free",
                 "data_allocs", "ctrl_allocs", "recycled", "grows")

    def __init__(self, prealloc: int = 4096, grow_chunk: int | None = None) -> None:
        if prealloc < 0:
            raise ValueError(f"negative prealloc {prealloc}")
        #: every slot ever created, indexed by ``pkt.slot``
        self.slots: list[Packet] = []
        #: per-slot liveness bit (1 = handed out, 0 = in the free-list)
        self.live = bytearray()
        self.grow_chunk = grow_chunk or max(256, prealloc // 4 or 256)
        self._free: list[Packet] = []
        self.data_allocs = 0
        self.ctrl_allocs = 0
        self.recycled = 0
        self.grows = 0
        if prealloc:
            self._grow(prealloc)
            self.grows = 0  # preallocation is not growth

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def alloc_data(self, src, dst, prio, payload, rpc_id, is_request, offset,
                   total_length, sched, retx, incast, app_meta, grant_offset,
                   created_ps) -> Packet:
        """A DATA packet; parameters mirror the ``Packet.__init__`` prefix."""
        free = self._free
        if not free:
            self._grow(self.grow_chunk)
        pkt = free.pop()
        self.live[pkt.slot] = 1
        self.data_allocs += 1
        pkt.src = src
        pkt.dst = dst
        pkt.kind = PacketType.DATA
        pkt.prio = prio
        pkt.fine_prio = 0
        pkt.rpc_id = rpc_id
        pkt.is_request = is_request
        pkt.offset = offset
        pkt.payload = payload
        wire = payload + _OVERHEAD
        pkt.wire = MIN_WIRE if wire < MIN_WIRE else wire
        pkt.total_length = total_length
        pkt.sched = sched
        pkt.retx = retx
        pkt.incast = incast
        pkt.grant_offset = grant_offset
        pkt.grant_prio = 0
        pkt.range_end = 0
        pkt.app_meta = app_meta
        pkt.created_ps = created_ps
        pkt.msg_key = (rpc_id << 1) | (1 if is_request else 0)
        return pkt

    def alloc_ctrl(self, kind, src, dst, rpc_id, is_request,
                   grant_offset=0, grant_prio=0, offset=0, range_end=0,
                   cutoffs=None) -> Packet:
        """A control packet (GRANT/RESEND/BUSY...): header-only frame."""
        free = self._free
        if not free:
            self._grow(self.grow_chunk)
        pkt = free.pop()
        self.live[pkt.slot] = 1
        self.ctrl_allocs += 1
        pkt.src = src
        pkt.dst = dst
        pkt.kind = kind
        pkt.prio = CTRL_PRIO
        pkt.fine_prio = 0
        pkt.rpc_id = rpc_id
        pkt.is_request = is_request
        pkt.offset = offset
        pkt.payload = 0
        pkt.wire = MIN_WIRE
        pkt.total_length = 0
        pkt.sched = False
        pkt.retx = False
        pkt.incast = False
        pkt.grant_offset = grant_offset
        pkt.grant_prio = grant_prio
        pkt.range_end = range_end
        pkt.cutoffs = cutoffs
        pkt.app_meta = None
        pkt.created_ps = 0
        pkt.msg_key = (rpc_id << 1) | (1 if is_request else 0)
        return pkt

    # ------------------------------------------------------------------
    # recycling
    # ------------------------------------------------------------------

    def free(self, pkt: Packet) -> None:
        """Return a consumed packet's slot to the free-list.

        Resets every field a hop may have mutated in flight, so the next
        allocation from this slot starts from constructor state.
        """
        if pkt.pool is not self:
            raise ValueError("packet does not belong to this pool")
        slot = pkt.slot
        live = self.live
        if not live[slot]:
            raise RuntimeError(f"double free of pool slot {slot}")
        live[slot] = 0
        self.recycled += 1
        pkt.ecn = False
        pkt.trimmed = False
        pkt.q_wait = 0
        pkt.p_wait = 0
        pkt.cutoffs = None
        pkt.app_meta = None
        self._free.append(pkt)

    # ------------------------------------------------------------------
    # storage management / introspection
    # ------------------------------------------------------------------

    def _grow(self, chunk: int) -> None:
        """Append ``chunk`` fresh slots (deterministic slot numbering)."""
        slots = self.slots
        free = self._free
        base = len(slots)
        self.live.extend(b"\0" * chunk)
        for i in range(base, base + chunk):
            pkt = Packet(0, 0, PacketType.DATA)
            pkt.pool = self
            pkt.slot = i
            slots.append(pkt)
            free.append(pkt)
        self.grows += 1

    def in_flight(self) -> int:
        """Number of slots currently handed out (cold: debugging/tests)."""
        return len(self.slots) - len(self._free)

    def stats(self) -> dict:
        return {
            "slots": len(self.slots),
            "in_flight": self.in_flight(),
            "data_allocs": self.data_allocs,
            "ctrl_allocs": self.ctrl_allocs,
            "recycled": self.recycled,
            "grows": self.grows,
        }


def free_packet(pkt: Packet) -> None:
    """Recycle ``pkt`` if pool-born; no-op for plain-constructed packets.

    The safe consumption hook for code that may see packets from pooled
    and unpooled transports alike.
    """
    pool = pkt.pool
    if pool is not None:
        pool.free(pkt)
