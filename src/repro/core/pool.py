"""A slot-pooled packet allocator that the simulator no longer uses.

Every packet in a run is a plain :class:`~repro.core.packet.Packet`
that lives and dies by reference counting: re-initializing and freeing
a slot costs more bytecodes than constructing a packet, and the
preallocated slots held ~1.2 MiB (docs/PERFORMANCE.md, "What each
mechanism buys").  This module survives only because the frozen probe
``benchmarks/perf/perf_trace.py`` imports ``PacketPool`` and times
``alloc_data`` + ``free`` (``pool.alloc_free_ns``); the file and
``tests/test_pool.py`` go with ROADMAP item 3a.  No module under
``src/repro`` imports it.
"""

from __future__ import annotations

from repro.core.packet import (ETH_OVERHEAD, HEADER_BYTES, MIN_WIRE, Packet,
                               PacketType)

_OVERHEAD = HEADER_BYTES + ETH_OVERHEAD


class _Slot(Packet):
    """A packet that knows its pool and slot index."""

    __slots__ = ("pool", "slot")


class PacketPool:
    """A LIFO free-list of recycled packet slots."""

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

    def free(self, pkt: Packet) -> None:
        """Return a slot to the free-list, reset to constructor state.

        Freeing a slot twice, or a packet of another pool, raises.
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

    def _grow(self, chunk: int) -> None:
        """Append ``chunk`` fresh slots (deterministic slot numbering)."""
        slots = self.slots
        free = self._free
        base = len(slots)
        self.live.extend(b"\0" * chunk)
        for i in range(base, base + chunk):
            pkt = _Slot(0, 0, PacketType.DATA)
            pkt.pool = self
            pkt.slot = i
            slots.append(pkt)
            free.append(pkt)
        self.grows += 1
