"""PacketPool (src/repro/core/pool.py): the allocator the perf probe times.

The simulator builds plain packets; ``benchmarks/perf/perf_trace.py``
still times ``alloc_data`` + ``free``, so their contracts stay pinned
until the probe and the module go together:

* recycling safety — a slot is never handed out twice while live, a
  double or foreign free raises, and a recycled slot re-initializes to
  exact constructor state;
* growth determinism — slot numbering and growth chunking depend only
  on the operation sequence.
"""

import random

import pytest

from repro.core.packet import Packet, PacketType
from repro.core.pool import PacketPool


def _alloc_args(rng):
    """Plausible randomized alloc_data argument tuple."""
    return (rng.randrange(64), rng.randrange(64), rng.randrange(8),
            rng.randrange(1461), rng.randrange(1 << 20), bool(rng.randrange(2)),
            rng.randrange(1 << 16), rng.randrange(1, 1 << 20),
            bool(rng.randrange(2)), False, False, None,
            rng.randrange(1 << 16), rng.randrange(1 << 30))


def _alloc(pool, i=0):
    return pool.alloc_data(0, 1, 2, 1460, i, True, 0, 9999,
                           False, False, False, None, 0, 0)


# ---------------------------------------------------------------------------
# recycling safety
# ---------------------------------------------------------------------------


def test_no_slot_reused_while_live_under_churn():
    """Random alloc/free churn: every handed-out slot is distinct from
    all currently-live slots, across growth boundaries."""
    rng = random.Random(42)
    pool = PacketPool(prealloc=8, grow_chunk=4)
    live = {}
    for _ in range(5000):
        if live and rng.random() < 0.45:
            slot = rng.choice(list(live))
            pool.free(live.pop(slot))
        else:
            pkt = pool.alloc_data(*_alloc_args(rng))
            assert pkt.slot not in live, "live slot handed out twice"
            assert pool.live[pkt.slot] == 1
            live[pkt.slot] = pkt
    assert sum(pool.live) == len(live)
    assert pool.data_allocs == pool.recycled + len(live)


def test_double_free_and_foreign_free_raise():
    pool = PacketPool(prealloc=2)
    pkt = _alloc(pool)
    pool.free(pkt)
    with pytest.raises(RuntimeError, match="double free"):
        pool.free(pkt)
    foreign = _alloc(PacketPool(prealloc=2))
    with pytest.raises(ValueError, match="does not belong"):
        pool.free(foreign)


def test_recycled_slot_matches_constructor_state():
    """Allocate, scribble over every field, free, then re-allocate: the
    recycled packet must be field-for-field identical to a freshly
    constructed one.  The scribble walks ``Packet.__slots__``, so a new
    slot that ``free``/``alloc_data`` forget to reset fails here without
    anyone editing this test."""
    pool = PacketPool(prealloc=1)
    pkt = pool.alloc_data(3, 9, 5, 1460, 77, True, 2920, 9999,
                          True, False, False, None, 4380, 123456)
    scribble = object()
    for field in Packet.__slots__:
        setattr(pkt, field, scribble)
    pool.free(pkt)
    args = (4, 8, 6, 900, 55, False, 1460, 5000,
            False, True, True, None, 2920, 654321)
    recycled = pool.alloc_data(*args)
    fresh = Packet(*args[:2], PacketType.DATA, *args[2:])
    for field in Packet.__slots__:
        assert getattr(recycled, field) == getattr(fresh, field), field


# ---------------------------------------------------------------------------
# growth determinism
# ---------------------------------------------------------------------------


def test_growth_is_deterministic_and_chunked():
    pool = PacketPool(prealloc=0, grow_chunk=3)
    assert len(pool.slots) == 0 and pool.grows == 0
    held = [_alloc(pool, i) for i in range(7)]
    # ceil(7/3) = 3 growth chunks of exactly grow_chunk slots each.
    assert pool.grows == 3
    assert len(pool.slots) == 9
    assert [p.slot for p in pool.slots] == list(range(9))
    assert len({p.slot for p in held}) == 7
    # Same operation sequence, same slot assignment order.
    twin = PacketPool(prealloc=0, grow_chunk=3)
    twin_held = [_alloc(twin, i) for i in range(7)]
    assert [p.slot for p in twin_held] == [p.slot for p in held]


def test_prealloc_counts_as_no_growth():
    pool = PacketPool(prealloc=16)
    assert pool.grows == 0 and len(pool.slots) == 16
    held = [_alloc(pool, i) for i in range(16)]
    assert pool.grows == 0
    held.append(_alloc(pool, 16))
    assert pool.grows == 1  # 17th packet crosses the preallocation
