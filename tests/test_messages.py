"""Tests for the message state machines (Intervals, Outbound, Inbound)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packet import MAX_PAYLOAD
from repro.transport.messages import InboundMessage, Intervals, OutboundMessage


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


def test_intervals_basic_add():
    iv = Intervals()
    assert iv.add(0, 100) == 100
    assert iv.total == 100


def test_intervals_duplicate_add_counts_zero():
    iv = Intervals()
    iv.add(0, 100)
    assert iv.add(0, 100) == 0
    assert iv.total == 100


def test_intervals_contiguous_merge():
    iv = Intervals()
    iv.add(0, 100)
    iv.add(100, 200)
    assert iv.total == 200
    assert len(iv._ranges) == 1
    assert iv.contiguous_prefix() == 200


def test_intervals_out_of_order():
    iv = Intervals()
    iv.add(200, 300)
    iv.add(0, 100)
    assert iv.total == 200
    assert iv.contiguous_prefix() == 100
    assert iv.first_gap(300) == (100, 200)


def test_intervals_partial_overlap():
    iv = Intervals()
    iv.add(0, 150)
    assert iv.add(100, 250) == 100
    assert iv.total == 250


def test_intervals_fill_gap():
    iv = Intervals()
    iv.add(0, 100)
    iv.add(200, 300)
    iv.add(100, 200)
    assert iv.total == 300
    assert len(iv._ranges) == 1
    assert iv.first_gap(300) is None


def test_intervals_empty_range_ignored():
    iv = Intervals()
    assert iv.add(50, 50) == 0
    assert iv.add(60, 40) == 0
    assert iv.total == 0


def test_intervals_first_gap_from_zero():
    iv = Intervals()
    iv.add(100, 200)
    assert iv.first_gap(200) == (0, 100)


def test_intervals_first_gap_none_when_empty_horizon():
    iv = Intervals()
    assert iv.first_gap(0) is None
    assert iv.first_gap(10) == (0, 10)


def test_intervals_covers():
    iv = Intervals()
    iv.add(10, 50)
    assert iv.covers(10, 50)
    assert iv.covers(20, 30)
    assert not iv.covers(5, 15)
    assert not iv.covers(40, 60)


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 80)),
                min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_prop_intervals_match_set_semantics(chunks):
    """Intervals must behave exactly like a set of byte indices."""
    iv = Intervals()
    reference = set()
    for start, size in chunks:
        added = iv.add(start, start + size)
        new_bytes = set(range(start, start + size)) - reference
        assert added == len(new_bytes)
        reference |= set(range(start, start + size))
        assert iv.total == len(reference)
    horizon = 600
    gap = iv.first_gap(horizon)
    missing = sorted(set(range(horizon)) - reference)
    if missing:
        assert gap is not None
        assert gap[0] == missing[0]
        assert gap[0] < gap[1] <= horizon
        # Every byte in the reported gap really is missing.
        assert all(b not in reference for b in range(gap[0], gap[1]))
    else:
        assert gap is None


# ---------------------------------------------------------------------------
# OutboundMessage
# ---------------------------------------------------------------------------


def out_msg(length, unsched=10220):
    return OutboundMessage(1, True, 0, 1, length,
                           unsched_limit=unsched, created_ps=0)


def test_outbound_initial_grant_is_unscheduled_portion():
    msg = out_msg(100_000)
    assert msg.granted == 10220
    assert out_msg(500).granted == 500  # short: entire message blind


def test_outbound_rejects_empty():
    with pytest.raises(ValueError):
        out_msg(0)


def test_outbound_chunks_are_packet_sized():
    msg = out_msg(3 * MAX_PAYLOAD)
    chunks = []
    while True:
        chunk = msg.next_chunk()
        if chunk is None:
            break
        chunks.append(chunk)
    assert [c[1] for c in chunks] == [MAX_PAYLOAD] * 3
    assert [c[0] for c in chunks] == [0, MAX_PAYLOAD, 2 * MAX_PAYLOAD]
    assert msg.fully_sent()


def test_outbound_stops_at_grant_boundary():
    msg = out_msg(100_000)
    sent = 0
    while msg.next_chunk() is not None:
        sent += 1
    assert msg.sent == 10220
    assert not msg.fully_sent()
    assert not msg.sendable()


def test_outbound_grant_extends_sendable_region():
    msg = out_msg(100_000)
    while msg.next_chunk() is not None:
        pass
    msg.grant_to(20440, prio=2)
    assert msg.sendable()
    assert msg.grant_prio == 2
    offset, size, is_rtx = msg.next_chunk()
    assert offset == 10220 and not is_rtx


def test_outbound_grant_never_shrinks():
    msg = out_msg(100_000)
    msg.grant_to(50_000, prio=1)
    msg.grant_to(30_000, prio=3)
    assert msg.granted == 50_000
    assert msg.grant_prio == 3  # priority still updates


def test_outbound_grant_capped_at_length():
    msg = out_msg(5000)
    msg.grant_to(99_999, prio=0)
    assert msg.granted == 5000


def test_outbound_rtx_takes_precedence():
    msg = out_msg(100_000)
    msg.next_chunk()
    msg.queue_rtx(0, 1000)
    offset, size, is_rtx = msg.next_chunk()
    assert is_rtx and offset == 0 and size == 1000


def test_outbound_rtx_split_into_packets():
    msg = out_msg(100_000)
    msg.queue_rtx(0, 2 * MAX_PAYLOAD + 10)
    sizes = []
    for _ in range(3):
        offset, size, is_rtx = msg.next_chunk()
        assert is_rtx
        sizes.append(size)
    assert sizes == [MAX_PAYLOAD, MAX_PAYLOAD, 10]


def test_outbound_rtx_clipped_to_length():
    msg = out_msg(500)
    msg.queue_rtx(400, 9999)
    offset, size, _ = msg.next_chunk()
    assert offset == 400 and size == 100


def test_outbound_remaining_is_srpt_metric():
    msg = out_msg(10_000)
    assert msg.remaining == 10_000
    msg.next_chunk()
    assert msg.remaining == 10_000 - MAX_PAYLOAD


# ---------------------------------------------------------------------------
# InboundMessage
# ---------------------------------------------------------------------------


def in_msg(length):
    return InboundMessage(1, True, 0, 1, length, now_ps=0)


def test_inbound_completion():
    msg = in_msg(1000)
    assert msg.record(0, 1000, now_ps=5) == 1000
    assert msg.is_complete()
    assert msg.bytes_remaining == 0


def test_inbound_out_of_order_completion():
    msg = in_msg(3000)
    msg.record(1460, 1460, now_ps=1)
    msg.record(2920, 80, now_ps=2)
    assert not msg.is_complete()
    msg.record(0, 1460, now_ps=3)
    assert msg.is_complete()


def test_inbound_overrun_clipped_to_length():
    msg = in_msg(1000)
    msg.record(0, 1460, now_ps=1)  # retransmission may overshoot
    assert msg.bytes_received == 1000
    assert msg.is_complete()


def test_inbound_progress_resets_resend_count():
    msg = in_msg(5000)
    msg.resends = 3
    msg.record(0, 100, now_ps=1)
    assert msg.resends == 0


def test_inbound_duplicate_does_not_reset_resends():
    msg = in_msg(5000)
    msg.record(0, 100, now_ps=1)
    msg.resends = 3
    msg.record(0, 100, now_ps=2)  # duplicate: no new bytes
    assert msg.resends == 3


def test_inbound_tracks_activity_time():
    msg = in_msg(5000)
    msg.record(0, 100, now_ps=42)
    assert msg.last_activity_ps == 42


def test_keys_match_between_directions():
    out = OutboundMessage(9, False, 0, 1, 10, unsched_limit=100, created_ps=0)
    inc = InboundMessage(9, False, 0, 1, 10, now_ps=0)
    assert out.key == inc.key
