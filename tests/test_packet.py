"""Unit tests for framing and the packet model."""

import pytest

from repro.core.packet import (
    CTRL_PRIO,
    FULL_WIRE,
    HEADER_BYTES,
    MAX_PAYLOAD,
    MIN_WIRE,
    Packet,
    PacketType,
    wire_size,
)
from repro.transport.messages import OutboundMessage


def test_full_packet_wire_size():
    assert wire_size(MAX_PAYLOAD) == FULL_WIRE == 1538


def test_minimum_frame_applies_to_tiny_payloads():
    assert wire_size(0) == MIN_WIRE == 84
    assert wire_size(1) == MIN_WIRE
    assert wire_size(6) == MIN_WIRE


def test_wire_size_above_minimum_is_linear():
    assert wire_size(100) == 100 + HEADER_BYTES + 38
    assert wire_size(1000) == 1000 + HEADER_BYTES + 38


def test_wire_size_rejects_negative():
    with pytest.raises(ValueError):
        wire_size(-1)


def test_packet_defaults():
    pkt = Packet(1, 2, PacketType.GRANT)
    assert pkt.prio == CTRL_PRIO
    assert pkt.wire == MIN_WIRE
    assert not pkt.ecn and not pkt.trimmed


def test_packet_msg_key_distinguishes_direction():
    request = Packet(1, 2, PacketType.DATA, rpc_id=7, is_request=True)
    response = Packet(2, 1, PacketType.DATA, rpc_id=7, is_request=False)
    assert request.msg_key != response.msg_key
    # A packet names the message it belongs to by the message's own key.
    for pkt, is_request in ((request, True), (response, False)):
        msg = OutboundMessage(7, is_request, 1, 2, 100, unsched_limit=100,
                              created_ps=0)
        assert pkt.msg_key == msg.key


def test_msg_key_unique_across_rpcs():
    keys = {Packet(1, 2, PacketType.DATA, rpc_id=rpc, is_request=flag).msg_key
            for rpc in range(100) for flag in (True, False)}
    assert len(keys) == 200


def test_trim_discards_payload_keeps_identity():
    pkt = Packet(1, 2, PacketType.DATA, payload=MAX_PAYLOAD, rpc_id=3, offset=1460)
    pkt.trim()
    assert pkt.trimmed
    assert pkt.payload == 0
    assert pkt.wire == MIN_WIRE
    assert pkt.rpc_id == 3 and pkt.offset == 1460
