"""Packets and Ethernet framing.

Framing model:

* transport+IP header: 40 bytes carried inside the frame,
* Ethernet header+CRC: 18 bytes, preamble+inter-packet gap: 20 bytes,
* minimum frame occupies 84 bytes on the wire (64 byte frame + 20),
* maximum payload 1460 bytes -> a full data packet is 1538 wire bytes.

With the paper's topology this yields a cross-rack grant-to-data RTT of
7.744 us and RTTbytes = 9680, matching the paper's "about 7.8 us" and
"about 9.7 KB".
"""

from __future__ import annotations

from enum import IntEnum

HEADER_BYTES = 40          # IP + transport header inside the frame
ETH_OVERHEAD = 38          # Ethernet header/CRC (18) + preamble/IFG (20)
MIN_WIRE = 84              # minimum on-wire occupancy of any frame
MAX_PAYLOAD = 1460         # application payload of a full data packet
FULL_WIRE = MAX_PAYLOAD + HEADER_BYTES + ETH_OVERHEAD  # 1538
TRIMMED_WIRE = MIN_WIRE    # NDP header-only packet

#: number of switch priority levels (modern switches: typically 8)
N_PRIORITIES = 8

#: priority used by control packets (GRANT/RESEND/... are sent highest)
CTRL_PRIO = N_PRIORITIES - 1


def wire_size(payload_bytes: int) -> int:
    """On-wire bytes of a frame carrying ``payload_bytes`` of payload."""
    if payload_bytes < 0:
        raise ValueError(f"negative payload {payload_bytes}")
    return max(MIN_WIRE, payload_bytes + HEADER_BYTES + ETH_OVERHEAD)


class PacketType(IntEnum):
    """All packet kinds used by any protocol in this repository.

    DATA/GRANT/RESEND/BUSY are Homa's four types (paper Figure 3); the
    rest belong to the baseline protocols.
    """

    DATA = 0
    GRANT = 1
    RESEND = 2
    BUSY = 3
    ACK = 4     # pFabric / PIAS / stream per-packet acknowledgment
    RTS = 5     # pHost request-to-send
    TOKEN = 6   # pHost token
    PULL = 7    # NDP pull
    NACK = 8    # NDP trimmed-header notification
    PROBE = 9   # pFabric probe mode


class Packet:
    """A network packet.  One instance traverses the whole network.

    ``prio`` is the switch priority level (0 lowest .. 7 highest);
    ``fine_prio`` is pFabric's unbounded priority (remaining bytes,
    smaller = more urgent).  ``q_wait``/``p_wait`` accumulate queueing
    delay and preemption lag when a run enables delay tracing (Fig 14).
    """

    __slots__ = (
        "src", "dst", "kind", "prio", "fine_prio",
        "rpc_id", "is_request", "offset", "payload", "wire",
        "total_length", "sched", "retx", "incast", "ecn", "trimmed",
        "grant_offset", "grant_prio", "range_end", "cutoffs", "app_meta",
        "created_ps", "q_wait", "p_wait", "msg_key",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: PacketType,
        # Parameter order matters: the DATA-packet fields form a prefix
        # so the per-data-packet constructor call can pass positionally
        # (kwargs parsing is measurable at this call rate); everything
        # else is still passed by keyword.
        prio: int = CTRL_PRIO,
        payload: int = 0,
        rpc_id: int = 0,
        is_request: bool = True,
        offset: int = 0,
        total_length: int = 0,
        sched: bool = False,
        retx: bool = False,
        incast: bool = False,
        app_meta: int | None = None,
        grant_offset: int = 0,
        created_ps: int = 0,
        grant_prio: int = 0,
        range_end: int = 0,
        fine_prio: int = 0,
        cutoffs: tuple | None = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.prio = prio
        self.fine_prio = fine_prio
        self.rpc_id = rpc_id
        self.is_request = is_request
        self.offset = offset
        self.payload = payload
        # Inline wire_size(payload): constructed once per packet.
        wire = payload + HEADER_BYTES + ETH_OVERHEAD
        self.wire = MIN_WIRE if wire < MIN_WIRE else wire
        self.total_length = total_length
        self.sched = sched
        self.retx = retx
        self.incast = incast
        self.ecn = False
        self.trimmed = False
        self.grant_offset = grant_offset
        self.grant_prio = grant_prio
        self.range_end = range_end
        self.cutoffs = cutoffs
        self.app_meta = app_meta
        self.created_ps = created_ps
        self.q_wait = 0
        self.p_wait = 0
        # Identity of the message this packet belongs to.  Homa messages
        # are halves of an RPC, so (rpc id, direction) is the message
        # identity — this is what lets a client RESEND a response whose
        # packets it has never seen (paper section 3.7).  Precomputed:
        # it keys a transport dict lookup on every received packet.
        self.msg_key = (rpc_id << 1) | (1 if is_request else 0)

    def trim(self) -> None:
        """NDP-style trim: discard the payload, keep the header."""
        self.trimmed = True
        self.payload = 0
        self.wire = TRIMMED_WIRE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.name} {self.src}->{self.dst} rpc={self.rpc_id}"
            f" off={self.offset} len={self.payload} prio={self.prio})"
        )
