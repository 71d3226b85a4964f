"""Line-delimited JSON frames for the campaign farm.

One frame is one JSON object on one ``\\n``-terminated line — the same
shape as the campaign journal and the result cache, so every byte that
crosses a farm socket is inspectable with ``nc`` and ``jq``.  A frame
always carries a string ``"type"``; everything else is per-type.  The
full frame vocabulary is documented in docs/CAMPAIGNS.md (farm section)
next to the failure semantics that rely on it.

JSON is the transport on purpose (no pickle): payloads are exactly the
``to_payload`` dictionaries the on-disk cache stores, moved as opaque
JSON objects, so farmed results are byte-identical to local ones.
Scalar floats round-trip via ``repr``; the bulky per-message sample
columns are base64 strings of packed little-endian int64s/doubles that
only ``SlowdownTracker`` reads (``jq -r .payload.tracker.slowdowns |
base64 -d | od -A n -t f8`` prints one) — into two typed ``array``
columns, so a decoded result holds those same 16 bytes a sample and no
per-sample object.  A malformed line is a
:class:`ProtocolError` — a per-connection failure the coordinator can
answer by dropping that worker, never a deserialized surprise.

Every TCP connection a :class:`FrameConn` wraps has Nagle's algorithm
off (``TCP_NODELAY``).  The farm's traffic is request/response, and each
frame leaves in one ``sendall`` under the write lock, so Nagle has
nothing to coalesce; left on, it holds a worker's small ``next`` frame
behind the unacknowledged tail of its ≈190 KB ``result`` frame until the
coordinator's delayed ACK fires (≈40 ms on Linux), and a cell costs that
timer instead of its CPU.  The option changes no byte on the wire.
"""

from __future__ import annotations

import json
import socket
import threading

#: bumped when the frame vocabulary or the payload format inside result
#: frames changes incompatibly (2: packed sample columns; 3: hello names
#: the worker's code fingerprint, queue rows are field objects);
#: hello/welcome frames carry it so mismatched peers fail fast with a
#: clear message
PROTOCOL_VERSION = 3

#: hard per-frame ceiling — a single cell payload is a few hundred KB
#: even at paper scale, so anything near this is a framing bug, not data
MAX_FRAME_BYTES = 64 * 1024 * 1024

_RECV_CHUNK = 65536


class ProtocolError(ValueError):
    """A peer sent bytes that do not parse as a protocol frame."""


def encode_frame(frame: dict) -> bytes:
    """One frame as wire bytes (compact JSON + newline)."""
    return json.dumps(frame, separators=(",", ":")).encode() + b"\n"


def send_frame(sock: socket.socket, frame: dict) -> None:
    sock.sendall(encode_frame(frame))


class FrameReader:
    """Incremental frame parser over a stream socket.

    ``read_frame`` blocks until one full line arrives and returns the
    decoded dict, or ``None`` on clean EOF (peer closed between
    frames).  Garbage — unparseable JSON, a non-object, a missing or
    non-string ``type``, an oversized line, EOF mid-frame — raises
    :class:`ProtocolError`; socket-level failures propagate as
    ``OSError``/``TimeoutError`` untouched so callers can tell a
    misbehaving peer from a dead one.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._buf = bytearray()
        #: bytes of ``_buf`` already scanned and known newline-free, so a
        #: frame trickled in small pieces costs linear, not quadratic, time
        self._scanned = 0

    def read_frame(self) -> dict | None:
        while True:
            newline = self._buf.find(b"\n", self._scanned)
            if newline >= 0:
                line = bytes(self._buf[:newline])
                del self._buf[: newline + 1]
                self._scanned = 0
                if not line.strip():
                    continue
                return self._parse(line)
            self._scanned = len(self._buf)
            if self._scanned > MAX_FRAME_BYTES:
                raise ProtocolError(
                    f"frame exceeds {MAX_FRAME_BYTES} bytes without a "
                    f"newline")
            chunk = self._sock.recv(_RECV_CHUNK)
            if not chunk:
                if self._buf.strip():
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buf += chunk

    @staticmethod
    def _parse(line: bytes) -> dict:
        try:
            frame = json.loads(line)
        except ValueError as exc:
            raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
        if not isinstance(frame, dict):
            raise ProtocolError(
                f"frame must be a JSON object, got {type(frame).__name__}")
        if not isinstance(frame.get("type"), str):
            raise ProtocolError("frame lacks a string 'type' field")
        return frame


class FrameConn:
    """A framed duplex connection: one reader, write-locked sends.

    The worker sends heartbeats from a background thread while the main
    thread computes; the lock keeps concurrent ``send`` calls from
    interleaving partial lines on the wire.  TCP sockets get
    ``TCP_NODELAY`` (see the module docstring); ``AF_UNIX`` socketpairs
    have no Nagle to turn off.
    """

    def __init__(self, sock: socket.socket) -> None:
        if sock.family in (socket.AF_INET, socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._reader = FrameReader(sock)
        self._wlock = threading.Lock()

    def send(self, frame: dict) -> None:
        with self._wlock:
            send_frame(self.sock, frame)

    def recv(self) -> dict | None:
        return self._reader.read_frame()

    def kill(self) -> None:
        """Abort the connection from any thread (unblocks ``recv``)."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.close()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
