"""Slowdown measurement (the paper's primary metric).

Slowdown = actual completion time / best possible time for a message of
that size on an unloaded network (section 5.1).  Reports are bucketed by
message-count deciles, matching the x-axes of Figures 8/9/12/13 ("the
axis is linear in total number of messages, with ticks corresponding to
10% of all messages").
"""

from __future__ import annotations

import sys
from array import array
from base64 import b64decode, b64encode
from dataclasses import dataclass

import numpy as np

from repro.core.topology import Network


@dataclass(frozen=True)
class BucketStats:
    """Slowdown statistics for one message-size bucket."""

    lo: int          # exclusive lower bound (bytes)
    hi: int          # inclusive upper bound (bytes)
    count: int
    p50: float
    p99: float
    mean: float


def _pack(column: array) -> str:
    """One sample column as base64 of its little-endian 8-byte items."""
    if sys.byteorder == "big":
        column = array(column.typecode, column)   # never swap the live one
        column.byteswap()
    return b64encode(column).decode("ascii")


def _unpack(name: str, typecode: str, text: object) -> array:
    """Inverse of :func:`_pack`; ``ValueError`` names the bad column."""
    if not isinstance(text, str):
        raise ValueError(f"tracker column {name!r} must be a base64 string, "
                         f"got {type(text).__name__}")
    try:
        raw = b64decode(text, validate=True)
    except ValueError as exc:
        raise ValueError(
            f"tracker column {name!r} is not valid base64: {exc}") from exc
    column = array(typecode)
    if len(raw) % column.itemsize:
        raise ValueError(
            f"tracker column {name!r} holds {len(raw)} bytes, not a "
            f"multiple of {column.itemsize}")
    column.frombytes(raw)
    if sys.byteorder == "big":
        column.byteswap()
    return column


class SlowdownTracker:
    """Records per-message slowdowns and produces bucketed reports.

    Samples live in two typed columns, ``sizes`` (``array('q')``) and
    ``slowdowns`` (``array('d')``): 16 bytes a message, no per-sample
    object, from the first ``record_*`` through the payload to the report.

    A tracker rehydrated from :meth:`from_payload` has ``net=None``:
    it can report (``series``/``overall``/``bucket_report``) but not
    record, which is exactly what campaign workers ship back to the
    parent process.
    """

    def __init__(self, net: Network | None = None, *,
                 warmup_ps: int = 0) -> None:
        self.net = net
        self.warmup_ps = warmup_ps
        self.sizes = array("q")
        self.slowdowns = array("d")

    def to_payload(self) -> dict:
        """Compact JSON-safe form.  The two sample columns are packed:
        ``sizes`` as little-endian int64 and ``slowdowns`` as IEEE
        float64, each base64-encoded into one ASCII string, so the
        doubles survive bit-exactly and no JSON encoder walks them."""
        return {"warmup_ps": self.warmup_ps,
                "sizes": _pack(self.sizes),
                "slowdowns": _pack(self.slowdowns)}

    @classmethod
    def from_payload(cls, payload: dict) -> "SlowdownTracker":
        tracker = cls(None, warmup_ps=payload["warmup_ps"])
        tracker.sizes = _unpack("sizes", "q", payload["sizes"])
        tracker.slowdowns = _unpack("slowdowns", "d", payload["slowdowns"])
        if len(tracker.sizes) != len(tracker.slowdowns):
            raise ValueError(
                f"tracker column 'sizes' holds {len(tracker.sizes)} samples "
                f"but 'slowdowns' holds {len(tracker.slowdowns)}")
        return tracker

    def record_oneway(self, src: int, dst: int, size: int,
                      created_ps: int, completed_ps: int) -> None:
        """Record a one-way message (the section 5.2 experiments)."""
        if created_ps < self.warmup_ps:
            return
        self.sizes.append(size)
        self.slowdowns.append((completed_ps - created_ps)
                              / self.net.min_oneway_between(src, dst, size))

    def record_rpc(self, src: int, dst: int, request: int, response: int,
                   created_ps: int, completed_ps: int) -> None:
        """Record an echo RPC round trip (the section 5.1 experiments).
        Slowdown is bucketed by the echo payload size, as in Figure 8."""
        if created_ps < self.warmup_ps:
            return
        oracle = self.net.min_rpc_between(src, dst, request, response)
        self.sizes.append(max(request, response))
        self.slowdowns.append((completed_ps - created_ps) / oracle)

    @property
    def count(self) -> int:
        return len(self.sizes)

    def overall(self, percentile: float) -> float:
        """Percentile of slowdown across all recorded messages."""
        if not self.slowdowns:
            raise ValueError("no messages recorded")
        return float(np.percentile(np.frombuffer(self.slowdowns), percentile))

    def bucket_report(self, edges: list[int]) -> list[BucketStats]:
        """Stats per (edges[i], edges[i+1]] size bucket.

        ``edges`` typically comes from ``Workload.bucket_edges()``:
        [0, d10, d20, ..., d90, max].
        """
        if len(edges) < 2 or edges != sorted(edges):
            raise ValueError(f"bad bucket edges: {edges}")
        # Zero-copy views, locals only: a view that outlived this call
        # would pin the column and make the next append a BufferError.
        sizes = np.frombuffer(self.sizes, dtype=np.int64)
        slowdowns = np.frombuffer(self.slowdowns)
        report = []
        for i in range(len(edges) - 1):
            lo, hi = edges[i], edges[i + 1]
            mask = (sizes > lo) & (sizes <= hi)
            selected = slowdowns[mask]
            if selected.size:
                report.append(BucketStats(
                    lo=lo, hi=hi, count=int(selected.size),
                    p50=float(np.percentile(selected, 50)),
                    p99=float(np.percentile(selected, 99)),
                    mean=float(selected.mean()),
                ))
            else:
                report.append(BucketStats(lo=lo, hi=hi, count=0,
                                           p50=float("nan"),
                                           p99=float("nan"),
                                           mean=float("nan")))
        return report

    def series(self, edges: list[int], percentile: float) -> list[float]:
        """One value per bucket: the figure's y series (p50 or p99)."""
        if percentile not in (50, 99):
            raise ValueError(f"series reports p50 or p99, not {percentile!r}")
        key = "p99" if percentile == 99 else "p50"
        return [getattr(b, key) for b in self.bucket_report(edges)]
