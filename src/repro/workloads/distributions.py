"""Message-size distributions.

The paper publishes each workload as a set of quantiles (the x-axis
ticks of Figures 8/12/13 are the deciles of the message-count CDF).
``EmpiricalCDF`` reconstructs a continuous distribution from those
anchors with log-linear interpolation — the standard way published
datacenter traces are replayed — and provides the closed-form integrals
Homa's priority allocation needs:

* ``mass_below(s)``      = P(S <= s)
* ``partial_mean(s)``    = E[S ; S <= s]
* ``mean_truncated(c)``  = E[min(S, c)]   (expected unscheduled bytes)
* ``unsched_mass_below`` = E[min(S, cap) ; S <= s]

Within a bracket where the CDF rises by ``dq`` from size ``a`` to ``b``,
density is ``dq / (s ln(b/a))``, so E[S; bracket] = dq (b-a)/ln(b/a).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Sequence

import numpy as np


class UniformIndex:
    """``rng.integers(n)`` for one positive ``n`` below 2**32, bit for
    bit, without numpy's per-call overhead.

    numpy draws a bounded integer by Lemire's method on a 32-bit word
    (``buffered_bounded_lemire_uint32``), and its 32-bit words are the
    two halves of one 64-bit draw, low half first: the bit generator
    buffers the high half for the next 32-bit request.  This class
    keeps that buffer itself and takes its 64-bit draws from
    ``random_raw``, which — like ``random()`` and ``exponential()`` —
    never touches numpy's own buffer.  So the stream matches numpy's
    as long as nothing else asks ``rng`` for 32-bit words
    (``integers`` does).  ``n == 1`` draws nothing, as in numpy.
    ``tests/test_draws.py`` pins it against numpy.
    """

    __slots__ = ("_raw", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        self._raw = rng.bit_generator.random_raw
        self._half = -1  # the buffered high half; -1: none

    def draw(self, n: int) -> int:
        if n == 1:
            return 0
        threshold = -1  # 2**32 % n, computed only if a word needs it
        while True:
            half = self._half
            if half < 0:
                raw = self._raw()
                self._half = raw >> 32
                m = (raw & 0xFFFFFFFF) * n
            else:
                self._half = -1
                m = half * n
            low = m & 0xFFFFFFFF
            if low >= n:
                return m >> 32
            # Lemire's rejection test (reached with probability n/2**32)
            if threshold < 0:
                if not 0 < n < 0x100000000:
                    raise ValueError(
                        f"UniformIndex draws 1 <= n < 2**32, not {n}")
                threshold = 0x100000000 % n
            if low >= threshold:
                return m >> 32


class EmpiricalCDF:
    """Piecewise log-linear CDF over positive integer message sizes.

    ``anchors`` is a sequence of (quantile, size-in-units) pairs; the
    first quantile must be 0.0 (minimum size) and the last 1.0 (maximum).
    ``unit_bytes > 1`` makes the distribution discrete in multiples of a
    unit — W5 is defined in whole 1460-byte full packets, as in the
    paper, so that NDP (which requires full-size packets) can run it.
    """

    def __init__(
        self,
        anchors: Sequence[tuple[float, float]],
        *,
        unit_bytes: int = 1,
        name: str = "",
    ) -> None:
        if len(anchors) < 2:
            raise ValueError("need at least two anchors (min and max)")
        qs = [float(q) for q, _ in anchors]
        sizes = [float(s) for _, s in anchors]
        if qs[0] != 0.0 or qs[-1] != 1.0:
            raise ValueError("anchors must span quantiles 0.0 .. 1.0")
        for i in range(1, len(qs)):
            if qs[i] <= qs[i - 1]:
                raise ValueError(f"quantiles must increase: {qs}")
            if sizes[i] < sizes[i - 1]:
                raise ValueError(f"sizes must be non-decreasing: {sizes}")
        if sizes[0] < 1:
            raise ValueError("minimum size must be at least one unit")
        self.name = name
        self.unit_bytes = int(unit_bytes)
        self._qs = np.asarray(qs)
        self._sizes = np.asarray(sizes)
        self._logs = np.log(self._sizes)
        # ``sample_one``'s plain-float copies: the quantiles, the logs
        # (numpy's, bit for bit) and each bracket's slope, computed as
        # ``np.interp`` computes it.
        self._q_list = qs
        self._log_list = self._logs.tolist()
        self._slopes = [
            (self._log_list[j + 1] - self._log_list[j]) / (qs[j + 1] - qs[j])
            for j in range(len(qs) - 1)]

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` integer message sizes in bytes."""
        u = rng.random(n)
        logs = np.interp(u, self._qs, self._logs)
        units = np.maximum(1, np.rint(np.exp(logs))).astype(np.int64)
        return units * self.unit_bytes

    def sample_one(self, rng: np.random.Generator) -> int:
        """Draw a single message size in bytes.

        The same draw as ``sample(rng, 1)``, without numpy's per-call
        overhead: a bisection of the quantile list, then ``np.interp``'s
        own arithmetic within the bracket, ``slope * (u - q[j]) +
        log[j]`` (``log[j]`` exactly when ``u`` is an anchor), so the
        result is bit-identical (``tests/test_draws.py`` pins
        it against ``np.interp``)."""
        u = rng.random()
        qs = self._q_list
        j = bisect_right(qs, u) - 1
        if u == qs[j]:
            log_size = self._log_list[j]
        else:
            log_size = self._slopes[j] * (u - qs[j]) + self._log_list[j]
        # No max(1, ...): log_size >= log(sizes[0]) >= 0 (slopes are
        # non-negative), so the rounded size is at least one unit.
        return round(math.exp(log_size)) * self.unit_bytes

    # ------------------------------------------------------------------
    # analytic integrals (continuous approximation, byte arguments)
    # ------------------------------------------------------------------

    def _brackets(self):
        qs, sizes = self._qs, self._sizes
        for i in range(len(qs) - 1):
            yield qs[i + 1] - qs[i], sizes[i], sizes[i + 1]

    def mass_below(self, size_bytes: float) -> float:
        """P(S <= size_bytes)."""
        c = size_bytes / self.unit_bytes
        total = 0.0
        for dq, a, b in self._brackets():
            if c >= b:
                total += dq
            elif c > a:
                total += dq * math.log(c / a) / math.log(b / a)
        return total

    def partial_mean(self, size_bytes: float) -> float:
        """E[S ; S <= size_bytes] in bytes (an un-normalized integral)."""
        c = size_bytes / self.unit_bytes
        total = 0.0
        for dq, a, b in self._brackets():
            if b == a:
                if c >= a:
                    total += dq * a
            elif c >= b:
                total += dq * (b - a) / math.log(b / a)
            elif c > a:
                total += dq * (c - a) / math.log(b / a)
        return total * self.unit_bytes

    def mean(self) -> float:
        """E[S] in bytes."""
        return self.partial_mean(self.max_bytes())

    def mean_truncated(self, cap_bytes: float) -> float:
        """E[min(S, cap)] — the expected unscheduled bytes per message."""
        return self.partial_mean(cap_bytes) + cap_bytes * (
            1.0 - self.mass_below(cap_bytes)
        )

    def unsched_mass_below(self, size_bytes: float, cap_bytes: float) -> float:
        """E[min(S, cap) ; S <= size_bytes].

        This is the quantity Homa's receiver balances across unscheduled
        priority levels (section 3.4 / Figure 4): the unscheduled bytes
        contributed by messages no larger than ``size_bytes``.
        """
        if size_bytes <= cap_bytes:
            return self.partial_mean(size_bytes)
        return self.partial_mean(cap_bytes) + cap_bytes * (
            self.mass_below(size_bytes) - self.mass_below(cap_bytes)
        )

    def byte_fraction_below(self, size_bytes: float) -> float:
        """Fraction of all bytes carried by messages <= size_bytes
        (the lower graph of Figure 1)."""
        return self.partial_mean(size_bytes) / self.mean()

    # ------------------------------------------------------------------
    # quantiles
    # ------------------------------------------------------------------

    def quantile(self, q: float) -> int:
        """Size in bytes at quantile ``q`` of the message-count CDF."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile out of range: {q}")
        log_size = float(np.interp(q, self._qs, self._logs))
        return max(1, round(math.exp(log_size))) * self.unit_bytes

    def deciles(self) -> list[int]:
        """Sizes at the 10th..90th percentiles (the paper's x ticks)."""
        return [self.quantile(q / 10) for q in range(1, 10)]

    def min_bytes(self) -> int:
        return int(self._sizes[0]) * self.unit_bytes

    def max_bytes(self) -> int:
        return int(self._sizes[-1]) * self.unit_bytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EmpiricalCDF({self.name or 'unnamed'}, "
            f"{self.min_bytes()}..{self.max_bytes()} B, "
            f"mean {self.mean():.0f} B)"
        )
