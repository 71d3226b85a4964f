"""Time and rate units.

The simulator clock is an integer number of picoseconds.  Picoseconds
were chosen because one byte time is an exact integer at every Ethernet
rate we care about (800 ps at 10 Gbps, 200 ps at 40 Gbps), so runs are
bit-for-bit deterministic with no floating point drift.
"""

PS = 1
NS = 1_000
US = 1_000_000
MS = 1_000_000_000
SEC = 1_000_000_000_000

#: bits per byte times ps-per-ns; ``8000 / gbps`` is the ps cost of one byte.
_PS_BITS = 8_000


def ps_per_byte(gbps: int) -> int:
    """Picoseconds to serialize one byte at ``gbps`` gigabits per second.

    Raises ValueError for rates that do not divide evenly, to preserve
    the integer-clock guarantee (10, 16, 20, 25, 40, 50, 100... are fine).
    """
    if gbps <= 0:
        raise ValueError(f"link rate must be positive, got {gbps}")
    if _PS_BITS % gbps:
        raise ValueError(f"{gbps} Gbps does not give an integer ps/byte")
    return _PS_BITS // gbps


def bytes_per_sec(gbps: int) -> float:
    """Link capacity in bytes per second."""
    return gbps * 1e9 / 8.0
