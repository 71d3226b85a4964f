"""Tests for time/rate units."""

import pytest

from repro.core import units


def test_ps_per_byte_exact_rates():
    assert units.ps_per_byte(10) == 800
    assert units.ps_per_byte(40) == 200
    assert units.ps_per_byte(25) == 320
    assert units.ps_per_byte(100) == 80


def test_ps_per_byte_rejects_inexact():
    with pytest.raises(ValueError):
        units.ps_per_byte(3)  # 8000/3 is not an integer


def test_ps_per_byte_rejects_nonpositive():
    with pytest.raises(ValueError):
        units.ps_per_byte(0)
    with pytest.raises(ValueError):
        units.ps_per_byte(-10)


def test_bytes_per_sec():
    assert units.bytes_per_sec(10) == 1.25e9


def test_constants_consistent():
    assert units.US == 1000 * units.NS
    assert units.MS == 1000 * units.US
    assert units.SEC == 1000 * units.MS
