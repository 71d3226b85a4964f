"""Calibration tests: the W1-W5 reconstructions must reproduce the
byte-weighted properties the paper states (quoted in the docstring of
``workloads/catalog.py``)."""

import numpy as np
import pytest

from repro.core.packet import MAX_PAYLOAD
from repro.workloads.catalog import WORKLOADS, get_workload

RTT_BYTES = 9680  # paper: "about 9.7 Kbytes"


def unsched_fraction(workload) -> float:
    cdf = workload.cdf
    return cdf.mean_truncated(RTT_BYTES) / cdf.mean()


def test_catalog_has_all_five():
    assert sorted(WORKLOADS) == ["W1", "W2", "W3", "W4", "W5"]


def test_get_workload_case_insensitive():
    assert get_workload("w3").key == "W3"


def test_get_workload_unknown():
    with pytest.raises(KeyError):
        get_workload("W9")


def test_ordering_by_mean_size():
    """Figure 1: workloads ordered by average message size, W1 smallest."""
    means = [WORKLOADS[k].cdf.mean() for k in ("W1", "W2", "W3", "W4", "W5")]
    assert means == sorted(means)


def test_w1_bytes_mostly_under_1000():
    """Paper section 2.1: >70% of W1 bytes in messages < 1000 B."""
    assert WORKLOADS["W1"].cdf.byte_fraction_below(1000) > 0.60


def test_w1_messages_mostly_tiny():
    """Figure 1: >85% of W1 messages below 1000 bytes."""
    assert WORKLOADS["W1"].cdf.mass_below(1000) > 0.85


def test_w2_unscheduled_fraction_near_80_percent():
    """Figure 4: about 80% of W2 bytes are unscheduled."""
    assert 0.70 <= unsched_fraction(WORKLOADS["W2"]) <= 0.88


def test_w3_unscheduled_fraction_near_half():
    """Figure 21: W3 splits priorities evenly (4 unscheduled, 4 scheduled)."""
    assert 0.44 <= unsched_fraction(WORKLOADS["W3"]) <= 0.56


def test_w4_w5_unscheduled_fraction_small():
    """Section 5.2: W4 and W5 get only one unscheduled priority level."""
    assert unsched_fraction(WORKLOADS["W4"]) < 0.15
    assert unsched_fraction(WORKLOADS["W5"]) < 0.05


def test_w5_sizes_are_whole_packets():
    rng = np.random.default_rng(0)
    sizes = WORKLOADS["W5"].cdf.sample(rng, 5000)
    assert (sizes % MAX_PAYLOAD == 0).all()


def test_w5_heavy_tail():
    """DCTCP websearch: the vast majority of bytes in messages > 1 MB."""
    cdf = WORKLOADS["W5"].cdf
    assert 1.0 - cdf.byte_fraction_below(1_000_000) > 0.80


def test_deciles_match_paper_ticks():
    """Sanity: quantile() must return the anchor values at the deciles."""
    w3 = WORKLOADS["W3"].cdf
    expected = [36, 77, 110, 158, 268, 313, 402, 573, 1755]
    assert w3.deciles() == expected


def test_w4_deciles_match_paper_ticks():
    w4 = WORKLOADS["W4"].cdf
    expected = [315, 376, 502, 561, 662, 960, 6387, 49408, 120373]
    assert w4.deciles() == expected


def test_bucket_edges_cover_support():
    for workload in WORKLOADS.values():
        edges = workload.bucket_edges()
        assert edges[0] == 0
        assert edges[-1] == workload.cdf.max_bytes()
        assert edges == sorted(edges)


def test_means_are_plausible():
    """Loose absolute scales: W1 a few hundred bytes, W5 a few
    megabytes."""
    assert 100 <= WORKLOADS["W1"].cdf.mean() <= 500
    assert 1e6 <= WORKLOADS["W5"].cdf.mean() <= 5e6
