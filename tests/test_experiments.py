"""Tests for the experiments layer: scale control, tables, max-load."""

import pytest

from repro.core.topology import TopologySpec
from repro.experiments.maxload import collate_max_load, probe_config
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.scale import (
    SCALES,
    current_scale,
    effective_load,
    scaled_kwargs,
)
from repro.experiments.tables import comparison_line, fmt, kv_table, series_table


def test_scales_defined():
    assert set(SCALES) == {"tiny", "quick", "paper"}
    assert SCALES["paper"].racks == 9
    assert SCALES["paper"].hosts_per_rack == 16


def test_current_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    assert current_scale().name == "tiny"
    monkeypatch.setenv("REPRO_BENCH_SCALE", "bogus")
    with pytest.raises(ValueError) as excinfo:
        current_scale()
    # The error names the offending value and every valid scale.
    message = str(excinfo.value)
    assert "'bogus'" in message
    for valid in SCALES:
        assert valid in message


def test_scaled_kwargs_heavy_workloads(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_SCALE", "quick")
    light = scaled_kwargs("W1")
    heavy = scaled_kwargs("W4")
    w5 = scaled_kwargs("W5")
    assert heavy["duration_ms"] > light["duration_ms"]
    assert w5["max_messages"] < heavy["max_messages"]


def test_effective_load_caps_phost_and_ndp():
    assert effective_load("phost", 0.8) == 0.68
    assert effective_load("ndp", 0.8) == 0.70
    assert effective_load("homa", 0.8) == 0.8
    assert effective_load("phost", 0.5) == 0.5


def test_fmt_handles_nan():
    assert fmt(float("nan")).endswith("---")
    assert fmt(1.234) == "    1.23"


def test_series_table_renders_all_buckets():
    text = series_table("t", [0, 10, 100],
                        {"a": [1.0, 2.0], "b": [3.0, float("nan")]})
    assert "t" in text
    assert text.count("\n") >= 3
    assert "---" in text  # the NaN cell


def test_kv_table():
    text = kv_table("title", [("key", "value"), ("k2", "v2")])
    assert "title" in text and "value" in text


def test_comparison_line():
    line = comparison_line("x", 1, 2)
    assert "paper" in line and "measured" in line


def quick_base(**kw):
    return ExperimentConfig(
        protocol="homa", workload="W2",
        racks=2, hosts_per_rack=4, aggrs=2,
        duration_ms=1.5, warmup_ms=0.0, drain_ms=5.0, **kw)


def sweep_max_load(base, grid):
    """Probe every grid load and collate, as the fig15 campaign does."""
    return collate_max_load(
        grid, [run_experiment(probe_config(base, load)) for load in grid])


def test_collate_max_load_returns_stable_point():
    result = sweep_max_load(quick_base(), (0.3, 0.5))
    assert result.max_load in (0.3, 0.5)
    assert result.protocol == "homa"
    assert 0.0 < result.total_utilization <= 1.0
    assert len(result.probes) >= 1


def test_collate_max_load_probe_ordering():
    result = sweep_max_load(quick_base(), (0.2, 0.4))
    loads = [p[0] for p in result.probes]
    assert loads == sorted(loads)


def test_runner_rejects_unknown_mode():
    with pytest.raises(ValueError):
        run_experiment(quick_base(mode="closed_loop"))


def test_runner_net_overrides_applied():
    result = run_experiment(quick_base(
        net_overrides={"preemptive_links": True},
        max_messages=100))
    assert result.finish_rate > 0.9


@pytest.mark.parametrize("fabric", [
    None,                                              # plain config
    TopologySpec(levels=3, pods=2, racks=1, hosts_per_rack=2,
                 aggrs=1, cores=1),                    # 3-level spec
], ids=["network", "fabric_network"])
def test_runner_rejects_removed_cut_through_override(fabric):
    """The ``cut_through`` mode is gone (docs/PERFORMANCE.md); its knob
    must fail loudly on both builders, not come back as an ignored key."""
    with pytest.raises(TypeError, match="cut_through"):
        run_experiment(quick_base(net_overrides={"cut_through": True},
                                  fabric=fabric))


def test_result_slowdown_series_length():
    result = run_experiment(quick_base(max_messages=300))
    series = result.slowdown_series(99)
    assert len(series) == 10  # one value per decile bucket
