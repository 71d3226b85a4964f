"""Smoke test of the benchmark: every workload and the trace path at
``--smoke`` sizes, every name in BENCHMARK.json emitted, and a broken
invariant counted as failures."""

import dataclasses
import json
import math
import re

import pytest

import run as bench  # first: it puts src/ and this directory on sys.path
import perf_harness as harness
import perf_metrics as pm
import perf_workloads as workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [name for name, _ in pm.WORKLOADS]


def test_manifest_on_disk_is_the_generated_one():
    on_disk = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == pm.manifest()


def test_manifest_respects_the_contract_limits():
    manifest = pm.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    for entry in manifest["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = [e for e in manifest["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"]
                                   for e in manifest["end_to_end"])}]
    assert len(json.dumps(manifest)) < 64 * 1024


def _check_result(doc, units):
    line = json.loads(bench.result_line(doc))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, doc["problems"]
    assert line["attempted"] >= 1
    # Only the lossy fabric leaves messages undelivered, and every
    # repetition leaves the same ones.
    assert (line["failed"] > 0) == (doc["workload"] == "protocols_w3_lossy3")
    assert set(doc["failed_per_rep"]) == {line["failed"]}, doc["notes"]
    assert set(line["metrics"]) == set(units)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name
    return {name: metric["value"] for name, metric in line["metrics"].items()}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_timed_smoke_emits_every_end_to_end_metric(name):
    doc = bench.run_workload(name, smoke=True)
    values = _check_result(doc, pm.E2E_UNITS)
    assert all(value > 0 for value in values.values())
    assert doc["raw"]["reps"] >= 2
    assert doc["provenance"]["python"] and doc["spans"]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_smoke_emits_every_per_layer_metric(name):
    doc = bench.run_workload(name, trace=True, smoke=True)
    values = _check_result(doc, pm.LAYER_UNITS)
    shares = {layer: values[f"{layer}.self_frac"] for layer in pm.LAYERS}
    assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
    # campaign_stack's work is native JSON and other threads: ~1x there
    assert values["runner.trace_overhead_x"] > (
        0.5 if name == "campaign_stack" else 1.0)
    assert values["engine.dispatch_ns"] > 0
    if name == "protocols_w3_lossy3":
        assert shares["baselines"] > shares["homa"] > 0
        assert values["fabric.drops"] > 0 and values["fabric.reroutes"] > 0
        assert all(values[f"proto.{p}.events"] > 0 for p in pm.PROTOCOLS)
    elif name == "campaign_stack":
        assert values["engine.run_s"] == 0     # the simulator stays idle
        assert shares["campaign"] > 0 and shares["farm"] > 0
        assert values["wire.bytes_per_cell"] > 0
    else:
        assert shares["baselines"] == 0
        assert shares["engine"] > 0 and shares["homa"] > 0
    assert (values["metrics.probe_overhead_frac"] != 0) == (
        name == "homa_w4_clean")


def test_broken_invariants_are_counted_as_failures():
    cells = workloads.homa_w1_small(seed=3, smoke=True)
    (label, _), = cells
    spans = harness.Spans()
    with spans.installed():
        good = harness.measure_run(cells[0][1], spans, "good")
    assert workloads.account([{label: good}], None)["failed"] == 0

    # Duplicate deliveries are hidden by ExperimentResult.pending; the
    # benchmark's own accounting must surface them, message by message.
    duplicated = dataclasses.replace(good, completed=good.submitted + 7)
    counted = workloads.account([{label: good}, {label: duplicated}], None)
    assert counted["failed"] == 7 and not counted["problems"]
    assert counted["failed_per_rep"] == [0, 7]

    # Undelivered messages fail one by one too, whatever the fabric.
    lost = dataclasses.replace(good, completed=good.submitted - 2)
    assert workloads.account([{label: lost}], None)["failed"] == 2

    # A repetition that breaks a check fails every one of its messages;
    # attempted and failed are one repetition's, however many ran.
    for broken in (
            dataclasses.replace(good, violations=["slowdown below oracle"]),
            dataclasses.replace(good, digest="not-the-same-run")):
        counted = workloads.account([{label: good}, {label: broken}], None)
        assert counted["failed"] == good.submitted and counted["problems"]
        assert counted["attempted"] == good.submitted


def test_a_real_invariant_break_is_caught():
    (_, cfg), = workloads.homa_w1_small(seed=3, smoke=True)

    def run_and_corrupt(cfg):
        result = harness.run_experiment(cfg)
        result.tracker.slowdowns[0] = 0.5   # faster than an idle network
        return result

    spans = harness.Spans()
    with spans.installed():
        sample = harness.measure_run(cfg, spans, "corrupt",
                                     run=run_and_corrupt)
    assert any("oracle" in text for text in sample.violations)
